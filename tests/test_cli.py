"""Configuration parsing, report determinism, command-line surface."""
import concurrent.futures
import contextlib
import gc
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lemmas import WITNESS_CONFIG, artin_schreier_customs, check_printed_laws, from_ints
import valkit
from valkit import expansion
from valkit.cli import (
    SCENARIOS,
    ScenarioConfig,
    _ALLOWED_KEYS,
    emit_config,
    main,
    parse_config,
    parse_config_dict,
    render,
    render_structured,
    run,
)
from valkit.errors import ConfigError
from valkit.groups import rat1
from valkit.kahler import VerdictKind
from valkit.keyseq import FAMILY_BUDGET


# A Hahn g outside the paper's hypotheses below the key x, on which exactly
# two criteria decide and disagree.
CONTRADICTING_HAHN = {
    "scenario": "custom", "backend": "hahn", "p": 2,
    "g": ["1*t^(0)+1*t^(-2)+1*t^(-1)", "1*t^(3/2)+1*t^(-2)", "0", "1"],
    "stages": [{"poly": ["0", "1"]}], "oracle": "resultant",
}


class TestParseConfig:
    def test_minimal_artin_schreier_defaults(self):
        cfg = parse_config('{"scenario": "artin-schreier"}')
        assert cfg.p == 2 and str(cfg.va) == "-1"
        # The budget default is the one a family or a schedule takes.
        assert cfg.terms == 8 and cfg.budget == FAMILY_BUDGET == 64

    def test_window_key_rejected(self, tmp_path, capsys):
        # `budget` is the one work bound; a window decides no value.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "hensel-immediate", "window": 3}))
        assert main(["run", str(path)]) == 4
        assert "window: unknown key 'window'" in capsys.readouterr().err

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "artin-schreier", "tolerance": "0.1"}')

    def test_non_increasing_schedule_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict(
                {"scenario": "kummer-schedule", "schedule": ["0", "1/4", "1/4"]}
            )

    def test_gamma_above_bound_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"scenario": "kummer-schedule", "p": 3, "gamma": "2"})

    @pytest.mark.parametrize("key", ["vp", "scale"])
    def test_zero_vp_or_scale_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be positive"):
            parse_config_dict({"scenario": "kummer-schedule", key: "0"})

    def test_nonnegative_va_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"scenario": "artin-schreier", "va": "0"})

    def test_exact_rationals_only(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"scenario": "artin-schreier", "va": -1.0})

    # 2047 and 3215031751 fool base 2; 318665857834031151167461 =
    # 399165290221 * 798330580441 fools all twelve bases of `_is_prime`.
    @pytest.mark.parametrize("p", [4, 9, 2047, 3215031751, 318665857834031151167461])
    def test_composite_p_rejected(self, p):
        with pytest.raises(ConfigError, match="p must be prime"):
            parse_config_dict({"scenario": "artin-schreier", "p": p})

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 2**61 - 1])
    def test_prime_p_accepted(self, p):
        assert parse_config_dict({"scenario": "hensel-immediate", "p": p}).p == p

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "mystery"}')

    def test_roundtrip_all_builtins(self):
        for data in (
            {"scenario": "artin-schreier", "p": 3, "va": "-2"},
            {"scenario": "kummer-schedule", "p": 5, "vp": "2", "scale": "1/2"},
            {"scenario": "kummer-schedule", "schedule": ["0", "1/4", "3/8"]},
            {"scenario": "hensel-immediate", "g": ["2", "1", "1"], "start": 0},
            {"scenario": "unramified"},
        ):
            cfg = parse_config_dict(data)
            assert parse_config_dict(emit_config(cfg)) == cfg


class TestDeterminism:
    def test_byte_identical_runs(self):
        cfg = parse_config_dict(
            {"scenario": "artin-schreier", "p": 2, "format": "structured"}
        )
        first = render_structured(run(cfg))
        second = render_structured(run(cfg))
        assert first == second

    def test_byte_identical_across_thread_counts(self):
        datas = [
            {"scenario": "artin-schreier", "p": 2},
            {"scenario": "artin-schreier", "p": 3},
            {"scenario": "kummer-schedule", "p": 3},
            {"scenario": "kummer-schedule", "p": 3, "gamma": "1/3"},
            {"scenario": "hensel-immediate"},
            {"scenario": "unramified"},
        ]
        cfgs = [parse_config_dict(d) for d in datas]

        def render_all(workers):
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(lambda c: render_structured(run(c)), cfgs))

        assert render_all(1) == render_all(4)


# Arbitrary JSON trees: ints of any size and sign, and text with non-ASCII
# and control characters and lone surrogates, in keys as in values.
_any_text = st.text(st.characters(exclude_categories=()))
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**200), 2**200) | _any_text,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_any_text, children)
    ),
    max_leaves=40,
)


class TestRenderStructured:
    """The report writer against `json.dumps(sort_keys=True, indent=2)`."""

    @settings(max_examples=300, deadline=None)
    @given(_json_trees)
    def test_matches_json_dumps_byte_for_byte(self, tree):
        assert render_structured(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    def test_a_bool_is_not_an_int(self):
        assert render_structured({"a": [True, False, 1, 0]}) == (
            '{\n  "a": [\n    true,\n    false,\n    1,\n    0\n  ]\n}\n'
        )

    @pytest.mark.parametrize(
        "value",
        [0.5, Fraction(1, 3), rat1(Fraction(1, 3)), VerdictKind.OMEGA_ZERO, {"x"}],
        ids=["float", "Fraction", "GroupElem", "Enum", "set"],
    )
    def test_a_value_json_lacks_raises(self, value):
        with pytest.raises(TypeError):
            render_structured({"records": [{"index": value}]})

    @pytest.mark.parametrize("key", [1, None], ids=["int", "None"])
    def test_a_key_that_is_not_a_str_raises(self, key):
        with pytest.raises(TypeError):
            render_structured({"laws": {key: "0/1"}})


class TestReports:
    def test_structured_report_shape(self):
        cfg = parse_config_dict({"scenario": "artin-schreier", "format": "structured"})
        report = run(cfg)
        assert report["version"] == "valkit-report/2"
        assert report["status"] == "decisive" and report["exit_code"] == 0
        assert report["criteria_agree"] is True
        assert report["inclusion_check"] == ["record_chain", "segment_comparison"]
        assert len(report["records"]) == 8
        assert report["records"][0]["alpha"] == "1/2"
        parsed = json.loads(render_structured(report))
        assert parsed == report

    def test_text_report_mentions_verdict(self):
        cfg = parse_config_dict({"scenario": "unramified"})
        text = render(run(cfg), "text")
        assert "omega_zero" in text and "case (i)" in text

    def test_text_report_of_an_undecided_run_spells_its_scalars(self):
        # Values 1/2 - 2^-n follow ratio 2 while p = 3: no segment is decided
        # and there is no delta suffix.
        schedule = [str(Fraction(1, 2) - Fraction(1, 2**n)) for n in range(1, 11)]
        cfg = parse_config_dict({"scenario": "kummer-schedule", "p": 3, "schedule": schedule})
        lines = render(run(cfg), "text").splitlines()
        assert "alpha segment: undecided" in lines and "beta segment:  undecided" in lines
        assert "delta suffix length: none" in lines and "criteria agree: true" in lines

    def test_inconclusive_schedule_exit_two(self):
        cfg = parse_config_dict(
            {
                "scenario": "kummer-schedule",
                "p": 3,
                "schedule": ["-1/2", "-1/3", "-1/4", "-1/5", "-1/6", "-1/7"],
            }
        )
        report = run(cfg)
        assert report["status"] == "inconclusive" and report["exit_code"] == 2

    def test_finite_schedule_with_another_ratio_inconclusive(self):
        # values 1/2 - 2^-n follow ratio 2 while p = 3: no law is fitted
        schedule = [str(Fraction(1, 2) - Fraction(1, 2**n)) for n in range(1, 11)]
        cfg = parse_config_dict(
            {"scenario": "kummer-schedule", "p": 3, "vp": "1", "schedule": schedule}
        )
        report = run(cfg)
        assert report["status"] == "inconclusive" and report["exit_code"] == 2
        assert report["laws"]["stage0.nu_key"] == {"kind": "unknown"}

    def test_finite_schedule_with_ratio_p_decides(self):
        # values 1/6 - 7^-n at the threshold vp/(p-1) with p = 7
        schedule = [str(Fraction(1, 6) - Fraction(1, 7**n)) for n in range(1, 11)]
        cfg = parse_config_dict(
            {"scenario": "kummer-schedule", "p": 7, "vp": "1", "schedule": schedule}
        )
        report = run(cfg)
        assert report["status"] == "decisive" and report["exit_code"] == 0
        assert report["verdicts"]["b1"]["b1"] is True
        assert report["laws"]["stage0.nu_key"]["ratio"] == 7

    def test_undecided_segments_leave_the_inclusion_check_unconfirmed(self):
        # Neither segment is decided, so the segment comparison never ran.
        cfg = parse_config_dict({
            "scenario": "kummer-schedule", "p": 3, "vp": "1",
            "schedule": ["1/7", "1/5", "1/4", "3/10"], "format": "structured",
        })
        report = run(cfg)
        assert report["exit_code"] == 2
        assert report["alpha_segment"] == report["beta_segment"] == {"kind": "undecided"}
        assert report["inclusion_check"] is not True
        assert report["inclusion_check"] == ["record_chain"]

    @pytest.mark.xfail(strict=True, reason="a law fitted on a finite schedule reports verified")
    def test_finite_schedule_laws_are_not_verified_past_the_data(self):
        # Eight listed values 1/6 - 7^-n: a law on them extrapolates an
        # infinite tail the schedule does not contain.
        schedule = [str(Fraction(1, 6) - Fraction(1, 7**n)) for n in range(1, 9)]
        cfg = parse_config_dict(
            {"scenario": "kummer-schedule", "p": 7, "vp": "1", "schedule": schedule}
        )
        report = run(cfg)
        assert report["exit_code"] == 0
        assert not any(
            law.get("verified") is True and not law.get("extrapolated")
            for law in report["laws"].values()
        )

    # The g' truncation vp + (p-1) * min(0, x_n) of a schedule with scale p^7
    # leaves its pre-switch law only at row 9, so the eight rows fit that
    # law, reported as verified with limit 2 while the rows reach 1.
    @pytest.mark.xfail(strict=True, reason="a late line switch is fitted as a verified law")
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_threshold_schedule_at_a_large_scale_decides_as_at_scale_one(self, p):
        report = run(parse_config_dict(
            {"scenario": "kummer-schedule", "p": p, "vp": "1", "scale": str(p**7)}
        ))
        assert report["status"] == "decisive" and report["exit_code"] == 0
        verdicts = report["verdicts"]
        assert verdicts["segment"]["kind"] == verdicts["classification"]["kind"] == "omega_zero"
        assert verdicts["b1"]["b1"] is True
        assert report["laws"]["stage0.nu_i_gprime"]["limit"] == "1/1"

    # The same late line switch, printed: record 9 of each report breaks
    # the nu_i_gprime and beta_tilde laws it marks verified.
    @pytest.mark.xfail(strict=True, reason="a late line switch is fitted as a verified law")
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_verified_laws_hold_on_every_printed_row_at_a_large_scale(self, p):
        check_printed_laws(run(parse_config_dict(
            {"scenario": "kummer-schedule", "p": p, "vp": "1", "scale": str(p**7), "terms": 14}
        )))

    def test_two_decisive_criteria_that_disagree_contradict(self):
        # No plateau, so b1 does not apply; the segment comparison says
        # omega_nonzero and the classification omega_zero.
        report = run(parse_config_dict(CONTRADICTING_HAHN))
        verdicts = report["verdicts"]
        assert verdicts["segment"]["kind"] == "omega_nonzero"
        assert verdicts["classification"]["kind"] == "omega_zero"
        assert verdicts["b1"]["applicable"] is False
        assert report["criteria_agree"] is False
        assert report["status"] == "violation" and report["exit_code"] == 3
        assert report["error"] == "decisive criteria contradict"

    def test_error_embedded_with_failure_status(self):
        cfg = ScenarioConfig(scenario="hensel-immediate", p=2, g=("1", "1", "1"), start=0)
        report = run(cfg)  # x^2+x+1 has no residue root at 0
        assert report["status"] == "error" and report["exit_code"] == 3
        assert "residue root" in report["error"]

    def test_infinite_value_below_g_is_reported(self):
        # g = x^2 has a repeated root: nu(g') = nu(2x) is infinite.
        report = run(parse_config_dict({"scenario": "unramified", "g": ["0", "0", "1"]}))
        assert report["status"] == "error" and report["exit_code"] == 3
        assert report["error"] == (
            "ScenarioDataError: unexpected infinite value: g is reducible or has a repeated root"
        )

    def test_b1_with_a_key_of_the_degree_of_g_after_the_plateau(self):
        # Only keys of degree strictly between the plateau's and g's make
        # the b1 criterion inapplicable; x^2 + x + 4 has the degree of g.
        report = run(parse_config_dict({
            "scenario": "custom", "backend": "padic", "p": 7, "g": ["5", "1", "1"],
            "stages": [{"family": "hensel_lift", "start": 1}, {"poly": ["4", "1", "1"]}],
            "oracle": "stabilization",
        }))
        assert report["status"] == "decisive" and report["exit_code"] == 0
        b1 = report["verdicts"]["b1"]
        assert b1["applicable"] is True and b1["b1"] is True

    def test_hand_built_config_without_va_is_a_config_error(self):
        report = run(ScenarioConfig(scenario="artin-schreier", p=2))
        assert report["status"] == "error" and report["exit_code"] == 4
        assert report["error"].startswith("ConfigError: ")

    def test_hand_built_unknown_family_is_a_config_error(self):
        cfg = ScenarioConfig(
            scenario="custom",
            p=2,
            backend="padic",
            g=("2", "1", "1"),
            stages=({"family": "nope"},),
            oracle="stabilization",
        )
        report = run(cfg)
        assert report["status"] == "error" and report["exit_code"] == 4
        assert "known 'family'" in report["error"]
        assert "status: error: ConfigError" in render(report, "text")

    @pytest.mark.parametrize(
        "cfg",
        [
            ScenarioConfig("artin-schreier", 2, va=0.5),
            ScenarioConfig(
                scenario="custom",
                p=2,
                backend="padic",
                g=("2", "1", "1"),
                stages=(["x"],),
                oracle="resultant",
            ),
            ScenarioConfig(Fraction(1), 2),
        ],
        ids=["float-va", "list-stage", "fraction-scenario"],
    )
    def test_hand_built_wrong_types_are_config_errors(self, cfg):
        report = run(cfg)
        assert report["status"] == "error" and report["exit_code"] == 4
        assert report["error"].startswith("ConfigError: ")
        assert "status: error: ConfigError" in render(report, "text")
        assert json.loads(render(report, "structured"))["exit_code"] == 4

    def test_replaced_fields_are_checked_again(self):
        cfg = parse_config_dict({"scenario": "artin-schreier"})
        assert run(cfg)["exit_code"] == 0
        changed = replace(cfg, va=Fraction(1))
        assert run(changed)["exit_code"] == 4
        assert run(replace(cfg, terms=cfg.terms))["exit_code"] == 0


class TestMemory:
    def test_repeated_runs_keep_no_memory_in_valkit(self):
        # A run's oracle, rows and report are garbage once it returns: 400
        # runs may leave less than 64 KiB allocated by valkit's own lines.
        cfgs = [
            parse_config_dict({"scenario": s})
            for s in ("unramified", "hensel-immediate", "artin-schreier", "kummer-schedule")
        ]
        for cfg in cfgs:
            run(cfg)  # lazy imports and other first-use state
        package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(valkit.__file__), "*"))]
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(package)
            for _ in range(100):
                for cfg in cfgs:
                    run(cfg)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(package)
        finally:
            tracemalloc.stop()
        kept = sum(d.size_diff for d in after.compare_to(before, "filename"))
        assert kept < 64 * 1024


class TestMain:
    def test_scenario_subcommand(self, capsys):
        code = main(["scenario", "unramified", "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["status"] == "decisive"

    def test_run_subcommand(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "artin-schreier", "p": 2, "format": "text"}')
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 0 and "omega_zero" in out

    def test_bad_config_exit_four(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": "artin-schreier", "tolerance": 1}')
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 4 and "tolerance" in err

    def test_non_utf8_config_exit_four(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"scenario": "unramified"}')
        assert main(["run", str(path)]) == 4
        assert "configuration error" in capsys.readouterr().err

    def test_deeply_nested_json_exit_four(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["run", str(path)]) == 4
        assert "nested too deeply" in capsys.readouterr().err

    def test_non_integer_stage_start_exit_four(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"scenario":"custom","backend":"padic","p":2,"g":["2","1","1"],'
            '"stages":[{"family":"hensel_lift","start":"x"}],"oracle":"stabilization"}'
        )
        code = main(["run", str(path)])
        err = capsys.readouterr().err
        assert code == 4 and "start must be an integer" in err

    @pytest.mark.parametrize(
        "backend, g, stages, oracle, message",
        [
            ("padic", ["2", "1", "1"], [{"family": "nope"}], "resultant", "known 'family'"),
            ("padic", ["2", "1", "1"], [{}], "resultant", "known 'family'"),
            (
                "padic", ["2", "1", "1"], [{"poly": ["0", "1"], "family": "hensel_lift"}],
                "resultant", "not both",
            ),
            # No stage takes a va key: an artin_schreier stage reads a off g.
            (
                "hahn", ["1*t^(-1)", "1", "1"], [{"family": "artin_schreier", "va": "-1"}],
                "stabilization", "bad stage",
            ),
            (
                "hahn", ["1*t^(-1)", "1", "1"], [{"poly": ["0", "1"], "va": "-1"}],
                "resultant", "bad stage",
            ),
            (
                "padic", ["2", "1", "1"], [{"family": "hensel_lift", "va": "-1"}],
                "stabilization", "bad stage",
            ),
            (
                "hahn", ["1*t^(-1)", "1", "1"], [{"family": "artin_schreier", "start": 0}],
                "stabilization", "start goes only on a hensel_lift stage",
            ),
            (
                "padic", ["2", "1", "1"], [{"poly": ["0", "1"], "start": 0}],
                "resultant", "start goes only on a hensel_lift stage",
            ),
            (
                "padic", ["1", "1", "1"], [{"poly": ["0", "1"]}],
                "stabilization", "stabilization oracle needs a plateau family",
            ),
        ],
    )
    def test_bad_custom_stage_exit_four(self, backend, g, stages, oracle, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scenario": "custom", "backend": backend, "p": 2, "g": g,
            "stages": stages, "oracle": oracle,
        }))
        assert main(["run", str(path)]) == 4
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"scenario": "hensel-immediate", "start": True},
            {
                "scenario": "custom", "backend": "padic", "p": 2, "g": ["2", "1", "1"],
                "stages": [{"family": "hensel_lift", "start": True}], "oracle": "stabilization",
            },
        ],
    )
    def test_boolean_start_exit_four(self, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 4
        assert "start must be an integer" in capsys.readouterr().err

    def test_infinite_value_below_g_exit_three(self, tmp_path, capsys):
        # g = x^2: the key x divides g, so values below g become infinite
        path = tmp_path / "square.json"
        path.write_text('{"scenario":"unramified","p":2,"g":["0","0","1"]}')
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 3 and "status: error" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "artin-schreier", "--p", "4"],
            ["scenario", "unramified", "--p", "6"],
        ],
    )
    def test_non_prime_p_exit_four(self, argv, capsys):
        # Z/4 and Z/6 are not fields
        assert main(argv) == 4
        assert "p must be prime" in capsys.readouterr().err

    def test_non_prime_p_custom_exit_four(self, tmp_path, capsys):
        path = tmp_path / "z4.json"
        path.write_text(
            '{"scenario":"custom","backend":"padic","p":4,"g":["1","1","1"],'
            '"stages":[{"poly":["0","1"]}],"oracle":"resultant"}'
        )
        assert main(["run", str(path)]) == 4
        assert "p must be prime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"scenario": "hensel-immediate", "g": ["x", "1", "1"]},
            {"scenario": "hensel-immediate", "g": "111"},
            {"scenario": "unramified", "g": ["1", "1/0", "1"]},
            {"scenario": "unramified", "g": []},
            {
                "scenario": "custom", "backend": "padic", "p": 2, "g": ["1", "1", "1"],
                "stages": [{"poly": "01"}], "oracle": "resultant",
            },
            {
                "scenario": "custom", "backend": "hahn", "p": 2, "g": ["1", "zz", "1"],
                "stages": [{"poly": ["0", "1"]}], "oracle": "resultant",
            },
        ],
    )
    def test_malformed_coefficients_exit_four(self, data, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 4
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend, p, stage",
        [
            ("padic", 2, ["2"]),
            ("padic", 2, ["1/2", "3"]),
            ("padic", 3, ["0", "2", "0"]),
            ("padic", 2, ["0", "0"]),
            ("hahn", 3, ["1", "3"]),  # 3 = 0 over F_3: a constant
            ("hahn", 2, ["0", "1*t^(1)"]),
        ],
    )
    def test_constant_or_non_monic_stage_exit_four(self, backend, p, stage, tmp_path, capsys):
        g = ["2", "1", "1"] if backend == "padic" else ["1*t^(-1)", "2", "0", "1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scenario": "custom", "backend": backend, "p": p, "g": g,
            "stages": [{"poly": stage}], "oracle": "resultant",
        }))
        assert main(["run", str(path)]) == 4
        assert "an explicit key must be monic of degree >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "unramified", "--g", "1,2"],
            ["scenario", "unramified", "--g", "5"],
            ["scenario", "hensel-immediate", "--g", "2,1,3"],
            ["scenario", "unramified", "--p", "3", "--g", "1,1,3"],
        ],
    )
    def test_constant_or_non_monic_g_exit_four(self, argv, capsys):
        assert main(argv) == 4
        assert "g: the support polynomial must be monic of degree >= 1" in capsys.readouterr().err

    def test_constant_or_non_monic_custom_g_exit_four(self, tmp_path, capsys):
        for backend, p, g in (("padic", 2, ["1/2", "3"]), ("hahn", 3, ["1", "1", "2"])):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({
                "scenario": "custom", "backend": backend, "p": p, "g": g,
                "stages": [{"poly": ["0", "1"]}], "oracle": "resultant",
            }))
            assert main(["run", str(path)]) == 4
            assert "g: the support polynomial must be monic" in capsys.readouterr().err

    def test_monic_stage_after_trailing_zeros_accepted(self):
        for backend, stage in (("padic", ["1", "1", "0"]), ("hahn", ["1", "1", "3"])):
            cfg = parse_config_dict({
                "scenario": "custom", "backend": backend, "p": 3, "g": ["1", "1", "1"],
                "stages": [{"poly": stage}], "oracle": "resultant",
            })
            assert cfg.stages == ({"poly": stage},)

    @pytest.mark.parametrize(
        "g, stage",
        [
            (["1*t^(1/0)", "2", "0", "1"], ["0", "1"]),
            (["1*t^(-1)", "2", "0", "1"], ["0", "1*t^(-1/0)"]),
        ],
    )
    def test_hahn_zero_denominator_exit_four(self, g, stage, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scenario": "custom", "backend": "hahn", "p": 3, "g": g,
            "stages": [{"poly": stage}], "oracle": "resultant",
        }))
        assert main(["run", str(path)]) == 4
        assert "zero denominator" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend, g, stage, needs",
        [
            ("hahn", ["1*t^(-1)", "2", "0", "1"], {"family": "hensel_lift", "start": 0}, "padic"),
            ("padic", ["2", "1", "1"], {"family": "artin_schreier"}, "hahn"),
        ],
    )
    def test_family_on_wrong_backend_exit_four(self, backend, g, stage, needs, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "scenario": "custom", "backend": backend, "p": 3, "g": g,
            "stages": [stage], "oracle": "stabilization",
        }))
        assert main(["run", str(path)]) == 4
        assert f"needs backend '{needs}'" in capsys.readouterr().err

    def test_integer_stage_coefficients_accepted(self):
        cfg = parse_config_dict(
            {
                "scenario": "custom", "backend": "padic", "p": 2, "g": [1, 1, 1],
                "stages": [{"poly": [0, 1]}], "oracle": "resultant",
            }
        )
        assert cfg.g == ("1", "1", "1")
        assert run(cfg)["status"] == "decisive"

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "artin-schreier", "--terms", "1"],
            ["scenario", "hensel-immediate", "--terms", "1"],
            ["scenario", "kummer-schedule", "--terms", "1"],
            ["scenario", "artin-schreier", "--window", "1"],
            ["scenario", "hensel-immediate", "--window", "1"],
        ],
    )
    def test_terms_or_window_below_two_exit_four(self, argv, capsys):
        # No window is left to set: the flag itself is unrecognized.
        assert main(argv) == 4
        err = capsys.readouterr().err
        if "--window" in argv:
            assert "unrecognized arguments: --window" in err
        else:
            assert "must be an integer >= 2" in err

    _CUSTOM_STABILIZED = {
        "scenario": "custom", "backend": "padic", "p": 2, "g": ["2", "1", "1"],
        "stages": [{"poly": ["0", "1"]}, {"family": "hensel_lift"}], "oracle": "stabilization",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "artin-schreier", "--p", "2", "--terms", "64"],
            ["scenario", "hensel-immediate", "--terms", "64"],
            ["scenario", "artin-schreier", "--p", "3", "--budget", "20", "--terms", "20"],
            ["scenario", "hensel-immediate", "--budget", "16", "--terms", "16"],
            # Too small a budget for the default eight terms.
            ["scenario", "artin-schreier", "--budget", "4"],
            ["scenario", "hensel-immediate", "--budget", "8"],
            ["scenario", "artin-schreier", "--budget", "3", "--terms", "3"],
            ["scenario", "hensel-immediate", "--budget", "20", "--terms", "20"],
        ],
    )
    def test_terms_no_stabilization_serves_exit_four(self, argv, capsys):
        assert main(argv) == 4
        assert "terms: must be at most budget - 1" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", [64, 20, 16])
    def test_custom_stabilization_bound(self, budget, capsys):
        data = {**self._CUSTOM_STABILIZED, "budget": budget}
        with pytest.raises(ConfigError, match="terms: must be at most budget - 1"):
            parse_config_dict({**data, "terms": budget})
        # At the bound the last term still stabilizes within the budget.
        report = run(parse_config_dict({**data, "terms": budget - 1}))
        assert report["exit_code"] == 0 and report["status"] == "decisive"

    @pytest.mark.parametrize(
        "stages, g",
        [
            ([{"family": "hensel_lift"}, {"family": "hensel_lift"}], ["2", "1", "1"]),
            ([{"family": "hensel_lift"}, {"poly": ["0", "1"]}], ["2", "1", "1"]),
            ([{"family": "hensel_lift", "start": 1}], ["-1/3", "1"]),
        ],
    )
    def test_key_after_the_plateau_of_its_degree_exit_three(self, stages, g, tmp_path, capsys):
        # a second family, a linear key after the family, or a linear g
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**self._CUSTOM_STABILIZED, "stages": stages, "g": g}))
        assert main(["run", str(path)]) == 3
        assert "HypothesisViolatedError: every key after a plateau" in capsys.readouterr().out

    def test_hensel_immediate_linear_g_exit_three(self, capsys):
        assert main(["scenario", "hensel-immediate", "--g=-1/3,1", "--start", "1"]) == 3
        assert "HypothesisViolatedError: every key after a plateau" in capsys.readouterr().out

    # The n-th key certifies at family member n + 1, so budget - 1 terms
    # decide.
    @pytest.mark.parametrize("argv", [
        ["scenario", "artin-schreier", "--budget", "20", "--terms", "19"],
        ["scenario", "hensel-immediate", "--budget", "20", "--terms", "19"],
        ["scenario", "artin-schreier", "--terms", "63"],
        ["scenario", "hensel-immediate", "--terms", "63"],
        ["scenario", "artin-schreier", "--p", "7", "--budget", "20", "--terms", "19"],
        ["scenario", "hensel-immediate", "--p", "7", "--g=5,1,1", "--start", "1", "--terms", "63"],
    ])
    def test_terms_at_the_stabilization_bound_decide(self, argv, capsys):
        assert main(argv) == 0

    def test_bound_only_on_the_stabilization_oracle(self):
        data = {**self._CUSTOM_STABILIZED, "oracle": "resultant", "budget": 3, "terms": 8}
        assert parse_config_dict(data).terms == 8
        assert parse_config_dict({"scenario": "unramified", "budget": 3, "terms": 8}).terms == 8
        kummer = {"scenario": "kummer-schedule", "budget": 12, "terms": 16}
        assert parse_config_dict(kummer).terms == 16

    @pytest.mark.parametrize("scenario", ["artin-schreier", "hensel-immediate", "kummer-schedule"])
    def test_two_terms_decide(self, scenario, capsys):
        assert main(["scenario", scenario, "--terms", "2"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "nope"],
            ["scenario", "unramified", "--p", "x"],
            [],
            ["selftest"],
            ["selftest", "--seed", "1"],
            ["scenario", "hensel-immediate", "--window", "3"],
        ],
    )
    def test_malformed_command_line_exit_four(self, argv, capsys):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "usage: valkit" in captured.err and "error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["scenario", "-h"]])
    def test_help_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: valkit" in capsys.readouterr().out

    def test_kummer_flags(self, capsys):
        code = main(
            ["scenario", "kummer-schedule", "--p", "5", "--gamma", "1/8", "--format", "structured"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["verdicts"]["segment"]["kind"] == "omega_nonzero"


class TestBudgetsBoundWork:
    """A budget bounds work and never changes a decisive answer."""

    def test_budget_one_without_a_family_decides(self, capsys):
        # Explicit keys and the resultant oracle build no family members.
        assert main(["scenario", "unramified", "--budget", "1"]) == 0

    @pytest.mark.parametrize("budget", range(2, 9))
    def test_small_schedule_budget_is_inconclusive(self, budget, capsys):
        # Too few schedule terms for a law: exit 2, as at every budget below
        # what a fit needs.
        assert main(["scenario", "kummer-schedule", "--budget", str(budget)]) == 2

    def test_linear_keys_fix_alpha_below_a_fit(self, capsys):
        # Three terms within a budget of four are too few for a fit, and
        # none is needed: a plateau key is linear, so nu(Q') = 0 and alpha
        # is nu(Q) negated, which the family's certificate makes diverge;
        # the family states beta-tilde diverging downwards.  Both budgets
        # decide as the default one does.
        for budget, terms in ((4, 3), (8, 5)):
            argv = ["scenario", "hensel-immediate", "--budget", str(budget), "--terms", str(terms)]
            assert main([*argv, "--format", "structured"]) == 0
            report = json.loads(capsys.readouterr().out)
            laws = report["laws"]
            assert laws["stage0.nu_key_deriv"] == {
                "kind": "law", "scale": "0/1", "limit": "0/1", "ratio": 2, "offset": 0,
                "verified": True,
            }
            assert laws["stage0.alpha"] == {"kind": "diverging", "increasing": False}
            assert laws["stage0.beta_tilde"] == {"kind": "diverging", "increasing": False}
            assert report["alpha_segment"] == {"kind": "whole", "rank": 1}
            assert report["status"] == "decisive"
            verdicts = report["verdicts"]
            assert verdicts["segment"]["kind"] == verdicts["classification"]["kind"] == "omega_zero"

    @pytest.mark.parametrize("terms, budget", [(5200, None), (200, 16)])
    def test_closed_form_schedule_stops_at_the_budget(self, terms, budget):
        data = {"scenario": "kummer-schedule", "p": 7, "vp": "1", "terms": terms}
        if budget is not None:
            data["budget"] = budget
        cfg = parse_config_dict(data)
        report = run(cfg)
        assert report["exit_code"] == 0
        assert len(report["records"]) == cfg.budget


class TestCustomScenario:
    def test_custom_unramified_equivalent(self):
        cfg = parse_config_dict(
            {
                "scenario": "custom",
                "backend": "padic",
                "p": 2,
                "g": ["1", "1", "1"],
                "stages": [{"poly": ["0", "1"]}],
                "oracle": "resultant",
            }
        )
        report = run(cfg)
        assert report["status"] == "decisive"
        assert report["verdicts"]["classification"]["case"] == "i"

    def test_custom_artin_schreier_family(self):
        cfg = parse_config_dict(
            {
                "scenario": "custom",
                "backend": "hahn",
                "p": 2,
                "g": ["1*t^(-1)", "1*t^(0)", "1*t^(0)"],
                "stages": [{"family": "artin_schreier"}],
                "oracle": "stabilization",
            }
        )
        # g = x^2 + x + a with a = t^-1: the same extension as x^2 - x - a
        # in characteristic 2
        report = run(cfg)
        assert report["status"] == "decisive"
        assert report["verdicts"]["segment"]["kind"] == "omega_zero"

    def test_custom_hahn_plain_integer_coefficients(self):
        cfg = parse_config_dict(
            {
                "scenario": "custom", "backend": "hahn", "p": 2, "g": ["1*t^(-1)", "1", "1"],
                "stages": [{"family": "artin_schreier"}], "oracle": "stabilization",
            }
        )
        report = run(cfg)
        assert report["status"] == "decisive"
        assert report["verdicts"]["segment"]["kind"] == "omega_zero"

    def test_custom_mixed_explicit_and_plateau(self):
        cfg = parse_config_dict(
            {
                "scenario": "custom",
                "backend": "hahn",
                "p": 2,
                "g": ["1*t^(-1)", "1*t^(0)", "1*t^(0)"],
                "stages": [
                    {"poly": ["0*t^(0)", "1*t^(0)"]},
                    {"family": "artin_schreier"},
                ],
                "oracle": "stabilization",
            }
        )
        report = run(cfg)
        assert report["status"] == "decisive"
        assert report["verdicts"]["segment"]["kind"] == "omega_zero"
        assert report["records"][0]["index"] == "0.0"
        assert report["records"][1]["index"] == "1.1"

    # a = -g(0) in {b^p - b} + O_K: t^-1 + t^-1/4 = P(t^-1/2 + t^-1/4) and
    # t^-1 + t^-1/2 = P(t^-1/2) at p = 2, so g = x^2 + x + a splits.
    @pytest.mark.parametrize("a", ["1*t^(-1)+1*t^(-1/4)", "1*t^(-1)+1*t^(-1/2)"])
    @pytest.mark.parametrize("oracle", ["stabilization", "resultant"])
    def test_reducible_artin_schreier_g_violates_a_hypothesis(self, a, oracle):
        report = run(parse_config_dict({
            "scenario": "custom", "backend": "hahn", "p": 2, "g": [a, "1", "1"],
            "stages": [{"family": "artin_schreier"}], "oracle": oracle,
        }))
        assert report["exit_code"] == 3
        assert report["error"].startswith("HypothesisViolatedError: the artin_schreier family")

    def test_artin_schreier_stage_needs_its_g(self):
        # x^2 + t^-1 lacks the -x term of x^p - x - a.
        report = run(parse_config_dict({
            "scenario": "custom", "backend": "hahn", "p": 2, "g": ["1*t^(-1)", "0", "1"],
            "stages": [{"family": "artin_schreier"}], "oracle": "resultant",
        }))
        assert report["exit_code"] == 3
        assert "needs g = x^p - x - a" in report["error"]

    def test_custom_requires_all_fields(self):
        with pytest.raises(ConfigError):
            parse_config_dict({"scenario": "custom", "backend": "padic"})

    def test_witness_search_from_the_front_door(self, monkeypatch):
        found = []
        find_witness = expansion.find_witness

        def counted(ks, nu, f, candidates):
            index = find_witness(ks, nu, f, candidates)
            found.append((f, index))
            return index

        monkeypatch.setattr(expansion, "find_witness", counted)
        report = run(parse_config_dict(WITNESS_CONFIG))
        assert (report["status"], report["exit_code"], report["nu_gprime"]) == ("decisive", 0, "1/1")
        classification = report["verdicts"]["classification"]
        assert (classification["kind"], classification["case"]) == ("omega_zero", "i")
        witness = classification["witness"]
        assert (witness["i"], witness["ell"], witness["min_alpha"]) == ("1.0", "1.0", "-1/1")
        # One search, for the slot coefficient 4x of g over x^2 + x + 1: the key x.
        ((f, index),) = found
        assert f == from_ints(f.backend, [0, 4]) and index.label() == "0.0"


# Generated configs: small valid sizes, and mostly valid values with some
# invalid ones mixed in, so that both the parse checks and the runs are
# reached.
_rationals = st.sampled_from(["-1", "-1/2", "-3/4", "-2", "-1/3", -1, "0", "1", "1/0", True])
_int_coeffs = st.lists(st.sampled_from(["0", "1", "2", "-1", "3", "1/2"]), min_size=1, max_size=4)
_hahn_coeffs = st.lists(
    st.sampled_from(["0", "1", "1*t^(-1)", "2*t^(1/2)", "1*t^(-1/3)", "1*t^(1/0)"]),
    min_size=1, max_size=4,
)
_starts = st.sampled_from([0, 1, 2, 3, -1, True, "1"])
_sizes = st.fixed_dictionaries({
    "p": st.sampled_from([2, 3]),
    "terms": st.integers(2, 4),
    "budget": st.integers(3, 8),
})


def _stage(backend):
    poly = st.fixed_dictionaries({"poly": _int_coeffs if backend == "padic" else _hahn_coeffs})
    family = st.fixed_dictionaries(
        {"family": st.sampled_from(["hensel_lift", "artin_schreier", "nope"])},
        optional={"va": _rationals, "start": _starts},
    )
    return st.one_of(poly, family)


def _custom(backend):
    return st.fixed_dictionaries({
        "scenario": st.just("custom"),
        "backend": st.just(backend),
        "g": _int_coeffs if backend == "padic" else _hahn_coeffs,
        "stages": st.lists(_stage(backend), min_size=1, max_size=2),
        "oracle": st.sampled_from(["resultant", "stabilization"]),
    })


_configs = st.tuples(
    _sizes,
    st.one_of(
        st.fixed_dictionaries({"scenario": st.just("artin-schreier")}, optional={"va": _rationals}),
        st.fixed_dictionaries(
            {"scenario": st.just("hensel-immediate")}, optional={"g": _int_coeffs, "start": _starts}
        ),
        st.fixed_dictionaries({"scenario": st.just("unramified")}, optional={"g": _int_coeffs}),
        _custom("padic"),
        _custom("hahn"),
    ),
).map(lambda pair: {**pair[0], **pair[1], "format": "structured"})


class TestGeneratedConfigs:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_configs)
    def test_every_config_ends_in_an_exit_code(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", path])
        assert code in (0, 2, 3, 4)
        if code == 4:
            assert "configuration error" in err.getvalue()
        else:
            # A config the parser accepted never fails as a config later.
            report = json.loads(out.getvalue())
            assert "ConfigError" not in (report["error"] or "")
            # Error and violation reports cross-check the writer too.
            assert out.getvalue() == json.dumps(report, sort_keys=True, indent=2) + "\n"
            check_printed_laws(report)


def _decisive(report: dict) -> dict:
    """The verdict of each criterion that decided, by criterion."""
    verdicts = report.get("verdicts")
    if verdicts is None:
        return {}
    out = {
        name: verdicts[name]["kind"]
        for name in ("segment", "classification")
        if verdicts[name]["kind"] != "inconclusive"
    }
    if verdicts["b1"]["applicable"] and verdicts["b1"]["b1"] is not None:
        out["b1"] = verdicts["b1"]["b1"]
    return out


class TestTwoOracles:
    """The stabilization and the resultant oracle answer for the same root of g."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(artin_schreier_customs())
    def test_artin_schreier_configs_agree(self, data):
        stabilized = run(parse_config_dict(data))
        resultant = run(parse_config_dict({**data, "oracle": "resultant"}))
        assert stabilized["exit_code"] == resultant["exit_code"]
        assert _decisive(stabilized) == _decisive(resultant)
        if stabilized["exit_code"] == 0:
            # Both value the same root of g: every record and law agrees.
            assert {**stabilized, "scenario": None} == {**resultant, "scenario": None}
        for report in (stabilized, resultant):
            check_printed_laws(report)


# The front door over arbitrary input: command lines built from the real
# flags, small integers and junk, and JSON documents of any shape whose
# keys and leaves are often the config's own.  Integers stay small so that
# every run is bounded.
_plausible = st.one_of(
    st.integers(-3, 12),
    st.sampled_from(["-1", "1/2", "-1/2", "-1/3", "1/3", "structured", "text"]),
)
# Values each config key accepts, so that many documents reach a run.
_VALID = {
    "p": [2, 3, 5, 7], "terms": [2, 4, 8], "budget": [16, 64],
    "format": ["text", "structured"], "va": ["-1", "-1/2"], "vp": ["1", "1/2"],
    "gamma": ["1/4", "1/3"], "scale": ["1", "2"], "g": [["2", "1", "1"], ["1", "1", "1"]],
    "start": [0, 1], "schedule": [["1/7", "1/5", "1/4", "3/10"]], "backend": ["padic", "hahn"],
    "stages": [[{"poly": ["0", "1"]}], [{"family": "hensel_lift"}]],
    "oracle": ["resultant", "stabilization"],
}
_OPTIONS = ["p", "va", "vp", "gamma", "scale", "terms", "budget", "g", "start", "format"]


def _argv_value(flag):
    valid = [",".join(v) if isinstance(v, list) else str(v) for v in _VALID[flag]]
    return st.one_of(st.sampled_from(valid), _plausible.map(str)).map(
        lambda value: f"--{flag}={value}"
    )


_argv_tokens = st.one_of(
    st.sampled_from([
        "run", "scenario", "selftest", *SCENARIOS, *(f"--{flag}" for flag in _OPTIONS),
        "--seed", "--instances", "-h", "--help", "--", "2,1,1", "-1/3,1",
    ]),
    _plausible.map(str),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz-=,._ ", max_size=8),
)
_argvs = st.one_of(
    st.lists(_argv_tokens, max_size=8),
    st.sampled_from(SCENARIOS).flatmap(
        lambda scenario: st.lists(
            st.sampled_from([f for f in _OPTIONS if f in _ALLOWED_KEYS[scenario]]).flatmap(
                _argv_value
            ),
            max_size=4,
        ).map(lambda options: ["scenario", scenario, *options])
    ),
)
_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
    _plausible,
    st.sampled_from([*SCENARIOS, "padic", "hahn", "hensel_lift", "artin_schreier", "1*t^(-1)"]),
)
_json_keys = st.one_of(st.sampled_from([*_VALID, "scenario", "poly", "family"]), st.text(max_size=4))
_json_docs = st.recursive(
    _json_leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_json_keys, children, max_size=6),
    max_leaves=20,
)
# A scenario with some of its own keys, each holding a value the key
# accepts or any document.
_json_configs = st.sampled_from(SCENARIOS).flatmap(
    lambda scenario: st.fixed_dictionaries(
        {"scenario": st.just(scenario)},
        optional={
            key: st.one_of(st.sampled_from(_VALID[key]), _json_docs)
            for key in sorted(_ALLOWED_KEYS[scenario] - {"scenario"})
        },
    )
)


def _main_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code, out.getvalue(), err.getvalue()


class TestFrontDoor:
    @settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
    @given(_argvs)
    def test_every_command_line_ends_in_an_exit_code(self, argv):
        code, _, err = _main_output(argv)
        assert code in (0, 2, 3, 4)
        if not argv or (argv[0] not in ("run", "scenario") and argv[0][:1] != "-"):
            assert code == 4  # no subcommand
        if "usage:" in err:
            assert code == 4  # argparse rejected the command line
        if code == 4:
            assert "usage:" in err or "configuration error" in err

    @settings(max_examples=200, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_json_docs, _json_configs))
    def test_every_json_document_ends_in_an_exit_code(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code, _, err = _main_output(["run", path])
        assert code in (0, 2, 3, 4)
        if code == 4:
            assert "configuration error" in err
        else:
            assert isinstance(doc, dict)
