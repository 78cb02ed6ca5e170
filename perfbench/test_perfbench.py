"""Self-tests of the benchmark's own pieces.

    python3 -m pytest perfbench -q
"""
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from check import check_report  # noqa: E402
from run import MIN_SAMPLES, percentile  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    count = 3 * workloads.cycle_length(workload)
    first = workloads.generate(workload, 7, count)
    assert first == workloads.generate(workload, 7, count)
    assert first != workloads.generate(workload, 8, count)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycles_hold_every_cell_and_golden(workload):
    cycle = workloads.cycle_length(workload)
    instances = workloads.generate(workload, 3, 2 * cycle)
    for start in (0, cycle):
        part = instances[start : start + cycle]
        goldens = sorted(inst.golden for inst in part if inst.golden)
        assert goldens == sorted(workloads.WORKLOAD_GOLDENS[workload])
        for inst in part:
            if not inst.golden:
                workloads.check_domain(workload, inst.config)


@pytest.mark.parametrize(
    "workload, config",
    [
        ("hahn-plateau", {"p": 4, "va": "-1"}),
        ("hahn-plateau", {"p": 3, "va": "1/2"}),
        ("padic-lift", {"p": 3, "g": ["2", "0", "1"], "start": 0}),  # start not a root
        ("padic-lift", {"p": 2, "g": ["-2", "1", "1"], "start": 1}),  # rational root 1
        ("value-schedule", {"p": 3, "vp": "1", "gamma": "1", "scale": "1"}),
        ("explicit-keys", {"p": 3, "g": ["2", "0", "1"]}),  # x = 1 is a root mod 3
    ],
)
def test_domain_check_rejects_out_of_domain_inputs(workload, config):
    with pytest.raises(ValueError):
        workloads.check_domain(workload, config)


def test_percentile_states_sample_count_and_refuses_small_samples():
    samples = [float(i) for i in range(MIN_SAMPLES)]
    p90 = percentile(samples, 90)
    assert p90.samples == MIN_SAMPLES
    assert 88.0 < p90.value < 91.0
    with pytest.raises(ValueError, match="p90 needs at least 100 samples, got 99"):
        percentile(samples[:-1], 90)
    assert percentile(samples[:20], 50).samples == 20


def _report(kind="omega_zero", records=(), case="ii", b1=None, status="decisive"):
    b1_verdict = kind == "omega_zero" if b1 is None else b1
    return {
        "criteria_agree": True,
        "exit_code": 0 if status == "decisive" else 2,
        "records": list(records),
        "status": status,
        "verdicts": {
            "b1": {"applicable": True, "b1": b1_verdict},
            "classification": {"case": case, "kind": kind},
            "segment": {"kind": kind},
        },
    }


_AS_CONFIG = {"scenario": "artin-schreier", "p": 3, "terms": 2, "va": "-2/1"}
_AS_RECORDS = [
    {"index": "0.1", "alpha": "2/3", "beta": "2/1"},
    {"index": "0.2", "alpha": "2/9", "beta": "2/3"},
]


def _text(report):
    import json

    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_checker_accepts_hand_built_right_reports():
    assert check_report("hahn-plateau", _AS_CONFIG, _text(_report(records=_AS_RECORDS))) == []
    below = {"p": 3, "vp": "1", "gamma": "1/3", "scale": "1"}
    assert check_report("value-schedule", below, _text(_report("omega_nonzero"))) == []
    assert check_report("explicit-keys", {"p": 3}, _text(_report(case="i"))) == []


@pytest.mark.parametrize(
    "workload, config, report",
    [
        # one record off the alpha_n = -va/p**n law
        ("hahn-plateau", _AS_CONFIG, _report(records=[_AS_RECORDS[0], dict(_AS_RECORDS[1], alpha="1/9")])),
        ("hahn-plateau", _AS_CONFIG, _report(records=_AS_RECORDS[:1])),
        ("hahn-plateau", _AS_CONFIG, _report(records=_AS_RECORDS, b1=False)),
        ("padic-lift", {"p": 2}, _report(status="inconclusive")),
        ("padic-lift", {"p": 2}, _report("omega_nonzero")),
        ("value-schedule", {"p": 3, "vp": "1", "gamma": "1/2", "scale": "1"}, _report("omega_nonzero")),
        ("explicit-keys", {"p": 3}, _report(case="ii")),
    ],
)
def test_checker_flags_hand_built_wrong_reports(workload, config, report):
    assert check_report(workload, config, _text(report))


def test_checker_flags_golden_byte_mismatch():
    text = _text(_report(case="i"))
    assert check_report("explicit-keys", {"p": 2}, text, text.encode()) == []
    assert check_report("explicit-keys", {"p": 2}, text, text.replace("\n", " \n").encode())


def _run_all(cli, configs, tracer=None):
    reports = []
    for i, cfg in enumerate(configs):
        if tracer:
            tracer.begin_instance(i)
        reports.append(cli.render_structured(cli.run(cfg)))
        if tracer:
            tracer.end_instance()
    return reports


@pytest.mark.parametrize("workload", ["value-schedule", "explicit-keys"])
def test_tracing_keeps_reports_and_repeats_counts(workload):
    from spans import METRICS, Tracer
    from valkit import cli, kahler, poly

    originals = (cli.run, poly.q_expand, kahler.q_expand, poly.Poly.eval)
    configs = [
        cli.parse_config_dict(inst.config)
        for inst in workloads.generate(workload, 2, workloads.cycle_length(workload))
    ]
    untraced = _run_all(cli, configs)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert kahler.q_expand is poly.q_expand is not originals[1]
            traced = _run_all(cli, configs, tracer)
        finally:
            tracer.uninstall()
        assert traced == untraced
        summary = tracer.summary()
        counts.append({name: summary[name] for name, unit, _ in METRICS if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["cli.report_bytes"] == sum(len(r.encode()) for r in untraced)
    assert (cli.run, poly.q_expand, kahler.q_expand, poly.Poly.eval) == originals


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    import json

    from spans import METRICS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(METRICS)
