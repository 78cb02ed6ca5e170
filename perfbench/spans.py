"""Outside-in spans and counters for the traced benchmark run.

`Tracer.install()` wraps, from outside the package, every public function
of each valkit layer module and the arithmetic methods of its core classes.
A function imported by name into another module is rebound there too, and
lazy in-function imports read the rebound module attribute, so every call
site goes through the wrapper.  `uninstall()` restores every binding.

Each wrapped call records one span (name, start, end, parent span,
instance id) in flat in-memory arrays.  Spans are aggregated, and may be
written out, after the run; a span's self time is its duration minus the
durations of its direct children.  Work counts that need a call's
arguments or result (distinct inputs, output sizes, fit probes) are taken
by small hooks next to the span.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter

LAYERS = ("cli", "fields", "poly", "truncation", "keyseq", "groups", "kahler", "expansion")

_ARITH = ("__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "__pow__")

# Methods patched on the classes each layer defines.
METHODS = {
    "fields": {"HahnElem": _ARITH, "PAdicRational": _ARITH},
    "poly": {"Poly": ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "divmod_monic", "eval")},
    "truncation": {"NuOracle": ("nu", "nu_q")},
    "keyseq": {"PlateauFamily": ("center", "poly")},
}

# Metric prefix -> the spans it aggregates.
SPANS = {
    "cli.build_stream": ("cli.build_stream",),
    "cli.render_structured": ("cli.render_structured",),
    "fields.hahn_mul": ("fields.HahnElem.__mul__",),
    "fields.hahn_add": ("fields.HahnElem.__add__",),
    "fields.hahn_div": ("fields.HahnElem.__truediv__",),
    "fields.padic_mul": ("fields.PAdicRational.__mul__",),
    "fields.padic_div": ("fields.PAdicRational.__truediv__",),
    "poly.q_expand": ("poly.q_expand",),
    "poly.divmod_monic": ("poly.Poly.divmod_monic",),
    "poly.eval": ("poly.Poly.eval",),
    "poly.resultant": ("poly.resultant",),
    "truncation.nu": ("truncation.NuOracle.nu",),
    "truncation.nu_q": ("truncation.NuOracle.nu_q",),
    "keyseq.center": ("keyseq.PlateauFamily.center",),
    "keyseq.validate_sequence": ("keyseq.validate_sequence",),
    "groups.fit_closed_form": ("groups.fit_closed_form",),
    "groups.canonicalize": ("groups.canonicalize",),
    "groups.segment_compare": ("groups.segment_compare",),
    "groups.wlim": ("groups.wlim",),
    "kahler.invariant_stream": ("kahler.invariant_stream", "kahler.invariant_stream_from_schedule"),
    "kahler.ideal_inclusion_check": ("kahler.ideal_inclusion_check",),
    "kahler.omega_verdict": ("kahler.omega_verdict",),
    "kahler.classify": ("kahler.classify",),
    "kahler.b_set": ("kahler.b_set",),
    "expansion.i0_set": ("expansion.i0_set",),
    "expansion.full_expansion": ("expansion.full_expansion",),
}

# The per-layer metrics of the traced run: (name, unit, better).
METRICS = (
    ("cli.build_stream.s", "s", "lower"),
    ("cli.render_structured.s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("fields.hahn_mul.calls", "count", "lower"),
    ("fields.hahn_mul.s", "s", "lower"),
    ("fields.hahn_mul.terms_out", "count", "lower"),
    ("fields.hahn_add.calls", "count", "lower"),
    ("fields.hahn_add.s", "s", "lower"),
    ("fields.hahn_div.calls", "count", "lower"),
    ("fields.padic_mul.calls", "count", "lower"),
    ("fields.padic_mul.s", "s", "lower"),
    ("fields.padic_div.calls", "count", "lower"),
    ("fields.self_s", "s", "lower"),
    ("poly.q_expand.calls", "count", "lower"),
    ("poly.q_expand.distinct", "count", "lower"),
    ("poly.q_expand.s", "s", "lower"),
    ("poly.divmod_monic.calls", "count", "lower"),
    ("poly.divmod_monic.s", "s", "lower"),
    ("poly.eval.calls", "count", "lower"),
    ("poly.eval.s", "s", "lower"),
    ("poly.resultant.calls", "count", "lower"),
    ("poly.resultant.s", "s", "lower"),
    ("poly.self_s", "s", "lower"),
    ("truncation.nu.calls", "count", "lower"),
    ("truncation.nu.distinct", "count", "lower"),
    ("truncation.nu.hit_ratio", "ratio", "higher"),
    ("truncation.nu.family_evals", "count", "lower"),
    ("truncation.nu.s", "s", "lower"),
    ("truncation.nu_q.calls", "count", "lower"),
    ("truncation.nu_q.s", "s", "lower"),
    ("truncation.self_s", "s", "lower"),
    ("keyseq.center.calls", "count", "lower"),
    ("keyseq.centers_materialized", "count", "lower"),
    ("keyseq.validate_sequence.s", "s", "lower"),
    ("keyseq.self_s", "s", "lower"),
    ("groups.fit_closed_form.calls", "count", "lower"),
    ("groups.fit_closed_form.extends", "count", "lower"),
    ("groups.fit_closed_form.s", "s", "lower"),
    ("groups.canonicalize.calls", "count", "lower"),
    ("groups.segment_compare.calls", "count", "lower"),
    ("groups.wlim.calls", "count", "lower"),
    ("groups.self_s", "s", "lower"),
    ("kahler.invariant_stream.s", "s", "lower"),
    ("kahler.records", "count", "lower"),
    ("kahler.ideal_inclusion_check.s", "s", "lower"),
    ("kahler.omega_verdict.s", "s", "lower"),
    ("kahler.classify.s", "s", "lower"),
    ("kahler.b_set.s", "s", "lower"),
    ("kahler.self_s", "s", "lower"),
    ("expansion.i0_set.calls", "count", "lower"),
    ("expansion.i0_set.s", "s", "lower"),
    ("expansion.full_expansion.calls", "count", "lower"),
    ("expansion.self_s", "s", "lower"),
)

# Counts taken by hooks on a call's arguments or result.
COUNTERS = (
    "cli.report_bytes",
    "fields.hahn_mul.terms_out",
    "poly.q_expand.distinct",
    "truncation.nu.distinct",
    "keyseq.centers_materialized",
    "groups.fit_closed_form.extends",
    "kahler.records",
)

# Counters each workload must drive above zero: a wrapper that misses its
# call sites would otherwise read as "no work".
EXPECTED_NONZERO = {
    "hahn-plateau": (
        "cli.report_bytes", "fields.hahn_mul.calls", "fields.hahn_mul.terms_out",
        "fields.hahn_add.calls", "poly.q_expand.calls", "poly.divmod_monic.calls",
        "poly.eval.calls", "truncation.nu.calls", "truncation.nu.family_evals",
        "truncation.nu_q.calls", "keyseq.center.calls", "keyseq.centers_materialized",
        "groups.fit_closed_form.calls", "groups.canonicalize.calls",
        "groups.segment_compare.calls", "groups.wlim.calls", "kahler.records",
    ),
    "padic-lift": (
        "cli.report_bytes", "fields.padic_mul.calls", "poly.q_expand.calls",
        "poly.divmod_monic.calls", "poly.eval.calls", "truncation.nu.calls",
        "truncation.nu.family_evals", "truncation.nu_q.calls", "keyseq.center.calls",
        "keyseq.centers_materialized", "groups.fit_closed_form.calls",
        "groups.fit_closed_form.extends", "groups.canonicalize.calls", "kahler.records",
    ),
    "value-schedule": (
        "cli.report_bytes", "groups.fit_closed_form.calls", "groups.fit_closed_form.extends",
        "groups.canonicalize.calls", "groups.segment_compare.calls", "groups.wlim.calls",
        "kahler.records",
    ),
    "explicit-keys": (
        "cli.report_bytes", "fields.padic_mul.calls", "fields.padic_div.calls",
        "poly.q_expand.calls", "poly.resultant.calls", "truncation.nu.calls",
        "truncation.nu_q.calls", "expansion.i0_set.calls", "expansion.full_expansion.calls",
        "kahler.records",
    ),
}


class Tracer:
    """Records spans of wrapped valkit calls; one tracer per traced pass."""

    def __init__(self):
        # Span names are interned: `names[sid]` is the name of span id `sid`.
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # One entry per recorded span, in call order.
        self.name = array("i")
        self.parent = array("q")
        self.instance = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self.instance_id = -1
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._q_pairs: set = set()
        self._nu_args: set = set()
        self._centers: dict[int, int] = {}

    # -- spans ----------------------------------------------------------------

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn, before=None, after=None):
        sid = self._sid(name)
        tracer, stack, depth = self, self._stack, self._depth
        name_a, parent_a, inst_a = self.name, self.parent, self.instance
        start_a, end_a, outer_a = self.start, self.end, self.outer
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(name_a)
            name_a.append(sid)
            parent_a.append(stack[-1] if stack else -1)
            inst_a.append(tracer.instance_id)
            d = depth[sid]
            outer_a.append(d == 0)
            depth[sid] = d + 1
            stack.append(idx)
            end_a.append(0.0)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[idx] = clock()
                stack.pop()
                depth[sid] = d
            if after is not None:
                after(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def begin_instance(self, instance_id: int) -> None:
        self.instance_id = instance_id

    def end_instance(self) -> None:
        self.counts["poly.q_expand.distinct"] += len(self._q_pairs)
        self.counts["truncation.nu.distinct"] += len(self._nu_args)
        self.counts["keyseq.centers_materialized"] += sum(self._centers.values())
        self._q_pairs.clear()
        self._nu_args.clear()
        self._centers.clear()
        self.instance_id = -1

    # -- hooks ----------------------------------------------------------------

    def _hooks(self, fit_closed_form) -> dict:
        counts = self.counts
        fit_signature = inspect.signature(fit_closed_form)

        def counted_extend(args, kwargs):
            bound = fit_signature.bind(*args, **kwargs)
            extend = bound.arguments.get("extend")
            if extend is not None:

                def counted(k):
                    counts["groups.fit_closed_form.extends"] += 1
                    return extend(k)

                bound.arguments["extend"] = counted
            return bound.args, bound.kwargs

        def hahn_terms(args, result):
            counts["fields.hahn_mul.terms_out"] += len(result.terms)

        def records(args, result):
            counts["kahler.records"] += len(result.records)

        def report_bytes(args, result):
            counts["cli.report_bytes"] += len(result.encode("utf-8"))

        def q_pair(args, result):
            self._q_pairs.add((args[0], args[1]))

        def nu_arg(args, result):
            self._nu_args.add((id(args[0]), args[1]))

        def center(args, result):
            key = id(args[0])
            self._centers[key] = max(self._centers.get(key, 0), args[1])

        return {
            "fields.HahnElem.__mul__": (None, hahn_terms),
            "kahler.invariant_stream": (None, records),
            "kahler.invariant_stream_from_schedule": (None, records),
            "cli.render_structured": (None, report_bytes),
            "poly.q_expand": (None, q_pair),
            "truncation.NuOracle.nu": (None, nu_arg),
            "keyseq.PlateauFamily.center": (None, center),
            "groups.fit_closed_form": (counted_extend, None),
        }

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and the listed methods."""
        import importlib

        hooks = self._hooks(importlib.import_module("valkit.groups").fit_closed_form)
        replaced: dict[types.FunctionType, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"valkit.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._wrap(name, obj, *hooks.get(name, (None, None)))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    fn = cls.__dict__[method]
                    name = f"{layer}.{cls_name}.{method}"
                    self._patch(cls, method, self._wrap(name, fn, *hooks.get(name, (None, None))))
        # Rebind every by-name reference, in the defining module and in each
        # module (and the package) that imported it.
        modules = [m for key, m in sys.modules.items() if key == "valkit" or key.startswith("valkit.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    self._patch(module, attr, replaced[obj])

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def summary(self, scales=None) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        `scales[i]` converts the measured times of instance i (see speed.py).
        """
        n = len(self.name)
        names, parent, instance = self.name, self.parent, self.instance
        dur = [
            (self.end[i] - self.start[i]) * (scales[instance[i]] if scales else 1.0)
            for i in range(n)
        ]
        nu_sid = self._ids.get("truncation.NuOracle.nu", -1)
        eval_sid = self._ids.get("poly.Poly.eval", -1)
        children = [0.0] * n
        under_nu = bytearray(n)
        for i in range(n):
            p = parent[i]
            if p >= 0:
                children[p] += dur[i]
                under_nu[i] = under_nu[p] or names[p] == nu_sid
        calls = Counter()
        inclusive = Counter()
        layer_self = Counter()
        family_evals = 0
        for i in range(n):
            sid = names[i]
            calls[sid] += 1
            if self.outer[i]:
                inclusive[sid] += dur[i]
            layer_self[self.names[sid].split(".", 1)[0]] += dur[i] - children[i]
            if sid == eval_sid and under_nu[i]:
                family_evals += 1

        out: dict[str, float] = {}
        for prefix, span_names in SPANS.items():
            sids = [self._ids[s] for s in span_names if s in self._ids]
            out[f"{prefix}.calls"] = sum(calls[s] for s in sids)
            out[f"{prefix}.s"] = sum(inclusive[s] for s in sids)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out.update(self.counts)
        out["truncation.nu.family_evals"] = family_evals
        nu_calls = out["truncation.nu.calls"]
        out["truncation.nu.hit_ratio"] = (
            (nu_calls - out["truncation.nu.distinct"]) / nu_calls if nu_calls else 0.0
        )
        return {name: out[name] for name, _, _ in METRICS}

    def write_spans(self, path) -> None:
        """One line per span: id, parent, instance, name, start and end in ns."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tinstance\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.instance[i]}\t{self.names[self.name[i]]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\n"
                )
