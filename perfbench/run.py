"""Time-to-verdict benchmark for valkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one client, no threads: the
closed loop hands valkit one generated config at a time and times
`cli.run(cfg)` plus `cli.render_structured(report)`; every report is checked
against an answer computed without valkit (check.py).  Times are reported
in seconds at the reference speed of speed.py; measured seconds are printed
next to them.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  The exit code is non-zero
when any instance fails.

--trace 0 reports the end-to-end metrics of a timed batch of whole workload
cycles lasting at least `--seconds` seconds and MIN_SAMPLES instances.
--trace 1 runs a fixed prefix of the workload (so counts repeat exactly for
a seed) untraced and then under spans.py's outside-in wrappers, and reports
the per-layer metrics; traced reports must be byte-identical to untraced
ones.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from check import check_report  # noqa: E402
from speed import SIDE, Speed  # noqa: E402

# p90 is reported only with at least ten samples beyond it.
MIN_SAMPLES = 100
# Fresh interpreters timed for setup_s.
SETUP_REPEATS = 5
# Cycles of each workload in the traced run (see workloads.py).
TRACE_CYCLES = {"hahn-plateau": 1, "padic-lift": 1, "value-schedule": 4, "explicit-keys": 16}
SPAN_DIR = HERE / "out"


@dataclass(frozen=True)
class Percentile:
    value: float
    samples: int


def percentile(samples: list[float], q: int) -> Percentile:
    """The q-th percentile, refused unless ten samples lie beyond it."""
    need = -(-10 * 100 // (100 - q))
    if len(samples) < need:
        raise ValueError(f"p{q} needs at least {need} samples, got {len(samples)}")
    return Percentile(statistics.quantiles(samples, n=100)[q - 1], len(samples))


class Failure(Exception):
    """The benchmark cannot run here; no result is printed."""


def load(workload: str, seed: int):
    """Import valkit from the checkout, generate and parse the configs."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from valkit import cli
    except ImportError as exc:
        raise Failure(f"cannot import valkit from {ROOT / 'src'}: {exc}") from None
    if ROOT / "src" not in Path(cli.__file__).resolve().parents:
        raise Failure(f"valkit was imported from {cli.__file__}, not from {ROOT / 'src'}")
    pool = workloads.generate(workload, seed)
    return cli, [cli.parse_config_dict(inst.config) for inst in pool], pool


def load_goldens(workload: str) -> dict[str, bytes]:
    out = {}
    for name in workloads.WORKLOAD_GOLDENS[workload]:
        path = ROOT / "tests" / "golden" / f"{name}.json"
        if not path.is_file():
            raise Failure(f"missing golden report {path}")
        out[name] = path.read_bytes()
    return out


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median setup time in fresh interpreters: (reference s, measured s)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise Failure(f"setup probe failed: {done.stderr.strip()}")
        raw, ref = map(float, done.stdout.split()[-2:])
        measured.append(raw)
        scaled.append(ref)
    return statistics.median(scaled), statistics.median(measured)


class Runner:
    """Runs instances one at a time and checks each report."""

    def __init__(self, workload: str, cli, configs, pool, goldens):
        self.workload = workload
        self.cli = cli
        self.configs = configs
        self.pool = pool
        self.goldens = goldens
        self.speed = Speed()
        self.attempted = 0
        self.failed = 0

    def one(self, i: int) -> tuple[float, float, str | None]:
        """Run instance i of the pool.

        Returns the midpoint and the length of its measured time, and the
        rendered report (None when an exception escaped).
        """
        self.speed.sample()
        cli = self.cli
        cfg = self.configs[i % len(self.configs)]
        t0 = time.perf_counter()
        try:
            text = cli.render_structured(cli.run(cfg))
        except Exception as exc:  # an escaping exception is a failed instance
            text, problems = None, [f"{type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        inst = self.pool[i % len(self.pool)]
        if text is not None:
            golden = self.goldens[inst.golden] if inst.golden else None
            problems = check_report(self.workload, inst.config, text, golden)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {json.dumps(inst.config)}: {'; '.join(problems[:3])}", file=sys.stderr)
        return (t0 + t1) / 2, t1 - t0, text

    def reference_times(self, results) -> list[float]:
        """Measured times of `results` (from one()) in reference seconds."""
        for _ in range(SIDE):
            self.speed.sample(force=True)
        return [elapsed * self.speed.scale(mid) for mid, elapsed, _ in results]

    def batch(self, seconds: float) -> tuple[list[float], float]:
        """Closed loop over whole cycles, for at least `seconds` and MIN_SAMPLES.

        Whole cycles keep the cell mix of every batch the same.  Returns the
        instance times in reference seconds and the measured busy time.
        """
        cycle = workloads.cycle_length(self.workload)
        results = []
        deadline = time.perf_counter() + seconds
        while len(results) < MIN_SAMPLES or time.perf_counter() < deadline:
            for _ in range(cycle):
                mid, elapsed, _ = self.one(len(results))
                results.append((mid, elapsed, None))
        return self.reference_times(results), sum(r[1] for r in results)

    def warm_up(self) -> None:
        """Run each golden config once, untimed, so lazy imports are done."""
        for i, inst in enumerate(self.pool[: workloads.cycle_length(self.workload)]):
            if inst.golden:
                self.one(i)


def end_to_end(runner: Runner, seconds: float, setup: tuple[float, float]) -> dict:
    times, measured = runner.batch(seconds)
    p50, p90 = percentile(times, 50), percentile(times, 90)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(times)
    busy = sum(times)
    rows = [
        ("verdicts_per_s", n / busy, "1/s", f"{n} instances / {busy:.3f} reference s; {measured:.3f} s measured"),
        ("verdict_s.p50", p50.value, "s", f"n={p50.samples}"),
        ("verdict_s.p90", p90.value, "s", f"n={p90.samples}"),
        ("failed_frac", runner.failed / runner.attempted, "ratio", f"{runner.failed}/{runner.attempted}"),
        ("setup_s", setup[0], "s", f"median of {SETUP_REPEATS} fresh interpreters; {setup[1]:.4f} s measured"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of this process"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16} {value:>12.6g} {unit:<6} ({note})")
    # failed_frac reads 0 on a passing run, so it travels as failed/attempted.
    return {name: {"value": value, "unit": unit} for name, value, unit, _ in rows if name != "failed_frac"}


def traced(runner: Runner, seconds: float, workload: str, seed: int) -> dict:
    from spans import EXPECTED_NONZERO, METRICS, Tracer

    count = TRACE_CYCLES[workload] * workloads.cycle_length(workload)
    # Untraced passes over the prefix give the reference reports and the
    # untraced rate for the overhead ratio.
    untraced_s, passes = 0.0, 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds / 2:
        results = [runner.one(i) for i in range(count)]
        untraced_s += sum(runner.reference_times(results))
        passes += 1
    reference = [r[2] for r in results]

    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for i in range(count):
            tracer.begin_instance(i)
            results.append(runner.one(i))
            tracer.end_instance()
    finally:
        tracer.uninstall()
    traced_times = runner.reference_times(results)
    traced_s = sum(traced_times)
    reports = [r[2] for r in results]

    if reports != reference:
        raise Failure("traced reports differ from untraced ones")
    values = tracer.summary([ref / r[1] for ref, r in zip(traced_times, results)])
    zero = [name for name in EXPECTED_NONZERO[workload] if not values[name]]
    if zero:
        raise Failure(f"counters expected to be non-zero read 0: {zero}")
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}-seed{seed}.tsv"
    tracer.write_spans(span_file)

    untraced_rate = passes * count / untraced_s
    traced_rate = count / traced_s
    print(f"  traced {count} instances, {len(tracer.name)} spans -> {span_file.relative_to(ROOT)}")
    print(
        f"  tracing overhead: traced/untraced verdicts_per_s = {traced_rate:.4g}/{untraced_rate:.4g}"
        f" = {traced_rate / untraced_rate:.3f}"
    )
    for name, unit, _ in METRICS:
        print(f"  {name:<34} {values[name]:>14.6g} {unit}")
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        goldens = load_goldens(args.workload)
        cli, configs, pool = load(args.workload, args.seed)
        runner = Runner(args.workload, cli, configs, pool, goldens)
        print(
            f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
            f"  (pool {len(pool)}, cycle {workloads.cycle_length(args.workload)})"
        )
        runner.warm_up()
        if args.trace:
            metrics = traced(runner, args.seconds, args.workload, args.seed)
        else:
            setup = measure_setup(args.workload, args.seed)
            metrics = end_to_end(runner, args.seconds, setup)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
