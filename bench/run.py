"""quandleworks benchmark: real CLI commands, run in one process through
quandleworks.cli.main, with every output checked.

    python3 bench/run.py --workload {paper,shadow,tables} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all --seed N --seconds S

One client runs whole cycles of its workload in a closed loop for S
seconds.  Times are scaled to a reference machine speed measured between
ops (calibrate.py).  --trace 0 prints the end-to-end metrics; --trace 1
spends half the time untraced and half with every layer wrapped
(tracer.py), and prints the per-layer metrics and the tracing overhead.
`all` runs each workload in a fresh process, both ways, and prints one
table.  The last stdout line is always the JSON result.  Run it from the root of a source checkout: it
imports quandleworks from ./src and exits with status 2 when that is absent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"

# BENCH is on sys.path as the script's directory
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402

# run in a fresh interpreter: the import's wall time, then the median of
# three kernel passes to scale it by
SETUP_PROBE = f"""
import sys, time
start = time.perf_counter()
import quandleworks.cli
elapsed = time.perf_counter() - start
sys.path.insert(0, {str(BENCH)!r})
from calibrate import calibrate
print(elapsed, sorted(calibrate() for _ in range(3))[1])
"""
SETUP_SAMPLES = 15
CALIBRATE_EVERY_S = 0.05

END_TO_END = {"setup_s": "s", "op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s",
              "success_rate": "ratio", "peak_rss_mb": "MB"}


def load_package():
    """Import quandleworks.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "quandleworks" / "cli.py").is_file():
        print(f"error: no quandleworks sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from quandleworks import cli
    if Path(cli.__file__).resolve().parent != SRC / "quandleworks":
        print(f"error: imported quandleworks from {cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return cli


def measure_setup() -> float:
    """Wall time of `import quandleworks.cli` in a fresh interpreter, at
    reference speed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=60)
    elapsed, kernel = (float(x) for x in done.stdout.split())
    return elapsed * REFERENCE_S / kernel


class Loop:
    """Closed loop over whole cycles of one workload.

    raw holds each op's wall time.  Every CALIBRATE_EVERY_S the machine-speed
    kernel runs, off the ops' clocks, and the ops since the previous pass are
    scaled to reference speed by the mean of the two passes around them;
    times holds the scaled values.
    """

    def __init__(self, cli, workload: wl.Workload) -> None:
        self.cli = cli
        self.workload = workload
        self.cycles = 0
        self.raw: list[float] = []
        self.times: list[float] = []
        self.attempted = 0
        self.raised: Counter[str] = Counter()
        self.wrong: Counter[str] = Counter()
        self._kernel: float | None = None
        self._kernel_at = 0.0

    def run_op(self, op: wl.Op) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(op.argv))
            except Exception as exc:  # an op that raises is a failed op, not a crash
                rc = exc
            elapsed = perf_counter() - start
        self.raw.append(elapsed)
        self.attempted += 1
        if isinstance(rc, Exception):
            self.raised[f"{op.label}: {type(rc).__name__}"] += 1
            return
        problem = op.check(rc, out.getvalue(), err.getvalue())
        if problem:
            self.wrong[f"{op.label}: {problem}"] += 1

    def _calibrate(self) -> None:
        kernel = calibrate()
        if self._kernel is not None:
            factor = REFERENCE_S / ((self._kernel + kernel) / 2)
            self.times += [t * factor for t in self.raw[len(self.times):]]
        self._kernel = kernel
        self._kernel_at = perf_counter()

    def run(self, seconds: float, tracer: tr.Tracer | None = None) -> None:
        """Whole cycles until `seconds` of wall time have passed (at least
        two, so that a percentile exists)."""
        start = perf_counter()
        self._calibrate()
        while self.cycles < 2 or perf_counter() - start < seconds:
            for op in self.workload.cycle(self.cycles):
                if tracer is not None:
                    tracer.op_index = self.attempted
                self.run_op(op)
                if perf_counter() - self._kernel_at >= CALIBRATE_EVERY_S:
                    self._calibrate()
            self.cycles += 1
        self._calibrate()

    @property
    def failed(self) -> int:
        return sum(self.raised.values()) + sum(self.wrong.values())

    @property
    def correct(self) -> bool:
        """No wrong output, and no op raised except a known defect."""
        return not self.wrong and set(self.raised) <= wl.KNOWN_DEFECTS

    def p50(self) -> float:
        return statistics.median(self.times)

    def p90(self) -> float:
        return statistics.quantiles(self.times, n=10)[8]

    def speed_factor(self) -> float:
        """Reference-speed time per wall-clock second over the whole loop."""
        return sum(self.times) / sum(self.raw)


def end_to_end(cli, workload, seconds) -> tuple[dict, list[Loop]]:
    setup = [measure_setup() for _ in range(SETUP_SAMPLES)]
    loop = Loop(cli, workload)
    loop.run(seconds)
    values = {
        "setup_s": statistics.median(setup),
        "op_s_p50": loop.p50(),
        "op_s_p90": loop.p90(),
        "ops_per_s": (loop.attempted - loop.failed) / sum(loop.times),
        "success_rate": 1 - loop.failed / loop.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"  unscaled: op_s_p50 = {statistics.median(loop.raw):.6g} s,"
          f" speed factor {loop.speed_factor():.4g}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, [loop]


def per_layer_values(tracer: tr.Tracer, ops: int, speed: float) -> dict[str, float]:
    """Per-op counts and self times (scaled to reference speed) of every
    wrapped function, plus the closure's derived counters."""
    values = {}
    for name in tr.TIMED:
        values[f"{name}.calls"] = tracer.calls[name] / ops
        values[f"{name}.self_s"] = tracer.self_s[name] * speed / ops
    unions = tracer.calls["variety.union"]
    values["variety.union.calls"] = unions / ops
    values["variety.union.merges"] = tracer.merges / ops
    values["variety.merge_ratio"] = tracer.merges / unions if unions else 0.0
    # blocks() runs once per identity sweep and twice more per quotient
    sweeps = tracer.calls["variety.blocks"] - 2 * tracer.calls["variety.quotient_by_identity"]
    values["variety.sweeps"] = sweeps / ops
    return values


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tr.TIMED:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    units.update({"variety.union.calls": "calls/op", "variety.union.merges": "merges/op",
                  "variety.merge_ratio": "ratio", "variety.sweeps": "sweeps/op",
                  "trace.overhead_s": "s"})
    return units


def traced(cli, workload, seconds, trace_path: Path) -> tuple[dict, list[Loop]]:
    plain = Loop(cli, workload)
    plain.run(seconds / 2)
    tracer = tr.Tracer()
    loop = Loop(cli, workload)
    tracer.install()
    try:
        loop.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    values = per_layer_values(tracer, loop.attempted, loop.speed_factor())
    values["trace.overhead_s"] = loop.p50() - plain.p50()
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, [plain, loop]


def run_one(args) -> int:
    cli = load_package()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as tmp:
        workload = wl.WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, loops = traced(cli, workload, args.seconds, trace_path)
        else:
            metrics, loops = end_to_end(cli, workload, args.seconds)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    failures = sum((loop.raised + loop.wrong for loop in loops), Counter())
    for what, count in sorted(failures.items()):
        print(f"failed op x{count}: {what}", file=sys.stderr)
    print(f"{args.workload}: {attempted} ops in {sum(loop.cycles for loop in loops)}"
          f" cycles, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    correct = all(loop.correct for loop in loops)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, untraced then traced; one table."""
    rows = []
    correct = True
    attempted = failed = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=True, timeout=180 + 2 * args.seconds)
            sys.stderr.write(done.stderr)
            result = json.loads(done.stdout.splitlines()[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                rows.append((name, metric, m["value"], m["unit"]))
    for name, metric, value, unit in rows:
        print(f"{name:8} {metric:40} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}.{m}": {"value": v, "unit": u}
                                  for n, m, v, u in rows}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
