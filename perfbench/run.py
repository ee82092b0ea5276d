"""Benchmark of paulimem: four workloads, checked against an independent reference.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. Each run sets up the workload, runs it
as a closed loop for S seconds (ending on a whole round), checks every output
and prints one JSON object as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

# One BLAS thread unless the caller says otherwise: the work is batches of 4x4
# matrices, and extra threads only add noise on a shared machine. Set before
# numpy is imported, and inherited by every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


class Checks:
    """Collects failed output checks; a run is correct when none failed."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set the workload up, then exit (used to time set-up)")
    return ap.parse_args(argv)


def tail_percentile(n: int) -> int:
    """Highest of p99/p90/p50 with at least ten samples beyond it."""
    if n >= 1000:
        return 99
    if n >= 100:
        return 90
    return 50


def measure_setup(args, env: dict) -> float:
    """Median time for a fresh interpreter to import paulimem and build the inputs,
    each probe scaled by the mean of the import kernels run just before and after it."""
    from calibration import IMPORT_REFERENCE_S, import_kernel_seconds, scale

    kernels = [import_kernel_seconds(env, ROOT)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        kernels.append(import_kernel_seconds(env, ROOT))
    return median(scale(t, (a + b) / 2.0, IMPORT_REFERENCE_S)
                  for t, a, b in zip(times, kernels, kernels[1:]))


def run_loop(wl, seconds: float, tracer, checks) -> None:
    """Closed loop until the time is up, on a round boundary.

    The workload's calibration kernel runs between operations, outside their
    timings.
    In a traced run every other round is traced; the untraced rounds give the
    baseline for the tracing overhead.
    """
    min_rounds = max(wl.min_rounds, 2 if tracer is not None else 1)
    t_start = time.perf_counter()
    k = 0
    while True:
        rnd, pos = divmod(k, wl.round_size)
        if pos == 0 and rnd >= min_rounds and time.perf_counter() - t_start >= seconds:
            break
        if k % wl.calibrate_every == 0:
            wl.kernel = wl.calibrate()
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.op_id = k
        try:
            wl.op(k, tracer if traced else None, checks)
        except Exception as exc:  # an operation that raises counts as failed
            wl.failed += 1
            print(f"operation {k} failed: {exc!r}", file=sys.stderr)
        k += 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "paulimem" / "__init__.py").is_file():
        print(f"error: no paulimem source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    import paulimem
    import workloads

    if Path(paulimem.__file__).resolve().parent != SRC / "paulimem":
        print(f"error: imported paulimem from {paulimem.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]

    work_root = ROOT / ".perfbench_work"
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            cls(args.seed, workdir, env)
            return 0
        return measure(args, cls, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def measure(args, cls, workdir: Path, env: dict) -> int:
    import numpy as np

    import layers
    import reference
    from calibration import scale
    from tracing import Tracer

    checks = Checks()
    for failure in reference.self_test():
        checks.expect(False, failure)
    setup_s = measure_setup(args, env)
    wl = cls(args.seed, workdir, env)
    tracer = Tracer() if args.trace else None
    run_loop(wl, args.seconds, tracer, checks)
    peak_rss_mb = wl.peak_rss_mb()  # before the end-of-run checks and summaries
    wl.finish(checks)

    lines = [f"workload {cls.name}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    if args.trace:
        # Scaled, so that a speed regime change between rounds does not read as overhead.
        untraced = median(scale(s, c, wl.reference_s) for s, c in wl.op_samples(False))
        traced = median(scale(s, c, wl.reference_s) for s, c in wl.op_samples(True))
        overhead = (traced - untraced) / untraced * 100.0
        tracer.op_id = None
        metrics = layers.run(tracer, args.seed, SRC, workdir, env, checks)
        metrics["trace.overhead_pct"] = (overhead, "%")
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{cls.name}-seed{args.seed}.json"
        tracer.write(span_file)
        lines.append(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
    else:
        samples = wl.op_samples(False)
        raw = np.array([s for s, _ in samples]) * 1e3
        ops = np.array([scale(s, c, wl.reference_s) for s, c in samples]) * 1e3
        pct = tail_percentile(len(ops))
        kernel_ms = median(c for _, c in samples) * 1e3
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_ms": (float(np.median(ops)), "ms"),
            "op_tail_ms": (float(np.percentile(ops, pct)), "ms"),
        }
        lines.append(f"operations timed: {len(ops)}; op_tail_ms is p{pct}; scaled by the "
                     f"calibration kernel (median {kernel_ms:.4g} ms); raw median "
                     f"{np.median(raw):.6g} ms, raw p{pct} {np.percentile(raw, pct):.6g} ms")
        for name, value, unit, note in wl.report():
            lines.append(f"{name} = {value:.6g} {unit}  ({note})")

    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append(f"attempted {wl.attempted}  failed {wl.failed}  checks "
                 f"{'passed' if checks.ok else 'FAILED'}")
    print("\n".join(lines))
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": checks.ok,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
