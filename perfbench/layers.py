"""The traced layer pass: spans around calls into each module's public functions.

Every traced run makes this pass after its workload loop, so that each run
reports every per-layer metric. Its inputs are fixed (the worked example and
a seeded set of channels whose cost does not depend on the seed), so counts
such as the oracle's evaluations repeat exactly from run to run.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

import numpy as np

import paulimem as pm
import paulimem.cli as pm_cli
import reference as ref
from workloads import (MU_GRID_POINTS, VERIFY_ARGV, WORKED_EXAMPLE, check_curve_values,
                       dirichlet_q, spawn)

DECOMPOSED_CHANNELS = 400
SPAWNS = 3
PARSE_REPEATS = 200
MAIN_REPEATS = 3
MODULES = ("__init__", "channel", "states", "capacity", "oracle", "cli", "pauli", "errors")

_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter(); n0 = len(sys.modules)\n"
    "import paulimem\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t0), repr(t1), len(sys.modules) - n0)\n"
)


def _spawns(tracer, workdir: Path, env: dict, checks) -> dict:
    modules = []
    for _ in range(SPAWNS):
        with tracer.span("cli.python_start"):
            _, rc, *_ = spawn([sys.executable, "-c", "pass"], workdir, env, "bare")
        checks.expect(rc == 0, "layers: bare interpreter failed")
        with tracer.span("init.fresh_import"):
            _, rc, out, err, _ = spawn([sys.executable, "-c", _IMPORT_PROBE], workdir, env,
                                       "import")
            if rc != 0:
                checks.expect(False, f"layers: fresh import failed: {err[-300:]!r}")
                continue
            t0, t1, n = out.split()
            tracer.add("init.import", float(t0), float(t1))
        modules.append(int(n))
    fresh = tracer.median("init.fresh_import")
    bare = tracer.median("cli.python_start")
    return {
        "init.import_s": (fresh - bare, "s"),
        "init.import_inproc_s": (tracer.median("init.import"), "s"),
        "init.interp_self_s": (median(tracer.self_times("init.fresh_import")), "s"),
        "init.modules_loaded": (median(modules) if modules else 0, "count"),
        "cli.python_start_s": (bare, "s"),
    }


def _decomposed(tracer, seed: int) -> dict:
    """Each step of capacity_two_use, called one by one, then the whole call."""
    rng = np.random.default_rng(seed)
    for _ in range(DECOMPOSED_CHANNELS):
        q, mu = dirichlet_q(rng), float(rng.uniform())
        with tracer.span("layers.decompose"):
            with tracer.span("channel.construct"):
                ch = pm.PauliChannel(q, mu)
            with tracer.span("channel.params"):
                cp = pm.channel_params(ch)
            with tracer.span("channel.thresholds"):
                pm.thresholds(ch)
            with tracer.span("capacity.spectra"):
                lam_p = pm.spectrum_product_regime(cp)
                lam_b = pm.spectrum_bell_regime(cp)
            with tracer.span("capacity.entropy"):
                pm.entropy_bits(lam_p)
            with tracer.span("capacity.entropy"):
                pm.entropy_bits(lam_b)
            with tracer.span("capacity.two_use"):
                pm.capacity_two_use(ch)
    us = {}
    for name in ("channel.construct", "channel.params", "channel.thresholds",
                 "capacity.spectra", "capacity.entropy", "capacity.two_use"):
        us[f"{name}_us"] = (tracer.median(name) * 1e6, "us")
    return us


def _curve(tracer, checks) -> dict:
    ch = pm.PauliChannel(WORKED_EXAMPLE, 0.0)
    grid = np.linspace(0.0, 1.0, MU_GRID_POINTS)
    with tracer.span("capacity.curve"):
        with tracer.span("capacity.sweep"):
            results = pm.capacity_sweep(ch, grid)
        with tracer.span("capacity.csv"):
            csv_text = pm.sweep_to_csv(results)
        with tracer.span("capacity.json"):
            json_text = pm.sweep_to_json(results)
    check_curve_values(checks, WORKED_EXAMPLE, grid, [r.c2 for r in results], "layers: curve")
    return {
        "capacity.sweep_s": (tracer.median("capacity.sweep"), "s"),
        "capacity.csv_s": (tracer.median("capacity.csv"), "s"),
        "capacity.json_s": (tracer.median("capacity.json"), "s"),
        "capacity.curve_self_s": (median(tracer.self_times("capacity.curve")), "s"),
        "capacity.csv_bytes": (len(csv_text.encode()), "bytes"),
        "capacity.json_bytes": (len(json_text.encode()), "bytes"),
    }


def _oracle(tracer, checks) -> dict:
    """One default search on the worked example at mu = 0.5, and its grid stage alone.

    The grid is rebuilt here from the search's documented layout: theta on
    [0, pi] with endpoints, the five other angles on [0, 2 pi) without.
    """
    cfg = pm.SearchConfig()
    ch = pm.PauliChannel(WORKED_EXAMPLE, 0.5)
    with tracer.span("oracle.bruteforce"):
        res = pm.min_entropy_bruteforce(ch, cfg)
    g = cfg.grid_points_per_angle
    axes = [np.linspace(0.0, np.pi, g)] + [np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)] * 5
    grid = np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    with tracer.span("oracle.grid_kernel"):
        pm.output_entropies(ch, grid)
    gap = res.min_entropy - float(ref.input_entropies(WORKED_EXAMPLE, 0.5).min())
    checks.expect(-1e-6 <= gap <= 1e-4, f"layers: oracle gap to the reference {gap:.3e}")
    total, kernel = tracer.median("oracle.bruteforce"), tracer.median("oracle.grid_kernel")
    refine_evals = res.evaluations - len(grid)
    return {
        "oracle.bruteforce_s": (total, "s"),
        "oracle.grid_kernel_s": (kernel, "s"),
        "oracle.refine_s": (total - kernel, "s"),  # derived: bruteforce minus grid stage
        "oracle.grid_points": (len(grid), "count"),
        "oracle.evals_per_point": (res.evaluations, "count"),
        "oracle.refine_evals_per_point": (refine_evals, "count"),
        "oracle.refine_eval_us": ((total - kernel) / refine_evals * 1e6, "us"),
    }


def _cli(tracer, workdir: Path, checks) -> dict:
    """paulimem.cli in-process, after a warm import; output goes to a buffer."""
    base = ["--q", ",".join(map(str, WORKED_EXAMPLE))]
    argvs = {
        "capacity": base + ["--mu", "0.5", "capacity"],
        "sweep": base + ["--mu-grid", "0:1:0.01", "sweep", "--out", str(workdir / "main.csv")],
        "verify": VERIFY_ARGV,
    }
    parser = pm_cli.build_parser()
    for _ in range(PARSE_REPEATS):
        with tracer.span("cli.parse"):
            parser.parse_args(argvs["capacity"])
    out = {"cli.parse_us": (tracer.median("cli.parse") * 1e6, "us")}
    for name, argv in argvs.items():
        for _ in range(MAIN_REPEATS):
            with redirect_stdout(io.StringIO()), tracer.span(f"cli.main_{name}"):
                rc = pm_cli.main(argv)
            checks.expect(rc == 0, f"layers: cli.main {name} exited {rc}")
        out[f"cli.main_{name}_s"] = (tracer.median(f"cli.main_{name}"), "s")
    return out


def _lines(src: Path) -> dict:
    out = {}
    for mod in MODULES:
        text = (src / "paulimem" / f"{mod}.py").read_text(encoding="utf-8")
        out[f"{mod.strip('_')}.lines"] = (text.count("\n"), "count")
    return out


def run(tracer, seed: int, src: Path, workdir: Path, env: dict, checks) -> dict:
    """All per-layer metrics, as {name: (value, unit)}."""
    metrics = {}
    metrics.update(_spawns(tracer, workdir, env, checks))
    metrics.update(_decomposed(tracer, seed))
    metrics.update(_curve(tracer, checks))
    metrics.update(_oracle(tracer, checks))
    metrics.update(_cli(tracer, workdir, checks))
    metrics.update(_lines(src))
    return metrics
