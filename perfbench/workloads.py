"""The four workloads: inputs made from a seed, the timed operation, the checks.

Each workload is a closed loop in one process: the next operation starts when
the previous one has finished. Building a workload object is the set-up; its
op(k, tracer) runs operation k and records its wall time. tracer is None in
untraced operations, so those carry no tracing code at all.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import calibration
import paulimem as pm
import reference as ref
from calibration import bracketed

MU_GRID_POINTS = 10_001
WORKED_EXAMPLE = (0.2, 0.1, 0.3, 0.4)
SWEEP_HEADER = "mu,regime,c2,entropy_product,entropy_bell,l1,l2,l3,l4"
VERIFY_HEADER = "mu,s_oracle,s_product,s_bell,gap,flag"
VERIFY_ARGV = ["--q", "0.2,0.1,0.3,0.4", "--mu", "0.5", "--grid-points", "3", "--restarts", "2",
               "--seed", "1", "verify"]
C2_TOL = 1e-9
THRESHOLD_TOL = 1e-10
TIE_TOL = 1e-12  # the program reports TIE below this entropy difference
MONOTONE_TOL = 1e-12  # rounding allowance for "c2 never decreases in mu"


def depolarizing_q(p: float) -> tuple:
    return (1.0 - p, p / 3.0, p / 3.0, p / 3.0)


def mp_q(p: float) -> tuple:
    return (p, 0.5 - p, 0.5 - p, p)


def dirichlet_q(rng) -> tuple:
    return tuple(rng.dirichlet(np.ones(4)).tolist())


def _g12(x: float) -> float:
    """The value a 12-significant-digit CSV cell should parse back to."""
    return float(format(float(x) + 0.0, ".12g"))


def check_regime(checks, regime: str, s_p: float, s_b: float, where: str,
                 slack: float = 0.0) -> None:
    """The label follows the branch entropies; within slack of a tie any label goes."""
    d = s_p - s_b
    if abs(d) < TIE_TOL:
        want = "tie"
    else:
        want = "product" if d < 0.0 else "entangled"
    checks.expect(regime == want or abs(d) <= slack,
                  f"{where}: regime {regime} but S_p={s_p!r}, S_b={s_b!r}")


def check_curve_values(checks, q, mu, c2, where: str) -> None:
    """c2 against the reference, never decreasing in mu, exactly 1 at mu = 1."""
    c2 = np.asarray(c2)
    err = np.abs(c2 - ref.capacity(q, mu)).max()
    checks.expect(err <= C2_TOL, f"{where}: c2 off the reference by {err:.3e}")
    drop = float(np.min(np.diff(c2))) if len(c2) > 1 else 0.0
    checks.expect(drop >= -MONOTONE_TOL, f"{where}: c2 decreases in mu by {-drop:.3e}")
    checks.expect(mu[-1] != 1.0 or c2[-1] == 1.0, f"{where}: c2 at mu = 1 is {c2[-1]!r}")


class Workload:
    """Shared bookkeeping: samples, attempted and failed operations."""

    round_size = 1  # operations per round; runs end on a round boundary
    min_rounds = 1
    calibrate_every = 1  # operations per calibration kernel pass
    reference_s = calibration.REFERENCE_S

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kernel = 0.0  # latest calibration kernel time, set by the loop
        # (traced, seconds per op, calibration kernel seconds next to it)
        self.samples: list[tuple[bool, float, float]] = []

    def calibrate(self) -> float:
        return calibration.kernel_seconds()

    def finish(self, checks) -> None:
        pass

    def op_samples(self, traced: bool) -> list[tuple[float, float]]:
        """(seconds, calibration kernel seconds) of each traced or untraced op."""
        kernels = bracketed([c for _, _, c in self.samples])
        return [(s, float(c)) for (t, s, _), c in zip(self.samples, kernels) if t == traced]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report(self) -> list[tuple[str, float, str, str]]:
        """(name, value, unit, note) lines of this workload's own metrics."""
        return []


class SweepDense(Workload):
    """Closed-form capacity along a 10,001-point mu grid, written as CSV and JSON."""

    name = "sweep_dense"

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__()
        rng = np.random.default_rng(seed)
        p_dep = float(rng.uniform(0.05, 0.75))
        p_mp = float(rng.uniform(0.0, 0.5))
        self.qs = [WORKED_EXAMPLE, depolarizing_q(0.25), depolarizing_q(p_dep), mp_q(p_mp),
                   dirichlet_q(rng), dirichlet_q(rng)]
        self.channels = [pm.PauliChannel(WORKED_EXAMPLE, 0.0), pm.depolarizing(0.25, 0.0),
                         pm.depolarizing(p_dep, 0.0), pm.mp_channel(p_mp, 0.0),
                         pm.PauliChannel(self.qs[4], 0.0), pm.PauliChannel(self.qs[5], 0.0)]
        self.mu_grid = np.linspace(0.0, 1.0, MU_GRID_POINTS)

    def op(self, k: int, tracer, checks) -> None:
        i = k % len(self.channels)
        ch = self.channels[i]
        self.attempted += 1
        if tracer is None:
            t0 = time.perf_counter()
            results = pm.capacity_sweep(ch, self.mu_grid)
            csv_text = pm.sweep_to_csv(results)
            json_text = pm.sweep_to_json(results)
            dt = time.perf_counter() - t0
        else:
            with tracer.span("capacity.curve"):
                t0 = time.perf_counter()
                with tracer.span("capacity.sweep"):
                    results = pm.capacity_sweep(ch, self.mu_grid)
                with tracer.span("capacity.csv"):
                    csv_text = pm.sweep_to_csv(results)
                with tracer.span("capacity.json"):
                    json_text = pm.sweep_to_json(results)
                dt = time.perf_counter() - t0
        self.samples.append((tracer is not None, dt, self.kernel))
        self.check_curve(checks, self.qs[i], results, csv_text, json_text, f"curve {i}")

    def check_curve(self, checks, q, results, csv_text, json_text, where) -> None:
        grid = self.mu_grid
        checks.expect(len(results) == len(grid), f"{where}: {len(results)} results")
        if len(results) != len(grid):
            return
        mu = np.array([r.mu for r in results])
        checks.expect(np.array_equal(mu, grid), f"{where}: mu values differ from the grid")
        c2 = np.array([r.c2 for r in results])
        check_curve_values(checks, q, grid, c2, where)
        ent = ref.input_entropies(q, grid)
        s_p = np.array([r.entropy_product for r in results])
        s_b = np.array([r.entropy_bell for r in results])
        err = max(np.abs(s_p - ent[:, :3].min(axis=1)).max(), np.abs(s_b - ent[:, 3]).max())
        checks.expect(err <= C2_TOL, f"{where}: branch entropies off the reference by {err:.3e}")
        for r in results:
            check_regime(checks, r.regime.value, r.entropy_product, r.entropy_bell, where)
            if not checks.ok:
                return
        lines = csv_text.split("\n")
        checks.expect(lines[0] == SWEEP_HEADER and lines[-1] == "" and
                      len(lines) == len(results) + 2, f"{where}: CSV layout")
        for r, line in zip(results, lines[1:]):
            cells = line.split(",")
            want = [r.mu, r.c2, r.entropy_product, r.entropy_bell, *r.winning_spectrum()]
            got = [float(c) for c in cells[:1] + cells[2:]]
            if cells[1] != r.regime.value or got != [_g12(x) for x in want]:
                checks.expect(False, f"{where}: CSV row {line!r} does not match the results")
                return
        parsed = json.loads(json_text)
        checks.expect(len(parsed) == len(results), f"{where}: JSON length")
        for r, row in zip(results, parsed):
            fields = (row["mu"], row["c2"], row["entropy_product"], row["entropy_bell"])
            if row != r.to_dict() or fields != (r.mu, r.c2, r.entropy_product, r.entropy_bell):
                checks.expect(False, f"{where}: JSON does not round-trip at mu={r.mu!r}")
                return

    def report(self):
        curves = [s for s, _ in self.op_samples(False) or self.op_samples(True)]
        return [("curve_s", float(np.median(curves)), "s", f"median of {len(curves)} curves")]


class PointQueries(Workload):
    """One capacity_two_use call per distinct seeded channel."""

    name = "point_queries"
    CHUNK = 4096
    calibrate_every = 1024

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__()
        self.rng = np.random.default_rng(seed)
        self.times = array("d")
        self.kernels = array("d")
        self.traced = array("b")
        self._next_chunk()

    def _next_chunk(self) -> None:
        self.q = self.rng.dirichlet(np.ones(4), self.CHUNK)
        self.mu = self.rng.uniform(0.0, 1.0, self.CHUNK)
        self.q_list = [tuple(r) for r in self.q.tolist()]
        self.mu_list = self.mu.tolist()
        # c2, S_p, S_b, mu_ml, mu_star; rows of failed queries stay NaN
        self.out = np.full((self.CHUNK, 5), np.nan)
        self.regimes = [""] * self.CHUNK
        self.pos = 0

    def op(self, k: int, tracer, checks) -> None:
        if self.pos == self.CHUNK:
            self._check_chunk(checks)
            self._next_chunk()
        i = self.pos
        self.pos += 1
        q, mu = self.q_list[i], self.mu_list[i]
        self.attempted += 1
        if tracer is None:
            t0 = time.perf_counter()
            r = pm.capacity_two_use(pm.PauliChannel(q, mu))
            dt = time.perf_counter() - t0
        else:
            with tracer.span("capacity.query"):
                t0 = time.perf_counter()
                with tracer.span("channel.construct"):
                    ch = pm.PauliChannel(q, mu)
                with tracer.span("capacity.two_use"):
                    r = pm.capacity_two_use(ch)
                dt = time.perf_counter() - t0
        self.times.append(dt)
        self.kernels.append(self.kernel)
        self.traced.append(tracer is not None)
        self.out[i] = (r.c2, r.entropy_product, r.entropy_bell, r.mu_ml, r.mu_star)
        self.regimes[i] = r.regime.value

    def _check_chunk(self, checks) -> None:
        done = ~np.isnan(self.out[: self.pos, 0])
        if not done.any():
            return
        q, mu = self.q[: self.pos][done], self.mu[: self.pos][done]
        c2, s_p, s_b, mu_ml, mu_star = self.out[: self.pos][done].T
        regimes = [r for r, d in zip(self.regimes, done) if d]
        ent = ref.input_entropies(q, mu)
        err = max(np.abs(c2 - (1.0 - ent.min(axis=1) / 2.0)).max(),
                  np.abs(s_p - ent[:, :3].min(axis=1)).max(), np.abs(s_b - ent[:, 3]).max())
        checks.expect(err <= C2_TOL, f"queries: off the reference by {err:.3e}")
        for regime, a, b in zip(regimes, s_p, s_b):
            check_regime(checks, regime, a, b, "queries")
        # Interior thresholds solve their equations; a threshold clamped to 0
        # or 1 has its root outside [0, 1] on that side.
        r_ml, r_star = ref.threshold_residuals(q, mu_ml, mu_star)
        for name, value, res in (("mu_ml", mu_ml, r_ml), ("mu_star", mu_star, r_star)):
            inner = (value > 0.0) & (value < 1.0)
            worst = np.abs(res[inner]).max() if inner.any() else 0.0
            checks.expect(worst <= THRESHOLD_TOL, f"queries: {name} equation residual {worst:.3e}")
            bad = ((value == 0.0) & (res < -THRESHOLD_TOL)) | ((value == 1.0) & (res > THRESHOLD_TOL))
            bad |= ~np.isfinite(value)
            checks.expect(not bad.any(), f"queries: {int(bad.sum())} misplaced clamped {name}")

    def finish(self, checks) -> None:
        self._check_chunk(checks)

    def op_samples(self, traced: bool) -> list[tuple[float, float]]:
        t = np.frombuffer(self.times, dtype=float)
        c = bracketed(np.frombuffer(self.kernels, dtype=float))
        m = np.frombuffer(self.traced, dtype=np.int8).astype(bool) == traced
        return list(zip(t[m].tolist(), c[m].tolist()))

    def report(self):
        t = np.array([s for s, _ in self.op_samples(False) or self.op_samples(True)]) * 1e6
        return [("query_us", float(np.median(t)), "us", f"median of {len(t)} queries"),
                ("query_us_p99", float(np.percentile(t, 99)), "us", f"p99 of {len(t)} queries")]


class OracleVerify(Workload):
    """verify_optimality_grid with the default SearchConfig, one mu point per call.

    The point set is fixed, so that every run does the same work: three
    channels at mu_star - 0.15 and mu_star + 0.15. The oracle's cost per
    point varies by up to 2x between channels (its Nelder-Mead evaluations
    do), so drawing channels from the seed would make the median depend on
    the seed more than on the program. The seed orders the points.
    """

    name = "oracle_verify"
    QS = (WORKED_EXAMPLE, depolarizing_q(0.25), mp_q(0.2))
    round_size = 2 * len(QS)

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__()
        self.points = []
        for q, star in zip(self.QS, ref.mu_star(self.QS)):
            for mu in (star - 0.15, star + 0.15):
                self.points.append((q, float(min(max(mu, 0.02), 0.98))))
        order = np.random.default_rng(seed).permutation(len(self.points))
        self.points = [self.points[i] for i in order]
        self.channels = [pm.PauliChannel(q, 0.0) for q, _ in self.points]
        self.cfg = pm.SearchConfig()

    def op(self, k: int, tracer, checks) -> None:
        i = k % len(self.points)
        q, mu = self.points[i]
        self.attempted += 1
        if tracer is None:
            t0 = time.perf_counter()
            report = pm.verify_optimality_grid(self.channels[i], [mu], self.cfg)
            dt = time.perf_counter() - t0
        else:
            with tracer.span("oracle.verify_point"):
                t0 = time.perf_counter()
                report = pm.verify_optimality_grid(self.channels[i], [mu], self.cfg)
                dt = time.perf_counter() - t0
        self.samples.append((tracer is not None, dt, self.kernel))
        where = f"verify q={q} mu={mu:.4f}"
        checks.expect(len(report.points) == 1, f"{where}: {len(report.points)} points")
        p = report.points[0]
        checks.expect(not p.flag and not report.any_flag, f"{where}: flagged")
        checks.expect(not report.budget_exceeded, f"{where}: refinement budget exceeded")
        s_ref = float(ref.input_entropies(q, mu).min())
        gap = p.s_oracle - s_ref
        checks.expect(-1e-6 <= gap <= 1e-4, f"{where}: gap to the reference {gap:.3e}")
        checks.expect(p.gap == p.s_oracle - min(p.s_product, p.s_bell), f"{where}: reported gap")

    def finish(self, checks) -> None:
        """Re-run the first point's search and evaluate its argmin independently."""
        q, mu = self.points[0]
        res = pm.min_entropy_bruteforce(self.channels[0].with_mu(mu), self.cfg)
        vec = ref.state_from_params(*res.best_params.as_array())
        err = abs(ref.state_entropy(q, mu, vec) - res.min_entropy)
        checks.expect(err <= 1e-9, f"oracle: entropy at best_params off by {err:.3e}")
        checks.expect(not res.budget_exceeded, "oracle: refinement budget exceeded")
        checks.expect(res.evaluations > self.cfg.grid_points_per_angle ** 6, "oracle: evaluations")

    def report(self):
        pts = [s for s, _ in self.op_samples(False) or self.op_samples(True)]
        return [("verify_point_s", float(np.median(pts)), "s", f"median of {len(pts)} points")]


def spawn(argv: list[str], workdir: Path, env: dict, tag: str):
    """Run argv to completion; returns (seconds from spawn to exit, exit code,
    stdout, stderr, peak RSS in MB of that process)."""
    out_path, err_path = workdir / f"{tag}.stdout", workdir / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=workdir, env=env)
        _, status, usage = os.wait4(proc.pid, 0)  # wait4 gives this child's own peak RSS
        dt = time.perf_counter() - t0
    return (dt, os.waitstatus_to_exitcode(status), out_path.read_bytes(),
            err_path.read_bytes(), usage.ru_maxrss / 1024.0)


class CliCold(Workload):
    """Fresh-interpreter `python -m paulimem` invocations, in whole rounds.

    A round is capacity and sweep --out on a seeded channel, a small-search
    verify, then three bad-input invocations that must exit 2 with one
    `error:` line. The verify and bad inputs do not depend on the seed: the
    small search's cost and its distance from the optimum vary from channel
    to channel, and on this fixed input it reaches the optimum.
    """

    name = "cli_cold"
    GOOD = ("capacity", "sweep", "verify")
    round_size = 6
    min_rounds = 2  # rounds are compared byte for byte
    calibrate_every = 3  # before capacity and before the bad inputs
    reference_s = calibration.IMPORT_REFERENCE_S

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__()
        self.workdir, self.env = workdir, env
        rng = np.random.default_rng(seed)
        self.q = dirichlet_q(rng)
        mu = float(rng.uniform(0.05, 0.95))
        qs = ",".join(repr(x) for x in self.q)
        self.sweep_out = workdir / "sweep.csv"
        bad_mu = workdir / "bad_mu.json"
        bad_p = workdir / "bad_p.json"
        bad_mu.write_text(json.dumps({"q": list(WORKED_EXAMPLE), "mu": "abc"}))
        bad_p.write_text(json.dumps({"family": "depolarizing", "p": "x", "mu": 0.3}))
        self.invocations = [
            ("capacity", ["--q", qs, "--mu", repr(mu), "capacity"]),
            ("sweep", ["--q", qs, "--mu-grid", "0:1:0.01", "sweep", "--out", str(self.sweep_out)]),
            ("verify", VERIFY_ARGV),
            ("bad_mu", ["--config", str(bad_mu), "capacity"]),
            ("bad_p", ["--config", str(bad_p), "capacity"]),
            ("bad_out", ["--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5", "sweep",
                         "--out", str(workdir / "missing" / "sweep.csv")]),
        ]
        self.times = {name: [] for name in self.GOOD}
        self.round_t = 0.0
        self.round_traced = False
        self.first_output: dict[str, bytes] = {}
        self.rss = 0.0

    def calibrate(self) -> float:
        return calibration.import_kernel_seconds(self.env, self.workdir)

    def op(self, k: int, tracer, checks) -> None:
        name, argv = self.invocations[k % self.round_size]
        argv = [sys.executable, "-m", "paulimem", *argv]
        self.attempted += 1
        if name == "sweep" and self.sweep_out.exists():
            self.sweep_out.unlink()
        if tracer is None:
            dt, rc, out, err, rss = spawn(argv, self.workdir, self.env, name)
        else:
            with tracer.span(f"cli.spawn_{name}"):
                dt, rc, out, err, rss = spawn(argv, self.workdir, self.env, name)
        if name not in self.GOOD:
            lines = err.decode(errors="replace").strip().splitlines()
            ok = (rc == 2 and len(lines) == 1 and lines[0].startswith("error:")
                  and b"Traceback" not in err)
            self.failed += not ok
            return
        self.rss = max(self.rss, rss)
        self.times[name].append(dt)
        self.round_t += dt
        self.round_traced = tracer is not None
        if rc != 0:
            self.failed += 1
        else:
            self._check(name, out, err, checks)
        if name == self.GOOD[-1]:
            self.samples.append((self.round_traced, self.round_t, self.kernel))
            self.round_t = 0.0

    def _check(self, name: str, out: bytes, err: bytes, checks) -> None:
        where = f"cli {name}"
        checks.expect(err == b"", f"{where}: stderr {err[:200]!r}")
        text = self.sweep_out.read_bytes() if name == "sweep" else out
        first = self.first_output.setdefault(name, text)
        checks.expect(text == first, f"{where}: output differs between identical invocations")
        rows = [line.split(",") for line in text.decode().splitlines()]
        if name == "verify":
            checks.expect(rows[0] == VERIFY_HEADER.split(",") and len(rows) == 2, f"{where}: layout")
            mu, s_oracle, flag = float(rows[1][0]), float(rows[1][1]), rows[1][5]
            s_ref = float(ref.input_entropies(WORKED_EXAMPLE, mu).min())
            checks.expect(flag == "false", f"{where}: flagged")
            checks.expect(-1e-6 <= s_oracle - s_ref <= 1e-4,
                          f"{where}: gap to the reference {s_oracle - s_ref:.3e}")
            return
        if name == "sweep":
            checks.expect(out == b"", f"{where}: stdout despite --out")
        checks.expect(rows[0] == SWEEP_HEADER.split(","), f"{where}: CSV header")
        want_rows = 101 if name == "sweep" else 1
        checks.expect(len(rows) == want_rows + 1, f"{where}: {len(rows) - 1} rows")
        mu = np.array([float(r[0]) for r in rows[1:]])
        c2 = np.array([float(r[2]) for r in rows[1:]])
        check_curve_values(checks, self.q, mu, c2, where)
        for r in rows[1:]:
            # CSV entropies carry 12 significant digits.
            check_regime(checks, r[1], float(r[3]), float(r[4]), where, slack=1e-10)

    def peak_rss_mb(self) -> float:
        return self.rss

    def report(self):
        return [(f"cli_{name}_s", float(np.median(t)), "s", f"median of {len(t)}")
                for name, t in self.times.items()]


WORKLOADS = {w.name: w for w in (SweepDense, PointQueries, OracleVerify, CliCold)}
