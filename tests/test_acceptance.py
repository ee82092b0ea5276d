"""Acceptance suite: every criterion at its stated tolerance and runtime.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s).
"""

import math
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from paulimem import (
    PauliChannel,
    SearchConfig,
    alpha_beta,
    apply_channel,
    apply_channel_weights,
    bell_state,
    capacity_two_use,
    channel_params,
    density_matrix,
    depolarizing,
    eig_hermitian4,
    ensemble_output_entropies,
    entropy_bits,
    epsilon_matrix,
    epsilon_vector,
    mp_channel,
    ordering,
    output_matrix,
    pauli_weights,
    product_optimal_state,
    spectrum_bell_regime,
    spectrum_product_regime,
    state_vector,
    thresholds,
    verify_ensemble_achievability,
    verify_optimality_grid,
    weights_to_density,
)
from conftest import ILLUSTRATION_Q, random_channel, random_params, random_pure_density


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_illustration_reproduction():
    with criterion("illustration reproduction (< 1 ms)"):
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        epsilon_vector(ch), ordering(ch), thresholds(ch)  # warm-up
        start = perf_counter()
        eps = epsilon_vector(ch)
        order = ordering(ch)
        th = thresholds(ch)
        elapsed = perf_counter() - start
        assert abs(eps[1] - (-0.4)) < 1e-15
        assert eps[2] == 0.0
        assert abs(eps[3] - 0.2) < 1e-15
        assert [format(x, ".12g") for x in eps] == ["1", "-0.4", "0", "0.2"]
        assert order == (1, 3, 2)
        assert abs(th.mu_star - 0.39) <= 0.005
        assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


def test_threshold_defining_property():
    with criterion("threshold defining property (100 channels, 1e-10, < 1 s)"):
        rng = np.random.default_rng(11)
        start = perf_counter()
        checked = 0
        while checked < 100:
            ch = random_channel(rng)
            th = thresholds(ch)
            if th.degenerate or not 0.0 <= th.mu_star <= 1.0:
                continue
            eps = epsilon_vector(ch)
            l, m, s = ordering(ch)
            e_star = epsilon_matrix(ch.with_mu(th.mu_star))
            assert abs(e_star[m, m] ** 2 + e_star[s, s] ** 2 - 2 * eps[l] ** 2) < 1e-10
            e_ml = epsilon_matrix(ch.with_mu(th.mu_ml))
            assert abs(e_ml[m, m] ** 2 - eps[l] ** 2) < 1e-10
            checked += 1
        elapsed = perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_route_equivalence():
    with criterion("route equivalence (1000 pairs, 1e-12, < 10 s)"):
        rng = np.random.default_rng(12)
        start = perf_counter()
        for _ in range(1000):
            ch = random_channel(rng)
            rho = random_pure_density(rng)
            w = pauli_weights(rho)
            via_sum = apply_channel(ch, rho)
            via_weights = weights_to_density(apply_channel_weights(ch, w))
            via_entries = output_matrix(ch, w)
            assert np.abs(via_sum - via_weights).max() < 1e-12
            assert np.abs(via_sum - via_entries).max() < 1e-12
        elapsed = perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_spectrum_formulas():
    with criterion("spectrum formulas vs diagonalization (20x101, 1e-12, < 30 s)"):
        rng = np.random.default_rng(13)
        start = perf_counter()
        for _ in range(20):
            q = tuple(rng.dirichlet(np.ones(4)))
            for mu in np.linspace(0.0, 1.0, 101):
                ch = PauliChannel(q, float(mu))
                cp = channel_params(ch)
                rho_p = product_optimal_state(cp.ordering[0], 1, 1)
                lam_p = eig_hermitian4(apply_channel(ch, rho_p))
                assert np.abs(spectrum_product_regime(cp) - lam_p).max() < 1e-12
                lam_b = eig_hermitian4(apply_channel(ch, bell_state(1, -1, 1)))
                assert np.abs(spectrum_bell_regime(cp) - lam_b).max() < 1e-12
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_constraint_identities():
    with criterion("constraint identities (10000 states, 1e-10, < 30 s)"):
        start = perf_counter()
        for seed in range(10000):
            params = random_params(np.random.default_rng(seed))
            w = pauli_weights(density_matrix(state_vector(params)))
            assert abs(((w**2).sum() - 1.0) - 3.0) < 1e-10
            for j, k, n in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
                assert w[j, j] ** 2 + w[k, k] ** 2 - w[n, n] ** 2 <= 1.0 + 1e-10
            a_plus, a_minus, beta = alpha_beta(params)
            assert abs(a_plus - (w[1, 1] ** 2 + w[2, 2] ** 2 + w[3, 3] ** 2)) < 1e-10
            assert abs(a_minus - (w[1, 1] ** 2 + w[2, 2] ** 2 - w[3, 3] ** 2)) < 1e-10
            beta_w = sum(w[n, 0] ** 2 + w[0, n] ** 2 for n in (1, 2, 3))
            assert abs(beta - beta_w) < 1e-10
            assert a_minus <= 1.0 + 1e-10
            assert a_plus <= 3.0 + 1e-10
            assert beta <= 2.0 + 1e-10
            assert a_plus + beta <= 3.0 + 1e-10
        elapsed = perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"


def test_achievability_ensemble():
    with criterion("achievability ensemble (100 pairs, 1e-12 / 1e-10, < 10 s)"):
        rng = np.random.default_rng(14)
        start = perf_counter()
        for _ in range(100):
            ch = random_channel(rng)
            rho = random_pure_density(rng)
            assert verify_ensemble_achievability(ch, rho) < 1e-12
            ents = ensemble_output_entropies(ch, rho)
            assert ents.max() - ents.min() < 1e-10
        elapsed = perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_bruteforce_confirms_optimal_families():
    with criterion("optimal families: brute force vs analytic optimum (< 5 min)"):
        channels = [
            PauliChannel(ILLUSTRATION_Q, 0.0),
            depolarizing(0.1, 0.0),
            depolarizing(0.25, 0.0),
            mp_channel(0.1, 0.0),
            mp_channel(0.4, 0.0),
        ]
        grid = [round(0.05 * k, 2) for k in range(21)]
        cfg = SearchConfig()
        start = perf_counter()
        for base in channels:
            mu_star = thresholds(base).mu_star
            report = verify_optimality_grid(base, grid, cfg)
            assert not report.any_flag
            assert not report.budget_exceeded
            for point in report.points:
                assert point.gap >= -1e-6, f"mu={point.mu}: oracle beat analytic by {-point.gap}"
                assert point.gap <= 1e-4, f"mu={point.mu}: oracle missed optimum by {point.gap}"
                if point.mu < mu_star - 1e-3:
                    assert point.s_product < point.s_bell
                elif point.mu > mu_star + 1e-3:
                    assert point.s_bell < point.s_product
        elapsed = perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f} s"


def test_capacity_endpoints():
    with criterion("capacity endpoints (< 1 ms each)"):
        rng = np.random.default_rng(15)
        capacity_two_use(PauliChannel(ILLUSTRATION_Q, 0.5))  # warm-up

        start = perf_counter()
        result = capacity_two_use(PauliChannel(ILLUSTRATION_Q, 1.0))
        elapsed = perf_counter() - start
        assert result.c2 == 1.0
        assert elapsed < 1e-3
        for _ in range(20):
            assert capacity_two_use(random_channel(rng, mu=1.0)).c2 == 1.0

        for mu in (0.0, 0.25, 0.5, 0.75, 1.0):
            start = perf_counter()
            result = capacity_two_use(PauliChannel((1.0, 0.0, 0.0, 0.0), mu))
            elapsed = perf_counter() - start
            assert result.c2 == 1.0
            assert elapsed < 1e-3

        start = perf_counter()
        result = capacity_two_use(depolarizing(0.25, 0.0))
        elapsed = perf_counter() - start
        closed_form = 1.0 - (
            -(5 / 6) * math.log2(5 / 6) - (1 / 6) * math.log2(1 / 6)
        )
        assert abs(result.c2 - closed_form) < 1e-12
        assert elapsed < 1e-3


def test_cli_determinism():
    with criterion("CLI determinism (byte-identical with fixed seed)"):
        def run(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "paulimem.cli", *argv],
                capture_output=True,
                check=False,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            return proc.stdout

        sweep_args = ["--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.1", "sweep"]
        assert run(sweep_args) == run(sweep_args)
        sweep_json = sweep_args[:-1] + ["--format", "json", "sweep"]
        assert run(sweep_json) == run(sweep_json)
        verify_args = [
            "--q", "0.2,0.1,0.3,0.4", "--mu-grid", "0:1:0.5",
            "--grid-points", "4", "--restarts", "3", "--seed", "9",
            "--format", "json", "verify",
        ]
        assert run(verify_args) == run(verify_args)
