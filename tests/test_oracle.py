import random
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    NonHermitian,
    OutOfRange,
    PauliChannel,
    SearchConfig,
    a2_coefficient,
    apply_channel,
    bell_state,
    channel_params,
    depolarizing,
    density_matrix,
    eig_hermitian4,
    entropy_bits,
    min_entropy_bruteforce,
    output_entropies,
    output_matrix,
    params_from_states,
    pauli_weights,
    product_optimal_state,
    spectrum_bell_regime,
    spectrum_product_regime,
    state_vector,
    state_vectors,
    thresholds,
    verify_optimality_grid,
)
from paulimem import oracle
from paulimem.oracle import (
    _entropy_and_gradient,
    _grid,
    _refine,
    channel_superoperator,
    report_to_csv,
    report_to_json,
)
from conftest import ILLUSTRATION_Q, random_channel, random_params, random_pure_density


_GRID_CHANNELS = [PauliChannel(ILLUSTRATION_Q, mu) for mu in (0.0, 0.3, 0.5, 0.8, 1.0)] + [
    depolarizing(0.25, 0.3),
    PauliChannel((1.0, 0.0, 0.0, 0.0), 0.5),  # every cell ties at 0
    PauliChannel((0.25,) * 4, 0.0),  # every output is I/4
    PauliChannel((0.5, 0.5, 0.0, 0.0), 0.2),
]


def _channel_id(ch):
    return f"{ch.q}-{ch.mu}"


class TestOutputMatrix:
    def test_maximally_mixed(self, rng):
        w = np.zeros((4, 4))
        w[0, 0] = 1.0
        out = output_matrix(random_channel(rng), w)
        assert np.abs(out - np.eye(4) / 4.0).max() < 1e-15

    def test_bell_full_correlation(self):
        ch = PauliChannel(ILLUSTRATION_Q, 1.0)
        rho = bell_state(1, -1, 1)
        out = output_matrix(ch, pauli_weights(rho))
        assert np.abs(out - rho).max() < 1e-12

    def test_matches_operator_sum(self, rng):
        for _ in range(100):
            ch = random_channel(rng)
            rho = random_pure_density(rng)
            explicit = output_matrix(ch, pauli_weights(rho))
            direct = apply_channel(ch, rho)
            assert np.abs(explicit - direct).max() < 1e-12


class TestEigHermitian4:
    def test_diagonal(self):
        lam = eig_hermitian4(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.abs(lam - [0.4, 0.3, 0.2, 0.1]).max() < 1e-14

    def test_bell_projector(self):
        lam = eig_hermitian4(bell_state(1, -1, 1))
        assert np.abs(lam - [1.0, 0.0, 0.0, 0.0]).max() < 1e-14

    def test_planted_spectrum(self, rng):
        target = np.array([0.55, 0.25, 0.15, 0.05])
        for _ in range(50):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, _ = np.linalg.qr(raw)
            h = u @ np.diag(target).astype(complex) @ u.conj().T
            assert np.abs(eig_hermitian4(h) - target).max() < 1e-10

    def test_unitary_invariance_and_trace(self, rng):
        for _ in range(50):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (raw + raw.conj().T) / 2.0
            lam = eig_hermitian4(h)
            assert abs(lam.sum() - np.trace(h).real) < 1e-10
            u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
            lam2 = eig_hermitian4(u @ h @ u.conj().T)
            assert np.abs(lam - lam2).max() < 1e-10

    def test_matches_lapack(self, rng):
        for _ in range(200):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            h = (raw + raw.conj().T) / 2.0
            assert np.abs(eig_hermitian4(h) - np.sort(np.linalg.eigvalsh(h))[::-1]).max() < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(NonHermitian):
            eig_hermitian4(m)


class TestA2:
    def test_identity_channel(self, rng):
        cp = channel_params(PauliChannel((1, 0, 0, 0), 0.5))
        for _ in range(20):
            w = pauli_weights(random_pure_density(rng))
            a2, A, B, C = a2_coefficient(cp, w)
            assert A + B + C == pytest.approx(3.0, abs=1e-12)
            assert a2 == pytest.approx(0.0, abs=1e-12)

    def test_product_state_value(self, rng):
        for _ in range(20):
            ch = random_channel(rng)
            cp = channel_params(ch)
            l = cp.ordering[0]
            w = pauli_weights(product_optimal_state(l, 1, 1))
            _, A, B, C = a2_coefficient(cp, w)
            expected = cp.eps2[l, l] ** 2 + 2.0 * cp.eps[l] ** 2
            assert A + B + C == pytest.approx(expected, abs=1e-12)

    def test_bell_state_value(self, rng):
        for _ in range(20):
            ch = random_channel(rng)
            cp = channel_params(ch)
            w = pauli_weights(bell_state(1, -1, 1))
            _, A, B, C = a2_coefficient(cp, w)
            expected = sum(cp.eps2[k, k] ** 2 for k in (1, 2, 3))
            assert A + B + C == pytest.approx(expected, abs=1e-12)

    def test_purity_cross_check(self, rng):
        # a2 = sum of pairwise eigenvalue products = (1 - Tr(out^2))/2
        for _ in range(100):
            ch = random_channel(rng)
            cp = channel_params(ch)
            rho = random_pure_density(rng)
            out = apply_channel(ch, rho)
            a2 = a2_coefficient(cp, pauli_weights(rho))[0]
            assert a2 == pytest.approx((1.0 - np.trace(out @ out).real) / 2.0, abs=1e-12)
            assert a2 >= -1e-12

    def test_objective_consistency(self):
        # the family with the larger A + B + C has the smaller output entropy,
        # away from a 1e-3 band around mu_star
        channels = [
            PauliChannel(ILLUSTRATION_Q, 0.0),
            PauliChannel((0.75, 1 / 12, 1 / 12, 1 / 12), 0.0),
            PauliChannel((0.1, 0.4, 0.4, 0.1), 0.0),
        ]
        for base in channels:
            mu_star = thresholds(base).mu_star
            for mu in np.arange(0.0, 1.0001, 0.05):
                mu = float(min(mu, 1.0))
                if abs(mu - mu_star) < 1e-3:
                    continue
                ch = base.with_mu(mu)
                cp = channel_params(ch)
                w_p = pauli_weights(product_optimal_state(cp.ordering[0], 1, 1))
                w_b = pauli_weights(bell_state(1, -1, 1))
                sum_p = sum(a2_coefficient(cp, w_p)[1:])
                sum_b = sum(a2_coefficient(cp, w_b)[1:])
                s_p = entropy_bits(spectrum_product_regime(cp))
                s_b = entropy_bits(spectrum_bell_regime(cp))
                if abs(sum_p - sum_b) < 1e-12 or abs(s_p - s_b) < 1e-12:
                    continue
                assert (sum_p > sum_b) == (s_p < s_b)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.grid_points_per_angle == 3
        assert cfg.restarts == 64

    def test_validation(self):
        with pytest.raises(OutOfRange):
            SearchConfig(grid_points_per_angle=0)
        with pytest.raises(OutOfRange, match="seed"):
            SearchConfig(seed=-1)

    @pytest.mark.parametrize("field", ["grid_points_per_angle", "restarts", "seed"])
    def test_validation_rejects_non_integer(self, field):
        with pytest.raises(OutOfRange, match=f"{field} must be an integer"):
            SearchConfig(**{field: 2.5})
        SearchConfig(**{field: np.int64(2)})  # numpy integers are integers

    def test_numpy_integers_are_stored_as_int(self):
        cfg = SearchConfig(np.int64(2), np.int64(3), np.int64(1))
        assert [type(v) for v in (cfg.grid_points_per_angle, cfg.restarts, cfg.seed)] == [int] * 3
        assert cfg == SearchConfig(2, 3, 1) and hash(cfg) == hash(SearchConfig(2, 3, 1))
        res = min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 0.5), cfg)
        assert type(res.evaluations) is int

    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    @pytest.mark.parametrize("field", ["grid_points_per_angle", "restarts", "seed"])
    def test_validation_rejects_bool(self, field, value):
        # operator.index(True) is 1, so a bool would pass as an integer
        with pytest.raises(OutOfRange, match=f"{field} must be an integer"):
            SearchConfig(**{field: value})

    def test_sizes_bounded(self):
        # validation only: a config is plain data, nothing is allocated
        SearchConfig(grid_points_per_angle=4, restarts=1000)
        with pytest.raises(OutOfRange, match="grid_points_per_angle"):
            SearchConfig(grid_points_per_angle=5)
        with pytest.raises(OutOfRange, match="grid_points_per_angle"):
            SearchConfig(grid_points_per_angle=40)
        with pytest.raises(OutOfRange, match="restarts"):
            SearchConfig(restarts=1001)
        with pytest.raises(OutOfRange, match="restarts"):
            SearchConfig(restarts=10**9)


class TestBruteForce:
    def test_identity_channel_reaches_zero(self):
        cfg = SearchConfig(grid_points_per_angle=4, restarts=4)
        res = min_entropy_bruteforce(PauliChannel((1, 0, 0, 0), 0.5), cfg)
        assert res.min_entropy < 1e-9
        assert res.evaluations > 4**6
        assert not res.budget_exceeded

    def test_full_correlation_reaches_zero_on_bell(self):
        cfg = SearchConfig(grid_points_per_angle=4, restarts=4)
        res = min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 1.0), cfg)
        assert res.min_entropy < 1e-9
        assert not res.budget_exceeded
        # the minimizer is (close to) a Bell state: pure output
        assert res.best_spectrum[0] == pytest.approx(1.0, abs=1e-6)

    def test_illustration_low_memory(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.2)
        cp = channel_params(ch)
        analytic = entropy_bits(spectrum_product_regime(cp))
        res = min_entropy_bruteforce(ch)
        assert res.min_entropy <= analytic + 1e-4
        assert res.min_entropy >= analytic - 1e-6
        assert abs(res.gap_to_analytic) <= 1e-4
        assert not res.budget_exceeded

    def test_branch_entropies_are_the_closed_form(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.35)
        res = min_entropy_bruteforce(ch, SearchConfig(grid_points_per_angle=4, restarts=2))
        cp = channel_params(ch)
        assert res.entropy_product == entropy_bits(spectrum_product_regime(cp))
        assert res.entropy_bell == entropy_bits(spectrum_bell_regime(cp))
        assert res.gap_to_analytic == res.min_entropy - min(res.entropy_product, res.entropy_bell)

    def test_deterministic(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.35)
        cfg = SearchConfig(grid_points_per_angle=4, restarts=4, seed=11)
        a = min_entropy_bruteforce(ch, cfg)
        b = min_entropy_bruteforce(ch, cfg)
        assert a.min_entropy == b.min_entropy
        assert a.best_params == b.best_params
        assert a.evaluations == b.evaluations

    @pytest.mark.parametrize("max_iters", [1, 2, 3])
    def test_budget_flag(self, monkeypatch, max_iters):
        ch = PauliChannel(ILLUSTRATION_Q, 0.4)
        superop = channel_superoperator(ch)
        gauss = np.random.default_rng(7).standard_normal((6, 8)).view(complex)
        far = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        # refined rows, converged on entry, and the same rows nudged off
        # their minima, some of which stop in the first passes
        near = _refine(far, superop)[1]
        nudged = near + 3e-8 * np.random.default_rng(8).standard_normal((6, 8)).view(complex)
        nudged /= np.linalg.norm(nudged, axis=1, keepdims=True)
        starts = np.vstack([far, near, nudged])
        start_values, grad = _entropy_and_gradient(starts.view(float), superop)
        live = np.abs(grad).max(axis=1) > oracle._GRAD_TOL
        monkeypatch.setattr(oracle, "_MAX_ITERS", max_iters)
        values, rows, evaluations, exceeded = _refine(starts, superop)
        assert exceeded and 0 < live.sum() < len(starts)
        if max_iters > 1:  # some live row stopped before the last pass
            assert evaluations < len(starts) + max_iters * live.sum()
        assert values.shape == (18,) and np.all(np.isfinite(values))
        # best so far, also for the random starts still live at the cap
        assert (values <= start_values).all() and (values[:6] < start_values[:6]).any()
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
        cfg = SearchConfig(grid_points_per_angle=3, restarts=1)
        res = min_entropy_bruteforce(ch, cfg)
        assert res.budget_exceeded
        assert np.isfinite(res.min_entropy)  # best-so-far is still returned

    def test_tie_at_the_minimum_goes_to_the_smaller_angles(self, monkeypatch):
        # |10> and |01> tie at the lowest value, |00> is higher but its
        # angles (all zero) sort before both; |01> has theta = 0, |10> pi
        vecs = np.eye(4, dtype=complex)[[0, 2, 1]]
        values = np.array([0.5, 0.25, 0.25])
        monkeypatch.setattr(oracle, "_refine", lambda x, m: (values, vecs, 3, False))
        res = min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 0.5), SearchConfig(restarts=1))
        high, tied_late, tied_early = map(tuple, params_from_states(vecs).tolist())
        assert high < tied_early < tied_late
        assert res.best_params.as_array().tolist() == list(tied_early)
        assert res.min_entropy == 0.25
        assert res.evaluations == 3**6 + 3

    def test_best_spectrum_consistent(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.6)
        res = min_entropy_bruteforce(ch, SearchConfig(grid_points_per_angle=4, restarts=4))
        assert entropy_bits(res.best_spectrum) == pytest.approx(res.min_entropy, abs=1e-9)

    def test_output_entropies_vectorized_matches_scalar(self, rng):
        ch = random_channel(rng)
        params = np.stack([random_params(rng).as_array() for _ in range(16)])
        batch = output_entropies(ch, params)
        for row, expected in zip(params, batch):
            rho = density_matrix(state_vector(type(random_params(rng))(*row)))
            lam = np.linalg.eigvalsh(apply_channel(ch, rho))
            assert entropy_bits(lam) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "params",
        [
            np.zeros(3),
            np.zeros((2, 5)),
            np.zeros((1, 1, 6)),
            np.zeros((2, 0)),
            [[0.0, 1.0, 2.0, 3.0, 4.0, float("nan")]],
            [0.0, 1.0, float("inf"), 3.0, 4.0, 5.0],
            [["a", "b", "c", "d", "e", "f"]],
            [[0.0] * 6, [0.0] * 5],
        ],
        ids=["short-row", "five-columns", "3d", "no-columns", "nan", "inf", "strings", "ragged"],
    )
    def test_output_entropies_rejects_malformed_rows(self, params):
        with pytest.raises(OutOfRange):
            output_entropies(PauliChannel(ILLUSTRATION_Q, 0.5), params)

    @pytest.mark.parametrize("ch", _GRID_CHANNELS, ids=_channel_id)
    def test_superoperator_action(self, rng, ch):
        m = channel_superoperator(ch)
        for _ in range(20):
            rho = random_pure_density(rng)
            out = (m @ rho.reshape(16)).reshape(4, 4)
            assert np.abs(out - apply_channel(ch, rho)).max() < 1e-12

    def test_objective_value_and_gradient(self, rng):
        # S is evaluated to ~1e-13 (amplitude and eigenvalue rounding times
        # |log2 lambda| <= ~10 for these outputs), so the central difference
        # at h = 1e-6 carries ~1e-7 of rounding at most; truncation, h**2
        # S'''/6, is far below that while no output eigenvalue is tiny. A row
        # holds amplitudes of length 0.5 to 2; its entropy is that of the
        # unit state, reached here through the six parameters.
        def entropy(rows):
            c = rows.view(complex)
            return output_entropies(ch, params_from_states(c / np.linalg.norm(c, axis=1)[:, None]))

        h = 1e-6
        for _ in range(40):
            ch = random_channel(rng, mu=float(rng.uniform(0.0, 0.99)))
            superop = channel_superoperator(ch)
            x = rng.standard_normal(8)
            x *= rng.uniform(0.5, 2.0) / np.linalg.norm(x)
            value, grad = _entropy_and_gradient(x[None], superop)
            value, grad = value[0], grad[0]
            assert abs(value - entropy(x[None])[0]) <= 1e-12
            up = x + h * np.eye(8)
            down = x - h * np.eye(8)
            # divided by the steps as represented
            central = (entropy(up) - entropy(down)) / np.diag(up - down)
            assert np.abs(grad - central).max() <= 1e-7

    def test_refinement_passes(self, monkeypatch):
        # a count, not a time: every live start takes one trial point per
        # pass, so a start halving its step holds up no other, and a bounded
        # first step leaves few steps to halve (24 calls here, 39 unbounded)
        calls = []
        objective = oracle._entropy_and_gradient
        monkeypatch.setattr(
            oracle, "_entropy_and_gradient", lambda x, m: calls.append(len(x)) or objective(x, m)
        )
        min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 0.5))
        assert len(calls) <= 32

    @pytest.mark.parametrize(
        "ch", [PauliChannel(ILLUSTRATION_Q, 0.5), depolarizing(0.25, 0.55)], ids=["worked", "depol"]
    )
    def test_trial_points_stay_near_the_sphere(self, monkeypatch, ch):
        # every row after the first call is a unit row plus a step of length
        # at most _MAX_STEP; unbounded first steps reached 7.1e6 and 334 here
        norms = []
        objective = oracle._entropy_and_gradient
        monkeypatch.setattr(
            oracle,
            "_entropy_and_gradient",
            lambda x, m: norms.append(np.linalg.norm(x, axis=1)) or objective(x, m),
        )
        min_entropy_bruteforce(ch)
        assert len(norms) > 1
        assert np.concatenate(norms[1:]).max() <= 1.0 + oracle._MAX_STEP + 1e-12

    @pytest.mark.parametrize(
        "ch, extra, stops",
        [
            (PauliChannel(ILLUSTRATION_Q, 0.5), [], "gradient"),
            # the minima have pure outputs, where every random start stalls;
            # the Bell start has zero gradient on entry
            (PauliChannel(ILLUSTRATION_Q, 1.0), [[1, 0, 0, 1]], "stall"),
            (PauliChannel((1.0, 0.0, 0.0, 0.0), 0.5), [], "entry"),  # every start
        ],
        ids=["worked-0.5", "worked-1", "identity"],
    )
    def test_rows_refine_independently(self, rng, ch, extra, stops):
        # a batch is only a vectorization: each row ends where it ends alone,
        # whether it stops on the gradient, stalls or is converged on entry
        superop = channel_superoperator(ch)
        gauss = rng.standard_normal((12, 8)).view(complex)
        starts = np.vstack([gauss, np.array(extra, dtype=complex).reshape(-1, 4)])
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        values, rows, evaluations, exceeded = _refine(starts, superop)
        assert not exceeded
        for start, value in zip(starts, values):
            assert abs(_refine(start[None], superop)[0][0] - value) <= 1e-12
        entry = np.abs(_entropy_and_gradient(starts.view(float), superop)[1]).max(axis=1)
        entry = entry <= oracle._GRAD_TOL
        assert np.array_equal(rows[entry], starts[entry])  # handed back untouched
        final = np.abs(_entropy_and_gradient(rows.view(float), superop)[1]).max(axis=1)
        if stops == "entry":
            assert entry.all() and evaluations == len(starts)
        elif stops == "stall":
            assert entry[12:].all() and (final[:12] > oracle._GRAD_TOL).all()
        else:
            assert not entry.any() and (final < 10 * oracle._GRAD_TOL).all()

    @pytest.mark.parametrize(
        "ch",
        [PauliChannel(ILLUSTRATION_Q, mu) for mu in (0.5, 1.0)] + [depolarizing(0.25, 0.3)],
        ids=["worked-0.5", "worked-1", "depolarizing"],
    )
    def test_refined_rows_are_unit_states(self, ch):
        # the refinement moves amplitudes of any length but hands back unit
        # states, and the parameters read from the winner reproduce its value
        gauss = np.random.default_rng(5).standard_normal((8, 8)).view(complex)
        starts = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        rows = _refine(starts, channel_superoperator(ch))[1]
        assert rows.shape == (8, 4)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-12
        res = min_entropy_bruteforce(ch)
        assert abs(output_entropies(ch, res.best_params.as_array())[0] - res.min_entropy) <= 1e-12

    def test_default_search_cost(self):
        # a count, not a time: the grid plus fewer than 3000 objective rows
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        res = min_entropy_bruteforce(ch)
        assert res.evaluations - SearchConfig().grid_points_per_angle ** 6 < 3000
        assert res.budget_exceeded is False

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_grid_matches_meshgrid(self, g):
        # the documented layout, which the benchmark's layer pass rebuilds
        axes = [np.linspace(0.0, np.pi, g)]
        axes += [np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)] * 5
        mesh = np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert np.array_equal(_grid(g), mesh)


def _mirrored_flat(g, flat):
    """Flat indices with each phase index k replaced by (g - k) mod g."""
    idx = np.array(np.unravel_index(flat, (g,) * 6))
    idx[3:] = -idx[3:] % g
    return np.ravel_multi_index(tuple(idx), (g,) * 6)


class TestGridStage:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(q=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4).filter(
        lambda m: sum(m) > 1e-3), mu=st.floats(min_value=0.0, max_value=1.0))
    def test_superoperator_is_real(self, q, mu):
        ch = PauliChannel(tuple(np.array(q) / sum(q)), mu)
        assert np.all(channel_superoperator(ch).imag == 0.0)

    @pytest.mark.parametrize("g", [3, 4])  # one and two self-mirrored phases
    @pytest.mark.parametrize("channel", _GRID_CHANNELS, ids=_channel_id)
    def test_mirrored_cells_have_equal_entropy(self, g, channel):
        # conjugating the input state leaves a real-superoperator channel's
        # output spectrum unchanged
        grid = _grid(g)
        direct = output_entropies(channel, grid)
        mirrored = output_entropies(channel, grid[_mirrored_flat(g, np.arange(g**6))])
        assert np.abs(direct - mirrored).max() <= 1e-12

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    @pytest.mark.parametrize("channel", _GRID_CHANNELS, ids=_channel_id)
    def test_grid_starts_are_the_best_distinct_states(self, monkeypatch, g, channel):
        # the grid starts handed to the refinement come first: the first
        # _REFINEMENTS distinct projectors of a stable argsort over every cell,
        # each as its first cell's amplitudes; the Haar starts follow
        starts = []
        refine = oracle._refine
        monkeypatch.setattr(oracle, "_refine", lambda x, m: starts.append(x) or refine(x, m))
        cfg = SearchConfig(grid_points_per_angle=g, restarts=2, seed=g)
        min_entropy_bruteforce(channel, cfg)
        cells = state_vectors(_grid(g))
        proj = oracle._projectors(cells)
        best, seen = [], set()
        for k in np.argsort(output_entropies(channel, _grid(g)), kind="stable").tolist():
            if proj[k].tobytes() not in seen:
                seen.add(proj[k].tobytes())
                best.append(k)
        best = best[: oracle._REFINEMENTS]
        # Box-Muller over 16 uniforms of the standard library's stream, (2, 2, 4)
        draw = random.Random(cfg.seed).random
        u = np.array([draw() for _ in range(16)]).reshape(2, 2, 4)
        gauss = np.sqrt(-2.0 * np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])
        expected = np.vstack([cells[best], gauss / np.linalg.norm(gauss, axis=1, keepdims=True)])
        assert len(starts) == 1 and starts[0].tobytes() == expected.tobytes()

    @staticmethod
    def _haar_starts(monkeypatch, channel, seed):
        """The 1,000 Haar starts of one search, taken at the refinement, which is skipped."""
        starts = []
        monkeypatch.setattr(oracle, "_refine", lambda x, m: starts.append(x) or (
            np.zeros(len(x)), x, 0, False))
        min_entropy_bruteforce(channel, SearchConfig(grid_points_per_angle=1, restarts=1000,
                                                     seed=seed))
        return starts[0][-1000:]

    def test_haar_starts_are_uniform(self, monkeypatch):
        # Haar-uniform unit 4-vectors v: E|v_k|^2 = 1/4, E v_k = 0 and
        # E v_j conj(v_k) = 0 for j != k, each checked within 5 standard errors.
        # The first three hold for any radius law with uniform phases; |v_k|^2 is
        # Beta(1, 3), so E|v_k|^4 = 1/10 checks the radius law as well
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        v = np.vstack([self._haar_starts(monkeypatch, ch, seed) for seed in range(4)])
        assert v.shape == (4000, 4)
        assert np.abs(np.linalg.norm(v, axis=1) - 1.0).max() <= 1e-12
        j, k = np.triu_indices(4, 1)
        for sample, mean in [
            (np.abs(v) ** 2, 0.25),
            (np.abs(v) ** 4, 0.1),
            (v.real, 0.0),
            (v.imag, 0.0),
            ((v[:, j] * v[:, k].conj()).real, 0.0),
            ((v[:, j] * v[:, k].conj()).imag, 0.0),
        ]:
            se = sample.std(axis=0) / np.sqrt(len(sample))
            assert (np.abs(sample.mean(axis=0) - mean) <= 5.0 * se).all()

    def test_haar_starts_depend_on_the_seed_alone(self, monkeypatch):
        first = self._haar_starts(monkeypatch, PauliChannel(ILLUSTRATION_Q, 0.5), 7)
        again = self._haar_starts(monkeypatch, depolarizing(0.25, 0.3), 7)
        other = self._haar_starts(monkeypatch, PauliChannel(ILLUSTRATION_Q, 0.5), 8)
        assert first.tobytes() == again.tobytes()
        assert not np.isin(first, other).any()

    def test_grid_stage_cost(self, monkeypatch):
        # a count, not a time: the grid stage diagonalizes each bitwise-distinct
        # projector |v><v| of a cell once, counted here from the cells (trig
        # rounding decides which cells coincide, so the count is not pinned)
        rows = []
        eigvalsh = np.linalg.eigvalsh  # the grid stage's; refinement takes eigh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda out: rows.append(len(out)) or eigvalsh(out)
        )
        for g in (1, 2, 3, 4):
            rows.clear()
            min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 0.5), SearchConfig(g, restarts=1))
            v = state_vectors(_grid(g))
            proj = np.einsum("ni,nj->nij", v, v.conj()).reshape(len(v), -1)
            distinct = len({row.tobytes() for row in proj})
            assert rows == [distinct]
            assert g == 1 or distinct < g**6

    def test_search_memory(self):
        # tracemalloc sees numpy's buffers, so this holds on any machine; the
        # cache is cleared first so the grid table's build is traced too. A
        # cold default search (729 cells, 64 random starts) peaked at 1.4 MB
        assert _cold_search_peak(SearchConfig()) < 10e6

    def test_search_memory_at_the_caps(self):
        # 4,096 cells and 1,000 random starts: a cold search peaked at 4.7 MB
        assert _cold_search_peak(SearchConfig(4, restarts=1000)) < 10e6

    def test_cached_tables_at_the_cap(self):
        # one table per grid size, at most four: 1 + 27 + 379 + 2,485
        # distinct states held 0.93 MB in all
        oracle._grid_states.cache_clear()
        held = sum(a.nbytes for g in (1, 2, 3, 4) for a in oracle._grid_states(g))
        assert held <= 1e6


def _cold_search_peak(cfg):
    """Peak traced bytes of one search on the illustration, its grid table built afresh."""
    oracle._grid_states.cache_clear()
    tracemalloc.start()
    try:
        min_entropy_bruteforce(PauliChannel(ILLUSTRATION_Q, 0.5), cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _same_result(a, b):
    """OracleResults equal field for field, bit for bit."""
    a, b = asdict(a), asdict(b)
    return a.pop("best_spectrum").tobytes() == b.pop("best_spectrum").tobytes() and a == b


class TestGridStates:
    def test_tables_refuse_writes(self):
        for a in oracle._grid_states(2):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_each_cell_maps_to_one_distinct_state(self, g):
        states, proj = oracle._grid_states(g)
        assert proj.tobytes() == oracle._projectors(states).tobytes()
        cells = state_vectors(_grid(g))
        keys = [row.tobytes() for row in oracle._projectors(cells)]
        # each distinct projector once, as its first cell's state, in cell order
        first = {}
        for k, key in enumerate(keys):
            first.setdefault(key, k)
        assert [row.tobytes() for row in proj] == list(first)
        assert states.tobytes() == cells[list(first.values())].tobytes()

    def test_interleaved_searches_equal_fresh_ones(self):
        channels = [PauliChannel(ILLUSTRATION_Q, 0.3), depolarizing(0.25, 0.6)]
        configs = [SearchConfig(2, restarts=4, seed=3), SearchConfig(3, restarts=6, seed=5)]
        runs = [(ch, cfg) for cfg in configs for ch in channels]
        runs += [(ch, cfg) for ch in channels for cfg in configs]
        interleaved = [min_entropy_bruteforce(ch, cfg) for ch, cfg in runs]
        fresh = []
        for ch, cfg in runs:
            oracle._grid_states.cache_clear()
            fresh.append(min_entropy_bruteforce(ch, cfg))
        assert all(_same_result(a, b) for a, b in zip(interleaved, fresh))

    def test_verify_grid_equals_separate_searches(self):
        base = PauliChannel(ILLUSTRATION_Q, 0.0)
        cfg = SearchConfig(restarts=8, seed=2)
        report = verify_optimality_grid(base, [0.1, 0.45, 0.9], cfg)
        for point, mu in zip(report.points, [0.1, 0.45, 0.9]):
            oracle._grid_states.cache_clear()
            res = min_entropy_bruteforce(base.with_mu(mu), cfg)
            assert (point.s_oracle, point.s_product, point.s_bell, point.gap) == (
                res.min_entropy, res.entropy_product, res.entropy_bell, res.gap_to_analytic
            )


class TestVerifyGrid:
    def test_full_correlation_gap_zero(self):
        cfg = SearchConfig(grid_points_per_angle=4, restarts=4)
        report = verify_optimality_grid(PauliChannel(ILLUSTRATION_Q, 0.0), [1.0], cfg)
        point = report.points[0]
        assert point.s_bell == 0.0
        assert abs(point.gap) < 1e-9
        assert not point.flag and not report.any_flag

    def test_illustration_no_flags(self):
        report = verify_optimality_grid(
            PauliChannel(ILLUSTRATION_Q, 0.0), [0.0, 0.39, 1.0]
        )
        assert not report.any_flag
        for point in report.points:
            assert point.gap >= -1e-6
            assert point.gap <= 1e-4

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.5])
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_rejects_bad_value_before_any_search(self, monkeypatch, bad, where):
        searches = []
        monkeypatch.setattr(oracle, "min_entropy_bruteforce", lambda *a: searches.append(a))
        grid = [0.0, 0.5, 1.0]
        grid[where] = bad
        with pytest.raises(OutOfRange) as exc:
            verify_optimality_grid(PauliChannel(ILLUSTRATION_Q, 0.0), grid)
        if np.isfinite(bad):
            assert str(exc.value) == f"mu outside [0, 1]: {bad}"
        assert searches == []

    def test_report_serialization(self):
        cfg = SearchConfig(grid_points_per_angle=4, restarts=2)
        report = verify_optimality_grid(PauliChannel(ILLUSTRATION_Q, 0.0), [0.5, 1.0], cfg)
        csv_text = report_to_csv(report)
        lines = csv_text.splitlines()
        assert lines[0] == "mu,s_oracle,s_product,s_bell,gap,flag"
        assert len(lines) == 3
        import json

        payload = json.loads(report_to_json(report))
        assert [p["mu"] for p in payload] == [0.5, 1.0]
        assert set(payload[0]) == {"mu", "s_oracle", "s_product", "s_bell", "gap", "flag"}


def test_weak_completeness_on_illustration():
    # the default search lands within 1e-4 bits of the analytic optimum
    # across the whole memory range
    base = PauliChannel(ILLUSTRATION_Q, 0.0)
    grid = [round(0.1 * k, 1) for k in range(11)]
    report = verify_optimality_grid(base, grid, SearchConfig())
    assert not report.any_flag
    for point in report.points:
        assert abs(point.gap) <= 1e-4


def _hard_set():
    """(label, channel) points where an earlier default search missed the minimum.

    Channel i is row i of default_rng(2026).dirichlet([1, 1, 1, 1], 150), taken
    at mu_ml, (mu_ml + mu_star)/2 and mu_star. A grid of 7 points per angle
    with 16 starts uniform in the angles missed channels 3, 4, 9, 75, 101, 109,
    130, 138 and 141 at one of these on some seed in 0-3 (by up to 3.9e-3
    bits), and channel 101 at mu = 0: its starts never reached the
    sigma_x/sigma_y-product or Bell basins. Pure-output, depolarizing,
    tied-axis and degenerate points ride along.
    """
    qs = np.random.default_rng(2026).dirichlet([1, 1, 1, 1], 150)
    points = []
    for i in (3, 4, 9, 75, 101, 109, 130, 138, 141):
        base = PauliChannel(tuple(qs[i]), 0.0)
        th = thresholds(base)
        mid = (th.mu_ml + th.mu_star) / 2.0
        for tag, mu in (("ml", th.mu_ml), ("mid", mid), ("star", th.mu_star)):
            points.append((f"{i}-{tag}", base.with_mu(mu)))
    for i, mu in ((101, 0.0), (4, 1.0), (101, 1.0), (130, 1.0)):
        points.append((f"{i}-{mu}", PauliChannel(tuple(qs[i]), mu)))
    for p in (0.1, 0.25):
        base = depolarizing(p, 0.0)
        for mu in (0.0, thresholds(base).mu_star, 1.0):
            points.append((f"depolarizing-{p}-{mu}", base.with_mu(mu)))
    for q in ((0.4, 0.3, 0.3, 0.0), (0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.25,) * 4):
        for mu in (0.0, 0.5):
            points.append((f"{q}-{mu}", PauliChannel(q, mu)))
    return points


@pytest.mark.parametrize("seed", range(4))
def test_default_search_reaches_the_hard_set_minimum(seed):
    misses = []
    for label, ch in _hard_set():
        res = min_entropy_bruteforce(ch, SearchConfig(seed=seed))
        if res.gap_to_analytic > 1e-9 or res.budget_exceeded:
            misses.append((label, res.gap_to_analytic, res.budget_exceeded))
    assert misses == []


def test_no_search_refines_one_grid_state_twice(monkeypatch):
    # at 3-ml the three best cells, 706, 715 and 724, are one projector
    starts = []
    refine = oracle._refine
    monkeypatch.setattr(oracle, "_refine", lambda x, m: starts.append(x) or refine(x, m))
    cfg = SearchConfig()
    min_entropy_bruteforce(dict(_hard_set())["3-ml"], cfg)
    grid_starts = starts[0][: len(starts[0]) - cfg.restarts]
    assert len(grid_starts) == oracle._REFINEMENTS
    assert len({row.tobytes() for row in oracle._projectors(grid_starts)}) == len(grid_starts)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("g", [1, 4])
def test_each_grid_size_reaches_the_hard_set_minimum(g, seed):
    # The Haar starts find the minimum whatever the grid adds, from a single
    # cell to the cap of 4,096.
    misses = []
    for label, ch in _hard_set():
        res = min_entropy_bruteforce(ch, SearchConfig(grid_points_per_angle=g, seed=seed))
        if res.gap_to_analytic > 1e-9 or res.budget_exceeded:
            misses.append((label, res.gap_to_analytic, res.budget_exceeded))
    assert misses == []
