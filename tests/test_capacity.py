import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    CapacityCurve,
    InvalidSpectrum,
    OutOfRange,
    PauliChannel,
    Regime,
    apply_channel,
    bell_state,
    capacity_sweep,
    capacity_two_use,
    channel_params,
    depolarizing,
    eig_hermitian4,
    ensemble_output_entropies,
    entropy_bits,
    min_entropy_bruteforce,
    ordering,
    product_optimal_state,
    spectrum_bell_regime,
    spectrum_product_regime,
    sweep_to_csv,
    sweep_to_json,
    verify_ensemble_achievability,
)
from paulimem import capacity as capacity_module
from paulimem import channel as channel_module
from paulimem.capacity import SWEEP_CSV_HEADER, csv_text, json_text
from paulimem.cli import _parse_grid
from paulimem.oracle import SearchConfig
from conftest import ILLUSTRATION_Q, random_channel, random_pure_density


def binary_entropy(x):
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


class TestEntropyBits:
    def test_pure(self):
        assert entropy_bits([1.0, 0.0, 0.0, 0.0]) == 0.0

    def test_maximally_mixed(self):
        assert entropy_bits([0.25] * 4) == 2.0

    def test_two_level(self):
        assert entropy_bits([0.5, 0.5, 0.0, 0.0]) == 1.0

    def test_clamps_rounding_noise(self):
        assert entropy_bits([1.0, -1e-12, 1e-12, 0.0]) >= 0.0

    def test_rejects_negative(self):
        with pytest.raises(InvalidSpectrum):
            entropy_bits([1.1, -0.1, 0.0, 0.0])

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidSpectrum):
            entropy_bits([0.5, 0.1, 0.1, 0.1])

    def test_pure_is_positive_zero(self):
        for lam in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, -1e-12, 1e-12, 0.0]):
            assert math.copysign(1.0, entropy_bits(lam)) == 1.0


class TestProductSpectrum:
    def test_identity_channel(self):
        cp = channel_params(PauliChannel((1, 0, 0, 0), 0.3))
        assert np.abs(spectrum_product_regime(cp) - [1, 0, 0, 0]).max() < 1e-15

    def test_no_memory_is_square_of_single_use(self, rng):
        # at mu = 0 the output factorizes, so the spectrum is the outer
        # square of the single-qubit spectrum ((1 +- e_l)/2)
        for _ in range(20):
            ch = random_channel(rng, mu=0.0)
            cp = channel_params(ch)
            e_l = cp.eps[cp.ordering[0]]
            single = np.array([(1 + e_l) / 2, (1 - e_l) / 2])
            expected = np.sort(np.outer(single, single).ravel())[::-1]
            assert np.abs(spectrum_product_regime(cp) - expected).max() < 1e-12

    def test_matches_diagonalization(self, rng):
        for mu in (0.0, 0.2, 0.5, 0.8, 1.0):
            ch = PauliChannel(ILLUSTRATION_Q, mu)
            cp = channel_params(ch)
            rho = product_optimal_state(cp.ordering[0], 1, 1)
            lam = eig_hermitian4(apply_channel(ch, rho))
            assert np.abs(spectrum_product_regime(cp) - lam).max() < 1e-12

    def test_sign_choices_share_spectrum(self, rng):
        ch = random_channel(rng)
        cp = channel_params(ch)
        l = cp.ordering[0]
        spectra = [
            eig_hermitian4(apply_channel(ch, product_optimal_state(l, z, x)))
            for z in (-1, 1)
            for x in (-1, 1)
        ]
        for lam in spectra[1:]:
            assert np.abs(lam - spectra[0]).max() < 1e-12


class TestBellSpectrum:
    def test_full_correlation_is_noiseless(self, rng):
        for _ in range(10):
            cp = channel_params(random_channel(rng, mu=1.0))
            assert np.array_equal(spectrum_bell_regime(cp), [1.0, 0.0, 0.0, 0.0])

    def test_identity_channel(self):
        cp = channel_params(PauliChannel((1, 0, 0, 0), 0.4))
        assert np.abs(spectrum_bell_regime(cp) - [1, 0, 0, 0]).max() < 1e-15

    def test_matches_diagonalization(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.6)
        cp = channel_params(ch)
        lam = eig_hermitian4(apply_channel(ch, bell_state(1, -1, 1)))
        assert np.abs(spectrum_bell_regime(cp) - lam).max() < 1e-12

    def test_all_four_bell_inputs_agree(self, rng):
        for _ in range(10):
            ch = random_channel(rng)
            cp = channel_params(ch)
            expected = spectrum_bell_regime(cp)
            for signs in ((1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)):
                lam = eig_hermitian4(apply_channel(ch, bell_state(*signs)))
                assert np.abs(lam - expected).max() < 1e-12


class TestCapacity:
    def test_full_correlation_is_one_bit(self, rng):
        for _ in range(10):
            result = capacity_two_use(random_channel(rng, mu=1.0))
            assert result.c2 == 1.0
            assert result.regime in (Regime.ENTANGLED, Regime.TIE)

    def test_identity_channel_any_memory(self):
        for mu in (0.0, 0.3, 1.0):
            result = capacity_two_use(PauliChannel((1, 0, 0, 0), mu))
            assert result.c2 == 1.0

    def test_depolarizing_quarter_no_memory(self):
        result = capacity_two_use(depolarizing(0.25, 0.0))
        assert result.c2 == pytest.approx(1.0 - binary_entropy(5 / 6), abs=1e-12)
        assert result.regime is Regime.PRODUCT

    def test_result_invariants(self, rng):
        for _ in range(50):
            r = capacity_two_use(random_channel(rng))
            assert 0.0 <= r.c2 <= 1.0
            assert r.c2 == 1.0 - min(r.entropy_product, r.entropy_bell) / 2.0
            assert r.winning_spectrum().shape == (4,)

    def test_descriptor_names_the_axis(self):
        r = capacity_two_use(PauliChannel(ILLUSTRATION_Q, 0.1))
        assert r.optimal_state_descriptor == {"family": "product", "l": 1}
        r = capacity_two_use(PauliChannel(ILLUSTRATION_Q, 0.9))
        assert r.optimal_state_descriptor["family"] == "bell"

    def test_tie_on_identity_channel(self):
        r = capacity_two_use(PauliChannel((1, 0, 0, 0), 0.5))
        assert r.regime is Regime.TIE
        assert r.entropy_product == r.entropy_bell == 0.0

    def test_tie_at_depolarizing_threshold(self):
        # for equal eps the two branch spectra coincide exactly at mu_star
        base = depolarizing(0.25, 0.0)
        r = capacity_two_use(base.with_mu(capacity_two_use(base).mu_star))
        assert r.regime is Regime.TIE
        assert np.abs(r.lambdas_product - r.lambdas_bell).max() < 1e-12


class TestSweep:
    def test_endpoints(self):
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.0, 1.0])
        assert [r.mu for r in results] == [0.0, 1.0]
        assert results[0].regime is Regime.PRODUCT
        assert results[1].c2 == 1.0

    def test_single_regime_switch(self):
        grid = np.arange(0.0, 1.0001, 0.01)
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), np.clip(grid, 0, 1))
        labels = [r.regime for r in results if r.regime is not Regime.TIE]
        switches = sum(
            1 for a, b in zip(labels, labels[1:]) if a is not b
        )
        assert switches == 1
        assert labels[0] is Regime.PRODUCT and labels[-1] is Regime.ENTANGLED

    def test_empty_grid(self):
        assert len(capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [])) == 0

    def test_rejects_bad_mu(self):
        with pytest.raises(OutOfRange):
            capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.5, 1.5])

    def test_continuity_on_each_branch(self):
        # neighbouring grid values differ by O(step) away from the switch
        base = PauliChannel(ILLUSTRATION_Q, 0.0)
        grid = np.linspace(0.0, 1.0, 201)
        results = capacity_sweep(base, grid)
        for a, b in zip(results, results[1:]):
            assert abs(a.c2 - b.c2) < 0.02


def _same_float(a, b):
    """Bit-for-bit float equality (0.0 and -0.0 differ)."""
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSweepMatchesPoints:
    """capacity_sweep is one array pass; each entry must equal the point call."""

    @staticmethod
    def channels():
        rng = np.random.default_rng(4)
        chans = [PauliChannel(tuple(rng.dirichlet(np.ones(4)).tolist()), 0.0) for _ in range(50)]
        chans += [
            PauliChannel((1.0, 0.0, 0.0, 0.0), 0.0),  # degenerate
            PauliChannel((0.25,) * 4, 0.0),  # every eps_k = 0
            PauliChannel((0.5, 0.0, 0.0, 0.5), 0.0),  # tied eps
            depolarizing(0.25, 0.0),  # TIE at its mu_star
        ]
        return chans

    def test_sweep_equals_point_calls(self):
        regimes = set()
        for ch in self.channels():
            mu_star = capacity_two_use(ch).mu_star
            grid = np.concatenate([np.linspace(0.0, 1.0, 1001), [0.0, 1.0, mu_star]])
            for mu, r in zip(grid.tolist(), capacity_sweep(ch, grid)):
                p = capacity_two_use(ch.with_mu(mu))
                assert _same_float(r.mu, p.mu)
                assert _same_float(r.c2, p.c2)
                assert _same_float(r.entropy_product, p.entropy_product)
                assert _same_float(r.entropy_bell, p.entropy_bell)
                assert np.array_equal(r.lambdas_product, p.lambdas_product)
                assert np.array_equal(r.lambdas_bell, p.lambdas_bell)
                assert r.regime is p.regime
                assert r.optimal_state_descriptor == p.optimal_state_descriptor
                assert (r.mu_ml, r.mu_star) == (p.mu_ml, p.mu_star)
                regimes.add(r.regime)
        assert regimes == set(Regime)

    def test_shared_work_done_once(self, monkeypatch):
        calls = {"eps": 0, "thresholds": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(
            channel_module, "epsilon_vector", counting("eps", channel_module.epsilon_vector)
        )
        monkeypatch.setattr(
            channel_module, "_thresholds", counting("thresholds", channel_module._thresholds)
        )
        ch = PauliChannel(ILLUSTRATION_Q, 0.3)
        capacity_two_use(ch)
        assert calls == {"eps": 1, "thresholds": 1}
        capacity_sweep(ch, np.linspace(0.0, 1.0, 101))
        assert calls == {"eps": 2, "thresholds": 2}


class TestSweepGrid:
    BASE = PauliChannel(ILLUSTRATION_Q, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1, 1.5])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_bad_value_before_building(self, monkeypatch, bad, where):
        built = []
        monkeypatch.setattr(
            capacity_module, "CapacityResult", lambda **kw: built.append(kw)
        )
        grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        grid[where] = bad
        for g in (grid, np.array(grid)):
            with pytest.raises(OutOfRange) as exc:
                capacity_sweep(self.BASE, g)
            if np.isfinite(bad):
                assert str(exc.value) == f"mu outside [0, 1]: {bad}"
        assert built == []

    def test_names_the_first_bad_value(self):
        with pytest.raises(OutOfRange, match=r"mu outside \[0, 1\]: 1.5"):
            capacity_sweep(self.BASE, [0.5, 1.5, -0.1])

    def test_accepts_list_array_and_cli_grid(self):
        grid = _parse_grid("0:1:0.1")
        runs = [
            capacity_sweep(self.BASE, g)
            for g in (grid, np.array(grid), [k / 10 for k in range(11)])
        ]
        for results in runs:
            assert [r.mu for r in results] == grid
            assert all(type(r.mu) is float and type(r.c2) is float for r in results)
            assert [r.to_dict() for r in results] == [r.to_dict() for r in runs[0]]

    def test_empty_array_grid(self):
        assert len(capacity_sweep(self.BASE, np.array([]))) == 0

    def test_rejects_grid_that_is_not_a_list(self):
        for g in (0.5, [[0.0, 0.5]], np.zeros((3, 1))):
            with pytest.raises(OutOfRange, match="one-dimensional"):
                capacity_sweep(self.BASE, g)


class TestCapacityCurve:
    BASE = PauliChannel(ILLUSTRATION_Q, 0.0)

    def curve(self):
        return capacity_sweep(self.BASE, np.linspace(0.0, 1.0, 11))

    def test_negative_indices_and_bounds(self):
        curve = self.curve()
        n = len(curve)
        for i in range(-n, 0):
            assert curve[i].to_dict() == curve[n + i].to_dict()
        for i in (n, n + 5, -n - 1):
            with pytest.raises(IndexError):
                curve[i]
        with pytest.raises(TypeError):
            curve[0.5]

    def test_slices_are_curves(self):
        curve = self.curve()
        entries = [curve[i] for i in range(len(curve))]
        for sl in (slice(None), slice(2, 7), slice(None, None, -3), slice(8, 2, -2), slice(20, 30)):
            part = curve[sl]
            assert isinstance(part, CapacityCurve)
            assert [r.to_dict() for r in part] == [r.to_dict() for r in entries[sl]]

    def test_iteration_equals_indexing(self):
        curve = self.curve()
        by_index = [curve[i] for i in range(len(curve))]
        by_iter = list(curve)
        assert len(by_iter) == len(by_index) == 11
        for a, b in zip(by_iter, by_index):
            assert a.to_dict() == b.to_dict()
            assert np.array_equal(a.lambdas_product, b.lambdas_product)
            assert np.array_equal(a.lambdas_bell, b.lambdas_bell)

    def test_results_compare_by_value(self):
        curve = self.curve()  # eleven distinct mu values
        a = capacity_two_use(self.BASE.with_mu(0.5))
        b = capacity_two_use(self.BASE.with_mu(0.5))
        assert a == b and not a != b
        assert a != capacity_two_use(self.BASE.with_mu(0.7))
        assert a != dataclasses.replace(a, mu_star=a.mu_star + 0.1)
        assert a in curve
        assert curve.index(a) == 5 and curve[5] == a
        assert curve.count(a) == 1
        assert capacity_two_use(self.BASE.with_mu(0.55)) not in curve
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)

    def test_read_only(self):
        curve = self.curve()
        for column in (curve.mu, curve.spectra, curve.entropies):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
        r = curve[3]
        for spectrum in (r.lambdas_product, r.lambdas_bell, r.winning_spectrum()):
            with pytest.raises(ValueError, match="read-only"):
                spectrum[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.mu = np.zeros(11)

    def test_owns_its_grid(self):
        grid = np.linspace(0.0, 1.0, 5)
        curve = capacity_sweep(self.BASE, grid)
        grid[0] = 0.5  # the caller's array stays writable, and the curve keeps its values
        assert curve[0].mu == 0.0

    def test_sweep_memory(self):
        # tracemalloc sees numpy's buffers, so this holds on any machine: a
        # list of 10,001 CapacityResult peaked at 10.2 MB, the columns at 2.8 MB
        grid = np.linspace(0.0, 1.0, 10001)
        tracemalloc.start()
        try:
            capacity_sweep(self.BASE, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


class TestEnsemble:
    def test_product_input(self, rng):
        ch = random_channel(rng)
        rho = product_optimal_state(ordering(ch)[0], 1, 1)
        assert verify_ensemble_achievability(ch, rho) < 1e-12

    def test_bell_input(self, rng):
        ch = random_channel(rng)
        assert verify_ensemble_achievability(ch, bell_state(1, -1, 1)) < 1e-12

    def test_any_pure_input(self, rng):
        # the averaging argument is input-independent
        for _ in range(10):
            ch = random_channel(rng)
            rho = random_pure_density(rng)
            assert verify_ensemble_achievability(ch, rho) < 1e-12
            ents = ensemble_output_entropies(ch, rho)
            assert ents.max() - ents.min() < 1e-10


class TestOracleBound:
    def test_capacity_never_exceeds_oracle_bound(self):
        # 1 - S_oracle/2 >= c2 - 1e-6: the search reaches the analytic optimum
        for mu in (0.2, 0.7):
            ch = PauliChannel(ILLUSTRATION_Q, mu)
            r = capacity_two_use(ch)
            oracle = min_entropy_bruteforce(ch, SearchConfig())
            assert 1.0 - oracle.min_entropy / 2.0 >= r.c2 - 1e-6


class TestSerialization:
    def test_csv_schema(self):
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.0, 0.5, 1.0])
        text = sweep_to_csv(results)
        lines = text.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")
        last = lines[-1].split(",")
        assert last[0] == "1" and last[2] == "1"

    def test_csv_deterministic(self):
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.1, 0.9])
        assert sweep_to_csv(results) == sweep_to_csv(results)

    def test_json_round_trip(self):
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.25])
        payload = json.loads(sweep_to_json(results))
        assert len(payload) == 1
        entry = payload[0]
        assert entry["mu"] == 0.25
        assert entry["regime"] == "product"
        assert entry["c2"] == results[0].c2  # full double precision
        assert len(entry["lambdas_product"]) == 4
        assert entry["optimal_state"] == {"family": "product", "l": 1}


def reference_json(results):
    """The writer sweep_to_json must match byte for byte."""
    return json_text([r.to_dict() for r in results])


class TestSweepJson:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.3, 1.0, 3.0]),
        mu=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_dirichlet_channels(self, seed, alpha, mu):
        q = np.random.default_rng(seed).dirichlet(np.full(4, alpha))
        results = capacity_sweep(PauliChannel(tuple(q), 0.0), [0.0, *mu, 1.0])
        assert results[-1].entropy_bell == 0.0  # a pure spectrum at mu = 1
        assert sweep_to_json(results) == reference_json(results)

    @pytest.mark.parametrize("q", [(0.25,) * 4, (0.5, 0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0)])
    def test_tie_and_degenerate_channels(self, q):
        results = capacity_sweep(PauliChannel(q, 0.0), np.linspace(0.0, 1.0, 17))
        assert sweep_to_json(results) == reference_json(results)

    def test_nan_threshold_prints_null(self):
        curve = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.25, 0.5, 0.75])
        no_star = dataclasses.replace(
            curve, thresholds=dataclasses.replace(curve.thresholds, mu_star=float("nan"))
        )
        text = sweep_to_json(no_star)
        assert text == reference_json(no_star)
        assert [row["mu_star"] for row in json.loads(text)] == [None] * 3

    def test_signed_zero_thresholds(self):
        # 0.0 == -0.0, yet json prints them apart.
        curve = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.25, 0.75])
        for zero in (0.0, -0.0):
            signed = dataclasses.replace(
                curve, thresholds=dataclasses.replace(curve.thresholds, mu_ml=zero)
            )
            text = sweep_to_json(signed)
            assert text == reference_json(signed)
            assert f'"mu_ml": {zero!r},' in text

    def test_empty_and_single_row(self):
        base = PauliChannel(ILLUSTRATION_Q, 0.0)
        empty = capacity_sweep(base, [])
        assert sweep_to_json(empty) == reference_json(empty) == "[]\n"
        one = capacity_sweep(base, [0.25])
        assert sweep_to_json(one) == reference_json(one)


def reference_csv(results):
    """The writer sweep_to_csv must match byte for byte: each cell through format_number."""
    rows = (
        (r.mu, r.regime.value, r.c2, r.entropy_product, r.entropy_bell,
         *r.winning_spectrum().tolist())
        for r in results
    )
    return csv_text(SWEEP_CSV_HEADER, rows)


def assert_csv_matches(curve):
    assert sweep_to_csv(curve) == reference_csv(curve)


class TestSweepCsv:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        alpha=st.sampled_from([0.3, 1.0, 3.0]),
        mu=st.lists(st.floats(0.0, 1.0), max_size=12),
    )
    def test_dirichlet_channels(self, seed, alpha, mu):
        q = np.random.default_rng(seed).dirichlet(np.full(4, alpha))
        results = capacity_sweep(PauliChannel(tuple(q), 0.0), [0.0, *mu, 1.0])
        assert results[-1].entropy_bell == 0.0  # a pure spectrum at mu = 1
        assert_csv_matches(results)

    def test_tie_and_degenerate_channels(self):
        regimes = set()
        for q in [(0.25,) * 4, (0.5, 0.0, 0.0, 0.5), (1.0, 0.0, 0.0, 0.0), depolarizing(0.25, 0.0).q]:
            ch = PauliChannel(q, 0.0)
            grid = [*np.linspace(0.0, 1.0, 17), capacity_two_use(ch).mu_star]
            results = capacity_sweep(ch, grid)
            regimes.update(r.regime for r in results)
            assert_csv_matches(results)
        assert regimes == set(Regime)

    def test_signed_zero_mu(self):
        # -0.0 passes the grid check; CSV prints it as 0, JSON as -0.0.
        results = capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [-0.0, 0.5])
        assert sweep_to_csv(results).splitlines()[1].startswith("0,product,")
        assert_csv_matches(results)
        assert sweep_to_json(results) == reference_json(results)

    def test_empty_and_single_row(self):
        base = PauliChannel(ILLUSTRATION_Q, 0.0)
        empty = capacity_sweep(base, [])
        assert sweep_to_csv(empty) == reference_csv(empty) == SWEEP_CSV_HEADER + "\n"
        assert_csv_matches(capacity_sweep(base, [0.25]))


def test_writers_reject_a_list():
    results = list(capacity_sweep(PauliChannel(ILLUSTRATION_Q, 0.0), [0.25, 0.75]))
    for writer in (sweep_to_csv, sweep_to_json):
        with pytest.raises(TypeError, match="expected a CapacityCurve, got list"):
            writer(results)
