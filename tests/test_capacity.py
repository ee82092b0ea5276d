import copy
import dataclasses
import hashlib
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    CapacityCurve,
    InvalidSpectrum,
    NonNormalized,
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
    thresholds,
    verify_ensemble_achievability,
)
from paulimem import capacity as capacity_module
from paulimem import channel as channel_module
from paulimem import closed_form
from paulimem.capacity import (
    _BLOCK_ROWS,
    _REGIMES,
    SWEEP_CSV_HEADER,
    _regime_codes,
    json_text,
    sweep_csv_blocks,
    sweep_json_blocks,
)
from paulimem.closed_form import _regime, csv_text
from paulimem.cli import _parse_grid, main
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
        with pytest.raises(InvalidSpectrum) as exc:
            entropy_bits([1.1, -0.1, 0.0, 0.0])
        assert str(exc.value) == "negative eigenvalue -0.1"  # a plain float under any numpy

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidSpectrum) as exc:
            entropy_bits([0.5, 0.1, 0.1, 0.1])
        assert str(exc.value) == "eigenvalues sum to 0.7999999999999999, not 1"

    def test_pure_is_positive_zero(self):
        for lam in ([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, -1e-12, 1e-12, 0.0]):
            assert math.copysign(1.0, entropy_bits(lam)) == 1.0


def _reference_entropy(row) -> float:
    """-sum p log2 p of one spectrum, with math.log2 per value and the terms added
    left to right in Python; zeros and rounded negatives add nothing."""
    acc = 0.0
    for x in row:
        p = x if x > 0.0 else 1.0
        acc += p * math.log2(p)
    return max(0.0 - acc, 0.0)


def _test_spectra(n):
    """n valid spectra sorted descending: Dirichlet rows, rows with zeros, rows
    with a rounded negative in [-1e-9, 0), the pure and flat extremes, and a
    value a hair above 1, whose entropy is clamped to 0."""
    rng = np.random.default_rng(27)
    lam = rng.dirichlet(np.full(4, 0.5), n)
    zeros = slice(n // 4, n // 2)
    lam[zeros, 2:] = 0.0
    lam[zeros] /= lam[zeros].sum(axis=1, keepdims=True)
    negative = slice(n // 2, 3 * n // 4)
    r = rng.uniform(1e-12, 1e-9, 3 * n // 4 - n // 2)
    lam[negative, 0] += lam[negative, 3] + r
    lam[negative, 3] = -r
    lam[:5] = [[1.0, 0.0, 0.0, 0.0], [0.25] * 4, [0.5, 0.5, 0.0, 0.0], [1.0, -1e-12, 1e-12, 0.0],
               [1.0 + 1e-10, 0.0, 0.0, -1e-10]]
    return -np.sort(-lam, axis=1)


class TestEntropyKernel:
    """_entropies sums over the last axis with numpy's sum, which adds fewer
    than 8 terms left to right; it must match a Python sum bit for bit, for
    every memory layout the capacity code hands it. _float_entropies, the
    route of one query, must match it bit for bit and raise as it does."""

    # Each route on an array of spectra, with entropies of its shape but the last axis.
    ROUTES = {
        "array": capacity_module._entropies,
        "float": lambda lam: np.reshape(
            capacity_module._float_entropies(lam.reshape(-1, 4).tolist()), lam.shape[:-1]),
    }

    @staticmethod
    def layouts(lam):
        pairs = lam.reshape(-1, 2, 4)
        ascending = np.sort(lam, axis=1)
        return {
            "rows": lam,
            "reversed rows": ascending[:, ::-1],
            "fortran rows": np.asfortranarray(lam),
            "pairs": pairs,
            "reversed pairs": ascending.reshape(-1, 2, 4)[..., ::-1],
            "strided pairs": np.ascontiguousarray(pairs.transpose(1, 0, 2)).transpose(1, 0, 2),
        }

    def test_matches_python_sum_bit_for_bit(self):
        lam = _test_spectra(4000)
        want = np.array([_reference_entropy(row) for row in lam.tolist()])
        assert np.isin(0.0, want) and (lam < 0.0).any()
        for name, x in self.layouts(lam).items():
            assert np.array_equal(x.reshape(-1, 4), lam), name
            got = capacity_module._entropies(x)
            assert got.shape == x.shape[:-1], name
            assert got.tobytes() == want.reshape(got.shape).tobytes(), name
        got = capacity_module._float_entropies(lam.tolist())
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == want.tobytes()

    GOOD = [0.4, 0.3, 0.2, 0.1]
    # The messages TestEntropyBits pins, for the rows that raise them.
    NEGATIVE = ([1.1, -0.1, 0.0, 0.0], "negative eigenvalue -0.1")
    WRONG_SUM = ([0.5, 0.1, 0.1, 0.1], "eigenvalues sum to 0.7999999999999999, not 1")
    # A row that fails both tests is named by its negative value.
    BOTH = ([1.5, -0.1, 0.0, 0.0], "negative eigenvalue -0.1")
    # Four -0.0 total 0.0, whichever zero numpy's own sum starts from.
    ZEROS = ([-0.0] * 4, "eigenvalues sum to 0.0, not 1")
    # A NaN is named by the total, even beside a negative value.
    NAN_NEGATIVE = ([0.6, -0.5, math.nan, 0.2], "eigenvalues sum to nan, not 1")

    @staticmethod
    def stack(bad, shape):
        """Ten good spectra, with the bad rows at 3 and 6, in the given shape."""
        rows = [TestEntropyKernel.GOOD] * 10
        for i, (row, _) in zip((3, 6), bad):
            rows[i] = row
        return np.array(rows).reshape(shape)

    @pytest.mark.parametrize("bad", [(NEGATIVE,), (WRONG_SUM,), (NEGATIVE, WRONG_SUM),
                                     (WRONG_SUM, NEGATIVE), (BOTH,), (ZEROS,), (NAN_NEGATIVE,),
                                     (NEGATIVE, NAN_NEGATIVE), (NAN_NEGATIVE, NEGATIVE)])
    @pytest.mark.parametrize("shape", [(10, 4), (5, 2, 4)])
    @pytest.mark.parametrize("route", ROUTES)
    def test_first_bad_row_wins(self, bad, shape, route):
        with pytest.raises(InvalidSpectrum) as exc:
            self.ROUTES[route](self.stack(bad, shape))
        assert str(exc.value) == bad[0][1]

    # The array and float routes, and the two that hand them spectra: entropy_bits
    # one spectrum at a time, and _output_entropies the eigvalsh of a stack of
    # diagonal output matrices, which is each diagonal in ascending order.
    EVERY_ROUTE = {
        **ROUTES,
        "entropy_bits": lambda lam: [entropy_bits(row) for row in lam.reshape(-1, 4)],
        "eigvalsh": lambda lam: capacity_module._output_entropies(lam[..., None] * np.eye(4)),
    }

    # Rows whose message does not depend on the order of their values, as eigvalsh
    # reorders them. entropy_bits names a NaN by the input contract ("eigenvalue
    # is NaN") before the spectrum rule sees it, and the eigvalsh of a matrix that
    # holds a NaN is not defined, so NAN_NEGATIVE takes the first two routes only.
    @pytest.mark.parametrize("bad", [(NEGATIVE,), (BOTH,), (ZEROS,), (ZEROS, NEGATIVE)])
    @pytest.mark.parametrize("shape", [(10, 4), (5, 2, 4)])
    @pytest.mark.parametrize("route", EVERY_ROUTE)
    def test_every_route_words_a_bad_spectrum_alike(self, bad, shape, route):
        with pytest.raises(InvalidSpectrum) as exc:
            self.EVERY_ROUTE[route](self.stack(bad, shape))
        assert str(exc.value) == bad[0][1]

    @pytest.mark.parametrize("at", [0, 3])
    @pytest.mark.parametrize("negative", [False, True])
    @pytest.mark.parametrize("shape", [(10, 4), (5, 2, 4)])
    @pytest.mark.parametrize("route", ROUTES)
    def test_nan_in_a_later_row_raises(self, at, negative, shape, route):
        lam = np.array([self.GOOD] * 10)
        lam[9, at] = math.nan
        if negative:  # a NaN names the total even beside a negative value
            lam[9, 1] = -0.5
        with pytest.raises(InvalidSpectrum) as exc:
            self.ROUTES[route](lam.reshape(shape))
        assert str(exc.value) == "eigenvalues sum to nan, not 1"

    def test_empty(self):
        assert capacity_module._entropies(np.empty((0, 2, 4))).shape == (0, 2)


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
            w = r.winning_spectrum()
            assert type(w) is tuple and list(map(type, w)) == [float] * 4

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
        assert np.abs(np.subtract(r.lambdas_product, r.lambdas_bell)).max() < 1e-12


class TestDataclassBehaviour:
    """PauliChannel has a hand-written __init__, and thresholds, capacity_two_use and
    curve entries fill their frozen instances directly. Each must still behave as the
    dataclass its generated __init__ would have built."""

    CHANNEL = PauliChannel(ILLUSTRATION_Q, 0.3)
    BUILT = {
        "channel": lambda ch: ch,
        "thresholds": thresholds,
        "result": capacity_two_use,
        "curve-entry": lambda ch: capacity_sweep(ch, [0.1, ch.mu])[1],
    }
    built = pytest.mark.parametrize("kind", BUILT)

    def make(self, kind):
        return self.BUILT[kind](self.CHANNEL)

    @built
    def test_same_as_the_generated_init(self, kind):
        obj = self.make(kind)
        names = [f.name for f in dataclasses.fields(obj)]
        assert list(vars(obj)) == names
        twin = dataclasses.replace(obj)  # type(obj)(**fields), through __init__
        assert twin == obj and repr(twin) == repr(obj) and type(twin) is type(obj)
        if kind in ("result", "curve-entry"):
            with pytest.raises(TypeError):  # compared by value, not hashable
                hash(obj)
        else:
            assert hash(twin) == hash(obj)

    def test_repr_and_hash(self):
        assert repr(self.CHANNEL) == "PauliChannel(q=(0.2, 0.1, 0.3, 0.4), mu=0.3)"
        th = thresholds(self.CHANNEL)
        assert repr(th) == (f"Thresholds(mu_ml={th.mu_ml!r}, mu_star={th.mu_star!r}, "
                            "degenerate=False)")
        assert hash(self.CHANNEL) == hash(PauliChannel([0.2, 0.1, 0.3, 0.4], 0.3))
        assert self.CHANNEL != self.CHANNEL.with_mu(0.4)
        assert th == dataclasses.replace(th) != dataclasses.replace(th, degenerate=True)

    @built
    def test_frozen(self, kind):
        obj = self.make(kind)
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, f.name)

    def test_replace_reruns_the_channel_checks(self):
        assert dataclasses.replace(self.CHANNEL, mu=1) == PauliChannel(ILLUSTRATION_Q, 1.0)
        with pytest.raises(OutOfRange, match=r"^mu outside \[0, 1\]: 1.2$"):
            dataclasses.replace(self.CHANNEL, mu=1.2)
        with pytest.raises(NonNormalized, match="^probabilities sum to 2.0, not 1$"):
            dataclasses.replace(self.CHANNEL, q=(0.5,) * 4)

    def test_asdict(self):
        assert dataclasses.asdict(self.CHANNEL) == {"q": ILLUSTRATION_Q, "mu": 0.3}
        th = thresholds(self.CHANNEL)
        d = dataclasses.asdict(th)  # what the thresholds command prints
        assert list(d.items()) == [("mu_ml", th.mu_ml), ("mu_star", th.mu_star),
                                   ("degenerate", False)]
        r = capacity_two_use(self.CHANNEL)
        d = dataclasses.asdict(r)
        assert list(d) == [f.name for f in dataclasses.fields(r)]
        assert d["lambdas_bell"] == r.lambdas_bell and d["c2"] == r.c2

    @built
    def test_deepcopy_and_pickle_round_trip(self, kind):
        obj = self.make(kind)
        for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert twin == obj and type(twin) is type(obj)
            assert list(vars(twin)) == list(vars(obj))

    @pytest.mark.parametrize("kind", ["result", "curve-entry"])
    def test_spectra_read_only(self, kind):
        # Each spectrum is a tuple of 4 floats, which refuses item assignment.
        r = self.make(kind)
        for lam in (r.lambdas_product, r.lambdas_bell, r.winning_spectrum()):
            assert type(lam) is tuple and list(map(type, lam)) == [float] * 4
            with pytest.raises(TypeError):
                lam[0] = 0.5


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


def test_point_bits_pinned():
    # The ordering, thresholds and spectra of 10,000 seeded channels, bit for bit. They
    # use only + - * / and sqrt, correctly rounded on any IEEE-754 machine, and so
    # do the inputs: q as the spacings of three sorted uniforms. The entropies go
    # through libm log2 and are left out.
    rng = np.random.default_rng(33)
    h = hashlib.sha256()
    for u in rng.random((10_000, 4)).tolist():
        a, b, c = sorted(u[:3])
        ch = PauliChannel((a, b - a, c - b, 1.0 - c), u[3])
        r = capacity_two_use(ch)
        values = [*ordering(ch), r.mu_ml, r.mu_star, *r.lambdas_product, *r.lambdas_bell]
        h.update(" ".join(float(v).hex() for v in values).encode() + b"\n")
    assert h.hexdigest() == "eb7aba325f16d5a480a21abc559db261822e95280f9b877821870b21206ab378"


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

        monkeypatch.setattr(channel_module, "_eps", counting("eps", channel_module._eps))
        monkeypatch.setattr(
            channel_module, "_thresholds", counting("thresholds", channel_module._thresholds)
        )
        ch = PauliChannel(ILLUSTRATION_Q, 0.3)
        capacity_two_use(ch)
        assert calls == {"eps": 1, "thresholds": 1}
        capacity_sweep(ch, np.linspace(0.0, 1.0, 101))
        assert calls == {"eps": 2, "thresholds": 2}

    def test_spectrum_functions_equal_curve_columns(self):
        # the third route: spectrum_*_regime read the eps matrix of channel_params
        for ch in self.channels():
            mu_star = capacity_two_use(ch).mu_star
            grid = np.concatenate([np.linspace(0.0, 1.0, 201), [0.0, 1.0, mu_star]])
            curve = capacity_sweep(ch, grid)
            for mu, lam in zip(grid.tolist(), curve.spectra):
                cp = channel_params(ch.with_mu(mu))
                assert spectrum_product_regime(cp).tobytes() == lam[0].tobytes()
                assert spectrum_bell_regime(cp).tobytes() == lam[1].tobytes()

    def test_capacity_builds_no_eps_matrix(self, monkeypatch):
        calls = []
        real = channel_module._epsilon_matrix

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(channel_module, "_epsilon_matrix", counting)
        if hasattr(capacity_module, "_epsilon_matrix"):
            monkeypatch.setattr(capacity_module, "_epsilon_matrix", counting)
        ch = PauliChannel(ILLUSTRATION_Q, 0.3)
        capacity_two_use(ch)
        capacity_sweep(ch, np.linspace(0.0, 1.0, 101))
        assert calls == []
        channel_params(ch)  # the counter does see the route that builds it
        assert len(calls) == 1

    def test_thresholds_are_plain_floats_on_every_route(self):
        fields = ("mu_ml", "mu_star")
        for ch in self.channels():
            r = capacity_two_use(ch)
            assert type(r.mu_ml) is float and type(r.mu_star) is float
            curve = capacity_sweep(ch, [ch.mu])
            for th in (thresholds(ch), channel_params(ch).thresholds, curve.thresholds):
                assert [type(getattr(th, f)) for f in fields] == [float] * 2
                assert "np." not in repr(th)


class TestMuStar:
    """mu_star solves eps_mm^2 + eps_ss^2 = 2 eps_l^2: equal purity, not equal entropy."""

    @staticmethod
    def interior_points():
        rng = np.random.default_rng(2026)
        for _ in range(300):
            ch = PauliChannel(tuple(rng.dirichlet(np.ones(4)).tolist()), 0.0)
            th = thresholds(ch)
            if not th.degenerate and 0.0 < th.mu_star < 1.0:
                yield capacity_two_use(ch.with_mu(th.mu_star))

    def test_branches_have_equal_purity(self):
        points = list(self.interior_points())
        assert len(points) > 250
        for r in points:
            purity_p = float(np.square(r.lambdas_product).sum())
            purity_b = float(np.square(r.lambdas_bell).sum())
            assert abs(purity_p - purity_b) <= 1e-12

    def test_entropies_need_not_cross_there(self):
        # so mu_star does not decide the regime; the entropies are compared directly
        gaps = [abs(r.entropy_product - r.entropy_bell) for r in self.interior_points()]
        assert max(gaps) > 0.01


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
            assert [r.mu for r in results] == list(grid)
            assert all(type(r.mu) is float and type(r.c2) is float for r in results)
            assert [r.to_dict() for r in results] == [r.to_dict() for r in runs[0]]

    def test_empty_array_grid(self):
        assert len(capacity_sweep(self.BASE, np.array([]))) == 0

    def test_rejects_grid_that_is_not_a_list(self):
        for g in (0.5, [[0.0, 0.5]], np.zeros((3, 1))):
            with pytest.raises(OutOfRange, match="has shape"):
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
            assert type(spectrum) is tuple
            with pytest.raises(TypeError, match="does not support item assignment"):
                spectrum[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            curve.mu = np.zeros(11)

    def test_results_are_as_init_builds_them(self):
        # capacity_two_use and indexing build results without __init__; one product
        # and one Bell entry pass __init__'s check against the spectra
        curve = self.curve()
        for r in (curve[3], curve[9], capacity_two_use(self.BASE.with_mu(0.3))):
            rebuilt = dataclasses.replace(r)
            assert repr(r) == repr(rebuilt) and r == rebuilt
            assert dataclasses.replace(r, mu_star=0.5).mu_star == 0.5  # not checked
            assert list(vars(r)) == list(vars(rebuilt))
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.c2 = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                del r.mu
            for spectrum in (r.lambdas_product, r.lambdas_bell):
                assert type(spectrum) is tuple
                with pytest.raises(TypeError, match="does not support item assignment"):
                    spectrum[0] = 0.5

    def test_init_copies_the_callers_spectra(self):
        # The caller's array and list are left writable and unchanged, and the record
        # holds tuples of floats that later writes to them do not reach.
        r = capacity_two_use(self.BASE.with_mu(0.3))
        product, bell = np.array(r.lambdas_product), list(r.lambdas_bell)
        twin = dataclasses.replace(r, lambdas_product=product, lambdas_bell=bell)
        assert product.flags.writeable and product.tolist() == list(r.lambdas_product)
        assert bell == list(r.lambdas_bell)
        for given, held in ((product, twin.lambdas_product), (bell, twin.lambdas_bell)):
            assert type(held) is tuple and list(map(type, held)) == [float] * 4
            assert list(held) == list(given)
        product[0] = bell[0] = 0.5
        assert twin == r and twin.lambdas_product == r.lambdas_product

    @pytest.mark.parametrize("change, error, message", [
        ({"lambdas_product": np.array([0.4, 0.3, 0.2, 0.1])}, InvalidSpectrum,
         "entropy_product 1.7002422497084273 does not follow from the spectra, "
         "which give 1.8464393446710154"),
        ({"entropy_bell": 1.0}, InvalidSpectrum,
         "entropy_bell 1.0 does not follow from the spectra, which give 1.7689961527781786"),
        ({"c2": 0.5}, InvalidSpectrum,
         "c2 0.5 does not follow from the spectra, which give 0.14987887514578635"),
        ({"regime": Regime.ENTANGLED}, InvalidSpectrum,
         "regime <Regime.ENTANGLED: 'entangled'> does not follow from the spectra, "
         "which give <Regime.PRODUCT: 'product'>"),
        ({"optimal_state_descriptor": {"family": "bell", "signs": [1, -1, 1]}}, InvalidSpectrum,
         "family 'bell' does not follow from the spectra, which give 'product'"),
        # Regime is a str Enum, equal to its text; only the member follows.
        ({"regime": "product"}, InvalidSpectrum,
         "regime 'product' does not follow from the spectra, "
         "which give <Regime.PRODUCT: 'product'>"),
        ({"lambdas_product": [0.4, 0.3, 0.2, 0.1, 0.0]}, InvalidSpectrum,
         "lambdas_product holds 5 values, not 4"),
        # float() reads True as 1 and parses "1": unrefused, both were the pure spectrum.
        ({"lambdas_product": [True, False, False, False]}, InvalidSpectrum,
         "lambdas_product entry True is not a real number"),
        ({"lambdas_bell": ["1", "0", "0", "0"]}, InvalidSpectrum,
         "lambdas_bell entry '1' is not a real number"),
        ({"lambdas_bell": 0.5}, InvalidSpectrum, "lambdas_bell must be 4 real numbers, got 0.5"),
        # Unrefused, to_dict wrote these into the JSON as text or true.
        ({"mu": "0.3"}, OutOfRange, "mu '0.3' is not a real number"),
        ({"mu": True}, OutOfRange, "mu True is not a real number"),
        ({"mu_ml": False}, OutOfRange, "mu_ml False is not a real number"),
        ({"mu_star": "x"}, OutOfRange, "mu_star 'x' is not a real number"),
        # Unrefused, None raised a bare TypeError where the family is read.
        ({"optimal_state_descriptor": None}, InvalidSpectrum,
         "optimal_state_descriptor None is not a dict holding 'family'"),
        ({"optimal_state_descriptor": {"l": 1}}, InvalidSpectrum,
         "optimal_state_descriptor {'l': 1} is not a dict holding 'family'"),
    ], ids=["spectrum", "entropy", "c2", "regime", "family", "regime-text", "five-values",
            "bool-entries", "text-entries", "not-iterable", "mu-text", "mu-bool",
            "mu-ml-bool", "mu-star-text", "descriptor-none", "descriptor-no-family"])
    def test_init_refuses_fields_the_spectra_contradict(self, change, error, message):
        r = capacity_two_use(self.BASE.with_mu(0.3))
        assert r.regime is Regime.PRODUCT
        with pytest.raises(error) as exc:
            dataclasses.replace(r, **change)
        assert type(exc.value) is error and str(exc.value) == message

    def test_init_holds_the_memory_values_as_floats(self):
        r = capacity_two_use(self.BASE.with_mu(0.3))
        twin = dataclasses.replace(r, mu=np.float64(0.3), mu_ml=np.float32(0.5), mu_star=1)
        assert [twin.mu, twin.mu_ml, twin.mu_star] == [0.3, 0.5, 1.0]
        assert [type(twin.mu), type(twin.mu_ml), type(twin.mu_star)] == [float] * 3

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


class TestOneRecord:
    """The library and the CLI share one CapacityResult, from one capacity_two_use."""

    def test_capacity_module_reexports_the_closed_form_record(self):
        assert capacity_module.CapacityResult is closed_form.CapacityResult

    def test_point_equals_capacity_two_use(self, capsys):
        # The CLI's capacity command prints the library's record, in JSON and as a CSV row.
        rng = np.random.default_rng(35)
        for _ in range(1000):
            ch = random_channel(rng)
            r = capacity_two_use(ch)
            assert type(r) is closed_form.CapacityResult
            assert type(r.lambdas_product) is tuple and type(r.lambdas_bell) is tuple
            argv = ["--q", ",".join(map(repr, ch.q)), "--mu", repr(ch.mu), "capacity"]
            assert main([*argv, "--format", "json"]) == 0
            assert json.loads(capsys.readouterr().out) == r.to_dict()
            assert main(argv) == 0
            assert capsys.readouterr().out == reference_csv([r])


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
        (r.mu, r.regime.value, r.c2, r.entropy_product, r.entropy_bell, *r.winning_spectrum())
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


def test_regime_codes_agree_with_regime():
    # The writers' array rule against the scalar one: around the 1e-12 tie
    # bound (an exact difference of +-1e-12 is not a tie, one ulp inside it
    # is), at equal entropies and at signed zeros, in both argument orders.
    tol = capacity_module._TIE_TOL
    diffs = []
    for d in (tol, -tol):
        diffs += [d, np.nextafter(d, 0.0), np.nextafter(d, 2 * d)]
    pairs = [(d, 0.0) for d in diffs] + [(d, -0.0) for d in diffs]
    for base in (0.5, 1.0, 1.75):
        pairs += [(base, base), (base + tol, base), (base, np.nextafter(base, 2.0))]
    pairs += [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (np.nan, 1.0)]
    pairs += [(b, a) for a, b in pairs]
    s_p, s_b = np.array(pairs).T
    got = [_REGIMES[c] for c in _regime_codes(s_p, s_b).tolist()]
    assert got == [_regime(a, b) for a, b in pairs]
    assert got[:6] == [Regime.ENTANGLED, Regime.TIE, Regime.ENTANGLED,
                       Regime.PRODUCT, Regime.TIE, Regime.PRODUCT]
    assert set(got) == set(Regime)


class TestStatedTolerances:
    """The tie band, 1e-12, and the spectrum tolerance, 1e-9, that the docstrings and
    the README state, pinned just inside and just outside by literals."""

    @staticmethod
    def regimes(s_p, s_b):
        """_regime and the writers' _regime_codes of one pair of entropies."""
        code = _regime_codes(np.array([s_p]), np.array([s_b]))[0]
        return _regime(s_p, s_b), _REGIMES[code]

    def test_tie_band(self):
        ulp = math.ulp(1.0)  # 4,503.6 ulps of 1.0 make 1e-12
        for s_p, s_b, want in [
            (math.nextafter(1e-12, 0.0), 0.0, Regime.TIE),
            (1e-12, 0.0, Regime.ENTANGLED),
            (0.0, 1e-12, Regime.PRODUCT),
            (1.0 + 4503 * ulp, 1.0, Regime.TIE),
            (1.0 + 4504 * ulp, 1.0, Regime.ENTANGLED),
            (1.0, 1.0 + 4504 * ulp, Regime.PRODUCT),
        ]:
            assert self.regimes(s_p, s_b) == (want, want), (s_p, s_b)

    SPECTRUM_ROUTES = {
        "float": entropy_bits,
        "array": lambda lam: capacity_module._entropies(np.array([lam])),
    }

    @pytest.mark.parametrize("route", SPECTRUM_ROUTES)
    def test_negative_eigenvalue(self, route):
        entropy = self.SPECTRUM_ROUTES[route]
        entropy([1.0, -1e-9, 1e-9, 0.0])  # a rounded zero
        below = math.nextafter(-1e-9, -1.0)
        with pytest.raises(InvalidSpectrum, match=f"^negative eigenvalue {below!r}$"):
            entropy([1.0, below, 1e-9, 0.0])

    @pytest.mark.parametrize("route", SPECTRUM_ROUTES)
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_total(self, route, side):
        entropy = self.SPECTRUM_ROUTES[route]
        # The last total on this side of 1 that is within 1e-9 of it; near 1 the
        # difference total - 1 is exact.
        total = 1.0 + side * 1e-9
        while abs(total - 1.0) > 1e-9:
            total = math.nextafter(total, 1.0)
        while abs(math.nextafter(total, 1.0 + side) - 1.0) <= 1e-9:
            total = math.nextafter(total, 1.0 + side)
        entropy([total, 0.0, 0.0, 0.0])
        past = math.nextafter(total, 1.0 + side)
        with pytest.raises(InvalidSpectrum, match=f"^eigenvalues sum to {past!r}, not 1$"):
            entropy([past, 0.0, 0.0, 0.0])


def _regime_switch_curve(n):
    """n entries of the depolarizing channel p = 0.25: product rows, a TIE at
    mu_star as the last row of the first block (or the second-to-last row),
    then entangled rows."""
    base = depolarizing(0.25, 0.0)
    mu_star = capacity_two_use(base).mu_star
    tie_at = min(_BLOCK_ROWS, n - 1) - 1
    grid = [*np.linspace(0.0, mu_star - 1e-6, tie_at), mu_star,
            *np.linspace(mu_star + 1e-6, 1.0, n - tie_at - 1)]
    curve = capacity_sweep(base, grid)
    assert [r.regime for r in curve[tie_at - 1:tie_at + 2]] == [
        Regime.PRODUCT, Regime.TIE, Regime.ENTANGLED]
    return curve


class TestSweepBlocks:
    """The writers render up to _BLOCK_ROWS rows per block; the joined text
    must not show where the blocks were cut."""

    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_regime_switch_at_a_block_boundary(self, n):
        curve = _regime_switch_curve(n)
        blocks = -(-n // _BLOCK_ROWS)
        csv_blocks = list(sweep_csv_blocks(curve))
        json_blocks = list(sweep_json_blocks(curve))
        assert len(csv_blocks) == len(json_blocks) == blocks + 1
        assert "".join(csv_blocks) == sweep_to_csv(curve) == reference_csv(curve)
        assert "".join(json_blocks) == sweep_to_json(curve) == reference_json(curve)
        # capacity_sweep computes the entropies in blocks of the same size
        assert np.array_equal(curve.entropies, capacity_module._entropies(curve.spectra))

    @pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                   2 * _BLOCK_ROWS + 1])
    def test_spectra_at_a_block_boundary(self, n):
        curve = _regime_switch_curve(n)
        base = depolarizing(0.25, 0.0)
        eps, (l, _, _), _ = channel_module._capacity_inputs(base)
        d = capacity_module._eps_diagonal(eps, curve.mu)
        whole = capacity_module._branch_spectra(d, d[l], eps[l])
        assert curve.spectra.flags.c_contiguous
        assert curve.spectra.tobytes() == whole.tobytes()
        points = [capacity_two_use(base.with_mu(mu)) for mu in curve.mu.tolist()]
        spectra = np.array([[r.lambdas_product, r.lambdas_bell] for r in points])
        entropies = np.array([[r.entropy_product, r.entropy_bell] for r in points])
        assert curve.spectra.tobytes() == spectra.tobytes()
        assert curve.entropies.tobytes() == entropies.tobytes()

    def test_nan_threshold_across_blocks(self):
        curve = _regime_switch_curve(_BLOCK_ROWS + 1)
        no_star = dataclasses.replace(
            curve, thresholds=dataclasses.replace(curve.thresholds, mu_star=float("nan"))
        )
        assert sweep_to_csv(no_star) == reference_csv(no_star)
        assert sweep_to_json(no_star) == reference_json(no_star)

    def test_empty_curve_is_one_block(self):
        empty = capacity_sweep(depolarizing(0.25, 0.0), [])
        assert list(sweep_csv_blocks(empty)) == [SWEEP_CSV_HEADER + "\n"]
        assert list(sweep_json_blocks(empty)) == ["[]\n"]
