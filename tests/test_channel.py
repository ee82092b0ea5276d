import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from math import inf, nextafter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    FAMILIES,
    InvalidState,
    NonNormalized,
    OutOfRange,
    PauliChannel,
    PauliMemError,
    Thresholds,
    apply_channel,
    apply_channel_weights,
    bell_state,
    channel_from_config,
    depolarizing,
    epsilon_matrix,
    epsilon_matrix_bruteforce,
    epsilon_vector,
    mp_channel,
    ordering,
    pauli_weights,
    thresholds,
    weights_to_density,
)
from paulimem import channel as channel_module
from paulimem.pauli import PRODUCT_INDEX
from conftest import ILLUSTRATION_Q, random_channel, random_pure_density

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
NUMBERISH = JSON_VALUES | st.floats(min_value=0.0, max_value=1.0)
# Mappings shaped like the two config layouts, so the search reaches the
# number conversions and not only the layout checks.
CONFIG_LIKE = (
    st.dictionaries(st.sampled_from(["q", "mu", "family", "p"]), NUMBERISH, max_size=4)
    | st.fixed_dictionaries(
        {"q": st.lists(NUMBERISH, min_size=4, max_size=4) | NUMBERISH, "mu": NUMBERISH}
    )
    | st.fixed_dictionaries(
        {"family": st.sampled_from(sorted(FAMILIES)) | NUMBERISH, "p": NUMBERISH, "mu": NUMBERISH}
    )
)


class TestConstruction:
    def test_identity_channel_accepted(self):
        ch = PauliChannel((1.0, 0.0, 0.0, 0.0), 0.7)
        assert ch.q == (1.0, 0.0, 0.0, 0.0)

    def test_illustration_accepted(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        assert ch.mu == 0.5

    def test_parameters_are_held_as_floats(self):
        exact = (0.5, 0.0, 0.0, 0.5)
        for q, mu in ((exact, 0.25), ((1, 0, 0, 0), 1), ([0.5, 0.0, 0.0, 0.5], np.float64(0.25)),
                      (np.array(exact), Fraction(1, 4)), (iter(exact), Decimal("0.25"))):
            ch = PauliChannel(q, mu)
            assert [type(x) for x in (*ch.q, ch.mu)] == [float] * 5
            assert type(ch.q) is tuple
        # a tuple of four exact floats is held as given
        assert PauliChannel(exact, 0.25).q is exact

    def test_joint_probabilities_normalized(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            p = ch.joint_probabilities()
            assert p.min() >= -1e-15
            assert abs(p.sum() - 1.0) < 1e-12


class TestFamilies:
    def test_depolarizing_zero_is_identity(self):
        assert depolarizing(0.0, 0.3).q == (1.0, 0.0, 0.0, 0.0)

    def test_depolarizing_quarter(self):
        ch = depolarizing(0.25, 0.0)
        assert ch.q == pytest.approx((0.75, 1 / 12, 1 / 12, 1 / 12), abs=1e-15)

    def test_mp_quarter_is_uniform(self):
        assert mp_channel(0.25, 0.0).q == (0.25, 0.25, 0.25, 0.25)

    def test_mp_half(self):
        assert mp_channel(0.5, 0.0).q == (0.5, 0.0, 0.0, 0.5)
        assert mp_channel(0.0, 0.3).q == (0.0, 0.5, 0.5, 0.0)  # the other end of [0, 1/2]



# Every check of the channel constructors: the input, the error class and its
# literal message. The checks run in a fixed order (conversion, length,
# finiteness, q's range, mu's range, the sum), so a value that breaks two is
# named by the first.
Q = (0.2, 0.1, 0.3, 0.4)
HUGE = 10**400  # float() overflows
CONSTRUCTOR_ERRORS = {
    "q-text": (PauliChannel, ((0.2, "x", 0.3, 0.4), 0.5), OutOfRange,
               "channel parameters must be real numbers"),
    "mu-text": (PauliChannel, (Q, "x"), OutOfRange, "channel parameters must be real numbers"),
    "q-none": (PauliChannel, (None, 0.5), OutOfRange, "channel parameters must be real numbers"),
    "mu-none": (PauliChannel, (Q, None), OutOfRange, "channel parameters must be real numbers"),
    "q-huge-int": (PauliChannel, ((0.2, 0.1, 0.3, HUGE), 0.5), OutOfRange,
                   "channel parameters must be real numbers"),
    "mu-huge-int": (PauliChannel, (Q, HUGE), OutOfRange, "channel parameters must be real numbers"),
    "three-entries": (PauliChannel, ((0.2, 0.4, 0.4), 0.5), OutOfRange,
                      "need 4 probabilities, got 3"),
    "five-entries": (PauliChannel, ((0.2, 0.1, 0.3, 0.2, 0.2), 0.5), OutOfRange,
                     "need 4 probabilities, got 5"),
    "five-entries-one-text": (PauliChannel, ((0.2, 0.1, 0.3, 0.2, "x"), 0.5), OutOfRange,
                              "channel parameters must be real numbers"),
    # float() parses numerals in text, and iterates a string or bytes q entry by entry.
    "q-numeral-string": (PauliChannel, ("1000", 0.5), OutOfRange,
                         "channel parameters must be real numbers"),
    "q-numeral-entries": (PauliChannel, (("0.5", "0", "0", "0.5"), 0.25), OutOfRange,
                          "channel parameters must be real numbers"),
    "mu-numeral-text": (PauliChannel, (Q, "0.25"), OutOfRange,
                        "channel parameters must be real numbers"),
    "q-bytes": (PauliChannel, (b"\x01\x00\x00\x00", 0.5), OutOfRange,
                "channel parameters must be real numbers"),
    "q-bytes-entry": (PauliChannel, ((0.5, 0.0, 0.0, b"0.5"), 0.5), OutOfRange,
                      "channel parameters must be real numbers"),
    "mu-bytes": (PauliChannel, (Q, b"0.5"), OutOfRange, "channel parameters must be real numbers"),
    "mu-bytearray": (PauliChannel, (Q, bytearray(b"0.5")), OutOfRange,
                     "channel parameters must be real numbers"),
    # float() reads True as 1: unrefused, these gave the identity channel at full memory,
    # the noiseless channel and mu = 1.
    "q-bool": (PauliChannel, ((True, False, False, False), 0.5), OutOfRange,
               "channel parameters must be real numbers"),
    # Three exact floats after it: only the test of q[0] keeps this off the fast path.
    "q-bool-then-floats": (PauliChannel, ((True, 0.0, 0.0, 0.0), 0.5), OutOfRange,
                           "channel parameters must be real numbers"),
    "q-numpy-bool": (PauliChannel, ((0.5, 0.0, 0.0, np.False_), 0.5), OutOfRange,
                     "channel parameters must be real numbers"),
    "q-bool-array": (PauliChannel, (np.array([True, False, False, False]), 0.5), OutOfRange,
                     "channel parameters must be real numbers"),
    "mu-bool": (PauliChannel, (Q, True), OutOfRange, "channel parameters must be real numbers"),
    "mu-numpy-bool": (PauliChannel, (Q, np.True_), OutOfRange,
                      "channel parameters must be real numbers"),
    "mu-numpy-bool-0d": (PauliChannel, (Q, np.array(False)), OutOfRange,
                         "channel parameters must be real numbers"),
    "with-mu-bool": (PauliChannel(Q, 0.5).with_mu, (True,), OutOfRange,
                     "channel parameters must be real numbers"),
    "with-mu-numpy-bool": (PauliChannel(Q, 0.5).with_mu, (np.True_,), OutOfRange,
                           "channel parameters must be real numbers"),
    "depolarizing-bool": (depolarizing, (False, 0.3), OutOfRange,
                          "family parameter p must be a real number"),
    "depolarizing-numpy-bool": (depolarizing, (np.False_, 0.3), OutOfRange,
                                "family parameter p must be a real number"),
    "mp-bool": (mp_channel, (True, 0.3), OutOfRange, "family parameter p must be a real number"),
    "mp-numpy-bool": (mp_channel, (np.True_, 0.3), OutOfRange,
                      "family parameter p must be a real number"),
    "q-nan": (PauliChannel, ((0.2, math.nan, 0.3, 0.4), 0.5), OutOfRange,
              "channel parameters must be finite"),
    "q-inf": (PauliChannel, ((0.2, math.inf, 0.3, 0.4), 0.5), OutOfRange,
              "channel parameters must be finite"),
    "q-minus-inf": (PauliChannel, ((0.2, -math.inf, 0.3, 0.4), 0.5), OutOfRange,
                    "channel parameters must be finite"),
    "mu-nan": (PauliChannel, (Q, math.nan), OutOfRange, "channel parameters must be finite"),
    "mu-inf": (PauliChannel, (Q, math.inf), OutOfRange, "channel parameters must be finite"),
    "mu-minus-inf": (PauliChannel, (Q, -math.inf), OutOfRange,
                     "channel parameters must be finite"),
    "q-nan-beside-negative": (PauliChannel, ((-0.1, math.nan, 0.6, 0.5), 0.5), OutOfRange,
                              "channel parameters must be finite"),
    "q-below-0": (PauliChannel, ((0.5, 0.6, 0.0, -0.1), 0.5), OutOfRange,
                  "probabilities outside [0, 1]: (0.5, 0.6, 0.0, -0.1)"),
    "q-above-1": (PauliChannel, ((1.1, 0.0, 0.0, -0.1), 0.5), OutOfRange,
                  "probabilities outside [0, 1]: (1.1, 0.0, 0.0, -0.1)"),
    "q-and-mu-outside": (PauliChannel, ((-0.1, 0.2, 0.4, 0.5), 2.0), OutOfRange,
                         "probabilities outside [0, 1]: (-0.1, 0.2, 0.4, 0.5)"),
    "mu-below-0": (PauliChannel, (Q, -0.1), OutOfRange, "mu outside [0, 1]: -0.1"),
    "mu-above-1": (PauliChannel, (Q, 1.2), OutOfRange, "mu outside [0, 1]: 1.2"),
    "sum-2e-9-off": (PauliChannel, ((0.25, 0.25, 0.25, 0.250000002), 0.5), NonNormalized,
                     "probabilities sum to 1.000000002, not 1"),
    "sum-2": (PauliChannel, ((0.5,) * 4, 0.5), NonNormalized, "probabilities sum to 2.0, not 1"),
    "depolarizing-below-0": (depolarizing, (-0.1, 0.5), OutOfRange,
                             "depolarizing parameter outside [0, 3/4]: -0.1"),
    "depolarizing-above-3/4": (depolarizing, (0.8, 0.5), OutOfRange,
                               "depolarizing parameter outside [0, 3/4]: 0.8"),
    "depolarizing-nan": (depolarizing, (math.nan, 0.5), OutOfRange,
                         "depolarizing parameter outside [0, 3/4]: nan"),
    "depolarizing-text": (depolarizing, ("x", 0.5), OutOfRange,
                          "family parameter p must be a real number"),
    "depolarizing-numeral-text": (depolarizing, ("0.25", 0.5), OutOfRange,
                                  "family parameter p must be a real number"),
    "depolarizing-none": (depolarizing, (None, 0.5), OutOfRange,
                          "family parameter p must be a real number"),
    "depolarizing-huge-int": (depolarizing, (HUGE, 0.5), OutOfRange,
                              "family parameter p must be a real number"),
    "depolarizing-mu": (depolarizing, (0.3, 1.5), OutOfRange, "mu outside [0, 1]: 1.5"),
    "mp-below-0": (mp_channel, (-0.1, 0.5), OutOfRange, "mp parameter outside [0, 1/2]: -0.1"),
    "mp-above-1/2": (mp_channel, (0.6, 0.5), OutOfRange, "mp parameter outside [0, 1/2]: 0.6"),
    "mp-text": (mp_channel, ("x", 0.5), OutOfRange, "family parameter p must be a real number"),
    "mp-numeral-bytes": (mp_channel, (b"0.2", 0.5), OutOfRange,
                         "family parameter p must be a real number"),
    "mp-none": (mp_channel, (None, 0.5), OutOfRange, "family parameter p must be a real number"),
    "mp-huge-int": (mp_channel, (HUGE, 0.5), OutOfRange,
                    "family parameter p must be a real number"),
}


@pytest.mark.parametrize("case", CONSTRUCTOR_ERRORS)
def test_constructor_error_and_message(case):
    build, args, error, message = CONSTRUCTOR_ERRORS[case]
    with pytest.raises(PauliMemError) as info:
        build(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_sum_within_the_tolerance_is_kept_as_given():
    q = (0.25, 0.25, 0.25, 0.2500000004)  # 4e-10 off, inside the 1e-9 tolerance
    ch = PauliChannel(q, 1)
    assert ch.q == q and type(ch.mu) is float and ch.mu == 1.0


class TestEpsilonVector:
    def test_illustration(self):
        eps = epsilon_vector(PauliChannel(ILLUSTRATION_Q, 0.5))
        assert eps[0] == 1.0
        assert eps[1] == pytest.approx(-0.4, abs=1e-15)
        assert eps[2] == 0.0
        assert eps[3] == pytest.approx(0.2, abs=1e-15)

    def test_identity(self):
        assert epsilon_vector(PauliChannel((1, 0, 0, 0), 0.0)).tolist() == [1, 1, 1, 1]

    def test_depolarizing_closed_form(self):
        # each non-identity sum is (1 - p) + p/3 - p/3 - p/3 = 1 - 4p/3
        p = 0.25
        eps = epsilon_vector(depolarizing(p, 0.0))
        assert eps[1:] == pytest.approx([1 - 4 * p / 3] * 3, abs=1e-15)


class TestEpsilonMatrix:
    def test_illustration_values(self):
        e = epsilon_matrix(PauliChannel(ILLUSTRATION_Q, 0.5))
        assert e[1, 1] == pytest.approx(0.58, abs=1e-12)
        assert e[1, 2] == pytest.approx(0.1, abs=1e-12)
        assert e[1, 3] == pytest.approx(-0.04, abs=1e-12)

    def test_matches_bruteforce(self, rng):
        for _ in range(1000):
            ch = random_channel(rng)
            dev = np.abs(epsilon_matrix(ch) - epsilon_matrix_bruteforce(ch)).max()
            assert dev < 1e-12

    def test_symmetric_and_bounded(self, rng):
        for _ in range(200):
            e = epsilon_matrix(random_channel(rng))
            assert np.abs(e - e.T).max() < 1e-15
            assert np.abs(e).max() <= 1.0 + 1e-12

    def test_full_correlation_diagonal_is_one(self, rng):
        for _ in range(20):
            e = epsilon_matrix(random_channel(rng, mu=1.0))
            assert all(e[k, k] == 1.0 for k in range(4))

    def test_no_memory_factorizes(self, rng):
        for _ in range(20):
            ch = random_channel(rng, mu=0.0)
            eps = epsilon_vector(ch)
            assert np.array_equal(epsilon_matrix(ch), np.outer(eps, eps))

    def test_equals_scalar_loop_exactly(self, rng):
        # The entrywise form epsilon_matrix had before it was vectorized;
        # the arithmetic is the same, so the results must agree bit for bit.
        def reference(ch):
            eps, mu = epsilon_vector(ch), ch.mu
            out = np.empty((4, 4))
            for k in range(4):
                for kp in range(4):
                    out[k, kp] = (1.0 - mu) * eps[k] * eps[kp] + mu * eps[PRODUCT_INDEX[k, kp]]
            return out

        channels = [random_channel(rng) for _ in range(500)]
        channels += [
            PauliChannel(q, mu)
            for q in (ILLUSTRATION_Q, (0.7, 0.1, 0.1, 0.1), (0.25, 0.25, 0.25, 0.25), (1, 0, 0, 0))
            for mu in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        for ch in channels:
            assert np.array_equal(epsilon_matrix(ch), reference(ch))

    def test_first_row_and_column_are_eps(self, rng):
        for _ in range(50):
            ch = random_channel(rng)
            eps = epsilon_vector(ch)
            e = epsilon_matrix(ch)
            assert np.abs(e[0] - eps).max() < 1e-15
            assert np.abs(e[:, 0] - eps).max() < 1e-15

    def test_magnitude_orderings_on_mu_grid(self, rng):
        # eps_ll^2 dominates every eps_kk'^2 (k, k' nonzero) and eps_l^2
        # dominates every off-diagonal square, at every memory value.
        for _ in range(20):
            q = tuple(rng.dirichlet(np.ones(4)))
            for mu in np.arange(0.0, 1.0001, 0.01):
                ch = PauliChannel(q, min(float(mu), 1.0))
                eps = epsilon_vector(ch)
                e = epsilon_matrix(ch)
                l = ordering(ch)[0]
                sub = e[1:, 1:]
                assert e[l, l] ** 2 >= (sub**2).max() - 1e-12
                off = e**2 - np.diag(np.diag(e**2))
                assert eps[l] ** 2 >= off.max() - 1e-12

    def test_eps_diagonal_is_the_matrix_diagonal(self, rng):
        # _eps_diagonal, which every capacity route reads, forms (1 - mu) eps_k^2 + mu
        # directly; mu eps_0 = mu makes it the matrix diagonal bit for bit
        cases = [(random_channel(rng).q, mu) for mu in (0.0, 1.0) for _ in range(50)]
        cases += [(random_channel(rng).q, float(rng.uniform())) for _ in range(500)]
        cases += [(q, mu) for q in (ILLUSTRATION_Q, (0.25,) * 4, (1.0, 0.0, 0.0, 0.0))
                  for mu in (0.0, 0.3, 1.0)]
        for q, mu in cases:
            eps = channel_module._eps(q)
            matrix = channel_module._epsilon_matrix(eps, mu)
            diagonal = channel_module._eps_diagonal(eps, mu)
            assert [x.hex() for x in diagonal] == [matrix[k][k].hex() for k in range(4)]

    def test_eps_diagonal_on_a_column_equals_each_point(self, rng):
        mu = np.concatenate([[0.0, 1.0], rng.uniform(size=500)])
        for _ in range(20):
            eps = channel_module._eps(random_channel(rng).q)
            columns = channel_module._eps_diagonal(eps, mu)
            for i, m in enumerate(mu.tolist()):
                point = channel_module._eps_diagonal(eps, m)
                assert [c[i].tobytes() for c in columns] == [np.float64(x).tobytes() for x in point]

    def test_diagonal_affine_increasing(self, rng):
        for _ in range(20):
            q = tuple(rng.dirichlet(np.ones(4)))
            eps = epsilon_vector(PauliChannel(q, 0.0))
            lo = np.diag(epsilon_matrix(PauliChannel(q, 0.0)))
            mid = np.diag(epsilon_matrix(PauliChannel(q, 0.5)))
            hi = np.diag(epsilon_matrix(PauliChannel(q, 1.0)))
            assert lo == pytest.approx([1.0] + [eps[k] ** 2 for k in (1, 2, 3)], abs=1e-15)
            assert hi == pytest.approx([1.0] * 4, abs=1e-15)
            assert np.abs(mid - (lo + hi) / 2.0).max() < 1e-15
            assert (hi >= mid - 1e-15).all() and (mid >= lo - 1e-15).all()


class TestOrdering:
    def test_illustration(self):
        assert ordering(PauliChannel(ILLUSTRATION_Q, 0.5)) == (1, 3, 2)

    def test_tie_break_by_index(self):
        assert ordering(depolarizing(0.25, 0.0)) == (1, 2, 3)

    def test_dominant_third_axis(self):
        assert ordering(PauliChannel((0.5, 0.0, 0.0, 0.5), 0.0))[0] == 3

    def test_every_tie_pattern_as_a_stable_sort(self):
        # The 13 weak orders of (d_1, d_2, d_3), as dense ranks. q_k = (3 - rank_k)/16
        # keeps n_k = q_1 + q_2 + q_3 - q_k below 1/2, where d_k = 1 - eps_k^2 =
        # 4 n_k (1 - n_k) rises with n_k: a higher rank is a larger d_k. All values
        # are dyadic, so the ties are exact.
        patterns = [r for r in itertools.product(range(3), repeat=3)
                    if set(r) == set(range(max(r) + 1))]
        assert len(patterns) == 13
        for ranks in patterns:
            q = [(3 - r) / 16 for r in ranks]
            ch = PauliChannel((1.0 - sum(q), *q), 0.5)
            d = [1.0 - e * e for e in epsilon_vector(ch).tolist()]
            assert [sorted(set(d[1:])).index(x) for x in d[1:]] == list(ranks)
            assert ordering(ch) == tuple(sorted((1, 2, 3), key=d.__getitem__))


def exact_thresholds(q) -> tuple[Decimal, Decimal]:
    """(mu_ml, mu_star) of an exactly normalized q from its defining equations, at 80 digits.

    Dyadic floats convert to Decimal exactly, so eps_k and the ordering are
    exact and the roots carry only 80-digit rounding.
    """
    with localcontext() as ctx:
        ctx.prec = 80
        qd = [Decimal(x) for x in q]
        eps = [qd[0] + qd[k] - sum(qd[j] for j in (1, 2, 3) if j != k) for k in (1, 2, 3)]
        el2, em2, es2 = sorted((e * e for e in eps), reverse=True)
        dm, ds = 1 - em2, 1 - es2
        if dm == 0:
            return Decimal(0), Decimal(0)
        mu_ml = (el2.sqrt() - em2) / dm
        # (em2 + mu dm)^2 + (es2 + mu ds)^2 = 2 el2: its larger root in mu.
        a = dm * dm + ds * ds
        b = 2 * (em2 * dm + es2 * ds)
        c = em2 * em2 + es2 * es2 - 2 * el2
        mu_star = (-b + (b * b - 4 * a * c).sqrt()) / (2 * a)
        return min(max(mu_ml, Decimal(0)), Decimal(1)), min(max(mu_star, Decimal(0)), Decimal(1))


def near_point_masses(rng, count):
    """Exactly normalized q with three small dyadic weights k 2^-e (e < 60)
    and the rest on one Pauli index; draws whose large weight rounds are dropped."""
    out = []
    while len(out) < count:
        e = int(rng.integers(1, 60))
        small = [float(k) * 2.0**-e for k in rng.integers(0, 8, 3)]
        big = 1.0 - sum(small)
        if big < 0.5 or Fraction(big) + sum(map(Fraction, small)) != 1:
            continue
        at = int(rng.integers(4))
        out.append(tuple(small[:at] + [big] + small[at:]))
    return out


def dyadic_generic(rng, count, bits=20):
    """Exactly normalized q = k / 2^bits with k drawn uniformly."""
    cuts = np.sort(rng.integers(0, 2**bits + 1, (count, 3)), axis=1)
    k = np.diff(cuts, prepend=0, append=2**bits, axis=1)
    return [tuple(float(x) * 2.0**-bits for x in row) for row in k]


class TestThresholds:
    def test_illustration_mu_ml(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.0)
        assert thresholds(ch).mu_ml == pytest.approx(0.36 / 0.96, abs=1e-12)

    def test_illustration_mu_star(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.0)
        assert thresholds(ch).mu_star == pytest.approx(0.39, abs=0.005)

    def test_identity_degenerate(self):
        th = thresholds(PauliChannel((1, 0, 0, 0), 0.0))
        assert th.degenerate
        assert th.mu_ml == 0.0 and th.mu_star == 0.0

    def test_defining_properties_random(self, rng):
        for _ in range(200):
            ch = random_channel(rng)
            th = thresholds(ch)
            if th.degenerate:
                continue
            eps = epsilon_vector(ch)
            l, m, s = ordering(ch)
            e_ml = epsilon_matrix(ch.with_mu(th.mu_ml))
            assert e_ml[m, m] ** 2 == pytest.approx(eps[l] ** 2, abs=1e-12)
            e_star = epsilon_matrix(ch.with_mu(th.mu_star))
            assert e_star[m, m] ** 2 + e_star[s, s] ** 2 == pytest.approx(
                2 * eps[l] ** 2, abs=1e-12
            )

    def test_depolarizing_closed_form(self):
        # with all eps_k equal the defining equation reduces to |e|/(1+|e|)
        for p in (0.1, 0.25, 0.5, 0.7):
            e = abs(1 - 4 * p / 3)
            assert thresholds(depolarizing(p, 0.0)).mu_star == pytest.approx(
                e / (1 + e), abs=1e-12
            )

    def test_mp_closed_form(self):
        # eps_m = eps_s = 0 reduces the defining equation to |4p - 1|
        for p in (0.1, 0.25, 0.4, 0.5):
            assert thresholds(mp_channel(p, 0.0)).mu_star == pytest.approx(
                abs(4 * p - 1), abs=1e-12
            )
        assert thresholds(mp_channel(0.4, 0.0)).mu_star == pytest.approx(0.6, abs=1e-12)

    def test_ordering_of_thresholds(self, rng):
        # d_s >= d_m puts eps_ss <= eps_mm = |eps_l| at mu_ml, so eps_mm^2 + eps_ss^2,
        # increasing in mu, reaches 2 eps_l^2 at or above it: mu_ml <= mu_star.
        for k in range(1000):
            ch = random_channel(rng)
            th = thresholds(ch)
            if th.degenerate:
                continue
            assert 0.0 <= th.mu_ml <= th.mu_star <= 1.0

    def test_matches_exact_roots_next_to_point_masses(self):
        rng = np.random.default_rng(21)
        qs = near_point_masses(rng, 2000) + dyadic_generic(rng, 500)
        qs.append((1.0 - 2.0**-52, 2.0**-52, 0.0, 0.0))
        worst = 0.0
        for q in qs:
            th = thresholds(PauliChannel(q, 0.0))
            ml, star = exact_thresholds(q)
            worst = max(worst, abs(Decimal(th.mu_ml) - ml), abs(Decimal(th.mu_star) - star))
            assert th.mu_ml <= th.mu_star, q
        assert worst <= Decimal("1e-14")
        assert thresholds(PauliChannel(qs[-1], 0.0)) == Thresholds(1.0, 1.0)

    # Exact (Fraction) sign checks at the reported floats of 2,000 channels q = k / 2^30
    # (seed 0): the root of each defining function lies within this many ulps of the
    # reported value. Both bounds are this sample's worst; 1,686 channels need only 1 ulp
    # for both. They are not guarantees: small thresholds have small ulps, and seed 30's
    # q ~ (0.277, 0.243, 0.243, 0.238), with mu_ml = 0.038, needs 15 and 12 ulps.
    ML_ULPS, STAR_ULPS = 8, 7

    @staticmethod
    def defining_functions(q):
        """Exact eps_mm(mu) - |eps_l| and eps_mm^2 + eps_ss^2 - 2 eps_l^2 of an exactly
        normalized q; both are nondecreasing in mu, and vanish at mu_ml and mu_star."""
        qf = [Fraction(x) for x in q]
        eps = [2 * (qf[0] + qf[k]) - 1 for k in (1, 2, 3)]
        el, em, es = sorted(eps, key=lambda e: 1 - e * e)  # stable: ties keep index order

        def diag(e, mu):
            return (1 - mu) * e * e + mu

        return (lambda mu: diag(em, mu) - abs(el),
                lambda mu: diag(em, mu) ** 2 + diag(es, mu) ** 2 - 2 * el * el)

    @staticmethod
    def ulps_away(x, k, to):
        for _ in range(k):
            x = nextafter(x, to)
        return Fraction(x)

    def test_sign_changes_within_ulps_of_the_reported_thresholds(self):
        for q in dyadic_generic(np.random.default_rng(0), 2000, bits=30):
            th = thresholds(PauliChannel(q, 0.0))
            for f, x, n in zip(self.defining_functions(q), (th.mu_ml, th.mu_star),
                               (self.ML_ULPS, self.STAR_ULPS)):
                assert f(self.ulps_away(x, n, -inf)) <= 0 <= f(self.ulps_away(x, n, inf)), q

    def test_clamps_hold_the_roots_of_a_short_sum_at_0(self):
        # sum(q) = 1 - 4e-10, which PauliChannel accepts: unclamped, both roots come out
        # at -4.000000330961484e-10, the order of the shortfall.
        q = (0.25, 0.2499999998, 0.25, 0.2499999998)
        assert math.fsum(q) < 1.0
        for mu in (0.0, 0.5):
            assert thresholds(PauliChannel(q, mu)) == Thresholds(0.0, 0.0)

    def test_clamped_and_degenerate_thresholds_are_exact(self):
        # The uniform q has both roots at mu = 0, where the clamps sit.
        th = thresholds(PauliChannel((0.25,) * 4, 0.0))
        assert th == Thresholds(0.0, 0.0)
        assert [f(Fraction(0)) for f in self.defining_functions((0.25,) * 4)] == [0, 0]
        # At a point mass both equations read 0 = 0 for every mu.
        for i in range(4):
            q = tuple(float(i == j) for j in range(4))
            assert thresholds(PauliChannel(q, 0.0)) == Thresholds(0.0, 0.0, degenerate=True)
            for mu in (Fraction(0), Fraction(1, 3), Fraction(1)):
                assert [f(mu) for f in self.defining_functions(q)] == [0, 0]


class TestApplyChannel:
    def test_maximally_mixed_fixed_point(self, rng):
        eye4 = np.eye(4) / 4.0
        for _ in range(10):
            out = apply_channel(random_channel(rng), eye4)
            assert np.abs(out - eye4).max() < 1e-15

    def test_identity_channel_is_identity_map(self, rng):
        ch = PauliChannel((1, 0, 0, 0), 0.3)
        rho = random_pure_density(rng)
        assert np.abs(apply_channel(ch, rho) - rho).max() < 1e-15

    def test_matches_weight_route_on_bell(self):
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        rho = bell_state(1, -1, 1)
        direct = apply_channel(ch, rho)
        scaled = weights_to_density(apply_channel_weights(ch, pauli_weights(rho)))
        assert np.abs(direct - scaled).max() < 1e-12

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidState):
            apply_channel(PauliChannel(ILLUSTRATION_Q, 0.5), np.eye(4))

    def test_preserves_density_contract(self, rng):
        for _ in range(100):
            ch = random_channel(rng)
            out = apply_channel(ch, random_pure_density(rng))
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert abs(np.trace(out).imag) < 1e-12
            assert np.abs(out - out.conj().T).max() < 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-10


class TestApplyChannelWeights:
    def test_mixed_state_weights_unchanged(self, rng):
        w = np.zeros((4, 4))
        w[0, 0] = 1.0
        out = apply_channel_weights(random_channel(rng), w)
        assert np.array_equal(out, w)

    def test_full_correlation_keeps_diagonal(self):
        ch = PauliChannel(ILLUSTRATION_Q, 1.0)
        w = pauli_weights(bell_state(1, -1, 1))
        out = apply_channel_weights(ch, w)
        assert all(out[k, k] == w[k, k] for k in range(4))

    def test_bell_weights_under_illustration(self):
        # diagonal scaling factors at mu = 0.5: 0.58, 0.5, 0.52
        ch = PauliChannel(ILLUSTRATION_Q, 0.5)
        w = pauli_weights(bell_state(1, -1, 1))
        out = apply_channel_weights(ch, w)
        assert out[1, 1] == pytest.approx(0.58, abs=1e-12)
        assert out[2, 2] == pytest.approx(-0.5, abs=1e-12)
        assert out[3, 3] == pytest.approx(0.52, abs=1e-12)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() == 0.0

    def test_agrees_with_operator_sum(self, rng):
        for _ in range(100):
            ch = random_channel(rng)
            rho = random_pure_density(rng)
            direct = apply_channel(ch, rho)
            scaled = weights_to_density(apply_channel_weights(ch, pauli_weights(rho)))
            assert np.abs(direct - scaled).max() < 1e-12


class TestConfig:
    def test_q_layout(self):
        ch = channel_from_config({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.5})
        assert ch.q == ILLUSTRATION_Q and ch.mu == 0.5

    def test_family_layouts(self):
        ch = channel_from_config({"family": "depolarizing", "p": 0.25, "mu": 0.0})
        assert ch.q[0] == 0.75
        ch = channel_from_config({"family": "mp", "p": 0.25, "mu": 0.1})
        assert ch.q == (0.25, 0.25, 0.25, 0.25)

    def test_mu_override(self):
        ch = channel_from_config({"q": [0.25, 0.25, 0.25, 0.25], "mu": 0.5}, mu=0.9)
        assert ch.mu == 0.9

    def test_rejects_ambiguous_or_missing(self):
        with pytest.raises(OutOfRange):
            channel_from_config({"q": [1, 0, 0, 0], "family": "mp", "p": 0.1, "mu": 0})
        with pytest.raises(OutOfRange):
            channel_from_config({"q": [1, 0, 0, 0]})
        with pytest.raises(OutOfRange):
            channel_from_config({"family": "unknown", "p": 0.1, "mu": 0.0})
        with pytest.raises(OutOfRange):
            channel_from_config({"family": ["mp"], "p": 0.1, "mu": 0.0})
        with pytest.raises(OutOfRange):
            channel_from_config({"family": "mp", "mu": 0.0})

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"family": "mp", "p": 0.2, "mu": 0.3, "famly": 1}, "famly"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.3, "p": 0.9}, "p"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": 0.3, "Q": [1, 0, 0, 0]}, "Q"),
            ({"family": "depolarizing", "p": 0.1, "mu": 0.3, "seed": 1}, "seed"),
        ],
    )
    def test_rejects_keys_it_does_not_read(self, cfg, key):
        with pytest.raises(OutOfRange, match=f"key {key!r} is not one of"):
            channel_from_config(cfg)
        with pytest.raises(OutOfRange, match=f"key {key!r} is not one of"):
            channel_from_config(cfg, mu=0.5)  # an explicit mu does not excuse it

    @pytest.mark.parametrize(
        "cfg, key",
        [
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": "abc"}, "mu"),
            ({"family": "depolarizing", "p": "x", "mu": 0.3}, "p"),
            ({"q": [0.2, None, 0.3, 0.4], "mu": 0.5}, "q"),
            ({"family": "mp", "p": [0.1], "mu": 0.3}, "p"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": {"value": 0.5}}, "mu"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": 10**400}, "mu"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": True}, "mu"),
            ({"q": [True, False, False, False], "mu": 0.5}, "q"),
            ({"family": "depolarizing", "p": False, "mu": 0.3}, "p"),
            ({"q": [0.2, 0.1, 0.3, 0.4], "mu": "0.5"}, "mu"),
            ({"family": "mp", "p": "0.5", "mu": 0.3}, "p"),
        ],
    )
    def test_non_numbers_name_their_key(self, cfg, key):
        with pytest.raises(OutOfRange, match=repr(key)):
            channel_from_config(cfg)

    @settings(max_examples=300, deadline=None)
    @given(cfg=JSON_VALUES | CONFIG_LIKE)
    def test_arbitrary_json_is_channel_or_validation_error(self, cfg):
        try:
            ch = channel_from_config(cfg)
        except PauliMemError:
            return
        assert isinstance(ch, PauliChannel)
