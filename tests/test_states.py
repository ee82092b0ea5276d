import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import (
    BadIndex,
    NonHermitian,
    NonNormalized,
    NotPure,
    PureStateParams,
    alpha_beta,
    amplitudes_from_angles,
    bell_state,
    density_matrix,
    params_from_state,
    params_from_states,
    pauli_weights,
    product_optimal_state,
    state_vector,
    state_vectors,
    weights_to_density,
)
from paulimem.pauli import SIGMA
from conftest import random_params

PI = math.pi

angle = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def weight_alpha_beta(w):
    """alpha/beta straight from the weights -- the independent route."""
    a_plus = w[1, 1] ** 2 + w[2, 2] ** 2 + w[3, 3] ** 2
    a_minus = w[1, 1] ** 2 + w[2, 2] ** 2 - w[3, 3] ** 2
    beta = sum(w[n, 0] ** 2 + w[0, n] ** 2 for n in (1, 2, 3))
    return a_plus, a_minus, beta


class TestAmplitudes:
    def test_ground_state(self):
        assert amplitudes_from_angles(0.0, 0.0, 0.0) == (1.0, 0.0, 0.0, 0.0)

    def test_excited_state(self):
        c00, c11, c10, c01 = amplitudes_from_angles(PI, PI, 0.0)
        assert c11 == pytest.approx(1.0, abs=1e-15)
        assert (c00, c10, c01) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)

    def test_equal_first_qubit_superposition(self):
        c00, c11, c10, c01 = amplitudes_from_angles(PI / 2, 0.0, 0.0)
        root2 = 1 / math.sqrt(2)
        assert (c00, c11, c10, c01) == pytest.approx((root2, 0.0, root2, 0.0), abs=1e-15)

    def test_normalized(self, rng):
        for _ in range(200):
            c = amplitudes_from_angles(*rng.uniform(-10, 10, 3))
            assert sum(x * x for x in c) == pytest.approx(1.0, abs=1e-12)


class TestStateVector:
    def test_ground(self):
        v = state_vector(PureStateParams(0.0, 0.0, 0.0))
        assert np.abs(v - np.array([1, 0, 0, 0])).max() < 1e-15

    def test_equal_quarters(self):
        v = state_vector(PureStateParams(PI / 2, PI / 2, 0.0))
        assert np.abs(v - 0.5).max() < 1e-15

    def test_phase_insertion(self):
        v = state_vector(PureStateParams(PI / 2, 0.0, 0.0, phi10=PI))
        root2 = 1 / math.sqrt(2)
        expected = np.array([root2, 0.0, -root2, 0.0])
        assert np.abs(v - expected).max() < 1e-15

    def test_unit_norm(self, rng):
        for _ in range(200):
            v = state_vector(random_params(rng))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_batch_matches_scalar_reference(self, rng):
        # The scalar math/cmath form the batch function replaced. numpy's and
        # libm's cos/sin/exp may round differently in the last bit; each
        # amplitude is a product of three factors of modulus <= 1, so 8 ulp
        # of 1.0 bounds the difference.
        def reference(t, ph, ps, p11, p10, p01):
            half, plus, minus = t / 2.0, (ph + ps) / 2.0, (ph - ps) / 2.0
            return [
                math.cos(plus) * math.cos(half),
                math.sin(plus) * math.cos(half) * cmath.exp(1j * p01),
                math.cos(minus) * math.sin(half) * cmath.exp(1j * p10),
                math.sin(minus) * math.sin(half) * cmath.exp(1j * p11),
            ]

        rows = rng.uniform(-20.0, 20.0, (2000, 6))
        batch = state_vectors(rows)
        expected = np.array([reference(*row) for row in rows])
        assert batch.shape == (2000, 4)
        assert np.abs(batch - expected).max() <= 8 * np.finfo(float).eps
        for row, v in zip(rows[:50], batch[:50]):
            assert np.array_equal(state_vector(PureStateParams(*row)), v)


class TestDensityMatrix:
    def test_ground_projector(self):
        rho = density_matrix(np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(rho, np.diag([1, 0, 0, 0]).astype(complex))

    def test_bell_projector(self):
        v = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = density_matrix(v)
        assert np.abs(rho - bell_state(1, -1, 1)).max() < 1e-15

    def test_projector_properties(self, rng):
        for _ in range(100):
            v = state_vector(random_params(rng))
            rho = density_matrix(v)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.abs(rho @ rho - rho).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(NonNormalized):
            density_matrix(np.array([1.0, 1.0, 0.0, 0.0]))


class TestPauliWeights:
    def test_maximally_mixed(self):
        w = pauli_weights(np.eye(4) / 4.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(w - expected).max() < 1e-15

    def test_bell_phi_plus(self):
        w = pauli_weights(bell_state(1, -1, 1))
        expected = np.diag([1.0, 1.0, -1.0, 1.0])
        assert np.abs(w - expected).max() < 1e-15

    def test_ground_state(self):
        w = pauli_weights(np.diag([1.0, 0, 0, 0]).astype(complex))
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        assert np.abs(w - expected).max() < 1e-15

    def test_rejects_non_hermitian(self):
        rho = np.diag([1.0, 0, 0, 0]).astype(complex)
        rho[0, 1] = 0.1j  # no conjugate partner
        with pytest.raises(NonHermitian):
            pauli_weights(rho)

    def test_round_trip(self, rng):
        for _ in range(100):
            v = state_vector(random_params(rng))
            rho = density_matrix(v)
            back = weights_to_density(pauli_weights(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_weights_to_density_mixed(self):
        w = np.zeros((4, 4))
        w[0, 0] = 1.0
        assert np.abs(weights_to_density(w) - np.eye(4) / 4.0).max() < 1e-15


class TestAlphaBeta:
    def test_ground_state(self):
        a_plus, a_minus, beta = alpha_beta(PureStateParams(0.0, 0.0, 0.0))
        assert a_plus == pytest.approx(1.0, abs=1e-15)
        assert a_minus == pytest.approx(-1.0, abs=1e-15)
        assert beta == pytest.approx(2.0, abs=1e-15)

    def test_bell_phi_plus_saturates_alpha(self):
        # theta = pi/2, phi = pi/2, psi = -pi/2 lands on (|00> + |11>)/sqrt(2)
        params = PureStateParams(PI / 2, PI / 2, -PI / 2)
        v = state_vector(params)
        assert np.abs(density_matrix(v) - bell_state(1, -1, 1)).max() < 1e-12
        a_plus, _, beta = alpha_beta(params)
        assert a_plus == pytest.approx(3.0, abs=1e-12)
        assert beta == pytest.approx(0.0, abs=1e-12)

    def test_matches_weights_and_bounds(self, rng):
        for _ in range(1000):
            params = random_params(rng)
            w = pauli_weights(density_matrix(state_vector(params)))
            expected = weight_alpha_beta(w)
            got = alpha_beta(params)
            assert got == pytest.approx(expected, abs=1e-10)
            a_plus, a_minus, beta = got
            assert a_minus <= 1.0 + 1e-10
            assert a_plus <= 3.0 + 1e-10
            assert beta <= 2.0 + 1e-10
            assert a_plus + beta <= 3.0 + 1e-10


class TestOptimalFamilies:
    def test_product_l3_is_ground(self):
        rho = product_optimal_state(3, 1, 1)
        assert np.abs(rho - np.diag([1.0, 0, 0, 0])).max() < 1e-15

    def test_product_l1_is_plus_plus(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        expected = np.outer(np.kron(plus, plus), np.kron(plus, plus))
        assert np.abs(product_optimal_state(1, 1, 1) - expected).max() < 1e-15

    def test_product_weight_pattern(self):
        for l in (1, 2, 3):
            for zeta in (-1, 1):
                for xi in (-1, 1):
                    w = pauli_weights(product_optimal_state(l, zeta, xi))
                    assert w[l, 0] == pytest.approx(zeta, abs=1e-15)
                    assert w[0, l] == pytest.approx(xi, abs=1e-15)
                    assert w[l, l] == pytest.approx(zeta * xi, abs=1e-15)
                    total = (w**2).sum() - 1.0  # drop w00
                    assert total == pytest.approx(3.0, abs=1e-12)

    def test_product_bad_index(self):
        with pytest.raises(BadIndex):
            product_optimal_state(0)
        with pytest.raises(BadIndex):
            product_optimal_state(1, 2, 1)

    @pytest.mark.parametrize("l", [True, np.True_, 1.0, "1"], ids=repr)
    def test_product_axis_must_be_an_integer(self, l):
        # True == 1, and SIGMA[True] would read as a new axis
        with pytest.raises(BadIndex):
            product_optimal_state(l)

    def test_product_axis_takes_numpy_integers(self):
        assert np.array_equal(product_optimal_state(np.int64(2)), product_optimal_state(2))

    @pytest.mark.parametrize("sign", [True, np.True_, 1.0, "1"], ids=repr)
    @pytest.mark.parametrize("where", range(2), ids=["zeta", "xi"])
    def test_product_signs_must_be_integers(self, sign, where):
        # True == 1 and 1.0 == 1, so a membership test alone would let them in
        signs = [1, 1]
        signs[where] = sign
        with pytest.raises(BadIndex):
            product_optimal_state(3, *signs)

    @pytest.mark.parametrize("sign", [True, np.True_, 1.0, "1"], ids=repr)
    @pytest.mark.parametrize("where", range(3), ids=["eta", "nu", "xi"])
    def test_bell_signs_must_be_integers(self, sign, where):
        signs = [1, 1, 1]
        signs[(where + 1) % 3] = -1
        signs[where] = sign  # read as +1, a Bell pattern with product -1
        with pytest.raises(BadIndex):
            bell_state(*signs)

    def test_signs_take_numpy_integers(self):
        one, minus = np.int64(1), np.int32(-1)
        assert np.array_equal(product_optimal_state(2, minus, one), product_optimal_state(2, -1, 1))
        assert np.array_equal(bell_state(one, minus, one), bell_state(1, -1, 1))

    def test_bell_phi_plus(self):
        v = np.array([1, 0, 0, 1]) / math.sqrt(2)
        assert np.abs(bell_state(1, -1, 1) - np.outer(v, v)).max() < 1e-15

    def test_bell_psi_minus(self):
        v = np.array([0, 1, -1, 0]) / math.sqrt(2)
        assert np.abs(bell_state(-1, -1, -1) - np.outer(v, v)).max() < 1e-15

    def test_bell_not_pure(self):
        with pytest.raises(NotPure):
            bell_state(1, 1, 1)

    def test_bell_reduced_states_maximally_mixed(self):
        for signs in ((1, -1, 1), (-1, 1, 1), (1, 1, -1), (-1, -1, -1)):
            rho = bell_state(*signs)
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-12  # pure
            first = rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            assert np.abs(first - np.eye(2) / 2.0).max() < 1e-12
            second = rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)
            assert np.abs(second - np.eye(2) / 2.0).max() < 1e-12


class TestRandomParams:
    def test_samples_satisfy_identities(self):
        for seed in range(300):
            params = random_params(np.random.default_rng(seed))
            w = pauli_weights(density_matrix(state_vector(params)))
            assert (w**2).sum() - 1.0 == pytest.approx(3.0, abs=1e-10)
            for j, k, n in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
                assert w[j, j] ** 2 + w[k, k] ** 2 - w[n, n] ** 2 <= 1.0 + 1e-10


@given(theta=angle, phi=angle, psi=angle, p11=angle, p10=angle, p01=angle)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_purity_sum_rule_property(theta, phi, psi, p11, p10, p01):
    w = pauli_weights(
        density_matrix(state_vector(PureStateParams(theta, phi, psi, p11, p10, p01)))
    )
    assert w[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(w).max() <= 1.0 + 1e-12
    assert (w**2).sum() - 1.0 == pytest.approx(3.0, abs=1e-10)


@given(theta=angle, phi=angle, psi=angle, p11=angle, p10=angle, p01=angle)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_weight_inequality_property(theta, phi, psi, p11, p10, p01):
    w = pauli_weights(
        density_matrix(state_vector(PureStateParams(theta, phi, psi, p11, p10, p01)))
    )
    for j, k, n in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        assert w[j, j] ** 2 + w[k, k] ** 2 - w[n, n] ** 2 <= 1.0 + 1e-10


class TestCoverage:
    def test_params_from_state_round_trip(self, rng):
        # the family reaches every pure state up to global phase, one state
        # at a time and as rows of a batch, which the scalar inverse is
        vs, scalar = [], []
        for _ in range(200):
            raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = raw / np.linalg.norm(raw)
            params = params_from_state(v)
            rho_given = np.outer(v, v.conj())
            rho_param = density_matrix(state_vector(params))
            assert np.abs(rho_param - rho_given).max() < 1e-12
            vs.append(v)
            scalar.append(params)
        batch = params_from_states(np.array(vs))
        assert [PureStateParams(*row) for row in batch.tolist()] == scalar
        back = state_vectors(batch)
        rho_batch = np.einsum("ni,nj->nij", back, back.conj())
        rho_given = np.einsum("ni,nj->nij", np.array(vs), np.conj(vs))
        assert np.abs(rho_batch - rho_given).max() < 1e-12
        off = np.array(vs)
        off[17] *= 1.0 + 1e-6
        with pytest.raises(NonNormalized):
            params_from_states(off)

    def test_global_phase_leaves_density_unchanged(self, rng):
        for _ in range(50):
            v = state_vector(random_params(rng))
            shifted = v * cmath.exp(1j * rng.uniform(0, 2 * PI))
            assert np.abs(np.outer(shifted, shifted.conj()) - np.outer(v, v.conj())).max() < 1e-15

    def test_varphi(self):
        params = PureStateParams(0.1, 0.2, 0.3, phi11=0.4, phi10=0.6, phi01=0.8)
        assert params.varphi == pytest.approx((0.6 + 0.8 - 0.4) / 2, abs=1e-15)


def test_pauli_constants():
    assert np.array_equal(SIGMA[3], np.diag([1, -1]).astype(complex))
    for n in range(4):
        assert np.abs(SIGMA[n] @ SIGMA[n] - np.eye(2)).max() == 0.0


def test_sign_table():
    from paulimem.pauli import SIGN_TABLE

    assert np.array_equal(SIGN_TABLE, SIGN_TABLE.T)
    assert (SIGN_TABLE[0] == 1.0).all() and (SIGN_TABLE[:, 0] == 1.0).all()
    assert (np.diag(SIGN_TABLE) == 1.0).all()
    for n in range(4):
        for k in range(4):
            # defining identity: sigma_n sigma_k sigma_n = s_nk sigma_k
            lhs = SIGMA[n] @ SIGMA[k] @ SIGMA[n]
            assert np.abs(lhs - SIGN_TABLE[n, k] * SIGMA[k]).max() == 0.0


def test_product_index_table():
    from paulimem.pauli import PRODUCT_INDEX

    for k in range(4):
        for kp in range(4):
            prod = SIGMA[k] @ SIGMA[kp]
            target = SIGMA[PRODUCT_INDEX[k, kp]]
            # proportional with a unimodular factor
            ratio = np.trace(target.conj().T @ prod) / 2.0
            assert abs(abs(ratio) - 1.0) < 1e-15
            assert np.abs(prod - ratio * target).max() < 1e-15
