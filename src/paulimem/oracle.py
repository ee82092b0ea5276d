"""Independent verification of the optimal input families.

The search reuses nothing of the analytic spectra, which enter only as the
value it is compared with: the channel output is assembled entry by entry
from the Pauli weights, eigenvalues come from an in-house Jacobi
diagonalizer (with LAPACK only in the vectorized search hot loop), and the
minimum output entropy is found by a brute-force grid over the six-parameter
pure-state family plus one batched BFGS refinement with the exact entropy
gradient over the amplitudes themselves, from the three best distinct grid
states and from Haar-uniform random states; the best refined row is the
result. The grid's distinct states and their projectors are built once per
grid size and kept; each is diagonalized once per search.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass
from functools import lru_cache
from math import hypot, sqrt

import numpy as np

from .capacity import _checked_mu_grid, _output_entropies, capacity_two_use
from .channel import PauliChannel, _eps, _epsilon_matrix
from .closed_form import csv_text, json_text
from .errors import NonHermitian, OutOfRange, is_integer
from .pauli import PAULI2
from .states import (
    PureStateParams,
    _checked_weights,
    checked_array,
    density_matrix,
    params_from_states,
    pauli_weights,
    state_vector,
    state_vectors,
)

_HERM_TOL = 1e-9
# eig_hermitian4's off-diagonal norm tolerance, relative to max(|entry|, 1), and sweep cap.
_JACOBI_TOL = 1e-12
_JACOBI_SWEEPS = 60
# A refinement row stops once every gradient component is at most this.
# At the worked example (mu 0.2, 0.5, 0.8) and depolarizing(0.25, 0.3), 1e-7
# ends at the entropy's float64 resolution (~1e-15) and 1e-9 costs ~9% more
# rows for no gain; 1e-5 saves ~10% of the rows there but was ~3e-12 short
# of the minimum on parameter rows, so 1e-7 keeps that margin.
_GRAD_TOL = 1e-7
# Best distinct grid states that seed a refinement start each.
_REFINEMENTS = 3
# A search result below both closed-form entropies by more than this is a
# finding against their optimality.
_TOL_ENTROPY = 1e-6
# Refinement passes, each one trial point per live start (a step taken or a
# step halved); a start still live at the cap sets OracleResult.budget_exceeded.
# With the first step bounded by _MAX_STEP a default search takes 18-34
# passes at the oracle_verify benchmark points and 93-120 at the pure-output
# minima of q = (0.5, 0.5, 0, 0), mu = 0.2 and the worked example, mu = 1.
_MAX_ITERS = 5000
# Longest first trial step of a new direction. Every row is a unit vector
# when a direction is set, so no trial row is longer than 1 + _MAX_STEP;
# an unbounded step went up to 7.1e6 and halved back one pass at a time.
# Objective calls (passes) and rows per default search, on the six
# oracle_verify benchmark points with restart seeds 0-7:
#   unbounded 37.3 passes, 1,233 rows   0.125  34.2, 1,287   0.25  27.5, 1,114
#   0.5       26.7, 1,096              0.75   27.6, 1,122   1     27.9, 1,136
#   1.5       29.0, 1,161              2      29.6, 1,170   4     30.8, 1,191
_MAX_STEP = 0.5
# Caps on the user-set search sizes, checked before anything is allocated:
# the grid holds grid_points_per_angle**6 points, evaluated in one batch
# (4,096 at the cap, ~2.4 MB of peak memory for a search), and each random
# start takes 8 floats for its state.
_MAX_GRID_POINTS_PER_ANGLE = 4
_MAX_RESTARTS = 1000
# _KRON[4 i + j] = kron(U, U^T) for U = PAULI2[i, j]: vec(U rho U) = (U kron U^T) vec(rho).
_KRON = np.einsum("kab,kdc->kacbd", *[PAULI2.reshape(16, 4, 4)] * 2).reshape(16, 16, 16)
_KRON.setflags(write=False)


@dataclass(frozen=True)
class SearchConfig:
    """Grid size, random restarts and seed of the global entropy search.

    restarts counts the Haar-uniform random starts. The defaults, 3 grid
    points per angle and 64 restarts, come within 1e-9 bits of the analytic
    minimum at every hard point of the test suite on seeds 0-3; a finer grid
    changed which points a search missed less than the starts did.
    """

    grid_points_per_angle: int = 3
    restarts: int = 64
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_points_per_angle", "restarts", "seed"):
            if not is_integer(value := getattr(self, name)):
                raise OutOfRange(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # numpy integers are stored as int
        for name in ("grid_points_per_angle", "restarts"):
            if getattr(self, name) < 1:
                raise OutOfRange(f"{name} must be positive")
        if self.grid_points_per_angle > _MAX_GRID_POINTS_PER_ANGLE:
            raise OutOfRange(f"grid_points_per_angle above {_MAX_GRID_POINTS_PER_ANGLE}")
        if self.restarts > _MAX_RESTARTS:
            raise OutOfRange(f"restarts above {_MAX_RESTARTS}")
        if self.seed < 0:
            raise OutOfRange("seed must be nonnegative")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of one brute-force minimization.

    entropy_product and entropy_bell are the closed-form output entropies of
    the two optimal families; gap_to_analytic = min_entropy - min(product,
    bell), and a gap below -1e-6 would contradict their optimality.
    budget_exceeded marks refinement runs stopped by the pass cap, _MAX_ITERS.
    """

    min_entropy: float
    best_params: PureStateParams
    best_spectrum: np.ndarray
    evaluations: int
    entropy_product: float
    entropy_bell: float
    gap_to_analytic: float
    budget_exceeded: bool = False


def output_matrix(channel: PauliChannel, w: np.ndarray) -> np.ndarray:
    """Channel output assembled entry by entry from the Pauli weights.

    Independent of the operator-sum route: the diagonal involves only the
    sigma_0/sigma_3 weights, the single-flip entries the sigma_1/sigma_2
    edge weights, and the double-flip entries the transverse block.
    """
    w = _checked_weights(w).tolist()
    eps = _eps(channel.q)
    e = _epsilon_matrix(eps, channel.mu)
    out = np.empty((4, 4), dtype=complex)
    for f in (0, 1):
        sf = -1.0 if f else 1.0
        for s in (0, 1):
            ss = -1.0 if s else 1.0
            row = 2 * f + s
            out[row, row] = 0.25 * (
                1.0 + sf * eps[3] * w[3][0] + ss * eps[3] * w[0][3] + sf * ss * e[3][3] * w[3][3]
            )
            out[row, 2 * (1 - f) + s] = 0.25 * (
                eps[1] * w[1][0]
                - 1j * sf * eps[2] * w[2][0]
                + ss * e[1][3] * w[1][3]
                - 1j * sf * ss * e[2][3] * w[2][3]
            )
            out[row, 2 * f + (1 - s)] = 0.25 * (
                eps[1] * w[0][1]
                - 1j * ss * eps[2] * w[0][2]
                + sf * e[1][3] * w[3][1]
                - 1j * sf * ss * e[2][3] * w[3][2]
            )
            out[row, 2 * (1 - f) + (1 - s)] = 0.25 * (
                e[1][1] * w[1][1]
                - 1j * sf * e[2][1] * w[2][1]
                - 1j * ss * e[1][2] * w[1][2]
                - sf * ss * e[2][2] * w[2][2]
            )
    return out


def eig_hermitian4(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 4x4 Hermitian matrix, descending, by cyclic Jacobi.

    Each off-diagonal entry is annihilated with a phased Givens rotation,
    applied in place, in Python complex arithmetic, to rows and columns p and
    q only: no LAPACK, so this check stays independent of the search. The
    off-diagonal mass shrinks quadratically, so a handful of sweeps reaches
    _JACOBI_TOL. _JACOBI_SWEEPS caps runaway iteration.
    """
    a = checked_array(m, (4, 4), complex, NonHermitian, "matrix")
    asym = np.abs(a - a.conj().T).max()
    if not asym <= _HERM_TOL:
        raise NonHermitian(f"asymmetry {asym:.3e} exceeds tolerance")
    a = (a + a.conj().T) / 2.0
    scale = max(float(np.abs(a).max()), 1.0)
    a = a.tolist()
    for _ in range(_JACOBI_SWEEPS):
        off = sqrt(sum(abs(a[i][j]) ** 2 for i in range(4) for j in range(4) if i != j))
        if off <= _JACOBI_TOL * scale:
            break
        for p in range(3):
            for q in range(p + 1, 4):
                b = a[p][q]
                mag = abs(b)
                if mag <= 0.1 * _JACOBI_TOL * scale:
                    continue  # already negligible against the convergence test
                tau = (a[q][q].real - a[p][p].real) / (2.0 * mag)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + hypot(1.0, tau))
                c = 1.0 / sqrt(1.0 + t * t)
                u = t * c * (b / mag)  # rotation entry (p, q); entry (q, p) is -conj(u)
                uc = u.conjugate()
                for row in a:  # a @ rot
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - uc * y, u * x + c * y
                rp, rq = a[p], a[q]
                for j in range(4):  # rot^H @ a
                    x, y = rp[j], rq[j]
                    rp[j], rq[j] = c * x - u * y, uc * x + c * y
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return np.sort([a[i][i].real for i in range(4)])[::-1]


def a2_coefficient(cp, w: np.ndarray) -> tuple[float, float, float, float]:
    """Quadratic coefficient of the output characteristic polynomial.

    For pure-state weights w, the polynomial det(lam - out) has the form
    lam^4 - lam^3 + a2 lam^2 + ..., with a2 = (3 - A - B - C)/8 where A, B, C
    group the squared scaled weights by diagonal, edge and transverse blocks
    (using the magnitude ordering l, m, s). a2 is nonnegative because every
    |eps_nk| <= 1 and the squared weights of a pure state sum to 3.

    Returns (a2, A, B, C).
    """
    w = _checked_weights(w, pure=True)
    l, m, s = cp.ordering
    e = cp.eps2
    ev = cp.eps
    A = sum(e[k, k] ** 2 * w[k, k] ** 2 for k in (l, m, s))
    B = sum(ev[k] ** 2 * (w[0, k] ** 2 + w[k, 0] ** 2) for k in (l, m, s))
    C = (
        e[l, m] ** 2 * (w[l, m] ** 2 + w[m, l] ** 2)
        + e[l, s] ** 2 * (w[l, s] ** 2 + w[s, l] ** 2)
        + e[m, s] ** 2 * (w[m, s] ** 2 + w[s, m] ** 2)
    )
    return ((3.0 - A - B - C) / 8.0, A, B, C)


def channel_superoperator(channel: PauliChannel) -> np.ndarray:
    """16x16 matrix acting on row-major vec(rho).

    The 16 weighted terms are added one after another in index order, so the
    matrix is bit for bit the sum term by term.
    """
    return (channel.joint_probabilities().reshape(16, 1, 1) * _KRON).sum(axis=0)


def _projectors(v: np.ndarray) -> np.ndarray:
    """(N, 16) row-major projectors |v><v| of the (N, 4) pure-state amplitudes v."""
    return np.einsum("ni,nj->nij", v, v.conj()).reshape(-1, 16)


def _outputs(superop: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """(N, 4, 4) output matrices of the (N, 16) projector rows proj."""
    return (proj @ superop.T).reshape(-1, 4, 4)


def _entropy_and_gradient(x: np.ndarray, superop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output entropies S at (R, 8) amplitude rows x, and their (R, 8) gradients.

    A row holds the real and imaginary parts of four amplitudes c of any
    nonzero length; the state is v = c/|c|. With rho_out = E(|v><v|),
    dS = -Tr(E(d|v><v|) log2 rho_out) because the trace of rho_out is fixed,
    and the Pauli channel E is self-adjoint, so with M = E(log2 rho_out) the
    gradient is -2 (M v - <v|M|v> v) / |c|, read as 8 real components.
    """
    norm = np.sqrt(np.einsum("ni,ni->n", x, x))[:, None]
    v = x.view(complex) / norm
    lam, vecs = np.linalg.eigh(_outputs(superop, _projectors(v)))
    lam = np.maximum(lam, 1e-300)
    log_lam = np.log2(lam)
    entropy = np.maximum(-(lam * log_lam).sum(axis=1), 0.0)
    log_out = (vecs * log_lam[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    pulled = (log_out.reshape(-1, 16) @ superop.T).reshape(-1, 4, 4)
    mv = (pulled @ v[:, :, None])[:, :, 0]
    expect = np.einsum("ni,ni->n", v.view(float), mv.view(float))  # Re <v|M v>
    grad = -2.0 * (mv - expect[:, None] * v) / norm
    return entropy, grad.view(float)


def _first_step(p: np.ndarray) -> np.ndarray:
    """min(1, _MAX_STEP / |p|) for each row of p, without dividing by zero."""
    return _MAX_STEP / np.maximum(np.sqrt(np.einsum("ni,ni->n", p, p)), _MAX_STEP)


def _refine(starts: np.ndarray, superop: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """BFGS from all (R, 4) unit amplitude rows at once, on the exact entropy gradient.

    The rows move in the 8 real coordinates of their amplitudes. Each row
    keeps an inverse-Hessian estimate H (identity at first, kept where
    s.y <= 0), a direction p = -H g and a step t, which starts each new
    direction at min(1, _MAX_STEP / |p|), so no trial point lies more than
    _MAX_STEP from the unit row it moves from. Each pass evaluates x + t p
    for every live row: a row whose S drops by the Armijo fraction 1e-4 of
    t p.g takes the step, updates H, is scaled back to unit length (its
    gradient scaled up by the same length, exact as S ignores the length)
    and sets a new p and its first t; any other row halves t. A row stops once
    every gradient component is <= _GRAD_TOL, or when the predicted drop
    t |p.g| falls below float64 resolution with no decrease found, as at a
    minimum. The working arrays hold live rows only, with idx mapping each
    back to its start; a row converged on entry never enters them. A pass
    updates the rows that step through a full slice when every live row
    steps, as nearly all do, and through their indices otherwise; it halves
    every t, since a row that steps sets its own. A pass that stops rows
    writes their x and f into the result once and drops them from the
    working arrays, so no pass touches a stopped row. Returns
    the final values, (R, 4) unit rows, rows evaluated and whether
    _MAX_ITERS passes left a row live.
    """
    out_x = starts.copy().view(float)
    out_f, g = _entropy_and_gradient(out_x, superop)
    evaluations = len(out_x)
    idx = np.flatnonzero(np.abs(g).max(axis=1) > _GRAD_TOL)
    x, f, g = out_x[idx], out_f[idx], g[idx]
    eye, eps = np.eye(8), np.finfo(float).eps
    h = np.tile(eye, (len(idx), 1, 1))
    p, slope = -g, -np.einsum("ni,ni->n", g, g)
    t = _first_step(p)
    for _ in range(_MAX_ITERS):
        if not idx.size:
            break
        trial = x + t[:, None] * p
        ft, gt = _entropy_and_gradient(trial, superop)
        evaluations += idx.size
        ok = (ft < f) & (ft <= f + 1e-4 * t * slope)
        stop = ~ok & (t * slope >= -eps)  # stalled
        t *= 0.5  # rows that step set a new t below, stopped rows leave
        a = slice(None) if ok.all() else np.flatnonzero(ok)
        xa, ga = trial[a], gt[a]
        s, y = xa - x[a], ga - g[a]
        sy = np.einsum("ni,ni->n", s, y)
        r = 1.0 / np.where(sy > 0, sy, np.inf)  # r = 0 keeps H
        rs = (r[:, None] * s)[:, :, None]
        v = eye - rs * y[:, None, :]
        ha = v @ h[a] @ v.transpose(0, 2, 1) + rs * s[:, None, :]
        length = np.sqrt(np.einsum("ni,ni->n", xa, xa))[:, None]
        ga = ga * length
        pa = -(ha @ ga[:, :, None])[:, :, 0]
        x[a], f[a], g[a], h[a], p[a] = xa / length, ft[a], ga, ha, pa
        slope[a], t[a] = np.einsum("ni,ni->n", pa, ga), _first_step(pa)
        stop[a] = np.abs(ga).max(axis=1) <= _GRAD_TOL
        if stop.any():
            out_x[idx[stop]], out_f[idx[stop]] = x[stop], f[stop]
            keep = np.flatnonzero(~stop)
            idx, x, f, g, h, p, slope, t = (w[keep] for w in (idx, x, f, g, h, p, slope, t))
    out_x[idx], out_f[idx] = x, f
    return out_f, out_x.view(complex), evaluations, bool(idx.size)


def _grid(g: int) -> np.ndarray:
    """The g**6 search-grid rows, row k being row k of the flattened ij meshgrid.

    theta runs over [0, pi] with both endpoints, the five other angles over
    [0, 2 pi) without the endpoint.
    """
    axes = [np.linspace(0.0, np.pi, g)]
    axes += [np.linspace(0.0, 2.0 * np.pi, g, endpoint=False)] * 5
    return np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)


# Keyed by g alone, which SearchConfig caps at 4 before anything is allocated:
# at most four tables (1 + 27 + 379 + 2,485 distinct states, 0.93 MB in all).
@lru_cache(maxsize=None)
def _grid_states(g: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct grid states and their projector rows, as read-only arrays.

    A cell's state is kept if its projector |v><v| (flattened to 16 entries)
    is bitwise distinct from every earlier cell's; the states stay in cell
    order, each as the amplitudes of its first cell.
    """
    states = state_vectors(_grid(g))
    proj = _projectors(states)
    keys = proj.view(np.dtype((np.void, proj.itemsize * 16)))[:, 0]
    first = np.sort(np.unique(keys, return_index=True)[1])
    arrays = states[first], proj[first]
    for a in arrays:
        a.setflags(write=False)
    return arrays


def output_entropies(channel: PauliChannel, params: np.ndarray) -> np.ndarray:
    """Output entropies for a batch of parameter rows (theta, phi, psi, phases).

    params is one row of six finite angles or an (N, 6) array of them;
    anything else raises OutOfRange.
    """
    try:
        params = np.atleast_2d(params)  # state_vectors holds it to the input contract
    except ValueError:  # a ragged list
        raise OutOfRange("parameter rows must be numbers") from None
    superop = channel_superoperator(channel)
    return _output_entropies(_outputs(superop, _projectors(state_vectors(params))))


def min_entropy_bruteforce(
    channel: PauliChannel, cfg: SearchConfig | None = None
) -> OracleResult:
    """Global minimum of the output entropy over all two-qubit pure states.

    A full grid over the six parameters (theta on [0, pi], the others on
    [0, 2 pi)), at most 4,096 cells, each distinct state evaluated once in
    one batch, hands the amplitudes of its three best distinct states, as a
    stable argsort of their output entropies ranks them (ties by first
    cell), to BFGS refinement with the exact entropy gradient; `restarts`
    further starts are Haar-uniform random states (normalized complex
    Gaussian 4-vectors) drawn from the seed alone, blind to the channel and
    to the closed-form families. The refined row with the lowest value wins;
    only the rows tied at that value are mapped to the six parameters, and
    the lexicographically smallest parameter row among them breaks the tie,
    so the search is deterministic for a fixed config. evaluations counts
    all g**6 grid points plus objective rows evaluated.
    """
    if cfg is None:
        cfg = SearchConfig()
    superop = channel_superoperator(channel)
    g = cfg.grid_points_per_angle
    states, proj = _grid_states(g)
    entropies = _output_entropies(_outputs(superop, proj))
    best = states[np.argsort(entropies, kind="stable")[:_REFINEMENTS]]
    gauss = np.random.default_rng(cfg.seed).standard_normal((cfg.restarts, 8)).view(complex)
    haar = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    values, vecs, refine_evals, budget_exceeded = _refine(np.vstack([best, haar]), superop)
    best_value = float(values.min())
    tied = params_from_states(vecs[values == best_value])
    best_params = PureStateParams(*min(map(tuple, tied.tolist())))
    spectrum = eig_hermitian4(
        output_matrix(channel, pauli_weights(density_matrix(state_vector(best_params))))
    )
    analytic = capacity_two_use(channel)
    s_p, s_b = analytic.entropy_product, analytic.entropy_bell
    return OracleResult(
        min_entropy=best_value,
        best_params=best_params,
        best_spectrum=spectrum,
        evaluations=g**6 + refine_evals,
        entropy_product=s_p,
        entropy_bell=s_b,
        gap_to_analytic=best_value - min(s_p, s_b),
        budget_exceeded=budget_exceeded,
    )


@dataclass(frozen=True)
class GridPointCheck:
    """Brute-force vs analytic entropies at one memory value."""

    mu: float
    s_oracle: float
    s_product: float
    s_bell: float
    gap: float
    flag: bool


@dataclass(frozen=True)
class OptimalityReport:
    """Per-point checks of the optimality claim over a memory grid."""

    points: tuple[GridPointCheck, ...]
    budget_exceeded: bool = False

    @property
    def any_flag(self) -> bool:
        return any(p.flag for p in self.points)


def verify_optimality_grid(
    channel_base: PauliChannel, mu_grid, cfg: SearchConfig | None = None
) -> OptimalityReport:
    """Run the brute-force search across a memory grid.

    The whole grid is checked first, as capacity_sweep checks it, so a bad
    value raises OutOfRange before any search runs. Flags every point where
    the search lands below both analytic branch entropies by more than 1e-6;
    a flag is a finding against the claimed optimality of the two families,
    not an execution error.
    """
    if cfg is None:
        cfg = SearchConfig()
    points = []
    budget_exceeded = False
    for mu in _checked_mu_grid(channel_base, mu_grid).tolist():
        ch = channel_base.with_mu(mu)
        result = min_entropy_bruteforce(ch, cfg)
        points.append(
            GridPointCheck(
                mu=ch.mu,
                s_oracle=result.min_entropy,
                s_product=result.entropy_product,
                s_bell=result.entropy_bell,
                gap=result.gap_to_analytic,
                flag=result.gap_to_analytic < -_TOL_ENTROPY,
            )
        )
        budget_exceeded |= result.budget_exceeded
    return OptimalityReport(tuple(points), budget_exceeded)


def report_to_json(report: OptimalityReport) -> str:
    return json_text([asdict(p) for p in report.points])


# The fields of GridPointCheck, in declaration order.
REPORT_CSV_HEADER = "mu,s_oracle,s_product,s_bell,gap,flag"


def report_to_csv(report: OptimalityReport) -> str:
    return csv_text(REPORT_CSV_HEADER, map(astuple, report.points))
