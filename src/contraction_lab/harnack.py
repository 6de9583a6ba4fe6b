"""Harnack domination, decided after level 1 of the dilation Gram hierarchy.

A contraction t' is Harnack dominated by t with constant c^2 exactly when
<G_{t'} x, x> <= c^2 <G_t x, x> holds at every level of the nested block
Gram matrices G (block (m, n) = T^(n-m) for n >= m, adjoint below), the
Gram matrices of the minimal isometric dilation vectors.  One path decides
every pair:

1. Level 1: G_t = P = [[I, t], [t*, I]] and G_{t'} = P + N + N* with
   N = [[0, t' - t], [0, 0]].  On a kernel vector [u_i; -v_i] / sqrt(2) of
   P, G_{t'} is at least ||(t' - t) v_i||^2 / 2, as t' is a contraction.
   So level 1 fails exactly when segments._kernel_leak finds t' - t leaking
   onto ker D_t (method "kernel-escape"); else t' = t there, and c_1^2 =
   1 + lambda_max(A + A*), A of segments._whitened, from one SVD of t.
2. A finite-dimensional contraction is U + t_0 with U unitary and
   rho(t_0) < 1 (Sz.-Nagy-Foias, Harmonic Analysis of Operators on
   Hilbert Space, Thm I.3.2).  U acts on a part of ker D_t, so after
   level 1 it reduces t' too, t' = U + t'_0; as Re p(U) <= c^2 Re p(U)
   for c >= 1, t dominates t' exactly when t_0 dominates t'_0, with the
   same constant.  A unitary t dominates with constant 1 ("unitary").
3. An eigenvector y of t'_0 with |mu| = 1 refutes every constant
   ("fejer"): the Fejer polynomial p_n (see fejer_polynomial) has
   <Re p_n(t'_0) y, y> = n + 1, while <Re p_n(t_0) y, y> averages Re p_n
   against the Poisson symbol of t_0, bounded as rho(t_0) < 1.
4. Otherwise both spectral radii are below 1.  The Gram matrices are
   sections of the block Toeplitz operator with the continuous symbol
   P_T = (I - zT)^{-*} D_T^2 (I - zT)^{-1}, which is PSD exactly when
   its symbol is (Boettcher-Silbermann): t dominates t' when
   D_{t'} (I - z t')^{-1} (I - z t) vanishes on ker D_t, which level 1
   proved (method "symbol").  The reported constant is the maximum of
   its norm after D_t^+ over the circle, an H-infinity norm found by a
   level-set iteration (see _symbol_sweep): a sampled value, so a lower
   bound of c^2, not a certified upper bound.

An eigenvalue near the circle that the split did not remove ends
Inconclusive, never Dominated.  The Gram matrices themselves are built only
on request (``full_trace``), as an audit of the constant trace.

``harnack_equivalence`` needs none of this: it is the chart decision.

Direction convention, used consistently across this module:
``harnack_dominates(a, b)`` asks whether **a dominates b**, and
``harnack_falsify(a, b, c)`` hunts for a positive-real polynomial with
Re p(b) <= c Re p(a) violated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asymptotics import NoConvergenceError, _on_circle, asymptotic_limit
from .contraction import Contraction, _factored, defect_data
from .linalg import (
    DEFAULT_TOL,
    ShapeMismatchError,
    Tolerances,
    _defect_roots,
    compress,
    herm,
    op_norm,
)
from .segments import _kernel_leak, _whitened, unit_circle
from .shmulyan import _chart_equivalent

__all__ = [
    "DOMINATED",
    "HarnackKernel",
    "HarnackVerdict",
    "INCONCLUSIVE",
    "IntertwinerData",
    "NOT_DOMINATED",
    "NecessaryConditionFailsError",
    "PipelineReport",
    "ZDivergesError",
    "fejer_polynomial",
    "harnack_dominates",
    "harnack_equivalence",
    "harnack_falsify",
    "harnack_kernel",
    "intertwiner_data",
    "positive_real_sample",
    "quasi_normal_equivalence_report",
    "real_part_at",
]

DOMINATED = "dominated"
NOT_DOMINATED = "not_dominated"
INCONCLUSIVE = "inconclusive"

# The symbol route serves d + 1 < SYMBOL_GRID and leaves larger pairs
# Inconclusive; that stop is the constant's only use.
SYMBOL_GRID = 128

# Equally spaced angles the symbol sweep samples first, besides the distinct
# angles of the nonzero eigenvalues of a and b.  Its lowest sample becomes
# the Cayley point at infinity, whose value must lie clearly below the
# best; the symbol of a = [[0, 1], [1/2, 0]] against b = [[0, 1], [0, 0]]
# has period pi, and samples at 0 and pi alone tie.
SYMBOL_START = 8

# Cap on the level-set steps of the symbol sweep.  Each step solves one
# Hamiltonian eigenproblem and the iteration converges quadratically, so
# sweeps need a few steps.
SYMBOL_STEPS = 16

# A step's level lies SYMBOL_RTOL above the best sample, and a step that
# gains less than SYMBOL_RTOL ends the sweep.
SYMBOL_RTOL = 1e-10

# Relative distance from the imaginary axis within which an eigenvalue of
# the Hamiltonian counts as a crossing.
SYMBOL_AXIS_RTOL = 1e-8

# Degrees of the Fejer polynomials harnack_falsify tries at each unimodular
# eigenvalue of b.  Degree n refutes a constant below (n + 1) / M, where M
# bounds the Poisson symbol of a; 2048 costs about 6 ms at d = 6.
FEJER_DEGREES = tuple(16 * 2 ** k for k in range(8))


class NecessaryConditionFailsError(ValueError):
    """The pair disagrees on the kernel of the dominator's defect."""


class ZDivergesError(RuntimeError):
    """The intertwiner series failed to converge within its term budget."""


@dataclass(frozen=True)
class HarnackKernel:
    """Level-N dilation Gram matrix of a contraction (PSD by construction)."""

    level: int
    base: np.ndarray
    min_eig: float


def _powers(mat: np.ndarray, upto: int, cache: list):
    while len(cache) <= upto:
        cache.append(cache[-1] @ mat)
    return cache


def _gram(powers: list, level: int, d: int) -> np.ndarray:
    """Block Toeplitz matrix with block (m, n) = T^(n-m), adjoints below.

    One gather from the stack [T*^level, ..., T*, I, T, ..., T^level]:
    block (m, n) is entry n - m + level.
    """
    blocks = np.stack(powers[:level + 1])
    stack = np.concatenate([blocks[:0:-1].conj().transpose(0, 2, 1), blocks])
    idx = np.arange(level + 1)
    g = stack[idx[None, :] - idx[:, None] + level]
    n = (level + 1) * d
    return g.transpose(0, 2, 1, 3).reshape(n, n)


def harnack_kernel(t: Contraction, level: int,
                   tol: Tolerances = DEFAULT_TOL) -> HarnackKernel:
    """Assemble the level-N Gram matrix of t's dilation vectors."""
    if not t.is_square:
        raise ValueError("harnack_kernel expects a square contraction")
    if level < 0:
        raise ValueError("level must be nonnegative")
    d = t.dim
    powers = _powers(t.mat, level, [np.eye(d, dtype=complex)])
    g = _gram(powers, level, d)
    w = np.linalg.eigvalsh(herm(g)) if g.size else np.zeros(1)
    return HarnackKernel(level=level, base=g, min_eig=float(w[0]))


def _level_schedule(max_level: int) -> list:
    levels = []
    n = 1
    while n < max_level:
        levels.append(n)
        n = max(n + 1, int(round(n * math.sqrt(2.0))))
    levels.append(max_level)
    return levels


@dataclass(frozen=True)
class HarnackVerdict:
    """Tri-state outcome of the Harnack order, with the route that decided it.

    constants          level constants c_N^2 (nondecreasing by nesting),
                       of level 1 only unless full_trace asked for more
    levels             the levels at which they were evaluated
    witness            when not dominated: a unit y in ker D_a attaining the
                       leak, or a unit y with b y = mu y, |mu| = 1 ("fejer")
    constant_estimate  the constant when dominated, never below the last
                       level constant: 1 on a unitary pair, else the sampled
                       max_theta ||G(theta) D_a^+||^2 of the non-unitary
                       blocks, a lower bound of c^2
    kernel_floor       most negative normalized Gram eigenvalue (full_trace)
    method             "kernel-escape", "fejer", "unitary" or "symbol"; an
                       Inconclusive verdict carries "symbol"
    """

    status: str
    constants: list
    levels: list
    witness: Optional[np.ndarray]
    levels_used: int
    kernel_floor: float
    method: str
    constant_estimate: Optional[float] = None

    @property
    def dominated(self) -> bool:
        return self.status == DOMINATED


def _level_crossings(state: np.ndarray, gain: np.ndarray, out: np.ndarray,
                     feed: np.ndarray, phi: float, gamma: float) -> np.ndarray:
    """Frequencies omega at which gamma is a singular value of the transfer
    function feed + out (lambda - state)^{-1} gain at the circle point
    lambda = e^{i phi} (1 + i omega) / (1 - i omega).

    This Cayley transform sends phi to s = 0 and phi + pi to s = infinity
    and gives the continuous-time system (ac, bc, cc, dc); gamma is a
    singular value at s = i omega exactly when i omega is an eigenvalue of
    its Hamiltonian matrix (Bruinsma-Steinbuch).  rho(state) < 1 keeps
    I + e^{-i phi} state invertible; gamma must exceed ||dc||, the norm at
    -e^{i phi}, so that R = dc* dc - gamma^2 and S = dc dc* - gamma^2 are
    negative definite.  An eigenvalue s counts as imaginary when |Re s| <=
    SYMBOL_AXIS_RTOL max(1, |s|).
    """
    eye = np.eye(state.shape[0])
    rot = np.exp(-1j * phi)
    m = np.linalg.inv(eye + rot * state)
    ac = eye - 2.0 * m  # (I + rot state)^{-1} (rot state - I)
    bc = (math.sqrt(2.0) * rot) * (m @ gain)
    cc = math.sqrt(2.0) * (out @ m)
    dc = feed - rot * (out @ m @ gain)
    g2 = gamma * gamma
    bri = bc @ np.linalg.inv(dc.conj().T @ dc - g2 * np.eye(dc.shape[1]))
    s_inv = np.linalg.inv(dc @ dc.conj().T - g2 * eye)
    ham = np.block([
        [ac - bri @ dc.conj().T @ cc, -gamma * (bri @ bc.conj().T)],
        [gamma * (cc.conj().T @ s_inv @ cc), cc.conj().T @ dc @ bri.conj().T - ac.conj().T],
    ])
    s = np.linalg.eigvals(ham)
    return s.imag[np.abs(s.real) <= SYMBOL_AXIS_RTOL * np.maximum(1.0, np.abs(s))]


def _symbol_sweep(a: np.ndarray, b: np.ndarray, svd_a, svd_b, spectra: np.ndarray,
                  tol: Tolerances) -> float:
    """Constant of G(theta) = D_b (I - z b)^{-1} (I - z a), z = e^{-i theta}.

    Both spectral radii must lie below 1, where the symbol is a continuous
    function; ``spectra`` holds the eigenvalues of a and b.  G D_a^+ is the
    transfer function D + C (e^{i theta} - b)^{-1} B of the state space
    (b, (b - a) D_a^+, D_b, D_b D_a^+), so its maximum norm is an
    H-infinity norm, found by the level-set iteration of Bruinsma and
    Steinbuch (Systems & Control Letters 14, 1990).  It first samples
    SYMBOL_START equally spaced angles and the distinct angles of the
    nonzero eigenvalues in ``spectra``: a zero eigenvalue has no angle,
    and a repeated angle adds no sample.  Each sample is the top
    eigenvalue of the k x k Gram (G D_a^+)* (G D_a^+), k <= d the kept
    columns of D_a^+, one batched eigvalsh per stack.  Each step
    sends the lowest sample to the Cayley point at infinity, finds where
    the level SYMBOL_RTOL above the best sample meets a singular value
    (_level_crossings), and samples the midpoints between those angles.
    It stops when a level meets none, a step gains less than SYMBOL_RTOL,
    or after SYMBOL_STEPS steps.  Returns c2, the best sampled
    ||G D_a^+||^2, a lower bound of the maximum.  G = D_b = 0 on ker D_a,
    where level 1 found b = a.  Norms are unitarily invariant, so D_b
    enters as diag(r_b) V_b* and D_a^+ as V_r diag(1/r), from the SVDs
    ``svd_a`` of a and ``svd_b`` of b.
    """
    d = a.shape[0]
    eye = np.eye(d, dtype=complex)
    _, s_a, vh_a = svd_a
    [(r_a, keep)] = _defect_roots(s_a, tol, d)
    _, s_b, vh_b = svd_b
    [(r_b, _)] = _defect_roots(s_b, tol, d)
    pinv_cols = vh_a[keep].conj().T / r_a[keep]  # >= 1 column: a is no isometry
    left = r_b[:, None] * vh_b
    gain, feed = (b - a) @ pinv_cols, left @ pinv_cols

    def value(theta):
        """||G(theta) D_a^+||^2 at every angle."""
        lam = np.exp(1j * theta)[:, None, None]
        g = feed + left @ np.linalg.solve(lam * eye - b, gain)
        return np.linalg.eigvalsh(g.conj().transpose(0, 2, 1) @ g)[:, -1]

    angles = np.unique(np.angle(spectra[spectra != 0]))
    theta = np.concatenate([unit_circle(SYMBOL_START)[0], angles])
    c2 = value(theta)
    for _ in range(SYMBOL_STEPS):
        best = float(c2.max())
        phi = float(theta[np.argmin(c2)]) + np.pi
        omega = _level_crossings(b, gain, left, feed, phi,
                                 math.sqrt(best) * (1.0 + SYMBOL_RTOL))
        if omega.size < 2:
            break
        ends = np.sort(phi + 2.0 * np.arctan(omega))
        mids = 0.5 * (ends[1:] + ends[:-1])
        step = value(mids)
        theta, c2 = np.concatenate([theta, mids]), np.concatenate([c2, step])
        if step.max() <= best * (1.0 + SYMBOL_RTOL):
            break
    return float(c2.max())


def _decide(a: Contraction, b: Contraction, c_last: float, tol: Tolerances):
    """(status, method, witness, constant) of a pair past level 1.

    The split runs only when an eigenvalue of a lies on the circle, and
    reads a's cached unitary split; the symbol sweep then factors a_0 and
    b_0, else it reads the cached SVDs of a and b.  The Fejer witness needs
    rho(a_0) < 1, so a split that fails its certificate, or an eigenvalue
    of a_0 left on the circle, ends Inconclusive first.
    """
    a_mat, b_mat, basis = a.mat, b.mat, None
    spec_a, spec_b = np.linalg.eigvals(a_mat), np.linalg.eigvals(b_mat)
    if np.any(_on_circle(spec_a, tol)):
        try:
            rest = asymptotic_limit(a, tol).null_s
        except NoConvergenceError:
            return INCONCLUSIVE, "symbol", None, None
        if rest.dim == 0:
            return DOMINATED, "unitary", None, max(c_last, 1.0)
        basis = rest.basis
        a_mat, b_mat = compress(a_mat, rest, rest), compress(b_mat, rest, rest)
        spec_a, spec_b = np.linalg.eigvals(a_mat), np.linalg.eigvals(b_mat)
        if np.any(_on_circle(spec_a, tol)):
            return INCONCLUSIVE, "symbol", None, None
    if np.any(_on_circle(spec_b, tol)):
        values, vectors = np.linalg.eig(b_mat)
        y = vectors[:, int(np.argmax(np.abs(values)))]
        return NOT_DOMINATED, "fejer", y if basis is None else basis @ y, None
    if a_mat.shape[0] + 1 < SYMBOL_GRID:
        factors = (_factored(a), _factored(b)) if basis is None else \
            (np.linalg.svd(a_mat), np.linalg.svd(b_mat))
        c2 = _symbol_sweep(a_mat, b_mat, *factors, np.concatenate([spec_a, spec_b]), tol)
        return DOMINATED, "symbol", None, max(c2, c_last)
    return INCONCLUSIVE, "symbol", None, None


def _hierarchy(a: np.ndarray, b: np.ndarray, tol: Tolerances):
    """(constants, levels, kernel_floor) of the Gram hierarchy up to max_level,
    the audit of ``full_trace``: c_N^2 is the top eigenvalue of G_b whitened
    by G_a^{+1/2}."""
    d = a.shape[0]
    pow_a, pow_b = [np.eye(d, dtype=complex)], [np.eye(d, dtype=complex)]
    constants, levels, kernel_floor = [], [], 0.0
    for level in _level_schedule(tol.max_level):
        _powers(a, level, pow_a)
        _powers(b, level, pow_b)
        ga = _gram(pow_a, level, d)
        gb = _gram(pow_b, level, d)
        wa, va = np.linalg.eigh(herm(ga))
        wb = np.linalg.eigvalsh(herm(gb))
        kernel_floor = min(kernel_floor, float(wa[0]) / max(1.0, float(wa[-1])),
                           float(wb[0]) / max(1.0, float(wb[-1])))
        keep = wa > tol.rank_rtol * max(float(wa[-1]), 0.0)
        whiten = va[:, keep] / np.sqrt(wa[keep])
        constants.append(float(np.linalg.eigvalsh(herm(whiten.conj().T @ gb @ whiten))[-1]))
        levels.append(level)
    return constants, levels, kernel_floor


def harnack_dominates(a: Contraction, b: Contraction,
                      tol: Tolerances = DEFAULT_TOL,
                      full_trace: bool = False) -> HarnackVerdict:
    """Decide whether a Harnack-dominates b (Re p(b) <= c^2 Re p(a)).

    Step 1 of the module docstring, then _decide.  A kernel escape has as
    witness a unit y in ker D_a with ||(b - a) y|| the leak.  ``full_trace``
    replaces c_1^2 by the Gram constants of every level up to max_level;
    they never set the status.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if not a.is_square:
        raise ValueError("harnack_dominates expects square contractions")
    d = a.dim
    if d == 0:
        return HarnackVerdict(DOMINATED, [1.0], [1], None, 1, 0.0, "unitary", 1.0)

    svd = _factored(a)
    [(_, keep)] = _defect_roots(svd[1], tol, d)
    diff = b.mat - a.mat
    kernel = svd[2].conj().T[:, ~keep]  # defect_data(a).null_dt.basis
    leak, bound = _kernel_leak(diff, kernel)
    if leak > bound:
        _, _, vh = np.linalg.svd(diff @ kernel, full_matrices=False)
        return HarnackVerdict(NOT_DOMINATED, [], [], kernel @ vh[0].conj(), 1, 0.0,
                              "kernel-escape")
    if full_trace:
        constants, levels, kernel_floor = _hierarchy(a.mat, b.mat, tol)
    else:
        (whitened,) = _whitened(svd[1], keep, svd[0].conj().T @ diff @ svd[2].conj().T)
        constants = [1.0 + float(np.linalg.eigvalsh(whitened + whitened.conj().T)[-1])]
        levels, kernel_floor = [1], 0.0

    status, method, witness, estimate = _decide(a, b, constants[-1], tol)
    return HarnackVerdict(status, constants, levels, witness, levels[-1],
                          kernel_floor, method, estimate)


@dataclass(frozen=True)
class HarnackEquivalence:
    """status: "equivalent" or "not_equivalent", never inconclusive; each
    direction's constant and witness is :func:`harnack_dominates`."""

    status: str


def harnack_equivalence(a: Contraction, b: Contraction,
                        tol: Tolerances = DEFAULT_TOL) -> HarnackEquivalence:
    """Harnack equivalence by the chart decision: a square contraction is
    W (+) C in its defect chart, its part is that of the partial isometry
    W (+) 0, and there the Harnack and Shmul'yan parts coincide (the
    paper's theorem).  So the pair is equivalent exactly when both leak
    tests of ``shmulyan_equivalent`` pass, at any dimension."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if not a.is_square:
        raise ValueError("harnack_equivalence expects square contractions")
    return HarnackEquivalence("equivalent" if _chart_equivalent(a, b, tol) else "not_equivalent")


def positive_real_sample(degree: int, seed: int) -> np.ndarray:
    """Random polynomial with nonnegative real part on the closed disc.

    Draws q of the given degree and returns the analytic completion of the
    boundary density |q|^2: p(z) = w(0) + 2 sum_k w(k) z^k with w the
    autocorrelation of q's coefficients, so Re p = |q|^2 >= 0 on the
    circle and hence on the disc.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs = np.zeros(degree + 1, dtype=complex)
    for k in range(degree + 1):
        acc = 0.0 + 0.0j
        for j in range(degree + 1 - k):
            acc += np.conj(q[j]) * q[j + k]
        coeffs[k] = acc if k else acc.real
    coeffs[1:] *= 2.0
    return coeffs


def fejer_polynomial(mu: complex, n: int) -> np.ndarray:
    """Coefficients of p_n(z) = 1 + 2 sum_{k=1..n} (1 - k/(n+1)) (conj(u) z)^k, u = mu/|mu|.

    Re p_n(e^{i theta}) is the Fejer kernel of order n at theta - arg mu,
    which is nonnegative, so p_n is positive-real.  For b y = mu y with
    |mu| = 1 and ||y|| = 1, <Re p_n(b) y, y> = p_n(mu) = n + 1.
    """
    k = np.arange(n + 1)
    coeffs = 2.0 * (1.0 - k / (n + 1.0)) * (np.conj(mu) / abs(mu)) ** k
    coeffs[0] = 1.0
    return coeffs


def real_part_at(coeffs: np.ndarray, m) -> np.ndarray:
    """Hermitian part of p(M) for a coefficient list p."""
    mat = np.asarray(m, dtype=complex)
    if mat.ndim == 0:
        mat = mat.reshape(1, 1)
    acc = np.zeros_like(mat)
    power = np.eye(mat.shape[0], dtype=complex)
    for c in coeffs:
        acc = acc + c * power
        power = power @ mat
    return herm(acc)


@dataclass(frozen=True)
class Counterexample:
    coeffs: np.ndarray
    lam_min: float


def harnack_falsify(a: Contraction, b: Contraction, c: float,
                    degrees=(1, 2, 3, 4), trials: int = 200,
                    tol: Tolerances = DEFAULT_TOL,
                    seed: int = 0) -> Optional[Counterexample]:
    """Search for a positive-real polynomial violating Re p(b) <= c Re p(a).

    Tries first the Fejer polynomial of each degree in FEJER_DEGREES at
    each unimodular eigenvalue of b, then ``trials`` random polynomials of
    the given degrees.  Returns the first counterexample found or None.  A
    Dominated verdict with constant c^2 must survive falsification at any
    c above c^2.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if c < 1.0:
        raise ValueError("the domination constant is at least 1")
    spec_b = np.linalg.eigvals(b.mat)
    for coeffs in itertools.chain(
            (fejer_polynomial(mu, n) for mu in spec_b[_on_circle(spec_b, tol)]
             for n in FEJER_DEGREES),
            (positive_real_sample(degrees[i % len(degrees)], seed + i)
             for i in range(trials))):
        gap = c * real_part_at(coeffs, a.mat) - real_part_at(coeffs, b.mat)
        lam = float(np.linalg.eigvalsh(gap)[0])
        if lam < -tol.psd_atol * max(1.0, op_norm(gap)):
            return Counterexample(coeffs=coeffs, lam_min=lam)
    return None


@dataclass(frozen=True)
class IntertwinerData:
    """Factorizations attached to "t dominated by t_prime".

    b0 solves t - t' = B0 D_{t'}; z_partial accumulates the series
    sum_n T^n B0 B0* T*^n; when the series converges and commutes with
    T T*, w solves B0 = D_{T*} W and t = t' + D_{T*} W D_{t'} holds.
    residual_b0 is the leak of t - t' onto N(D_{t'}).
    """

    b0: np.ndarray
    z_partial: np.ndarray
    z_converged: bool
    z_commutes: bool
    w: Optional[np.ndarray]
    residual_b0: float
    residual_w: Optional[float]
    terms: int


def intertwiner_data(t: Contraction, t_prime: Contraction,
                     tol: Tolerances = DEFAULT_TOL) -> IntertwinerData:
    """Extract B0, the series Z, and (when possible) the defect factor W.

    B0 = (t - t') D_{t'}^+ solves t - t' = B0 D_{t'} exactly when t = t' on
    N(D_{t'}), checked first by segments._kernel_leak; W = D_{t*}^+ B0
    solves B0 = D_{t*} W exactly when B0* does not leak onto N(D_{t*}).
    """
    if t.shape != t_prime.shape or not t.is_square:
        raise ShapeMismatchError("intertwiner_data expects equal square shapes")
    dd_p = defect_data(t_prime, tol)
    dd_t = defect_data(t, tol)
    diff = t.mat - t_prime.mat
    leak, bound = _kernel_leak(diff, dd_p.null_dt.basis)
    if leak > bound:
        raise NecessaryConditionFailsError(
            f"t differs from t' on the defect kernel of t' "
            f"(leak {leak:.3e} > {bound:.3e})")
    b0 = diff @ dd_p.d_t_pinv

    term = b0 @ b0.conj().T
    z = term.copy()
    budget = 2 * tol.max_level
    converged = False
    terms = 1
    for _ in range(budget):
        term = t.mat @ term @ t.mat.conj().T
        z = z + term
        terms += 1
        if op_norm(term) < tol.conv_tol * max(1.0, op_norm(z)):
            converged = True
            break
    if not converged:
        raise ZDivergesError(
            f"series tail still {op_norm(term):.3e} after {terms} terms")

    tts = t.mat @ t.mat.conj().T
    z_commutes = op_norm(z @ tts - tts @ z) <= 1e-8 * max(1.0, op_norm(z))

    w = None
    residual_w = None
    if z_commutes:
        leak_w, bound_w = _kernel_leak(b0.conj().T, dd_t.null_dtstar.basis)
        if leak_w <= bound_w:
            w = dd_t.d_tstar_pinv @ b0
            residual_w = op_norm(diff - dd_t.d_tstar @ w @ dd_p.d_t)
    return IntertwinerData(
        b0=b0,
        z_partial=z,
        z_converged=converged,
        z_commutes=z_commutes,
        w=w,
        residual_b0=leak,
        residual_w=residual_w,
        terms=terms,
    )


@dataclass(frozen=True)
class PipelineReport:
    """Joint evaluation of the equivalent characterizations for a pair.

    Under the quasi-normal commutation hypotheses, domination of t by
    t_prime, Harnack equivalence, Shmul'yan equivalence, the analytic-arc
    statement, and the intertwiner factorization all coincide.
    """

    hypotheses: dict
    statements: dict
    details: dict
    consistent: bool


def quasi_normal_equivalence_report(t: Contraction, t_prime: Contraction,
                                    tol: Tolerances = DEFAULT_TOL,
                                    witness_arc: bool = False) -> PipelineReport:
    """Evaluate the equivalence pipeline for (t, t_prime).

    Hypotheses: t* quasi-normal, t commutes with t' and with t'*t', and
    t' commutes with t t*.  Statements: (domination of t by t'), Harnack
    equivalence, Shmul'yan equivalence, intertwiner with W, and optionally
    an explicit connecting arc.  The Harnack statements read
    ``harnack_dominates`` both ways, independently of the Shmul'yan one,
    which is the chart decision of two leak tests.  A Harnack statement
    holds only on a Dominated verdict; the rare Inconclusive one (an
    eigenvalue of the completely non-unitary part left on the circle, or
    d >= 127) reads as false, like NotDominated.
    """
    if t.shape != t_prime.shape or not t.is_square:
        raise ShapeMismatchError("pipeline expects equal square shapes")
    tm, pm = t.mat, t_prime.mat
    res = 1e-8

    def ok(mat, scale=1.0):
        return op_norm(mat) <= res * max(1.0, scale)

    ts = tm.conj().T
    hypotheses = {
        "adjoint_quasi_normal": ok(ts @ (tm @ ts) - (tm @ ts) @ ts),
        "commute": ok(tm @ pm - pm @ tm),
        "t_commutes_gram_of_prime": ok(
            tm @ (pm.conj().T @ pm) - (pm.conj().T @ pm) @ tm),
        "prime_commutes_cogram_of_t": ok(
            pm @ (tm @ ts) - (tm @ ts) @ pm),
    }

    fwd = harnack_dominates(t_prime, t, tol)   # t dominated by t'
    bwd = harnack_dominates(t, t_prime, tol)   # t' dominated by t

    intertwiner_ok = False
    intertwiner_residual = None
    try:
        data = intertwiner_data(t, t_prime, tol)
        intertwiner_ok = data.w is not None and data.residual_w is not None \
            and data.residual_w <= res
        intertwiner_residual = data.residual_w
    except (NecessaryConditionFailsError, ZDivergesError):
        pass

    statements = {
        "harnack_dominated": fwd.status == DOMINATED,
        "harnack_equivalent": fwd.status == DOMINATED and bwd.status == DOMINATED,
        "shmulyan_equivalent": _chart_equivalent(t, t_prime, tol),
        "intertwiner": intertwiner_ok,
    }
    details: dict = {
        "forward_status": fwd.status,
        "backward_status": bwd.status,
        "intertwiner_residual": intertwiner_residual,
    }
    if witness_arc:
        from .schur import connect_arc
        arc = connect_arc(t, t_prime, tol)
        statements["arc"] = arc.status == "connected"
        details["arc_status"] = arc.status

    flags = set(statements.values())
    return PipelineReport(
        hypotheses=hypotheses,
        statements=statements,
        details=details,
        consistent=len(flags) == 1,
    )
