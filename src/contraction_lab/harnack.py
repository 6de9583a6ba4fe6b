"""Harnack domination via the dilation Gram hierarchy and its symbol.

A contraction t' is Harnack dominated by t with constant c^2 exactly when
<G_{t'} x, x> <= c^2 <G_t x, x> holds at every level of the nested block
Gram matrices G (block (m, n) = T^(n-m) for n >= m, adjoint below), the
Gram matrices of the minimal isometric dilation vectors.  Finite levels
certify failure exactly (a kernel vector of G_t escaping the kernel of
G_{t'}).  The Gram matrices are sections of a block Toeplitz operator,
which is PSD exactly when its symbol is; when both spectral radii are
below 1 the symbol is continuous and decides success on the circle: t
dominates t' when D_{t'} (I - z t')^{-1} (I - z t) vanishes on ker D_t
at more than d + 1 angles, and the reported constant is a sampled maximum,
a lower bound of c^2, not a certified upper bound.  Pairs with an
eigenvalue on the unit circle keep the hierarchy, where Dominated rests on
a converged or extrapolated constant trace, an estimate rather than a
proof.  The verdict is honestly tri-state.

Direction convention, used consistently across this module:
``harnack_dominates(a, b)`` asks whether **a dominates b**, and
``harnack_falsify(a, b, c)`` hunts for a positive-real polynomial with
Re p(b) <= c Re p(a) violated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .contraction import Contraction, defect_data
from .linalg import (
    DEFAULT_TOL,
    DouglasInfeasibleError,
    ShapeMismatchError,
    Tolerances,
    _psd_eigh,
    douglas_solve,
    herm,
    op_norm,
)
from .segments import unit_circle

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

# Relative plateau width over the last three evaluated levels below which
# the constant trace counts as converged.  Extreme eigenvalues of block
# Toeplitz sections approach their limits only polynomially in the level,
# so a tighter plateau would starve every strict pair of its verdict.
PLATEAU_RTOL = 1e-3

# Agreement threshold for the Richardson extrapolates of the constant
# trace.  1/c_N is close to linear in 1/(N+2)^2 for rational symbols, so
# stable extrapolates certify convergence long before the raw trace
# plateaus.  Diverging traces miss this by an order of magnitude: linear
# growth disagrees by ~15%, even logarithmic growth by ~3%.
EXTRAPOLATION_RTOL = 2e-2

# Points of the uniform theta grid of the symbol sweep.  The leak is a
# rational function whose numerator has degree at most d, so the symbol
# route serves d + 1 < SYMBOL_GRID; a finer grid costs more than it finds,
# because the eigen-angles and the refinement place the maximum.
SYMBOL_GRID = 128

# Golden-section steps around each of the two best sweep points; each
# step shrinks the bracket (two grid spacings wide) by 0.618.
SYMBOL_REFINE_STEPS = 24


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

    constants          level constants c_N^2 (nondecreasing by nesting)
    levels             the levels at which they were evaluated
    witness            kernel-escape certificate when not dominated
    constant_estimate  the constant when dominated: on the symbol route the
                       largest sampled max_theta ||G(theta) D_a^+||^2, a
                       lower bound of c^2 that is never below the last level
                       constant; on the hierarchy route an extrapolated
                       limit of the level trace
    kernel_floor       most negative normalized Gram eigenvalue seen
    method             "kernel-escape", "symbol" or "hierarchy"
    """

    status: str
    constants: list
    levels: list
    witness: Optional[np.ndarray]
    levels_used: int
    kernel_floor: float
    constant_estimate: Optional[float] = None
    method: str = "hierarchy"

    @property
    def dominated(self) -> bool:
        return self.status == DOMINATED


def _extrapolate(levels: list, constants: list) -> Optional[float]:
    """Limit estimate from extrapolating the reciprocal constant trace.

    1/c_N behaves like u_inf + b/(N+2)^2 (+ higher order) for rational
    symbols.  Convergence is declared when either the linear extrapolates
    of the last two windows agree, or the exact quadratic three-point
    extrapolate agrees with the freshest linear one; linearly diverging
    traces fail both tests at every window.
    """
    if len(constants) < 3:
        return None
    c1, c2, c3 = constants[-3:]
    if min(c1, c2, c3) <= 0:
        return None
    # plain plateau over four entries (three can stair-step at low levels)
    if len(constants) >= 4 and abs(c3 - constants[-4]) <= PLATEAU_RTOL * max(c3, 1.0):
        return c3
    x1, x2, x3 = [1.0 / (n + 2.0) ** 2 for n in levels[-3:]]
    u1, u2, u3 = 1.0 / c1, 1.0 / c2, 1.0 / c3

    def linear(ua, xa, ub, xb):
        slope = (ua - ub) / (xa - xb)
        return ub - slope * xb

    lim12 = linear(u1, x1, u2, x2)
    lim23 = linear(u2, x2, u3, x3)
    if lim23 <= 0:
        return None
    e23 = 1.0 / lim23
    if lim12 > 0 and abs(1.0 / lim12 - e23) <= EXTRAPOLATION_RTOL * max(e23, 1.0):
        return max(e23, c3)
    quad = (u1 * x2 * x3 / ((x1 - x2) * (x1 - x3))
            + u2 * x1 * x3 / ((x2 - x1) * (x2 - x3))
            + u3 * x1 * x2 / ((x3 - x1) * (x3 - x2)))
    if quad > 0:
        eq = 1.0 / quad
        if eq <= 100.0 * c3 and abs(eq - e23) <= EXTRAPOLATION_RTOL * max(eq, 1.0):
            return max(eq, c3)
    return None


def _symbol_sweep(a: Contraction, b: Contraction, tol: Tolerances):
    """Leak and constant of G(theta) = D_b (I - z b)^{-1} (I - z a), z = e^{-i theta}.

    Returns None unless both spectral radii are below 1, where the symbol
    is a continuous function.  An eigenvalue with 1 - |lambda|^2 <=
    psd_atol has an eigenvector that the psd_sqrt clamp puts in the kernel
    of the defect: it counts as on the circle, where the symbol is a
    measure and the hierarchy decides.  Otherwise returns (leak, c2): the
    sweep points are the uniform grid plus the eigen-angles of a and b,
    leak = max ||G K|| over them, K = ker D_a, and c2 = max ||G D_a^+||^2
    over them and a golden-section search around the two best of them.
    G K is a rational function whose numerator D_b adj(I - z b)(I - z a) K
    has degree at most d in z, so it vanishes identically when it vanishes
    on the SYMBOL_GRID > d + 1 grid points.  Level 1 escapes exactly when
    b differs from a on K; otherwise (I - z a) K = (I - z b) K and
    G K = D_b K = 0, so after level 1 the leak is a check on rounding.
    Norms are unitarily invariant,
    so D_b enters as diag(sqrt w_b) V_b* and D_a^+ as its range part
    V_r diag(1/sqrt w_r), each from one clamped eigendecomposition.
    """
    d = a.dim
    spectra = np.concatenate([np.linalg.eigvals(a.mat), np.linalg.eigvals(b.mat)])
    if d + 1 >= SYMBOL_GRID or 1.0 - float(np.max(np.abs(spectra))) ** 2 <= tol.psd_atol:
        return None
    eye = np.eye(d, dtype=complex)
    wa, va = _psd_eigh(eye - a.mat.conj().T @ a.mat, tol)
    wb, vb = _psd_eigh(eye - b.mat.conj().T @ b.mat, tol)
    kernel = wa == 0.0
    pinv_cols = va[:, ~kernel] / np.sqrt(wa[~kernel])
    left = np.sqrt(wb)[:, None] * vb.conj().T

    def symbol(theta, cols):
        """G(theta) @ cols for every angle, stacked."""
        z = np.exp(-1j * theta)[:, None, None]
        return left @ np.linalg.solve(eye - z * b.mat, cols - z * (a.mat @ cols))

    def top_sv(stack):
        return np.linalg.svd(stack, compute_uv=False)[:, 0]

    grid, _ = unit_circle(SYMBOL_GRID)
    theta = np.concatenate([grid, np.mod(np.angle(spectra), 2.0 * np.pi)])
    g = symbol(theta, np.concatenate([pinv_cols, va[:, kernel]], axis=1))
    rank = pinv_cols.shape[1]  # >= 1: below the gate a is no isometry
    c2 = top_sv(g[:, :, :rank]) ** 2
    leak = float(top_sv(g[:, :, rank:]).max()) if rank < d else 0.0

    def value(x):
        return top_sv(symbol(x, pinv_cols)) ** 2

    best = float(c2.max())
    # golden-section search on [t - h, t + h] around the two best points
    h = 2.0 * np.pi / SYMBOL_GRID
    lo = theta[np.argsort(c2)[-2:]] - h
    hi = lo + 2.0 * h
    ratio = 0.5 * (math.sqrt(5.0) - 1.0)
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = value(x1), value(x2)
    for _ in range(SYMBOL_REFINE_STEPS):
        best = max(best, float(f1.max()), float(f2.max()))
        right = f1 < f2  # the maximum lies in [x1, hi]
        lo, hi = np.where(right, x1, lo), np.where(right, hi, x2)
        x1, x2 = np.where(right, x2, hi - ratio * (hi - lo)), \
            np.where(right, lo + ratio * (hi - lo), x1)
        fnew = value(np.where(right, x2, x1))
        f1, f2 = np.where(right, f2, fnew), np.where(right, fnew, f1)
    best = max(best, float(f1.max()), float(f2.max()))
    return leak, best


def _no_leak(leak: float, c2: float, tol: Tolerances) -> bool:
    """G vanishes on ker D_a up to the clamp scale of D_a.

    A kernel vector x of D_a has ||D_a x|| <= sqrt(psd_atol), so on a
    dominated pair ||G x|| is at most sqrt(psd_atol) times sup ||G D_a^+||.
    """
    return leak <= math.sqrt(tol.psd_atol) * math.sqrt(max(c2, 1.0))


def harnack_dominates(a: Contraction, b: Contraction,
                      tol: Tolerances = DEFAULT_TOL,
                      full_trace: bool = False) -> HarnackVerdict:
    """Decide whether a Harnack-dominates b (Re p(b) <= c^2 Re p(a)).

    Level 1 of the hierarchy runs first: whiten by the pseudoinverse
    square root of G_a and take the top eigenvalue of the whitened G_b as
    c_N^2; a kernel vector of G_a with Rayleigh ratio beyond big_ratio
    certifies NotDominated exactly (method "kernel-escape").  When both
    spectral radii are below 1 the symbol decides next: the Gram
    hierarchy is a family of sections of the block Toeplitz operator with
    symbol P_T = (I - zT)^{-*} D_T^2 (I - zT)^{-1}, and a block Toeplitz
    operator is PSD exactly when its symbol is (Boettcher-Silbermann), so
    a dominates b exactly when G(theta) vanishes on ker D_a (see
    _symbol_sweep), with c^2 = sup ||G D_a^+||^2 (method "symbol").  All
    other pairs, and pairs whose symbol leaks, climb the hierarchy:
    converged constants give Dominated (never after a leak), exhausting
    max_level without either is Inconclusive (method "hierarchy").
    ``full_trace`` suppresses the early exits so the constant trace
    reaches max_level; the symbol still decides the status.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if not a.is_square:
        raise ValueError("harnack_dominates expects square contractions")
    d = a.dim
    if d == 0:
        return HarnackVerdict(DOMINATED, [1.0], [1], None, 1, 0.0)

    pow_a = [np.eye(d, dtype=complex)]
    pow_b = [np.eye(d, dtype=complex)]
    constants: list = []
    levels: list = []
    kernel_floor = 0.0
    symbol = None      # (leak, c2) of the sweep, when both radii are below 1
    symbol_c2 = None   # its constant, when G vanishes on ker D_a

    def verdict(status, **kw):
        return HarnackVerdict(status=status, constants=constants, levels=levels,
                              kernel_floor=kernel_floor, **kw)

    for level in _level_schedule(tol.max_level):
        _powers(a.mat, level, pow_a)
        _powers(b.mat, level, pow_b)
        ga = _gram(pow_a, level, d)
        gb = _gram(pow_b, level, d)
        wa, va = np.linalg.eigh(herm(ga))
        wb = np.linalg.eigvalsh(herm(gb))
        wb_max = float(wb[-1])
        scale = float(wa[-1])
        kernel_floor = min(kernel_floor,
                           float(wa[0]) / max(1.0, scale),
                           float(wb[0]) / max(1.0, wb_max))
        cut = tol.rank_rtol * max(scale, 0.0)
        keep = wa > cut

        if not np.all(keep):
            kernel_vecs = va[:, ~keep]
            esc = herm(kernel_vecs.conj().T @ gb @ kernel_vecs)
            ew, ev = np.linalg.eigh(esc)
            rb = float(ew[-1])
            cand = kernel_vecs @ ev[:, -1]
            ra = float(np.real(cand.conj() @ (ga @ cand)))
            if rb > tol.big_ratio * max(ra, 0.0) and rb > 1e-12 * max(1.0, wb_max):
                return verdict(NOT_DOMINATED, witness=cand / np.linalg.norm(cand),
                               levels_used=level, method="kernel-escape")

        inv_sqrt = np.where(keep, 1.0 / np.sqrt(np.maximum(wa, 1e-300)), 0.0)
        whiten = va * inv_sqrt
        m = herm(whiten.conj().T @ gb @ whiten)
        c2 = float(np.linalg.eigvalsh(m)[-1])
        constants.append(c2)
        levels.append(level)

        if level == 1:
            symbol = _symbol_sweep(a, b, tol)
            if symbol is not None and _no_leak(*symbol, tol):
                symbol_c2 = symbol[1]
        if symbol_c2 is not None and not full_trace:
            return verdict(DOMINATED, witness=None, levels_used=level,
                           constant_estimate=max(symbol_c2, c2), method="symbol")

        estimate = _extrapolate(levels, constants)
        if estimate is not None and symbol is None and not full_trace:
            return verdict(DOMINATED, witness=None, levels_used=level,
                           constant_estimate=estimate)

    if symbol_c2 is not None:
        return verdict(DOMINATED, witness=None, levels_used=levels[-1],
                       constant_estimate=max(symbol_c2, constants[-1]),
                       method="symbol")
    estimate = None if symbol is not None else _extrapolate(levels, constants)
    return verdict(DOMINATED if estimate is not None else INCONCLUSIVE,
                   witness=None, levels_used=levels[-1] if levels else 0,
                   constant_estimate=estimate)


@dataclass(frozen=True)
class HarnackEquivalence:
    status: str  # "equivalent" | "not_equivalent" | "inconclusive"
    forward: HarnackVerdict   # does a dominate b
    backward: HarnackVerdict  # does b dominate a


def harnack_equivalence(a: Contraction, b: Contraction,
                        tol: Tolerances = DEFAULT_TOL) -> HarnackEquivalence:
    fwd = harnack_dominates(a, b, tol)
    bwd = harnack_dominates(b, a, tol)
    if fwd.status == DOMINATED and bwd.status == DOMINATED:
        status = "equivalent"
    elif fwd.status == NOT_DOMINATED or bwd.status == NOT_DOMINATED:
        status = "not_equivalent"
    else:
        status = "inconclusive"
    return HarnackEquivalence(status=status, forward=fwd, backward=bwd)


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

    Returns the first counterexample found or None.  A Dominated verdict
    with constant c^2 must survive falsification at any c above c^2.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    if c < 1.0:
        raise ValueError("the domination constant is at least 1")
    for i in range(trials):
        degree = degrees[i % len(degrees)]
        coeffs = positive_real_sample(degree, seed + i)
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

    The necessary condition t = t' on N(D_{t'}) is checked first: it is
    exactly the feasibility of the Douglas solve defining B0.
    """
    if t.shape != t_prime.shape or not t.is_square:
        raise ShapeMismatchError("intertwiner_data expects equal square shapes")
    dd_p = defect_data(t_prime, tol)
    dd_t = defect_data(t, tol)
    diff = t.mat - t_prime.mat
    try:
        sol = douglas_solve(diff, dd_p.d_t, "right", tol)
    except DouglasInfeasibleError as exc:
        raise NecessaryConditionFailsError(
            f"t differs from t' on the defect kernel of t' "
            f"(residual {exc.residual:.3e})") from exc
    b0 = sol.x

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
        try:
            wsol = douglas_solve(b0, dd_t.d_tstar, "left", tol)
        except DouglasInfeasibleError:
            wsol = None
        if wsol is not None:
            w = wsol.x
            residual_w = op_norm(diff - dd_t.d_tstar @ w @ dd_p.d_t)
    return IntertwinerData(
        b0=b0,
        z_partial=z,
        z_converged=converged,
        z_commutes=z_commutes,
        w=w,
        residual_b0=sol.residual,
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
    an explicit connecting arc.  Inconclusive Harnack verdicts count as
    not-dominated for the agreement flag.
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

    from .shmulyan import shmulyan_equivalent

    fwd = harnack_dominates(t_prime, t, tol)   # t dominated by t'
    bwd = harnack_dominates(t, t_prime, tol)   # t' dominated by t
    equiv = shmulyan_equivalent(t, t_prime, tol)

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
        "shmulyan_equivalent": equiv.equivalent,
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
