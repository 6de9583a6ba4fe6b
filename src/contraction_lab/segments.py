"""Matrix polynomials on circles, circle maxima and segment radii.

Every evaluation of a matrix polynomial F(lam) = sum coeffs[k] lam^k in
the library runs here: ``poly_norms`` evaluates the norm at an array of
points with one batched SVD (one vector norm over the stack when F has a
single row or column), ``poly_value`` evaluates F at one point, and
``unit_circle`` builds the equally spaced sampling grid.

For contractions a, b the function eps -> ||(1-eps)a + eps b|| is
subharmonic, so its maximum over a disc |eps| <= r is attained on the
circle |eps| = r and is nondecreasing in r.  Two radii of such discs are
computed here.  ``proven_radius`` is a proven lower bound of the largest
one, from the whitened numerical radius: ||c + eps u|| <= 1 on |eps| <= r
exactly when P + eps N + conj(eps) N* >= 0 with P = [[I, c], [c*, I]] and
N = [[0, u], [0, 0]]; a small leak of N onto ker P is charged to the
slack.  ``_kernel_leak``, the one test of a leak onto isometric directions,
decides the disc, the Shmul'yan order and Harnack level 1.  The Shmul'yan
segment route (the verdict's ``radius``) reads ``proven_radius`` from the
dominator's cached SVD.  ``radius_search`` brackets and bisects the radius
over ``circle_max_norm``, which looks only at sampled points of the
circles, so its radius is a sampled estimate: the circle may leave the
ball between two samples.  The library does not call it; it stays for the
benchmark tracer, which requires its bindings.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, _defect_roots, as_matrix, op_norm

__all__ = ["circle_max_norm", "proven_radius", "radius_search"]

# Smallest radius radius_search tries; escaping at it means no segment.
RADIUS_FLOOR = 1e-6
# Radius beyond which a segment counts as unbounded.
RADIUS_CAP = 1e8
# Relative accuracy of the radius bisection.
RADIUS_RTOL = 1e-8
# Angles of the numerical-radius grid of proven_radius; the grid maximum is
# within a factor cos(pi / 256) = 1 - 7.5e-5 of the numerical radius.
RADIUS_ANGLES = 256
# At most this many matrix entries per eigvalsh stack of the numerical-radius
# grid (1 MB of complex floats): all 128 angles in one stack up to size 22,
# eight stacks of 16 at size 64 (d = 32).
EIG_BATCH_ENTRIES = 65536
# A difference leaks onto an isometric kernel above LEAK_RTOL * max(1,
# ||difference||) (see _kernel_leak); the Shmul'yan audit routes import it
# as ROUTE_RTOL for their residuals.  Matrices live in the unit ball, so
# an absolute scale of 1e-8 matches the block identities used elsewhere.
LEAK_RTOL = 1e-8


def unit_circle(samples: int):
    """Angles theta_k = 2 pi k / samples and the points e^{i theta_k}."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return theta, np.exp(1j * theta)


def poly_norms(coeffs, points) -> np.ndarray:
    """||F(p)|| for every p in ``points``: the top singular value of each
    F(p) in one stack, the Euclidean norm for a single row or column (no
    SVD), and 0 for empty F."""
    if coeffs[0].size == 0:
        return np.zeros(points.shape)
    stack = np.broadcast_to(coeffs[0], points.shape + coeffs[0].shape)
    z = points
    for c in coeffs[1:]:
        term = z[:, None, None] * c
        term += stack  # the floats of stack + term, without a third array
        stack = term
        z = z * points
    if min(stack.shape[-2:]) == 1:
        return np.linalg.norm(stack, axis=(-2, -1))
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def poly_value(coeffs, lam: complex) -> np.ndarray:
    """F(lam) at one point, by the running power of lam."""
    acc = np.zeros(coeffs[0].shape, dtype=complex)
    z = 1.0 + 0.0j
    for c in coeffs:
        acc = acc + z * c
        z *= lam
    return acc


def circle_max_norm(center, direction, r: float, samples: int) -> float:
    """max over the sampled |eps| = r of ||center + eps * direction||."""
    _, lam = unit_circle(samples)
    coeffs = (as_matrix(center), as_matrix(direction))
    return float(poly_norms(coeffs, r * lam).max())


def radius_search(center, direction, slack: float, samples: int = 128) -> float:
    """Largest r whose sampled circle |eps| = r (:func:`circle_max_norm`)
    stays within 1 + slack.

    The radii RADIUS_FLOOR * 4^j bracket the first radius that is not
    inside, and bisection refines it to relative accuracy RADIUS_RTOL.
    0.0 when even RADIUS_FLOOR escapes, math.inf when the direction is
    negligible or every bracket radius up to RADIUS_CAP is inside.  The
    circle through the returned radius can leave the ball between samples.
    """
    c = as_matrix(center)
    u = as_matrix(direction)
    limit = 1.0 + slack
    if op_norm(u) <= 1e-14 * max(1.0, op_norm(c)):
        return math.inf

    def inside(r):
        return circle_max_norm(c, u, r, samples) <= limit

    if not inside(RADIUS_FLOOR):
        return 0.0
    lo = hi = RADIUS_FLOOR
    while hi < RADIUS_CAP:
        lo, hi = hi, hi * 4.0
        if not inside(hi):
            break
    else:
        return math.inf
    for _ in range(80):
        if hi - lo <= RADIUS_RTOL * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _kernel_leak(diff, k_in, k_out=None):
    """(leak, bound), leak = max(||diff K_in||, ||diff* K_out||) for the
    orthonormal bases K of ker D_a and ker D_{a*} (no K_out: one-sided);
    b = a + diff leaks onto them above bound = LEAK_RTOL * max(1, ||diff||).
    """
    leak = op_norm(diff @ k_in)
    if k_out is not None:
        leak = max(leak, op_norm(diff.conj().T @ k_out))
    return leak, LEAK_RTOL * max(1.0, op_norm(diff))


def _whitened(s, keep, *mids) -> list:
    """W_top* mid W_bottom of each mid; for M = U* u V, A = P^{+1/2} N P^{+1/2} on
    the range of P = [[I, c], [c*, I]], N = [[0, u], [0, 0]], c = U S V*.

    P has the eigenvalues 1 +- s_i on [u_i; +-v_i] / sqrt(2), 1 on [u_j; 0]
    or [0; v_j] past min(rows, cols), and the pairs outside ``keep`` as its
    kernel.  So whitened eigenvectors e, f give e* N f = w_top(e)
    M[i(e), j(f)] w_bottom(f).  As sum_e w_bottom(e) w_top(e) is E_i =
    1 / (2 (1 + s_i)) - [i kept] / (2 (1 - s_i)), A^2 is W_top* M E M W_bottom.
    """
    (m, n), k = mids[0].shape, s.size
    pairs = np.arange(k)
    plus = np.sqrt(0.5 / (1.0 + s))
    minus = np.sqrt(0.5 / (1.0 - s[keep]))
    top = np.concatenate([pairs, pairs[keep], np.arange(k, m), np.zeros(n - k, int)])
    top_w = np.concatenate([plus, minus, np.ones(m - k), np.zeros(n - k)])
    bottom = np.concatenate([pairs, pairs[keep], np.zeros(m - k, int), np.arange(k, n)])
    bottom_w = np.concatenate([plus, -minus, np.zeros(m - k), np.ones(n - k)])
    gather = np.ix_(top, bottom)
    return [top_w[:, None] * mid[gather] * bottom_w for mid in mids]


def _whitened_disc(center, direction, tol: Tolerances = DEFAULT_TOL):
    """(omega, overshoot, leak) with ||c + eps u|| <= 1 + overshoot + 4 |eps| leak
    on the whole disc |eps| <= 1 / omega; omega is inf when there is no disc.

    With P = [[I, c], [c*, I]] and N = [[0, u], [0, 0]], ||c + eps u|| <=
    1 + delta exactly when P + delta I + eps N + conj(eps) N* >= 0.  One SVD
    of c gives the eigenpairs of P (see _whitened); the pairs whose defect
    root falls under the one rank cut of linalg._defect_roots form its
    kernel K, the rest its range R.  overshoot = max(0, s_0 - 1); past
    psd_atol omega is inf.
    As K holds [u_i; -v_i] / sqrt(2), leak = _kernel_leak(u, V_K, U_K) /
    sqrt(2) bounds the K-K and R-K blocks of N and N*; when _kernel_leak
    finds a leak (the not-dominated case) omega is inf.  On R, with A =
    P^{+1/2} N P^{+1/2}, the R-R block stays >= 0 on |eps| <= 1 / (2 w(A)),
    w the numerical radius; the other blocks cost at most overshoot +
    4 |eps| leak.  omega = 2 w_upper, with w(A) bounded from above twice:
    - on RADIUS_ANGLES angles theta_k, f(theta) = lambda_max(Re(e^{i theta}
      A)) is a maximum of sinusoids x* Re(e^{i theta} A) x of amplitude at
      most w(A), and the one of the maximizing x reaches w(A); so the
      grid angle nearest its peak sees at least w(A) cos(pi / M).  Since
      f(theta + pi) = -lambda_min(Re(e^{i theta} A)), M angles cost M/2
      eigvalsh, batched EIG_BATCH_ENTRIES matrix entries at a time;
    - Kittaneh's w(A) <= (||A|| + ||A^2||^{1/2}) / 2 (Studia Math. 158,
      2003), exact when A^2 = 0, as on flat partial-isometry segments (A^2
      from _whitened, not the rounded A A).
    The smaller one plus 4 m eps ||A|| for the rounding of the m x m
    eigenproblems is w_upper.
    """
    return _factored_disc(np.linalg.svd(as_matrix(center)), as_matrix(direction), tol)


def _factored_disc(factors, u, tol: Tolerances, kernel_leak=None):
    """:func:`_whitened_disc` of the center whose full SVD is ``factors``
    (u, s, vh), such as a contraction's cached ``contraction._factored``.
    ``kernel_leak`` is the (leak, bound) of :func:`_kernel_leak` on these
    kernel bases when the caller has it already."""
    left, s, right_h = factors
    if s.size == 0:
        return 0.0, 0.0, 0.0
    m, n = left.shape[0], right_h.shape[0]
    overshoot = max(0.0, float(s[0]) - 1.0)
    s = np.minimum(s, 1.0)
    (_, keep_in), (_, keep_out) = _defect_roots(s, tol, n, m)
    # the kernel bases of contraction.defect_data, the same floats
    leak, bound = kernel_leak or _kernel_leak(
        u, right_h.conj().T[:, ~keep_in], left[:, ~keep_out])
    if overshoot > tol.psd_atol or leak > bound:
        return math.inf, overshoot, leak / math.sqrt(2.0)
    keep = keep_in[:s.size]  # keep_out[:s.size] is the same mask: one cut
    mid = left.conj().T @ u @ right_h.conj().T
    e = 0.5 / (1.0 + s)
    e[keep] -= 0.5 / (1.0 - s[keep])
    a, a_square = _whitened(s, keep, mid, (mid[:, :s.size] * e) @ mid[:s.size])
    leak /= math.sqrt(2.0)
    size = a.shape[0]
    a_norm = op_norm(a)
    if a_norm == 0.0:
        return 0.0, overshoot, leak
    # Re(e^{i theta} A) = cos(theta) Re A + sin(theta) i (A - A*) / 2
    theta = unit_circle(RADIUS_ANGLES)[0][: RADIUS_ANGLES // 2]
    cos, sin = np.cos(theta), np.sin(theta)
    re_a, im_a = 0.5 * (a + a.conj().T), 0.5j * (a - a.conj().T)
    step = max(1, EIG_BATCH_ENTRIES // (size * size))
    top = -math.inf
    for k in range(0, theta.size, step):
        stack = np.multiply.outer(cos[k:k + step], re_a)
        stack += np.multiply.outer(sin[k:k + step], im_a)
        ev = np.linalg.eigvalsh(stack)
        top = max(top, ev[:, -1].max(), -ev[:, 0].min())
    grid = top / math.cos(math.pi / RADIUS_ANGLES)
    kittaneh = 0.5 * (a_norm + math.sqrt(op_norm(a_square)))
    omega = 2.0 * float(min(grid, kittaneh) + 4.0 * size * np.finfo(float).eps * a_norm)
    return omega, overshoot, leak


def proven_radius(center, direction, tol: Tolerances = DEFAULT_TOL) -> float:
    """Proven lower bound of the largest r with ||center + eps direction||
    <= 1 + tol.contraction_slack on the whole disc |eps| <= r.

    The disc of :func:`_whitened_disc`, shrunk so that its leak term stays
    within the slack; when the center is in the ball and nothing leaks the
    norm stays within 1 itself.  0.0 when the direction leaks onto the
    kernel of P (no disc; the not-dominated case) or the center is outside
    the ball, math.inf above RADIUS_CAP.
    """
    return _disc_radius(_whitened_disc(center, direction, tol), tol)


def _disc_radius(disc, tol: Tolerances) -> float:
    """:func:`proven_radius` from the (omega, overshoot, leak) of a disc."""
    omega, overshoot, leak = disc
    room = tol.contraction_slack - overshoot
    if math.isinf(omega) or room < 0.0:
        return 0.0
    r = 1.0 / omega if omega else math.inf
    if leak:
        r = min(r, room / (4.0 * leak))
    return math.inf if r >= RADIUS_CAP else r
