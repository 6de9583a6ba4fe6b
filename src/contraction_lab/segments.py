"""Matrix polynomials on circles, circle maxima and segment radii.

Every evaluation of a matrix polynomial F(lam) = sum coeffs[k] lam^k in
the library runs here: ``poly_norms`` evaluates the norm at an array of
points with one batched SVD, ``poly_value`` evaluates F at one point, and
``unit_circle`` builds the equally spaced sampling grid.

For contractions a, b the function eps -> ||(1-eps)a + eps b|| is
subharmonic, so its maximum over a disc |eps| <= r is attained on the
circle |eps| = r and is nondecreasing in r.  Sampling the circle therefore
suffices to certify membership of the whole disc segment in the ball.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_matrix, op_norm

__all__ = ["circle_max_norm", "radius_search"]

# Smallest radius radius_search tries; escaping at it means no segment.
RADIUS_FLOOR = 1e-6
# Radius beyond which a segment counts as unbounded.
RADIUS_CAP = 1e8
# Relative accuracy of the radius bisection.
RADIUS_RTOL = 1e-8


def unit_circle(samples: int):
    """Angles theta_k = 2 pi k / samples and the points e^{i theta_k}."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return theta, np.exp(1j * theta)


def poly_norms(coeffs, points) -> np.ndarray:
    """||F(p)|| for every p in ``points`` (batched SVD; 0 for empty F)."""
    d0 = coeffs[0]
    if d0.size == 0:
        return np.zeros(points.shape)
    stack = np.broadcast_to(d0, points.shape + d0.shape)
    z = points
    for c in coeffs[1:]:
        stack = stack + z[:, None, None] * c
        z = z * points
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
    """Largest r with the circle |eps| = r staying inside the unit ball.

    Returns 0.0 when even RADIUS_FLOOR escapes, math.inf when the
    direction is negligible or RADIUS_CAP is reached (constant or
    essentially constant segments).  Bisection refines to relative
    accuracy RADIUS_RTOL.
    """
    c = as_matrix(center)
    u = as_matrix(direction)
    limit = 1.0 + slack
    if op_norm(u) <= 1e-14 * max(1.0, op_norm(c)):
        return math.inf

    def g(r: float) -> float:
        return circle_max_norm(c, u, r, samples)

    if g(RADIUS_FLOOR) > limit:
        return 0.0
    lo = RADIUS_FLOOR
    hi = RADIUS_FLOOR
    while hi < RADIUS_CAP:
        nxt = hi * 4.0
        if g(nxt) > limit:
            lo, hi = hi, nxt
            break
        hi = nxt
    else:
        return math.inf
    for _ in range(80):
        if hi - lo <= RADIUS_RTOL * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        if g(mid) <= limit:
            lo = mid
        else:
            hi = mid
    return lo
