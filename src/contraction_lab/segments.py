"""Matrix polynomials on circles, circle maxima and segment radii.

Every evaluation of a matrix polynomial F(lam) = sum coeffs[k] lam^k in
the library runs here: ``poly_norms`` evaluates the norm at an array of
points with one batched SVD, ``poly_value`` evaluates F at one point, and
``unit_circle`` builds the equally spaced sampling grid.

For contractions a, b the function eps -> ||(1-eps)a + eps b|| is
subharmonic, so its maximum over a disc |eps| <= r is attained on the
circle |eps| = r and is nondecreasing in r.  ``radius_search`` looks only
at sampled points of such circles, so its radius is a sampled estimate:
the circle may leave the ball between two samples.
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
# radius_search skips a sample only when its proven bound is this far
# inside the limit (see its docstring).
PRUNE_MARGIN = 1e-12


def unit_circle(samples: int):
    """Angles theta_k = 2 pi k / samples and the points e^{i theta_k}."""
    theta = 2.0 * np.pi * np.arange(samples) / samples
    return theta, np.exp(1j * theta)


def _poly_stack(coeffs, points) -> np.ndarray:
    """The matrices F(p) for every p in ``points``, stacked."""
    stack = np.broadcast_to(coeffs[0], points.shape + coeffs[0].shape)
    z = points
    for c in coeffs[1:]:
        term = z[:, None, None] * c
        term += stack  # the floats of stack + term, without a third array
        stack = term
        z = z * points
    return stack


def _top_singular(stack) -> np.ndarray:
    """The largest singular value of every matrix in a stack."""
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def poly_norms(coeffs, points) -> np.ndarray:
    """||F(p)|| for every p in ``points`` (batched SVD; 0 for empty F)."""
    if coeffs[0].size == 0:
        return np.zeros(points.shape)
    return _top_singular(_poly_stack(coeffs, points))


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
    """Largest r whose sampled circle |eps| = r stays within 1 + slack.

    A radius r is inside when phi_k(r) = ||center + r lam_k direction||
    <= 1 + slack at each of the ``samples`` points lam_k of the unit
    circle.  The radii RADIUS_FLOOR * 4^j bracket the first radius that
    is not inside, and bisection refines the bracket to relative accuracy
    RADIUS_RTOL.  Returns 0.0 when even RADIUS_FLOOR escapes, math.inf
    when the direction is negligible or every bracket radius up to
    RADIUS_CAP is inside (constant or essentially constant segments).
    Only the samples are checked, so the circle through the returned
    radius can leave the ball between two of them.

    Every inside/escape decision is the one of a search that evaluates
    every sample at every radius, but a sample whose answer is already
    proven is not evaluated.  Each phi_k is convex in r, so upper bounds
    of phi_k at two radii bound it between them by their chord, and
    phi_k(s) <= phi_k(r) + |s - r| ||direction|| (also from r = 0, where
    phi_k(0) = ||center||).  A sample is skipped only when such a bound is
    at most 1 + slack - PRUNE_MARGIN.  The margin is far above the
    rounding of the evaluated matrices and the backward error of their
    SVD (about 1e-14 at norm <= 2 + slack, which covers every inside
    radius), so a skipped sample is one that the full evaluation would
    have found inside.  A decision that can escape evaluates the sample
    that escaped last before the others, so it usually costs one SVD.
    """
    c = as_matrix(center)
    u = as_matrix(direction)
    limit = 1.0 + slack
    c_norm = op_norm(c)
    u_norm = op_norm(u)
    if u_norm <= 1e-14 * max(1.0, c_norm):
        return math.inf
    _, lam = unit_circle(samples)
    hint = 0  # the sample that escaped last

    def escapes(r, bound, first=None):
        """Whether some sample escapes at r, and upper bounds of phi_k(r).

        ``bound`` holds upper bounds of every phi_k(r); the samples it
        proves inside are skipped.  Of the others, the rows ``first``
        (default: the hint) are evaluated before the rest, which are
        evaluated only when none of them escapes.
        """
        nonlocal hint
        todo = bound > limit - PRUNE_MARGIN
        if not todo.any():
            return False, bound
        if first is None:
            first = [hint if todo[hint] else int(np.argmax(np.where(todo, bound, -np.inf)))]
        first = np.asarray(first)
        first = first[todo[first]]
        # with every sample to decide, the rest is the stack itself (its
        # first rows again) rather than a copy of all the other rows
        rest = np.arange(samples) if todo.all() else np.setdiff1d(np.flatnonzero(todo), first)
        stack = _poly_stack((c, u), r * lam)
        bound = bound.copy()
        for rows in (first, rest):
            if rows.size:
                norms = _top_singular(stack if rows.size == samples else stack[rows])
                bound[rows] = norms
                if norms.max() > limit:
                    hint = int(rows[np.argmax(norms)])
                    return True, bound
        return False, bound

    def from_center(r):
        # phi_k(r) <= phi_k(0) + r ||u||, and phi_k(0) = ||c||
        return np.full(samples, c_norm + r * u_norm)

    # the floor, with a few spread samples first: most segments that do not
    # exist leave the ball at several of them
    out, floor_bound = escapes(RADIUS_FLOOR, from_center(RADIUS_FLOOR),
                               np.arange(0, samples, max(1, samples // 8)))
    if out:
        return 0.0
    radii = [RADIUS_FLOOR]
    while radii[-1] < RADIUS_CAP:
        radii.append(radii[-1] * 4.0)
    # Walk the bracket radii down to the first inside one.  Radii with
    # r ||u|| > ||c|| + limit + 1 escape at every sample, so the walk starts
    # at the first of them (not the floor, which was inside); the radii
    # above it are never needed.
    i = next((j for j, r in enumerate(radii) if r * u_norm > c_norm + limit + 1.0),
             len(radii) - 1)
    bounds = {0: floor_bound}
    while i > 0:
        out, bounds[i] = escapes(radii[i], from_center(radii[i]))
        if not out:
            break
        i -= 1
    # the bracket radii below the inside one, by the chord through the floor
    lo, hi = i, i + 1
    for j in range(1, i):
        t = (radii[j] - radii[0]) / (radii[i] - radii[0])
        out, bounds[j] = escapes(radii[j], floor_bound + t * (bounds[i] - floor_bound))
        if out:
            lo, hi = j - 1, j
            break
    if hi == len(radii):
        return math.inf
    lo_bound, hi_bound = bounds[lo], bounds[hi]
    lo, hi = radii[lo], radii[hi]
    # samples not evaluated at hi: the triangle bound from lo
    hi_bound = np.minimum(hi_bound, lo_bound + (hi - lo) * u_norm)
    for _ in range(80):
        if hi - lo <= RADIUS_RTOL * max(1.0, lo):
            break
        mid = 0.5 * (lo + hi)
        t = (mid - lo) / (hi - lo)
        out, bound = escapes(mid, lo_bound + t * (hi_bound - lo_bound))
        if out:
            hi, hi_bound = mid, bound
        else:
            lo, lo_bound = mid, bound
    return lo
