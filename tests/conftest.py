"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from contraction_lab import make_contraction
from contraction_lab.corpus import KINDS, GenSpec, generate, random_unitary
from contraction_lab.linalg import DEFAULT_TOL, Tolerances, op_norm

MAX_DIM = 5


def rng_matrix(seed: int, rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def scaled_contraction(seed: int, dim: int, norm: float):
    g = rng_matrix(seed, dim, dim)
    n = op_norm(g)
    return make_contraction(g * (norm / n) if n > 0 else g)


@st.composite
def square_contractions(draw, max_dim: int = MAX_DIM, max_norm: float = 0.98):
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    norm = draw(st.floats(0.05, max_norm))
    return scaled_contraction(seed, dim, norm)


@st.composite
def psd_matrices(draw, max_dim: int = MAX_DIM):
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    g = rng_matrix(seed, dim, dim)
    return g @ g.conj().T / max(1.0, dim)


@st.composite
def rectangular_matrices(draw, max_dim: int = MAX_DIM):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    return rng_matrix(seed, rows, cols)


def near_isometric_diag(gap):
    """diag(s, 0.5) with 1 - s^2 = gap."""
    return np.diag([np.sqrt(1.0 - gap), 0.5]).astype(complex)


def reference_cases():
    """(name, matrix, tolerances): corpus matrices of every kind at d = 1, 4,
    16 and 32, rectangular, empty and unitary inputs, and diagonals at the
    edges of the defect clamp and the rank cut."""
    for kind in KINDS:
        for d in (1, 4, 16, 32):
            made = generate(GenSpec(dim=d, kind=kind, seed=d))
            for i, c in enumerate(made if isinstance(made, tuple) else (made,)):
                yield f"{kind}-{d}-{i}", c.mat, DEFAULT_TOL
    rng = np.random.default_rng(5)
    co = random_unitary(rng, 3) @ np.eye(3, 5) @ random_unitary(rng, 5)
    yield "coisometry-3x5", co, DEFAULT_TOL
    yield "isometry-5x3", co.conj().T, DEFAULT_TOL
    g = rng_matrix(6, 3, 5)
    yield "random-3x5", 0.9 * g / op_norm(g), DEFAULT_TOL
    yield "random-5x3", 0.9 * g.conj().T / op_norm(g), DEFAULT_TOL
    yield "empty-0x3", np.zeros((0, 3), dtype=complex), DEFAULT_TOL
    yield "unitary", random_unitary(rng, 5), DEFAULT_TOL
    yield "nilpotent", generate(GenSpec(dim=5, kind="nilpotent_shift", seed=0,
                                        params={"lam": 1.0})).mat, DEFAULT_TOL
    atol = DEFAULT_TOL.psd_atol
    for factor in (0.5, 2.0, -0.5):  # -0.5: slightly above norm one, clamped
        yield f"gap-{factor}-psd_atol", near_isometric_diag(factor * atol), DEFAULT_TOL
    # a root of 3e-5 is kept by the clamp and dropped by the rank cut
    yield "rank-rtol-1e-4", near_isometric_diag(1e-9), Tolerances(rank_rtol=1e-4)
