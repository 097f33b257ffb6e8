"""Reference routines the tests compare the package against.  No code in
src/ calls them."""

import math
import warnings

import numpy as np

from fraccond.core import FracParams, Grid
from fraccond.forward import (DnMatrix, _DnEvaluator,
                              _check_exterior_support, factor_interior)
from fraccond.operators import Conductivity, assemble_conductivity
from fraccond.walk import WalkParams, _band

EDGE_DECAY_TOL = 1e-12


def surface_measure(n: int) -> float:
    """omega_{n-1}: surface measure of the unit sphere in R^n (omega_0 = 2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def spectral_laplacian_oracle(grid: Grid, fp: FracParams, u: np.ndarray,
                              pad: int = 1) -> np.ndarray:
    """DFT-symbol route: inverse transform of |xi|^{2s} u_hat.

    Treats the window as one period; ``pad`` > 1 embeds the field in a
    pad-times longer zero block before applying the symbol, which pushes
    the periodic images of the operator's heavy tails far away (used by
    the cross-check against the assembled matrix).  Warns when u is not
    negligible at the window edges.
    """
    u = np.asarray(u, dtype=float)
    if max(abs(u[0]), abs(u[-1])) > EDGE_DECAY_TOL:
        warnings.warn(
            "spectral_laplacian_oracle: field not negligible at window edges; "
            "periodization error is uncontrolled",
            stacklevel=2,
        )
    if pad > 1:
        full = np.zeros(pad * grid.N)
        k0 = (pad - 1) * grid.N // 2
        full[k0:k0 + grid.N] = u
    else:
        full, k0 = u, 0
    xi = 2.0 * np.pi * np.fft.fftfreq(full.size, d=grid.h)
    out = np.fft.ifft(np.abs(xi) ** (2.0 * fp.s) * np.fft.fft(full)).real
    return out[k0:k0 + grid.N]


def dirichlet_from_matrix(grid: Grid, A: np.ndarray,
                          g: np.ndarray) -> np.ndarray:
    """The Dirichlet solve on a dense operator matrix A: (A u)_i = 0 on
    interior nodes with u = g on exterior nodes, from A's sliced blocks,
    u_I = A_II^-1 (0 - A_I,E g_E).  The reference solve_dirichlet's
    gathered blocks are compared against."""
    g = _check_exterior_support(grid, g, "dirichlet_from_matrix: g")
    I, E = grid.interior_idx, grid.exterior_idx
    A_II = factor_interior(A[np.ix_(I, I)], "dirichlet_from_matrix")
    u = np.zeros(grid.N)
    u[E] = g[E]
    u[I] = np.linalg.solve(A_II, 0.0 - A[np.ix_(I, E)] @ g[E])
    return u


def dn_pointwise(grid: Grid, fp: FracParams, gamma: Conductivity,
                 g: np.ndarray) -> np.ndarray:
    """Pointwise DN route: the conductivity operator applied to the solution,
    restricted to exterior nodes (flux density; multiply by h^n to match
    DnMatrix entries)."""
    g = _check_exterior_support(grid, g, "dn_pointwise: g")
    A = assemble_conductivity(grid, fp, gamma)
    return (A @ dirichlet_from_matrix(grid, A, g))[grid.exterior_idx]


def dense_evaluator(grid: Grid, A: np.ndarray, W1: np.ndarray,
                    W2: np.ndarray) -> _DnEvaluator:
    """The DN evaluator on blocks sliced out of a dense operator matrix A:
    the reference the gathered blocks (_DnEvaluator.gather) are compared
    against."""
    I = grid.interior_idx
    return _DnEvaluator(A[np.ix_(I, I)], A[np.ix_(W2, I)], A[np.ix_(I, W1)],
                        A[np.ix_(W2, W1)], grid.h, "dense_evaluator")


def dn_from_matrix(grid: Grid, A: np.ndarray, W1: np.ndarray,
                   W2: np.ndarray) -> DnMatrix:
    """DN matrix of a dense operator matrix A, from its sliced blocks."""
    W1, W2 = np.asarray(W1, dtype=int), np.asarray(W2, dtype=int)
    return DnMatrix(W1, W2, dense_evaluator(grid, A, W1, W2).evaluate(0.0)[0])


def assemble_dn_schrodinger(grid: Grid, fp: FracParams, q: np.ndarray,
                            W1: np.ndarray, W2: np.ndarray) -> DnMatrix:
    """DN matrix of (-Delta)^s + q (potential restricted to omega): the DN
    evaluator on the Laplacian's gathered blocks with diag(q_I)."""
    W1, W2 = np.asarray(W1, dtype=int), np.asarray(W2, dtype=int)
    q_int = np.asarray(q, dtype=float)[grid.interior_idx]
    data = _DnEvaluator.gather(grid, fp, None, W1, W2, "assemble_dn")
    return DnMatrix(W1, W2, data.evaluate(q_int)[0])


def laplacian_evaluator(grid: Grid, fp: FracParams, W1: np.ndarray,
                        W2: np.ndarray, g_W1: np.ndarray | None):
    """The package's DN evaluator on the Laplacian for unit sources on W1
    (g_W1 None), or for the one source g on W1: the unit-source blocks
    contracted with g, as single_measurement_fit contracts them."""
    data = _DnEvaluator.gather(grid, fp, None, np.asarray(W1, dtype=int),
                               np.asarray(W2, dtype=int), "forward_and_jacobian")
    if g_W1 is None:
        return data
    return _DnEvaluator(data.A_II, data.A_W2I, (data.A_IW1 @ g_W1)[:, None],
                        (data.D @ g_W1)[:, None], data.h, data.context)


def forward_and_jacobian(grid: Grid, fp: FracParams, q_int: np.ndarray,
                         W1: np.ndarray, W2: np.ndarray,
                         g_W1: np.ndarray | None):
    """Schroedinger DN data and its exact dense Jacobian in the interior q.

    With unit sources (g_W1 None) returns the (|W2|, |W1|) matrix M and
    J[l, k, i] = h * U[i, k] * V[i, l]; with a fixed source g on W1 returns
    the response column on W2 and J[l, i] = h * w[i] * V[i, l].  This is the
    dense oracle the structured normal equations are tested against; the
    inversion never forms J.
    """
    data = laplacian_evaluator(grid, fp, W1, W2, g_W1)
    M, U, A_II = data.evaluate(q_int)
    V = data.observation_block(U, A_II)
    J = data.h * np.einsum("il,ik->lki", V, U)
    if g_W1 is None:
        return M, J
    return M[:, 0], J[:, 0, :]


def incoming_weights(wp: WalkParams, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized incoming jump probabilities P(x_i, k) over 0 < |k| <= K.

    Returns (offsets, probabilities); probabilities sum to 1 exactly by
    construction (the k = 0 slot is excluded).
    """
    if not 0 <= i < wp.n_sites:
        raise ValueError(f"incoming_weights: site {i} outside the lattice")
    K = wp.K
    ge = np.pad(wp.gamma_sqrt, K, constant_values=1.0)
    f = _band(ge[i:i + 2 * K + 1], K)[0] * wp.offset_weights
    return wp.offsets.copy(), f / f.sum()
