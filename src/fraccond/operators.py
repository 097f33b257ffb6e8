"""Discrete nonlocal operators on the truncated lattice.

Assembles (-Delta)^s, the conductivity operator, and the Schroedinger
operator (-Delta)^s + q as dense symmetric matrices; provides the two-point
fractional gradient, its adjoint divergence, and the weighted bilinear form.

operator_rows is the one routine that turns kernel weights into operator
rows: every dense assembly, the reduction pass, the DN block gather
(forward._DnEvaluator.gather) and the walk generator check ask it for the
rows they need.

Sign convention: the fractional Laplacian here is the positive-semidefinite
operator with Fourier symbol |xi|^{2s}.

Quadrature: punctured Riemann sum over lattice nodes (no i = j term) plus
the exact analytic tail beyond the truncation radius.  The symmetric
puncture is the principal value; no extra correction term enters the
assembled matrices, which keeps the algebraic identities (gradient/
divergence duality, the conductivity-to-Schroedinger reduction) exact at
matrix level.  Every routine uses fp's s as given (FracParams holds it in
[S_MIN, S_MAX]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (FracParams, Grid, _inverse_distance_power, kernel_matrix,
                   tail_vector)

BILINEAR_BLOCK = 64


@dataclass
class Conductivity:
    """Nodal conductivity gamma, stored once as its deviation
    m = gamma^{1/2} - 1; gamma = (1 + m)^2 and gamma^{1/2} = 1 + m are
    read from it.

    The constructor is the one admissibility rule: 1 + m must stay
    positive (a NaN fails it too).  from_m also checks that m vanishes on
    every exterior node (compact support inside omega).
    """

    m_values: np.ndarray

    def __post_init__(self):
        self.m_values = np.asarray(self.m_values, dtype=float)
        if not np.all(1.0 + self.m_values > 0.0):
            raise ValueError("Conductivity: 1 + m must stay positive")

    @classmethod
    def from_m(cls, grid: Grid, m: np.ndarray) -> "Conductivity":
        """Build from the deviation m; checks 1 + m > 0 (the constructor),
        then compact support in omega."""
        m = np.asarray(m, dtype=float)
        if m.shape != (grid.N,):
            raise ValueError("Conductivity.from_m: m has wrong length")
        gamma = cls(m)
        if np.any(m[grid.exterior_idx] != 0.0):
            raise ValueError("Conductivity.from_m: m must vanish on exterior nodes")
        return gamma

    @classmethod
    def constant(cls, grid: Grid) -> "Conductivity":
        return cls(np.zeros(grid.N))

    @property
    def values(self) -> np.ndarray:
        return (1.0 + self.m_values) ** 2

    @property
    def sqrt(self) -> np.ndarray:
        return 1.0 + self.m_values


@dataclass
class PairField:
    """Field on ordered node pairs (i, j), i != j, plus an edge coefficient.

    ``values[i, j]`` stores the component along the unit direction from
    x_i to x_j (so gradient fields satisfy values[i, j] = -values[j, i]).
    ``edge[i]`` is the coefficient of the canonical window-exterior profile
    attached to node i: for the gradient of a window-supported field u the
    pair value at (x_i, y) with |y| beyond the cutoff has the universal
    shape  edge_i * C^{1/2}/sqrt(2) * |y - x_i|^{-n/2-s},  with
    edge_i = u_i.  Carrying it makes the divergence adjoint exact with
    respect to the whole-line pairing, including the truncated exterior.
    """

    values: np.ndarray
    edge: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.edge = np.asarray(self.edge, dtype=float)
        n = self.edge.shape[0]
        if self.values.shape != (n, n):
            raise ValueError("PairField: values must be (N, N) matching edge length")

    @classmethod
    def zero(cls, N: int) -> "PairField":
        return cls(np.zeros((N, N)), np.zeros(N))


def _halfkernel(grid: Grid, fp: FracParams) -> np.ndarray:
    """|x_i - x_j|^{-1/2 - s} with zero diagonal."""
    return _inverse_distance_power(grid.nodes, 0.5 + fp.s)


def frac_gradient(grid: Grid, fp: FracParams, u: np.ndarray) -> PairField:
    """Two-point fractional gradient of a nodal field.

    The stored value at (i, j) is the signed magnitude

        -C^{1/2}/sqrt(2) * (u_j - u_i) / |x_j - x_i|^{n/2 + s}

    i.e. the vector of the continuum definition resolved along the
    direction from x_i to x_j; its modulus is C^{1/2}/sqrt(2)
    |u_j - u_i| / |x_j - x_i|^{n/2+s}.
    """
    u = np.asarray(u, dtype=float)
    c = np.sqrt(fp.cns / 2.0)
    du = u[None, :] - u[:, None]  # u_j - u_i
    vals = -c * du * _halfkernel(grid, fp)
    return PairField(vals, u.copy())


def node_inner(grid: Grid, u: np.ndarray, v: np.ndarray) -> float:
    """L^2(R^n) inner product: node sum times h^n."""
    return float(np.dot(u, v)) * grid.h


def pair_inner(grid: Grid, fp: FracParams, v: PairField, w: PairField) -> float:
    """L^2(R^{2n}) inner product: pair sum times h^{2n} plus the exact
    window-exterior block carried by the edge coefficients."""
    core = float(np.sum(v.values * w.values)) * grid.h**2
    tails = tail_vector(grid, fp)
    return core + grid.h * float(np.sum(tails * v.edge * w.edge))


def frac_divergence_adjoint(grid: Grid, fp: FracParams, v: PairField) -> np.ndarray:
    """Adjoint of frac_gradient: the unique nodal field d with

        node_inner(d, u) == pair_inner(v, frac_gradient(u))   for all u.
    """
    c = np.sqrt(fp.cns / 2.0)
    K = _halfkernel(grid, fp)
    anti = v.values.T - v.values  # anti[k, j] = v(j, k) - v(k, j)
    d = -c * grid.h * np.sum(anti * K, axis=1)
    return d + tail_vector(grid, fp) * v.edge


def operator_rows(grid: Grid, fp: FracParams, lo: int, hi: int,
                  *gs, out: list[np.ndarray] | None = None
                  ) -> list[np.ndarray]:
    """Rows lo <= i < hi of each requested operator, all from one
    kernel_matrix block W:

        A_ij = -g_i W_ij g_j  (i != j),   A_ii = g_i (sum_j W_ij g_j + tail_i),

    with g an array (gamma^{1/2}: the conductivity operator) or None
    ((-Delta)^s, g = 1, built with no products by 1).  Every operator but
    the last is written into a fresh array and the last into W itself, so
    k operators take k blocks of memory.  With out, one (hi - lo, N) array
    per operator, operator k is written into out[k] and W into out[-1], so
    nothing block-sized is allocated.  The rows are bit-identical to the
    same rows of the whole matrix.
    """
    W = kernel_matrix(grid, fp, lo, hi, None if out is None else out[-1])
    tail = tail_vector(grid, fp)[lo:hi]
    rows = []
    for k, g in enumerate(gs):
        dest = W if k == len(gs) - 1 else (None if out is None else out[k])
        if g is None:
            diag = W.sum(axis=1) + tail
            A = np.negative(W, out=dest)
        else:
            A = np.multiply(W, g[None, :], out=dest)
            diag = g[lo:hi] * (A.sum(axis=1) + tail)
            A *= -g[lo:hi, None]
        A[np.arange(hi - lo), np.arange(lo, hi)] = diag
        rows.append(A)
    return rows


def assemble_laplacian(grid: Grid, fp: FracParams) -> np.ndarray:
    """Dense matrix of (-Delta)^s on the truncated window.

    A_ij = -kernel_matrix[i, j] off-diagonal; the diagonal collects the
    punctured row sum plus the exact tail, so constants are annihilated up
    to the tail term and the matrix is symmetric positive semidefinite.
    """
    return operator_rows(grid, fp, 0, grid.N, None)[0]


def assemble_conductivity(grid: Grid, fp: FracParams,
                          gamma: Conductivity) -> np.ndarray:
    """Dense matrix of the conductivity operator.

    Strong-form kernel gamma^{1/2}(x) gamma^{1/2}(y) / |x-y|^{n+2s}; the
    tail keeps weight one because gamma is 1 beyond the window, and the
    whole row is premultiplied by gamma_i^{1/2}.
    """
    return operator_rows(grid, fp, 0, grid.N, gamma.sqrt)[0]


def assemble_schrodinger(grid: Grid, fp: FracParams, q: np.ndarray) -> np.ndarray:
    """(-Delta)^s + q with the potential restricted to interior nodes.

    No module in src/ calls it (the DN routes add q to the interior block
    only); the tests use it as the dense reference, and
    perfbench/tracing.py wraps it by name.
    """
    A = assemble_laplacian(grid, fp)
    I = grid.interior_idx
    A[I, I] += np.asarray(q, dtype=float)[I]
    return A


def bilinear_form(grid: Grid, fp: FracParams, gamma: Conductivity,
                  u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Weighted energy pairing

        C/2 sum_{i != j} g_i g_j (u_j - u_i)(v_j - v_i) / |x_j - x_i|^{n+2s} h^{2n}
        + h^n sum_i g_i u_i v_i tail_i,       g = gamma^{1/2},

    evaluated over the pairs i < j only, doubled: a pair's term is the same
    for (i, j) and (j, i) bit for bit.  Blocks of BILINEAR_BLOCK rows i meet
    the columns j >= lo, so the sum needs O(BILINEAR_BLOCK N) memory and is
    independent of the assembled matrix; it equals u . A_gamma v under the
    h^n node pairing up to round-off.

    v is one nodal field (the pairing is returned as a float) or a (k, N)
    stack of them (the k pairings are returned as an array).  The stack
    shares each block's kernel powers, lower-triangle mask and
    g_i g_j (u_j - u_i) prefix, and each value equals its own call bit for
    bit: every block is summed from a contiguous array of the same shape.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    V = np.atleast_2d(v)
    g = gamma.sqrt
    p = 1.0 + 2.0 * fp.s
    N = grid.N
    acc = [0.0] * len(V)
    # j < i is counted from row j; tril_indices runs row by row, so a
    # block of n rows takes the first n(n-1)/2 entries
    below_i, below_j = np.tril_indices(BILINEAR_BLOCK, -1)
    T_buf = np.empty(BILINEAR_BLOCK * N)
    D_buf = np.empty(BILINEAR_BLOCK * N)
    for lo in range(0, N, BILINEAR_BLOCK):
        n = min(BILINEAR_BLOCK, N - lo)
        shape = (n, N - lo)
        T = _inverse_distance_power(grid.nodes[lo:], p, 0, n,
                                    T_buf[:n * (N - lo)].reshape(shape))
        T[below_i[:n * (n - 1) // 2], below_j[:n * (n - 1) // 2]] = 0.0
        D = D_buf[:T.size].reshape(shape)
        T *= np.multiply(g[lo:lo + n, None], g[None, lo:], out=D)
        T *= np.subtract(u[None, lo:], u[lo:lo + n, None], out=D)
        for k, vk in enumerate(V):
            np.subtract(vk[None, lo:], vk[lo:lo + n, None], out=D)
            D *= T
            acc[k] += float(D.sum())
    tails = tail_vector(grid, fp)
    vals = [fp.cns * a * grid.h**2 + grid.h * float(np.sum(g * u * vk * tails))
            for a, vk in zip(acc, V)]
    return vals[0] if v.ndim == 1 else np.array(vals)
