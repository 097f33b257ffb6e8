"""Grids, kernel constants and kernel weights shared by every other module.

Conventions used throughout the package:

* the computational window is the symmetric interval [-L, L], sampled by N
  equispaced nodes including both endpoints (h = 2L/(N-1));
* every nodal field is extended by zero beyond the window, and the
  conductivity is identically 1 there;
* each node owns the cell [x_i - h/2, x_i + h/2].  The cells tile
  [-L - h/2, L + h/2], so the analytic "tail" integrals of the kernel start
  at the cutoff radius L + h/2.  This keeps every node, including the two
  endpoint nodes, strictly inside the truncation radius and makes the
  punctured lattice sum plus tail an exact partition of the whole-line
  integral;
* the lattice is one-dimensional (n = 1 in the paper's R^n), so a kernel
  weight is C_{1,s} h / |x_i - x_j|^{1+2s};
* the fractional order lies in [S_MIN, S_MAX]: FracParams rejects any
  other, so every routine uses the s it is given.

kernel_matrix is the one kernel function: it returns the weights whole or
as a block of rows.  operators.operator_rows is the one place the weights
become operator rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# fractional orders outside this range produce degenerate kernels
S_MIN = 0.05
S_MAX = 0.99

# Euler Gamma; raises ValueError at the poles x = 0, -1, -2, ...
gamma_fn = math.gamma


def cns(n: int, s: float) -> float:
    """Kernel normalization constant 4^s Gamma(n/2+s) / (pi^{n/2} |Gamma(-s)|).

    Satisfies cns(n, s) / (s (1 - s)) -> 4 n / omega_{n-1} as s -> 1^-.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"cns: fractional order s={s} outside (0, 1)")
    if n < 1:
        raise ValueError(f"cns: dimension n={n} must be >= 1")
    return (
        4.0**s
        * gamma_fn(n / 2.0 + s)
        / (math.pi ** (n / 2.0) * abs(gamma_fn(-s)))
    )


# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin corrections in _zeta
_BERNOULLI_OVER_FACTORIAL = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0,
                             -1.0 / 1209600.0, 1.0 / 47900160.0,
                             -691.0 / 1307674368000.0)


def _zeta(sigma: float, start: int = 1) -> float:
    """sum_{k >= start} k^{-sigma} for real sigma != 1: the Riemann zeta at
    start = 1 (continued analytically), else the Hurwitz zeta(sigma, start).

    The head sum_{start <= k < M} k^{-sigma} with M = max(start, 12) plus
    the Euler-Maclaurin tail of f(x) = x^{-sigma} from M,

        M^{1-sigma} / (sigma - 1) + f(M) / 2
        + sum_{j=1}^{6} B_2j / (2j)! (sigma)_{2j-1} M^{1-sigma-2j}.

    The same expansion holds for sigma < 1 (analytic continuation).  A
    short head matters there: for sigma < 0 a long head grows like
    M^{1-sigma} and cancels against the tail.  Over sigma in [-0.9, 2.98]
    the error is below 2.5e-14 absolute, and below 6e-16 relative for
    sigma > 1.  A sum from start > 1 takes no difference of two sums, so
    a small tail keeps its relative accuracy.
    """
    M = max(start, 12)
    head = sum(k ** -sigma for k in range(start, M))
    tail = M ** (1.0 - sigma) / (sigma - 1.0) + 0.5 * M ** -sigma
    rising = sigma  # the rising factorial (sigma)_{2j-1}
    for j, coef in enumerate(_BERNOULLI_OVER_FACTORIAL, start=1):
        tail += coef * rising * M ** (1.0 - sigma - 2 * j)
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
    return head + tail


@dataclass(frozen=True)
class FracParams:
    """Fractional order s in [S_MIN, S_MAX] and its cached constant C_{1,s}."""

    s: float
    cns: float = field(init=False)

    def __post_init__(self):
        if not S_MIN <= self.s <= S_MAX:
            raise ValueError(f"FracParams: s={self.s} outside [{S_MIN}, {S_MAX}]")
        object.__setattr__(self, "cns", cns(1, self.s))


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D lattice on [-L, L] split into interior (omega) and exterior.

    omega = (a, b) must sit strictly inside the window.  interior_idx holds
    the node indices with x_i in omega, exterior_idx the rest; the two sets
    partition range(N).
    """

    L: float
    N: int
    a: float
    b: float
    h: float = field(init=False)
    nodes: np.ndarray = field(init=False, repr=False)
    interior_idx: np.ndarray = field(init=False, repr=False)
    exterior_idx: np.ndarray = field(init=False, repr=False)
    cutoff: float = field(init=False)

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"Grid: need at least 4 nodes, got N={self.N}")
        if not self.L > 0:
            raise ValueError(f"Grid: window half-width L={self.L} must be > 0")
        if not (-self.L < self.a < self.b < self.L):
            raise ValueError(
                f"Grid: omega bounds ({self.a}, {self.b}) must satisfy "
                f"-L < a < b < L with L={self.L}"
            )
        nodes = np.linspace(-self.L, self.L, self.N)
        h = float(nodes[1] - nodes[0])
        inside = (nodes > self.a) & (nodes < self.b)
        interior = np.flatnonzero(inside)
        exterior = np.flatnonzero(~inside)
        if interior.size == 0:
            raise ValueError("Grid: omega contains no nodes")
        for name, val in (
            ("h", h),
            ("nodes", nodes),
            ("interior_idx", interior),
            ("exterior_idx", exterior),
            ("cutoff", self.L + h / 2.0),
        ):
            object.__setattr__(self, name, val)
        nodes.setflags(write=False)
        interior.setflags(write=False)
        exterior.setflags(write=False)


def _inverse_distance_power(x: np.ndarray, p: float, lo: int = 0,
                            hi: int | None = None,
                            out: np.ndarray | None = None) -> np.ndarray:
    """|x_i - x_j|^(-p) for the rows lo <= i < hi and every j, zero where
    i == j; written into out (shape (hi - lo, x.size)) when given."""
    hi = x.size if hi is None else hi
    K = np.empty((hi - lo, x.size)) if out is None else out
    # x_j - x_i a row at a time: numpy buffers a broadcast subtraction
    for row, xi in zip(K, x[lo:hi]):
        np.subtract(x, xi, out=row)
    np.abs(K, out=K)  # in place: one block-sized array at any time
    diag = (np.arange(hi - lo), np.arange(lo, hi))
    K[diag] = 1.0  # placeholder, wiped below
    K **= -p
    K[diag] = 0.0
    return K


def kernel_matrix(grid: Grid, fp: FracParams, lo: int = 0,
                  hi: int | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Rows lo <= i < hi of the kernel matrix (default: all N rows): a
    (hi - lo, N) block of kernel weights, zero where i == j, written into
    out when given (a reused buffer: nothing block-sized is allocated)."""
    W = _inverse_distance_power(grid.nodes, 1.0 + 2.0 * fp.s, lo, hi, out)
    W *= fp.cns * grid.h
    return W


def tail_vector(grid: Grid, fp: FracParams) -> np.ndarray:
    """Exact kernel mass beyond the truncation radius, seen from each node.

    Closed form of C_{1,s} * integral of |y - x_i|^{-1-2s} over |y| > R with
    R = grid.cutoff = L + h/2 (fields vanish there by convention):

        C_{1,s}/(2s) [ (R - x_i)^{-2s} + (R + x_i)^{-2s} ]
    """
    x = grid.nodes
    R = grid.cutoff
    s = fp.s
    return fp.cns / (2.0 * s) * ((R - x) ** (-2.0 * s) + (R + x) ** (-2.0 * s))
