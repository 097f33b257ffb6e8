"""Inputs and an independent output check for the dn workload.

Written from the model stated in README.md ("Model and conventions"), not
from the package's code: the punctured lattice sum of the kernel
C_{1,s} h / |x_i - x_j|^{1+2s}, the closed-form tail beyond the cutoff
radius L + h/2, gamma^{1/2} weighting of both kernel ends, and the DN
matrix h (A_EE + A_EI U) with U = -A_II^{-1} A_IE solved by
numpy.linalg.solve.
"""

from __future__ import annotations

import math

import numpy as np


def kernel_constant(s: float) -> float:
    """C_{1,s} = 4^s Gamma(1/2 + s) / (pi^{1/2} |Gamma(-s)|)."""
    return 4.0**s * math.gamma(0.5 + s) / (math.sqrt(math.pi) * abs(math.gamma(-s)))


def random_conductivity(x: np.ndarray, omega, rng: np.random.Generator) -> np.ndarray:
    """Smooth random gamma = (1 + m)^2 with m = 0 outside omega.

    m is 0.3 times a sum of four low cosine modes with random weights
    under a bump that vanishes at the ends of omega.
    """
    a, b = omega
    t = (x - 0.5 * (a + b)) / (0.5 * (b - a))
    envelope = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    envelope[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    coef = rng.uniform(-1.0, 1.0, size=4)
    coef /= max(1.0, np.abs(coef).sum())
    osc = sum(c * np.cos(np.pi * (k + 1) * t / 2.0) for k, c in enumerate(coef))
    return (1.0 + 0.3 * envelope * osc) ** 2


def dn_matrix(x: np.ndarray, omega, L: float, s: float,
              gamma: np.ndarray) -> np.ndarray:
    """DN matrix of the conductivity operator on W1 = W2 = exterior nodes."""
    h = x[1] - x[0]
    inside = (x > omega[0]) & (x < omega[1])
    I, E = np.flatnonzero(inside), np.flatnonzero(~inside)
    C = kernel_constant(s)
    d = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(d, np.inf)  # punctured sum: no i = j term
    W = C * h * d ** -(1.0 + 2.0 * s)
    R = L + h / 2.0
    tail = C / (2.0 * s) * ((R - x) ** (-2.0 * s) + (R + x) ** (-2.0 * s))
    g = np.sqrt(gamma)
    A = -(g[:, None] * W * g[None, :])
    A[np.diag_indices(x.size)] = g * (W @ g + tail)
    U = np.linalg.solve(A[np.ix_(I, I)], -A[np.ix_(I, E)])
    return h * (A[np.ix_(E, E)] + A[np.ix_(E, I)] @ U)
