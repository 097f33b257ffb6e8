"""Long-jump random walk on the lattice, its master equation, and the
generator identity connecting the walk to the conductivity operator.

A particle found at site x + hk jumps to x with probability proportional to
gamma^{1/2}(x + hk) |k|^{-n-2s} (incoming form); the time step is tau =
h^{2s}.  The Monte Carlo simulator needs outgoing probabilities and uses
the row-normalized transpose of the incoming kernel:

    Q(y -> y + j)  propto  |j|^{-n-2s} / D(y + j),
    D(t) = sum_{k != 0} gamma^{1/2}(t + hk) |k|^{-n-2s},

which coincides with the incoming walk when gamma is constant.  Reads
beyond the lattice use gamma = 1 and field value 0; particles jumping off
the lattice are absorbed.

Sign bridge: with this package's positive (-Delta)^s convention, the
diffusive limit of the difference quotient is  du/dt = -c(x) (C_gamma u);
the generator residual compares against the kernel-integral (diffusive)
form directly, so no sign flip appears in the reported numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FracParams, Grid
from .operators import Conductivity


@dataclass(frozen=True)
class WalkParams:
    """Lattice spacing, time step tau = h^{2s}, jump cutoff and conductivity."""

    h: float
    tau: float
    K: int
    s: float
    n: int
    gamma_sqrt: np.ndarray  # gamma^{1/2} sampled on the lattice sites

    def __post_init__(self):
        if self.n != 1:
            raise ValueError("WalkParams: only n = 1 is supported")
        if self.K < 1:
            raise ValueError("WalkParams: jump cutoff K must be >= 1")
        if abs(self.tau - self.h ** (2.0 * self.s)) > 1e-14 * self.h ** (2.0 * self.s):
            raise ValueError("WalkParams: tau must equal h^(2s)")
        gs = np.asarray(self.gamma_sqrt, dtype=float)
        object.__setattr__(self, "gamma_sqrt", gs)
        gs.setflags(write=False)

    @classmethod
    def from_grid(cls, grid: Grid, fp: FracParams, gamma: Conductivity,
                  K: int | None = None) -> "WalkParams":
        K = default_jump_cutoff(fp.s) if K is None else K
        return cls(grid.h, grid.h ** (2.0 * fp.s), K, fp.s, fp.n, gamma.sqrt.copy())

    @property
    def n_sites(self) -> int:
        return self.gamma_sqrt.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        k = np.arange(1, self.K + 1)
        return np.concatenate([-k[::-1], k])

    @property
    def offset_weights(self) -> np.ndarray:
        """|k|^{-n-2s} on the truncated offset set."""
        return np.abs(self.offsets, dtype=float) ** -(self.n + 2.0 * self.s)


def default_jump_cutoff(s: float, tol: float = 1e-6, cap: int = 2048) -> int:
    """Smallest K with relative truncated kernel mass below tol (capped).

    The tail fraction of sum_{k != 0} |k|^{-1-2s} beyond K is approximately
    K^{-2s} / (2s) / zeta-sum; small s would need astronomically large K
    (about 6e5 at s = 1/2), hence the cap; the discarded mass is always
    available from truncation_tail_mass.
    """
    S = full_weight_sum(s)
    K = int(np.ceil((2.0 * s * S * tol / 2.0) ** (-1.0 / (2.0 * s))))
    return max(1, min(K, cap))


@lru_cache(maxsize=None)
def full_weight_sum(s: float, terms: int = 1_000_000) -> float:
    """S = sum_{k in Z, k != 0} |k|^{-1-2s}, accurate to ~1e-12."""
    k = np.arange(1, terms + 1, dtype=float)
    partial = np.sum(k ** (-1.0 - 2.0 * s))
    # Euler-Maclaurin tail beyond `terms`
    partial += (terms + 0.5) ** (-2.0 * s) / (2.0 * s)
    return 2.0 * partial


def truncation_tail_mass(wp: WalkParams) -> float:
    """Fraction of the full weight sum discarded by the cutoff K."""
    S = full_weight_sum(wp.s)
    kept = 2.0 * np.sum(np.arange(1, wp.K + 1, dtype=float) ** (-1.0 - 2.0 * wp.s))
    return (S - kept) / S


def _gamma_sqrt_extended(wp: WalkParams, pad: int) -> np.ndarray:
    """gamma^{1/2} padded with the background value 1 on both sides."""
    return np.concatenate([np.ones(pad), wp.gamma_sqrt, np.ones(pad)])


def _field_extended(u: np.ndarray, pad: int) -> np.ndarray:
    return np.concatenate([np.zeros(pad), np.asarray(u, dtype=float), np.zeros(pad)])


def _incoming_numerators(wp: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """f(x_i, k) = gamma^{1/2}(x_i + hk) |k|^{-n-2s} for all sites, and its
    row sums D(x_i).  Shape (n_sites, 2K)."""
    N, K = wp.n_sites, wp.K
    ge = _gamma_sqrt_extended(wp, K)
    w = wp.offset_weights
    f = np.empty((N, 2 * K))
    for a, k in enumerate(wp.offsets):
        f[:, a] = ge[K + k:K + k + N] * w[a]
    return f, f.sum(axis=1)


def incoming_weights(wp: WalkParams, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalized incoming jump probabilities P(x_i, k) over 0 < |k| <= K.

    Returns (offsets, probabilities); probabilities sum to 1 exactly by
    construction (the k = 0 slot is excluded).
    """
    if not 0 <= i < wp.n_sites:
        raise ValueError(f"incoming_weights: site {i} outside the lattice")
    f, D = _incoming_numerators(wp)
    return wp.offsets.copy(), f[i] / D[i]


def master_step(u: np.ndarray, wp: WalkParams) -> np.ndarray:
    """One master-equation update  u(x, t + tau) = sum_k P(x, k) u(x + hk, t).

    Sites beyond the lattice contribute 0.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (wp.n_sites,):
        raise ValueError("master_step: field length mismatch")
    N, K = wp.n_sites, wp.K
    ge = _gamma_sqrt_extended(wp, K)
    ue = _field_extended(u, K)
    w = wp.offset_weights
    numer = np.zeros(N)
    D = np.zeros(N)
    for a, k in enumerate(wp.offsets):
        gseg = ge[K + k:K + k + N] * w[a]
        numer += gseg * ue[K + k:K + k + N]
        D += gseg
    return numer / D


@dataclass
class GeneratorResidual:
    """Sup-norm residuals of the difference quotient against the exact
    lattice kernel form (1/D normalization carried exactly; zero up to
    roundoff) and against the continuum kernel integral with the limit
    normalization 1/(gamma^{1/2}(x) S)."""

    lattice_residual: float
    continuum_residual: float
    tail_mass_fraction: float
    sites_checked: int


def generator_residual(u: np.ndarray, wp: WalkParams, grid: Grid,
                       fp: FracParams) -> GeneratorResidual:
    """Compare (master_step(u) - u)/tau against the generator forms.

    The continuum reference integrates the kernel against cubic-spline
    interpolants of u and gamma^{1/2} over the physical jump range
    R = K h, evaluated only at sites farther than R from the lattice edge.
    """
    u = np.asarray(u, dtype=float)
    N, K = wp.n_sites, wp.K
    x = grid.nodes
    if x.shape != u.shape or N != grid.N:
        raise ValueError("generator_residual: grid / field size mismatch")
    R = wp.K * wp.h
    edge = np.abs(x) > grid.L - R
    if np.any(np.abs(u[edge]) > 1e-10 * max(np.max(np.abs(u)), 1e-300)):
        warnings.warn("generator_residual: field not supported away from "
                      "lattice edges; continuum comparison degraded", stacklevel=2)

    dq = (master_step(u, wp) - u) / wp.tau

    # exact lattice identity: dq == h^{-2s} D^{-1} sum_k f(x,k) (u(x+hk) - u(x))
    ue = _field_extended(u, K)
    f, D = _incoming_numerators(wp)
    kern = np.zeros(N)
    for a, k in enumerate(wp.offsets):
        kern += f[:, a] * (ue[K + k:K + k + N] - u)
    lattice_form = kern / D / wp.tau
    lattice_residual = float(np.max(np.abs(dq - lattice_form)))

    # continuum reference on interior sites
    from scipy.integrate import quad
    from scipy.interpolate import CubicSpline

    S = full_weight_sum(wp.s)
    spline_u = CubicSpline(x, u, extrapolate=False)
    spline_g = CubicSpline(x, wp.gamma_sqrt, extrapolate=False)

    def u_at(y):
        v = spline_u(y)
        return 0.0 if np.isnan(v) else float(v)

    def g_at(y):
        v = spline_g(y)
        return 1.0 if np.isnan(v) else float(v)

    interior = np.flatnonzero(~edge)
    p = 1.0 + 2.0 * wp.s
    worst = 0.0
    for i in interior:
        xi, ui = x[i], u[i]

        def sym(z):
            return (g_at(xi + z) * (u_at(xi + z) - ui)
                    + g_at(xi - z) * (u_at(xi - z) - ui)) / z**p

        integral, _ = quad(sym, 1e-12, R, limit=200, points=[wp.h / 2.0, wp.h])
        ref = integral / (wp.gamma_sqrt[i] * S)
        worst = max(worst, abs(dq[i] - ref))
    return GeneratorResidual(lattice_residual, worst,
                             truncation_tail_mass(wp), interior.size)


def outgoing_table(wp: WalkParams) -> np.ndarray:
    """Row-normalized transpose kernel Q[y, a] = prob of jumping from site y
    to site y + offsets[a].

    Normalization runs over all 2K targets including off-lattice ones
    (gamma = 1 extension), so off-lattice mass is genuine absorption.
    For constant gamma the rows reduce to the symmetric incoming weights.
    """
    N, K = wp.n_sites, wp.K
    ge2 = _gamma_sqrt_extended(wp, 2 * K)
    w_all = wp.offset_weights
    # D at every target site in [-K, N+K)
    Dext = np.zeros(N + 2 * K)
    for a, k in enumerate(wp.offsets):
        Dext += ge2[K + k:K + k + N + 2 * K] * w_all[a]
    Q = np.empty((N, 2 * K))
    for a, j in enumerate(wp.offsets):
        Q[:, a] = w_all[a] / Dext[K + j:K + j + N]
    Q /= Q.sum(axis=1)[:, None]
    return Q


def q_master_step(u: np.ndarray, wp: WalkParams) -> np.ndarray:
    """Density evolution under the outgoing kernel: u'(t) = sum_y u(y) Q(y -> t).

    This is the deterministic counterpart of the Monte Carlo simulator; it
    coincides with master_step when gamma is constant and the support stays
    away from the lattice edge.
    """
    u = np.asarray(u, dtype=float)
    N, K = wp.n_sites, wp.K
    Q = outgoing_table(wp)
    out = np.zeros(N)
    for a, j in enumerate(wp.offsets):
        lo, hi = max(0, -j), min(N, N - j)  # sources y with y + j in lattice
        out[lo + j:hi + j] += u[lo:hi] * Q[lo:hi, a]
    return out


@dataclass
class Ensemble:
    """Particle positions (site indices), seed, and the absolute step counter
    used to derive per-step random substreams.  Absorbed particles are
    removed; `initial_count` keeps the normalization of histograms."""

    positions: np.ndarray
    rng_seed: int
    step_count: int = 0
    initial_count: int | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.int64)
        if self.initial_count is None:
            self.initial_count = int(self.positions.size)

    @classmethod
    def point_source(cls, n_particles: int, site: int, rng_seed: int) -> "Ensemble":
        return cls(np.full(n_particles, site, dtype=np.int64), rng_seed)


def simulate(ens: Ensemble, wp: WalkParams, steps: int) -> tuple[Ensemble, np.ndarray]:
    """Advance the ensemble `steps` jumps; returns the new ensemble and the
    empirical site histogram (counts / initial_count).

    Deterministic: each step uses a substream keyed by (rng_seed, absolute
    step index), so equal seeds give bit-identical trajectories and
    simulate(simulate(e, a), b) == simulate(e, a + b).
    """
    N = wp.n_sites
    if ens.positions.size and (ens.positions.min() < 0 or ens.positions.max() >= N):
        raise ValueError("simulate: particle positions outside the lattice")
    Q = outgoing_table(wp)
    cdf = np.cumsum(Q, axis=1)
    cdf[:, -1] = 1.0  # guard against roundoff in the last bin
    offsets = wp.offsets
    pos = ens.positions.copy()
    for step in range(steps):
        if pos.size == 0:
            break
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=ens.rng_seed,
                                   spawn_key=(ens.step_count + step,)))
        draws = rng.random(pos.size)
        order = np.argsort(pos, kind="stable")
        spos = pos[order]
        sdraw = draws[order]
        snew = np.empty_like(spos)
        sites, starts = np.unique(spos, return_index=True)
        bounds = np.append(starts, spos.size)
        for site, lo, hi in zip(sites, bounds[:-1], bounds[1:]):
            idx = np.searchsorted(cdf[site], sdraw[lo:hi], side="right")
            snew[lo:hi] = site + offsets[np.minimum(idx, 2 * wp.K - 1)]
        pos = np.empty_like(snew)
        pos[order] = snew
        pos = pos[(pos >= 0) & (pos < N)]  # absorb off-lattice jumps
    hist = np.bincount(pos, minlength=N).astype(float) / ens.initial_count
    out = Ensemble(pos, ens.rng_seed, ens.step_count + steps, ens.initial_count)
    return out, hist
