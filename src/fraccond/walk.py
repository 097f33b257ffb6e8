"""Long-jump random walk on the lattice, its master equation, and the
generator identity connecting the walk to the conductivity operator.

A particle found at site x + hk jumps to x with probability proportional to
gamma^{1/2}(x + hk) |k|^{-1-2s} (incoming form); the time step is tau =
h^{2s}, with s the order of the FracParams given.  The Monte Carlo
simulator needs outgoing probabilities and uses the row-normalized
transpose of the incoming kernel:

    Q(y -> y + j)  propto  |j|^{-1-2s} / D(y + j),
    D(t) = sum_{k != 0} gamma^{1/2}(t + hk) |k|^{-1-2s},

which coincides with the incoming walk when gamma is constant.  Reads
beyond the lattice use gamma = 1 and field value 0; particles jumping off
the lattice are absorbed.  Every lattice quantity is a weighted sum of a
padded nodal vector over each site's jump targets x_i + hk, 0 < |k| <= K:
a correlation with the offset weights, so the master steps need O(N)
memory.  Only the outgoing kernel that simulate samples is built as a
banded (N, 2K) table.  simulate turns its cdf rows into an exact bucket
("guide") table of N x BUCKETS landing sites (1 MB at N=513): a draw d from
site y lands on the site stored for bucket floor(d BUCKETS) of row y, one
lookup per particle step.  A bucket that one of the row's cdf entries
splits is marked ambiguous, and only the particles that draw it (about 3 %
at K=16) are resolved by a branchless binary search of their cdf row.
Particles and table entries are sites in the smallest unsigned type that
holds every site, jump target and the ambiguous mark: 2 bytes each up to
N + 2K + 1 = 65536 sites.  Each step walks the particles in blocks of CHUNK
on forward._block_stream's worker pool, with the same draws, landings and
absorptions for any worker count and CHUNK.

Walk-generator identity: with g = gamma^{1/2}, the kernel-matrix
conductivity operator C_gamma, D_i the incoming row sum and m_off,i the
jump mass leaving the lattice from site i, the incoming master step P obeys

    tau^{-1} P_ij = -(C_gamma)_ij / (C_{1,s} g_i D_i),   0 < |i - j| <= K,
    tau^{-1} (P_ii - 1) = -m_off,i / (tau D_i) - sum_{j != i} tau^{-1} P_ij,

exactly; generator_residual checks it against the conductivity rows of
operators.operator_rows, built in row blocks (forward._stream_blocks), so
memory is O(block N).  It also compares the difference quotient with
the continuum kernel integral over not-a-knot cubic splines of u and
gamma^{1/2}, built and integrated in numpy: exactly on the first jump
cell, by Gauss-Legendre on the others.

Sign bridge: with this package's positive (-Delta)^s convention, the
diffusive limit of the difference quotient is  du/dt = -c(x) (C_gamma u);
the generator residual compares against the kernel-integral (diffusive)
form directly, so no sign flip appears in the reported numbers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import FracParams, Grid, _zeta
from .forward import _block_stream, _row_blocks, _stream_blocks
from .operators import Conductivity, operator_rows


@dataclass(frozen=True)
class WalkParams:
    """Lattice spacing, jump cutoff, order and conductivity; the time step
    is tau = h^{2s}."""

    h: float
    K: int
    s: float
    gamma_sqrt: np.ndarray  # gamma^{1/2} sampled on the lattice sites

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("WalkParams: jump cutoff K must be >= 1")
        gs = np.asarray(self.gamma_sqrt, dtype=float)
        object.__setattr__(self, "gamma_sqrt", gs)
        gs.setflags(write=False)

    @classmethod
    def from_grid(cls, grid: Grid, fp: FracParams, gamma: Conductivity,
                  K: int | None = None) -> "WalkParams":
        """Walk on grid's lattice at fp's order; K defaults to
        default_jump_cutoff(s)."""
        K = default_jump_cutoff(fp.s) if K is None else K
        return cls(grid.h, K, fp.s, gamma.sqrt.copy())

    @property
    def tau(self) -> float:
        return self.h ** (2.0 * self.s)

    @property
    def n_sites(self) -> int:
        return self.gamma_sqrt.shape[0]

    @property
    def offsets(self) -> np.ndarray:
        k = np.arange(1, self.K + 1)
        return np.concatenate([-k[::-1], k])

    @property
    def offset_weights(self) -> np.ndarray:
        """|k|^{-1-2s} on the truncated offset set."""
        return np.abs(self.offsets, dtype=float) ** -(1.0 + 2.0 * self.s)


JUMP_TAIL_TOL = 1e-6
JUMP_CUTOFF_CAP = 2048


def default_jump_cutoff(s: float) -> int:
    """Smallest K with relative truncated kernel mass below JUMP_TAIL_TOL,
    capped at JUMP_CUTOFF_CAP.

    The tail fraction of sum_{k != 0} |k|^{-1-2s} beyond K is approximately
    K^{-2s} / (2s) / zeta-sum; small s would need astronomically large K
    (about 6e5 at s = 1/2), hence the cap; the discarded mass is always
    available from truncation_tail_mass.
    """
    S = full_weight_sum(s)
    K = int(np.ceil((2.0 * s * S * JUMP_TAIL_TOL / 2.0) ** (-1.0 / (2.0 * s))))
    return max(1, min(K, JUMP_CUTOFF_CAP))


def full_weight_sum(s: float) -> float:
    """S = sum_{k in Z, k != 0} |k|^{-1-2s} = 2 zeta(1 + 2s), exact to
    round-off (core._zeta)."""
    return 2.0 * _zeta(1.0 + 2.0 * s)


def truncation_tail_mass(wp: WalkParams) -> float:
    """Fraction of the full weight sum discarded by the cutoff K: the
    tail 2 sum_{k > K} k^{-1-2s}, summed directly, over full_weight_sum."""
    return 2.0 * _zeta(1.0 + 2.0 * wp.s, wp.K + 1) / full_weight_sum(wp.s)


def _band(ext: np.ndarray, K: int) -> np.ndarray:
    """Values at the 2K jump targets of every site: T[i, a] = ext[K + i +
    offsets[a]], shape (len(ext) - 2K, 2K).  ext is a nodal vector carrying
    K extra entries beyond each end of the lattice."""
    return np.delete(sliding_window_view(ext, 2 * K + 1), K, axis=1)


def _jump_sum(ext: np.ndarray, wp: WalkParams) -> np.ndarray:
    """The weighted sums sum_{0<|k|<=K} |k|^{-1-2s} ext[K + i + k], i.e. the
    row sums of _band(ext, K) * offset_weights, without forming the table."""
    return np.correlate(ext, np.insert(wp.offset_weights, wp.K, 0.0), "valid")


def _outgoing_denominator(wp: WalkParams) -> np.ndarray:
    """D(t) = sum_{k != 0} gamma^{1/2}(t + hk) |k|^{-1-2s} at the sites
    t = -K .. N+K-1, with gamma = 1 beyond the lattice."""
    return _jump_sum(np.pad(wp.gamma_sqrt, 2 * wp.K, constant_values=1.0), wp)


def master_step(u: np.ndarray, wp: WalkParams) -> np.ndarray:
    """One master-equation update  u(x, t + tau) = sum_k P(x, k) u(x + hk, t).

    Sites beyond the lattice contribute 0.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (wp.n_sites,):
        raise ValueError("master_step: field length mismatch")
    ge = np.pad(wp.gamma_sqrt, wp.K, constant_values=1.0)
    return _jump_sum(ge * np.pad(u, wp.K), wp) / _jump_sum(ge, wp)


@dataclass
class GeneratorResidual:
    """Sup-norm residuals of the difference quotient against the
    walk-generator identity (zero up to roundoff) and against the continuum
    kernel integral with the limit normalization 1/(gamma^{1/2}(x) S)."""

    lattice_residual: float
    continuum_residual: float
    tail_mass_fraction: float
    sites_checked: int


def _spline_taylor(y: np.ndarray, h: float) -> np.ndarray:
    """Taylor coefficients of the not-a-knot cubic splines through the
    columns of y (nodal values at spacing h) about each inner node.

    T[0, k, n] and T[1, k, n] are the z^k coefficients of spline(x_n + z)
    and spline(x_n - z), 0 <= z <= h, for 0 < n < N - 1; the end nodes'
    entries are not filled.  The nodal second derivatives M solve the
    spline system (M_{n-1} + 4 M_n + M_{n+1}) / 6 = r_n, 0 < n < N - 1,
    with the not-a-knot ends M_0 - 2 M_1 + M_2 = 0 = M_{N-3} - 2 M_{N-2} +
    M_{N-1} (u''' continuous at x_1 and x_{N-2}).  Those turn rows 1 and
    N - 2 into M_1 = r_1 and M_{N-2} = r_{N-2}, and leave a tridiagonal
    system in M_2..M_{N-3}, diagonally dominant, so elimination without
    pivoting solves it in O(N).  The slope at x_n is the one both adjacent
    pieces share.
    """
    N = y.shape[0]
    if N < 4:
        raise ValueError("_spline_taylor: a not-a-knot spline needs 4 nodes")
    r = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2  # r[n - 1] is r_n
    M = np.empty_like(y)
    M[1], M[-2] = r[0], r[-1]
    d = 6.0 * r[1:-1]  # rows 2..N-3, times 6
    if d.shape[0]:
        d[0] -= M[1]
        d[-1] -= M[-2]
        sup = np.empty(d.shape[0])  # superdiagonal after elimination
        sup[0] = 0.25
        d[0] /= 4.0
        for n in range(1, d.shape[0]):
            pivot = 4.0 - sup[n - 1]
            sup[n] = 1.0 / pivot
            d[n] = (d[n] - d[n - 1]) / pivot
        for n in range(d.shape[0] - 2, -1, -1):
            d[n] -= sup[n] * d[n + 1]
    M[2:-2] = d
    M[0] = 2.0 * M[1] - M[2]
    M[-1] = 2.0 * M[-2] - M[-3]
    slope = (y[2:] - y[:-2]) / (2.0 * h) - h * (M[2:] - M[:-2]) / 12.0
    T = np.zeros((2, 4) + y.shape)
    T[:, 0], T[:, 2] = y, M / 2.0
    T[0, 1, 1:-1], T[1, 1, 1:-1] = slope, -slope
    T[0, 3, 1:-1] = (M[2:] - M[1:-1]) / (6.0 * h)
    T[1, 3, 1:-1] = (M[:-2] - M[1:-1]) / (6.0 * h)
    return T


def _continuum_integral(u: np.ndarray, wp: WalkParams,
                        sites: np.ndarray) -> np.ndarray:
    """int_0^R [g(x+z)(u(x+z) - u(x)) + g(x-z)(u(x-z) - u(x))] z^{-1-2s} dz
    at the nodes x = x_i, i in sites, with R = K h and u, g the not-a-knot
    cubic splines through the nodal values of u and gamma^{1/2}.

    Every site lies at least R inside the lattice, so the jump range is
    the K pieces on either side and no spline is extrapolated.  On the
    cell z <= h the numerator is a polynomial of degree <= 6 whose z^0 and
    z^1 terms vanish, so the rest is integrated against z^{-1-2s} exactly;
    each further cell takes 8-point Gauss-Legendre.
    """
    h, K, p = wp.h, wp.K, 1.0 + 2.0 * wp.s
    T = _spline_taylor(np.column_stack([u, wp.gamma_sqrt]), h)
    Tu, Tg = T[:, :, sites, 0], T[:, :, sites, 1]
    total = np.zeros(sites.size)
    for m in range(4):  # g's z^m term times u's z^k term, k >= 1
        for k in range(max(1, 2 - m), 4):  # the two sides' z^1 terms cancel
            e = m + k - 2.0 * wp.s  # int_0^h z^{m+k-1-2s} dz = h^e / e
            total += (Tg[:, m] * Tu[:, k]).sum(axis=0) * h**e / e
    j = np.arange(1, K)
    t, w = np.polynomial.legendre.leggauss(8)
    for zeta, wq in zip(0.5 * h * (1.0 + t), 0.5 * h * w):
        vals = np.einsum("k,sknf->snf", zeta ** np.arange(4), T)  # at x_n +/- zeta
        weight = wq / (j * h + zeta) ** p
        for side, n in enumerate((sites[:, None] + j, sites[:, None] - j)):
            total += (vals[side, n, 1] * (vals[side, n, 0] - u[sites, None])) @ weight
    return total


def generator_residual(u: np.ndarray, wp: WalkParams, grid: Grid,
                       fp: FracParams) -> GeneratorResidual:
    """Compare (master_step(u) - u)/tau against the generator forms.

    The lattice form is the walk-generator identity applied to u, with
    C_gamma's jump band from operators.operator_rows, built in row blocks
    on forward._stream_blocks, so memory is O(block N).  The continuum
    reference integrates the kernel against cubic-spline interpolants of u
    and gamma^{1/2} over the physical jump range R = K h
    (_continuum_integral), evaluated only at sites no closer than R to the
    lattice edge.
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

    g = wp.gamma_sqrt
    D = _jump_sum(np.pad(g, K, constant_values=1.0), wp)
    m_off = _jump_sum(np.pad(np.zeros(N), K, constant_values=1.0), wp)
    flux = np.empty(N)

    def block(lo, hi, out):
        # rows lo..hi of C_gamma (u_j - u_i) on the jump band |i - j| <= K
        # (the diagonal meets u_i - u_i = 0); each row is summed over all N
        # columns, so flux is what the dense matrix gives, bit for bit
        C = operator_rows(grid, fp, lo, hi, g, out=out[:1])[0]
        prod = np.subtract(u[None, :], u[lo:hi, None], out=out[1])
        prod *= C
        j, i = np.arange(N), np.arange(lo, hi)[:, None]
        prod[(j < i - K) | (j > i + K)] = 0.0
        flux[lo:hi] = prod.sum(axis=1)

    _stream_blocks(_row_blocks(grid), [(float, (N,))] * 2, block)
    lattice_form = -flux / (fp.cns * g * D) - m_off * u / (wp.tau * D)
    lattice_residual = float(np.max(np.abs(dq - lattice_form)))

    sites = np.flatnonzero(~edge)
    integral = _continuum_integral(u, wp, sites)
    ref = integral / (g[sites] * full_weight_sum(wp.s))
    worst = float(np.max(np.abs(dq[sites] - ref), initial=0.0))
    return GeneratorResidual(lattice_residual, worst,
                             truncation_tail_mass(wp), sites.size)


def outgoing_table(wp: WalkParams) -> np.ndarray:
    """Row-normalized transpose kernel Q[y, a] = prob of jumping from site y
    to site y + offsets[a].

    Normalization runs over all 2K targets including off-lattice ones
    (gamma = 1 extension), so off-lattice mass is genuine absorption.
    For constant gamma the rows reduce to the symmetric incoming weights.
    """
    Q = _band(_outgoing_denominator(wp), wp.K)  # a fresh copy, reused
    np.divide(wp.offset_weights, Q, out=Q)
    Q /= Q.sum(axis=1)[:, None]
    return Q


def q_master_step(u: np.ndarray, wp: WalkParams) -> np.ndarray:
    """Density evolution under the outgoing kernel: u'(t) = sum_y u(y) Q(y -> t).

    This is the deterministic counterpart of the Monte Carlo simulator; it
    coincides with master_step when gamma is constant and the support stays
    away from the lattice edge.  With Q(y -> y + hk) = |k|^{-1-2s} /
    (D(y + hk) r(y)) and r the row sums of |k|^{-1-2s} / D(y + hk), this is
    u'(t) = D(t)^{-1} sum_k |k|^{-1-2s} (u / r)(t - hk), table-free.
    """
    u = np.asarray(u, dtype=float)
    K, N = wp.K, wp.n_sites
    D = _outgoing_denominator(wp)
    r = _jump_sum(1.0 / D, wp)
    return _jump_sum(np.pad(u / r, K), wp) / D[K:K + N]


@dataclass
class Ensemble:
    """Particle positions (site indices), seed, and the absolute step counter
    used to derive per-step random substreams.  Absorbed particles are
    removed; `initial_count` keeps the normalization of histograms.  The
    positions keep the integer dtype they are given, and simulate returns
    them unsigned (_site_dtype), so a difference of sites such as a
    displacement wraps around unless they are widened first:
    positions.astype(np.int64) - site."""

    positions: np.ndarray  # integer sites, in the dtype given
    rng_seed: int
    step_count: int = 0
    initial_count: int | None = None

    def __post_init__(self):
        self.positions = np.asarray(self.positions)
        if not np.issubdtype(self.positions.dtype, np.integer):
            raise ValueError("Ensemble: positions must be integer site "
                             f"indices, not {self.positions.dtype}")
        if self.initial_count is None:
            self.initial_count = int(self.positions.size)

    @classmethod
    def point_source(cls, n_particles: int, site: int, rng_seed: int) -> "Ensemble":
        """n_particles at one site.  The positions are a read-only view of
        that one int64 site with stride 0, so a point source takes no
        memory per particle and writing into its positions raises;
        simulate only reads them, into positions of its own."""
        return cls(np.broadcast_to(np.int64(site), (n_particles,)), rng_seed)


BUCKETS = 1024
"""Buckets per site in simulate's table.  A power of two, so d * BUCKETS is
exact and its integer part is the bucket of the draw d."""
_UINT16_SITES = 1 << 16
"""Values a uint16 holds: simulate keeps sites in uint16 while the N sites,
their 2K jump targets off the lattice and the ambiguous mark fit in them,
N + 2K + 1 <= _UINT16_SITES, and in uint32 beyond (_site_dtype)."""
_MAX_SPAN = (2**31 - 1) // BUCKETS
"""Largest N + K that simulate takes, so every bucket index site * BUCKETS +
bucket fits an int32.  outgoing_table's time and memory grow like N K, so
longer jump ranges are refused before anything is built."""
_BUILD_CELLS = 1 << 16  # table entries plus cdf entries per block of the build

CHUNK = 1 << 16
"""Particles per block of simulate's step pass.  A worker's draw, index
and landing buffers for one block take 18 CHUNK bytes (1.2 MB), so a block
stays in its core's L2 cache through the step."""


def _site_dtype(N: int, K: int) -> np.dtype:
    """The smallest unsigned type that holds the sites 0..N-1, the jump
    targets -K..N+K-1 and the ambiguous mark N + K: uint32 holds them for
    every N + K <= _MAX_SPAN.  Cast to it, a target off the lattice wraps to
    a value >= N, distinct from the mark."""
    if N + K > _MAX_SPAN:
        raise ValueError(f"simulate: lattice plus jump range N + K = {N + K} "
                         f"too long (at most {_MAX_SPAN})")
    return np.dtype(np.uint16 if N + 2 * K + 1 <= _UINT16_SITES else np.uint32)


def _landings(targets: np.ndarray, first: np.ndarray) -> np.ndarray:
    """targets[y, a] repeated over the buckets first[y, a - 1] <= b <
    first[y, a] of row y, flat, with first clipped to BUCKETS and
    first[y, -1] taken as 0: BUCKETS entries per row when each row's last
    first is BUCKETS."""
    np.minimum(first, BUCKETS, out=first)
    counts = np.diff(first, axis=1, prepend=0.0).astype(np.intp)
    return np.repeat(targets, counts.ravel())


def _bucket_table(cdf: np.ndarray) -> np.ndarray:
    """Indexed search table (Chen & Asau, 1974) for the cdf rows of the
    2K jump targets of each site: T[y, b] is the site that every draw d in
    [b, b + 1) / BUCKETS from site y jumps to, or the ambiguous mark N + K
    if an entry of cdf[y] lies strictly inside that interval.  The entries
    are in _site_dtype(N, K), where a target off the lattice is >= N.

    Each row must be nondecreasing but for its last entry, which must be
    exactly 1 (round-off may lift the entries before it above 1).  A draw
    lands on entry searchsorted(cdf[y], d, side="right"), the number of
    entries <= d.  In bucket units c = cdf * BUCKETS, exact since BUCKETS is
    a power of two, that count is #{ceil(c) <= b} at the bucket's lower edge
    and #{floor(c) <= b} just below its upper one; it cannot change in
    between, so the two agree unless some c lies in (b, b + 1).  Rows are
    built in blocks, so no temporary grows with N.
    """
    N, width = cdf.shape
    K = width // 2
    dtype = _site_dtype(N, K)
    table = np.empty((N, BUCKETS), dtype)
    rows = max(1, _BUILD_CELLS // (width + BUCKETS))
    for y in range(0, N, rows):
        c = cdf[y:y + rows] * BUCKETS
        targets = _band(np.arange(y - K, y + len(c) + K).astype(dtype), K)
        lower = _landings(targets, np.ceil(c))
        lower[lower != _landings(targets, np.floor(c, out=c))] = N + K
        table[y:y + len(c)] = lower.reshape(len(c), BUCKETS)
    return table


def _search(cdf: np.ndarray, rows: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """searchsorted(cdf[row], draw, side="right") for every (row, draw)
    pair: a branchless binary search (Khuong & Morin, ACM JEA 2017) run for
    all pairs at once, ceil(log2 width) gathers."""
    width = cdf.shape[1]
    flat = cdf.ravel()
    start = rows * width
    idx = start.copy()
    n = width
    # invariant: the answer is one of idx .. idx + n - 1 (the row's last
    # cdf entry is 1 > draw); flat[half - 1:][idx] is flat[idx + half - 1]
    # without an index temporary
    while n > 1:
        half = n // 2
        idx += half * (flat[half - 1:][idx] <= draws)
        n -= half
    return idx - start


def simulate(ens: Ensemble, wp: WalkParams, steps: int) -> tuple[Ensemble, np.ndarray]:
    """Advance the ensemble `steps` jumps; returns the new ensemble and the
    empirical site histogram (counts / initial_count).

    Deterministic: each step uses a substream keyed by (rng_seed, absolute
    step index), so equal seeds give bit-identical trajectories and
    simulate(simulate(e, a), b) == simulate(e, a + b).

    A particle is its site y.  Each step forms the index y * BUCKETS +
    floor(d * BUCKETS) of its draw d in a worker's buffer and reads the
    site it lands on from the bucket table (_bucket_table): one lookup,
    landing exactly where searchsorted(cdf[y], d, side="right") does.  Only
    a draw in an ambiguous bucket, about 3 % of them at K = 16, goes through
    _search.  A landing >= N, one unsigned compare, is ambiguous or an
    absorbed particle, whose target off the lattice wraps to a value >= N.

    Each step runs over blocks of CHUNK particles on one
    forward._block_stream, whose workers and buffers serve every step.  The
    step's substream is a PCG64 stream, and one double takes one
    64-bit output, so a block draws its particles' doubles from that stream
    moved ahead to its first particle (PCG64.advance): every draw, landing
    and absorption is the same for any worker count and CHUNK.  A block
    moves its survivors to its front, and the blocks are then joined in
    order, so the particles keep their order.  Sites are stored in
    _site_dtype(N, K), 2 bytes up to N + 2K + 1 = 65536: the table takes
    N BUCKETS of them and the particles one each, in the returned
    positions' array, which they walk in; each worker adds 18 CHUNK bytes
    of buffers, and the histogram is counted a block at a time, so the
    positions are never widened.  The returned positions are unsigned:
    widen them before subtracting (see Ensemble).  ens.positions is only
    read, so a point source (Ensemble.point_source, a stride-0 view) adds
    nothing per particle.
    """
    N, K = wp.n_sites, wp.K
    if ens.positions.size and (ens.positions.min() < 0 or ens.positions.max() >= N):
        raise ValueError("simulate: particle positions outside the lattice")
    dtype = _site_dtype(N, K)  # raises before anything is built
    cdf = np.cumsum(outgoing_table(wp), axis=1)
    cdf[:, -1] = 1.0  # the last bin takes any draw a roundoff-short row total misses
    table = _bucket_table(cdf).ravel()
    offsets = wp.offsets
    pos = ens.positions.astype(dtype)
    n = pos.size

    def walk(lo, hi, buffers):
        """One step of the particles lo..hi; returns how many stay."""
        draws, index, landed = buffers
        p = pos[lo:hi]
        rng = np.random.Generator(np.random.PCG64(seq).advance(lo))
        # the bucket floor(draw * BUCKETS), parked in the landing buffer,
        # plus site * BUCKETS: the index buffer then holds row * BUCKETS +
        # bucket for every particle
        np.multiply(rng.random(out=draws), BUCKETS, out=landed, casting="unsafe")
        np.multiply(p, BUCKETS, out=index, dtype=np.intp)
        index += landed
        table.take(index, out=landed, mode="clip")  # in range; "raise" would buffer out
        flagged = np.flatnonzero(landed >= N)  # ambiguous or absorbed
        amb = flagged[landed[flagged] == N + K]
        if amb.size:
            rows = index[amb] // BUCKETS
            # a target off the lattice wraps to a value >= N on the way in
            landed[amb] = rows + offsets[_search(cdf, rows, draws[amb])]
        gone = flagged[landed[flagged] >= N]
        if gone.size:
            keep = np.ones(hi - lo, dtype=bool)
            keep[gone] = False
            landed = landed[keep]
        p[:landed.size] = landed
        return landed.size

    with _block_stream([(float, ()), (np.intp, ()), (dtype, ())],
                       min(n, CHUNK), -(-n // CHUNK)) as run:
        for step in range(steps):
            if n == 0:
                break
            seq = np.random.SeedSequence(entropy=ens.rng_seed,
                                         spawn_key=(ens.step_count + step,))
            blocks = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
            kept, _ = run(blocks, walk)
            n = 0
            for (lo, _), count in zip(blocks, kept):
                if n < lo:  # earlier blocks lost particles: close the gap
                    pos[n:n + count] = pos[lo:lo + count]
                n += count
    pos = pos[:n]
    counts = np.zeros(N, np.intp)
    for lo in range(0, n, CHUNK):  # bincount widens its input to intp
        counts += np.bincount(pos[lo:lo + CHUNK], minlength=N)
    out = Ensemble(pos, ens.rng_seed, ens.step_count + steps, ens.initial_count)
    return out, counts / ens.initial_count
