"""Exterior-value Dirichlet solver, DN map assembly and the conductivity-to-
Schroedinger reduction with its exact matrix-level verification.

The exterior datum is always represented by extension by zero into omega;
the DN pairing is independent of that choice and the tests assert it.
DN matrix entries carry the h^n node-pairing weight, i.e. entry (l, k) is
the bilinear form of the solution for the unit source at node k against the
unit observation field at node l.

Every DN matrix, the inversion's forward map and each DN pairing come from
one evaluator (_DnEvaluator) on an operator's blocks A_II, A_W2,I, A_I,W1
and D = A_W2,W1: h^n (D + A_W2,I U) with U = (A_II + diag q)^-1 (-A_I,W1).

No DN matrix and no reduction check forms an N x N matrix: a DN matrix's
blocks are gathered from row blocks (_DnEvaluator.gather), and
verify_reduction checks both identities, the matrix-level reduction and
the DN gap identity, in one pass over row blocks (_row_blocks):
operators.operator_rows turns each kernel block into the same rows of the
conductivity matrix and of (-Delta)^s, and the pass keeps only running
maxima, length-N vectors and the |I| x |I| interior blocks.  The reduction
residual compares the two sides of the identity on the interior rows only;
each DN pairing is one evaluation on the blocks the pass kept, one
interior solve, instead of a DN matrix.  dn_gap returns the gap half of
that check; liouville_reduce streams the (-Delta)^s rows alone.

Both passes run on _stream_blocks: a pool of MAX_WORKERS threads (fewer
only when there are fewer blocks), whatever the host's CPU count, with
BLAS on one thread meanwhile, so numpy's GIL-free ufuncs build two blocks
at once.  Each worker writes all its blocks into the same buffers, one
(rows, N) array per operator, so no block is allocated and freed per
block; memory in flight is at most MAX_WORKERS x buffers x BLOCK_BYTES
(8 MiB for the reduction pass), and the buffers are freed before the
interior solves.  Each block writes only its own rows' slices and the
maxima are combined in block order, so the results are bit-identical for
any worker count.  _stream_blocks is one run of _block_stream, whose
pool and buffers can serve several runs.  The same pool gathers the DN
evaluator's blocks and builds walk.generator_residual's jump band, and
walk.simulate runs every step over blocks of particles on one stream.

Every interior block is checked by factor_interior and solved with
np.linalg.solve (LAPACK gesv, i.e. getrf + getrs, in numpy's own OpenBLAS),
the one BLAS the package calls.  The CLI runs every command with that BLAS
on one thread (_blas.one_blas_thread), since its round-off depends on its
thread count.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._blas import one_blas_thread
from .core import FracParams, Grid
from .operators import Conductivity, operator_rows


# byte budget of one row-block array in the streamed reduction checks
# (_row_blocks): 64 rows at N = 4096, so a pass needs O(block N) memory
# whatever N is
BLOCK_BYTES = 2 << 20

# threads a streamed check runs on, whatever the host's CPU count: each
# holds its own block buffers, so this bounds memory in flight
# (MAX_WORKERS x buffers x BLOCK_BYTES)
MAX_WORKERS = 2


class SolverError(RuntimeError):
    """Raised when the interior block cannot be solved reliably."""

    def __init__(self, message: str, cond: float | None = None):
        if cond is not None:
            message = f"{message} (estimated condition number {cond:.3e})"
        super().__init__(message)
        self.cond = cond


def factor_interior(A_II: np.ndarray, context: str) -> np.ndarray:
    """Check an interior block before it is solved with np.linalg.solve
    (LAPACK gesv), raising SolverError when it is numerically singular.

    Every interior block here is symmetric ((-Delta)^s + diag q, and the
    conductivity block up to round-off), so its smallest |eigenvalue| is
    its 2-norm distance to a singular matrix: the block is rejected when
    that falls to 1e-12 of the largest |eigenvalue| (or of 1), and cond is
    their ratio.  Returns the block, which callers solve against.
    """
    lam = np.abs(np.linalg.eigvalsh(A_II))
    if lam.min() <= 1e-12 * max(lam.max(), 1.0):
        cond = lam.max() / lam.min() if lam.min() > 0 else np.inf
        raise SolverError(f"{context}: interior block numerically singular",
                          cond=float(cond))
    return A_II


@dataclass
class DnMatrix:
    """DN map sampled on exterior source set W1 and observation set W2."""

    source_idx: np.ndarray
    obs_idx: np.ndarray
    matrix: np.ndarray  # shape (|W2|, |W1|)


def _check_exterior_support(grid: Grid, v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.N,):
        raise ValueError(f"{name}: expected full nodal vector of length {grid.N}")
    if np.any(v[grid.interior_idx] != 0.0):
        raise ValueError(f"{name}: support must lie in the exterior node set")
    return v


def solve_dirichlet(grid: Grid, A: np.ndarray, g: np.ndarray,
                    F: np.ndarray | None = None) -> np.ndarray:
    """Solve (A u)_i = F_i on interior nodes with u = g on exterior nodes,
    for an operator matrix A on the grid's nodes.

    g is the zero-extended exterior datum (full nodal vector); F defaults
    to zero and only its interior entries are read.  Direct dense solve of
    A_II u_I = F_I - A_IE g_E.
    """
    g = _check_exterior_support(grid, g, "solve_dirichlet: g")
    I = grid.interior_idx
    E = grid.exterior_idx
    rhs = np.zeros(I.size) if F is None else np.asarray(F, dtype=float)[I]
    rhs = rhs - A[np.ix_(I, E)] @ g[E]
    A_II = factor_interior(A[np.ix_(I, I)], "solve_dirichlet")
    u = np.zeros(grid.N)
    u[E] = g[E]
    u[I] = np.linalg.solve(A_II, rhs)
    return u


class _DnEvaluator:
    """DN data of a symmetric operator A + diag(q) as a function of the
    interior potential q, from A's interior block A_II, observation block
    A_W2,I, source block A_I,W1 and D = A_W2,W1.  Unit sources give the DN
    matrix; source blocks contracted with g (A_I,W1 g and D g) give the
    response to g.  An evaluation adds diag(q) to a copy of A_II and solves
    with numpy's LAPACK (gesv).  V is U when A_W2,I^T equals A_I,W1.
    `context` names the caller in a SolverError.
    """

    def __init__(self, A_II: np.ndarray, A_W2I: np.ndarray,
                 A_IW1: np.ndarray, D: np.ndarray, h: float, context: str):
        self.A_II, self.A_W2I, self.A_IW1, self.D = A_II, A_W2I, A_IW1, D
        self.h, self.context = h, context
        self.neg_S = np.asfortranarray(-A_IW1)
        self.same = np.array_equal(A_W2I.T, A_IW1)

    @classmethod
    def gather(cls, grid: Grid, fp: FracParams, g: np.ndarray | None,
               W1: np.ndarray, W2: np.ndarray, context: str) -> "_DnEvaluator":
        """The blocks of the operator of g (gamma^{1/2}, or None for
        (-Delta)^s) for W1, W2 (int arrays of exterior nodes, any order),
        copied out of the operator_rows row blocks holding omega's or W2's
        rows (_stream_blocks): the dense matrix's entries bit for bit, in
        the four blocks' memory plus the stream's buffers."""
        for W, nm in ((W1, "W1"), (W2, "W2")):
            if not np.all(np.isin(W, grid.exterior_idx)):
                raise ValueError(f"DN map: {nm} must be a subset of exterior_idx")
        I = grid.interior_idx
        cols = slice(I[0], I[-1] + 1)  # omega's nodes are one contiguous range
        A_II, A_IW1 = np.empty((I.size, I.size)), np.empty((I.size, W1.size))
        A_W2I, D = np.empty((W2.size, I.size)), np.empty((W2.size, W1.size))

        def block(lo, hi, out):
            A = operator_rows(grid, fp, lo, hi, g, out=out)[0]
            a, b = _interior_rows(grid, lo, hi)
            rows = A[I[0] + a - lo:I[0] + b - lo]  # empty when a == b
            A_II[a:b] = rows[:, cols]
            A_IW1[a:b] = rows[:, W1]
            k = np.flatnonzero((W2 >= lo) & (W2 < hi))
            A_W2I[k] = A[W2[k] - lo, cols]
            D[k] = A[np.ix_(W2[k] - lo, W1)]

        blocks = [(lo, hi) for lo, hi in _row_blocks(grid) if lo <= I[-1]
                  and I[0] < hi or np.any((W2 >= lo) & (W2 < hi))]
        _stream_blocks(blocks, [(float, (grid.N,))], block)
        return cls(A_II, A_W2I, A_IW1, D, grid.h, context)

    def evaluate(self, q_int):
        """DN data M, the source solution block U = A_II^-1 (-A_I,W1) and
        the checked block A_II + diag(q)."""
        A_II = self.A_II.copy()
        A_II[np.diag_indices_from(A_II)] += q_int
        A_II = factor_interior(A_II, self.context)
        U = np.linalg.solve(A_II, self.neg_S)
        M = self.A_W2I @ U
        M += self.D
        M *= self.h
        return M, U, A_II

    def observation_block(self, U: np.ndarray, A_II: np.ndarray) -> np.ndarray:
        """V = A_II^-1 (-A_I,W2), solved against the block evaluate()
        returned (A is symmetric, so A_I,W2 = A_W2,I^T)."""
        return U if self.same else np.linalg.solve(A_II, -self.A_W2I.T)


def dn_from_operator(grid: Grid, fp: FracParams, g: np.ndarray | None,
                     W1: np.ndarray, W2: np.ndarray) -> DnMatrix:
    """DN matrix of the operator A of g (gamma^{1/2}, or None for
    (-Delta)^s), from its gathered blocks: column k solves the Dirichlet
    problem for the unit source at node k, and entry (l, k) = h^n (A u_k)_l
    is the pairing of u_k with the unit observation field at l in W2."""
    W1, W2 = np.asarray(W1, dtype=int), np.asarray(W2, dtype=int)
    data = _DnEvaluator.gather(grid, fp, g, W1, W2, "assemble_dn")
    return DnMatrix(W1, W2, data.evaluate(0.0)[0])


def assemble_dn(grid: Grid, fp: FracParams, gamma: Conductivity,
                W1: np.ndarray, W2: np.ndarray) -> DnMatrix:
    """DN matrix of the conductivity operator."""
    return dn_from_operator(grid, fp, gamma.sqrt, W1, W2)


def _row_blocks(grid: Grid) -> list[tuple[int, int]]:
    """Bounds (a, b) of the streamed passes' row blocks over the N rows, in
    order.

    The block height is BLOCK_BYTES over the bytes of one row, rounded
    down to a multiple of 8 rows (at least 8).  The rounding keeps BLAS's
    grouping of rows, and so the roundoff of each row of a block matvec,
    the same as in the full-matrix product.
    """
    step = max(BLOCK_BYTES // (8 * grid.N) // 8, 1) * 8
    return [(a, min(a + step, grid.N)) for a in range(0, grid.N, step)]


def _interior_rows(grid: Grid, lo: int, hi: int) -> tuple[int, int]:
    """(a, b) with interior_idx[a:b] the interior nodes in rows lo..hi."""
    a, b = np.searchsorted(grid.interior_idx, (lo, hi))
    return int(a), int(b)


@contextmanager
def _block_stream(buffers: list[tuple], height: int):
    """A pool of MAX_WORKERS threads, whatever the host's CPU count, for
    one or more runs over blocks of rows (or items); yields run.

    run(blocks, work) calls work(lo, hi, views) for every block lo..hi of
    blocks, at most height tall, so the GIL-free numpy calls of several
    blocks run at once, and returns work's results in block order and the
    number of workers (fewer than MAX_WORKERS when there are fewer blocks).
    Each worker takes the next block no worker has taken, so a worker the
    host holds up delays only the block it holds.  buffers lists one
    (dtype, row shape) per buffer: each worker owns one such array, height
    tall, for the whole stream and passes its first hi - lo rows as views,
    so nothing block-sized is allocated per block or per run.  BLAS runs
    on one thread while the stream is open, also for callers outside the
    CLI's own scope, so workers do not each start BLAS threads.  work must
    write only its own rows' slices.
    """
    arrays = [[np.empty((height, *shape), dtype) for dtype, shape in buffers]
              for _ in range(MAX_WORKERS)]

    def run(blocks, work) -> tuple[list, int]:
        workers = min(MAX_WORKERS, len(blocks))
        results = [None] * len(blocks)
        untaken = iter(range(len(blocks)))
        lock = threading.Lock()

        def stream(worker: int):
            while True:
                with lock:
                    k = next(untaken, None)
                if k is None:
                    return
                lo, hi = blocks[k]
                results[k] = work(lo, hi, [a[:hi - lo] for a in arrays[worker]])

        # list() re-raises the first exception of a worker
        list(pool.map(stream, range(workers)))
        return results, workers

    # imported here: only the streamed passes need them, and at module
    # level concurrent.futures would add its ~3 ms to every command's start
    import threading
    from concurrent.futures import ThreadPoolExecutor

    with one_blas_thread(), ThreadPoolExecutor(MAX_WORKERS) as pool:
        yield run


def _stream_blocks(blocks: list[tuple[int, int]], buffers: list[tuple],
                   work) -> tuple[list, int]:
    """One run of _block_stream over blocks: work(lo, hi, views) for every
    block, its results in block order and the number of workers."""
    with _block_stream(buffers, max(hi - lo for lo, hi in blocks)) as run:
        return run(blocks, work)


def liouville_reduce(grid: Grid, fp: FracParams,
                     gamma: Conductivity) -> np.ndarray:
    """Potential of the reduced Schroedinger equation, as a nodal array:

        q = -(-Delta)^s m / gamma^{1/2},   m = gamma^{1/2} - 1.

    Evaluated at every node; m being interior-supported does not make
    (-Delta)^s m interior-supported, so q is generically nonzero on the
    exterior (those values feed the DN gap identity).  (-Delta)^s m is
    gathered block by block from the (-Delta)^s rows alone
    (_stream_blocks), so memory is O(block N).
    """
    lap_m = np.empty(grid.N)

    def block(lo, hi, out):
        lap_m[lo:hi] = operator_rows(grid, fp, lo, hi, None, out=out)[0] \
            @ gamma.m_values

    _stream_blocks(_row_blocks(grid), [(float, (grid.N,))], block)
    return -lap_m / gamma.sqrt


@dataclass(frozen=True)
class ReductionCheck:
    """What verify_reduction measured: the reduction residual, both sides
    of the DN gap identity, the two DN pairings whose difference is the left
    side, the number of kernel row blocks the pass built and the number of
    workers that built them."""

    residual: float
    gap_left: float
    gap_right: float
    pairing_q: float
    pairing_gamma: float
    blocks: int
    workers: int


def _reduction_residual(C: np.ndarray, L: np.ndarray, nodes: np.ndarray,
                        g: np.ndarray, q: np.ndarray) -> float:
    """max |C D_{1/g} - D_g (L + diag q)| over the rows C and L of the
    given nodes, computed in place: both blocks are overwritten."""
    C *= (1.0 / g)[None, :]
    L[np.arange(nodes.size), nodes] += q
    L *= g[nodes, None]
    C -= L
    return np.max(np.abs(C, out=C))


def verify_reduction(grid: Grid, fp: FracParams, gamma: Conductivity,
                     f: np.ndarray, v: np.ndarray) -> ReductionCheck:
    """Both reduction identities from one pass over the row blocks.

    The residual is the max-norm residual of the matrix identity

        C_gamma D_{gamma^{-1/2}}  =  D_{gamma^{1/2}} ( L + diag q )

    over interior rows, relative to the scale max |C_ij|.  Exact (up to
    roundoff) for the punctured-sum discretization.  The scale is the
    largest diagonal entry, which is max |C_ij| bit for bit: the kernel is
    non-negative, rounding is monotone, and each diagonal entry is its row
    sum plus the tail.

    The DN gap identity, for exterior-supported f and v, reads

        left  = <Lambda_q f, v> - <Lambda_gamma f, v>
        right = h^n sum_{exterior} f_i v_i ((-Delta)^s m)_i

    computed independently: left from two DN pairings, each one DN
    evaluation on its operator's blocks (one solve against its interior
    block), right from the direct exterior sum.

    Each block gives (-Delta)^s m, A f and A v for both operators, the
    rows of C_II and L_II, and the residual of its interior rows, computed
    in place on the block.  The blocks are streamed by _stream_blocks: each
    writes only its own slices and returns its scale and residual maxima,
    combined in block order, so the result is bit-identical for any number
    of workers.  The pass keeps the block buffers, running maxima, length-N
    vectors and the two |I| x |I| interior blocks, so memory is
    O(block N + |I|^2); the buffers are gone before the two interior solves,
    each of which adds one copy of an interior block.
    """
    f = _check_exterior_support(grid, f, "verify_reduction: f")
    v = _check_exterior_support(grid, v, "verify_reduction: v")
    g = gamma.sqrt
    I = grid.interior_idx
    E = grid.exterior_idx
    cols = slice(I[0], I[-1] + 1)  # omega's nodes are one contiguous range
    Cf, Cv, Lf, Lv, lap_m = (np.empty(grid.N) for _ in range(5))
    C_II, L_II = np.empty((I.size, I.size)), np.empty((I.size, I.size))

    def block(lo, hi, out):
        C, L = operator_rows(grid, fp, lo, hi, g, None, out=out)
        scale = C.diagonal(lo).max()
        lap_m[lo:hi] = L @ gamma.m_values
        Cf[lo:hi], Cv[lo:hi] = C @ f, C @ v
        Lf[lo:hi], Lv[lo:hi] = L @ f, L @ v
        a, b = _interior_rows(grid, lo, hi)
        if a == b:
            return scale, 0.0
        rows = slice(I[a] - lo, I[b - 1] + 1 - lo)
        C_II[a:b] = C[rows, cols]
        L_II[a:b] = L[rows, cols]
        q = -lap_m[I[a:b]] / g[I[a:b]]
        return scale, _reduction_residual(C[rows], L[rows], I[a:b], g, q)

    maxima, workers = _stream_blocks(_row_blocks(grid),
                                     [(float, (grid.N,))] * 2, block)
    resid = scale = 0.0
    for block_scale, block_resid in maxima:
        scale = max(scale, block_scale)
        resid = max(resid, block_resid)

    def pairing(A_II, Af, Av, q):
        # <Lambda f, v> of A + diag(q): the DN data of the one source f
        # observed by v, whose blocks are (A f)_I, (A v)_I and v_E . (A f)_E
        data = _DnEvaluator(A_II, Av[I][None, :], Af[I][:, None],
                            np.array([[v[E] @ Af[E]]]), grid.h,
                            "verify_reduction")
        return float(data.evaluate(q)[0][0, 0])

    pairing_q = pairing(L_II, Lf, Lv, -lap_m[I] / g[I])
    pairing_gamma = pairing(C_II, Cf, Cv, 0.0)
    right = grid.h * float(np.sum(f[E] * v[E] * lap_m[E]))
    return ReductionCheck(float(resid / scale), pairing_q - pairing_gamma,
                          right, pairing_q, pairing_gamma, len(maxima),
                          workers)


def dn_gap(grid: Grid, fp: FracParams, gamma: Conductivity,
           f: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(left, right) of the DN gap identity, from verify_reduction."""
    check = verify_reduction(grid, fp, gamma, f, v)
    return check.gap_left, check.gap_right
