"""Reconstruction of the conductivity from DN data.

The unknown is the deviation m = gamma^{1/2} - 1 on omega (m = 0 outside),
so gamma = (1 + m)^2.  The data are matched through the reduced
Schroedinger potential, which is a function of m:

    q(m)_I = -(L_II m_I) / (1 + m_I),    L = (-Delta)^s,

and (L_II + diag q(m)) = D^-1 C_II D^-1 with D = diag(1 + m_I) and C_II the
conductivity block, a diagonally dominant M-matrix.  Every m with
1 + m > 0 is an admissible gamma whose interior block is SPD.

One private damped Gauss-Newton loop, _fit_potential, iterates on m_I from
m = 0 over a forward map and the entries it leaves out; it minimises
|r|^2 + lam |q(m)|^2.  reconstruct_gamma (conductivity data) builds them in
_laplacian_data from the data's own sets W1, W2, any exterior subsets,
sorted once; single_measurement_fit (one source g on W1, observed on a
disjoint W2) contracts the source blocks with g itself.  The line search
never leaves 1 + m > 0, so a report always has gamma.

The fit runs on one BLAS thread, as every CLI command does, and records
one Iterate per accepted step; InversionReport derives converged,
data_residual and residual_history from its stop_reason and iterations,
so each fact is stored once.

The forward map q -> Schroedinger DN data is forward._DnEvaluator on the
Laplacian's blocks, gathered once per inversion (_DnEvaluator.gather); an
evaluation only adds diag(q) to the interior block, checks it
(factor_interior, certified under the scaling 1 + m) and solves against
it with numpy's LAPACK (gesv).

The Jacobian of the DN data in the interior q values is the Khatri-Rao
product J[l, k, i] = h U[i, k] V[i, l] of the interior solution blocks for
the sources (U) and the observations (V).  The Gauss-Newton normal matrix
J^T J and gradient J^T r are contracted from those |I|-row blocks directly,
so no array of order |W1| |W2| |I| is ever formed; see _NormalEquations.
The chain rule into m is dq/dm = -D^-1 (L_II + diag q), the block the
evaluation has just checked.

Under the reduction, conductivity and Schroedinger DN data agree on every
entry whose source and observation nodes differ (the DN gap identity lives
on the others), so the fit leaves out exactly the shared-node entries of
conductivity data: the diagonal for W1 = W2, nothing for disjoint W1, W2
(the paper's first theorem).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .core import FracParams, Grid
from .forward import DnMatrix, SolverError, _DnEvaluator, factor_interior
from .operators import Conductivity

DAMPING_FLOOR = 1e-8
STEP_DAMPING = 0.5  # a rejected line-search trial halves the step
_FIT = "DN data fit"
_NO_NODES = np.empty(0, dtype=int)
_NO_ENTRIES = (_NO_NODES,) * 2  # excluded entries of a full fit


class ReconstructionError(RuntimeError):
    pass


@dataclass
class InversionConfig:
    reg_lambda: float = 1e-12
    max_iter: int = 40
    tol: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.reg_lambda) and self.reg_lambda >= 0):
            raise ValueError("InversionConfig: reg_lambda must be finite "
                             "and >= 0")
        if self.max_iter < 1:
            raise ValueError("InversionConfig: max_iter must be >= 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("InversionConfig: tol must be finite and > 0")


@dataclass(frozen=True)
class Iterate:
    """One Gauss-Newton iterate; the starting point has step_length 0."""

    step_length: float
    trials: int  # forward evaluations in the line search that produced it
    objective: float  # |r|^2 + lambda |q|^2
    data_residual: float  # |r| relative to the fitted observed entries


@dataclass
class InversionReport:
    q: np.ndarray  # nodal potential q(m), zero outside omega
    m: np.ndarray
    gamma: Conductivity
    iterations: list[Iterate] = field(default_factory=list)
    # converged | max_iter | damping_floor
    stop_reason: str = ""
    lambda_used: float = float("nan")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def data_residual(self) -> float:
        return self.iterations[-1].data_residual if self.iterations \
            else float("nan")

    @property
    def residual_history(self) -> list[float]:
        """sqrt of the damped objective at each iterate, non-increasing."""
        return [np.sqrt(it.objective) for it in self.iterations]


class _NormalEquations:
    """Gauss-Newton normal equations at one iterate, from the solution blocks.

    With J[l, k, i] = h V[i, l] U[i, k] restricted to the kept entries and
    R the data residual, zero on the excluded entries:

        G = J^T J = h^2 [(V V^T) o (U U^T) - B B^T],  B[:, e] = V[:, l] o U[:, k]
        g = J^T r,  g_i = h sum_{l, k} V[i, l] R[l, k] U[i, k]

    where e = (l, k) runs over the `excluded` entries, given as the pair
    of index arrays np.nonzero(~mask): the entries whose source and
    observation are one node, so at most min(|W1|, |W2|) of them.  B is
    one (|I|, #excluded) array, and memory stays O(|I| |W2|).
    """

    REFINE_SWEEPS = 2

    def __init__(self, V: np.ndarray, U: np.ndarray, R: np.ndarray,
                 excluded: tuple[np.ndarray, np.ndarray], h: float):
        self.V, self.U, self.R, self.excluded, self.h = V, U, R, excluded, h
        G = (V @ V.T) * (U @ U.T)
        B = V[:, excluded[0]] * U[:, excluded[1]]
        G -= B @ B.T
        self.G = h * h * G
        self.g = self.jt(R)
        if not (np.all(np.isfinite(self.G)) and np.all(np.isfinite(self.g))):
            raise ReconstructionError(
                "Gauss-Newton normal equations are not finite")

    def j(self, d: np.ndarray) -> np.ndarray:
        """J d as a (|W2|, |W1|) array, zero on the excluded entries."""
        X = self.V.T @ (d[:, None] * self.U)
        X *= self.h
        X[self.excluded] = 0.0
        return X

    def jt(self, X: np.ndarray) -> np.ndarray:
        """J^T x for x given as a (|W2|, |W1|) array zero off the mask."""
        return self.h * np.sum(self.V * (self.U @ X.T), axis=1)

    def step(self, q: np.ndarray, lam: float, P: np.ndarray) -> np.ndarray:
        """Minimizer delta of |J P delta + r|^2 + lam |q + P delta|^2: the
        step in coordinates whose Jacobian into q is P (P = I: in q).

        Its Gram P^T (G + lam I) P is solved in its eigenbasis; levels
        within |I| eps of the top one are round-off and are dropped, as
        lstsq's rcond cutoff drops them.  Forming the Gram squares the
        condition number of the stacked system [J P; sqrt(lam) P].
        Refinement sweeps that recompute the normal residual through J
        itself restore the accuracy of a least-squares solve of the
        stacked system (corrected semi-normal equations).
        """
        H = self.G + lam * np.eye(q.size)
        mu, Q = np.linalg.eigh(P.T @ H @ P)
        keep = mu > mu.size * np.finfo(float).eps * max(mu[-1], 0.0)
        Q, mu = Q[:, keep], mu[keep]

        def solve(rhs):  # -(P^T H P)^-1 P^T rhs
            return -Q @ ((Q.T @ (P.T @ rhs)) / mu)

        delta = solve(self.g + lam * q)
        for _ in range(self.REFINE_SWEEPS):
            e = P @ delta
            delta = delta + solve(self.jt(self.j(e) + self.R) + lam * (q + e))
        return delta


def _fit_potential(grid: Grid, cfg: InversionConfig, data: _DnEvaluator,
                   observed: np.ndarray,
                   excluded: tuple[np.ndarray, np.ndarray]) -> InversionReport:
    """Damped Gauss-Newton over the interior deviation m from m = 0.

    `data` is the forward map, the DN evaluator of the Laplacian, and
    `observed` the DN data it is fitted to; the entries `excluded` (index
    arrays, as np.nonzero returns them) are left out of the fit.  Each
    iterate's data are those of the potential q(m) = -(L_II m)/(1 + m),
    L_II the evaluator's interior block.

    reg_lambda is dimensionless: it multiplies the top eigenvalue of the
    initial Gram J^T J in q (the squared top singular value of J at q = 0),
    so the Tikhonov filter on q acts at relative singular level
    sqrt(reg_lambda) regardless of grid scaling.  Each step minimises the
    linearised objective in m (_NormalEquations.step with the chain rule
    P = dq/dm = -D^-1 (L_II + diag q), D = diag(1 + m)).  Line-search
    trials evaluate the residual only; G and g are formed once per accepted
    step.  A trial with 1 + m <= 0 anywhere is halved without an
    evaluation.  An admissible one is accepted on strict decrease of the
    damped objective, so the residual history (sqrt of the objective per
    accepted step) is non-increasing by construction; its block can still
    fail factor_interior's rule when 1 + m comes within ~1e-14 of 0 at a
    node, and such a trial is halved like one that does not decrease.

    The loop, interior solves included, runs on one BLAS thread, as every
    CLI command does: its operands have only |I| rows, where OpenBLAS's
    one thread per CPU runs an order of magnitude slower.
    """
    keep = np.ones(observed.shape, dtype=bool)
    keep[excluded] = False
    with one_blas_thread():
        m = np.zeros(grid.interior_idx.size)
        scale = max(float(np.linalg.norm(observed[keep])), 1e-30)

        def potential(mv):
            return -(data.A_II @ mv) / (1.0 + mv)

        def residual(M):
            M -= observed
            M[excluded] = 0.0
            return M

        def normal_equations(U, A_II, R):
            return _NormalEquations(data.observation_block(U, A_II), U, R,
                                    excluded, data.h)

        q = potential(m)
        M, U, A_II = data.evaluate(q, 1.0 + m)
        R = residual(M)
        ne = normal_equations(U, A_II, R)
        lam = cfg.reg_lambda * max(float(np.linalg.eigvalsh(ne.G)[-1]), 0.0)

        def objective(Rv, qv):
            return float(np.vdot(Rv, Rv) + lam * qv @ qv)

        iterations: list[Iterate] = []

        def record(step_length, trials):
            iterations.append(Iterate(step_length, trials, objective(R, q),
                                      float(np.linalg.norm(R)) / scale))

        record(0.0, 0)
        stop_reason = "converged" if iterations[-1].data_residual < cfg.tol \
            else "max_iter"
        for it in range(cfg.max_iter):
            if stop_reason == "converged":
                break
            if it:
                ne = normal_equations(U, A_II, R)
            delta = ne.step(q, lam, A_II * (-1.0 / (1.0 + m))[:, None])
            phi0 = objective(R, q)
            t, trials = 1.0, 0
            while t >= DAMPING_FLOOR:
                m_try = m + t * delta
                if np.all(1.0 + m_try > 0.0):  # an admissible gamma
                    trials += 1
                    q_try = potential(m_try)
                    try:
                        M_try, U_try, A_II_try = data.evaluate(q_try,
                                                               1.0 + m_try)
                    except SolverError:  # 1 + m within ~1e-14 of 0 somewhere
                        t *= STEP_DAMPING
                        continue
                    R_try = residual(M_try)
                    if objective(R_try, q_try) < phi0:
                        break
                t *= STEP_DAMPING
            else:
                stop_reason = "damping_floor"  # keep the best iterate
                break
            m, q, R, U, A_II = m_try, q_try, R_try, U_try, A_II_try
            record(t, trials)
            if iterations[-1].data_residual < cfg.tol:
                stop_reason = "converged"
    q_full, m_full = np.zeros(grid.N), np.zeros(grid.N)
    q_full[grid.interior_idx], m_full[grid.interior_idx] = q, m
    return InversionReport(q_full, m_full, Conductivity.from_m(grid, m_full),
                           iterations, stop_reason, lam)


def _laplacian_data(grid: Grid, fp: FracParams, observed: DnMatrix):
    """The Laplacian's DN evaluator on the data's sets W1 and W2, any
    subsets of the exterior, both sorted so that the fit does not depend
    on their order; the data, checked against the sets' shape and permuted
    to match; and its entries whose source and observation are one node."""
    W1 = np.asarray(observed.source_idx, dtype=int)
    W2 = np.asarray(observed.obs_idx, dtype=int)
    M = np.asarray(observed.matrix, dtype=float)
    if M.shape != (W2.size, W1.size):
        raise ValueError(f"{_FIT}: observed has shape {M.shape}, "
                         f"but W1 and W2 give {(W2.size, W1.size)}")
    p1, p2 = np.argsort(W1), np.argsort(W2)
    W1, W2 = W1[p1], W2[p2]
    data = _DnEvaluator.gather(grid, fp, None, W1, W2, _FIT)
    return data, M[np.ix_(p2, p1)], np.nonzero(W2[:, None] == W1[None, :])


def recover_m_from_q(q: np.ndarray, grid: Grid, fp: FracParams) -> np.ndarray:
    """Solve the reduced Dirichlet problem for the deviation m.

    ((-Delta)^s + q) m = -q on interior nodes, m = 0 on exterior nodes;
    q is a nodal array, and only its interior values are read.
    The pair (m, q) produced by the reduction satisfies this identically,
    so recovering m from the true q is a single linear solve against
    A_II, gathered with no sources or observations and shifted in place,
    so memory is O(block N + |I|^2).
    """
    context = "recover_m_from_q: 0 is an eigenvalue of (-Delta)^s + q on omega"
    A_II = _DnEvaluator.gather(grid, fp, None, _NO_NODES, _NO_NODES,
                               context).A_II
    I = grid.interior_idx
    A_II[np.diag_indices_from(A_II)] += q[I]
    m = np.zeros(grid.N)
    m[I] = np.linalg.solve(factor_interior(A_II, context), -q[I])
    return m


def reconstruct_gamma(observed: DnMatrix, grid: Grid, fp: FracParams,
                      cfg: InversionConfig | None = None) -> InversionReport:
    """Full pipeline from conductivity DN data to gamma = (1 + m)^2.

    The data may sit on any exterior sets W1 (observed.source_idx) and W2
    (observed.obs_idx).  The entries whose source and observation are the
    same node, where conductivity and Schroedinger DN data differ by the
    gap identity, are left out; m is fitted to the rest.
    """
    data, M, shared = _laplacian_data(grid, fp, observed)
    return _fit_potential(grid, cfg or InversionConfig(), data, M, shared)


def single_measurement_fit(g: np.ndarray, observed_response: np.ndarray,
                           W1: np.ndarray, W2: np.ndarray,
                           grid: Grid, fp: FracParams,
                           cfg: InversionConfig | None = None) -> InversionReport:
    """Fit m from a single exterior source g (on the lattice or on W1)
    observed on W2; a lattice g must vanish off W1.

    Requires W1, W2 and omega pairwise disjoint with g nonzero; under that
    geometry the conductivity response on W2 equals the Schroedinger
    response of the reduced potential exactly, so every entry is fitted.
    The problem is heavily underdetermined; judge the result by its residual.
    """
    W1, W2 = np.asarray(W1, dtype=int), np.asarray(W2, dtype=int)
    g = np.asarray(g, dtype=float)
    lattice = g.shape == (grid.N,)
    g_W1 = g[W1] if lattice else g
    if g_W1.shape != W1.shape or not np.any(g_W1):
        raise ValueError("single_measurement_fit: source g must be nonzero "
                         "and given on the lattice or on W1")
    observed = np.asarray(observed_response, dtype=float)
    if observed.shape != W2.shape:
        raise ValueError(f"{_FIT}: observed has shape {observed.shape}, "
                         f"but W2 gives {W2.shape}")
    if np.intersect1d(W1, W2).size:
        raise ValueError(f"{_FIT}: one source needs W1, W2 disjoint")
    p1, p2 = np.argsort(W1), np.argsort(W2)
    units = _DnEvaluator.gather(grid, fp, None, W1[p1], W2[p2], _FIT)
    if lattice:  # checked once W1 is known to lie in the exterior
        off = np.setdiff1d(np.flatnonzero(g), W1)
        if off.size:
            raise ValueError(f"single_measurement_fit: lattice source g is "
                             f"nonzero at node {off[0]}, outside W1")
    with one_blas_thread():  # the fit's own scope; these are BLAS products
        data = _DnEvaluator(units.A_II, units.A_W2I,
                            (units.A_IW1 @ g_W1[p1])[:, None],
                            (units.D @ g_W1[p1])[:, None], grid.h, _FIT)
    return _fit_potential(grid, cfg or InversionConfig(reg_lambda=1e-6), data,
                          observed[p2][:, None], _NO_ENTRIES)
