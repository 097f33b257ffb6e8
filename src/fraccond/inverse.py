"""Reconstruction of the conductivity from DN data.

Two-step pipeline: (1) recover the Schroedinger potential q from DN
measurements by damped Gauss-Newton on an output-least-squares objective
with Tikhonov weight; (2) solve the linear Dirichlet problem

    ((-Delta)^s + q) m = -q   in omega,   m = 0 outside,

and set gamma = (1 + m)^2.

Step (1) is one private Gauss-Newton loop, _fit_potential, over a forward
map and the entries it leaves out.  reconstruct_gamma (conductivity data)
and recover_potential_full (Schroedinger data) build them in _laplacian_data
from the data's own sets W1, W2, any exterior subsets, sorted once;
single_measurement_fit (one source g on W1, observed on a disjoint W2)
contracts the source blocks with g itself.  Step (2), one tail for both
gamma entry points, solves against the block the fit last checked and
raises ReconstructionError when 1 + m <= 0: a report always has gamma.

The fit runs on one BLAS thread, as every CLI command does, and records
one Iterate per accepted step; InversionReport derives converged,
data_residual and residual_history from its stop_reason and iterations,
so each fact is stored once.

The forward map q -> Schroedinger DN data is forward._DnEvaluator on the
Laplacian's blocks, gathered once per inversion (_DnEvaluator.gather); an
evaluation only adds diag(q) to the interior block, checks it
(factor_interior) and solves against it with numpy's LAPACK (gesv).

The Jacobian of the DN data in the interior q values is the Khatri-Rao
product J[l, k, i] = h U[i, k] V[i, l] of the interior solution blocks for
the sources (U) and the observations (V).  The Gauss-Newton normal matrix
J^T J and gradient J^T r are contracted from those |I|-row blocks directly,
so no array of order |W1| |W2| |I| is ever formed; see _NormalEquations.

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
_SINGULAR_Q = "(-Delta)^s + q has 0 as an eigenvalue on omega"
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
    q: np.ndarray  # nodal potential, zero outside omega
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
        self.mu, self.Q = np.linalg.eigh(self.G)

    def j(self, d: np.ndarray) -> np.ndarray:
        """J d as a (|W2|, |W1|) array, zero on the excluded entries."""
        X = self.V.T @ (d[:, None] * self.U)
        X *= self.h
        X[self.excluded] = 0.0
        return X

    def jt(self, X: np.ndarray) -> np.ndarray:
        """J^T x for x given as a (|W2|, |W1|) array zero off the mask."""
        return self.h * np.sum(self.V * (self.U @ X.T), axis=1)

    def _solve(self, rhs: np.ndarray, lam: float) -> np.ndarray:
        """-(G + lam I)^-1 rhs in G's eigenbasis.  Levels mu + lam within
        |I| eps of the top eigenvalue are round-off of G and are dropped, as
        lstsq's rcond cutoff drops them."""
        d = self.mu + lam
        keep = d > d.size * np.finfo(float).eps * max(self.mu[-1], 0.0)
        Qk = self.Q[:, keep]
        return -Qk @ ((Qk.T @ rhs) / d[keep])

    def step(self, q: np.ndarray, lam: float) -> np.ndarray:
        """Minimizer delta of |J delta + r|^2 + lam |q + delta|^2.

        Forming G squares the condition number of the stacked system
        [J; sqrt(lam) I].  Refinement sweeps that recompute the normal
        residual through J itself restore the accuracy of a least-squares
        solve of the stacked system (corrected semi-normal equations).
        """
        delta = self._solve(self.g + lam * q, lam)
        for _ in range(self.REFINE_SWEEPS):
            rho = self.jt(self.j(delta) + self.R) + lam * (q + delta)
            delta = delta + self._solve(rho, lam)
        return delta


def _fit_potential(grid: Grid, cfg: InversionConfig, data: _DnEvaluator,
                   observed: np.ndarray, excluded: tuple[np.ndarray, np.ndarray]):
    """Damped Gauss-Newton over interior potential values from q = 0.

    `data` is the forward map, the DN evaluator of the Laplacian, and
    `observed` the DN data it is fitted to; the entries `excluded` (index
    arrays, as np.nonzero returns them) are left out of the fit.

    reg_lambda is dimensionless: it multiplies the top eigenvalue of the
    initial Gram J^T J (the squared top singular value of J), so the
    Tikhonov filter acts at relative singular level sqrt(reg_lambda)
    regardless of grid scaling.  Each step solves the normal equations
    (G + lam I) delta = -(g + lam q) of the structured Gram (see
    _NormalEquations).  Line-search trials evaluate the residual only; G
    and g are formed once per accepted step.  Acceptance enforces strict
    decrease of the damped objective, so the residual history (sqrt of
    the objective per accepted step) is non-increasing by construction.

    The loop, interior solves included, runs on one BLAS thread, as every
    CLI command does: its operands have only |I| rows, where OpenBLAS's
    one thread per CPU runs an order of magnitude slower.

    Returns the fitted potential (a nodal array, zero outside omega), its
    checked block A_II + diag(q), then iterations, stop_reason and
    lambda_used in InversionReport's field order.
    """
    keep = np.ones(observed.shape, dtype=bool)
    keep[excluded] = False
    with one_blas_thread():
        q = np.zeros(grid.interior_idx.size)
        scale = max(float(np.linalg.norm(observed[keep])), 1e-30)

        def residual(M):
            M -= observed
            M[excluded] = 0.0
            return M

        def normal_equations(U, A_II, R):
            return _NormalEquations(data.observation_block(U, A_II), U, R,
                                    excluded, data.h)

        M, U, A_II = data.evaluate(q)
        R = residual(M)
        ne = normal_equations(U, A_II, R)
        lam = cfg.reg_lambda * max(float(ne.mu[-1]), 0.0)

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
            delta = ne.step(q, lam)
            phi0 = objective(R, q)
            t, trials = 1.0, 0
            while t >= DAMPING_FLOOR:
                trials += 1
                q_try = q + t * delta
                try:
                    M_try, U_try, A_II_try = data.evaluate(q_try)
                except SolverError:
                    t *= STEP_DAMPING
                    continue
                R_try = residual(M_try)
                if objective(R_try, q_try) < phi0:
                    break
                t *= STEP_DAMPING
            else:
                stop_reason = "damping_floor"  # keep the best iterate
                break
            q, R, U, A_II = q_try, R_try, U_try, A_II_try
            record(t, trials)
            if iterations[-1].data_residual < cfg.tol:
                stop_reason = "converged"
    q_full = np.zeros(grid.N)
    q_full[grid.interior_idx] = q
    return q_full, A_II, iterations, stop_reason, lam


def _laplacian_data(grid: Grid, fp: FracParams, observed: DnMatrix):
    """The Laplacian's DN evaluator on the data's sets W1 and W2, any
    subsets of the exterior, both sorted so that q does not depend on their
    order; the data, checked against the sets' shape and permuted to match;
    and its entries whose source and observation are one node."""
    W1 = np.asarray(observed.source_idx, dtype=int)
    W2 = np.asarray(observed.obs_idx, dtype=int)
    M = np.asarray(observed.matrix, dtype=float)
    if M.shape != (W2.size, W1.size):
        raise ValueError(f"DN data fit: observed has shape {M.shape}, "
                         f"but W1 and W2 give {(W2.size, W1.size)}")
    p1, p2 = np.argsort(W1), np.argsort(W2)
    W1, W2 = W1[p1], W2[p2]
    data = _DnEvaluator.gather(grid, fp, None, W1, W2, _SINGULAR_Q)
    return data, M[np.ix_(p2, p1)], np.nonzero(W2[:, None] == W1[None, :])


def recover_potential_full(observed: DnMatrix, grid: Grid, fp: FracParams,
                           cfg: InversionConfig | None = None) -> np.ndarray:
    """Fit q to every entry of a Schroedinger DN matrix on any exterior sets
    W1 (observed.source_idx) and W2 (observed.obs_idx)."""
    data, M, _ = _laplacian_data(grid, fp, observed)
    return _fit_potential(grid, cfg or InversionConfig(), data, M,
                          _NO_ENTRIES)[0]


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
    A_II[np.diag_indices_from(A_II)] += q[grid.interior_idx]
    return _deviation(grid, q, factor_interior(A_II, context))


def _deviation(grid: Grid, q: np.ndarray, A_II: np.ndarray) -> np.ndarray:
    """m with A_II m_I = -q_I for the checked A_II = L_II + diag(q_I)."""
    m = np.zeros(grid.N)
    m[grid.interior_idx] = np.linalg.solve(A_II, -q[grid.interior_idx])
    return m


def _gamma_report(grid: Grid, q: np.ndarray, A_II: np.ndarray,
                  *fit) -> InversionReport:
    """The report of a fit: m solved against the block it last checked
    (recover_m_from_q's matrix bit for bit) and gamma = (1 + m)^2; an m
    that Conductivity rejects (1 + m <= 0 or NaN) raises
    ReconstructionError."""
    m = _deviation(grid, q, A_II)
    try:
        gamma = Conductivity.from_m(grid, m)
    except ValueError as exc:
        raise ReconstructionError(f"recovered gamma rejected: {exc}") from None
    return InversionReport(q, m, gamma, *fit)


def reconstruct_gamma(observed: DnMatrix, grid: Grid, fp: FracParams,
                      cfg: InversionConfig | None = None) -> InversionReport:
    """Full pipeline from conductivity DN data to gamma = (1 + m)^2.

    The data may sit on any exterior sets W1 (observed.source_idx) and W2
    (observed.obs_idx).  The entries whose source and observation are the
    same node, where conductivity and Schroedinger DN data differ by the
    gap identity, are left out; q is fitted to the rest.
    """
    data, M, shared = _laplacian_data(grid, fp, observed)
    return _gamma_report(grid, *_fit_potential(
        grid, cfg or InversionConfig(), data, M, shared))


def single_measurement_fit(g: np.ndarray, observed_response: np.ndarray,
                           W1: np.ndarray, W2: np.ndarray,
                           grid: Grid, fp: FracParams,
                           cfg: InversionConfig | None = None) -> InversionReport:
    """Fit q from a single exterior source g (on the lattice or on W1)
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
        raise ValueError(f"DN data fit: observed has shape {observed.shape}, "
                         f"but W2 gives {W2.shape}")
    if np.intersect1d(W1, W2).size:
        raise ValueError("DN data fit: one source needs W1, W2 disjoint")
    p1, p2 = np.argsort(W1), np.argsort(W2)
    units = _DnEvaluator.gather(grid, fp, None, W1[p1], W2[p2], _SINGULAR_Q)
    if lattice:  # checked once W1 is known to lie in the exterior
        off = np.setdiff1d(np.flatnonzero(g), W1)
        if off.size:
            raise ValueError(f"single_measurement_fit: lattice source g is "
                             f"nonzero at node {off[0]}, outside W1")
    with one_blas_thread():  # the fit's own scope; these are BLAS products
        data = _DnEvaluator(units.A_II, units.A_W2I,
                            (units.A_IW1 @ g_W1[p1])[:, None],
                            (units.D @ g_W1[p1])[:, None], grid.h, _SINGULAR_Q)
    return _gamma_report(grid, *_fit_potential(
        grid, cfg or InversionConfig(reg_lambda=1e-6), data,
        observed[p2][:, None], _NO_ENTRIES))
