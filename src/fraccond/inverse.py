"""Reconstruction of the conductivity from DN data.

Two-step pipeline: (1) recover the Schroedinger potential q from DN
measurements by damped Gauss-Newton on an output-least-squares objective
with Tikhonov weight; (2) solve the linear Dirichlet problem

    ((-Delta)^s + q) m = -q   in omega,   m = 0 outside,

and set gamma = (1 + m)^2.

Step (1) is one private fit, _fit_potential, which every entry point calls
directly: reconstruct_gamma (conductivity data on W1 = W2 = exterior, the
diagonal masked), recover_potential_full (full exterior data, every entry
fitted) and single_measurement_fit (one source g on W1 observed on W2).
The fit runs on one BLAS thread, as every CLI command does, and records
one Iterate per accepted step; InversionReport derives converged,
data_residual and residual_history from its stop_reason and iterations,
so each fact is stored once.

The forward map q -> Schroedinger DN data is forward._DnEvaluator on the
Laplacian, assembled once per inversion; an evaluation only adds diag(q)
to the interior block, checks it (factor_interior) and solves against it
with numpy's LAPACK (gesv).

The Jacobian of the DN data in the interior q values is the Khatri-Rao
product J[l, k, i] = h U[i, k] V[i, l] of the interior solution blocks for
the sources (U) and the observations (V).  The Gauss-Newton normal matrix
J^T J and gradient J^T r are contracted from those |I|-row blocks directly,
so no array of order |W1| |W2| |I| is ever formed; see _NormalEquations.

When the observed matrix comes from the conductivity operator, its entries
agree with the Schroedinger DN matrix of the reduced potential everywhere
except on the diagonal of the exterior-by-exterior block (the DN gap
identity lives exactly there), so the full-data fit masks the diagonal;
that is the discrete counterpart of testing with disjoint source/receiver
supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .core import FracParams, Grid
from .forward import (DnMatrix, Potential, SolverError, _DnEvaluator,
                      factor_interior)
from .operators import Conductivity, assemble_laplacian, operator_rows

DAMPING_FLOOR = 1e-8
_SINGULAR_Q = "(-Delta)^s + q has 0 as an eigenvalue on omega"


class ReconstructionError(RuntimeError):
    pass


@dataclass
class InversionConfig:
    reg_lambda: float = 1e-12
    max_iter: int = 40
    tol: float = 1e-9
    step_damping: float = 0.5

    def __post_init__(self):
        if self.reg_lambda < 0:
            raise ValueError("InversionConfig: reg_lambda must be >= 0")
        if self.max_iter < 1:
            raise ValueError("InversionConfig: max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("InversionConfig: tol must be > 0")
        if not 0.0 < self.step_damping < 1.0:
            raise ValueError("InversionConfig: step_damping must be in (0, 1)")


@dataclass(frozen=True)
class Iterate:
    """One Gauss-Newton iterate; the starting point has step_length 0."""

    step_length: float
    trials: int  # forward evaluations in the line search that produced it
    objective: float  # |r|^2 + lambda |q|^2
    data_residual: float  # |r| relative to the fitted observed entries


@dataclass
class InversionReport:
    q: Potential
    m: np.ndarray
    gamma: Conductivity | None
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
    of index arrays np.nonzero(~mask).  B is built |W2| columns at a time,
    so memory stays O(|I| |W2|) for any mask.
    """

    REFINE_SWEEPS = 2

    def __init__(self, V: np.ndarray, U: np.ndarray, R: np.ndarray,
                 excluded: tuple[np.ndarray, np.ndarray], h: float):
        self.V, self.U, self.R, self.excluded, self.h = V, U, R, excluded, h
        G = (V @ V.T) * (U @ U.T)
        rows, cols = excluded
        chunk = V.shape[1]
        for c in range(0, rows.size, chunk):
            B = V[:, rows[c:c + chunk]] * U[:, cols[c:c + chunk]]
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


def _fit_potential(grid: Grid, fp: FracParams, cfg: InversionConfig,
                   W1: np.ndarray, W2: np.ndarray, observed: np.ndarray,
                   mask: np.ndarray, g_W1: np.ndarray | None):
    """Damped Gauss-Newton over interior potential values from q = 0.

    reg_lambda is dimensionless: it multiplies the top eigenvalue of the
    initial Gram J^T J (the squared top singular value of J), so the
    Tikhonov filter acts at relative singular level sqrt(reg_lambda)
    regardless of grid scaling.  Each step solves the normal equations
    (G + lam I) delta = -(g + lam q) of the structured Gram (see
    _NormalEquations).  Line-search trials evaluate the residual only; G
    and g are formed once per accepted step.  Acceptance enforces strict
    decrease of the damped objective, so the residual history (sqrt of
    the objective per accepted step) is non-increasing by construction.
    `observed` and `mask` have the data's (|W2|, columns) shape.  Unit-source
    data (g_W1 None) must cover W1 = W2 = exterior_idx.

    The loop runs on one BLAS thread: its BLAS/LAPACK operands have only
    |I| rows (tens to a few hundred), where OpenBLAS's default of one thread
    per CPU runs them an order of magnitude slower.  The CLI holds every
    command at one thread already; this scope gives in-process callers the
    same speed and the same round-off.  The interior solves run in numpy's
    OpenBLAS too, so the cap covers every call of the loop.

    Returns the fitted Potential (zero outside omega), then iterations,
    stop_reason and lambda_used in InversionReport's field order.
    """
    E = grid.exterior_idx
    if g_W1 is None and not (np.array_equal(W1, E)
                             and np.array_equal(W2, E)):
        raise ValueError("DN data fit: observed must cover "
                         "W1 = W2 = exterior_idx")
    with one_blas_thread():
        data = _DnEvaluator(grid, assemble_laplacian(grid, fp).matrix, W1, W2,
                            g_W1, _SINGULAR_Q)
        q = np.zeros(grid.interior_idx.size)
        scale = max(float(np.linalg.norm(observed[mask])), 1e-30)
        excluded = np.nonzero(~mask)

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
                    t *= cfg.step_damping
                    continue
                R_try = residual(M_try)
                if objective(R_try, q_try) < phi0:
                    break
                t *= cfg.step_damping
            else:
                stop_reason = "damping_floor"  # keep the best iterate
                break
            q, R, U, A_II = q_try, R_try, U_try, A_II_try
            record(t, trials)
            if iterations[-1].data_residual < cfg.tol:
                stop_reason = "converged"
    q_full = np.zeros(grid.N)
    q_full[grid.interior_idx] = q
    return (Potential(q_full, interior_supported=True), iterations,
            stop_reason, lam)


def recover_potential_full(observed: DnMatrix, grid: Grid, fp: FracParams,
                           cfg: InversionConfig | None = None) -> Potential:
    """Fit q to every entry of a full exterior-by-exterior DN matrix.

    `observed` must be assembled with W1 = W2 = exterior_idx; fitting all
    entries is appropriate for Schroedinger data.
    """
    cfg = cfg or InversionConfig()
    mask = np.ones(observed.matrix.shape, dtype=bool)
    return _fit_potential(grid, fp, cfg, observed.source_idx, observed.obs_idx,
                          observed.matrix, mask, None)[0]


def recover_m_from_q(q: Potential, grid: Grid, fp: FracParams) -> np.ndarray:
    """Solve the reduced Dirichlet problem for the deviation m.

    ((-Delta)^s + q) m = -q on interior nodes, m = 0 on exterior nodes.
    The pair (m, q) produced by the reduction satisfies this identically,
    so recovering m from the true q is a single linear solve.  A_II comes
    from the interior rows of (-Delta)^s only (omega's nodes are
    consecutive), not from the full N x N matrix.
    """
    I = grid.interior_idx
    lo, hi = int(I[0]), int(I[-1]) + 1
    A_II = operator_rows(grid, fp, lo, hi, None)[0][:, I]
    A_II[np.diag_indices_from(A_II)] += q.values[I]
    factor_interior(A_II, "recover_m_from_q: 0 is an eigenvalue of "
                    "(-Delta)^s + q on omega")
    m = np.zeros(grid.N)
    m[I] = np.linalg.solve(A_II, -q.values[I])
    return m


def reconstruct_gamma(observed: DnMatrix, grid: Grid, fp: FracParams,
                      cfg: InversionConfig | None = None) -> InversionReport:
    """Full pipeline from conductivity DN data to gamma = (1 + m)^2.

    Masks the diagonal of the observed matrix (where conductivity and
    Schroedinger DN data differ by the gap identity) and fits q to the rest.
    """
    cfg = cfg or InversionConfig()
    offdiag = ~np.eye(observed.matrix.shape[0], dtype=bool)
    pot, *fit = _fit_potential(grid, fp, cfg, observed.source_idx,
                               observed.obs_idx, observed.matrix, offdiag,
                               None)
    m = recover_m_from_q(pot, grid, fp)
    if np.min(1.0 + m) <= 0.0:
        raise ReconstructionError(
            "reconstruct_gamma: recovered 1 + m is not positive; "
            "gamma would violate its lower bound")
    gamma = Conductivity.from_m(grid, m)
    return InversionReport(pot, m, gamma, *fit)


def single_measurement_fit(g: np.ndarray, observed_response: np.ndarray,
                           W1: np.ndarray, W2: np.ndarray,
                           grid: Grid, fp: FracParams,
                           cfg: InversionConfig | None = None) -> InversionReport:
    """Fit q from a single exterior source g (supported on W1) observed on W2.

    Requires W1, W2 and omega pairwise disjoint with g nonzero; under that
    geometry the conductivity response on W2 equals the Schroedinger
    response of the reduced potential exactly, so the data is fitted with
    the Schroedinger forward map.  The problem is heavily underdetermined;
    acceptance of the result is residual-based.
    """
    cfg = cfg or InversionConfig(reg_lambda=1e-6)
    W1 = np.asarray(W1, dtype=int)
    W2 = np.asarray(W2, dtype=int)
    if set(W1.tolist()) & set(W2.tolist()):
        raise ValueError("single_measurement_fit: W1 and W2 must be disjoint")
    g = np.asarray(g, dtype=float)
    g_W1 = g[W1] if g.shape == (grid.N,) else g.copy()
    if not np.any(g_W1):
        raise ValueError("single_measurement_fit: source g must be nonzero")
    observed = np.asarray(observed_response, dtype=float)
    if observed.shape != (W2.size,):
        raise ValueError("single_measurement_fit: observed_response must "
                         "match the size of W2")
    # canonical node ordering: the objective is invariant under permutations
    # of the observation (and source) enumeration, so sort both; this makes
    # the fitted q independent of the caller's ordering bit for bit
    p1 = np.argsort(W1)
    p2 = np.argsort(W2)
    W1, g_W1 = W1[p1], g_W1[p1]
    W2, observed = W2[p2], observed[p2]
    pot, *fit = _fit_potential(grid, fp, cfg, W1, W2, observed[:, None],
                               np.ones((W2.size, 1), dtype=bool), g_W1)
    try:
        m = recover_m_from_q(pot, grid, fp)
        gamma = Conductivity.from_m(grid, m) if np.min(1.0 + m) > 0 else None
    except SolverError:
        m = np.full(grid.N, np.nan)
        gamma = None
    return InversionReport(pot, m, gamma, *fit)
