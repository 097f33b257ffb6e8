"""Numerical verification of the s -> 1 limit statements.

The raw punctured lattice sum underestimates Gagliardo-type energies badly
as s -> 1 at fixed h (the quadrature defect scales like h^{2-2s} with a
constant that blows up near s = 1), so the energy evaluators here add an
analytic near-diagonal term: the missing |z| < h/2 strip integrated against
the local quadratic Taylor expansion, plus a compensation of the lattice
sum's defect against the exact integral of the leading kernel power.  Both
terms use central-difference derivatives and exact kernel moments; with
them the Gaussian energies are accurate to ~1e-5 relative across
s in [0.3, 0.95] already at N ~ 2048.

The lattice-sum defect is evaluated in closed form, zeta(2s - 1) +
2^{2s-2} / (2 - 2s), with the package's own Euler-Maclaurin zeta
(core._zeta), so the studies load no scipy module.  Every s goes through
FracParams, so a study rejects an order outside [S_MIN, S_MAX] before it
evaluates anything at it.

The three h-refinement studies (grad, bilinear, operator) are one private
driver, `_refined_rows`: per s and per (kind, v) pair it doubles N from
N_START until corrected_bilinear_form of u against v settles, and takes
the local reference h sum gamma u' v' on that final grid.  The studies
differ only in u, the pairs, the conductivity and the cap on N.  A
study's pairs share u and the conductivity, so at each N the pairs still
refining are evaluated together: one stacked bilinear_form call builds
each kernel block once for all of them, each pair keeps its own stop rule
and cap, and each value is bit-identical to its own call.

The operator-assembly modules deliberately do not carry these corrections:
their punctured form is what makes the algebraic identities exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import FracParams, Grid, _zeta
from .forward import solve_dirichlet
from .operators import (
    Conductivity,
    assemble_conductivity,
    bilinear_form,
    frac_gradient,
)
from .profiles import gaussian, make_conductivity

EDGE_DECAY = 1e-10
REFINE_TOL = 0.005
N_START = 512
N_CAP = 8192  # grad study
STUDY_CAP = 4096  # bilinear and operator studies


@dataclass
class LimitRow:
    s: float
    value: float
    reference: float
    gap: float
    n_used: int
    converged: bool
    kind: str = "energy"


@dataclass
class LimitStudy:
    rows: list[LimitRow] = field(default_factory=list)

    def gaps(self) -> np.ndarray:
        return np.array([r.gap for r in self.rows])

    def row(self, s: float) -> LimitRow:
        for r in self.rows:
            if abs(r.s - s) < 1e-12:
                return r
        raise KeyError(f"no row for s={s}")


def lattice_defect(s: float) -> float:
    """sum_{k>=1} [ k^{1-2s} - integral over the cell (k-1/2, k+1/2) of t^{1-2s} ].

    Defect of the punctured unit-lattice sum against the integral of the
    leading kernel power.  The cells tile (1/2, inf), so by analytic
    continuation the series is  zeta(2s - 1) + 2^{2s-2} / (2 - 2s), with
    zeta from core._zeta (no scipy).  It is within 2.5e-14 absolute of the
    exact value over [S_MIN, S_MAX]; both terms grow like 1/(2 - 2s) as
    s -> 1 and cancel.
    """
    return _zeta(2.0 * s - 1.0) + 2.0 ** (2.0 * s - 2.0) / (2.0 - 2.0 * s)


def near_field_coefficient(s: float, h: float) -> float:
    """Weight of the u'(x)^2-type diagonal term in the corrected energies:

        2 [ (h/2)^{2-2s} / (2-2s)  -  h^{2-2s} * lattice_defect(s) ]

    First part: exact kernel moment of the missing strip |z| < h/2 against
    the quadratic Taylor term; second: compensation of the far-field
    lattice-sum defect.
    """
    return 2.0 * ((h / 2.0) ** (2.0 - 2.0 * s) / (2.0 - 2.0 * s)
                  - h ** (2.0 - 2.0 * s) * lattice_defect(s))


def central_diff(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Central differences with zero-extension beyond the window."""
    u = np.asarray(u, dtype=float)
    d = np.empty_like(u)
    d[1:-1] = (u[2:] - u[:-2]) / (2.0 * grid.h)
    d[0] = u[1] / (2.0 * grid.h)
    d[-1] = -u[-2] / (2.0 * grid.h)
    return d


def _warn_edges(grid: Grid, u: np.ndarray, name: str):
    scale = max(float(np.max(np.abs(u))), 1e-300)
    if max(abs(u[0]), abs(u[-1])) > EDGE_DECAY * scale:
        warnings.warn(f"{name}: field does not decay below {EDGE_DECAY:g} at the "
                      "window edges; the energy is contaminated by the cutoff",
                      stacklevel=3)


def grad_norm_sq(grid: Grid, fp: FracParams, u: np.ndarray) -> float:
    """Squared fractional-gradient norm of a nodal field.

    Punctured pair sum (C/2) sum (u_j - u_i)^2 / |x_j - x_i|^{n+2s} h^{2n}
    plus the exact window tail and the analytic diagonal correction (see
    module docstring), i.e. corrected_bilinear_form on the constant
    conductivity.  Without the correction (bilinear_form) the raw lattice
    functional collapses to 0 as s -> 1 at fixed h.
    """
    u = np.asarray(u, dtype=float)
    _warn_edges(grid, u, "grad_norm_sq")
    return corrected_bilinear_form(grid, fp, Conductivity.constant(grid), u, u)


def corrected_bilinear_form(grid: Grid, fp: FracParams, gamma: Conductivity,
                            u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """Weighted energy pairing with the near-diagonal correction; the
    diagonal term carries gamma (both kernel factors collapse to x).  v is
    one field or a (k, N) stack of them, as in bilinear_form."""
    V = np.atleast_2d(np.asarray(v, dtype=float))
    du = central_diff(grid, u)
    coef = near_field_coefficient(fp.s, grid.h)
    corr = [0.5 * fp.cns * grid.h * float(np.sum(gamma.values * du
                                                 * central_diff(grid, vk)))
            * coef for vk in V]
    vals = bilinear_form(grid, fp, gamma, u, V) + np.array(corr)
    return float(vals[0]) if np.ndim(v) == 1 else vals


def local_grad_pairing(grid: Grid, gamma_values: np.ndarray,
                       u: np.ndarray, v: np.ndarray) -> float:
    """Local reference  h sum gamma_i u'_i v'_i  by central differences."""
    return grid.h * float(np.sum(gamma_values * central_diff(grid, u)
                                 * central_diff(grid, v)))


def _warn_high_s(s: float):
    if s > 0.95:
        warnings.warn(f"limit study at s={s:g}: above 0.95 the kernel "
                      "constant degenerates; results are indicative only",
                      stacklevel=3)


def _limit_row(s: float, value: float, reference: float, n_used: int,
               converged: bool, kind: str) -> LimitRow:
    gap = abs(value - reference) / abs(reference) if reference != 0.0 else abs(value)
    return LimitRow(s, value, reference, gap, n_used, converged, kind)


def _omega(L: float, omega=None) -> tuple[float, float]:
    """omega, by default the middle third of the window."""
    return omega or (-L / 3.0, L / 3.0)


def _h_converge(evaluate, n_pairs: int, cap: int) -> list:
    """Double N from N_START until each pair's value changes by less than
    REFINE_TOL (relative).  evaluate(N, live) returns the values of the
    pairs numbered in live, the grid and the gamma at N; a pair leaves live
    once it settles, so every N is one evaluation of the pairs still
    refining.  Returns per pair its last (value, grid, gamma) triple and
    whether it converged."""
    N = N_START
    live = list(range(n_pairs))
    vals, g, gam = evaluate(N, live)
    last = [(val, g, gam) for val in vals]
    converged = [False] * n_pairs
    while live and 2 * N <= cap:
        N *= 2
        vals, g, gam = evaluate(N, live)
        for i, val in zip(live, vals):
            prev = last[i][0]
            converged[i] = abs(val - prev) <= REFINE_TOL * max(abs(prev), 1e-300)
            last[i] = (val, g, gam)
        live = [i for i in live if not converged[i]]
    return list(zip(last, converged))


def _refined_rows(m_fn, u_fn, pairs, s_list, L: float, omega, cap: int):
    """The one loop behind every limit study.  Per s and per (kind, v_fn)
    pair: corrected_bilinear_form of u_fn against v_fn with the
    conductivity of m_fn, h-converged up to N = cap, against
    local_grad_pairing on the final grid.  The pairs share u and gamma, so
    at each N the pairs still refining are one stacked
    corrected_bilinear_form call: one kernel block per N, and each value
    bit-identical to its own call.  Yields (fp, grid, gamma, row) in pair
    order so a caller can add rows on that grid."""
    a, b = _omega(L, omega)
    for s in s_list:
        fp = FracParams(s)
        _warn_high_s(s)

        def evaluate(N, live):
            g = Grid(L=L, N=N, a=a, b=b)
            gam = make_conductivity(g, m_fn)
            V = [pairs[i][1](g.nodes) for i in live]
            return (corrected_bilinear_form(g, fp, gam, u_fn(g.nodes), V),
                    g, gam)

        results = _h_converge(evaluate, len(pairs), cap)
        for (kind, v_fn), ((val, g, gam), ok) in zip(pairs, results):
            ref = local_grad_pairing(g, gam.values, u_fn(g.nodes), v_fn(g.nodes))
            yield fp, g, gam, _limit_row(s, float(val), ref, g.N, ok, kind)


def grad_limit_study(u_fn, s_list, L: float = 12.0) -> LimitStudy:
    """Per s: h-converged grad_norm_sq (the corrected form at gamma = 1)
    against the central-difference ||u'||^2 at the same final resolution."""
    g = Grid(L, N_START, *_omega(L))
    _warn_edges(g, np.asarray(u_fn(g.nodes), dtype=float), "grad_limit_study")
    rows = _refined_rows(np.zeros_like, u_fn, [("energy", u_fn)], s_list,
                         L, None, N_CAP)
    return LimitStudy([row for *_, row in rows])


def bilinear_limit_study(m_fn, u_fn, v_fn, s_list, L: float = 12.0,
                         omega: tuple[float, float] | None = None,
                         dn_datum_fns: tuple | None = None) -> LimitStudy:
    """Per s: h-converged weighted bilinear form B_gamma[u, v] against the
    local integral of gamma u' v'.

    When `dn_datum_fns = (f_fn, g_fn)` is given (smooth exterior data
    vanishing near the boundary of omega and near the window edges), extra
    rows of kind "dn" track the same limit through the DN pairing: the
    energy form of the solved field u_f against e_g versus the local form.
    """
    study = LimitStudy()
    for fp, g, gam, row in _refined_rows(m_fn, u_fn, [("energy", v_fn)],
                                         s_list, L, omega, STUDY_CAP):
        study.rows.append(row)
        if dn_datum_fns is not None:
            f_fn, g_fn = dn_datum_fns
            f = np.asarray(f_fn(g.nodes), dtype=float)
            f[g.interior_idx] = 0.0
            e_g = np.asarray(g_fn(g.nodes), dtype=float)
            e_g[g.interior_idx] = 0.0
            u_f = solve_dirichlet(g, assemble_conductivity(g, fp, gam), f)
            study.rows.append(_limit_row(
                row.s, corrected_bilinear_form(g, fp, gam, u_f, e_g),
                local_grad_pairing(g, gam.values, u_f, e_g),
                row.n_used, row.converged, "dn"))
    return study


def operator_limit_check(m_fn, u_fn, s_list, L: float = 12.0,
                         omega: tuple[float, float] | None = None,
                         phi_fns: tuple | None = None) -> LimitStudy:
    """Weak pairing <phi, C_gamma u> (computed as the corrected bilinear
    form B_gamma[u, phi]) against the local form  h sum gamma phi' u',
    for a fixed panel of three test functions."""
    if phi_fns is None:
        lo, hi = _omega(L, omega)
        w = (hi - lo) / 2.0
        phi_fns = (gaussian(0.0, 0.8 * w), gaussian(-0.5 * w, 0.6 * w),
                   gaussian(0.4 * w, 0.7 * w))
    pairs = [(f"phi{i}", phi_fn) for i, phi_fn in enumerate(phi_fns)]
    rows = _refined_rows(m_fn, u_fn, pairs, s_list, L, omega, STUDY_CAP)
    return LimitStudy([row for *_, row in rows])


def gradient_distributional_decay(u_fn, t_fn, s_list, L: float = 6.0,
                                  N: int = 768) -> np.ndarray:
    """Pairing of the fractional gradient against a fixed pair-test field,
    h^{2n} sum_{i != j} grad(i, j) t(x_i, x_j).

    `t_fn(x, y)` gives the test value in the same representation the
    gradient uses: the component along the unit direction from x to y
    (so transposing arguments flips the sign of the pairing).  Both u and
    t must be compactly supported inside the window; the returned pairing
    magnitudes decay to 0 as s -> 1.
    """
    g = Grid(L, N, *_omega(L))
    x = g.nodes
    u = np.asarray(u_fn(x), dtype=float)
    T = t_fn(x[:, None], x[None, :])
    np.fill_diagonal(T, 0.0)
    out = []
    for s in s_list:
        pf = frac_gradient(g, FracParams(s), u)
        out.append(float(np.sum(pf.values * T)) * g.h**2)
    return np.array(out)
