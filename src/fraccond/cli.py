"""Command-line interface: configuration, dispatch, and result persistence.

Subcommands: forward | dn | reduce | invert | walk | limits.
Every command reads a JSON config (schema fraccond-config-v1, shipped as
config_schema_v1.json next to this module).  The commands compute and
write nothing: each returns its tables, checks and diagnostics.  run()
writes: every table as a CSV, then an atomically written manifest.json
that echoes the config, records per-check pass/fail values and, under
"diagnostics", how the run went (whether BLAS ran on one thread, the
inversion's stop reason, the reduction pass's row blocks, workers and DN
pairings, the walk's jump cutoff and tail mass).  run() creates the output
directory only once the command has returned, so a command that fails
leaves nothing behind, and a write that fails removes the CSVs this run
wrote.  Every CSV value is %.17g
(up to 17 significant digits, trailing zeros dropped): _write_csv hands a
2-D table to the package's own formatter (fraccond._csv), whose files are
byte for byte those of np.savetxt at that format, and which formats a
value by "%.17g" itself where its exact integer route does not apply.

Exit codes, all mapped in run(): 0 success, 2 config error (also an input
CSV that is not a numeric table of the expected shape), 3 I/O error (also
a CSV or manifest write), 4 numerical failure (also an allocation that
numpy refuses) or a failed check.  Re-running a command with identical
config and seed reproduces every data file byte-for-byte (the manifest's
wall_clock_s field, a perf_counter duration, is the only non-reproducible
output), with the same numpy build on the same CPU type.

The package needs numpy alone and imports no scipy module.  The interior
solves run in numpy's LAPACK, so numpy's bundled OpenBLAS runs every BLAS
call.  run() holds it at one thread for the whole command
(_blas.one_blas_thread), so no output depends on the host's CPU count;
the only parallelism is forward._block_stream's fixed pool of
forward.MAX_WORKERS threads, which builds the reduction pass's row blocks,
gathers the DN blocks of dn and invert from row blocks and walks walk's
particles in blocks; no output depends on its size.  limits takes zeta
from core._zeta.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from ._blas import one_blas_thread
from ._csv import write_table
from .core import FracParams, Grid
from .forward import (
    DnMatrix,
    SolverError,
    assemble_dn,
    solve_dirichlet,
    verify_reduction,
)
from .inverse import InversionConfig, ReconstructionError, reconstruct_gamma
from .limits import (
    bilinear_limit_study,
    grad_limit_study,
    gradient_distributional_decay,
    operator_limit_check,
)
from .operators import Conductivity, assemble_conductivity
from .profiles import bump_m, gaussian, make_conductivity, profile_from_name
from .walk import (Ensemble, WalkParams, master_step, q_master_step,
                   simulate, truncation_tail_mass)

SCHEMA_NAME = "fraccond-config-v1"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------- config

_TASK_KEYS = {
    "forward": {"source"},
    "dn": {"W1", "W2"},
    "reduce": set(),
    "invert": {"observed_dn", "truth_gamma", "reg_lambda", "max_iter", "tol"},
    "walk": {"K", "steps", "particles", "initial_site", "compare_master"},
    "limits": {"study", "s_list"},
}

_TOP_KEYS = {"schema", "grid", "frac", "gamma", "task", "seed", "output_dir"}
_GRID_KEYS = {"L", "N", "omega"}
_FRAC_KEYS = {"s", "n"}
_GAMMA_KEYS = {"profile", "amplitude", "center", "width", "separation", "path"}


def _reject_unknown(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    _reject_unknown(cfg, _TOP_KEYS, "config root")
    if cfg.get("schema") != SCHEMA_NAME:
        raise ConfigError(f"config schema must be {SCHEMA_NAME!r}")
    for block, keys in (("grid", _GRID_KEYS), ("frac", _FRAC_KEYS)):
        if block not in cfg or not isinstance(cfg[block], dict):
            raise ConfigError(f"missing required block {block!r}")
        _reject_unknown(cfg[block], keys, f"block {block!r}")
    for block in ("gamma", "task"):
        if not isinstance(cfg.get(block, {}), dict):
            raise ConfigError(f"block {block!r} must be an object")
    _reject_unknown(cfg.get("gamma", {}), _GAMMA_KEYS, "block 'gamma'")
    _reject_unknown(cfg.get("task", {}), _TASK_KEYS[command],
                    f"task block for {command!r}")
    _path(cfg.get("output_dir", "."), "output_dir")
    return cfg


def _path(value, where: str) -> str:
    """A path from the config; a value that is not a JSON string is a
    config error that names the key."""
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, not {value!r}")
    return value


def build_grid(cfg: dict) -> Grid:
    gblock = cfg["grid"]
    try:
        omega = gblock["omega"]
        if not (isinstance(omega, (list, tuple)) and len(omega) == 2):
            raise ConfigError("grid.omega must be a pair [a, b]")
        a, b = (_number(x, float, "grid.omega entry") for x in omega)
        if not a < b:
            raise ConfigError("grid.omega bounds must satisfy a < b")
        return Grid(L=_number(gblock["L"], float, "grid.L"),
                    N=_number(gblock["N"], int, "grid.N"), a=a, b=b)
    except KeyError as exc:
        raise ConfigError(f"grid block missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _number(value, convert, where: str):
    """A config value passed through int or float.  A value that does not
    convert, a bool, and for int a float that is not integral (32.0 is 32,
    32.7 is an error) are config errors."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}={value!r} is not a number")
    if convert is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}={value!r} is not an integer")
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}={value!r} is not a number") from None


def _check_order(value, where: str) -> FracParams:
    """The FracParams of a fractional order from the config; a value that is
    not a number or that FracParams rejects is a config error."""
    s = _number(value, float, where)
    try:
        return FracParams(s)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def build_frac(cfg: dict) -> FracParams:
    fblock = cfg["frac"]
    if "s" not in fblock:
        raise ConfigError("frac block missing key 's'")
    n = _number(fblock.get("n", 1), int, "frac.n")
    if n != 1:
        raise ConfigError(f"frac.n={n} must be 1: the lattice is 1-D")
    return _check_order(fblock["s"], "frac.s")


def build_gamma(cfg: dict, grid: Grid, seed: int) -> Conductivity:
    gblock = cfg.get("gamma", {"profile": "constant"})
    name = gblock.get("profile")
    if name is None:
        raise ConfigError("gamma.profile is required")
    params = set(gblock) - {"profile"}
    # from-file reads only the path; every other profile's keys are checked
    # against its function by profile_from_name
    unread = params - {"path"} if name == "from-file" else params & {"path"}
    if unread:
        raise ConfigError(f"gamma: profile {name!r} does not read "
                          f"{sorted(unread)}")
    if name == "from-file":
        if "path" not in gblock:
            raise ConfigError("gamma.path is required for profile 'from-file'")
        path = _path(gblock["path"], "gamma.path")
        gamma = _read_gamma_column(path, grid)
        off = grid.exterior_idx[gamma[grid.exterior_idx] != 1.0]
        if off.size:
            raise ConfigError(f"{path}: gamma must be 1 outside omega, but "
                              f"node {off[0]} reads {float(gamma[off[0]])!r}")
        # a negative gamma gives a NaN m, which Conductivity rejects
        with np.errstate(invalid="ignore"):
            m = np.sqrt(gamma) - 1.0
        try:
            return Conductivity.from_m(grid, m)
        except ValueError as exc:
            raise ConfigError(f"{path}: gamma must be positive on omega "
                              f"({exc})") from None
    shape = {k: _number(gblock[k], float, f"gamma.{k}") for k in sorted(params)}
    try:
        m_fn = profile_from_name(name, seed=seed, **shape)
        return make_conductivity(grid, m_fn)
    except ValueError as exc:
        raise ConfigError(f"gamma: {exc}") from exc


# ---------------------------------------------------------------- io

def _write_csv(path: str, header: str, table) -> str:
    """A 2-D table (rows of columns) as CSV under one header line, each
    value as ``%.17g``; returns the path."""
    write_table(path, table, header)
    return path


def _read_csv(path: str) -> np.ndarray:
    """A numeric CSV with one header line, as a 2-D array; a file that does
    not parse is a config error that names it, one that cannot be read
    (missing, a directory) raises OSError."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ConfigError(f"{path}: not a numeric CSV ({exc})") from None


def _read_gamma_column(path: str, grid: Grid) -> np.ndarray:
    """The gamma column (the second, after x) of a one-row-per-node CSV
    such as gamma.csv or recovered_gamma.csv."""
    data = _read_csv(path)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: expected columns x,gamma; found "
                          f"{data.shape[1]} column(s)")
    if data.shape[0] != grid.N:
        raise ConfigError(f"{path}: {data.shape[0]} rows, but grid.N is "
                          f"{grid.N}")
    return data[:, 1]


def _write_manifest(outdir: str, command: str, cfg: dict, seed: int,
                    checks: dict, diagnostics: dict, outputs: list,
                    t0: float) -> str:
    manifest = {
        "artifact": "fraccond",
        "version": __version__,
        "command": command,
        "config": cfg,
        "seed": seed,
        "wall_clock_s": time.perf_counter() - t0,
        "checks": checks,
        "diagnostics": diagnostics,
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    path = os.path.join(outdir, "manifest.json")
    tmp = path + ".tmp"
    fh = open(tmp, "w")
    try:
        with fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise
    return path


def _exterior_set(grid: Grid, selector, name: str) -> np.ndarray:
    if selector is None or selector == "exterior":
        return grid.exterior_idx
    if isinstance(selector, (list, tuple)) and len(selector) == 2:
        lo, hi = (_number(x, float, f"task.{name} bound") for x in selector)
        idx = grid.exterior_idx
        sel = idx[(grid.nodes[idx] >= lo) & (grid.nodes[idx] <= hi)]
        if sel.size == 0:
            raise ConfigError(f"task.{name}: interval contains no exterior nodes")
        return sel
    raise ConfigError(f"task.{name} must be 'exterior' or an [lo, hi] pair")


# ---------------------------------------------------------------- commands
# Each command takes (task, grid, fp, gamma, seed) and returns (tables,
# checks, diagnostics): the tables, each file name mapped to (header, rows),
# which run() writes; pass/fail checks; and facts about the run that carry
# no verdict.  A command writes nothing itself.

# the keys each source type reads besides "type"; any other is an error
_SOURCE_KEYS = {"zero": set(), "unit": {"node"}, "gaussian": {"center", "width"}}


def cmd_forward(task, grid, fp, gamma, seed):
    src = task.get("source", {"type": "zero"})
    if not isinstance(src, dict):
        raise ConfigError("task.source must be an object {type, ...}")
    kind = src.get("type", "zero")
    if not (isinstance(kind, str) and kind in _SOURCE_KEYS):
        raise ConfigError("task.source.type must be zero | unit | gaussian")
    unread = set(src) - {"type"} - _SOURCE_KEYS[kind]
    if unread:
        raise ConfigError(f"task.source: type {kind!r} does not read "
                          f"{sorted(unread)}")
    g = np.zeros(grid.N)
    if kind == "unit":
        node = _number(src.get("node", grid.exterior_idx[0]), int,
                       "task.source.node")
        if node not in grid.exterior_idx:
            raise ConfigError("task.source.node must be an exterior node index")
        g[node] = 1.0
    elif kind == "gaussian":
        center = _number(src.get("center", -0.75 * grid.L), float,
                         "task.source.center")
        width = _number(src.get("width", grid.L / 10.0), float,
                        "task.source.width")
        if not width > 0:
            raise ConfigError(f"task.source.width={width} must be > 0")
        prof = gaussian(center, width)
        g[grid.exterior_idx] = prof(grid.nodes[grid.exterior_idx])
    A = assemble_conductivity(grid, fp, gamma)
    u = solve_dirichlet(grid, A, g)
    I = grid.interior_idx
    resid = float(np.max(np.abs((A @ u)[I]))) if I.size else 0.0
    scale = float(np.max(np.abs(A)) * max(np.max(np.abs(u)), 1e-300))
    rel = resid / scale
    tables = {"solution.csv": ("x,u", np.column_stack((grid.nodes, u)))}
    checks = {"interior_residual": {"value": rel, "pass": bool(rel <= 1e-10),
                                    "criterion": "<= 1e-10 relative"}}
    return tables, checks, {}


def cmd_dn(task, grid, fp, gamma, seed):
    W1 = _exterior_set(grid, task.get("W1"), "W1")
    W2 = _exterior_set(grid, task.get("W2"), "W2")
    M = assemble_dn(grid, fp, gamma, W1, W2)
    tables = {
        "dn_matrix.csv": (",".join(f"src{k}" for k in W1), M.matrix),
        "dn_sources.csv": ("index,x", np.column_stack((W1.astype(float),
                                                       grid.nodes[W1]))),
        "dn_observations.csv": ("index,x", np.column_stack((W2.astype(float),
                                                            grid.nodes[W2]))),
        "gamma.csv": ("x,gamma,m", np.column_stack((grid.nodes, gamma.values,
                                                    gamma.m_values))),
    }
    checks = {}
    if np.array_equal(W1, W2):
        asym = float(np.max(np.abs(M.matrix - M.matrix.T))
                     / max(np.max(np.abs(M.matrix)), 1e-300))
        checks["dn_symmetry"] = {"value": asym, "pass": bool(asym <= 1e-10),
                                 "criterion": "<= 1e-10 relative"}
    return tables, checks, {}


def cmd_reduce(task, grid, fp, gamma, seed):
    E = grid.exterior_idx
    f = np.zeros(grid.N)
    v = np.zeros(grid.N)
    f[E] = gaussian(-0.6 * grid.L, grid.L / 4)(grid.nodes[E])
    v[E] = gaussian(-0.4 * grid.L, grid.L / 3)(grid.nodes[E])
    check = verify_reduction(grid, fp, gamma, f, v)
    resid, left, right = check.residual, check.gap_left, check.gap_right
    gap = abs(left - right)
    gap_err = gap / max(abs(right), 1e-300)
    # left is the difference of two pairings; their round-off, a few eps
    # of their size, stays when right shrinks with gamma - 1
    floor = 16 * np.finfo(float).eps * (abs(check.pairing_q)
                                        + abs(check.pairing_gamma))
    tables = {"reduction.csv": ("reduction_residual,dn_gap_left,dn_gap_right",
                                [[resid, left, right]])}
    checks = {
        "reduction_residual": {"value": resid, "pass": bool(resid <= 1e-10),
                               "criterion": "<= 1e-10 relative to matrix scale"},
        "dn_gap_identity": {
            "value": gap_err, "pass": bool(gap <= 1e-9 * abs(right) + floor),
            "criterion": "left = right to 1e-9 relative, plus a round-off "
                         "floor of 16 eps (|P_q| + |P_gamma|)"},
    }
    return tables, checks, {"kernel_row_blocks": check.blocks,
                            "reduction_workers": check.workers,
                            "dn_pairing_q": check.pairing_q,
                            "dn_pairing_gamma": check.pairing_gamma}


def cmd_invert(task, grid, fp, gamma, seed):
    if "observed_dn" not in task:
        raise ConfigError("task.observed_dn is required for invert")
    obs_path = _path(task["observed_dn"], "task.observed_dn")
    truth_path = task.get("truth_gamma")
    if truth_path is not None:
        truth_path = _path(truth_path, "task.truth_gamma")
    settings = {key: _number(task[key], convert, f"task.{key}")
                for key, convert in (("reg_lambda", float), ("max_iter", int),
                                     ("tol", float))
                if key in task}
    try:
        inv_cfg = InversionConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    matrix = _read_csv(obs_path)
    E = grid.exterior_idx
    if matrix.shape != (E.size, E.size):
        raise ConfigError(f"{obs_path}: observed DN matrix shape does not "
                          "match the exterior node set of this grid")
    truth = None if truth_path is None else _read_gamma_column(truth_path, grid)
    observed = DnMatrix(E, E, matrix)
    report = reconstruct_gamma(observed, grid, fp, inv_cfg)
    its = report.iterations
    tables = {
        "recovered_gamma.csv": ("x,gamma,m,q", np.column_stack((
            grid.nodes, report.gamma.values, report.m, report.q))),
        "iterations.csv": (
            "iteration,residual,step_length,trials,lambda,objective,"
            "data_residual",
            np.column_stack((np.arange(len(its), dtype=float),
                             report.residual_history,
                             [it.step_length for it in its],
                             [float(it.trials) for it in its],
                             np.full(len(its), report.lambda_used),
                             [it.objective for it in its],
                             [it.data_residual for it in its]))),
    }
    hist = report.residual_history
    monotone = all(a >= b for a, b in zip(hist, hist[1:]))
    checks = {
        "converged": {"value": bool(report.converged),
                      "pass": bool(report.converged),
                      "criterion": "relative data residual below tol"},
        "data_residual": {"value": report.data_residual,
                          "pass": bool(report.data_residual <= 1e-6),
                          "criterion": "<= 1e-6 relative (noiseless data)"},
        "monotone_residuals": {"value": monotone, "pass": monotone,
                               "criterion": "damped objective non-increasing"},
    }
    if truth is not None:
        err = float(np.max(np.abs(report.gamma.values - truth))
                    / np.max(np.abs(truth)))
        checks["recovery_error"] = {"value": err, "pass": bool(err <= 0.01),
                                    "criterion": "<= 1% Linf vs truth"}
    return tables, checks, {"stop_reason": report.stop_reason}


def cmd_walk(task, grid, fp, gamma, seed):
    K = task.get("K")
    K = None if K is None else _number(K, int, "task.K")
    try:
        wp = WalkParams.from_grid(grid, fp, gamma, K)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    steps = _number(task.get("steps", 10), int, "task.steps")
    particles = _number(task.get("particles", 100_000), int, "task.particles")
    if steps < 0:
        raise ConfigError(f"task.steps={steps} must be >= 0")
    if particles < 1:
        raise ConfigError(f"task.particles={particles} must be >= 1")
    init = task.get("initial_site", "center")
    site = grid.N // 2 if init == "center" else _number(init, int,
                                                          "task.initial_site")
    if not 0 <= site < grid.N:
        raise ConfigError("task.initial_site outside the lattice")
    compare = task.get("compare_master", True)
    if not isinstance(compare, bool):
        raise ConfigError(f"task.compare_master={compare!r} must be true "
                          "or false")
    ens = Ensemble.point_source(particles, site, rng_seed=seed)
    try:
        _, hist = simulate(ens, wp, steps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    tables = {f"histogram_{steps:04d}.csv":
              ("x,density", np.column_stack((grid.nodes, hist)))}
    checks = {}
    if compare:
        # the simulator realizes the row-normalized transpose kernel; that is
        # its deterministic counterpart for any gamma, and it coincides with
        # the incoming-form master equation exactly when gamma is constant
        v = np.zeros(grid.N)
        v[site] = 1.0
        u = v.copy()
        for _ in range(steps):
            v = q_master_step(v, wp)
            u = master_step(u, wp)
        tables[f"master_{steps:04d}.csv"] = (
            "x,density", np.column_stack((grid.nodes, u)))
        tables[f"transpose_{steps:04d}.csv"] = (
            "x,density", np.column_stack((grid.nodes, v)))
        bound = _mc_tv_bound(v, particles)
        checks["mc_transpose_tv"] = _tv_check(hist, v, bound, particles)
        if np.all(gamma.m_values == 0.0):
            checks["mc_master_tv"] = _tv_check(hist, u, bound, particles,
                                               " (constant gamma)")
    return tables, checks, {"jump_cutoff": wp.K,
                            "tail_mass_fraction": truncation_tail_mass(wp)}


def _mc_tv_bound(v: np.ndarray, particles: int) -> float:
    """max(0.02, 3 E) with E = 1/2 sum_i sqrt(2 v_i (1 - v_i) / (pi P)):
    E is the expected total variation between v and the histogram of P
    particles drawn from it (each count binomial, the mean of |normal|), so
    the bound follows the sampling noise rather than a fixed particle
    count."""
    noise = 0.5 * float(np.sum(np.sqrt(2.0 * v * (1.0 - v) / (np.pi * particles))))
    return max(0.02, 3.0 * noise)


def _tv_check(hist, ref, bound, particles, note=""):
    tv = 0.5 * float(np.sum(np.abs(hist - ref)))
    return {"value": tv, "pass": bool(tv <= bound),
            "criterion": f"total variation <= {bound:.6g} = max(0.02, 3 x "
                         f"expected sampling TV at {particles} particles){note}"}


def cmd_limits(task, grid, fp, gamma, seed):
    study = task.get("study", "all")
    s_list = task.get("s_list", [0.6, 0.8, 0.9, 0.95])
    if not (isinstance(s_list, list) and s_list):
        raise ConfigError("task.s_list must be a non-empty array of orders")
    s_list = [_check_order(s, "task.s_list entry").s for s in s_list]
    # the checks below read the studies along the list, in s order
    if any(a >= b for a, b in zip(s_list, s_list[1:])):
        raise ConfigError(f"task.s_list={s_list} must be strictly increasing")
    if study not in ("grad", "bilinear", "operator", "decay", "all"):
        raise ConfigError("task.study must be grad|bilinear|operator|decay|all")
    tables, checks = {}, {}
    u_fn = gaussian(0.0, 1.0)
    m_fn = bump_m(0.3, 0.0, (grid.b - grid.a) / 2.0)

    def study_table(name, st):
        tables[f"limit_{name}.csv"] = (
            "s,value,reference,gap,n_used,converged",
            np.column_stack(([r.s for r in st.rows],
                             [r.value for r in st.rows],
                             [r.reference for r in st.rows],
                             [r.gap for r in st.rows],
                             [float(r.n_used) for r in st.rows],
                             [float(r.converged) for r in st.rows])))

    def dump(name, st):
        study_table(name, st)
        gaps = st.gaps()
        mono = all(a >= b for a, b in zip(gaps, gaps[1:]))
        checks[f"{name}_gap_monotone"] = {
            "value": bool(mono), "pass": bool(mono),
            "criterion": "gap column non-increasing in s"}

    if study in ("grad", "all"):
        dump("grad", grad_limit_study(u_fn, s_list, L=grid.L))
    if study in ("bilinear", "all"):
        st = bilinear_limit_study(m_fn, gaussian(-grid.L / 12, 1.0),
                                  gaussian(grid.L / 8, 1.2), s_list,
                                  L=grid.L, omega=(grid.a, grid.b))
        dump("bilinear", st)
    if study in ("operator", "all"):
        study_table("operator", operator_limit_check(
            m_fn, u_fn, s_list, L=grid.L, omega=(grid.a, grid.b)))
    if study in ("decay", "all"):
        ub = bump_m(1.0, grid.L / 20.0, grid.L / 3.0)

        def t_fn(x, y):
            return np.exp(-(((x + grid.L / 6.0) ** 2
                             + (y - grid.L / 10.0) ** 2)) / 0.5)

        vals = gradient_distributional_decay(ub, t_fn, s_list, L=grid.L / 2.0)
        tables["limit_decay.csv"] = ("s,pairing",
                                     np.column_stack((s_list, vals)))
        mags = np.abs(vals)
        # halved over the default list's span (0.35), else only falling
        dec = (mags[-1] <= 0.5 * mags[0] if s_list[-1] - s_list[0] >= 0.35
               else mags[-1] < mags[0])
        checks["decay_halving"] = {
            "value": float(mags[-1] / mags[0]) if mags[0] else 0.0,
            "pass": bool(dec),
            "criterion": "final pairing magnitude <= 0.5 x first if s_list "
                         "spans >= 0.35 in s, else < first"}
    return tables, checks, {}


_COMMANDS = {
    "forward": cmd_forward,
    "dn": cmd_dn,
    "reduce": cmd_reduce,
    "invert": cmd_invert,
    "walk": cmd_walk,
    "limits": cmd_limits,
}


# ---------------------------------------------------------------- driver

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fraccond",
        description="fractional conductivity toolkit: forward solves, DN maps, "
                    "reduction checks, inversion, random walks, limit studies")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--config", required=True, help="path to a JSON run config")
    p.add_argument("--out", default=None, help="output directory "
                   "(default: config output_dir, else '.')")
    p.add_argument("--seed", type=int, default=None,
                   help="overrides the config seed")
    return p


def run(argv=None) -> int:
    args = make_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, args.command)
        grid = build_grid(cfg)
        fp = build_frac(cfg)
        seed = (_number(cfg.get("seed", 0), int, "seed") if args.seed is None
                else args.seed)
        gamma = build_gamma(cfg, grid, seed)
        with one_blas_thread() as capped:
            tables, checks, run_info = _COMMANDS[args.command](
                cfg.get("task", {}), grid, fp, gamma, seed)
            outdir = args.out or cfg.get("output_dir", ".")
            os.makedirs(outdir, exist_ok=True)
            files = []
            try:
                for name, (header, table) in tables.items():
                    files.append(_write_csv(os.path.join(outdir, name),
                                            header, table))
                _write_manifest(outdir, args.command, cfg, seed, checks,
                                {"blas_threads": 1 if capped else None,
                                 **run_info}, files, t0)
            except BaseException:
                for path in files:
                    os.remove(path)
                raise
    except ConfigError as exc:
        print(f"fraccond: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fraccond: I/O error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"fraccond: {args.command}: out of memory: "
              f"{str(exc) or 'allocation refused'}", file=sys.stderr)
        return 4
    except (SolverError, ReconstructionError, FloatingPointError) as exc:
        print(f"fraccond: {args.command}: numerical failure: {exc}",
              file=sys.stderr)
        return 4

    failed = [k for k, v in checks.items() if not v["pass"]]
    for k, v in checks.items():
        print(f"{k}: {'PASS' if v['pass'] else 'FAIL'} ({v['value']})")
    if failed:
        print(f"fraccond: {len(failed)} check(s) failed: {failed}",
              file=sys.stderr)
        return 4
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
