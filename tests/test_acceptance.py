"""Acceptance suite: every criterion at its stated tolerance, one summary
line per criterion.  Run with  pytest tests/test_acceptance.py -v -s  to see
the PASS lines; any assertion failure marks the criterion as failed.
"""

import json
import math
import os

import numpy as np

from fraccond.cli import run as cli_run
from fraccond.core import FracParams, Grid, cns
from fraccond.forward import (
    assemble_dn,
    dn_gap,
    liouville_reduce,
    solve_dirichlet,
    verify_reduction,
)
from fraccond.inverse import InversionConfig, reconstruct_gamma, recover_m_from_q
from fraccond.limits import grad_limit_study, bilinear_limit_study, \
    grad_norm_sq, gradient_distributional_decay
from fraccond.operators import (
    Conductivity,
    assemble_laplacian,
    bilinear_form,
    frac_divergence_adjoint,
    frac_gradient,
)
from fraccond.profiles import (
    bump_m,
    double_bump_m,
    gaussian,
    make_conductivity,
    random_admissible_m,
)
from fraccond.walk import (
    Ensemble,
    WalkParams,
    generator_residual,
    master_step,
    simulate,
)

from oracles import (incoming_weights, spectral_laplacian_oracle,
                     surface_measure)


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_kernel_constant():
    """cns(1, 1/2) = 1/pi to 1e-10; s->1 limit within 1% for n in 1..3."""
    assert abs(cns(1, 0.5) - 1.0 / math.pi) <= 1e-10
    for n in (1, 2, 3):
        target = 4.0 * n / surface_measure(n)
        val = cns(n, 0.999) / (0.999 * 0.001)
        assert abs(val - target) / target <= 0.01, (n, val, target)
    report(1, "kernel constant: closed form at s=1/2 and the s->1 limit "
              "for n=1,2,3")


def test_criterion_2_gradient_divergence_composition():
    """adjoint-of-gradient == assembled fractional Laplacian, 100 random
    fields at N=256, relative error <= 1e-10."""
    g = Grid(L=1.0, N=256, a=-0.3, b=0.3)
    fp = FracParams(0.5)
    A = assemble_laplacian(g, fp)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        u = rng.standard_normal(g.N)
        comp = frac_divergence_adjoint(g, fp, frac_gradient(g, fp, u))
        ref = A @ u
        worst = max(worst, np.max(np.abs(comp - ref)) / np.max(np.abs(ref)))
    assert worst <= 1e-10, worst
    report(2, f"gradient/divergence composition equals the assembled "
              f"operator (worst rel err {worst:.2e})")


def test_criterion_3_spectral_cross_check():
    """assembled operator vs DFT-symbol oracle on the standard Gaussian:
    <= 2% relative L2 at N=2048, L=12, s=1/2, decreasing over N."""
    fp = FracParams(0.5)
    errs = []
    for N in (256, 512, 1024, 2048):
        g = Grid(L=12.0, N=N, a=-4.0, b=4.0)
        u = np.exp(-g.nodes**2 / 2.0)
        au = assemble_laplacian(g, fp) @ u
        ou = spectral_laplacian_oracle(g, fp, u, pad=8)
        errs.append(float(np.linalg.norm(au - ou) / np.linalg.norm(ou)))
    assert errs[-1] <= 0.02, errs
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    report(3, f"spectral cross-check {100 * errs[-1]:.2f}% at N=2048, "
              f"monotone over N: {['%.3f%%' % (100 * e) for e in errs]}")


def test_criterion_4_reduction_identity():
    """matrix-level conductivity-to-Schroedinger identity <= 1e-10 for
    s in {0.3, 0.5, 0.7} x {bump, double-bump, random-admissible} at N=256."""
    g = Grid(L=1.0, N=256, a=-0.3, b=0.3)
    profiles = {
        "bump": bump_m(0.3, 0.0, 0.2),
        "double-bump": double_bump_m(0.25, 0.25, 0.1),
        "random-admissible": random_admissible_m(seed=11, amplitude=0.3,
                                                 width=0.25),
    }
    worst = 0.0
    # the criterion reads the residual only; zero exterior data serves the
    # DN gap half of the same pass
    zero = np.zeros(g.N)
    for s in (0.3, 0.5, 0.7):
        for name, m_fn in profiles.items():
            gam = make_conductivity(g, m_fn)
            r = verify_reduction(g, FracParams(s), gam, zero, zero).residual
            assert r <= 1e-10, (s, name, r)
            worst = max(worst, r)
    report(4, f"reduction identity exact at matrix level "
              f"(worst residual {worst:.2e})")


def test_criterion_5_dn_map_properties():
    """DN symmetry, extension independence, reciprocity (1e-10); gap
    identity left = right to 1e-9 relative and zero for disjoint supports;
    N = 128."""
    g = Grid(L=1.0, N=128, a=-0.3, b=0.3)
    fp = FracParams(0.5)
    gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
    E = g.exterior_idx
    M = assemble_dn(g, fp, gam, E, E)
    sym = np.max(np.abs(M.matrix - M.matrix.T)) / np.max(np.abs(M.matrix))
    assert sym <= 1e-10

    rng = np.random.default_rng(55)
    # extension independence and reciprocity on random exterior data
    for _ in range(5):
        f = np.zeros(g.N)
        hdat = np.zeros(g.N)
        f[E] = rng.standard_normal(E.size)
        hdat[E] = rng.standard_normal(E.size)
        uf = solve_dirichlet(g, fp, gam, f)[0]
        ug = solve_dirichlet(g, fp, gam, hdat)[0]
        psi = np.zeros(g.N)
        psi[g.interior_idx] = rng.standard_normal(g.interior_idx.size)
        b0 = bilinear_form(g, fp, gam, uf, hdat)
        b1 = bilinear_form(g, fp, gam, uf, hdat + psi)
        assert abs(b0 - b1) <= 1e-10 * abs(b0)
        b2 = bilinear_form(g, fp, gam, ug, f)
        assert abs(b0 - b2) <= 1e-10 * abs(b0)

    # gap identity, overlapping and disjoint supports
    f = np.zeros(g.N)
    v = np.zeros(g.N)
    f[E] = np.exp(-((g.nodes[E] + 0.6) / 0.25) ** 2)
    v[E] = np.exp(-((g.nodes[E] + 0.45) / 0.3) ** 2)
    left, right = dn_gap(g, fp, gam, f, v)
    assert abs(left - right) <= 1e-9 * abs(right)
    fD = np.zeros(g.N)
    vD = np.zeros(g.N)
    fD[E[:15]] = 1.0
    vD[E[-15:]] = 1.0
    lD, rD = dn_gap(g, fp, gam, fD, vD)
    scale = np.max(np.abs(M.matrix))
    assert rD == 0.0 and abs(lD) <= 1e-10 * max(scale, 1.0)
    report(5, f"DN map: symmetry {sym:.1e}, extension independence, "
              f"reciprocity, gap identity rel err "
              f"{abs(left - right) / abs(right):.1e}, disjoint -> 0")


def test_criterion_6_reconstruction_round_trip():
    """noiseless full-DN data, N=64, s=1/2, bump deviation peak 0.3:
    gamma recovered within 1% Linf; m-solve alone exact to 1e-8."""
    g = Grid(L=1.0, N=64, a=-0.15, b=0.15)
    fp = FracParams(0.5)
    gam = make_conductivity(g, bump_m(0.3, 0.0, 0.1))
    E = g.exterior_idx
    observed = assemble_dn(g, fp, gam, E, E)
    rep = reconstruct_gamma(observed, g, fp, InversionConfig())
    err = np.max(np.abs(rep.gamma.values - gam.values)) / np.max(gam.values)
    assert err <= 0.01, err

    q = liouville_reduce(g, fp, gam)
    m = recover_m_from_q(q, g, fp)
    m_err = np.max(np.abs(m - gam.m_values))
    assert m_err <= 1e-8, m_err
    report(6, f"round trip: gamma Linf error {100 * err:.3f}% <= 1%, "
              f"m-solve exact to {m_err:.1e}")


def test_criterion_7_random_walk():
    """normalization 1e-14; exact lattice identity 1e-13; continuum residual
    halves (factor >= 1.5) per h-halving twice; MC vs master TV <= 0.02 at
    M = 1e6 with a fixed seed."""
    # normalization and lattice identity on a variable-gamma lattice
    g = Grid(L=6.0, N=257, a=-2.0, b=2.0)
    fp = FracParams(0.5)
    gam = make_conductivity(g, bump_m(0.3, 0.0, 1.0))
    wp = WalkParams.from_grid(g, fp, gam, K=32)
    for i in range(g.N):
        _, p = incoming_weights(wp, i)
        assert abs(p.sum() - 1.0) <= 1e-14
    u = np.exp(-2.0 * g.nodes**2)
    res = generator_residual(u, wp, g, fp)
    scale = np.max(np.abs((master_step(u, wp) - u) / wp.tau))
    assert res.lattice_residual <= 1e-13 * max(scale, 1.0)

    # refinement at fixed physical jump range R = 3
    residuals = []
    for N, K in ((257, 64), (513, 128), (1025, 256)):
        gg = Grid(L=6.0, N=N, a=-2.0, b=2.0)
        gamg = make_conductivity(gg, bump_m(0.3, 0.0, 1.0))
        wpg = WalkParams.from_grid(gg, FracParams(0.5), gamg, K)
        ug = np.exp(-4.0 * gg.nodes**2)
        residuals.append(generator_residual(ug, wpg, gg,
                                            FracParams(0.5)).continuum_residual)
    r1 = residuals[0] / residuals[1]
    r2 = residuals[1] / residuals[2]
    assert r1 >= 1.5 and r2 >= 1.5, residuals

    # Monte Carlo vs master equation at constant gamma, M = 1e6
    g2 = Grid(L=6.0, N=513, a=-2.0, b=2.0)
    wp2 = WalkParams.from_grid(g2, FracParams(0.5),
                               Conductivity.constant(g2), K=16)
    site = g2.N // 2
    _, hist = simulate(Ensemble.point_source(1_000_000, site, rng_seed=20240917),
                       wp2, 10)
    u2 = np.zeros(g2.N)
    u2[site] = 1.0
    for _ in range(10):
        u2 = master_step(u2, wp2)
    tv = 0.5 * float(np.sum(np.abs(hist - u2)))
    assert tv <= 0.02, tv
    report(7, f"random walk: normalization 1e-14, lattice identity "
              f"{res.lattice_residual:.1e}, refinement ratios "
              f"{r1:.2f}/{r2:.2f}, MC-vs-master TV {tv:.4f}")


def test_criterion_8_s_to_one_limits():
    """Gaussian energy within 2% of Gamma(s+1/2) at s=1/2; gradient-limit
    gap <= 10% at s=0.9 and decreasing over {0.6, 0.8, 0.9, 0.95}; weighted
    pairing gap <= 15% at s=0.9 on the bump case; distributional pairing at
    s=0.95 at most half its s=0.6 magnitude."""
    u_fn = gaussian(0.0, 1.0)
    g = Grid(L=12.0, N=2048, a=-4.0, b=4.0)
    v = grad_norm_sq(g, FracParams(0.5), u_fn(g.nodes))
    err_half = abs(v - math.gamma(1.0)) / math.gamma(1.0)
    assert err_half <= 0.02

    st = grad_limit_study(u_fn, [0.6, 0.8, 0.9, 0.95], L=12.0)
    gaps = st.gaps()
    assert st.row(0.9).gap <= 0.10
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps

    bst = bilinear_limit_study(bump_m(0.3, 0.0, 2.0),
                               gaussian(-1.0, 1.0), gaussian(1.5, 1.2),
                               [0.6, 0.8, 0.9], L=12.0, omega=(-4.0, 4.0))
    assert bst.row(0.9).gap <= 0.15

    def t_fn(x, y):
        return np.exp(-(((x + 1.0) ** 2 + (y - 0.6) ** 2)) / 0.5)

    vals = gradient_distributional_decay(bump_m(1.0, 0.3, 2.0), t_fn,
                                         [0.6, 0.8, 0.9, 0.95], L=6.0, N=768)
    ratio = abs(vals[-1]) / abs(vals[0])
    assert ratio <= 0.5, ratio
    report(8, f"limits: Gaussian energy err {100 * err_half:.3f}%, "
              f"gradient gaps {['%.2f%%' % (100 * x) for x in gaps]}, "
              f"weighted gap {100 * bst.row(0.9).gap:.1f}% at s=0.9, "
              f"distributional ratio {ratio:.3f}")


def test_criterion_9_cli_determinism(tmp_path):
    """every command re-run with identical config and seed reproduces its
    data files (byte-identical CSV; the deterministic paths therefore agree
    far below 1e-12)."""
    base = {
        "schema": "fraccond-config-v1",
        "grid": {"L": 1.0, "N": 64, "omega": [-0.15, 0.15]},
        "frac": {"s": 0.5},
        "gamma": {"profile": "bump", "amplitude": 0.3, "center": 0.0,
                  "width": 0.1},
        "seed": 314,
    }
    walk_cfg = {
        "schema": "fraccond-config-v1",
        "grid": {"L": 6.0, "N": 257, "omega": [-2.0, 2.0]},
        "frac": {"s": 0.5},
        "gamma": {"profile": "bump", "amplitude": 0.3, "center": 0.0,
                  "width": 1.0},
        "task": {"K": 16, "steps": 6, "particles": 100000},
        "seed": 314,
    }
    limits_cfg = {
        "schema": "fraccond-config-v1",
        "grid": {"L": 12.0, "N": 512, "omega": [-4.0, 4.0]},
        "frac": {"s": 0.5},
        "gamma": {"profile": "constant"},
        "task": {"study": "grad", "s_list": [0.8, 0.9]},
        "seed": 314,
    }
    runs = [
        ("forward", dict(base, task={"source": {"type": "gaussian",
                                                "center": -0.6,
                                                "width": 0.1}})),
        ("dn", base),
        ("reduce", base),
        ("walk", walk_cfg),
        ("limits", limits_cfg),
    ]
    for command, cfg in runs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{command}_a"
        out_b = tmp_path / f"{command}_b"
        assert cli_run([command, "--config", str(cfg_path),
                        "--out", str(out_a)]) == 0, command
        assert cli_run([command, "--config", str(cfg_path),
                        "--out", str(out_b)]) == 0, command
        for name in sorted(os.listdir(out_a)):
            if name.endswith(".csv"):
                assert (out_a / name).read_bytes() == \
                    (out_b / name).read_bytes(), (command, name)
    # invert consumes dn output; round-trip it too
    inv_cfg = dict(base, gamma={"profile": "constant"},
                   task={"observed_dn": str(tmp_path / "dn_a" / "dn_matrix.csv"),
                         "truth_gamma": str(tmp_path / "dn_a" / "gamma.csv")})
    p = tmp_path / "invert.json"
    p.write_text(json.dumps(inv_cfg))
    out_a = tmp_path / "invert_a"
    out_b = tmp_path / "invert_b"
    assert cli_run(["invert", "--config", str(p), "--out", str(out_a)]) == 0
    assert cli_run(["invert", "--config", str(p), "--out", str(out_b)]) == 0
    for name in sorted(os.listdir(out_a)):
        if name.endswith(".csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    report(9, "CLI determinism: byte-identical data files on re-run for "
              "forward/dn/reduce/walk/limits/invert")
