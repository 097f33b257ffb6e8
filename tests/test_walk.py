import warnings

import numpy as np
import pytest

from fraccond import forward, walk
from fraccond.core import FracParams, Grid, tail_vector
from fraccond.operators import Conductivity, assemble_conductivity, operator_rows
from fraccond.profiles import bump_m, make_conductivity
from fraccond.walk import (
    BUCKETS,
    CHUNK,
    Ensemble,
    WalkParams,
    _bucket_table,
    _continuum_integral,
    _site_dtype,
    _spline_taylor,
    default_jump_cutoff,
    full_weight_sum,
    generator_residual,
    master_step,
    outgoing_table,
    q_master_step,
    simulate,
    truncation_tail_mass,
)

from oracles import incoming_weights


def walk_setup(N=257, K=32, s=0.5, gamma_amp=0.3, L=6.0):
    g = Grid(L=L, N=N, a=-2.0, b=2.0)
    fp = FracParams(s)
    gam = make_conductivity(g, bump_m(gamma_amp, 0.0, 1.0)) if gamma_amp \
        else Conductivity.constant(g)
    return g, fp, gam, WalkParams.from_grid(g, fp, gam, K)


class TestWalkParams:
    def test_tau_invariant(self):
        g, fp, gam, wp = walk_setup()
        assert wp.tau == g.h ** (2 * fp.s)

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            WalkParams(h=0.1, K=0, s=0.5, gamma_sqrt=np.ones(16))

    def test_default_cutoff_tail_rule(self):
        # at s = 0.9 the 1e-6 rule is reachable; tail mass must sit below it
        K = default_jump_cutoff(0.9)
        wp = WalkParams(h=0.1, K=K, s=0.9, gamma_sqrt=np.ones(32))
        assert truncation_tail_mass(wp) < 1e-6
        # at s = 0.5 the rule caps out; mass is still reported honestly
        assert default_jump_cutoff(0.5) == 2048
        wp_c = WalkParams(h=0.1, K=2048, s=0.5, gamma_sqrt=np.ones(32))
        assert truncation_tail_mass(wp_c) > 1e-6

    def test_master_step_preserves_nonnegativity(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.4, K=16)
        rng = np.random.default_rng(9)
        u = np.abs(rng.standard_normal(g.N))
        assert np.all(master_step(u, wp) >= 0.0)


class TestIncomingWeights:
    def test_normalization_every_site(self):
        g, fp, gam, wp = walk_setup()
        for i in range(0, g.N, 16):
            _, p = incoming_weights(wp, i)
            assert abs(p.sum() - 1.0) <= 1e-14
            assert np.all(p >= 0.0)

    def test_constant_gamma_closed_form(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0)
        offs, p0 = incoming_weights(wp, 10)
        w = np.abs(offs, dtype=float) ** (-1.0 - 2 * wp.s)
        assert np.allclose(p0, w / w.sum(), rtol=1e-14)
        _, p1 = incoming_weights(wp, 200)
        assert np.array_equal(p0, p1)  # x-independent

    def test_monotone_decay_in_jump_length(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0)
        offs, p = incoming_weights(wp, 128)
        right = p[offs > 0]
        assert np.all(np.diff(right) < 0.0)


class TestMasterStep:
    def test_constant_preserved_away_from_edges(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        u = np.ones(g.N)
        out = master_step(u, wp)
        inner = slice(wp.K, g.N - wp.K)
        assert np.max(np.abs(out[inner] - 1.0)) <= 1e-14

    def test_mass_conservation_up_to_leakage(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0, K=16)
        rng = np.random.default_rng(0)
        u = np.zeros(g.N)
        core = slice(g.N // 2 - 40, g.N // 2 + 40)
        u[core] = rng.uniform(0.2, 1.0, 80)
        out = master_step(u, wp)
        # all mass within K of the boundary could leak; here support is far
        # inside, so the step conserves mass exactly
        assert abs(out.sum() - u.sum()) <= 1e-12 * u.sum()
        # support touching the boundary leaks at most the one-sided tail mass
        v = np.zeros(g.N)
        v[:10] = 1.0
        loss = v.sum() - master_step(v, wp).sum()
        offs, p = incoming_weights(wp, g.N // 2)
        one_sided = p[offs < 0].sum()
        assert 0.0 < loss <= v.sum() * one_sided * 1.01

    def test_exact_lattice_identity(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=32)
        u = np.exp(-g.nodes**2 / 2.0)
        dq = (master_step(u, wp) - u) / wp.tau
        # h^{-2s} D^{-1} sum_k gamma^{1/2}(x+hk)|k|^{-1-2s} (u(x+hk) - u(x))
        K = wp.K
        ue = np.concatenate([np.zeros(K), u, np.zeros(K)])
        ge = np.concatenate([np.ones(K), gam.sqrt, np.ones(K)])
        w = wp.offset_weights
        kern = np.zeros(g.N)
        D = np.zeros(g.N)
        for a, k in enumerate(wp.offsets):
            f = ge[K + k:K + k + g.N] * w[a]
            kern += f * (ue[K + k:K + k + g.N] - u)
            D += f
        ref = kern / D / wp.tau
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(dq - ref)) <= 1e-13 * scale


class TestGeneratorResidual:
    def test_lattice_residual_machine_zero(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0, K=32)
        u = np.exp(-2.0 * g.nodes**2)
        res = generator_residual(u, wp, g, fp)
        assert res.lattice_residual <= 1e-13 * np.max(np.abs(u)) / wp.tau

    def test_constant_field_zero(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        with pytest.warns(UserWarning):
            res = generator_residual(np.ones(g.N), wp, g, fp)
        assert res.lattice_residual <= 1e-13
        assert res.continuum_residual <= 1e-10

    @pytest.mark.parametrize("N,K", [(65, 4), (257, 16), (1000, 300)])
    def test_band_rows_equal_dense_route(self, N, K):
        # the dense route: the whole N x N conductivity matrix cut to the
        # jump band, times u_j - u_i, each row summed over all N columns
        g, fp, gam, wp = walk_setup(N=N, K=K, gamma_amp=0.3)
        u = np.exp(-2.0 * g.nodes**2)
        g_sqrt = wp.gamma_sqrt
        C = np.triu(np.tril(operator_rows(g, fp, 0, N, g_sqrt)[0], K), -K)
        flux = np.sum(C * (u[None, :] - u[:, None]), axis=1)
        D = walk._jump_sum(np.pad(g_sqrt, K, constant_values=1.0), wp)
        m_off = walk._jump_sum(np.pad(np.zeros(N), K, constant_values=1.0), wp)
        dq = (master_step(u, wp) - u) / wp.tau
        form = -flux / (fp.cns * g_sqrt * D) - m_off * u / (wp.tau * D)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            got = generator_residual(u, wp, g, fp).lattice_residual
        assert got == float(np.max(np.abs(dq - form)))

    def test_peak_memory_in_row_blocks_at_4097(self):
        # the dense band took 285 MB here; the stream holds two (rows, N)
        # buffers per worker, 2 MiB each, and the spline solve is O(N)
        import tracemalloc

        g = Grid(L=8.0, N=4097, a=-1.0, b=1.0)
        fp = FracParams(0.5)
        wp = WalkParams.from_grid(g, fp, make_conductivity(
            g, bump_m(0.3, 0.0, 0.5)), 16)
        u = np.exp(-g.nodes**2)
        u[np.abs(g.nodes) > g.L - wp.K * wp.h] = 0.0
        tracemalloc.start()
        try:
            res = generator_residual(u, wp, g, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.lattice_residual <= 1e-12
        assert peak < 3 * forward.MAX_WORKERS * forward.BLOCK_BYTES

    def test_h_refinement_halves_residual(self):
        # physical jump range R = K h held at 3.0 across the refinements
        fp = FracParams(0.5)
        m_fn = bump_m(0.3, 0.0, 1.0)
        res = []
        for N, K in ((257, 64), (513, 128), (1025, 256)):
            g = Grid(L=6.0, N=N, a=-2.0, b=2.0)
            gam = make_conductivity(g, m_fn)
            wp = WalkParams.from_grid(g, fp, gam, K)
            u = np.exp(-4.0 * g.nodes**2)
            res.append(generator_residual(u, wp, g, fp).continuum_residual)
        assert res[0] / res[1] >= 1.5
        assert res[1] / res[2] >= 1.5


class TestOutgoingAndSimulate:
    def test_outgoing_rows_normalized(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        Q = outgoing_table(wp)
        assert np.max(np.abs(Q.sum(axis=1) - 1.0)) <= 1e-12

    def test_constant_gamma_outgoing_equals_incoming(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0, K=16)
        Q = outgoing_table(wp)
        _, p = incoming_weights(wp, g.N // 2)
        assert np.allclose(Q[g.N // 2], p, rtol=1e-13)

    def test_zero_steps_identity(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.0, K=16)
        ens = Ensemble.point_source(1000, g.N // 2, rng_seed=1)
        out, hist = simulate(ens, wp, 0)
        expect = np.zeros(g.N)
        expect[g.N // 2] = 1.0
        assert np.array_equal(hist, expect)
        assert np.array_equal(out.positions, ens.positions)

    def test_point_source_is_a_read_only_stride_0_view(self):
        ens = Ensemble.point_source(1000, 7, rng_seed=1)
        pos = ens.positions
        assert pos.dtype == np.int64 and pos.size == 1000
        assert pos.strides == (0,)
        assert not pos.flags.writeable
        assert ens.initial_count == 1000 and np.all(pos == 7)
        with pytest.raises(ValueError):
            pos[0] = 3

    def test_positions_keep_their_integer_dtype(self):
        ens = Ensemble(np.array([3, 7], dtype=np.uint16), rng_seed=1)
        assert ens.positions.dtype == np.uint16

    def test_displacements_from_widened_positions(self):
        # simulate returns unsigned sites: a displacement is taken after
        # widening them, or a jump left would wrap around
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        site = g.N // 2
        out, _ = simulate(Ensemble.point_source(20000, site, rng_seed=5), wp, 1)
        assert out.positions.dtype.kind == "u"
        disp = out.positions.astype(np.int64) - site
        assert disp.min() == -wp.K and disp.max() == wp.K
        assert 0 not in disp

    @pytest.mark.parametrize("positions", [np.array([3.7]), np.array([3.0]),
                                           np.array([True])])
    def test_non_integer_positions_raise(self, positions):
        # a float site was once cast to int64, so 3.7 walked from site 3
        with pytest.raises(ValueError, match="integer site"):
            Ensemble(positions, rng_seed=1)

    def test_seed_determinism(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        _, h1 = simulate(Ensemble.point_source(20000, 128, rng_seed=99), wp, 8)
        _, h2 = simulate(Ensemble.point_source(20000, 128, rng_seed=99), wp, 8)
        assert np.array_equal(h1, h2)
        _, h3 = simulate(Ensemble.point_source(20000, 128, rng_seed=98), wp, 8)
        assert not np.array_equal(h1, h3)

    def test_step_splitting_composes(self):
        g, fp, gam, wp = walk_setup(gamma_amp=0.3, K=16)
        _, full = simulate(Ensemble.point_source(5000, 128, rng_seed=5), wp, 9)
        mid, _ = simulate(Ensemble.point_source(5000, 128, rng_seed=5), wp, 4)
        _, split = simulate(mid, wp, 5)
        assert np.array_equal(full, split)

    def test_mc_matches_master_constant_gamma(self):
        g, fp, gam, wp = walk_setup(N=513, gamma_amp=0.0, K=16)
        site = g.N // 2
        _, hist = simulate(Ensemble.point_source(200_000, site, rng_seed=11),
                           wp, 10)
        u = np.zeros(g.N)
        u[site] = 1.0
        for _ in range(10):
            u = master_step(u, wp)
        tv = 0.5 * np.sum(np.abs(hist - u))
        assert tv <= 0.02

    def test_mc_matches_transpose_evolution_variable_gamma(self):
        # for nonconstant gamma the simulator's deterministic counterpart is
        # the row-normalized transpose kernel, not the incoming master form
        g, fp, gam, wp = walk_setup(N=513, gamma_amp=0.4, K=16)
        site = g.N // 2
        _, hist = simulate(Ensemble.point_source(200_000, site, rng_seed=21),
                           wp, 10)
        u = np.zeros(g.N)
        u[site] = 1.0
        for _ in range(10):
            u = q_master_step(u, wp)
        tv = 0.5 * np.sum(np.abs(hist - u))
        assert tv <= 0.02

    def test_mass_drift_reported_not_assumed(self):
        # the incoming master equation need not conserve mass for varying
        # gamma; the drift per step is small but genuine
        g, fp, gam, wp = walk_setup(N=257, gamma_amp=0.4, K=16)
        u = np.zeros(g.N)
        u[g.N // 2 - 20:g.N // 2 + 20] = 1.0 / 40
        drift = abs(master_step(u, wp).sum() - u.sum())
        assert 0.0 < drift < 0.02  # reported scale, not a conservation claim

    def test_full_weight_sum_matches_zeta(self):
        import scipy.special
        for s in (0.5, 0.7, 0.9):
            assert full_weight_sum(s) == pytest.approx(
                2.0 * float(scipy.special.zeta(1.0 + 2.0 * s)), rel=1e-10)


def hand_loop_walk(wp, u):
    """Offset-by-offset loops over padded vectors: the incoming
    probabilities, master step, outgoing table and transpose step."""
    N, K, w = wp.n_sites, wp.K, wp.offset_weights
    ge = np.concatenate([np.ones(2 * K), wp.gamma_sqrt, np.ones(2 * K)])
    ue = np.concatenate([np.zeros(K), u, np.zeros(K)])
    f = np.empty((N, 2 * K))
    numer = np.zeros(N)
    for a, k in enumerate(wp.offsets):
        f[:, a] = ge[2 * K + k:2 * K + k + N] * w[a]
        numer += f[:, a] * ue[K + k:K + k + N]
    D = f.sum(axis=1)
    Dext = np.zeros(N + 2 * K)  # D at the sites -K .. N+K-1
    for a, k in enumerate(wp.offsets):
        Dext += ge[K + k:K + k + N + 2 * K] * w[a]
    Q = np.empty((N, 2 * K))
    for a, j in enumerate(wp.offsets):
        Q[:, a] = w[a] / Dext[K + j:K + j + N]
    Q /= Q.sum(axis=1)[:, None]
    q = np.zeros(N + 2 * K)
    for a, j in enumerate(wp.offsets):
        q[K + j:K + j + N] += u * Q[:, a]
    return f / D[:, None], numer / D, Q, q[K:K + N]


def simulate_per_site(ens, wp, steps):
    """Reference Monte Carlo route: the particles of each occupied site are
    searched in that site's cdf row alone."""
    N = wp.n_sites
    cdf = np.cumsum(outgoing_table(wp), axis=1)
    cdf[:, -1] = 1.0
    pos = ens.positions.copy()
    for step in range(steps):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=ens.rng_seed,
                                   spawn_key=(ens.step_count + step,)))
        draws = rng.random(pos.size)
        order = np.argsort(pos, kind="stable")
        spos, sdraw = pos[order], draws[order]
        snew = np.empty_like(spos)
        sites, starts = np.unique(spos, return_index=True)
        bounds = np.append(starts, spos.size)
        for site, lo, hi in zip(sites, bounds[:-1], bounds[1:]):
            idx = np.searchsorted(cdf[site], sdraw[lo:hi], side="right")
            snew[lo:hi] = site + wp.offsets[np.minimum(idx, 2 * wp.K - 1)]
        pos = np.empty_like(snew)
        pos[order] = snew
        pos = pos[(pos >= 0) & (pos < N)]
    return pos, np.bincount(pos, minlength=N) / ens.initial_count


class TestBandedTable:
    # K > N reads past both lattice ends from every site; (2049, 8) is the
    # longest lattice
    CONFIGS = [(513, 16, 0.4), (65, 4, 0.3), (257, 300, 0.3), (2049, 8, 0.3)]

    @pytest.mark.parametrize("N,K,amp", CONFIGS[:3])
    def test_tables_match_hand_loops(self, N, K, amp):
        g, fp, gam, wp = walk_setup(N=N, K=K, gamma_amp=amp)
        u = np.random.default_rng(N).uniform(0.1, 1.0, N)
        P = np.array([incoming_weights(wp, i)[1] for i in range(N)])
        got = (P, master_step(u, wp), outgoing_table(wp), q_master_step(u, wp))
        for name, new, ref in zip(("incoming", "master", "outgoing", "q_master"),
                                  got, hand_loop_walk(wp, u)):
            rel = np.max(np.abs(new - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-14, (name, rel)

    @pytest.mark.parametrize("N,K,amp", CONFIGS)
    def test_simulate_equals_per_site_search(self, N, K, amp):
        g, fp, gam, wp = walk_setup(N=N, K=K, gamma_amp=amp)
        ens = Ensemble.point_source(50_000, N // 2, rng_seed=N + K)
        out, hist = simulate(ens, wp, 8)
        pos, ref_hist = simulate_per_site(ens, wp, 8)
        assert np.array_equal(out.positions, pos)
        assert np.array_equal(hist, ref_hist)


class TestWalkGeneratorIdentity:
    @pytest.mark.parametrize("N,s", [(65, 0.4), (129, 0.7)])
    def test_matrix_identity_full_band(self, N, s):
        # K = N - 1 couples every pair of sites:
        # (P - I)/tau = -diag(1/(C g D)) (C_gamma - diag(g tail))
        #               - diag(m_off / (tau D))
        g, fp, gam, wp = walk_setup(N=N, K=N - 1, s=s, gamma_amp=0.3)
        P = np.column_stack([master_step(e, wp) for e in np.eye(N)])
        target = np.arange(N)[:, None] + wp.offsets
        on = (target >= 0) & (target < N)
        gs = gam.sqrt
        D = (np.where(on, gs[np.clip(target, 0, N - 1)], 1.0)
             * wp.offset_weights).sum(axis=1)
        m_off = np.where(on, 0.0, wp.offset_weights).sum(axis=1)
        C = assemble_conductivity(g, fp, gam)
        lhs = (P - np.eye(N)) / wp.tau
        rhs = (-(C - np.diag(gs * tail_vector(g, fp))) / (fp.cns * gs * D)[:, None]
               - np.diag(m_off / (wp.tau * D)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-14 * np.max(np.abs(lhs))

    def test_lattice_residual_sees_the_operator(self):
        # the lattice form takes C_gamma from operator_rows at fp's order, so
        # a walk built for another order fails the identity
        g, fp, gam, wp = walk_setup(N=65, K=8, gamma_amp=0.3)
        u = np.exp(-2.0 * g.nodes**2)
        same = generator_residual(u, wp, g, fp).lattice_residual
        other = generator_residual(u, wp, g, FracParams(0.6)).lattice_residual
        scale = np.max(np.abs(u)) / wp.tau
        assert same <= 1e-13 * scale
        assert other >= 1e-3 * scale


class TestTopOrder:
    def test_generator_identity_at_s_max(self):
        # the walk at S_MAX = 0.99, the largest order FracParams takes, meets
        # the identity against the assembly kernel; u is not small within
        # R = 4.5 of the edges, which the continuum comparison reports
        g, fp, gam, wp = walk_setup(N=65, K=24, s=0.99)
        u = np.exp(-2.0 * g.nodes**2)
        with pytest.warns(UserWarning, match="not supported away from"):
            res = generator_residual(u, wp, g, fp)
        assert res.lattice_residual <= 1.5e-15 * np.max(np.abs(u)) / wp.tau

    def test_continuum_reference_raises_no_warning(self):
        # the cell z <= h is integrated exactly, so the z^{-1-2s}
        # singularity near s = 1 leaves nothing for a warning to flag
        g, fp, gam, wp = walk_setup(N=65, K=8, s=0.99)
        u = np.exp(-2.0 * g.nodes**2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = generator_residual(u, wp, g, fp)
        assert np.isfinite(res.continuum_residual)


def quad_continuum_integral(u, g, wp, x, sites):
    """The kernel integral of _continuum_integral by adaptive quadrature
    over scipy's not-a-knot CubicSpline interpolants, one site at a time."""
    from scipy.integrate import quad
    from scipy.interpolate import CubicSpline

    spline_u, spline_g = CubicSpline(x, u), CubicSpline(x, g)
    p = 1.0 + 2.0 * wp.s
    out = []
    for i in sites:
        xi, ui = x[i], u[i]

        def sym(z):
            return (spline_g(xi + z) * (spline_u(xi + z) - ui)
                    + spline_g(xi - z) * (spline_u(xi - z) - ui)) / z**p

        out.append(quad(sym, 1e-12, wp.K * wp.h, limit=200,
                        points=[wp.h / 2.0, wp.h])[0])
    return np.array(out)


class TestContinuumIntegral:
    @pytest.mark.parametrize("s", [0.3, 0.5])
    def test_matches_quad_oracle(self, s):
        g, fp, gam, wp = walk_setup(N=129, K=16, s=s)
        u = np.exp(-4.0 * g.nodes**2)
        sites = np.arange(wp.K, g.N - wp.K)
        got = _continuum_integral(u, wp, sites)
        ref = quad_continuum_integral(u, wp.gamma_sqrt, wp, g.nodes, sites)
        assert np.max(np.abs(got - ref)) <= 1e-7 * np.max(np.abs(ref))


def dense_spline_moments(y, h):
    """The not-a-knot spline's nodal second derivatives from one dense
    N x N solve."""
    N = y.shape[0]
    A = np.zeros((N, N))
    i = np.arange(1, N - 1)
    A[i, i - 1] = A[i, i + 1] = 1.0 / 6.0
    A[i, i] = 4.0 / 6.0
    A[0, :3] = A[-1, -3:] = (1.0, -2.0, 1.0)
    rhs = np.zeros_like(y)
    rhs[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / h**2
    return np.linalg.solve(A, rhs)


class TestSplineMoments:
    @pytest.mark.parametrize("N", [4, 5, 6, 129, 1000])
    def test_equal_dense_solve(self, N):
        x = np.linspace(-3.0, 3.0, N)
        y = np.column_stack([np.exp(-x**2), 1.0 + 0.3 * np.sin(2.0 * x)])
        h = x[1] - x[0]
        M = 2.0 * _spline_taylor(y, h)[0, 2]  # the z^2 coefficient is M / 2
        ref = dense_spline_moments(y, h)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFullWeightSum:
    def test_matches_zeta_to_roundoff(self):
        import scipy.special
        for s in np.linspace(0.05, 0.99, 50):
            ref = 2.0 * float(scipy.special.zeta(1.0 + 2.0 * s))
            assert abs(full_weight_sum(s) - ref) <= 1e-14 * ref, s

    def test_tail_mass_matches_hurwitz_zeta(self):
        # the discarded mass is summed directly, not as S minus the kept
        # sum, so it keeps full relative accuracy at the default cutoff
        import scipy.special
        for K in (1, 4, 16, 2048):
            for s in (0.05, 0.3, 0.5, 0.8, 0.99):
                wp = WalkParams(h=0.1, K=K, s=s, gamma_sqrt=np.ones(4))
                ref = float(scipy.special.zeta(1.0 + 2.0 * s, K + 1)
                            / scipy.special.zeta(1.0 + 2.0 * s))
                assert abs(truncation_tail_mass(wp) - ref) <= 1e-14 * ref, (K, s)


class TestSamplerEdges:
    # 2K not a power of two, and point sources at both lattice ends so that
    # absorption happens on each side
    @pytest.mark.parametrize("K", [1, 3, 5])
    @pytest.mark.parametrize("end", ["first", "last"])
    def test_equals_per_site_search(self, K, end):
        g, fp, gam, wp = walk_setup(N=129, K=K, gamma_amp=0.3)
        site = 0 if end == "first" else g.N - 1
        ens = Ensemble.point_source(20_000, site, rng_seed=7 * K + site)
        out, hist = simulate(ens, wp, 12)
        pos, ref_hist = simulate_per_site(ens, wp, 12)
        assert out.positions.size < ens.positions.size  # some were absorbed
        assert np.array_equal(out.positions, pos)
        assert np.array_equal(hist, ref_hist)

    @pytest.mark.parametrize("site", [0, 64, 128])
    def test_default_cutoff_equals_per_site_search(self, site):
        # the CLI's default K = 2048 at N = 129: most cdf entries crowd the
        # first and last buckets of each row, and jumps leave both ends
        g, fp, gam, wp = walk_setup(N=129, K=default_jump_cutoff(0.5),
                                    gamma_amp=0.3)
        ens = Ensemble.point_source(20_000, site, rng_seed=11 + site)
        out, hist = simulate(ens, wp, 6)
        pos, ref_hist = simulate_per_site(ens, wp, 6)
        assert wp.K == 2048
        assert np.array_equal(out.positions, pos)
        assert np.array_equal(hist, ref_hist)

    def test_memory_per_particle(self):
        # 2 bytes per particle (the returned uint16 positions, which the
        # particles walk in; the point source's start positions take none)
        # beside the 2-byte bucket table, each worker's 18 CHUNK bytes of
        # buffers and 2 MiB for the rest
        import tracemalloc
        g, fp, gam, wp = walk_setup(N=513, K=16, gamma_amp=0.3)
        n = 1_000_000
        tracemalloc.start()
        try:
            ens = Ensemble.point_source(n, g.N // 2, rng_seed=3)
            simulate(ens, wp, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        fixed = 2 * g.N * BUCKETS + forward.MAX_WORKERS * 18 * CHUNK + (2 << 20)
        assert peak < 2 * n + fixed


class TestParticleChunks:
    """simulate's step pass runs in blocks of CHUNK particles on forward's
    worker pool; neither the worker count nor CHUNK moves a byte, and nor
    do uint32 sites in place of uint16 ones."""

    # absorption at the first end, at the last end, and at both from the
    # centre with the default K = 2048
    @pytest.mark.parametrize("K,site", [(3, 0), (5, 128), (2048, 64)])
    def test_workers_and_chunk_size_move_no_byte(self, monkeypatch, K, site):
        g, fp, gam, wp = walk_setup(N=129, K=K, gamma_amp=0.3)
        n = 20_001  # no chunk size below divides it
        ens = Ensemble.point_source(n, site, rng_seed=K + site)
        # the same start materialised: the stride-0 view moves no byte either
        full = Ensemble(np.full(n, site, dtype=np.int64), rng_seed=K + site)
        runs = []
        # a uint16 threshold of 0 makes the sites uint32
        for workers, chunk, uint16_sites in [
                (1, n, 1 << 16), (1, 4096, 1 << 16), (2, 4096, 1 << 16),
                (2, 1000, 1 << 16), (2, 777, 1 << 16), (2, 777, 0)]:
            monkeypatch.setattr(forward, "MAX_WORKERS", workers)
            monkeypatch.setattr(walk, "CHUNK", chunk)
            monkeypatch.setattr(walk, "_UINT16_SITES", uint16_sites)
            runs += [simulate(ens, wp, 8), simulate(full, wp, 8)]
        assert runs[0][0].positions.size < n  # some were absorbed
        assert K < 2048 or wp.K == default_jump_cutoff(0.5)
        for out, hist in runs[1:]:
            assert np.array_equal(out.positions, runs[0][0].positions)
            assert np.array_equal(hist, runs[0][1])
        dtypes = [out.positions.dtype for out, _ in runs]
        assert dtypes == [np.uint16] * 10 + [np.uint32] * 2

    def test_chunks_equal_per_site_search(self, monkeypatch):
        # several chunks per worker, checked against the reference route
        monkeypatch.setattr(walk, "CHUNK", 3000)
        g, fp, gam, wp = walk_setup(N=129, K=5, gamma_amp=0.3)
        ens = Ensemble.point_source(20_000, 0, rng_seed=4)
        out, hist = simulate(ens, wp, 12)
        pos, ref_hist = simulate_per_site(ens, wp, 12)
        assert out.positions.size < ens.positions.size
        assert np.array_equal(out.positions, pos)
        assert np.array_equal(hist, ref_hist)


class TestSiteDtype:
    """simulate keeps sites in uint16 while N + 2K + 1 <= 65536 and in
    uint32 beyond.  The lattices and jump ranges here are far below that,
    so the uint32 tests lower the threshold (as TestParticleChunks does)."""

    def test_threshold(self):
        assert _site_dtype(65536 - 2 * 16 - 1, 16) == np.uint16
        assert _site_dtype(65536 - 2 * 16, 16) == np.uint32
        # N + K <= (2^31 - 1) // BUCKETS, the walk's int32 key limit, is
        # kept: outgoing_table's cost grows like N K
        assert _site_dtype(1, (1 << 21) - 2) == np.uint32
        with pytest.raises(ValueError, match="too long"):
            _site_dtype(2, (1 << 21) - 2)

    @pytest.mark.parametrize("threshold", [1 << 16, 0])
    def test_compact_ensemble_composes(self, monkeypatch, threshold):
        # simulate(simulate(e, a), b) == simulate(e, a + b) from positions
        # already in the site dtype
        monkeypatch.setattr(walk, "_UINT16_SITES", threshold)
        g, fp, gam, wp = walk_setup(N=129, K=5, gamma_amp=0.3)
        dtype = _site_dtype(g.N, wp.K)
        ens = Ensemble(np.full(20_000, 3, dtype=dtype), rng_seed=6)
        mid, _ = simulate(ens, wp, 4)
        split, split_hist = simulate(mid, wp, 5)
        full, full_hist = simulate(ens, wp, 9)
        assert ens.positions.dtype == mid.positions.dtype == dtype
        assert full.positions.size < ens.positions.size
        assert np.array_equal(split.positions, full.positions)
        assert np.array_equal(split_hist, full_hist)

    def test_largest_uint16_lattice_equals_per_site_search(self):
        # N + 2K + 1 = 65536: the ambiguous mark N + K sits right below
        # the farthest jump left, -K, wrapped to 65536 - K
        N, K = 3, 32766
        wp = WalkParams(h=0.5, K=K, s=0.3, gamma_sqrt=np.array([1.0, 1.3, 0.8]))
        ens = Ensemble.point_source(20_000, 1, rng_seed=2)
        out, hist = simulate(ens, wp, 2)
        pos, ref_hist = simulate_per_site(ens, wp, 2)
        assert out.positions.dtype == np.uint16
        assert 0 < out.positions.size < ens.positions.size
        assert np.array_equal(out.positions, pos)
        assert np.array_equal(hist, ref_hist)


def searchsorted_table(cdf):
    """The bucket table from np.searchsorted, row by row: the landing site
    at each bucket's lower edge b / BUCKETS and at the largest double below
    its upper edge, mod 2^16, and the ambiguous mark N + K where the two
    differ."""
    N, K = cdf.shape[0], cdf.shape[1] // 2
    offsets = np.concatenate([np.arange(-K, 0), np.arange(1, K + 1)])
    edges = np.arange(BUCKETS + 1) / BUCKETS
    table = np.empty((N, BUCKETS), dtype=np.int64)
    for y, row in enumerate(cdf):
        lo = np.searchsorted(row, edges[:-1], side="right")
        hi = np.searchsorted(row, np.nextafter(edges[1:], 0.0), side="right")
        table[y] = np.where(lo == hi, (y + offsets[lo]) % 2**16, N + K)
    return table


class TestBucketTable:
    @pytest.mark.parametrize("K", [1, 16, 2048])
    def test_matches_searchsorted_at_bucket_ends(self, K):
        g, fp, gam, wp = walk_setup(N=129, K=K, gamma_amp=0.3)
        cdf = np.cumsum(outgoing_table(wp), axis=1)
        cdf[:, -1] = 1.0
        table = _bucket_table(cdf)
        assert table.dtype == np.uint16
        assert np.array_equal(table, searchsorted_table(cdf))
        ambiguous = np.mean(table == g.N + K)
        assert 0.0 < ambiguous < 0.5, ambiguous

    def test_entries_on_bucket_edges(self):
        # K = 4; entries 0.25 and 0.5 sit on bucket edges, two lie strictly
        # inside a bucket, and one round-off entry exceeds the final 1
        row = [0.0, 0.25, 0.25, 0.5, 0.5 + 2.0**-12, 0.75 - 2.0**-11,
               1.0 + 2.0**-52, 1.0]
        cdf = np.array([row, row])
        table = _bucket_table(cdf)
        assert np.array_equal(table, searchsorted_table(cdf))
        offsets = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
        for y in (0, 1):
            site = y + offsets[[1, 1, 3, 3, 3]]  # entries <= the draw
            got = table[y, [0, 255, 256, 257, 511]]
            assert np.array_equal(got, site % 2**16)  # off the lattice, >= N
            assert table[y, 512] == table[y, 767] == 2 + 4  # N + K
            assert table[y, 768] == y + offsets[6]
