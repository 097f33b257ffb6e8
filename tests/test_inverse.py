import contextlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fraccond import _blas, forward, inverse
from fraccond.core import FracParams, Grid
from fraccond.forward import (
    DnMatrix,
    SolverError,
    assemble_dn,
    liouville_reduce,
)
from fraccond.inverse import (
    InversionConfig,
    ReconstructionError,
    _NormalEquations,
    reconstruct_gamma,
    recover_m_from_q,
    single_measurement_fit,
)
from fraccond.operators import Conductivity, assemble_laplacian
from fraccond.profiles import bump_m, make_conductivity, profile_from_name

from oracles import (
    assemble_dn_schrodinger,
    forward_and_jacobian,
    laplacian_evaluator,
)


def inverse_grid(N=64):
    return Grid(L=1.0, N=N, a=-0.15, b=0.15)


def bump_gamma(g, amp=0.3, width=0.1):
    return make_conductivity(g, bump_m(amp, 0.0, width))


def bump_potential(g, amp=0.8, width=0.12):
    q = np.zeros(g.N)
    q[g.interior_idx] = bump_m(amp, 0.0, width)(g.nodes)[g.interior_idx]
    return q


def panel_data(seed, N=256):
    """Conductivity DN data of the CLI's random profile with this seed."""
    g = inverse_grid(N)
    fp = FracParams(0.5)
    gam = make_conductivity(g, profile_from_name(
        "random", seed=seed, amplitude=0.3, width=0.15))
    E = g.exterior_idx
    return assemble_dn(g, fp, gam, E, E), g, fp


def measurement_geometry(N=48):
    """Disjoint source and observation sets W1, W2 and a source g on W1."""
    g = Grid(L=1.0, N=N, a=-0.15, b=0.15)
    x = g.nodes
    W1 = np.flatnonzero((x > -0.85) & (x < -0.45))
    W2 = np.flatnonzero((x > 0.45) & (x < 0.85))
    gfull = np.zeros(g.N)
    gfull[W1] = np.exp(-((x[W1] + 0.65) / 0.1) ** 2)
    return g, W1, W2, gfull


def disjoint_geometry(N):
    """Disjoint exterior sets W1 = [-0.9, -0.5] and W2 = [0.5, 0.9]."""
    g = inverse_grid(N)
    E = g.exterior_idx
    x = g.nodes[E]
    return g, E[(x >= -0.9) & (x <= -0.5)], E[(x >= 0.5) & (x <= 0.9)]


def geometry_gamma(g, profile):
    """The bump, or the CLI's random profile with seed `profile`."""
    if profile == "bump":
        return bump_gamma(g)
    return make_conductivity(g, profile_from_name(
        "random", seed=profile, amplitude=0.3, width=0.15))


def single_measurement_report(cfg=None):
    """single_measurement_fit to the bump conductivity's response."""
    g, W1, W2, gfull = measurement_geometry()
    fp = FracParams(0.5)
    obs = assemble_dn(g, fp, bump_gamma(g), W1, W2).matrix @ gfull[W1]
    return single_measurement_fit(gfull, obs, W1, W2, g, fp, cfg)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            InversionConfig(reg_lambda=-1.0)
        with pytest.raises(ValueError):
            InversionConfig(max_iter=0)
        with pytest.raises(ValueError):
            InversionConfig(tol=0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="reg_lambda must be finite"):
                InversionConfig(reg_lambda=bad)
            # an infinite tol would report converged at iteration 0
            with pytest.raises(ValueError, match="tol must be finite"):
                InversionConfig(tol=bad)


class TestJacobian:
    def test_exact_vs_finite_differences(self):
        g = Grid(L=1.0, N=32, a=-0.2, b=0.2)
        fp = FracParams(0.5)
        E = g.exterior_idx
        nI = g.interior_idx.size
        rng = np.random.default_rng(0)
        q0 = 0.3 * rng.standard_normal(nI)
        M0, J = forward_and_jacobian(g, fp, q0, E, E, None)
        eps = 1e-6
        for i in range(0, nI, 3):
            qp = q0.copy()
            qp[i] += eps
            qm = q0.copy()
            qm[i] -= eps
            fd = (forward_and_jacobian(g, fp, qp, E, E, None)[0]
                  - forward_and_jacobian(g, fp, qm, E, E, None)[0]) / (2 * eps)
            assert np.max(np.abs(J[:, :, i] - fd)) <= 1e-6 * np.max(np.abs(fd))


class TestDataChecks:
    def test_set_reaching_into_omega_rejected(self):
        g = inverse_grid()
        E = g.exterior_idx
        W1 = np.append(E[:5], g.interior_idx[0])
        observed = DnMatrix(W1, E[-4:], np.zeros((4, W1.size)))
        with pytest.raises(ValueError, match="must be a subset of exterior_idx"):
            reconstruct_gamma(observed, g, FracParams(0.5))

    def test_data_shape_checked_against_its_sets(self):
        g = inverse_grid()
        E = g.exterior_idx
        observed = DnMatrix(E[:5], E[-4:], np.zeros((5, 4)))
        with pytest.raises(ValueError, match="shape"):
            reconstruct_gamma(observed, g, FracParams(0.5))

    def test_noise_degrades_gracefully(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        E = g.exterior_idx
        gam = bump_gamma(g)
        clean = assemble_dn(g, fp, gam, E, E)
        rng = np.random.default_rng(7)
        noisy = DnMatrix(E, E, clean.matrix
                         * (1 + 1e-6 * rng.standard_normal(clean.matrix.shape)))
        cfg = InversionConfig(reg_lambda=1e-6, tol=1e-7, max_iter=60)
        rep = reconstruct_gamma(noisy, g, fp, cfg)
        err = np.max(np.abs(rep.gamma.values - gam.values)) / np.max(gam.values)
        assert rep.data_residual <= 1e-5
        assert err <= 0.05


class TestRecoverM:
    def test_zero_potential_zero_m(self):
        g = inverse_grid()
        m = recover_m_from_q(np.zeros(g.N), g, FracParams(0.5))
        assert np.max(np.abs(m)) == 0.0

    def test_round_trip_from_liouville(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        q = liouville_reduce(g, fp, gam)
        m = recover_m_from_q(q, g, fp)
        assert np.max(np.abs(m - gam.m_values)) <= 1e-8

    def test_against_dense_solve_oracle(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        q = bump_potential(g, amp=0.4)
        m = recover_m_from_q(q, g, fp)
        I = g.interior_idx
        A = assemble_laplacian(g, fp)
        A_II = A[np.ix_(I, I)] + np.diag(q[I])
        ref = scipy.linalg.solve(A_II, -q[I])
        assert np.allclose(m[I], ref, rtol=1e-12, atol=1e-14)
        assert np.all(m[g.exterior_idx] == 0.0)

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.99])
    def test_interior_rows_equal_dense_route(self, s):
        # A_II from the interior rows of (-Delta)^s is the interior block of
        # the assembled matrix, so the solve is the dense route exactly
        g = inverse_grid()
        fp = FracParams(s)
        q = bump_potential(g, amp=0.4)
        I = g.interior_idx
        A_II = assemble_laplacian(g, fp)[np.ix_(I, I)]
        A_II[np.diag_indices_from(A_II)] += q[I]
        ref = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A_II), -q[I])
        m = recover_m_from_q(q, g, fp)
        assert np.array_equal(m[I], ref)

    def test_peak_memory_in_row_blocks_at_4097(self):
        # omega's rows across all N columns took 23 MB here; the interior
        # block is copied out of one (rows, N) buffer per worker instead
        g = Grid(L=8.0, N=4097, a=-1.0, b=1.0)
        fp = FracParams(0.5)
        q = liouville_reduce(g, fp, make_conductivity(g, bump_m(0.3, 0.0, 0.5)))
        tracemalloc.start()
        try:
            recover_m_from_q(q, g, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = g.interior_idx.size**2 * 8
        assert peak < block + forward.MAX_WORKERS * forward.BLOCK_BYTES + (1 << 20)

    def test_singular_raises_named_error(self):
        g = Grid(L=1.0, N=48, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        I = g.interior_idx
        L = assemble_laplacian(g, fp)
        lam0 = np.linalg.eigvalsh(L[np.ix_(I, I)])[0]
        q = np.zeros(g.N)
        q[I] = -lam0
        with pytest.raises(SolverError, match="eigenvalue"):
            recover_m_from_q(q, g, fp)


class TestReconstructGamma:
    def test_unit_gamma(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, Conductivity.constant(g), E, E)
        rep = reconstruct_gamma(observed, g, fp, InversionConfig(reg_lambda=0.0))
        assert np.max(np.abs(rep.gamma.values - 1.0)) <= 1e-8

    def test_bump_round_trip_one_percent(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, gam, E, E)
        rep = reconstruct_gamma(observed, g, fp)
        err = np.max(np.abs(rep.gamma.values - gam.values)) / np.max(gam.values)
        assert err <= 0.01
        assert rep.converged

    @pytest.mark.parametrize("s", [0.4, 0.6])
    @pytest.mark.parametrize("amp,width", [(0.3, 0.1), (0.25, 0.12), (-0.2, 0.1)])
    def test_round_trip_profile_sweep(self, s, amp, width):
        g = inverse_grid()
        fp = FracParams(s)
        gam = make_conductivity(g, bump_m(amp, 0.0, width))
        E = g.exterior_idx
        observed = assemble_dn(g, fp, gam, E, E)
        rep = reconstruct_gamma(observed, g, fp)
        err = np.max(np.abs(rep.gamma.values - gam.values)) / np.max(gam.values)
        assert err <= 0.01, (s, amp, width, err)

    def test_off_center_bump_near_invisible_mode(self):
        # an off-center bump feeds the odd-parity direction, which is the
        # least visible one in symmetric full-exterior data; the recovery
        # error is then set by that direction's conditioning, not by lambda
        g = inverse_grid()
        fp = FracParams(0.4)
        gam = make_conductivity(g, bump_m(0.25, 0.02, 0.1))
        E = g.exterior_idx
        observed = assemble_dn(g, fp, gam, E, E)
        rep = reconstruct_gamma(observed, g, fp)
        err = np.max(np.abs(rep.gamma.values - gam.values)) / np.max(gam.values)
        assert err <= 0.03

    def test_monotone_residual_history(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, gam, E, E)
        rep = reconstruct_gamma(observed, g, fp)
        hist = rep.residual_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_distinct_gammas_distinct_dn(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        E = g.exterior_idx
        M1 = assemble_dn(g, fp, bump_gamma(g, 0.3), E, E).matrix
        M2 = assemble_dn(g, fp, bump_gamma(g, 0.25), E, E).matrix
        assert np.linalg.norm(M1 - M2) > 1e-6

    def test_indefinite_potential_drives_m_below_minus_one(self):
        # potentials inconsistent with any conductivity can push 1 + m
        # nonpositive once (L + q) turns indefinite
        g = inverse_grid()
        fp = FracParams(0.5)
        q = np.zeros(g.N)
        q[g.interior_idx] = -10.5 * bump_m(1.0, 0.0, 0.1)(g.nodes)[g.interior_idx]
        m_probe = recover_m_from_q(q, g, fp)
        assert np.min(1.0 + m_probe) <= 0.0

    @pytest.mark.parametrize("seed", [0, 3])
    def test_q_is_the_potential_of_m(self, monkeypatch, seed):
        observed, g, fp = panel_data(seed)

        def not_called(*args):
            raise AssertionError("the pipeline called recover_m_from_q")

        with monkeypatch.context() as patch:
            patch.setattr(inverse, "recover_m_from_q", not_called)
            rep = reconstruct_gamma(observed, g, fp)
        assert_q_of_m(rep, g, fp)


def assert_q_of_m(rep, g, fp):
    """rep.q is q(rep.m) bit for bit, and recover_m_from_q(rep.q) gives
    rep.m back to round-off: at most 1.7e-16 over the panel seeds 0-3 at
    N = 64, 256 and 512 and the single-measurement fit (|m| <= 0.2, block
    condition numbers 7-55), checked here against 1e-14."""
    I = g.interior_idx
    L_II = assemble_laplacian(g, fp)[np.ix_(I, I)]
    with _blas.one_blas_thread():  # the fit's own BLAS thread count
        q = -(L_II @ rep.m[I]) / (1.0 + rep.m[I])
    assert np.array_equal(rep.q[I], q)
    assert np.all(rep.q[g.exterior_idx] == 0.0)
    assert np.max(np.abs(recover_m_from_q(rep.q, g, fp) - rep.m)) <= 1e-14


class TestMeasurementGeometry:
    """Conductivity data on exterior sets other than W1 = W2 = exterior."""

    @pytest.mark.parametrize("N", [128, 256])
    @pytest.mark.parametrize("profile", ["bump", 0, 1, 2, 3])
    def test_disjoint_sets_reach_the_residual_gate(self, N, profile):
        # the gamma error is not gated here: seed 0 stops at max_iter with
        # 36.7 % (N=128) and most of the others at damping_floor
        g, W1, W2 = disjoint_geometry(N)
        fp = FracParams(0.5)
        observed = assemble_dn(g, fp, geometry_gamma(g, profile), W1, W2)
        rep = reconstruct_gamma(observed, g, fp)
        assert rep.data_residual <= 1e-6
        assert np.all(rep.gamma.values > 0.0)

    @pytest.mark.parametrize("N", [128, 256])
    @pytest.mark.parametrize("profile", ["bump", 0, 1, 2, 3])
    def test_conductivity_equals_schrodinger_data_on_disjoint_sets(
            self, N, profile):
        # no entry shares a node, so the reduction changes no entry
        g, W1, W2 = disjoint_geometry(N)
        fp = FracParams(0.5)
        gam = geometry_gamma(g, profile)
        cond = assemble_dn(g, fp, gam, W1, W2).matrix
        q = liouville_reduce(g, fp, gam)
        schr = assemble_dn_schrodinger(g, fp, q, W1, W2).matrix
        assert np.max(np.abs(cond - schr)) <= 1e-13 * np.max(np.abs(cond))

    def test_overlapping_sets_leave_out_exactly_the_shared_nodes(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        E = g.exterior_idx
        W1, W2 = E[:20][::-1], E[10:40]  # nodes E[10:20] are in both
        observed = assemble_dn(g, fp, bump_gamma(g), W1, W2)
        shared = W2[:, None] == W1[None, :]
        assert np.count_nonzero(shared) == 10
        base = reconstruct_gamma(observed, g, fp)
        assert base.data_residual <= 1e-6
        moved = observed.matrix + np.where(shared, 1.0, 0.0)
        rep = reconstruct_gamma(DnMatrix(W1, W2, moved), g, fp)
        assert np.array_equal(rep.q, base.q)
        one = observed.matrix.copy()
        l, k = np.argwhere(~shared)[7]
        one[l, k] += 1e-3 * abs(one[l, k])
        rep = reconstruct_gamma(DnMatrix(W1, W2, one), g, fp)
        assert not np.array_equal(rep.q, base.q)

    def test_set_order_leaves_q_unchanged(self):
        g, W1, W2 = disjoint_geometry(128)
        fp = FracParams(0.5)
        M = assemble_dn(g, fp, bump_gamma(g), W1, W2).matrix
        base = reconstruct_gamma(DnMatrix(W1, W2, M), g, fp)
        rng = np.random.default_rng(4)
        p2, p1 = rng.permutation(W2.size), rng.permutation(W1.size)
        rep = reconstruct_gamma(DnMatrix(W1, W2[p2], M[p2]), g, fp)
        assert np.array_equal(rep.q, base.q)
        rep = reconstruct_gamma(DnMatrix(W1[p1], W2[p2], M[np.ix_(p2, p1)]),
                                g, fp)
        assert np.array_equal(rep.q, base.q)


class TestInjectivityOperator:
    def test_interior_block_nonsingular(self):
        # the difference field of two reductions with equal potentials solves
        # a Dirichlet problem whose operator is (1 + m1) ((-Delta)^s + q1);
        # nonsingularity of its interior block forces the difference to vanish
        g = inverse_grid()
        fp = FracParams(0.5)
        for amp in (0.3, -0.2):
            gam1 = bump_gamma(g, amp)
            q1 = liouville_reduce(g, fp, gam1)
            L = assemble_laplacian(g, fp)
            I = g.interior_idx
            T = (1.0 + gam1.m_values)[:, None] * L - np.diag(L @ gam1.m_values)
            T_II = T[np.ix_(I, I)]
            ref = (1.0 + gam1.m_values[I])[:, None] \
                * (L[np.ix_(I, I)] + np.diag(q1[I]))
            assert np.allclose(T_II, ref, rtol=1e-10, atol=1e-12)
            assert np.linalg.svd(T_II, compute_uv=False)[-1] > 1e-8

    def test_equal_potentials_force_equal_m(self):
        g = inverse_grid()
        fp = FracParams(0.5)
        gam1 = bump_gamma(g, 0.3)
        q = liouville_reduce(g, fp, gam1)
        m2 = recover_m_from_q(q, g, fp)
        assert np.max(np.abs(m2 - gam1.m_values)) <= 1e-8


class TestSingleMeasurement:
    def test_unit_gamma_zero_residual_at_zero_potential(self):
        g, W1, W2, gfull = measurement_geometry()
        fp = FracParams(0.5)
        obs = assemble_dn(g, fp, Conductivity.constant(g), W1, W2).matrix @ gfull[W1]
        rep = single_measurement_fit(gfull, obs, W1, W2, g, fp,
                                     InversionConfig(reg_lambda=0.0))
        assert rep.data_residual <= 1e-12
        assert np.max(np.abs(rep.q)) <= 1e-10

    def test_lambda_sweep_reaches_residual_floor(self):
        g, W1, W2, gfull = measurement_geometry()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        obs = assemble_dn(g, fp, gam, W1, W2).matrix @ gfull[W1]
        best = np.inf
        for lam in (1e-6, 1e-9, 1e-12):
            rep = single_measurement_fit(
                gfull, obs, W1, W2, g, fp,
                InversionConfig(reg_lambda=lam, tol=1e-13, max_iter=120))
            best = min(best, rep.data_residual)
        assert best <= 1e-8

    def test_observation_permutation_invariance(self):
        g, W1, W2, gfull = measurement_geometry()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        obs = assemble_dn(g, fp, gam, W1, W2).matrix @ gfull[W1]
        cfg = InversionConfig(reg_lambda=1e-6, tol=1e-13, max_iter=40)
        rep1 = single_measurement_fit(gfull, obs, W1, W2, g, fp, cfg)
        perm = np.random.default_rng(3).permutation(W2.size)
        rep2 = single_measurement_fit(gfull, obs[perm], W1, W2[perm], g, fp, cfg)
        scale = max(np.max(np.abs(rep1.q)), 1e-300)
        assert np.max(np.abs(rep1.q - rep2.q)) <= 1e-10 * scale

    def test_geometry_validation(self):
        g, W1, W2, gfull = measurement_geometry()
        fp = FracParams(0.5)
        with pytest.raises(ValueError):
            single_measurement_fit(gfull, np.zeros(W1.size), W1, W1, g, fp)
        with pytest.raises(ValueError):
            single_measurement_fit(np.zeros(g.N), np.zeros(W2.size),
                                   W1, W2, g, fp)

    def test_lattice_source_off_w1_rejected(self):
        # a lattice g's values off W1 would be dropped without a word
        g, W1, W2, gfull = measurement_geometry()
        gfull[W2[3]] = 5.0
        with pytest.raises(ValueError, match=f"nonzero at node {W2[3]}, "
                                             "outside W1"):
            single_measurement_fit(gfull, np.zeros(W2.size), W1, W2, g,
                                   FracParams(0.5))

    def test_q_is_the_potential_of_m(self, monkeypatch):
        def not_called(*args):
            raise AssertionError("the pipeline called recover_m_from_q")

        with monkeypatch.context() as patch:
            patch.setattr(inverse, "recover_m_from_q", not_called)
            rep = single_measurement_report()
        assert_q_of_m(rep, measurement_geometry()[0], FracParams(0.5))


class TestStructuredNormalEquations:
    """The Gram J^T J and gradient J^T r contracted from the solution blocks
    against the dense Jacobian tensor of forward_and_jacobian."""

    @staticmethod
    def setup(W1, W2, mask, g_W1=None):
        g = Grid(L=1.0, N=32, a=-0.2, b=0.2)
        fp = FracParams(0.5)
        nI = g.interior_idx.size
        rng = np.random.default_rng(1)
        q0 = 0.3 * rng.standard_normal(nI)
        data = laplacian_evaluator(g, fp, W1, W2, g_W1)
        M, U, A_II = data.evaluate(q0)
        V = data.observation_block(U, A_II)
        R = np.where(mask, rng.standard_normal(M.shape), 0.0)
        ne = _NormalEquations(V, U, R, np.nonzero(~mask), data.h)
        _, J = forward_and_jacobian(g, fp, q0, W1, W2, g_W1)
        Jm = J.reshape(-1, nI)[mask.reshape(-1)]
        return ne, Jm, R[mask], q0, A_II

    @staticmethod
    def masks(shape):
        rng = np.random.default_rng(5)
        yield np.ones(shape, dtype=bool)
        if shape[0] == shape[1]:
            yield ~np.eye(shape[0], dtype=bool)
        yield rng.random(shape) < 0.6

    @pytest.mark.parametrize("sets", ["same", "distinct"])
    def test_gram_and_gradient_match_dense(self, sets):
        E = Grid(L=1.0, N=32, a=-0.2, b=0.2).exterior_idx
        W1, W2 = (E, E) if sets == "same" else (E[:9], E[-12:])
        for mask in self.masks((W2.size, W1.size)):
            ne, Jm, r, _, _ = self.setup(W1, W2, mask)
            G_ref = Jm.T @ Jm
            g_ref = Jm.T @ r
            assert np.linalg.norm(ne.G - G_ref) <= 1e-12 * np.linalg.norm(G_ref)
            assert np.linalg.norm(ne.g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    def test_single_source_matches_dense(self):
        E = Grid(L=1.0, N=32, a=-0.2, b=0.2).exterior_idx
        W1, W2 = E[:9], E[-12:]
        g_W1 = np.linspace(0.5, 1.5, W1.size)
        ne, Jm, r, _, _ = self.setup(W1, W2,
                                     np.ones((W2.size, 1), dtype=bool), g_W1)
        G_ref = Jm.T @ Jm
        assert np.linalg.norm(ne.G - G_ref) <= 1e-12 * np.linalg.norm(G_ref)
        assert np.linalg.norm(ne.g - Jm.T @ r) <= 1e-12 * np.linalg.norm(Jm.T @ r)

    def test_jacobian_products_match_dense(self):
        E = Grid(L=1.0, N=32, a=-0.2, b=0.2).exterior_idx
        mask = ~np.eye(E.size, dtype=bool)
        ne, Jm, r, q0, _ = self.setup(E, E, mask)
        Jd = ne.j(q0)
        assert np.all(Jd[~mask] == 0.0)
        ref = Jm @ q0
        assert np.linalg.norm(Jd[mask] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("coords", ["q", "m"])
    @pytest.mark.parametrize("reg", [1e-12, 1e-6])
    def test_step_matches_stacked_least_squares(self, reg, coords):
        # in q, P = I; in m, P = dq/dm = -D^-1 A_II at the potential q0 of
        # a deviation m with 1 + m = D in [0.8, 1.2]
        E = Grid(L=1.0, N=32, a=-0.2, b=0.2).exterior_idx
        ne, Jm, r, q0, A_II = self.setup(E, E, ~np.eye(E.size, dtype=bool))
        lam = reg * np.linalg.norm(Jm, 2) ** 2
        nI = q0.size
        D = np.linspace(0.8, 1.2, nI)
        P = np.eye(nI) if coords == "q" else A_II / -D[:, None]
        stack = np.vstack([Jm @ P, np.sqrt(lam) * P])
        rhs = np.concatenate([-r, -np.sqrt(lam) * q0])
        ref = np.linalg.lstsq(stack, rhs, rcond=None)[0]
        # the unrefined normal-equations step is off by ~2e-9 here
        step = ne.step(q0, lam, P)
        assert np.linalg.norm(step - ref) <= 1e-11 * np.linalg.norm(ref)


class TestForwardMapIsDnEvaluator:
    @pytest.mark.parametrize("sets", ["same", "distinct"])
    def test_forward_data_equals_schrodinger_dn(self, sets):
        g = inverse_grid()
        fp = FracParams(0.5)
        q = bump_potential(g)
        E = g.exterior_idx
        W1, W2 = (E, E) if sets == "same" else (E[:9], E[-12:])
        M, _ = forward_and_jacobian(g, fp, q[g.interior_idx], W1, W2, None)
        assert np.array_equal(M, assemble_dn_schrodinger(g, fp, q, W1, W2).matrix)

    @pytest.mark.parametrize("bad", ["W1", "W2"])
    @pytest.mark.parametrize("route", ["assemble_dn", "assemble_dn_schrodinger",
                                       "single_measurement_fit"])
    def test_interior_node_rejected(self, route, bad):
        g = inverse_grid()
        fp = FracParams(0.5)
        E = g.exterior_idx
        W = {"W1": E[:5], "W2": E[-5:]}
        W[bad] = np.append(W[bad], g.interior_idx[0])
        W1, W2 = W["W1"], W["W2"]
        calls = {
            "assemble_dn": lambda: assemble_dn(
                g, fp, Conductivity.constant(g), W1, W2),
            "assemble_dn_schrodinger": lambda: assemble_dn_schrodinger(
                g, fp, np.zeros(g.N), W1, W2),
            "single_measurement_fit": lambda: single_measurement_fit(
                np.ones(g.N), np.zeros(W2.size), W1, W2, g, fp),
        }
        with pytest.raises(ValueError, match="must be a subset of exterior_idx"):
            calls[route]()


class TestInversionReportDiagnostics:
    def bump_data(self, N=64):
        g = inverse_grid(N)
        fp = FracParams(0.5)
        E = g.exterior_idx
        return assemble_dn(g, fp, bump_gamma(g), E, E), g, fp

    @staticmethod
    def assert_recorded(rep):
        """The iterations of an accepted-step loop, and the report fields
        read from them."""
        its = rep.iterations
        assert len(its) == len(rep.residual_history) >= 2
        assert its[0].step_length == 0.0 and its[0].trials == 0
        assert all(0.0 < it.step_length <= 1.0 and it.trials >= 1
                   for it in its[1:])
        assert np.allclose(np.sqrt([it.objective for it in its]),
                           rep.residual_history, rtol=1e-15, atol=0.0)
        assert rep.converged == (rep.stop_reason == "converged")

    def test_converged_iterations_recorded(self):
        observed, g, fp = self.bump_data()
        rep = reconstruct_gamma(observed, g, fp)
        assert rep.stop_reason == "converged" and rep.converged
        self.assert_recorded(rep)
        assert rep.iterations[-1].data_residual == rep.data_residual < 1e-9

    @pytest.mark.parametrize("cfg, stop", [
        (InversionConfig(reg_lambda=1e-12, tol=1e-8), "converged"),
        (InversionConfig(reg_lambda=1e-12, tol=1e-8, max_iter=2), "max_iter"),
        (InversionConfig(reg_lambda=1e-6), "damping_floor"),
    ])
    def test_single_measurement_iterations_recorded(self, cfg, stop):
        rep = single_measurement_report(cfg)
        assert rep.stop_reason == stop
        self.assert_recorded(rep)
        assert rep.iterations[-1].data_residual == rep.data_residual
        assert (rep.data_residual < cfg.tol) == rep.converged

    def test_max_iter(self):
        observed, g, fp = self.bump_data()
        rep = reconstruct_gamma(observed, g, fp, InversionConfig(max_iter=1))
        assert rep.stop_reason == "max_iter" and not rep.converged
        assert len(rep.iterations) == 2

    def test_damping_floor(self, monkeypatch):
        # an ascent direction: no trial step decreases the objective
        observed, g, fp = self.bump_data()
        monkeypatch.setattr(_NormalEquations, "step",
                            lambda self, q, lam, P: P.T @ (self.g + lam * q))
        rep = reconstruct_gamma(observed, g, fp)
        assert rep.stop_reason == "damping_floor" and not rep.converged
        assert len(rep.iterations) == 1

    def test_memory_stays_below_jacobian_tensor(self):
        # the dense Jacobian tensor alone is |E|^2 |I| doubles = 14 MB here
        observed, g, fp = self.bump_data(N=256)
        tracemalloc.start()
        try:
            rep = reconstruct_gamma(observed, g, fp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.gamma is not None
        assert peak < 10e6, peak / 1e6


class TestLineSearch:
    """The line search evaluates admissible trials only: a trial with
    1 + m <= 0 at some node is halved without an evaluation.  An admissible
    trial whose block still fails factor_interior's rule is rejected like
    one that does not lower the objective: the step is halved and the
    search goes on."""

    @staticmethod
    def record_evaluations(monkeypatch, fail_call=None) -> list:
        """Patch the forward evaluation to record its scalings d; call
        number fail_call (the start is call 1) raises SolverError."""
        evaluate = forward._DnEvaluator.evaluate
        scalings = []

        def recording(data, q_int, d=None):
            scalings.append(d)
            if len(scalings) == fail_call:
                raise SolverError("singular trial")
            return evaluate(data, q_int, d)

        monkeypatch.setattr(forward._DnEvaluator, "evaluate", recording)
        return scalings

    def test_inadmissible_trials_not_evaluated(self, monkeypatch):
        # the bump at N=128: the full first step and its half leave
        # 1 + m <= 0 at some node, a quarter step is accepted
        g = inverse_grid(128)
        fp = FracParams(0.5)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, bump_gamma(g), E, E)
        scalings = self.record_evaluations(monkeypatch)
        rep = reconstruct_gamma(observed, g, fp)
        first = rep.iterations[1]
        assert (first.step_length, first.trials) == (0.25, 1)
        assert len(scalings) == 1 + sum(it.trials for it in rep.iterations)
        assert all(np.all(d > 0.0) for d in scalings)
        assert rep.stop_reason == "converged"

    def test_admissible_block_can_fail_the_check(self):
        # why the line search still catches SolverError: 1 + m = 1e-14 at
        # one node is admissible, but (-Delta)^s + q(m) then has condition
        # number ~1.8e15 at N=256
        g = inverse_grid(256)
        I = g.interior_idx
        L_II = assemble_laplacian(g, FracParams(0.5))[np.ix_(I, I)]
        m = np.zeros(I.size)
        m[I.size // 2] = -1.0 + 1e-14
        A_II = L_II + np.diag(-(L_II @ m) / (1.0 + m))
        with pytest.raises(SolverError, match="singular"):
            forward.factor_interior(A_II, "test", 1.0 + m)

    def test_singular_trial_halves_the_step(self, monkeypatch):
        # the bump of amplitude 0.1 at N=48 accepts the full first step
        g = inverse_grid(48)
        fp = FracParams(0.5)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, bump_gamma(g, amp=0.1), E, E)
        assert reconstruct_gamma(observed, g, fp).iterations[1].trials == 1
        self.record_evaluations(monkeypatch, fail_call=2)
        rep = reconstruct_gamma(observed, g, fp)
        first = rep.iterations[1]
        assert (first.step_length, first.trials) == (inverse.STEP_DAMPING, 2)
        assert inverse.STEP_DAMPING == 0.5
        hist = rep.residual_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))
        assert rep.stop_reason == "converged"


class TestFactorCount:
    """Every forward evaluation checks its interior block once, so a fit
    calls factor_interior once for the start and once per line-search
    trial, and nothing checks the final block again."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_one_check_per_evaluation(self, monkeypatch, seed):
        observed, g, fp = panel_data(seed)
        factor = forward.factor_interior
        contexts = []

        def counting(A_II, context, d=None):
            contexts.append(context)
            return factor(A_II, context, d)

        monkeypatch.setattr(forward, "factor_interior", counting)
        monkeypatch.setattr(inverse, "factor_interior", counting)
        rep = reconstruct_gamma(observed, g, fp)
        assert rep.stop_reason == "converged"
        trials = sum(it.trials for it in rep.iterations)
        assert len(contexts) == 1 + trials
        assert set(contexts) == {inverse._FIT}


class TestNSweep:
    """Full-data fits of the bump and the panel seeds 0-3 from N = 64 to
    512: every one stops converged, its objective never rising."""

    @pytest.mark.parametrize("N", [64, 128, 256, 512])
    @pytest.mark.parametrize("profile", ["bump", 0, 1, 2, 3])
    def test_converged_and_monotone(self, N, profile):
        g = inverse_grid(N)
        fp = FracParams(0.5)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, geometry_gamma(g, profile), E, E)
        rep = reconstruct_gamma(observed, g, fp)
        assert rep.stop_reason == "converged"
        objective = [it.objective for it in rep.iterations]
        assert all(a >= b for a, b in zip(objective, objective[1:]))


class TestOneBlasThread:
    """The Gauss-Newton loop runs on one BLAS thread of its own, for
    callers outside the CLI's one-thread scope too, and restores the
    process's thread counts; only the summation order changes."""

    @staticmethod
    def blas_counts():
        return [get() for get, _ in _blas._openblas_copies()]

    def record_step_counts(self, monkeypatch) -> list:
        """Patch the Gauss-Newton step to record the BLAS thread counts it
        runs at; returns the list it appends to."""
        inside = []
        step = _NormalEquations.step

        def recording(ne, *args):
            inside.append(self.blas_counts())
            return step(ne, *args)

        monkeypatch.setattr(_NormalEquations, "step", recording)
        return inside

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_fit_as_uncapped(self, monkeypatch, seed):
        observed, g, fp = panel_data(seed)
        before = self.blas_counts()
        inside = self.record_step_counts(monkeypatch)
        capped = reconstruct_gamma(observed, g, fp)
        assert inside and all(c == [1] * len(before) for c in inside)
        assert self.blas_counts() == before
        monkeypatch.setattr(inverse, "one_blas_thread",
                            contextlib.nullcontext)
        inside.clear()
        free = reconstruct_gamma(observed, g, fp)
        assert inside and all(c == before for c in inside)
        assert capped.stop_reason == free.stop_reason
        assert len(capped.iterations) == len(free.iterations)
        assert len(capped.residual_history) == len(free.residual_history)
        assert np.max(np.abs(capped.gamma.values - free.gamma.values)) <= 1e-8

    def test_single_measurement_fit_capped(self, monkeypatch):
        before = self.blas_counts()
        inside = self.record_step_counts(monkeypatch)
        single_measurement_report()
        assert inside and all(c == [1] * len(before) for c in inside)
        assert self.blas_counts() == before

    def test_counts_restored_when_the_fit_raises(self, monkeypatch):
        observed, g, fp = panel_data(1, N=64)
        before = self.blas_counts()
        inside = []

        def fail(ne, *args):
            inside.append(self.blas_counts())
            raise ReconstructionError("step failed")

        monkeypatch.setattr(_NormalEquations, "step", fail)
        with pytest.raises(ReconstructionError, match="step failed"):
            reconstruct_gamma(observed, g, fp)
        assert inside == [[1] * len(before)]
        assert self.blas_counts() == before
