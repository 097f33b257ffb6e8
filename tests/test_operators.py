import math
import tracemalloc

import numpy as np
import pytest

from fraccond.core import FracParams, Grid, kernel_matrix, tail_vector
from fraccond.operators import (
    BILINEAR_BLOCK,
    Conductivity,
    PairField,
    assemble_conductivity,
    assemble_laplacian,
    assemble_schrodinger,
    bilinear_form,
    frac_divergence_adjoint,
    frac_gradient,
    node_inner,
    operator_rows,
    pair_inner,
)
from fraccond.profiles import bump_m, make_conductivity

from oracles import spectral_laplacian_oracle


def small_grid(N=64, L=1.0):
    return Grid(L=L, N=N, a=-0.3 * L, b=0.3 * L)


class TestConductivity:
    def test_from_m_and_invariants(self):
        g = small_grid()
        gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
        assert np.all(gam.m_values[g.exterior_idx] == 0.0)
        assert np.max(np.abs((1 + gam.m_values) ** 2 - gam.values)) <= 1e-12
        assert gam.values.min() > 0

    def test_exterior_support_enforced(self):
        g = small_grid()
        m = np.full(g.N, 0.1)
        with pytest.raises(ValueError):
            Conductivity.from_m(g, m)

    def test_bounds_enforced(self):
        # gamma's lower bound: gamma^{1/2} = 1 + m stays positive
        g = small_grid()
        for m in (np.full(g.N, -1.0), np.full(g.N, -1.5),
                  np.full(g.N, np.nan)):
            with pytest.raises(ValueError, match="1 \\+ m must stay positive"):
                Conductivity(m)
        m = np.zeros(g.N)
        m[g.interior_idx] = -1.2
        with pytest.raises(ValueError, match="1 \\+ m must stay positive"):
            Conductivity.from_m(g, m)


class TestFracGradient:
    def test_constant_field_zero(self):
        g = small_grid()
        pf = frac_gradient(g, FracParams(0.5), np.full(g.N, 2.0))
        assert np.max(np.abs(pf.values)) == 0.0

    def test_antisymmetry(self):
        g = small_grid()
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.N)
        pf = frac_gradient(g, FracParams(0.6), u)
        assert np.max(np.abs(pf.values + pf.values.T)) < 1e-14

    def test_magnitude_matches_modulus_form(self):
        g = small_grid()
        fp = FracParams(0.6)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.N)
        pf = frac_gradient(g, fp, u)
        i, j = 5, 40
        expect = math.sqrt(fp.cns / 2.0) * abs(u[j] - u[i]) \
            / abs(g.nodes[j] - g.nodes[i]) ** (0.5 + fp.s)
        assert abs(pf.values[i, j]) == pytest.approx(expect, rel=1e-12)

    def test_gaussian_energy_closed_form(self):
        # || grad^s u ||^2 over pairs -> Gamma(s + 1/2) for the standard Gaussian
        g = Grid(L=12.0, N=4096, a=-4.0, b=4.0)
        fp = FracParams(0.5)
        u = np.exp(-g.nodes**2 / 2.0)
        pf = frac_gradient(g, fp, u)
        energy = pair_inner(g, fp, pf, pf)
        assert energy == pytest.approx(math.gamma(1.0), rel=0.02)


class TestDivergenceAdjoint:
    def test_zero_maps_to_zero(self):
        g = small_grid()
        fp = FracParams(0.5)
        d = frac_divergence_adjoint(g, fp, PairField.zero(g.N))
        assert np.max(np.abs(d)) == 0.0

    def test_duality_identity_random_pairs(self):
        g = small_grid(48)
        fp = FracParams(0.45)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.standard_normal(g.N)
            vals = rng.standard_normal((g.N, g.N))
            np.fill_diagonal(vals, 0.0)
            v = PairField(vals, rng.standard_normal(g.N))
            lhs = node_inner(g, frac_divergence_adjoint(g, fp, v), u)
            rhs = pair_inner(g, fp, v, frac_gradient(g, fp, u))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_composition_equals_laplacian(self):
        # adjoint(gradient(u)) == A u, including the tail diagonal
        g = Grid(L=1.0, N=256, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        A = assemble_laplacian(g, fp)
        rng = np.random.default_rng(3)
        for _ in range(100):
            u = rng.standard_normal(g.N)
            comp = frac_divergence_adjoint(g, fp, frac_gradient(g, fp, u))
            ref = A @ u
            assert np.max(np.abs(comp - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestTopOrder:
    # the identities hold at S_MAX = 0.99, the largest order FracParams takes
    def test_duality_identity_at_s_max(self):
        g = small_grid(48)
        fp = FracParams(0.99)
        rng = np.random.default_rng(12)
        for _ in range(20):
            u = rng.standard_normal(g.N)
            vals = rng.standard_normal((g.N, g.N))
            np.fill_diagonal(vals, 0.0)
            v = PairField(vals, rng.standard_normal(g.N))
            lhs = node_inner(g, frac_divergence_adjoint(g, fp, v), u)
            rhs = pair_inner(g, fp, v, frac_gradient(g, fp, u))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_composition_at_s_max_equals_assembled_laplacian(self):
        g = Grid(L=1.0, N=128, a=-0.3, b=0.3)
        fp = FracParams(0.99)
        A = assemble_laplacian(g, fp)
        u = np.random.default_rng(13).standard_normal(g.N)
        comp = frac_divergence_adjoint(g, fp, frac_gradient(g, fp, u))
        ref = A @ u
        assert np.max(np.abs(comp - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestAssembleLaplacian:
    def test_constant_maps_to_tail(self):
        g = small_grid()
        fp = FracParams(0.5)
        A = assemble_laplacian(g, fp)
        out = A @ np.ones(g.N)
        assert np.allclose(out, tail_vector(g, fp), rtol=1e-11)

    def test_exact_symmetry(self):
        g = small_grid()
        A = assemble_laplacian(g, FracParams(0.7))
        assert np.array_equal(A, A.T)

    def test_positive_semidefinite(self):
        g = Grid(L=1.0, N=128, a=-0.3, b=0.3)
        A = assemble_laplacian(g, FracParams(0.5))
        w = np.linalg.eigvalsh(A)
        assert w.min() >= -1e-10

    def test_spectral_cross_check_gaussian(self):
        g = Grid(L=12.0, N=2048, a=-4.0, b=4.0)
        fp = FracParams(0.5)
        u = np.exp(-g.nodes**2 / 2.0)
        au = assemble_laplacian(g, fp) @ u
        ou = spectral_laplacian_oracle(g, fp, u, pad=8)
        err = np.linalg.norm(au - ou) / np.linalg.norm(ou)
        assert err <= 0.02

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    def test_refinement_monotone(self, s):
        fp = FracParams(s)
        errs = []
        for N in (256, 512, 1024, 2048):
            g = Grid(L=12.0, N=N, a=-4.0, b=4.0)
            u = np.exp(-g.nodes**2 / 2.0)
            au = assemble_laplacian(g, fp) @ u
            ou = spectral_laplacian_oracle(g, fp, u, pad=8)
            errs.append(np.linalg.norm(au - ou) / np.linalg.norm(ou))
        assert all(a > b for a, b in zip(errs, errs[1:])), errs


class TestSpectralOracle:
    def test_constant_annihilated(self):
        g = small_grid()
        fp = FracParams(0.5)
        with pytest.warns(UserWarning):
            out = spectral_laplacian_oracle(g, fp, np.ones(g.N))
        assert np.max(np.abs(out)) < 1e-12

    def test_symbol_composition(self):
        g = Grid(L=12.0, N=512, a=-4.0, b=4.0)
        u = np.exp(-g.nodes**2 / 2.0)
        once = spectral_laplacian_oracle(g, FracParams(0.5), u)
        inner = spectral_laplacian_oracle(g, FracParams(0.25), u)
        # the inner result carries the operator's heavy tails, so the second
        # application legitimately warns about edge decay; the periodic
        # composition identity holds exactly regardless
        with pytest.warns(UserWarning, match="window edges"):
            half = spectral_laplacian_oracle(g, FracParams(0.25), inner)
        assert np.max(np.abs(once - half)) <= 1e-10 * np.max(np.abs(once))

    def test_edge_decay_warning(self):
        g = small_grid()
        with pytest.warns(UserWarning, match="window edges"):
            spectral_laplacian_oracle(g, FracParams(0.5), np.ones(g.N))


class TestAssembleConductivity:
    def test_unit_gamma_reduces_to_laplacian(self):
        g = small_grid()
        fp = FracParams(0.5)
        A = assemble_laplacian(g, fp)
        C = assemble_conductivity(g, fp, Conductivity.constant(g))
        assert np.array_equal(A, C)

    def test_exact_symmetry(self):
        g = small_grid()
        gam = make_conductivity(g, bump_m(0.4, 0.05, 0.2))
        C = assemble_conductivity(g, FracParams(0.6), gam)
        assert np.max(np.abs(C - C.T)) <= 1e-12 * np.max(np.abs(C))

    def test_quadratic_form_matches_bilinear(self):
        g = small_grid()
        fp = FracParams(0.5)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
        C = assemble_conductivity(g, fp, gam)
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = rng.standard_normal(g.N)
            qf = node_inner(g, u, C @ u)
            bf = bilinear_form(g, fp, gam, u, u)
            assert qf == pytest.approx(bf, rel=1e-10)

    def test_positive_semidefinite(self):
        g = Grid(L=1.0, N=128, a=-0.3, b=0.3)
        gam = make_conductivity(g, bump_m(0.35, -0.05, 0.2))
        C = assemble_conductivity(g, FracParams(0.5), gam)
        assert np.linalg.eigvalsh(C).min() >= -1e-10

    def test_schrodinger_potential_on_diagonal_only(self):
        g = small_grid()
        fp = FracParams(0.5)
        q = np.ones(g.N) * 0.7
        A = assemble_laplacian(g, fp)
        S = assemble_schrodinger(g, fp, q)
        D = S - A
        assert np.max(np.abs(D - np.diag(np.diag(D)))) == 0.0
        assert np.allclose(np.diag(D)[g.interior_idx], 0.7)
        assert np.all(np.diag(D)[g.exterior_idx] == 0.0)


def ordered_pair_bilinear_form(grid, fp, gamma, u, v):
    """The docstring's full ordered double sum over i != j, in blocks of
    rows: the reference the half-pair sum is checked against."""
    g = gamma.sqrt
    block = 512
    p = 1.0 + 2.0 * fp.s
    acc = 0.0
    for lo in range(0, grid.N, block):
        hi = min(lo + block, grid.N)
        d = np.abs(grid.nodes[lo:hi, None] - grid.nodes[None, :])
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        d[diag] = 1.0
        K = d ** -p
        K[diag] = 0.0
        du = u[None, :] - u[lo:hi, None]
        dv = v[None, :] - v[lo:hi, None]
        acc += float(np.sum((g[lo:hi, None] * g[None, :]) * du * dv * K))
    core = 0.5 * fp.cns * acc * grid.h**2
    return core + grid.h * float(np.sum(g * u * v * tail_vector(grid, fp)))


class TestBilinearForm:
    @pytest.mark.parametrize("N", [65, 129, 1000])
    @pytest.mark.parametrize("s", [0.05, 0.5, 0.99])
    def test_matches_ordered_pair_sum(self, N, s):
        # N is no multiple of the block size, so the last block is partial
        g = small_grid(N=N)
        fp = FracParams(s)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
        rng = np.random.default_rng(N)
        u = rng.standard_normal(g.N)
        v = np.cos(3.0 * g.nodes) + rng.standard_normal(g.N)
        assert bilinear_form(g, fp, gam, u, v) == pytest.approx(
            ordered_pair_bilinear_form(g, fp, gam, u, v), rel=1e-13)

    @pytest.mark.parametrize("N", [65, 1000])
    @pytest.mark.parametrize("profile", ["constant", "random"])
    def test_stack_equals_single_calls(self, N, profile):
        # a (k, N) stack shares each block's kernel powers and g g du
        # prefix; each value must still be its own call's, bit for bit
        g = small_grid(N=N)
        fp = FracParams(0.7)
        rng = np.random.default_rng(N)
        if profile == "constant":
            gam = Conductivity.constant(g)
        else:
            m = np.zeros(g.N)
            m[g.interior_idx] = 0.2 * rng.uniform(-1.0, 1.0, g.interior_idx.size)
            gam = Conductivity.from_m(g, m)
        u = rng.standard_normal(g.N)
        V = rng.standard_normal((3, g.N))
        stacked = bilinear_form(g, fp, gam, u, V)
        assert stacked.shape == (3,)
        assert stacked.tolist() == [bilinear_form(g, fp, gam, u, v) for v in V]
        assert isinstance(bilinear_form(g, fp, gam, u, V[0]), float)

    def test_symmetry(self):
        g = small_grid()
        fp = FracParams(0.55)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(g.N)
            w = rng.standard_normal(g.N)
            assert bilinear_form(g, fp, gam, v, w) == pytest.approx(
                bilinear_form(g, fp, gam, w, v), rel=1e-12, abs=1e-14)

    def test_cauchy_schwarz_bound(self):
        g = small_grid()
        fp = FracParams(0.5)
        gam = make_conductivity(g, bump_m(0.4, 0.0, 0.2))
        one = Conductivity.constant(g)
        rng = np.random.default_rng(6)
        for _ in range(10):
            v = rng.standard_normal(g.N)
            w = rng.standard_normal(g.N)
            lhs = abs(bilinear_form(g, fp, gam, v, w))
            rhs = gam.values.max() * math.sqrt(
                bilinear_form(g, fp, one, v, v) * bilinear_form(g, fp, one, w, w))
            assert lhs <= rhs * (1 + 1e-12)

    def test_equals_assembly_at_s_max(self):
        g = small_grid()
        fp = FracParams(0.99)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 0.2))
        C = assemble_conductivity(g, fp, gam)
        rng = np.random.default_rng(12)
        u = rng.standard_normal(g.N)
        v = rng.standard_normal(g.N)
        assert bilinear_form(g, fp, gam, u, v) == pytest.approx(
            node_inner(g, u, C @ v), rel=1e-10)

    def test_unit_gamma_matches_laplacian_energy(self):
        g = small_grid()
        fp = FracParams(0.5)
        A = assemble_laplacian(g, fp)
        one = Conductivity.constant(g)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(g.N)
        assert bilinear_form(g, fp, one, u, u) == pytest.approx(
            node_inner(g, u, A @ u), rel=1e-12)


def traced_peak(call) -> int:
    """Peak bytes tracemalloc sees during call(), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoBroadcastBuffers:
    """Row-by-row products: numpy gives every broadcast operand a 64 KiB
    ufunc buffer, which the rows of the conductivity operator and the
    pair products of bilinear_form no longer pass through."""

    @staticmethod
    def case(N=256):
        g = small_grid(N=N)
        return g, FracParams(0.5), make_conductivity(g, bump_m(0.3, 0.0, 0.2))

    def test_conductivity_rows_equal_broadcast_products(self):
        g, fp, gam = self.case()
        lo, hi, r = 40, 104, gam.sqrt
        W = kernel_matrix(g, fp, lo, hi)
        ref = W * r[None, :]
        diag = r[lo:hi] * (ref.sum(axis=1) + tail_vector(g, fp)[lo:hi])
        ref *= -r[lo:hi, None]
        ref[np.arange(hi - lo), np.arange(lo, hi)] = diag
        assert np.array_equal(operator_rows(g, fp, lo, hi, r)[0], ref)

    def test_conductivity_block_allocates_no_buffer(self):
        # a 256-row block at N=256 into out= buffers: 73 KiB with the
        # broadcast column, about 16 KiB row by row
        g, fp, gam = self.case()
        out = [np.empty((g.N, g.N)), np.empty((g.N, g.N))]
        peak = traced_peak(lambda: operator_rows(g, fp, 0, g.N, gam.sqrt,
                                                 out=out))
        assert peak < 32 << 10, peak

    def test_bilinear_form_allocates_only_its_blocks(self):
        # its two (BILINEAR_BLOCK, N) buffers and the block's lower-triangle
        # indices (32 KiB): 420 KiB with broadcast products, 297 KiB without
        g, fp, gam = self.case()
        u, v = np.sin(g.nodes), np.cos(g.nodes)
        peak = traced_peak(lambda: bilinear_form(g, fp, gam, u, v))
        assert peak < 2 * BILINEAR_BLOCK * g.N * 8 + (64 << 10), peak
