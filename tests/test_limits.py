import math
import warnings

import numpy as np
import pytest

from fraccond import limits
from fraccond.core import FracParams, Grid, tail_vector
from fraccond.limits import (
    bilinear_limit_study,
    central_diff,
    corrected_bilinear_form,
    grad_limit_study,
    grad_norm_sq,
    gradient_distributional_decay,
    lattice_defect,
    operator_limit_check,
)
from fraccond.operators import (Conductivity, assemble_conductivity,
                                bilinear_form)
from fraccond.profiles import bump_m, gaussian, make_conductivity

from oracles import dirichlet_from_matrix

SQRT_PI_HALF = math.sqrt(math.pi) / 2.0


def study_grid(N=2048, L=12.0):
    return Grid(L=L, N=N, a=-4.0, b=4.0)


class TestLatticeDefect:
    def test_known_half_order_value(self):
        # at s = 1/2 the defect is sum k^0 - cells = 0 exactly
        assert lattice_defect(0.5) == pytest.approx(0.0, abs=1e-10)

    def test_quarter_order_is_zeta_minus_half(self):
        # at s = 1/4 the defect is zeta(-1/2) + 2^{-3/2} / (3/2)
        zeta_minus_half = -0.2078862249773545660
        expected = zeta_minus_half + 2.0 ** -1.5 / 1.5
        assert lattice_defect(0.25) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.6, 0.8, 0.9, 0.95, 0.99])
    def test_matches_scipy_zeta(self, s):
        # the package's own zeta against scipy's, on the closed form
        from scipy.special import zeta

        expected = float(zeta(2.0 * s - 1.0)) + 2.0 ** (2.0 * s - 2.0) / (2.0 - 2.0 * s)
        assert lattice_defect(s) == pytest.approx(expected, abs=1e-13)


class TestGradNormSq:
    def test_constant_tail_only(self):
        g = study_grid(N=256)
        fp = FracParams(0.5)
        u = np.ones(g.N)
        v = bilinear_form(g, fp, Conductivity.constant(g), u, u)
        tail_only = g.h * float(np.sum(tail_vector(g, fp)))
        assert v == pytest.approx(tail_only, rel=1e-12)

    def test_gaussian_half_order(self):
        g = study_grid()
        fp = FracParams(0.5)
        u = np.exp(-g.nodes**2 / 2.0)
        assert grad_norm_sq(g, fp, u) == pytest.approx(math.gamma(1.0), rel=0.02)

    def test_gaussian_high_order(self):
        g = study_grid(N=4096)
        fp = FracParams(0.9)
        u = np.exp(-g.nodes**2 / 2.0)
        assert grad_norm_sq(g, fp, u) == pytest.approx(math.gamma(1.4), rel=0.03)

    def test_quadratic_scaling(self):
        g = study_grid(N=512)
        fp = FracParams(0.7)
        u = np.exp(-g.nodes**2 / 2.0)
        assert grad_norm_sq(g, fp, 2.0 * u) == pytest.approx(
            4.0 * grad_norm_sq(g, fp, u), rel=1e-12)

    def test_edge_decay_warning(self):
        g = study_grid(N=256)
        with pytest.warns(UserWarning, match="window edges"):
            grad_norm_sq(g, FracParams(0.5), np.ones(g.N))

    def test_raw_form_collapses_at_fixed_grid(self):
        # without the near-field term, C_{n,s} -> 0 wins at frozen h: the raw
        # lattice functional decays toward 0 as s -> 1
        g = study_grid()
        u = np.exp(-g.nodes**2 / 2.0)
        vals = [bilinear_form(g, FracParams(s), Conductivity.constant(g), u, u)
                for s in (0.5, 0.9, 0.99)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.25 * vals[0]

    def test_corrected_form_keeps_the_limit(self):
        # order of limits: with the near-field term the same frozen grid
        # stays on the continuum value
        g = study_grid()
        u = np.exp(-g.nodes**2 / 2.0)
        v = grad_norm_sq(g, FracParams(0.99), u)
        assert v == pytest.approx(math.gamma(1.49), rel=0.03)


class TestGradLimitStudy:
    def test_gaussian_gradient_gap_profile(self):
        st = grad_limit_study(gaussian(0.0, 1.0), [0.6, 0.8, 0.9, 0.95], L=12.0)
        row9 = st.row(0.9)
        assert row9.reference == pytest.approx(SQRT_PI_HALF, rel=1e-3)
        assert row9.gap <= 0.10
        gaps = st.gaps()
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(r.converged for r in st.rows)

    def test_edge_decay_warning_once_per_call(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grad_limit_study(gaussian(0.0, 4.0), [0.6, 0.8], L=12.0)
        edge = [w for w in caught if "window edges" in str(w.message)]
        assert len(edge) == 1

    def test_order_above_095_warns(self):
        with pytest.warns(UserWarning, match="s=0.96: above 0.95"):
            grad_limit_study(gaussian(0.0, 1.0), [0.96], L=12.0)

    def test_order_095_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            grad_limit_study(gaussian(0.0, 1.0), [0.95], L=12.0)
        assert not [w for w in caught if "above 0.95" in str(w.message)]

    def test_constant_field_all_zero(self):
        # constant over the whole window is not edge-decaying; use a flat
        # bump instead: value and reference both vanish for constants only
        # in the trivial sense, so assert the quadratic scaling instead
        st1 = grad_limit_study(gaussian(0.0, 1.0), [0.8], L=12.0)
        st2 = grad_limit_study(lambda x: 2.0 * gaussian(0.0, 1.0)(x), [0.8], L=12.0)
        assert st2.row(0.8).value == pytest.approx(4.0 * st1.row(0.8).value,
                                                   rel=1e-10)
        assert st2.row(0.8).reference == pytest.approx(
            4.0 * st1.row(0.8).reference, rel=1e-10)


class TestBilinearLimitStudy:
    def test_unit_gamma_consistency_with_grad_study(self):
        u = gaussian(0.0, 1.0)
        st_b = bilinear_limit_study(lambda x: np.zeros_like(x), u, u,
                                    [0.9], L=12.0, omega=(-4.0, 4.0))
        st_g = grad_limit_study(u, [0.9], L=12.0)
        assert st_b.row(0.9).value == pytest.approx(st_g.row(0.9).value,
                                                    rel=1e-6)

    def test_parity_zero(self):
        # even gamma, even u, odd v: both pairings vanish by parity
        u = gaussian(0.0, 1.0)

        def v(x):
            return x * np.exp(-x * x / 2.0)

        st = bilinear_limit_study(bump_m(0.3, 0.0, 2.0), u, v, [0.7],
                                  L=12.0, omega=(-4.0, 4.0))
        r = st.row(0.7)
        assert abs(r.value) <= 1e-10
        assert abs(r.reference) <= 1e-10

    def test_bump_gamma_gap_at_09(self):
        st = bilinear_limit_study(bump_m(0.3, 0.0, 2.0),
                                  gaussian(-1.0, 1.0), gaussian(1.5, 1.2),
                                  [0.6, 0.8, 0.9], L=12.0, omega=(-4.0, 4.0))
        assert st.row(0.9).gap <= 0.15
        gaps = st.gaps()
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_dn_rows_present_and_finite(self):
        f_fn = gaussian(-7.0, 0.8)
        g_fn = gaussian(7.0, 0.8)
        st = bilinear_limit_study(bump_m(0.3, 0.0, 2.0),
                                  gaussian(-1.0, 1.0), gaussian(1.5, 1.2),
                                  [0.8, 0.9], L=12.0, omega=(-4.0, 4.0),
                                  dn_datum_fns=(f_fn, g_fn))
        dn_rows = [r for r in st.rows if r.kind == "dn"]
        assert len(dn_rows) == 2
        assert all(np.isfinite(r.value) and np.isfinite(r.reference)
                   for r in dn_rows)


    def test_dn_rows_solve_equals_dense_solve(self, monkeypatch):
        # each DN row's solve on gathered blocks equals the dense
        # matrix's sliced solve (oracles.dirichlet_from_matrix) bit for bit
        solves = []

        def checked(g, fp, gam, f, solve=limits.solve_dirichlet):
            u, rel = solve(g, fp, gam, f)
            ref = dirichlet_from_matrix(g, assemble_conductivity(g, fp, gam),
                                        f)
            assert np.array_equal(u.view(np.int64), ref.view(np.int64))
            solves.append(g.N)
            return u, rel

        monkeypatch.setattr(limits, "solve_dirichlet", checked)
        st = bilinear_limit_study(bump_m(0.3, 0.0, 2.0),
                                  gaussian(-1.0, 1.0), gaussian(1.5, 1.2),
                                  [0.8], L=12.0, omega=(-4.0, 4.0),
                                  dn_datum_fns=(gaussian(-7.0, 0.8),
                                                gaussian(7.0, 0.8)))
        assert solves == [r.n_used for r in st.rows if r.kind == "dn"]


class TestOperatorLimitCheck:
    def test_rows_are_bilinear_rows_with_phi(self):
        m_fn = bump_m(0.3, 0.0, 2.0)
        u = gaussian(0.0, 1.0)
        phis = (gaussian(0.5, 1.1), gaussian(-1.0, 0.9))
        st = operator_limit_check(m_fn, u, [0.6, 0.9], L=12.0,
                                  omega=(-4.0, 4.0), phi_fns=phis)
        assert [(r.s, r.kind) for r in st.rows] == [
            (s, f"phi{i}") for s in (0.6, 0.9) for i in range(2)]
        for r in st.rows:
            phi = phis[int(r.kind[3:])]
            b = bilinear_limit_study(m_fn, u, phi, [r.s], L=12.0,
                                     omega=(-4.0, 4.0)).rows[0]
            assert (r.value, r.reference, r.gap, r.n_used, r.converged) \
                == (b.value, b.reference, b.gap, b.n_used, b.converged)

    def test_one_kernel_block_per_n(self, monkeypatch):
        # the pairs still refining at one N are one stacked call, which
        # builds the kernel blocks once for all of them
        import fraccond.limits

        calls = []
        real = fraccond.limits.bilinear_form

        def counting(grid, fp, gamma, u, v):
            calls.append((grid.N, np.shape(v)))
            return real(grid, fp, gamma, u, v)

        monkeypatch.setattr(fraccond.limits, "bilinear_form", counting)
        phis = (gaussian(0.5, 1.1), gaussian(-1.0, 0.9), gaussian(0.3, 1.0))
        st = operator_limit_check(bump_m(0.3, 0.0, 2.0), gaussian(0.0, 1.0),
                                  [0.6], L=12.0, omega=(-4.0, 4.0),
                                  phi_fns=phis)
        Ns = [N for N, _ in calls]
        assert Ns == sorted(set(Ns))  # one call per N
        assert calls[0] == (512, (3, 512))
        assert max(r.n_used for r in st.rows) == Ns[-1]

    def test_unit_gamma_gaussian_within_ten_percent(self):
        st = operator_limit_check(lambda x: np.zeros_like(x),
                                  gaussian(0.0, 1.0), [0.95],
                                  L=12.0, omega=(-4.0, 4.0),
                                  phi_fns=(gaussian(0.5, 1.1),))
        assert st.rows[0].gap <= 0.10

    def test_constant_u_both_zero(self):
        g = study_grid(N=512)
        fp = FracParams(0.7)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 2.0))
        phi = gaussian(0.0, 1.0)(g.nodes)
        c = np.ones(g.N)
        val = corrected_bilinear_form(g, fp, gam, c, phi)
        # constants only feel the tail; compare against the tail pairing
        tails = tail_vector(g, fp)
        expected = g.h * float(np.sum(gam.sqrt * c * phi * tails))
        assert val == pytest.approx(expected, rel=1e-10)
        assert abs(g.h * np.sum(gam.values * central_diff(g, c)
                                * central_diff(g, phi))) <= 1e-12

    def test_quadratic_form_positive(self):
        g = study_grid(N=512)
        gam = make_conductivity(g, bump_m(0.3, 0.0, 2.0))
        u = gaussian(0.2, 0.9)(g.nodes)
        for s in (0.3, 0.6, 0.9):
            assert corrected_bilinear_form(g, FracParams(s), gam, u, u) > 0.0


class TestDistributionalDecay:
    def u_and_t(self):
        u = bump_m(1.0, 0.3, 2.0)

        def t(x, y):
            return np.exp(-(((x + 1.0) ** 2 + (y - 0.6) ** 2)) / 0.5)

        return u, t

    def test_magnitude_halves_along_s(self):
        u, t = self.u_and_t()
        vals = gradient_distributional_decay(u, t, [0.6, 0.8, 0.9, 0.95],
                                             L=6.0, N=768)
        mags = np.abs(vals)
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] <= 0.5 * mags[0]

    def test_constant_field_zero_for_all_s(self):
        _, t = self.u_and_t()
        vals = gradient_distributional_decay(
            lambda x: np.full_like(np.asarray(x, dtype=float), 1.3), t,
            [0.6, 0.9], L=6.0, N=256)
        assert np.max(np.abs(vals)) == 0.0

    def test_transposing_test_function_flips_sign(self):
        u, t = self.u_and_t()

        def t_swapped(x, y):
            return t(y, x)

        v1 = gradient_distributional_decay(u, t, [0.7], L=6.0, N=512)
        v2 = gradient_distributional_decay(u, t_swapped, [0.7], L=6.0, N=512)
        assert v1[0] == pytest.approx(-v2[0], rel=1e-12)

    def test_peak_memory_three_pair_arrays_at_768(self):
        # the test field, one order's pair field and the half kernel it is
        # multiplied by, plus 1 MiB: no product temporary, and no order's
        # pair field outlives its pairing
        import tracemalloc

        u, t = self.u_and_t()
        N = 768
        tracemalloc.start()
        try:
            gradient_distributional_decay(u, t, [0.6, 0.8], L=6.0, N=N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * N * N + (1 << 20)
