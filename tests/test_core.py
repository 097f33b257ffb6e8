import logging
import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from fraccond.core import (
    FracParams,
    Grid,
    _inverse_distance_power,
    cns,
    gamma_fn,
    kernel_matrix,
    tail_vector,
)
from fraccond.limits import grad_limit_study, gradient_distributional_decay
from fraccond.profiles import gaussian

from oracles import surface_measure


class TestGammaFn:
    def test_half_integer_closed_forms(self):
        sq = math.sqrt(math.pi)
        assert gamma_fn(0.5) == pytest.approx(sq, rel=1e-12)
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_fn(-0.5) == pytest.approx(-2.0 * sq, rel=1e-12)
        assert gamma_fn(1.5) == pytest.approx(sq / 2.0, rel=1e-12)
        assert gamma_fn(-1.5) == pytest.approx(4.0 * sq / 3.0, rel=1e-12)

    def test_against_scipy_over_range(self):
        # independent oracle; poles excluded
        xs = np.linspace(-19.73, 19.73, 401)
        for x in xs:
            if abs(x - round(x)) < 1e-3 and x <= 0:
                continue
            assert gamma_fn(x) == pytest.approx(
                float(scipy.special.gamma(x)), rel=1e-10), x

    @pytest.mark.parametrize("pole", [0.0, -1.0, -7.0])
    def test_pole_raises(self, pole):
        with pytest.raises(ValueError):
            gamma_fn(pole)


class TestCns:
    def test_half_order_1d_closed_form(self):
        # 4^{1/2} Gamma(1) / (pi^{1/2} |Gamma(-1/2)|) = 2/(sqrt(pi) 2 sqrt(pi))
        assert cns(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_s_to_one_limit(self, n):
        target = 4.0 * n / surface_measure(n)
        val = cns(n, 0.999) / (0.999 * 0.001)
        assert val == pytest.approx(target, rel=0.01)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_limit_approach_improves(self, n):
        target = 4.0 * n / surface_measure(n)
        errs = [abs(cns(n, s) / (s * (1 - s)) - target) / target
                for s in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]

    def test_positive(self):
        for n in (1, 2, 3):
            for s in np.linspace(0.05, 0.95, 10):
                assert cns(n, float(s)) > 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cns(1, 0.0)
        with pytest.raises(ValueError):
            cns(1, 1.0)
        with pytest.raises(ValueError):
            cns(0, 0.5)


class TestFracParams:
    def test_caches_constant(self):
        fp = FracParams(0.37)
        assert fp.cns == pytest.approx(cns(1, 0.37), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            FracParams(1.2)

    @pytest.mark.parametrize("s", [0.01, 0.049, 0.05, 0.99, 0.995, 0.999])
    def test_order_range_checked_once(self, s, caplog):
        # [S_MIN, S_MAX] = [0.05, 0.99] with both ends inclusive; an order
        # outside it is rejected, never clamped, also by the limit studies
        if 0.05 <= s <= 0.99:
            assert FracParams(s).s == s
            return
        u = gaussian(0.0, 1.0)

        def t(x, y):
            return np.exp(-((x + 1.0) ** 2 + (y - 0.6) ** 2) / 0.5)

        with caplog.at_level(logging.DEBUG, logger="fraccond"):
            for call in (lambda: FracParams(s),
                         lambda: grad_limit_study(u, [s]),
                         lambda: gradient_distributional_decay(u, t, [s],
                                                               L=6.0, N=256)):
                with pytest.raises(ValueError, match=r"outside \[0\.05, 0\.99\]"):
                    call()
        assert not [r for r in caplog.records if "clamped" in r.getMessage()]


class TestGrid:
    def test_partition_and_spacing(self):
        g = Grid(L=1.0, N=65, a=-0.3, b=0.3)
        assert g.h == pytest.approx(2.0 / 64)
        assert np.all(np.diff(g.nodes) > 0)
        both = np.concatenate([g.interior_idx, g.exterior_idx])
        assert np.array_equal(np.sort(both), np.arange(g.N))
        assert not set(g.interior_idx) & set(g.exterior_idx)
        assert np.all(np.abs(g.nodes[g.interior_idx]) < 0.3)

    def test_omega_strictly_inside(self):
        with pytest.raises(ValueError):
            Grid(L=1.0, N=32, a=-1.0, b=0.3)
        with pytest.raises(ValueError):
            Grid(L=1.0, N=32, a=0.4, b=0.2)

    def test_immutable(self):
        g = Grid(L=1.0, N=32, a=-0.3, b=0.3)
        with pytest.raises((ValueError, RuntimeError)):
            g.nodes[0] = 99.0


class TestKernelWeight:
    def test_adjacent_nodes_hand_value(self):
        # h = 0.1 grid: C h / h^2 = (1/pi) * 10
        g = Grid(L=1.0, N=21, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        w = kernel_matrix(g, fp)[10, 11]
        assert w == pytest.approx(10.0 / math.pi, rel=1e-12)

    def test_symmetry(self):
        g = Grid(L=1.0, N=33, a=-0.3, b=0.3)
        W = kernel_matrix(g, FracParams(0.7))
        for i, j in [(0, 5), (3, 20), (31, 2)]:
            assert W[i, j] == W[j, i]

    def test_distance_homogeneity(self):
        g = Grid(L=1.0, N=33, a=-0.3, b=0.3)
        fp = FracParams(0.6)
        W = kernel_matrix(g, fp)
        near = W[10, 12]
        far = W[10, 14]  # doubled separation
        assert near / far == pytest.approx(2.0 ** (1 + 2 * 0.6), rel=1e-12)

    def test_diagonal_rejected(self):
        # the singular i == j weight is left out: the diagonal is exactly 0
        g = Grid(L=1.0, N=33, a=-0.3, b=0.3)
        W = kernel_matrix(g, FracParams(0.5))
        assert np.array_equal(np.diag(W), np.zeros(g.N))


class TestTailWeight:
    def test_center_value_against_closed_form(self):
        # x=0, L=10, s=0.5: value -> 0.2/pi as h -> 0 (cutoff L + h/2)
        g = Grid(L=10.0, N=20001, a=-3.0, b=3.0)
        fp = FracParams(0.5)
        i = g.N // 2
        assert g.nodes[i] == pytest.approx(0.0, abs=1e-12)
        assert tail_vector(g, fp)[i] == pytest.approx(0.2 / math.pi, rel=1e-4)

    def test_matches_quadrature_oracle(self):
        g = Grid(L=2.0, N=41, a=-0.5, b=0.5)
        fp = FracParams(0.7)
        i = 25
        x, R, s = g.nodes[i], g.cutoff, fp.s
        left, _ = scipy.integrate.quad(lambda y: (x - y) ** (-1 - 2 * s),
                                       -np.inf, -R)
        right, _ = scipy.integrate.quad(lambda y: (y - x) ** (-1 - 2 * s),
                                        R, np.inf)
        assert tail_vector(g, fp)[i] == pytest.approx(
            fp.cns * (left + right), rel=1e-10)

    def test_window_symmetry(self):
        g = Grid(L=3.0, N=61, a=-0.5, b=0.5)
        fp = FracParams(0.4)
        t = tail_vector(g, fp)
        assert np.allclose(t, t[::-1], rtol=1e-13)

    def test_vanishes_with_large_window(self):
        fp = FracParams(0.5)
        vals = []
        for L in (5.0, 20.0, 80.0):
            g = Grid(L=L, N=101, a=-1.0, b=1.0)
            i = g.N // 2
            vals.append(tail_vector(g, fp)[i])
        assert vals[0] > vals[1] > vals[2]
        # decay rate (1/L)^{2s}: factor 16 between L=5 and L=80 at s=0.5
        assert vals[2] == pytest.approx(vals[0] / 16.0, rel=0.02)

    def test_row_sums_finite(self):
        g = Grid(L=1.0, N=128, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        rows = kernel_matrix(g, fp).sum(axis=1) + tail_vector(g, fp)
        assert np.all(np.isfinite(rows))
        assert np.all(rows > 0)


class TestKernelRows:
    @pytest.mark.parametrize("N", [64, 257, 1000])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_blocks_are_slices_of_kernel_matrix(self, N, s):
        g = Grid(L=1.0, N=N, a=-0.3, b=0.3)
        fp = FracParams(s)
        W = kernel_matrix(g, fp)
        for lo, hi in ((0, N), (0, 1), (N - 1, N), (5, 40), (N // 3, N // 2 + 7)):
            assert np.array_equal(kernel_matrix(g, fp, lo, hi), W[lo:hi])

    @pytest.mark.parametrize("N", [256, 1024])
    def test_block_into_buffer_allocates_no_block(self, N):
        # into a given buffer a 256-row block allocates only the diagonal's
        # two index arrays; a whole-block broadcast subtraction x_i - x_j
        # takes 128 KiB of numpy's ufunc buffers here
        import tracemalloc

        x = Grid(L=1.0, N=N, a=-0.3, b=0.3).nodes
        out = np.empty((256, N))
        ref = np.abs(np.subtract(x[:256, None], x[None, :]))
        ref[np.arange(256), np.arange(256)] = 1.0
        ref **= -2.0
        ref[np.arange(256), np.arange(256)] = 0.0
        tracemalloc.start()
        try:
            _inverse_distance_power(x, 2.0, 0, 256, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, ref)
        assert peak < 2 * 8 * 256 + (8 << 10)
