import numpy as np
import pytest

from fraccond import forward
from fraccond.core import FracParams, Grid
from fraccond.forward import (
    SolverError,
    _row_blocks,
    _stream_blocks,
    assemble_dn,
    dn_gap,
    factor_interior,
    liouville_reduce,
    solve_dirichlet,
    verify_reduction,
)
from fraccond.operators import (
    Conductivity,
    assemble_conductivity,
    assemble_laplacian,
    assemble_schrodinger,
    bilinear_form,
    node_inner,
    operator_rows,
)
from fraccond.inverse import reconstruct_gamma
from fraccond.profiles import (
    bump_m,
    double_bump_m,
    make_conductivity,
    profile_from_name,
    random_admissible_m,
)

from oracles import (assemble_dn_schrodinger, dense_evaluator,
                     dirichlet_from_matrix, dn_from_matrix, dn_pointwise,
                     laplacian_evaluator)


def grid128():
    return Grid(L=1.0, N=128, a=-0.3, b=0.3)


def bump_gamma(g, amp=0.3, center=0.0, width=0.2):
    return make_conductivity(g, bump_m(amp, center, width))


class TestSolveDirichlet:
    def test_zero_data_zero_solution(self):
        g = grid128()
        u, rel = solve_dirichlet(g, FracParams(0.5), bump_gamma(g),
                                 np.zeros(g.N))
        assert np.max(np.abs(u)) == 0.0
        assert not np.any(np.signbit(u))  # +0.0, so %.17g writes "0"
        assert rel == 0.0

    def test_interior_residual(self):
        g = grid128()
        fp, gam = FracParams(0.5), bump_gamma(g)
        A = assemble_conductivity(g, fp, gam)
        rng = np.random.default_rng(2)
        gdat = np.zeros(g.N)
        gdat[g.exterior_idx] = rng.standard_normal(g.exterior_idx.size)
        u, rel = solve_dirichlet(g, fp, gam, gdat)
        res = np.max(np.abs((A @ u)[g.interior_idx]))
        assert res <= 1e-10 * np.max(np.abs(A)) * np.max(np.abs(u))
        assert 0.0 < rel <= 1e-10
        assert np.array_equal(u[g.exterior_idx], gdat[g.exterior_idx])

    def test_energy_estimate_calibrated(self):
        # finite-dimensional stability: ||u|| <= c ||g|| with c calibrated
        # once on the grid, then asserted on fresh instances
        g = grid128()
        fp, gam = FracParams(0.5), bump_gamma(g)
        rng = np.random.default_rng(3)

        def norm(v):
            return float(np.sqrt(node_inner(g, v, v)))

        def run(seed_offset):
            gdat = np.zeros(g.N)
            gdat[g.exterior_idx] = rng.standard_normal(g.exterior_idx.size)
            u = solve_dirichlet(g, fp, gam, gdat)[0]
            return norm(u) / norm(gdat)

        c = max(run(k) for k in range(5)) * 1.2
        for k in range(10):
            assert run(k) <= c

    def test_maximum_principle(self):
        g = grid128()
        rng = np.random.default_rng(4)
        gdat = np.zeros(g.N)
        gdat[g.exterior_idx] = rng.uniform(0.0, 1.0, g.exterior_idx.size)
        u = solve_dirichlet(g, FracParams(0.5), bump_gamma(g), gdat)[0]
        assert u.min() >= -1e-10

    def test_singular_schrodinger_reports_condition(self):
        # a Schroedinger matrix has no conductivity route: the dense solve
        g = Grid(L=1.0, N=48, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        L = assemble_laplacian(g, fp)
        I = g.interior_idx
        lam0 = np.linalg.eigvalsh(L[np.ix_(I, I)])[0]
        q = np.zeros(g.N)
        q[I] = -lam0  # shifts the smallest interior eigenvalue to zero
        A = assemble_schrodinger(g, fp, q)
        e = np.zeros(g.N)
        e[g.exterior_idx[0]] = 1.0
        with pytest.raises(SolverError) as err:
            dirichlet_from_matrix(g, A, e)
        assert err.value.cond is None or err.value.cond > 1e12


class TestSolveDirichletGathered:
    """solve_dirichlet solves on A_II and A_I,E gathered from omega's row
    blocks; the dense matrix's sliced solve (oracles.dirichlet_from_matrix)
    is the reference, bit for bit."""

    @staticmethod
    def datum(g, source):
        E = g.exterior_idx
        d = np.zeros(g.N)
        if source == "unit":
            d[E[5]] = 1.0
        elif source == "gaussian":
            d[E] = np.exp(-((g.nodes[E] + 0.6) / 0.1) ** 2)
        return d

    @pytest.mark.parametrize("profile", ["constant", "random", "bump"])
    @pytest.mark.parametrize("source", ["zero", "unit", "gaussian"])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_equals_dense_solve_on_several_blocks(self, s, source, profile,
                                                  monkeypatch):
        # 16-row blocks: omega's 76 rows span six of them
        g = Grid(L=1.0, N=512, a=-0.15, b=0.15)
        monkeypatch.setattr(forward, "BLOCK_BYTES", 16 * 8 * g.N)
        gam = {"constant": Conductivity.constant(g),
               "random": make_conductivity(g, random_admissible_m(
                   seed=1, amplitude=0.3, width=0.15)),
               "bump": bump_gamma(g, width=0.1)}[profile]
        fp = FracParams(s)
        d = self.datum(g, source)
        assert sum(lo <= g.interior_idx[-1] and g.interior_idx[0] < hi
                   for lo, hi in _row_blocks(g)) == 6
        u = solve_dirichlet(g, fp, gam, d)[0]
        ref = dirichlet_from_matrix(g, assemble_conductivity(g, fp, gam), d)
        assert np.array_equal(u.view(np.int64), ref.view(np.int64))


class TestFactorInterior:
    """The singularity check of every interior block: the smallest against
    the largest |eigenvalue|, with the threshold 1e-12."""

    @staticmethod
    def interior_block(operator):
        g = Grid(L=1.0, N=48, a=-0.3, b=0.3)
        fp = FracParams(0.5)
        A = (assemble_laplacian(g, fp) if operator == "laplacian"
             else assemble_conductivity(g, fp, bump_gamma(g)))
        I = g.interior_idx
        return A[np.ix_(I, I)]

    @staticmethod
    def shifted(block, smallest):
        """block - c I with c chosen so that the smallest eigenvalue of the
        result is `smallest` (up to round-off)."""
        out = block.copy()
        out[np.diag_indices_from(out)] -= np.linalg.eigvalsh(block)[0] - smallest
        return out

    @pytest.mark.parametrize("operator", ["laplacian", "conductivity"])
    def test_singular_block_raises_with_condition(self, operator):
        block = self.shifted(self.interior_block(operator), 0.0)
        with pytest.raises(SolverError, match="singular") as err:
            factor_interior(block, "test")
        assert err.value.cond > 1e12

    @pytest.mark.parametrize("operator", ["laplacian", "conductivity"])
    def test_accepts_condition_1e10(self, operator):
        block = self.interior_block(operator)
        lam = np.linalg.eigvalsh(block)
        block = self.shifted(block, 1e-10 * (lam[-1] - lam[0]))
        assert 0.5e10 < np.linalg.cond(block) < 2e10
        assert factor_interior(block, "test") is block

    @staticmethod
    def passes(block):
        """factor_interior's rule, from the eigenvalues."""
        lam = np.abs(np.linalg.eigvalsh(block))
        return lam.min() > 1e-12 * max(lam.max(), 1.0)

    @pytest.mark.parametrize("operator", ["laplacian", "conductivity"])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_certificate_never_accepts_a_rejected_block(self, operator,
                                                        scaled):
        # A = D^-1 C D^-1 for a diagonally dominant C (D = I unscaled),
        # shifted by c I with c from 0 through A's smallest eigenvalue
        C = self.interior_block(operator)
        n = C.shape[0]
        d = (np.random.default_rng(2).uniform(0.5, 1.5, n) if scaled
             else np.ones(n))
        A = C / np.outer(d, d)
        lam0 = np.linalg.eigvalsh(A)[0]
        verdicts = []
        for c in (0.0, 0.5, 0.9, 1 - 1e-6, 1 - 1e-11, 1 - 1e-13, 1.0,
                  1 + 1e-13, 1.1, 2.0):
            block = A - c * lam0 * np.eye(n)
            certified = forward._certified(block, d if scaled else None)
            if certified:
                assert self.passes(block), c
            verdicts.append((certified, self.passes(block)))
        # the unshifted block is certified, and the family reaches blocks
        # the rule rejects
        assert verdicts[0] == (True, True)
        assert (False, False) in verdicts

    def test_certificate_falls_back_to_eigvalsh(self, monkeypatch):
        # an uncertified block is still checked, with today's error and cond
        block = self.shifted(self.interior_block("laplacian"), 0.0)
        calls = count_eigvalsh(monkeypatch)
        with pytest.raises(SolverError, match="singular") as err:
            factor_interior(block, "test")
        assert len(calls) == 1 and err.value.cond > 1e12

    def test_dirichlet_solve_is_numpy_solve(self):
        g = grid128()
        A = assemble_conductivity(g, FracParams(0.5), bump_gamma(g))
        I, E = g.interior_idx, g.exterior_idx
        gdat = np.zeros(g.N)
        gdat[E] = np.random.default_rng(5).uniform(-1.0, 1.0, E.size)
        ref = np.linalg.solve(A[np.ix_(I, I)], -(A[np.ix_(I, E)] @ gdat[E]))
        u = solve_dirichlet(g, FracParams(0.5), bump_gamma(g), gdat)[0]
        assert np.array_equal(u[I], ref)


def count_eigvalsh(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh to record its calls; returns the record."""
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(A, *args, **kwargs):
        calls.append(A.shape)
        return eigvalsh(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestCertificateOnBenchmarkBlocks:
    """The row-sum certificate accepts every interior block the benchmark's
    commands check, so none of them calls eigvalsh: the dn-1024 block, the
    reduce-4096 pairings and every evaluation of the invert-256 fits, on the
    CLI's random profile (the panel seeds 0-3 for invert)."""

    @staticmethod
    def panel_gamma(g, seed):
        return make_conductivity(g, profile_from_name(
            "random", seed=seed, amplitude=0.3, width=0.15))

    def test_dn_1024(self, monkeypatch):
        g = Grid(L=1.0, N=1024, a=-0.15, b=0.15)
        gam = self.panel_gamma(g, 0)
        calls = count_eigvalsh(monkeypatch)
        E = g.exterior_idx
        assemble_dn(g, FracParams(0.5), gam, E, E)
        assert calls == []

    def test_reduce_4096(self, monkeypatch):
        # the plain row sums of (-Delta)^s + diag q fail here, where q < 0;
        # the scaling g_I makes them those of the conductivity block
        g = Grid(L=1.0, N=4096, a=-0.15, b=0.15)
        fp = FracParams(0.5)
        gam = self.panel_gamma(g, 0)
        I = g.interior_idx
        L_II = assemble_laplacian(g, fp)[np.ix_(I, I)]
        L_II[np.diag_indices_from(L_II)] += liouville_reduce(g, fp, gam)[I]
        assert not forward._certified(L_II, None)
        assert forward._certified(L_II, gam.sqrt[I])
        calls = count_eigvalsh(monkeypatch)
        verify_reduction(g, fp, gam, *gap_data(g))
        assert calls == []

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_invert_256(self, monkeypatch, seed):
        # the one eigvalsh is the fit's own: the top eigenvalue of the
        # initial Gram, which scales reg_lambda
        g = Grid(L=1.0, N=256, a=-0.15, b=0.15)
        fp = FracParams(0.5)
        E = g.exterior_idx
        observed = assemble_dn(g, fp, self.panel_gamma(g, seed), E, E)
        calls = count_eigvalsh(monkeypatch)
        reconstruct_gamma(observed, g, fp)
        assert calls == [(g.interior_idx.size,) * 2]


class TestAssembleDn:
    def test_symmetry_full_exterior(self):
        g = grid128()
        gam = bump_gamma(g)
        E = g.exterior_idx
        M = assemble_dn(g, FracParams(0.5), gam, E, E).matrix
        assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))

    def test_unit_gamma_matches_zero_potential(self):
        g = grid128()
        fp = FracParams(0.5)
        E = g.exterior_idx
        Mg = assemble_dn(g, fp, Conductivity.constant(g), E, E).matrix
        Mq = assemble_dn_schrodinger(g, fp, np.zeros(g.N), E, E).matrix
        assert np.array_equal(Mg, Mq)

    def test_extension_independence(self):
        # entries are bilinear pairings against the zero extension; adding an
        # interior-supported field to the observation extension must not move
        # them (the solution annihilates interior test fields)
        g = grid128()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        M = assemble_dn(g, fp, gam, E, E)
        rng = np.random.default_rng(5)
        k = 7
        e_k = np.zeros(g.N)
        e_k[E[k]] = 1.0
        u = solve_dirichlet(g, fp, gam, e_k)[0]
        for l in (0, 11, 30):
            e_l = np.zeros(g.N)
            e_l[E[l]] = 1.0
            psi = np.zeros(g.N)
            psi[g.interior_idx] = rng.standard_normal(g.interior_idx.size)
            plain = bilinear_form(g, fp, gam, u, e_l)
            perturbed = bilinear_form(g, fp, gam, u, e_l + psi)
            assert perturbed == pytest.approx(M.matrix[l, k], rel=1e-10)
            assert plain == pytest.approx(perturbed, rel=1e-10)

    def test_reciprocity(self):
        # B[u_f, e_g] == B[u_g, e_f] on random exterior data
        g = grid128()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        rng = np.random.default_rng(6)
        for _ in range(5):
            f = np.zeros(g.N)
            h = np.zeros(g.N)
            f[g.exterior_idx] = rng.standard_normal(g.exterior_idx.size)
            h[g.exterior_idx] = rng.standard_normal(g.exterior_idx.size)
            uf = solve_dirichlet(g, fp, gam, f)[0]
            ug = solve_dirichlet(g, fp, gam, h)[0]
            lhs = bilinear_form(g, fp, gam, uf, h)
            rhs = bilinear_form(g, fp, gam, ug, f)
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_w_sets_must_be_exterior(self):
        g = grid128()
        with pytest.raises(ValueError):
            assemble_dn(g, FracParams(0.5), bump_gamma(g),
                        g.interior_idx[:3], g.exterior_idx)

    def test_pointwise_route_matches_matrix(self):
        g = grid128()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        M = assemble_dn(g, fp, gam, E, E)
        rng = np.random.default_rng(8)
        f = np.zeros(g.N)
        f[E] = rng.standard_normal(E.size)
        via_matrix = M.matrix @ f[E]
        via_pointwise = g.h * dn_pointwise(g, fp, gam, f)
        assert np.max(np.abs(via_matrix - via_pointwise)) \
            <= 1e-9 * np.max(np.abs(via_matrix))


class TestLiouvilleReduce:
    def test_unit_gamma_gives_zero(self):
        g = grid128()
        q = liouville_reduce(g, FracParams(0.5), Conductivity.constant(g))
        assert np.max(np.abs(q)) == 0.0
        assert np.all(q[g.exterior_idx] == 0.0)

    def test_exterior_spill_flagged(self):
        g = grid128()
        q = liouville_reduce(g, FracParams(0.5), bump_gamma(g))
        assert np.any(q[g.exterior_idx] != 0.0)
        assert np.max(np.abs(q[g.exterior_idx])) > 0.0

    def test_small_amplitude_linearity(self):
        g = grid128()
        fp = FracParams(0.5)
        lap = assemble_laplacian(g, fp)
        m1 = bump_m(1.0, 0.0, 0.2)(g.nodes)
        m1[g.exterior_idx] = 0.0
        base = -(lap @ m1)
        for t in (1e-5, 1e-6):
            gam = make_conductivity(g, lambda x, t=t: t * bump_m(1.0, 0.0, 0.2)(x))
            q = liouville_reduce(g, fp, gam)
            assert np.max(np.abs(q - t * base)) <= 10 * t * t * np.max(np.abs(base))


class TestVerifyReduction:
    def test_unit_gamma_exact_zero(self):
        g = grid128()
        f, v = gap_data(g)
        assert verify_reduction(g, FracParams(0.5), Conductivity.constant(g),
                                f, v).residual == 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("profile", ["bump", "double", "random"])
    def test_identity_across_profiles(self, s, profile):
        g = Grid(L=1.0, N=256, a=-0.3, b=0.3)
        if profile == "bump":
            m_fn = bump_m(0.3, 0.0, 0.2)
        elif profile == "double":
            m_fn = double_bump_m(0.25, 0.25, 0.1)
        else:
            m_fn = random_admissible_m(seed=42, amplitude=0.3, width=0.25)
        gam = make_conductivity(g, m_fn)
        f, v = gap_data(g)
        assert verify_reduction(g, FracParams(s), gam, f, v).residual <= 1e-10


class TestDnGap:
    def test_identity_overlapping_supports(self):
        g = grid128()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        f = np.zeros(g.N)
        v = np.zeros(g.N)
        f[E] = np.exp(-((g.nodes[E] + 0.6) / 0.25) ** 2)
        v[E] = np.exp(-((g.nodes[E] + 0.45) / 0.3) ** 2)
        left, right = dn_gap(g, fp, gam, f, v)
        assert right != 0.0
        assert left == pytest.approx(right, rel=1e-9)

    def test_disjoint_supports_both_zero(self):
        g = grid128()
        fp = FracParams(0.5)
        gam = bump_gamma(g)
        E = g.exterior_idx
        f = np.zeros(g.N)
        v = np.zeros(g.N)
        f[E[:10]] = 1.0
        v[E[-10:]] = 1.0
        left, right = dn_gap(g, fp, gam, f, v)
        scale = np.max(np.abs(assemble_laplacian(g, fp)))
        assert right == 0.0
        assert abs(left) <= 1e-10 * scale

    def test_unit_gamma_both_zero(self):
        g = grid128()
        fp = FracParams(0.5)
        E = g.exterior_idx
        f = np.zeros(g.N)
        v = np.zeros(g.N)
        f[E] = 1.0
        v[E] = 1.0
        left, right = dn_gap(g, fp, Conductivity.constant(g), f, v)
        assert right == 0.0
        assert abs(left) <= 1e-12


def reduction_case(N, profile):
    g = Grid(L=1.0, N=N, a=-0.3, b=0.3)
    if profile == "constant":
        return g, Conductivity.constant(g)
    if profile == "bump":
        return g, bump_gamma(g)
    return g, make_conductivity(g, random_admissible_m(seed=N, amplitude=0.3,
                                                       width=0.25))


def gap_data(g):
    E = g.exterior_idx
    f = np.zeros(g.N)
    v = np.zeros(g.N)
    f[E] = np.exp(-((g.nodes[E] + 0.6) / 0.25) ** 2)
    v[E] = np.exp(-((g.nodes[E] + 0.4) / 0.33) ** 2)
    return f, v


class TestReductionRoute:
    """verify_reduction and dn_gap against the dense full-matrix formulas,
    with one pass over the kernel rows per call and bounded memory."""

    @pytest.mark.parametrize("N", [64, 257])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("profile", ["constant", "bump", "random"])
    def test_matches_dense_oracle(self, N, s, profile):
        g, gam = reduction_case(N, profile)
        fp = FracParams(s)
        C = assemble_conductivity(g, fp, gam)
        L = assemble_laplacian(g, fp)
        q = liouville_reduce(g, fp, gam)
        sq = gam.sqrt
        I = g.interior_idx
        lhs = C * (1.0 / sq)[None, :]
        rhs = sq[:, None] * (L + np.diag(q))
        dense = float(np.max(np.abs(lhs[I] - rhs[I])) / np.max(np.abs(C)))
        f, v = gap_data(g)
        assert verify_reduction(g, fp, gam, f, v).residual == dense

        E = g.exterior_idx
        oracle = (float(v[E] @ assemble_dn_schrodinger(g, fp, q, E, E).matrix
                        @ f[E])
                  - float(v[E] @ assemble_dn(g, fp, gam, E, E).matrix @ f[E]))
        left, right = dn_gap(g, fp, gam, f, v)
        assert abs(left - oracle) <= 1e-12 * abs(oracle)
        lap_m = L @ gam.m_values
        assert right == g.h * float(np.sum(f[E] * v[E] * lap_m[E]))

    def test_one_pass_of_kernel_rows_per_call(self, monkeypatch, tmp_path):
        # each check builds every kernel row exactly once, block by block,
        # and never the full kernel matrix; the reduce command runs both
        # reduction checks in one such pass
        import json

        import fraccond.cli
        import fraccond.operators

        blocks = []
        real = fraccond.operators.kernel_matrix

        def counting(grid, fp, lo=0, hi=None, out=None):
            if hi is None or (lo, hi) == (0, grid.N):
                raise AssertionError("full kernel matrix built")
            blocks.append((lo, hi))
            return real(grid, fp, lo, hi, out)

        monkeypatch.setattr(fraccond.operators, "kernel_matrix", counting)
        g, gam = reduction_case(1000, "bump")
        fp = FracParams(0.5)
        f, v = gap_data(g)
        for call in (lambda: verify_reduction(g, fp, gam, f, v),
                     lambda: dn_gap(g, fp, gam, f, v),
                     lambda: liouville_reduce(g, fp, gam)):
            blocks.clear()
            call()
            assert len(blocks) > 1
            assert sorted(i for lo, hi in blocks for i in range(lo, hi)) \
                == list(range(g.N))

        cfg = tmp_path / "reduce.json"
        cfg.write_text(json.dumps({
            "schema": "fraccond-config-v1",
            "grid": {"L": 1.0, "N": g.N, "omega": [-0.3, 0.3]},
            "frac": {"s": 0.5}, "seed": 3, "task": {},
            "gamma": {"profile": "random", "amplitude": 0.3, "width": 0.25}}))
        out = tmp_path / "reduce"
        blocks.clear()
        assert fraccond.cli.run(["reduce", "--config", str(cfg),
                                 "--out", str(out)]) == 0
        assert len(blocks) > 1
        assert sorted(i for lo, hi in blocks for i in range(lo, hi)) \
            == list(range(g.N))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["kernel_row_blocks"] == len(blocks)

    def test_peak_memory_below_three_dense_matrices(self):
        import tracemalloc

        g, gam = reduction_case(1024, "random")
        fp = FracParams(0.5)
        f, v = gap_data(g)
        limit = 3 * g.N**2 * 8
        for call in (lambda: verify_reduction(g, fp, gam, f, v),
                     lambda: dn_gap(g, fp, gam, f, v)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit


class TestRowBlocks:
    """The row-block stream behind the reduction checks reproduces the
    assembled operators exactly, within a flat memory budget."""

    def test_every_block_runs_once_under_contention(self, monkeypatch):
        # more workers than cores, and the interpreter switching threads as
        # often as it can: the workers share the untaken blocks, and none
        # may be skipped or taken twice
        import sys

        monkeypatch.setattr(forward, "MAX_WORKERS", 8)
        blocks = [(k, k + 1) for k in range(2000)]
        taken = []

        def work(lo, hi, out):
            out[0][0] = lo
            taken.append(lo)
            return int(out[0][0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results, workers = _stream_blocks(blocks, [(np.int64, ())], work)
        finally:
            sys.setswitchinterval(interval)
        assert workers == 8
        assert results == list(range(2000))
        assert sorted(taken) == list(range(2000))

    @pytest.mark.parametrize("N", [64, 257, 1000])
    @pytest.mark.parametrize("profile", ["constant", "random"])
    def test_blocks_are_slices_of_the_operators(self, N, profile):
        g, gam = reduction_case(N, profile)
        fp = FracParams(0.7)
        C = assemble_conductivity(g, fp, gam)
        L = assemble_laplacian(g, fp)
        I = g.interior_idx
        starts = []
        for lo, hi in _row_blocks(g):
            C_rows, L_rows = operator_rows(g, fp, lo, hi, gam.sqrt, None)
            assert np.array_equal(C_rows, C[lo:hi])
            assert np.array_equal(L_rows, L[lo:hi])
            starts.append(lo)
        # N = 64 and 257 fit in one block; at N = 1000 (four blocks of
        # 256 rows) a block boundary falls inside omega
        assert len(starts) == (4 if N == 1000 else 1)
        assert any(I[0] < lo <= I[-1] for lo in starts) == (N == 1000)

    def test_from_kernel_on_a_row_block(self):
        g, gam = reduction_case(257, "random")
        fp = FracParams(0.4)
        C = assemble_conductivity(g, fp, gam)
        L = assemble_laplacian(g, fp)
        for lo, hi in ((0, 1), (3, 77), (100, 257)):
            L_rows, C_rows = operator_rows(g, fp, lo, hi, None, gam.sqrt)
            assert np.array_equal(C_rows, C[lo:hi])
            assert np.array_equal(L_rows, L[lo:hi])

    @pytest.mark.parametrize("N", [64, 257, 1000])
    @pytest.mark.parametrize("s", [0.3, 0.8])
    def test_liouville_reduce_matches_dense(self, N, s):
        g, gam = reduction_case(N, "random")
        fp = FracParams(s)
        L = assemble_laplacian(g, fp)
        q = liouville_reduce(g, fp, gam)
        assert np.array_equal(q, -(L @ gam.m_values) / gam.sqrt)

    @pytest.mark.parametrize("N", [1000, 4100])
    def test_worker_count_moves_no_bit(self, N, monkeypatch):
        # every block writes only its own slices and the maxima are
        # combined in block order, so the worker count moves no bit; at
        # both sizes the last block is partial and a block boundary falls
        # inside omega.  Five workers (MAX_WORKERS raised past the CPUs)
        # under a short switch interval would expose a write to a shared
        # slice or buffer
        import dataclasses
        import sys

        import fraccond.forward

        g, gam = reduction_case(N, "random")
        fp = FracParams(0.5)
        f, v = gap_data(g)
        blocks = _row_blocks(g)
        assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]
        I = g.interior_idx
        assert any(I[0] < lo <= I[-1] for lo, _ in blocks)
        checks, q = {}, {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 5):
                monkeypatch.setattr(fraccond.forward, "MAX_WORKERS", workers)
                checks[workers] = verify_reduction(g, fp, gam, f, v)
                q[workers] = liouville_reduce(g, fp, gam)
        finally:
            sys.setswitchinterval(interval)
        for workers, check in checks.items():
            assert check.workers == min(workers, len(blocks))
            assert check.blocks == len(blocks)
            assert dataclasses.replace(check, workers=1) == checks[1]
            assert np.array_equal(q[workers], q[1])

    def test_peak_memory_flat_at_4096(self):
        # one dense 4096 x 4096 matrix is 134 MB; the stream needs a few
        # blocks of 2 MiB per worker plus the |I| x |I| interior blocks
        import tracemalloc

        g, gam = reduction_case(4096, "random")
        fp = FracParams(0.5)
        f, v = gap_data(g)
        for call in (lambda: verify_reduction(g, fp, gam, f, v),
                     lambda: dn_gap(g, fp, gam, f, v),
                     lambda: liouville_reduce(g, fp, gam)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 48e6

    def test_single_pass_peak_memory_at_4096(self):
        # each worker reuses its two block buffers (2 MiB each) for all
        # its blocks, and the residual is formed in place on them; beside
        # them live the two |I| x |I| interior blocks (3 MB each here)
        import tracemalloc

        g = Grid(L=1.0, N=4096, a=-0.15, b=0.15)
        gam = make_conductivity(g, random_admissible_m(seed=1, amplitude=0.3,
                                                       width=0.15))
        f, v = gap_data(g)
        tracemalloc.start()
        try:
            verify_reduction(g, FracParams(0.5), gam, f, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_liouville_reduce_peak_memory_at_4096(self):
        # liouville_reduce builds the (-Delta)^s rows alone, in place on
        # each worker's 2 MiB kernel block buffer, and no conductivity rows
        # beside them
        import tracemalloc

        g, gam = reduction_case(4096, "random")
        tracemalloc.start()
        try:
            liouville_reduce(g, FracParams(0.5), gam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestDnEvaluator:
    """The oracle assemble_dn_schrodinger runs the package's DN evaluator
    on the Laplacian with diag(q_I); the DN matrix of the full Schroedinger
    matrix is the reference."""

    @staticmethod
    def sets(g, which):
        E = g.exterior_idx
        if which == "exterior":
            return E, E
        x = g.nodes[E]
        return E[(x > -0.9) & (x < -0.4)], E[(x > 0.4) & (x < 0.9)]

    @pytest.mark.parametrize("which", ["exterior", "intervals"])
    @pytest.mark.parametrize("N", [64, 257])
    def test_schrodinger_map_equals_operator_route(self, N, which):
        g = Grid(L=1.0, N=N, a=-0.15, b=0.15)
        fp = FracParams(0.5)
        q = np.random.default_rng(N).standard_normal(g.N)
        W1, W2 = self.sets(g, which)
        got = assemble_dn_schrodinger(g, fp, q, W1, W2)
        ref = dn_from_matrix(g, assemble_schrodinger(g, fp, q), W1, W2)
        assert np.array_equal(got.matrix, ref.matrix)
        assert np.array_equal(got.source_idx, W1)
        assert np.array_equal(got.obs_idx, W2)


class TestGather:
    """_DnEvaluator.gather copies the four blocks out of the operator_rows
    row blocks that hold omega's or W2's rows; the dense matrix's slices
    (oracles.dense_evaluator) are the reference, bit for bit."""

    @staticmethod
    def case(N, operator, sets):
        g = Grid(L=1.0, N=N, a=-0.15, b=0.15)
        E = g.exterior_idx
        x = g.nodes[E]
        W1, W2 = E[x <= -0.5], E[x >= 0.5]
        if sets == "exterior":
            W1 = W2 = E
        elif sets == "unsorted":
            W2 = np.random.default_rng(N).permutation(np.concatenate((W2, W1[:3])))
        sqrt = None if operator == "laplacian" else bump_gamma(g).sqrt
        return g, sqrt, W1, W2

    @pytest.mark.parametrize("sets", ["exterior", "disjoint", "unsorted"])
    @pytest.mark.parametrize("operator", ["laplacian", "conductivity"])
    @pytest.mark.parametrize("N", [64, 2048])
    def test_blocks_equal_dense_slices(self, N, operator, sets):
        # at N = 2048 the 128-row blocks cut omega (rows 870..1177)
        g, sqrt, W1, W2 = self.case(N, operator, sets)
        fp = FracParams(0.5)
        A = operator_rows(g, fp, 0, g.N, sqrt)[0]
        ref = dense_evaluator(g, A, W1, W2)
        got = forward._DnEvaluator.gather(g, fp, sqrt, W1, W2, "gather")
        for name in ("A_II", "A_W2I", "A_IW1", "D"):
            block = getattr(got, name)
            assert block.flags.c_contiguous, name
            assert np.array_equal(block, getattr(ref, name)), name
        assert np.array_equal(got.evaluate(0.0)[0], ref.evaluate(0.0)[0])
        if operator == "conductivity":
            dn = assemble_dn(g, fp, bump_gamma(g), W1, W2)
            assert np.array_equal(dn.matrix, ref.evaluate(0.0)[0])
            assert np.array_equal(dn.obs_idx, W2)

    @pytest.mark.parametrize("sets", ["exterior", "disjoint"])
    def test_assemble_dn_peak_memory_at_2048(self, sets):
        # the four blocks, the evaluation's interior copy, -A_I,W1 and its
        # solution U, the output, and each worker's 2 MiB block buffer; the
        # dense 2048 x 2048 matrix (33.5 MB) is never formed
        import tracemalloc

        g, _, W1, W2 = self.case(2048, "conductivity", sets)
        gam = bump_gamma(g)
        nI, n1, n2 = g.interior_idx.size, W1.size, W2.size
        bound = (8 * (2 * nI * nI + n2 * nI + 3 * nI * n1 + 2 * n2 * n1)
                 + forward.MAX_WORKERS * forward.BLOCK_BYTES + (1 << 20))
        tracemalloc.start()
        try:
            assemble_dn(g, FracParams(0.5), gam, W1, W2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("sets", ["exterior", "disjoint"])
    def test_one_block_gather_allocates_one_buffer_set(self, sets):
        # N = 256 is one 256-row block, so one worker gets it: the four
        # blocks, written in place, one 0.5 MB block buffer, and 64 KiB for
        # the rest (28 KB read); a second worker's buffer, a fancy-index
        # copy of the exterior blocks on their way in, or the 128 KiB of
        # ufunc buffers of a broadcast kernel subtraction would not fit
        import tracemalloc

        g, _, W1, W2 = self.case(256, "laplacian", sets)
        fp = FracParams(0.5)
        assert len(_row_blocks(g)) == 1
        nI, n1, n2 = g.interior_idx.size, W1.size, W2.size
        blocks = 8 * (nI * nI + n2 * nI + nI * n1 + n2 * n1)
        bound = blocks + 8 * g.N * g.N + (64 << 10)
        # a first gather imports the worker pool's modules, untraced
        forward._DnEvaluator.gather(g, fp, None, W1, W2, "gather")
        tracemalloc.start()
        try:
            forward._DnEvaluator.gather(g, fp, None, W1, W2, "gather")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestDnMapIdentities:
    """Two identities of the DN map that both of the paper's theorems rest
    on: Alessandrini's identity, which writes the difference of two
    Schroedinger DN maps through the solution blocks of the sources (U) and
    of the observations (V), and the monotonicity of the conductivity DN
    map in gamma."""

    @staticmethod
    def alessandrini_data(N, s, sets):
        g = Grid(L=1.0, N=N, a=-0.15, b=0.15)
        fp = FracParams(s)
        E = g.exterior_idx
        x = g.nodes[E]
        W1, W2 = E[(x >= -0.9) & (x <= -0.5)], E[(x >= 0.5) & (x <= 0.9)]
        g_W1 = None
        if sets == "exterior":
            W1 = W2 = E
        elif sets == "one-source":
            g_W1 = np.random.default_rng(N).uniform(0.5, 1.5, W1.size)
        return g, laplacian_evaluator(g, fp, W1, W2, g_W1)

    @pytest.mark.parametrize("sets", ["exterior", "disjoint", "one-source"])
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("N", [256, 1024])
    def test_alessandrini_identity(self, N, s, sets):
        # M(q1) - M(q2) = h V(q1)^T diag(q1 - q2) U(q2)
        g, data = self.alessandrini_data(N, s, sets)
        rng = np.random.default_rng(int(10 * s) + N)
        q1, q2 = rng.uniform(-5.0, 5.0, (2, g.interior_idx.size))
        M1, U1, A1 = data.evaluate(q1)
        M2, U2, _ = data.evaluate(q2)
        V1 = data.observation_block(U1, A1)
        diff = M1 - M2
        identity = g.h * (V1.T @ ((q1 - q2)[:, None] * U2))
        assert np.max(np.abs(diff - identity)) \
            <= 1e-10 * np.max(np.abs(diff))

    @pytest.mark.parametrize("seed", range(20))
    def test_dn_map_monotone_in_gamma(self, seed):
        # gamma1 <= gamma2 gives Lambda_gamma2 - Lambda_gamma1 >= 0
        g = Grid(L=1.0, N=256, a=-0.15, b=0.15)
        fp = FracParams(0.5)
        E = g.exterior_idx
        gam1 = make_conductivity(g, random_admissible_m(seed, 0.3, width=0.15))
        rng = np.random.default_rng(seed)
        bump = bump_m(rng.uniform(0.05, 0.3), rng.uniform(-0.05, 0.05), 0.1)
        gam2 = Conductivity.from_m(
            g, np.sqrt(gam1.values + bump(g.nodes)) - 1.0)
        assert np.all(gam2.values >= gam1.values)
        diff = assemble_dn(g, fp, gam2, E, E).matrix \
            - assemble_dn(g, fp, gam1, E, E).matrix
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] > 0.0
