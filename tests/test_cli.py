import json
import os
import subprocess
import sys

import numpy as np
import pytest

from fraccond import _blas, cli
from fraccond.cli import run
from fraccond.core import FracParams
from fraccond.forward import SolverError, assemble_dn, solve_dirichlet
from fraccond.operators import assemble_conductivity
from fraccond.walk import (WalkParams, default_jump_cutoff,
                           truncation_tail_mass)

BASE = {
    "schema": "fraccond-config-v1",
    "grid": {"L": 1.0, "N": 64, "omega": [-0.15, 0.15]},
    "frac": {"s": 0.5},
    "gamma": {"profile": "bump", "amplitude": 0.3, "center": 0.0, "width": 0.1},
    "seed": 42,
}


def write_cfg(tmp_path, name, **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            if key == "gamma" and val.get("profile") in ("constant",
                                                         "from-file"):
                # these profiles read none of BASE's bump shape keys, and
                # a profile rejects a key it does not read
                cfg[key] = {}
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def manifest(outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        return json.load(fh)


class TestForwardCommand:
    def test_zero_source_zero_solution(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", gamma={"profile": "constant"})
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        assert np.all(data[:, 1] == 0.0)
        assert manifest(out)["checks"]["interior_residual"]["pass"]

    def test_bump_with_source_residual_check(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        task={"source": {"type": "gaussian", "center": -0.6,
                                         "width": 0.1}})
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        m = manifest(out)
        assert m["checks"]["interior_residual"]["pass"]
        assert m["checks"]["interior_residual"]["value"] <= 1e-10

    def test_unit_source_matches_solve_dirichlet(self, tmp_path):
        node = 3
        cfg = write_cfg(tmp_path, "c.json",
                        task={"source": {"type": "unit", "node": node}})
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        config = cli.load_config(cfg, "forward")
        grid = cli.build_grid(config)
        gamma = cli.build_gamma(config, grid, config["seed"])
        e_node = np.zeros(grid.N)
        e_node[node] = 1.0
        with _blas.one_blas_thread():
            want = solve_dirichlet(grid, assemble_conductivity(
                grid, FracParams(0.5), gamma), e_node)
        data = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], grid.nodes)
        assert np.array_equal(data[:, 1], want)
        assert manifest(out)["checks"]["interior_residual"]["pass"]

    def test_malformed_omega_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json", grid={"omega": [0.4, 0.1]})
        assert run(["forward", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "omega bounds" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(BASE))
        cfg["grid"]["spacing"] = 0.1
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        assert run(["forward", "--config", str(p), "--out", str(tmp_path)]) == 2

    def test_bad_schema_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", schema="fraccond-config-v0")
        assert run(["forward", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestDnInvertRoundTrip:
    def test_round_trip_manifest_reports_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "dn.json")
        dn_out = tmp_path / "dn"
        assert run(["dn", "--config", cfg, "--out", str(dn_out)]) == 0
        assert manifest(dn_out)["checks"]["dn_symmetry"]["pass"]

        inv_cfg = write_cfg(
            tmp_path, "inv.json", gamma={"profile": "constant"},
            task={"observed_dn": str(dn_out / "dn_matrix.csv"),
                  "truth_gamma": str(dn_out / "gamma.csv")})
        inv_out = tmp_path / "inv"
        assert run(["invert", "--config", inv_cfg, "--out", str(inv_out)]) == 0
        checks = manifest(inv_out)["checks"]
        assert checks["recovery_error"]["pass"]
        assert checks["recovery_error"]["value"] <= 0.01
        assert checks["monotone_residuals"]["pass"]

    def test_dn_matrix_rows_are_observations(self, tmp_path):
        # W1 != W2: the CSV holds the DN matrix itself, one row per
        # observation node and one column per source, as np.savetxt would
        W1, W2 = [-0.9, -0.5], [0.3, 0.95]
        cfg = write_cfg(tmp_path, "dn.json", task={"W1": W1, "W2": W2})
        out = tmp_path / "dn"
        assert run(["dn", "--config", cfg, "--out", str(out)]) == 0
        config = cli.load_config(cfg, "dn")
        grid = cli.build_grid(config)
        gamma = cli.build_gamma(config, grid, config["seed"])
        want = assemble_dn(grid, FracParams(0.5), gamma,
                           cli._exterior_set(grid, W1, "W1"),
                           cli._exterior_set(grid, W2, "W2")).matrix
        assert want.shape[0] != want.shape[1]
        text = (out / "dn_matrix.csv").read_bytes()
        header = text.split(b"\n", 1)[0].decode()
        assert header.count("src") == want.shape[1]
        oracle = tmp_path / "oracle.csv"
        np.savetxt(oracle, want, fmt="%.17g", delimiter=",", header=header,
                   comments="")
        assert text == oracle.read_bytes()

    def test_stop_reason_and_iteration_log(self, tmp_path):
        cfg = write_cfg(tmp_path, "dn.json")
        dn_out = tmp_path / "dn"
        assert run(["dn", "--config", cfg, "--out", str(dn_out)]) == 0
        inv_cfg = write_cfg(
            tmp_path, "inv.json", gamma={"profile": "constant"},
            task={"observed_dn": str(dn_out / "dn_matrix.csv"), "max_iter": 2})
        inv_out = tmp_path / "inv"
        assert run(["invert", "--config", inv_cfg, "--out", str(inv_out)]) == 4
        man = manifest(inv_out)
        assert man["diagnostics"]["stop_reason"] == "max_iter"
        assert not man["checks"]["converged"]["pass"]
        log = inv_out / "iterations.csv"
        assert log.read_text().splitlines()[0] == (
            "iteration,residual,step_length,trials,lambda,objective,"
            "data_residual")
        tab = np.loadtxt(log, delimiter=",", skiprows=1)
        assert tab.shape == (3, 7)
        assert np.array_equal(tab[:, 0], [0.0, 1.0, 2.0])
        assert np.allclose(tab[:, 1] ** 2, tab[:, 5], rtol=1e-14)
        assert tab[0, 2] == 0.0 and np.all(tab[1:, 3] >= 1)

    def test_missing_observed_file_exit_3(self, tmp_path):
        cfg = write_cfg(tmp_path, "inv.json",
                        task={"observed_dn": "nonexistent/dn.csv"})
        assert run(["invert", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestBlasThreadRecord:
    """Every command runs with numpy's OpenBLAS on one thread, records that
    in its manifest and restores the process's thread counts."""

    @staticmethod
    def counts():
        return [get() for get, _ in _blas._openblas_copies()]

    def test_manifest_records_one_thread(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", gamma={"profile": "constant"})
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        man = manifest(out)
        assert man["diagnostics"]["blas_threads"] == 1
        assert "blas_threads" not in man["checks"]

    def test_no_setter_found_recorded_as_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_blas, "_openblas_copies", lambda: [])
        cfg = write_cfg(tmp_path, "c.json", gamma={"profile": "constant"})
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        assert manifest(out)["diagnostics"]["blas_threads"] is None

    def test_counts_restored_after_a_failing_command(self, tmp_path,
                                                     monkeypatch):
        before = self.counts()
        inside = []

        def failing(*args):
            inside.append(self.counts())
            raise SolverError("interior block failed")

        monkeypatch.setitem(cli._COMMANDS, "forward", failing)
        cfg = write_cfg(tmp_path, "c.json")
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 4
        assert inside == [[1] * len(before)]
        assert self.counts() == before
        assert not (out / "manifest.json").exists()


def checkout_env() -> dict:
    """The environment of a new interpreter that imports fraccond from this
    checkout."""
    import fraccond

    src = os.path.dirname(os.path.dirname(os.path.abspath(fraccond.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def fresh_interpreter(code: str) -> dict:
    """Run code in a new interpreter that imports fraccond from this
    checkout; code prints one JSON object, which is returned."""
    out = subprocess.run([sys.executable, "-c", code], env=checkout_env(),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


_SCIPY_LOADED = ("import json, sys\n"
                 "def scipy_loaded():\n"
                 "    return sorted(m for m in sys.modules "
                 "if m.startswith('scipy'))\n")


def test_cli_import_leaves_quadrature_modules_unloaded(tmp_path):
    # the package imports no scipy module: importing it and running a walk
    # load none at all
    cfg = write_cfg(tmp_path, "w.json", **TestWalkCommand.WALK)
    argv = ["walk", "--config", cfg, "--out", str(tmp_path / "w")]
    got = fresh_interpreter(
        _SCIPY_LOADED
        + "import fraccond, fraccond.cli\n"
        "imported = scipy_loaded()\n"
        f"code = fraccond.cli.run({argv!r})\n"
        "print(json.dumps({'imported': imported, 'code': code, "
        "'walked': scipy_loaded()}))\n")
    assert got == {"imported": [], "code": 0, "walked": []}


def test_walk_paths_run_with_scipy_blocked(tmp_path):
    # the package needs numpy alone: with every scipy import made to fail,
    # the walk generator check and a walk run both go through
    cfg = write_cfg(tmp_path, "w.json", **TestWalkCommand.WALK)
    argv = ["walk", "--config", cfg, "--out", str(tmp_path / "w")]
    got = fresh_interpreter(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "import fraccond, fraccond.cli\n"
        "from fraccond.walk import WalkParams, generator_residual\n"
        "g = fraccond.Grid(L=6.0, N=129, a=-2.0, b=2.0)\n"
        "fp = fraccond.FracParams(0.5)\n"
        "wp = WalkParams.from_grid(g, fp, fraccond.Conductivity.constant(g), 8)\n"
        "res = generator_residual(np.exp(-4.0 * g.nodes**2), wp, g, fp)\n"
        f"code = fraccond.cli.run({argv!r})\n"
        "print(json.dumps({'sites': res.sites_checked, 'code': code}))\n")
    assert got == {"sites": 113, "code": 0}


def test_limits_loads_no_scipy(tmp_path):
    # the lattice defect's zeta is the package's own (core._zeta)
    cfg = write_cfg(tmp_path, "l.json",
                    grid={"L": 12.0, "N": 512, "omega": [-4.0, 4.0]},
                    gamma={"profile": "constant"},
                    task={"study": "grad", "s_list": [0.9]})
    argv = ["limits", "--config", cfg, "--out", str(tmp_path / "lim")]
    got = fresh_interpreter(
        _SCIPY_LOADED
        + "import fraccond.cli\n"
        f"code = fraccond.cli.run({argv!r})\n"
        "print(json.dumps({'code': code, 'loaded': scipy_loaded()}))\n")
    assert got == {"code": 0, "loaded": []}


def invert_config(tmp_path) -> str:
    """An N=32 invert config whose observed DN matrix is a dn run's output."""
    cfg = write_cfg(tmp_path, "dn.json", grid={"N": 32})
    dn_out = tmp_path / "dn"
    assert run(["dn", "--config", cfg, "--out", str(dn_out)]) == 0
    return write_cfg(tmp_path, "inv.json", grid={"N": 32},
                     gamma={"profile": "constant"},
                     task={"observed_dn": str(dn_out / "dn_matrix.csv")})


@pytest.mark.parametrize("command", ["forward", "dn", "reduce", "invert"])
def test_solver_commands_load_no_scipy(tmp_path, command):
    # the interior solves run in numpy's LAPACK: no command that solves a
    # Dirichlet block loads any scipy module
    cfg = (invert_config(tmp_path) if command == "invert"
           else write_cfg(tmp_path, "c.json", grid={"N": 32}))
    argv = [command, "--config", cfg, "--out", str(tmp_path / command)]
    got = fresh_interpreter(
        _SCIPY_LOADED
        + "import fraccond.cli\n"
        f"code = fraccond.cli.run({argv!r})\n"
        "print(json.dumps({'code': code, 'loaded': scipy_loaded()}))\n")
    assert got == {"code": 0, "loaded": []}


class TestThreadCapOrdering:
    """The one-thread scope reaches only the OpenBLAS copies already
    loaded.  The interior solves run in numpy's copy, which importing the
    package loads, so every scope a command opens (run's own, and the
    reduction pool's or the Gauss-Newton fit's inside it) finds at least
    that copy; the run loads no scipy (no copy a scope could have missed),
    and the counts are the same after the command as before it."""

    COUNT_AT_EACH_SCOPE = (
        _SCIPY_LOADED
        + "from fraccond import _blas\n"
        "import fraccond.cli\n"
        "find = _blas._openblas_copies\n"
        "def counts():\n"
        "    return [get() for get, _ in find()]\n"
        "seen = []\n"
        "def recording():\n"
        "    copies = find()\n"
        "    seen.append(len(copies))\n"
        "    return copies\n"
        "before = counts()\n"
        "_blas._openblas_copies = recording\n"
        "code = fraccond.cli.run(ARGV)\n"
        "print(json.dumps({'code': code, 'seen': seen, 'before': before, "
        "'after': counts(), 'loaded': scipy_loaded()}))\n")

    def counts(self, argv):
        return fresh_interpreter(
            self.COUNT_AT_EACH_SCOPE.replace("ARGV", repr(argv)))

    def assert_every_scope_capped(self, got, scopes):
        assert got["code"] == 0
        assert len(got["seen"]) == scopes and min(got["seen"]) >= 1
        assert got["after"] == got["before"]
        assert got["loaded"] == []

    def test_invert_gauss_newton_scope(self, tmp_path):
        # the run's scope, the row-block stream that gathers the
        # Laplacian's blocks and the Gauss-Newton fit's
        self.assert_every_scope_capped(self.counts(
            ["invert", "--config", invert_config(tmp_path),
             "--out", str(tmp_path / "inv")]), 3)

    def test_forward_threads_scope(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", gamma={"profile": "constant"})
        self.assert_every_scope_capped(self.counts(
            ["forward", "--config", cfg, "--out", str(tmp_path / "fw")]), 1)

    def test_reduce_pool_scope(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", grid={"N": 32})
        self.assert_every_scope_capped(self.counts(
            ["reduce", "--config", cfg, "--out", str(tmp_path / "red")]), 2)


def test_outputs_do_not_depend_on_the_cpu_count(tmp_path):
    # OpenBLAS starts one thread per CPU unless OPENBLAS_NUM_THREADS (or
    # OMP_NUM_THREADS) says otherwise, and its round-off follows its thread
    # count; with every command on one BLAS thread a default run writes
    # what a run limited to one thread from the start writes
    runs = {
        "dn": write_cfg(tmp_path, "dn.json", grid={"N": 1024}, seed=3,
                        gamma={"profile": "random", "width": 0.15}),
        "reduce": write_cfg(tmp_path, "red.json", grid={"N": 1000},
                            gamma={"profile": "random", "width": 0.15}),
    }
    default_env = checkout_env()
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        default_env.pop(key, None)
    envs = {"one": dict(default_env, OPENBLAS_NUM_THREADS="1"),
            "default": default_env}
    for command, cfg in runs.items():
        for name, env in envs.items():
            subprocess.run([sys.executable, "-m", "fraccond", command,
                            "--config", cfg, "--out",
                            str(tmp_path / command / name)],
                           env=env, check=True, capture_output=True)
        one, default = tmp_path / command / "one", tmp_path / command / "default"
        csvs = sorted(p.name for p in one.iterdir() if p.suffix == ".csv")
        assert csvs
        for name in csvs:
            assert (one / name).read_bytes() == (default / name).read_bytes(), name


class TestUnreadableInput:
    """An input path that cannot be read (here a directory) is an I/O
    error: exit 3 with a one-line message naming the path."""

    @staticmethod
    def assert_io_error(code, capsys, path):
        err = capsys.readouterr().err
        assert code == 3
        assert str(path) in err and len(err.strip().splitlines()) == 1

    def test_gamma_path_is_directory(self, tmp_path, capsys):
        folder = tmp_path / "gamma_dir"
        folder.mkdir()
        cfg = write_cfg(tmp_path, "c.json",
                        gamma={"profile": "from-file", "path": str(folder)})
        code = run(["forward", "--config", cfg, "--out", str(tmp_path / "fw")])
        self.assert_io_error(code, capsys, folder)

    def test_config_is_directory(self, tmp_path, capsys):
        folder = tmp_path / "cfg_dir"
        folder.mkdir()
        code = run(["forward", "--config", str(folder),
                    "--out", str(tmp_path / "fw")])
        self.assert_io_error(code, capsys, folder)


class TestFailureLeavesNoOutput:
    """run() creates the output directory and writes the CSVs and the
    manifest after the command returns, so a failing command leaves nothing
    behind, and a failed write is an I/O error (exit 3 with a one-line
    message) that removes the CSVs the run wrote."""

    def test_manifest_write_error_exit_3(self, tmp_path, capsys):
        out = tmp_path / "fw"
        (out / "manifest.json").mkdir(parents=True)
        cfg = write_cfg(tmp_path, "c.json")
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "I/O error" in err and len(err.strip().splitlines()) == 1
        assert not (out / "manifest.json.tmp").exists()

    def test_failed_write_removes_the_written_csvs(self, tmp_path):
        # dn writes four CSVs; the manifest write fails after all of them
        out = tmp_path / "dn"
        (out / "manifest.json").mkdir(parents=True)
        (out / "keep.txt").write_text("not this run's")
        cfg = write_cfg(tmp_path, "c.json")
        assert run(["dn", "--config", cfg, "--out", str(out)]) == 3
        assert sorted(os.listdir(out)) == ["keep.txt", "manifest.json"]

    def test_config_error_found_by_the_command_creates_no_directory(
            self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "w.json", task={"steps": "x"})
        out = tmp_path / "walk"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 2
        assert "task.steps" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_write_error_exit_3(self, tmp_path, capsys):
        out = tmp_path / "fw"
        (out / "solution.csv").mkdir(parents=True)
        cfg = write_cfg(tmp_path, "c.json")
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solution.csv" in err and len(err.strip().splitlines()) == 1
        assert not (out / "manifest.json").exists()

    def test_memory_error_exit_4(self, tmp_path, capsys, monkeypatch):
        # a refused allocation, raised as numpy raises it; no oversize array
        # is allocated here, since an overcommitting host may grant one
        def refused(*args):
            raise MemoryError("Unable to allocate 671. GiB for an array with "
                              "shape (300000, 300000) and data type float64")

        monkeypatch.setitem(cli._COMMANDS, "forward", refused)
        cfg = write_cfg(tmp_path, "c.json")
        out = tmp_path / "fw"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "out of memory" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_walk_failing_after_its_histogram_writes_nothing(
            self, tmp_path, monkeypatch):
        def failing(*args):
            raise FloatingPointError("overflow in the master step")

        monkeypatch.setattr(cli, "master_step", failing)
        cfg = write_cfg(tmp_path, "w.json",
                        task={"K": 8, "steps": 2, "particles": 1000})
        out = tmp_path / "walk"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 4
        assert not out.exists()


class TestGammaFromFile:
    def test_dn_gamma_csv_reproduces_dn_matrix(self, tmp_path):
        grid = {"N": 256}
        cfg = write_cfg(tmp_path, "dn.json", grid=grid, seed=1,
                        gamma={"profile": "random", "width": 0.15})
        assert run(["dn", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        gamma_csv = tmp_path / "a" / "gamma.csv"
        cfg = write_cfg(tmp_path, "ff.json", grid=grid,
                        gamma={"profile": "from-file",
                               "path": str(gamma_csv)})
        assert run(["dn", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a, b = (np.loadtxt(tmp_path / d / "dn_matrix.csv", delimiter=",",
                           skiprows=1) for d in "ab")
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(a))
        gam_a, gam_b = (np.loadtxt(tmp_path / d / "gamma.csv", delimiter=",",
                                   skiprows=1) for d in "ab")
        assert np.max(np.abs(gam_a - gam_b)) <= 1e-13


class TestMalformedInputCsv:
    """An input CSV that is not a numeric table of the expected shape, or a
    gamma that is not positive on omega, is a config error (exit 2) with a
    one-line message naming the file."""

    @staticmethod
    def assert_rejected(code, capsys, path):
        err = capsys.readouterr().err
        assert code == 2
        assert str(path) in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("body", ["x\n0.5\n0.25\n",
                                      "x,gamma\n0.5,one\n",
                                      "x,gamma\n0.5,1.0\n"] + [
        # node 30 of N=64 lies in omega
        "x,gamma\n" + "0,1\n" * 30 + f"0,{value}\n" + "0,1\n" * 33
        for value in ("0", "-0.5", "nan")])
    def test_forward_gamma_from_file(self, tmp_path, capsys, body):
        bad = tmp_path / "gamma.csv"
        # one column / not numeric / wrong length / zero, negative or NaN
        # on omega
        bad.write_text(body)
        cfg = write_cfg(tmp_path, "c.json",
                        gamma={"profile": "from-file", "path": str(bad)})
        code = run(["forward", "--config", cfg, "--out", str(tmp_path / "fw")])
        self.assert_rejected(code, capsys, bad)

    @pytest.mark.parametrize("node, value", [(0, "0.5"), (63, "1.0000001"),
                                             (10, "nan")])
    def test_gamma_from_file_not_one_outside_omega(self, tmp_path, capsys,
                                                   node, value):
        # nodes 0-26 and 37-63 of N=64 lie outside omega
        rows = ["0,1\n"] * 64
        rows[node] = f"0,{value}\n"
        bad = tmp_path / "gamma.csv"
        bad.write_text("x,gamma\n" + "".join(rows))
        cfg = write_cfg(tmp_path, "c.json",
                        gamma={"profile": "from-file", "path": str(bad)})
        code = run(["dn", "--config", cfg, "--out", str(tmp_path / "dn")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and f"node {node} " in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "dn" / "manifest.json").exists()

    def test_invert_observed_dn_not_numeric(self, tmp_path, capsys):
        bad = tmp_path / "dn_matrix.csv"
        bad.write_text("src0,src1\n1.0,abc\n")
        cfg = write_cfg(tmp_path, "inv.json", gamma={"profile": "constant"},
                        task={"observed_dn": str(bad)})
        code = run(["invert", "--config", cfg, "--out", str(tmp_path / "inv")])
        self.assert_rejected(code, capsys, bad)

    @pytest.mark.parametrize("body", ["x\n0.5\n", "x,gamma\n0.5,?\n"])
    def test_invert_truth_gamma(self, tmp_path, capsys, body):
        cfg = write_cfg(tmp_path, "dn.json")
        dn_out = tmp_path / "dn"
        assert run(["dn", "--config", cfg, "--out", str(dn_out)]) == 0
        capsys.readouterr()
        bad = tmp_path / "truth.csv"
        bad.write_text(body)
        inv_cfg = write_cfg(
            tmp_path, "inv.json", gamma={"profile": "constant"},
            task={"observed_dn": str(dn_out / "dn_matrix.csv"),
                  "truth_gamma": str(bad)})
        code = run(["invert", "--config", inv_cfg,
                    "--out", str(tmp_path / "inv")])
        self.assert_rejected(code, capsys, bad)


class TestReduceCommand:
    def test_checks_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json",
                        grid={"omega": [-0.3, 0.3]}, gamma={"width": 0.2})
        out = tmp_path / "red"
        assert run(["reduce", "--config", cfg, "--out", str(out)]) == 0
        checks = manifest(out)["checks"]
        assert checks["reduction_residual"]["value"] <= 1e-10
        assert checks["dn_gap_identity"]["value"] <= 1e-9

    # gamma - 1 of size 1e-6 and 1e-10: right shrinks with it, while
    # |left - right| stays the round-off (1-2e-15) of two pairings of size
    # ~0.88, which the 1e-9 relative bound alone cannot absorb
    NEAR_CONSTANT = {"grid": {"N": 256}, "gamma": {"profile": "random",
                                                   "width": 0.15}}

    @pytest.mark.parametrize("amplitude", [1e-6, 1e-10])
    def test_gap_identity_near_constant_gamma(self, tmp_path, amplitude):
        cfg = write_cfg(tmp_path, "c.json", grid=self.NEAR_CONSTANT["grid"],
                        gamma=dict(self.NEAR_CONSTANT["gamma"],
                                   amplitude=amplitude))
        out = tmp_path / "red"
        assert run(["reduce", "--config", cfg, "--out", str(out)]) == 0
        m = manifest(out)
        gap = m["checks"]["dn_gap_identity"]
        assert gap["pass"]
        left, right = np.loadtxt(out / "reduction.csv", delimiter=",",
                                 skiprows=1)[1:]
        assert gap["value"] == abs(left - right) / abs(right)
        diag = m["diagnostics"]
        assert left == diag["dn_pairing_q"] - diag["dn_pairing_gamma"]
        assert diag["kernel_row_blocks"] == 1

    def test_pool_size_moves_no_byte(self, tmp_path, monkeypatch):
        # the reduction pass on one worker and on two writes the same table
        import fraccond.forward

        cfg = write_cfg(tmp_path, "c.json", grid={"N": 1000},
                        gamma={"profile": "random", "width": 0.15})
        for workers in (1, 2):
            monkeypatch.setattr(fraccond.forward, "MAX_WORKERS", workers)
            out = tmp_path / f"w{workers}"
            assert run(["reduce", "--config", cfg, "--out", str(out)]) == 0
            diag = manifest(out)["diagnostics"]
            assert diag["reduction_workers"] == workers
            assert diag["kernel_row_blocks"] == 4
        assert (tmp_path / "w1" / "reduction.csv").read_bytes() \
            == (tmp_path / "w2" / "reduction.csv").read_bytes()
        assert manifest(tmp_path / "w1")["checks"] \
            == manifest(tmp_path / "w2")["checks"]

    @pytest.mark.xfail(strict=True, reason=(
        "at s near 1 with a nearly constant gamma the 16 eps (|P_q| + "
        "|P_gamma|) floor does not cover the pairings' round-off from the "
        "h^{-2s} row sums: dn_gap_identity reads 7.9e-9 against 1e-9"))
    def test_gap_identity_near_constant_gamma_at_s_099(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", grid={"N": 1024},
                        frac={"s": 0.99}, seed=2,
                        gamma={"profile": "random", "amplitude": 1e-3,
                               "width": 0.15})
        assert run(["reduce", "--config", cfg, "--out",
                    str(tmp_path / "red")]) == 0

    def test_gap_identity_off_by_1e8_fails(self, tmp_path, monkeypatch):
        import dataclasses

        real = cli.verify_reduction

        def pushed(*args):
            check = real(*args)
            return dataclasses.replace(
                check, gap_left=check.gap_left + 1e-8 * abs(check.gap_right))

        monkeypatch.setattr(cli, "verify_reduction", pushed)
        cfg = write_cfg(tmp_path, "c.json", grid=self.NEAR_CONSTANT["grid"],
                        gamma=dict(self.NEAR_CONSTANT["gamma"], amplitude=0.3))
        out = tmp_path / "red"
        assert run(["reduce", "--config", cfg, "--out", str(out)]) == 4
        gap = manifest(out)["checks"]["dn_gap_identity"]
        assert not gap["pass"]
        assert gap["value"] == pytest.approx(1e-8, rel=1e-3)


class TestWalkCommand:
    WALK = {
        "grid": {"L": 6.0, "N": 257, "omega": [-2.0, 2.0]},
        "gamma": {"profile": "bump", "amplitude": 0.3, "width": 1.0},
        "task": {"K": 16, "steps": 6, "particles": 100000},
    }

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        # the rerun in a new interpreter: no output depends on the process
        cfg = write_cfg(tmp_path, "w.json", **self.WALK)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(["walk", "--config", cfg, "--out", str(out1)]) == 0
        subprocess.run([sys.executable, "-m", "fraccond", "walk", "--config",
                        cfg, "--out", str(out2)], env=checkout_env(),
                       check=True, capture_output=True)
        csvs = manifest(out1)["outputs"]
        assert "histogram_0006.csv" in csvs and csvs == manifest(out2)["outputs"]
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", **self.WALK)
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(["walk", "--config", cfg, "--out", str(out1)]) == 0
        assert run(["walk", "--config", cfg, "--out", str(out2),
                    "--seed", "77"]) == 0
        f1 = (out1 / "histogram_0006.csv").read_bytes()
        f2 = (out2 / "histogram_0006.csv").read_bytes()
        assert f1 != f2
        assert manifest(out2)["seed"] == 77

    @pytest.mark.parametrize("compare", [True, False])
    def test_compare_master_is_a_bool(self, tmp_path, compare):
        conf = dict(self.WALK, task=dict(self.WALK["task"],
                                         compare_master=compare))
        cfg = write_cfg(tmp_path, "w.json", **conf)
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert "histogram_0006.csv" in names
        assert ("master_0006.csv" in names) is compare
        assert ("transpose_0006.csv" in names) is compare
        assert ("mc_transpose_tv" in manifest(out)["checks"]) is compare

    def test_tv_checks_recorded(self, tmp_path):
        conf = dict(self.WALK)
        conf["gamma"] = {"profile": "constant"}
        cfg = write_cfg(tmp_path, "w.json", **conf)
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        checks = manifest(out)["checks"]
        assert checks["mc_master_tv"]["pass"]
        assert checks["mc_transpose_tv"]["pass"]
        assert "tail_mass_fraction" not in checks

    @pytest.mark.parametrize("K", [16, None])
    def test_cutoff_and_tail_mass_in_diagnostics(self, tmp_path, K):
        task = {"steps": 2, "particles": 1000, "compare_master": False}
        if K is not None:
            task["K"] = K
        cfg = write_cfg(tmp_path, "w.json", **dict(self.WALK, task=task))
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        diag = manifest(out)["diagnostics"]
        used = default_jump_cutoff(0.5) if K is None else K
        assert diag["jump_cutoff"] == used
        wp = WalkParams(1.0, used, 0.5, np.ones(1))
        assert diag["tail_mass_fraction"] == truncation_tail_mass(wp)

    def test_variable_gamma_checks_transpose_form(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", **self.WALK)
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        checks = manifest(out)["checks"]
        assert checks["mc_transpose_tv"]["pass"]
        assert "mc_master_tv" not in checks

    # 20000 particles at the default cutoff: a correct run whose histogram
    # is 0.0245 in total variation from the transpose evolution, above the
    # old fixed bound of 0.02 but inside its sampling noise (about 0.023)
    SMALL = {
        "grid": {"L": 1.0, "N": 129, "omega": [-0.15, 0.15]},
        "gamma": {"profile": "random", "amplitude": 0.3, "width": 0.15},
        "task": {"steps": 5, "particles": 20000},
        "seed": 7,
    }

    def test_tv_bound_follows_particle_count(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", **self.SMALL)
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        check = manifest(out)["checks"]["mc_transpose_tv"]
        assert check["pass"] and check["value"] > 0.02
        assert "20000 particles" in check["criterion"]

    def test_tv_bound_rejects_a_shifted_histogram(self, tmp_path):
        cfg = write_cfg(tmp_path, "w.json", **self.SMALL)
        out = tmp_path / "w"
        assert run(["walk", "--config", cfg, "--out", str(out)]) == 0
        v = np.loadtxt(out / "transpose_0005.csv", delimiter=",", skiprows=1)[:, 1]
        bound = cli._mc_tv_bound(v, 20000)
        assert bound > 0.02
        assert cli._tv_check(v, v, bound, 20000)["pass"]
        assert not cli._tv_check(np.roll(v, 1), v, bound, 20000)["pass"]


class TestLimitsCommand:
    def test_grad_study_writes_table(self, tmp_path):
        cfg = write_cfg(tmp_path, "l.json",
                        grid={"L": 12.0, "N": 512, "omega": [-4.0, 4.0]},
                        gamma={"profile": "constant"},
                        task={"study": "grad", "s_list": [0.8, 0.9]})
        out = tmp_path / "lim"
        assert run(["limits", "--config", cfg, "--out", str(out)]) == 0
        tab = np.loadtxt(out / "limit_grad.csv", delimiter=",", skiprows=1)
        assert tab.shape[0] == 2
        assert manifest(out)["checks"]["grad_gap_monotone"]["pass"]

    def test_study_all_writes_each_single_study(self, tmp_path):
        for study in ("all", "grad", "bilinear", "operator"):
            cfg = write_cfg(tmp_path, f"{study}.json",
                            grid={"L": 12.0, "N": 64, "omega": [-4.0, 4.0]},
                            gamma={"profile": "constant"},
                            task={"study": study, "s_list": [0.6, 0.95]})
            assert run(["limits", "--config", cfg,
                        "--out", str(tmp_path / study)]) == 0
        for study in ("grad", "bilinear", "operator"):
            name = f"limit_{study}.csv"
            assert (tmp_path / "all" / name).read_bytes() \
                == (tmp_path / study / name).read_bytes(), name


class TestDecayCheck:
    """decay_halving: the final magnitude at most half the first over an
    s_list spanning at least 0.35 in s (the default list's span), below the
    first over a narrower one."""

    @pytest.mark.parametrize("L, s_list, ratio, code", [
        (12.0, [0.6, 0.61], 0.989, 0),  # exited 4 under the halving rule
        (12.0, [0.1, 0.2], 1.207, 4),  # the magnitude grows
        (1.0, [0.6, 0.8, 0.9, 0.95], 0.753, 4),  # below the first, not half
    ])
    def test_rule_by_span(self, tmp_path, L, s_list, ratio, code):
        cfg = write_cfg(tmp_path, "l.json",
                        grid={"L": L, "N": 64, "omega": [-L / 3, L / 3]},
                        gamma={"profile": "constant"},
                        task={"study": "decay", "s_list": s_list})
        out = tmp_path / "lim"
        assert run(["limits", "--config", cfg, "--out", str(out)]) == code
        check = manifest(out)["checks"]["decay_halving"]
        assert check["pass"] is (code == 0)
        assert check["value"] == pytest.approx(ratio, abs=1e-3)


class TestFractionalOrderRange:
    @pytest.mark.parametrize("command,overrides", [
        ("forward", {"frac": {"s": 0.995}}),
        ("forward", {"frac": {"s": 0.01}}),
        ("limits", {"task": {"study": "grad", "s_list": [0.8, 0.995]}}),
    ])
    def test_order_outside_range_exit_2(self, tmp_path, capsys, command,
                                        overrides):
        cfg = write_cfg(tmp_path, "c.json", **overrides)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "outside [0.05, 0.99]" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    # limits is left out: its decay_halving check is not meant for that span
    @pytest.mark.parametrize("s", [0.05, 0.99])
    @pytest.mark.parametrize("command", ["forward", "dn", "reduce", "walk"])
    def test_both_ends_of_the_range_run(self, tmp_path, command, s):
        cfg = write_cfg(tmp_path, "c.json", frac={"s": s}, seed=11,
                        gamma={"profile": "random", "width": 0.15},
                        task={"K": 8} if command == "walk" else {})
        assert run([command, "--config", cfg,
                    "--out", str(tmp_path / "o")]) == 0

    def test_non_numeric_order_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.json",
                        task={"study": "grad", "s_list": ["abc"]})
        assert run(["limits", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "is not a number" in capsys.readouterr().err


class TestNumericConfigValues:
    # invert's observed file does not exist: the task values are checked first
    INVERT = {"observed_dn": "missing/dn.csv"}

    @pytest.mark.parametrize("command,overrides", [
        ("forward", {"seed": "x"}),
        ("walk", {"task": {"steps": "x"}}),
        ("walk", {"task": {"particles": "x"}}),
        ("walk", {"task": {"K": "x"}}),
        ("walk", {"task": {"K": 0}}),
        ("walk", {"task": {"initial_site": "x"}}),
        ("invert", {"task": dict(INVERT, reg_lambda="x")}),
        ("invert", {"task": dict(INVERT, max_iter="x")}),
        ("invert", {"task": dict(INVERT, max_iter=0)}),
        ("invert", {"task": dict(INVERT, tol="x")}),
        ("invert", {"task": dict(INVERT, reg_lambda=float("nan"))}),
        ("forward", {"task": {"source": {"type": "unit", "node": "x"}}}),
        ("forward", {"task": {"source": {"type": "gaussian", "center": "x"}}}),
        ("forward", {"task": {"source": {"type": "gaussian", "width": "x"}}}),
        ("dn", {"task": {"W1": ["x", 1.0]}}),
        ("dn", {"task": {"W2": [-1.0, None]}}),
        ("forward", {"grid": {"omega": ["x", 0.15]}}),
        ("forward", {"grid": {"omega": [-0.15, None]}}),
        ("forward", {"grid": {"L": None}}),
        ("forward", {"frac": {"n": None}}),
        ("forward", {"gamma": {"amplitude": "x"}}),
        ("forward", {"gamma": {"center": "x"}}),
        ("forward", {"gamma": {"width": [0.1]}}),
        ("forward", {"gamma": {"profile": "double-bump", "separation": "x"}}),
        ("forward", {"task": {"source": "unit"}}),
        ("forward", {"grid": {"N": 32.7}}),
        ("forward", {"seed": 1.5}),
        ("walk", {"task": {"K": 4.5}}),
        ("invert", {"task": dict(INVERT, max_iter=2.5)}),
        ("forward", {"frac": {"n": 1.9}}),
        ("forward", {"frac": {"n": True}}),
        ("forward", {"grid": {"L": True}}),
        ("walk", {"task": {"steps": True}}),
        ("forward", {"gamma": []}),
        ("forward", {"gamma": None}),
        ("walk", {"task": {"compare_master": "no"}}),
        ("walk", {"task": {"compare_master": 0}}),
        ("invert", {"task": dict(INVERT, reg_lambda=float("inf"))}),
        # node 32 of N=64 lies in omega
        ("forward", {"task": {"source": {"type": "unit", "node": 32}}}),
        ("invert", {"task": dict(INVERT, tol=float("inf"))}),
        # a key the source type does not read
        ("forward", {"task": {"source": {"type": "unit", "typo": 1}}}),
        ("forward", {"task": {"source": {"type": "unit", "center": 0.5}}}),
        ("forward", {"task": {"source": {"type": "gaussian", "node": 3}}}),
        ("forward", {"task": {"source": {"node": 3}}}),
    ])
    def test_bad_value_exit_2(self, tmp_path, capsys, command, overrides):
        cfg = write_cfg(tmp_path, "c.json", **overrides)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,overrides", [
        ("walk", {"task": {"particles": -5}}),
        ("walk", {"task": {"particles": 0}}),
        ("walk", {"task": {"steps": -3}}),
        ("forward", {"task": {"source": {"type": "gaussian", "width": 0}}}),
        ("dn", {"frac": {"n": 2}}),
        ("limits", {"task": {"study": "decay", "s_list": []}}),
        ("limits", {"task": {"study": "decay", "s_list": 0.6}}),
        ("limits", {"task": {"study": "decay", "s_list": [0.95, 0.6]}}),
        ("limits", {"task": {"study": "decay", "s_list": [0.6, 0.6]}}),
        ("forward", {"gamma": {"profile": "bump", "width": 0}}),
        ("forward", {"gamma": {"profile": "random", "width": -0.1}}),
        # the walk's int32 particle keys reach (N + K) * BUCKETS
        ("walk", {"task": {"K": 2**21}}),
    ])
    def test_out_of_range_exit_2(self, tmp_path, capsys, command, overrides):
        cfg = write_cfg(tmp_path, "c.json", **overrides)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("gamma,key", [
        ({"profile": "bump", "separation": 3.0}, "separation"),
        ({"profile": "random", "separation": 0.4}, "separation"),
        ({"profile": "bump", "path": "nonexist"}, "path"),
        ({"profile": "double-bump", "path": "gamma.csv"}, "path"),
        ({"profile": "constant", "amplitude": 0.3}, "amplitude"),
        ({"profile": "constant", "width": 0.1}, "width"),
        ({"profile": "from-file", "path": "gamma.csv", "center": 0.0},
         "center"),
    ])
    def test_key_the_profile_does_not_read_exit_2(self, tmp_path, capsys,
                                                  gamma, key):
        cfg = write_cfg(tmp_path, "c.json", gamma=gamma)
        out = tmp_path / "o"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert repr(key) in err and repr(gamma["profile"]) in err
        assert not out.exists()

    @pytest.mark.parametrize("command,overrides,key", [
        ("invert", {"task": {"observed_dn": ["a"]}}, "task.observed_dn"),
        ("invert", {"task": {"observed_dn": 5}}, "task.observed_dn"),
        ("invert", {"task": {"observed_dn": "missing/dn.csv",
                             "truth_gamma": {"file": "g.csv"}}},
         "task.truth_gamma"),
        ("forward", {"gamma": {"profile": "from-file", "path": 5}},
         "gamma.path"),
        ("forward", {"gamma": {"profile": "from-file", "path": ["g.csv"]}},
         "gamma.path"),
    ])
    def test_path_not_a_string_exit_2(self, tmp_path, capsys, command,
                                      overrides, key):
        cfg = write_cfg(tmp_path, "c.json", **overrides)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be a string" in err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "manifest.json").exists()

    def test_output_dir_not_a_string_exit_2(self, tmp_path, capsys,
                                            monkeypatch):
        # without --out the config's output_dir names the directory
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, "c.json", output_dir=5)
        assert run(["forward", "--config", cfg]) == 2
        assert "output_dir must be a string" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.json", grid={"N": 32.0}, frac={"n": 1.0},
                        seed=3.0)
        out = tmp_path / "o"
        assert run(["forward", "--config", cfg, "--out", str(out)]) == 0
        assert len(np.loadtxt(out / "solution.csv", delimiter=",",
                              skiprows=1)) == 32


class TestConfigSchema:
    def test_schema_file_lists_the_cli_keys(self):
        path = os.path.join(os.path.dirname(cli.__file__),
                            "config_schema_v1.json")
        with open(path) as fh:
            blocks = json.load(fh)["blocks"]
        assert set(blocks) == cli._TOP_KEYS
        assert set(blocks["grid"]["keys"]) == cli._GRID_KEYS
        assert set(blocks["frac"]["keys"]) == cli._FRAC_KEYS
        assert set(blocks["gamma"]["keys"]) == cli._GAMMA_KEYS
        assert {command: set(keys) for command, keys
                in blocks["task"]["per_command_keys"].items()} == cli._TASK_KEYS


class TestDeterministicReruns:
    @pytest.mark.parametrize("command,extra", [
        ("forward", {"task": {"source": {"type": "gaussian"}}}),
        ("dn", {}),
        ("reduce", {}),
        ("walk", {"task": {"K": 8, "steps": 5, "particles": 20000}}),
        ("limits", {"grid": {"L": 12.0, "omega": [-4.0, 4.0]},
                    "task": {"s_list": [0.6, 0.95]}}),
        # the observed data of a dn run of BASE, made in the test
        ("invert", {"gamma": {"profile": "constant"},
                    "task": {"observed_dn": "dn/dn_matrix.csv"}}),
    ])
    def test_data_files_reproduce(self, tmp_path, monkeypatch, command,
                                  extra):
        monkeypatch.chdir(tmp_path)
        if command == "invert":
            assert run(["dn", "--config", write_cfg(tmp_path, "dn.json"),
                        "--out", "dn"]) == 0
        cfg = write_cfg(tmp_path, "c.json", **extra)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run([command, "--config", cfg, "--out", str(out1)]) == 0
        assert run([command, "--config", cfg, "--out", str(out2)]) == 0
        csvs = [name for name in os.listdir(out1) if name.endswith(".csv")]
        assert csvs and sorted(csvs) == manifest(out1)["outputs"]
        for name in csvs:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_wall_clock_is_a_monotonic_duration(self, tmp_path, monkeypatch):
        # a system clock stepped back by an hour per reading during the run
        readings = iter(range(2 * 10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(readings)))
        cfg = write_cfg(tmp_path, "c.json")
        assert run(["forward", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert manifest(tmp_path)["wall_clock_s"] >= 0.0
