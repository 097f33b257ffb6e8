"""Benchmark of the fraccond command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An op is what a user runs: one fresh ``python -m fraccond <command>``
process, or two in a row for ``verify-4096``, on inputs generated from
--seed.  Ops run one at a time, a closed loop with one client, until their
summed wall time is nearest to --seconds.  Every op's outputs are checked
untimed and then deleted.  --trace 1 runs each op twice, once as above and
once in perfbench/child.py with spans around fraccond's public functions,
and reports per-layer numbers instead.  The report goes to standard
output; its last line is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
# no op starts after DEADLINE_S and every process is killed at KILL_S, so a
# run ends inside 180 s
DEADLINE_S = 140.0
KILL_S = 170.0
FMT = "%.17g"
S = 0.5
L = 1.0
OMEGA = (-0.15, 0.15)
RANDOM_GAMMA = {"profile": "random", "amplitude": 0.3, "width": OMEGA[1]}
DN_RTOL = 1e-10  # dn_matrix.csv against reference.dn_matrix, relative to max |entry|
ECHO_TOL = 1e-12  # a manifest value against the benchmark's recomputation of it


class SetupError(RuntimeError):
    pass


@dataclass
class Op:
    index: int
    commands: list  # fraccond argument lists, one process each
    outdirs: list
    data: dict = field(default_factory=dict)


@dataclass
class OpResult:
    traced: bool
    wall_s: float
    rss_mb: float
    codes: list
    errors: list  # the benchmark's checks that failed: the op failed
    gamma_err: float | None = None
    layers: dict | None = None

    @property
    def failed(self) -> bool:
        return bool(self.errors)

    @property
    def fail_counted(self) -> bool:
        """Counted in fail_ratio: a non-zero exit or a failed check."""
        return self.failed or any(self.codes)


def config(N, L, omega, task, seed, gamma=None) -> dict:
    cfg = {"schema": "fraccond-config-v1",
           "grid": {"L": L, "N": N, "omega": list(omega)},
           "frac": {"s": S}, "task": task, "seed": int(seed)}
    if gamma is not None:
        cfg["gamma"] = gamma
    return cfg


def write_json(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))
    return str(path)


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_command(outdir: Path, code: int, tolerated=frozenset()) -> tuple[list, dict]:
    """Exit code, manifest and listed outputs agree with one another, and
    every failed CLI check is one the workload tolerates."""
    if code not in (0, 4):
        return [f"exit code {code}"], {}
    path = outdir / "manifest.json"
    if not path.exists():
        return [f"exit code {code} and no manifest"], {}
    man = json.loads(path.read_text())
    errors = []
    failed_checks = [k for k, v in man["checks"].items() if not v["pass"]]
    if (code == 4) != bool(failed_checks):
        errors.append(f"exit code {code} but failed checks {failed_checks}")
    errors += [f"CLI check {k} failed" for k in failed_checks if k not in tolerated]
    errors += [f"missing output {n}" for n in man["outputs"]
               if not (outdir / n).exists()]
    return errors, man


# ------------------------------------------------------------ workloads

class Workload:
    """Inputs and output checks of one workload.

    pass_size > 1 makes a run measure whole passes of that many ops."""

    name = ""
    pass_size = 1
    # CLI checks whose failure is a measured outcome of the op, not an error
    tolerated = frozenset()

    def __init__(self, work: Path, seed: int, tiny: bool):
        self.work = work
        self.seed = seed
        self.tiny = tiny

    def op_seed(self, *key) -> int:
        """Seed of one op's input, distinct for every (run seed, op) pair."""
        ss = np.random.SeedSequence([self.seed, zlib.crc32(self.name.encode()), *key])
        return int(ss.generate_state(1)[0])

    def inputs(self, p: int) -> list:
        """fraccond commands that make the program-made inputs of pass p."""
        return []

    def prepare(self, k: int) -> Op:
        """Op k: its generated input files and the reference values its
        checks compare against."""
        raise NotImplementedError

    def check(self, op: Op, codes: list) -> tuple[list, float | None]:
        """(failed checks, recovery error) of one op's outputs."""
        errors, manifests = [], []
        for outdir, code in zip(op.outdirs, codes):
            errs, man = check_command(outdir, code, self.tolerated)
            errors += errs
            manifests.append(man)
        return (errors, None) if errors else self.check_outputs(op, manifests)

    def check_outputs(self, op: Op, manifests: list) -> tuple[list, float | None]:
        return [], None

    def argv(self, command: str, cfg: dict, k: int, tag: str = "") -> tuple:
        d = self.work / f"op{k:04d}"
        path = write_json(d / f"{command}{tag}.json", cfg)
        out = d / f"{command}{tag}_out"
        return [command, "--config", path, "--out", str(out)], out


class DnWorkload(Workload):
    """dn on W1 = W2 = exterior; each op writes its DN matrix as CSV."""

    name = "dn-1024"

    def __init__(self, *a):
        super().__init__(*a)
        self.N = 64 if self.tiny else 1024
        self.x = np.linspace(-L, L, self.N)

    def prepare(self, k):
        sd = self.op_seed(k)
        gamma = reference.random_conductivity(self.x, OMEGA, np.random.default_rng(sd))
        gpath = self.work / f"op{k:04d}" / "gamma_in.csv"
        gpath.parent.mkdir(parents=True, exist_ok=True)
        np.savetxt(gpath, np.column_stack([self.x, gamma]), fmt=FMT,
                   delimiter=",", header="x,gamma", comments="")
        cfg = config(self.N, L, OMEGA, {"W1": "exterior", "W2": "exterior"},
                     sd, {"profile": "from-file", "path": str(gpath)})
        argv, out = self.argv("dn", cfg, k)
        want = reference.dn_matrix(self.x, OMEGA, L, S, gamma)
        return Op(k, [argv], [out], {"want": want})

    def check_outputs(self, op, manifests):
        got = read_csv(op.outdirs[0] / "dn_matrix.csv")
        want = op.data["want"]
        if got.shape != want.shape:
            return [f"dn_matrix.csv shape {got.shape} != {want.shape}"], None
        rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
        if not rel <= DN_RTOL:
            return [f"dn_matrix.csv differs from the reference by {rel:.3g} "
                    f"relative (tolerance {DN_RTOL:g})"], None
        return [], None


class InvertWorkload(Workload):
    """invert on DN data that ``fraccond dn`` makes before the ops.

    The conductivities are the CLI's ``random`` profile with the fixed
    panel seeds 0-3, each op's amplitude moved by a seeded 1e-3 relative
    jitter so that no two ops share an input.  Op time is set by the
    Gauss-Newton iteration count, which is 11-40 across these four and
    varies as widely across random profiles in general; a run of a few
    ops drawn freshly per seed would spread by 25-35 % between seeds.  A
    run therefore measures whole passes over the panel, in a seeded order.
    """

    name = "invert-256"
    PANEL = (0, 1, 2, 3)
    JITTER = 1e-3
    pass_size = len(PANEL)
    # the 1 % recovery gate and the iteration cap: half the panel misses
    # them today (ROADMAP item 3), which fail_ratio and gamma_err show
    tolerated = frozenset({"recovery_error", "converged", "data_residual"})

    def __init__(self, *a):
        super().__init__(*a)
        self.N = 32 if self.tiny else 256

    def inputs(self, p):
        order = np.random.default_rng(self.op_seed(p)).permutation(self.PANEL)
        commands = []
        for j, panel_seed in enumerate(order):
            k = p * self.pass_size + j
            jitter = np.random.default_rng(self.op_seed(k, 1)).uniform(-1.0, 1.0)
            gamma = dict(RANDOM_GAMMA,
                         amplitude=RANDOM_GAMMA["amplitude"] * (1.0 + self.JITTER * jitter))
            cfg = config(self.N, L, OMEGA, {"W1": "exterior", "W2": "exterior"},
                         panel_seed, gamma)
            commands.append(self.argv("dn", cfg, k, tag="_input")[0])
        return commands

    def prepare(self, k):
        src = self.work / f"op{k:04d}" / "dn_input_out"
        task = {"observed_dn": str(src / "dn_matrix.csv"),
                "truth_gamma": str(src / "gamma.csv")}
        argv, out = self.argv("invert", config(self.N, L, OMEGA, task, 0), k)
        return Op(k, [argv], [out], {"truth": src / "gamma.csv"})

    def check_outputs(self, op, manifests):
        rec = manifests[0]["checks"].get("recovery_error")
        if rec is None:
            return ["no recovery_error in manifest"], None
        truth = read_csv(op.data["truth"])[:, 1]
        got = read_csv(op.outdirs[0] / "recovered_gamma.csv")[:, 1]
        err = float(np.max(np.abs(got - truth)) / np.max(np.abs(truth)))
        if abs(err - rec["value"]) > ECHO_TOL * max(1.0, err):
            return [f"manifest recovery_error {rec['value']} != {err}"], err
        return [], err


class WalkWorkload(Workload):
    """walk with the Monte Carlo ensemble and both master equations."""

    name = "walk-513"
    STEPS = 10

    def __init__(self, *a):
        super().__init__(*a)
        self.N, self.K, self.particles = (65, 4, 20_000) if self.tiny else (513, 16, 1_000_000)

    def prepare(self, k):
        sd = self.op_seed(k)
        task = {"K": self.K, "steps": self.STEPS, "particles": self.particles,
                "compare_master": True}
        argv, out = self.argv("walk", config(self.N, L, OMEGA, task, sd, RANDOM_GAMMA), k)
        return Op(k, [argv], [out])

    def check_outputs(self, op, manifests):
        out, errors = op.outdirs[0], []
        hist = read_csv(out / f"histogram_{self.STEPS:04d}.csv")[:, 1]
        trans = read_csv(out / f"transpose_{self.STEPS:04d}.csv")[:, 1]
        if np.any(hist < 0) or hist.sum() > 1.0 + 1e-12:
            errors.append("histogram is not a sub-probability")
        tv = 0.5 * float(np.sum(np.abs(hist - trans)))
        if abs(tv - manifests[0]["checks"]["mc_transpose_tv"]["value"]) > ECHO_TOL:
            errors.append(f"manifest mc_transpose_tv != {tv}")
        return errors, None


class VerifyWorkload(Workload):
    """reduce at N=4096, then limits (study all, default s_list)."""

    name = "verify-4096"

    def __init__(self, *a):
        super().__init__(*a)
        self.N = 64 if self.tiny else 4096
        self.limits_task = {"study": "all"}
        if self.tiny:
            self.limits_task["s_list"] = [0.6, 0.95]

    def prepare(self, k):
        sd = self.op_seed(k)
        reduce_argv, reduce_out = self.argv(
            "reduce", config(self.N, L, OMEGA, {}, sd, RANDOM_GAMMA), k)
        # limits reads only L and omega from the grid block; the jitter
        # keeps each op's input distinct
        half = 4.0 * (1.0 + 1e-3 * np.random.default_rng(sd).uniform(-1.0, 1.0))
        limits_argv, limits_out = self.argv(
            "limits", config(64, 12.0, (-half, half), self.limits_task, sd), k)
        return Op(k, [reduce_argv, limits_argv], [reduce_out, limits_out])

    def check_outputs(self, op, manifests):
        row = read_csv(op.outdirs[0] / "reduction.csv")[0]
        if abs(row[0] - manifests[0]["checks"]["reduction_residual"]["value"]) > ECHO_TOL:
            return ["manifest reduction_residual != reduction.csv"], None
        return [], None


WORKLOADS = {w.name: w for w in (DnWorkload, InvertWorkload, WalkWorkload, VerifyWorkload)}


# ------------------------------------------------------------ processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, log: Path, deadline: float) -> tuple[float, float, int]:
    """Run one process to its end: (wall s, peak RSS MB, exit code)."""
    log.parent.mkdir(parents=True, exist_ok=True)
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                             env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, p.returncode


def run_child(commands: list, path: Path, deadline: float, spans=None, op=0):
    """perfbench/child.py on a list of fraccond argument lists."""
    argv = [sys.executable, str(HERE / "child.py"), write_json(path, commands)]
    if spans is not None:
        argv += ["--spans", str(spans), "--op", str(op)]
    return spawn(argv, path.with_suffix(".log"), deadline)


def execute(wl: Workload, op: Op, traced: bool, deadline: float) -> OpResult:
    """Run an op's processes, then check and delete their outputs."""
    wall, rss, codes, processes = 0.0, 0.0, [], []
    for j, args in enumerate(op.commands):
        tag = f"{'traced' if traced else 'plain'}{j}"
        log = wl.work / f"op{op.index:04d}" / f"{tag}.log"
        if traced:
            spans = log.with_suffix(".spans.json")
            w, r, c = run_child([args], log.with_suffix(".cmds.json"), deadline,
                                spans=spans, op=op.index)
            if spans.exists():
                processes.append(json.loads(spans.read_text())["spans"])
        else:
            w, r, c = spawn([sys.executable, "-m", "fraccond", *args], log, deadline)
        wall, rss = wall + w, max(rss, r)
        codes.append(c)
    return finish(wl, op, OpResult(traced, wall, rss, codes, []), processes)


def finish(wl: Workload, op: Op, res: OpResult, processes=()) -> OpResult:
    """The untimed part of an op: output checks, then removal of outputs."""
    res.errors, res.gamma_err = wl.check(op, res.codes)
    if res.traced and len(processes) == len(op.commands):
        res.layers = tracing.op_layers(list(processes), res.wall_s)
    elif res.traced:
        res.errors.append("traced process wrote no spans")
    for out in op.outdirs:
        shutil.rmtree(out, ignore_errors=True)
    return res


# ------------------------------------------------------------ one run

def set_up(wl: Workload, deadline: float) -> tuple[list, list]:
    """Inputs and references of the first pass, made SETUP_REPEATS times:
    the generated files and reference values (Workload.prepare), then one
    fresh interpreter that imports fraccond and runs the commands making
    the program-made inputs.  Returns the times and the last pass's ops."""
    times = []
    for r in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = [wl.prepare(k) for k in range(wl.pass_size)]
        path = wl.work / "setup" / f"commands{r}.json"
        _, _, code = run_child(wl.inputs(0), path, deadline)
        times.append(time.perf_counter() - t0)
        if code != 0:
            log = path.with_suffix(".log").read_text(errors="replace")
            raise SetupError(f"set-up exited with {code}:\n{log[-2000:]}")
    return times, ops


def measure(wl: Workload, seconds: float, trace: bool, t_start: float,
            ready: list) -> list:
    """Ops until the measured time is spent; ``ready`` holds the first
    pass's ops, made in set-up.  Later passes are made here, untimed."""
    deadline = t_start + KILL_S
    results, measured, k = [], 0.0, 0
    while True:
        late = time.monotonic() - t_start >= DEADLINE_S
        passes, rest = divmod(k, wl.pass_size)
        # stop at the pass boundary nearest to `seconds` of measured time
        if k and (late or (rest == 0 and measured * (1 + 0.5 / passes) >= seconds)):
            break
        commands = wl.inputs(passes) if k and rest == 0 else []
        if commands:
            path = wl.work / "setup" / f"pass{passes}.json"
            if run_child(commands, path, deadline)[2] != 0:
                raise SetupError(f"input generation for the ops from {k} on failed")
        op = ready[k] if k < len(ready) else wl.prepare(k)
        order = (False, True) if k % 2 == 0 else (True, False)
        for traced in (order if trace else (False,)):
            res = execute(wl, op, traced, deadline)
            results.append(res)
            measured += res.wall_s
            status = "ok" if not res.errors else "FAILED: " + "; ".join(res.errors)
            print(f"  op {k}{' traced' if traced else ''}: {res.wall_s:.3f} s, "
                  f"peak RSS {res.rss_mb:.1f} MB, exit {res.codes}, {status}")
        shutil.rmtree(wl.work / f"op{k:04d}", ignore_errors=True)
        k += 1
    return results


def end_to_end(plain: list, setup_times: list) -> dict:
    walls = [r.wall_s for r in plain]
    return {
        "op_s.p50": (statistics.median(walls), "s"),
        "ops_per_s": (len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (max(r.rss_mb for r in plain), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def quality(results: list) -> dict:
    """fail_ratio: ops that exited non-zero or failed a check, over ops
    attempted; gamma_err: median recovery error of the invert ops."""
    errs = [r.gamma_err for r in results if r.gamma_err is not None]
    return {
        "fail_ratio": (sum(r.fail_counted for r in results) / len(results), "ratio"),
        "gamma_err": (statistics.median(errs) if errs else 0.0, "ratio"),
    }


def per_layer(results: list) -> dict:
    plain = [r.wall_s for r in results if not r.traced]
    traced = [r for r in results if r.traced and r.layers is not None]
    m = tracing.layer_metrics([r.layers for r in traced])
    m["trace.overhead_s"] = (statistics.median([r.wall_s for r in traced])
                             - statistics.median(plain), "s")
    m.update(quality(results))
    return m


def machine() -> str:
    """nproc, versions, numpy's BLAS build and the BLAS thread setting.

    No thread-count variable is set by the benchmark, so OpenBLAS runs its
    default of one thread per CPU unless the environment below says else."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = " ".join(f"{k}={os.environ[k]}" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                   if k in os.environ) or "blas_threads=default"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={importlib.metadata.version('scipy')} "
            f"blas=\"{blas.get('openblas configuration', blas.get('name'))}\" {env}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = p.parse_args(argv)
    # a terminated run still stops its child process and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "fraccond" / "cli.py").is_file():
        print(f"perfbench: no fraccond sources under {SRC}", file=sys.stderr)
        return 2
    t_start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"machine: {machine()}")
    try:
        setup_times, ready = set_up(wl, t_start + KILL_S)
        print("set-up: " + ", ".join(f"{t:.3f} s" for t in setup_times))
        results = measure(wl, args.seconds, bool(args.trace), t_start, ready)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in results if not r.traced]
    e2e = end_to_end(plain, setup_times)
    layers = per_layer(results) if args.trace else {}
    for name, (value, unit) in {**e2e, **quality(plain), **layers}.items():
        n = SETUP_REPEATS if name == "setup_s" else len(plain)
        print(f"{name} = {value:.6g} {unit} ({n} {'set-ups' if name == 'setup_s' else 'ops'})")
    failed = sum(r.failed for r in results)
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
