"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# every figure the report prints for a workload, with its unit
REPORTED = {"op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB",
            "fail_ratio": "ratio", "gamma_err": "ratio", "setup_s": "s"}
# a layer metric that must be non-zero where that layer runs
LAYER_RUNS = {
    "dn-1024": ("cli.write_mb", "forward.dn_from_operator.s", "core.kernel_matrix.calls"),
    "invert-256": ("cli.read_mb", "inverse.trials", "inverse.gn_steps", "inverse.peak_mb"),
    "walk-513": ("walk.simulate.s", "walk.particle_steps_per_s", "walk.outgoing_table.calls"),
    "verify-4096": ("operators.bilinear_form.pairs", "forward.verify_reduction.s",
                    "limits.n_used_max", "limits.grad.s"),
}


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(workload, trace):
    out = bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", trace, "--tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, unit in REPORTED.items():
        assert any(ln.startswith(f"{name} = ") and f" {unit} (" in ln for ln in lines), name
    if trace == "1":
        for name in LAYER_RUNS[workload]:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("corrupt", [False, True])
def test_corrupted_dn_output_is_a_failed_op(tmp_path, corrupt):
    wl = run.DnWorkload(tmp_path, 11, True)
    op = wl.prepare(0)
    deadline = time.monotonic() + 120
    wall, rss, code = run.spawn([sys.executable, "-m", "fraccond", *op.commands[0]],
                                tmp_path / "dn.log", deadline)
    assert code == 0
    if corrupt:
        path = op.outdirs[0] / "dn_matrix.csv"
        header, *rows = path.read_text().splitlines()
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
        data[3, 5] *= 1.0 + 1e-6
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")
    res = run.finish(wl, op, run.OpResult(False, wall, rss, [code], []))
    assert res.failed is corrupt
    assert res.fail_counted is corrupt
    assert not op.outdirs[0].exists()


@pytest.mark.parametrize("workload, check, tolerated", [
    ("walk-513", "mc_transpose_tv", False),
    ("verify-4096", "reduction_residual", False),
    ("dn-1024", "dn_symmetry", False),
    ("invert-256", "monotone_residuals", False),
    ("invert-256", "recovery_error", True),
    ("invert-256", "converged", True),
])
def test_failed_cli_check_is_a_failed_op(tmp_path, workload, check, tolerated):
    wl = run.WORKLOADS[workload](tmp_path, 3, True)
    op = run.Op(0, [[]], [tmp_path / "out"])
    op.outdirs[0].mkdir()
    manifest = {"checks": {check: {"value": 1.0, "pass": False}}, "outputs": []}
    (op.outdirs[0] / "manifest.json").write_text(json.dumps(manifest))
    errors, man = run.check_command(op.outdirs[0], 4, wl.tolerated)
    assert man == manifest
    assert (errors == []) is tolerated
    if not tolerated:
        assert wl.check(op, [4])[0] == [f"CLI check {check} failed"]


def test_no_program_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "dn-1024", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout
