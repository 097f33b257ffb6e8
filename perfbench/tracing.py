"""Spans around calls into fraccond's public functions, and their summary.

The wrappers are installed from outside the package: every function named in
LAYERS is replaced, in every ``fraccond`` module that holds a reference to it,
by a wrapper that records a span (name, start, end, parent, op id and a few
attributes).  Functions imported by name into another module, such as
``cli.assemble_dn`` or ``inverse.assemble_schrodinger``, are reached that way
too.  Spans are kept in memory and written out when the process ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
import tracemalloc

# (module, function) -> layer name.  Several functions may share one layer.
LAYERS = {
    ("fraccond.cli", "run"): "cli.run",
    ("fraccond.cli", "_write_csv"): "cli.write",
    ("fraccond.cli", "_write_manifest"): "cli.write",
    ("fraccond.cli", "_read_csv"): "cli.read",
    ("fraccond.core", "kernel_matrix"): "core.kernel_matrix",
    ("fraccond.operators", "assemble_laplacian"): "operators.assemble",
    ("fraccond.operators", "assemble_conductivity"): "operators.assemble",
    ("fraccond.operators", "assemble_schrodinger"): "operators.assemble",
    ("fraccond.operators", "bilinear_form"): "operators.bilinear_form",
    ("fraccond.forward", "factor_interior"): "forward.factor_interior",
    ("fraccond.forward", "dn_from_operator"): "forward.dn_from_operator",
    ("fraccond.forward", "verify_reduction"): "forward.verify_reduction",
    ("fraccond.forward", "dn_gap"): "forward.dn_gap",
    ("fraccond.inverse", "reconstruct_gamma"): "inverse.reconstruct_gamma",
    ("fraccond.inverse", "recover_m_from_q"): "inverse.recover_m_from_q",
    ("fraccond.walk", "simulate"): "walk.simulate",
    ("fraccond.walk", "outgoing_table"): "walk.outgoing_table",
    ("fraccond.walk", "master_step"): "walk.master_step",
    ("fraccond.walk", "q_master_step"): "walk.q_master_step",
    ("fraccond.limits", "grad_limit_study"): "limits.grad",
    ("fraccond.limits", "bilinear_limit_study"): "limits.bilinear",
    ("fraccond.limits", "operator_limit_check"): "limits.operator",
    ("fraccond.limits", "gradient_distributional_decay"): "limits.decay",
}

ROOT_SPAN = "cli.run"
IMPORT_SPAN = "cli.import"


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _attributes(fn_name, args, result) -> dict:
    """Work counts read from a call's arguments and result."""
    if fn_name in ("_write_csv", "_write_manifest"):
        return {"mb": _file_mb(result)}
    if fn_name == "_read_csv":
        return {"mb": _file_mb(args[0])}
    if fn_name == "bilinear_form":
        return {"pairs": args[0].N ** 2}
    if fn_name == "reconstruct_gamma":
        return {"gn_steps": len(result.residual_history) - 1}
    if fn_name == "simulate":
        ens, _, steps = args[:3]
        return {"particle_steps": int(ens.positions.size) * int(steps)}
    if fn_name in ("grad_limit_study", "bilinear_limit_study",
                   "operator_limit_check"):
        return {"n_used_max": max((r.n_used for r in result.rows), default=0)}
    return {}


class Recorder:
    """Spans of one process, kept in memory until the caller writes them."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, fn: str) -> dict:
        span = {"id": len(self.spans), "name": name, "fn": fn,
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op_id, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict, **attrs):
        span["end"] = time.perf_counter()
        span.update(attrs)
        self._stack.pop()

    def wrap(self, name: str, fn):
        fn_name = fn.__name__
        measure_heap = fn_name == "reconstruct_gamma"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, fn_name)
            if measure_heap:
                tracemalloc.start()
            attrs = {}
            try:
                result = fn(*args, **kwargs)
                attrs = _attributes(fn_name, args, result)
                return result
            finally:
                if measure_heap:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                self.close(span, **attrs)

        return wrapper

    def install(self):
        """Replace every reference to a LAYERS function, in every imported
        fraccond module, by its wrapper."""
        wrappers = {}
        for (mod_name, fn_name), layer in LAYERS.items():
            fn = getattr(sys.modules[mod_name], fn_name)
            wrappers[id(fn)] = self.wrap(layer, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "fraccond" or mod_name.startswith("fraccond."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])


# ------------------------------------------------------------ summaries

def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        kids = [(max(a, s["start"]), min(b, s["end"]))
                for a, b in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - _covered(kids)
    return out


def op_layers(processes: list[list[dict]], wall_s: float) -> dict:
    """Per-layer totals of one op, from the spans of each of its processes.

    ``wall_s`` is the op's wall time from spawn to exit, measured outside
    the processes; the part no layer span covers is reported as untraced.
    """
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    sums: dict[str, float] = {}
    layer_cover = 0.0
    import_s = []
    peak_mb = 0.0
    n_used_max = 0
    for spans in processes:
        st = self_times(spans)
        by_id = {s["id"]: s for s in spans}
        layer_cover += _covered([(s["start"], s["end"]) for s in spans
                                 if s["name"] != ROOT_SPAN])
        for s in spans:
            name = s["name"]
            if name == IMPORT_SPAN:
                import_s.append(s["end"] - s["start"])
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + st[s["id"]]
            for key in ("mb", "pairs", "gn_steps", "particle_steps"):
                if key in s:
                    sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0.0) + s[key]
            peak_mb = max(peak_mb, s.get("peak_mb", 0.0))
            n_used_max = max(n_used_max, s.get("n_used_max", 0))
            parent = by_id.get(s["parent"])
            if (s["fn"] == "assemble_schrodinger" and parent is not None
                    and parent["fn"] == "reconstruct_gamma"):
                sums["inverse.trials"] = sums.get("inverse.trials", 0) + 1
    return {"calls": calls, "s": secs, "sums": sums, "import_s": import_s,
            "peak_mb": peak_mb, "n_used_max": n_used_max,
            "untraced_s": wall_s - layer_cover}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(ops: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run: per-op medians of totals, and
    ratios taken over all ops.  ``ops`` holds op_layers() results."""
    def per_op(kind, name):
        return _median([op[kind].get(name, 0) for op in ops])

    def total(name):
        return sum(op["sums"].get(name, 0) for op in ops)

    m = {
        "cli.import_s": (_median([t for op in ops for t in op["import_s"]]), "s"),
        "cli.write_s": (per_op("s", "cli.write"), "s"),
        "cli.write_mb": (per_op("sums", "cli.write.mb"), "MB"),
        "cli.read_s": (per_op("s", "cli.read"), "s"),
        "cli.read_mb": (per_op("sums", "cli.read.mb"), "MB"),
    }
    for layer in ("core.kernel_matrix", "operators.assemble",
                  "operators.bilinear_form", "forward.factor_interior",
                  "walk.outgoing_table"):
        m[f"{layer}.calls"] = (per_op("calls", layer), "count")
        m[f"{layer}.s"] = (per_op("s", layer), "s")
    m["operators.bilinear_form.pairs"] = (
        per_op("sums", "operators.bilinear_form.pairs"), "count")
    for layer in ("forward.dn_from_operator", "forward.verify_reduction",
                  "forward.dn_gap", "inverse.reconstruct_gamma",
                  "walk.simulate", "walk.master_step", "walk.q_master_step",
                  "limits.grad", "limits.bilinear", "limits.operator",
                  "limits.decay"):
        m[f"{layer}.s"] = (per_op("s", layer), "s")
    steps, trials = total("inverse.reconstruct_gamma.gn_steps"), total("inverse.trials")
    m["inverse.gn_steps"] = (per_op("sums", "inverse.reconstruct_gamma.gn_steps"), "count")
    m["inverse.trials"] = (per_op("sums", "inverse.trials"), "count")
    m["inverse.accept_ratio"] = (steps / trials if trials else 0.0, "ratio")
    m["inverse.peak_mb"] = (max((op["peak_mb"] for op in ops), default=0.0), "MB")
    sim_s = sum(op["s"].get("walk.simulate", 0.0) for op in ops)
    m["walk.particle_steps_per_s"] = (
        total("walk.simulate.particle_steps") / sim_s if sim_s else 0.0, "1/s")
    m["limits.n_used_max"] = (max((op["n_used_max"] for op in ops), default=0), "count")
    m["trace.untraced_s"] = (_median([op["untraced_s"] for op in ops]), "s")
    return m
