"""Spans recorded from outside the toolkit, and the per-layer metrics built on them.

``Tracer.install`` replaces each public function of the layer modules with
a wrapper that records a span (name, start, end, parent, run id). The
wrapper is bound in *every* ``embrobust`` namespace that holds the original
function, because the CLI imports names with ``from .x import y`` and calls
them through its own globals. Spans stay in memory until ``dump``.

``layer_metrics`` turns a span list into the benchmark's per-layer figures.
FLOP and byte figures there are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Callable

LAYERS = ("dataset", "neighbors", "robustness", "evaluation", "projection",
          "svgplot", "cli")

# Functions the metrics below are built on. One that no longer exists is
# reported as absent, so a refactor of the toolkit does not break the harness.
EXPECTED = (
    "dataset.load_dataset",
    "neighbors.pairwise_distances", "neighbors.build_neighbor_table",
    "neighbors.frequency_curves",
    "robustness.robustness_index",
    "evaluation.assign_folds", "evaluation.knn_predict",
    "evaluation.confounder_analysis", "evaluation.center_error_relation",
    "evaluation.logreg_fit", "evaluation.softmax_loss_grad",
    "projection.tsne", "projection.joint_affinities",
    "projection.perplexity_calibration", "projection.trustworthiness",
    "cli.main",
)

# Every per-layer metric of a traced run: unit, and which direction is better.
PER_LAYER = {
    "dataset.load_s": ("s", "lower"),
    "dataset.load_calls": ("count", "lower"),
    "dataset.bytes_read": ("B", "lower"),
    "dataset.load_mb_per_s": ("MB/s", "higher"),
    "neighbors.pairwise_s": ("s", "lower"),
    "neighbors.pairwise_gflop_per_s": ("GFLOP/s", "higher"),
    "neighbors.table_s": ("s", "lower"),
    "neighbors.table_calls": ("count", "lower"),
    "neighbors.table_mb": ("MB", "lower"),
    "neighbors.curves_s": ("s", "lower"),
    "robustness.index_s": ("s", "lower"),
    "evaluation.folds_s": ("s", "lower"),
    "evaluation.knn_predict_s": ("s", "lower"),
    "evaluation.knn_ensemble_s": ("s", "lower"),
    "evaluation.logreg_fit_s": ("s", "lower"),
    "evaluation.logreg_fits": ("count", "lower"),
    "evaluation.logreg_iters": ("count", "lower"),
    "evaluation.logreg_ms_per_iter": ("ms", "lower"),
    "evaluation.loss_evals": ("count", "lower"),
    "evaluation.step_accept_ratio": ("ratio", "higher"),
    "evaluation.logreg_unconverged": ("count", "lower"),
    "projection.affinity_s": ("s", "lower"),
    "projection.calibration_calls": ("count", "lower"),
    "projection.calibration_fallbacks": ("count", "lower"),
    "projection.tsne_s": ("s", "lower"),
    "projection.tsne_iter_ms": ("ms", "lower"),
    "projection.tsne_iter_mb": ("MB", "lower"),
    "projection.trust_s": ("s", "lower"),
    "svgplot.render_s": ("s", "lower"),
    "svgplot.svg_bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.absent": ("count", "lower"),
}

# per-layer figures derived from array shapes rather than measured
COMPUTED = {"neighbors.pairwise_gflop_per_s", "neighbors.table_mb", "projection.tsne_iter_mb"}

# n x n float64 temporaries allocated per iteration by the dense exact t-SNE
# loop: 4 in the Student-t kernel, 1 for Q, 4 for the KL trace over the
# nonzero entries of P (about n^2 of them), 2 for the gradient's (P - Q) * num.
TSNE_DENSE_TEMPS_PER_ITER = 11


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, result) -> dict:
    paths = (_arg(args, kwargs, 0, "manifest_path"), _arg(args, kwargs, 1, "embeddings_path"))
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _pairwise_flop(args, kwargs, result) -> dict:
    n, d = _arg(args, kwargs, 0, "vectors").shape
    return {"flop": 2 * n * n * d}


def _table_bytes(args, kwargs, result) -> dict:
    n = _arg(args, kwargs, 0, "ds").n
    return {"table_bytes": n * (n - 1) * 16}  # intp order + float64 dist


def _logreg_fit(args, kwargs, result) -> dict:
    return {"n_iter": int(result.n_iter), "converged": bool(result.converged)}


def _tsne(args, kwargs, result) -> dict:
    n = result.coords.shape[0]
    return {"iterations": len(result.kl_trace),
            "iter_bytes": TSNE_DENSE_TEMPS_PER_ITER * 8 * n * n}


def _svg_bytes(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


HOOKS: dict[str, Callable[[tuple, dict, object], dict]] = {
    "dataset.load_dataset": _file_bytes,
    "neighbors.pairwise_distances": _pairwise_flop,
    "neighbors.build_neighbor_table": _table_bytes,
    "evaluation.logreg_fit": _logreg_fit,
    "projection.tsne": _tsne,
}


class Tracer:
    """In-memory span recorder for one traced pass (single thread)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.wrapped: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = _svg_bytes if name.startswith("svgplot.render_") else HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                try:
                    span["attrs"] = hook(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    span["attrs"] = {"hook_error": f"{type(exc).__name__}: {exc}"}
            return result

        return traced

    def install(self, package: str = "embrobust") -> None:
        """Wrap the public functions of every layer module, in every namespace."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == package or key.startswith(package + "."))]
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                self.wrapped.append(f"{layer}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
        self.absent = [name for name in EXPECTED if name not in self.wrapped]

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "absent": self.absent,
                "wrapped": self.wrapped}


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def _outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` with no ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}

    def nested(s: dict) -> bool:
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    return [s for s in spans if s["name"] == name and not nested(s)]


def cli_self_by_command(spans: list[dict]) -> dict[str, float]:
    """``cli`` self time under each ``command.<name>`` root span."""
    selfs = self_times(spans)
    root: dict[int, dict] = {}
    for s in spans:  # recorded in open order, so a parent precedes its children
        root[s["id"]] = s if s["parent"] is None else root[s["parent"]]
    out: dict[str, float] = {}
    for s in spans:
        if s["name"].startswith("cli."):
            command = root[s["id"]]["name"].removeprefix("command.")
            out[command] = out.get(command, 0.0) + selfs[s["id"]]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass. Layers not exercised read 0."""
    selfs = self_times(spans)

    def calls(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in _outermost(spans, name))

    def self_total(names) -> float:
        return sum(selfs[s["id"]] for s in spans if s["name"] in names)

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in calls(name))

    load_s = total("dataset.load_dataset")
    bytes_read = attr_sum("dataset.load_dataset", "bytes")
    pairwise_s = total("neighbors.pairwise_distances")
    fits = calls("evaluation.logreg_fit")
    iters = sum(s["attrs"].get("n_iter", 0) for s in fits)
    loss_evals = len(calls("evaluation.softmax_loss_grad"))
    logreg_s = total("evaluation.logreg_fit")
    tsne_spans = calls("projection.tsne")
    tsne_iters = sum(s["attrs"].get("iterations", 0) for s in tsne_spans)
    render = [s for s in spans if s["name"].startswith("svgplot.render_")]
    cli_names = {s["name"] for s in spans if s["name"].startswith("cli.")}
    return {
        "dataset.load_s": load_s,
        "dataset.load_calls": len(calls("dataset.load_dataset")),
        "dataset.bytes_read": bytes_read,
        "dataset.load_mb_per_s": _ratio(bytes_read / 1e6, load_s),
        "neighbors.pairwise_s": pairwise_s,
        "neighbors.pairwise_gflop_per_s": _ratio(
            attr_sum("neighbors.pairwise_distances", "flop") / 1e9, pairwise_s),
        "neighbors.table_s": self_total({"neighbors.build_neighbor_table"}),
        "neighbors.table_calls": len(calls("neighbors.build_neighbor_table")),
        "neighbors.table_mb": max((s["attrs"].get("table_bytes", 0)
                                   for s in calls("neighbors.build_neighbor_table")),
                                  default=0) / 1e6,
        "neighbors.curves_s": total("neighbors.frequency_curves"),
        "robustness.index_s": total("robustness.robustness_index"),
        "evaluation.folds_s": total("evaluation.assign_folds"),
        "evaluation.knn_predict_s": total("evaluation.knn_predict"),
        "evaluation.knn_ensemble_s": self_total({"evaluation.confounder_analysis",
                                                 "evaluation.center_error_relation"}),
        "evaluation.logreg_fit_s": logreg_s,
        "evaluation.logreg_fits": len(fits),
        "evaluation.logreg_iters": iters,
        "evaluation.logreg_ms_per_iter": _ratio(1e3 * logreg_s, iters),
        "evaluation.loss_evals": loss_evals,
        # each fit makes one evaluation before its first line search
        "evaluation.step_accept_ratio": _ratio(iters, loss_evals - len(fits)),
        "evaluation.logreg_unconverged": sum(
            1 for s in fits if not s["attrs"].get("converged", True)),
        "projection.affinity_s": total("projection.joint_affinities"),
        "projection.calibration_calls": len(calls("projection.perplexity_calibration")),
        "projection.tsne_s": total("projection.tsne"),
        "projection.tsne_iter_ms": _ratio(
            1e3 * self_total({"projection.tsne"}), tsne_iters),
        "projection.tsne_iter_mb": max((s["attrs"].get("iter_bytes", 0) for s in tsne_spans),
                                       default=0) / 1e6,
        "projection.trust_s": total("projection.trustworthiness"),
        "svgplot.render_s": sum(s["end"] - s["start"] for s in render),
        "svgplot.svg_bytes": sum(s["attrs"].get("bytes", 0) for s in render),
        "cli.self_s": self_total(cli_names),
    }
