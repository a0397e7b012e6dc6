"""Self-tests of the benchmark harness.

    python -m pytest perfbench -q

They check the span arithmetic on hand-built span trees, the tracer's
wrapping on a stand-in package, the input generator's determinism, the
output gate, and that every workload's subcommand sequence completes with
no failure at toy size.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import Composition, check_outputs  # noqa: E402
from inputs import InputSpec, sha256_file, write_inputs  # noqa: E402
from run import WORKLOADS, Run  # noqa: E402
from spans import Tracer, cli_self_by_command, covered, layer_metrics, self_times  # noqa: E402

REPO = Path(__file__).resolve().parent.parent


def span(sid, name, start, end, parent=None, **attrs):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "run": "t", "attrs": attrs}


def test_covered_unions_and_clips_intervals():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)], 0.0, 10.0) == 7.0
    assert covered([(2.0, 3.0), (2.0, 3.0)], 0.0, 10.0) == 1.0


def test_self_time_subtracts_only_direct_children():
    spans = [span(0, "root", 0.0, 10.0),
             span(1, "a", 1.0, 4.0, 0), span(2, "b", 3.0, 6.0, 0),
             span(3, "a.child", 2.0, 3.0, 1)]
    selfs = self_times(spans)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        span(0, "command.tsne", 0.0, 12.0),
        span(1, "cli.main", 0.5, 12.0, 0),
        span(2, "dataset.load_dataset", 0.5, 1.0, 1, bytes=2_000_000),
        span(3, "projection.tsne", 1.0, 11.0, 1, iterations=1000, iter_bytes=8_000_000),
        span(4, "neighbors.pairwise_distances", 1.0, 1.5, 3, flop=4_000_000_000),
        span(5, "projection.joint_affinities", 1.5, 3.0, 3),
        span(6, "projection.perplexity_calibration", 1.5, 2.0, 5),
        span(7, "svgplot.render_scatter", 11.0, 11.5, 1, bytes=300),
        span(8, "command.eval", 12.0, 14.0),
        span(9, "cli.main", 12.0, 14.0, 8),
        span(10, "evaluation.logreg_fit", 12.0, 13.0, 9, n_iter=40, converged=True),
        span(11, "evaluation.softmax_loss_grad", 12.0, 12.1, 10),
        span(12, "evaluation.softmax_loss_grad", 12.1, 12.2, 10),
        span(13, "evaluation.softmax_loss_grad", 12.2, 12.3, 10),
        span(14, "evaluation.logreg_fit", 13.0, 13.5, 9, n_iter=10, converged=False),
        span(15, "evaluation.softmax_loss_grad", 13.0, 13.1, 14),
    ]
    m = layer_metrics(spans)
    assert m["dataset.load_s"] == pytest.approx(0.5)
    assert m["dataset.load_mb_per_s"] == pytest.approx(4.0)
    assert m["neighbors.pairwise_gflop_per_s"] == pytest.approx(8.0)
    assert m["projection.tsne_s"] == pytest.approx(10.0)
    # tsne self time: 10 s minus pairwise 0.5 s and affinities 1.5 s
    assert m["projection.tsne_iter_ms"] == pytest.approx(8.0)
    assert m["projection.tsne_iter_mb"] == pytest.approx(8.0)
    assert m["projection.calibration_calls"] == 1
    assert m["evaluation.logreg_fits"] == 2
    assert m["evaluation.logreg_iters"] == 50
    assert m["evaluation.loss_evals"] == 4
    assert m["evaluation.step_accept_ratio"] == pytest.approx(50 / 2)
    assert m["evaluation.logreg_unconverged"] == 1
    assert m["evaluation.logreg_ms_per_iter"] == pytest.approx(1500 / 50)
    assert m["svgplot.svg_bytes"] == 300
    assert m["robustness.index_s"] == 0.0
    # cli.main self time: 11.5 s - 0.5 - 10 - 0.5 under tsne, 2 s - 1.5 under eval
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert cli_self_by_command(spans) == pytest.approx({"tsne": 0.5, "eval": 0.5})


def test_tracer_wraps_every_binding_and_reports_absent_names():
    pkg = types.ModuleType("fakepkg")
    neighbors = types.ModuleType("fakepkg.neighbors")
    cli = types.ModuleType("fakepkg.cli")
    exec("def pairwise_distances(vectors):\n    return vectors\n"
         "def _private():\n    return 0\n", neighbors.__dict__)
    cli.pairwise_distances = neighbors.pairwise_distances  # from .neighbors import ...
    exec("def main(argv):\n    return pairwise_distances(argv)\n", cli.__dict__)
    modules = {"fakepkg": pkg, "fakepkg.neighbors": neighbors, "fakepkg.cli": cli}
    saved = {k: sys.modules.get(k) for k in modules}
    sys.modules.update(modules)
    try:
        tracer = Tracer("t")
        tracer.install("fakepkg")
        assert cli.main(["x"]) == ["x"]
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k)
            else:
                sys.modules[k] = v
    assert cli.pairwise_distances is neighbors.pairwise_distances
    assert [s["name"] for s in tracer.spans] == ["cli.main", "neighbors.pairwise_distances"]
    assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]
    assert "neighbors._private" not in tracer.wrapped
    assert "projection.tsne" in tracer.absent
    assert "cli.main" not in tracer.absent


def test_inputs_repeat_per_seed_and_differ_across_seeds(tmp_path):
    spec = InputSpec(n=200, dim=16, fmt="csv", grouped=True, coords=True)
    digests = []
    for name, seed in (("a", 0), ("b", 0), ("c", 1)):
        paths = write_inputs(spec, seed, tmp_path / name)
        digests.append({k: sha256_file(p) for k, p in paths.items()})
    assert digests[0] == digests[1]
    assert digests[0]["embeddings"] != digests[2]["embeddings"]
    assert digests[0]["coords"] != digests[2]["coords"]
    header, first = (tmp_path / "a" / "manifest.csv").read_text().splitlines()[:2]
    assert header == "sample_id,bio_label,conf_label,group_id"
    assert first == "x00000,bio0,conf0,g00000"


def test_gate_flags_out_of_range_and_non_finite_reports(tmp_path):
    write_inputs(InputSpec(n=100, dim=16, fmt="binary", grouped=False, coords=False),
                 0, tmp_path)
    comp = Composition(tmp_path / "manifest.csv")
    report = {"run": {"parameters": {"coords": None}},
              "datasets": [{"r_k": 9.0, "r_min": 0.2, "r_max": 5.0}]}
    (tmp_path / "robustness.json").write_text(json.dumps(report))
    assert any("outside" in p for p in
               check_outputs("index", tmp_path, ["robustness.json"], comp))
    (tmp_path / "tsne.json").write_text('{"final_kl": NaN, "trustworthiness": {"value": 0.9}}')
    assert check_outputs("tsne", tmp_path, ["tsne.json"], comp)
    assert check_outputs("eval", tmp_path, [], comp) == ["eval wrote no eval.json"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_sequence_completes_at_toy_size(name):
    workload = WORKLOADS[name]
    toy = dataclasses.replace(workload,
                              inputs=dataclasses.replace(workload.inputs, n=400, dim=16))
    run = Run(REPO, name, toy, seed=1)
    try:
        summary = run.execute(seconds=0.0, trace=name == "full_pipeline")
    finally:
        run.cleanup()
    result = summary["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(workload.commands)
    if name == "full_pipeline":
        assert result["metrics"]["trace.absent"]["value"] == 0
        assert result["metrics"]["projection.calibration_calls"]["value"] == 400


def test_refuses_to_run_without_the_toolkit_source(tmp_path):
    proc = subprocess.run([sys.executable, str(REPO / "perfbench" / "run.py"),
                           "--workload", "full_pipeline", "--seed", "0", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
