#!/usr/bin/env python3
"""Benchmark of the embrobust analysis CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload full_pipeline --seed 1 --seconds 40 --trace 0

A run writes the workload's inputs from ``--seed`` with the benchmark's own
generator, then measures closed-loop passes for ``--seconds`` seconds: each
pass is a fresh interpreter that imports the toolkit from ``src/``, loads
the inputs once (the set-up), and calls ``embrobust.cli.main`` once per
subcommand, each after the previous one returned. Every pass's reports are
checked for correctness and must be byte-identical to the first pass's.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over passes). With ``--trace 1`` the second half of the run is
traced: ``spans.Tracer`` wraps the toolkit's public functions from outside
and the last line carries per-layer metrics. ``--workload all`` runs every
workload in turn; its last line maps each workload to its result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Composition, check_outputs
from inputs import InputSpec, sha256_file, write_inputs
from spans import COMPUTED, EXPECTED, PER_LAYER, cli_self_by_command, layer_metrics

HERE = Path(__file__).resolve().parent
RUN_DEADLINE_S = 170.0   # a run must end within 180 s
SETUP_ONLY_CHILDREN = 3  # plus one set-up per pass


@dataclass(frozen=True)
class Workload:
    why: str
    inputs: InputSpec
    commands: tuple[tuple[str, tuple[str, ...]], ...]  # (subcommand, extra flags)


WORKLOADS = {
    "full_pipeline": Workload(
        "the paper's whole analysis as a user runs it, all six subcommands; t-SNE does most of "
        "the work",
        InputSpec(n=800, dim=768, fmt="binary", grouped=False, coords=False),
        (("index", ("--name", "bench", "--k", "50")), ("curves", ()),
         ("tsne", ("--tsne-iters", "300", "--tsne-early-iters", "100")),
         ("eval", ("--coords", "out/tsne_coords.csv", "--lambda", "0.01")),
         ("confounders", ()), ("relation", ("--lambda", "0.01")))),
    "neighbors_large": Workload(
        "the neighbor table and kNN ensemble do nearly all the work and set peak memory; no "
        "t-SNE or regression, so a t-SNE change predicts no change here",
        InputSpec(n=3500, dim=1536, fmt="binary", grouped=False, coords=False),
        (("index", ("--name", "bench", "--k", "50")), ("curves", ()),
         ("confounders", ()))),
    "probes_grouped_csv": Workload(
        "logistic-regression probes on 768-d and 2D inputs dominate; CSV parsing; kNN goes "
        "through the group-exclusion neighbor path",
        InputSpec(n=1600, dim=768, fmt="csv", grouped=True, coords=True),
        # lambda 0.01: at the default 1e-3 a few near-separable folds take
        # 4x the iterations, so the work swings by a quarter across seeds
        (("eval", ("--coords", "inputs/coords.csv", "--exclude-same-group",
                   "--lambda", "0.01")),
         ("relation", ("--exclude-same-group", "--lambda", "0.01")))),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, checkout: Path, name: str, workload: Workload, seed: int):
        self.checkout = checkout
        self.name = name
        self.workload = workload
        self.seed = seed
        self.dir = checkout / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.embeddings = ""
        self.children = 0
        threads = str(len(os.sched_getaffinity(0)))
        # Huge pages off: whether the host can hand out 2 MiB pages varies
        # from minute to minute, and with them the resident set varies too.
        self.env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                    "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
                    "NUMPY_MADVISE_HUGEPAGE": "0"}

    def child(self, mode: str) -> dict | None:
        """Run one child to completion; its result, or None if it produced none."""
        self.children += 1
        tag = f"{mode}-{self.children}"
        data = ["--manifest", "inputs/manifest.csv", "--embeddings", self.embeddings]
        spec = {"src": str(self.checkout / "src"), "mode": mode,
                "run_id": f"{self.name}-{self.seed}-{tag}",
                "manifest": "inputs/manifest.csv", "embeddings": self.embeddings,
                "out_dir": "out", "result": f"{tag}.json",
                "commands": [[sub, [sub, *data, "--out-dir", "out", "--seed", str(self.seed),
                                    *extra]]
                             for sub, extra in self.workload.commands]}
        spec_path = self.dir / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.dir / f"{tag}.log"
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        with open(log, "wb") as fh:
            try:
                rc = subprocess.run(
                    [sys.executable, str(HERE / "child.py"), str(spec_path)],
                    cwd=self.dir, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = None
        result_path = self.dir / f"{tag}.json"
        if rc != 0 or not result_path.exists():
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"{tag}: child {'timed out' if rc is None else f'exited {rc}'}\n{tail}",
                  file=sys.stderr)
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["setup_s"] = result["ready"] - spawned
        return result

    @staticmethod
    def next_mode(elapsed: float, seconds: float, trace: bool,
                  untraced: int, traced: int) -> str | None:
        """Closed loop: untraced passes, then (when tracing) traced ones.

        A pass starts only if one more pass of the average length so far
        still ends within ``seconds``; a run makes at least two passes.
        """
        done = untraced + traced
        fits = done == 0 or elapsed * (done + 1) / done <= seconds
        if not trace:
            return "pass" if untraced < 2 or fits else None
        if untraced < 1 or (fits and elapsed * (done + 1) / done <= seconds / 2):
            return "pass"
        return "trace" if traced < 1 or fits else None

    def execute(self, seconds: float, trace: bool) -> dict | None:
        shutil.rmtree(self.dir, ignore_errors=True)
        paths = write_inputs(self.workload.inputs, self.seed, self.dir / "inputs")
        self.embeddings = paths["embeddings"].relative_to(self.dir).as_posix()
        lines = [f"{self.name} input {path.name} sha256 {sha256_file(path)}"
                 for path in paths.values()]
        comp = Composition(paths["manifest"])

        setups = [r for r in (self.child("setup") for _ in range(SETUP_ONLY_CHILDREN)) if r]
        passes: dict[str, list[dict]] = {"pass": [], "trace": []}
        attempted = failed = 0
        reference = None
        t0 = time.monotonic()
        while time.monotonic() < self.deadline:
            mode = self.next_mode(time.monotonic() - t0, seconds, trace,
                                  len(passes["pass"]), len(passes["trace"]))
            if mode is None:
                break
            shutil.rmtree(self.dir / "out", ignore_errors=True)
            result = self.child(mode)
            attempted += len(self.workload.commands)
            if result is None:
                failed += len(self.workload.commands)
                break
            setups.append(result)
            reference = reference or result["commands"]
            for cmd, ref in zip(result["commands"], reference):
                problems = [] if cmd["rc"] == 0 else [f"exit code {cmd['rc']}"]
                problems += check_outputs(cmd["name"], self.dir / "out", list(cmd["files"]), comp)
                if cmd["files"] != ref["files"]:
                    problems.append("out-dir bytes differ from the first pass")
                failed += bool(problems)
                for p in problems:
                    print(f"{self.name} {mode} {cmd['name']}: {p}", file=sys.stderr)
            passes[mode].append(result)
        if not passes["pass"] or (trace and not passes["trace"]):
            return None
        return self.summarize(lines, setups, passes["pass"], passes["trace"],
                              attempted, failed)

    def summarize(self, lines, setups, untraced, traced, attempted, failed) -> dict:
        med = statistics.median
        e2e = {"wall_s": med(_wall(r) for r in untraced),
               "setup_s": med(r["setup_s"] for r in setups),
               "peak_rss_mb": med(r["maxrss_kb"] / 1024 for r in untraced)}
        lines += [f"{self.name} {k} {v:.6g} {END_TO_END[k]}" for k, v in e2e.items()]
        lines.append(f"{self.name} failed_frac {failed / attempted:.6g} "
                     f"({failed} of {attempted} subcommands)")
        for sub, _ in self.workload.commands:
            t = med(c["seconds"] for r in untraced for c in r["commands"] if c["name"] == sub)
            lines.append(f"{self.name} {sub}_s {t:.6g} s")
        lines.append(f"{self.name} wall_s of each untraced pass: "
                     + " ".join(f"{_wall(r):.4g}" for r in untraced))
        lines.append(f"{self.name} passes: {len(untraced)} untraced, {len(traced)} traced; "
                     f"set-up samples: {len(setups)}")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        if traced:
            metrics = self.layer_summary(traced, e2e["wall_s"], lines)
        return {"lines": lines, "result": {"correct": failed == 0, "attempted": attempted,
                                           "failed": failed, "metrics": metrics}}

    def layer_summary(self, traced: list[dict], untraced_wall: float,
                      lines: list[str]) -> dict:
        per_pass = []
        for r in traced:
            spans = r["trace"]["spans"]
            m = layer_metrics(spans)
            m["projection.calibration_fallbacks"] = r["fallback_warnings"]
            m["cli.out_bytes"] = sum(size for c in r["commands"] for _, size in c["files"].values())
            m["trace.overhead_s"] = _wall(r) - untraced_wall
            m["trace.spans"] = len(spans)
            m["trace.absent"] = len(r["trace"]["absent"])
            per_pass.append(m)
        for command, seconds in cli_self_by_command(traced[-1]["trace"]["spans"]).items():
            lines.append(f"{self.name} traced {command} cli.self_s {seconds:.6g} s")
        absent = traced[-1]["trace"]["absent"]
        lines.append(f"{self.name} absent: {', '.join(absent) or 'none'} "
                     f"(of {len(EXPECTED)} expected functions)")
        trace_file = self.checkout / ".bench_work" / f"trace-{self.name}-{self.seed}.json"
        trace_file.write_text(json.dumps([r["trace"] for r in traced]), encoding="utf-8")
        lines.append(f"{self.name} spans written to {trace_file.relative_to(self.checkout)}")
        metrics = {}
        for key, (unit, _) in PER_LAYER.items():
            value = statistics.median(m[key] for m in per_pass)
            metrics[key] = {"value": value, "unit": unit}
            lines.append(f"{self.name} {key} {value:.6g} {unit}"
                         + (" (computed)" if key in COMPUTED else ""))
        return metrics

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _wall(result: dict) -> float:
    """All subcommands of one pass, back to back."""
    return sum(c["seconds"] for c in result["commands"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    if not (checkout / "src" / "embrobust" / "cli.py").is_file():
        print(f"no src/embrobust under {checkout}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = Run(checkout, name, WORKLOADS[name], args.seed)
        try:
            summary = run.execute(args.seconds, bool(args.trace))
        finally:
            run.cleanup()
        if summary is None:
            print(f"{name}: no complete measurement", file=sys.stderr)
            return 1
        print("\n".join(summary["lines"]), flush=True)
        results[name] = summary["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
