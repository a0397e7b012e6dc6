"""Output-correctness gate for one subcommand of one pass.

Each check returns a list of problems; an empty list means the outputs are
plausible. The gate does not recompute the analyses: it checks that the
subcommand's report exists, that every JSON report parses with finite
numbers, that the robustness index sits within its chance-level bounds,
that probe accuracies beat the composition's chance level, and that the
frequency curves and t-SNE diagnostics are in range. Exit codes and byte
identity across passes are checked by the caller.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


class Composition:
    """Chance level of each label axis: the share of its largest class."""

    def __init__(self, manifest: Path):
        with open(manifest, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        self.n = len(rows)
        self.chance = {}
        for axis, column in (("bio", "bio_label"), ("conf", "conf_label")):
            counts: dict[str, int] = {}
            for row in rows:
                counts[row[column]] = counts.get(row[column], 0) + 1
            self.chance[axis] = max(counts.values()) / self.n


def _reject_constant(token: str):
    raise ValueError(f"non-finite constant {token}")


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def _bad_numbers(obj, where: str = "") -> list[str]:
    """Paths of non-finite numbers and of nulls outside the run manifest."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() if k != "run"
                for p in _bad_numbers(v, f"{where}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _bad_numbers(v, f"{where}[{i}]")]
    if obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        return [where]
    return []


def _above(value, chance: float, what: str) -> list[str]:
    return [] if value > chance else [f"{what} = {value} not above chance {chance:.3g}"]


def _in_unit(value, what: str) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"{what} = {value} outside [0, 1]"]


def _check_index(report: dict, comp: Composition) -> list[str]:
    problems = [] if report["datasets"] else ["no datasets"]
    for e in report["datasets"]:
        if not e["r_min"] <= e["r_k"] <= e["r_max"]:
            problems.append(f"r_k {e['r_k']} outside [{e['r_min']}, {e['r_max']}]")
    return problems


def _check_tsne(report: dict, comp: Composition) -> list[str]:
    return _in_unit(report["trustworthiness"]["value"], "trustworthiness")


def _check_eval(report: dict, comp: Composition) -> list[str]:
    problems = []
    for block in ("embedding", "tsne2d"):
        for probe in ("knn", "logreg"):
            for target in ("bio", "conf"):
                if block not in report or target not in report[block][probe]:
                    continue
                acc = report[block][probe][target]["accuracy_mean"]
                what = f"{block}.{probe}.{target}"
                # 2D coordinates keep local biological structure, which kNN
                # finds; a linear model on them, or the confounder axis, may
                # legitimately sit at chance
                if block == "embedding" or (probe, target) == ("knn", "bio"):
                    problems += _above(acc, comp.chance[target], what)
                else:
                    problems += _in_unit(acc, what)
    return problems


def _check_confounders(report: dict, comp: Composition) -> list[str]:
    problems = []
    for k, acc_b, acc_c in zip(report["k_grid"], report["acc_bio"], report["acc_conf"]):
        problems += _above(acc_b, comp.chance["bio"], f"acc_bio at k={k}")
        problems += _above(acc_c, comp.chance["conf"], f"acc_conf at k={k}")
    for k, frac, mis in zip(report["k_grid"], report["frac_same_center"],
                            report["n_misclassified"]):
        if frac is None and mis != 0:
            problems.append(f"frac_same_center missing at k={k} with {mis} errors")
        elif frac is not None:
            problems += _in_unit(frac, f"frac_same_center at k={k}")
    return problems


def _check_relation(report: dict, comp: Composition) -> list[str]:
    counts, rates = report["bin_counts"], report["bin_logreg_error"]
    problems = [] if sum(counts) == comp.n else [f"bins hold {sum(counts)} of {comp.n}"]
    errors = 0.0
    for i, (count, rate) in enumerate(zip(counts, rates)):
        if (rate is None) != (count == 0):
            problems.append(f"bin {i}: rate {rate} with count {count}")
        elif rate is not None:
            problems += _in_unit(rate, f"bin {i} error rate")
            errors += count * rate
    return problems + _above(1.0 - errors / comp.n, comp.chance["bio"], "logreg accuracy")


def _check_curves(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = [] if rows else ["no ranks"]
    for row in rows:
        for column in ("f_bio", "f_conf"):
            problems += _in_unit(float(row[column]), f"{column} at rank {row['j']}")
    return problems


# the report each subcommand must leave in the out-dir
REPORT_OF = {"index": "robustness.json", "curves": "frequency_curves.csv",
             "tsne": "tsne.json", "eval": "eval.json",
             "confounders": "confounders.json", "relation": "relation.json"}

# report file -> (check, JSON paths where null marks an empty bin / no errors)
REPORTS = {
    "robustness.json": (_check_index, ()),
    "tsne.json": (_check_tsne, ()),
    "eval.json": (_check_eval, ()),
    "confounders.json": (_check_confounders, (".frac_same_center",)),
    "relation.json": (_check_relation, (".bin_logreg_error",)),
}


def check_outputs(command: str, out_dir: Path, files: list[str],
                  comp: Composition) -> list[str]:
    """Problems with the reports ``command`` wrote (``files``, under ``out_dir``)."""
    report = REPORT_OF[command]
    if report not in files:
        return [f"{command} wrote no {report}"]
    problems = []
    if command == "curves":
        try:
            problems += [f"{report}: {p}" for p in _check_curves(out_dir / report)]
        except (KeyError, ValueError) as exc:
            problems.append(f"{report}: malformed ({type(exc).__name__}: {exc})")
    for name in files:
        if not name.endswith(".json"):
            continue
        try:
            payload = _load_json(out_dir / name)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            continue
        check, nullable = REPORTS.get(name, (None, ()))
        bad = [p for p in _bad_numbers(payload)
               if not any(p.startswith(prefix + "[") for prefix in nullable)]
        problems += [f"{name}: non-finite value at {p}" for p in bad]
        if check is not None:
            try:
                problems += [f"{name}: {p}" for p in check(payload, comp)]
            except (KeyError, TypeError) as exc:
                problems.append(f"{name}: malformed report ({type(exc).__name__}: {exc})")
    return problems
