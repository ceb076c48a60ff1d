"""Top-K metrics and best-matched precision with identical-input grouping.

Instances whose canonical symptom sets coincide form one evaluation group;
classic precision/recall/F1 are macro-averaged per instance, while
best-matched precision takes, per group, the maximum precision of the
group's prediction against any of its ground truths, then averages over
groups.  Sequence-head runs report best-matched precision only:
a generator that commits to one of several valid formulas should not be
punished for not covering the union.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .errors import DataError, SchemaError


# ---------------------------------------------------------------------------
# core metrics
# ---------------------------------------------------------------------------

def topk_metrics(ranking: Sequence[int], truth: set[int] | frozenset[int],
                 k: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of the first k ranked entries against the
    truth set.  A prediction shorter than k keeps k as the precision divisor.
    """
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    truth = set(truth)
    if not truth:
        raise DataError("empty ground-truth set")
    hits = len(set(ranking[:k]) & truth)
    precision = hits / k
    recall = hits / len(truth)
    f1 = 0.0 if precision + recall == 0 else \
        2 * precision * recall / (precision + recall)
    return precision, recall, f1


@dataclass
class EvalGroup:
    key: tuple[int, ...]                 # canonical sorted symptom ids
    ground_truths: list[set[int]]
    prediction: list[int] | None = None


def bmp_at_k(prediction: Sequence[int], group: EvalGroup, k: int) -> float:
    """Best matched precision: max P@k over the group's ground truths."""
    if not group.ground_truths:
        raise DataError(f"evaluation group {group.key} has no ground truths")
    return max(topk_metrics(prediction, t, k)[0] for t in group.ground_truths)


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

def load_predictions(path: str | Path, scored: bool) -> dict[int, list[int]]:
    """Read a prediction export; ``scored`` selects the ``herb:score`` format
    of the ranking head versus the bare id list of the sequence head.  Each
    instance id may appear on one line only."""
    path = Path(path)
    preds: dict[int, list[int]] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    instance_id, payload = line.split("\t")
                except ValueError as exc:
                    raise SchemaError(f"{path}:{lineno}: expected 2 tab-separated "
                                      f"fields") from exc
                tokens = payload.split(",") if payload else []
                if scored:
                    tokens = [tok.split(":")[0] for tok in tokens]
                try:
                    key, herbs = int(instance_id), [int(tok) for tok in tokens]
                except ValueError as exc:
                    raise SchemaError(f"{path}:{lineno}: ids must be integers "
                                      f"({exc.args[0]})") from exc
                if key in preds:
                    raise SchemaError(f"{path}:{lineno}: second prediction for "
                                      f"instance {key}")
                preds[key] = herbs
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    return preds


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class MetricReport:
    model: str
    split: str
    ks: list[int]
    precision: dict[int, float] = field(default_factory=dict)
    recall: dict[int, float] = field(default_factory=dict)
    f1: dict[int, float] = field(default_factory=dict)
    bmp: dict[int, float] = field(default_factory=dict)
    n_instances: int = 0
    n_groups: int = 0
    config: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "model": self.model, "split": self.split, "ks": self.ks,
            "precision": {str(k): v for k, v in sorted(self.precision.items())},
            "recall": {str(k): v for k, v in sorted(self.recall.items())},
            "f1": {str(k): v for k, v in sorted(self.f1.items())},
            "bmp": {str(k): v for k, v in sorted(self.bmp.items())},
            "n_instances": self.n_instances, "n_groups": self.n_groups,
            "config": self.config,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "MetricReport":
        obj = json.loads(text)
        return MetricReport(
            model=obj["model"], split=obj["split"], ks=[int(k) for k in obj["ks"]],
            precision={int(k): v for k, v in obj["precision"].items()},
            recall={int(k): v for k, v in obj["recall"].items()},
            f1={int(k): v for k, v in obj["f1"].items()},
            bmp={int(k): v for k, v in obj["bmp"].items()},
            n_instances=obj["n_instances"], n_groups=obj["n_groups"],
            config=obj.get("config", {}))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @staticmethod
    def load(path: str | Path) -> "MetricReport":
        return MetricReport.from_json(Path(path).read_text(encoding="utf-8"))

    def summary_lines(self) -> list[str]:
        lines = [f"model={self.model} split={self.split} "
                 f"instances={self.n_instances} groups={self.n_groups}"]
        for k in self.ks:
            parts = []
            if k in self.precision:
                parts.append(f"P@{k}={self.precision[k]:.4f}")
                parts.append(f"R@{k}={self.recall[k]:.4f}")
                parts.append(f"F1@{k}={self.f1[k]:.4f}")
            parts.append(f"BMP@{k}={self.bmp[k]:.4f}")
            lines.append("  " + "  ".join(parts))
        return lines


# ---------------------------------------------------------------------------
# run evaluation
# ---------------------------------------------------------------------------

def group_instances(instances, predictions: dict[int, list[int]],
                    ) -> list[EvalGroup]:
    """Group test instances by canonical symptom set; the group's prediction
    comes from its first instance (deterministic heads answer a given input
    identically)."""
    groups: dict[tuple[int, ...], EvalGroup] = {}
    for inst in instances:
        key = tuple(sorted(inst.symptoms))
        if key not in groups:
            groups[key] = EvalGroup(key=key, ground_truths=[],
                                    prediction=predictions[inst.instance_id])
        groups[key].ground_truths.append(set(inst.herbs))
    return list(groups.values())


def evaluate_run(prediction_path: str | Path, instances, ks: Sequence[int],
                 head: str = "rs", model: str = "", split: str = "test",
                 config: dict | None = None) -> MetricReport:
    """Score a prediction export against a split.

    The ranking head gets macro-averaged per-instance P/R/F1 plus grouped
    BMP; the sequence head gets BMP only.
    """
    if head not in ("rs", "seq"):
        raise DataError(f"unknown head {head!r}")
    ks = [int(k) for k in ks]
    if not ks or any(k < 1 for k in ks):
        raise DataError("ks must be positive")
    predictions = load_predictions(prediction_path, scored=(head == "rs"))
    missing = [inst.instance_id for inst in instances
               if inst.instance_id not in predictions]
    if missing:
        raise DataError(f"{prediction_path}: missing predictions for instances "
                        f"{missing[:5]}"
                        + ("..." if len(missing) > 5 else ""))

    report = MetricReport(model=model or head, split=split, ks=ks,
                          n_instances=len(instances), config=config or {})
    groups = group_instances(instances, predictions)
    report.n_groups = len(groups)
    for k in ks:
        if head == "rs":
            n = len(instances)
            p_sum = r_sum = f_sum = 0.0
            for inst in instances:
                p, r, f = topk_metrics(predictions[inst.instance_id],
                                       set(inst.herbs), k)
                p_sum += p
                r_sum += r
                f_sum += f
            report.precision[k] = p_sum / n
            report.recall[k] = r_sum / n
            report.f1[k] = f_sum / n
        report.bmp[k] = (sum(bmp_at_k(g.prediction, g, k) for g in groups)
                         / len(groups))
    return report
