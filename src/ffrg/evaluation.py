"""Exact-match evaluation of extracted field values.

A prediction counts only if its normalized string equals the annotated
one: Unicode NFC, outer whitespace trimmed, inner runs collapsed, case
preserved.  Per-field precision/recall/F1 use the 0/0 -> 0 convention,
and the macro average runs over fields that occur at least once as a
gold value or a prediction.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from typing import Mapping

from .docmodel import FieldSchema, ValidationError

Annotations = Mapping[str, Mapping[str, str]]


def normalize_value(s: str) -> str:
    return " ".join(unicodedata.normalize("NFC", s).split())


@dataclass(frozen=True)
class FieldMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int

    def to_json_dict(self) -> dict:
        return {
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
        }


@dataclass(frozen=True)
class EvalReport:
    fields: dict[str, FieldMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_json_dict(self) -> dict:
        return {
            "runs": 1,  # kept so that report.json keeps its shape
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "fields": {name: fm.to_json_dict() for name, fm in sorted(self.fields.items())},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0


def score(predictions: Annotations, annotations: Annotations, schema: FieldSchema) -> EvalReport:
    """Count exact matches per field over the union of documents."""
    names = [f.name for f in schema.fields]
    known = set(names)
    for kind, by_doc in (("prediction", predictions), ("annotation", annotations)):
        for doc_id, fields in by_doc.items():
            for name in fields:
                if name not in known:
                    raise ValidationError(f"{kind} for unknown field {name!r} in {doc_id}")

    tp = {n: 0 for n in names}
    fp = {n: 0 for n in names}
    fn = {n: 0 for n in names}
    for doc_id in set(predictions) | set(annotations):
        pred = predictions.get(doc_id, {})
        gold = annotations.get(doc_id, {})
        for name in names:
            p = pred.get(name)
            g = gold.get(name)
            if p is not None and g is not None:
                if normalize_value(p) == normalize_value(g):
                    tp[name] += 1
                else:
                    fp[name] += 1
                    fn[name] += 1
            elif p is not None:
                fp[name] += 1
            elif g is not None:
                fn[name] += 1

    fields: dict[str, FieldMetrics] = {}
    included: list[str] = []
    for name in names:
        p = _ratio(tp[name], tp[name] + fp[name])
        r = _ratio(tp[name], tp[name] + fn[name])
        fields[name] = FieldMetrics(p, r, _f1(p, r), tp[name], fp[name], fn[name])
        if tp[name] + fp[name] + fn[name] > 0:
            included.append(name)

    if included:
        macro_p = sum(fields[n].precision for n in included) / len(included)
        macro_r = sum(fields[n].recall for n in included) / len(included)
        macro_f = sum(fields[n].f1 for n in included) / len(included)
    else:
        macro_p = macro_r = macro_f = 0.0
    return EvalReport(fields, macro_p, macro_r, macro_f)


def write_report(path: str, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
