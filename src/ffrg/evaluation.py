"""Exact-match evaluation of extracted field values, and word-level
precision/recall of a label set.

A prediction counts only if its normalized string equals the annotated
one: Unicode NFC, outer whitespace trimmed, inner runs collapsed, case
preserved.  Per-field precision/recall/F1 use the 0/0 -> 0 convention,
and the macro average runs over fields that occur at least once as a
gold value or a prediction.  `score` (eval) and `field_status` (inspect)
read the same walk over (document, field) pairs, `field_pairs`.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import asdict, dataclass
from typing import Iterator, Mapping, Sequence

from .docmodel import Document, FieldSchema, LabelSet, SchemaField, ValidationError
from .similarity import string_distance

Annotations = Mapping[str, Mapping[str, str]]


def normalize_value(s: str) -> str:
    return " ".join(unicodedata.normalize("NFC", s).split())


def field_status(pred: str | None, gold: str | None) -> str:
    """Fig-4-style outcome class of one pair from field_pairs."""
    if pred is None or gold is None:
        return "extractor-error"
    if normalize_value(pred) == normalize_value(gold):
        return "correct"
    return "value-text-error" if string_distance(pred, gold) <= 0.2 else "extractor-error"


def field_pairs(
    predictions: Annotations, annotations: Annotations, schema: FieldSchema
) -> Iterator[tuple[str, SchemaField, str | None, str | None]]:
    """(doc_id, field, prediction, gold value) for each pair where either
    value is present: documents in sorted order, then the schema's fields
    in order.  A value for a field the schema lacks is refused before the
    first pair."""
    known = {f.name for f in schema.fields}
    for kind, by_doc in (("prediction", predictions), ("annotation", annotations)):
        for doc_id, fields in by_doc.items():
            for name in fields:
                if name not in known:
                    raise ValidationError(f"{kind} for unknown field {name!r} in {doc_id}")
    for doc_id in sorted(set(predictions) | set(annotations)):
        pred = predictions.get(doc_id, {})
        gold = annotations.get(doc_id, {})
        for field in schema.fields:
            p, g = pred.get(field.name), gold.get(field.name)
            if p is not None or g is not None:
                yield doc_id, field, p, g


@dataclass(frozen=True)
class FieldMetrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class EvalReport:
    fields: dict[str, FieldMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_json_dict(self) -> dict:
        # "runs" is kept so that report.json keeps its shape
        return {"runs": 1, **asdict(self)}

    def to_json(self) -> str:
        # sorted keys: the file's bytes do not depend on the field order
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else 0.0


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0


def score(predictions: Annotations, annotations: Annotations, schema: FieldSchema) -> EvalReport:
    """Count exact matches per field over the union of documents."""
    names = [f.name for f in schema.fields]
    tp = {n: 0 for n in names}
    fp = {n: 0 for n in names}
    fn = {n: 0 for n in names}
    for _, field, p, g in field_pairs(predictions, annotations, schema):
        if p is not None and g is not None and normalize_value(p) == normalize_value(g):
            tp[field.name] += 1
            continue
        if p is not None:
            fp[field.name] += 1
        if g is not None:
            fn[field.name] += 1

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


def corruption_report(
    docs: Sequence[Document], truth: LabelSet, labels: LabelSet
) -> dict[str, float]:
    """Word-level precision/recall of a label set against generator truth."""
    tp = n_pred = n_true = 0
    for doc in docs:
        if not truth.covers(doc.doc_id) or not labels.covers(doc.doc_id):
            raise ValidationError(f"label sets do not cover document {doc.doc_id}")
        t = truth.positives(doc.doc_id)
        p = labels.positives(doc.doc_id)
        n_true += len(t)
        n_pred += len(p)
        tp += sum(1 for wid, cls in p.items() if t.get(wid) == cls)
    precision = _ratio(tp, n_pred)
    recall = _ratio(tp, n_true)
    return {
        "word_precision": precision,
        "word_recall": recall,
        "word_f1": _f1(precision, recall),
        "labeled_words": n_pred,
        "true_words": n_true,
    }


def write_report(path: str, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")
