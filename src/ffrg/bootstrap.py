"""Rule-mined pseudo-labels: key localization and geometric value scoring.

For each field the best-matching key phrase is located by string
similarity against the field's key list, then typed candidate phrases
near the key are scored by a distance kernel plus an angle kernel that
rewards values directly right of (angle 0) or below (angle pi/2) the key.
The winning phrase, if it scores above theta_v, becomes the field value
and its words receive the field's class label.  These labels are the
noisy supervision everything downstream trains on; the same pass doubles
as a standalone rule extractor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .datatypes import type_of
from .docmodel import Document, FieldSchema, LabelSet, Phrase, SchemaField
from .grouping import group_words
from .parallel import ordered_map
from .similarity import string_distance

HALF_PI = math.pi / 2.0
MU_D = 0.0  # distance kernel peaks at the key itself
ZONE_ABOVE = 4.0  # neighbor zone, in candidate heights
ZONE_BELOW = 1.0


@dataclass(frozen=True)
class RuleParams:
    sigma_d: float = 0.5
    sigma_a: float = 0.5
    alpha: float = 4.0
    theta_v: float = 0.1

    def __post_init__(self):
        if self.sigma_d <= 0 or self.sigma_a <= 0:
            raise ValueError("kernel widths must be positive")
        if self.theta_v < 0 or self.alpha < 0:
            raise ValueError("theta_v and alpha must be non-negative")


@dataclass(frozen=True)
class FieldExtraction:
    field_id: int
    key_phrase: Phrase | None
    value_phrase: Phrase | None
    key_score: float
    value_score: float | None

    def __post_init__(self):
        if (self.value_phrase is None) != (self.value_score is None):
            raise ValueError("value_score must be present exactly when value_phrase is")
        if self.value_phrase is not None and self.value_phrase == self.key_phrase:
            raise ValueError("value phrase cannot be the key phrase")


def key_score(phrase: Phrase, field: SchemaField) -> float:
    """Best similarity between the phrase text and any of the field's keys."""
    return 1.0 - min(string_distance(phrase.text, k) for k in field.keys)


def localize_key(
    phrases: Sequence[Phrase], field: SchemaField
) -> tuple[Phrase | None, float]:
    """Argmax of key_score; ties go to the earlier phrase in reading order."""
    best: Phrase | None = None
    best_score = 0.0
    for ph in phrases:
        s = key_score(ph, field)
        if best is None or s > best_score:
            best, best_score = ph, s
    return best, best_score


def _gaussian(x: float, mu: float, sigma: float) -> float:
    # unnormalized kernel, peak value 1
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z)


def geometric_score(key: Phrase, value: Phrase, p: RuleParams) -> float:
    """Distance kernel plus alpha-weighted best-of-two angle kernel.

    Angle is measured key center -> value center with y pointing down, so
    a value to the right scores angle 0 and a value below scores pi/2.
    Coincident centers degrade to dist 0, angle 0.
    """
    kx, ky = key.box.center
    vx, vy = value.box.center
    dx, dy = vx - kx, vy - ky
    dist = math.hypot(dx, dy)
    angle = math.atan2(dy, dx) if dist > 0.0 else 0.0
    angle_term = max(
        _gaussian(angle, 0.0, p.sigma_a), _gaussian(angle, HALF_PI, p.sigma_a)
    )
    return _gaussian(dist, MU_D, p.sigma_d) + p.alpha * angle_term


def value_score(key: Phrase, key_s: float, candidate: Phrase, p: RuleParams) -> float:
    return key_s * geometric_score(key, candidate, p)


def in_neighbor_zone(key: Phrase, candidate: Phrase) -> bool:
    """Key center must sit left of the candidate's right edge and within a
    band from ZONE_ABOVE candidate-heights above to ZONE_BELOW below."""
    h = candidate.box.height
    kx, ky = key.box.center
    return (
        0.0 <= kx <= candidate.box.x1
        and candidate.box.y0 - ZONE_ABOVE * h <= ky <= candidate.box.y1 + ZONE_BELOW * h
    )


def extract_field(
    doc: Document,
    phrases: Sequence[Phrase],
    field: SchemaField,
    p: RuleParams | None = None,
) -> FieldExtraction:
    """Locate the field's key, then the best typed candidate near it."""
    if p is None:
        p = RuleParams()
    key, key_s = localize_key(phrases, field)
    if key is None:
        return FieldExtraction(field.field_id, None, None, 0.0, None)

    best: Phrase | None = None
    best_score = 0.0
    for ph in phrases:
        if ph == key:
            continue
        if not (type_of(ph.text) & field.allowed_types):
            continue
        if not in_neighbor_zone(key, ph):
            continue
        s = value_score(key, key_s, ph, p)
        if best is None or s > best_score:
            best, best_score = ph, s
    if best is None or best_score <= p.theta_v:
        return FieldExtraction(field.field_id, key, None, key_s, None)
    return FieldExtraction(field.field_id, key, best, key_s, best_score)


def resolve_conflicts(extractions: list[FieldExtraction]) -> list[FieldExtraction]:
    """Drop whole extractions whose value words are claimed by a stronger field.

    Claim order is descending value_score, ties to the lower field_id; a
    losing field keeps its key but reports no value.
    """
    ranked = sorted(
        (e for e in extractions if e.value_phrase is not None),
        key=lambda e: (-e.value_score, e.field_id),
    )
    claimed: set[int] = set()
    dropped: set[int] = set()
    for e in ranked:
        wids = set(e.value_phrase.word_ids)
        if wids & claimed:
            dropped.add(e.field_id)
        else:
            claimed |= wids
    out = []
    for e in extractions:
        if e.field_id in dropped:
            out.append(FieldExtraction(e.field_id, e.key_phrase, None, e.key_score, None))
        else:
            out.append(e)
    return out


def extract_document(
    doc: Document,
    schema: FieldSchema,
    p: RuleParams | None = None,
) -> list[FieldExtraction]:
    """Per-field extractions for one document, cross-field conflicts resolved."""
    phrases = doc.phrases if doc.phrases is not None else group_words(doc)
    extractions = [extract_field(doc, phrases, f, p) for f in schema.fields]
    return resolve_conflicts(extractions)


def bootstrap_corpus(
    docs: Sequence[Document],
    schema: FieldSchema,
    p: RuleParams | None = None,
    threads: int | None = None,
) -> tuple[LabelSet, dict[str, dict[str, str]]]:
    """Label the corpus and collect rule-extracted values in one pass.

    Returns (labels, values): word-level pseudo-labels with provenance
    "bootstrap", and per-document field -> text extractions usable as a
    rule-only baseline.
    """
    results = ordered_map(
        lambda d: (d, extract_document(d, schema, p)), docs, threads
    )
    labels = LabelSet("bootstrap")
    values: dict[str, dict[str, str]] = {}
    for doc, extractions in results:
        labels.add_document(doc.doc_id)
        fields: dict[str, str] = {}
        for e in extractions:
            if e.value_phrase is None:
                continue
            for wid in e.value_phrase.word_ids:
                labels.set_label(doc.doc_id, wid, e.field_id)
            fields[schema.field_by_id(e.field_id).name] = e.value_phrase.text
        values[doc.doc_id] = fields
    return labels, values
