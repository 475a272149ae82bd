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

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .datatypes import DataType, type_of
from .docmodel import Document, FieldSchema, LabelSet, Phrase, SchemaField
from .grouping import group_words
from .similarity import (
    JW_BOOST_THRESHOLD,
    JW_MAX_PREFIX,
    JW_PREFIX_SCALE,
    string_distance,
)

HALF_PI = math.pi / 2.0
MU_D = 0.0  # distance kernel peaks at the key itself
ZONE_ABOVE = 4.0  # neighbor zone, in candidate heights
ZONE_BELOW = 1.0
BOUND_SLACK = 1e-9  # a key bound this far below the best exact score still counts


@dataclass(frozen=True)
class RuleParams:
    sigma_d: float = 0.5
    sigma_a: float = 0.5
    alpha: float = 4.0
    theta_v: float = 0.1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.sigma_d, self.sigma_a, self.alpha, self.theta_v))):
            raise ValueError("rule parameters must be finite")
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


@functools.lru_cache(maxsize=16)
def _key_masks(key_lists: tuple[tuple[str, ...], ...]):
    """Per key list, each key's (count mask, length), and the mask layout:
    a slot per character of the keys, as wide as its largest count in a key."""
    width: dict[str, int] = {}
    for keys in key_lists:
        for k in keys:
            for ch in set(k):
                width[ch] = max(width.get(ch, 0), k.count(ch))
    layout, shift = {}, 0
    for ch, w in sorted(width.items()):
        layout[ch] = (shift, w)
        shift += w
    masks = tuple(tuple((_count_mask(k, layout), len(k)) for k in keys) for keys in key_lists)
    return masks, layout


def _count_mask(text: str, layout: dict[str, tuple[int, int]]) -> int:
    """A character held n times sets the low min(n, width) bits of its slot,
    so the popcount of two masks' AND is the overlap of the texts' character
    multisets (over the characters the layout knows)."""
    mask = 0
    for ch in layout.keys() & set(text):
        shift, width = layout[ch]
        mask |= ((1 << min(text.count(ch), width)) - 1) << shift
    return mask


def key_bounds(
    phrases: Sequence[Phrase], key_lists: Sequence[tuple[str, ...]]
) -> list[list[float]]:
    """Upper bounds on key_score: per key list, one bound per phrase.

    Jaro matches pair equal characters, so their count m is at most c, the
    overlap of the two character multisets, and Jaro is at most
    (c/len_p + c/len_k + 1)/3 (0 when c is 0).  A bound above the boost
    threshold takes the largest Winkler boost, four prefix characters.
    Keys are lowercase and trimmed; each phrase text is normalized once.
    """
    masks, layout = _key_masks(tuple(key_lists))
    max_boost = JW_MAX_PREFIX * JW_PREFIX_SCALE
    out: list[list[float]] = [[] for _ in masks]
    for ph in phrases:
        text = ph.text.strip().lower()
        mask, len_p = _count_mask(text, layout), len(text)
        for keys, column in zip(masks, out):
            best = 0.0
            for key_mask, len_k in keys:
                c = (mask & key_mask).bit_count()
                if c:
                    jaro = (c / len_p + c / len_k + 1.0) / 3.0
                    if jaro > JW_BOOST_THRESHOLD:
                        jaro += max_boost * (1.0 - jaro)
                    if jaro > best:
                        best = jaro
            column.append(best)
    return out


def localize_key(
    phrases: Sequence[Phrase], field: SchemaField, bound: Sequence[float] | None = None
) -> tuple[Phrase | None, float]:
    """Argmax of key_score; ties go to the earlier phrase in reading order.

    `bound` is the field's entry of key_bounds (computed here when absent).
    Phrases are scored exactly in descending order of their bound, ties in
    reading order, until a bound falls below the best exact score; the
    slack absorbs the rounding of the bound's different expression.
    """
    if bound is None:
        (bound,) = key_bounds(phrases, [field.keys])
    best_i: int | None = None
    best_score = 0.0
    # the sort is stable, so equal bounds stay in reading order
    for i in sorted(range(len(phrases)), key=lambda i: -bound[i]):
        if best_i is not None and bound[i] + BOUND_SLACK < best_score:
            break
        s = key_score(phrases[i], field)
        if best_i is None or s > best_score or (s == best_score and i < best_i):
            best_i, best_score = i, s
    return (None, 0.0) if best_i is None else (phrases[best_i], best_score)


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
    phrases: Sequence[Phrase],
    field: SchemaField,
    p: RuleParams | None = None,
    *,
    types: Sequence[frozenset[DataType]] | None = None,
    bound: Sequence[float] | None = None,
) -> FieldExtraction:
    """Locate the field's key, then the best typed candidate near it.

    `types` (type_of per phrase) and `bound` (the field's entry of
    key_bounds) are facts about the document's phrases that extract_document
    works out once for all fields; they are computed here when absent.
    """
    if p is None:
        p = RuleParams()
    key, key_s = localize_key(phrases, field, bound)
    if key is None:
        return FieldExtraction(field.field_id, None, None, 0.0, None)
    if types is None:
        types = [type_of(ph.text) for ph in phrases]

    best: Phrase | None = None
    best_score = 0.0
    for ph, ph_types in zip(phrases, types):
        if ph is key:
            continue
        if not (ph_types & field.allowed_types):
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
    types = [type_of(ph.text) for ph in phrases]
    bounds = key_bounds(phrases, [f.keys for f in schema.fields])
    extractions = [
        extract_field(phrases, f, p, types=types, bound=bound)
        for f, bound in zip(schema.fields, bounds)
    ]
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
    rule-only baseline.  ``threads`` is accepted and not read.
    """
    labels = LabelSet("bootstrap")
    values: dict[str, dict[str, str]] = {}
    for doc in docs:
        labels.add_document(doc.doc_id)
        fields: dict[str, str] = {}
        for e in extract_document(doc, schema, p):
            if e.value_phrase is None:
                continue
            for wid in e.value_phrase.word_ids:
                labels.set_label(doc.doc_id, wid, e.field_id)
            fields[schema.field_by_id(e.field_id).name] = e.value_phrase.text
        values[doc.doc_id] = fields
    return labels, values
