"""Rule-mined pseudo-labels: key localization and geometric value scoring.

For each field the best-matching key phrase is located by string
similarity against the field's key list, then typed candidate phrases
near the key are scored by a distance kernel plus an angle kernel that
rewards values directly right of (angle 0) or below (angle pi/2) the key.
The winning phrase, if it scores above theta_v, becomes the field value
and its words receive the field's class label.  These labels are the
noisy supervision everything downstream trains on; the same pass doubles
as a standalone rule extractor.

The pass works on a document's phrases as rows (PhraseRows): texts, box
rows and centres, each worked out from the phrases' word ids.  A phrase is
typed only when it lies in some located key's zone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datatypes import type_of
from .docmodel import Document, FieldSchema, LabelSet, SchemaField
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
    key_phrase: tuple[int, ...] | None
    value_phrase: tuple[int, ...] | None
    key_score: float
    value_score: float | None

    def __post_init__(self):
        if (self.value_phrase is None) != (self.value_score is None):
            raise ValueError("value_score must be present exactly when value_phrase is")
        if self.value_phrase is not None and self.value_phrase == self.key_phrase:
            raise ValueError("value phrase cannot be the key phrase")


def _char_counts(texts: Sequence[str], chars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per text, how many times it holds each of the sorted code points,
    and its length."""
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    owner = np.arange(len(texts)).repeat(lengths)
    col = np.minimum(chars.searchsorted(codes), len(chars) - 1)
    known = chars[col] == codes
    counts = np.bincount(owner[known] * len(chars) + col[known], minlength=len(texts) * len(chars))
    return counts.reshape(len(texts), len(chars)), lengths


@functools.lru_cache(maxsize=16)
def _key_slots(key_lists: tuple[tuple[str, ...], ...]):
    """A character of the keys held at most w times in a key has w slots,
    slot t set in a text that holds it at least t times, so the dot product
    of two 0/1 slot rows is the overlap of the texts' character multisets
    (over the characters of the keys).  Returns the sorted code points, each
    slot's character and t, the keys' slot rows as columns, their lengths,
    and where each key list starts among the keys."""
    keys = [k for ks in key_lists for k in ks]
    chars = np.array(sorted({ord(ch) for k in keys for ch in k}), dtype=np.uint32)
    counts, lengths = _char_counts(keys, chars)
    width = counts.max(axis=0)
    slot_char = np.repeat(np.arange(len(chars)), width)
    slot_t = np.arange(1, len(slot_char) + 1) - np.repeat(np.cumsum(width) - width, width)
    rows = (counts[:, slot_char] >= slot_t).astype(np.float64)
    starts = np.cumsum([0] + [len(ks) for ks in key_lists[:-1]])
    return chars, slot_char, slot_t, rows.T, lengths.astype(np.float64), starts


def _bound_columns(texts: Sequence[str],
                   key_lists: Sequence[tuple[str, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Upper bounds on each key's similarity 1 - string_distance: one
    (texts × keys) array, a column per key of every list in turn, and
    where each key list's columns start.

    Jaro matches pair equal characters, so their count m is at most c, the
    overlap of the two character multisets, and Jaro is at most
    (c/len_p + c/len_k + 1)/3 (0 when c is 0).  A bound above the boost
    threshold takes the largest Winkler boost, four prefix characters.
    Keys are lowercase and trimmed; each phrase text is normalized once.
    c comes from one product of 0/1 matrices, exact in small integers.
    """
    chars, slot_char, slot_t, key_rows, len_k, starts = _key_slots(tuple(key_lists))
    texts = [t.strip().lower() for t in texts]
    counts, lengths = _char_counts(texts, chars)
    c = (counts[:, slot_char] >= slot_t).astype(np.float64) @ key_rows
    # in place, in the order of (c/len_p + c/len_k + 1)/3; an empty text
    # holds no character, so c is 0 and its bound 0
    bound = c / np.maximum(lengths, 1).astype(np.float64)[:, None]
    bound += c / len_k
    bound += 1.0
    bound /= 3.0
    np.copyto(bound, bound + JW_MAX_PREFIX * JW_PREFIX_SCALE * (1.0 - bound),
              where=bound > JW_BOOST_THRESHOLD)
    np.copyto(bound, 0.0, where=c == 0.0)
    return bound, starts


def localize_key(
    texts: Sequence[str], field: SchemaField, bound: np.ndarray,
    top: Sequence[float], order: Sequence[int],
) -> tuple[int | None, float]:
    """Index and score of the phrase text most similar to one of the
    field's keys (1 - string_distance); ties go to the earlier phrase in
    reading order.

    `bound` is the field's columns of _bound_columns, a column per key, `top`
    each phrase's best key bound and `order` the phrases by descending
    `top`, a stable sort, so equal bounds stay in reading order;
    extract_document works out both for all fields at once.  A phrase's
    keys are visited in descending order of their own bound, also stably.
    Once there is a best exact score, a key is scored only if its bound
    can still reach it: a key left out scores below the best, so it can
    neither win nor tie.  The slack absorbs the rounding of the bound's
    different expression.  A phrase whose normalized text an earlier
    phrase of the order had is skipped: it has the same bounds and
    scores, and it comes later in reading order, so it cannot win a tie.
    """
    keys = field.keys
    best_i: int | None = None
    best_score = 0.0
    seen: set[str] = set()
    for i in order:
        if best_i is not None and top[i] + BOUND_SLACK < best_score:
            break
        text = texts[i].strip().lower()
        if text in seen:
            continue
        seen.add(text)
        row = bound[i].tolist()
        for k in sorted(range(len(keys)), key=row.__getitem__, reverse=True):
            if best_i is not None and row[k] + BOUND_SLACK < best_score:
                break
            s = 1.0 - string_distance(texts[i], keys[k])
            if best_i is None or s > best_score or (s == best_score and i < best_i):
                best_i, best_score = i, s
    return best_i, best_score


def _gaussian(x: float, mu: float, sigma: float) -> float:
    # unnormalized kernel, peak value 1
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z)


def geometric_score(key: tuple[float, float], value: tuple[float, float],
                    p: RuleParams) -> float:
    """Distance kernel plus alpha-weighted best-of-two angle kernel.

    `key` and `value` are phrase box centres.  Angle is measured key ->
    value with y pointing down, so a value to the right scores angle 0 and
    a value below scores pi/2.  Coincident centers degrade to dist 0,
    angle 0.
    """
    kx, ky = key
    vx, vy = value
    dx, dy = vx - kx, vy - ky
    dist = math.hypot(dx, dy)
    angle = math.atan2(dy, dx) if dist > 0.0 else 0.0
    angle_term = max(
        _gaussian(angle, 0.0, p.sigma_a), _gaussian(angle, HALF_PI, p.sigma_a)
    )
    return _gaussian(dist, MU_D, p.sigma_d) + p.alpha * angle_term


def _in_zone(boxes: np.ndarray, key) -> np.ndarray:
    """Per candidate box (row x0, y0, x1, y1), whether the key center sits
    left of its right edge and within a band from ZONE_ABOVE candidate-heights
    above to ZONE_BELOW below.  `key` is a centre (x, y), or columns of
    centres (x, y) for a (keys × candidates) mask."""
    kx, ky = key
    _, y0, x1, y1 = boxes.T
    h = y1 - y0
    return (0.0 <= kx) & (kx <= x1) & (y0 - ZONE_ABOVE * h <= ky) & (ky <= y1 + ZONE_BELOW * h)


def _union_rows(word_boxes: np.ndarray, members: Sequence[Sequence[int]]) -> np.ndarray:
    """Per phrase, the union of its words' boxes (rows x0, y0, x1, y1): a min
    or max over its words in member order that keeps the first of equal
    coordinates, so a -0.0 and +0.0 tie keeps the earlier word's zero."""
    if not members:
        return np.zeros((0, 4))
    lengths = np.fromiter(map(len, members), dtype=np.intp, count=len(members))
    rows = word_boxes[np.fromiter(itertools.chain.from_iterable(members), dtype=np.intp,
                                  count=int(lengths.sum()))]
    starts = np.cumsum(lengths) - lengths
    out = np.concatenate([np.minimum.reduceat(rows[:, :2], starts, axis=0),
                          np.maximum.reduceat(rows[:, 2:], starts, axis=0)], axis=1)
    # only a zero can have an equal of other bits, so only zeros are redone
    for i, c in zip(*(out == 0.0).nonzero()):
        coords = word_boxes[members[i], c].tolist()
        out[i, c] = min(coords) if c < 2 else max(coords)
    return out


class PhraseRows:
    """A document's phrases as rows: texts (word texts joined by spaces),
    boxes (x0, y0, x1, y1) and centres, in phrase order.  A phrase's type
    is worked out on first use."""

    def __init__(self, doc: Document):
        words = [w.text for w in doc.words]
        self.members = doc.members
        self.texts = [words[ids[0]] if len(ids) == 1 else " ".join([words[w] for w in ids])
                      for ids in self.members]
        self.boxes = _union_rows(doc.boxes, self.members)
        self.centres = ((self.boxes[:, :2] + self.boxes[:, 2:]) / 2.0).tolist()
        self._types: list[frozenset | None] = [None] * len(self.texts)

    def types(self, i: int) -> frozenset:
        """type_of of phrase i, worked out once."""
        t = self._types[i]
        if t is None:
            t = self._types[i] = type_of(self.texts[i])
        return t


def extract_field(
    rows: PhraseRows, field: SchemaField, p: RuleParams,
    key: tuple[int | None, float], zone: np.ndarray | None,
) -> FieldExtraction:
    """The best typed candidate near the field's located key.

    `key` is localize_key's (index, score) and `zone` the key's row of
    _in_zone over the phrase boxes (None when no key was found), which
    extract_document works out for all fields at once.  Only the phrases
    in the zone are typed.
    """
    key_i, key_s = key
    if key_i is None:
        return FieldExtraction(field.field_id, None, None, 0.0, None)

    centre = rows.centres[key_i]
    best_i: int | None = None
    best_score = 0.0
    for i in zone.nonzero()[0].tolist():
        if i == key_i or not rows.types(i) & field.allowed_types:
            continue
        s = key_s * geometric_score(centre, rows.centres[i], p)
        if best_i is None or s > best_score:
            best_i, best_score = i, s
    key_phrase = rows.members[key_i]
    if best_i is None or best_score <= p.theta_v:
        return FieldExtraction(field.field_id, key_phrase, None, key_s, None)
    return FieldExtraction(field.field_id, key_phrase, rows.members[best_i], key_s, best_score)


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
        wids = set(e.value_phrase)
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
    p: RuleParams = RuleParams(),
) -> list[FieldExtraction]:
    """Per-field extractions for one document, cross-field conflicts resolved.

    The facts every field needs come from one pass over the page: each
    phrase's best key bound per field (a max over the field's columns,
    exact), each field's phrase order by descending best bound (one stable
    sort) and, once every key is located, each located key's zone (one
    keys × phrases mask).
    """
    fields = schema.fields
    if not fields:
        return []
    rows = PhraseRows(doc)
    bound, starts = _bound_columns(rows.texts, [f.keys for f in fields])
    # key-major, so each field's best bound is a max over contiguous rows
    tops = np.maximum.reduceat(np.ascontiguousarray(bound.T), starts, axis=0)
    orders = np.argsort(-tops, axis=1, kind="stable").tolist()
    keys = [localize_key(rows.texts, f, b, top, order) for f, b, top, order
            in zip(fields, np.split(bound, starts[1:], axis=1), tops, orders)]
    centres = np.array([rows.centres[i] for i, _ in keys if i is not None]).reshape(-1, 2)
    zones = iter(_in_zone(rows.boxes, (centres[:, :1], centres[:, 1:])))
    extractions = [extract_field(rows, f, p, key, None if key[0] is None else next(zones))
                   for f, key in zip(fields, keys)]
    return resolve_conflicts(extractions)


def bootstrap_corpus(
    docs: Sequence[Document],
    schema: FieldSchema,
    p: RuleParams = RuleParams(),
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
        found = [e for e in extract_document(doc, schema, p) if e.value_phrase is not None]
        labels.add_document(doc.doc_id, ((w, e.field_id) for e in found for w in e.value_phrase))
        values[doc.doc_id] = {schema.field_by_id(e.field_id).name: " ".join(
            [doc.words[w].text for w in e.value_phrase]) for e in found}
    return labels, values
