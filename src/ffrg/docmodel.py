"""Document, schema, and label data model with JSONL ingestion.

Boxes are normalized to [0,1] at ingestion (origin top-left, y downward);
all geometric constants elsewhere in the package operate in those units.
Background class is 0; schema fields are classes 1..N.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .datatypes import VALUE_TYPES, DataType


class FfrgError(Exception):
    """Base class for toolkit errors."""


class ValidationError(FfrgError):
    """Input violates a structural invariant."""


class ParseError(ValidationError):
    """Input could not be decoded at all."""


def _json_object(text: str, where: str) -> dict:
    """The one gate between JSON text and the program's strings: one JSON
    object whose every string encodes as UTF-8, so that a writer can write
    it back; ParseError naming where it came from otherwise."""
    try:
        # bytes that did not decode came in as lone surrogates
        text.encode("utf-8")
        raw = json.loads(text)
        # once the text encodes, only a \u escape decodes to a lone surrogate;
        # a search for its backslash is one memchr, for "\\u" a slower scan
        if "\\" in text:
            json.dumps(raw, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as e:  # a ValueError, so caught first
        raise ParseError(f"{where}: not UTF-8 text") from e
    except (ValueError, RecursionError) as e:  # malformed, too long an integer or too deep
        raise ParseError(f"{where}: malformed JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ParseError(f"{where}: not a JSON object")
    return raw


def read_json_file(path: str, kind: str) -> dict:
    """The JSON object a UTF-8 file holds, through _json_object."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        return _json_object(f.read(), f"{kind} file {path}")


def _rows(path: str, parse: Callable[[str, int], tuple[str, str, Any]]
          ) -> Iterator[tuple[str, str, Any]]:
    """parse(line, n)'s (location, doc_id, row) for each non-blank line n of
    a JSONL file whose doc_ids must be unique; lines split on universal
    newlines, and bytes that are not UTF-8 come in as lone surrogates,
    which _json_object refuses."""
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for n, line in enumerate(f, start=1):
            if line.strip():
                where, doc_id, row = parse(line, n)
                if doc_id in seen:
                    raise ValidationError(
                        f"{where}: doc_id {doc_id!r} repeats line {seen[doc_id]}")
                seen[doc_id] = n
                yield where, doc_id, row


def _record(line: str, where: str, keys: Sequence[str]) -> tuple[dict, str, list]:
    """A JSONL record's object, its string doc_id and its values under keys."""
    raw = _json_object(line, where)
    try:
        doc_id, *values = (raw[k] for k in ("doc_id", *keys))
    except KeyError as e:
        raise ParseError(f"{where}: missing key {e}") from e
    if not isinstance(doc_id, str):
        raise ParseError(f"{where}: doc_id must be a string")
    return raw, doc_id, values


def _records(path: str, kind: str, *keys: str) -> Iterator[tuple[str, str, list]]:
    """(location, doc_id, values under keys) for each record of a JSONL
    file of objects with a unique doc_id."""
    def parse(line: str, n: int) -> tuple[str, str, list]:
        where = f"{kind} line {n}"
        _, doc_id, values = _record(line, where, keys)
        return where, doc_id, values
    return _rows(path, parse)


def write_records(path: str, records: Iterable[dict]) -> None:
    """A JSONL file of records, one JSON object a line, as _records reads them."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(json.dumps(rec, ensure_ascii=False) + "\n")


def _word_classes(pairs, where: str) -> list[list[int]]:
    """[word, class] integer pairs, as JSON holds them."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and [type(v) for v in p] == [int, int] for p in pairs
    ):
        raise ParseError(f"{where}: expected a list of [word, class] integer pairs")
    return pairs


# A corpus keeps one word and one box resident per word for a whole run,
# so these records are slotted: none carries a __dict__.  Document keeps
# its own, which its cached layout properties need.
@dataclass(frozen=True, slots=True)
class BBox:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.x0, self.y0, self.x1, self.y1
        # a float fails a comparison when NaN and passes the chain only
        # inside [0,1]; the checks below run only to name what failed
        if (type(x0) is float and type(y0) is float and type(x1) is float
                and type(y1) is float and 0.0 <= x0 <= x1 <= 1.0 and 0.0 <= y0 <= y1 <= 1.0):
            return
        for name in ("x0", "y0", "x1", "y1"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or v != v or v in (float("inf"), float("-inf")):
                raise ValidationError(f"box coordinate {name}={v!r} is not finite")
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"box coordinate {name}={v} outside [0,1]")
        if self.x1 < self.x0:
            raise ValidationError(f"box has x1 < x0 ({self.x1} < {self.x0})")
        if self.y1 < self.y0:
            raise ValidationError(f"box has y1 < y0 ({self.y1} < {self.y0})")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def as_list(self) -> list[float]:
        return [self.x0, self.y0, self.x1, self.y1]


@dataclass(frozen=True, slots=True)
class Word:
    id: int
    text: str
    box: BBox

    def __post_init__(self):
        if not self.text or self.text != self.text.strip():
            raise ValidationError(
                f"word {self.id} text {self.text!r} is empty or has surrounding whitespace"
            )


@dataclass(frozen=True, slots=True)
class Phrase:
    """A phrase as grouping.group_words returns it, slotted like the
    records above; elsewhere a phrase is its bare tuple of word ids."""
    word_ids: tuple[int, ...]

    def __post_init__(self):
        if not self.word_ids:
            raise ValidationError("phrase has no words")
        if len(set(self.word_ids)) != len(self.word_ids):
            raise ValidationError("phrase has duplicate word ids")


@dataclass(frozen=True)
class Document:
    doc_id: str
    page_width: int
    page_height: int
    words: tuple[Word, ...]
    phrases: tuple[tuple[int, ...], ...] | None = None
    # the word boxes as read-only rows x0, y0, x1, y1, row i for word i
    boxes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.page_width <= 0 or self.page_height <= 0:
            raise ValidationError(f"document {self.doc_id}: page dimensions must be positive")
        for i, w in enumerate(self.words):
            if w.id != i:
                raise ValidationError(f"document {self.doc_id}: word at index {i} has id {w.id}")
        boxes = _boxes(self.words)
        boxes.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        if self.phrases is not None:
            seen: set[int] = set()
            for ph in self.phrases:
                if not ph:
                    raise ValidationError(f"document {self.doc_id}: phrase has no words")
                for wid in ph:
                    if wid < 0 or wid >= len(self.words):
                        raise ValidationError(
                            f"document {self.doc_id}: phrase references missing word {wid}"
                        )
                    if wid in seen:
                        raise ValidationError(
                            f"document {self.doc_id}: word {wid} is listed twice in the phrases"
                        )
                    seen.add(wid)

    def __setstate__(self, state: dict) -> None:
        # a copied or unpickled array comes back writeable
        self.__dict__.update(state)
        self.boxes.flags.writeable = False

    # The layout, worked out on first use and kept; like boxes, it is left
    # out of ==, hash and repr, and dataclasses.replace starts without it.
    @functools.cached_property
    def order(self) -> tuple[int, ...]:
        """The word ids in reading order."""
        return tuple(reading_order(self))

    @functools.cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Each phrase's word ids: the document's own phrases when it has
        them, otherwise those of grouping.phrase_members at its defaults."""
        if self.phrases is not None:
            return self.phrases
        from . import grouping  # grouping imports this module
        return grouping.phrase_members(self)


_BOX_ROW = operator.attrgetter("x0", "y0", "x1", "y1")
# the JSON value types of a box coordinate
_JSON_NUMBERS = frozenset((int, float))


def _boxes(words: Sequence[Word]) -> np.ndarray:
    """The boxes of words as rows x0, y0, x1, y1."""
    boxes = [w.box for w in words]
    return np.fromiter(itertools.chain.from_iterable(map(_BOX_ROW, boxes)),
                       dtype=np.float64, count=4 * len(boxes)).reshape(-1, 4)


def _components(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Per vertex of the graph on 0..n-1 with edges i[k] - j[k], the smallest
    member of its component.  Labels point at smaller or equal vertices, so
    each tree ends at a root labelling itself; rounds hook the larger root
    of each edge onto the smaller and point every label at its root, until
    no edge joins two trees."""
    label = np.arange(n)
    while True:
        li, lj = label[i], label[j]
        if not np.count_nonzero(li != lj):
            return label
        np.minimum.at(label, np.maximum(li, lj), np.minimum(li, lj))
        while True:
            root = label[label]
            if not np.count_nonzero(root != label):
                break
            label = root


# Relative and absolute widening of a y-window's reach, so that rounding in
# the centre arithmetic never leaves out a pair the exact test would link.
_REACH_SLACK = 1e-9


def _near_in_y(yc: np.ndarray, reach: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays i, j of each pair with yc[i] <= yc[j] <= yc[i] + reach[i]
    (reach slightly widened), once: in the centres sorted by y, each centre
    pairs with those after it up to its reach."""
    by_y = yc.argsort(kind="stable")
    ys = yc[by_y]
    top = ys + reach[by_y] * (1.0 + _REACH_SLACK) + _REACH_SLACK
    # the window of sorted position k runs from k + 1 up to its top
    end = ys.searchsorted(top, side="right")
    count = end - np.arange(1, len(ys) + 1)
    # pair t of the window of position k sits at k + 1 + (t - pairs before k)
    pos = np.arange(count.sum()) - (np.add.accumulate(count) - end).repeat(count)
    return by_y.repeat(count), by_y[pos]


def reading_order(doc: Document) -> list[int]:
    """Return word ids sorted into reading order (see _reading_order)."""
    return _reading_order(doc.boxes)


def _reading_order(boxes: np.ndarray) -> list[int]:
    """Return the row indices of word boxes x0, y0, x1, y1 in reading order.

    Two words share a line iff their vertical center offset is at most half
    the smaller word height; lines are the transitive closure of that
    relation, ordered by top y (then leftmost x, then smallest id), and
    words within a line are ordered by x0 (then id).  A pair can share a
    line only if the upper centre's half height reaches the lower centre,
    so only those pairs are tested.
    """
    x0, y0, _, y1 = boxes.T
    yc = (y0 + y1) / 2.0
    half = 0.5 * (y1 - y0)
    i, j = _near_in_y(yc, half)
    same = np.abs(yc[i] - yc[j]) <= np.minimum(half[i], half[j])
    line = _components(len(yc), i[same], j[same])
    # a line's label is one of its words, so that word's edges start its minima
    top, left = y0.copy(), x0.copy()
    np.minimum.at(top, line, y0)
    np.minimum.at(left, line, x0)
    # lexsort is stable, so ties go to the line's smallest id, then the word's
    return np.lexsort((x0, line, left[line], top[line])).tolist()


# --- JSONL documents -------------------------------------------------------

def parse_document(line: str, line_number: int | None = None) -> Document:
    """Parse one JSONL document record; boxes auto-normalize from pixels."""
    where = f"line {line_number}" if line_number is not None else "input"
    raw, doc_id, (page_w, page_h, raw_words) = _record(
        line, where, ("page_width", "page_height", "words"))
    # bool is an int subclass, so the exact types are checked
    if type(page_w) is not int or type(page_h) is not int:
        raise ParseError(f"{where}: page dimensions of {doc_id} must be integers")
    try:
        # boxes scale by these; a page past the float range cannot
        scale_w, scale_h = float(page_w), float(page_h)
    except OverflowError as e:
        raise ParseError(f"{where}: page dimensions must be finite integers: {e}") from e
    if not isinstance(raw_words, list):
        raise ParseError(f"{where}: words of {doc_id} must be a list")
    if page_w <= 0 or page_h <= 0:
        raise ValidationError(f"{where}: document {doc_id}: page dimensions must be positive")

    def word(idx: int) -> str:
        return f"{where}: word {idx} of {doc_id}"

    rows: list[list[float]] = []
    texts: list[str] = []
    for idx, rw in enumerate(raw_words):
        if not isinstance(rw, dict) or "text" not in rw or "box" not in rw:
            raise ParseError(f"{word(idx)} must be an object with text and box")
        text, box = rw["text"], rw["box"]
        if not isinstance(text, str):
            raise ParseError(f"{word(idx)}: text must be a string")
        # bool is an int subclass, so the exact types are checked
        if not (isinstance(box, list) and len(box) == 4
                and _JSON_NUMBERS.issuperset(map(type, box))):
            raise ParseError(f"{word(idx)}: box must be an array of 4 numbers")
        try:
            box = list(map(float, box))
        except OverflowError as e:
            raise ParseError(f"{word(idx)} is malformed: {e}") from e
        text = text.strip()
        if not text:
            raise ValidationError(f"{word(idx)} has empty text")
        texts.append(text)
        rows.append(box)

    # NaN is not above 1.5, as with v > 1.5
    if any(map((1.5).__lt__, itertools.chain.from_iterable(rows))):
        rows = [[b[0] / scale_w, b[1] / scale_h, b[2] / scale_w, b[3] / scale_h] for b in rows]
    words = []
    for idx, (text, b) in enumerate(zip(texts, rows)):
        try:
            bbox = BBox(*b)
        except ValidationError as e:
            raise ValidationError(f"{where}: word {idx} ({text!r}) of {doc_id}: {e}") from e
        words.append(Word(idx, text, bbox))
    words = tuple(words)

    try:
        if raw.get("phrases") is None:
            return Document(doc_id, page_w, page_h, words)
        order = _reading_order(np.array(rows, dtype=np.float64).reshape(-1, 4))
        doc = Document(doc_id, page_w, page_h, words,
                       _parse_phrases(doc_id, words, order, raw["phrases"]))
    except ValidationError as e:
        raise type(e)(f"{where}: {e}") from e
    # the phrases needed the order, so the document keeps it
    object.__setattr__(doc, "order", tuple(order))
    return doc


def _parse_phrases(doc_id: str, words: tuple[Word, ...], order: list[int],
                   raw_phrases) -> tuple[tuple[int, ...], ...]:
    """Phrases from their wire form, in reading order as phrase_members gives
    them: ``order`` is the words' reading order."""
    if not isinstance(raw_phrases, list):
        raise ParseError(f"phrases of {doc_id} must be a list")
    rank = np.argsort(order).tolist()  # the inverse permutation
    phrases = []
    for k, p in enumerate(raw_phrases):
        ids = p.get("word_ids") if isinstance(p, dict) else None
        if not isinstance(ids, list) or not ids or not all(type(w) is int for w in ids):
            raise ParseError(
                f"phrase {k} of {doc_id} needs a non-empty list of integer word_ids"
            )
        for wid in ids:
            if not 0 <= wid < len(words):
                raise ValidationError(f"phrase {k} of {doc_id} references missing word {wid}")
        phrases.append(tuple(sorted(ids, key=rank.__getitem__)))
    # the rule extractor breaks ties by phrase order, so the order in the
    # file must not decide them
    phrases.sort(key=lambda p: rank[p[0]])
    return tuple(phrases)


def serialize_document(doc: Document) -> str:
    """One-line JSON for a document; inverse of parse_document."""
    rec: dict = {
        "doc_id": doc.doc_id,
        "page_width": doc.page_width,
        "page_height": doc.page_height,
        "words": [{"text": w.text, "box": w.box.as_list()} for w in doc.words],
    }
    if doc.phrases is not None:
        rec["phrases"] = [{"word_ids": list(p)} for p in doc.phrases]
    return json.dumps(rec, ensure_ascii=False)


def _document_row(line: str, n: int) -> tuple[str, str, Document]:
    doc = parse_document(line, line_number=n)
    return f"line {n}", doc.doc_id, doc


def read_documents(path: str) -> list[Document]:
    return [doc for _, _, doc in _rows(path, _document_row)]


def write_documents(path: str, docs: Iterable[Document]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for doc in docs:
            f.write(serialize_document(doc) + "\n")


# --- Field schema ----------------------------------------------------------

@dataclass(frozen=True)
class SchemaField:
    field_id: int
    name: str
    keys: tuple[str, ...]
    allowed_types: frozenset[DataType]

    def __post_init__(self):
        if not self.name:
            raise ValidationError("schema field has empty name")
        if not self.keys:
            raise ValidationError(f"field {self.name}: key list is empty")
        for k in self.keys:
            if not k or k != k.strip() or k != k.lower():
                raise ValidationError(
                    f"field {self.name}: key {k!r} must be lowercase and trimmed"
                )
        if not self.allowed_types or not self.allowed_types <= VALUE_TYPES:
            raise ValidationError(
                f"field {self.name}: allowed_types must be a non-empty subset of "
                f"{sorted(t.value for t in VALUE_TYPES)}"
            )


@dataclass(frozen=True)
class FieldSchema:
    fields: tuple[SchemaField, ...]

    def __post_init__(self):
        ids = [f.field_id for f in self.fields]
        if ids != list(range(1, len(self.fields) + 1)):
            raise ValidationError("field ids must be contiguous 1..N in order")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate field names in schema")

    @property
    def n_fields(self) -> int:
        return len(self.fields)

    def field_by_id(self, field_id: int) -> SchemaField:
        if not 1 <= field_id <= len(self.fields):
            raise KeyError(field_id)
        return self.fields[field_id - 1]

    def to_json_dict(self) -> dict:
        return {
            "fields": [
                {
                    "field_id": f.field_id,
                    "name": f.name,
                    "keys": list(f.keys),
                    "allowed_types": sorted(t.value for t in f.allowed_types),
                }
                for f in self.fields
            ]
        }

    def digest(self) -> bytes:
        """32-byte identity of the schema, stored in model checkpoints."""
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).digest()


def _strings(values, what: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise TypeError(f"{what} must be a list of strings")
    return values


def schema_from_json_dict(raw: dict) -> FieldSchema:
    """The schema a JSON object holds, read as JSON types it: a field_id
    that is not an integer, or a name, key or type that is not a string,
    is refused, not converted."""
    try:
        fields = []
        for f in raw["fields"]:
            if type(f["field_id"]) is not int or not isinstance(f["name"], str):
                raise TypeError("field_id must be an integer and name a string")
            fields.append(SchemaField(
                f["field_id"], f["name"], tuple(_strings(f["keys"], "keys")),
                frozenset(map(DataType, _strings(f["allowed_types"], "allowed_types"))),
            ))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"malformed schema: {e}") from e
    return FieldSchema(tuple(fields))


def read_schema(path: str) -> FieldSchema:
    raw = read_json_file(path, "schema")
    try:
        return schema_from_json_dict(raw)
    except ValidationError as e:
        raise type(e)(f"schema file {path}: {e}") from e


def write_schema(path: str, schema: FieldSchema) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(schema.to_json_dict(), f, indent=2)
        f.write("\n")


def default_invoice_schema() -> FieldSchema:
    """The bundled seven-field invoice schema."""
    number = frozenset({DataType.NUMBER})
    date = frozenset({DataType.DATE})
    amount = frozenset({DataType.NUMBER, DataType.MONEY})
    return FieldSchema(
        (
            SchemaField(1, "inv_number", (
                "invoice number", "invoice #", "invoice", "invoice no.", "invoice no",
            ), number),
            SchemaField(2, "po_number", (
                "po #", "po number", "p.o. #", "p.o. number", "po", "purchase order number",
            ), number),
            SchemaField(3, "inv_date", ("date", "invoice date:", "invoice date"), date),
            SchemaField(4, "due_date", ("due date",), date),
            SchemaField(5, "total_amount", ("total", "invoice total"), amount),
            SchemaField(6, "due_amount", ("amount due", "balance due"), amount),
            SchemaField(7, "total_tax", ("tax",), amount),
        )
    )


# --- Label sets ------------------------------------------------------------

@dataclass(repr=False)
class LabelSet:
    """Word-level class assignments for one corpus pass.

    Only positive labels (class >= 1) are stored; absent words are
    background (class 0).  A document registered with no positives still
    counts as covered.
    """

    provenance: str
    _by_doc: dict[str, dict[int, int]] = field(init=False, default_factory=dict)

    def add_document(self, doc_id: str) -> None:
        self._by_doc.setdefault(doc_id, {})

    def set_label(self, doc_id: str, word_id: int, cls: int) -> None:
        if cls < 0:
            raise ValidationError(f"label class {cls} out of range")
        labels = self._by_doc.setdefault(doc_id, {})
        if cls == 0:
            labels.pop(word_id, None)
        else:
            labels[word_id] = cls

    def get(self, doc_id: str, word_id: int) -> int:
        return self._by_doc.get(doc_id, {}).get(word_id, 0)

    def doc_ids(self) -> list[str]:
        return sorted(self._by_doc)

    def positives(self, doc_id: str) -> dict[int, int]:
        return dict(self._by_doc.get(doc_id, {}))

    def covers(self, doc_id: str) -> bool:
        return doc_id in self._by_doc

    def validate(self, docs: Iterable[Document], n_fields: int) -> None:
        by_id = {d.doc_id: d for d in docs}
        for doc_id, labels in self._by_doc.items():
            if doc_id not in by_id:
                raise ValidationError(f"labels reference unknown document {doc_id}")
            m = len(by_id[doc_id].words)
            for wid, cls in labels.items():
                if not 0 <= wid < m:
                    raise ValidationError(
                        f"document {doc_id}: label references missing word {wid}"
                    )
                if not 1 <= cls <= n_fields:
                    raise ValidationError(
                        f"document {doc_id}: label class {cls} out of range 1..{n_fields}"
                    )

    def __repr__(self) -> str:
        n = sum(len(v) for v in self._by_doc.values())
        return f"LabelSet({self.provenance!r}, docs={len(self._by_doc)}, positives={n})"


def read_labels(path: str) -> LabelSet:
    labels, first = None, ""
    for where, doc_id, (pairs, provenance) in _records(path, "labels", "labels", "provenance"):
        if not isinstance(provenance, str):
            raise ParseError(f"{where}: provenance must be a string")
        if labels is None:
            labels, first = LabelSet(provenance), where
        elif provenance != labels.provenance:
            raise ValidationError(
                f"{where}: provenance {provenance!r} differs from {first}'s {labels.provenance!r}"
            )
        labels.add_document(doc_id)
        pairs = _word_classes(pairs, where)
        try:
            for wid, cls in pairs:
                labels.set_label(doc_id, wid, cls)
        except ValidationError as e:
            raise ValidationError(f"{where}: {e}") from e
    return labels if labels is not None else LabelSet("empty")


def write_labels(path: str, labels: LabelSet) -> None:
    write_records(path, (
        {"doc_id": doc_id, "labels": sorted(map(list, labels.positives(doc_id).items())),
         "provenance": labels.provenance}
        for doc_id in labels.doc_ids()))


# --- Annotations (gold values and predictions share the format) ------------

def read_annotations(path: str) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    for where, doc_id, (fields,) in _records(path, "annotations", "fields"):
        if not isinstance(fields, dict):
            raise ParseError(f"{where}: fields must be a JSON object")
        for name, value in fields.items():
            if not isinstance(value, str):
                raise ParseError(f"{where}: value of field {name!r} must be a string")
        out[doc_id] = dict(fields)
    return out


def write_annotations(path: str, annotations: dict[str, dict[str, str]]) -> None:
    write_records(path, ({"doc_id": doc_id, "fields": annotations[doc_id]}
                          for doc_id in sorted(annotations)))


def write_overlay(path: str, predictions: dict[str, list[list[int]]],
                  values: dict[str, dict[str, str]]) -> None:
    """An `extract --overlay` file: each document's positive [word, class] pairs and values."""
    write_records(path, ({"doc_id": doc_id, "predictions": pairs, "fields": values[doc_id]}
                          for doc_id, pairs in predictions.items()))


def read_overlay(path: str) -> dict[str, dict[int, int]]:
    """Per-document predicted word classes from a write_overlay file."""
    return {
        doc_id: dict(_word_classes(pairs, where))
        for where, doc_id, (pairs,) in _records(path, "overlay", "predictions")
    }
