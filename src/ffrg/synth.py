"""Synthetic invoice-form generator with ground truth and controlled noise.

Documents are laid out on a two-column grid: each placed field renders a
key phrase and a typed value phrase either directly right of or directly
below the key, with phrase centers aligned so the clean key-value angle
is exactly 0 or pi/2.  Ground truth (value strings and value word ids)
is captured before noise; character noise, key paraphrases, unknown
keys, box jitter, and typed distractor tokens then degrade the corpus.
Annotations therefore state what the form SAID, not what the OCR words
show: under character noise some values are unrecoverable by exact
match, for rules and trained models alike, and end-to-end scores carry
that ceiling.  Per-document rng streams keyed (seed, index) keep
each document independent of every other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datatypes import DataType
from .docmodel import (
    BBox,
    Document,
    FieldSchema,
    LabelSet,
    ValidationError,
    Word,
)

# layout constants, normalized page units
CHAR_W = 0.0075
CHAR_H = 0.016
WORD_GAP = 0.004
KV_GAP_RIGHT = 0.03
KV_GAP_BELOW = 0.012
GRID_COLS = (0.08, 0.55)
GRID_ROW0 = 0.18
GRID_ROW_PITCH = 0.11
GRID_ROWS = 5
HEADER_Y = 0.05
PAGE_W = 850
PAGE_H = 1100

_HEADER_POOL = (
    "Meridian", "Northwind", "Cascade", "Pinnacle", "Vertex", "Summit",
    "Lakeside", "Redwood", "Harbor", "Crescent", "Holdings", "Industries",
    "Logistics", "Services", "Supply", "Partners", "Group", "Trading",
)

_UNKNOWN_KEYS = (
    "Reference", "Account", "Terms", "Memo", "Attn", "Contact", "Code", "Branch",
)

# Key texts outside the schema lexicon, rendered under
# key_paraphrase_rate.  Near-misses blur key localization; synonyms
# (second group per field) defeat string matching outright while staying
# learnable from co-occurrence, the way real vendor wordings behave.
_PARAPHRASES = {
    "inv_number": ("Invoice Num", "Invoice No:", "Inv. Number", "Bill Number", "Document No."),
    "po_number": ("PO No.", "P.O. No", "Purchase Order", "Order Ref", "Purchase Ref"),
    "inv_date": ("Invoice Dated", "Issued", "Bill Date", "Posted"),
    "due_date": ("Due Date:", "Pay By", "Payable By", "Net Due"),
    "total_amount": ("Total:", "Grand Total", "Total Due", "Amount Payable", "Invoice Sum"),
    "due_amount": ("Amount Due:", "Amt Due", "Balance", "Outstanding", "Remaining"),
    "total_tax": ("Tax:", "Sales Tax", "Tax Amount", "VAT", "GST"),
}

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

_LETTERS_LOWER = "abcdefghijklmnopqrstuvwxyz"
_LETTERS_UPPER = _LETTERS_LOWER.upper()
_DIGITS = "0123456789"

# fraction of distractors placed adjacent to a key rather than uniformly
_TARGETED_FRACTION = 0.05

# Forms reuse layouts across documents: each field has a home slot and
# only a minority of documents shuffle the grid.  Identifier fields carry
# per-field prefixes, the way real invoice and PO numbers do.  Both give
# a trained model field evidence beyond the key text itself.
_SLOT_SHUFFLE = 0.25
_NUMBER_PREFIXES = {
    "inv_number": ("INV", "IN"),
    "po_number": ("PO", "PN"),
}
_GENERIC_PREFIXES = ("NO", "RC")


@dataclass(frozen=True)
class SynthConfig:
    n_docs: int
    seed: int
    key_paraphrase_rate: float = 0.0
    unknown_key_rate: float = 0.0
    char_noise_rate: float = 0.0
    distractor_density: int = 0
    bbox_jitter: float = 0.0

    def __post_init__(self):
        for name in ("key_paraphrase_rate", "unknown_key_rate", "char_noise_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} must lie in [0,1], got {v}")
        if self.distractor_density < 0 or self.bbox_jitter < 0:
            raise ValidationError("distractor_density and bbox_jitter must be non-negative")
        if self.n_docs < 0:
            raise ValidationError("n_docs must be non-negative")


PRESETS: dict[str, dict] = {
    "clean": {},
    "noisy-bench": dict(
        key_paraphrase_rate=0.3,
        unknown_key_rate=0.1,
        char_noise_rate=0.03,
        distractor_density=20,
        bbox_jitter=0.005,
    ),
}


def preset_config(name: str, n_docs: int, seed: int) -> SynthConfig:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return SynthConfig(n_docs=n_docs, seed=seed, **PRESETS[name])


@dataclass
class _Item:
    """One laid-out phrase: word texts plus per-word boxes."""
    texts: list[str]
    boxes: list[tuple[float, float, float, float]]
    field_id: int = 0  # the field of a value item, 0 for any other

    @property
    def x1(self) -> float:
        return self.boxes[-1][2]


def _layout_line(texts: Sequence[str], x: float, y: float) -> _Item:
    boxes = []
    cur = x
    for t in texts:
        w = len(t) * CHAR_W
        boxes.append((cur, y, cur + w, y + CHAR_H))
        cur += w + WORD_GAP
    return _Item(list(texts), boxes)


def _phrase_width(texts: Sequence[str]) -> float:
    return sum(len(t) for t in texts) * CHAR_W + WORD_GAP * (len(texts) - 1)


def _gen_value(field_name: str, allowed, rng: np.random.Generator) -> list[str]:
    """Value word list for a field, shaped to pass the type gate."""
    if DataType.DATE in allowed:
        y = int(rng.integers(2024, 2027))
        m = int(rng.integers(1, 13))
        d = int(rng.integers(1, 29))
        roll = float(rng.random())
        if roll < 0.36:
            return [f"{m:02d}/{d:02d}/{y}"]
        if roll < 0.68:
            return [f"{y}-{m:02d}-{d:02d}"]
        if roll < 0.90:
            return [f"{d}-{_MONTHS[m - 1]}-{y}"]
        return [_MONTHS[m - 1], f"{d},", f"{y}"]
    if DataType.MONEY in allowed:
        cents = int(rng.integers(1000, 10_000_000))
        amount = cents / 100.0
        form = int(rng.integers(0, 3))
        if form == 0:
            return [f"${amount:,.2f}"]
        if form == 1:
            return [f"{amount:,.2f}"]
        return [f"{amount:.2f}"]
    # plain number fields: invoice/po style identifiers
    roll = float(rng.random())
    if roll < 0.45:
        pool = _NUMBER_PREFIXES.get(field_name, _GENERIC_PREFIXES)
        prefix = str(pool[int(rng.integers(0, len(pool)))])
        return [f"{prefix}-{int(rng.integers(10_000, 100_000))}"]
    if roll < 0.75:
        return [str(int(rng.integers(100_000, 1_000_000)))]
    return [f"#{int(rng.integers(1000, 100_000))}"]


def _gen_distractor(rng: np.random.Generator) -> str:
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return str(int(rng.integers(100, 100_000)))
    if kind == 1:
        return f"${int(rng.integers(100, 1_000_000)) / 100.0:,.2f}"
    y = int(rng.integers(2024, 2027))
    m = int(rng.integers(1, 13))
    d = int(rng.integers(1, 29))
    return f"{m:02d}/{d:02d}/{y}" if rng.integers(0, 2) == 0 else f"{y}-{m:02d}-{d:02d}"


def _key_display(field_name: str, keys: tuple[str, ...], cfg: SynthConfig,
                 rng: np.random.Generator) -> list[str]:
    roll = rng.random()
    if roll < cfg.unknown_key_rate:
        return [_UNKNOWN_KEYS[int(rng.integers(0, len(_UNKNOWN_KEYS)))]]
    if roll < cfg.unknown_key_rate + cfg.key_paraphrase_rate:
        pool = _PARAPHRASES.get(field_name)
        if pool is None:
            # generic near-miss for fields outside the bundled schema
            text = keys[int(rng.integers(0, len(keys)))].title() + ":"
        else:
            text = str(pool[int(rng.integers(0, len(pool)))])
        return text.split(" ")
    key = keys[int(rng.integers(0, len(keys)))]
    return key.title().split(" ")


def _noise_texts(texts: Sequence[str], rate: float, rng: np.random.Generator) -> list[str]:
    """The texts with each character, in order, hit at ``rate``; a hit digit
    becomes another digit and a hit letter another letter of its case.

    The stream is that of one ``rng.random()`` per character plus, after a
    hit on a digit or letter, one index into its replacement pool.  The
    doubles are drawn in bulk; at such a hit the generator goes back to its
    state before the bulk draw and draws only the doubles up to the hit.
    """
    if rate <= 0.0:
        return list(texts)
    chars = list("".join(texts))
    start = 0
    while start < len(chars):
        state = rng.bit_generator.state
        for hit in np.flatnonzero(rng.random(len(chars) - start) < rate).tolist():
            i = start + hit
            ch = chars[i]
            if ch.isdigit():
                pool = _DIGITS
            elif ch.isalpha():
                pool = _LETTERS_UPPER if ch.isupper() else _LETTERS_LOWER
            else:
                continue
            rng.bit_generator.state = state
            rng.random(hit + 1)
            pool = pool.replace(ch, "")
            chars[i] = pool[int(rng.integers(0, len(pool)))]
            start = i + 1
            break
        else:
            break
    out, end = [], 0
    for t in texts:
        out.append("".join(chars[end:end + len(t)]))
        end += len(t)
    return out


def _clamp(v: np.ndarray, lo) -> np.ndarray:
    """min(max(v, lo), 1.0) element-wise, keeping the argument Python's min
    and max keep when they compare equal (so a -0.0 against a +0.0 bound
    stays -0.0)."""
    v = np.where(lo > v, lo, v)
    return np.where(1.0 < v, 1.0, v)


def _overlaps(box, others, margin_x=0.02, margin_y=0.012) -> bool:
    x0, y0, x1, y1 = box
    for ox0, oy0, ox1, oy1 in others:
        if x0 - margin_x < ox1 and ox0 < x1 + margin_x and y0 - margin_y < oy1 and oy0 < y1 + margin_y:
            return True
    return False


def generate_document(
    cfg: SynthConfig, schema: FieldSchema, index: int
) -> tuple[Document, dict[str, str], dict[int, int]]:
    """One document plus its gold values and word-level truth positives."""
    if schema.n_fields > len(GRID_COLS) * GRID_ROWS:
        raise ValidationError(
            f"schema has {schema.n_fields} fields; grid holds {len(GRID_COLS) * GRID_ROWS}"
        )
    if schema.n_fields < 3:
        raise ValidationError("generator places at least 3 fields; schema has fewer")
    rng = np.random.default_rng([cfg.seed, index, 0])
    noise_rng = np.random.default_rng([cfg.seed, index, 1])

    n_place = int(rng.integers(3, schema.n_fields + 1))
    chosen = sorted(int(i) + 1 for i in rng.choice(schema.n_fields, size=n_place, replace=False))
    if float(rng.random()) < _SLOT_SHUFFLE:
        slots = [int(s) for s in rng.permutation(len(GRID_COLS) * GRID_ROWS)[:n_place]]
    else:
        slots = [fid - 1 for fid in chosen]

    items: list[_Item] = []
    gold: dict[str, str] = {}
    anchors: list[tuple[_Item, str, float]] = []  # key, relation, key centre x

    n_header = int(rng.integers(2, 5))
    picks = rng.integers(0, len(_HEADER_POOL), size=n_header)
    header_words = [_HEADER_POOL[i] for i in picks.tolist()]
    items.append(_layout_line(header_words, GRID_COLS[0], HEADER_Y))

    for field_id, slot in zip(chosen, slots):
        f = schema.field_by_id(field_id)
        col = GRID_COLS[slot % len(GRID_COLS)]
        row_y = GRID_ROW0 + GRID_ROW_PITCH * (slot // len(GRID_COLS))
        relation = "key-left" if rng.integers(0, 2) == 0 else "key-above"

        key_texts = _key_display(f.name, f.keys, cfg, rng)
        value_texts = _gen_value(f.name, f.allowed_types, rng)
        key_item = _layout_line(key_texts, col, row_y)
        kcx = (key_item.boxes[0][0] + key_item.x1) / 2.0  # a line runs left to right
        if relation == "key-left":
            value_item = _layout_line(value_texts, key_item.x1 + KV_GAP_RIGHT, row_y)
        else:
            vx = max(0.01, kcx - _phrase_width(value_texts) / 2.0)
            value_item = _layout_line(value_texts, vx, row_y + CHAR_H + KV_GAP_BELOW)
        value_item.field_id = field_id
        items.append(key_item)
        items.append(value_item)
        anchors.append((key_item, relation, kcx))

    occupied = [b for it in items for b in it.boxes]
    for _ in range(cfg.distractor_density):
        text = _gen_distractor(rng)
        w = len(text) * CHAR_W
        placed = False
        # A slice of distractors lands beside a real key, in the geometric
        # direction orthogonal to its value, so they genuinely compete.
        if anchors and rng.random() < _TARGETED_FRACTION:
            key_item, relation, kcx = anchors[int(rng.integers(0, len(anchors)))]
            kb = key_item.boxes
            # lo + (hi - lo) * rng.random() draws what rng.uniform(lo, hi) draws
            if relation == "key-left":
                gap = 0.01 + (0.10 - 0.01) * rng.random()
                x = max(0.01, kcx - w / 2.0)
                y = max(b[3] for b in kb) + gap
            else:
                gap = 0.015 + (0.12 - 0.015) * rng.random()
                x = key_item.x1 + gap
                y = kb[0][1]
            box = (x, y, x + w, y + CHAR_H)
            if box[2] <= 0.98 and box[3] <= 0.98 and not _overlaps(
                box, occupied, margin_x=0.004, margin_y=0.003
            ):
                items.append(_Item([text], [box]))
                occupied.append(box)
                placed = True
        if not placed:
            # Keep fillers inside the band the fields occupy so they land in
            # neighbor zones at scattered offsets, not in dead page margins.
            for _attempt in range(50):
                x = 0.05 + (0.92 - w - 0.05) * rng.random()
                y = 0.15 + (0.72 - 0.15) * rng.random()
                box = (x, y, x + w, y + CHAR_H)
                if not _overlaps(box, occupied):
                    items.append(_Item([text], [box]))
                    occupied.append(box)
                    break

    # jitter moves an item as a unit; grouping adjacency within a phrase
    # survives, key-value geometry wobbles.  One draw of a (dx, dy) row per
    # item is the stream of one draw of two per item; without jitter the
    # shift is +0.0, which still turns a -0.0 coordinate into +0.0.
    if cfg.bbox_jitter > 0.0:
        shift = rng.normal(0.0, cfg.bbox_jitter, (len(items), 2))
    else:
        shift = np.zeros((len(items), 2))
    moved = np.array([b for it in items for b in it.boxes]) + np.tile(
        shift.repeat([len(it.boxes) for it in items], axis=0), 2)
    x0 = _clamp(moved[:, 0], 0.0)
    y0 = _clamp(moved[:, 1], 0.0)
    boxes = iter(np.stack([x0, y0, _clamp(moved[:, 2], x0), _clamp(moved[:, 3], y0)],
                          axis=1).tolist())
    words: list[Word] = []
    positives: dict[int, int] = {}
    noisy = iter(_noise_texts([t for it in items for t in it.texts], cfg.char_noise_rate,
                              noise_rng))
    for it in items:
        for _ in it.boxes:
            wid = len(words)
            if it.field_id:
                positives[wid] = it.field_id
            words.append(Word(wid, next(noisy), BBox(*next(boxes))))
        if it.field_id:
            # Gold is the pre-noise value text: truth capture precedes
            # corruption, so noisy renderings miss under exact match.
            gold[schema.field_by_id(it.field_id).name] = " ".join(it.texts)

    doc = Document(f"synth-{cfg.seed}-{index:05d}", PAGE_W, PAGE_H, tuple(words))
    return doc, gold, positives


def generate(
    cfg: SynthConfig, schema: FieldSchema, threads: int | None = None
) -> tuple[list[Document], dict[str, dict[str, str]], LabelSet]:
    """Corpus, gold annotations, and word-level truth labels; ``threads`` is
    accepted and not read."""
    docs: list[Document] = []
    annotations: dict[str, dict[str, str]] = {}
    truth = LabelSet("truth")
    for i in range(cfg.n_docs):
        doc, gold, positives = generate_document(cfg, schema, i)
        docs.append(doc)
        annotations[doc.doc_id] = gold
        truth.add_document(doc.doc_id, positives.items())
    return docs, annotations, truth
