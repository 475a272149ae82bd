"""Document model: box validation, reading order, JSONL round-trips, schema."""

import copy
import dataclasses
import importlib.util
import itertools
import json
import math
import pickle
import re
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_doc
from ffrg import bootstrap, docmodel, grouping, progressive
from ffrg.bootstrap import bootstrap_corpus
from ffrg.datatypes import DataType
from ffrg.docmodel import (
    BBox,
    Document,
    FieldSchema,
    LabelSet,
    ParseError,
    Phrase,
    SchemaField,
    ValidationError,
    Word,
    default_invoice_schema,
    parse_document,
    read_annotations,
    read_documents,
    read_labels,
    read_overlay,
    read_schema,
    reading_order,
    schema_from_json_dict,
    serialize_document,
    write_labels,
    write_overlay,
)
from ffrg.features import featurize
from ffrg.grouping import group_document
from ffrg.progressive import extract_values
from ffrg.synth import generate, preset_config


# --- boxes and words --------------------------------------------------------

def test_box_accessors():
    b = BBox(0.1, 0.2, 0.3, 0.6)
    assert b.width == pytest.approx(0.2)
    assert b.height == pytest.approx(0.4)


@pytest.mark.parametrize(
    "coords",
    [
        (-0.1, 0.0, 0.5, 0.5),
        (0.0, 0.0, 1.2, 0.5),
        (0.5, 0.0, 0.4, 0.5),   # x1 < x0
        (0.0, 0.5, 0.5, 0.4),   # y1 < y0
        (0.0, float("nan"), 0.5, 0.5),
        (0.0, 0.0, float("inf"), 0.5),
    ],
)
def test_box_rejects_bad_coordinates(coords):
    with pytest.raises(ValidationError):
        BBox(*coords)


def _detailed_box_checks(x0, y0, x1, y1):
    """BBox's checks one coordinate at a time, each naming what failed."""
    for name, v in (("x0", x0), ("y0", y0), ("x1", x1), ("y1", y1)):
        if not isinstance(v, (int, float)) or v != v or v in (float("inf"), float("-inf")):
            raise ValidationError(f"box coordinate {name}={v!r} is not finite")
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"box coordinate {name}={v} outside [0,1]")
    if x1 < x0:
        raise ValidationError(f"box has x1 < x0 ({x1} < {x0})")
    if y1 < y0:
        raise ValidationError(f"box has y1 < y0 ({y1} < {y0})")


_EDGE_FLOATS = [0.0, -0.0, 1.0, math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0),
                5e-324, -5e-324, 2.0e-308, float("nan"), float("inf"), float("-inf")]
_coordinate = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(0.0, 1.0),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(-2, 3),
    st.booleans(),
    st.sampled_from([None, "0.5", [0.5], np.float64(0.5), np.float64("nan"), 0.5j]),
)


@st.composite
def _near_valid_box(draw):
    """A valid box with some of its coordinates replaced."""
    (x0, x1), (y0, y1) = (sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
                          for _ in "xy")
    box = [x0, y0, x1, y1]
    for k in draw(st.sets(st.integers(0, 3))):
        box[k] = draw(_coordinate)
    return box


def _assert_box_check_agrees(box):
    try:
        _detailed_box_checks(*box)
    except ValidationError as e:
        with pytest.raises(ValidationError) as got:
            BBox(*box)
        assert (type(got.value), str(got.value)) == (type(e), str(e))
    else:
        assert BBox(*box).as_list() == list(box)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.one_of(_near_valid_box(), st.tuples(_coordinate, _coordinate, _coordinate, _coordinate)))
def test_box_check_agrees_with_the_detailed_checks(box):
    _assert_box_check_agrees(box)


def test_box_check_agrees_with_the_detailed_checks_on_every_edge_combination():
    values = [*_EDGE_FLOATS, 0.25, 0.75, 1]
    for box in itertools.product(values, repeat=4):
        _assert_box_check_agrees(box)


def test_word_rejects_padded_or_empty_text():
    box = BBox(0, 0, 0.1, 0.1)
    with pytest.raises(ValidationError):
        Word(0, "", box)
    with pytest.raises(ValidationError):
        Word(0, " x", box)


def test_phrase_needs_distinct_words():
    with pytest.raises(ValidationError):
        Phrase(())
    with pytest.raises(ValidationError):
        Phrase((1, 1))


# --- slotted records ----------------------------------------------------------

def _slotted_records():
    box = BBox(0.1, 0.2, 0.3, 0.22)
    return box, Word(0, "a", box), Phrase((0,))


def test_records_are_slotted():
    for record in _slotted_records():
        name = type(record).__name__
        assert not hasattr(record, "__dict__"), name
        assert type(record).__slots__ == tuple(f.name for f in dataclasses.fields(record)), name
        with pytest.raises(AttributeError):
            object.__setattr__(record, "extra", 1)


def test_records_refuse_assignment():
    for record in _slotted_records():
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


def test_replaced_records_are_checked_and_equal():
    box, word, phrase = _slotted_records()
    assert dataclasses.replace(box) == box and dataclasses.replace(box) is not box
    assert dataclasses.replace(box, x1=0.5) == BBox(0.1, 0.2, 0.5, 0.22)
    assert dataclasses.replace(word, text="b") == Word(0, "b", box)
    assert dataclasses.replace(phrase, word_ids=(0, 1)) == Phrase((0, 1))
    with pytest.raises(ValidationError, match="x1 < x0"):
        dataclasses.replace(box, x1=0.05)
    with pytest.raises(ValidationError, match="surrounding whitespace"):
        dataclasses.replace(word, text=" b")
    with pytest.raises(ValidationError, match="duplicate"):
        dataclasses.replace(phrase, word_ids=(1, 1))


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
def test_copied_records_are_equal(copy_of):
    doc = make_doc(_BOX_WORDS)
    doc = dataclasses.replace(doc, phrases=((2, 0),))
    for record in (*_slotted_records(), doc, doc.words[1], doc.phrases[0]):
        twin = copy_of(record)
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
    twin = copy_of(doc)
    for record in (*twin.words, twin.words[0].box, *twin.phrases):
        assert not hasattr(record, "__dict__")
    assert np.signbit(twin.words[1].box.x0)  # -0.0 stays -0.0


def test_document_requires_dense_word_ids():
    box = BBox(0, 0, 0.1, 0.1)
    with pytest.raises(ValidationError):
        Document("d", 100, 100, (Word(1, "a", box),))


def test_document_requires_word_i_to_have_id_i():
    box = BBox(0, 0, 0.1, 0.1)
    with pytest.raises(ValidationError, match="word at index 0 has id 1"):
        Document("d", 100, 100, (Word(1, "a", box), Word(0, "b", box)))


def test_document_rejects_phrase_sharing_a_word():
    doc = make_doc([("a", 0.0, 0.0, 0.1, 0.02), ("b", 0.2, 0.0, 0.3, 0.02)])
    with pytest.raises(ValidationError):
        Document(doc.doc_id, 1000, 1000, doc.words, ((0,), (0, 1)))


def test_document_rejects_an_empty_phrase():
    doc = make_doc([("a", 0.0, 0.0, 0.1, 0.02)])
    with pytest.raises(ValidationError, match="^document doc: phrase has no words$"):
        Document(doc.doc_id, 1000, 1000, doc.words, ((),))
    with pytest.raises(ValidationError, match="phrase has no words"):
        Document(doc.doc_id, 1000, 1000, doc.words, ((0,), ()))


def test_document_rejects_a_word_twice_in_one_phrase(tmp_path):
    doc = make_doc([("a", 0.0, 0.0, 0.1, 0.02), ("b", 0.2, 0.0, 0.3, 0.02)])
    message = "document doc: word 1 is listed twice in the phrases"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Document(doc.doc_id, 1000, 1000, doc.words, ((1, 0, 1),))
    record = json.loads(serialize_document(doc))
    record["phrases"] = [{"word_ids": [1, 0, 1]}]
    path = tmp_path / "docs.jsonl"
    path.write_text(serialize_document(make_doc([], doc_id="first")) + "\n"
                    + json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match=f"^line 2: {message}$"):
        read_documents(str(path))


# --- reading order ----------------------------------------------------------

def test_reading_order_sorts_lines_top_down_then_left_right():
    doc = make_doc(
        [
            ("Total", 0.50, 0.400, 0.56, 0.420),
            ("Invoice", 0.10, 0.100, 0.18, 0.120),
            ("Number", 0.20, 0.101, 0.28, 0.121),
            ("$12.00", 0.60, 0.402, 0.68, 0.422),
            ("48113", 0.30, 0.100, 0.36, 0.120),
        ]
    )
    assert reading_order(doc) == [1, 2, 4, 0, 3]


def test_reading_order_lines_close_transitively():
    # a-b and b-c overlap within half a word height; a-c alone would not
    doc = make_doc(
        [
            ("a", 0.1, 0.090, 0.15, 0.110),
            ("b", 0.3, 0.099, 0.35, 0.119),
            ("c", 0.5, 0.108, 0.55, 0.128),
        ]
    )
    assert reading_order(doc) == [0, 1, 2]


def _reading_order_by_closure(doc):
    """Lines as a fixed point of smallest-label propagation over every
    ordered pair, then the documented line and word sort."""
    words = doc.words
    yc = {w.id: (w.box.y0 + w.box.y1) / 2.0 for w in words}
    label = {w.id: w.id for w in words}
    changed = True
    while changed:
        changed = False
        for a in words:
            for b in words:
                near = abs(yc[a.id] - yc[b.id]) <= 0.5 * min(a.box.height, b.box.height)
                if near and label[b.id] < label[a.id]:
                    label[a.id] = label[b.id]
                    changed = True
    lines = {}
    for w in words:
        lines.setdefault(label[w.id], []).append(w)
    ordered = sorted(
        lines.values(),
        key=lambda ws: (min(w.box.y0 for w in ws), min(w.box.x0 for w in ws),
                        min(w.id for w in ws)),
    )
    return [w.id for line in ordered for w in sorted(line, key=lambda w: (w.box.x0, w.id))]


def _lined_doc(rng, doc_id):
    """Words on or around a few baselines, so lines chain, and lines as
    well as words tie on their top and left edges."""
    rows = rng.uniform(0.05, 0.9, size=int(rng.integers(1, 6)))
    entries = []
    for _ in range(int(rng.integers(1, 41))):
        h = float(rng.uniform(0.01, 0.03))
        jitter = float(rng.normal(0.0, 0.008)) if rng.random() < 0.5 else 0.0
        y0 = min(max(float(rng.choice(rows)) + jitter, 0.0), 1.0 - h)
        x0 = round(float(rng.uniform(0.0, 0.9)), 1)
        entries.append(("w", x0, y0, x0 + float(rng.uniform(0.01, 0.1)), y0 + h))
    return make_doc(entries, doc_id=doc_id)


def test_reading_order_matches_closure_oracle_on_random_documents():
    rng = np.random.default_rng(404)
    for trial in range(200):
        doc = _lined_doc(rng, f"lines-{trial}")
        assert reading_order(doc) == _reading_order_by_closure(doc), doc.doc_id


def _large_lined_doc(rng, n_words, doc_id):
    """A page of n_words on about n_words / 10 jittered baselines."""
    rows = rng.uniform(0.0, 0.97, size=n_words // 10)
    entries = []
    for _ in range(n_words):
        h = float(rng.uniform(0.004, 0.02))
        jitter = float(rng.normal(0.0, 0.004)) if rng.random() < 0.5 else 0.0
        y0 = min(max(float(rng.choice(rows)) + jitter, 0.0), 1.0 - h)
        x0 = round(float(rng.uniform(0.0, 0.9)), 2)
        entries.append(("w", x0, y0, x0 + float(rng.uniform(0.01, 0.1)), y0 + h))
    return make_doc(entries, doc_id=doc_id)


def test_reading_order_matches_closure_oracle_on_large_pages():
    rng = np.random.default_rng(405)
    for n_words in (200, 400, 800):
        doc = _large_lined_doc(rng, n_words, f"lines-{n_words}")
        assert reading_order(doc) == _reading_order_by_closure(doc), doc.doc_id


def test_pair_offset_by_exactly_their_half_height_shares_a_line():
    # dyadic boxes: centres 1/32 apart, exactly the half height of both
    doc = make_doc(
        [
            ("b", 0.10, 0.28125, 0.20, 0.34375),
            ("a", 0.30, 0.25000, 0.40, 0.31250),
            ("c", 0.05, 0.3125 + 2.0 ** -20, 0.08, 0.375 + 2.0 ** -20),
        ]
    )
    # one line puts the lower word b first; on a line of its own, c follows
    assert reading_order(doc) == [0, 1, 2]
    assert reading_order(doc) == _reading_order_by_closure(doc)


@pytest.mark.parametrize("short_above", [True, False])
def test_pair_offset_by_exactly_the_smaller_half_height_shares_a_line(short_above):
    # half heights 1/32 and 1/16, centres 1/32 apart, the short word above
    # or below; "side" shares a line with the short word only, and the tall
    # word stands where a line of its own would be read in another order
    short_yc, tall_yc = (0.28125, 0.3125) if short_above else (0.3125, 0.28125)
    side_yc = short_yc - 1 / 64 if short_above else short_yc + 1 / 64
    tall_x = 0.10 if short_above else 0.70
    doc = make_doc(
        [
            ("short", 0.50, short_yc - 1 / 32, 0.60, short_yc + 1 / 32),
            ("tall", tall_x, tall_yc - 1 / 16, tall_x + 0.1, tall_yc + 1 / 16),
            ("side", 0.30, side_yc - 1 / 32, 0.40, side_yc + 1 / 32),
        ]
    )
    assert reading_order(doc) == ([1, 2, 0] if short_above else [2, 0, 1])  # one line
    assert reading_order(doc) == _reading_order_by_closure(doc)


def test_words_tied_on_centre_y_share_a_line():
    # a row of words on one centre, and rows exactly one half height above
    # and below it, listed out of order so that ties in y meet the window
    entries = []
    for k, y0 in enumerate((0.5, 0.46875, 0.53125) * 4):
        x0 = 0.05 + 0.07 * ((5 * k) % 12)
        entries.append((f"w{k}", x0, y0, x0 + 0.05, y0 + 0.0625))
    doc = make_doc(entries)
    order = reading_order(doc)
    assert order == _reading_order_by_closure(doc)
    assert sorted(order, key=lambda i: doc.words[i].box.x0) == order  # one line


# --- the array passes against the per-pair loops they replaced --------------

def _near_in_y_by_bisect(yc, reach):
    """Each pair i, j with yc[i] <= yc[j] <= yc[i] + reach[i] (reach slightly
    widened), once: a window over the centres sorted by y."""
    slack = docmodel._REACH_SLACK
    by_y = sorted(range(len(yc)), key=yc.__getitem__)
    ys = [yc[i] for i in by_y]
    for k, i in enumerate(by_y):
        top = ys[k] + reach[i] * (1.0 + slack) + slack
        for j in by_y[k + 1 : bisect_right(ys, top, k + 1)]:
            yield i, j


def _window_pairs(yc, reach):
    i, j = docmodel._near_in_y(np.array(yc, dtype=np.float64), np.array(reach, dtype=np.float64))
    return list(zip(i.tolist(), j.tolist()))


def test_window_pairs_equal_the_bisect_loop():
    rng = np.random.default_rng(406)
    for n in (0, 1, 2, 5, 30, 200):
        for _ in range(20):
            # coarse centres tie often; some reaches are zero
            yc = [float(v) for v in np.round(rng.uniform(0.0, 1.0, size=n), 2)]
            reach = [float(v) for v in rng.choice([0.0, 0.005, 0.01, 0.05], size=n)]
            assert _window_pairs(yc, reach) == list(_near_in_y_by_bisect(yc, reach))


def test_window_pairs_equal_the_bisect_loop_on_ties_and_signed_zeros():
    yc = [0.0, -0.0, 0.5, 0.5, -0.0, 0.0, 0.5 + 2.0 ** -20, 0.515625, 0.5]
    reach = [0.0, 0.0, 0.015625, 0.0, 0.25, 0.0, 0.0, 0.015625, 0.015625]
    assert _window_pairs(yc, reach) == list(_near_in_y_by_bisect(yc, reach))


def _union_find_components(n, links):
    """Components on 0..n-1, each in index order, ordered by smallest member."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in links:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    members = {}
    for i in range(n):
        members.setdefault(find(i), []).append(i)
    return list(members.values())


def test_components_equal_union_find():
    rng = np.random.default_rng(407)
    for n in (0, 1, 2, 7, 40, 300):
        for n_links in (0, 1, n // 2, n, 3 * n):
            i = rng.integers(0, max(n, 1), size=n_links if n else 0)
            j = rng.integers(0, max(n, 1), size=n_links if n else 0)
            label = docmodel._components(n, i, j).tolist()
            members = {}
            for v, root in enumerate(label):
                members.setdefault(root, []).append(v)
            assert all(root == group[0] for root, group in members.items())
            assert list(members.values()) == _union_find_components(n, zip(i.tolist(), j.tolist()))


def test_components_of_a_long_chain():
    # a path listed from its far end: hooking and pointer jumping must still
    # reach the smallest member
    n = 1000
    i = np.arange(n - 1, 0, -1)
    assert docmodel._components(n, i, i - 1).tolist() == [0] * n


_HELLO_WORLD = [("world", 0.30, 0.10, 0.40, 0.12), ("hello", 0.10, 0.10, 0.20, 0.12)]


# --- JSONL documents --------------------------------------------------------

def _record(words, page=1000):
    return json.dumps(
        {"doc_id": "d1", "page_width": page, "page_height": page, "words": words}
    )


def test_parse_normalizes_pixel_boxes():
    doc = parse_document(_record([{"text": "a", "box": [100, 200, 300, 220]}]))
    assert doc.words[0].box == BBox(0.1, 0.2, 0.3, 0.22)


def test_parse_keeps_unit_boxes():
    doc = parse_document(_record([{"text": "a", "box": [0.1, 0.2, 0.3, 0.22]}]))
    assert doc.words[0].box == BBox(0.1, 0.2, 0.3, 0.22)


def test_page_with_no_coordinate_above_1_5_reads_as_normalized():
    # A known limitation: units are inferred per page, so on a 1000x1000
    # pixel page the one-pixel box [0, 0, 1, 1] reads as the whole page.
    doc = parse_document(_record([{"text": "a", "box": [0, 0, 1, 1]}], page=1000))
    assert doc.words[0].box == BBox(0.0, 0.0, 1.0, 1.0)
    doc = parse_document(_record([{"text": "a", "box": [0, 0, 1, 1]},
                                  {"text": "b", "box": [1.5, 1.5, 1.6, 1.6]}]))
    assert doc.words[0].box == BBox(0.0, 0.0, 0.001, 0.001)


@pytest.mark.parametrize(
    "line,err",
    [
        ("not json", ParseError),
        ('{"doc_id": "d"}', ParseError),
        ("[1,2]", ParseError),
        (_record([{"text": "a", "box": [0, 0, 0.1]}]), ParseError),
        (_record([{"text": "  ", "box": [0, 0, 0.1, 0.1]}]), ValidationError),
        (_record([{"text": "a", "box": [0, 0, 1200, 900]}]), ValidationError),
    ],
)
def test_parse_rejects_malformed_records(line, err):
    with pytest.raises(err):
        parse_document(line, line_number=3)


def test_pixel_page_is_detected_before_any_box_is_checked():
    # word 0's 2.0 makes the page pixels, and word 1's NaN is then named
    line = _record([{"text": "a", "box": [0, 0, 2.0, 1]},
                    {"text": "b", "box": [0, 0, float("nan"), 1]}])
    with pytest.raises(ValidationError,
                       match=r"line 3: word 1 \('b'\) of d1: box coordinate x1=nan is not finite"):
        parse_document(line, line_number=3)


@pytest.mark.parametrize(
    "word,message",
    [
        ({"text": "a", "box": "1234"}, "box must be an array of 4 numbers"),
        ({"text": "a", "box": [0, 0, True, 0.1]}, "box must be an array of 4 numbers"),
        ({"text": "a", "box": [0, 0, "0.1", 0.1]}, "box must be an array of 4 numbers"),
        ({"text": {"x": 1}, "box": [0, 0, 0.1, 0.1]}, "text must be a string"),
        ({"text": 12, "box": [0, 0, 0.1, 0.1]}, "text must be a string"),
        ("a", "must be an object with text and box"),
    ],
)
def test_parse_rejects_words_of_the_wrong_kind(word, message):
    with pytest.raises(ParseError, match=f"line 3: word 0 of d1:? {message}"):
        parse_document(_record([word]), line_number=3)


@pytest.mark.parametrize(
    "header,message",
    [
        ({"doc_id": None}, "doc_id must be a string"),
        ({"doc_id": {"a": 1}}, "doc_id must be a string"),
        ({"doc_id": 7}, "doc_id must be a string"),
        ({"page_width": 10.9}, "page dimensions of d1 must be integers"),
        ({"page_width": 1000.0}, "page dimensions of d1 must be integers"),
        ({"page_height": True}, "page dimensions of d1 must be integers"),
        ({"page_height": "1000"}, "page dimensions of d1 must be integers"),
    ],
)
def test_parse_rejects_header_values_of_the_wrong_kind(header, message):
    record = {**json.loads(_record([{"text": "a", "box": [0, 0, 0.1, 0.1]}])), **header}
    with pytest.raises(ParseError, match=f"line 3: {message}"):
        parse_document(json.dumps(record), line_number=3)


@pytest.mark.parametrize("reader", [read_labels, read_annotations])
def test_rows_with_a_non_string_doc_id_are_rejected(tmp_path, reader):
    rows = [{"doc_id": None, "labels": [], "provenance": "bootstrap", "fields": {}}]
    with pytest.raises(ParseError, match="line 1: doc_id must be a string"):
        reader(_jsonl(tmp_path, rows))


@pytest.mark.parametrize("value", [None, 12, {"a": 1}, ["x"]])
def test_read_annotations_rejects_non_string_values(tmp_path, value):
    rows = [{"doc_id": "d", "fields": {"total_amount": value}}]
    with pytest.raises(ParseError, match="annotations line 1: value of field 'total_amount'"):
        read_annotations(_jsonl(tmp_path, rows))


def test_read_documents_rejects_a_repeated_doc_id(tmp_path):
    path = tmp_path / "docs.jsonl"
    first = _record([{"text": "a", "box": [0.1, 0.1, 0.2, 0.2]}])
    other = first.replace('"d1"', '"d2"')
    path.write_text("\n".join([first, other, "", first]) + "\n")
    with pytest.raises(ValidationError, match=r"line 4: doc_id 'd1' repeats line 1"):
        read_documents(str(path))


@pytest.mark.parametrize("reader,kind", [
    (read_documents, "documents"), (read_labels, "labels"),
    (read_annotations, "annotations"), (read_overlay, "overlay"),
])
def test_jsonl_readers_reject_lines_that_are_not_utf8(tmp_path, reader, kind):
    # the bad line lies past the first decoded chunk of the file
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b"\n" * 9999 + b'{"doc_id": "d\xff"}\n')
    # a document error names the bare line, the others their reader's kind too
    where = "line" if kind == "documents" else f"{kind} line"
    with pytest.raises(ParseError, match=f"^{where} 10000: not UTF-8 text$"):
        reader(str(path))


def test_read_schema_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "schema.json"
    path.write_bytes(b'{"fields": [], "name": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8 text") as exc:
        read_schema(str(path))
    assert str(exc.value).startswith(f"schema file {path}: ")


def test_crlf_and_cr_documents_read_as_their_lf_twin(tmp_path):
    first = _record([{"text": "Größe", "box": [0.1, 0.1, 0.2, 0.2]}])
    records = [first, "", first.replace('"d1"', '"d2"')]
    lf = tmp_path / "lf.jsonl"
    lf.write_bytes("\n".join(records).encode() + b"\n")
    want = read_documents(str(lf))
    assert [doc.doc_id for doc in want] == ["d1", "d2"]
    for newline in ("\r\n", "\r"):
        twin = tmp_path / "twin.jsonl"
        twin.write_bytes(newline.join(records).encode() + newline.encode())
        assert read_documents(str(twin)) == want
    # line numbers count the same lines
    twin.write_bytes("\r\n".join([first, "", first]).encode())
    with pytest.raises(ValidationError, match="^line 3: doc_id 'd1' repeats line 1$"):
        read_documents(str(twin))


def test_document_round_trip_with_phrases():
    doc = make_doc(
        [("hello", 0.1, 0.1, 0.2, 0.12), ("world", 0.22, 0.1, 0.3, 0.12)]
    )
    doc = Document(doc.doc_id, doc.page_width, doc.page_height, doc.words, ((0, 1),))
    again = parse_document(serialize_document(doc))
    assert again == doc


def test_grouped_record_lists_phrase_words_in_reading_order():
    record = json.loads(_record([{"text": t, "box": list(b)} for t, *b in _HELLO_WORLD]))
    record["phrases"] = [{"word_ids": [0, 1]}]
    doc = parse_document(json.dumps(record))
    assert doc.phrases == ((1, 0),)
    assert doc.members == ((1, 0),)
    assert bootstrap.PhraseRows(doc).texts == ["hello world"]


def test_grouped_record_keeps_the_order_it_worked_out(monkeypatch):
    def recomputed(doc):
        raise AssertionError("reading order recomputed")

    monkeypatch.setattr(docmodel, "reading_order", recomputed)
    record = json.loads(_record([{"text": t, "box": list(b)} for t, *b in _HELLO_WORLD]))
    record["phrases"] = [{"word_ids": [0]}, {"word_ids": [1]}]
    doc = parse_document(json.dumps(record))
    assert doc.order == (1, 0)
    assert list(doc.phrases) == [(1,), (0,)]


def test_grouped_record_reads_its_word_boxes_once(monkeypatch):
    real, read = docmodel._boxes, []
    monkeypatch.setattr(docmodel, "_boxes", lambda items: read.append(1) or real(items))
    record = json.loads(_record([{"text": "a", "box": [0.1, 0.1, 0.2, 0.2]}]))
    record["phrases"] = [{"word_ids": [0]}]
    doc = parse_document(json.dumps(record))
    assert len(read) == 1
    assert doc.phrases == ((0,),)


# --- the word box array -----------------------------------------------------

def _load_perfbench_dense():
    """perfbench/dense.py, loaded from its file (perfbench is not a package
    the tests import)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "dense.py"
    spec = importlib.util.spec_from_file_location("perfbench_dense", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hex_box_rows(rows):
    return [[float(v).hex() for v in row] for row in rows]


def _assert_boxes_are_the_word_rows(doc):
    assert doc.boxes.dtype == np.float64
    assert doc.boxes.shape == (len(doc.words), 4)
    assert not doc.boxes.flags.writeable
    assert _hex_box_rows(doc.boxes.tolist()) == _hex_box_rows(
        [w.box.as_list() for w in doc.words])


_BOX_WORDS = [("a", 0.1, 0.2, 0.3, 0.22), ("b", -0.0, 0.5, 0.0, 0.52), ("c", 0.4, 0.0, 1.0, 1.0)]


def test_document_boxes_are_read_only_word_rows():
    doc = make_doc(_BOX_WORDS)
    _assert_boxes_are_the_word_rows(doc)
    assert np.signbit(doc.boxes[1, 0])  # -0.0 stays -0.0
    with pytest.raises(ValueError, match="read-only"):
        doc.boxes[0, 0] = 0.5
    x0 = doc.boxes.T[0]
    with pytest.raises(ValueError, match="read-only"):
        x0 += 1.0
    empty = make_doc([])
    assert empty.boxes.shape == (0, 4)
    _assert_boxes_are_the_word_rows(empty)


def test_document_boxes_stay_out_of_equality_hash_and_repr():
    doc, twin = make_doc(_BOX_WORDS), make_doc(_BOX_WORDS)
    assert doc.boxes is not twin.boxes
    assert doc == twin
    assert hash(doc) == hash(twin)
    assert "boxes" not in repr(doc)
    assert [f.name for f in dataclasses.fields(Document) if f.compare] == [
        "doc_id", "page_width", "page_height", "words", "phrases"]


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda doc: pickle.loads(pickle.dumps(doc))],
                         ids=["deepcopy", "pickle"])
def test_copied_document_keeps_read_only_boxes(copy_of):
    doc = make_doc(_BOX_WORDS)
    doc = dataclasses.replace(doc, phrases=((2, 0),))
    twin = copy_of(doc)
    assert twin == doc
    _assert_boxes_are_the_word_rows(twin)
    with pytest.raises(ValueError, match="read-only"):
        twin.boxes[0, 0] = 0.5


# world and hello share a phrase; total is a line of its own below them
_LAYOUT_WORDS = [("world", 0.21, 0.10, 0.30, 0.12), ("hello", 0.10, 0.10, 0.20, 0.12),
                 ("total", 0.10, 0.50, 0.20, 0.52)]


def _assert_int_tuples(value):
    assert type(value) is tuple
    for item in value:
        if type(item) is tuple:
            _assert_int_tuples(item)
        else:
            assert type(item) is int


def test_document_layout_is_int_tuples():
    doc = make_doc(_LAYOUT_WORDS)
    assert doc.order == (1, 0, 2)
    assert doc.members == ((1, 0), (2,))
    _assert_int_tuples(doc.order)
    _assert_int_tuples(doc.members)
    assert make_doc([]).order == () and make_doc([]).members == ()


def test_replace_works_out_the_layout_anew():
    doc = make_doc(_LAYOUT_WORDS)
    assert (doc.order, doc.members) == ((1, 0, 2), ((1, 0), (2,)))
    moved = dataclasses.replace(doc, words=make_doc(_LAYOUT_WORDS[::-1]).words)
    assert (moved.order, moved.members) == ((1, 2, 0), ((1, 2), (0,)))
    phrases = ((2,), (1,), (0,))
    grouped = dataclasses.replace(doc, phrases=phrases)
    assert (grouped.order, grouped.members) == ((1, 0, 2), ((2,), (1,), (0,)))
    assert dataclasses.replace(grouped, phrases=None).members == ((1, 0), (2,))


@pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda doc: pickle.loads(pickle.dumps(doc))],
                         ids=["deepcopy", "pickle"])
def test_copied_document_keeps_its_layout(copy_of, monkeypatch):
    doc = make_doc(_LAYOUT_WORDS)
    order, members = doc.order, doc.members
    twin = copy_of(doc)

    def recomputed(doc):
        raise AssertionError("layout recomputed")

    monkeypatch.setattr(docmodel, "reading_order", recomputed)
    monkeypatch.setattr(grouping, "phrase_members", recomputed)
    assert (twin.order, twin.members) == (order, members)
    _assert_int_tuples(twin.order)
    _assert_int_tuples(twin.members)
    _assert_boxes_are_the_word_rows(twin)


def test_worked_out_layout_stays_out_of_equality_hash_and_repr():
    doc, twin = make_doc(_LAYOUT_WORDS), make_doc(_LAYOUT_WORDS)
    assert (doc.order, doc.members) == ((1, 0, 2), ((1, 0), (2,)))
    assert doc == twin
    assert hash(doc) == hash(twin)
    assert repr(doc) == repr(twin)


def test_replace_rebuilds_document_boxes():
    doc = make_doc(_BOX_WORDS)
    moved = dataclasses.replace(doc, words=make_doc(_BOX_WORDS[::-1]).words)
    assert moved.boxes is not doc.boxes
    _assert_boxes_are_the_word_rows(moved)
    grouped = dataclasses.replace(doc, phrases=((0,),))
    _assert_boxes_are_the_word_rows(grouped)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(doc, boxes=np.zeros((3, 4)))


def test_document_boxes_equal_the_word_rows_at_every_construction_site(schema):
    unit = _record([{"text": "a", "box": [0.1, 0.2, 0.3, 0.22]},
                    {"text": "b", "box": [0, 0.5, 0.4, 0.52]}])
    pixel = _record([{"text": "a", "box": [100, 200, 300, 220]},
                     {"text": "b", "box": [0, 500, 400, 520]}])
    grouped = json.loads(unit)
    grouped["phrases"] = [{"word_ids": [1]}, {"word_ids": [0]}]
    grouped = parse_document(json.dumps(grouped))
    docs, _, _ = generate(preset_config("noisy-bench", 3, 0), schema)
    regrouped = group_document(docs[0])
    pages, _ = _load_perfbench_dense().build_pages(0, 1, schema)
    assert grouped.phrases is not None and regrouped.phrases is not None
    assert [len(p.words) for p in pages] == [50, 100, 200, 400, 800]
    for doc in [parse_document(unit), parse_document(pixel), grouped, *docs, regrouped, *pages]:
        _assert_boxes_are_the_word_rows(doc)


def test_word_boxes_are_read_once_per_document(schema, monkeypatch):
    # the constructor builds the box array; no stage on a document walks
    # its word boxes again, and a phrase has no box of its own to walk
    real, read = docmodel._boxes, []

    def boxes(items):
        items = list(items)
        read.append({type(it).__name__ for it in items})
        return real(items)

    monkeypatch.setattr(docmodel, "_boxes", boxes)
    docs, _, _ = generate(preset_config("noisy-bench", 4, 0), schema)
    assert read == [{"Word"}] * 4
    read.clear()
    bootstrap_corpus(docs, schema)
    for doc in docs:
        probs = np.full((len(doc.words), schema.n_fields + 1), 0.01)
        probs[:, 1] = 0.9
        monkeypatch.setattr(progressive, "ensemble_predict", lambda params, x, p=probs: p)
        assert extract_values(None, doc, featurize(doc), schema)
    assert read == []
    grouped = [group_document(doc) for doc in docs]
    assert read == [{"Word"}] * 4
    read.clear()
    bootstrap_corpus(grouped, schema)
    assert read == []


# --- schema -----------------------------------------------------------------

def test_default_schema_shape(schema):
    assert schema.n_fields == 7
    assert schema.field_by_id(1).name == "inv_number"
    assert (schema.fields[6].name, schema.fields[6].field_id) == ("total_tax", 7)
    with pytest.raises(KeyError):
        schema.field_by_id(0)


def test_schema_digest_is_stable_and_content_sensitive(schema):
    assert len(schema.digest()) == 32
    assert schema.digest() == default_invoice_schema().digest()
    other = schema_from_json_dict(json.loads(json.dumps(schema.to_json_dict())))
    assert other.digest() == schema.digest()
    trimmed = FieldSchema(
        tuple(
            SchemaField(i + 1, f.name, f.keys, f.allowed_types)
            for i, f in enumerate(schema.fields[:3])
        )
    )
    assert trimmed.digest() != schema.digest()


@pytest.mark.parametrize(
    "field",
    [
        dict(field_id=2, name="f", keys=("k",), allowed_types=frozenset({DataType.NUMBER})),
    ],
)
def test_schema_ids_must_be_contiguous(field):
    with pytest.raises(ValidationError):
        FieldSchema((SchemaField(**field),))


def test_schema_rejects_bad_keys_and_types():
    num = frozenset({DataType.NUMBER})
    with pytest.raises(ValidationError):
        SchemaField(1, "f", ("Key",), num)  # not lowercase
    with pytest.raises(ValidationError):
        SchemaField(1, "f", (), num)
    with pytest.raises(ValidationError):
        SchemaField(1, "f", ("k",), frozenset({DataType.OTHER}))
    with pytest.raises(ValidationError):
        SchemaField(1, "f", ("k",), frozenset())


_FIELD = {"field_id": 1, "name": "total", "keys": ["total"], "allowed_types": ["number"]}


@pytest.mark.parametrize(
    "change",
    [
        {"keys": "total"},
        {"keys": [1]},
        {"keys": ["total", None]},
        {"allowed_types": "number"},
        {"allowed_types": [None]},
        {"field_id": 1.9},
        {"field_id": 1.0},
        {"field_id": "1"},
        {"field_id": True},
        {"name": None},
        {"name": 5},
    ],
)
def test_schema_reader_refuses_what_it_would_coerce(change, tmp_path):
    assert schema_from_json_dict({"fields": [_FIELD]}).fields[0].keys == ("total",)
    with pytest.raises(ParseError, match="malformed schema"):
        schema_from_json_dict({"fields": [{**_FIELD, **change}]})
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"fields": [{**_FIELD, **change}]}))
    with pytest.raises(ParseError) as exc:
        read_schema(str(path))
    assert str(exc.value).startswith(f"schema file {path}: malformed schema: ")


# --- labels -----------------------------------------------------------------

def test_labelset_background_is_implicit():
    labels = LabelSet("test")
    labels.add_document("d1")
    labels.set_label("d1", 3, 2)
    assert labels.get("d1", 3) == 2
    assert labels.get("d1", 0) == 0
    assert labels.covers("d1")
    assert not labels.covers("d2")
    labels.set_label("d1", 3, 0)  # assigning background removes the entry
    assert labels.positives("d1") == {}
    assert labels.covers("d1")


def _labelset(provenance="x", positives=((0, 1), (4, 3)), registered=()):
    labels = LabelSet(provenance)
    for doc_id in registered:
        labels.add_document(doc_id)
    for wid, cls in positives:
        labels.set_label("d1", wid, cls)
    return labels


def test_labelset_equality_is_provenance_and_positives():
    assert _labelset() == _labelset()
    assert _labelset() != _labelset(provenance="y")
    assert _labelset() != _labelset(positives=((0, 1), (4, 2)))
    assert _labelset() != _labelset(positives=((0, 1),))
    # a registered document without positives is covered, so it counts
    assert _labelset(registered=("d2",)) != _labelset()
    assert _labelset(registered=("d2",)) == _labelset(registered=("d2",))
    assert _labelset() != {"d1": {0: 1, 4: 3}}
    assert repr(_labelset(registered=("d2",))) == "LabelSet('x', docs=2, positives=2)"
    assert repr(LabelSet("empty")) == "LabelSet('empty', docs=0, positives=0)"


def test_labelset_validate_checks_ranges():
    doc = make_doc([("a", 0.1, 0.1, 0.2, 0.12)], doc_id="d1")
    labels = LabelSet("test")
    labels.set_label("d1", 0, 1)
    labels.validate([doc], n_fields=7)
    labels.set_label("d1", 5, 1)
    with pytest.raises(ValidationError):
        labels.validate([doc], n_fields=7)
    bad = LabelSet("test")
    bad.set_label("other", 0, 1)
    with pytest.raises(ValidationError):
        bad.validate([doc], n_fields=7)
    high = LabelSet("test")
    high.set_label("d1", 0, 9)
    with pytest.raises(ValidationError):
        high.validate([doc], n_fields=7)


def _jsonl(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return str(path)


def test_read_labels_rejects_a_repeated_doc_id(tmp_path):
    rows = [
        {"doc_id": "d", "labels": [[0, 1]], "provenance": "bootstrap"},
        {"doc_id": "e", "labels": [], "provenance": "bootstrap"},
        {"doc_id": "d", "labels": [[1, 2]], "provenance": "bootstrap"},
    ]
    with pytest.raises(ValidationError, match=r"labels line 3: doc_id 'd' repeats line 1"):
        read_labels(_jsonl(tmp_path, rows))


def test_read_labels_rejects_a_second_provenance(tmp_path):
    rows = [
        {"doc_id": "d", "labels": [[0, 1]], "provenance": "bootstrap"},
        {"doc_id": "e", "labels": [[1, 2]], "provenance": "truth"},
    ]
    with pytest.raises(
        ValidationError,
        match=r"labels line 2: provenance 'truth' differs from labels line 1's 'bootstrap'",
    ):
        read_labels(_jsonl(tmp_path, rows))


@pytest.mark.parametrize("provenance", [5, None, True, ["bootstrap"]])
def test_read_labels_refuses_a_provenance_that_is_not_a_string(tmp_path, provenance):
    rows = [{"doc_id": "d", "labels": [[0, 1]], "provenance": provenance}]
    with pytest.raises(ParseError, match="labels line 1: provenance must be a string"):
        read_labels(_jsonl(tmp_path, rows))


def test_read_annotations_rejects_a_repeated_doc_id(tmp_path):
    rows = [
        {"doc_id": "d", "fields": {"total_amount": "1.00"}},
        {"doc_id": "d", "fields": {"total_amount": "2.00"}},
    ]
    with pytest.raises(ValidationError, match=r"annotations line 2: doc_id 'd' repeats line 1"):
        read_annotations(_jsonl(tmp_path, rows))


def test_labels_round_trip(tmp_path):
    labels = LabelSet("bootstrap")
    labels.add_document("empty-doc")
    labels.set_label("d1", 0, 1)
    labels.set_label("d1", 4, 3)
    path = tmp_path / "labels.jsonl"
    write_labels(str(path), labels)
    again = read_labels(str(path))
    assert again == labels
    assert again.covers("empty-doc")


def test_overlay_round_trip(tmp_path):
    # rows in the order of the predictions, not sorted as annotations are
    path = tmp_path / "overlay.jsonl"
    write_overlay(str(path), {"d2": [[0, 1], [3, 2]], "d1": []},
                  {"d1": {}, "d2": {"total_amount": "1.00"}})
    assert path.read_text(encoding="utf-8").splitlines() == [
        '{"doc_id": "d2", "predictions": [[0, 1], [3, 2]], "fields": {"total_amount": "1.00"}}',
        '{"doc_id": "d1", "predictions": [], "fields": {}}',
    ]
    assert read_overlay(str(path)) == {"d2": {0: 1, 3: 2}, "d1": {}}


# each id ends with the slot that holds the surrogate; the message names
# the line, as the one gate that refuses it knows no slot
@pytest.mark.parametrize("text,doc_id", [
    pytest.param("ab\ud800", "d1", id="ab\ud800-d1-line 7: word 1 of d1"),
    pytest.param("\udc00", "d1", id="\udc00-d1-line 7: word 1 of d1"),
    pytest.param("ok", "d\ud83d", id="ok-d\ud83d-line 7: doc_id"),
])
def test_parse_document_refuses_a_lone_surrogate(text, doc_id):
    rec = {"doc_id": doc_id, "page_width": 100, "page_height": 100, "words": [
        {"text": "fine", "box": [1, 1, 2, 2]}, {"text": text, "box": [3, 1, 4, 2]}]}
    line = json.dumps(rec)  # the surrogate travels as a \u escape
    with pytest.raises(ParseError, match="^line 7: not UTF-8 text$"):
        parse_document(line, 7)
    # a surrogate pair is one character, not a lone surrogate
    rec["words"][1]["text"], rec["doc_id"] = "\U0001F600", "d1"
    assert parse_document(json.dumps(rec), 7).words[1].text == "\U0001F600"


_FINE = {"labels": {"doc_id": "d", "labels": [[0, 1]], "provenance": "bootstrap"},
         "annotations": {"doc_id": "d", "fields": {"total": "12.00"}},
         "overlay": {"doc_id": "d", "predictions": [[0, 1]]}}
_READERS = {"labels": read_labels, "annotations": read_annotations, "overlay": read_overlay}


# each id ends with the slot that holds the surrogate, as in
# test_parse_document_refuses_a_lone_surrogate
@pytest.mark.parametrize("kind,change", [
    pytest.param("labels", {"doc_id": "e\ud800"}, id="labels-change0-doc_id"),
    pytest.param("labels", {"provenance": "boot\udfff"}, id="labels-change1-provenance"),
    pytest.param("annotations", {"doc_id": "\udc00"}, id="annotations-change2-doc_id"),
    pytest.param("annotations", {"fields": {"total": "12\ud800"}},
                 id="annotations-change3-field 'total'"),
    pytest.param("annotations", {"fields": {"tot\ud800": "12"}},
                 id="annotations-change4-field 'tot\\ud800'"),
    pytest.param("overlay", {"doc_id": "e\ud83d"}, id="overlay-change5-doc_id"),
])
def test_record_readers_refuse_a_lone_surrogate(tmp_path, kind, change):
    # the surrogate travels as a \u escape; a writer could not encode it
    read = _READERS[kind]
    rows = [_FINE[kind], {**_FINE[kind], "doc_id": "e", **change}]
    with pytest.raises(ParseError) as e:
        read(_jsonl(tmp_path, rows))
    assert str(e.value) == f"{kind} line 2: not UTF-8 text"
    # a surrogate pair is one character, not a lone surrogate
    line = re.sub(r"\\ud[89a-f]..", r"\\ud83d\\ude00", json.dumps(rows[1]))
    path = tmp_path / "pair.jsonl"
    path.write_text(line + "\n")
    got = read(str(path))
    assert len(got.doc_ids() if kind == "labels" else got) == 1


@pytest.mark.parametrize("change", [
    {"name": "tot\ud800"}, {"keys": ["tot\udfff"]}, {"allowed_types": ["number\ud83d"]},
], ids=["name", "key", "allowed_type"])
def test_read_schema_refuses_a_lone_surrogate(tmp_path, change):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"fields": [{**_FIELD, **change}]}))  # as a \u escape
    with pytest.raises(ParseError) as e:
        read_schema(str(path))
    assert str(e.value) == f"schema file {path}: not UTF-8 text"


def test_read_schema_takes_a_surrogate_pair(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"fields": [{**_FIELD, "name": "tot\U0001F600",
                                            "keys": ["\U0001F600"]}]}))
    (field,) = read_schema(str(path)).fields
    assert (field.name, field.keys) == ("tot\U0001F600", ("\U0001F600",))


def test_an_upper_case_escape_decodes_to_the_same_lone_surrogate():
    line = ('{"doc_id": "d", "page_width": 10, "page_height": 10, '
            '"words": [{"text": "a\\uDC00", "box": [1, 1, 2, 2]}]}')
    with pytest.raises(ParseError, match="^line 3: not UTF-8 text$"):
        parse_document(line, 3)


def test_a_byte_that_is_not_utf8_wins_over_malformed_json(tmp_path):
    # the text is refused before it is parsed, wherever the byte lies
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"doc_id": "d", "fields": {}, \xff\n')
    with pytest.raises(ParseError, match="^annotations line 1: not UTF-8 text$"):
        read_annotations(str(path))
    path.write_bytes(b'{"fields": [\xff')
    with pytest.raises(ParseError, match="^schema file .*: not UTF-8 text$"):
        read_schema(str(path))


def test_json_nested_past_the_recursion_limit_is_malformed(tmp_path):
    deep = "[" * 5000 + "]" * 5000
    with pytest.raises(ParseError, match="^line 1: malformed JSON: maximum recursion depth"):
        parse_document('{"doc_id": "d", "words": ' + deep + "}", 1)
    path = tmp_path / "schema.json"
    path.write_text('{"fields": ' + deep + "}")
    with pytest.raises(ParseError, match="^schema file .*: malformed JSON: maximum recursion"):
        read_schema(str(path))
