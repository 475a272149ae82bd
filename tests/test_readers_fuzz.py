"""Fuzzed JSON readers: given any JSON value in any slot, including
infinities, integers too large for a float and integers too long for
Python to read, a reader fails only with ParseError or ValidationError
(ParseError is a ValidationError)."""

import contextlib
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ffrg.docmodel import (
    ValidationError,
    parse_document,
    read_annotations,
    read_labels,
    schema_from_json_dict,
)

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# json.dumps cannot write an integer past Python's 4300-digit string limit,
# so a marker string stands for one and _dumps writes it out in digits
_TOO_LONG = "\x00too-long-integer"
# numbers that overflow an int or a float conversion, or cannot be read
_extreme = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), 10**400, -(10**400), _TOO_LONG]
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _extreme,
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
_any_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _slot(valid):
    """A slot holds a plausible value, an extreme number or any JSON value."""
    return st.one_of(valid, _extreme, _any_json)


def _record(required, optional=None):
    return st.one_of(st.fixed_dictionaries(required, optional=optional or {}), _any_json)


_word = _record({
    "text": _slot(st.sampled_from(["a", "Total", "12.00", " "])),
    "box": _slot(st.lists(_slot(st.floats(0, 1200)), min_size=4, max_size=4)),
})
_document = _record(
    {
        "doc_id": _slot(st.text(max_size=4)),
        "page_width": _slot(st.integers(1, 2000)),
        "page_height": _slot(st.integers(1, 2000)),
        "words": _slot(st.lists(_word, max_size=4)),
    },
    {"phrases": _slot(st.lists(
        _record({"word_ids": _slot(st.lists(_slot(st.integers(0, 4)), max_size=3))}),
        max_size=3,
    ))},
)
_doc_id = _slot(st.sampled_from(["d", "e"]))
_label_row = _record({
    "doc_id": _doc_id,
    "labels": _slot(st.lists(
        _slot(st.lists(_slot(st.integers(0, 8)), min_size=2, max_size=2)), max_size=3,
    )),
    "provenance": _slot(st.sampled_from(["bootstrap", "truth"])),
})
_annotation_row = _record({
    "doc_id": _doc_id,
    "fields": _slot(st.dictionaries(
        st.sampled_from(["total_amount", "inv_date"]), _slot(st.text(max_size=6)),
    )),
})
_schema = _record({
    "fields": _slot(st.lists(_record({
        "field_id": _slot(st.integers(1, 3)),
        "name": _slot(st.sampled_from(["f", "g"])),
        "keys": _slot(st.lists(_slot(st.sampled_from(["total", "Key"])), max_size=2)),
        "allowed_types": _slot(
            st.lists(_slot(st.sampled_from(["number", "date", "x"])), max_size=2)
        ),
    }), max_size=3)),
})


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(_TOO_LONG), "9" * 5000)


def _read_rows(reader, rows):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "rows.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(_dumps(r) + "\n" for r in rows)
        return reader(path)


@FUZZ
@given(_document)
def test_parse_document_fails_only_with_typed_errors(record):
    with contextlib.suppress(ValidationError):
        parse_document(_dumps(record), line_number=1)


@FUZZ
@given(st.lists(_label_row, min_size=1, max_size=3))
def test_read_labels_fails_only_with_typed_errors(rows):
    with contextlib.suppress(ValidationError):
        _read_rows(read_labels, rows)


@FUZZ
@given(st.lists(_annotation_row, min_size=1, max_size=3))
def test_read_annotations_fails_only_with_typed_errors(rows):
    with contextlib.suppress(ValidationError):
        _read_rows(read_annotations, rows)


# schema_from_json_dict reads no file, so it affords more examples
@settings(FUZZ, max_examples=600)
@given(_schema)
def test_schema_from_json_dict_fails_only_with_typed_errors(raw):
    with contextlib.suppress(ValidationError):
        schema_from_json_dict(raw)
