"""Fuzzed readers: given any JSON value in any slot, including
infinities, integers too large for a float and integers too long for
Python to read, and strings holding lone surrogates, a reader fails only
with ParseError or ValidationError (ParseError is a ValidationError), what
it accepts it does not coerce, and every string it accepts encodes as
UTF-8.  The checkpoint reader gets random bytes, truncations and byte
flips."""

import functools
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from ffrg import cli
from ffrg.docmodel import (
    ValidationError,
    default_invoice_schema,
    parse_document,
    read_annotations,
    read_labels,
    read_schema,
)
from ffrg.model import HEADER_BYTES, ModelParams, init_params, load_model, save_model

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# st.text() never draws a surrogate (hypothesis leaves out category Cs); a
# JSON \u escape can still carry one, so half the texts may hold them
_surrogates = st.characters(categories=["Cs"])


def _text(max_size: int):
    return st.one_of(st.text(max_size=max_size),
                     st.text(st.one_of(st.characters(), _surrogates), max_size=max_size))


def _encodes(*texts: str) -> bool:
    """Whether the texts encode as UTF-8: none holds a lone surrogate."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


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
    _text(6),
)
_any_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_text(4), inner, max_size=4),
    max_leaves=8,
)


def _slot(valid):
    """A slot holds a plausible value, an extreme number or any JSON value."""
    return st.one_of(valid, _extreme, _any_json)


def _record(required, optional=None):
    return st.one_of(st.fixed_dictionaries(required, optional=optional or {}), _any_json)


_word = _record({
    "text": _slot(st.sampled_from(["a", "Total", "12.00", " ", "a\ud800"])),
    "box": st.one_of(
        _slot(st.lists(_slot(st.floats(0, 1200)), min_size=4, max_size=4)),
        # a string of four digits or four booleans must not pass as a box
        st.text(alphabet="0123456789", min_size=4, max_size=4),
        st.lists(st.booleans(), min_size=4, max_size=4),
    ),
})
# a valid word: padded text, and a box in page units or in pixels
_valid_word = st.fixed_dictionaries({
    "text": st.sampled_from(["a", "Total", " 12.00", "Tax "]),
    "box": st.one_of(
        st.tuples(st.lists(st.floats(0, 1), min_size=2, max_size=2).map(sorted),
                  st.lists(st.floats(0, 1), min_size=2, max_size=2).map(sorted)),
        st.tuples(st.lists(st.integers(2, 1000), min_size=2, max_size=2).map(sorted),
                  st.lists(st.integers(2, 1000), min_size=2, max_size=2).map(sorted)),
    ).map(lambda xy: [xy[0][0], xy[1][0], xy[0][1], xy[1][1]]),
})


@st.composite
def _valid_document(draw):
    """A record the reader accepts, with or without phrases; its phrases
    are disjoint runs of a shuffle of the word ids, some runs left out."""
    phrases = draw(st.booleans())
    words = draw(st.lists(_valid_word, min_size=int(phrases), max_size=5))
    record = {"doc_id": draw(_text(4)), "page_width": 1000, "page_height": 1000,
              "words": words}
    if phrases:
        ids = draw(st.permutations(range(len(words))))
        cuts = sorted(set(draw(st.lists(st.integers(1, len(ids)), max_size=3))) | {len(ids)})
        runs = [ids[a:b] for a, b in zip([0] + cuts, cuts)]
        record["phrases"] = [{"word_ids": r} for r in runs if draw(st.integers(0, 3)) != 1]
    return record


# header slots also see the values a lenient reader would coerce: null or
# an object for doc_id, and a float or a boolean for a page size
_document = st.one_of(_valid_document(), _record(
    {
        "doc_id": _slot(st.one_of(_text(4), st.none(), st.integers())),
        "page_width": _slot(st.one_of(st.integers(1, 2000), st.floats(1, 2000), st.booleans())),
        "page_height": _slot(st.one_of(st.integers(1, 2000), st.floats(1, 2000), st.booleans())),
        "words": _slot(st.lists(_word, max_size=4)),
    },
    {"phrases": _slot(st.lists(
        _record({"word_ids": _slot(st.lists(_slot(st.integers(0, 4)), max_size=3))}),
        max_size=3,
    ))},
))
# a well-formed page whose only faults can be in its words
_page = st.fixed_dictionaries({
    "doc_id": st.just("d"),
    "page_width": st.just(1000),
    "page_height": st.just(1000),
    "words": st.lists(_word, min_size=1, max_size=3),
})
_doc_id = _slot(st.sampled_from(["d", "e"]))
_valid_label_row = st.fixed_dictionaries({
    "doc_id": st.sampled_from(["d", "e", "f"]),
    "labels": st.lists(st.lists(st.integers(0, 8), min_size=2, max_size=2), max_size=3),
    "provenance": st.sampled_from(["bootstrap", "truth"]),
})
_label_row = _record({
    "doc_id": _doc_id,
    "labels": _slot(st.lists(
        _slot(st.lists(_slot(st.integers(0, 8)), min_size=2, max_size=2)), max_size=3,
    )),
    "provenance": _slot(st.sampled_from(["bootstrap", "truth", "boot\udfff"])),
})


def _one_provenance(rows):
    return [dict(row, provenance=rows[0]["provenance"]) for row in rows]


# a file of rows that may hold faults, or of valid rows with distinct
# doc_ids and one provenance, which the reader accepts
_label_file = st.one_of(
    st.lists(_valid_label_row, min_size=1, max_size=3,
             unique_by=lambda row: row["doc_id"]).map(_one_provenance),
    st.lists(_label_row, min_size=1, max_size=3),
)
_annotation_row = _record({
    "doc_id": _doc_id,
    "fields": _slot(st.dictionaries(
        st.sampled_from(["total_amount", "inv_date", "tot\udc00"]),
        st.one_of(_slot(_text(6)), st.none(), st.integers()),
    )),
})
# field slots also see the values a lenient reader would coerce: a string,
# float or boolean field_id, a null or integer name, and keys as a bare
# string or holding an integer
_schema = _record({
    "fields": _slot(st.lists(_record({
        "field_id": _slot(st.one_of(st.integers(1, 3), st.sampled_from(["1", 1.0, True]))),
        "name": _slot(st.sampled_from(["f", "g", "f\ud800", None, 1])),
        "keys": _slot(st.one_of(
            st.lists(_slot(st.sampled_from(["total", "Key", "tot\udfff"])), max_size=2),
            st.sampled_from(["total", [1]]),
        )),
        "allowed_types": _slot(
            st.lists(_slot(st.sampled_from(["number", "date", "x", "date\ud83d"])),
                     max_size=2)
        ),
    }), max_size=3)),
})
# one field whose slots hold only valid or coercible values: _schema
# almost never builds a schema with fields that the reader accepts
_one_field_schema = st.fixed_dictionaries({
    "fields": st.fixed_dictionaries({
        "field_id": st.sampled_from([1, "1", 1.0, True]),
        "name": st.sampled_from(["f", "f\ud800", None, 1]),
        "keys": st.sampled_from([["total"], ["tot\udfff"], "total", [1]]),
        "allowed_types": st.just(["number"]),
    }).map(lambda field: [field]),
})


def _dumps(value, escape: bool = True) -> str:
    """JSON text of value; escape=False writes non-ASCII characters, lone
    surrogates among them, as themselves, not as \\u escapes."""
    return json.dumps(value, ensure_ascii=escape).replace(json.dumps(_TOO_LONG), "9" * 5000)


def _as_read(value, escape: bool = True):
    """value as a reader gets it: a high and a low surrogate drawn side by
    side decode from their escapes as one character."""
    return json.loads(_dumps(value, escape))


def _read_file(reader, text: str, name: str):
    """reader on a file holding text; a lone surrogate in text is written
    as the bytes of its code point, which are not UTF-8."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as f:
            f.write(text)
        return reader(path)


def _read_rows(reader, rows, escape: bool = True):
    return _read_file(reader, "".join(_dumps(r, escape) + "\n" for r in rows), "rows.jsonl")


@FUZZ
@given(st.one_of(_document, _page), st.booleans())
def test_parse_document_fails_only_with_typed_errors(record, escape):
    try:
        doc = parse_document(_dumps(record, escape), line_number=1)
    except ValidationError:
        return
    record = _as_read(record, escape)
    assert _encodes(doc.doc_id, *(word.text for word in doc.words))
    assert type(record["doc_id"]) is str and doc.doc_id == record["doc_id"]
    for size in ("page_width", "page_height"):
        assert type(record[size]) is int and getattr(doc, size) == record[size]
    for raw, word in zip(record["words"], doc.words, strict=True):
        assert type(raw["text"]) is str and word.text == raw["text"].strip()
        assert all(type(v) in (int, float) for v in raw["box"])
    if record.get("phrases") is None:
        assert doc.phrases is None
    else:
        assert sorted(sorted(p["word_ids"]) for p in record["phrases"]) == sorted(
            sorted(p) for p in doc.phrases)


@FUZZ
@given(_label_file, st.booleans())
def test_read_labels_fails_only_with_typed_errors(rows, escape):
    try:
        labels = _read_rows(read_labels, rows, escape)
    except ValidationError:
        return
    rows = _as_read(rows, escape)
    assert _encodes(labels.provenance, *labels.doc_ids())
    assert labels.doc_ids() == sorted(row["doc_id"] for row in rows)
    assert all(row["provenance"] == labels.provenance for row in rows)
    assert type(labels.provenance) is str
    for row in rows:
        # a later pair for a word overrides an earlier one; class 0 clears it
        want = {}
        for wid, cls in row["labels"]:
            if cls:
                want[wid] = cls
            else:
                want.pop(wid, None)
        assert labels.positives(row["doc_id"]) == want


@FUZZ
@given(st.lists(_annotation_row, min_size=1, max_size=3), st.booleans())
def test_read_annotations_fails_only_with_typed_errors(rows, escape):
    try:
        annotations = _read_rows(read_annotations, rows, escape)
    except ValidationError:
        return
    rows = _as_read(rows, escape)
    assert _encodes(*annotations, *(name + value for fields in annotations.values()
                                    for name, value in fields.items()))
    for row in rows:
        assert type(row["doc_id"]) is str and annotations[row["doc_id"]] == row["fields"]


@settings(FUZZ, max_examples=600)
@given(st.one_of(_schema, _one_field_schema), st.booleans())
def test_read_schema_fails_only_with_typed_errors(raw, escape):
    try:
        schema = _read_file(read_schema, _dumps(raw, escape), "schema.json")
    except ValidationError:
        return
    raw = _as_read(raw, escape)
    assert _encodes(*(f.name for f in schema.fields), *(k for f in schema.fields for k in f.keys))
    for f, field in zip(raw["fields"], schema.fields, strict=True):
        assert type(f["field_id"]) is int and f["name"] == field.name
        assert f["keys"] == list(field.keys)
        assert set(f["allowed_types"]) == {t.value for t in field.allowed_types}


# --- checkpoints ---------------------------------------------------------------

@functools.cache
def _checkpoint() -> bytes:
    """A small valid checkpoint: 2 branches over 6 inputs."""
    params = init_params(
        6, 2, 2, default_invoice_schema().digest(), hidden=3, branch_hidden=2, seed=0
    )
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ffrg")
        save_model(path, params)
        with open(path, "rb") as f:
            return f.read()


def _truncated(size: int) -> bytes:
    return _checkpoint()[:size]


def _flipped(position: int, mask: int) -> bytes:
    blob = bytearray(_checkpoint())
    blob[position % len(blob)] ^= mask
    return bytes(blob)


_checkpoint_bytes = st.one_of(
    st.binary(max_size=300),
    st.integers(0, 400).map(_truncated),
    st.builds(_flipped, st.integers(0, 10**6), st.integers(1, 255)),
    st.builds(_flipped, st.integers(0, HEADER_BYTES - 1), st.integers(1, 255)),
)


@FUZZ
@given(_checkpoint_bytes)
def test_load_model_fails_only_with_validation_error(blob):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "model.ffrg")
        with open(path, "wb") as f:
            f.write(blob)
        try:
            params = load_model(path, default_invoice_schema())
        except ValidationError as e:
            assert path in str(e)
            return
    assert isinstance(params, ModelParams)
    assert len(blob) == len(_checkpoint())


# --- config files --------------------------------------------------------------

_VALID = {int: st.integers(1, 5), float: st.floats(0, 2), str: _text(4),
          bool: st.booleans()}


def _config_for(command: str):
    defaults = cli._COMMANDS[command][2]
    options = {key: _slot(_VALID[cli._option_type(d)]) for key, d in defaults.items()}
    return st.tuples(
        st.just(command),
        st.one_of(st.fixed_dictionaries({}, optional=options), _any_json),
    )


@FUZZ
@given(st.sampled_from(sorted(cli._COMMANDS)).flatmap(_config_for), st.booleans())
def test_config_reader_fails_only_with_typed_errors(command_and_config, escape):
    command, config = command_and_config
    defaults = cli._COMMANDS[command][2]

    def resolve(path):
        args = cli.build_parser().parse_args([command, "--config", path])
        try:
            return cli._resolve(args, defaults)
        except ValidationError as e:
            assert path in str(e)

    opts = _read_file(resolve, _dumps(config, escape), "config.json")
    if opts is None:
        return
    config = _as_read(config, escape)
    assert _encodes(*(v for v in opts.values() if type(v) is str))
    for key, default in defaults.items():
        value = opts[key]
        assert value is None or type(value) is cli._option_type(default)
        assert value == config.get(key, None if default is cli._REQUIRED else default)
