"""Rule mining: key localization, geometric scoring, zones, conflicts."""

import json
import math
import warnings
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import box_center, box_row, make_doc
from ffrg import bootstrap, datatypes, similarity
from ffrg.bootstrap import (
    FieldExtraction,
    PhraseRows,
    RuleParams,
    bootstrap_corpus,
    extract_document,
    extract_field,
    geometric_score,
    localize_key,
    resolve_conflicts,
)
from ffrg.datatypes import DataType
from ffrg.docmodel import (
    BBox, Document, FieldSchema, SchemaField, default_invoice_schema, parse_document,
    read_documents, write_documents,
)
from ffrg.grouping import group_document, phrase_members
from ffrg.similarity import jaro_winkler
from ffrg.synth import generate, preset_config


class _Phrase(NamedTuple):
    """A phrase with the text and box that the oracles below read."""
    word_ids: tuple[int, ...]
    text: str
    box: BBox


def ph(text, cx, cy, half=0.02):
    return _Phrase((0,), text, BBox(cx - half, cy - half, cx + half, cy + half))


def _phrase_record(doc, ids):
    """The phrase of these word ids: its words' texts joined by spaces, and
    its box chained from the first word by min and max, each keeping the
    earlier of equal coordinates."""
    words = [doc.words[w] for w in ids]
    box = words[0].box
    for w in words[1:]:
        b = w.box
        box = BBox(min(box.x0, b.x0), min(box.y0, b.y0), max(box.x1, b.x1), max(box.y1, b.y1))
    return _Phrase(tuple(ids), " ".join(w.text for w in words), box)


def _phrase_records(doc):
    """The document's own phrases, or phrase_members' when it has none, as records."""
    phrases = doc.phrases if doc.phrases is not None else phrase_members(doc)
    return [_phrase_record(doc, ids) for ids in phrases]


def _phrase_text(doc, phrase):
    return " ".join(doc.words[w].text for w in phrase)


MONEY_FIELD = SchemaField(1, "amount", ("total",), frozenset({DataType.MONEY, DataType.NUMBER}))


def _localize(texts, field, bound):
    """localize_key with the search order worked out from the field's own
    bound, one field at a time."""
    top = bound.max(axis=1)
    return localize_key(texts, field, bound, top, (-top).argsort(kind="stable").tolist())


def key_bounds(texts, key_lists):
    """Each key list's own columns of bootstrap._bound_columns: per list, a
    (texts × keys) array."""
    if not key_lists:
        return []
    bound, starts = bootstrap._bound_columns(texts, key_lists)
    return np.split(bound, starts[1:], axis=1)


def _field_pass(rows, field, p=RuleParams()):
    """extract_field on phrase rows, its key and zone worked out one field at
    a time."""
    (bound,) = key_bounds(rows.texts, [field.keys])
    key_i, key_s = _localize(rows.texts, field, bound)
    zone = None if key_i is None else bootstrap._in_zone(rows.boxes, rows.centres[key_i])
    return extract_field(rows, field, p, (key_i, key_s), zone)


def _extract_field(doc, field):
    """extract_field on the document's phrases."""
    return _field_pass(PhraseRows(doc), field)


# --- key localization -------------------------------------------------------

def key_score(text, field):
    """Best similarity between a phrase text and any of the field's keys,
    every key scored: the score localize_key must find."""
    return 1.0 - min(similarity.string_distance(text, k) for k in field.keys)


def test_key_score_takes_best_key(schema):
    field = next(f for f in schema.fields if f.name == "po_number")
    # "purchase order number" in the key list lifts long paraphrases
    for text in ("PO Number", "Purchase Order Number"):
        assert key_score(text, field) == pytest.approx(1.0)
        _, s = _localize([text], field, key_bounds([text], [field.keys])[0])
        assert s.hex() == key_score(text, field).hex()


def test_localize_key_is_argmax_without_threshold():
    texts = ["zebra", "Totol", "quux"]
    best, s = _localize(texts, MONEY_FIELD, key_bounds(texts, [MONEY_FIELD.keys])[0])
    assert best == 1
    assert 0.7 < s < 1.0  # a poor match still wins; no cutoff applies


def test_localize_key_tie_prefers_earlier_phrase():
    texts = ["Total", "Total"]
    best, s = _localize(texts, MONEY_FIELD, key_bounds(texts, [MONEY_FIELD.keys])[0])
    assert best == 0
    assert s == pytest.approx(1.0)


def test_localize_key_empty_input():
    assert _localize([], MONEY_FIELD, key_bounds([], [MONEY_FIELD.keys])[0]) == (None, 0.0)


# The pruned search against an exhaustive scan.  Texts come from a small
# pool, so duplicates (exact ties) are common; the pool holds keys, near
# misses, texts sharing no character with any key, non-ASCII text and, after
# decoration, mixed case and padding.
_KEY_LISTS = [
    ("total", "invoice total"),
    ("invoice number", "invoice #", "invoice no."),
    ("tax",),
    ("straße", "größe"),
    # keys that score exactly alike on a text (all three on "tap"), and a
    # key listed twice
    ("tab", "tan", "tax"),
    ("total", "total"),
]
_FIELDS = [
    SchemaField(i + 1, f"f{i}", keys, frozenset({DataType.NUMBER}))
    for i, keys in enumerate(_KEY_LISTS)
]
_POOL = [
    "total", "totl", "Total Due", "invoice", "invoice no", "invoice #", "inv #",
    "tax", "taxes", "xat", "qqq", "123", "$12.00", "zz9", "straße", "STRASSE",
    "größe", "grosse", "İnvoice", "totál", "Ŧotal", "",
    # texts that score exactly alike on a key: "tab" and "tan" on "tax",
    # "totak" and "totam" on "total"
    "tab", "tan", "tap", "totak", "totam",
    # non-BMP text and a lone surrogate
    "😀 tax", "𝐓𝐨𝐭𝐚𝐥", "\ud800ate",
]
_text = st.builds(
    lambda base, pad, upper: pad + (base.upper() if upper else base) + pad,
    st.one_of(st.sampled_from(_POOL), st.text(alphabet="taoxinvé ß#İ1", max_size=8)),
    st.sampled_from(["", " ", "  "]),
    st.booleans(),
)


def _exhaustive_first_max(texts, field):
    """Reading-order scan keeping the first text of maximal key score."""
    best_i, best = None, 0.0
    for i, t in enumerate(texts):
        s = 1.0 - min(1.0 - jaro_winkler(t.strip().lower(), k) for k in field.keys)
        if best_i is None or s > best:
            best_i, best = i, s
    return best_i, best


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_text, min_size=1, max_size=10), st.sampled_from(_FIELDS))
# exact ties: the keys "tab", "tan" and "tax" all score alike on "tap";
# "tab" and "tan" score alike on "tax", as "totak" and "totam" on "total";
# and a key listed twice ties with itself
@example(["qqq", "tap", "Tap", "tap"], _FIELDS[4])
@example(["tan", "zz9", "tab", "tan"], _FIELDS[4])
@example(["tab", "zz9", "tan", "tab"], _FIELDS[2])
@example(["xat", "totak", "Totam", "totam"], _FIELDS[0])
@example(["totak", "totam", "xat"], _FIELDS[5])
def test_localize_key_equals_exhaustive_first_max(texts, field):
    best, s = _localize(texts, field, key_bounds(texts, [field.keys])[0])
    want_i, want = _exhaustive_first_max(texts, field)
    assert best == want_i
    assert s.hex() == want.hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_text, max_size=10))
def test_key_bounds_never_below_key_score(texts):
    bounds = key_bounds(texts, _KEY_LISTS)
    assert [b.shape for b in bounds] == [(len(texts), len(f.keys)) for f in _FIELDS]
    for field, bound in zip(_FIELDS, bounds):
        for t, row in zip(texts, bound):
            # one rounding of 1 - (1 - jw) is all the exact score may gain
            assert row.max() + 1e-12 >= key_score(t, field)


_ALL_KEY_LISTS = _KEY_LISTS + [f.keys for f in default_invoice_schema().fields]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_text, max_size=10))
def test_each_key_bound_is_never_below_that_key_score(texts):
    # localize_key leaves a key out by its own bound, so each key's bound
    # must hold, not only the best one of a list
    texts = texts + ["İ", "İnvoice #", "😀", "𝐓𝐨𝐭𝐚𝐥", "\ud800ate", "", "   "]
    for keys, bound in zip(_ALL_KEY_LISTS, key_bounds(texts, _ALL_KEY_LISTS)):
        assert bound.shape == (len(texts), len(keys))
        for t, row in zip(texts, bound.tolist()):
            for k, b in zip(keys, row):
                assert b + 1e-12 >= 1.0 - similarity.string_distance(t, k), (t, k)


def _key_masks(key_lists):
    """Per key list, each key's (count mask, length), and the mask layout:
    a slot per character of the keys, as wide as its largest count in a key."""
    width = {}
    for keys in key_lists:
        for k in keys:
            for ch in set(k):
                width[ch] = max(width.get(ch, 0), k.count(ch))
    layout, shift = {}, 0
    for ch, w in sorted(width.items()):
        layout[ch] = (shift, w)
        shift += w
    masks = [[(_count_mask(k, layout), len(k)) for k in keys] for keys in key_lists]
    return masks, layout


def _count_mask(text, layout):
    """A character held n times sets the low min(n, width) bits of its slot,
    so the popcount of two masks' AND is the overlap of the texts' character
    multisets (over the characters the layout knows)."""
    mask = 0
    for ch in layout.keys() & set(text):
        shift, width = layout[ch]
        mask |= ((1 << min(text.count(ch), width)) - 1) << shift
    return mask


def _key_bounds_by_bitmask(texts, key_lists):
    """key_bounds one text and one key at a time, the overlap c from
    integer bitmasks: per key list, per text, each key's bound."""
    masks, layout = _key_masks(key_lists)
    max_boost = similarity.JW_MAX_PREFIX * similarity.JW_PREFIX_SCALE
    out = [[] for _ in masks]
    for text in texts:
        text = text.strip().lower()
        mask, len_p = _count_mask(text, layout), len(text)
        for keys, rows in zip(masks, out):
            row = []
            for key_mask, len_k in keys:
                c = (mask & key_mask).bit_count()
                bound = 0.0
                if c:
                    bound = (c / len_p + c / len_k + 1.0) / 3.0
                    if bound > similarity.JW_BOOST_THRESHOLD:
                        bound += max_boost * (1.0 - bound)
                row.append(bound)
            rows.append(row)
    return out


def _hex_rows(bounds):
    """Per key list, per text, each key's bound as float hex."""
    return [[[float(b).hex() for b in row] for row in np.asarray(rows).tolist()]
            for rows in bounds]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(_text, max_size=10))
def test_key_bounds_equal_the_bitmask_bounds(texts):
    assert _hex_rows(key_bounds(texts, _KEY_LISTS)) == _hex_rows(
        _key_bounds_by_bitmask(texts, _KEY_LISTS))


def test_key_bounds_equal_the_bitmask_bounds_on_odd_texts(schema):
    # no key character, characters past a key's count, non-BMP text, text
    # whose lower() is longer, a lone surrogate, and empty normalized text
    texts = ["999", "$$", "ooooooooo", "ttotall", "😀", "𝐓𝐨𝐭𝐚𝐥", "😀 tax", "İ", "İnvoice #",
             "DUE İ", "\ud800ate", "", "   ", "Invoice Number", "P.O. #"]
    key_lists = [f.keys for f in schema.fields]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lists in (key_lists, _KEY_LISTS):
            got = key_bounds(texts, lists)
            assert _hex_rows(got) == _hex_rows(_key_bounds_by_bitmask(texts, lists))
        assert [b.shape for b in key_bounds([], key_lists)] == [(0, len(k)) for k in key_lists]
        assert key_bounds(texts, []) == []


def test_key_bounds_equal_the_bitmask_bounds_on_a_noisy_page(schema):
    (doc,), _, _ = generate(preset_config("noisy-bench", 1, 5), schema)
    texts = [p.text for p in _phrase_records(doc)]
    key_lists = [f.keys for f in schema.fields]
    assert _hex_rows(key_bounds(texts, key_lists)) == _hex_rows(
        _key_bounds_by_bitmask(texts, key_lists))


def test_extract_document_works_out_phrase_facts_once(schema, monkeypatch):
    # type_of runs at most once per phrase, only on phrases in some located
    # key's zone, and each key or value that extract_field returns is one of
    # the document's own word-id tuples, not a copy
    (doc,), _, _ = generate(preset_config("noisy-bench", 1, 0), schema)
    rows = PhraseRows(doc)
    calls = {"type_of": [], "jaro": 0}

    type_of, jaro_similarity = datatypes.type_of, similarity.jaro_similarity

    def typed(text):
        calls["type_of"].append(text)
        return type_of(text)

    def jaro(*args):
        calls["jaro"] += 1
        return jaro_similarity(*args)

    returned = []

    def field_pass(*args, **kwargs):
        e = extract_field(*args, **kwargs)
        returned.append(e)
        return e

    monkeypatch.setattr(bootstrap, "type_of", typed)
    monkeypatch.setattr(similarity, "jaro_similarity", jaro)
    monkeypatch.setattr(bootstrap, "extract_field", field_pass)
    extract_document(doc, schema)

    zone = np.zeros(len(rows.texts), dtype=bool)
    for e in returned:
        if e.key_phrase is not None:
            key_i = rows.members.index(e.key_phrase)
            zone |= bootstrap._in_zone(rows.boxes, rows.centres[key_i])
    in_zone = Counter(t for t, z in zip(rows.texts, zone) if z)
    assert 0 < len(calls["type_of"]) <= zone.sum() < len(rows.texts)
    assert not Counter(calls["type_of"]) - in_zone
    made = [p for e in returned for p in (e.key_phrase, e.value_phrase) if p]
    assert made and all(any(p is m for m in rows.members) for p in made)
    n_keys = sum(len(f.keys) for f in schema.fields)
    assert 0 < calls["jaro"] < len(rows.texts) * n_keys


# --- the page pass ----------------------------------------------------------

def _page_pass(doc, schema, monkeypatch):
    """extract_document on the page, with the arguments and result of every
    localize_key and extract_field call it makes."""
    located, fielded = [], []

    def locate(texts, field, bound, top, order):
        key = localize_key(texts, field, bound, top, order)
        located.append((field, bound, top, order, key))
        return key

    def field_pass(rows, field, p, key, zone):
        fielded.append((field, key, zone))
        return extract_field(rows, field, p, key, zone)

    with monkeypatch.context() as m:
        m.setattr(bootstrap, "localize_key", locate)
        m.setattr(bootstrap, "extract_field", field_pass)
        extract_document(doc, schema)
    return located, fielded


def _assert_page_pass_equals_the_field_oracle(doc, schema, monkeypatch):
    # per field: its columns of the side-by-side bounds, each phrase's best
    # bound, the search order by that bound (a stable argsort) and the
    # located key's zone, each against the field worked out on its own
    located, fielded = _page_pass(doc, schema, monkeypatch)
    rows = PhraseRows(doc)
    assert [f for f, *_ in located] == [f for f, *_ in fielded] == list(schema.fields)
    for (field, bound, top, order, key), (_, field_key, zone) in zip(located, fielded):
        (own,) = key_bounds(rows.texts, [field.keys])
        assert _hex_rows([bound]) == _hex_rows([own])
        want_top = own.max(axis=1)
        assert [float(t).hex() for t in top] == [t.hex() for t in want_top.tolist()]
        assert list(order) == (-want_top).argsort(kind="stable").tolist()
        assert field_key == key == _localize(rows.texts, field, own)
        if key[0] is None:
            assert zone is None
        else:
            want_zone = bootstrap._in_zone(rows.boxes, rows.centres[key[0]])
            assert zone.tolist() == want_zone.tolist()


_EDGE_KEYS = ["Total", "Tax", "Date", "Invoice", "Due", "PO", "Amount"]
_EDGE_VALUES = ["$12.00", "1.20", "2021-03-04", "48113", "INV-48113", "hello", "Total", "Tax"]


def _edge_page(rng):
    """Candidates on a coarse grid (repeated texts, so tied bounds; up to 40
    of them, past the size below which an unstable sort keeps ties in
    order), and point-sized key words on a candidate's zone edges or one
    float past them, each word its own phrase."""
    candidates = []
    for _ in range(int(rng.integers(1, 40))):
        x0, y0 = (float(v) for v in rng.choice([0.1, 0.25, 0.3, 0.5, 0.52], size=2))
        w, h = float(rng.choice([0.0, 0.02, 0.06])), float(rng.choice([0.0, 0.01, 0.02]))
        candidates.append((str(rng.choice(_EDGE_VALUES)), x0, y0, x0 + w, y0 + h))
    keys = []
    for text in rng.choice(_EDGE_KEYS, size=int(rng.integers(1, 6))).tolist():
        _, cx0, cy0, cx1, cy1 = candidates[int(rng.integers(len(candidates)))]
        top = cy0 - bootstrap.ZONE_ABOVE * (cy1 - cy0)
        bottom = cy1 + bootstrap.ZONE_BELOW * (cy1 - cy0)
        x = float(rng.choice([0.0, -0.0, cx0, cx1, math.nextafter(cx1, 2.0)]))
        y = float(rng.choice([top, bottom, math.nextafter(top, -1.0),
                              math.nextafter(bottom, 2.0), (cy0 + cy1) / 2.0]))
        keys.append((text, x, y, x, y))
    return _one_phrase_a_word(make_doc(keys + candidates))


def test_page_pass_equals_the_field_oracle_on_random_pages(schema, monkeypatch):
    rng = np.random.default_rng(23)
    for _ in range(200):
        page = _edge_page(rng)
        _assert_page_pass_equals_the_field_oracle(page, schema, monkeypatch)
        # the same words grouped, which merges some keys into candidates
        words = make_doc([(w.text, *box_row(w.box)) for w in page.words])
        _assert_page_pass_equals_the_field_oracle(words, schema, monkeypatch)


def test_page_pass_equals_the_field_oracle_on_pages_without_keys(schema, monkeypatch):
    # no phrase at all, words that no phrase holds (no key is located on
    # either), and phrases holding no key character (keys scored 0)
    empty = make_doc([])
    unheld = make_doc([("Total", 0.1, 0.1, 0.16, 0.12), ("$1.00", 0.3, 0.1, 0.36, 0.12)],
                      phrases=())
    no_key_characters = make_doc(_DEGENERATE["no_key_characters"][0])
    for page in (empty, unheld):
        located, fielded = _page_pass(page, schema, monkeypatch)
        assert [key for *_, key in located] == [(None, 0.0)] * schema.n_fields
        assert [zone for *_, zone in fielded] == [None] * schema.n_fields
        assert extract_document(page, schema) == [
            FieldExtraction(f.field_id, None, None, 0.0, None) for f in schema.fields]
    located, _ = _page_pass(no_key_characters, schema, monkeypatch)
    assert {key for *_, key in located} == {(0, 0.0)}
    for page in (empty, unheld, no_key_characters):
        _assert_page_pass_equals_the_field_oracle(page, schema, monkeypatch)


def test_a_schema_without_fields_extracts_nothing():
    # a schema file may list no fields; the page pass then has no columns
    doc = make_doc(_DEGENERATE["one_line"][0])
    assert extract_document(doc, FieldSchema(())) == []
    assert bootstrap_corpus([doc], FieldSchema(()))[1] == {"doc": {}}


def _repeat_page(rng, schema):
    """A page, one phrase a word, that repeats key texts at several phrases:
    each key (most of them) two to four times in mixed case, an anagram of
    it (the same bound, a lower score), and a near miss with one character
    dropped in two cases, all in a random reading order."""
    texts = []
    for key in (k for f in schema.fields for k in f.keys):
        cases = [key, key.upper(), key.title()]
        if rng.random() < 0.7:
            texts += [cases[int(c)] for c in rng.integers(3, size=int(rng.integers(2, 5)))]
        texts.append("".join(rng.permutation(list(key))))
        cut = int(rng.integers(len(key)))
        miss = key[:cut] + key[cut + 1:]
        texts += [miss, miss.upper()]
    texts = [t.strip() or "x" for t in texts]
    rng.shuffle(texts)
    side = math.ceil(math.sqrt(len(texts)))
    return _one_phrase_a_word(make_doc([
        (t, 0.1 + 0.8 * (i % side) / side, 0.1 + 0.8 * (i // side) / side,
         0.1 + 0.8 * (i % side) / side + 0.02, 0.1 + 0.8 * (i // side) / side + 0.01)
        for i, t in enumerate(texts)]))


def test_page_pass_finds_the_first_max_on_pages_repeating_key_texts(schema):
    # repeated texts are skipped in the key search, identical pairs are not
    # scanned; each field's key must still be the exhaustive first maximum
    rng = np.random.default_rng(29)
    for _ in range(60):
        page = _repeat_page(rng, schema)
        rows = PhraseRows(page)
        for field, e in zip(schema.fields, extract_document(page, schema)):
            want_i, want = _exhaustive_first_max(rows.texts, field)
            assert e.key_phrase == rows.members[want_i], (field.name, rows.texts)
            assert e.key_score.hex() == want.hex()


def test_key_search_scans_each_normalized_pair_once_and_no_identical_pair(
        schema, monkeypatch):
    rng = np.random.default_rng(29)
    jaro_similarity = similarity.jaro_similarity
    scans = []

    def jaro(s1, s2):
        scans.append((s1, s2))
        return jaro_similarity(s1, s2)

    monkeypatch.setattr(similarity, "jaro_similarity", jaro)
    keys = {k for f in schema.fields for k in f.keys}
    assert len(keys) == sum(len(f.keys) for f in schema.fields)  # no key in two fields
    for _ in range(60):
        scans.clear()
        extract_document(_repeat_page(rng, schema), schema)
        assert scans and all(key in keys for _, key in scans)
        assert max(Counter(scans).values()) == 1
        assert all(text != key for text, key in scans)


def test_page_pass_calls_each_field_function_once_a_field(schema, monkeypatch):
    # localize_key and extract_field run once per field, and geometric_score
    # once per typed candidate in a located key's zone
    (doc,), _, _ = generate(preset_config("noisy-bench", 1, 0), schema)
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("localize_key", "extract_field", "geometric_score"):
        monkeypatch.setattr(bootstrap, name, counted(name, getattr(bootstrap, name)))
    extract_document(doc, schema)

    rows = PhraseRows(doc)
    scored = 0
    for field in schema.fields:
        (bound,) = key_bounds(rows.texts, [field.keys])
        key_i, _ = _localize(rows.texts, field, bound)
        zone = bootstrap._in_zone(rows.boxes, rows.centres[key_i]).nonzero()[0].tolist()
        scored += sum(i != key_i and bool(datatypes.type_of(rows.texts[i]) & field.allowed_types)
                      for i in zone)
    assert scored > schema.n_fields
    assert calls == {"localize_key": schema.n_fields, "extract_field": schema.n_fields,
                     "geometric_score": scored}


# --- geometric scoring ------------------------------------------------------

def test_value_directly_right_scores_distance_plus_full_angle():
    # exp(-0.5 * (0.2/0.5)^2) + 4.0 * 1.0
    assert geometric_score((0.3, 0.5), (0.5, 0.5), RuleParams()) == pytest.approx(
        4.923116346386636, abs=1e-12
    )


def test_value_directly_below_scores_like_right():
    key, below, right = (0.3, 0.5), (0.3, 0.7), (0.5, 0.5)
    p = RuleParams()
    assert geometric_score(key, below, p) == pytest.approx(
        geometric_score(key, right, p), abs=1e-12
    )


def test_value_up_left_keeps_distance_term_only():
    d = 0.2 / math.sqrt(2.0)
    value = (0.3 - d, 0.5 - d)  # angle -3pi/4 from the key
    assert geometric_score((0.3, 0.5), value, RuleParams()) == pytest.approx(
        0.9231765962297142, abs=1e-12
    )


def test_coincident_centers_degrade_to_zero_distance_zero_angle():
    assert geometric_score((0.3, 0.5), (0.3, 0.5), RuleParams()) == pytest.approx(5.0)


def test_rule_params_validate():
    with pytest.raises(ValueError):
        RuleParams(sigma_d=0.0)
    with pytest.raises(ValueError):
        RuleParams(theta_v=-0.1)


@pytest.mark.parametrize("name", ["sigma_d", "sigma_a", "alpha", "theta_v"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_rule_params_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match="finite"):
        RuleParams(**{name: value})


# --- neighbor zone ----------------------------------------------------------

def in_neighbor_zone(key, candidate):
    """Key center must sit left of the candidate's right edge and within a
    band from ZONE_ABOVE candidate-heights above to ZONE_BELOW below."""
    h = candidate.box.y1 - candidate.box.y0
    kx, ky = box_center(key.box)
    return (
        0.0 <= kx <= candidate.box.x1
        and candidate.box.y0 - bootstrap.ZONE_ABOVE * h <= ky
        <= candidate.box.y1 + bootstrap.ZONE_BELOW * h
    )


def _zone_mask(key, candidates):
    boxes = np.array([box_row(c.box) for c in candidates], dtype=np.float64)
    return bootstrap._in_zone(boxes, box_center(key.box)).tolist()


def _point(x, y):
    # a zero-size box: its center is exactly (x, y)
    return _Phrase((99,), "k", BBox(x, y, x, y))


def test_zone_mask_equals_the_candidate_loop_on_random_boxes():
    rng = np.random.default_rng(8)
    for _ in range(200):
        candidates = []
        for k in range(int(rng.integers(1, 12))):
            x0, y0 = (float(v) for v in rng.uniform(0.0, 0.9, size=2))
            w, h = (float(v) for v in rng.uniform(0.0, 0.1, size=2))
            x0 = -0.0 if rng.random() < 0.1 else x0
            candidates.append(_Phrase((k,), "1", BBox(x0, y0, x0 + w, y0 + h)))
        for _ in range(10):
            key = _point(*(float(v) for v in rng.uniform(0.0, 1.0, size=2)))
            assert _zone_mask(key, candidates) == [in_neighbor_zone(key, c) for c in candidates]


def test_zone_mask_equals_the_candidate_loop_on_its_edges():
    candidates = [
        _Phrase((0,), "1", BBox(0.5, 0.5, 0.6, 0.52)),
        _Phrase((1,), "2", BBox(0.3, 0.45, 0.41, 0.4837)),
        _Phrase((2,), "3", BBox(-0.0, 0.7, 0.0, 0.71)),
        _Phrase((3,), "4", BBox(0.2, 0.3, 0.2, 0.3)),
    ]
    for c in candidates:
        h = c.box.y1 - c.box.y0
        top = c.box.y0 - bootstrap.ZONE_ABOVE * h
        bottom = c.box.y1 + bootstrap.ZONE_BELOW * h
        for x in (0.0, -0.0, c.box.x0, c.box.x1, math.nextafter(c.box.x1, 2.0)):
            for y in (top, bottom, math.nextafter(top, -1.0), math.nextafter(bottom, 2.0)):
                if 0.0 <= y <= 1.0:
                    key = _point(x, y)
                    want = [in_neighbor_zone(key, d) for d in candidates]
                    assert _zone_mask(key, candidates) == want, (x, y)
    # centres exactly on the right edge and on both ends of the band count
    c = candidates[0]
    h = c.box.y1 - c.box.y0
    for x, y in ((c.box.x1, 0.51), (0.55, c.box.y0 - 4.0 * h), (0.55, c.box.y1 + h)):
        assert _zone_mask(_point(x, y), [c]) == [True]


def test_zone_spans_left_and_four_heights_up_one_down():
    cand = _Phrase((0,), "$12.00", BBox(0.5, 0.5, 0.6, 0.52))
    # key center must satisfy x <= 0.6 and 0.42 <= y <= 0.54
    assert in_neighbor_zone(ph("k", 0.30, 0.50), cand)
    assert in_neighbor_zone(ph("k", 0.05, 0.42), cand)   # boundary inclusive
    assert in_neighbor_zone(ph("k", 0.55, 0.54), cand)
    assert not in_neighbor_zone(ph("k", 0.65, 0.50), cand)  # right of candidate
    assert not in_neighbor_zone(ph("k", 0.30, 0.41), cand)  # too far above
    assert not in_neighbor_zone(ph("k", 0.30, 0.55), cand)  # too far below


def test_zone_scales_with_candidate_height():
    tall = _Phrase((0,), "$12.00", BBox(0.5, 0.50, 0.6, 0.58))
    assert in_neighbor_zone(ph("k", 0.55, 0.20), tall)  # 4 * 0.08 above
    short = _Phrase((0,), "$12.00", BBox(0.5, 0.50, 0.6, 0.52))
    assert not in_neighbor_zone(ph("k", 0.55, 0.20), short)


# --- field extraction -------------------------------------------------------

def _line_doc():
    return make_doc(
        [
            ("Total", 0.10, 0.100, 0.16, 0.120),
            ("$12.00", 0.30, 0.100, 0.38, 0.120),
            ("hello", 0.50, 0.100, 0.56, 0.120),
            ("99.00", 0.30, 0.700, 0.38, 0.720),
        ]
    )


def _one_phrase_a_word(doc):
    phrases = tuple((w.id,) for w in doc.words)
    return Document(doc.doc_id, doc.page_width, doc.page_height, doc.words, phrases)


def test_extract_field_picks_typed_neighbor(schema):
    doc = _one_phrase_a_word(_line_doc())
    e = _extract_field(doc, MONEY_FIELD)
    assert _phrase_text(doc, e.key_phrase) == "Total"
    assert _phrase_text(doc, e.value_phrase) == "$12.00"
    assert e.value_score > RuleParams().theta_v
    # "hello" is OTHER and "99.00" sits far outside the zone band


def test_extract_field_without_typed_candidates():
    doc = make_doc([("Total", 0.1, 0.1, 0.16, 0.12), ("alpha", 0.3, 0.1, 0.36, 0.12)])
    e = _extract_field(_one_phrase_a_word(doc), MONEY_FIELD)
    assert e.key_phrase is not None
    assert e.value_phrase is None and e.value_score is None


def test_extract_field_rejects_below_threshold():
    # hopeless key match: key score 0 zeroes every value score
    field = SchemaField(1, "f", ("zzzz",), frozenset({DataType.NUMBER}))
    doc = make_doc([("qqqq", 0.1, 0.1, 0.16, 0.12), ("123", 0.3, 0.1, 0.36, 0.12)])
    e = _extract_field(_one_phrase_a_word(doc), field)
    assert e.key_phrase is not None
    assert e.key_score == 0.0
    assert e.value_phrase is None


def test_extract_field_tie_goes_to_the_earlier_phrase():
    # two values on one box score the same; the first in reading order wins
    doc = _one_phrase_a_word(make_doc([("Total", 0.10, 0.100, 0.16, 0.120),
                                       ("$5.00", 0.30, 0.100, 0.38, 0.120),
                                       ("$6.00", 0.30, 0.100, 0.38, 0.120)]))
    assert _phrase_text(doc, _extract_field(doc, MONEY_FIELD).value_phrase) == "$5.00"


def test_extract_field_never_reuses_key_as_value():
    # the key itself is typed; it must not become its own value
    field = SchemaField(1, "f", ("123",), frozenset({DataType.NUMBER}))
    doc = make_doc([("123", 0.1, 0.1, 0.16, 0.12)])
    e = _extract_field(_one_phrase_a_word(doc), field)
    assert _phrase_text(doc, e.key_phrase) == "123"
    assert e.value_phrase is None


def test_extract_field_skips_the_key_before_typing_it(monkeypatch):
    # a key's centre lies in its own box, so the key is always in its own
    # zone; extract_field must leave it out before it types it
    doc = _one_phrase_a_word(_line_doc())
    rows = PhraseRows(doc)
    assert bootstrap._in_zone(rows.boxes, rows.centres[0]).tolist() == [True, True, True, False]
    typed = []

    def type_of(text):
        typed.append(text)
        return datatypes.type_of(text)

    monkeypatch.setattr(bootstrap, "type_of", type_of)
    e = _field_pass(rows, MONEY_FIELD)
    assert e.key_phrase == doc.phrases[0] and e.value_phrase == doc.phrases[1]
    assert typed == ["$12.00", "hello"]
    assert rows._types[0] is None


def test_extraction_invariants():
    with pytest.raises(ValueError):
        FieldExtraction(1, (0,), None, 1.0, 2.0)
    with pytest.raises(ValueError):
        FieldExtraction(1, (0,), (0,), 1.0, 2.0)


# --- conflict resolution ----------------------------------------------------

def _extraction(field_id, value_ids, score):
    return FieldExtraction(field_id, (99,), tuple(value_ids), 1.0, score)


def test_conflict_drops_weaker_claim_entirely():
    strong = _extraction(1, (0, 1), 3.0)
    weak = _extraction(2, (1, 2), 2.0)
    out = resolve_conflicts([strong, weak])
    assert out[0].value_phrase is not None
    assert out[1].value_phrase is None          # loses both words, not just word 1
    assert out[1].key_phrase is not None        # key survives


def test_conflict_tie_goes_to_lower_field_id():
    a = _extraction(2, (0, 1), 2.0)
    b = _extraction(1, (1, 2), 2.0)
    out = resolve_conflicts([a, b])
    assert out[0].value_phrase is None
    assert out[1].value_phrase is not None


def test_disjoint_values_keep_both():
    a = _extraction(1, (0, 1), 2.0)
    b = _extraction(2, (2, 3), 1.0)
    out = resolve_conflicts([a, b])
    assert out[0].value_phrase is not None and out[1].value_phrase is not None


# --- corpus pass ------------------------------------------------------------

def test_bootstrap_labels_mirror_extractions(schema):
    doc = group_document(
        make_doc(
            [
                ("Total", 0.10, 0.100, 0.16, 0.120),
                ("$12.00", 0.30, 0.100, 0.38, 0.120),
                ("Invoice", 0.10, 0.300, 0.17, 0.320),
                ("Number", 0.18, 0.300, 0.25, 0.320),
                ("48113", 0.40, 0.300, 0.46, 0.320),
            ],
            doc_id="d1",
        )
    )
    labels, values = bootstrap_corpus([doc], schema)
    assert labels.provenance == "bootstrap"
    assert values["d1"]["total_amount"] == "$12.00"
    assert values["d1"]["inv_number"] == "48113"
    ids = {f.name: f.field_id for f in schema.fields}
    amount_id, number_id = ids["total_amount"], ids["inv_number"]
    assert labels.get("d1", 1) == amount_id
    assert labels.get("d1", 4) == number_id
    assert labels.get("d1", 0) == 0  # the key word stays background


def test_extract_document_groups_when_needed(schema):
    doc = make_doc(
        [("Total", 0.10, 0.1, 0.16, 0.12), ("$9.00", 0.30, 0.1, 0.37, 0.12)]
    )
    assert doc.phrases is None
    extractions = extract_document(doc, schema)
    by_field = {e.field_id: e for e in extractions}
    amount = next(f.field_id for f in schema.fields if f.name == "total_amount")
    assert _phrase_text(doc, by_field[amount].value_phrase) == "$9.00"


# --- degenerate pages -------------------------------------------------------

_DEGENERATE = {
    "empty": ([], {}),
    "one_word": ([("Total", 0.10, 0.10, 0.16, 0.12)], {}),
    "one_line": (
        [("Invoice", 0.05, 0.10, 0.11, 0.12), ("Total", 0.115, 0.10, 0.16, 0.12),
         ("$12.00", 0.25, 0.10, 0.31, 0.12), ("Tax", 0.40, 0.10, 0.43, 0.12),
         ("1.20", 0.50, 0.10, 0.54, 0.12), ("Date", 0.65, 0.10, 0.69, 0.12),
         ("2021-03-04", 0.75, 0.10, 0.85, 0.12)],
        {"total_amount": "$12.00", "total_tax": "1.20", "inv_date": "2021-03-04"},
    ),
    "no_key_characters": (
        [("999", 0.10, 0.10, 0.13, 0.12), ("$$", 0.30, 0.10, 0.32, 0.12),
         ("42", 0.10, 0.30, 0.12, 0.32)],
        {},
    ),
    "non_bmp": (
        [("𝐓𝐨𝐭𝐚𝐥", 0.10, 0.10, 0.16, 0.12), ("$7.00", 0.25, 0.10, 0.30, 0.12),
         ("😀 Tax", 0.10, 0.30, 0.16, 0.32), ("3.50", 0.25, 0.30, 0.29, 0.32)],
        {"total_amount": "3.50"},
    ),
    "lower_is_longer": (
        [("İnvoice", 0.10, 0.10, 0.17, 0.12), ("#", 0.175, 0.10, 0.18, 0.12),
         ("48113", 0.30, 0.10, 0.35, 0.12), ("DUE", 0.10, 0.30, 0.13, 0.32),
         ("İ", 0.135, 0.30, 0.14, 0.32), ("2021-03-04", 0.30, 0.30, 0.40, 0.32)],
        {"inv_number": "48113", "due_date": "2021-03-04"},
    ),
    # the value's word ids run against its reading order
    "ids_against_reading_order": (
        [("Date", 0.10, 0.10, 0.14, 0.12), ("2024", 0.36, 0.10, 0.40, 0.12),
         ("5,", 0.335, 0.10, 0.355, 0.12), ("Jan", 0.30, 0.10, 0.33, 0.12)],
        {"inv_date": "Jan 5, 2024"},
    ),
}


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_degenerate_pages_give_the_reference_values_without_warnings(schema, name):
    # the values are those of the scalar rule path these passes replaced
    entries, want = _DEGENERATE[name]
    doc = make_doc(entries, doc_id=name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, values = bootstrap_corpus([doc], schema)
        grouped_labels, grouped_values = bootstrap_corpus([group_document(doc)], schema)
    assert values == grouped_values == {name: want}
    assert labels == grouped_labels
    texts = {w.id: w.text for w in doc.words}
    by_name = {f.name: f.field_id for f in schema.fields}
    labelled = {}
    for wid, cls in labels.positives(name).items():
        labelled.setdefault(cls, []).append(texts[wid])
    assert labelled == {by_name[f]: v.split(" ") for f, v in want.items()}


def test_grouped_input_breaks_ties_in_reading_order_whatever_its_phrase_order(schema):
    # two equal "Total $x" lines: the upper one wins, as it does without phrases
    words = [("Total", 0.10, 0.10, 0.16, 0.12), ("$5.00", 0.30, 0.10, 0.36, 0.12),
             ("Total", 0.10, 0.50, 0.16, 0.52), ("$9.00", 0.30, 0.50, 0.36, 0.52)]
    record = {"doc_id": "d", "page_width": 1000, "page_height": 1000,
              "words": [{"text": t, "box": [x0, y0, x1, y1]} for t, x0, y0, x1, y1 in words]}
    want = {"d": {"total_amount": "$5.00"}}
    assert bootstrap_corpus([parse_document(json.dumps(record))], schema)[1] == want
    for phrases in ([[0], [1], [2], [3]], [[3], [2], [1], [0]], [[2], [3], [0], [1]]):
        record["phrases"] = [{"word_ids": ids} for ids in phrases]
        doc = parse_document(json.dumps(record))
        assert list(doc.phrases) == [(0,), (1,), (2,), (3,)]
        assert bootstrap_corpus([doc], schema)[1] == want


# --- phrase rows against the phrase-object path -----------------------------

def _extract_document_by_phrase_objects(doc, schema, p=RuleParams()):
    """extract_document as it ran on phrase objects: every phrase record
    built and typed, each key the exhaustive first maximum, and the
    candidates every other typed phrase in the key's zone, in phrase order."""
    phrases = _phrase_records(doc)
    types = [datatypes.type_of(ph.text) for ph in phrases]
    out = []
    for field in schema.fields:
        key_i, key_s = _exhaustive_first_max([ph.text for ph in phrases], field)
        if key_i is None:
            out.append(FieldExtraction(field.field_id, None, None, 0.0, None))
            continue
        key = phrases[key_i]
        best, best_score = None, 0.0
        for i, (ph, types_) in enumerate(zip(phrases, types)):
            if i == key_i or not types_ & field.allowed_types or not in_neighbor_zone(key, ph):
                continue
            s = key_s * geometric_score(box_center(key.box), box_center(ph.box), p)
            if best is None or s > best_score:
                best, best_score = ph, s
        if best is None or best_score <= p.theta_v:
            out.append(FieldExtraction(field.field_id, key.word_ids, None, key_s, None))
        else:
            out.append(FieldExtraction(field.field_id, key.word_ids, best.word_ids, key_s,
                                       best_score))
    return resolve_conflicts(out)


def _extractions_hex(extractions):
    return [(e.field_id, e.key_phrase, e.value_phrase, e.key_score.hex(), None if e.value_score is None else e.value_score.hex())
            for e in extractions]


def _rows_hex(texts, boxes):
    return [(t, [float(v).hex() for v in box]) for t, box in zip(texts, boxes)]


def _assert_equals_the_phrase_object_path(doc, schema):
    rows, records = PhraseRows(doc), _phrase_records(doc)
    assert rows.members == tuple(r.word_ids for r in records)
    assert _rows_hex(rows.texts, rows.boxes.tolist()) == _rows_hex(
        [r.text for r in records], [box_row(r.box) for r in records])
    got = extract_document(doc, schema)
    assert _extractions_hex(got) == _extractions_hex(
        _extract_document_by_phrase_objects(doc, schema))
    if doc.phrases is not None:
        own = set(doc.phrases)
        assert all(ph in own for e in got for ph in (e.key_phrase, e.value_phrase) if ph)


def _reversed_phrases(doc, drop):
    """The document with its phrases in reversed order, every drop-th left
    out (none when drop is 0), so they need not cover every word."""
    phrases = phrase_members(doc)[::-1]
    kept = tuple(ph for k, ph in enumerate(phrases) if not drop or k % drop != 1)
    return Document(doc.doc_id, doc.page_width, doc.page_height, doc.words, kept)


_WORD_TEXTS = ["Total", "Tax", "Invoice", "#", "Number", "Date", "Due", "PO", "Amount",
               "$12.00", "1.20", "2021-03-04", "48113", "INV-48113", "12,000", "hello",
               "İnvoice", "😀", "Jan 5, 2024"]
_coord = st.sampled_from([-0.0, 0.0, 0.1, 0.12, 0.3, 0.32, 0.5, 0.52, 0.7])
_word = st.tuples(st.sampled_from(_WORD_TEXTS), _coord, _coord,
                  st.sampled_from([0.0, 0.02, 0.06]), st.sampled_from([0.0, 0.02]))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(_word, max_size=14), st.sampled_from([None, 0, 2, 3]))
def test_extract_document_equals_the_phrase_object_path_on_random_pages(schema, words, drop):
    # a zero width or height keeps a -0.0 edge, where x0 + 0.0 would not
    doc = make_doc([(t, x, y, x + w if w else x, y + h if h else y) for t, x, y, w, h in words])
    if drop is not None:
        doc = _reversed_phrases(doc, drop)
    _assert_equals_the_phrase_object_path(doc, schema)


@pytest.mark.parametrize("name", sorted(_DEGENERATE))
def test_extract_document_equals_the_phrase_object_path_on_degenerate_pages(schema, name):
    doc = make_doc(_DEGENERATE[name][0], doc_id=name)
    for page in (doc, group_document(doc), _reversed_phrases(doc, 0), _reversed_phrases(doc, 2)):
        _assert_equals_the_phrase_object_path(page, schema)


def test_extract_document_equals_the_phrase_object_path_on_grouped_input(schema):
    docs, _, _ = generate(preset_config("noisy-bench", 12, 7), schema)
    for doc in docs:
        for drop in (0, 2, 5):
            page = _reversed_phrases(doc, drop)
            if drop:
                assert len({w for ph in page.phrases for w in ph}) < len(doc.words)
            _assert_equals_the_phrase_object_path(page, schema)


@pytest.mark.parametrize("first", [-0.0, 0.0])
def test_phrase_box_rows_keep_the_first_of_signed_zeros(first):
    # two zero-width words at x = -0.0 and +0.0 form one phrase whose
    # x0, y0 and x1 all tie; the row keeps the first word's zeros, as the
    # min/max chain from the first word does
    doc = make_doc([("Total", first, first, first, 0.02), ("$1.00", -first, -first, -first, 0.02)])
    rows = PhraseRows(doc)
    assert rows.members == ((0, 1),)
    chain = _phrase_record(doc, (0, 1))
    assert _rows_hex(rows.texts, rows.boxes.tolist()) == _rows_hex(
        ["Total $1.00"], [box_row(chain.box)])
    assert math.copysign(1.0, rows.boxes[0, 0]) == math.copysign(1.0, first)


def test_grouped_records_hold_word_ids_and_label_as_ungrouped(schema, tmp_path):
    # a phrase read back is its word ids alone, and the rule pass gives the
    # same labels and values on grouped documents as on the words alone
    docs, _, _ = generate(preset_config("noisy-bench", 12, 7), schema)
    grouped = [group_document(doc) for doc in docs]
    path = str(tmp_path / "grouped.jsonl")
    write_documents(path, grouped)
    back = read_documents(path)
    assert back == grouped
    for doc in back:
        for phrase in doc.phrases:
            assert type(phrase) is tuple and all(type(w) is int for w in phrase)
    want = bootstrap_corpus(docs, schema)
    assert want[1] and any(want[1].values())
    assert bootstrap_corpus(grouped, schema) == want
    assert bootstrap_corpus(back, schema) == want
