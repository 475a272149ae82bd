"""Feature vectors: layout, determinism, the context pooling rule, and bit
identity with a per-word reference implementation."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import box_center, make_doc, random_doc
from ffrg import features
from ffrg.datatypes import DataType, type_of
from ffrg.docmodel import Document, ValidationError
from ffrg.features import (
    BASE_DIM,
    CONTEXT_RADIUS,
    FEATURE_DIM,
    FLAG_DIM,
    GEOMETRY_DIM,
    TRIGRAM_DIM,
    CorpusFeatures,
    featurize,
    featurize_corpus,
)
from ffrg.synth import generate, preset_config
from golden_digests import dense_pages, negative_zero_page


def test_dimension_breakdown():
    assert TRIGRAM_DIM + FLAG_DIM + GEOMETRY_DIM == BASE_DIM == 276
    assert FEATURE_DIM == 2 * BASE_DIM == 552


def test_shape_and_row_alignment():
    doc = make_doc(
        [("one", 0.1, 0.1, 0.15, 0.12), ("two", 0.3, 0.5, 0.35, 0.52)]
    )
    x = featurize(doc)
    assert x.shape == (2, FEATURE_DIM)
    # geometry slots carry each word's own center and size
    cx, cy = box_center(doc.words[1].box)
    geo = x[1, TRIGRAM_DIM + FLAG_DIM : BASE_DIM]
    assert geo == pytest.approx([cx, cy, 0.05, 0.02])


def test_empty_document_yields_empty_matrix():
    assert featurize(make_doc([])).shape == (0, FEATURE_DIM)
    _assert_oracle_bits(make_doc([]))


def test_trigram_block_is_unit_norm_and_text_sensitive():
    doc = make_doc(
        [("hello", 0.1, 0.1, 0.15, 0.12), ("help", 0.1, 0.5, 0.15, 0.52)]
    )
    x = featurize(doc)
    assert np.linalg.norm(x[0, :TRIGRAM_DIM]) == pytest.approx(1.0)
    assert not np.allclose(x[0, :TRIGRAM_DIM], x[1, :TRIGRAM_DIM])


def test_same_text_same_geometry_same_vector():
    doc = make_doc(
        [("9.00", 0.1, 0.1, 0.15, 0.12), ("9.00", 0.7, 0.8, 0.75, 0.82)]
    )
    x = featurize(doc)
    # base halves differ only in the geometry slots
    assert np.array_equal(
        x[0, : TRIGRAM_DIM + FLAG_DIM], x[1, : TRIGRAM_DIM + FLAG_DIM]
    )


def test_flags_reflect_shape_classes():
    doc = make_doc(
        [
            ("TOTAL", 0.1, 0.1, 0.15, 0.12),
            ("1234", 0.3, 0.1, 0.35, 0.12),
            ("Mixed1", 0.5, 0.1, 0.55, 0.12),
        ]
    )
    x = featurize(doc)
    upper = x[0, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM]
    digits = x[1, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM]
    assert upper[0] == 1.0 and upper[4] == 0.0
    assert digits[4] == 1.0 and digits[5] == 1.0  # all-digit, digit ratio 1
    assert x[2, TRIGRAM_DIM + 5] == pytest.approx(1 / 6)


def test_context_pools_only_near_words():
    # neighbor inside the radius, stranger far outside it
    doc = make_doc(
        [
            ("a", 0.10, 0.10, 0.12, 0.12),
            ("b", 0.20, 0.10, 0.22, 0.12),
            ("c", 0.90, 0.90, 0.92, 0.92),
        ]
    )
    x = featurize(doc)
    assert np.array_equal(x[0, BASE_DIM:], x[1, :BASE_DIM])  # a's context is b alone
    assert np.all(x[2, BASE_DIM:] == 0.0)                     # c has no neighbors


def test_context_is_the_mean_of_neighbor_bases():
    doc = make_doc(
        [
            ("a", 0.10, 0.10, 0.12, 0.12),
            ("b", 0.16, 0.10, 0.18, 0.12),
            ("c", 0.22, 0.10, 0.24, 0.12),
        ]
    )
    x = featurize(doc)
    expected = (x[0, :BASE_DIM] + x[2, :BASE_DIM]) / 2.0
    assert np.allclose(x[1, BASE_DIM:], expected)
    d01 = np.hypot(0.06, 0.0)
    assert d01 <= CONTEXT_RADIUS  # sanity on the construction


def test_featurize_is_deterministic(rng):
    doc = random_doc(rng, 25)
    assert np.array_equal(featurize(doc), featurize(doc))


def test_corpus_featurization_matches_per_document(rng):
    docs = [random_doc(rng, 10, doc_id=f"d{i}") for i in range(6)]
    rows = featurize_corpus(docs)
    for doc, row in zip(docs, rows):
        assert np.array_equal(row, featurize(doc))


def test_held_features_keep_negative_zero():
    page = negative_zero_page()
    dense = featurize(page)
    assert np.any(np.signbit(dense) & (dense == 0.0))
    held = featurize_corpus([page])
    assert held[0].tobytes() == dense.tobytes()
    assert held.batch([0, 0]).tobytes() == np.concatenate([dense, dense]).tobytes()


def test_held_features_keep_a_zero_word_document(rng):
    docs = [random_doc(rng, 7, doc_id="a"), make_doc([], doc_id="empty"),
            random_doc(rng, 5, doc_id="b")]
    dense = [featurize(doc) for doc in docs]
    held = featurize_corpus(docs)
    assert len(held) == 3 and held.offsets.tolist() == [0, 7, 7, 12]
    assert held[1].tobytes() == dense[1].tobytes()
    assert held[1].shape == (0, FEATURE_DIM)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 1, 0]):
        want = np.concatenate([dense[i] for i in order])
        assert held.batch(order).tobytes() == want.tobytes()
    assert [x.tobytes() for x in held] == [x.tobytes() for x in dense]


def test_held_batches_are_the_dense_concatenation(schema):
    docs, _, _ = generate(preset_config("noisy-bench", 40, seed=3), schema)
    dense = [featurize(doc) for doc in docs]
    held = featurize_corpus(docs)
    assert np.diff(held.offsets).tolist() == [len(doc.words) for doc in docs]
    rng = np.random.default_rng(3)
    for _ in range(20):
        batch = rng.permutation(len(docs))[:8].tolist()
        want = np.concatenate([dense[i] for i in batch], axis=0)
        assert held.batch(batch).tobytes() == want.tobytes()


def test_held_features_keep_the_width_they_are_given():
    held = CorpusFeatures([np.zeros((4, 1)), np.ones((2, 1))])
    want = np.array([[1.0], [1.0], [0.0], [0.0], [0.0], [0.0]])
    assert held.batch([1, 0]).tobytes() == want.tobytes()
    with pytest.raises(ValidationError, match=r"\(2, 2\) is not 1 wide"):
        CorpusFeatures([np.zeros((4, 1)), np.ones((2, 2))])


def test_held_features_batch_no_documents_as_no_rows(rng):
    held = CorpusFeatures([rng.normal(size=(3, 5)), rng.normal(size=(2, 5))])
    rows = held.batch([])
    assert rows.shape == (0, 5) and rows.dtype == np.float64


def test_held_features_store_row_counts_uint16_columns_and_float64_values(rng):
    docs = [random_doc(rng, 9, doc_id="a"), make_doc([], doc_id="empty"),
            random_doc(rng, 4, doc_id="b")]
    held = featurize_corpus(docs)
    for doc, (counts, cols, index, table) in zip(docs, held._docs):
        dense = featurize(doc)
        kept = dense.view(np.uint64) != 0
        assert counts.dtype == np.uint16 and cols.dtype == np.uint16
        assert table.dtype == np.float64
        assert counts.tolist() == np.count_nonzero(kept, axis=1).tolist()
        assert cols.tolist() == kept.nonzero()[1].tolist()
        bits = table.view(np.uint64)
        assert np.all(bits[:-1] < bits[1:])  # sorted and unique by bits
        assert table[index].tobytes() == dense[kept].tobytes()


_NAN_PAYLOADS = (0x7FF8000000000001, 0xFFF4000000000002)


@pytest.fixture(scope="module")
def repetitive_matrices():
    """Eight-wide matrices whose entries repeat heavily, among them -0.0 and
    two NaN payloads; one with no rows; and three whose distinct nonzero
    values number 256 (all a uint8 index reaches), 257 and 65,537 (one past
    what a uint16 index reaches)."""
    rng = np.random.default_rng(33)
    pool = np.array([0.0, 0.0, 0.0, -0.0, 1.5, -2.25, 3.0]).view(np.uint64)
    pool = np.concatenate([pool, np.array(_NAN_PAYLOADS, dtype=np.uint64)])
    ms = [pool[rng.integers(len(pool), size=(n, 8))].view(np.float64) for n in (6, 1, 0, 13)]
    for distinct in (256, 257, 65_537):
        ms.append(np.resize(np.arange(1.0, distinct + 1), (distinct // 8 + 8, 8)))
    return ms


def test_held_features_index_each_document_table_in_the_smallest_type(repetitive_matrices):
    ms = repetitive_matrices
    found = np.concatenate([m.ravel() for m in ms[:4]]).view(np.uint64)
    assert set(_NAN_PAYLOADS) <= set(found.tolist())
    assert 0x8000000000000000 in found  # -0.0
    held = CorpusFeatures(ms)
    assert [len(table) for *_, table in held._docs[-3:]] == [256, 257, 65_537]
    assert [index.dtype for _, _, index, _ in held._docs[-3:]] == [np.uint8, np.uint16, np.uint32]
    # the two NaN payloads stay two table entries
    assert np.isnan(held._docs[0][3]).sum() == 2


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 6), max_size=10))
@example([])
def test_held_batches_equal_the_dense_concatenation_in_any_order(repetitive_matrices, ids):
    ms = repetitive_matrices
    held = CorpusFeatures(ms)
    want = np.concatenate([ms[i] for i in ids]) if ids else np.zeros((0, 8))
    got = held.batch(ids)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_held_features_take_widths_up_to_what_a_uint16_column_indexes():
    wide = np.zeros((2, 2**16))
    wide[0, -1], wide[1, 0], wide[1, -2] = 1.0, -0.0, 2.0
    held = CorpusFeatures([wide])
    assert held.width == 2**16
    assert held[0].tobytes() == wide.tobytes()
    with pytest.raises(ValidationError, match="65537"):
        CorpusFeatures([np.zeros((1, 2**16 + 1))])


def test_corpus_features_take_a_fraction_of_the_dense_bytes(schema):
    docs, _, _ = generate(preset_config("noisy-bench", 200, seed=0), schema)
    featurize_corpus(docs)  # fill the trigram memo, so the trace holds the features alone
    dense_bytes = sum(len(doc.words) for doc in docs) * FEATURE_DIM * 8
    tracemalloc.start()
    try:
        held = featurize_corpus(docs)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 200
    # 2 bytes of column and 2 of index per kept entry, and 8 per distinct
    # value of its document: about 7.4% of the dense bytes held and 9.8% at
    # peak, bounds that float64 values per entry (12.9% and 15.0%) break
    assert retained < 0.085 * dense_bytes, retained / dense_bytes
    assert peak < 0.11 * dense_bytes, peak / dense_bytes


# Reference: featurize as it was written word by word, one numpy vector per
# block per word.  The whole-document featurize must reproduce its bits.
_HASH_PERSON = b"ffrg-trigram"
_TYPE_ORDER = (DataType.NUMBER, DataType.DATE, DataType.MONEY, DataType.OTHER)
_LENGTH_BUCKETS = ((1, 1), (2, 3), (4, 6), (7, 10), (11, 10**9))


def _oracle_trigram_block(text: str) -> np.ndarray:
    vec = np.zeros(TRIGRAM_DIM, dtype=np.float64)
    padded = f"^{text}$"
    for i in range(len(padded) - 2):
        h = hashlib.blake2b(
            padded[i : i + 3].encode("utf-8"), digest_size=8, person=_HASH_PERSON
        ).digest()
        value = int.from_bytes(h, "little")
        bucket = value % TRIGRAM_DIM
        sign = 1.0 if (value >> 8) & 1 else -1.0
        vec[bucket] += sign
    norm = float(np.linalg.norm(vec))
    if norm > 0.0:
        vec /= norm
    return vec


def _oracle_flag_block(text: str) -> np.ndarray:
    flags = np.zeros(FLAG_DIM, dtype=np.float64)
    flags[0] = 1.0 if text.isupper() else 0.0
    flags[1] = 1.0 if text.islower() else 0.0
    flags[2] = 1.0 if text.istitle() else 0.0
    n_digit = sum(c.isdigit() for c in text)
    flags[3] = 1.0 if n_digit > 0 else 0.0
    flags[4] = 1.0 if text.isdigit() else 0.0
    flags[5] = n_digit / len(text)
    flags[6] = sum(not c.isalnum() for c in text) / len(text)
    types = type_of(text)
    for slot, t in enumerate(_TYPE_ORDER):
        flags[7 + slot] = 1.0 if t in types else 0.0
    n = len(text)
    for slot, (lo, hi) in enumerate(_LENGTH_BUCKETS):
        if lo <= n <= hi:
            flags[11 + slot] = 1.0
            break
    return flags


def _oracle_featurize(doc: Document) -> np.ndarray:
    m = len(doc.words)
    out = np.zeros((m, FEATURE_DIM), dtype=np.float64)
    if m == 0:
        return out
    base = np.zeros((m, BASE_DIM), dtype=np.float64)
    centers = np.zeros((m, 2), dtype=np.float64)
    for i, w in enumerate(doc.words):
        base[i, :TRIGRAM_DIM] = _oracle_trigram_block(w.text)
        base[i, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM] = _oracle_flag_block(w.text)
        cx, cy = box_center(w.box)
        base[i, TRIGRAM_DIM + FLAG_DIM :] = (cx, cy, w.box.x1 - w.box.x0, w.box.y1 - w.box.y0)
        centers[i] = (cx, cy)
    out[:, :BASE_DIM] = base
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[:, :, 0], diff[:, :, 1])
    near = dist <= CONTEXT_RADIUS
    np.fill_diagonal(near, False)
    for i in range(m):
        idx = np.flatnonzero(near[i])
        if idx.size:
            out[i, BASE_DIM:] = base[idx].mean(axis=0)
    return out


# Repeated texts of every type, 1-character texts and multi-byte characters;
# the two trigrams of "db" cancel, so its trigram block is all zeros.  A
# text ending in NUL loses it in a ``<U`` array ("1\x00".isdigit() is
# False, "1".isdigit() True); "ǅ" is titlecase; superscript digits are
# isdigit but not \d.
_TEXT_POOL = (
    "db", "Total", "TOTAL", "total:", "Invoice#", "9.00", "$1,234.56", "12/03/2021",
    "2021-03-04", "x", "7", "-", "€", "ü", "日本", "Ünïcode", "naïve-café", "Nº12",
    "a" * 30, "1\x00", "\x00", "A\x00", "12\x00\x00", "ǅ", "ǅa", "Aǅ", "²", "x²", "12³",
    "²³", "٣", "1",
)
_ALPHABET = list("aZ9.-,$€üß日本0ǅ²\x00") + ["😀"]


def _pool_text(rng: np.random.Generator) -> str:
    # drawn by index: rng.choice would pass through a <U array, which drops trailing NULs
    return _TEXT_POOL[int(rng.integers(len(_TEXT_POOL)))]


def _oracle_doc(rng: np.random.Generator, doc_id: str) -> Document:
    """Words in clusters whose spread runs from crowded (many neighbours
    per word) to isolated (none); texts drawn from a pool or at random."""
    entries = []
    for _ in range(int(rng.integers(1, 5))):
        cx, cy = rng.uniform(0.0, 1.0, size=2)
        spread = float(rng.choice([0.002, 0.03, 0.1, 0.6]))
        for _ in range(int(rng.integers(1, 20))):
            if rng.random() < 0.5:
                text = _pool_text(rng)
            else:
                size = int(rng.integers(1, 9))
                text = "".join(_ALPHABET[i] for i in rng.integers(len(_ALPHABET), size=size))
            w, h = float(rng.uniform(0.0, 0.05)), float(rng.uniform(0.0, 0.02))
            x0 = float(np.clip(cx + rng.normal(0.0, spread), 0.0, 1.0 - w))
            y0 = float(np.clip(cy + rng.normal(0.0, spread), 0.0, 1.0 - h))
            entries.append((text, x0, y0, x0 + w, y0 + h))
    return make_doc(entries, doc_id=doc_id)


def _assert_oracle_bits(doc: Document) -> None:
    got, want = featurize(doc), _oracle_featurize(doc)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), doc.doc_id


def test_featurize_matches_per_word_oracle_on_random_documents():
    rng = np.random.default_rng(20211)
    docs = [_oracle_doc(rng, f"r{i}") for i in range(200)]
    assert sum(len(d.words) for d in docs) > 2000
    for doc in docs:
        _assert_oracle_bits(doc)
    rows = featurize_corpus(docs)
    assert all(r.tobytes() == _oracle_featurize(d).tobytes() for d, r in zip(docs, rows))


def test_featurize_matches_per_word_oracle_on_tiled_pages():
    for page in dense_pages():
        _assert_oracle_bits(page)


def test_negative_zero_centres_pool_to_positive_zero():
    page = negative_zero_page()
    _assert_oracle_bits(page)
    x = featurize(page)
    cx = TRIGRAM_DIM + FLAG_DIM
    assert np.all(np.signbit(x[:, cx]))                 # each word's own centre is -0.0
    assert not np.any(np.signbit(x[:, BASE_DIM + cx]))  # numpy's mean starts from +0.0


def test_crowded_page_across_accumulation_blocks_matches_the_oracle():
    """About 300 words in one 0.1 x 0.1 square, each a neighbour of all the
    others, a fringe whose neighbour counts fall off, and, interleaved by
    id, isolated words (no neighbours) and words centred at x = -0.0."""
    rng = np.random.default_rng(2718)
    isolated = iter([(x, y) for x in (0.5, 0.7, 0.9) for y in (0.3, 0.5, 0.7, 0.9)])
    entries = []
    for i in range(300):
        text = _pool_text(rng)
        x0, y0 = rng.uniform(0.0, 0.09, size=2)
        entries.append((text, x0, y0, x0 + 0.01, y0 + 0.01))
        if i % 25 == 0:
            x, y = next(isolated)
            entries.append((text, x, y, x + 0.02, y + 0.01))
        if i % 20 == 0:
            entries.append((text, -0.0, y0, -0.0, y0 + 0.01))
    for x0 in np.linspace(0.1, 0.3, 40):
        entries.append((_pool_text(rng), x0, 0.05, x0 + 0.01, 0.06))
    page = make_doc(entries, doc_id="crowded")

    x = featurize(page)
    cx, cy = x[:, TRIGRAM_DIM + FLAG_DIM], x[:, TRIGRAM_DIM + FLAG_DIM + 1]
    near = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :]) <= CONTEXT_RADIUS
    counts = near.sum(axis=1) - 1
    assert np.count_nonzero(counts) > 2 * features._CONTEXT_BLOCK
    assert counts.max() > 300 and np.count_nonzero(counts == 0) == 12
    assert len(set(counts.tolist())) > 30
    assert np.count_nonzero(np.signbit(cx)) == 15
    _assert_oracle_bits(page)


def test_flag_rows_match_the_oracle_at_every_length():
    texts = []
    for n in range(1, 16):
        texts += ["a" * n, "7" * n, ("Ab-1" * n)[:n], ("1" * n)[:-1] + "\x00", ("ǅ²" * n)[:n]]
    doc = make_doc([(t, 0.05 * (i % 20), 0.05 * (i // 20), 0.05 * (i % 20) + 0.01,
                     0.05 * (i // 20) + 0.01) for i, t in enumerate(texts)])
    flags = featurize(doc)[:, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM]
    for text, row in zip(texts, flags):
        n = len(text)
        buckets = [float(lo <= n <= hi) for lo, hi in _LENGTH_BUCKETS]
        assert sum(buckets) == 1.0
        assert row.tobytes() == _oracle_flag_block(text).tobytes(), text
        assert row[11:].tolist() == buckets
    _assert_oracle_bits(doc)


def test_trigram_memo_stays_bounded_and_exact(monkeypatch):
    bound = features._TRIGRAM_MEMO_SIZE
    memo = features._TrigramMemo()
    monkeypatch.setattr(features, "_TRIGRAM_MEMO", memo)
    rng = np.random.default_rng(5)
    letters = [chr(c) for c in range(0x3B1, 0x3B1 + 25)] + list("abcdefghijklmnopqrstuvwxy")
    doc = make_doc([
        ("".join(rng.choice(letters, size=400)), x, y, x + 0.008, y + 0.01)
        for x, y in zip(np.tile(np.arange(10) * 0.01, 6), np.repeat(np.arange(6) * 0.02, 10))
    ])
    padded = [f"^{w.text}$" for w in doc.words]
    distinct = {p[j : j + 3] for p in padded for j in range(len(p) - 2)}
    assert len(distinct) > bound
    _assert_oracle_bits(doc)
    assert len(memo) == bound  # filled to the bound, and no further
    _assert_oracle_bits(doc)  # a full memo still answers its misses
    assert len(memo) == bound
    # a key holds all three code points: trigrams that share two of them
    # and differ in the other are separate entries
    small = features._TrigramMemo()
    monkeypatch.setattr(features, "_TRIGRAM_MEMO", small)
    page = make_doc([(t, 0.1 * i, 0.1, 0.1 * i + 0.05, 0.12) for i, t in enumerate(
        ["abc", "axc", "abx", "xbc", "\U0010ffff\U0010ffff", "a\x00c"])])
    _assert_oracle_bits(page)
    words = [f"^{w.text}$" for w in page.words]
    assert len(small) == len({p[j : j + 3] for p in words for j in range(len(p) - 2)})
