"""Phrase grouping against a union-find oracle and hand-built layouts.

Phrases must equal the connected components of the eps-neighborhood
graph, so an independent union-find over all pairs is an exact oracle.
"""

import math
import statistics

import numpy as np
import pytest

from conftest import box_center, make_doc, random_doc
from ffrg import grouping
from ffrg.grouping import (
    EPS_SCALE,
    group_document,
    group_words,
    neighborhood_eps,
)


def word_distance(a, b):
    """The oracle of a link: the horizontal gap between two words' boxes
    (zero where their x-projections overlap) combined by math.hypot with
    their centre offset in y, penalized by VERTICAL_PENALTY."""
    gap = max(a.box.x0, b.box.x0) - min(a.box.x1, b.box.x1)
    if gap < 0.0:
        gap = 0.0
    dyc = abs((a.box.y0 + a.box.y1) / 2.0 - (b.box.y0 + b.box.y1) / 2.0)
    return math.hypot(gap, grouping.VERTICAL_PENALTY * dyc)


def test_distance_is_zero_only_at_overlap_on_a_line():
    doc = make_doc(
        [
            ("a", 0.10, 0.10, 0.20, 0.12),
            ("b", 0.24, 0.10, 0.30, 0.12),
            ("c", 0.18, 0.10, 0.26, 0.12),
        ]
    )
    a, b, c = doc.words
    assert word_distance(a, b) == pytest.approx(0.04)   # pure horizontal gap
    assert word_distance(a, c) == 0.0                   # x-projections overlap
    assert word_distance(a, a) == 0.0


def test_distance_combines_gap_and_penalized_offset():
    doc = make_doc(
        [
            ("a", 0.10, 0.100, 0.20, 0.120),
            ("b", 0.24, 0.110, 0.30, 0.130),
        ]
    )
    a, b = doc.words
    # gap 0.04, center offset 0.01 scaled by 3: hypot(0.04, 0.03) = 0.05
    assert word_distance(a, b) == pytest.approx(0.05)


def test_distance_is_symmetric():
    rng = np.random.default_rng(3)
    doc = random_doc(rng, 12)
    for a in doc.words:
        for b in doc.words:
            assert word_distance(a, b) == pytest.approx(word_distance(b, a))


def test_eps_scales_with_median_height():
    doc = make_doc(
        [
            ("a", 0.1, 0.10, 0.2, 0.12),
            ("b", 0.3, 0.10, 0.4, 0.14),
            ("c", 0.5, 0.10, 0.6, 0.16),
        ]
    )
    assert neighborhood_eps(doc, 0.5) == pytest.approx(0.5 * 0.04)


def _eps_by_statistics_median(doc, scale):
    heights = [w.box.y1 - w.box.y0 for w in doc.words]
    return scale * statistics.median(heights) if heights else 0.0


def test_eps_equals_the_statistics_median_bit_for_bit():
    rng = np.random.default_rng(11)
    scale = 0.8
    for n in list(range(0, 9)) + [40, 41, 800, 801]:
        # distinct heights; dyadic ones, so y1 - y0 gives them exactly and
        # many tie; and all equal
        for y0, heights in ((rng.uniform(0.0, 0.9, n), rng.uniform(0.0, 0.05, n)),
                            (rng.choice([0.125, 0.25, 0.5], n), rng.choice([2**-7, 2**-6], n)),
                            (np.full(n, 0.25), np.full(n, 1.0 / 3.0))):
            doc = make_doc([("w", 0.1, float(y), 0.2, float(y + h))
                            for y, h in zip(y0, heights)])
            assert neighborhood_eps(doc, scale).hex() == _eps_by_statistics_median(doc, scale).hex()
    # a word with y0 = +0.0 and y1 = -0.0 has height -0.0, which ties +0.0:
    # the sign of the middle height is that of the middle zero in word order
    for n in (3, 4, 5, 8, 9, 17, 33):
        for _ in range(20):
            doc = make_doc([("w", 0.1, 0.0, 0.2, float(y1)) for y1 in rng.choice([-0.0, 0.0], n)])
            want = _eps_by_statistics_median(doc, scale)
            assert neighborhood_eps(doc, scale).hex() == want.hex()


def _texts(doc, phrases):
    """Each phrase's word texts joined by spaces."""
    return [" ".join(doc.words[w].text for w in p.word_ids) for p in phrases]


def test_key_value_line_groups_as_two_phrases():
    # "Invoice Number   48113": tight pair, wide gap, then the value
    doc = make_doc(
        [
            ("Invoice", 0.10, 0.10, 0.165, 0.12),
            ("Number", 0.17, 0.10, 0.23, 0.12),
            ("48113", 0.40, 0.10, 0.45, 0.12),
        ]
    )
    phrases = group_words(doc)
    assert _texts(doc, phrases) == ["Invoice Number", "48113"]
    assert phrases[0].word_ids == (0, 1)


def test_stacked_words_do_not_merge_across_lines():
    doc = make_doc(
        [
            ("Total", 0.10, 0.10, 0.16, 0.12),
            ("Amount", 0.10, 0.16, 0.17, 0.18),
        ]
    )
    # vertical offset 0.06 penalized by 3 exceeds eps = 0.8 * 0.02
    assert _texts(doc, group_words(doc)) == ["Total", "Amount"]


def test_grouping_config_rejects_nonpositive_values():
    # neighborhood_eps reads eps_scale, so every grouping entry point checks it
    doc = make_doc([("a", 0.1, 0.1, 0.2, 0.12)])
    for value in (0.0, -1.0, float("nan"), float("inf")):
        for fn in (neighborhood_eps, grouping.phrase_members, group_words, group_document):
            with pytest.raises(ValueError, match="eps_scale must be positive and finite"):
                fn(doc, value)
    with pytest.raises(ValueError):
        neighborhood_eps(make_doc([]), 0.0)


def test_group_document_attaches_every_word_once():
    rng = np.random.default_rng(11)
    doc = group_document(random_doc(rng, 30))
    seen = [wid for ph in doc.phrases for wid in ph]
    assert sorted(seen) == list(range(30))
    assert doc.members is doc.phrases


def test_empty_document_groups_to_nothing():
    assert group_words(make_doc([])) == ()


def _components_by_union_find(doc, scale):
    """Transitive closure over the eps graph, pairwise and order-free."""
    words = sorted(doc.words, key=lambda w: w.id)
    eps = neighborhood_eps(doc, scale)
    parent = list(range(len(words)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            if word_distance(words[i], words[j]) <= eps:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    comps = {}
    for i, w in enumerate(words):
        comps.setdefault(find(i), set()).add(w.id)
    return {frozenset(c) for c in comps.values()}


def test_matches_union_find_oracle_on_random_documents():
    rng = np.random.default_rng(2024)
    scale = EPS_SCALE
    for trial in range(200):
        doc = random_doc(rng, int(rng.integers(1, 51)), doc_id=f"r{trial}")
        got = {frozenset(p.word_ids) for p in group_words(doc, scale)}
        assert got == _components_by_union_find(doc, scale), doc.doc_id


def test_phrases_come_out_in_reading_order():
    doc = make_doc(
        [
            ("second", 0.10, 0.30, 0.20, 0.32),
            ("first", 0.10, 0.10, 0.18, 0.12),
        ]
    )
    assert _texts(doc, group_words(doc)) == ["first", "second"]


# --- the centre-y window: boundary pairs and large pages ---------------------

def test_pair_offset_by_exactly_the_window_reach_groups():
    # heights 1/16 and eps_scale 3/4 make eps = 3/64 and its reach in
    # centre y, eps / VERTICAL_PENALTY = 1/64, exact; c sits just past b's
    scale = 0.75
    doc = make_doc(
        [
            ("b", 0.10, 0.265625, 0.20, 0.328125),
            ("c", 0.10, 0.28125 + 2.0 ** -20, 0.20, 0.34375 + 2.0 ** -20),
            ("a", 0.10, 0.250000, 0.20, 0.312500),
        ]
    )
    a, b = doc.words[2], doc.words[0]
    assert grouping.VERTICAL_PENALTY * (box_center(b.box)[1] - box_center(a.box)[1]) == 0.046875
    assert word_distance(a, b) == neighborhood_eps(doc, scale) == 0.046875
    assert {p.word_ids for p in group_words(doc, scale)} == {(0, 2), (1,)}
    assert {frozenset(p.word_ids) for p in group_words(doc, scale)} == (
        _components_by_union_find(doc, scale))


def test_pair_within_eps_only_after_rounding_groups():
    # near the top of the page, 3 * offset rounds down to eps although the
    # offset exceeds eps / VERTICAL_PENALTY as computed: the window's slack
    # must keep this pair
    doc = make_doc(
        [
            ("a", 0.1, 3.9791599697781565e-05, 0.2, 0.009991199111221361),
            ("b", 0.1, 0.002693500269437403, 0.2, 0.012644907780960984),
        ]
    )
    eps = neighborhood_eps(doc, EPS_SCALE)
    a, b = doc.words
    assert box_center(b.box)[1] - box_center(a.box)[1] > eps / grouping.VERTICAL_PENALTY
    assert word_distance(a, b) <= eps
    assert [p.word_ids for p in group_words(doc)] == [(0, 1)]


def test_words_tied_on_centre_y_group_along_the_row():
    # four rows: two share one centre, the others lie exactly one reach
    # (1/64) above and below; x positions repeat so pairs also tie in x
    scale = 0.75
    entries = []
    for k, y0 in enumerate((0.5, 0.484375, 0.5, 0.515625) * 3):
        x0 = (0.1, 0.4, 0.7)[k % 3]
        entries.append((f"w{k}", x0, y0, x0 + 0.05, y0 + 0.0625))
    doc = make_doc(entries)
    got = {frozenset(p.word_ids) for p in group_words(doc, scale)}
    assert got == _components_by_union_find(doc, scale)
    assert len(got) == 3  # one stack per x position


def test_matches_union_find_oracle_on_large_pages():
    rng = np.random.default_rng(2025)
    scale = EPS_SCALE
    for n_words in (200, 400, 800):
        doc = random_doc(rng, n_words, doc_id=f"large-{n_words}")
        got = {frozenset(p.word_ids) for p in group_words(doc, scale)}
        assert got == _components_by_union_find(doc, scale), doc.doc_id


def test_a_link_at_eps_follows_word_distance_not_an_array_hypot():
    # here math.hypot (word_distance) gives exactly eps, and np.hypot one
    # unit in the last place more: the pair links
    a = [float.fromhex(v) for v in ("0x1.999999999999ap-4", "0x1.3fb46242bcce3p-3",
                                     "0x1.57d36141ebf8ep-3", "0x1.67e0ccf925102p-3")]
    b = [float.fromhex(v) for v in ("0x1.720023cdd2728p-3", "0x1.45ebc0f412b13p-3",
                                     "0x1.d8668a3438d8ep-3", "0x1.6e182baa7af32p-3")]
    doc = make_doc([("a", *a), ("b", *b)])
    eps = neighborhood_eps(doc, EPS_SCALE)
    wa, wb = doc.words
    gap = wb.box.x0 - wa.box.x1
    dyc = abs(box_center(wa.box)[1] - box_center(wb.box)[1])
    assert word_distance(wa, wb) == math.hypot(gap, 3.0 * dyc) == eps
    assert np.hypot(gap, 3.0 * dyc) > eps
    assert [p.word_ids for p in group_words(doc)] == [(0, 1)]
    assert {frozenset(p.word_ids) for p in group_words(doc)} == _components_by_union_find(
        doc, EPS_SCALE)
