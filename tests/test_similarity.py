"""Jaro-Winkler scores against frozen values and an independent reference.

The reference implementation below uses the match-list formulation
(collect matched characters, then count transpositions by direct
comparison of the two matched sequences); the library uses flag arrays
with an index walk.  Agreement between the two is the oracle.  The
library's own flag-array loop, as it scanned each window index by index,
is kept too: the str.find scan must give exactly its scores.
"""

import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from ffrg.similarity import jaro_similarity, jaro_winkler, string_distance


def _ref_jaro(s1, s2):
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(len(s1), len(s2)) // 2 - 1
    if window < 0:
        window = 0
    used = [False] * len(s2)
    matches = []
    for i, ch in enumerate(s1):
        lo = max(0, i - window)
        hi = min(len(s2), i + window + 1)
        for j in range(lo, hi):
            if not used[j] and s2[j] == ch:
                used[j] = True
                matches.append((i, j, ch))
                break
    if not matches:
        return 0.0
    m = len(matches)
    seq1 = [ch for _, _, ch in matches]
    seq2 = [s2[j] for j in sorted(j for _, j, _ in matches)]
    half = sum(1 for a, b in zip(seq1, seq2) if a != b)
    t = half // 2
    return (m / len(s1) + m / len(s2) + (m - t) / m) / 3.0


def _loop_jaro(s1, s2):
    """The library's flag-array Jaro with its window scanned index by index,
    as it was before the scan used str.find."""
    len1, len2 = len(s1), len(s2)
    if len1 == 0 and len2 == 0:
        return 1.0
    if len1 == 0 or len2 == 0:
        return 0.0
    search_range = max(len1, len2) // 2 - 1
    if search_range < 0:
        search_range = 0
    flags1 = [False] * len1
    flags2 = [False] * len2
    common = 0
    for i, ch in enumerate(s1):
        lo = i - search_range if i > search_range else 0
        hi = i + search_range + 1
        if hi > len2:
            hi = len2
        for j in range(lo, hi):
            if not flags2[j] and s2[j] == ch:
                flags1[i] = flags2[j] = True
                common += 1
                break
    if common == 0:
        return 0.0
    k = 0
    half_transposes = 0
    for i in range(len1):
        if not flags1[i]:
            continue
        while not flags2[k]:
            k += 1
        if s1[i] != s2[k]:
            half_transposes += 1
        k += 1
    transposes = half_transposes // 2
    return (common / len1 + common / len2 + (common - transposes) / common) / 3.0


def _ref_jaro_winkler(s1, s2):
    sim = _ref_jaro(s1, s2)
    if sim > 0.7:
        prefix = 0
        for a, b in zip(s1, s2):
            if a != b or prefix >= 4:
                break
            prefix += 1
        sim += prefix * 0.1 * (1.0 - sim)
    return sim


# Frozen similarity values, generated once from the reference above.
FROZEN = [
    ("martha", "marhta", 0.9611111111111111),
    ("dixon", "dicksonx", 0.8133333333333332),
    ("jellyfish", "smellyfish", 0.8962962962962964),
    ("dwayne", "duane", 0.8400000000000001),
    ("invoice", "invoice", 1.0),
    ("invoice number", "invoice numbre", 0.9857142857142858),
    ("invoice number", "invoice no", 0.9085714285714286),
    ("invoice #", "invoice", 0.9555555555555556),
    ("po number", "p.o. number", 0.9454545454545455),
    ("po #", "po", 0.8666666666666667),
    ("purchase order number", "po number", 0.5396825396825397),
    ("due date", "date", 0.5833333333333334),
    ("invoice date", "due date", 0.75),
    ("total", "invoice total", 0.4256410256410256),
    ("total", "total:", 0.9666666666666667),
    ("amount due", "balance due", 0.604040404040404),
    ("amount due", "amount owing", 0.8566666666666667),
    ("tax", "total", 0.5111111111111111),
    ("tax", "sales tax", 0.48148148148148145),
    ("abc", "xyz", 0.0),
    ("", "", 1.0),
    ("a", "", 0.0),
    ("crate", "trace", 0.7333333333333334),
    ("12345", "12354", 0.9533333333333333),
    ("balance due", "balance", 0.9272727272727272),
]


@pytest.mark.parametrize("s1,s2,expected", FROZEN)
def test_frozen_table(s1, s2, expected):
    assert jaro_winkler(s1, s2) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("s1,s2,expected", FROZEN)
def test_matches_reference(s1, s2, expected):
    assert abs(jaro_winkler(s1, s2) - _ref_jaro_winkler(s1, s2)) <= 1e-6


def test_distance_folds_case_and_whitespace():
    # the classic record-linkage pair, as a distance
    assert string_distance("MARTHA", "MARHTA") == pytest.approx(0.0389, abs=5e-4)
    assert string_distance("  Invoice ", "invoice") == 0.0


def test_prefix_boost_only_above_threshold():
    # jaro("tax","total") ~ 0.51 <= 0.7: shared prefix "t" must not boost
    assert jaro_winkler("tax", "total") == jaro_similarity("tax", "total")
    # jaro("total","total:") > 0.7: boost engages
    assert jaro_winkler("total", "total:") > jaro_similarity("total", "total:")


def test_prefix_length_caps_at_four():
    # identical 5-char prefix, differing tail; boost uses prefix = 4
    j = jaro_similarity("abcdef", "abcdeX")
    assert jaro_winkler("abcdef", "abcdeX") == pytest.approx(j + 4 * 0.1 * (1 - j))


texts = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=16
)


@given(texts, texts)
def test_agrees_with_reference_everywhere(s1, s2):
    assert abs(jaro_winkler(s1, s2) - _ref_jaro_winkler(s1, s2)) <= 1e-6


@given(texts, texts)
def test_symmetric_and_bounded(s1, s2):
    a = jaro_winkler(s1, s2)
    assert 0.0 <= a <= 1.0
    assert a == pytest.approx(jaro_winkler(s2, s1), abs=1e-12)


@given(texts)
def test_identity_scores_one(s):
    assert jaro_winkler(s, s) == 1.0
    assert string_distance(s + "x", s + "x") == 0.0


@settings(derandomize=True, database=None, deadline=None)
@given(st.one_of(st.text(max_size=20), st.text(min_size=60, max_size=90)))
@example("")
@example("aaaaaaa")
@example("abab aab")
@example("straße größe İnvoice 😀")
@example("invoice number " * 5)
def test_a_string_scores_exactly_one_against_itself(s):
    # jaro_winkler returns 1.0 for an identical pair without a scan; the
    # scan itself, the index loop and the reference (boost included) agree
    assert jaro_similarity(s, s) == _loop_jaro(s, s) == 1.0
    assert jaro_winkler(s, s) == _ref_jaro_winkler(s, s) == 1.0


@given(texts, texts)
def test_distance_complements_similarity(s1, s2):
    d = string_distance(s1, s2)
    assert 0.0 <= d <= 1.0
    assert d == pytest.approx(
        1.0 - jaro_winkler(s1.strip().lower(), s2.strip().lower()), abs=1e-12
    )


def test_empty_versus_nonempty_is_maximal():
    assert jaro_winkler("", "anything") == 0.0
    assert math.isclose(string_distance("", "x"), 1.0)


def test_window_scan_equals_the_index_loop_on_random_pairs():
    # a small alphabet with repeats, so windows hold several copies of a
    # character and some are already flagged when the scan reaches them
    rng = random.Random(20)
    for _ in range(20_000):
        s1, s2 = ("".join(rng.choices("aab#. 0", k=rng.randrange(18))) for _ in range(2))
        assert jaro_similarity(s1, s2) == _loop_jaro(s1, s2), (s1, s2)
    for s1, s2, _ in FROZEN:
        assert jaro_similarity(s1, s2) == _loop_jaro(s1, s2), (s1, s2)


@given(texts, texts)
def test_window_scan_equals_the_index_loop_everywhere(s1, s2):
    assert jaro_similarity(s1, s2) == _loop_jaro(s1, s2)
