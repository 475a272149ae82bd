"""String similarity for key matching.

Jaro-Winkler with the standard parameters: prefix scale 0.1, prefix length
capped at 4, and the prefix boost applied only when the Jaro score exceeds
0.7.  Scores are in [0,1] with 1.0 for identical strings.

An identical pair scores exactly 1.0 before any scan: the window scan
matches each character of s to its own position, so every character
matches with no transposition, (1 + 1 + 1)/3 is 1.0 and the boost adds
p * 0.1 * 0.0.  jaro_winkler returns it without scanning.
"""

from __future__ import annotations

JW_PREFIX_SCALE = 0.1
JW_MAX_PREFIX = 4
JW_BOOST_THRESHOLD = 0.7


def jaro_similarity(s1: str, s2: str) -> float:
    """Jaro score: match counting within a sliding window plus transpositions."""
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
        # the first unflagged ch of s2 in [lo, hi); find clips hi to len2
        j = s2.find(ch, lo, hi)
        while j >= 0 and flags2[j]:
            j = s2.find(ch, j + 1, hi)
        if j >= 0:
            flags1[i] = flags2[j] = True
            common += 1
    if common == 0:
        return 0.0

    # Half-transpositions: walk both matched subsequences in string order.
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

    return (
        common / len1 + common / len2 + (common - transposes) / common
    ) / 3.0


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro score boosted toward 1.0 for strings sharing a short prefix."""
    if s1 == s2:
        return 1.0
    score = jaro_similarity(s1, s2)
    if score <= JW_BOOST_THRESHOLD:
        return score
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix == JW_MAX_PREFIX:
            break
        prefix += 1
    return score + prefix * JW_PREFIX_SCALE * (1.0 - score)


def string_distance(s1: str, s2: str) -> float:
    """1 - Jaro-Winkler on trimmed, lowercased text (str.lower, so "ß" stays
    "ß"; casefold would give "ss"); 0.0 means identical."""
    return 1.0 - jaro_winkler(s1.strip().lower(), s2.strip().lower())
