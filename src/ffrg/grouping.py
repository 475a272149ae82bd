"""Phrase construction: density grouping of words into multi-word units.

Phrases are the connected components of the graph that links two words
when their box distance is at most eps.  The distance is cheap to compute
and anisotropic: vertical center offset is penalized so that grouping
mostly chains words along a line.
"""

from __future__ import annotations

import math

import numpy as np

from .docmodel import Document, Phrase, _components, _near_in_y


# weight of the vertical center offset against the horizontal gap
VERTICAL_PENALTY = 3.0
# eps is this fraction of the median word height in the document
EPS_SCALE = 0.8


def check_eps_scale(eps_scale: float) -> None:
    """Refuse a scale that is not positive and finite."""
    if not 0 < eps_scale < math.inf:
        raise ValueError("eps_scale must be positive and finite")


def neighborhood_eps(doc: Document, eps_scale: float = EPS_SCALE) -> float:
    """eps_scale times the median word height, the median as
    statistics.median takes it: the middle height, or the two middle ones
    added and halved (a stable sort keeps a -0.0/+0.0 tie in word order)."""
    check_eps_scale(eps_scale)
    n = len(doc.words)
    if not n:
        return 0.0
    _, y0, _, y1 = doc.boxes.T
    heights = np.sort(y1 - y0, kind="stable")
    lo, hi = float(heights[(n - 1) // 2]), float(heights[n // 2])
    median = hi if n % 2 else (lo + hi) / 2.0
    return eps_scale * median


def phrase_members(doc: Document, eps_scale: float = EPS_SCALE) -> tuple[tuple[int, ...], ...]:
    """Cluster words into phrases; returns each phrase's word ids.

    A phrase lists its words in reading order, and phrases come in the
    reading order of their first words.
    """
    n = len(doc.words)
    eps = neighborhood_eps(doc, eps_scale)
    x0, y0, x1, y1 = doc.boxes.T
    yc = (y0 + y1) / 2.0
    # a pair within eps is within eps / VERTICAL_PENALTY in centre y
    i, j = _near_in_y(yc, np.full(n, eps / VERTICAL_PENALTY))
    # a pair links when math.hypot of its horizontal gap (0 where the
    # x-projections overlap) and penalized centre offset is within eps, which
    # needs both legs within eps; np.hypot rounds some distances differently
    gap = np.maximum(np.maximum(x0[i], x0[j]) - np.minimum(x1[i], x1[j]), 0.0)
    dy = VERTICAL_PENALTY * np.abs(yc[i] - yc[j])
    maybe = (gap <= eps) & (dy <= eps)
    i, j, gap, dy = i[maybe], j[maybe], gap[maybe], dy[maybe]
    link = np.array([math.hypot(g, d) <= eps for g, d in zip(gap.tolist(), dy.tolist())], bool)
    phrase = _components(n, i[link], j[link]).tolist()

    members: dict[int, list[int]] = {}
    for wid in doc.order:
        members.setdefault(phrase[wid], []).append(wid)
    return tuple(map(tuple, members.values()))


def group_words(doc: Document, eps_scale: float = EPS_SCALE) -> tuple[Phrase, ...]:
    """The phrases of phrase_members, in its order, as Phrase records."""
    return tuple(Phrase(ids) for ids in phrase_members(doc, eps_scale))


def group_document(doc: Document, eps_scale: float = EPS_SCALE) -> Document:
    """Return a copy of the document with phrases attached."""
    return Document(doc.doc_id, doc.page_width, doc.page_height, doc.words,
                    phrase_members(doc, eps_scale))
