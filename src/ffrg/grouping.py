"""Phrase construction: density grouping of words into multi-word units.

Phrases are the connected components of the graph that links two words
when their box distance is at most eps.  The distance is cheap to compute
and anisotropic: vertical center offset is penalized so that grouping
mostly chains words along a line.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from .docmodel import (
    Document, Phrase, Word, _components, _near_in_y, make_phrase, reading_order,
)


# weight of the vertical center offset against the horizontal gap
VERTICAL_PENALTY = 3.0


@dataclass(frozen=True)
class GroupingConfig:
    # eps is this fraction of the median word height in the document
    eps_scale: float = 0.8

    def __post_init__(self):
        if not 0 < self.eps_scale < math.inf:
            raise ValueError("eps_scale must be positive and finite")


def word_distance(a: Word, b: Word) -> float:
    """Horizontal gap between boxes combined with penalized center offset.

    The gap is zero when the x-projections overlap, so stacked words are
    separated purely by their vertical offset.
    """
    gap = max(a.box.x0, b.box.x0) - min(a.box.x1, b.box.x1)
    if gap < 0.0:
        gap = 0.0
    dyc = abs(
        (a.box.y0 + a.box.y1) / 2.0 - (b.box.y0 + b.box.y1) / 2.0
    )
    return math.hypot(gap, VERTICAL_PENALTY * dyc)


def neighborhood_eps(doc: Document, config: GroupingConfig) -> float:
    heights = [w.box.height for w in doc.words]
    if not heights:
        return 0.0
    return config.eps_scale * statistics.median(heights)


def group_words(
    doc: Document, config: GroupingConfig | None = None, *, order: list[int] | None = None
) -> tuple[Phrase, ...]:
    """Cluster words into phrases; returns phrases in reading order.

    `order` is the document's reading order when the caller already has it.
    """
    if config is None:
        config = GroupingConfig()
    words = doc.words
    eps = neighborhood_eps(doc, config)
    yc = [(w.box.y0 + w.box.y1) / 2.0 for w in words]

    def near():
        # a pair within eps is within eps / VERTICAL_PENALTY in centre y
        for i, j in _near_in_y(yc, [eps / VERTICAL_PENALTY] * len(words)):
            if word_distance(words[i], words[j]) <= eps:
                yield i, j

    if order is None:
        order = reading_order(doc)
    rank = {wid: r for r, wid in enumerate(order)}
    phrases = [make_phrase(doc, ids, rank) for ids in _components(len(words), near())]
    # a phrase lists its words in reading order, so its first word ranks lowest
    phrases.sort(key=lambda p: rank[p.word_ids[0]])
    return tuple(phrases)


def group_document(doc: Document, config: GroupingConfig | None = None) -> Document:
    """Return a copy of the document with phrases attached."""
    return Document(
        doc.doc_id, doc.page_width, doc.page_height, doc.words, group_words(doc, config)
    )
