"""Dense pages for the rules-dense workload.

The synthetic generator saturates at about 150 words per page whatever
its distractor density, so dense pages are built by tiling noisy-bench
documents onto one page at reduced scale: tile t sits in cell t of a
near-square grid, its boxes scaled into the cell.  Tiles are filled in
pool order until the page holds exactly the target word count; the last
tile keeps only a prefix of its words.  The first tile is always whole,
and its gold annotations are the page's gold: every field extracted from
another tile counts against the rule extractor.
"""

from __future__ import annotations

import math

from ffrg import docmodel as dm
from ffrg import synth

# ROADMAP's scaling points are 50, 200, 400 and 800 words.  The 100-word
# size makes the count of sizes odd: with equal numbers of an even count of
# sizes, the median page falls in the latency gap between the two middle
# sizes and swings with its two neighbours (measured: 34% across seeds).
PAGE_SIZES = (50, 100, 200, 400, 800)


def _tile_page(
    doc_id: str, tiles: list[dm.Document], target: int
) -> dm.Document:
    """One page of exactly `target` words from whole tiles plus a prefix."""
    cols = math.ceil(math.sqrt(len(tiles)))
    rows = math.ceil(len(tiles) / cols)
    words: list[dm.Word] = []
    for t, tile in enumerate(tiles):
        col, row = t % cols, t // cols
        for w in sorted(tile.words, key=lambda w: w.id):
            if len(words) == target:
                break
            b = w.box
            box = dm.BBox(
                (col + b.x0) / cols, (row + b.y0) / rows,
                (col + b.x1) / cols, (row + b.y1) / rows,
            )
            words.append(dm.Word(len(words), w.text, box))
    if len(words) != target:
        raise ValueError(f"{doc_id}: tiles hold {len(words)} words, need {target}")
    return dm.Document(doc_id, synth.PAGE_W, synth.PAGE_H, tuple(words))


def build_pages(
    seed: int, pages_per_size: int, schema: dm.FieldSchema
) -> tuple[list[dm.Document], dict[str, dict[str, str]]]:
    """Pages interleaved by size (50, 100, ..., 800, 50, ...) and their gold.

    Tiles come from one noisy-bench corpus drawn from `seed`; each page
    takes the next unused documents.  A document too long to be a whole
    first tile is skipped for that position and stays in the pool.
    """
    n_pool = pages_per_size * sum(math.ceil(size / 30) + 1 for size in PAGE_SIZES)
    pool, gold, _ = synth.generate(
        synth.preset_config("noisy-bench", n_pool, seed), schema, threads=1
    )
    pool.reverse()  # pop() then takes documents in generation order
    pages: list[dm.Document] = []
    page_gold: dict[str, dict[str, str]] = {}
    for i in range(pages_per_size):
        for size in PAGE_SIZES:
            skipped = []
            while len(pool[-1].words) > size:
                skipped.append(pool.pop())
            first = pool.pop()
            pool.extend(reversed(skipped))
            tiles, n_words = [first], len(first.words)
            while n_words < size:
                tiles.append(pool.pop())
                n_words += len(tiles[-1].words)
            page = _tile_page(f"dense-{seed}-w{size}-{i:03d}", tiles, size)
            pages.append(page)
            page_gold[page.doc_id] = dict(gold[first.doc_id])
    return pages, page_gold
