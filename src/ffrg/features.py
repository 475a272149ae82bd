"""Deterministic token features for the desk-scale classifier.

Per word: 256 signed-hashed character trigram counts (L2-normalized),
16 shape/type flags, 4 geometry values, then 276 context slots holding
the mean base vector of neighboring words within a normalized radius.
Total dimension 552.  Hashing uses blake2b with a fixed person tag so
feature vectors are bitwise reproducible across platforms and runs.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Sequence

import numpy as np

from .datatypes import DataType, type_of
from .docmodel import Document

TRIGRAM_DIM = 256
FLAG_DIM = 16
GEOMETRY_DIM = 4
BASE_DIM = TRIGRAM_DIM + FLAG_DIM + GEOMETRY_DIM  # 276
FEATURE_DIM = 2 * BASE_DIM  # base + context = 552
CONTEXT_RADIUS = 0.15

_HASH_PERSON = b"ffrg-trigram"
_TYPE_ORDER = (DataType.NUMBER, DataType.DATE, DataType.MONEY, DataType.OTHER)
_LENGTH_BUCKETS = ((1, 1), (2, 3), (4, 6), (7, 10), (11, 10**9))
# Trigram memo bound; 1000 noisy-bench documents hold 6,138 distinct trigrams.
_TRIGRAM_MEMO_SIZE = 2**14


@functools.lru_cache(maxsize=_TRIGRAM_MEMO_SIZE)
def _trigram_slot(trigram: str) -> int:
    """Count column of a trigram: its bucket, plus TRIGRAM_DIM if its sign is +."""
    h = hashlib.blake2b(trigram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    value = int.from_bytes(h, "little")
    return value % TRIGRAM_DIM + TRIGRAM_DIM * ((value >> 8) & 1)


def _flag_row(text: str) -> list[float]:
    n = len(text)
    n_digit = sum(map(str.isdigit, text))
    types = type_of(text)
    return [
        float(text.isupper()), float(text.islower()), float(text.istitle()),
        float(n_digit > 0), float(text.isdigit()), n_digit / n,
        (n - sum(map(str.isalnum, text))) / n,
        *[float(t in types) for t in _TYPE_ORDER],
        *[float(lo <= n <= hi) for lo, hi in _LENGTH_BUCKETS],
    ]


def featurize(doc: Document) -> np.ndarray:
    """(M, 552) float64 feature matrix, row i for word id i."""
    m = len(doc.words)
    out = np.zeros((m, FEATURE_DIM), dtype=np.float64)
    if m == 0:
        return out

    # The loop only collects lists; each block is then built for the whole
    # document.  Trigram counts are small integers: exact in any order.
    slots, flags, geometry = [], [], []
    for i, w in enumerate(doc.words):
        padded = f"^{w.text}$"
        row = 2 * TRIGRAM_DIM * i
        slots += [row + _trigram_slot(padded[j : j + 3]) for j in range(len(padded) - 2)]
        flags.append(_flag_row(w.text))
        cx, cy = w.box.center
        geometry.append((cx, cy, w.box.width, w.box.height))

    counts = np.bincount(slots, minlength=2 * TRIGRAM_DIM * m).reshape(m, 2, TRIGRAM_DIM)
    base = out[:, :BASE_DIM]
    trigrams = np.subtract(counts[:, 1], counts[:, 0], out=base[:, :TRIGRAM_DIM])
    norms = np.sqrt(np.einsum("ij,ij->i", trigrams, trigrams))[:, None]
    np.divide(trigrams, norms, out=trigrams, where=norms > 0.0)
    base[:, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM] = flags
    base[:, TRIGRAM_DIM + FLAG_DIM :] = geometry

    cx, cy = base[:, TRIGRAM_DIM + FLAG_DIM], base[:, TRIGRAM_DIM + FLAG_DIM + 1]
    near = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :]) <= CONTEXT_RADIUS
    np.fill_diagonal(near, False)
    for i in range(m):
        idx = near[i].nonzero()[0]
        if idx.size:
            out[i, BASE_DIM:] = base[idx].mean(axis=0)
    return out


def featurize_corpus(docs: Sequence[Document], threads: int | None = None) -> list[np.ndarray]:
    """One feature matrix per document; ``threads`` is accepted and not read."""
    return [featurize(doc) for doc in docs]
