"""Deterministic token features for the desk-scale classifier.

Per word: 256 signed-hashed character trigram counts (L2-normalized),
16 shape/type flags, 4 geometry values, then 276 context slots holding
the mean base vector of neighboring words within a normalized radius.
Total dimension 552.  Hashing uses blake2b with a fixed person tag so
feature vectors are bitwise reproducible across platforms and runs.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .datatypes import DataType, type_of
from .docmodel import Document
from .parallel import ordered_map

TRIGRAM_DIM = 256
FLAG_DIM = 16
GEOMETRY_DIM = 4
BASE_DIM = TRIGRAM_DIM + FLAG_DIM + GEOMETRY_DIM  # 276
FEATURE_DIM = 2 * BASE_DIM  # base + context = 552
CONTEXT_RADIUS = 0.15

_HASH_PERSON = b"ffrg-trigram"
_TYPE_ORDER = (DataType.NUMBER, DataType.DATE, DataType.MONEY, DataType.OTHER)
_LENGTH_BUCKETS = ((1, 1), (2, 3), (4, 6), (7, 10), (11, 10**9))


def _trigram_block(text: str) -> np.ndarray:
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


def _flag_block(text: str) -> np.ndarray:
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


def featurize(doc: Document) -> np.ndarray:
    """(M, 552) float64 feature matrix, row i for word id i."""
    m = len(doc.words)
    out = np.zeros((m, FEATURE_DIM), dtype=np.float64)
    if m == 0:
        return out

    base = np.zeros((m, BASE_DIM), dtype=np.float64)
    centers = np.zeros((m, 2), dtype=np.float64)
    for i, w in enumerate(doc.words):
        base[i, :TRIGRAM_DIM] = _trigram_block(w.text)
        base[i, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM] = _flag_block(w.text)
        cx, cy = w.box.center
        base[i, TRIGRAM_DIM + FLAG_DIM :] = (cx, cy, w.box.width, w.box.height)
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


def featurize_corpus(docs: Sequence[Document], threads: int | None = None) -> list[np.ndarray]:
    return ordered_map(featurize, docs, threads)
