"""Deterministic token features for the desk-scale classifier.

Per word: 256 signed-hashed character trigram counts (L2-normalized),
16 shape/type flags, 4 geometry values, then 276 context slots holding
the mean base vector of neighboring words within a normalized radius.
Total dimension 552.  Hashing uses blake2b with a fixed person tag so
feature vectors are bitwise reproducible across platforms and runs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from .datatypes import TYPE_SETS, DataType, type_of
from .docmodel import Document, ValidationError

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
# A code point needs at most 21 bits, so three of them pack into one int64
# key exactly; no real key reaches the memo's end marker.
_CODE_BITS = 21
_CODE_MASK = (1 << _CODE_BITS) - 1
_END_KEY = np.iinfo(np.int64).max


def _trigram_column(key: int) -> int:
    """Count column of a trigram key: its bucket, plus TRIGRAM_DIM if its sign is +."""
    trigram = "".join(map(chr, (key >> 2 * _CODE_BITS, key >> _CODE_BITS & _CODE_MASK,
                                key & _CODE_MASK)))
    h = hashlib.blake2b(trigram.encode("utf-8"), digest_size=8, person=_HASH_PERSON).digest()
    value = int.from_bytes(h, "little")
    return value % TRIGRAM_DIM + TRIGRAM_DIM * ((value >> 8) & 1)


class _TrigramMemo:
    """The columns of the trigram keys seen so far, at most _TRIGRAM_MEMO_SIZE
    of them, held as sorted keys (ending in _END_KEY) and their columns."""

    def __init__(self):
        self._keys = np.array([_END_KEY], dtype=np.int64)
        self._columns = np.zeros(1, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys) - 1

    def columns(self, keys: np.ndarray) -> np.ndarray:
        """The column of every key.  A key not held is hashed once per call,
        and stored while the memo has room."""
        at = self._keys.searchsorted(keys)
        out = self._columns[at]
        miss = self._keys[at] != keys
        if not miss.any():
            return out
        new = sorted(set(keys[miss].tolist()))
        new_columns = np.array(list(map(_trigram_column, new)), dtype=np.int64)
        new = np.array(new, dtype=np.int64)
        out[miss] = new_columns[new.searchsorted(keys[miss])]
        room = _TRIGRAM_MEMO_SIZE - len(self)
        if room > 0:
            new, new_columns = new[:room], new_columns[:room]
            at = self._keys.searchsorted(new)
            self._keys = np.insert(self._keys, at, new)
            self._columns = np.insert(self._columns, at, new_columns)
        return out


_TRIGRAM_MEMO = _TrigramMemo()
# Type flags of each set type_of can return, and the length-bucket flags of
# each length 0..11; lengths past 11 share the last row.
_TYPE_FLAGS = {types: tuple(float(t in types) for t in _TYPE_ORDER) for types in TYPE_SETS}
_LENGTH_FLAGS = np.array(
    [[float(lo <= n <= hi) for lo, hi in _LENGTH_BUCKETS] for n in range(12)]
)
# Rows of the context accumulator summed per block, sized to stay in cache.
_CONTEXT_BLOCK = 128
# Columns a CorpusFeatures can hold: its columns are uint16.
_MAX_WIDTH = 2**16


def _flag_rows(texts: list[str], lens: np.ndarray) -> np.ndarray:
    """The (M, 16) flag rows of the texts: case, digit and type flags, the
    digit and non-alphanumeric shares, and the length bucket.

    A ``<U`` array drops a text's trailing NULs, which leaves the case
    predicates unchanged (NUL is uncased) but not ``isdigit``, so whole-text
    ``isdigit`` is read from the per-character counts instead.
    """
    m = len(texts)
    chars = np.frombuffer("".join(texts).encode("utf-32-le"), dtype="<U1")
    starts = np.cumsum(lens) - lens
    n_digit, n_alnum = np.add.reduceat(
        np.stack((np.char.isdigit(chars), np.char.isalnum(chars))), starts, axis=1, dtype=np.intp)
    as_array = np.array(texts)
    rows = np.empty((m, FLAG_DIM), dtype=np.float64)
    rows[:, 0] = np.char.isupper(as_array)
    rows[:, 1] = np.char.islower(as_array)
    rows[:, 2] = np.char.istitle(as_array)
    rows[:, 3] = n_digit > 0
    rows[:, 4] = n_digit == lens
    rows[:, 5] = n_digit / lens
    rows[:, 6] = (lens - n_alnum) / lens
    # every type rule needs a \d, which is an isdigit character, so a text
    # without one is OTHER
    rows[:, 7:11] = _TYPE_FLAGS[frozenset({DataType.OTHER})]
    has_digit = np.flatnonzero(n_digit).tolist()
    if has_digit:
        rows[has_digit, 7:11] = [_TYPE_FLAGS[type_of(texts[i])] for i in has_digit]
    rows[:, 11:] = _LENGTH_FLAGS[np.minimum(lens, 11)]
    return rows


def _context_means(base: np.ndarray, near: np.ndarray, out: np.ndarray) -> None:
    """Write into out[i] the mean of base over the rows near[i] marks.

    Bit for bit ``base[near[i]].mean(axis=0)``: numpy sums those rows in
    index order onto +0.0 and divides by their count, and so do the passes
    here.  Rows sorted by neighbour count, most first, put every row with
    a j-th neighbour in a prefix; pass j adds the j-th neighbours of that
    prefix.  Rows without neighbours are left as they are.
    """
    counts = near.sum(axis=1)
    rows = np.argsort(-counts, kind="stable")
    counts = counts[rows]
    _, nbrs = near[rows].nonzero()  # each row's neighbours, in index order
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # prefix[j]: how many sorted rows have more than j neighbours
    prefix = np.searchsorted(-counts, -np.arange(counts[0]), side="left")
    n_rows = int(np.count_nonzero(counts))
    for lo in range(0, n_rows, _CONTEXT_BLOCK):
        hi = min(lo + _CONTEXT_BLOCK, n_rows)
        acc = np.zeros((hi - lo, base.shape[1]), dtype=np.float64)
        for j in range(counts[lo]):
            end = min(prefix[j], hi)
            acc[: end - lo] += base[nbrs[starts[lo:end] + j]]
        out[rows[lo:hi]] = acc / counts[lo:hi, None]


def featurize(doc: Document) -> np.ndarray:
    """(M, 552) float64 feature matrix, row i for word id i."""
    m = len(doc.words)
    out = np.zeros((m, FEATURE_DIM), dtype=np.float64)
    if m == 0:
        return out

    # Each text block is built for the whole document from its code points.
    texts = [w.text for w in doc.words]
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=m)
    word = np.repeat(np.arange(m), lens)  # the word of each character, and of each trigram
    base = out[:, :BASE_DIM]
    base[:, TRIGRAM_DIM : TRIGRAM_DIM + FLAG_DIM] = _flag_rows(texts, lens)

    # Word i's trigrams start at its characters' positions in "^t0$^t1$...",
    # shifted by the 2i pad characters before it.  Trigram counts are small
    # integers: exact in any order.
    padded = np.frombuffer(f"^{'$^'.join(texts)}$".encode("utf-32-le"), dtype=np.uint32)
    codes = padded.astype(np.int64)
    keys = codes[:-2] << 2 * _CODE_BITS | codes[1:-1] << _CODE_BITS | codes[2:]
    slots = _TRIGRAM_MEMO.columns(keys[np.arange(len(word)) + 2 * word])
    slots += 2 * TRIGRAM_DIM * word
    counts = np.bincount(slots, minlength=2 * TRIGRAM_DIM * m).reshape(m, 2, TRIGRAM_DIM)
    trigrams = np.subtract(counts[:, 1], counts[:, 0], out=base[:, :TRIGRAM_DIM])
    norms = np.sqrt(np.einsum("ij,ij->i", trigrams, trigrams))[:, None]
    np.divide(trigrams, norms, out=trigrams, where=norms > 0.0)
    # centre, width and height, the IEEE operations of BBox's properties
    x0, y0, x1, y1 = doc.boxes.T
    cx, cy, width, height = base[:, TRIGRAM_DIM + FLAG_DIM :].T
    cx[:], cy[:] = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    width[:], height[:] = x1 - x0, y1 - y0

    near = np.hypot(cx[:, None] - cx[None, :], cy[:, None] - cy[None, :]) <= CONTEXT_RADIUS
    np.fill_diagonal(near, False)
    _context_means(base, near, out[:, BASE_DIM:])
    return out


class CorpusFeatures:
    """The feature matrices of a corpus, held as their nonzero bits.

    Document i keeps, per row, the count of entries whose bits are nonzero
    (in the smallest unsigned type that holds the width), then those
    entries' columns (uint16) in row-major order, a float64 table of their
    distinct values, sorted by bits, and each entry's index into that table
    (in the smallest unsigned type that holds the table's last index).  The
    table is unique by bits, so -0.0 and every NaN payload are kept and a
    filled batch is bit-equal to ``np.concatenate`` of the dense matrices.
    ``offsets[i]`` is document i's first row in corpus order; ``width`` is
    the first matrix's (552 for an empty corpus), and a uint16 column
    bounds it at 65,536.
    """

    def __init__(self, matrices: Iterable[np.ndarray]):
        self.width = FEATURE_DIM
        # (counts, cols, index, table)
        self._docs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for x in matrices:
            if not self._docs and x.ndim == 2:
                self.width = x.shape[1]
                if self.width > _MAX_WIDTH:
                    raise ValidationError(
                        f"feature width {self.width} is above {_MAX_WIDTH} columns")
                count_type = np.min_scalar_type(self.width)
            if x.ndim != 2 or x.shape[1] != self.width:
                raise ValidationError(f"feature matrix of shape {x.shape} is not {self.width} wide")
            bits = x.ravel().view(np.uint64)
            pos = np.flatnonzero(bits != 0)
            rows, cols = np.divmod(pos, self.width)
            counts = np.bincount(rows, minlength=x.shape[0]).astype(count_type)
            table, index = np.unique(bits[pos], return_inverse=True)
            index = index.astype(np.min_scalar_type(max(len(table) - 1, 0)))
            self._docs.append((counts, cols.astype(np.uint16), index, table.view(np.float64)))
        self.offsets = np.zeros(len(self._docs) + 1, dtype=np.int64)
        self.offsets[1:] = np.cumsum([len(counts) for counts, *_ in self._docs])
        self.offsets.flags.writeable = False

    def __len__(self) -> int:
        return len(self._docs)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.batch([i])

    def batch(self, doc_indices: Iterable[int]) -> np.ndarray:
        """The dense rows of the given documents, stacked in the order given."""
        picked = [self._docs[i] for i in doc_indices]
        if not picked:
            return np.zeros((0, self.width), dtype=np.float64)
        counts, cols, index, tables = zip(*picked)
        counts = np.concatenate(counts)
        # each kept entry's flat position: its column plus its row's start
        at = np.concatenate(cols, dtype=np.intp)
        at += (np.arange(len(counts)) * self.width).repeat(counts)
        # each kept entry's place in the joined tables: its index plus its
        # document's table start
        where = np.concatenate(index, dtype=np.intp)
        sizes = [len(t) for t in tables]
        where += (np.cumsum(sizes) - sizes).repeat([len(i) for i in index])
        out = np.zeros((len(counts), self.width), dtype=np.float64)
        out.reshape(-1)[at] = np.take(np.concatenate(tables), where)
        return out


def featurize_corpus(docs: Sequence[Document], threads: int | None = None) -> CorpusFeatures:
    """Every document's features, one dense matrix at a time; ``threads``
    is accepted and not read."""
    return CorpusFeatures(featurize(doc) for doc in docs)
