"""Token classifier: shared ReLU trunk and K classification branches.

Branch 1 is a single affine map from the trunk representation to the
N+1 classes; branches k >= 2 add one ReLU hidden layer.  Gradients are
analytic (softmax cross-entropy backprop), the optimizer is standard
Adam, and checkpoints are a fixed little-endian binary layout described
in docs/checkpoint.md.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .docmodel import FieldSchema, ValidationError
from .features import CorpusFeatures

CHECKPOINT_MAGIC = b"FFRG1"
HEADER_BYTES = len(CHECKPOINT_MAGIC) + 32 + 20  # magic, schema digest, five dims


@dataclass
class ModelParams:
    """Model dimensions and weights.

    Every tensor is a view into the one float64 buffer ``flat``, laid out
    in tensor_shapes order, so the tensors a training stage updates form one
    contiguous slice of it.  Update tensors in place, never by rebinding.
    """

    d_in: int
    hidden: int
    branch_hidden: int
    n_fields: int
    n_branches: int
    flat: np.ndarray
    schema_digest: bytes
    tensors: dict[str, np.ndarray] = field(init=False, repr=False)
    offsets: dict[str, int] = field(init=False, repr=False)  # start of each tensor in flat

    def __post_init__(self):
        shapes = tensor_shapes(
            self.d_in, self.hidden, self.branch_hidden, self.n_fields, self.n_branches
        )
        sizes = [math.prod(shape) for shape in shapes.values()]
        if (self.flat.shape != (sum(sizes),) or self.flat.dtype != np.float64
                or not self.flat.flags.c_contiguous):
            raise ValidationError(
                f"parameter buffer must be {sum(sizes)} contiguous float64 values"
            )
        if len(self.schema_digest) != 32:
            raise ValidationError("schema digest must be 32 bytes")
        self.tensors, self.offsets = {}, {}
        off = 0
        for (key, shape), size in zip(shapes.items(), sizes):
            self.tensors[key] = self.flat[off : off + size].reshape(shape)
            self.offsets[key] = off
            off += size

    @property
    def n_classes(self) -> int:
        return self.n_fields + 1


@functools.cache
def _layers(branch: int) -> tuple[tuple[str, str], ...]:
    """(weights key, bias key) of each of a branch's layers, bottom up.

    Branch 1 is one affine map from the trunk rows to the classes; each
    branch k >= 2 puts one ReLU hidden layer below its output layer.
    """
    names = ("out",) if branch == 1 else ("hid", "out")
    return tuple((f"branch{branch}.{name}.w", f"branch{branch}.{name}.b") for name in names)


def tensor_shapes(
    d_in: int, hidden: int, branch_hidden: int, n_fields: int, n_branches: int
) -> dict[str, tuple[int, ...]]:
    """Each tensor's shape, in canonical order: the order of the parameter
    buffer, of init_params' draws and of the checkpoint's blocks."""
    shapes: dict[str, tuple[int, ...]] = {"trunk.w": (d_in, hidden), "trunk.b": (hidden,)}
    for k in range(1, n_branches + 1):
        layers = _layers(k)
        widths = (hidden,) + (branch_hidden,) * (len(layers) - 1) + (n_fields + 1,)
        for (w, b), fan_in, width in zip(layers, widths, widths[1:]):
            shapes[w], shapes[b] = (fan_in, width), (width,)
    return shapes


def init_params(
    d_in: int,
    n_fields: int,
    n_branches: int,
    schema_digest: bytes,
    hidden: int = 64,
    branch_hidden: int = 64,
    seed: int = 0,
) -> ModelParams:
    """Seeded initialization.

    Weights draw in canonical tensor order from a stream keyed [seed, 0],
    so the trunk and branch 1 are bitwise identical across runs that
    differ only in n_branches.  Weight scale is 1/sqrt(fan_in); biases
    start at zero.
    """
    rng = np.random.default_rng([seed, 0])
    shapes = tensor_shapes(d_in, hidden, branch_hidden, n_fields, n_branches)
    size = sum(math.prod(shape) for shape in shapes.values())
    params = ModelParams(
        d_in, hidden, branch_hidden, n_fields, n_branches,
        np.zeros(size, dtype=np.float64), bytes(schema_digest),
    )
    for key, shape in shapes.items():
        if not key.endswith(".b"):
            scale = 1.0 / np.sqrt(shape[0])
            params.tensors[key][...] = rng.normal(0.0, scale, size=shape)
    return params


def _affine(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """x @ w + b in one buffer (into out if given)."""
    z = np.matmul(x, w, out=out)
    z += b
    return z


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of z over its last axis, in place.

    The row max is taken column by column, which is exact (a max does not
    round) and cheaper than a reduction over a short last axis; the row sum
    stays numpy's, whose pairwise order the bits depend on.
    """
    top = z[..., 0].copy()
    for j in range(1, z.shape[-1]):
        np.maximum(top, z[..., j], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def trunk_activations(
    params: ModelParams, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(M, hidden) shared trunk rows relu(x @ trunk.w + trunk.b), into out if given."""
    if features.ndim != 2 or features.shape[1] != params.d_in:
        raise ValidationError(
            f"feature matrix has width {features.shape[-1]}, model expects {params.d_in}"
        )
    t = params.tensors
    h = _affine(features, t["trunk.w"], t["trunk.b"], out)
    return np.maximum(h, 0.0, out=h)


def _forward(
    params: ModelParams, h: np.ndarray, branch: int, out: np.ndarray | None = None
) -> tuple[list[np.ndarray], np.ndarray]:
    """One branch over trunk rows: (each layer's input rows, bottom up;
    logits, into out if given)."""
    t = params.tensors
    *hidden, (w_out, b_out) = _layers(branch)
    inputs = [h]
    for w, b in hidden:
        z = _affine(inputs[-1], t[w], t[b])
        inputs.append(np.maximum(z, 0.0, out=z))
    return inputs, _affine(inputs[-1], t[w_out], t[b_out], out)


def branch_probs(params: ModelParams, activations: np.ndarray, branch: int) -> np.ndarray:
    """(M, N+1) softmax probability rows for one branch over trunk activations."""
    if not 1 <= branch <= params.n_branches:
        raise ValidationError(f"branch {branch} out of range 1..{params.n_branches}")
    return _softmax(_forward(params, activations, branch)[1])


def stacked_branch_probs(params: ModelParams, activations: np.ndarray) -> np.ndarray:
    """(K, M, N+1) probability rows of every branch, branch k at [k - 1].

    Each branch writes its logits into one buffer and one softmax runs over
    it; softmax works row by row, so each slice has branch_probs' bits.
    """
    logits = np.empty((params.n_branches, activations.shape[0], params.n_classes))
    for k in range(1, params.n_branches + 1):
        _forward(params, activations, k, logits[k - 1])
    return _softmax(logits)


# OpenBLAS sends a matmul whose M*N*K is at most this to a small-matrix
# kernel that rounds differently from its blocked kernel, so trunk rows
# computed in a batch this small differ by about an ulp from the same rows
# computed in a larger one (at 552x64: batches of 28 words or fewer).
SMALL_MATMUL = 1_000_000


class TrunkCache:
    """The trunk rows of a whole corpus under fixed trunk weights.

    The rows are filled in corpus-order blocks of at least block_docs
    documents, each grown until its matmul clears the small-kernel cutoff,
    so every row is bit-equal to the same row of any request whose own trunk
    pass is not small.  A request that small gets its own pass, so whatever
    the request, its rows are bit-equal to its own pass.  The cache reads
    params when asked, so it holds only while the trunk tensors are unchanged.
    """

    def __init__(self, params: ModelParams, features: CorpusFeatures, block_docs: int):
        self.params, self.features = params, features
        self._per_row = params.d_in * params.hidden
        offsets = features.offsets
        n = len(features)
        rows = np.empty((int(offsets[-1]), params.hidden), dtype=np.float64)
        lo = 0
        while lo < n:
            hi = min(lo + block_docs, n)
            while hi < n and self._small(offsets[hi] - offsets[lo]):
                hi += 1
            if self._small(offsets[n] - offsets[hi]):
                hi = n  # a small remainder joins this block
            block = features.batch(range(lo, hi))
            trunk_activations(params, block, out=rows[offsets[lo] : offsets[hi]])
            lo = hi
        self.rows = rows

    def _small(self, n_rows: int) -> bool:
        return n_rows * self._per_row <= SMALL_MATMUL

    def batch(self, docs: Sequence[int], row_index: np.ndarray) -> np.ndarray:
        """The trunk rows of the given documents in order; row_index is
        their corpus rows, concatenated in the same order."""
        if self._small(len(row_index)):
            return trunk_activations(self.params, self.features.batch(docs))
        return np.take(self.rows, row_index, axis=0)


def branch_loss_and_grad(
    params: ModelParams,
    features: np.ndarray | None,
    targets: Sequence[tuple[float, np.ndarray]],
    branch: int,
    *,
    activations: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted sum of mean cross-entropies for one branch, with gradients.

    targets is a non-empty list of (weight, labels) pairs where labels is
    an integer array, signed or unsigned, of classes in 0..N; the loss is
    sum_j weight_j * meanCE(s_branch, labels_j).  activations are the trunk
    rows of the batch (trunk_activations).  Gradients cover the branch
    tensors, plus the trunk when the features behind the activations are
    given; a step on a frozen trunk passes None.
    """
    t = params.tensors
    h = activations
    if h.ndim != 2 or h.shape[1] != params.hidden or (
        features is not None and features.shape[0] != h.shape[0]
    ):
        raise ValidationError(
            f"activations have shape {h.shape}, model expects width {params.hidden}"
            " and one row per feature row"
        )
    m = h.shape[0]
    if m == 0 or not targets:
        raise ValidationError("cannot take a loss over zero words or zero terms")
    n_out = params.n_classes
    # flat index of each row's labelled class, once per distinct label array
    row_starts = np.arange(0, m * n_out, n_out)
    picks: dict[int, np.ndarray] = {}
    for _, y in targets:
        if id(y) not in picks:
            # an unsigned array cannot hold a negative class
            if y.shape != (m,) or y.max() >= n_out or (y.dtype.kind != "u" and y.min() < 0):
                raise ValidationError("label vector shape or class range invalid")
            picks[id(y)] = row_starts + y

    inputs, logits = _forward(params, h, branch)
    probs = _softmax(logits)

    # a term that repeats (the rule labels at stage k >= 3) is worked out
    # once and added as often as it occurs, in order, so the sums keep their
    # bits.  A term's loss is the plain sum that .mean() takes, over m.
    # dlogits starts as the first contribution + 0.0, the bits that adding it
    # to zeros gives, so a -0.0 weight adds what 0.0 adds
    flat = probs.ravel()
    terms: dict[tuple[int, float], tuple[float, np.ndarray]] = {}
    loss = 0.0
    dlogits = None
    for weight, y in targets:
        key = (id(y), weight)
        if key not in terms:
            pick = picks[id(y)]
            contrib = probs.copy()
            contrib.ravel()[pick] -= 1.0
            contrib *= weight / m
            terms[key] = (weight * float(-(np.add.reduce(np.log(flat[pick])) / m)), contrib)
        term_loss, contrib = terms[key]
        loss += term_loss
        if dlogits is None:
            dlogits = contrib + 0.0
        else:
            dlogits += contrib

    # backprop top-down, the trunk joining at the bottom when its features
    # are given; relu(a) > 0 exactly where a > 0, so a layer's input rows
    # (the ReLU output of the layer below) mask the gradient passed down to it
    layers = [(("trunk.w", "trunk.b"), features)] if features is not None else []
    layers += zip(_layers(branch), inputs)
    grads: dict[str, np.ndarray] = {}
    delta = dlogits
    for i in range(len(layers) - 1, -1, -1):
        (w, b), x = layers[i]
        grads[w] = x.T @ delta
        grads[b] = delta.sum(axis=0)
        if i:
            delta = delta @ t[w].T
            delta *= x > 0.0
    return loss, grads


# --- Adam -------------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamState:
    """First/second moment accumulators plus the shared step counter.

    m and v are laid out like params.flat and are allocated at the first
    step; a tensor's moments start at params.offsets[key].
    """

    def __init__(self):
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None
        self.t = 0


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One bias-corrected Adam update, in place, over the keys in grads.

    The keys must name one contiguous run of tensors in tensor_shapes order
    (each training stage's tensors do), so the update is a few in-place
    element-wise ops over one slice of the parameter buffer; element-wise
    IEEE arithmetic gives the same bits in any layout.
    """
    keys = sorted(grads, key=params.offsets.__getitem__)
    lo = hi = params.offsets[keys[0]] if keys else 0
    for key in keys:
        if params.offsets[key] != hi or grads[key].shape != params.tensors[key].shape:
            raise ValidationError("adam_step needs gradients for one contiguous run of tensors")
        hi += grads[key].size
    if state.m is None:
        state.m, state.v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    state.t += 1
    if not keys:
        return
    m, v = state.m[lo:hi], state.v[lo:hi]
    g = np.concatenate([grads[key].ravel() for key in keys])
    step = g * (1.0 - BETA1)
    m *= BETA1
    m += step
    g *= g
    g *= 1.0 - BETA2
    v *= BETA2
    v += g
    np.divide(m, 1.0 - BETA1**state.t, out=step)  # m_hat
    step *= lr
    np.divide(v, 1.0 - BETA2**state.t, out=g)  # v_hat
    np.sqrt(g, out=g)
    g += EPSILON
    step /= g
    params.flat[lo:hi] -= step


# --- Checkpoint I/O ---------------------------------------------------------

def save_model(path: str, params: ModelParams) -> None:
    """magic, schema digest, dims as LE uint32, float64-LE tensor blocks."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(params.schema_digest)
        f.write(
            struct.pack(
                "<5I",
                params.d_in,
                params.hidden,
                params.branch_hidden,
                params.n_fields,
                params.n_branches,
            )
        )
        f.write(params.flat.astype("<f8", copy=False).tobytes())


def load_model(path: str, schema: FieldSchema) -> ModelParams:
    with open(path, "rb") as f:
        blob = f.read()
    # a file cut inside the magic is reported as truncated below
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC[: len(blob)]:
        raise ValidationError(f"{path}: not a model checkpoint (bad magic)")
    if len(blob) < HEADER_BYTES:
        raise ValidationError(
            f"{path}: truncated checkpoint ({len(blob)} bytes, header needs {HEADER_BYTES})"
        )
    off = len(CHECKPOINT_MAGIC)
    digest = blob[off : off + 32]
    off += 32
    d_in, hidden, branch_hidden, n_fields, n_branches = struct.unpack_from("<5I", blob, off)
    off += 20
    if digest != schema.digest():
        raise ValidationError(f"{path}: checkpoint was trained against a different schema")
    if n_branches < 1:
        raise ValidationError(f"{path}: checkpoint has no branches")
    # the header fixes the file size; checking it first keeps a corrupt
    # dimension from allocating its tensors
    one, two = (
        sum(map(math.prod, tensor_shapes(d_in, hidden, branch_hidden, n_fields, k).values()))
        for k in (1, 2)
    )
    weights = one + (n_branches - 1) * (two - one)
    if off + weights * 8 > len(blob):
        raise ValidationError(f"{path}: truncated checkpoint (weight blocks are cut short)")
    if off + weights * 8 < len(blob):
        raise ValidationError(f"{path}: trailing bytes after weight blocks")
    flat = np.frombuffer(blob, dtype="<f8", count=weights, offset=off).astype(np.float64)
    return ModelParams(d_in, hidden, branch_hidden, n_fields, n_branches, flat, digest)
