"""Token classifier: shared ReLU trunk and K classification branches.

Branch 1 is a single affine map from the trunk representation to the
N+1 classes; branches k >= 2 add one ReLU hidden layer.  Gradients are
analytic (softmax cross-entropy backprop), the optimizer is standard
Adam, and checkpoints are a fixed little-endian binary layout described
in docs/checkpoint.md.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .docmodel import FieldSchema, ValidationError

CHECKPOINT_MAGIC = b"FFRG1"
HEADER_BYTES = len(CHECKPOINT_MAGIC) + 32 + 20  # magic, schema digest, five dims


@dataclass
class ModelParams:
    d_in: int
    hidden: int
    branch_hidden: int
    n_fields: int
    n_branches: int
    tensors: dict[str, np.ndarray]
    schema_digest: bytes

    @property
    def n_classes(self) -> int:
        return self.n_fields + 1

    def copy(self) -> "ModelParams":
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})


def tensor_keys(n_branches: int) -> list[str]:
    """Canonical tensor order; also the checkpoint block order."""
    keys = ["trunk.w", "trunk.b", "branch1.out.w", "branch1.out.b"]
    for k in range(2, n_branches + 1):
        keys += [
            f"branch{k}.hid.w",
            f"branch{k}.hid.b",
            f"branch{k}.out.w",
            f"branch{k}.out.b",
        ]
    return keys


def tensor_shapes(
    d_in: int, hidden: int, branch_hidden: int, n_fields: int, n_branches: int
) -> dict[str, tuple[int, ...]]:
    n_out = n_fields + 1
    shapes: dict[str, tuple[int, ...]] = {
        "trunk.w": (d_in, hidden),
        "trunk.b": (hidden,),
        "branch1.out.w": (hidden, n_out),
        "branch1.out.b": (n_out,),
    }
    for k in range(2, n_branches + 1):
        shapes[f"branch{k}.hid.w"] = (hidden, branch_hidden)
        shapes[f"branch{k}.hid.b"] = (branch_hidden,)
        shapes[f"branch{k}.out.w"] = (branch_hidden, n_out)
        shapes[f"branch{k}.out.b"] = (n_out,)
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
    tensors: dict[str, np.ndarray] = {}
    for key in tensor_keys(n_branches):
        shape = shapes[key]
        if key.endswith(".b"):
            tensors[key] = np.zeros(shape, dtype=np.float64)
        else:
            scale = 1.0 / np.sqrt(shape[0])
            tensors[key] = rng.normal(0.0, scale, size=shape)
    return ModelParams(
        d_in, hidden, branch_hidden, n_fields, n_branches, tensors, bytes(schema_digest)
    )


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def trunk_activations(
    params: ModelParams, features: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(M, hidden) shared trunk rows relu(x @ trunk.w + trunk.b), into out if given."""
    if features.ndim != 2 or features.shape[1] != params.d_in:
        raise ValidationError(
            f"feature matrix has width {features.shape[-1]}, model expects {params.d_in}"
        )
    t = params.tensors
    h = np.matmul(features, t["trunk.w"], out=out)
    h += t["trunk.b"]
    return np.maximum(h, 0.0, out=h)


def _head(
    params: ModelParams, h: np.ndarray, branch: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """One branch over trunk rows: (its hidden-layer rows or None, probabilities)."""
    t = params.tensors
    if branch == 1:
        return None, _softmax(h @ t["branch1.out.w"] + t["branch1.out.b"])
    h2 = _relu(h @ t[f"branch{branch}.hid.w"] + t[f"branch{branch}.hid.b"])
    return h2, _softmax(h2 @ t[f"branch{branch}.out.w"] + t[f"branch{branch}.out.b"])


def branch_probs(params: ModelParams, activations: np.ndarray, branch: int) -> np.ndarray:
    """(M, N+1) softmax probability rows for one branch over trunk activations."""
    if not 1 <= branch <= params.n_branches:
        raise ValidationError(f"branch {branch} out of range 1..{params.n_branches}")
    return _head(params, activations, branch)[1]


def forward(params: ModelParams, features: np.ndarray, branch: int) -> np.ndarray:
    """(M, N+1) softmax probability rows for one branch."""
    return branch_probs(params, trunk_activations(params, features), branch)


# OpenBLAS sends a matmul whose M*N*K is at most this to a small-matrix
# kernel that rounds differently from its blocked kernel, so trunk rows
# computed in a batch this small differ by about an ulp from the same rows
# computed in a larger one (at 552x64: batches of 28 words or fewer).
SMALL_MATMUL = 1_000_000


class TrunkCache:
    """Frozen-trunk activations of a whole corpus, gathered per batch.

    The rows are filled in corpus-order blocks of at least block_docs
    documents, each grown until its matmul clears the small-kernel cutoff,
    so every row is bit-equal to the same row of any batch whose own trunk
    pass is not small.
    """

    def __init__(self, params: ModelParams, features: Sequence[np.ndarray], block_docs: int):
        self._per_row = params.d_in * params.hidden
        offsets = np.zeros(len(features) + 1, dtype=np.int64)
        offsets[1:] = np.cumsum([f.shape[0] for f in features])
        n = len(features)
        rows = np.empty((int(offsets[-1]), params.hidden), dtype=np.float64)
        lo = 0
        while lo < n:
            hi = min(lo + block_docs, n)
            while hi < n and self._small(offsets[hi] - offsets[lo]):
                hi += 1
            if self._small(offsets[n] - offsets[hi]):
                hi = n  # a small remainder joins this block
            block = np.concatenate(features[lo:hi], axis=0)
            trunk_activations(params, block, out=rows[offsets[lo] : offsets[hi]])
            lo = hi
        self.rows = rows
        self.offsets = offsets

    def _small(self, n_rows: int) -> bool:
        return n_rows * self._per_row <= SMALL_MATMUL

    def batch(self, docs: Sequence[int]) -> np.ndarray | None:
        """The documents' rows in batch order, or None for a batch whose own
        trunk pass takes the small kernel and so must be recomputed."""
        spans = [(self.offsets[i], self.offsets[i + 1]) for i in docs]
        if self._small(sum(hi - lo for lo, hi in spans)):
            return None
        return np.concatenate([self.rows[lo:hi] for lo, hi in spans], axis=0)


def branch_loss_and_grad(
    params: ModelParams,
    features: np.ndarray | None,
    targets: Sequence[tuple[float, np.ndarray]],
    branch: int,
    train_trunk: bool,
    *,
    activations: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Weighted sum of mean cross-entropies for one branch, with gradients.

    targets is a list of (weight, labels) pairs where labels is an int
    array of classes in 0..N; the loss is sum_j weight_j * meanCE(s_branch,
    labels_j).  Gradients cover the branch tensors, plus the trunk when
    train_trunk is set.  Precomputed trunk activations of the frozen trunk
    replace the trunk pass over features, which may then be None.
    """
    t = params.tensors
    if activations is None:
        h = trunk_activations(params, features)
    elif train_trunk:
        raise ValidationError("a trained trunk cannot take precomputed activations")
    elif activations.ndim != 2 or activations.shape[1] != params.hidden:
        raise ValidationError(
            f"activations have shape {activations.shape}, model expects width {params.hidden}"
        )
    else:
        h = activations
    m = h.shape[0]
    if m == 0:
        raise ValidationError("cannot take a loss over zero words")
    n_out = params.n_classes
    for _, y in targets:
        if y.shape != (m,) or y.min() < 0 or y.max() >= n_out:
            raise ValidationError("label vector shape or class range invalid")

    h2, probs = _head(params, h, branch)

    loss = 0.0
    dlogits = np.zeros_like(probs)
    rows = np.arange(m)
    for weight, y in targets:
        picked = probs[rows, y]
        loss += weight * float(-np.log(picked).mean())
        contrib = probs.copy()
        contrib[rows, y] -= 1.0
        dlogits += (weight / m) * contrib

    # relu(a) > 0 exactly where a > 0, so the activations double as masks
    grads: dict[str, np.ndarray] = {}
    if branch == 1:
        grads["branch1.out.w"] = h.T @ dlogits
        grads["branch1.out.b"] = dlogits.sum(axis=0)
        upstream, w_up = dlogits, t["branch1.out.w"]
    else:
        grads[f"branch{branch}.out.w"] = h2.T @ dlogits
        grads[f"branch{branch}.out.b"] = dlogits.sum(axis=0)
        dh2 = dlogits @ t[f"branch{branch}.out.w"].T
        da2 = dh2 * (h2 > 0.0)
        grads[f"branch{branch}.hid.w"] = h.T @ da2
        grads[f"branch{branch}.hid.b"] = da2.sum(axis=0)
        upstream, w_up = da2, t[f"branch{branch}.hid.w"]
    if train_trunk:
        da1 = (upstream @ w_up.T) * (h > 0.0)
        grads["trunk.w"] = features.T @ da1
        grads["trunk.b"] = da1.sum(axis=0)
    return loss, grads


# --- Adam -------------------------------------------------------------------

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0


def adam_step(
    params: ModelParams, grads: dict[str, np.ndarray], state: AdamState, lr: float
) -> None:
    """One bias-corrected Adam update, in place, over the keys in grads."""
    state.t += 1
    t = state.t
    for key in sorted(grads):
        g = grads[key]
        if key not in state.m:
            state.m[key] = np.zeros_like(g)
            state.v[key] = np.zeros_like(g)
        state.m[key] = BETA1 * state.m[key] + (1.0 - BETA1) * g
        state.v[key] = BETA2 * state.v[key] + (1.0 - BETA2) * (g * g)
        m_hat = state.m[key] / (1.0 - BETA1**t)
        v_hat = state.v[key] / (1.0 - BETA2**t)
        params.tensors[key] = params.tensors[key] - lr * m_hat / (np.sqrt(v_hat) + EPSILON)


# --- Checkpoint I/O ---------------------------------------------------------

def save_model(path: str, params: ModelParams) -> None:
    """magic, schema digest, dims as LE uint32, float64-LE tensor blocks."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        if len(params.schema_digest) != 32:
            raise ValidationError("schema digest must be 32 bytes")
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
        shapes = tensor_shapes(
            params.d_in, params.hidden, params.branch_hidden,
            params.n_fields, params.n_branches,
        )
        for key in tensor_keys(params.n_branches):
            arr = params.tensors[key]
            if arr.shape != shapes[key]:
                raise ValidationError(f"tensor {key} has shape {arr.shape}, expected {shapes[key]}")
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_model(path: str, schema: FieldSchema | None = None) -> ModelParams:
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
    if schema is not None and digest != schema.digest():
        raise ValidationError(f"{path}: checkpoint was trained against a different schema")
    if n_branches < 1:
        raise ValidationError(f"{path}: checkpoint has no branches")
    # the header fixes the file size; checking it first keeps a corrupt
    # dimension from allocating its tensors
    sizes = {
        key: math.prod(shape)
        for key, shape in tensor_shapes(d_in, hidden, branch_hidden, n_fields, 2).items()
    }
    first = sum(sizes[key] for key in tensor_keys(1))
    weights = first + (n_branches - 1) * (sum(sizes.values()) - first)
    if off + weights * 8 > len(blob):
        raise ValidationError(f"{path}: truncated checkpoint (weight blocks are cut short)")
    if off + weights * 8 < len(blob):
        raise ValidationError(f"{path}: trailing bytes after weight blocks")
    shapes = tensor_shapes(d_in, hidden, branch_hidden, n_fields, n_branches)
    tensors: dict[str, np.ndarray] = {}
    for key in tensor_keys(n_branches):
        shape = shapes[key]
        count = math.prod(shape)
        block = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        off += count * 8
        tensors[key] = block.reshape(shape).astype(np.float64)
    return ModelParams(d_in, hidden, branch_hidden, n_fields, n_branches, tensors, digest)
