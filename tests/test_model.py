"""Classifier internals: forward shapes, analytic gradients, Adam, checkpoints.

The gradient oracle is central finite differences on the exact loss the
backward pass reports; agreement is checked coordinate-wise on randomly
drawn entries of every tensor.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from ffrg.docmodel import ValidationError, default_invoice_schema
from ffrg.features import FEATURE_DIM, CorpusFeatures, featurize_corpus
from ffrg.model import (
    BETA1,
    BETA2,
    EPSILON,
    AdamState,
    CHECKPOINT_MAGIC,
    HEADER_BYTES,
    ModelParams,
    TrunkCache,
    adam_step,
    branch_loss_and_grad,
    branch_probs,
    init_params,
    load_model,
    save_model,
    tensor_shapes,
    trunk_activations,
)
from ffrg.synth import generate, preset_config

DIGEST = default_invoice_schema().digest()


def small_params(seed=0, n_branches=3, n_fields=3):
    return init_params(
        10, n_fields, n_branches, DIGEST, hidden=8, branch_hidden=6, seed=seed
    )


def _grad_buffer(params, fill=0.0):
    """A gradient buffer laid out like params, every value fill."""
    return replace(params, flat=np.full_like(params.flat, fill))


def _trained(grad, branch, train_trunk):
    """grad's tensors of one branch, and of the trunk when it trains."""
    return {key: g for key, g in grad.tensors.items()
            if key.startswith(f"branch{branch}.") or (train_trunk and key.startswith("trunk."))}


def _loss(params, x, targets, branch, train_trunk):
    """branch_loss_and_grad over a fresh trunk pass of x, given the features
    only when the trunk trains, into a zero buffer: (loss, the gradient of
    each tensor the step trains)."""
    h, grad = trunk_activations(params, x), _grad_buffer(params)
    loss = branch_loss_and_grad(params, x if train_trunk else None, targets, branch,
                                activations=h, grad=grad)
    return loss, _trained(grad, branch, train_trunk)


def _moments(state, params, key):
    """The tensor's slices of Adam's two flat moment buffers, in its shape."""
    lo, shape = params.offsets[key], params.tensors[key].shape
    hi = lo + params.tensors[key].size
    return state.m[lo:hi].reshape(shape), state.v[lo:hi].reshape(shape)


def test_tensor_layout_covers_every_branch():
    shapes = tensor_shapes(10, 8, 6, 3, 3)
    assert list(shapes) == [
        "trunk.w", "trunk.b", "branch1.out.w", "branch1.out.b",
        "branch2.hid.w", "branch2.hid.b", "branch2.out.w", "branch2.out.b",
        "branch3.hid.w", "branch3.hid.b", "branch3.out.w", "branch3.out.b",
    ]
    assert shapes["trunk.w"] == (10, 8)
    assert shapes["branch1.out.w"] == (8, 4)
    assert shapes["branch2.hid.w"] == (8, 6)
    assert shapes["branch2.out.w"] == (6, 4)
    assert shapes["branch3.out.b"] == (4,)


def test_init_is_seeded_and_prefix_stable():
    a = small_params(seed=5)
    b = small_params(seed=5)
    for key in a.tensors:
        assert np.array_equal(a.tensors[key], b.tensors[key])
    # adding branches must not disturb the trunk or branch 1
    wide = init_params(10, 3, 5, DIGEST, hidden=8, branch_hidden=6, seed=5)
    for key in tensor_shapes(10, 8, 6, 3, 1):
        assert np.array_equal(wide.tensors[key], a.tensors[key])
    assert not np.array_equal(small_params(seed=6).tensors["trunk.w"], a.tensors["trunk.w"])


def test_forward_rows_are_distributions(rng):
    params = small_params()
    x = rng.normal(size=(17, 10))
    for branch in (1, 2, 3):
        probs = branch_probs(params, trunk_activations(params, x), branch)
        assert probs.shape == (17, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs > 0).all()


def test_forward_validates_inputs(rng):
    params = small_params()
    with pytest.raises(ValidationError):
        trunk_activations(params, rng.normal(size=(3, 9)))
    with pytest.raises(ValidationError):
        branch_probs(params, trunk_activations(params, rng.normal(size=(3, 10))), 4)


def test_fresh_model_on_zero_features_is_uniform():
    params = small_params()
    probs = branch_probs(params, trunk_activations(params, np.zeros((5, 10))), 1)
    assert np.allclose(probs, 0.25)


def test_uniform_loss_is_log_n_classes():
    # 7 fields + background: cross-entropy of the uniform rows is ln 8
    params = init_params(10, 7, 1, DIGEST, hidden=8, branch_hidden=6, seed=0)
    y = np.array([0, 3, 7])
    loss, _ = _loss(params, np.zeros((3, 10)), [(1.0, y)], 1, True)
    assert loss == pytest.approx(math.log(8.0), abs=1e-12)


def test_loss_is_weighted_sum_over_targets(rng):
    params = small_params()
    x = rng.normal(size=(9, 10))
    y1 = rng.integers(0, 4, size=9)
    y2 = rng.integers(0, 4, size=9)
    l1, g1 = _loss(params, x, [(1.0, y1)], 2, True)
    l2, g2 = _loss(params, x, [(1.0, y2)], 2, True)
    lw, gw = _loss(params, x, [(0.3, y1), (0.7, y2)], 2, True)
    assert lw == pytest.approx(0.3 * l1 + 0.7 * l2)
    for key in gw:
        assert np.allclose(gw[key], 0.3 * g1[key] + 0.7 * g2[key], atol=1e-12)


def test_frozen_trunk_reports_no_trunk_gradient(rng):
    params = small_params()
    x = rng.normal(size=(4, 10))
    y = rng.integers(0, 4, size=4)
    grad = _grad_buffer(params, np.nan)
    branch_loss_and_grad(params, None, [(1.0, y)], 3, activations=trunk_activations(params, x),
                         grad=grad)
    # the step writes its branch's tensors whole and leaves every other alone
    written = {key for key, g in grad.tensors.items() if not np.isnan(g).any()}
    assert written == {f"branch3.{n}" for n in ("hid.w", "hid.b", "out.w", "out.b")}
    assert all(np.isnan(g).all() for key, g in grad.tensors.items() if key not in written)


def test_loss_rejects_bad_labels(rng):
    params = small_params()  # classes 0..3
    x = rng.normal(size=(3, 10))
    good = np.array([0, 1, 3])
    for targets in ([(1.0, np.array([0, 1, 4]))], [(1.0, np.array([0, -1, 3]))],
                    # class N+1 in an unsigned array, in a row that is not the last
                    [(1.0, np.array([0, 4, 1], dtype=np.uint8))],
                    # the second distinct array is checked too
                    [(1.0, good), (1.0, np.array([0, 4, 1])), (0.5, good)],
                    [(1.0, good[:2])], []):
        with pytest.raises(ValidationError):
            _loss(params, x, targets, 1, True)
    with pytest.raises(ValidationError):
        _loss(params, np.zeros((0, 10)), [], 1, True)


def test_precomputed_activations_reject_a_trained_trunk(rng):
    params = small_params()
    x = rng.normal(size=(4, 10))
    y = rng.integers(0, 4, size=4)
    h = trunk_activations(params, x)
    grad = _grad_buffer(params)
    with pytest.raises(ValidationError):
        branch_loss_and_grad(params, None, [(1.0, y)], 2, activations=h[:, :5], grad=grad)
    # the features of a trained trunk must be those behind the activations
    with pytest.raises(ValidationError):
        branch_loss_and_grad(params, x[:3], [(1.0, y)], 2, activations=h, grad=grad)
    # given both, a trained trunk takes the activations as its own pass
    want_loss, want = _ref_branch_loss_and_grad(params.tensors, x, [(1.0, y)], 2, True)
    loss = branch_loss_and_grad(params, x, [(1.0, y)], 2, activations=h, grad=grad)
    got = _trained(grad, 2, True)
    assert loss == want_loss and sorted(got) == sorted(want)
    for key in want:
        assert np.array_equal(got[key], want[key])


def test_cached_trunk_step_is_bit_identical(schema):
    # a real batch of noisy-bench documents, gathered out of corpus order
    docs, _, _ = generate(preset_config("noisy-bench", 24, seed=5), schema)
    feats = featurize_corpus(docs)
    params = init_params(FEATURE_DIM, schema.n_fields, 3, schema.digest(), seed=5)
    cache = TrunkCache(params, feats, 8)
    assert cache.rows.shape == (sum(f.shape[0] for f in feats), params.hidden)
    rng = np.random.default_rng(5)
    for batch in ([17, 3, 9, 22, 0, 11, 6, 14], [23, 1, 5, 12, 19, 8, 2, 20]):
        x = np.concatenate([feats[i] for i in batch], axis=0)
        h = cache.batch(
            batch,
            np.concatenate([np.arange(feats.offsets[i], feats.offsets[i + 1]) for i in batch]),
        )
        targets = [
            (w, rng.integers(0, params.n_classes, size=x.shape[0])) for w in (1.0, 0.5)
        ]
        for branch in (1, 2, 3):
            want_loss, want = _loss(params, x, targets, branch, False)
            grad = _grad_buffer(params)
            loss = branch_loss_and_grad(params, None, targets, branch, activations=h, grad=grad)
            assert loss == want_loss
            for key in want:
                assert np.array_equal(grad.tensors[key], want[key])


def test_trunk_cache_keeps_clear_of_the_small_kernel(schema):
    # one-word documents: every block must grow past the small-kernel cutoff
    # (28 rows at 552x64), and the short tail joins the last block
    docs, _, _ = generate(preset_config("clean", 3, seed=1), schema)
    features = featurize_corpus(docs)
    feats = [features[i][:1] for i in range(len(features))] * 40
    params = init_params(FEATURE_DIM, schema.n_fields, 2, schema.digest(), seed=1)
    held = CorpusFeatures(feats)
    cache = TrunkCache(params, held, 8)
    assert list(held.offsets) == list(range(121))
    whole = trunk_activations(params, np.concatenate(feats, axis=0))
    assert np.array_equal(cache.rows, whole)
    # a request that small gets its own trunk pass, bit for bit
    own = trunk_activations(params, np.concatenate(feats[:28], axis=0))
    assert cache.batch(range(28), np.arange(28)).tobytes() == own.tobytes()
    assert cache.batch([0], np.arange(1)).tobytes() == trunk_activations(params, feats[0]).tobytes()
    assert np.array_equal(cache.batch(range(29), np.arange(29)), whole[:29])


def test_cached_document_rows_give_forward_probabilities(schema):
    # documents on both sides of the small-kernel cutoff (28 words at 552x64)
    noisy, _, _ = generate(preset_config("noisy-bench", 30, seed=4), schema)
    clean, _, _ = generate(preset_config("clean", 8, seed=4), schema)
    feats = featurize_corpus(clean[:4] + noisy + clean[4:])
    sizes = [f.shape[0] for f in feats]
    assert min(sizes) <= 28 < max(sizes)
    params = init_params(FEATURE_DIM, schema.n_fields, 3, schema.digest(), seed=4)
    cache = TrunkCache(params, feats, 8)
    for i, f in enumerate(feats):
        # short documents take their own pass, long ones read the blocked rows
        rows = np.arange(feats.offsets[i], feats.offsets[i + 1])
        h, own = cache.batch([i], rows), trunk_activations(params, f)
        assert h.tobytes() == own.tobytes()
        for branch in (1, 2, 3):
            assert np.array_equal(branch_probs(params, h, branch), branch_probs(params, own, branch))


def numeric_gradient(params, x, targets, branch, train_trunk, key, idx, h=1e-6):
    saved = params.tensors[key][idx]
    params.tensors[key][idx] = saved + h
    up, _ = _loss(params, x, targets, branch, train_trunk)
    params.tensors[key][idx] = saved - h
    down, _ = _loss(params, x, targets, branch, train_trunk)
    params.tensors[key][idx] = saved
    return (up - down) / (2.0 * h)


def relative_error(a, n):
    scale = max(abs(a) + abs(n), 1e-8)
    return abs(a - n) / scale


def check_gradients(seed, n_coords):
    rng = np.random.default_rng(seed)
    params = small_params(seed=seed)
    x = rng.normal(size=(12, 10))
    y1 = rng.integers(0, 4, size=12)
    y2 = rng.integers(0, 4, size=12)
    targets = [(1.0, y1), (0.7, y2)]
    branch = int(rng.integers(1, 4))
    _, grads = _loss(params, x, targets, branch, True)
    keys = sorted(grads)
    worst = 0.0
    for _ in range(n_coords):
        key = keys[int(rng.integers(len(keys)))]
        flat = int(rng.integers(grads[key].size))
        idx = np.unravel_index(flat, grads[key].shape)
        num = numeric_gradient(params, x, targets, branch, True, key, idx)
        worst = max(worst, relative_error(float(grads[key][idx]), num))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_analytic_gradients_match_finite_differences(seed):
    assert check_gradients(seed, n_coords=30) <= 1e-4


# --- Adam -------------------------------------------------------------------

def test_adam_first_step_closed_form():
    params = small_params()
    before = replace(params, flat=params.flat.copy())
    grad = _grad_buffer(params)
    grad.tensors["trunk.b"][...] = 0.5
    state = AdamState()
    adam_step(params, grad, state, 1e-2, 1, False)
    # bias correction makes the first update lr * g / (|g| + eps)
    expected = before.tensors["trunk.b"] - 1e-2 * 0.5 / (0.5 + 1e-8)
    assert np.allclose(params.tensors["trunk.b"], expected, atol=1e-12)
    assert state.t == 1
    # tensors with a zero gradient stay bitwise identical
    for key in ("trunk.w", "branch1.out.w", "branch1.out.b"):
        assert params.tensors[key].tobytes() == before.tensors[key].tobytes()


def test_adam_accumulates_moments():
    params = small_params()
    state = AdamState()
    grad = _grad_buffer(params)
    grad.tensors["trunk.b"][...] = 1.0
    adam_step(params, grad, state, 1e-3, 1, False)
    adam_step(params, grad, state, 1e-3, 1, False)
    assert state.t == 2
    assert state.m.shape == state.v.shape == params.flat.shape
    m, v = _moments(state, params, "trunk.b")
    assert np.allclose(m, 1.0 - 0.9**2)
    assert np.allclose(v, 1.0 - 0.999**2)


def test_adam_step_with_no_gradients_only_counts_the_step():
    params = small_params()
    before = params.flat.copy()
    state = AdamState()
    adam_step(params, _grad_buffer(params), state, 1e-2, 3, False)
    assert state.t == 1
    assert np.array_equal(params.flat, before)
    assert not state.m.any() and not state.v.any()


# --- checkpoints ------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    params = init_params(552, 7, 3, DIGEST, seed=3)
    path = str(tmp_path / "model.ffrg")
    save_model(path, params)
    again = load_model(path, default_invoice_schema())
    assert (again.d_in, again.hidden, again.branch_hidden) == (552, 64, 64)
    assert (again.n_fields, again.n_branches) == (7, 3)
    assert again.schema_digest == DIGEST
    for key in params.tensors:
        assert np.array_equal(again.tensors[key], params.tensors[key])


@pytest.mark.parametrize("n_branches", [1, 2, 3, 4, 5])
def test_checkpoint_size_follows_the_tensor_shapes(tmp_path, n_branches):
    params = init_params(7, 2, n_branches, DIGEST, hidden=5, branch_hidden=3, seed=n_branches)
    path = tmp_path / "model.ffrg"
    save_model(str(path), params)
    shapes = tensor_shapes(7, 5, 3, 2, n_branches)
    assert path.stat().st_size == HEADER_BYTES + 8 * sum(map(math.prod, shapes.values()))
    again = load_model(str(path), default_invoice_schema())
    assert again.n_branches == n_branches
    assert list(again.tensors) == list(shapes)
    assert np.array_equal(again.flat, params.flat)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = init_params(20, 2, 2, DIGEST, hidden=4, branch_hidden=4, seed=1)
    p1, p2 = str(tmp_path / "a.ffrg"), str(tmp_path / "b.ffrg")
    save_model(p1, params)
    save_model(p2, replace(params, flat=params.flat.copy()))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_rejects_wrong_schema(tmp_path, schema):
    params = small_params()
    path = str(tmp_path / "model.ffrg")
    save_model(path, params)
    other = default_invoice_schema()
    trimmed = type(other)(other.fields[:2])
    with pytest.raises(ValidationError):
        load_model(path, trimmed)
    assert load_model(path, schema).d_in == 10  # its own schema loads


def test_checkpoint_rejects_corruption(tmp_path):
    params = small_params()
    path = str(tmp_path / "model.ffrg")
    save_model(path, params)
    blob = open(path, "rb").read()
    bad_magic = str(tmp_path / "bad1.ffrg")
    open(bad_magic, "wb").write(b"XXXX" + blob[4:])
    with pytest.raises(ValidationError):
        load_model(bad_magic, default_invoice_schema())
    trailing = str(tmp_path / "bad2.ffrg")
    open(trailing, "wb").write(blob + b"\0")
    with pytest.raises(ValidationError):
        load_model(trailing, default_invoice_schema())
    assert blob[:5] == CHECKPOINT_MAGIC


def test_checkpoint_rejects_a_header_with_no_branches(tmp_path):
    params = small_params(n_branches=1)
    path = tmp_path / "model.ffrg"
    save_model(str(path), params)
    blob = bytearray(path.read_bytes())
    # the right digest, then d_in, hidden, branch_hidden, n_fields, n_branches = 0
    blob[HEADER_BYTES - 4 : HEADER_BYTES] = (0).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="checkpoint has no branches$"):
        load_model(str(path), default_invoice_schema())


@pytest.mark.parametrize("size", [0, 31, 33])
def test_params_refuse_a_schema_digest_that_is_not_32_bytes(size):
    with pytest.raises(ValidationError, match="^schema digest must be 32 bytes$"):
        init_params(10, 3, 1, bytes(size), hidden=8, branch_hidden=6)


def test_a_refused_checkpoint_leaves_the_file_alone(tmp_path):
    path = tmp_path / "model.ffrg"
    path.write_bytes(b"written before")
    with pytest.raises(ValidationError, match="schema digest"):
        save_model(str(path), init_params(10, 3, 1, DIGEST[:31], hidden=8, branch_hidden=6))
    assert path.read_bytes() == b"written before"


def test_checkpoint_rejects_truncation_at_every_offset(tmp_path):
    params = small_params()
    path = tmp_path / "model.ffrg"
    save_model(str(path), params)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ffrg"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValidationError, match="truncated") as exc:
            load_model(str(cut), default_invoice_schema())
        assert str(cut) in str(exc.value)
    assert len(blob) > HEADER_BYTES


# --- step oracle ------------------------------------------------------------
# The training step as it stood before the flat parameter buffer, kept as
# the reference: per-tensor Adam with fresh arrays, and every loss term
# worked out on its own.  The current step must give the same bits.

def _ref_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _ref_head(t, h, branch):
    if branch == 1:
        return None, _ref_softmax(h @ t["branch1.out.w"] + t["branch1.out.b"])
    h2 = np.maximum(h @ t[f"branch{branch}.hid.w"] + t[f"branch{branch}.hid.b"], 0.0)
    return h2, _ref_softmax(h2 @ t[f"branch{branch}.out.w"] + t[f"branch{branch}.out.b"])


def _ref_branch_loss_and_grad(t, features, targets, branch, train_trunk):
    h = np.matmul(features, t["trunk.w"])
    h += t["trunk.b"]
    h = np.maximum(h, 0.0, out=h)
    m = h.shape[0]
    h2, probs = _ref_head(t, h, branch)
    loss = 0.0
    dlogits = np.zeros_like(probs)
    rows = np.arange(m)
    for weight, y in targets:
        picked = probs[rows, y]
        loss += weight * float(-np.log(picked).mean())
        contrib = probs.copy()
        contrib[rows, y] -= 1.0
        dlogits += (weight / m) * contrib
    grads = {}
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


def _ref_adam_step(tensors, grads, state, lr):
    state["t"] += 1
    t = state["t"]
    for key in sorted(grads):
        g = grads[key]
        if key not in state["m"]:
            state["m"][key] = np.zeros_like(g)
            state["v"][key] = np.zeros_like(g)
        state["m"][key] = BETA1 * state["m"][key] + (1.0 - BETA1) * g
        state["v"][key] = BETA2 * state["v"][key] + (1.0 - BETA2) * (g * g)
        m_hat = state["m"][key] / (1.0 - BETA1**t)
        v_hat = state["v"][key] / (1.0 - BETA2**t)
        tensors[key] = tensors[key] - lr * m_hat / (np.sqrt(v_hat) + EPSILON)


# 2..12 classes: numpy's row sum changes its pairwise order at 8 and more;
# a three-branch case is named by its field count alone
@pytest.mark.parametrize("n_fields,n_branches", [
    pytest.param(n, k, id=str(n) if k == 3 else f"{n}-K{k}")
    for k in (3, 4) for n in (1, 2, 5, 7, 8, 11)
])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])  # 0.0 makes -0.0 contributions
@pytest.mark.parametrize("train_trunk", [True, False])
def test_step_matches_the_reference_step(n_fields, n_branches, beta, train_trunk):
    rng = np.random.default_rng([n_fields, int(beta * 10), train_trunk])
    params = init_params(30, n_fields, n_branches, DIGEST, hidden=16, branch_hidden=12,
                         seed=n_fields)
    ref = {key: arr.copy() for key, arr in params.tensors.items()}
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    # one gradient buffer for every step, as in training
    grad = _grad_buffer(params)
    # 20 small batches, then two at training sizes, where numpy's pairwise
    # sum (above 128 values) runs in another order
    for step, m in enumerate([None] * 20 + [129, 291]):
        m = m or int(rng.integers(1, 60))
        x = rng.normal(size=(m, 30))
        y = [rng.integers(0, n_fields + 1, size=m) for _ in range(n_branches)]
        if step % 2:  # training's label rows are of the smallest unsigned type
            y = [ys.astype(np.min_scalar_type(n_fields)) for ys in y]
        # stage k's terms: each refined set 1..k-1, with the rule labels y[0]
        # after each one, one array object repeated
        targets = {1: [(1.0, y[0])]}
        for k in range(2, n_branches + 1):
            targets[k] = (targets[k - 1] if k > 2 else []) + [(1.0, y[k - 1]), (beta, y[0])]
        # a joint step trains every branch and the trunk; a frozen-trunk step
        # trains one branch, a different one each step
        branches = tuple(targets) if train_trunk else (1 + step % n_branches,)
        h = trunk_activations(params, x)
        # a frozen-trunk step is not given the features
        feats = x if train_trunk else None
        ref_grads = {}
        for branch in branches:
            loss = branch_loss_and_grad(
                params, feats, targets[branch], branch, activations=h, grad=grad
            )
            want_loss, want = _ref_branch_loss_and_grad(
                ref, x, targets[branch], branch, train_trunk
            )
            assert loss == want_loss
            for key in want:
                ref_grads[key] = ref_grads[key] + want[key] if key in ref_grads else want[key]
        for key in ref_grads:
            assert np.array_equal(grad.tensors[key], ref_grads[key])
        adam_step(params, grad, state, 1e-2, branches[-1], not train_trunk)
        _ref_adam_step(ref, ref_grads, ref_state, lr=1e-2)
        for key in params.tensors:
            assert np.array_equal(params.tensors[key], ref[key])
        for key in ref_state["m"]:
            m, v = _moments(state, params, key)
            assert np.array_equal(m, ref_state["m"][key])
            assert np.array_equal(v, ref_state["v"][key])


def test_repeated_and_zero_weight_terms_match_the_reference():
    # one labels object repeated, equal labels in separate objects, and
    # weights 0.0 and -0.0 that share one worked-out term
    params = small_params()
    rng = np.random.default_rng(9)
    x = rng.normal(size=(11, 10))
    y = rng.integers(0, 4, size=11)
    ref = {key: arr.copy() for key, arr in params.tensors.items()}
    for targets in ([(1.0, y), (0.3, y), (1.0, y)], [(1.0, y), (0.3, y.copy()), (1.0, y.copy())],
                    [(0.0, y), (-0.0, y)]):
        loss, got = _loss(params, x, targets, 2, True)
        want_loss, want = _ref_branch_loss_and_grad(ref, x, targets, 2, True)
        assert loss == want_loss
        for key in want:
            assert np.array_equal(got[key], want[key])


@pytest.mark.parametrize("frozen", [False, True], ids=["joint", "frozen"])
def test_a_stage_update_changes_its_slice_alone(frozen):
    # stage 2 of 3: a joint stage trains the trunk and branches 1 and 2, a
    # frozen one branch 2 alone
    params = small_params()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(13, 10))
    y = rng.integers(0, 4, size=13)
    before = params.flat.copy()
    # NaN stands for the stale values a stage's steps do not write
    grad = _grad_buffer(params, np.nan)
    h = trunk_activations(params, x)
    for branch in (2,) if frozen else (1, 2):
        branch_loss_and_grad(params, None if frozen else x, [(1.0, y)], branch,
                             activations=h, grad=grad)
    adam_step(params, grad, AdamState(), 1e-3, 2, frozen)
    # no stale value reached the weights
    assert np.isfinite(params.flat).all()
    trained = {key for key in params.tensors
               if key.startswith("branch2.") or not (frozen or key.startswith("branch3."))}
    for key, t in params.tensors.items():
        lo = params.offsets[key]
        old = before[lo : lo + t.size].reshape(t.shape)
        if key in trained:
            assert (t != old).any(), key
        else:
            assert t.tobytes() == old.tobytes(), key


@pytest.mark.parametrize("n_branches", [2, 3])
def test_a_joint_step_sums_the_trunk_gradient_in_branch_order(n_branches):
    params = init_params(30, 5, n_branches, DIGEST, hidden=16, branch_hidden=12, seed=n_branches)
    rng = np.random.default_rng(n_branches)
    x = rng.normal(size=(129, 30))
    targets = [(1.0, rng.integers(0, 6, size=129)), (0.5, rng.integers(0, 6, size=129))]
    # a stale buffer: the first branch writes the trunk, it does not add
    grad = _grad_buffer(params, np.nan)
    h = trunk_activations(params, x)
    want = {}
    for branch in range(1, n_branches + 1):
        branch_loss_and_grad(params, x, targets, branch, activations=h, grad=grad)
        _, ref = _ref_branch_loss_and_grad(params.tensors, x, targets, branch, True)
        for key in ("trunk.w", "trunk.b"):
            want[key] = want[key] + ref[key] if key in want else ref[key]
    for key in ("trunk.w", "trunk.b"):
        assert grad.tensors[key].tobytes() == want[key].tobytes()


def _assert_flat_layout(params):
    flat = params.flat
    assert flat.dtype == np.float64 and flat.flags.c_contiguous
    start = flat.__array_interface__["data"][0]
    off = 0
    dims = (params.d_in, params.hidden, params.branch_hidden, params.n_fields, params.n_branches)
    for key in tensor_shapes(*dims):
        arr = params.tensors[key]
        assert np.shares_memory(arr, flat)
        assert arr.__array_interface__["data"][0] == start + 8 * off
        assert params.offsets[key] == off
        off += arr.size
    assert off == flat.size


def test_params_are_views_into_one_flat_buffer(tmp_path):
    params = init_params(12, 3, 3, DIGEST, hidden=5, branch_hidden=4, seed=2)
    _assert_flat_layout(params)
    twin = replace(params, flat=params.flat.copy())
    _assert_flat_layout(twin)
    assert not np.shares_memory(twin.flat, params.flat)
    assert np.array_equal(twin.flat, params.flat)
    path = str(tmp_path / "model.ffrg")
    save_model(path, params)
    again = load_model(path, default_invoice_schema())
    _assert_flat_layout(again)
    assert np.array_equal(again.flat, params.flat)
    # a stage's update lands in the tensors through the shared buffer
    grad = _grad_buffer(twin)
    grad.tensors["trunk.b"][...] = 1.0
    adam_step(twin, grad, AdamState(), 0.5, 1, False)
    assert not np.array_equal(twin.tensors["trunk.b"], params.tensors["trunk.b"])
    assert np.array_equal(twin.tensors["trunk.b"], twin.flat[60:65])
    # a buffer that cannot hold the views is refused
    dims = (12, 5, 4, 3, 3)
    for bad in (np.zeros(params.flat.size - 1), np.zeros(2 * params.flat.size)[::2],
                np.zeros(params.flat.size, dtype=np.float32)):
        with pytest.raises(ValidationError, match="parameter buffer"):
            ModelParams(*dims, bad, DIGEST)
