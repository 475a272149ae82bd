"""Progressive ensemble: loss expansion, refinement rule, freezing, values."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_doc
from ffrg.bootstrap import bootstrap_corpus
from ffrg import docmodel, grouping, progressive
from ffrg.docmodel import (
    ValidationError, default_invoice_schema, parse_document, serialize_document,
)
from ffrg.features import CorpusFeatures, featurize_corpus
from ffrg.grouping import group_document
from ffrg.model import TrunkCache, branch_probs, init_params, trunk_activations
from ffrg.progressive import (
    TrainConfig,
    _select_anchors,
    ensemble_predict,
    extract_corpus,
    extract_values,
    loss_terms,
    refine_labels,
    train,
)
from ffrg.synth import generate, preset_config


# --- loss expansion ---------------------------------------------------------

def test_single_branch_loss_is_the_rule_term():
    assert loss_terms(1, beta=1.0) == [(1, 0, 1.0)]


def test_three_branch_expansion_has_seven_terms():
    terms = loss_terms(3, beta=1.0)
    assert len(terms) == 7
    assert terms == [
        (1, 0, 1.0),
        (2, 1, 1.0), (2, 0, 1.0),
        (3, 1, 1.0), (3, 0, 1.0),
        (3, 2, 1.0), (3, 0, 1.0),
    ]
    # the rule-label source appears once unweighted and three times weighted
    rule_terms = [(k, j, w) for k, j, w in terms if j == 0]
    assert len(rule_terms) == 4


def test_term_counts_grow_quadratically():
    for k in range(1, 6):
        terms = loss_terms(k, beta=0.5)
        unweighted = [t for t in terms if t[2] == 1.0]
        weighted = [t for t in terms if t[2] == 0.5]
        assert len(unweighted) == 1 + (k - 1) * k // 2
        assert len(weighted) == (k - 1) * k // 2


def test_beta_zero_prunes_to_refined_terms_only():
    terms = loss_terms(2, beta=0.0)
    assert terms == [(1, 0, 1.0), (2, 1, 1.0), (2, 0, 0.0)]


# --- refinement rule --------------------------------------------------------

def _three_word_doc():
    return make_doc(
        [
            ("a", 0.10, 0.1, 0.15, 0.12),
            ("b", 0.30, 0.1, 0.35, 0.12),
            ("c", 0.50, 0.1, 0.55, 0.12),
        ],
        doc_id="toy",
    )


def _probs(rows):
    m = np.array(rows, dtype=np.float64)
    assert np.allclose(m.sum(axis=1), 1.0)
    return m


def test_refinement_keeps_single_document_max():
    doc = _three_word_doc()
    probs = _probs(
        [[0.95, 0.05], [0.40, 0.60], [0.70, 0.30]]
    )  # classes: background, field 1
    labels = refine_labels([doc], [probs], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {1: 1}


def test_refinement_requires_threshold_strictly():
    doc = _three_word_doc()
    at = _probs([[0.9, 0.1], [0.92, 0.08], [0.95, 0.05]])
    labels = refine_labels([doc], [at], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {}
    above = _probs([[0.89, 0.11], [0.92, 0.08], [0.95, 0.05]])
    labels = refine_labels([doc], [above], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {}  # argmax of word 0 is background
    winning = _probs([[0.45, 0.55], [0.92, 0.08], [0.95, 0.05]])
    labels = refine_labels([doc], [winning], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {0: 1}


def test_refinement_argmax_gates_the_max_word():
    doc = _three_word_doc()
    # word 1 holds the field max 0.4 but its argmax is background
    probs = _probs([[0.9, 0.1], [0.6, 0.4], [0.8, 0.2]])
    labels = refine_labels([doc], [probs], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {}


def test_refinement_tie_goes_to_reading_order():
    doc = _three_word_doc()
    probs = _probs([[0.4, 0.6], [0.4, 0.6], [0.9, 0.1]])
    labels = refine_labels([doc], [probs], n_fields=1, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {0: 1}


def test_refinement_labels_one_word_per_field():
    doc = _three_word_doc()
    probs = _probs(
        [[0.10, 0.70, 0.20], [0.15, 0.20, 0.65], [0.80, 0.10, 0.10]]
    )
    labels = refine_labels([doc], [probs], n_fields=2, threshold=0.1, provenance="r")
    assert labels.positives("toy") == {0: 1, 1: 2}
    assert labels.provenance == "r"


# Reference: anchor selection as a loop over the reading order.  The argmax
# form must give the same anchors.
def _oracle_select_anchors(probs, order, n_fields, threshold):
    anchors = {}
    if probs.shape[0] == 0:
        return anchors
    argmax = probs.argmax(axis=1)
    for f in range(1, n_fields + 1):
        best_wid = -1
        best_p = -1.0
        for wid in order:  # reading order, so ties go to the earlier word
            p = probs[wid, f]
            if p > best_p:
                best_p, best_wid = p, wid
        if best_p > threshold and argmax[best_wid] == f:
            anchors[f] = best_wid
    return anchors


# few distinct values, so ties are common; NaN cells never win
_CELL = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, float("nan")]),
    st.floats(0.0, 1.0),
)


@given(st.data())
def test_anchor_selection_matches_the_reading_order_loop(data):
    m = data.draw(st.integers(1, 7), label="words")
    n_fields = data.draw(st.integers(1, 4), label="fields")
    width = n_fields + 1 + data.draw(st.integers(0, 2), label="extra columns")
    cells = data.draw(st.lists(_CELL, min_size=m * width, max_size=m * width), label="cells")
    probs = np.array(cells, dtype=np.float64).reshape(m, width)
    nan_rows = data.draw(st.lists(st.integers(0, m - 1), max_size=2), label="NaN rows")
    probs[nan_rows] = np.nan
    order = data.draw(st.permutations(range(m)), label="order")
    finite = [c for c in probs[:, 1 : n_fields + 1].ravel().tolist() if c == c]
    threshold = data.draw(
        st.one_of(st.sampled_from([0.0, 0.1, 1.0]), st.floats(0.0, 1.0),
                  st.sampled_from(finite or [0.5])),  # a cell, possibly the max
        label="threshold",
    )
    before = probs.copy()
    got = _select_anchors(probs, order, n_fields, threshold)
    assert got == _oracle_select_anchors(probs, order, n_fields, threshold)
    assert np.array_equal(probs, before, equal_nan=True)


def test_anchor_selection_cases_of_the_loop():
    nan = float("nan")
    probs = np.array([[0.2, 0.8, 0.0], [0.1, 0.8, 0.1], [nan, nan, nan], [0.1, 0.1, 0.8]])
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 1, 3, 0]):
        for threshold in (0.0, 0.8, 0.79):
            want = _oracle_select_anchors(probs, order, 2, threshold)
            assert _select_anchors(probs, order, 2, threshold) == want
    assert _select_anchors(probs, [1, 0, 2, 3], 2, 0.5) == {1: 1, 2: 3}
    assert _select_anchors(probs, [0, 1, 2, 3], 2, 0.8) == {}  # the max must exceed it
    assert _select_anchors(np.array([[0.3, 0.7]]), [0], 1, 0.1) == {1: 0}
    assert _select_anchors(np.array([[nan, nan]]), [0], 1, 0.0) == {}


@pytest.mark.parametrize("shape", [(3, 2), (0, 2), (3, 1)])
def test_anchor_selection_refuses_a_matrix_without_every_field(shape):
    with pytest.raises(ValidationError, match="no column for each of 2 fields"):
        _select_anchors(np.full(shape, 0.5), list(range(shape[0])), 2, 0.1)


# --- training on a small corpus ---------------------------------------------

def _tiny_corpus():
    schema = default_invoice_schema()
    cfg = preset_config("clean", 6, seed=13)
    docs, gold, _ = generate(cfg, schema)
    docs = [group_document(d) for d in docs]
    labels, _ = bootstrap_corpus(docs, schema)
    return schema, docs, labels


TINY = TrainConfig(
    n_branches=3, epochs_step1=2, epochs_step2=2, hidden=8, branch_hidden=6,
    batch_docs=2, seed=4,
)


def test_training_is_deterministic():
    schema, docs, labels = _tiny_corpus()
    features = featurize_corpus(docs)
    a = train(docs, labels, schema, TINY, features)
    b = train(docs, labels, schema, TINY, features)
    for key in a.params.tensors:
        assert np.array_equal(a.params.tensors[key], b.params.tensors[key])
    assert a.refined[3] == b.refined[3]


def test_first_branch_is_frozen_after_stage_one():
    schema, docs, labels = _tiny_corpus()
    features = featurize_corpus(docs)
    solo = train(docs, labels, schema, TINY.__class__(**{**TINY.__dict__, "n_branches": 1}),
                 features)
    full = train(docs, labels, schema, TINY, features)
    # stages 2..K never touch the trunk or branch 1
    for key in solo.params.tensors:
        assert np.array_equal(full.params.tensors[key], solo.params.tensors[key])


@pytest.mark.parametrize("two_step", [True, False])
def test_each_step_runs_its_stage_branches_in_order(monkeypatch, two_step):
    # a joint step writes the trunk gradient at branch 1 and adds the later
    # branches' to it, so branch 1 comes first; a frozen step runs its own
    # branch alone, without the features
    schema, docs, labels = _tiny_corpus()
    features = featurize_corpus(docs)
    calls = []
    step = progressive.branch_loss_and_grad

    def spy(params, feats, targets, branch, **kwargs):
        calls.append((branch, feats is not None))
        return step(params, feats, targets, branch, **kwargs)

    monkeypatch.setattr(progressive, "branch_loss_and_grad", spy)
    cfg = replace(TINY, two_step=two_step)
    train(docs, labels, schema, cfg, features)
    batches = -(-sum(len(doc.words) > 0 for doc in docs) // cfg.batch_docs)
    want = []
    for stage, epochs in ((1, cfg.epochs_step1), (2, cfg.epochs_step2), (3, cfg.epochs_step2)):
        branches = [(stage, False)] if two_step and stage > 1 else [
            (b, True) for b in range(1, stage + 1)]
        want += branches * (epochs * batches)
    assert calls == want


def test_stage_bookkeeping_shapes():
    schema, docs, labels = _tiny_corpus()
    res = train(docs, labels, schema, TINY, featurize_corpus(docs))
    assert sorted(res.refined) == [1, 2, 3]
    assert res.refined[2].provenance == "refined@branch_2"
    assert len(res.stage_losses) == 3
    assert all(len(e) == 2 for e in res.stage_losses)
    for doc in docs:
        assert res.refined[3].covers(doc.doc_id)


def test_train_rejects_bad_inputs():
    schema, docs, labels = _tiny_corpus()
    features = featurize_corpus(docs)
    with pytest.raises(ValidationError):
        train([], labels, schema, TINY, CorpusFeatures([]))
    missing = labels.__class__("partial")
    with pytest.raises(ValidationError):
        train(docs, missing, schema, TINY, features)
    stray = labels.__class__("stray")
    for doc in docs:
        stray.add_document(doc.doc_id)
    stray.set_label(docs[0].doc_id, len(docs[0].words), 1)  # one past the last word
    with pytest.raises(ValidationError):
        train(docs, stray, schema, TINY, features)


def test_train_refuses_labels_that_miss_a_document():
    schema, docs, labels = _tiny_corpus()
    partial = docmodel.LabelSet("partial")
    for doc in docs[:-1]:
        partial.add_document(doc.doc_id, labels.positives(doc.doc_id).items())
    with pytest.raises(ValidationError, match=f"^labels do not cover document {docs[-1].doc_id}$"):
        train(docs, partial, schema, TINY, featurize_corpus(docs))


def test_train_refuses_a_corpus_that_repeats_a_doc_id():
    # labels keyed by doc_id cannot say which copy they mean: word 4 of the
    # longer d would otherwise be labelled through the shorter one's rows
    schema = default_invoice_schema()
    docs = [make_doc([(f"w{k}", 0.02 * k, 0.1, 0.02 * k + 0.01, 0.12) for k in range(m)],
                     doc_id=doc_id) for doc_id, m in (("d", 2), ("d", 5), ("e", 40))]
    labels = docmodel.LabelSet("bootstrap")
    labels.add_document("d", [(4, 1)])
    labels.add_document("e")
    with pytest.raises(ValidationError, match="^corpus repeats document d$"):
        train(docs, labels, schema, TINY, featurize_corpus(docs))


def test_train_refuses_a_corpus_without_words():
    schema = default_invoice_schema()
    docs = [docmodel.Document(doc_id, 1000, 1000, ()) for doc_id in ("a", "b")]
    labels = docmodel.LabelSet("bootstrap")
    for doc in docs:
        labels.add_document(doc.doc_id)
    with pytest.raises(ValidationError, match="^corpus has no words to train on$"):
        train(docs, labels, schema, TINY, featurize_corpus(docs))


class _OwnPasses:
    """The uncached reference: a TrunkCache stand-in that takes its own
    trunk pass for every request."""

    def __init__(self, params, features, block_docs):
        self.params, self.features = params, features

    def batch(self, docs, row_index):
        return trunk_activations(self.params, self.features.batch(docs))


def _assert_cache_changes_nothing(monkeypatch, docs, schema, cfg):
    """Training with the trunk cache equals training with own passes, in
    both training modes, and a cache is built only after a stage that
    trained the trunk: once under two-step training, after every stage
    under joint training."""
    labels, _ = bootstrap_corpus(docs, schema)
    features = featurize_corpus(docs)
    for two_step in (True, False):
        mode = TrainConfig(**{**cfg.__dict__, "two_step": two_step})
        builds = []

        def counted(*args):
            builds.append(args)
            return TrunkCache(*args)

        with monkeypatch.context() as m:
            m.setattr("ffrg.progressive.TrunkCache", counted)
            cached = train(docs, labels, schema, mode, features)
        assert len(builds) == (1 if two_step else cfg.n_branches)
        with monkeypatch.context() as m:
            m.setattr("ffrg.progressive.TrunkCache", _OwnPasses)
            uncached = train(docs, labels, schema, mode, features)
        for key in cached.params.tensors:
            assert np.array_equal(cached.params.tensors[key], uncached.params.tensors[key])
        assert cached.refined == uncached.refined
        assert cached.stage_losses == uncached.stage_losses


def test_trunk_cache_leaves_training_bit_identical(monkeypatch):
    # 17 short docs in batches of 8 end on a one-document batch small enough
    # for the BLAS small-matrix kernel; the cache must answer it with the
    # batch's own trunk pass
    schema = default_invoice_schema()
    docs, _, _ = generate(preset_config("clean", 17, seed=2), schema)
    assert max(len(d.words) for d in docs) <= 28
    cfg = TrainConfig(n_branches=3, epochs_step1=1, epochs_step2=2, seed=2, lr=3e-3)
    _assert_cache_changes_nothing(monkeypatch, docs, schema, cfg)


def test_cached_refinement_leaves_training_bit_identical(monkeypatch):
    # documents on both sides of the small-kernel cutoff: the long ones are
    # refined from the cached trunk rows, the short ones by their own pass
    schema = default_invoice_schema()
    noisy, _, _ = generate(preset_config("noisy-bench", 9, seed=6), schema)
    clean, _, _ = generate(preset_config("clean", 6, seed=7), schema)  # other doc ids
    docs = clean[:3] + noisy + clean[3:]
    sizes = [len(d.words) for d in docs]
    assert min(sizes) <= 28 < max(sizes)
    own = []  # the rows of each trunk pass the cache takes outside its blocks

    def counted(params, x, out=None):
        if out is None:
            own.append(x.shape[0])
        return trunk_activations(params, x, out)

    monkeypatch.setattr("ffrg.model.trunk_activations", counted)
    cfg = TrainConfig(n_branches=3, epochs_step1=1, epochs_step2=1, seed=6, lr=3e-3)
    _assert_cache_changes_nothing(monkeypatch, docs, schema, cfg)
    assert own and max(own) <= 28  # only the short documents take their own pass


def test_k1_is_the_first_stage_of_k3():
    # with two-step training stages 2..K leave the trunk and branch 1 alone,
    # and branch 1 is refined before stage 2 from the cached trunk rows
    schema = default_invoice_schema()
    docs, _, _ = generate(preset_config("noisy-bench", 120, seed=3), schema)
    labels, _ = bootstrap_corpus(docs, schema)
    features = featurize_corpus(docs)
    cfg = TrainConfig(n_branches=3, epochs_step1=3, epochs_step2=4, lr=3e-3, seed=3)
    full = train(docs, labels, schema, cfg, features)
    solo = train(docs, labels, schema, TrainConfig(**{**cfg.__dict__, "n_branches": 1}),
                 features)
    size = solo.params.flat.size
    assert full.params.flat[:size].tobytes() == solo.params.flat.tobytes()
    assert full.refined[1] == solo.refined[1]
    assert full.stage_losses[0] == solo.stage_losses[0]


def _count_calls(monkeypatch, fn):
    """The doc ids of the calls of fn, through whichever ffrg module binds it."""
    calls = []

    def counted(doc, *args, **kwargs):
        calls.append(doc.doc_id)
        return fn(doc, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("ffrg") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_the_pipeline_orders_and_groups_each_document_once(monkeypatch, schema):
    records = [serialize_document(group_document(doc))
               for doc in generate(preset_config("noisy-bench", 6, seed=5), schema)[0]]
    docs, _, _ = generate(preset_config("noisy-bench", 6, seed=5), schema)
    assert all(doc.phrases is None for doc in docs)
    ordered = _count_calls(monkeypatch, docmodel.reading_order)
    grouped = _count_calls(monkeypatch, grouping.phrase_members)

    def run(docs):
        labels, _ = bootstrap_corpus(docs, schema)
        features = featurize_corpus(docs)
        result = train(docs, labels, schema, TINY, features)
        return extract_corpus(result.params, docs, schema, features)

    run(docs)
    ids = sorted(doc.doc_id for doc in docs)
    assert sorted(ordered) == ids
    assert sorted(grouped) == ids
    # a grouped record brings its phrases, and parsing them worked out its order
    ordered.clear()
    grouped.clear()
    run([parse_document(line) for line in records])
    assert ordered == [] and grouped == []


def test_train_rejects_features_of_another_corpus():
    schema, docs, labels = _tiny_corpus()
    features = featurize_corpus(docs)
    feats = [features[i] for i in range(len(features))]
    with pytest.raises(ValidationError, match="one row per word"):
        train(docs, labels, schema, TINY, features=CorpusFeatures(feats[1:] + feats[:1]))


def test_extract_rejects_features_of_another_corpus(schema):
    # one to eight words, so a shifted list puts each matrix on a document
    # of another length; the model is never reached
    docs = [
        make_doc([("w", 0.1 * i, 0.1, 0.1 * i + 0.05, 0.12) for i in range(k)], doc_id=f"d{k}")
        for k in range(1, 9)
    ]
    feats = [np.zeros((len(doc.words), 1)) for doc in docs]
    for bad in (feats[1:] + feats[:1], feats[:3], feats + feats):
        with pytest.raises(ValidationError, match="one row per word"):
            extract_corpus(None, docs, schema, CorpusFeatures(bad))
    for rows in (2, 4):
        with pytest.raises(ValidationError, match=f"{rows} rows for the 3 words of document d3"):
            extract_values(None, docs[2], np.zeros((rows, 1)), schema)
    with pytest.raises(ValidationError, match="1 rows for the 0 words"):
        extract_values(None, make_doc([]), np.zeros((1, 1)), schema)


@pytest.mark.parametrize("name", ["hidden", "branch_hidden"])
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_empty_layers(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be at least 1"):
        TrainConfig(**{name: value})


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(n_branches=0)
    with pytest.raises(ValidationError):
        TrainConfig(beta=-0.5)
    with pytest.raises(ValidationError):
        TrainConfig(refine_threshold=1.5)
    with pytest.raises(ValidationError):
        TrainConfig(epochs_step1=0)


@pytest.mark.parametrize("lr", [0.0, -0.0, -1e-3, -5e-324])
def test_config_rejects_a_learning_rate_that_is_not_positive(lr):
    with pytest.raises(ValidationError, match="learning rate must be positive"):
        TrainConfig(lr=lr)
    TrainConfig(lr=5e-324)


@pytest.mark.parametrize("name", ["beta", "refine_threshold", "lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_floats(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be finite"):
        TrainConfig(**{name: value})


# --- inference --------------------------------------------------------------

def test_ensemble_is_the_branch_mean(rng):
    schema, docs, labels = _tiny_corpus()
    res = train(docs, labels, schema, TINY, featurize_corpus(docs))
    # one softmax over the stacked branch logits gives each branch's own bits
    for rows in (9, 0, 1, 40):
        x = rng.normal(size=(rows, 552))
        h = trunk_activations(res.params, x)
        mean = (
            branch_probs(res.params, h, 1) + branch_probs(res.params, h, 2)
            + branch_probs(res.params, h, 3)
        ) / 3.0
        assert ensemble_predict(res.params, x).tobytes() == mean.tobytes()
        assert np.allclose(ensemble_predict(res.params, x).sum(axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("n_branches", [1, 2, 5])
def test_ensemble_is_the_branch_mean_at_any_branch_count(rng, n_branches):
    params = init_params(30, 7, n_branches, bytes(32), hidden=16, branch_hidden=12, seed=4)
    for rows in (9, 0, 1, 40, 129):
        x = rng.normal(size=(rows, 30))
        h = trunk_activations(params, x)
        # the oracle: each branch's own rows, added in branch order
        acc = branch_probs(params, h, 1)
        for k in range(2, n_branches + 1):
            acc = acc + branch_probs(params, h, k)
        assert ensemble_predict(params, x).tobytes() == (acc / n_branches).tobytes()


def _value_doc():
    return make_doc(
        [
            ("Jan", 0.10, 0.1, 0.14, 0.12),
            ("5,", 0.15, 0.1, 0.17, 0.12),
            ("2024", 0.18, 0.1, 0.23, 0.12),
            ("stray", 0.60, 0.1, 0.66, 0.12),
        ],
        doc_id="v",
        phrases=((0, 1, 2), (3,)),
    )


def _patched_extract(monkeypatch, probs, schema, doc, threshold=0.1):
    monkeypatch.setattr(
        "ffrg.progressive.ensemble_predict", lambda params, feats: probs
    )
    return extract_values(None, doc, np.zeros((len(doc.words), 1)), schema, threshold)


@pytest.mark.parametrize("threshold", [-1.0, 2.0, float("nan")])
def test_extract_threshold_outside_unit_interval_is_refused(monkeypatch, schema, threshold):
    doc = _value_doc()
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 0.93
    with pytest.raises(ValidationError, match="extract threshold"):
        _patched_extract(monkeypatch, probs, schema, doc, threshold)
    with pytest.raises(ValidationError, match="extract threshold"):
        extract_corpus(None, [], schema, [], threshold=threshold)


@pytest.mark.parametrize("threshold, expected", [(0.0, {"inv_date": "5,"}), (1.0, {})])
def test_extract_threshold_bounds_are_accepted(monkeypatch, schema, threshold, expected):
    doc = _value_doc()
    date_cls = next(f.field_id for f in schema.fields if f.name == "inv_date")
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 1.0 - 0.07
    probs[1, 0] = 0.04
    probs[1, date_cls] = 0.90
    assert _patched_extract(monkeypatch, probs, schema, doc, threshold) == expected
    features = CorpusFeatures([np.zeros((4, 1))])
    assert extract_corpus(None, [doc], schema, features, threshold=threshold) == {"v": expected}


def test_value_expands_to_the_contiguous_argmax_run(monkeypatch, schema):
    doc = _value_doc()
    date_cls = next(f.field_id for f in schema.fields if f.name == "inv_date")
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 1.0 - 0.07
    for wid, p in [(0, 0.60), (1, 0.90), (2, 0.55)]:
        probs[wid, 0] = 1.0 - p - 0.06
        probs[wid, date_cls] = p
    out = _patched_extract(monkeypatch, probs, schema, doc)
    assert out == {"inv_date": "Jan 5, 2024"}


def test_value_run_stops_at_argmax_boundary(monkeypatch, schema):
    doc = _value_doc()
    date_cls = next(f.field_id for f in schema.fields if f.name == "inv_date")
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 1.0 - 0.07
    probs[1, 0] = 0.04
    probs[1, date_cls] = 0.90  # anchor word only; neighbors argmax background
    out = _patched_extract(monkeypatch, probs, schema, doc)
    assert out == {"inv_date": "5,"}


def test_no_anchor_above_threshold_emits_nothing(monkeypatch, schema):
    doc = _value_doc()
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 0.93
    out = _patched_extract(monkeypatch, probs, schema, doc)
    assert out == {}


def test_run_expansion_respects_phrase_boundaries(monkeypatch, schema):
    doc = _value_doc()
    date_cls = next(f.field_id for f in schema.fields if f.name == "inv_date")
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 1.0 - 0.07
    for wid, p in [(0, 0.60), (1, 0.90), (2, 0.55), (3, 0.52)]:
        probs[wid, 0] = 1.0 - p - 0.06
        probs[wid, date_cls] = p
    out = _patched_extract(monkeypatch, probs, schema, doc)
    # "stray" also argmaxes to the field but sits in another phrase
    assert out == {"inv_date": "Jan 5, 2024"}


def test_extract_values_on_a_document_without_words_is_empty(schema):
    params = init_params(4, schema.n_fields, 2, schema.digest(), hidden=3, branch_hidden=2)
    doc = docmodel.Document("empty", 1000, 1000, ())
    assert extract_values(params, doc, np.zeros((0, 4)), schema) == {}


def test_an_anchor_outside_every_phrase_gives_its_own_text(monkeypatch, schema):
    # a grouped document's phrases need not hold every word
    doc = _value_doc()
    doc = docmodel.Document(doc.doc_id, 1000, 1000, doc.words, ((0, 1, 2),))
    date_cls = next(f.field_id for f in schema.fields if f.name == "inv_date")
    probs = np.full((4, 8), 0.01)
    probs[:, 0] = 1.0 - 0.07
    for wid, p in [(2, 0.55), (3, 0.90)]:
        probs[wid, 0] = 1.0 - p - 0.06
        probs[wid, date_cls] = p
    assert _patched_extract(monkeypatch, probs, schema, doc) == {"inv_date": "stray"}
