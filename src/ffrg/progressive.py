"""Progressive label-ensemble training over noisy rule-mined labels.

Branch 1 trains on the rule labels; each later branch trains on the
refined labels of every earlier branch plus a beta-weighted copy of the
rule labels per refinement term, after the trunk and earlier branches
are frozen.  Refinement keeps, per field per document, the single word
with the document-maximum probability when that probability clears a
threshold and the word's argmax agrees; everything else is background.
Inference averages all branch probability rows, and values come from the
same refinement rule applied to the averaged scores, expanded to a
contiguous argmax run inside the anchor's phrase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .docmodel import Document, FieldSchema, LabelSet, ValidationError
from .features import FEATURE_DIM, CorpusFeatures
from .model import (
    AdamState,
    ModelParams,
    TrunkCache,
    adam_step,
    branch_loss_and_grad,
    branch_probs,
    init_params,
    stacked_branch_probs,
    trunk_activations,
)


@dataclass(frozen=True)
class TrainConfig:
    n_branches: int = 3
    beta: float = 1.0
    refine_threshold: float = 0.1
    epochs_step1: int = 2
    epochs_step2: int = 2
    seed: int = 0
    lr: float = 1e-3
    batch_docs: int = 8
    hidden: int = 64
    branch_hidden: int = 64
    # Two-step training freezes the trunk and finished branches before the
    # next branch starts; turning it off lets every stage update them all.
    two_step: bool = True

    def __post_init__(self):
        if self.n_branches < 1:
            raise ValidationError("need at least one branch")
        for name in ("beta", "refine_threshold", "lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.beta < 0:
            raise ValidationError("beta must be non-negative")
        if self.lr <= 0:
            raise ValidationError("learning rate must be positive")
        if not 0.0 <= self.refine_threshold <= 1.0:
            raise ValidationError("refine threshold must lie in [0,1]")
        if min(self.epochs_step1, self.epochs_step2, self.batch_docs) < 1:
            raise ValidationError("epochs and batch size must be positive")
        for name in ("hidden", "branch_hidden"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")


@dataclass
class TrainResult:
    params: ModelParams
    # refined[k] is the label set generated from branch k after its stage
    refined: dict[int, LabelSet]
    stage_losses: list[list[float]]  # per stage, per epoch mean batch loss


def loss_terms(n_branches: int, beta: float) -> list[tuple[int, int, float]]:
    """Expansion of the aggregate loss as (branch, label_source, weight).

    Label source 0 is the rule labels; source j >= 1 is branch j's refined
    labels.  The rule-label term repeats once per refinement term, so K
    branches give 1 + (K-1)K/2 unweighted terms and (K-1)K/2 weighted ones.
    """
    terms = [(1, 0, 1.0)]
    for k in range(2, n_branches + 1):
        for j in range(1, k):
            terms.append((k, j, 1.0))
            terms.append((k, 0, beta))
    return terms


def _label_rows(
    docs: Sequence[Document], labels: LabelSet, offsets: np.ndarray, n_fields: int
) -> np.ndarray:
    """The class of every word of the corpus, document i's words starting at
    offsets[i], in the smallest unsigned type that holds class n_fields."""
    y = np.zeros(int(offsets[-1]), dtype=np.min_scalar_type(n_fields))
    for doc, lo in zip(docs, offsets.tolist()):
        for wid, cls in labels.positives(doc.doc_id).items():
            y[lo + wid] = cls
    return y


def _select_anchors(
    probs: np.ndarray, order: Sequence[int], n_fields: int, threshold: float
) -> dict[int, int]:
    """Per field, the single anchor word id under the refinement rule.

    The anchor candidate is the first word in reading order holding the
    field's maximum probability, NaN cells never winning; it is kept when
    that maximum exceeds the threshold and the word's argmax is the field.
    """
    if probs.shape[1] < n_fields + 1:
        raise ValidationError(
            f"probability matrix of shape {probs.shape} has no column for each of {n_fields} fields"
        )
    if probs.shape[0] == 0:
        return {}
    ordered = probs[order, 1 : n_fields + 1]
    ordered[np.isnan(ordered)] = -np.inf
    best = ordered.argmax(axis=0)  # the first maximum, so ties go to the earlier word
    best_p = ordered[best, np.arange(n_fields)]
    argmax = probs.argmax(axis=1)
    anchors: dict[int, int] = {}
    for f, (rank, p) in enumerate(zip(best.tolist(), best_p.tolist()), start=1):
        wid = order[rank]
        if p > threshold and argmax[wid] == f:
            anchors[f] = wid
    return anchors


def refine_labels(
    docs: Sequence[Document],
    probs_per_doc: Sequence[np.ndarray],
    n_fields: int,
    threshold: float,
    provenance: str,
) -> LabelSet:
    """One anchor per field per document."""
    labels = LabelSet(provenance)
    for doc, probs in zip(docs, probs_per_doc):
        anchors = _select_anchors(probs, doc.order, n_fields, threshold)
        labels.add_document(doc.doc_id, ((wid, f) for f, wid in anchors.items()))
    return labels


def _check_features(docs: Sequence[Document], features: CorpusFeatures) -> None:
    if not np.array_equal(np.diff(features.offsets), [len(doc.words) for doc in docs]):
        raise ValidationError("feature matrices do not have one row per word of each document")


def _branch_terms(branch: int, beta: float) -> list[tuple[float, int]]:
    """(weight, source) pairs for one branch's share of the aggregate loss."""
    return [(w, j) for k, j, w in loss_terms(branch, beta) if k == branch]


def train(
    docs: Sequence[Document],
    rule_labels: LabelSet,
    schema: FieldSchema,
    cfg: TrainConfig,
    features: CorpusFeatures,
    threads: int | None = None,
) -> TrainResult:
    """Stage-wise training; deterministic for a fixed config and seed.

    Each stage k trains, then refines branch k into label rows for the
    stages after it.  A step that trains the trunk takes one trunk pass
    over its batch, shared by the branches it trains.  Every refinement,
    and every step of a frozen stage (k >= 2 under two-step training),
    reads its trunk rows from a TrunkCache, rebuilt after any stage that
    trained the trunk.  ``threads`` is accepted and not read.
    """
    if not docs:
        raise ValidationError("cannot train on an empty corpus")
    n_fields = schema.n_fields
    rule_labels.validate(docs, n_fields)
    _check_features(docs, features)

    params = init_params(
        FEATURE_DIM,
        n_fields,
        cfg.n_branches,
        schema.digest(),
        hidden=cfg.hidden,
        branch_hidden=cfg.branch_hidden,
        seed=cfg.seed,
    )
    # batches gather activations and labels with one corpus row index
    offsets = features.offsets
    doc_rows = [np.arange(offsets[i], offsets[i + 1]) for i in range(len(docs))]
    y_by_source: dict[int, np.ndarray] = {0: _label_rows(docs, rule_labels, offsets, n_fields)}
    trainable = [i for i in range(len(docs)) if len(docs[i].words) > 0]
    if not trainable:
        raise ValidationError("corpus has no words to train on")

    def run_stage(stage: int, frozen: bool) -> list[float]:
        """One stage's epochs; returns each epoch's mean batch loss.  A frozen
        stage trains its own branch alone on cached trunk rows; any other
        trains the trunk and branches 1..stage on a fresh trunk pass."""
        branches = [stage] if frozen else range(1, stage + 1)
        terms = {b: _branch_terms(b, cfg.beta) for b in branches}
        epochs = cfg.epochs_step1 if stage == 1 else cfg.epochs_step2
        shuffle_rng = np.random.default_rng([cfg.seed, 1, stage])
        state = AdamState()
        epoch_losses: list[float] = []
        for _ in range(epochs):
            perm = shuffle_rng.permutation(len(trainable)).tolist()
            batch_losses: list[float] = []
            for start in range(0, len(perm), cfg.batch_docs):
                batch = [trainable[i] for i in perm[start : start + cfg.batch_docs]]
                rows = np.concatenate([doc_rows[i] for i in batch])
                # drop the last step's batch before building this one, so
                # that two batches are never held at once
                x = h = None
                if frozen:
                    h = cache.batch(batch, rows)
                else:
                    # one trunk pass, shared by every branch of the step
                    x = features.batch(batch)
                    h = trunk_activations(params, x)
                y = {src: np.take(ys, rows) for src, ys in y_by_source.items()}
                loss = 0.0
                grads: dict[str, np.ndarray] = {}
                for branch in branches:
                    targets = [(w, y[src]) for w, src in terms[branch]]
                    l, g = branch_loss_and_grad(params, x, targets, branch, activations=h)
                    loss += l
                    for key, val in g.items():
                        grads[key] = grads[key] + val if key in grads else val
                adam_step(params, grads, state, cfg.lr)
                batch_losses.append(loss)
            epoch_losses.append(float(np.mean(batch_losses)))
        return epoch_losses

    refined: dict[int, LabelSet] = {}
    stage_losses: list[list[float]] = []
    for stage in range(1, cfg.n_branches + 1):
        frozen = cfg.two_step and stage > 1
        stage_losses.append(run_stage(stage, frozen))
        if not frozen:
            cache = TrunkCache(params, features, cfg.batch_docs)
        # one-shot refinement of this branch over the train set
        refined[stage] = refine_labels(
            docs, [branch_probs(params, cache.batch([i], rows), stage)
                   for i, rows in enumerate(doc_rows)],
            n_fields, cfg.refine_threshold, f"refined@branch_{stage}",
        )
        if stage < cfg.n_branches:
            y_by_source[stage] = _label_rows(docs, refined[stage], offsets, n_fields)
    return TrainResult(params, refined, stage_losses)


def check_threshold(threshold: float) -> None:
    """Refuse an extract threshold outside [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"extract threshold {threshold} must lie in [0,1]")


def ensemble_predict(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Mean of the branch probability rows, added in branch order; rows
    still sum to one."""
    probs = stacked_branch_probs(params, trunk_activations(params, features))
    # the sum adds the slices in branch order; it pairs them only when a slice
    # is one value, a one-class softmax of 1.0, which sums exactly in any order
    return probs.sum(axis=0) / params.n_branches


def extract_values(
    params: ModelParams,
    doc: Document,
    features: np.ndarray,
    schema: FieldSchema,
    threshold: float = 0.1,
) -> dict[str, str]:
    """Field values for one document from the ensemble scores."""
    if features.shape[0] != len(doc.words):
        raise ValidationError(
            f"feature matrix has {features.shape[0]} rows for the {len(doc.words)} words"
            f" of document {doc.doc_id}"
        )
    return values_from_probs(doc, ensemble_predict(params, features), schema, threshold)


def values_from_probs(
    doc: Document, probs: np.ndarray, schema: FieldSchema, threshold: float = 0.1
) -> dict[str, str]:
    """Field values for one document from its ensemble probability rows.

    The refinement rule picks one anchor word per field; the value is the
    maximal contiguous argmax run around the anchor inside its phrase.
    """
    check_threshold(threshold)
    anchors = _select_anchors(probs, doc.order, schema.n_fields, threshold)
    if not anchors:
        return {}
    argmax = probs.argmax(axis=1)
    by_word = {wid: ids for ids in doc.members for wid in ids}
    out: dict[str, str] = {}
    for f, anchor in sorted(anchors.items()):
        ids = by_word.get(anchor)
        if ids is None:
            out[schema.field_by_id(f).name] = doc.words[anchor].text
            continue
        pos = ids.index(anchor)
        lo = pos
        while lo > 0 and argmax[ids[lo - 1]] == f:
            lo -= 1
        hi = pos
        while hi + 1 < len(ids) and argmax[ids[hi + 1]] == f:
            hi += 1
        run = ids[lo : hi + 1]
        out[schema.field_by_id(f).name] = " ".join(doc.words[wid].text for wid in run)
    return out


def extract_corpus(
    params: ModelParams,
    docs: Sequence[Document],
    schema: FieldSchema,
    features: CorpusFeatures,
    threshold: float = 0.1,
    threads: int | None = None,
) -> dict[str, dict[str, str]]:
    """Field values per document id; ``threads`` is accepted and not read."""
    check_threshold(threshold)
    _check_features(docs, features)
    return {
        doc.doc_id: extract_values(params, doc, features[i], schema, threshold)
        for i, doc in enumerate(docs)
    }
