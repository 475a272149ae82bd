"""The five-seed noisy-bench protocol behind README's benchmark table and
acceptance criteria 3, 4 and 5.

Each seed draws its own corpus and trains every variant on that corpus's
rule labels with the same seed, so the means carry generation noise as
well as training noise.  The schedule is calibrated for the noisy-label
regime: a brief first step (the single-branch baseline and the trunk),
then long frozen-trunk branch stages on the refined/bootstrap mix.

`run()` is the one copy of the protocol: `tests/test_acceptance.py`'s
session fixture and `scripts/run_noisy_bench.py` both call it, and
`readme_lines()` renders README's table from its result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ffrg.bootstrap import bootstrap_corpus
from ffrg.docmodel import default_invoice_schema
from ffrg.evaluation import EvalReport, corruption_report, score
from ffrg.features import featurize_corpus
from ffrg.progressive import TrainConfig, extract_corpus, train
from ffrg.synth import generate, preset_config

SEEDS = (0, 1, 2, 3, 4)
N_DOCS = 1000
SCHEDULE = dict(lr=3e-3, hidden=64, branch_hidden=64, epochs_step1=3, epochs_step2=40)

# key: (README label, TrainConfig overrides)
VARIANTS = {
    "K1": ("K=1 classifier", dict(n_branches=1)),
    "K3": ("K=3 ensemble", dict(n_branches=3)),
    "beta0": ("K=3, beta=0", dict(n_branches=3, beta=0.0)),
    "joint": ("K=3, no freeze", dict(n_branches=3, two_step=False)),
}
# criterion 3 times these with the corpus work before them; the ablations,
# the rules score and the word-label figures come after the timed span
CORE = ("K1", "K3")
RULES = "rules"


@dataclass(frozen=True)
class BenchResult:
    """Per-seed figures, one row per seed in `SEEDS` order."""

    runs: dict[str, np.ndarray]  # RULES and each variant key -> (seeds, 3) macro P/R/F1
    # RULES -> (seeds, 1, 3) for the mined labels, each variant key -> (seeds,
    # branches, 3) for result.refined[k], k = 1..branches: word precision and
    # recall against truth, and labels per document
    label_figures: dict[str, np.ndarray]
    core_seconds: np.ndarray  # (seeds,) generate, bootstrap, featurize, K1 and K3


def _prf(report: EvalReport) -> tuple[float, float, float]:
    return report.macro_precision, report.macro_recall, report.macro_f1


def _word_figures(docs, truth, labels) -> tuple[float, float, float]:
    """A label set's word precision and recall against truth, and its
    labels per document."""
    report = corruption_report(docs, truth, labels)
    return report["word_precision"], report["word_recall"], report["labeled_words"] / len(docs)


def run(log: Callable[[str], None] | None = None) -> BenchResult:
    """Every seed's rules row, variant rows, word-label figures and core time."""
    schema = default_invoice_schema()
    runs: dict[str, list[tuple[float, float, float]]] = {key: [] for key in (RULES, *VARIANTS)}
    label_figures: dict[str, list] = {key: [] for key in (RULES, *VARIANTS)}
    core_seconds = []
    t_start = time.perf_counter()
    for seed in SEEDS:
        t0 = time.perf_counter()
        cfg = preset_config("noisy-bench", n_docs=N_DOCS, seed=seed)
        docs, gold, truth = generate(cfg, schema)
        labels, rule_values = bootstrap_corpus(docs, schema)
        features = featurize_corpus(docs)
        label_sets = {RULES: {1: labels}}

        def variant(key: str) -> None:
            train_cfg = TrainConfig(seed=seed, **SCHEDULE, **VARIANTS[key][1])
            result = train(docs, labels, schema, train_cfg, features)
            values = extract_corpus(result.params, docs, schema, features)
            runs[key].append(_prf(score(values, gold, schema)))
            label_sets[key] = result.refined

        for key in CORE:
            variant(key)
        core_seconds.append(time.perf_counter() - t0)
        runs[RULES].append(_prf(score(rule_values, gold, schema)))
        for key in VARIANTS:
            if key not in CORE:
                variant(key)
        for key, sets in label_sets.items():
            label_figures[key].append([_word_figures(docs, truth, sets[k]) for k in sorted(sets)])
        if log is not None:
            log(f"seed {seed} done [{time.perf_counter() - t_start:.0f}s]")
    return BenchResult(
        {key: np.array(rows) for key, rows in runs.items()},
        {key: np.array(rows) for key, rows in label_figures.items()},
        np.array(core_seconds),
    )


def readme_lines(bench: BenchResult) -> list[str]:
    """README's mined word-label sentence, its value-extraction table and
    its word-label table, each table a head and one row per mean."""
    p, r, _ = bench.label_figures[RULES][:, 0].mean(axis=0)
    lines = [
        f"Mined word labels across the five corpora: precision {p:.3f}, recall {r:.3f}.",
        "| variant        | P      | R      | F1     | F1 std |",
        "| -------------- | ------ | ------ | ------ | ------ |",
    ]
    labels = {RULES: "rule bootstrap", **{key: label for key, (label, _) in VARIANTS.items()}}
    for key, label in labels.items():
        arr = bench.runs[key]
        p, r, f1 = arr.mean(axis=0)
        lines.append(f"| {label:<14} | {p:.4f} | {r:.4f} | {f1:.4f} | {arr[:, 2].std():.4f} |")
    lines += [
        "",
        "| word labels              | P      | R      | per doc |",
        "| ------------------------ | ------ | ------ | ------- |",
    ]
    for key, label in labels.items():
        name = "mined (rule bootstrap)" if key == RULES else label + " refined@{}"
        for k, (p, r, per_doc) in enumerate(bench.label_figures[key].mean(axis=0), start=1):
            lines.append(f"| {name.format(k):<24} | {p:.4f} | {r:.4f} | {per_doc:7.2f} |")
    return lines
