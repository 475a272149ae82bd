"""Per-layer metrics of the traced run, one row per metric.

Counts are exact; times are self times (a call's duration minus that of
its wrapped callees) unless the name says otherwise.  "Per doc" divides
by the documents (pages, on rules-dense) the traced body attempted.  A
layer that a workload does not run reads 0 there.
"""

from __future__ import annotations

import statistics

from perfbench.dense import PAGE_SIZES
from perfbench.tracer import Tracer, train_stage_seconds
from perfbench.workloads import Body


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, traced: Body, untraced: Body) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, better)."""
    n = traced.items
    calls, self_s, total_s = tr.calls, tr.self_s, tr.total_s
    stats = traced.stats
    out: dict[str, tuple[float, str, str]] = {}

    def per_doc(fn: str) -> None:
        out[f"{fn}.calls_per_doc"] = (_ratio(calls[fn], n), "calls/doc", "lower")
        out[f"{fn}.self_ms_per_doc"] = (_ratio(self_s[fn] * 1000.0, n), "ms/doc", "lower")

    out["docmodel.read_documents.ms_per_doc"] = (
        _ratio(total_s["docmodel.read_documents"] * 1000.0, n), "ms/doc", "lower")
    for fn in ("docmodel.reading_order", "grouping.group_words",
               "similarity.jaro_similarity", "datatypes.type_of"):
        per_doc(fn)

    out["bootstrap.bootstrap_corpus.self_ms_per_doc"] = (
        _ratio(self_s["bootstrap.bootstrap_corpus"] * 1000.0, n), "ms/doc", "lower")
    out["bootstrap.geometric_score.calls_per_doc"] = (
        _ratio(calls["bootstrap.geometric_score"], n), "calls/doc", "lower")
    # page times come from the untraced body, free of wrapper overhead
    sizes = untraced.stats.get("page_sizes", [])
    for size in PAGE_SIZES:
        times = [ms for s, ms in zip(sizes, untraced.latencies_ms()) if s == size]
        out[f"bootstrap.page_ms.w{size}"] = (
            statistics.median(times) if times else 0.0, "ms", "lower")
    out["bootstrap.values_kept_ratio"] = (
        _ratio(stats.get("rule_values", 0), calls["bootstrap.extract_field"]), "ratio", "higher")

    per_doc("features.featurize")

    out["model.branch_loss_and_grad.calls"] = (calls["model.branch_loss_and_grad"], "count", "lower")
    out["model.branch_loss_and_grad.self_s"] = (self_s["model.branch_loss_and_grad"], "s", "lower")
    out["model.adam_step.self_s"] = (self_s["model.adam_step"], "s", "lower")
    out["model.save_model.ms"] = (total_s["model.save_model"] * 1000.0, "ms", "lower")
    out["model.forward.calls"] = (calls["model.forward"], "count", "lower")
    out["model.forward.rows"] = (tr.counters["model.forward.rows"], "count", "lower")
    out["model.forward.self_s"] = (self_s["model.forward"], "s", "lower")

    stages = train_stage_seconds(tr.spans)
    for k in (1, 2, 3):
        out[f"progressive.train.stage{k}_s"] = (stages.get(k, 0.0), "s", "lower")
    out["progressive.train.self_s"] = (self_s["progressive.train"], "s", "lower")
    out["progressive.refine_labels.self_s"] = (self_s["progressive.refine_labels"], "s", "lower")
    out["progressive.refine_labels.anchors_per_doc"] = (
        _ratio(stats.get("anchors", 0), stats.get("refined_docs", 0)), "anchors/doc", "higher")
    out["progressive.refine_labels.rule_agreement"] = (
        _ratio(stats.get("anchor_agreement", 0), stats.get("anchors", 0)), "ratio", "higher")
    for fn in ("progressive.ensemble_predict", "progressive.extract_values"):
        out[f"{fn}.self_ms_per_doc"] = (_ratio(self_s[fn] * 1000.0, n), "ms/doc", "lower")
    out["progressive.extract_values.values_per_doc"] = (
        _ratio(stats.get("values_extracted", 0), n), "values/doc", "higher")

    out["evaluation.score.ms"] = (total_s["evaluation.score"] * 1000.0, "ms", "lower")
    out["evaluation.score.macro_f1"] = (traced.macro_f1, "F1", "higher")
    out["trace.overhead_share"] = (traced.seconds() / untraced.seconds() - 1.0, "ratio", "lower")
    return out
