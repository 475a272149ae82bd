"""Tests of the benchmark's own code: dense pages, the traced run, output
checks and the metric names BENCHMARK.json declares.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import statistics

import pytest

from perfbench import run

run.import_ffrg()

from ffrg import bootstrap as bs  # noqa: E402
from ffrg import cli  # noqa: E402
from ffrg import docmodel as dm  # noqa: E402
from ffrg import grouping, similarity, synth  # noqa: E402

from perfbench import dense, layers, speed, tracer, workloads  # noqa: E402

SCHEMA = workloads.SCHEMA


def _declared():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def test_dense_pages_land_in_the_five_size_buckets():
    pages, gold = dense.build_pages(3, 2, SCHEMA)
    sizes = [len(p.words) for p in pages]
    assert sizes == list(dense.PAGE_SIZES) * 2
    assert set(gold) == {p.doc_id for p in pages}


def test_dense_pages_are_byte_identical_for_a_seed():
    def serialized(seed):
        pages, gold = dense.build_pages(seed, 1, SCHEMA)
        return [dm.serialize_document(p) for p in pages], gold

    assert serialized(5) == serialized(5)
    assert serialized(5)[0] != serialized(6)[0]


def test_dense_gold_is_the_first_tiles_annotations():
    pages, gold = dense.build_pages(1, 2, SCHEMA)
    # generation is keyed per document, so a longer corpus starts the same
    pool, pool_gold, _ = synth.generate(
        synth.preset_config(workloads.PRESET, 200, 1), SCHEMA, threads=1
    )
    used: set[str] = set()
    for page in pages:
        texts = [w.text for w in page.words]
        first = next(
            d for d in pool
            if d.doc_id not in used and [w.text for w in d.words] == texts[: len(d.words)]
        )
        used.add(first.doc_id)
        assert gold[page.doc_id] == pool_gold[first.doc_id]
        # the first tile is a scaled copy of its document in the top-left cell
        sx = page.words[0].box.x1 / first.words[0].box.x1
        sy = page.words[0].box.y1 / first.words[0].box.y1
        for w, src in zip(page.words, first.words):
            assert (w.box.x0, w.box.y0) == pytest.approx((src.box.x0 * sx, src.box.y0 * sy))


def test_value_check_accepts_runs_of_one_phrase_only():
    pages, _ = dense.build_pages(0, 1, SCHEMA)
    page = pages[0]
    phrases = grouping.group_words(page)
    text = {w.id: w.text for w in page.words}
    long = next(ph for ph in phrases if len({text[w] for w in ph.word_ids[:3]}) == 3)
    a, b, c = (text[w] for w in long.word_ids[:3])
    other = next(text[ph.word_ids[0]] for ph in phrases
                 if ph != long and text[ph.word_ids[0]] not in {a, b, c})

    def check(value):
        return workloads.value_problems(page, phrases, {"inv_number": value})

    assert check(f"{a} {b} {c}") == [] and check(f"{b} {c}") == [] and check(c) == []
    assert check(f"{b} {a}")  # reordered
    assert check(f"{a} {c}")  # not contiguous
    assert check(f"{c} {other}")  # across two phrases
    assert check(f"{a} not-a-word")
    assert check("")


SMALL = [
    workloads.PipelineNoisy1k(n_docs=24, epochs_step1=1, epochs_step2=1),
    workloads.RulesDense(pages_per_size=1),
    workloads.ExtractStream(n_train=30, n_stream=12, epochs_step1=2, epochs_step2=1),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_and_untraced_runs_give_identical_artifacts(workload, tmp_path):
    inputs = workload.setup(4, str(tmp_path))
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    untraced = workload.body(inputs, str(tmp_path / "a"), 0.0)
    original = similarity.string_distance
    tr = tracer.Tracer("test")
    with tracer.installed(tr):
        assert bs.string_distance is similarity.string_distance is not original
        traced = workload.body(inputs, str(tmp_path / "b"), 0.0, items=untraced.items)
    assert bs.string_distance is similarity.string_distance is original
    untraced.check_values()
    traced.check_values()
    assert traced.artifacts == untraced.artifacts
    assert traced.macro_f1 == untraced.macro_f1
    assert untraced.problems == [] and traced.problems == []
    # calls made through a name import are counted
    assert tr.calls["docmodel.reading_order"] > 0
    assert tr.calls["datatypes.type_of"] > 0
    metrics = layers.layer_metrics(tr, traced, untraced)
    declared = {m["name"]: m for m in _declared()["per_layer"]}
    assert set(metrics) == set(declared)
    for name, (value, unit, better) in metrics.items():
        assert (unit, better) == (declared[name]["unit"], declared[name]["better"]), name
        assert value == value and value >= -1.0, name


def test_self_time_excludes_wrapped_callees():
    tr = tracer.Tracer("test")
    with tracer.installed(tr):
        similarity.string_distance("invoice number", "invoice no")
    assert tr.calls == {"similarity.string_distance": 1, "similarity.jaro_winkler": 1,
                        "similarity.jaro_similarity": 1}
    total = tr.total_s["similarity.string_distance"]
    assert total == pytest.approx(sum(tr.self_s.values()))


def test_pipeline_body_matches_the_cli(tmp_path):
    workload = workloads.PipelineNoisy1k(n_docs=24, epochs_step1=1, epochs_step2=2)
    code = cli.main([
        "pipeline", "--preset", workloads.PRESET, "--n", "24", "--seed", "2",
        "--branches", "3", "--epochs-step1", "1", "--epochs-step2", "2",
        "--lr", "3e-3", "--threads", "1", "--workdir", str(tmp_path / "cli"),
    ])
    assert code == 0
    os.makedirs(tmp_path / "bench")
    inputs = workload.setup(2, str(tmp_path))
    body = workload.body(inputs, str(tmp_path / "bench"), 0.0)
    for name, digest in body.artifacts.items():
        assert workloads.file_digest(str(tmp_path / "cli" / name)) == digest, name


def test_end_to_end_metrics_match_benchmark_json():
    # document i took i ms, 2i ms and 1 s in its three passes
    body = workloads.Body(
        items=40, span=(0.0, 4.0), macro_f1=0.5, artifacts={}, problems=[],
        doc_spans=[[(i, i + 0.001 * i), (i + 1, i + 1 + 0.002 * i), (i + 2, i + 3)]
                   for i in range(1, 21)],
    )
    metrics = run.end_to_end_metrics([(0.0, 1.0), (1.0, 4.0), (4.0, 6.0)], body)
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert metrics["setup_s"][0] == 2.0
    assert metrics["docs_per_s"][0] == 10.0
    latencies = body.latencies_ms()
    assert latencies == pytest.approx([2.0 * i for i in range(1, 21)])
    assert metrics["doc_p50_ms"][0] == statistics.median(latencies)
    assert run.tail(latencies) == (latencies[9], 50.0, 10)
    halved = run.end_to_end_metrics([(0.0, 1.0)], body, lambda t0, t1: (t1 - t0) / 2)
    assert halved["setup_s"][0] == 0.5 and halved["docs_per_s"][0] == 20.0


def test_sampler_converts_spans_to_nominal_seconds():
    sampler = speed.Sampler()
    # samples of 4 ms (a slowdown of 2) ending at 1, 2 and 3 s, and of 1 ms
    # (a slowdown of 1/2) long before and after
    sampler.ends = [-100.0, 1.0, 2.0, 3.0, 100.0]
    sampler.durations = [speed.NOMINAL_S / 2] + [2 * speed.NOMINAL_S] * 3 + [speed.NOMINAL_S / 2]
    assert sampler.slowdown(1.5, 2.5) == 2.0
    # 2 s of run, less the two samples inside it, at half speed
    scale = 2.0 ** speed.SENSITIVITY
    assert sampler.elapsed(0.5, 2.5) == pytest.approx((2.0 - 2 * 2 * speed.NOMINAL_S) / scale)
    assert sampler.elapsed(1.2, 1.4) == pytest.approx(0.2 / scale)


def test_sampler_samples_while_installed():
    with speed.Sampler() as sampler:
        start = speed.clock()
        while speed.clock() - start < 3 * speed.INTERVAL:
            pass
        end = speed.clock()
    assert len(sampler.ends) >= 4  # on entry, on exit and from the timer
    inside = sum(d for e, d in zip(sampler.ends, sampler.durations) if start < e < end)
    assert inside > 0
    scale = sampler.slowdown(start, end) ** speed.SENSITIVITY
    assert sampler.elapsed(start, end) * scale == pytest.approx(end - start - inside)
