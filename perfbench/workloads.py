"""The benchmark's workloads: set-up, timed body and output checks.

Each workload calls the public ffrg functions through their modules
(``bs.bootstrap_corpus``, not an imported name), so the traced run's
rebinding reaches the calls the benchmark makes as well as those the
modules make of each other.  Every call runs with ffrg ``threads=1``.

Set-up generates the inputs from the seed and writes them to files; the
body receives only those files (and the gold values, which only the
final ``score`` reads).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from ffrg import bootstrap as bs
from ffrg import docmodel as dm
from ffrg import evaluation as ev
from ffrg import features as ft
from ffrg import grouping
from ffrg import model as md
from ffrg import progressive as pg
from ffrg import synth

from perfbench import dense, speed

SCHEMA = dm.default_invoice_schema()
PRESET = "noisy-bench"
# ROADMAP's training schedule: K=3 branches at lr 3e-3 (pipeline-noisy1k
# adds its 3+40+40 epochs; extract-stream trains a shorter schedule).
BRANCHES = 3
LR = 3e-3
clock = time.perf_counter


@dataclass
class Inputs:
    """What set-up hands the body: files in the set-up directory, the gold
    values, and a digest of both that repeated set-ups must reproduce."""

    seed: int
    files: dict[str, str]
    gold: dict[str, dict[str, str]]
    digest: str = ""

    def __post_init__(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(file_digest(self.files[name]).encode())
        h.update(json.dumps(self.gold, sort_keys=True).encode())
        self.digest = h.hexdigest()


@dataclass
class Body:
    """What one run of a workload's timed body produced."""

    items: int  # documents (pages, on rules-dense) attempted
    span: tuple[float, float]  # clock readings at the start and end of the body
    doc_spans: list[list[tuple[float, float]]]  # per document, one span per pass
    macro_f1: float
    artifacts: dict[str, str]  # artifact file name -> sha256
    problems: list[tuple[str, str]]  # (document, what raised or failed a check)
    stats: dict = field(default_factory=dict)  # facts the layer metrics use
    # (document, fields) whose values check_values() checks, after the timing
    produced: list[tuple[dm.Document, dict[str, str]]] = field(default_factory=list)

    @property
    def failed(self) -> int:
        """Documents that raised or failed an output check."""
        return len({doc for doc, _ in self.problems})

    def seconds(self, elapsed=speed.raw) -> float:
        """The body's time, converted by `elapsed` from its clock readings."""
        return elapsed(*self.span)

    def latencies_ms(self, elapsed=speed.raw) -> list[float]:
        """Per document, the median over its passes of its converted time."""
        seconds: dict[tuple[float, float], float] = {}
        for spans in self.doc_spans:
            for s in spans:
                if s not in seconds:
                    seconds[s] = elapsed(*s)
        return [1000.0 * statistics.median(seconds[s] for s in spans)
                for spans in self.doc_spans if spans]

    def check_values(self) -> None:
        """Add a problem for every produced value that is not a run of its
        document's words.  Called after the timed body and outside the
        traced one, so that its own grouping is neither timed nor counted."""
        phrases: dict[str, tuple[dm.Phrase, ...]] = {}
        for doc, fields in self.produced:
            if doc.doc_id not in phrases:
                phrases[doc.doc_id] = (
                    doc.phrases if doc.phrases is not None else grouping.group_words(doc))
            self.problems += value_problems(doc, phrases[doc.doc_id], fields)
        self.produced = []


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def value_problems(
    doc: dm.Document, phrases: tuple[dm.Phrase, ...], fields: dict[str, str]
) -> list[tuple[str, str]]:
    """Each value must be a space-joined run of word texts: a contiguous
    slice of one of the document's phrases, the form in which both the rule
    extractor and the model build values."""
    text = {w.id: w.text for w in doc.words}
    runs = set()
    for ph in phrases:
        texts = [text[wid] for wid in ph.word_ids]
        for lo in range(len(texts)):
            for hi in range(lo + 1, len(texts) + 1):
                runs.add(" ".join(texts[lo:hi]))
    return [
        (doc.doc_id, f"{name}={value!r} is not a run of its words")
        for name, value in sorted(fields.items())
        if value not in runs
    ]


def _label_problems(docs, labelset: dm.LabelSet) -> list[tuple[str, str]]:
    return [
        (doc.doc_id, f"not covered by {labelset.provenance} labels")
        for doc in docs
        if not labelset.covers(doc.doc_id)
    ]


class PipelineNoisy1k:
    """ROADMAP's fixed workload: the body mirrors the ``ffrg pipeline``
    command after synthesis, on 1000 noisy-bench documents, K=3 with
    3+40+40 epochs at lr 3e-3.  One body is one batch, so every document
    completes when the batch does."""

    name = "pipeline-noisy1k"

    def __init__(self, n_docs: int = 1000, epochs_step1: int = 3, epochs_step2: int = 40):
        self.n_docs = n_docs
        self.epochs_step1 = epochs_step1
        self.epochs_step2 = epochs_step2

    def setup(self, seed: int, workdir: str) -> Inputs:
        docs, gold, _ = synth.generate(
            synth.preset_config(PRESET, self.n_docs, seed), SCHEMA, threads=1
        )
        path = os.path.join(workdir, "docs.jsonl")
        dm.write_documents(path, docs)
        return Inputs(seed, {"docs": path}, gold)

    def body(self, inputs: Inputs, out: str, seconds: float, items: int | None = None) -> Body:
        p = lambda name: os.path.join(out, name)
        start = clock()
        docs = dm.read_documents(inputs.files["docs"])
        labels, rule_values = bs.bootstrap_corpus(docs, SCHEMA, threads=1)
        dm.write_labels(p("labels.jsonl"), labels)
        dm.write_annotations(p("rule_values.jsonl"), rule_values)
        cfg = pg.TrainConfig(
            n_branches=BRANCHES, beta=1.0, seed=inputs.seed,
            epochs_step1=self.epochs_step1, epochs_step2=self.epochs_step2,
            lr=LR, two_step=True,
        )
        features = ft.featurize_corpus(docs, 1)
        result = pg.train(docs, labels, SCHEMA, cfg, features, threads=1)
        md.save_model(p("model.ffrg"), result.params)
        values = pg.extract_corpus(result.params, docs, SCHEMA, features, threads=1)
        dm.write_annotations(p("values.jsonl"), values)
        report = ev.score(values, inputs.gold, SCHEMA)
        ev.write_report(p("report.json"), report)
        span = (start, clock())

        problems = _label_problems(docs, labels)
        for labelset in result.refined.values():
            problems += _label_problems(docs, labelset)
        produced = []
        for doc in docs:
            for rows in (rule_values, values):
                if doc.doc_id not in rows:
                    problems.append((doc.doc_id, "no values row"))
                else:
                    produced.append((doc, rows[doc.doc_id]))

        anchors = agree = 0
        for labelset in result.refined.values():
            for doc in docs:
                for wid, cls in labelset.positives(doc.doc_id).items():
                    anchors += 1
                    agree += labels.get(doc.doc_id, wid) == cls
        names = ("labels.jsonl", "rule_values.jsonl", "model.ffrg", "values.jsonl", "report.json")
        return Body(
            items=len(docs),
            span=span,
            doc_spans=[[span]] * len(docs),
            macro_f1=report.macro_f1,
            artifacts={n: file_digest(p(n)) for n in names},
            problems=problems,
            stats={
                "rule_values": sum(len(v) for v in rule_values.values()),
                "anchors": anchors,
                "anchor_agreement": agree,
                "refined_docs": len(docs) * len(result.refined),
                "values_extracted": sum(len(v) for v in values.values()),
            },
            produced=produced,
        )


def _stream(n_inputs: int, seconds: float, items: int | None, start: float,
            group: int = 1, passes: int = 1):
    """Indices of the documents to process, cycling over the inputs:
    `passes` whole passes, then on until `seconds` have gone (or `items`
    are done), deciding only at multiples of `group` so groups stay whole."""
    i = 0
    while i < passes * n_inputs or i % group or (
        clock() - start < seconds if items is None else i < items
    ):
        yield i
        i += 1


class RulesDense:
    """The rule extractor alone (``bootstrap_corpus`` per page, then
    ``score``) on tiled pages of 50, 100, 200, 400 and 800 words, equal
    numbers of each: the O(n^2) grouping, ordering and key-matching layers
    dominate, and no model runs.

    As on extract-stream, the body makes at least three whole passes and a
    page's latency is the median over its passes, so that one slow spell
    of a shared machine does not decide a page's figure."""

    name = "rules-dense"
    PASSES = 3

    def __init__(self, pages_per_size: int = 6):
        self.pages_per_size = pages_per_size

    def setup(self, seed: int, workdir: str) -> Inputs:
        pages, gold = dense.build_pages(seed, self.pages_per_size, SCHEMA)
        path = os.path.join(workdir, "pages.jsonl")
        dm.write_documents(path, pages)
        return Inputs(seed, {"pages": path}, gold)

    def body(self, inputs: Inputs, out: str, seconds: float, items: int | None = None) -> Body:
        start = clock()
        pages = dm.read_documents(inputs.files["pages"])
        labels = dm.LabelSet("bootstrap")
        values: dict[str, dict[str, str]] = {}
        first: dict[str, tuple] = {}
        doc_spans: list[list[tuple[float, float]]] = [[] for _ in pages]
        problems: list[tuple[str, str]] = []
        produced = []
        kept = 0
        for i in _stream(len(pages), seconds, items, start, len(pages), self.PASSES):
            k = i % len(pages)
            page = pages[k]
            t0 = clock()
            try:
                page_labels, page_values = bs.bootstrap_corpus([page], SCHEMA, threads=1)
            except Exception as e:  # count the page as failed and go on
                problems.append((page.doc_id, f"raised {e!r}"))
                continue
            doc_spans[k].append((t0, clock()))
            fields = page_values.get(page.doc_id, {})
            kept += len(fields)
            outcome = (page_labels.covers(page.doc_id), page_labels.positives(page.doc_id), fields)
            if page.doc_id not in first:
                first[page.doc_id] = outcome
                produced.append((page, fields))
                problems += _label_problems([page], page_labels)
                labels.add_document(page.doc_id)
                for wid, cls in outcome[1].items():
                    labels.set_label(page.doc_id, wid, cls)
                values[page.doc_id] = fields
            elif outcome != first[page.doc_id]:
                problems.append((page.doc_id, "repeat gave different labels or values"))
        report = ev.score(values, inputs.gold, SCHEMA)
        dm.write_labels(os.path.join(out, "labels.jsonl"), labels)
        dm.write_annotations(os.path.join(out, "values.jsonl"), values)
        ev.write_report(os.path.join(out, "report.json"), report)
        span = (start, clock())
        names = ("labels.jsonl", "values.jsonl", "report.json")
        return Body(
            items=i + 1,
            span=span,
            doc_spans=doc_spans,
            macro_f1=report.macro_f1,
            artifacts={n: file_digest(os.path.join(out, n)) for n in names},
            problems=problems,
            stats={"rule_values": kept,
                   "page_sizes": [len(p.words) for p, ts in zip(pages, doc_spans) if ts]},
            produced=produced,
        )


class ExtractStream:
    """Extraction alone, one document at a time: ``parse_document`` on its
    JSONL line, ``featurize``, ``extract_values``; ``score`` once at the
    end.  Set-up trains a small K=3 model and writes the stream.

    The body makes at least three whole passes over the stream, and a
    document's latency is the median over its passes: at about 5 ms a
    document, one-off stalls of the shared machine otherwise decide the
    tail (measured: 9 to 17 ms over seven seeds with one sample each)."""

    name = "extract-stream"
    PASSES = 3
    # The model is trained on one fixed corpus, so every seed measures the
    # same model; only the stream of documents follows the seed.
    TRAIN_SEED = 0
    STREAM_SEED_BASE = 1_000_000

    def __init__(self, n_train: int = 200, n_stream: int = 1000,
                 epochs_step1: int = 10, epochs_step2: int = 6):
        self.n_train = n_train
        self.n_stream = n_stream
        self.cfg = pg.TrainConfig(
            n_branches=BRANCHES, epochs_step1=epochs_step1, epochs_step2=epochs_step2,
            lr=LR, seed=self.TRAIN_SEED,
        )

    def setup(self, seed: int, workdir: str) -> Inputs:
        docs, _, _ = synth.generate(
            synth.preset_config(PRESET, self.n_train, self.TRAIN_SEED), SCHEMA, threads=1
        )
        labels, _ = bs.bootstrap_corpus(docs, SCHEMA, threads=1)
        features = ft.featurize_corpus(docs, 1)
        result = pg.train(docs, labels, SCHEMA, self.cfg, features, threads=1)
        model_path = os.path.join(workdir, "model.ffrg")
        md.save_model(model_path, result.params)
        stream, gold, _ = synth.generate(
            synth.preset_config(PRESET, self.n_stream, self.STREAM_SEED_BASE + seed),
            SCHEMA, threads=1,
        )
        stream_path = os.path.join(workdir, "stream.jsonl")
        dm.write_documents(stream_path, stream)
        return Inputs(seed, {"model": model_path, "stream": stream_path}, gold)

    def body(self, inputs: Inputs, out: str, seconds: float, items: int | None = None) -> Body:
        with open(inputs.files["stream"], encoding="utf-8") as f:
            lines = f.readlines()
        start = clock()
        params = md.load_model(inputs.files["model"], SCHEMA)
        values: dict[str, dict[str, str]] = {}
        doc_spans: list[list[tuple[float, float]]] = [[] for _ in lines]
        problems: list[tuple[str, str]] = []
        produced = []
        extracted = 0
        for i in _stream(len(lines), seconds, items, start, len(lines), self.PASSES):
            k = i % len(lines)
            t0 = clock()
            try:
                doc = dm.parse_document(lines[k], k + 1)
                fields = pg.extract_values(params, doc, ft.featurize(doc), SCHEMA)
            except Exception as e:  # count the document as failed and go on
                problems.append((f"line {k + 1}", f"raised {e!r}"))
                continue
            doc_spans[k].append((t0, clock()))
            extracted += len(fields)
            if i < len(lines):
                values[doc.doc_id] = fields
                produced.append((doc, fields))
            elif fields != values.get(doc.doc_id):
                problems.append((doc.doc_id, "repeat gave different values"))
        report = ev.score(values, inputs.gold, SCHEMA)
        dm.write_annotations(os.path.join(out, "values.jsonl"), values)
        ev.write_report(os.path.join(out, "report.json"), report)
        span = (start, clock())
        names = ("values.jsonl", "report.json")
        return Body(
            items=i + 1,
            span=span,
            doc_spans=doc_spans,
            macro_f1=report.macro_f1,
            artifacts={n: file_digest(os.path.join(out, n)) for n in names},
            problems=problems,
            stats={"values_extracted": extracted},
            produced=produced,
        )


WORKLOADS = {w.name: w for w in (PipelineNoisy1k, RulesDense, ExtractStream)}
