"""Golden digests: sha256 of the synthesized corpus and of the geometry,
rule, feature and pipeline outputs on fixed inputs, and the numpy/BLAS build and BLAS thread count
they were computed on.

`compute()` rebuilds every input from fixed seeds and returns the mapping
that `scripts/record_golden.py` writes to `tests/golden/digests.json` and
that `test_golden.py` compares against it.  The pipeline's floats depend
on the BLAS kernels and on how many threads split a product, so a digest
is only comparable on the build and thread count it was recorded on.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import tempfile

import numpy as np

from ffrg import bootstrap as bs
from ffrg import docmodel as dm
from ffrg import evaluation as ev
from ffrg import features as ft
from ffrg import grouping
from ffrg import model as md
from ffrg import progressive as pg
from ffrg import synth

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "digests.json")

PAGE_SIZES = (50, 100, 200, 400, 800)
SEED = 0
# K=3 pipelines at lr 3e-3, small enough for tier-1: (preset, documents,
# epochs of step 1, epochs of steps 2..K, two-step).  "clean17" ends each
# epoch on a one-document batch, whose trunk pass takes OpenBLAS's small
# kernel, so the trunk cache must answer it with the batch's own pass
# rather than with its blocked rows.  The first three keep almost no
# refinement anchors and extract no values; the "-e20" runs train long
# enough that every refinement keeps anchors and extraction returns
# values, so they pin the weights each refinement reads.
PIPELINES = {
    "noisy": ("noisy-bench", 60, 2, 3, True),
    "noisy-single-step": ("noisy-bench", 60, 2, 3, False),
    "clean17": ("clean", 17, 2, 10, True),
    "clean17-e20": ("clean", 17, 10, 20, True),
    "clean17-e20-single-step": ("clean", 17, 10, 20, False),
    "noisy-e20-single-step": ("noisy-bench", 60, 3, 20, False),
}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def build() -> dict:
    """The numpy version, BLAS library and BLAS thread count the digests depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": blas_threads(),
    }


def other_build(recorded: dict) -> list[str]:
    """How this process's build differs from a recorded `build()` block, one
    line per differing key."""
    return [
        f"{k}: recorded on {recorded.get(k)!r}, running on {v!r}"
        for k, v in build().items() if recorded.get(k) != v
    ]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def corpus_digest(preset: str, n_docs: int) -> str:
    """The serialized documents, gold values and truth labels of a
    synthesized corpus."""
    docs, gold, truth = synth.generate(
        synth.preset_config(preset, n_docs, SEED), dm.default_invoice_schema()
    )
    return _sha(json.dumps({
        "docs": [dm.serialize_document(doc) for doc in docs],
        "gold": gold,
        "truth": {doc_id: sorted(truth.positives(doc_id).items()) for doc_id in truth.doc_ids()},
    }, sort_keys=True))


def dense_pages() -> list[dm.Document]:
    """One page of each size, tiled from consecutive noisy-bench documents:
    tile t sits in cell t of a near-square grid, scaled into the cell, and
    the last tile keeps only a prefix of its words."""
    pool, _, _ = synth.generate(
        synth.preset_config("noisy-bench", 80, SEED), dm.default_invoice_schema()
    )
    pool.reverse()
    pages = []
    for size in PAGE_SIZES:
        tiles = [pool.pop()]
        while sum(len(t.words) for t in tiles) < size:
            tiles.append(pool.pop())
        cols = math.ceil(math.sqrt(len(tiles)))
        rows = math.ceil(len(tiles) / cols)
        words: list[dm.Word] = []
        for t, tile in enumerate(tiles):
            col, row = t % cols, t // cols
            for w in tile.words[: size - len(words)]:
                b = w.box
                box = dm.BBox((col + b.x0) / cols, (row + b.y0) / rows,
                              (col + b.x1) / cols, (row + b.y1) / rows)
                words.append(dm.Word(len(words), w.text, box))
        pages.append(dm.Document(f"dense-w{size}", synth.PAGE_W, synth.PAGE_H, tuple(words)))
    return pages


def negative_zero_page() -> dm.Document:
    """A column of zero-width words at x0 = x1 = -0.0: every centre x is
    -0.0, and the context mean of those centres is numpy's +0.0."""
    texts = ("Total", "9.00", "Ünïcode", "x", "Total", "2021-03-04")
    words = tuple(
        dm.Word(i, text, dm.BBox(-0.0, 0.1 + 0.02 * i, -0.0, 0.11 + 0.02 * i))
        for i, text in enumerate(texts)
    )
    return dm.Document("negative-zero", synth.PAGE_W, synth.PAGE_H, words)


def featurize_digest(page: dm.Document) -> str:
    return hashlib.sha256(ft.featurize(page).tobytes()).hexdigest()


def page_digest(page: dm.Document, schema: dm.FieldSchema) -> str:
    """Reading order, phrases, and the rule labels and values of one page."""
    rows = bs.PhraseRows(page)
    labels, values = bs.bootstrap_corpus([page], schema)
    return _sha(json.dumps({
        "order": page.order,
        "phrases": [[list(ids), text, box]
                    for ids, text, box in zip(rows.members, rows.texts, rows.boxes.tolist())],
        "labels": sorted(labels.positives(page.doc_id).items()),
        "values": values,
    }, sort_keys=True))


def grouped_page(page: dm.Document) -> dm.Document:
    """The page carrying its phrases in reversed order, every third left
    out, so that the rule extractor reads the document's own phrases."""
    phrases = grouping.phrase_members(page)[::-1]
    kept = tuple(ph for k, ph in enumerate(phrases) if k % 3 != 1)
    return dm.Document(f"{page.doc_id}-grouped", page.page_width, page.page_height,
                       page.words, kept)


def grouped_digest(page: dm.Document, schema: dm.FieldSchema) -> str:
    """The rule extractions, labels and values of a page with phrases."""
    labels, values = bs.bootstrap_corpus([page], schema)
    return _sha(json.dumps({
        "extractions": [
            [e.field_id, *(None if ph is None else list(ph)
                           for ph in (e.key_phrase, e.value_phrase)),
             e.key_score.hex(), None if e.value_score is None else e.value_score.hex()]
            for e in bs.extract_document(page, schema)
        ],
        "labels": sorted(labels.positives(page.doc_id).items()),
        "values": values,
    }, sort_keys=True))


def pipeline_digests(workdir: str, preset: str, n_docs: int, epochs_step1: int,
                     epochs_step2: int, two_step: bool) -> dict[str, str]:
    """The artifacts of `ffrg pipeline` after synthesis, and each stage's
    refined label set."""
    schema = dm.default_invoice_schema()
    p = lambda name: os.path.join(workdir, name)
    docs, gold, _ = synth.generate(synth.preset_config(preset, n_docs, SEED), schema)
    labels, rule_values = bs.bootstrap_corpus(docs, schema)
    dm.write_labels(p("labels.jsonl"), labels)
    dm.write_annotations(p("rule_values.jsonl"), rule_values)
    cfg = pg.TrainConfig(
        n_branches=3, seed=SEED, lr=3e-3, epochs_step1=epochs_step1,
        epochs_step2=epochs_step2, two_step=two_step,
    )
    features = ft.featurize_corpus(docs)
    result = pg.train(docs, labels, schema, cfg, features)
    md.save_model(p("model.ffrg"), result.params)
    for k, refined in sorted(result.refined.items()):
        dm.write_labels(p(f"refined{k}.jsonl"), refined)
    values = pg.extract_corpus(result.params, docs, schema, features)
    dm.write_annotations(p("values.jsonl"), values)
    ev.write_report(p("report.json"), ev.score(values, gold, schema))
    return {name: _file_sha(p(name)) for name in sorted(os.listdir(workdir))}


def compute() -> dict:
    schema = dm.default_invoice_schema()
    pages = dense_pages()
    digests = {"synth.noisy-bench.n200": corpus_digest("noisy-bench", 200)}
    digests.update((f"dense.w{len(page.words)}", page_digest(page, schema)) for page in pages)
    digests.update((f"featurize.w{len(page.words)}", featurize_digest(page)) for page in pages)
    digests["featurize.negative-zero"] = featurize_digest(negative_zero_page())
    digests["grouped.w200"] = grouped_digest(grouped_page(pages[2]), schema)
    for run, config in PIPELINES.items():
        with tempfile.TemporaryDirectory() as workdir:
            digests.update(
                (f"{run}.{name}", sha) for name, sha in pipeline_digests(workdir, *config).items()
            )
    return {"build": build(), "digests": digests}
