"""Generator contract: determinism, truth bookkeeping, noise accounting."""

from dataclasses import replace

import numpy as np
import pytest

from ffrg.bootstrap import bootstrap_corpus
from ffrg.datatypes import DataType
from ffrg.docmodel import SchemaField, FieldSchema, LabelSet, ValidationError
from ffrg.evaluation import corruption_report
from ffrg.synth import (
    _DIGITS,
    _HEADER_POOL,
    _LETTERS_LOWER,
    _LETTERS_UPPER,
    _UNKNOWN_KEYS,
    PRESETS,
    SynthConfig,
    _clamp,
    _noise_texts,
    generate,
    generate_document,
    preset_config,
)

from conftest import make_doc


def small(preset, n=12, seed=3):
    return preset_config(preset, n_docs=n, seed=seed)


# --- config ------------------------------------------------------------------

def test_presets_expose_clean_and_noisy():
    assert set(PRESETS) == {"clean", "noisy-bench"}
    cfg = preset_config("noisy-bench", n_docs=5, seed=1)
    assert cfg.key_paraphrase_rate == 0.3
    assert cfg.unknown_key_rate == 0.1
    assert cfg.char_noise_rate == 0.03
    assert cfg.distractor_density == 20
    assert cfg.bbox_jitter == 0.005
    clean = preset_config("clean", n_docs=5, seed=1)
    assert clean.char_noise_rate == 0.0
    assert clean.distractor_density == 0


def test_clean_preset_is_the_default_config():
    for n, seed in ((5, 1), (0, 7)):
        assert preset_config("clean", n, seed) == SynthConfig(n_docs=n, seed=seed)


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError):
        preset_config("hard", n_docs=5, seed=1)


@pytest.mark.parametrize("kw", [
    dict(key_paraphrase_rate=1.2),
    dict(unknown_key_rate=-0.1),
    dict(char_noise_rate=2.0),
    dict(distractor_density=-1),
    dict(bbox_jitter=-0.001),
    dict(n_docs=-1),
    dict(key_paraphrase_rate=-0.5),
    dict(unknown_key_rate=1.01),
])
def test_config_validation(kw):
    base = dict(n_docs=3, seed=0)
    base.update(kw)
    with pytest.raises(ValidationError):
        SynthConfig(**base)


def test_schema_must_fit_grid(schema):
    too_many = FieldSchema(tuple(
        SchemaField(field_id=i + 1, name=f"f{i}", keys=(f"key {i}",),
                 allowed_types=frozenset({next(iter(schema.fields[0].allowed_types))}))
        for i in range(11)
    ))
    with pytest.raises(ValidationError):
        generate_document(small("clean", n=1), too_many, 0)
    too_few = FieldSchema(schema.fields[:2])
    with pytest.raises(ValidationError):
        generate_document(small("clean", n=1), too_few, 0)


# --- determinism -------------------------------------------------------------

def test_generation_is_deterministic(schema):
    a = generate(small("noisy-bench"), schema)
    b = generate(small("noisy-bench"), schema)
    assert a[0] == b[0]
    assert a[1] == b[1]
    for doc in a[0]:
        assert a[2].positives(doc.doc_id) == b[2].positives(doc.doc_id)


def test_seed_changes_output(schema):
    a, _, _ = generate(small("noisy-bench", seed=3), schema)
    b, _, _ = generate(small("noisy-bench", seed=4), schema)
    assert a != b


def test_doc_id_format(schema):
    docs, _, _ = generate(small("clean", n=3, seed=9), schema)
    assert [d.doc_id for d in docs] == [f"synth-9-{i:05d}" for i in range(3)]


def test_empty_corpus(schema):
    docs, gold, truth = generate(small("clean", n=0), schema)
    assert docs == [] and gold == {} and truth.doc_ids() == []


def test_a_paraphrased_key_outside_the_bundled_schema_is_its_title_and_a_colon():
    number = frozenset({DataType.NUMBER})
    schema = FieldSchema((SchemaField(1, "reference", ("ref no",), number),
                          SchemaField(2, "account", ("account",), number),
                          SchemaField(3, "region", ("region",), number)))
    docs, _, _ = generate(SynthConfig(n_docs=4, seed=2, key_paraphrase_rate=1.0), schema)
    for doc in docs:
        texts = [w.text for w in doc.words]
        assert {"Ref", "No:", "Account:", "Region:"} <= set(texts)
        assert not {"No", "Account", "Region"} & set(texts)


# --- rng draws ---------------------------------------------------------------
# A corpus's bytes fix the order and kind of every draw, so the bulk and
# indexed draws are pinned to the numpy calls they replace.

def _noise_text(text, rate, rng):
    """Character noise one character at a time, one draw per call."""
    if rate <= 0.0:
        return text
    out = []
    for ch in text:
        if rng.random() < rate:
            if ch.isdigit():
                out.append(str(rng.choice([c for c in _DIGITS if c != ch])))
            elif ch.isalpha():
                pool = _LETTERS_UPPER if ch.isupper() else _LETTERS_LOWER
                out.append(str(rng.choice([c for c in pool if c != ch])))
            else:
                out.append(ch)
        else:
            out.append(ch)
    return "".join(out)


@pytest.mark.parametrize("rate", [0.0, 0.03, 0.5, 1.0])
def test_document_noise_pass_equals_the_per_character_loop(rate):
    alphabet = list("0123456789abcxyzABCXYZ.,-$#/:% ") + ["É", "ß", "٣", "½"]
    pick = np.random.default_rng(11)
    changed = 0
    for seed in range(60):
        texts = ["".join(pick.choice(alphabet, size=int(pick.integers(1, 12))))
                 for _ in range(int(pick.integers(1, 30)))]
        a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        if seed % 2:  # leave half of a 64-bit draw buffered for the integer draws
            assert a.integers(0, 9) == b.integers(0, 9)
        want = [_noise_text(t, rate, a) for t in texts]
        assert _noise_texts(texts, rate, b) == want
        assert b.bit_generator.state == a.bit_generator.state
        changed += want != texts
    assert changed == 0 if rate == 0.0 else changed > 0


def test_layout_draws_equal_numpys_uniform_and_choice():
    for seed in range(100):
        a, b = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
        w = 0.0075 * (seed % 12 + 1)
        for lo, hi in ((0.01, 0.10), (0.015, 0.12), (0.05, 0.92 - w), (0.15, 0.72)):
            assert float(a.uniform(lo, hi)).hex() == (lo + (hi - lo) * b.random()).hex()
        keys = _UNKNOWN_KEYS
        assert str(a.choice(keys)) == keys[int(b.integers(0, len(keys)))]
        n = int(a.integers(2, 5))
        assert n == int(b.integers(2, 5))
        assert [str(h) for h in a.choice(_HEADER_POOL, size=n)] == [
            _HEADER_POOL[i] for i in b.integers(0, len(_HEADER_POOL), size=n).tolist()]
        pool = [c for c in _LETTERS_UPPER if c != "Q"]
        assert str(a.choice(pool)) == pool[int(b.integers(0, len(pool)))]
        assert b.bit_generator.state == a.bit_generator.state


def test_jitter_rows_equal_one_draw_of_two_per_item():
    for seed in range(50):
        a, b = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
        n = seed % 9
        per_item = [[float(v) for v in a.normal(0.0, 0.005, 2)] for _ in range(n)]
        rows = b.normal(0.0, 0.005, (n, 2))
        assert [[v.hex() for v in r] for r in per_item] == [
            [v.hex() for v in r] for r in rows.tolist()]
        assert b.bit_generator.state == a.bit_generator.state


def test_clamp_keeps_what_pythons_min_and_max_keep():
    # signed zeros against signed-zero bounds, values on and past both bounds,
    # and lower bounds taken from another column, as x1 is clamped to x0
    values = [-0.0, 0.0, -0.5, 1e-300, 0.3, 1.0, 1.5, -1e-300]
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.choice(values, size=12)
        lo = rng.choice([-0.0, 0.0, 0.3, 1.0], size=12)
        for bound in (0.0, -0.0, lo):
            got = _clamp(v, bound).tolist()
            bounds = [bound] * len(v) if np.isscalar(bound) else bound.tolist()
            want = [min(max(x, b), 1.0) for x, b in zip(v.tolist(), bounds)]
            assert [x.hex() for x in got] == [x.hex() for x in want]


# --- truth bookkeeping ---------------------------------------------------------

def test_truth_points_at_rendered_gold_when_clean(schema):
    """Without character noise the gold string is the labeled words' text."""
    docs, gold, truth = generate(small("clean", n=20, seed=5), schema)
    checked = 0
    for doc in docs:
        by_field: dict[int, list[int]] = {}
        for wid, cls in truth.positives(doc.doc_id).items():
            by_field.setdefault(cls, []).append(wid)
        assert set(gold[doc.doc_id]) == {
            schema.field_by_id(cls).name for cls in by_field
        }
        for cls, wids in by_field.items():
            text = " ".join(doc.words[w].text for w in sorted(wids))
            assert text == gold[doc.doc_id][schema.field_by_id(cls).name]
            checked += 1
    assert checked > 20


def test_gold_captured_before_noise(schema):
    """Annotation strings are the pre-noise value text.

    The character-noise stream is separate from the layout stream, so the
    same seed with char_noise_rate=0 renders the identical corpus minus
    corruption; gold on the noisy corpus must match that twin.
    """
    noisy_cfg = small("noisy-bench", n=20, seed=5)
    twin_cfg = replace(noisy_cfg, char_noise_rate=0.0)
    noisy_docs, noisy_gold, noisy_truth = generate(noisy_cfg, schema)
    twin_docs, twin_gold, twin_truth = generate(twin_cfg, schema)
    assert noisy_gold == twin_gold
    corrupted = 0
    for nd, td in zip(noisy_docs, twin_docs):
        positives = noisy_truth.positives(nd.doc_id)
        assert positives == twin_truth.positives(td.doc_id)
        by_field: dict[int, list[int]] = {}
        for wid, cls in positives.items():
            by_field.setdefault(cls, []).append(wid)
        for cls, wids in by_field.items():
            pre = " ".join(td.words[w].text for w in sorted(wids))
            assert pre == noisy_gold[nd.doc_id][schema.field_by_id(cls).name]
        corrupted += sum(
            1 for wid in positives if nd.words[wid].text != td.words[wid].text
        )
    assert corrupted > 0  # at 3% per char some value words must differ


def test_truth_classes_and_coverage(schema):
    docs, _, truth = generate(small("noisy-bench", n=10), schema)
    assert sorted(truth.doc_ids()) == sorted(d.doc_id for d in docs)
    for doc in docs:
        positives = truth.positives(doc.doc_id)
        assert positives  # every document places at least 3 fields
        assert all(1 <= cls <= schema.n_fields for cls in positives.values())
        assert all(0 <= wid < len(doc.words) for wid in positives)


def test_between_three_and_all_fields_placed(schema):
    docs, gold, _ = generate(small("clean", n=40, seed=2), schema)
    counts = {len(gold[d.doc_id]) for d in docs}
    assert min(counts) >= 3
    assert max(counts) <= schema.n_fields


def test_boxes_stay_on_page(schema):
    docs, _, _ = generate(small("noisy-bench", n=15, seed=8), schema)
    for doc in docs:
        for w in doc.words:
            assert 0.0 <= w.box.x0 <= w.box.x1 <= 1.0
            assert 0.0 <= w.box.y0 <= w.box.y1 <= 1.0


def test_noise_adds_words_and_perturbs_keys(schema):
    clean_docs, _, _ = generate(small("clean", n=15), schema)
    noisy_docs, _, _ = generate(small("noisy-bench", n=15), schema)
    assert sum(len(d.words) for d in noisy_docs) > sum(len(d.words) for d in clean_docs)
    lexicon = {k for f in schema.fields for k in f.keys}
    texts = {w.text.lower() for d in noisy_docs for w in d.words}
    # paraphrases and unknown keys put key-position words outside the lexicon
    assert any(t in {"issued", "posted", "balance", "vat", "reference", "terms"}
               for t in texts), texts
    assert lexicon  # sanity


def test_clean_corpus_is_bootstrap_recoverable(schema):
    """Exact keys and canonical layout make rule labels near-perfect."""
    docs, _, truth = generate(small("clean", n=60, seed=11), schema)
    labels, _ = bootstrap_corpus(docs, schema)
    report = corruption_report(docs, truth, labels)
    assert report["word_precision"] >= 0.95
    assert report["word_recall"] >= 0.90


# --- corruption report ---------------------------------------------------------

def test_corruption_report_counts():
    # 3 labelled words against 4 true ones, so that precision and recall
    # differ
    doc = make_doc([(f"w{i}", 0.1 * i, 0.1, 0.1 * i + 0.05, 0.12) for i in range(5)])
    truth = LabelSet("truth")
    truth.set_label(doc.doc_id, 0, 1)
    truth.set_label(doc.doc_id, 1, 1)
    truth.set_label(doc.doc_id, 2, 2)
    truth.set_label(doc.doc_id, 4, 2)
    labels = LabelSet("bootstrap")
    labels.set_label(doc.doc_id, 0, 1)  # hit
    labels.set_label(doc.doc_id, 2, 1)  # wrong class
    labels.set_label(doc.doc_id, 3, 2)  # spurious
    report = corruption_report([doc], truth, labels)
    assert report["labeled_words"] == 3
    assert report["true_words"] == 4
    assert report["word_precision"] == pytest.approx(1 / 3)
    assert report["word_recall"] == pytest.approx(1 / 4)
    assert report["word_f1"] == pytest.approx(2 / 7)


def test_corruption_report_empty_labels():
    doc = make_doc([("a", 0.1, 0.1, 0.15, 0.12)])
    truth = LabelSet("truth")
    truth.set_label(doc.doc_id, 0, 1)
    labels = LabelSet("bootstrap")
    labels.add_document(doc.doc_id)
    report = corruption_report([doc], truth, labels)
    assert report["word_precision"] == 0.0
    assert report["word_recall"] == 0.0
    assert report["word_f1"] == 0.0


def test_corruption_report_requires_coverage():
    doc = make_doc([("a", 0.1, 0.1, 0.15, 0.12)])
    truth = LabelSet("truth")
    truth.set_label(doc.doc_id, 0, 1)
    with pytest.raises(ValidationError):
        corruption_report([doc], truth, LabelSet("bootstrap"))
