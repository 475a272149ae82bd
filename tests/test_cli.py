"""Command-line behavior: exit codes, config precedence, file round-trips."""

import inspect
import json
import logging
import os
from dataclasses import fields

import pytest

from ffrg.bootstrap import RuleParams, bootstrap_corpus
from ffrg.cli import (
    _COMMANDS, _REQUIRED, _doc_svg, _flag, _option_type, _resolve, build_parser, field_status,
    main,
)
from ffrg.docmodel import (
    BBox, Document, Word, default_invoice_schema, read_annotations, read_documents, read_labels,
)
from ffrg.features import featurize, featurize_corpus
from ffrg.grouping import EPS_SCALE
from ffrg.model import load_model
from ffrg.progressive import TrainConfig, ensemble_predict, extract_corpus, extract_values, train
from ffrg.synth import PRESETS, corruption_report, generate, preset_config


def run(*argv):
    return main(list(argv))


# --- exit codes -------------------------------------------------------------

def test_no_command_prints_usage_and_fails(capsys):
    assert run() == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--bogus")
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_missing_required_option_is_a_usage_error(tmp_path):
    assert run("synth", "--out-docs", str(tmp_path / "d.jsonl")) == 1  # no gold path


# each command's required options, in the order a missing one is named
_REQUIRED_FLAGS = {
    "synth": ["--out-docs", "--out-gold"],
    "group": ["--in", "--out"],
    "bootstrap": ["--docs", "--out"],
    "train": ["--docs", "--labels", "--out"],
    "extract": ["--model", "--docs", "--out"],
    "eval": ["--pred", "--gold", "--report"],
    "inspect": ["--pred", "--gold", "--out"],
}


@pytest.mark.parametrize("command", sorted(_REQUIRED_FLAGS))
def test_the_first_missing_required_option_is_named_before_anything_runs(
        tmp_path, caplog, command):
    flags = _REQUIRED_FLAGS[command]
    assert [_flag(k) for k, d in _COMMANDS[command][2].items() if d is _REQUIRED] == flags
    for k, missing in enumerate(flags):
        caplog.clear()
        given = [arg for flag in flags[:k] for arg in (flag, str(tmp_path / flag[2:]))]
        assert run(command, *given) == 1
        assert caplog.messages == [f"missing required option {missing}"]
    assert os.listdir(tmp_path) == []


def test_a_config_error_is_named_before_a_missing_required_option(tmp_path, caplog):
    (tmp_path / "cfg.json").write_text(json.dumps({"bogus": 1}))
    assert run("synth", "--config", str(tmp_path / "cfg.json")) == 1
    assert len(caplog.messages) == 1 and "unknown keys ['bogus']" in caplog.messages[0]


def test_missing_input_file_is_an_io_error(tmp_path):
    code = run(
        "eval",
        "--pred", str(tmp_path / "absent.jsonl"),
        "--gold", str(tmp_path / "also-absent.jsonl"),
        "--report", str(tmp_path / "r.json"),
    )
    assert code == 2


_FLOAT_OPTIONS = [
    (command, key)
    for command, (_, _, defaults) in _COMMANDS.items()
    for key, default in defaults.items()
    if _option_type(default) is float
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command,key", _FLOAT_OPTIONS)
def test_non_finite_float_flag_is_a_usage_error(command, key, value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(command, f"{_flag(key)}={value}")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"invalid finite float value: {value!r}" in err
    assert "Traceback" not in err


def test_finite_float_flags_still_parse():
    args = build_parser().parse_args(["pipeline", "--lr", "3e-3", "--beta=-0.0"])
    assert (args.lr, args.beta) == (3e-3, 0.0)
    assert len(_FLOAT_OPTIONS) == 11


def test_a_float_flag_that_is_no_number_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("train", "--docs", str(tmp_path / "d.jsonl"), "--labels", str(tmp_path / "l.jsonl"),
            "--out", str(tmp_path / "m.ffrg"), "--lr", "abc")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "invalid finite float value: 'abc'" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# --- synth / group / bootstrap round trip ------------------------------------

@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-synth")
    code = main([
        "synth", "--preset", "clean", "--n", "6", "--seed", "3",
        "--out-docs", str(d / "docs.jsonl"),
        "--out-gold", str(d / "gold.jsonl"),
        "--out-truth", str(d / "truth.jsonl"),
    ])
    assert code == 0
    return d


def test_synth_writes_parseable_corpus(synth_dir):
    docs = read_documents(str(synth_dir / "docs.jsonl"))
    assert len(docs) == 6
    gold = read_annotations(str(synth_dir / "gold.jsonl"))
    assert set(gold) == {d.doc_id for d in docs}
    truth = read_labels(str(synth_dir / "truth.jsonl"))
    assert truth.provenance == "truth"


def test_synth_defaults_to_the_clean_preset(synth_dir, tmp_path):
    names = ("docs.jsonl", "gold.jsonl", "truth.jsonl")
    docs, gold, truth = (str(tmp_path / name) for name in names)
    assert run(
        "synth", "--n", "6", "--seed", "3",
        "--out-docs", docs, "--out-gold", gold, "--out-truth", truth,
    ) == 0
    for name in names:
        assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


def test_group_attaches_phrases(synth_dir, tmp_path):
    out = tmp_path / "grouped.jsonl"
    assert run("group", "--in", str(synth_dir / "docs.jsonl"), "--out", str(out)) == 0
    grouped = read_documents(str(out))
    assert all(d.phrases for d in grouped)


@pytest.mark.parametrize("flag,config", [
    (["--eps-scale", "0"], None), (["--eps-scale=-1"], None), ([], {"eps_scale": 0}),
])
def test_group_rejects_an_eps_scale_that_is_not_positive(synth_dir, tmp_path, flag, config,
                                                         capsys, caplog):
    argv = ["group", "--in", str(synth_dir / "docs.jsonl"), "--out", str(tmp_path / "g.jsonl")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(*argv, *flag) == 1
    assert "eps_scale must be positive and finite" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "g.jsonl").exists()


def test_group_refuses_a_zero_eps_scale_on_a_file_of_no_documents(tmp_path, caplog):
    (tmp_path / "empty.jsonl").write_text("")
    out = tmp_path / "g.jsonl"
    assert run("group", "--eps-scale", "0", "--in", str(tmp_path / "empty.jsonl"),
               "--out", str(out)) == 1
    assert "eps_scale must be positive and finite" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("field", ["text", "doc_id"])
def test_group_refuses_a_lone_surrogate_and_writes_nothing(synth_dir, tmp_path, field,
                                                           capsys, caplog):
    lines = (synth_dir / "docs.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[1])
    if field == "text":
        rec["words"][2]["text"] = "a\ud800"
    else:
        rec["doc_id"] = "d\udfff"
    lines[1] = json.dumps(rec)  # ensure_ascii writes the surrogate as a \u escape
    assert "\\ud800" in lines[1] or "\\udfff" in lines[1]
    (tmp_path / "docs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "g.jsonl"
    assert run("group", "--in", str(tmp_path / "docs.jsonl"), "--out", str(out)) == 1
    assert "line 2: not UTF-8 text" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_bootstrap_refuses_a_word_twice_in_one_phrase(synth_dir, tmp_path, caplog):
    lines = (synth_dir / "docs.jsonl").read_text().splitlines()
    rec = json.loads(lines[1])
    rec["phrases"] = [{"word_ids": [0, 1, 0]}]
    lines[1] = json.dumps(rec)
    docs = tmp_path / "docs.jsonl"
    docs.write_text("\n".join(lines) + "\n")
    assert run("bootstrap", "--docs", str(docs), "--out", str(tmp_path / "l.jsonl")) == 1
    assert "line 2: document" in caplog.text and "word 0 is listed twice" in caplog.text
    assert not (tmp_path / "l.jsonl").exists()


def test_bootstrap_emits_labels_and_values(synth_dir, tmp_path):
    labels_path = tmp_path / "labels.jsonl"
    values_path = tmp_path / "values.jsonl"
    code = run(
        "bootstrap", "--docs", str(synth_dir / "docs.jsonl"),
        "--out", str(labels_path), "--values", str(values_path),
    )
    assert code == 0
    labels = read_labels(str(labels_path))
    assert labels.provenance == "bootstrap"
    assert len(labels.doc_ids()) == 6
    values = read_annotations(str(values_path))
    assert any(values.values())


# --- two outputs of one command may not name one file ------------------------

def _refused_before_reading(tmp_path, caplog, argv, kept, message):
    """argv names no input that exists, so a refusal after reading would
    exit 2; the pre-existing output kept keeps its bytes."""
    kept.write_bytes(b"written before\n")
    before = sorted(os.listdir(tmp_path))
    assert run(*argv) == 1
    assert message in caplog.text
    assert kept.read_bytes() == b"written before\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_synth_refuses_docs_and_gold_in_one_file(tmp_path, caplog):
    out = tmp_path / "x.jsonl"
    # a symlink names the same file by another path
    (tmp_path / "link.jsonl").symlink_to(out)
    _refused_before_reading(
        tmp_path, caplog, ["synth", "--schema", str(tmp_path / "absent.json"),
                           "--out-docs", str(out), "--out-gold", str(tmp_path / "link.jsonl")],
        out, "--out-docs and --out-gold name the same file")


def test_bootstrap_refuses_labels_and_values_in_one_file(tmp_path, caplog):
    out = tmp_path / "l.jsonl"
    same = tmp_path / "sub" / ".." / "l.jsonl"
    _refused_before_reading(
        tmp_path, caplog, ["bootstrap", "--docs", str(tmp_path / "absent.jsonl"),
                           "--out", str(out), "--values", str(same)],
        out, "--out and --values name the same file")


def test_train_refuses_a_checkpoint_named_like_refined_labels(tmp_path, caplog):
    out = tmp_path / "r2.jsonl"
    _refused_before_reading(
        tmp_path, caplog, ["train", "--docs", str(tmp_path / "absent.jsonl"),
                           "--labels", str(tmp_path / "absent-labels.jsonl"),
                           "--out", str(out), "--refined-out", str(tmp_path / "r")],
        out, "--out and --refined-out name the same file")
    # with two branches there is no r3.jsonl to collide with
    assert run("train", "--docs", str(tmp_path / "absent.jsonl"),
               "--labels", str(tmp_path / "absent-labels.jsonl"), "--branches", "2",
               "--out", str(tmp_path / "r3.jsonl"), "--refined-out", str(tmp_path / "r")) == 2


def test_extract_refuses_values_and_overlay_in_one_file(tmp_path, caplog):
    out = tmp_path / "v.jsonl"
    _refused_before_reading(
        tmp_path, caplog, ["extract", "--model", str(tmp_path / "absent.ffrg"),
                           "--docs", str(tmp_path / "absent.jsonl"),
                           "--out", str(out), "--overlay", str(out)],
        out, "--out and --overlay name the same file")


def test_group_may_rewrite_its_input_in_place(synth_dir, tmp_path):
    # group reads every document before it writes
    docs = tmp_path / "d.jsonl"
    docs.write_bytes((synth_dir / "docs.jsonl").read_bytes())
    assert run("group", "--in", str(docs), "--out", str(tmp_path / "apart.jsonl")) == 0
    assert run("group", "--in", str(docs), "--out", str(docs)) == 0
    assert docs.read_bytes() == (tmp_path / "apart.jsonl").read_bytes()


@pytest.mark.parametrize("command,flag", [
    ("extract", "--out"), ("extract", "--overlay"), ("inspect", "--out"),
])
def test_svg_files_join_the_collision_refusal(trained_dir, synth_dir, tmp_path, command, flag,
                                              caplog):
    # an SVG path is known once the documents are read, so the refusal
    # comes after reading (a missing --docs exits 2) and before any write
    svg = tmp_path / "svg"
    svg.mkdir()
    kept = svg / "synth-3-00001.svg"
    kept.write_bytes(b"written before\n")
    outputs = {"--out": str(tmp_path / "out.jsonl"), flag: str(kept)}
    gold = str(synth_dir / "gold.jsonl")
    argv = {
        "extract": ["extract", "--model", str(trained_dir / "model.ffrg")],
        "inspect": ["inspect", "--pred", gold, "--gold", gold],
    }[command] + [arg for pair in outputs.items() for arg in pair] + ["--svg", str(svg)]
    assert run(*argv, "--docs", str(tmp_path / "absent.jsonl")) == 2
    assert run(*argv, "--docs", str(synth_dir / "docs.jsonl")) == 1
    assert f"{flag} and --svg name the same file {kept}" in caplog.text
    assert kept.read_bytes() == b"written before\n"
    assert os.listdir(svg) == [kept.name]
    assert sorted(os.listdir(tmp_path)) == ["svg"]


# --- train / extract / eval ---------------------------------------------------

@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    d = tmp_path_factory.mktemp("cli-train")
    labels = d / "labels.jsonl"
    assert main([
        "bootstrap", "--docs", str(synth_dir / "docs.jsonl"), "--out", str(labels),
    ]) == 0
    code = main([
        "train", "--docs", str(synth_dir / "docs.jsonl"),
        "--labels", str(labels), "--out", str(d / "model.ffrg"),
        "--branches", "2", "--epochs-step1", "1", "--epochs-step2", "1",
        "--hidden", "8", "--branch-hidden", "6", "--seed", "1",
        "--refined-out", str(d / "refined-"),
    ])
    assert code == 0
    return d


def test_train_saves_model_and_refined_labels(trained_dir):
    assert (trained_dir / "model.ffrg").exists()
    r1 = read_labels(str(trained_dir / "refined-1.jsonl"))
    r2 = read_labels(str(trained_dir / "refined-2.jsonl"))
    assert r1.provenance == "refined@branch_1"
    assert r2.provenance == "refined@branch_2"


def test_extract_then_eval(trained_dir, synth_dir, tmp_path):
    values = tmp_path / "values.jsonl"
    code = run(
        "extract", "--model", str(trained_dir / "model.ffrg"),
        "--docs", str(synth_dir / "docs.jsonl"), "--out", str(values),
    )
    assert code == 0
    report = tmp_path / "report.json"
    code = run(
        "eval", "--pred", str(values), "--gold", str(synth_dir / "gold.jsonl"),
        "--report", str(report), "--per-field",
    )
    assert code == 0
    blob = json.loads(report.read_text())
    assert set(blob) >= {"macro_precision", "macro_recall", "macro_f1", "fields"}


@pytest.mark.parametrize("threshold, code", [("-1.0", 1), ("2.0", 1), ("0.0", 0), ("1.0", 0)])
def test_extract_threshold_must_lie_in_unit_interval(
    trained_dir, synth_dir, tmp_path, threshold, code, capsys, caplog
):
    values = tmp_path / "values.jsonl"
    assert run(
        "extract", "--model", str(trained_dir / "model.ffrg"),
        "--docs", str(synth_dir / "docs.jsonl"), "--out", str(values),
        f"--threshold={threshold}",
    ) == code
    assert values.exists() == (code == 0)
    assert ("must lie in [0,1]" in caplog.text) == (code == 1)
    assert "Traceback" not in capsys.readouterr().err


def test_extract_threshold_is_checked_without_documents(trained_dir, tmp_path, caplog):
    empty = tmp_path / "docs.jsonl"
    empty.write_text("")
    values = tmp_path / "values.jsonl"
    assert run(
        "extract", "--model", str(trained_dir / "model.ffrg"), "--docs", str(empty),
        "--out", str(values), "--threshold=2.0",
    ) == 1
    assert "must lie in [0,1]" in caplog.text and not values.exists()


def test_extract_overlay_and_svg(trained_dir, synth_dir, tmp_path):
    overlay = tmp_path / "overlay.jsonl"
    svg_dir = tmp_path / "svg"
    code = run(
        "extract", "--model", str(trained_dir / "model.ffrg"),
        "--docs", str(synth_dir / "docs.jsonl"), "--out", str(tmp_path / "v.jsonl"),
        "--overlay", str(overlay), "--svg", str(svg_dir),
    )
    assert code == 0
    rows = [json.loads(line) for line in overlay.read_text().splitlines()]
    assert len(rows) == 6
    assert all({"doc_id", "predictions", "fields"} <= set(r) for r in rows)
    svgs = list(svg_dir.glob("*.svg"))
    assert len(svgs) == 6
    assert svgs[0].read_text().startswith("<svg")


def test_extract_takes_one_ensemble_pass_per_document(trained_dir, synth_dir, tmp_path,
                                                      monkeypatch):
    # the values and the overlay classes read the same probability rows
    calls = []

    def counted(params, x):
        calls.append(x.shape[0])
        return ensemble_predict(params, x)

    for name in ("ffrg.cli.ensemble_predict", "ffrg.progressive.ensemble_predict"):
        monkeypatch.setattr(name, counted)
    overlay = tmp_path / "overlay.jsonl"
    assert run(
        "extract", "--model", str(trained_dir / "model.ffrg"),
        "--docs", str(synth_dir / "docs.jsonl"), "--out", str(tmp_path / "v.jsonl"),
        "--overlay", str(overlay), "--svg", str(tmp_path / "svg"),
    ) == 0
    docs = read_documents(str(synth_dir / "docs.jsonl"))
    assert calls == [len(doc.words) for doc in docs]
    params = load_model(str(trained_dir / "model.ffrg"), default_invoice_schema())
    rows = [json.loads(line) for line in overlay.read_text().splitlines()]
    for doc, row in zip(docs, rows):
        classes = ensemble_predict(params, featurize(doc)).argmax(axis=1).tolist()
        assert row["predictions"] == [[w, c] for w, c in enumerate(classes) if c > 0]


def test_train_rejects_label_for_missing_word(synth_dir, tmp_path, capsys, caplog):
    labels = tmp_path / "labels.jsonl"
    assert run("bootstrap", "--docs", str(synth_dir / "docs.jsonl"), "--out", str(labels)) == 0
    rows = [json.loads(line) for line in labels.read_text().splitlines()]
    rows[0]["labels"].append([999, 1])
    labels.write_text("".join(json.dumps(r) + "\n" for r in rows))
    code = run(
        "train", "--docs", str(synth_dir / "docs.jsonl"), "--labels", str(labels),
        "--out", str(tmp_path / "model.ffrg"), "--branches", "1",
        "--epochs-step1", "1", "--hidden", "8",
    )
    assert code in (1, 2)
    assert "missing word 999" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "model.ffrg").exists()


@pytest.mark.parametrize("flag", ["--hidden", "--branch-hidden"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_train_rejects_an_empty_layer(trained_dir, synth_dir, tmp_path, flag, value, capsys, caplog):
    code = run(
        "train", "--docs", str(synth_dir / "docs.jsonl"),
        "--labels", str(trained_dir / "labels.jsonl"), "--out", str(tmp_path / "model.ffrg"),
        "--branches", "2", "--epochs-step1", "1", "--epochs-step2", "1", flag, value,
    )
    assert code == 1
    name = flag[2:].replace("-", "_")
    assert f"{name} must be at least 1" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "model.ffrg").exists()


@pytest.mark.parametrize("value", ["0", "-0.0", "-0.01"])
def test_pipeline_rejects_a_learning_rate_that_is_not_positive(tmp_path, value, capsys, caplog):
    # Adam at lr < 0 climbs the loss and at lr 0 never moves, yet both ran to exit 0
    code = run(
        "pipeline", "--preset", "clean", "--n", "6", "--seed", "0", "--branches", "2",
        "--epochs-step1", "1", "--epochs-step2", "1", f"--lr={value}",
        "--workdir", str(tmp_path / "w"),
    )
    assert code == 1
    assert "learning rate must be positive" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize("flags,config,message", [
    (["--branches", "0"], None, "need at least one branch"),
    (["--epochs-step2", "0"], None, "epochs and batch size must be positive"),
    (["--n", "-1"], None, "n_docs must be non-negative"),
    ([], {"preset": "nope"}, "unknown preset 'nope'"),
], ids=["branches", "epochs", "n", "preset"])
def test_pipeline_checks_its_options_before_writing(tmp_path, flags, config, message, caplog):
    # a refused option used to leave synthesis, the bootstrap and their files behind
    argv = ["pipeline", "--n", "6", "--workdir", str(tmp_path / "w"), *flags]
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert run(*argv) == 1
    assert message in caplog.text
    assert not (tmp_path / "w").exists()


def test_pipeline_logs_stage_losses_and_anchors(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="ffrg")
    code = run(
        "pipeline", "--preset", "clean", "--n", "6", "--seed", "2", "--branches", "2",
        "--epochs-step1", "2", "--epochs-step2", "1", "--workdir", str(tmp_path / "w"),
    )
    assert code == 0
    assert "pipeline: stage 1 loss" in caplog.text and "over 2 epochs" in caplog.text
    assert "pipeline: stage 2 loss" in caplog.text and "over 1 epoch" in caplog.text
    for k in (1, 2):
        assert f"pipeline: branch {k} kept " in caplog.text
    assert "anchors" in caplog.text


def test_pipeline_logs_each_branch_refined_word_precision_and_recall(tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="ffrg")
    w = lambda name: str(tmp_path / "w" / name)
    schedule = ("--branches", "3", "--epochs-step1", "2", "--epochs-step2", "2", "--seed", "1")
    assert run("pipeline", "--preset", "noisy-bench", "--n", "8", *schedule,
               "--workdir", w("")) == 0
    lines = [r.getMessage() for r in caplog.records if " anchors in " in r.getMessage()]
    # the staged train writes the refined labels the pipeline logged
    assert run("train", "--docs", w("docs.jsonl"), "--labels", w("labels.jsonl"), *schedule,
               "--out", str(tmp_path / "model.ffrg"),
               "--refined-out", str(tmp_path / "refined")) == 0
    docs, truth = read_documents(w("docs.jsonl")), read_labels(w("truth.jsonl"))
    assert len(lines) == 3
    for k, line in enumerate(lines, start=1):
        noise = corruption_report(docs, truth, read_labels(str(tmp_path / f"refined{k}.jsonl")))
        assert line.startswith(f"pipeline: branch {k} kept ")
        assert line.endswith(f" word P={noise['word_precision']:.4f} R={noise['word_recall']:.4f}")


def test_threads_argument_is_accepted_and_changes_nothing(tmp_path):
    # callers that still pass threads=1 (or pipeline --threads 1) get the
    # same outputs as callers that leave it out
    schema = default_invoice_schema()
    cfg = TrainConfig(n_branches=2, epochs_step1=1, epochs_step2=1)

    def corpus(**kw):
        docs, gold, truth = generate(preset_config("noisy-bench", 6, 3), schema, **kw)
        labels, values = bootstrap_corpus(docs, schema, **kw)
        features = featurize_corpus(docs, *kw.values())  # positional, as (docs, 1)
        result = train(docs, labels, schema, cfg, features, **kw)
        extracted = extract_corpus(result.params, docs, schema, features, **kw)
        return (docs, gold, truth, labels, values, [f.tobytes() for f in features],
                result.params.flat.tobytes(), result.refined, result.stage_losses, extracted)

    assert corpus(threads=1) == corpus()

    def pipeline(name, *extra):
        workdir = tmp_path / name
        argv = ["pipeline", "--preset", "noisy-bench", "--n", "6", "--branches", "2",
                "--epochs-step1", "1", "--epochs-step2", "1", "--workdir", str(workdir)]
        assert run(*argv, *extra) == 0
        return {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}

    assert pipeline("flag", "--threads", "1") == pipeline("plain")


# --- the staged commands write the pipeline's bytes ---------------------------

_CHAIN = ("--epochs-step1", "2", "--epochs-step2", "3")


@pytest.fixture(scope="module")
def pipeline_bytes(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("chain-pipeline")
    assert main(["pipeline", "--preset", "noisy-bench", "--n", "60", "--seed", "3",
                 *_CHAIN, "--workdir", str(workdir)]) == 0
    return workdir


@pytest.mark.parametrize("grouped", [False, True], ids=["words", "grouped"])
def test_staged_commands_write_the_pipeline_bytes(pipeline_bytes, tmp_path, grouped):
    p = lambda name: str(tmp_path / name)
    assert run("synth", "--preset", "noisy-bench", "--n", "60", "--seed", "3",
               "--out-docs", p("docs.jsonl"), "--out-gold", p("gold.jsonl")) == 0
    docs = p("docs.jsonl")
    if grouped:
        assert run("group", "--in", docs, "--out", p("grouped.jsonl")) == 0
        docs = p("grouped.jsonl")
    assert run("bootstrap", "--docs", docs, "--out", p("labels.jsonl"),
               "--values", p("rule_values.jsonl")) == 0
    assert run("train", "--docs", docs, "--labels", p("labels.jsonl"),
               "--out", p("model.ffrg"), "--seed", "3", *_CHAIN) == 0
    assert run("extract", "--model", p("model.ffrg"), "--docs", docs,
               "--out", p("values.jsonl")) == 0
    assert run("eval", "--pred", p("values.jsonl"), "--gold", p("gold.jsonl"),
               "--report", p("report.json")) == 0
    for name in ("labels.jsonl", "rule_values.jsonl", "model.ffrg", "values.jsonl",
                 "report.json"):
        assert (tmp_path / name).read_bytes() == (pipeline_bytes / name).read_bytes(), name


def test_extract_rejects_truncated_model(trained_dir, synth_dir, tmp_path, capsys, caplog):
    blob = (trained_dir / "model.ffrg").read_bytes()
    for size in (40, len(blob) - 3):
        cut = tmp_path / f"cut{size}.ffrg"
        cut.write_bytes(blob[:size])
        code = run(
            "extract", "--model", str(cut), "--docs", str(synth_dir / "docs.jsonl"),
            "--out", str(tmp_path / "v.jsonl"),
        )
        assert code in (1, 2)
        assert f"{cut}: truncated checkpoint" in caplog.text
        assert "Traceback" not in capsys.readouterr().err


def test_model_schema_guard(trained_dir, synth_dir, tmp_path):
    # a schema with fewer fields cannot serve a checkpoint trained on seven
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps({
        "fields": [
            {"field_id": 1, "name": "inv_number", "keys": ["invoice number"],
             "allowed_types": ["number"]},
        ]
    }))
    code = run(
        "extract", "--model", str(trained_dir / "model.ffrg"),
        "--docs", str(synth_dir / "docs.jsonl"),
        "--out", str(tmp_path / "v.jsonl"), "--schema", str(schema_path),
    )
    assert code == 1


# --- inspect -----------------------------------------------------------------

def test_field_status_classes():
    assert field_status(None, None) is None
    assert field_status("48113", "48113") == "correct"
    assert field_status("48113", None) == "extractor-error"
    assert field_status(None, "48113") == "extractor-error"
    # near-miss text lands in the value-text class, distant text does not
    assert field_status("48113", "48l13") == "value-text-error"
    assert field_status("hello", "48113") == "extractor-error"


def test_inspect_writes_outcomes(synth_dir, tmp_path):
    pred = tmp_path / "pred.jsonl"
    gold_rows = read_annotations(str(synth_dir / "gold.jsonl"))
    doc_id = sorted(gold_rows)[0]
    fields = dict(gold_rows[doc_id])
    some_field = sorted(fields)[0]
    fields[some_field] = "wrong-text"
    pred.write_text(json.dumps({"doc_id": doc_id, "fields": fields}) + "\n")
    out = tmp_path / "inspect.jsonl"
    assert run(
        "inspect", "--pred", str(pred), "--gold", str(synth_dir / "gold.jsonl"),
        "--out", str(out),
    ) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    statuses = {r["status"] for r in rows}
    assert "extractor-error" in statuses  # every other document is all-miss
    assert any(r["doc_id"] == doc_id and r["field"] == some_field for r in rows)


def test_inspect_colors_overlay_predictions(synth_dir, tmp_path):
    doc_id = read_documents(str(synth_dir / "docs.jsonl"))[0].doc_id
    overlay = tmp_path / "overlay.jsonl"
    overlay.write_text(json.dumps({"doc_id": doc_id, "predictions": [[0, 1]]}) + "\n")
    gold = str(synth_dir / "gold.jsonl")
    svgs = []
    for extra in ([], ["--overlay", str(overlay)]):
        svg = tmp_path / f"svg{len(extra)}"
        assert run(
            "inspect", "--pred", gold, "--gold", gold, "--out", str(tmp_path / "o.jsonl"),
            "--docs", str(synth_dir / "docs.jsonl"), "--svg", str(svg), *extra,
        ) == 0
        svgs.append((svg / f"{doc_id}.svg").read_text())
    assert svgs[0] != svgs[1]  # word 0 takes field 1's color


def test_svg_escapes_word_text(tmp_path):
    docs = tmp_path / "docs.jsonl"
    words = [{"text": 'a&b<c>"d', "box": [0.1, 0.1, 0.2, 0.2]}]
    docs.write_text(json.dumps({**_DOC, "words": words}) + "\n")
    values = tmp_path / "values.jsonl"
    values.write_text(json.dumps({"doc_id": "d", "fields": {}}) + "\n")
    assert run("inspect", "--pred", str(values), "--gold", str(values),
               "--out", str(tmp_path / "o.jsonl"), "--docs", str(docs),
               "--svg", str(tmp_path / "svg")) == 0
    svg = (tmp_path / "svg" / "d.svg").read_text()
    assert '>a&amp;b&lt;c&gt;"d</text>' in svg


def test_svg_draws_each_word_box_on_the_page():
    # a page wider than tall, so an x scaled by the height or a y by the
    # width shows; word 1 is filled, word 0 only outlined
    doc = Document("d", 800, 1000, (Word(0, "Total", BBox(0.1, 0.2, 0.25, 0.23)),
                                    Word(1, "$5", BBox(0.5, 0.2, 0.6, 0.25))))
    assert _doc_svg(doc, {1: "#4c78a8"}).splitlines() == [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 1000" width="800" height="1000">',
        '<rect width="800" height="1000" fill="white"/>',
        '<rect x="80.0" y="200.0" width="120.0" height="30.0" fill="none" fill-opacity="0.35"'
        ' stroke="#999999"/>',
        '<text x="80.0" y="229.0" font-size="24.0" font-family="monospace">Total</text>',
        '<rect x="400.0" y="200.0" width="80.0" height="50.0" fill="#4c78a8" fill-opacity="0.35"'
        ' stroke="#4c78a8"/>',
        '<text x="400.0" y="249.0" font-size="40.0" font-family="monospace">$5</text>',
        '</svg>',
    ]


@pytest.mark.parametrize("doc_id", ["../escaped", "sub/escaped", "", ".", ".."])
@pytest.mark.parametrize("command", ["inspect", "extract"])
def test_svg_refuses_a_doc_id_that_is_not_a_file_name(
    trained_dir, tmp_path, command, doc_id, capsys, caplog
):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    docs = inputs / "docs.jsonl"
    docs.write_text(json.dumps({**_DOC, "doc_id": doc_id}) + "\n")
    values = inputs / "values.jsonl"
    values.write_text(json.dumps({"doc_id": doc_id, "fields": {}}) + "\n")
    work = tmp_path / "work"
    work.mkdir()
    argv = {
        "inspect": ["inspect", "--pred", str(values), "--gold", str(values)],
        "extract": ["extract", "--model", str(trained_dir / "model.ffrg")],
    }[command]
    assert run(*argv, "--docs", str(docs), "--out", str(work / "out.jsonl"),
               "--svg", str(work / "svg")) == 1
    assert f"doc_id {doc_id!r} is not a file name" in caplog.text
    assert list(work.iterdir()) == []  # no output, no SVG directory, nothing beside it
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("with_docs", [False, True])
def test_inspect_checks_its_svg_inputs_before_writing(synth_dir, tmp_path, with_docs, caplog):
    # without --docs, or with a malformed overlay, inspect fails and writes nothing
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"doc_id": "d", "predictions": "x"}) + "\n")
    extra = ["--docs", str(synth_dir / "docs.jsonl"), "--overlay", str(bad)] if with_docs else []
    gold = str(synth_dir / "gold.jsonl")
    out = tmp_path / "out.jsonl"
    assert run("inspect", "--pred", gold, "--gold", gold, "--out", str(out),
               "--svg", str(tmp_path / "svg"), *extra) == 1
    assert ("overlay line 1" if with_docs else "--svg requires --docs") in caplog.text
    assert not out.exists() and not (tmp_path / "svg").exists()


@pytest.mark.parametrize("overlay", ["exists", "missing"])
def test_inspect_refuses_an_overlay_without_svg(synth_dir, tmp_path, overlay, capsys, caplog):
    path = tmp_path / "overlay.jsonl"
    if overlay == "exists":
        path.write_text(json.dumps({"doc_id": "d", "predictions": [[0, 1]]}) + "\n")
    gold = str(synth_dir / "gold.jsonl")
    out = tmp_path / "out.jsonl"
    assert run("inspect", "--pred", gold, "--gold", gold, "--out", str(out),
               "--docs", str(synth_dir / "docs.jsonl"), "--overlay", str(path)) == 1
    assert "--overlay requires --svg" in caplog.text
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("docs", ["exists", "missing"])
def test_inspect_refuses_docs_without_svg(synth_dir, tmp_path, docs, capsys, caplog):
    # without --svg the documents would never be read, even when missing
    path = synth_dir / "docs.jsonl" if docs == "exists" else tmp_path / "missing.jsonl"
    gold = str(synth_dir / "gold.jsonl")
    out = tmp_path / "out.jsonl"
    assert run("inspect", "--pred", gold, "--gold", gold, "--out", str(out),
               "--docs", str(path)) == 1
    assert "--docs requires --svg" in caplog.text
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


# --- config files -------------------------------------------------------------

def test_config_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "seed": 5, "preset": "clean"}))
    out_docs = tmp_path / "a.jsonl"
    assert run(
        "synth", "--config", str(cfg),
        "--out-docs", str(out_docs), "--out-gold", str(tmp_path / "ag.jsonl"),
    ) == 0
    assert len(read_documents(str(out_docs))) == 3

    out_docs2 = tmp_path / "b.jsonl"
    assert run(
        "synth", "--config", str(cfg), "--n", "2",
        "--out-docs", str(out_docs2), "--out-gold", str(tmp_path / "bg.jsonl"),
    ) == 0
    assert len(read_documents(str(out_docs2))) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_docs": 3}))
    code = run(
        "synth", "--config", str(cfg),
        "--out-docs", str(tmp_path / "d.jsonl"),
        "--out-gold", str(tmp_path / "g.jsonl"),
    )
    assert code == 1


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code = run(
        "synth", "--config", str(cfg),
        "--out-docs", str(tmp_path / "d.jsonl"),
        "--out-gold", str(tmp_path / "g.jsonl"),
    )
    assert code == 1


@pytest.mark.parametrize("cfg", [{"n": "3"}, {"n": None}, {"seed": 1.5}, {"seed": True}])
def test_config_value_of_the_wrong_type_rejected(tmp_path, cfg, capsys, caplog):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = run(
        "synth", "--config", str(path),
        "--out-docs", str(tmp_path / "d.jsonl"), "--out-gold", str(tmp_path / "g.jsonl"),
    )
    assert code == 1
    (key,) = cfg
    assert f"key {key!r} must be int" in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"n": ' + "9" * 5000 + "}", "malformed JSON"),
        ('{"beta": Infinity}', "key 'beta' must be a finite float, got Infinity"),
        ('{"lr": NaN}', "key 'lr' must be a finite float, got NaN"),
        ('{"lr": 1' + "0" * 400 + "}", "key 'lr' must be a finite float"),
    ],
)
def test_unreadable_config_values_name_the_file(tmp_path, text, message, capsys, caplog):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run("pipeline", "--config", str(path)) == 1
    assert f"config file {path}: {message}" in caplog.text
    assert "Traceback" not in capsys.readouterr().err


def test_option_defaults_equal_the_config_defaults():
    # an option that mirrors a config field must default to that field's default
    train_defaults = {f.name: f.default for f in fields(TrainConfig)}
    train_defaults["branches"] = train_defaults.pop("n_branches")
    mirrored = {
        "bootstrap": {f.name: f.default for f in fields(RuleParams)},
        "group": {"eps_scale": EPS_SCALE},
        "train": train_defaults,
        "pipeline": train_defaults,
    }
    pinned = 0
    for command, config_defaults in mirrored.items():
        defaults = _COMMANDS[command][2]
        for key, value in config_defaults.items():
            if key in defaults:
                assert defaults[key] == value and type(defaults[key]) is type(value), (command, key)
                pinned += 1
    assert pinned == 4 + 1 + 10 + 6
    for command in ("train", "pipeline"):
        assert _COMMANDS[command][2]["single_step"] is not TrainConfig().two_step
    threshold = _COMMANDS["extract"][2]["threshold"]
    for fn in (extract_values, extract_corpus):
        assert inspect.signature(fn).parameters["threshold"].default == threshold


# A value of each option type, as JSON and as typed on the command line; the
# float sample is a JSON integer, which must resolve to the float its flag gives.
_SAMPLES = {int: (3, "3"), float: (2, "2"), str: ("x", "x"), bool: (True, None)}


@pytest.mark.parametrize(
    "command,key",
    [(c, k) for c, (_, _, defaults) in _COMMANDS.items() for k in defaults],
)
def test_config_key_and_flag_resolve_alike(tmp_path, command, key):
    defaults = _COMMANDS[command][2]
    as_json, as_text = _SAMPLES[_option_type(defaults[key])]
    if key == "preset":
        as_json = as_text = sorted(PRESETS)[0]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: as_json}))
    argv = [command, _flag(key)] + ([as_text] if as_text is not None else [])
    by_flag = _resolve(build_parser().parse_args(argv), defaults)[key]
    by_config = _resolve(build_parser().parse_args([command, "--config", str(cfg)]), defaults)[key]
    assert by_flag == by_config
    assert type(by_flag) is type(by_config)


# --- malformed input rows -----------------------------------------------------

_DOC = {"doc_id": "d", "page_width": 100, "page_height": 100,
        "words": [{"text": "a", "box": [0.1, 0.1, 0.2, 0.2]}]}
_FIELD = {"field_id": 1, "name": "f", "keys": ["k"], "allowed_types": ["number"]}


@pytest.mark.parametrize(
    "reader,row",
    [
        ("docs", {**_DOC, "words": 5}),
        ("docs", {**_DOC, "page_width": None}),
        ("docs", {**_DOC, "phrases": [{"word_ids": [0, 1]}]}),
        ("docs", {**_DOC, "phrases": [5]}),
        ("labels", {"doc_id": "d", "labels": 5, "provenance": "bootstrap"}),
        ("annotations", 5),
        # numbers past what an int or float conversion takes
        ("docs", {**_DOC, "page_width": float("inf")}),
        ("docs", {**_DOC, "words": [{"text": "a", "box": [0, 0, 10**400, 1]}]}),
        ("labels", {"doc_id": "d", "labels": [[float("inf"), 1]], "provenance": "bootstrap"}),
        ("schema", {"fields": [{**_FIELD, "field_id": float("inf")}]}),
        ("overlay", {"doc_id": "d"}),
        ("overlay", {"predictions": []}),
        ("overlay", {"doc_id": "d", "predictions": 5}),
        ("overlay", {"doc_id": "d", "predictions": [[0]]}),
        ("overlay", {"doc_id": "d", "predictions": [["0", 1]]}),
        ("overlay", {"doc_id": "d", "predictions": [[float("inf"), 1]]}),
        ("overlay", [1]),
        # values a lenient reader would convert: a string for a key list,
        # a float, string or boolean for an id, a non-string name or key
        ("schema", {"fields": [{**_FIELD, "keys": "total"}]}),
        ("schema", {"fields": [{**_FIELD, "keys": [1]}]}),
        ("schema", {"fields": [{**_FIELD, "allowed_types": "number"}]}),
        ("schema", {"fields": [{**_FIELD, "field_id": 1.9}]}),
        ("schema", {"fields": [{**_FIELD, "field_id": "1"}]}),
        ("schema", {"fields": [{**_FIELD, "field_id": True}]}),
        ("schema", {"fields": [{**_FIELD, "name": None}]}),
        ("labels", {"doc_id": "d", "labels": [[0, 1]], "provenance": 5}),
        # bytes that are not UTF-8
        *(pytest.param(reader, b'{"doc_id": "d\xff"}', id=f"{reader}-not-utf8")
          for reader in ("docs", "labels", "annotations", "overlay", "schema")),
        # a lone surrogate from a \u escape, which no writer could encode
        ("labels", {"doc_id": "d\ud800", "labels": [[0, 1]], "provenance": "bootstrap"}),
        ("labels", {"doc_id": "d", "labels": [[0, 1]], "provenance": "boot\udfff"}),
        ("annotations", {"doc_id": "d", "fields": {"total_amount": "12\ud800"}}),
        ("annotations", {"doc_id": "d\udc00", "fields": {}}),
        ("overlay", {"doc_id": "d\ud83d", "predictions": [[0, 1]]}),
        # JSON nested past Python's recursion limit
        *(pytest.param(reader, b'{"doc_id": "d", "fields": ' + b"[" * 5000 + b"]" * 5000 + b"}",
                       id=f"{reader}-too-deep")
          for reader in ("docs", "labels", "annotations", "overlay", "schema")),
    ],
)
def test_malformed_row_exits_one_without_traceback(tmp_path, reader, row, capsys, caplog):
    good_docs = tmp_path / "good.jsonl"
    good_docs.write_text(json.dumps(_DOC) + "\n")
    good_values = tmp_path / "values.jsonl"
    good_values.write_text(json.dumps({"doc_id": "d", "fields": {}}) + "\n")
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(row + b"\n" if isinstance(row, bytes) else (json.dumps(row) + "\n").encode())
    argv = {
        "docs": ["bootstrap", "--docs", str(bad), "--out", str(tmp_path / "l.jsonl")],
        "labels": ["train", "--docs", str(good_docs), "--labels", str(bad),
                   "--out", str(tmp_path / "m.ffrg")],
        "annotations": ["eval", "--pred", str(bad), "--gold", str(bad),
                        "--report", str(tmp_path / "r.json")],
        "schema": ["bootstrap", "--docs", str(good_docs), "--schema", str(bad),
                   "--out", str(tmp_path / "l.jsonl")],
        "overlay": ["inspect", "--pred", str(good_values), "--gold", str(good_values),
                    "--out", str(tmp_path / "o.jsonl"), "--docs", str(good_docs),
                    "--svg", str(tmp_path / "svg"), "--overlay", str(bad)],
    }[reader]
    assert run(*argv) == 1
    assert (f"schema file {bad}" if reader == "schema" else "line 1") in caplog.text
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"name": "tot\ud800"}, {"keys": ["tot\udfff"]}, {"allowed_types": ["number\ud83d"]},
], ids=["name", "key", "allowed_type"])
def test_bootstrap_refuses_a_schema_with_a_lone_surrogate_and_writes_nothing(
        synth_dir, tmp_path, change, capsys, caplog):
    schema = tmp_path / "s.json"
    schema.write_text(json.dumps({"fields": [{**_FIELD, **change}]}))  # as a \u escape
    out, values = tmp_path / "l.jsonl", tmp_path / "v.jsonl"
    assert run("bootstrap", "--docs", str(synth_dir / "docs.jsonl"), "--schema", str(schema),
               "--out", str(out), "--values", str(values)) == 1
    assert f"schema file {schema}: not UTF-8 text" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists() and not values.exists()


@pytest.mark.parametrize("content", [
    pytest.param(json.dumps({"out_gold": "g\ud800.jsonl"}).encode(), id="escape-in-a-value"),
    pytest.param(json.dumps({"n\udc00": 3}).encode(), id="escape-in-a-key"),
    pytest.param(b'{"out_gold": "g\xff.jsonl"}', id="not-utf8"),
])
def test_synth_refuses_a_config_that_is_not_utf8_and_writes_nothing(
        tmp_path, content, capsys, caplog):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert run("synth", "--config", str(cfg), "--n", "2",
               "--out-docs", str(tmp_path / "d.jsonl")) == 1
    assert f"config file {cfg}: not UTF-8 text" in caplog.text
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]
