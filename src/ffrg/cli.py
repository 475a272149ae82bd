"""Command-line pipeline: synth, group, bootstrap, train, extract, eval,
inspect, and an end-to-end pipeline command.

Conventions: all logs go to standard error; data goes to files (the
pipeline command additionally prints its evaluation report to standard
output).  Exit codes: 0 success, 1 validation/usage error, 2 I/O error.
Every subcommand accepts --config pointing at a JSON object whose keys
mirror the long flag names (underscored); explicit flags win, and
unknown config keys and values not of the flag's type are rejected.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import fields
from typing import Any, Callable, Iterable
from xml.sax.saxutils import escape

from . import bootstrap as bs
from . import docmodel as dm
from .evaluation import corruption_report, field_pairs, field_status, score, write_report
from .features import featurize, featurize_corpus
from .grouping import EPS_SCALE, check_eps_scale, group_document
from .model import load_model, save_model
from .progressive import (
    TrainConfig, check_threshold, ensemble_predict, extract_corpus, train, values_from_probs,
)
from .synth import generate, preset_config, PRESETS

log = logging.getLogger("ffrg")

_FIELD_COLORS = (
    "#4c78a8", "#f58518", "#54a24b", "#b279a2",
    "#e45756", "#72b7b2", "#eeca3b", "#9d755d",
)
_STATUS_COLORS = {
    "correct": "#2e8b57",
    "extractor-error": "#d62728",
    "value-text-error": "#ff8c00",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for I/O errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _load_config(path: str | None, allowed: set[str]) -> dict[str, Any]:
    if path is None:
        return {}
    cfg = dm.read_json_file(path, "config")
    unknown = set(cfg) - allowed
    if unknown:
        raise dm.ValidationError(
            f"config file {path}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return cfg


def _config_value(path: str, key: str, value: Any, type_: type) -> Any:
    """A config value as its flag would parse it: of the flag's type, with a
    JSON integer accepted where a float is expected, and floats finite."""
    if type_ is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not type_ or (type_ is float and not math.isfinite(value)):
        kind = "a finite float" if type_ is float else type_.__name__
        raise dm.ValidationError(
            f"config file {path}: key {key!r} must be {kind}, got {json.dumps(value)}"
        )
    return value


def _resolve(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Flag > config file > built-in default, per option."""
    raw = vars(args)
    cfg = _load_config(raw.get("config"), set(defaults))
    out: dict[str, Any] = {}
    for key, default in defaults.items():
        if raw.get(key) is not None:
            out[key] = raw[key]
        elif key in cfg:
            out[key] = _config_value(raw["config"], key, cfg[key], _option_type(default))
        else:
            out[key] = None if default is _REQUIRED else default
    return out


def _distinct_outputs(opts: dict[str, Any], *keys: str,
                      more: Iterable[tuple[str, str]] = ()) -> None:
    """Refuse two outputs, option keys or (flag, path) pairs of more, that
    name the same file: the later write would silently replace the earlier."""
    seen: dict[str, str] = {}
    for flag, path in [*((_flag(k), opts[k]) for k in keys if opts[k]), *more]:
        real = os.path.realpath(path)
        if real in seen:
            raise dm.ValidationError(f"{seen[real]} and {flag} name the same file {path}")
        seen[real] = flag


def _read_schema_opt(opts: dict[str, Any]) -> dm.FieldSchema:
    if opts.get("schema"):
        return dm.read_schema(opts["schema"])
    return dm.default_invoice_schema()


def _field_color(cls: int) -> str:
    return _FIELD_COLORS[(cls - 1) % len(_FIELD_COLORS)]


def _doc_svg(doc: dm.Document, fills: dict[int, str]) -> str:
    """The document's words as boxes, those in fills filled in their colour."""
    w, h = doc.page_width, doc.page_height
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for wid, (word, (x0, y0, x1, y1)) in enumerate(zip(doc.words, doc.boxes.tolist())):
        x, y = x0 * w, y0 * h
        bw, bh = (x1 - x0) * w, (y1 - y0) * h
        fill = fills.get(wid)
        stroke = fill or "#999999"
        fill = fill or "none"
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bw:.1f}" height="{bh:.1f}" '
            f'fill="{fill}" fill-opacity="0.35" stroke="{stroke}"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{y + bh - 1:.1f}" font-size="{bh * 0.8:.1f}" '
            f'font-family="monospace">{escape(word.text)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def _svg_paths(opts: dict[str, Any], docs: list[dm.Document], *outputs: str) -> list[str]:
    """Each document's SVG path inside --svg, none without it.  A doc_id
    that is no file name, or a path that one of outputs (option keys) also
    names, is refused, so before anything is written."""
    if not opts["svg"]:
        return []
    for doc in docs:
        if doc.doc_id in ("", ".", "..") or os.path.basename(doc.doc_id) != doc.doc_id:
            raise dm.ValidationError(f"--svg: doc_id {doc.doc_id!r} is not a file name")
    paths = [os.path.join(opts["svg"], f"{doc.doc_id}.svg") for doc in docs]
    _distinct_outputs(opts, *outputs, more=(("--svg", path) for path in paths))
    return paths


def _write_svgs(opts: dict[str, Any], paths: list[str], docs: list[dm.Document],
                fills: Callable[[dm.Document], dict[int, str]]) -> None:
    """With --svg, each document's SVG at its path from _svg_paths, in fills(document)."""
    if opts["svg"]:
        os.makedirs(opts["svg"], exist_ok=True)
        for path, doc in zip(paths, docs):
            with open(path, "w", encoding="utf-8") as f:
                f.write(_doc_svg(doc, fills(doc)))


# --- subcommands -----------------------------------------------------------

def _cmd_synth(opts: dict[str, Any]) -> int:
    _distinct_outputs(opts, "out_docs", "out_gold", "out_truth")
    schema = _read_schema_opt(opts)
    cfg = preset_config(opts["preset"], opts["n"], opts["seed"])
    docs, gold, truth = generate(cfg, schema)
    dm.write_documents(opts["out_docs"], docs)
    dm.write_annotations(opts["out_gold"], gold)
    if opts["out_truth"]:
        dm.write_labels(opts["out_truth"], truth)
    log.info("synthesized %d documents to %s", len(docs), opts["out_docs"])
    return 0


def _cmd_group(opts: dict[str, Any]) -> int:
    check_eps_scale(opts["eps_scale"])  # before reading: a file of no documents never reaches it
    docs = dm.read_documents(opts["in_docs"])
    grouped = [group_document(d, opts["eps_scale"]) for d in docs]
    dm.write_documents(opts["out"], grouped)
    n = sum(len(d.phrases or ()) for d in grouped)
    log.info("grouped %d documents into %d phrases", len(grouped), n)
    return 0


def _cmd_bootstrap(opts: dict[str, Any]) -> int:
    _distinct_outputs(opts, "out", "values")
    schema = _read_schema_opt(opts)
    params = bs.RuleParams(**{f.name: opts[f.name] for f in fields(bs.RuleParams)})
    docs = dm.read_documents(opts["docs"])
    labels, values = bs.bootstrap_corpus(docs, schema, params)
    dm.write_labels(opts["out"], labels)
    if opts["values"]:
        dm.write_annotations(opts["values"], values)
    n = sum(len(labels.positives(d)) for d in labels.doc_ids())
    log.info("labeled %d words across %d documents", n, len(docs))
    return 0


def _train_config(opts: dict[str, Any]) -> TrainConfig:
    """TrainConfig from a command's options; TrainConfig's own defaults fill
    the fields the command has no option for."""
    shared = {f.name: opts[f.name] for f in fields(TrainConfig) if f.name in opts}
    return TrainConfig(n_branches=opts["branches"], two_step=not opts["single_step"], **shared)


def _cmd_train(opts: dict[str, Any]) -> int:
    cfg = _train_config(opts)
    refined = [f"{opts['refined_out']}{k}.jsonl"
               for k in range(1, cfg.n_branches + 1)] if opts["refined_out"] else []
    _distinct_outputs(opts, "out", more=(("--refined-out", path) for path in refined))
    schema = _read_schema_opt(opts)
    docs = dm.read_documents(opts["docs"])
    labels = dm.read_labels(opts["labels"])
    result = train(docs, labels, schema, cfg, featurize_corpus(docs))
    save_model(opts["out"], result.params)
    for k, path in enumerate(refined, start=1):
        dm.write_labels(path, result.refined[k])
    log.info(
        "trained %d branches; final stage losses %s",
        cfg.n_branches,
        ["%.4f" % ep[-1] for ep in result.stage_losses],
    )
    return 0


def _cmd_extract(opts: dict[str, Any]) -> int:
    check_threshold(opts["threshold"])
    _distinct_outputs(opts, "out", "overlay")
    schema = _read_schema_opt(opts)
    params = load_model(opts["model"], schema)
    docs = dm.read_documents(opts["docs"])
    svg_paths = _svg_paths(opts, docs, "out", "overlay")
    # values and overlay classes read one probability matrix per document
    values, predictions = {}, {}
    for doc in docs:
        probs = ensemble_predict(params, featurize(doc))
        values[doc.doc_id] = values_from_probs(doc, probs, schema, opts["threshold"])
        predictions[doc.doc_id] = [
            [w, c] for w, c in enumerate(probs.argmax(axis=1).tolist()) if c > 0]
    dm.write_annotations(opts["out"], values)
    if opts["overlay"]:
        dm.write_overlay(opts["overlay"], predictions, values)
    _write_svgs(opts, svg_paths, docs, lambda doc: {
        w: _field_color(c) for w, c in predictions[doc.doc_id]})
    n = sum(len(v) for v in values.values())
    log.info("extracted %d values from %d documents", n, len(docs))
    return 0


def _cmd_eval(opts: dict[str, Any]) -> int:
    schema = _read_schema_opt(opts)
    pred = dm.read_annotations(opts["pred"])
    gold = dm.read_annotations(opts["gold"])
    report = score(pred, gold, schema)
    write_report(opts["report"], report)
    log.info(
        "macro P/R/F1 = %.4f/%.4f/%.4f",
        report.macro_precision, report.macro_recall, report.macro_f1,
    )
    if opts["per_field"]:
        for name, fm in sorted(report.fields.items()):
            log.info("field %-14s P=%.4f R=%.4f F1=%.4f", name, fm.precision, fm.recall, fm.f1)
    return 0


def _cmd_inspect(opts: dict[str, Any]) -> int:
    if opts["svg"] and not opts["docs"]:
        raise dm.ValidationError("--svg requires --docs for word geometry")
    if opts["overlay"] and not opts["svg"]:
        raise dm.ValidationError("--overlay requires --svg")
    if opts["docs"] and not opts["svg"]:
        raise dm.ValidationError("--docs requires --svg")
    schema = _read_schema_opt(opts)
    pred = dm.read_annotations(opts["pred"])
    gold = dm.read_annotations(opts["gold"])
    docs = dm.read_documents(opts["docs"]) if opts["svg"] else []
    svg_paths = _svg_paths(opts, docs, "out")
    overlay = dm.read_overlay(opts["overlay"]) if opts["overlay"] else {}
    counts = {"correct": 0, "extractor-error": 0, "value-text-error": 0}
    # each (doc_id, field_id) outcome's colour, for the SVG pass
    colors: dict[tuple[str, int], str] = {}
    outcomes = []
    for doc_id, field, p, g in field_pairs(pred, gold, schema):
        status = field_status(p, g)
        counts[status] += 1
        colors[doc_id, field.field_id] = _STATUS_COLORS[status]
        outcomes.append({"doc_id": doc_id, "field": field.name, "status": status,
                         "pred": p, "gold": g})
    dm.write_records(opts["out"], outcomes)
    # a predicted word whose field has an outcome takes the outcome's colour
    _write_svgs(opts, svg_paths, docs, lambda doc: {
        w: colors.get((doc.doc_id, c)) or _field_color(c)
        for w, c in overlay.get(doc.doc_id, {}).items() if c > 0})
    log.info(
        "inspect: %d correct, %d extractor errors, %d value-text errors",
        counts["correct"], counts["extractor-error"], counts["value-text-error"],
    )
    return 0


def _cmd_pipeline(opts: dict[str, Any]) -> int:
    # every option is checked before the first file is written
    schema = _read_schema_opt(opts)
    cfg = preset_config(opts["preset"], opts["n"], opts["seed"])
    tcfg = _train_config(opts)
    os.makedirs(opts["workdir"], exist_ok=True)
    p = lambda name: os.path.join(opts["workdir"], name)
    dm.write_schema(p("schema.json"), schema)

    docs, gold, truth = generate(cfg, schema)
    dm.write_documents(p("docs.jsonl"), docs)
    dm.write_annotations(p("gold.jsonl"), gold)
    dm.write_labels(p("truth.jsonl"), truth)
    log.info("pipeline: synthesized %d documents", len(docs))

    labels, rule_values = bs.bootstrap_corpus(docs, schema)
    dm.write_labels(p("labels.jsonl"), labels)
    dm.write_annotations(p("rule_values.jsonl"), rule_values)
    noise = corruption_report(docs, truth, labels)
    log.info(
        "pipeline: rule labels word P=%.4f R=%.4f",
        noise["word_precision"], noise["word_recall"],
    )

    features = featurize_corpus(docs)
    result = train(docs, labels, schema, tcfg, features)
    save_model(p("model.ffrg"), result.params)
    log.info("pipeline: trained %d-branch model", tcfg.n_branches)
    for k, losses in enumerate(result.stage_losses, start=1):
        log.info(
            "pipeline: stage %d loss %.4f -> %.4f over %d epoch%s",
            k, losses[0], losses[-1], len(losses), "" if len(losses) == 1 else "s",
        )
    for k, refined in sorted(result.refined.items()):
        noise = corruption_report(docs, truth, refined)
        kept = noise["labeled_words"]
        log.info(
            "pipeline: branch %d kept %d anchors in %d documents (%.2f per document),"
            " word P=%.4f R=%.4f",
            k, kept, len(docs), kept / len(docs), noise["word_precision"], noise["word_recall"],
        )

    values = extract_corpus(result.params, docs, schema, features)
    dm.write_annotations(p("values.jsonl"), values)

    report = score(values, gold, schema)
    write_report(p("report.json"), report)
    sys.stdout.write(report.to_json() + "\n")
    log.info("pipeline: macro F1 = %.4f", report.macro_f1)
    return 0


# --- argument wiring ---------------------------------------------------------

def _field_options(record: type, *keys: str) -> dict[str, Any]:
    """Options that mirror a config record's fields, all of them or those
    named, with the fields' defaults.  TrainConfig's n_branches is the
    option branches, and its two_step is single_step, negated."""
    out = {}
    for f in fields(record):
        key = {"n_branches": "branches", "two_step": "single_step"}.get(f.name, f.name)
        if not keys or key in keys:
            out[key] = not f.default if key == "single_step" else f.default
    return out


_REQUIRED = object()

# One row per subcommand: runner, help line and option defaults.  An option
# with no default value is _REQUIRED, which resolves to None and which main
# refuses to leave unset, or None, meaning "off".  The keys are the
# config-file vocabulary; each key is also a flag (see _flag), typed by its
# default (see _option_type).  pipeline's first option is parsed and never
# read.
_COMMANDS: dict[str, tuple[Callable[[dict[str, Any]], int], str, dict[str, Any]]] = {
    "synth": (_cmd_synth, "generate a synthetic corpus with gold annotations",
              dict(preset="clean", n=100, seed=0, schema=None,
                   out_docs=_REQUIRED, out_gold=_REQUIRED, out_truth=None)),
    "group": (_cmd_group, "attach density-grouped phrases to documents",
              dict(in_docs=_REQUIRED, out=_REQUIRED, eps_scale=EPS_SCALE)),
    "bootstrap": (_cmd_bootstrap, "mine rule-based pseudo-labels and values",
                  dict(docs=_REQUIRED, schema=None, out=_REQUIRED, values=None,
                       **_field_options(bs.RuleParams))),
    "train": (_cmd_train, "train the multi-branch token classifier",
              dict(docs=_REQUIRED, labels=_REQUIRED, schema=None, out=_REQUIRED,
                   **_field_options(TrainConfig), refined_out=None)),
    "extract": (_cmd_extract, "extract field values with a trained model",
                dict(model=_REQUIRED, docs=_REQUIRED, schema=None, out=_REQUIRED,
                     threshold=0.1, overlay=None, svg=None)),
    "eval": (_cmd_eval, "exact-match evaluation against gold annotations",
             dict(pred=_REQUIRED, gold=_REQUIRED, schema=None, report=_REQUIRED, per_field=False)),
    "inspect": (_cmd_inspect, "per-field outcome report and optional SVG overlays",
                dict(pred=_REQUIRED, gold=_REQUIRED, schema=None, out=_REQUIRED, docs=None,
                     overlay=None, svg=None)),
    "pipeline": (_cmd_pipeline, "synth + bootstrap + train + extract + eval",
                 dict(threads=1, preset="clean", n=100, schema=None, workdir="ffrg-pipeline",
                      **_field_options(TrainConfig, "branches", "beta", "epochs_step1",
                                       "epochs_step2", "seed", "lr", "single_step"))),
}


def _flag(key: str) -> str:
    return "--in" if key == "in_docs" else "--" + key.replace("_", "-")


def _option_type(default: Any) -> type:
    return str if default is None or default is _REQUIRED else type(default)


def _finite_float(text: str) -> float:
    """A float flag's value; nan, infinities and literals past the float
    range are refused, as config files refuse them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="ffrg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_, defaults) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--config", help="JSON config file; flags override")
        for key, default in defaults.items():
            if isinstance(default, bool):
                # default None, not False, so that a config file can set it
                sp.add_argument(_flag(key), dest=key, action="store_true", default=None)
            else:
                type_ = _option_type(default)
                sp.add_argument(
                    _flag(key), dest=key, type=_finite_float if type_ is float else type_,
                    choices=sorted(PRESETS) if key == "preset" else None,
                )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        run, _, defaults = _COMMANDS[args.command]
        opts = _resolve(args, defaults)
        for key, default in defaults.items():
            if default is _REQUIRED and opts[key] is None:
                raise dm.ValidationError(f"missing required option {_flag(key)}")
        return run(opts)
    except (dm.ValidationError, ValueError) as e:
        log.error("%s", e)
        return 1
    except OSError as e:
        log.error("%s", e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
