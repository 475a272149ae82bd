"""Five-seed noisy-bench comparison: rules, K=1, K=3, and ablations.

Each seed draws its own corpus and trains on it, so the reported means
carry generation noise as well as training noise.  Writes a JSON blob
with per-seed numbers next to the printed table when --out is given.

Usage:
    python scripts/run_noisy_bench.py [--n 1000] [--seeds 0 1 2 3 4]
        [--epochs-step1 3] [--epochs-step2 40] [--lr 3e-3]
        [--hidden 64] [--branch-hidden 64] [--out bench.json]
"""

import argparse
import json
import time

import numpy as np

from ffrg.bootstrap import bootstrap_corpus
from ffrg.docmodel import default_invoice_schema
from ffrg.evaluation import score
from ffrg.features import featurize_corpus
from ffrg.progressive import TrainConfig, train, extract_corpus
from ffrg.synth import corruption_report, generate, preset_config


def run(args):
    schema = default_invoice_schema()
    variants = {
        "K1": dict(n_branches=1),
        "K3": dict(n_branches=3),
        "K3 beta=0": dict(n_branches=3, beta=0.0),
        "K3 no-freeze": dict(n_branches=3, two_step=False),
    }
    rows: dict[str, list[tuple[float, float, float]]] = {name: [] for name in ("rules", *variants)}
    word_noise = []
    t0 = time.time()
    for seed in args.seeds:
        cfg = preset_config("noisy-bench", n_docs=args.n, seed=seed)
        docs, gold, truth = generate(cfg, schema)
        labels, rule_values = bootstrap_corpus(docs, schema)
        noise = corruption_report(docs, truth, labels)
        word_noise.append((noise["word_precision"], noise["word_recall"]))
        rpt = score(rule_values, gold, schema)
        rows["rules"].append((rpt.macro_precision, rpt.macro_recall, rpt.macro_f1))
        feats = featurize_corpus(docs)
        for name, kw in variants.items():
            tc = TrainConfig(
                seed=seed, lr=args.lr, hidden=args.hidden,
                branch_hidden=args.branch_hidden,
                epochs_step1=args.epochs_step1, epochs_step2=args.epochs_step2,
                **kw,
            )
            result = train(docs, labels, schema, tc, features=feats)
            values = extract_corpus(result.params, docs, schema, features=feats)
            rpt = score(values, gold, schema)
            rows[name].append((rpt.macro_precision, rpt.macro_recall, rpt.macro_f1))
        print(f"seed {seed} done [{time.time() - t0:.0f}s]", flush=True)

    noise = np.array(word_noise)
    print(f"\nbootstrap word labels: P={noise[:, 0].mean():.3f} R={noise[:, 1].mean():.3f} "
          f"(over {len(args.seeds)} seeds, n={args.n})")
    print(f"{'variant':<14} {'P':>7} {'R':>7} {'F1':>7} {'F1 std':>7}")
    for name, vals in rows.items():
        arr = np.array(vals)
        print(f"{name:<14} {arr[:, 0].mean():7.4f} {arr[:, 1].mean():7.4f} "
              f"{arr[:, 2].mean():7.4f} {arr[:, 2].std():7.4f}")
    k1 = np.array(rows["K1"]); k3 = np.array(rows["K3"])
    print(f"\nK3 - K1: dP={100 * (k3[:, 0].mean() - k1[:, 0].mean()):+.2f} "
          f"dR={100 * (k3[:, 1].mean() - k1[:, 1].mean()):+.2f} "
          f"dF1={100 * (k3[:, 2].mean() - k1[:, 2].mean()):+.2f} pts")

    if args.out:
        blob = {
            "config": vars(args) | {"seeds": list(args.seeds)},
            "word_noise": word_noise,
            "runs": {name: vals for name, vals in rows.items()},
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(blob, f, indent=2)
        print(f"wrote {args.out}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    ap.add_argument("--epochs-step1", type=int, default=3)
    ap.add_argument("--epochs-step2", type=int, default=40)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--hidden", type=int, default=64)
    ap.add_argument("--branch-hidden", type=int, default=64)
    ap.add_argument("--out", default=None)
    run(ap.parse_args())


if __name__ == "__main__":
    main()
