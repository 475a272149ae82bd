"""Five-seed noisy-bench comparison: rules, K=1, K=3, and ablations.

Runs the protocol in tests/noisy_bench.py, the one the acceptance tests
check README against, and prints README's word-label sentence and
benchmark tables to paste.  With --out, also writes a JSON blob with each
seed's figures and the numpy/BLAS build they hold for.

Usage:
    PYTHONPATH=src python scripts/run_noisy_bench.py [--out bench.json]
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

import noisy_bench  # noqa: E402
from golden_digests import build  # noqa: E402


def _prf(row) -> dict[str, float]:
    return dict(zip(("precision", "recall", "f1"), map(float, row)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write per-seed figures as JSON here")
    args = ap.parse_args()

    bench = noisy_bench.run(log=lambda line: print(line, flush=True))
    print()
    print("\n".join(noisy_bench.readme_lines(bench)))

    if args.out:
        blob = {
            "build": build(),
            "n_docs": noisy_bench.N_DOCS,
            "schedule": noisy_bench.SCHEDULE,
            "variants": {key: overrides for key, (_, overrides) in noisy_bench.VARIANTS.items()},
            "seeds": [
                {
                    "seed": seed,
                    "core_seconds": float(bench.core_seconds[i]),
                    **{key: _prf(rows[i]) for key, rows in bench.runs.items()},
                    # per label set: word precision, recall and labels per document
                    "word_labels": {key: rows[i].tolist()
                                    for key, rows in bench.label_figures.items()},
                }
                for i, seed in enumerate(noisy_bench.SEEDS)
            ],
        }
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(blob, f, indent=2)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
