"""Rewrite tests/golden/digests.json from the current code.

Run it only when a change is meant to alter outputs, and say so in
CHANGES.md; tests/test_golden.py then checks the new digests.

Usage:
    PYTHONPATH=src python scripts/record_golden.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from golden_digests import PATH, compute  # noqa: E402


def main() -> None:
    golden = compute()
    os.makedirs(os.path.dirname(PATH), exist_ok=True)
    with open(PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(golden['digests'])} digests to {os.path.normpath(PATH)}")


if __name__ == "__main__":
    main()
