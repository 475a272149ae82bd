"""Byte identity across commits: the outputs on fixed inputs must hash to
the digests recorded in tests/golden/digests.json.

A change that must alter numerics re-records the file with
`python scripts/record_golden.py` and says so.  The digests hold only on
the numpy/BLAS build and BLAS thread count they were recorded on; on
another build the test fails and names the mismatch rather than skip.
"""

import json

from golden_digests import PATH, compute, other_build

RERECORD = "re-record with `PYTHONPATH=src python scripts/record_golden.py`"


def test_outputs_match_golden_digests():
    with open(PATH, encoding="utf-8") as f:
        want = json.load(f)
    mismatch = other_build(want["build"])
    assert not mismatch, (
        "golden digests come from another build (" + "; ".join(mismatch)
        + f"); {RERECORD} on this one"
    )
    got = compute()["digests"]
    changed = sorted(k for k in want["digests"].keys() | got.keys()
                     if want["digests"].get(k) != got.get(k))
    assert not changed, f"outputs differ from the recorded digests: {changed}; {RERECORD}"
