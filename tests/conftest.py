"""Shared fixtures and document builders for the test suite."""

import numpy as np
import pytest

from ffrg.docmodel import BBox, Document, Word, default_invoice_schema


def make_doc(entries, doc_id="doc", page=1000, phrases=None):
    """Build a document from (text, x0, y0, x1, y1) tuples in id order."""
    words = tuple(
        Word(i, text, BBox(x0, y0, x1, y1))
        for i, (text, x0, y0, x1, y1) in enumerate(entries)
    )
    return Document(doc_id, page, page, words, phrases)


def box_center(box):
    """The centre (x, y) of a box."""
    return ((box.x0 + box.x1) / 2.0, (box.y0 + box.y1) / 2.0)


def box_row(box):
    """The coordinates of a box as the list x0, y0, x1, y1."""
    return [box.x0, box.y0, box.x1, box.y1]


def random_doc(rng, n_words, doc_id="rand"):
    """Random small document; box sizes echo rendered text proportions."""
    entries = []
    for _ in range(n_words):
        text = "".join(rng.choice(list("abc123"), size=rng.integers(1, 8)))
        w = 0.012 * len(text)
        h = 0.018
        x0 = float(rng.uniform(0.0, 1.0 - w))
        y0 = float(rng.uniform(0.0, 1.0 - h))
        entries.append((text, x0, y0, x0 + w, y0 + h))
    return make_doc(entries, doc_id=doc_id)


@pytest.fixture(scope="session")
def schema():
    return default_invoice_schema()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# Acceptance tests register one verdict per criterion; the summary block
# prints them all even when individual criteria are expected failures.
_CRITERIA: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    _CRITERIA[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number in sorted(_CRITERIA):
        passed, detail = _CRITERIA[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:>2}: {verdict} - {detail}")
