"""The mutation gate's rows (scripts/mutants.py) still fit the program:
each old text occurs exactly once in its file, and each row's tests exist.
Running the mutants is the script's job; see its docstring."""

import importlib.util
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
_spec = importlib.util.spec_from_file_location(
    "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_exactly_once(mutant):
    assert mutants.occurrences(mutant) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_tests_of_the_row_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, name = node.split("::")
        with open(os.path.join(ROOT, path), encoding="utf-8") as f:
            assert re.search(rf"^def {re.escape(name)}\(", f.read(), re.M), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_no_two_rows_make_the_same_edit():
    edits = [(m.path, m.old, m.new) for m in mutants.MUTANTS]
    assert len(set(edits)) == len(edits)
