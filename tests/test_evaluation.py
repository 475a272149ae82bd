"""Exact-match scoring: counting conventions and the macro average."""

import pytest

from ffrg.docmodel import ValidationError
from ffrg.evaluation import normalize_value, score


def test_normalization_folds_unicode_and_spaces():
    assert normalize_value("  a   b ") == "a b"
    assert normalize_value("Café") == normalize_value("Café")
    assert normalize_value("A") != normalize_value("a")  # case preserved


def test_two_field_hand_case(schema):
    # inv_number: tp=1 fp=1 fn=0 -> P=1/2 R=1 F1=2/3
    # po_number:  tp=1 fp=0 fn=1 -> P=1 R=1/2 F1=2/3
    predictions = {
        "d1": {"inv_number": "48113", "po_number": "2219"},
        "d2": {"inv_number": "99999"},
    }
    annotations = {
        "d1": {"inv_number": "48113", "po_number": "2219"},
        "d2": {"po_number": "7777"},
    }
    rep = score(predictions, annotations, schema)
    a = rep.fields["inv_number"]
    b = rep.fields["po_number"]
    assert (a.tp, a.fp, a.fn) == (1, 1, 0)
    assert (b.tp, b.fp, b.fn) == (1, 0, 1)
    assert a.f1 == pytest.approx(2 / 3)
    assert b.f1 == pytest.approx(2 / 3)
    assert rep.macro_f1 == pytest.approx(2 / 3)


def test_perfect_predictions_score_one(schema):
    values = {"d1": {"inv_number": "48113", "total_amount": "$12.00"}}
    rep = score(values, values, schema)
    assert rep.macro_precision == rep.macro_recall == rep.macro_f1 == 1.0


def test_wrong_string_counts_against_both_sides(schema):
    rep = score(
        {"d1": {"inv_number": "111"}}, {"d1": {"inv_number": "222"}}, schema
    )
    m = rep.fields["inv_number"]
    assert (m.tp, m.fp, m.fn) == (0, 1, 1)
    assert m.f1 == 0.0


def test_normalized_match_is_a_true_positive(schema):
    rep = score(
        {"d1": {"inv_date": "Jan  5,   2024"}},
        {"d1": {"inv_date": "Jan 5, 2024"}},
        schema,
    )
    assert rep.fields["inv_date"].tp == 1


def test_silent_fields_stay_out_of_the_macro(schema):
    # only one field ever appears; macro runs over that field alone
    rep = score(
        {"d1": {"inv_number": "48113"}}, {"d1": {"inv_number": "48113"}}, schema
    )
    assert rep.macro_f1 == 1.0
    assert rep.fields["total_tax"].f1 == 0.0  # present in the per-field table


def test_unknown_field_names_rejected(schema):
    with pytest.raises(ValidationError):
        score({"d1": {"mystery": "x"}}, {}, schema)
    with pytest.raises(ValidationError):
        score({}, {"d1": {"mystery": "x"}}, schema)


def test_missing_document_counts_as_all_misses(schema):
    rep = score({}, {"d1": {"inv_number": "48113"}}, schema)
    m = rep.fields["inv_number"]
    assert (m.tp, m.fp, m.fn) == (0, 0, 1)
    assert rep.macro_f1 == 0.0


def test_zero_over_zero_is_zero(schema):
    rep = score({}, {}, schema)
    assert rep.macro_f1 == 0.0
    assert all(fm.f1 == 0.0 for fm in rep.fields.values())


def test_report_json_shape(schema):
    rep = score(
        {"d1": {"inv_number": "48113"}}, {"d1": {"inv_number": "48113"}}, schema
    )
    blob = rep.to_json_dict()
    assert blob["macro_f1"] == 1.0
    assert blob["fields"]["inv_number"]["tp"] == 1
    assert sorted(blob["fields"]) == sorted(f.name for f in schema.fields)
