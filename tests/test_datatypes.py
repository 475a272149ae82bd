"""Data-type tagging rules: positive cases, exclusions, and edge forms."""

import re

import pytest
from hypothesis import given, strategies as st

from ffrg.datatypes import TYPE_SETS, VALUE_TYPES, DataType, type_of


MONEY = [
    "$1,234.56", "$ 950", "USD 120.00", "120.00 USD", "1,234.56",
    "99.00", "-$45.10", "€12.50", "1,000,000", "0.99", "£5", "12 EUR",
]
DATE = [
    "12/05/2024", "12-05-24", "2024-12-05", "Jan 5, 2024", "January 5 2024",
    "5 Jan 2024", "17 March 2021", "3-Mar-2024", "12-oct-21",
]
NUMBER_ONLY = [
    "2020", "#4811", "123-456", "12345678", "4811/2", "INV-48113", "PO2219",
    "A-99201", "no941238",
]
OTHER = [
    "invoice", "Total", "due?", "n/a", "12ab34", "$x", "1.2.3.4.5x", "----",
    "ABCD1234567",
]


@pytest.mark.parametrize("text", MONEY)
def test_money_detected(text):
    assert DataType.MONEY in type_of(text)


@pytest.mark.parametrize("text", MONEY)
def test_money_implies_number(text):
    assert type_of(text) == frozenset({DataType.MONEY, DataType.NUMBER})


@pytest.mark.parametrize("text", DATE)
def test_date_detected(text):
    assert type_of(text) == frozenset({DataType.DATE})


@pytest.mark.parametrize("text", NUMBER_ONLY)
def test_plain_and_prefixed_numbers(text):
    assert type_of(text) == frozenset({DataType.NUMBER})


@pytest.mark.parametrize("text", OTHER)
def test_unmatched_text_is_other(text):
    assert type_of(text) == frozenset({DataType.OTHER})


def test_bare_year_is_a_number_not_a_date():
    # dates need separators; a lone integer stays numeric
    assert type_of("2020") == frozenset({DataType.NUMBER})


def test_separator_date_is_not_a_number():
    assert DataType.NUMBER not in type_of("12/05/2024")


def test_whitespace_trimmed_before_typing():
    assert type_of("  $12.00 ") == type_of("$12.00")


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        type_of("   ")


def test_value_types_excludes_other():
    assert DataType.OTHER not in VALUE_TYPES
    assert VALUE_TYPES == frozenset({DataType.NUMBER, DataType.DATE, DataType.MONEY})


@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12))
def test_every_text_gets_exactly_one_tag_family(text):
    types = type_of(text)
    assert types
    if DataType.OTHER in types:
        assert types == frozenset({DataType.OTHER})
    if DataType.DATE in types:
        assert DataType.NUMBER not in types
    if DataType.MONEY in types:
        assert DataType.NUMBER in types


# Reference: the rule table of docs/types.md as separate patterns, tried
# family by family in the table's order, each with its own flags.  type_of
# runs them as one alternation and must give the same answer.
_CURRENCY_SYMBOL = r"[$€£¥]"
_CURRENCY_CODE = r"(?:USD|EUR|GBP|CAD|AUD|JPY|CHF)"
_AMOUNT = r"\d{1,3}(?:,\d{3})*(?:\.\d{1,2})?|\d+(?:\.\d{1,2})?"
_MONTHS = (
    "jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    "|aug(?:ust)?|sep(?:tember)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?"
)
_MONEY_MARKED = re.compile(
    rf"^-?(?:{_CURRENCY_SYMBOL}\s?|{_CURRENCY_CODE}\s?)(?:{_AMOUNT})$"
    rf"|^-?(?:{_AMOUNT})\s?(?:{_CURRENCY_SYMBOL}|{_CURRENCY_CODE})$",
    re.IGNORECASE,
)
_MONEY_BARE = re.compile(r"^-?(?:\d{1,3}(?:,\d{3})+(?:\.\d{1,2})?|\d+\.\d{2})$")
_DATE_PATTERNS = [
    re.compile(r"^\d{1,2}[/-]\d{1,2}[/-]\d{2}(?:\d{2})?$"),
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),
    re.compile(rf"^(?:{_MONTHS})\.?\s\d{{1,2}},?\s\d{{4}}$", re.IGNORECASE),
    re.compile(rf"^\d{{1,2}}\s(?:{_MONTHS})\.?,?\s\d{{4}}$", re.IGNORECASE),
    re.compile(rf"^\d{{1,2}}-(?:{_MONTHS})-\d{{2}}(?:\d{{2}})?$", re.IGNORECASE),
]
_NUMBER_PLAIN = re.compile(r"^#?\d+(?:[-,./]\d+)*$")
_NUMBER_PREFIXED = re.compile(r"^[A-Za-z]{1,3}[-#:.]?\d{3,}$")
_FAMILIES = (
    ((_MONEY_MARKED, _MONEY_BARE), frozenset({DataType.MONEY, DataType.NUMBER})),
    (tuple(_DATE_PATTERNS), frozenset({DataType.DATE})),
    ((_NUMBER_PLAIN, _NUMBER_PREFIXED), frozenset({DataType.NUMBER})),
)


def _oracle_type_of(text):
    normalized = text.strip()
    if not normalized:
        raise ValueError("cannot type empty text")
    for patterns, types in _FAMILIES:
        if any(p.match(normalized) for p in patterns):
            return types
    return frozenset({DataType.OTHER})


# Arabic-Indic digits are \d; superscript and circled digits are not,
# although str.isdigit accepts them.  Under IGNORECASE "ſ" matches s, the
# Kelvin sign k and "İ" i, so they tell a case-insensitive scope from a
# case-sensitive one; "\n" is \s, and $ matches before a final one.
_PIECES = [
    "Jan", "March", "may", "Dec.", "INV", "PO", "USD", "eur", "$", "€", "£", "#", "-",
    "/", ".", ",", ":", " ", "0", "5", "12", "2020", "1,234", ".56",
    "٣", "٤", "٢٠٢٠", "۱۲", "²", "①", "x", "ſ", "\u212a", "İ", "ı", "\n",
    "ſep", "Auguſt", "UſD", "ſ:", "\u212a-", "İ#",
]
_FUZZ_ALPHABET = list("0123456789٣٤۱²①$€-/.,:# \nsSkKiIaAbBuUdDjJeEpPtTnN") + [
    "ſ", "\u212a", "İ", "ı"]


@pytest.mark.parametrize("text", [
    "٣/٤/٢٠٢٠", "٢٠٢٠", "$٥٠.٠٠", "²", "①", "12²", "①/②/2020", "Jan", "March ,",
    "Jan 5, 2024", "n/a", " - ", "$", "USD",
    # the prefixed-number rule is case-sensitive, the money and month rules are not
    "ſ1234", "\u212a-1234", "İ:555", "ı5512", "ab1234", "AB-1234",
    "UſD 12", "12 uſd", "5 Auguſt 2024", "ſep 5, 2024", "12-ſep-24",
    "5\nJan\n2024", "$\n12", "12\n", "1,234.56\n", "٣٤٥ EUR", "$1²",
])
def test_type_of_matches_the_regex_only_rules_on_edge_texts(text):
    assert type_of(text) == _oracle_type_of(text)


def test_decimal_digits_of_any_script_are_typed_and_other_digits_are_not():
    assert type_of("٣/٤/٢٠٢٠") == frozenset({DataType.DATE})
    assert type_of("٢٠٢٠") == frozenset({DataType.NUMBER})
    for text in ("²", "①", "12²", "Jan", "March ,"):
        assert type_of(text) == frozenset({DataType.OTHER})


@pytest.mark.parametrize("text", ["", " ", "\t\n"])
def test_blank_text_refused_like_the_regex_only_rules(text):
    for typer in (type_of, _oracle_type_of):
        with pytest.raises(ValueError, match="cannot type empty text"):
            typer(text)


@given(st.one_of(
    st.lists(st.sampled_from(_PIECES), min_size=1, max_size=6).map("".join),
    st.text(alphabet=st.sampled_from(_FUZZ_ALPHABET), min_size=1, max_size=12),
    st.text(min_size=1, max_size=12),
))
def test_type_of_matches_the_regex_only_rules(text):
    if not text.strip():
        return
    types = type_of(text)
    assert types == _oracle_type_of(text)
    assert types in TYPE_SETS
