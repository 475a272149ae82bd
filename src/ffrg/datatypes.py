"""Rule-based data-type tagging for value candidacy.

A phrase is eligible as a value for a field only if one of its detected
types intersects the field's allowed types.  The full rule table lives in
docs/types.md.
"""

from __future__ import annotations

import re
from enum import Enum


class DataType(str, Enum):
    NUMBER = "number"
    DATE = "date"
    MONEY = "money"
    OTHER = "other"


VALUE_TYPES = frozenset({DataType.NUMBER, DataType.DATE, DataType.MONEY})

_CURRENCY_SYMBOL = r"[$€£¥]"
_CURRENCY_CODE = r"(?:USD|EUR|GBP|CAD|AUD|JPY|CHF)"
_AMOUNT = r"\d{1,3}(?:,\d{3})*(?:\.\d{1,2})?|\d+(?:\.\d{1,2})?"

# Money with an explicit currency marker accepts any digit body; a bare
# amount qualifies only when it shows grouping commas or two decimals.
_MONEY_MARKED = re.compile(
    rf"^-?(?:{_CURRENCY_SYMBOL}\s?|{_CURRENCY_CODE}\s?)(?:{_AMOUNT})$"
    rf"|^-?(?:{_AMOUNT})\s?(?:{_CURRENCY_SYMBOL}|{_CURRENCY_CODE})$",
    re.IGNORECASE,
)
_MONEY_BARE = re.compile(r"^-?(?:\d{1,3}(?:,\d{3})+(?:\.\d{1,2})?|\d+\.\d{2})$")

_MONTHS = (
    "jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    "|aug(?:ust)?|sep(?:tember)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?"
)
# Dates require separators: bare integers like "2020" stay plain numbers.
_DATE_PATTERNS = [
    re.compile(r"^\d{1,2}[/-]\d{1,2}[/-]\d{2}(?:\d{2})?$"),
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),
    re.compile(rf"^(?:{_MONTHS})\.?\s\d{{1,2}},?\s\d{{4}}$", re.IGNORECASE),
    re.compile(rf"^\d{{1,2}}\s(?:{_MONTHS})\.?,?\s\d{{4}}$", re.IGNORECASE),
    re.compile(rf"^\d{{1,2}}-(?:{_MONTHS})-\d{{2}}(?:\d{{2}})?$", re.IGNORECASE),
]

_NUMBER_PLAIN = re.compile(r"^#?\d+(?:[-,./]\d+)*$")
# Invoice-number style: short alpha prefix glued to a digit run.
_NUMBER_PREFIXED = re.compile(r"^[A-Za-z]{1,3}[-#:.]?\d{3,}$")
# Every rule above needs a \d, so a text without one is OTHER.
_DIGIT = re.compile(r"\d")

# The only sets type_of returns.
TYPE_SETS = _MONEY, _DATE, _NUMBER, _OTHER = (
    frozenset({DataType.MONEY, DataType.NUMBER}),
    frozenset({DataType.DATE}),
    frozenset({DataType.NUMBER}),
    frozenset({DataType.OTHER}),
)


def _is_money(text: str) -> bool:
    return bool(_MONEY_MARKED.match(text) or _MONEY_BARE.match(text))


def _is_date(text: str) -> bool:
    return any(p.match(text) for p in _DATE_PATTERNS)


def _is_number(text: str) -> bool:
    return bool(_NUMBER_PLAIN.match(text) or _NUMBER_PREFIXED.match(text))


def type_of(text: str) -> frozenset[DataType]:
    """Detect the data types of a phrase text.

    Money implies number; date and number are mutually exclusive (a
    separator-written date is not reported as a number); OTHER is returned
    alone when no rule matches.  Raises ValueError on empty input.
    """
    normalized = text.strip()
    if not normalized:
        raise ValueError("cannot type empty text")
    if _DIGIT.search(normalized) is None:
        return _OTHER
    if _is_money(normalized):
        return _MONEY
    if _is_date(normalized):
        return _DATE
    if _is_number(normalized):
        return _NUMBER
    return _OTHER
