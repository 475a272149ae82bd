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
_MONTHS = (
    "jan(?:uary)?|feb(?:ruary)?|mar(?:ch)?|apr(?:il)?|may|jun(?:e)?|jul(?:y)?"
    "|aug(?:ust)?|sep(?:tember)?|oct(?:ober)?|nov(?:ember)?|dec(?:ember)?"
)

# The only sets type_of returns.
TYPE_SETS = _MONEY, _DATE, _NUMBER, _OTHER = (
    frozenset({DataType.MONEY, DataType.NUMBER}),
    frozenset({DataType.DATE}),
    frozenset({DataType.NUMBER}),
    frozenset({DataType.OTHER}),
)

# The rule table of docs/types.md in its order: (result, whole-text pattern,
# case-insensitive).  Money with an explicit currency marker accepts any
# digit body; a bare amount qualifies only when it shows grouping commas or
# two decimals.  Dates require separators: bare integers like "2020" stay
# plain numbers.  Invoice-number style: short alpha prefix glued to a digit
# run; it stays case-sensitive, since under IGNORECASE [A-Za-z] would also
# match "ſ" and the Kelvin sign.
_RULES = (
    (_MONEY, rf"-?(?:{_CURRENCY_SYMBOL}\s?|{_CURRENCY_CODE}\s?)(?:{_AMOUNT})", True),
    (_MONEY, rf"-?(?:{_AMOUNT})\s?(?:{_CURRENCY_SYMBOL}|{_CURRENCY_CODE})", True),
    (_MONEY, r"-?(?:\d{1,3}(?:,\d{3})+(?:\.\d{1,2})?|\d+\.\d{2})", False),
    (_DATE, r"\d{1,2}[/-]\d{1,2}[/-]\d{2}(?:\d{2})?", False),
    (_DATE, r"\d{4}-\d{1,2}-\d{1,2}", False),
    (_DATE, rf"(?:{_MONTHS})\.?\s\d{{1,2}},?\s\d{{4}}", True),
    (_DATE, rf"\d{{1,2}}\s(?:{_MONTHS})\.?,?\s\d{{4}}", True),
    (_DATE, rf"\d{{1,2}}-(?:{_MONTHS})-\d{{2}}(?:\d{{2}})?", True),
    (_NUMBER, r"#?\d+(?:[-,./]\d+)*", False),
    (_NUMBER, r"[A-Za-z]{1,3}[-#:.]?\d{3,}", False),
)
# One alternation, one capturing group per rule: the first rule that matches
# the whole text is the group that matched, so the table's order decides.
_TYPE_PATTERN = re.compile("^(?:" + "|".join(
    f"((?i:{pattern}))$" if folded else f"({pattern})$" for _, pattern, folded in _RULES
) + ")")
_TYPE_BY_GROUP = (None, *(types for types, _, _ in _RULES))


def type_of(text: str) -> frozenset[DataType]:
    """Detect the data types of a phrase text.

    Money implies number; date and number are mutually exclusive (a
    separator-written date is not reported as a number); OTHER is returned
    alone when no rule matches.  Raises ValueError on empty input.
    """
    normalized = text.strip()
    if not normalized:
        raise ValueError("cannot type empty text")
    m = _TYPE_PATTERN.match(normalized)
    return _OTHER if m is None else _TYPE_BY_GROUP[m.lastindex]
