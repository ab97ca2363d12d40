"""Exact order values: rationals extended with one infinity.

Finite orders live on a grid (1/B) * Z and are represented by
:class:`fractions.Fraction`. The sentinel ``INF`` extends the line: the
order of a node that can never be resolved by finitely many steps, and the
weight of an uncapped factor coordinate. It is the only infinite value;
nothing in the game is negatively infinite.

Arithmetic follows the conventions the order checks need:

* ``INF + x == x + INF == INF`` and ``INF - x == INF`` for every ``x``
  (including ``INF`` itself), so a residual of an infinite order stays
  infinite without special-casing infinite nodes at every call site;
* ``INF / q == INF`` for a positive rational ``q``.

Every other operation is undefined: ``finite - INF`` and ``INF / q`` for
``q < 0`` raise ``ArithmeticError``, ``INF / 0`` raises
``ZeroDivisionError``, and negation and multiplication are not provided.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

__all__ = ["INF", "Value", "is_finite", "parse_value", "format_value"]

_FINITE = (int, Fraction)


class _Infinity:
    """The infinite order value. Do not instantiate; use INF."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    # There is exactly one instance, so identity is equality.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash("salmagundy.INF")

    def __reduce__(self) -> str:
        # Copies and pickles resolve to the module's own instance.
        return "INF"

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _FINITE) or other is self:
            return False
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, _FINITE):
            return False
        if other is self:
            return True
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _FINITE):
            return True
        if other is self:
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, _FINITE) or other is self:
            return True
        return NotImplemented

    def __add__(self, other: object) -> "_Infinity":
        if isinstance(other, _FINITE) or other is self:
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "_Infinity":
        # INF - anything (even INF) is INF by convention; see module docstring.
        if isinstance(other, _FINITE) or other is self:
            return self
        return NotImplemented

    def __rsub__(self, other: object) -> "_Infinity":
        if isinstance(other, _FINITE):
            raise ArithmeticError("finite - INF is undefined")
        return NotImplemented

    def __truediv__(self, other: object) -> "_Infinity":
        if isinstance(other, _FINITE) and other > 0:
            return self
        if other == 0:
            raise ZeroDivisionError("INF / 0")
        raise ArithmeticError(f"INF / {other!r} is undefined")


INF = _Infinity()

Value = Union[Fraction, _Infinity]


def is_finite(v: Value) -> bool:
    return v is not INF


def parse_value(text: str) -> Value:
    """Parse an order or factor weight: 'a/b', an integer string, or 'inf'."""
    if text == "inf":
        return INF
    # Nonnegative 'a' and 'a/b' in ASCII digits, the texts a trace holds, are
    # read without Fraction's regular expression. Every other text goes to
    # Fraction, so malformed text raises Fraction's own ValueError; a zero
    # denominator is malformed text too, not a ZeroDivisionError.
    if text.isascii() and text.isdigit():
        return Fraction(int(text))
    num, slash, den = text.partition("/")
    try:
        if slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
            return Fraction(int(num), int(den))
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None


def format_value(v: Value) -> str:
    """Inverse of parse_value. Lowest terms; integers without the '/1'."""
    if v is INF:
        return "inf"
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return str(v)
