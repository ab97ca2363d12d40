"""Exact order values: rationals extended with a signed infinity.

Finite orders live on a grid (1/B) * Z and are represented by
:class:`fractions.Fraction`. Two sentinel objects extend the line:
``INF`` (the order of a node that can never be resolved by finitely many
steps) and ``NEG_INF`` (only ever produced as a residual, never stored).

Subtraction follows the conventions the residual-order checks need:

* ``INF - x == INF`` for every ``x`` (including ``INF`` itself),
* ``finite - INF == NEG_INF``.

These make "residual order is monotone" tests come out right without
special-casing infinite nodes at every call site.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

__all__ = ["INF", "NEG_INF", "Value", "is_finite", "parse_value", "format_value"]

_FINITE = (int, Fraction)


class _Extended:
    """One of the two infinite order values. Do not instantiate; use INF / NEG_INF."""

    __slots__ = ("_positive",)

    def __init__(self, positive: bool) -> None:
        self._positive = positive

    def __repr__(self) -> str:
        return "INF" if self._positive else "NEG_INF"

    # There are exactly two instances, so identity is equality.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return hash(("salmagundy.extended", self._positive))

    def __reduce__(self) -> str:
        # Copies and pickles resolve to the module's own instance.
        return "INF" if self._positive else "NEG_INF"

    def __lt__(self, other: object) -> bool:
        if isinstance(other, _Extended):
            return (not self._positive) and other._positive
        if isinstance(other, _FINITE):
            return not self._positive
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, _Extended):
            return other._positive or not self._positive
        if isinstance(other, _FINITE):
            return not self._positive
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, _Extended):
            return self._positive and not other._positive
        if isinstance(other, _FINITE):
            return self._positive
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, _Extended):
            return self._positive or not other._positive
        if isinstance(other, _FINITE):
            return self._positive
        return NotImplemented

    def __neg__(self) -> "_Extended":
        return NEG_INF if self._positive else INF

    def __add__(self, other: object) -> "_Extended":
        if isinstance(other, _FINITE):
            return self
        if isinstance(other, _Extended):
            if other._positive == self._positive:
                return self
            raise ArithmeticError("INF + NEG_INF is undefined")
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "_Extended":
        # INF - anything (even INF) is INF by convention; see module docstring.
        if self._positive:
            return self
        if isinstance(other, _FINITE) or other is INF:
            return self
        raise ArithmeticError("NEG_INF - NEG_INF is undefined")

    def __rsub__(self, other: object) -> "_Extended":
        # finite - INF = NEG_INF, finite - NEG_INF = INF
        if isinstance(other, _FINITE):
            return NEG_INF if self._positive else INF
        return NotImplemented

    def __mul__(self, other: object) -> "_Extended":
        if isinstance(other, _FINITE):
            if other > 0:
                return self
            if other < 0:
                return -self
            raise ArithmeticError("0 * infinity is undefined")
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "_Extended":
        if isinstance(other, _FINITE):
            if other > 0:
                return self
            if other < 0:
                return -self
            raise ZeroDivisionError("infinity / 0")
        if isinstance(other, _Extended):
            raise ArithmeticError("infinity / infinity is undefined")
        return NotImplemented


INF = _Extended(True)
NEG_INF = _Extended(False)

Value = Union[Fraction, _Extended]


def is_finite(v: Value) -> bool:
    return not isinstance(v, _Extended)


def parse_value(text: str) -> Value:
    """Parse an order or factor weight: 'a/b', an integer string, or 'inf'."""
    if text == "inf":
        return INF
    return Fraction(text)


def format_value(v: Value) -> str:
    """Inverse of parse_value. Lowest terms; integers without the '/1'."""
    if v is INF:
        return "inf"
    if not isinstance(v, Fraction):
        v = Fraction(v)
    return str(v)
