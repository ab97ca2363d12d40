"""Exact order values: rationals extended with one infinity.

Finite orders live on a grid (1/B) * Z and are represented by :class:`Q`,
a subclass of :class:`fractions.Fraction`. The sentinel ``INF`` extends the
line: the order of a node that can never be resolved by finitely many steps,
and the weight of an uncapped factor coordinate. It is the only infinite
value; nothing in the game is negatively infinite.

``Q`` is a ``Fraction`` that is cheaper to compute with. Its ``+ - * /`` and
comparisons read the numerator and denominator slots directly when the
other operand is a ``Q`` or an ``int``, and build the result with one
``math.gcd``. With any other operand (a plain ``Fraction``, a float, ``INF``)
they defer to ``Fraction``'s own operator, so a mixed expression gives what
it gives with ``Fraction``. A ``Q`` computes its hash once and keeps it; the
hash is ``Fraction``'s, so a ``Q`` equals, hashes and prints like the
``Fraction`` of the same value, and sets and dicts of either iterate alike.
A copy or a pickle is an equal ``Q``, built by ``Fraction``'s own methods;
``INF`` copies and pickles as itself. ``ZERO`` and ``ONE`` are
shared constants. Every finite value the package builds is a ``Q``:
``parse_value`` and the constructors of ``MonomialFactor`` and ``Scenario``
convert any other finite value, and only this module imports ``fractions``.

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
from math import gcd
from typing import Union

__all__ = ["INF", "ONE", "Q", "Value", "ZERO", "is_finite", "parse_value", "format_value"]

_new = object.__new__


def _q(n: int, d: int) -> "Q":
    """The Q n/d of coprime n and d > 0, built without normalising."""
    out = _new(Q)
    out._numerator = n
    out._denominator = d
    out._hash = None
    return out


def _reduced(n: int, d: int) -> "Q":
    """The Q n/d in lowest terms, for d > 0. It builds the value itself, not
    through ``_q``: this is the path of every sum and product."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    out = _new(Q)
    out._numerator = n
    out._denominator = d
    out._hash = None
    return out


def _divided(n: int, d: int) -> "Q":
    """The Q n/d in lowest terms, for any d; raises ZeroDivisionError for 0
    as ``Fraction`` does."""
    if d > 0:
        return _reduced(n, d)
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _reduced(-n, -d)


class Q(Fraction):
    """A ``Fraction`` with fast operators against ``Q`` and ``int`` and a
    stored hash (see the module docstring)."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is int:
            if denominator is None:
                return _q(numerator, 1)
            if type(denominator) is int:
                return _divided(numerator, denominator)
        elif type(numerator) is Q and denominator is None:
            return numerator
        out = super().__new__(cls, numerator, denominator)
        out._hash = None
        return out

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = Fraction.__hash__(self)
        return h

    def __add__(a, b):
        if type(b) is Q:
            da, db = a._denominator, b._denominator
            return _reduced(a._numerator * db + b._numerator * da, da * db)
        if type(b) is int:
            # n/d in lowest terms: n + b*d is coprime to d as well
            return _q(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(b, a):
        if type(a) is int:
            return _q(a * b._denominator + b._numerator, b._denominator)
        return Fraction.__radd__(b, a)

    def __sub__(a, b):
        if type(b) is Q:
            da, db = a._denominator, b._denominator
            return _reduced(a._numerator * db - b._numerator * da, da * db)
        if type(b) is int:
            return _q(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(b, a):
        if type(a) is int:
            return _q(a * b._denominator - b._numerator, b._denominator)
        return Fraction.__rsub__(b, a)

    def __mul__(a, b):
        if type(b) is Q:
            return _reduced(a._numerator * b._numerator, a._denominator * b._denominator)
        if type(b) is int:
            return _reduced(a._numerator * b, a._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(b, a):
        if type(a) is int:
            return _reduced(a * b._numerator, b._denominator)
        return Fraction.__rmul__(b, a)

    def __truediv__(a, b):
        if type(b) is Q:
            return _divided(a._numerator * b._denominator, a._denominator * b._numerator)
        if type(b) is int:
            return _divided(a._numerator, a._denominator * b)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(b, a):
        if type(a) is int:
            return _divided(a * b._denominator, b._numerator)
        return Fraction.__rtruediv__(b, a)

    def __eq__(a, b):
        if type(b) is Q:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        if type(b) is Q:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if type(b) is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        if type(b) is Q:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        if type(b) is Q:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if type(b) is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        if type(b) is Q:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if type(b) is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)


ZERO = Q(0)
ONE = Q(1)
# Q before Fraction: an exact type match skips Fraction's ABC instance check.
_FINITE = (int, Q, Fraction)


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

Value = Union[Q, _Infinity]


def is_finite(v: Value) -> bool:
    return v is not INF


def parse_value(text: str) -> Value:
    """Parse an order or factor weight in the one form ``format_value``
    writes: 'inf', an integer, or 'a/b' in lowest terms with b > 1, in ASCII
    digits without a leading zero, a '-' the only sign, and no space.
    Raises ValueError for every other text: for text ``Fraction`` cannot
    read, its own error (a zero denominator is malformed text too, not a
    ZeroDivisionError); for another spelling of a value, such as '+1',
    '1e0', '0.5', '2/4' or '01', an error naming the written form."""
    if text == "inf":
        return INF
    # Nonnegative 'a' and 'a/b' in ASCII digits, the texts a trace holds, are
    # read without Fraction's regular expression, and checked against the
    # written form without writing it: no leading zero, and a/b in lowest
    # terms (its denominator stays b) with b > 1. Every other text goes to
    # Fraction, so malformed text raises Fraction's own ValueError.
    num, slash, den = text.partition("/")
    try:
        if text.isascii() and text.isdigit():
            v = _q(int(text), 1)
            written = text[0] != "0" or len(text) == 1
        elif slash and num.isascii() and num.isdigit() and den.isascii() and den.isdigit():
            d = int(den)
            v = Q(int(num), d)
            written = num[0] != "0" and den[0] != "0" and v._denominator == d > 1
        else:
            v = Q(text)
            written = format_value(v) == text
    except ZeroDivisionError:
        raise ValueError(f"value {text!r} has a zero denominator") from None
    if not written:
        raise ValueError(f"value {text!r} is not written as {format_value(v)!r}")
    return v


def format_value(v: Value) -> str:
    """Inverse of parse_value. Lowest terms; integers without the '/1'."""
    if v is INF:
        return "inf"
    return str(v if type(v) is Q else Q(v))
