"""The four quest calls: transversality, quotient, relaxation, descent.

This module owns each call's formula; ``QuestRelation`` records a call and
its parameters. Transversality and quotient are one-way: the response is a
deterministic construction from the parent scenario (``*_response``), and
the paired ``*_check`` verifies a claimed response item by item. Relaxation
leaves Mephisto one freedom, enlarging T: ``relaxation_response`` is the
answer that declines it, and ``relaxation_check`` accepts any legal
enlargement. Descent leaves him the orders after the dimension drop, so it
only has a checker over his choice space. ``call_response`` and
``call_check`` are the one dispatch over the other three: Mephisto answers
and the umpire checks through them, on the call round and again after every
blowup (``transform.commutes``), and branch only on ``DESCENT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional

from .board import BoardTransform, NodeId, Violation, REFINEMENT
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    extend_factor,
    is_tight,
    validate_scenario,
    zero_factor,
)
from .values import INF, format_value

__all__ = [
    "QuestRelation",
    "RELAXATION",
    "DESCENT",
    "TRANSVERSALITY",
    "QUOTIENT",
    "call_response",
    "call_check",
    "transversality_response",
    "transversality_check",
    "quotient_bound",
    "quotient_response",
    "quotient_check",
    "relaxation_response",
    "relaxation_check",
    "descent_check",
]

RELAXATION = "relaxation"
DESCENT = "descent"
TRANSVERSALITY = "transversality"
QUOTIENT = "quotient"


@dataclass(frozen=True)
class QuestRelation:
    """The persistent link between a quest and a child created by a call.

    ``jibs`` carries J (relaxation) or K (transversality) as current-board
    node ids; ``factor``/``scale`` carry the quotient parameters. Parameters
    are re-expressed on the new board after every blowup
    (``transform.transport_relation``).
    """

    kind: str
    jibs: FrozenSet[NodeId] = frozenset()
    factor: Optional[MonomialFactor] = None
    scale: Optional[Fraction] = None

    @classmethod
    def relaxation(cls, J) -> "QuestRelation":
        return cls(RELAXATION, jibs=frozenset(J))

    @classmethod
    def descent(cls) -> "QuestRelation":
        return cls(DESCENT)

    @classmethod
    def transversality(cls, K) -> "QuestRelation":
        return cls(TRANSVERSALITY, jibs=frozenset(K))

    @classmethod
    def quotient(cls, m: MonomialFactor, q: Fraction) -> "QuestRelation":
        return cls(QUOTIENT, factor=m, scale=Fraction(q))


def call_response(c: Scenario, rel: QuestRelation) -> Scenario:
    """The child scenario a transversality, quotient or relaxation call pins
    on the parent scenario ``c``.

    Raises ValueError for descent (its orders are Mephisto's choice), for an
    unknown kind, and for parameters the parent does not admit.
    """
    if rel.kind == TRANSVERSALITY:
        return transversality_response(c, rel.jibs)
    if rel.kind == QUOTIENT:
        return quotient_response(c, rel.factor, rel.scale)
    if rel.kind == RELAXATION:
        return relaxation_response(c, rel.jibs)
    raise ValueError(f"no fixed response to a {rel.kind!r} call")


def call_check(c: Scenario, rel: QuestRelation, c1: Scenario) -> List[Violation]:
    """Check a claimed child ``c1`` of a transversality, quotient or
    relaxation call on ``c``; raises ValueError as ``call_response`` does."""
    if rel.kind == RELAXATION:
        return relaxation_check(c, rel.jibs, c1)
    return _compare_one_way(rel.kind, call_response(c, rel), c1)


# ---- transversality ------------------------------------------------------


def transversality_response(c: Scenario, K: Iterable[NodeId]) -> Scenario:
    """Restrict the singular set to the nodes below every jib of K.

    The restricted scenario is flattened: all orders become 1 and the factor
    set collapses, except for K = {h} where the single-jib factor (h -> 1)
    survives when the parent factors allow it, and K = empty which copies
    the parent unchanged.
    """
    Ks = frozenset(K)
    if not Ks <= c.H:
        raise ValueError(f"transversality jibs {sorted(Ks - c.H)} are not jibs of the scenario")
    if not Ks:
        return c
    b = c.board
    S1 = frozenset(s for s in c.S if all(b.leq(s, h) for h in Ks))
    ord1 = {s: Fraction(1) for s in S1}
    if len(Ks) == 1:
        (h,) = Ks
        candidate = MonomialFactor.of(
            {hh: (Fraction(1) if hh == h else Fraction(0)) for hh in c.H}
        )
        M1 = FactorSet.of([candidate]) if c.M.contains(candidate) else FactorSet.of([zero_factor(c.H)])
    else:
        M1 = FactorSet.of([zero_factor(c.H)])
    return Scenario(c.board, c.d, c.B, c.H, S1, c.T, ord1, M1)


def transversality_check(c: Scenario, K: Iterable[NodeId], c1: Scenario) -> List[Violation]:
    """Compare a claimed response with the construction, item by item."""
    return call_check(c, QuestRelation.transversality(K), c1)


# ---- quotient ------------------------------------------------------------


def quotient_bound(B: int, q: Fraction) -> int:
    """The positive generator of the grid refinement: Z intersect (B/q) Z.

    For q = a/b in lowest terms this is B*b / gcd(a, B*b).
    """
    if q <= 0:
        raise ValueError(f"scale must be positive, got {q}")
    q = Fraction(q)
    a, b = q.numerator, q.denominator
    return B * b // math.gcd(a, B * b)


def quotient_response(c: Scenario, m: MonomialFactor, q: Fraction) -> Scenario:
    """Divide the residual order ord - m by the scale q.

    Keeps exactly the nodes whose residual order is at least q; their new
    order is min(ord, (ord - m)/q). Factors shrink accordingly, clipped at 0.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"scale must be positive, got {q}")
    if not c.M.contains(m):
        raise ValueError("quotient factor is not a member of the scenario's factor set")
    if any(h not in c.board for h in m.domain):
        raise ValueError("quotient factor has weights at unknown nodes")
    resid = {s: c.ord[s] - extend_factor(c.board, m, s) for s in c.S}
    S1 = frozenset(s for s in c.S if resid[s] >= q)
    ord1 = {}
    for s in S1:
        scaled = resid[s] / q
        ord1[s] = c.ord[s] if c.ord[s] <= scaled else scaled
    mw = m.as_dict()
    gens1 = []
    for g in c.M.generators:
        new = {}
        for h, w in g.weights:
            if w is INF:
                new[h] = INF
            else:
                v = (w - mw.get(h, Fraction(0))) / q
                new[h] = v if v > 0 else Fraction(0)
        gens1.append(MonomialFactor.of(new))
    return Scenario(
        c.board, c.d, quotient_bound(c.B, q), c.H, S1, c.T, ord1, FactorSet.of(gens1)
    )


def quotient_check(c: Scenario, m: MonomialFactor, q: Fraction, c1: Scenario) -> List[Violation]:
    return call_check(c, QuestRelation.quotient(m, q), c1)


def _compare_one_way(rule: str, want: Scenario, got: Scenario) -> List[Violation]:
    """Item numbering shared by both one-way quests: 1 dimension/bound,
    2 handicap, 3 singular set, 4 orders, 5 transversal set, 6 factors."""
    out: List[Violation] = []
    if want.board != got.board:
        out.append(Violation(rule, "structure", (), "response lives on a different board"))
        return out
    if (got.d, got.B) != (want.d, want.B):
        out.append(
            Violation(rule, 1, (), f"expected d={want.d}, B={want.B}; got d={got.d}, B={got.B}")
        )
    if got.H != want.H:
        out.append(Violation(rule, 2, tuple(sorted(got.H ^ want.H)), "handicap mismatch"))
    if got.S != want.S:
        out.append(Violation(rule, 3, tuple(sorted(got.S ^ want.S)), "singular set mismatch"))
    else:
        bad = tuple(s for s in sorted(want.S) if got.ord[s] != want.ord[s])
        if bad:
            out.append(
                Violation(
                    rule,
                    4,
                    bad,
                    "order mismatch: "
                    + ", ".join(
                        f"{s}: {format_value(got.ord[s])} != {format_value(want.ord[s])}"
                        for s in bad
                    ),
                )
            )
    if got.T != want.T:
        out.append(Violation(rule, 5, tuple(sorted(got.T ^ want.T)), "transversal set mismatch"))
    if got.M != want.M:
        out.append(Violation(rule, 6, (), "factor set mismatch"))
    return out


# ---- relaxation ------------------------------------------------------------


def relaxation_response(c: Scenario, J: Iterable[NodeId]) -> Scenario:
    """Release J without enlarging T: the jibs of J leave the handicap and
    every factor is restricted to the jibs that remain."""
    Js = frozenset(J)
    if not Js <= c.H:
        raise ValueError(f"released jibs {sorted(Js - c.H)} are not jibs of the scenario")
    H1 = c.H - Js
    M1 = FactorSet.of(
        MonomialFactor.of({h: w for h, w in g.weights if h in H1}) for g in c.M.generators
    )
    return Scenario(c.board, c.d, c.B, H1, c.S, c.T, c.ord, M1)


def relaxation_check(c: Scenario, J: Iterable[NodeId], c1: Scenario) -> List[Violation]:
    """Check a response to "release J": jibs of J disappear, T may grow.

    A node freshly added to T must meet some released jib partially: for at
    least one h in J it is neither below h nor remote from h. Nodes clean
    with respect to every released jib gained no transversality from the
    release, so admitting them would smuggle in unearned centers.
    """
    Js = frozenset(J)
    want = relaxation_response(c, Js)
    rule = "relaxation"
    out: List[Violation] = []
    b = c.board
    if c1.board != b:
        out.append(Violation(rule, "structure", (), "response lives on a different board"))
        return out
    if (c1.d, c1.B) != (c.d, c.B):
        out.append(Violation(rule, 1, (), f"expected d={c.d}, B={c.B}; got d={c1.d}, B={c1.B}"))
    if c1.S != c.S:
        out.append(Violation(rule, 2, tuple(sorted(c1.S ^ c.S)), "singular set changed"))
    elif dict(c1.ord) != dict(c.ord):
        bad = tuple(s for s in sorted(c.S) if c1.ord[s] != c.ord[s])
        out.append(Violation(rule, 2, bad, "orders changed"))
    if c1.H != want.H:
        out.append(Violation(rule, 3, tuple(sorted(c1.H ^ want.H)), "handicap is not H minus J"))
    if not c.T <= c1.T:
        out.append(Violation(rule, 4, tuple(sorted(c.T - c1.T)), "transversal nodes were dropped"))
    for z in sorted(c1.T - c.T):
        if not any(not b.leq(z, h) and not b.remote(z, h) for h in Js):
            out.append(
                Violation(
                    rule,
                    4,
                    (z,),
                    f"{z} added to T but meets no released jib partially",
                )
            )
    if c1.M != want.M:
        out.append(Violation(rule, 5, (), "factors are not the restrictions of the parent factors"))
    return out


# ---- descent ---------------------------------------------------------------


def descent_check(c: Scenario, bt: BoardTransform, c1: Scenario) -> List[Violation]:
    """Check a response to "step down": dimension drops by one.

    Preconditions (raised, not reported): the parent must be tight with an
    empty handicap, and above dimension 0. The response rides on a
    refinement; its orders are Mephisto's choice, so scenario validity of
    the response is part of the check.
    """
    if not is_tight(c):
        raise ValueError("descent requires a tight scenario")
    if c.H:
        raise ValueError("descent requires an empty handicap")
    if c.d == 0:
        raise ValueError("cannot descend below dimension 0")
    if bt.kind != REFINEMENT:
        raise ValueError("descent responses ride on a refinement")
    rule = "descent"
    out: List[Violation] = []
    if bt.source != c.board or c1.board != bt.target:
        out.append(Violation(rule, "structure", (), "boards do not line up with the refinement"))
        return out
    if c1.d != c.d - 1 or c1.B != c.B:
        out.append(
            Violation(
                rule, 1, (), f"expected d={c.d - 1}, B={c.B}; got d={c1.d}, B={c1.B}"
            )
        )
    want_S = frozenset(x for x in bt.target.ids if bt.retract[x] in c.S)
    if c1.S != want_S:
        out.append(Violation(rule, 2, tuple(sorted(c1.S ^ want_S)), "singular set is not u^{-1}(S)"))
    if c1.H != frozenset():
        out.append(Violation(rule, 2, tuple(sorted(c1.H)), "handicap must stay empty"))
    for s in c.board.ids:
        if (bt.embed[s] in c1.T) != (s in c.T):
            out.append(
                Violation(rule, 2, (s,), f"transversality of {s} not transported to {bt.embed[s]}")
            )
    if c1.M != FactorSet.of([zero_factor(frozenset())]):
        out.append(Violation(rule, 2, (), "factor set must be the zero factor"))
    out.extend(validate_scenario(c1))
    return out
