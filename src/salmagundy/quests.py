"""The four quest calls: transversality, quotient, relaxation, descent.

This module owns each call's formula; ``QuestRelation`` records a call and
its parameters. Transversality and quotient are one-way: the response is a
deterministic construction from the parent scenario (``*_response``), and
``call_check`` compares a claimed response with it item by item. Relaxation
leaves Mephisto one freedom, enlarging T: ``relaxation_response`` is the
answer that declines it, and ``call_check`` accepts any legal enlargement.
Descent leaves him the orders after the dimension drop, so it has no fixed
response: its relation asks only for d - 1, the same B, and the parent's S,
H and T.

``call_check`` is the one check of all four relations, on the call round
and again after every blowup (``transform.commutes``); ``call_response`` is
the one construction of the three fixed responses. It stores the child on
the parent scenario for that very relation object, so the child Mephisto
builds is the one ``call_check`` compares with, a relaxation child included.
``descent_check`` adds what holds only when the descent call is made: its
preconditions, the zero factor, and the validity of the child's free orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional

from .board import NodeId, Violation, _memo
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    extend_factor,
    is_tight,
    validate_scenario,
    zero_factor,
)
from .values import INF, ONE, Q, ZERO, format_value

__all__ = [
    "QuestRelation",
    "RELAXATION",
    "DESCENT",
    "TRANSVERSALITY",
    "QUOTIENT",
    "call_response",
    "call_check",
    "transversality_response",
    "quotient_bound",
    "quotient_response",
    "relaxation_response",
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
    scale: Optional[Q] = None

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
    def quotient(cls, m: MonomialFactor, q: Q) -> "QuestRelation":
        return cls(QUOTIENT, factor=m, scale=Q(q))


def call_response(c: Scenario, rel: QuestRelation) -> Scenario:
    """The child scenario a transversality, quotient or relaxation call pins
    on the parent scenario ``c``.

    It is stored on ``c`` for this very ``rel`` (``board._memo``), except
    for an empty transversality set: that child is ``c`` itself, unstored.

    Raises ValueError for descent (its orders are Mephisto's choice), for an
    unknown kind, and for parameters the parent does not admit.
    """
    if rel.kind == TRANSVERSALITY and not rel.jibs:
        return c
    return _memo(_call_response, rel, c)


def _call_response(rel: QuestRelation, c: Scenario) -> Scenario:
    if rel.kind == TRANSVERSALITY:
        return transversality_response(c, rel.jibs)
    if rel.kind == QUOTIENT:
        return quotient_response(c, rel.factor, rel.scale)
    if rel.kind == RELAXATION:
        return relaxation_response(c, rel.jibs)
    raise ValueError(f"no fixed response to a {rel.kind!r} call")


def call_check(c: Scenario, rel: QuestRelation, c1: Scenario) -> List[Violation]:
    """Check a claimed child ``c1`` of the call ``rel`` on ``c``. Raises
    ValueError for an unknown kind, and as ``call_response`` does for
    parameters the parent does not admit."""
    if rel.kind == DESCENT:
        return _descent_relation(c, c1)
    want = call_response(c, rel)
    if rel.kind == RELAXATION:
        return _check_relaxation(c, rel.jibs, want, c1)
    return _compare_one_way(rel.kind, want, c1)


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
    S1 = c.S.intersection(*(b.down_set(h) for h in Ks))
    ord1 = {s: ONE for s in S1}
    M1 = [zero_factor(c.H)]
    if len(Ks) == 1:
        (h,) = Ks
        candidate = MonomialFactor({hh: (ONE if hh == h else ZERO) for hh in c.H})
        if c.M.contains(candidate):
            M1 = [candidate]
    return Scenario(c.board, c.d, c.B, c.H, S1, c.T, ord1, M1)


# ---- quotient ------------------------------------------------------------


def quotient_bound(B: int, q: Q) -> int:
    """The positive generator of the grid refinement: Z intersect (B/q) Z.

    For q = a/b in lowest terms this is B*b / gcd(a, B*b).
    """
    if q <= 0:
        raise ValueError(f"scale must be positive, got {q}")
    q = Q(q)
    a, b = q.numerator, q.denominator
    return B * b // math.gcd(a, B * b)


def quotient_response(c: Scenario, m: MonomialFactor, q: Q) -> Scenario:
    """Divide the residual order ord - m by the scale q.

    Keeps exactly the nodes whose residual order is at least q; their new
    order is min(ord, (ord - m)/q). Factors shrink accordingly, clipped at 0.
    """
    q = Q(q)
    if q <= 0:
        raise ValueError(f"scale must be positive, got {q}")
    if not c.M.contains(m):
        raise ValueError("quotient factor is not a member of the scenario's factor set")
    if any(h not in c.board for h in m):
        raise ValueError("quotient factor has weights at unknown nodes")
    ext = {s: extend_factor(c.board, m, s) for s in c.S}
    if any(ext[s] is INF and c.ord[s] is not INF for s in c.S):
        # only a scenario failing issue 6 gets here; finite - INF is undefined
        raise ValueError("quotient factor is uncapped below a finite order")
    resid = {s: c.ord[s] - ext[s] for s in c.S}
    S1 = frozenset(s for s in c.S if resid[s] >= q)
    ord1 = {}
    for s in S1:
        scaled = resid[s] / q
        ord1[s] = c.ord[s] if c.ord[s] <= scaled else scaled
    gens1 = []
    for g in c.M.generators:
        new = {}
        for h, w in g.items():
            if w is INF:
                new[h] = INF
            else:
                v = (w - m.get(h, ZERO)) / q
                new[h] = v if v > 0 else ZERO
        gens1.append(MonomialFactor(new))
    return Scenario(
        c.board, c.d, quotient_bound(c.B, q), c.H, S1, c.T, ord1, FactorSet.of(gens1)
    )


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
        MonomialFactor({h: w for h, w in g.items() if h in H1}) for g in c.M.generators
    )
    return Scenario(c.board, c.d, c.B, H1, c.S, c.T, c.ord, M1)


def _check_relaxation(c: Scenario, Js: FrozenSet[NodeId], want: Scenario,
                      c1: Scenario) -> List[Violation]:
    """Check a response to "release Js" against ``want``, the response that
    keeps T (``call_response``): jibs of Js disappear, T may grow.

    A node freshly added to T must meet some released jib partially: for at
    least one h in Js it is neither below h nor remote from h. Nodes clean
    with respect to every released jib gained no transversality from the
    release, so admitting them would smuggle in unearned centers.
    """
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
        if not any(h not in b.up_set(z) and not b.remote(z, h) for h in Js):
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


def _descent_relation(c: Scenario, c1: Scenario) -> List[Violation]:
    """Issue 1: one dimension lower, same bound; issue 2: the parent's S, H
    and T. The orders are free."""
    if c1.board != c.board:
        return [Violation(DESCENT, "structure", (), "response lives on a different board")]
    out: List[Violation] = []
    if (c1.d, c1.B) != (c.d - 1, c.B):
        out.append(
            Violation(DESCENT, 1, (), f"expected d={c.d - 1}, B={c.B}; got d={c1.d}, B={c1.B}")
        )
    for name, mine, theirs in (("S", c1.S, c.S), ("H", c1.H, c.H), ("T", c1.T, c.T)):
        if mine != theirs:
            out.append(
                Violation(
                    DESCENT,
                    2,
                    tuple(sorted(mine ^ theirs)),
                    f"descent child's {name} differs from the parent's",
                )
            )
    return out


def descent_check(c: Scenario, c1: Scenario) -> List[Violation]:
    """Check a response to "step down" on the call round.

    Preconditions (raised, not reported): the parent must be tight with an
    empty handicap and above dimension 0. That the round rides on the
    identity refinement is the umpire's to check (``game.validate_bundle``).
    Beyond the relation (``call_check``), the child's factor set is the zero
    factor, and its orders are Mephisto's choice, so scenario validity of the
    response is part of the check.
    """
    if not is_tight(c):
        raise ValueError("descent requires a tight scenario")
    if c.H:
        raise ValueError("descent requires an empty handicap")
    if c.d == 0:
        raise ValueError("cannot descend below dimension 0")
    out = call_check(c, QuestRelation.descent(), c1)
    if any(v.issue == "structure" for v in out):
        return out
    if c1.M != FactorSet.of([zero_factor(frozenset())]):
        out.append(Violation(DESCENT, 2, (), "factor set must be the zero factor"))
    out.extend(validate_scenario(c1))
    return out
