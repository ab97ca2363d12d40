"""Scenario transforms across board changes, and cross-quest consistency.

A board move (refinement or blowup) forces every open quest's scenario to
evolve. ``validate_refinement_transform`` and ``validate_blowup_transform``
check one quest's old/new scenario pair against the fifteen transform items.
``capped_transport`` is the formula of items 14-15 that carries a factor
through a blowup; Mephisto builds his responses with it and the validator
compares against it. ``commutes`` checks the square linking a parent quest
and a child created by an earlier call: after a blowup, the child's new
scenario must simultaneously be the call-construction applied to the
parent's new scenario and a legal transform of the child's old scenario.

Checks are pure functions of immutable objects, and each is answered once per
identical inputs: ``validate_blowup_transform`` stores its verdict on the new
scenario and ``commutes`` on the child's new scenario, keyed by the identity
of the other arguments (``board._memo``). Mephisto's sieve and the umpire
check the same bundle objects, so the umpire's second look is a lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

from .board import BLOWUP, REFINEMENT, BoardTransform, NodeId, Violation, _memo
from .quests import (
    quotient_check,
    relaxation_check,
    transversality_check,
)
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    admissible_centers,
    complete_factor,
    extend_factor,
    is_tight,
    validate_scenario,
)
from .values import Value, format_value

__all__ = [
    "QuestRelation",
    "RELAXATION",
    "DESCENT",
    "TRANSVERSALITY",
    "QUOTIENT",
    "validate_refinement_transform",
    "validate_blowup_transform",
    "capped_transport",
    "quotient_lifted_factor",
    "transport_relation",
    "child_survives",
    "commutes",
]

RULE = "scenario-transform"

RELAXATION = "relaxation"
DESCENT = "descent"
TRANSVERSALITY = "transversality"
QUOTIENT = "quotient"

# Commutativity issue numbers by call kind.
_COMM_ISSUE = {RELAXATION: 1, DESCENT: 2, TRANSVERSALITY: 3, QUOTIENT: 4}


@dataclass(frozen=True)
class QuestRelation:
    """The persistent link between a quest and a child created by a call.

    ``jibs`` carries J (relaxation) or K (transversality) as current-board
    node ids; ``factor``/``scale`` carry the quotient parameters. Parameters
    are re-expressed on the new board after every blowup (transport_relation).
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


# ---- transforms of a single quest ---------------------------------------


def _joint_items(c: Scenario, bt: BoardTransform, c1: Scenario) -> List[Violation]:
    out: List[Violation] = []
    if c.board != bt.source or c1.board != bt.target:
        out.append(Violation(RULE, "structure", (), "scenario boards do not match the transform"))
        return out
    if (c1.d, c1.B) != (c.d, c.B):
        out.append(
            Violation(RULE, 1, (), f"expected d={c.d}, B={c.B}; got d={c1.d}, B={c1.B}")
        )
    for s in c.board.ids:
        if (bt.embed[s] in c1.T) != (s in c.T):
            out.append(
                Violation(
                    RULE, 2, (s,), f"transversality of {s} not mirrored at {bt.embed[s]}"
                )
            )
    return out


def validate_refinement_transform(
    c: Scenario, bt: BoardTransform, c1: Scenario
) -> List[Violation]:
    """Items 1-6: a refinement changes nothing up to fibers."""
    if bt.kind != REFINEMENT:
        raise ValueError("expected a refinement transform")
    out = _joint_items(c, bt, c1)
    if any(v.issue == "structure" for v in out):
        return out
    want_S = frozenset(x for x in bt.target.ids if bt.retract[x] in c.S)
    if c1.S != want_S:
        out.append(
            Violation(RULE, 3, tuple(sorted(c1.S ^ want_S)), "singular set is not u^{-1}(S)")
        )
    for x in sorted(c1.S & want_S):
        if c1.ord[x] != c.ord[bt.retract[x]]:
            out.append(
                Violation(
                    RULE,
                    4,
                    (x,),
                    f"ord({x}) = {format_value(c1.ord[x])} != ord({bt.retract[x]}) = "
                    f"{format_value(c.ord[bt.retract[x]])}",
                )
            )
    want_H = frozenset(bt.embed[h] for h in c.H)
    if c1.H != want_H:
        out.append(Violation(RULE, 5, tuple(sorted(c1.H ^ want_H)), "handicap is not i(H)"))
    else:
        want_M = FactorSet.of(
            MonomialFactor.of({bt.embed[h]: w for h, w in g.weights}) for g in c.M.generators
        )
        if c1.M != want_M:
            out.append(Violation(RULE, 6, (), "factors are not the transported generators"))
    out.extend(validate_scenario(c1))
    return out


def _exceptional_cap(c: Scenario, z: NodeId) -> Value:
    """The weight every factor takes at the exceptional node of a blowup at
    z: ord(z) - 1, or 0 for a center outside S."""
    return c.ord[z] - 1 if z in c.S else Fraction(0)


def capped_transport(c: Scenario, bt: BoardTransform, m: MonomialFactor) -> MonomialFactor:
    """Items 14-15: carry a factor of c through the blowup ``bt``.

    Weights ride along the embedding; the exceptional node takes the cap
    (a blown-up jib's own weight gives way to it).
    """
    weights: Dict[NodeId, Value] = {bt.embed[h]: w for h, w in m.weights}
    weights[bt.exceptional] = _exceptional_cap(c, bt.center)
    return MonomialFactor.of(weights)


def validate_blowup_transform(c: Scenario, bt: BoardTransform, c1: Scenario) -> List[Violation]:
    """Joint items 1-2 and blowup items 7-15, plus validity of the result.

    The verdict is stored on ``c1`` for this very ``c`` and ``bt``; every
    call returns a fresh list.
    """
    if bt.kind != BLOWUP:
        raise ValueError("expected a blowup transform")
    return _memo(c1, (c, bt), _check_blowup_transform, c, bt, c1)


def _check_blowup_transform(c: Scenario, bt: BoardTransform, c1: Scenario) -> List[Violation]:
    out = _joint_items(c, bt, c1)
    if any(v.issue == "structure" for v in out):
        return out
    z = bt.center
    e = bt.exceptional
    b1 = bt.target

    # Item 7: admissibility of the center.
    if z not in admissible_centers(c):
        out.append(
            Violation(
                RULE, 7, (z,), f"center {z} is not admissible (transversal and singular-or-remote)"
            )
        )

    # Item 8: only fibers of singular nodes stay singular.
    stray = tuple(s for s in sorted(c1.S) if bt.retract[s] not in c.S)
    if stray:
        out.append(Violation(RULE, 8, stray, "singular nodes outside u^{-1}(S)"))

    # Item 9: the exceptional node needs a heavy singular center; its order
    # is pinned one below the center's.
    if e in c1.S:
        if z not in c.S or c.ord[z] < 2:
            out.append(
                Violation(
                    RULE,
                    9,
                    (e,),
                    "exceptional node kept singular although the center has order < 2 or is not singular",
                )
            )
        elif c1.ord[e] != c.ord[z] - 1:
            out.append(
                Violation(
                    RULE,
                    9,
                    (e,),
                    f"ord({e}) = {format_value(c1.ord[e])}, expected "
                    f"{format_value(c.ord[z] - 1)}",
                )
            )

    # Item 10: orders are carried over outside the exceptional locus.
    for s1 in sorted(c1.S):
        if b1.leq(s1, e):
            continue
        src = bt.retract[s1]
        if src in c.S and c1.ord[s1] != c.ord[src]:
            out.append(
                Violation(
                    RULE,
                    10,
                    (s1,),
                    f"ord({s1}) = {format_value(c1.ord[s1])} != ord({src}) = "
                    f"{format_value(c.ord[src])}",
                )
            )

    # Item 11: tightness is hereditary.
    if is_tight(c) and not is_tight(c1):
        bad = tuple(s for s in sorted(c1.S) if c1.ord[s] != 1)
        out.append(Violation(RULE, 11, bad, "tight scenario transformed into a non-tight one"))

    # Item 12: the handicap picks up the exceptional node.
    want_H = frozenset(bt.embed[h] for h in c.H) | {e}
    if c1.H != want_H:
        out.append(Violation(RULE, 12, tuple(sorted(c1.H ^ want_H)), "handicap is not i(H) + e"))

    # Item 13: blowing up a node of critical dimension empties its fiber of
    # singular content under the corresponding jibs.
    uppers_z = tuple(h for h in sorted(c.H) if c.board.leq(z, h))
    k = c.d - c.board.dim(z)
    if 0 <= k <= len(uppers_z):
        for K in combinations(uppers_z, k):
            hit = tuple(
                s1
                for s1 in sorted(c1.S)
                if c.board.leq(bt.retract[s1], z)
                and all(b1.leq(s1, bt.embed[h]) for h in K)
            )
            if hit:
                out.append(
                    Violation(
                        RULE,
                        13,
                        hit + K,
                        f"singular nodes over the center survive below i(K), K = {set(K) or '{}'}",
                    )
                )

    # Item 14: factor generators gain the coordinate e, capped by ord(z) - 1
    # (0 for a center outside S).
    cap = _exceptional_cap(c, z)
    if cap < 0:
        out.append(
            Violation(
                RULE,
                14,
                (z,),
                f"no legal factor set: the cap at {e} would be {format_value(cap)} < 0",
            )
        )
    else:
        want_gens = FactorSet.of(capped_transport(c, bt, g) for g in c.M.generators)
        if c1.M != want_gens:
            out.append(Violation(RULE, 14, (e,), "factor generators are not the capped transports"))

    # Item 15: a complete factor stays complete after transport.
    m = complete_factor(c)
    if m is not None and not cap < 0:
        m1 = capped_transport(c, bt, m)
        for s1 in sorted(c1.S):
            want = extend_factor(b1, m1, s1)
            if c1.ord[s1] != want:
                out.append(
                    Violation(
                        RULE,
                        15,
                        (s1,),
                        f"transported complete factor misses ord({s1}): "
                        f"{format_value(want)} != {format_value(c1.ord[s1])}",
                    )
                )
    out.extend(validate_scenario(c1))
    return out


# ---- commutativity across a blowup ---------------------------------------


def quotient_lifted_factor(
    m: MonomialFactor, z: NodeId, q: Fraction, c: Scenario, bt: BoardTransform
) -> MonomialFactor:
    """How a quotient call's factor rides through a blowup at z.

    The exceptional coordinate is m(z) + q - 1, evaluated via the factor's
    extension at the center; parent coordinates transport along the embedding.
    The coordinate is clamped at zero: it only goes negative at a center of
    order 1 whose residual exceeds the scale, and there the exceptional cap
    ord(z) - 1 = 0 leaves zero as the lone legal weight anyway. Without the
    clamp such centers would strand the quotient quest with no response at
    all, and the scale would stop shrinking between quotient calls.
    """
    e_weight = max(Fraction(0), extend_factor(c.board, m, z) + q - 1)
    weights: Dict[NodeId, Value] = {bt.embed[h]: w for h, w in m.weights}
    weights[bt.exceptional] = e_weight
    return MonomialFactor.of(weights)


def transport_relation(
    rel: QuestRelation, c: Scenario, bt: BoardTransform
) -> QuestRelation:
    """Re-express a call's parameters on the blown-up board.

    Jib sets ride along the embedding. A released set additionally sheds the
    exceptional node: every response keeps e as a jib, so when the center was
    itself among the released jibs (e = i(z)) the transported release must
    leave e handicapped or no child response could satisfy both sides of the
    square.
    """
    if rel.kind == RELAXATION:
        jibs = frozenset(bt.embed[h] for h in rel.jibs)
        if bt.exceptional is not None:
            jibs -= {bt.exceptional}
        return QuestRelation(rel.kind, jibs=jibs)
    if rel.kind == TRANSVERSALITY:
        return QuestRelation(rel.kind, jibs=frozenset(bt.embed[h] for h in rel.jibs))
    if rel.kind == QUOTIENT:
        lifted = quotient_lifted_factor(rel.factor, bt.center, rel.scale, c, bt)
        return QuestRelation(QUOTIENT, factor=lifted, scale=rel.scale)
    return rel


def child_survives(rel: QuestRelation, c: Scenario, c1: Scenario, bt: BoardTransform) -> bool:
    """Whether a child quest stays open through a blowup at bt.center.

    A child is discarded when the center is not admissible for its current
    scenario. A quotient child is additionally discarded when the lifted
    factor's exceptional weight would exceed the cap every response family
    enforces there (a corner only reachable at centers outside the child's
    singular set).
    """
    z = bt.center
    if z not in admissible_centers(c1):
        return False
    if rel.kind == QUOTIENT:
        lifted = quotient_lifted_factor(rel.factor, z, rel.scale, c, bt)
        if lifted.weight(bt.exceptional) > _exceptional_cap(c, z):
            return False
    return True


def commutes(
    rel: QuestRelation,
    c: Scenario,
    c1: Scenario,
    c_prime: Scenario,
    c1_prime: Optional[Scenario],
    bt: BoardTransform,
) -> List[Violation]:
    """Check the parent/child square across a blowup.

    ``c``/``c1`` are the parent and child scenarios before the move,
    ``c_prime`` the parent's new scenario, ``c1_prime`` the child's (None
    when the child is discarded). Relation-side failures are reported under
    rule "commutativity" with the call kind's issue number; transform-side
    failures keep their own rule tags.

    The verdict is stored on ``c1_prime`` for these very other arguments;
    without a child response it is computed directly. Every call returns a
    fresh list.
    """
    if c1_prime is None:
        return _check_commutes(rel, c, c1, c_prime, c1_prime, bt)
    return _memo(
        c1_prime, (rel, c, c1, c_prime, bt), _check_commutes, rel, c, c1, c_prime, c1_prime, bt
    )


def _check_commutes(
    rel: QuestRelation,
    c: Scenario,
    c1: Scenario,
    c_prime: Scenario,
    c1_prime: Optional[Scenario],
    bt: BoardTransform,
) -> List[Violation]:
    if c.board != bt.source or c1.board != bt.source or c_prime.board != bt.target:
        raise ValueError("commutativity check: boards do not line up")
    issue = _COMM_ISSUE[rel.kind]
    survives = child_survives(rel, c, c1, bt)
    if not survives:
        if c1_prime is None:
            return []
        return [
            Violation(
                "commutativity",
                issue,
                (bt.center,),
                "child keeps a response although the center closed it",
            )
        ]
    if c1_prime is None:
        return [
            Violation(
                "commutativity",
                issue,
                (bt.center,),
                "open child received no response",
            )
        ]

    out: List[Violation] = []
    rel1 = transport_relation(rel, c, bt)
    if rel.kind == TRANSVERSALITY:
        sub = transversality_check(c_prime, rel1.jibs, c1_prime)
    elif rel.kind == QUOTIENT:
        if not c_prime.M.contains(rel1.factor):
            sub = [
                Violation(
                    QUOTIENT,
                    "structure",
                    (bt.exceptional,),
                    "lifted factor is not a factor of the parent response",
                )
            ]
        else:
            sub = quotient_check(c_prime, rel1.factor, rel1.scale, c1_prime)
    elif rel.kind == RELAXATION:
        sub = relaxation_check(c_prime, rel1.jibs, c1_prime)
    else:  # descent: same-board relation after the call round
        sub = []
        if (c1_prime.d, c1_prime.B) != (c_prime.d - 1, c_prime.B):
            sub.append(
                Violation(
                    DESCENT,
                    1,
                    (),
                    f"expected d={c_prime.d - 1}, B={c_prime.B}; got d={c1_prime.d}, B={c1_prime.B}",
                )
            )
        for name, mine, theirs in (
            ("S", c1_prime.S, c_prime.S),
            ("H", c1_prime.H, c_prime.H),
            ("T", c1_prime.T, c_prime.T),
        ):
            if mine != theirs:
                sub.append(
                    Violation(
                        DESCENT,
                        2,
                        tuple(sorted(mine ^ theirs)),
                        f"descent child's {name} differs from the parent's",
                    )
                )
    for v in sub:
        out.append(
            Violation("commutativity", issue, v.witness, f"(call side) {v.detail}")
        )
    out.extend(validate_blowup_transform(c1, bt, c1_prime))
    return out
