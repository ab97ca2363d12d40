"""Scenario transforms across board changes, and cross-quest consistency.

A blowup forces every open quest's scenario to evolve; a call round leaves
the board and every open scenario as they are. ``validate_blowup_transform``
checks one quest's old/new scenario pair against the transform items 1-2 and
7-15. Items 3-6 were those of a refinement, a move no round plays; the
numbers stay free so that violation tags do not shift. This module owns the
formulas of a blowup, which Mephisto and Dido build with and the validator
compares against: ``lift_factor`` carries a factor through it, weighted at
the exceptional node by ``capped_transport`` (items 14-15, capped by
``exceptional_cap``) or ``quotient_lifted_factor`` (a quotient call's
factor); ``pinned_orders`` is the order every response must give each node
it keeps singular at the exceptional node (item 9, the cap) or off the
exceptional locus (item 10, the source's order), ``blowup_jibs`` the
handicap and factor set of every response (items 12 and 14),
``complete_orders`` the order every node of the blown-up board takes when
the quest has a complete factor, its capped transport's extension (item 15,
agreeing with every pin), and ``cleared_nodes`` the nodes no response may
keep singular (item 13). The blown-up board itself is
``board.blowup_transform``'s. ``commutes`` checks the square linking a
parent quest and a child created by an earlier call, for a child that
survives the blowup: the child's new scenario must simultaneously answer the
transported call on the parent's new scenario (``quests.call_check``, the
one check of all four calls) and be a legal transform of the child's old
scenario. Which children survive is ``game.blowup_discards``'s decision
alone.

Checks are pure functions of immutable objects, and each is answered once per
identical inputs. Every result about a blowup is stored on its transform
``bt``, one slot per identity of the other arguments (``board._memo``):
``validate_blowup_transform`` and ``commutes`` verdicts, and the
``transport_relation``, ``pinned_orders``, ``complete_orders`` and
``blowup_jibs`` results, so every response of one quest shares one pin map,
one map of complete orders, and one factor set and with it one issue-9 table
(``scenario.heavy_jib_violations``).
Mephisto builds each distinct response once per blown-up board and shares it
among the candidates, so a response checked for one candidate is a lookup
for the next; the umpire checks the same bundle objects, so its second look
is a lookup too.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from .board import BLOWUP, BoardTransform, FrozenDict, NodeId, Violation, _memo
from .quests import (
    DESCENT,
    QUOTIENT,
    RELAXATION,
    TRANSVERSALITY,
    QuestRelation,
    call_check,
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
    validate_shape,
)
from .values import Q, ZERO, Value, format_value

__all__ = [
    "QuestRelation",
    "validate_blowup_transform",
    "exceptional_cap",
    "pinned_orders",
    "lift_factor",
    "capped_transport",
    "complete_orders",
    "cleared_nodes",
    "blowup_jibs",
    "quotient_lifted_factor",
    "transport_relation",
    "commutes",
]

RULE = "scenario-transform"

# Commutativity issue numbers by call kind.
_COMM_ISSUE = {RELAXATION: 1, DESCENT: 2, TRANSVERSALITY: 3, QUOTIENT: 4}


# ---- transforms of a single quest ---------------------------------------


def exceptional_cap(c: Scenario, z: NodeId) -> Value:
    """The weight every factor takes at the exceptional node of a blowup at
    z: ord(z) - 1, or 0 for a center outside S. For a singular center it is
    also the order item 9 pins on the exceptional node."""
    return c.ord[z] - 1 if z in c.S else ZERO


def pinned_orders(c: Scenario, bt: BoardTransform) -> FrozenDict:
    """Items 9-10: the order a response to the blowup must give each node of
    u^{-1}(S) it keeps singular, whatever its keep. The exceptional node e,
    when the center is singular, sits at ``exceptional_cap``; every node not
    below e keeps its source node's order; the other fresh nodes are free.
    Stored on ``bt`` for this very ``c``, like ``blowup_jibs``."""
    return _memo(_pinned_orders, c, bt)


def _pinned_orders(c: Scenario, bt: BoardTransform) -> FrozenDict:
    below_e = bt.target._down[bt.exceptional]
    pins = {
        x: c.ord[src]
        for x, src in bt.retract.items()
        if src in c.S and x not in below_e
    }
    if bt.center in c.S:
        pins[bt.exceptional] = exceptional_cap(c, bt.center)
    return FrozenDict(pins)


def lift_factor(m: MonomialFactor, bt: BoardTransform, e_weight: Value) -> MonomialFactor:
    """Carry a factor through the blowup ``bt``: weights ride along the
    embedding and the exceptional node takes ``e_weight`` (a blown-up jib's
    own weight gives way to it)."""
    weights: Dict[NodeId, Value] = {bt.embed[h]: w for h, w in m.items()}
    weights[bt.exceptional] = e_weight
    return MonomialFactor(weights)


def capped_transport(c: Scenario, bt: BoardTransform, m: MonomialFactor) -> MonomialFactor:
    """Items 14-15: carry a factor of c through the blowup ``bt``, the
    exceptional node taking the cap."""
    return lift_factor(m, bt, exceptional_cap(c, bt.center))


def complete_orders(c: Scenario, bt: BoardTransform) -> Optional[FrozenDict]:
    """Item 15: the order every response to the blowup must give each node of
    the blown-up board it keeps singular, the extension of the capped
    transport of c's complete factor; None when c has none. Where a pin of
    ``pinned_orders`` falls, it agrees. Stored on ``bt`` for this very ``c``,
    like ``pinned_orders``."""
    return _memo(_complete_orders, c, bt)


def _complete_orders(c: Scenario, bt: BoardTransform) -> Optional[FrozenDict]:
    m = complete_factor(c)
    if m is None:
        return None
    m1 = capped_transport(c, bt, m)
    return FrozenDict({x: extend_factor(bt.target, m1, x) for x in bt.target.ids})


def blowup_jibs(c: Scenario, bt: BoardTransform) -> Tuple[FrozenSet[NodeId], FactorSet]:
    """Items 12 and 14: the handicap i(H) + e and the capped transports of
    c's factor generators that every response to the blowup carries. Neither
    depends on the new S, T or orders.

    The pair is stored on ``bt`` for this very ``c``, so every response
    Mephisto builds for c on the blown-up board, its keep sieve and the
    validator share one H1 and one M1, and with them M1's issue-9 table
    (``scenario.heavy_jib_violations``).
    """
    return _memo(_blowup_jibs, c, bt)


def _blowup_jibs(c: Scenario, bt: BoardTransform) -> Tuple[FrozenSet[NodeId], FactorSet]:
    H1 = frozenset(bt.embed[h] for h in c.H) | {bt.exceptional}
    return H1, FactorSet.of(capped_transport(c, bt, g) for g in c.M.generators)


def cleared_nodes(
    c: Scenario, bt: BoardTransform, nodes: Iterable[NodeId]
) -> Iterator[Tuple[Tuple[NodeId, ...], Tuple[NodeId, ...]]]:
    """Item 13: for each k-subset K of the center's jib uppers, k = d -
    dim(z), the pair (K, the members of ``nodes`` over z below every i(h),
    h in K, sorted). No node of a response may be singular there."""
    z = bt.center
    k = c.d - c.board._dims[z]
    if k < 0:
        return
    below_z = c.board._down[z]
    over_z = sorted(x for x in nodes if bt.retract[x] in below_z)
    for K in combinations(c.jib_uppers(z), k):
        rows = [bt.target._down[bt.embed[h]] for h in K]
        yield K, tuple(x for x in over_z if all(x in row for row in rows))


def validate_blowup_transform(c: Scenario, bt: BoardTransform, c1: Scenario) -> List[Violation]:
    """Items 1-2 and 7-15, plus validity of the result. A result that fails
    ``scenario.validate_shape``, a node off the target board say, gets
    exactly that list: the items read it node by node.

    The verdict is stored on ``bt`` for this very ``c`` and ``c1``; every
    call returns a fresh list.
    """
    if bt.kind != BLOWUP:
        raise ValueError("expected a blowup transform")
    return list(_memo(_check_blowup_transform, c, c1, bt))


def _check_blowup_transform(c: Scenario, c1: Scenario, bt: BoardTransform) -> List[Violation]:
    out: List[Violation] = []
    if c.board != bt.source or c1.board != bt.target:
        out.append(Violation(RULE, "structure", (), "scenario boards do not match the transform"))
        return out
    shape = validate_shape(c1)
    if shape:
        return shape

    # Items 1-2: d, B and transversality ride along unchanged.
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

    z = bt.center
    e = bt.exceptional
    S1 = sorted(c1.S)

    # Item 7: admissibility of the center.
    if z not in admissible_centers(c):
        out.append(
            Violation(
                RULE, 7, (z,), f"center {z} is not admissible (transversal and singular-or-remote)"
            )
        )

    # Item 8: only fibers of singular nodes stay singular.
    stray = tuple(s for s in S1 if bt.retract[s] not in c.S)
    if stray:
        out.append(Violation(RULE, 8, stray, "singular nodes outside u^{-1}(S)"))

    # Item 9: the exceptional node needs a heavy singular center; its order
    # is pinned one below the center's.
    pins = pinned_orders(c, bt)
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
        elif c1.ord[e] != pins[e]:
            out.append(
                Violation(
                    RULE,
                    9,
                    (e,),
                    f"ord({e}) = {format_value(c1.ord[e])}, expected {format_value(pins[e])}",
                )
            )

    # Item 10: orders are carried over outside the exceptional locus.
    for s1 in S1:
        if s1 != e and s1 in pins and c1.ord[s1] != pins[s1]:
            out.append(
                Violation(
                    RULE,
                    10,
                    (s1,),
                    f"ord({s1}) = {format_value(c1.ord[s1])} != ord({bt.retract[s1]}) = "
                    f"{format_value(pins[s1])}",
                )
            )

    # Item 11: tightness is hereditary.
    if is_tight(c) and not is_tight(c1):
        bad = tuple(s for s in S1 if c1.ord[s] != 1)
        out.append(Violation(RULE, 11, bad, "tight scenario transformed into a non-tight one"))

    # Item 12: the handicap picks up the exceptional node.
    want_H, want_M = blowup_jibs(c, bt)
    if c1.H != want_H:
        out.append(Violation(RULE, 12, tuple(sorted(c1.H ^ want_H)), "handicap is not i(H) + e"))

    # Item 13: blowing up a node of critical dimension empties its fiber of
    # singular content under the corresponding jibs.
    for K, hit in cleared_nodes(c, bt, c1.S):
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
    cap = exceptional_cap(c, z)
    if cap < 0:
        out.append(
            Violation(
                RULE,
                14,
                (z,),
                f"no legal factor set: the cap at {e} would be {format_value(cap)} < 0",
            )
        )
    elif c1.M != want_M:
        out.append(Violation(RULE, 14, (e,), "factor generators are not the capped transports"))

    # Item 15: a complete factor stays complete after transport.
    complete = None if cap < 0 else complete_orders(c, bt)
    if complete is not None:
        for s1 in S1:
            if c1.ord[s1] != complete[s1]:
                out.append(
                    Violation(
                        RULE,
                        15,
                        (s1,),
                        f"transported complete factor misses ord({s1}): "
                        f"{format_value(complete[s1])} != {format_value(c1.ord[s1])}",
                    )
                )
    out.extend(validate_scenario(c1))
    return out


# ---- commutativity across a blowup ---------------------------------------


def quotient_lifted_factor(m: MonomialFactor, q: Q, bt: BoardTransform) -> MonomialFactor:
    """How a quotient call's factor rides through the blowup ``bt`` at z.

    The exceptional coordinate is m(z) + q - 1, evaluated via the factor's
    extension at the center; parent coordinates transport along the embedding.
    The coordinate is clamped at zero: it only goes negative at a center of
    order 1 whose residual exceeds the scale, and there the exceptional cap
    ord(z) - 1 = 0 leaves zero as the lone legal weight anyway. Without the
    clamp such centers would strand the quotient quest with no response at
    all, and the scale would stop shrinking between quotient calls.
    """
    ext_z = extend_factor(bt.source, m, bt.center)
    return lift_factor(m, bt, max(ZERO, ext_z + q - 1))


def transport_relation(rel: QuestRelation, bt: BoardTransform) -> QuestRelation:
    """Re-express a call's parameters on the blown-up board.

    Jib sets ride along the embedding. A released set additionally sheds the
    exceptional node: every response keeps e as a jib, so when the center was
    itself among the released jibs (e = i(z)) the transported release must
    leave e handicapped or no child response could satisfy both sides of the
    square.

    The result is stored on ``bt`` for this very ``rel``, so Mephisto's
    candidates, ``commutes``, ``game.blowup_discards`` and
    ``game.apply_round`` share one object.
    """
    return _memo(_transport_relation, rel, bt)


def _transport_relation(rel: QuestRelation, bt: BoardTransform) -> QuestRelation:
    if rel.kind == RELAXATION:
        jibs = frozenset(bt.embed[h] for h in rel.jibs) - {bt.exceptional}
        return QuestRelation(rel.kind, jibs=jibs)
    if rel.kind == TRANSVERSALITY:
        return QuestRelation(rel.kind, jibs=frozenset(bt.embed[h] for h in rel.jibs))
    if rel.kind == QUOTIENT:
        lifted = quotient_lifted_factor(rel.factor, rel.scale, bt)
        return QuestRelation(QUOTIENT, factor=lifted, scale=rel.scale)
    return rel


def commutes(
    rel: QuestRelation,
    c: Scenario,
    c1: Scenario,
    c_prime: Scenario,
    c1_prime: Scenario,
    bt: BoardTransform,
) -> List[Violation]:
    """Check the parent/child square across a blowup, for a child that
    survives it (``game.blowup_discards`` decides which do).

    ``c``/``c1`` are the parent and child scenarios before the move,
    ``c_prime`` and ``c1_prime`` their new ones. The call side is
    ``quests.call_check`` of the transported relation between the two new
    scenarios; its failures are reported under rule "commutativity" with the
    call kind's issue number. Transform-side failures keep their own rule
    tags. Boards that do not line up, new scenarios that fail
    ``scenario.validate_shape`` (their list alone), and a new parent
    scenario that does not admit the transported call, are reported, not
    raised.

    The verdict is stored on ``bt`` for these very other arguments; every
    call returns a fresh list.
    """
    return list(_memo(_check_commutes, rel, c, c1, c_prime, c1_prime, bt))


def _check_commutes(
    rel: QuestRelation,
    c: Scenario,
    c1: Scenario,
    c_prime: Scenario,
    c1_prime: Scenario,
    bt: BoardTransform,
) -> List[Violation]:
    if c.board != bt.source or c1.board != bt.source or c_prime.board != bt.target:
        detail = "boards do not line up with the blowup"
        return [Violation("commutativity", "structure", (), detail)]
    shape = validate_shape(c_prime) + validate_shape(c1_prime)
    if shape:
        return shape
    try:
        sub = call_check(c_prime, transport_relation(rel, bt), c1_prime)
    except ValueError as exc:  # parameters the parent's new scenario does not admit
        sub = [Violation(rel.kind, "structure", (bt.exceptional,), str(exc))]
    issue = _COMM_ISSUE[rel.kind]
    out = [
        Violation("commutativity", issue, v.witness, f"(call side) {v.detail}") for v in sub
    ]
    out.extend(validate_blowup_transform(c1, bt, c1_prime))
    return out
