"""Dido: a deterministic strategy that wins every valid starting scenario.

One plan per quest, created lazily when the quest is first reached:

* loop plan (the default): keep a tracked factor m of the quest's factor
  set, starting at zero (or at an already-complete factor). While some
  residual order ord - ext_m is infinite, blow up a maximal infinite node.
  Otherwise call a quotient at scale q = max residual and delegate to the
  child until it closes; each answered blowup lifts m onto the new board, so
  the residuals shrink toward zero. When m is complete, switch to elementary
  steps: pick an inclusion-minimal critical jib set K (factor mass >= 1),
  blow up the maximal singular nodes below K, and repeat until the singular
  set empties.

* driver plan (tight quests above dimension 0 with no jibs... or with jibs,
  after which it releases them): for every critical jib set K, in decreasing
  size, call transversality at K, release every jib on that child, and call
  descent on the grandchild; then win the descent quests in order. The empty
  K comes last and its descent quest shares the parent's singular set, so
  its win resolves the parent.

All decisions are functions of the visible game state, so equal seeds on
Mephisto's side reproduce equal games.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .board import BoardTransform, NodeId
from .game import Bundle, CALL, DISCARDED, GameState, Move, OPEN, Quest
from .quests import DESCENT, QUOTIENT, RELAXATION, TRANSVERSALITY, QuestRelation
from .scenario import (
    MonomialFactor,
    Scenario,
    _max_mass,
    _subsets,
    complete_factor,
    extend_factor,
    is_tight,
    zero_factor,
)
from .transform import lift_factor
from .values import INF, Value, is_finite

__all__ = ["DidoStrategy", "StrategyError", "measure_of", "dms_less"]

_DRIVER_SET_CAP = 64


class StrategyError(RuntimeError):
    """The game left the region the strategy's invariants cover."""


# ---- measures ----------------------------------------------------------------


def _critical_sets(c: Scenario, m: MonomialFactor) -> List[Tuple[NodeId, ...]]:
    """Jib sets with factor mass >= 1 that have a singular node below all of
    them; these are the obstructions the elementary steps burn down."""
    weights = [m.as_dict()]
    return sorted(
        {K for s in c.S for K in _subsets(c.jib_uppers(s)) if K and _max_mass(weights, K) >= 1}
    )


def _minimal_sets(sets: List[Tuple[NodeId, ...]]) -> List[Tuple[NodeId, ...]]:
    out = []
    for K in sets:
        ks = frozenset(K)
        if not any(frozenset(other) < ks for other in sets):
            out.append(K)
    return out


def measure_of(c: Scenario, m: MonomialFactor) -> Tuple[Fraction, ...]:
    """Multiset (as a sorted tuple, largest first) of the masses of the
    inclusion-minimal critical sets; empty when nothing is critical."""
    weights = [m.as_dict()]
    masses = [_max_mass(weights, K) for K in _minimal_sets(_critical_sets(c, m))]
    if any(not is_finite(x) for x in masses):
        raise StrategyError("infinite factor mass in a monomial measure")
    return tuple(sorted(masses, reverse=True))


def dms_less(a: Tuple[Fraction, ...], b: Tuple[Fraction, ...]) -> bool:
    """Dershowitz-Manna multiset order: a < b iff replacing some elements of
    b produced a, every newcomer strictly below some departed element."""
    from collections import Counter

    ca, cb = Counter(a), Counter(b)
    only_a = list((ca - cb).elements())
    only_b = list((cb - ca).elements())
    if not only_a and not only_b:
        return False
    return all(any(x < y for y in only_b) for x in only_a)


# ---- plans -------------------------------------------------------------------


@dataclass
class _LoopPlan:
    m: MonomialFactor
    child_id: Optional[int] = None
    q: Optional[Fraction] = None
    monomial: bool = False
    pending: List[NodeId] = field(default_factory=list)

    mode: str = "loop"


@dataclass
class _DriverItem:
    K: Tuple[NodeId, ...]
    p_id: Optional[int] = None
    r_id: Optional[int] = None
    q_id: Optional[int] = None


@dataclass
class _DriverPlan:
    L: FrozenSet[NodeId]
    items: List[_DriverItem]

    mode: str = "driver"


class DidoStrategy:
    def __init__(self) -> None:
        self.plans: Dict[int, object] = {}
        self.measure_log: List[Tuple[int, Tuple[Fraction, ...]]] = []

    # -- planning --------------------------------------------------------------

    def _ensure_plan(self, quest: Quest):
        plan = self.plans.get(quest.quest_id)
        if plan is not None:
            return plan
        c = quest.scenario
        if is_tight(c) and c.d >= 1:
            items = self._driver_items(c)
            plan = _DriverPlan(L=c.H, items=items)
        else:
            m0 = complete_factor(c)
            plan = _LoopPlan(m=m0 if m0 is not None else zero_factor(c.H))
        self.plans[quest.quest_id] = plan
        return plan

    @staticmethod
    def _driver_items(c: Scenario) -> List[_DriverItem]:
        sets = {K for s in c.S for K in _subsets(c.jib_uppers(s))}
        if len(sets) > _DRIVER_SET_CAP:
            raise StrategyError(
                f"{len(sets)} critical jib sets; the driver handles at most "
                f"{_DRIVER_SET_CAP}"
            )
        ordered = sorted(sets, key=lambda K: (-len(K), K))
        return [_DriverItem(K=K) for K in ordered]

    # -- deciding ----------------------------------------------------------------

    def decide(self, state: GameState) -> Optional[Move]:
        if state.root.status != OPEN:
            return None
        return self._decide_quest(state, 0)

    def _decide_quest(self, state: GameState, qid: int) -> Move:
        quest = state.quests[qid]
        if quest.status != OPEN:
            raise StrategyError(f"deciding on quest {qid} which is {quest.status}")
        plan = self._ensure_plan(quest)
        if plan.mode == "driver":
            return self._drive(state, quest, plan)
        return self._loop(state, quest, plan)

    def _drive(self, state: GameState, quest: Quest, plan: _DriverPlan) -> Move:
        for item in plan.items:
            if item.p_id is None:
                return Move.call(
                    quest.quest_id, QuestRelation.transversality(frozenset(item.K))
                )
            if item.r_id is None:
                return Move.call(item.p_id, QuestRelation.relaxation(plan.L))
            if item.q_id is None:
                return Move.call(item.r_id, QuestRelation.descent())
        for item in plan.items:
            sub = state.quests[item.q_id]
            if sub.status == DISCARDED:
                raise StrategyError(
                    f"descent quest {item.q_id} for {item.K} was discarded"
                )
            if sub.status == OPEN:
                return self._decide_quest(state, item.q_id)
        raise StrategyError("all descent quests won but the driver quest is open")

    def _loop(self, state: GameState, quest: Quest, plan: _LoopPlan) -> Move:
        c = quest.scenario
        resid: Dict[NodeId, Value] = {}
        for s in c.S:
            ext = extend_factor(c.board, plan.m, s)
            v = c.ord[s]
            if not is_finite(v):
                resid[s] = INF
            else:
                if not is_finite(ext):
                    raise StrategyError(f"tracked factor infinite at finite node {s}")
                resid[s] = v - ext
                if resid[s] < 0:
                    raise StrategyError(f"tracked factor exceeds the order at {s}")
        if plan.monomial or all(r == 0 for r in resid.values()):
            plan.monomial = True
            return self._elementary(quest, plan)
        if plan.child_id is not None and state.quests[plan.child_id].status == OPEN:
            return self._decide_quest(state, plan.child_id)
        infinite = [s for s in sorted(resid) if not is_finite(resid[s])]
        if infinite:
            tops = [
                s
                for s in infinite
                if not any(t != s and c.board.leq(s, t) for t in infinite)
            ]
            for s in tops:
                if c.board.dim(s) != c.d:
                    raise StrategyError(
                        f"maximal infinite node {s} has dimension "
                        f"{c.board.dim(s)}, expected {c.d}"
                    )
            return Move.blowup(min(tops))
        q = max(v for v in resid.values())
        if q <= 0:
            raise StrategyError("zero residuals did not enter the monomial phase")
        return Move.call(quest.quest_id, QuestRelation.quotient(plan.m, q))

    def _elementary(self, quest: Quest, plan: _LoopPlan) -> Move:
        c = quest.scenario
        for s in c.S:
            if extend_factor(c.board, plan.m, s) != c.ord[s]:
                raise StrategyError(
                    f"tracked factor is not complete at {s}; the response rules "
                    "should have preserved completeness"
                )
        plan.pending = [t for t in plan.pending if t in c.S]
        if plan.pending:
            return Move.blowup(plan.pending[0])
        minimal = _minimal_sets(_critical_sets(c, plan.m))
        if not minimal:
            raise StrategyError("no critical set although singular nodes remain")
        K = min(minimal, key=lambda t: (len(t), t))
        below = [s for s in c.S if all(c.board.leq(s, h) for h in K)]
        N = sorted(
            s
            for s in below
            if not any(t != s and c.board.leq(s, t) for t in below)
        )
        if not N:
            raise StrategyError(f"critical set {K} has no singular node below it")
        for s in N:
            if c.board.dim(s) != c.d - len(K):
                raise StrategyError(
                    f"singular node {s} below {K} has dimension {c.board.dim(s)}, "
                    f"expected {c.d - len(K)}"
                )
            if s not in c.T:
                raise StrategyError(f"blowup center {s} is not transversal")
        self.measure_log.append((quest.quest_id, measure_of(c, plan.m)))
        plan.pending = N
        return Move.blowup(plan.pending[0])

    # -- observing ---------------------------------------------------------------

    def observe(
        self, state: GameState, move: Move, bundle: Bundle, record: dict
    ) -> None:
        if move.kind == CALL:
            self._observe_call(move, record["new_quest"])
        else:
            self._observe_blowup(state, bundle.transform)
        for qid in list(self.plans):
            quest = state.quests.get(qid)
            if quest is None or quest.status != OPEN:
                del self.plans[qid]

    def _observe_call(self, move: Move, new_id: int) -> None:
        rel = move.relation
        plan = self.plans.get(move.quest_id)
        if isinstance(plan, _LoopPlan) and rel.kind == QUOTIENT:
            plan.child_id = new_id
            plan.q = rel.scale
            return
        for plan in self.plans.values():
            if not isinstance(plan, _DriverPlan):
                continue
            for item in plan.items:
                if (
                    rel.kind == TRANSVERSALITY
                    and item.p_id is None
                    and frozenset(item.K) == rel.jibs
                    and self._owned(plan, move.quest_id)
                ):
                    item.p_id = new_id
                    return
                if rel.kind == RELAXATION and item.p_id == move.quest_id and item.r_id is None:
                    item.r_id = new_id
                    return
                if rel.kind == DESCENT and item.r_id == move.quest_id and item.q_id is None:
                    item.q_id = new_id
                    return

    def _owned(self, plan: _DriverPlan, qid: int) -> bool:
        return self.plans.get(qid) is plan

    def _observe_blowup(self, state: GameState, bt: BoardTransform) -> None:
        z = bt.center
        for qid, plan in self.plans.items():
            quest = state.quests.get(qid)
            if quest is None or quest.status == DISCARDED:
                continue
            if isinstance(plan, _DriverPlan):
                plan.L = frozenset(bt.embed[h] for h in plan.L)
                continue
            ext_z = extend_factor(bt.source, plan.m, z)
            if plan.monomial:
                if not is_finite(ext_z):
                    raise StrategyError("infinite tracked weight in the monomial phase")
                e_weight: Value = ext_z - 1
                if e_weight < 0:
                    raise StrategyError(
                        f"monomial lift at {z} went negative ({e_weight})"
                    )
            elif plan.child_id is not None:
                # Same clamp as the transported relation factor: at an
                # order-1 center with residual above the scale the raw lift
                # dips below zero, and zero is the weight the cap allows.
                # An infinite ext_z lifts to an infinite weight.
                e_weight = max(Fraction(0), ext_z + plan.q - 1)
            else:
                e_weight = Fraction(0)
            plan.m = lift_factor(plan.m, bt, e_weight)
            plan.pending = [
                bt.embed[t]
                for t in plan.pending
                if t != z and bt.embed[t] in quest.scenario.S
            ]
            if plan.child_id is not None:
                child = state.quests.get(plan.child_id)
                if child is None or child.status != OPEN:
                    plan.child_id = None
                    plan.q = None
