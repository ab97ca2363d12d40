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

* driver plan (every tight quest with d >= 1, whatever its jibs): for
  every set K of jibs above some singular node, in decreasing size, call
  transversality at K, release every jib on that child, and call descent
  on the grandchild; then win the descent quests in order. The empty
  K comes last and its descent quest shares the parent's singular set, so
  its win resolves the parent.

All decisions are functions of the visible game state and of the plans,
so equal seeds on Mephisto's side reproduce equal games. Two things serve
the explorer, which branches the strategy once per Mephisto answer. A
strategy copies itself field by field (``DidoStrategy.__deepcopy__``): it
shares the immutable factors, frozensets and tuples the plans hold, copies
only the plans and their lists, and points ``_slot`` at the copy's own
holder. ``_plans_text`` is the canonical text of the plans, the strategy's
half of the explorer's state key; it leaves out ``measure_log``, which no
decision reads, and ``_slot``, which ``decide`` sets before it returns any
call.

Dido owns no rule formula: the critical sets are ``scenario.heavy_jib_sets``
under the tracked factor, maximal nodes come from ``Board.maximal_among``,
and m rides through a blowup by ``transform.lift_factor``, or, while a
quotient child is open, by ``transform.quotient_lifted_factor``, the lift
of that child's relation factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from .board import BoardTransform, NodeId
from .game import Bundle, CALL, DISCARDED, GameState, Move, OPEN, Quest
from .quests import QuestRelation
from .scenario import (
    MonomialFactor,
    Scenario,
    _max_mass,
    _subsets,
    complete_factor,
    extend_factor,
    factor_to_json,
    heavy_jib_sets,
    is_tight,
    zero_factor,
)
from .transform import lift_factor, quotient_lifted_factor
from .values import INF, Value, is_finite

__all__ = ["DidoStrategy", "StrategyError", "measure_of", "dms_less"]


class StrategyError(RuntimeError):
    """The game left the region the strategy's invariants cover."""


# ---- measures ----------------------------------------------------------------


def _critical_sets(c: Scenario, m: MonomialFactor) -> List[Tuple[NodeId, ...]]:
    """Jib sets with factor mass >= 1 that have a singular node below all of
    them; these are the obstructions the elementary steps burn down."""
    weights = [m.as_dict()]
    return sorted({K for s in c.S for K in heavy_jib_sets(c.jib_uppers(s), weights)})


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
    monomial: bool = False
    pending: List[NodeId] = field(default_factory=list)


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


def _plans_text(plans: Dict[int, object]) -> str:
    """The plans as one canonical text: equal plans, equal text."""
    out = []
    for qid in sorted(plans):
        plan = plans[qid]
        if isinstance(plan, _DriverPlan):
            items = [[item.K, item.p_id, item.r_id, item.q_id] for item in plan.items]
            out.append([qid, "driver", sorted(plan.L), items])
        else:
            out.append(
                [qid, "loop", factor_to_json(plan.m), plan.child_id, plan.monomial,
                 plan.pending]
            )
    return json.dumps(out)


class DidoStrategy:
    def __init__(self) -> None:
        self.plans: Dict[int, object] = {}
        self.measure_log: List[Tuple[int, Tuple[Fraction, ...]]] = []
        # the plan or driver item, and its field, that the last call's
        # quest fills once observed
        self._slot: Optional[Tuple[object, str]] = None

    def __deepcopy__(self, memo) -> "DidoStrategy":
        """A copy whose plans change apart from these. Every plan field but
        the lists holds an immutable value, which the copy shares."""
        copied: Dict[int, object] = {}  # id of an original plan or item -> its copy
        plans: Dict[int, object] = {}
        for qid, plan in self.plans.items():
            if isinstance(plan, _DriverPlan):
                items = [replace(item) for item in plan.items]
                copied.update(zip(map(id, plan.items), items))
                new = _DriverPlan(L=plan.L, items=items)
            else:
                new = replace(plan, pending=list(plan.pending))
            plans[qid] = copied[id(plan)] = new
        out = DidoStrategy()
        out.plans = plans
        out.measure_log = list(self.measure_log)
        # a holder whose quest has closed is never filled again
        if self._slot is not None and id(self._slot[0]) in copied:
            out._slot = (copied[id(self._slot[0])], self._slot[1])
        return out

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
        if isinstance(plan, _DriverPlan):
            return self._drive(state, quest, plan)
        return self._loop(state, quest, plan)

    def _drive(self, state: GameState, quest: Quest, plan: _DriverPlan) -> Move:
        for item in plan.items:
            if item.p_id is None:
                self._slot = (item, "p_id")
                return Move.call(
                    quest.quest_id, QuestRelation.transversality(frozenset(item.K))
                )
            if item.r_id is None:
                self._slot = (item, "r_id")
                return Move.call(item.p_id, QuestRelation.relaxation(plan.L))
            if item.q_id is None:
                self._slot = (item, "q_id")
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
        infinite = [s for s in resid if not is_finite(resid[s])]
        if infinite:
            tops = c.board.maximal_among(infinite)
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
        self._slot = (plan, "child_id")
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
        N = c.board.maximal_among(c.S.intersection(*(c.board.down_set(h) for h in K)))
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
            holder, field_name = self._slot
            setattr(holder, field_name, record["new_quest"])
        else:
            self._observe_blowup(state, bundle.transform)
        for qid in list(self.plans):
            quest = state.quests.get(qid)
            if quest is None or quest.status != OPEN:
                del self.plans[qid]

    def _observe_blowup(self, state: GameState, bt: BoardTransform) -> None:
        z = bt.center
        for qid, plan in self.plans.items():
            quest = state.quests.get(qid)
            if quest is None or quest.status == DISCARDED:
                continue
            if isinstance(plan, _DriverPlan):
                plan.L = frozenset(bt.embed[h] for h in plan.L)
                continue
            if plan.monomial:
                ext_z = extend_factor(bt.source, plan.m, z)
                if not is_finite(ext_z):
                    raise StrategyError("infinite tracked weight in the monomial phase")
                e_weight = ext_z - 1
                if e_weight < 0:
                    raise StrategyError(
                        f"monomial lift at {z} went negative ({e_weight})"
                    )
                plan.m = lift_factor(plan.m, bt, e_weight)
            elif plan.child_id is not None:
                # m rides along as the quotient child's relation factor does.
                q = state.quests[plan.child_id].relation.scale
                plan.m = quotient_lifted_factor(plan.m, q, bt)
            else:
                plan.m = lift_factor(plan.m, bt, Fraction(0))
            plan.pending = [
                bt.embed[t]
                for t in plan.pending
                if t != z and bt.embed[t] in quest.scenario.S
            ]
            if plan.child_id is not None:
                child = state.quests.get(plan.child_id)
                if child is None or child.status != OPEN:
                    plan.child_id = None
