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
so equal seeds on Mephisto's side reproduce equal games. Plans are frozen
values: ``decide`` and ``observe`` store a new plan instead of editing one,
and ``_slot`` is the id of the quest whose plan made the last call. Two
things serve the explorer, which branches the strategy once per Mephisto
answer. A copy (``copy.copy``) owns only the plans dict and
``measure_log`` and shares every plan. ``_plans_text`` is the canonical
text of the plans, the strategy's half of the explorer's state key; it
leaves out ``measure_log``, which no decision reads, and ``_slot``, which
``decide`` sets before it returns any call.

Dido owns no rule formula: the critical sets are ``scenario.heavy_jib_sets``
under the tracked factor, maximal nodes come from ``Board.maximal_among``,
and m rides through a blowup by ``transform.lift_factor``, or, while a
quotient child is open, by ``transform.quotient_lifted_factor``, the lift
of that child's relation factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple, Union

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
from .values import INF, Q, ZERO, Value, is_finite

__all__ = ["DidoStrategy", "StrategyError", "measure_of", "dms_less"]


class StrategyError(RuntimeError):
    """The game left the region the strategy's invariants cover."""


# ---- measures ----------------------------------------------------------------


def _minimal_critical_sets(c: Scenario, m: MonomialFactor) -> List[Tuple[NodeId, ...]]:
    """The inclusion-minimal critical sets, sorted: jib sets with factor mass
    >= 1 that have a singular node below all of them. These are the
    obstructions the elementary steps burn down."""
    weights = [m.as_dict()]
    sets = sorted({K for s in c.S for K in heavy_jib_sets(c.jib_uppers(s), weights)})
    as_sets = [frozenset(K) for K in sets]
    return [K for K, ks in zip(sets, as_sets) if not any(o < ks for o in as_sets)]


def measure_of(c: Scenario, m: MonomialFactor) -> Tuple[Q, ...]:
    """Multiset (as a sorted tuple, largest first) of the masses of the
    inclusion-minimal critical sets; empty when nothing is critical."""
    return _measure(m, _minimal_critical_sets(c, m))


def _measure(m: MonomialFactor, minimal: List[Tuple[NodeId, ...]]) -> Tuple[Q, ...]:
    """``measure_of`` from the minimal critical sets already worked out."""
    weights = [m.as_dict()]
    masses = [_max_mass(weights, K) for K in minimal]
    if any(not is_finite(x) for x in masses):
        raise StrategyError("infinite factor mass in a monomial measure")
    return tuple(sorted(masses, reverse=True))


def dms_less(a: Tuple[Q, ...], b: Tuple[Q, ...]) -> bool:
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


@dataclass(frozen=True)
class _LoopPlan:
    m: MonomialFactor
    child_id: Optional[int] = None
    monomial: bool = False
    pending: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class _DriverPlan:
    L: FrozenSet[NodeId]
    sets: Tuple[Tuple[NodeId, ...], ...]
    # the quests created so far, three per set K in order: the
    # transversality child, its relaxation child, and the descent grandchild
    made: Tuple[int, ...] = ()


def _plans_text(plans: Dict[int, object]) -> str:
    """The plans as one canonical text: equal plans, equal text."""
    out = []
    for qid in sorted(plans):
        plan = plans[qid]
        if isinstance(plan, _DriverPlan):
            out.append([qid, "driver", sorted(plan.L), plan.sets, plan.made])
        else:
            out.append(
                [qid, "loop", factor_to_json(plan.m), plan.child_id, plan.monomial,
                 plan.pending]
            )
    return json.dumps(out)


class DidoStrategy:
    def __init__(self) -> None:
        self.plans: Dict[int, object] = {}
        self.measure_log: List[Tuple[int, Tuple[Q, ...]]] = []
        # the quest whose plan made the last call; observe records the
        # call's new quest in that plan
        self._slot: Optional[int] = None

    def __copy__(self) -> "DidoStrategy":
        """A copy whose plans change apart from these. Plans are values, so
        the copy shares every one of them and owns only the dict."""
        out = DidoStrategy()
        out.plans = dict(self.plans)
        out.measure_log = list(self.measure_log)
        out._slot = self._slot
        return out

    # -- planning --------------------------------------------------------------

    def _ensure_plan(self, quest: Quest):
        plan = self.plans.get(quest.quest_id)
        if plan is not None:
            return plan
        c = quest.scenario
        if is_tight(c) and c.d >= 1:
            sets = {K for s in c.S for K in _subsets(c.jib_uppers(s))}
            plan = _DriverPlan(L=c.H, sets=tuple(sorted(sets, key=lambda K: (-len(K), K))))
        else:
            m0 = complete_factor(c)
            plan = _LoopPlan(m=m0 if m0 is not None else zero_factor(c.H))
        self.plans[quest.quest_id] = plan
        return plan

    # -- deciding ----------------------------------------------------------------

    def decide(self, state: GameState) -> Optional[Move]:
        """The move for ``state``. A plan may hand the decision on to an
        open quest it created; the chain is walked here, not by recursion,
        so however long it grows the game ends at its round cap."""
        if state.root.status != OPEN:
            return None
        step: Union[Move, int] = 0
        while not isinstance(step, Move):
            step = self._decide_quest(state, step)
        return step

    def _decide_quest(self, state: GameState, qid: int) -> Union[Move, int]:
        """The move for quest ``qid``, or the id of the quest it hands on to."""
        quest = state.quests[qid]
        if quest.status != OPEN:
            raise StrategyError(f"deciding on quest {qid} which is {quest.status}")
        plan = self._ensure_plan(quest)
        if isinstance(plan, _DriverPlan):
            return self._drive(state, quest, plan)
        return self._loop(state, quest, plan)

    def _drive(self, state: GameState, quest: Quest, plan: _DriverPlan) -> Union[Move, int]:
        made = plan.made
        if len(made) < 3 * len(plan.sets):
            self._slot = quest.quest_id
            i, step = divmod(len(made), 3)
            if step == 0:
                return Move.call(
                    quest.quest_id, QuestRelation.transversality(frozenset(plan.sets[i]))
                )
            if step == 1:
                return Move.call(made[-1], QuestRelation.relaxation(plan.L))
            return Move.call(made[-1], QuestRelation.descent())
        for K, qid in zip(plan.sets, made[2::3]):
            sub = state.quests[qid]
            if sub.status == DISCARDED:
                raise StrategyError(f"descent quest {qid} for {K} was discarded")
            if sub.status == OPEN:
                return qid
        raise StrategyError("all descent quests won but the driver quest is open")

    def _loop(self, state: GameState, quest: Quest, plan: _LoopPlan) -> Union[Move, int]:
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
            return self._elementary(quest, plan)
        if plan.child_id is not None and state.quests[plan.child_id].status == OPEN:
            return plan.child_id
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
        self._slot = quest.quest_id
        return Move.call(quest.quest_id, QuestRelation.quotient(plan.m, q))

    def _elementary(self, quest: Quest, plan: _LoopPlan) -> Move:
        c = quest.scenario
        for s in c.S:
            if extend_factor(c.board, plan.m, s) != c.ord[s]:
                raise StrategyError(
                    f"tracked factor is not complete at {s}; the response rules "
                    "should have preserved completeness"
                )
        pending = tuple(t for t in plan.pending if t in c.S)
        if not pending:
            minimal = _minimal_critical_sets(c, plan.m)
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
            self.measure_log.append((quest.quest_id, _measure(plan.m, minimal)))
            pending = tuple(N)
        self.plans[quest.quest_id] = _LoopPlan(plan.m, plan.child_id, True, pending)
        return Move.blowup(pending[0])

    # -- observing ---------------------------------------------------------------

    def observe(
        self, state: GameState, move: Move, bundle: Bundle, record: dict
    ) -> None:
        if move.kind == CALL:
            plan, new = self.plans[self._slot], record["new_quest"]
            if isinstance(plan, _DriverPlan):
                plan = _DriverPlan(plan.L, plan.sets, plan.made + (new,))
            else:
                plan = _LoopPlan(plan.m, new, plan.monomial, plan.pending)
            self.plans[self._slot] = plan
        else:
            self._observe_blowup(state, bundle.transform)
        for qid in list(self.plans):
            quest = state.quests.get(qid)
            if quest is None or quest.status != OPEN:
                del self.plans[qid]

    def _observe_blowup(self, state: GameState, bt: BoardTransform) -> None:
        z = bt.center
        for qid, plan in list(self.plans.items()):
            quest = state.quests.get(qid)
            if quest is None or quest.status == DISCARDED:
                continue
            if isinstance(plan, _DriverPlan):
                L = frozenset(bt.embed[h] for h in plan.L)
                self.plans[qid] = _DriverPlan(L, plan.sets, plan.made)
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
                m = lift_factor(plan.m, bt, e_weight)
            elif plan.child_id is not None:
                # m rides along as the quotient child's relation factor does.
                q = state.quests[plan.child_id].relation.scale
                m = quotient_lifted_factor(plan.m, q, bt)
            else:
                m = lift_factor(plan.m, bt, ZERO)
            pending = tuple(
                bt.embed[t]
                for t in plan.pending
                if t != z and bt.embed[t] in quest.scenario.S
            )
            child_id = plan.child_id
            if child_id is not None:
                child = state.quests.get(child_id)
                if child is None or child.status != OPEN:
                    child_id = None
            self.plans[qid] = _LoopPlan(m, child_id, plan.monomial, pending)
