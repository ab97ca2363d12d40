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
so equal seeds on Mephisto's side reproduce equal games. The strategy is a
value, as the game state is: ``decide`` returns the move and the next
strategy, ``observe`` returns the strategy after a round, and neither
changes the strategy it is called on. So the explorer, which branches once
per Mephisto answer, hands each branch the same strategy, and the branches
share every plan they do not change. ``_plans_text`` is the canonical text
of the plans, the strategy's half of the explorer's state key; it leaves
out ``measure_log``, which no decision reads.

Each loop plan's residuals, ord - ext_m on its quest's singular set, are
stored on the quest's scenario for the plan's factor (``_residuals``), so
``decide``, which walks the chain of delegations from the main quest every
round, works them out once per scenario and factor, not once per round.

Dido owns no rule formula: the critical sets are ``scenario.heavy_jib_sets``
under the tracked factor, maximal nodes come from ``Board.maximal_among``,
and m rides through a blowup by ``transform.lift_factor``, or, while a
quotient child is open, by ``transform.quotient_lifted_factor``, the lift
of that child's relation factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .board import BoardTransform, FrozenDict, NodeId, _memo
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
    sets = sorted({K for s in c.S for K in heavy_jib_sets(c.jib_uppers(s), (m,))})
    as_sets = [frozenset(K) for K in sets]
    return [K for K, ks in zip(sets, as_sets) if not any(o < ks for o in as_sets)]


def measure_of(c: Scenario, m: MonomialFactor) -> Tuple[Q, ...]:
    """Multiset (as a sorted tuple, largest first) of the masses of the
    inclusion-minimal critical sets; empty when nothing is critical."""
    return _measure(m, _minimal_critical_sets(c, m))


def _measure(m: MonomialFactor, minimal: List[Tuple[NodeId, ...]]) -> Tuple[Q, ...]:
    """``measure_of`` from the minimal critical sets already worked out."""
    masses = [_max_mass((m,), K) for K in minimal]
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
    sets: Tuple[Tuple[NodeId, ...], ...]
    # the quests created so far, three per set K in order: the
    # transversality child, its relaxation child, and the descent grandchild
    made: Tuple[int, ...] = ()


def _plans_text(plans: Mapping[int, object]) -> str:
    """The plans as one canonical text: equal plans, equal text."""
    out = []
    for qid in sorted(plans):
        plan = plans[qid]
        if isinstance(plan, _DriverPlan):
            out.append([qid, "driver", plan.sets, plan.made])
        else:
            out.append(
                [qid, "loop", factor_to_json(plan.m), plan.child_id, plan.monomial,
                 plan.pending]
            )
    return json.dumps(out)


@dataclass(frozen=True)
class DidoStrategy:
    """Dido's plans, by quest id, and the (quest id, measure) of every
    elementary step so far; ``decide`` and ``observe`` leave it as it was."""

    plans: Mapping[int, object] = field(default_factory=FrozenDict)
    measure_log: Tuple[Tuple[int, Tuple[Q, ...]], ...] = ()

    def decide(self, state: GameState) -> Tuple[Optional[Move], "DidoStrategy"]:
        """The move for ``state`` (None once the main quest is closed) and
        the strategy that has planned it. A plan may hand the decision on to
        an open quest it created; the chain is walked here, not by
        recursion, so however long it grows the game ends at its round cap."""
        if state.root.status != OPEN:
            return None, self
        plans, log = dict(self.plans), list(self.measure_log)
        step: Union[Move, int] = 0
        while not isinstance(step, Move):  # step: the id of the quest to decide on
            quest = state.quests[step]
            if quest.status != OPEN:
                raise StrategyError(f"deciding on quest {step} which is {quest.status}")
            plan = _ensure_plan(quest, plans)
            if isinstance(plan, _DriverPlan):
                step = _drive(state, quest, plan)
            else:
                step = _loop(state, quest, plan, plans, log)
        return step, DidoStrategy(FrozenDict(plans), tuple(log))

    def observe(self, state: GameState, move: Move, bundle: Bundle) -> "DidoStrategy":
        """The strategy after the round that left ``state``. The call's new
        quest goes to the nearest plan at or above the called quest: a loop
        plan calls on its own quest and a driver plan on itself or on a
        quest it made, and those quests never get a plan."""
        plans = dict(self.plans)
        if move.kind == CALL:
            qid, new = move.quest_id, state.next_quest_id - 1
            while qid not in plans:
                qid = state.quests[qid].parent_id
            plan = plans[qid]
            if isinstance(plan, _DriverPlan):
                plans[qid] = _DriverPlan(plan.sets, plan.made + (new,))
            else:
                plans[qid] = _LoopPlan(plan.m, new, plan.monomial, plan.pending)
        else:
            _observe_blowup(state, bundle.transform, plans)
        live = {qid: plan for qid, plan in plans.items() if state.quests[qid].status == OPEN}
        return DidoStrategy(FrozenDict(live), self.measure_log)


# ---- planning: ``plans`` and ``log`` are the caller's drafts of the next strategy


def _ensure_plan(quest: Quest, plans: dict):
    plan = plans.get(quest.quest_id)
    if plan is not None:
        return plan
    c = quest.scenario
    if is_tight(c) and c.d >= 1:
        sets = {K for s in c.S for K in _subsets(c.jib_uppers(s))}
        plan = _DriverPlan(sets=tuple(sorted(sets, key=lambda K: (-len(K), K))))
    else:
        m0 = complete_factor(c)
        plan = _LoopPlan(m=m0 if m0 is not None else zero_factor(c.H))
    plans[quest.quest_id] = plan
    return plan


def _drive(state: GameState, quest: Quest, plan: _DriverPlan) -> Union[Move, int]:
    made = plan.made
    if len(made) < 3 * len(plan.sets):
        i, step = divmod(len(made), 3)
        if step == 0:
            return Move.call(
                quest.quest_id, QuestRelation.transversality(frozenset(plan.sets[i]))
            )
        if step == 1:  # release the driver's H, which its transversality child keeps
            return Move.call(made[-1], QuestRelation.relaxation(state.quests[made[-1]].scenario.H))
        return Move.call(made[-1], QuestRelation.descent())
    for K, qid in zip(plan.sets, made[2::3]):
        sub = state.quests[qid]
        if sub.status == DISCARDED:
            raise StrategyError(f"descent quest {qid} for {K} was discarded")
        if sub.status == OPEN:
            return qid
    raise StrategyError("all descent quests won but the driver quest is open")


def _loop(
    state: GameState, quest: Quest, plan: _LoopPlan, plans: dict, log: list
) -> Union[Move, int]:
    c = quest.scenario
    resid = _memo(_residuals, plan.m, c)
    if plan.monomial or all(r == 0 for r in resid.values()):
        return _elementary(quest, plan, plans, log)
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
    return Move.call(quest.quest_id, QuestRelation.quotient(plan.m, q))


def _residuals(m: MonomialFactor, c: Scenario) -> Mapping[NodeId, Value]:
    """ord - ext_m at every singular node of c: INF at an infinite order.
    Stored on c for this very m (``board._memo``), so a quest the round left
    alone, whose plan kept its factor, is read, not worked out again, each
    time ``decide`` walks the chain through it. The map must not be changed."""
    resid: Dict[NodeId, Value] = {}
    for s in c.S:
        ext = extend_factor(c.board, m, s)
        v = c.ord[s]
        if not is_finite(v):
            resid[s] = INF
        else:
            if not is_finite(ext):
                raise StrategyError(f"tracked factor infinite at finite node {s}")
            resid[s] = v - ext
            if resid[s] < 0:
                raise StrategyError(f"tracked factor exceeds the order at {s}")
    return resid


def _elementary(quest: Quest, plan: _LoopPlan, plans: dict, log: list) -> Move:
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
        log.append((quest.quest_id, _measure(plan.m, minimal)))
        pending = tuple(N)
    plans[quest.quest_id] = _LoopPlan(plan.m, plan.child_id, True, pending)
    return Move.blowup(pending[0])


def _observe_blowup(state: GameState, bt: BoardTransform, plans: dict) -> None:
    """Carry the loop plan of every live quest onto the blown-up board."""
    z = bt.center
    for qid, plan in list(plans.items()):
        quest = state.quests.get(qid)
        if quest is None or quest.status == DISCARDED or isinstance(plan, _DriverPlan):
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
        plans[qid] = _LoopPlan(m, child_id, plan.monomial, pending)
