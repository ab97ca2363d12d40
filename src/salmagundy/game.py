"""Umpire: the quest tree, round validation, and the replayable trace.

A game is a tree of quests sharing one board. Dido moves by calling a new
quest into existence or by naming a blowup center; Mephisto answers with a
bundle: the board transform plus one response scenario per open quest (or a
discard where the center closed the quest). ``validate_bundle`` is the single
gate: a round is applied only when every response satisfies its transform
rules and every parent/child pair still satisfies the relation created by
the original call.

Checks are pure functions of immutable objects, and each is answered once per
identical inputs. Mephisto sieves candidates with ``validate_bundle``, and
``apply_round`` checks the chosen bundle again, with the very same scenario
and transform objects; the second check finds every verdict stored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .board import (
    BLOWUP,
    Board,
    BoardTransform,
    NodeId,
    Violation,
    board_from_json,
    board_to_json,
    validate_board,
    validate_board_transform,
    _memo,
)
from .quests import DESCENT, QuestRelation, call_check, descent_check
from .scenario import (
    Scenario,
    admissible_centers,
    factor_from_json,
    factor_to_json,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
from .transform import (
    child_survives,
    commutes,
    transport_relation,
    validate_blowup_transform,
)

__all__ = [
    "OPEN",
    "WON",
    "DISCARDED",
    "Quest",
    "GameState",
    "Move",
    "Bundle",
    "BundleError",
    "validate_bundle",
    "blowup_discards",
    "apply_round",
    "new_game",
    "relation_to_json",
    "relation_from_json",
    "move_to_json",
    "move_from_json",
    "bundle_to_json",
    "bundle_from_json",
    "round_to_json",
    "replay_trace",
]

OPEN = "open"
WON = "won"
DISCARDED = "discarded"


@dataclass
class Quest:
    """One quest: a scenario plus the call that created it (root: none)."""

    quest_id: int
    parent_id: Optional[int]
    relation: Optional[QuestRelation]
    scenario: Scenario
    status: str = OPEN


@dataclass
class GameState:
    board: Board
    quests: Dict[int, Quest]
    round_no: int = 0
    next_quest_id: int = 1

    @property
    def root(self) -> Quest:
        return self.quests[0]

    def open_quests(self) -> List[Quest]:
        return [q for q in self.quests.values() if q.status == OPEN]

    @property
    def won(self) -> bool:
        return self.root.status == WON

    @property
    def strict(self) -> bool:
        """No quest was ever discarded (closed quests stay in the tree)."""
        return all(q.status != DISCARDED for q in self.quests.values())

    def clone(self) -> "GameState":
        return GameState(
            board=self.board,
            quests={qid: replace(q) for qid, q in self.quests.items()},
            round_no=self.round_no,
            next_quest_id=self.next_quest_id,
        )


def new_game(scenario: Scenario) -> GameState:
    """Start a game on the scenario's board; the root quest gets id 0."""
    vs = validate_scenario(scenario)
    if vs:
        raise ValueError("initial scenario is invalid: " + "; ".join(map(str, vs)))
    root = Quest(0, None, None, scenario)
    if not scenario.S:
        root.status = WON
    return GameState(board=scenario.board, quests={0: root})


# ---- moves and bundles -----------------------------------------------------


CALL = "call"
BLOWUP_MOVE = "blowup"


@dataclass(frozen=True)
class Move:
    kind: str
    quest_id: Optional[int] = None
    relation: Optional[QuestRelation] = None
    center: Optional[NodeId] = None

    @classmethod
    def call(cls, quest_id: int, relation: QuestRelation) -> "Move":
        return cls(CALL, quest_id=quest_id, relation=relation)

    @classmethod
    def blowup(cls, center: NodeId) -> "Move":
        return cls(BLOWUP_MOVE, center=center)


@dataclass
class Bundle:
    """Mephisto's answer to one move.

    ``responses`` maps every surviving open quest to its next scenario; on a
    call round that is all open quests (unchanged) and ``child`` holds the
    new quest's scenario. ``discards`` lists the quests the center closed.
    """

    transform: BoardTransform
    responses: Dict[int, Scenario]
    discards: frozenset = frozenset()
    child: Optional[Scenario] = None


class BundleError(ValueError):
    def __init__(self, violations: List[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _bundle_violation(detail: str, witness: Tuple = ()) -> Violation:
    return Violation("bundle", "structure", witness, detail)


def validate_bundle(
    state: GameState, move: Move, bundle: Bundle, first_only: bool = False
) -> List[Violation]:
    """All violations of the bundle, empty when it is legal.

    ``first_only`` stops at the first offending quest; policies use it while
    sieving candidates, where only emptiness matters.

    Every rule check behind this gate is a pure function of immutable
    objects, answered once per identical inputs: the verdicts are stored on
    the responses (and on a call round's child), keyed by the identity of
    the other inputs. Checking a bundle again costs a lookup per quest;
    an equal but distinct object is checked afresh.
    """
    if move.kind == CALL:
        return _validate_call(state, move, bundle)
    if move.kind == BLOWUP_MOVE:
        return _validate_blowup(state, move, bundle, first_only)
    return [_bundle_violation(f"unknown move kind {move.kind!r}")]


def _validate_call(state: GameState, move: Move, bundle: Bundle) -> List[Violation]:
    out: List[Violation] = []
    quest = state.quests.get(move.quest_id)
    if quest is None or quest.status != OPEN:
        return [_bundle_violation(f"call target {move.quest_id} is not an open quest")]
    rel = move.relation
    if rel is None:
        return [_bundle_violation("call move without a relation")]
    bt = bundle.transform
    if bt.kind == BLOWUP or bt.source != state.board or not bt.is_identity():
        out.append(_bundle_violation("call rounds ride on the identity refinement"))
        return out
    open_ids = {q.quest_id for q in state.open_quests()}
    if set(bundle.responses) != open_ids:
        out.append(
            _bundle_violation(
                f"responses cover {sorted(bundle.responses)}, open quests are {sorted(open_ids)}"
            )
        )
        return out
    if bundle.discards:
        out.append(_bundle_violation("call rounds cannot discard quests"))
    for qid in sorted(open_ids):
        if bundle.responses[qid] != state.quests[qid].scenario:
            out.append(
                _bundle_violation(
                    f"quest {qid} changed on a call round", (str(qid),)
                )
            )
    if bundle.child is None:
        out.append(_bundle_violation("call round without a child scenario"))
        return out

    parent_sc = quest.scenario
    child_sc = bundle.child
    out.extend(
        _memo(child_sc, (parent_sc, rel, bt), _check_call_child, parent_sc, rel, bt, child_sc)
    )
    return out


def _check_call_child(
    parent_sc: Scenario, rel: QuestRelation, bt: BoardTransform, child_sc: Scenario
) -> List[Violation]:
    """The call's relation between the parent's scenario and the child's,
    and the child's own validity."""
    try:
        if rel.kind == DESCENT:
            # descent_check also validates the child (its orders are free)
            return descent_check(parent_sc, bt, child_sc)
        out = call_check(parent_sc, rel, child_sc)
    except ValueError as exc:
        return [_bundle_violation(f"illegal call: {exc}")]
    return out + validate_scenario(child_sc)


def _validate_blowup(
    state: GameState, move: Move, bundle: Bundle, first_only: bool = False
) -> List[Violation]:
    out: List[Violation] = []
    bt = bundle.transform
    z = move.center
    if bt.kind != BLOWUP or bt.source != state.board or bt.center != z:
        return [_bundle_violation("transform does not blow up the named center")]
    out.extend(validate_board(bt.target))
    out.extend(validate_board_transform(bt))
    if out:
        return out
    if bundle.child is not None:
        out.append(_bundle_violation("blowup rounds do not create quests"))

    root = state.root
    if z not in admissible_centers(root.scenario):
        out.append(
            _bundle_violation(f"center {z} is not admissible for the main quest", (z,))
        )
        return out

    want_discards = blowup_discards(state, bt)
    if frozenset(bundle.discards) != want_discards:
        out.append(
            _bundle_violation(
                f"discards {sorted(bundle.discards)} do not match the closed quests "
                f"{sorted(want_discards)}"
            )
        )
        return out
    want_responses = {q.quest_id for q in state.open_quests()} - want_discards
    if set(bundle.responses) != want_responses:
        out.append(
            _bundle_violation(
                f"responses cover {sorted(bundle.responses)}, surviving quests are "
                f"{sorted(want_responses)}"
            )
        )
        return out

    for qid in sorted(want_responses):
        quest = state.quests[qid]
        new_sc = bundle.responses[qid]
        if quest.parent_id is None:
            out.extend(validate_blowup_transform(quest.scenario, bt, new_sc))
        else:
            parent = state.quests[quest.parent_id]
            out.extend(
                commutes(
                    quest.relation,
                    parent.scenario,
                    quest.scenario,
                    bundle.responses[parent.quest_id],
                    new_sc,
                    bt,
                )
            )
        if first_only and out:
            return out
    return out


def blowup_discards(state: GameState, bt: BoardTransform) -> frozenset:
    """The open quests a blowup closes.

    A child quest is closed when its parent is not open or is closed by this
    blowup (a closed parent takes its subtree down), or when the center
    closes it itself (``transform.child_survives``). The main quest is never
    closed.
    """
    closed = set()
    for quest in sorted(state.open_quests(), key=lambda q: q.quest_id):
        if quest.parent_id is None:
            continue
        parent = state.quests[quest.parent_id]
        if (
            parent.status != OPEN
            or parent.quest_id in closed
            or not child_survives(quest.relation, parent.scenario, quest.scenario, bt)
        ):
            closed.add(quest.quest_id)
    return frozenset(closed)


def apply_round(
    state: GameState, move: Move, bundle: Bundle, validate: bool = True
) -> dict:
    """Validate and apply one round in place; returns the trace record."""
    if validate:
        vs = validate_bundle(state, move, bundle)
        if vs:
            raise BundleError(vs)
    record: dict = {
        "round": state.round_no + 1,
        "move": move_to_json(move),
        "bundle": bundle_to_json(bundle),
    }
    newly_won: List[int] = []
    if move.kind == CALL:
        child_id = state.next_quest_id
        child = Quest(child_id, move.quest_id, move.relation, bundle.child)
        state.quests[child_id] = child
        state.next_quest_id += 1
        record["new_quest"] = child_id
        if not bundle.child.S:
            child.status = WON
            newly_won.append(child_id)
    else:
        bt = bundle.transform
        old_scs = {qid: q.scenario for qid, q in state.quests.items()}
        for qid in sorted(bundle.discards):
            state.quests[qid].status = DISCARDED
        for qid, new_sc in bundle.responses.items():
            quest = state.quests[qid]
            quest.scenario = new_sc
            if quest.relation is not None:
                parent_old = old_scs[quest.parent_id]
                quest.relation = transport_relation(quest.relation, parent_old, bt)
            if not new_sc.S and quest.status == OPEN:
                quest.status = WON
                newly_won.append(qid)
        state.board = bt.target
        record["new_quest"] = None
    state.round_no += 1
    record["won"] = sorted(newly_won)
    record["discarded"] = sorted(bundle.discards)
    return record


# ---- serialization ---------------------------------------------------------


def relation_to_json(rel: QuestRelation) -> dict:
    out: dict = {"kind": rel.kind}
    if rel.jibs:
        out["jibs"] = sorted(rel.jibs)
    if rel.factor is not None:
        out["factor"] = factor_to_json(rel.factor)
    if rel.scale is not None:
        out["scale"] = str(Fraction(rel.scale))
    return out


def relation_from_json(data: Mapping) -> QuestRelation:
    kind = data["kind"]
    jibs = frozenset(data.get("jibs", ()))
    factor = factor_from_json(data["factor"]) if "factor" in data else None
    scale = Fraction(data["scale"]) if "scale" in data else None
    return QuestRelation(kind, jibs=jibs, factor=factor, scale=scale)


def move_to_json(move: Move) -> dict:
    if move.kind == CALL:
        return {
            "type": CALL,
            "quest": move.quest_id,
            "relation": relation_to_json(move.relation),
        }
    return {"type": BLOWUP_MOVE, "center": move.center}


def move_from_json(data: Mapping) -> Move:
    if data["type"] == CALL:
        return Move.call(data["quest"], relation_from_json(data["relation"]))
    return Move.blowup(data["center"])


def transform_to_json(bt: BoardTransform) -> dict:
    out = {
        "kind": bt.kind,
        "target": board_to_json(bt.target),
        "embed": {s: bt.embed[s] for s in sorted(bt.embed)},
        "retract": {x: bt.retract[x] for x in sorted(bt.retract)},
    }
    if bt.center is not None:
        out["center"] = bt.center
    return out


def transform_from_json(data: Mapping, source: Board) -> BoardTransform:
    return BoardTransform(
        kind=data["kind"],
        source=source,
        target=board_from_json(data["target"]),
        embed=dict(data["embed"]),
        retract=dict(data["retract"]),
        center=data.get("center"),
    )


def bundle_to_json(bundle: Bundle) -> dict:
    out: dict = {
        "transform": transform_to_json(bundle.transform),
        "responses": {
            str(qid): scenario_to_json(sc, board="target")
            for qid, sc in sorted(bundle.responses.items())
        },
        "discards": sorted(bundle.discards),
    }
    if bundle.child is not None:
        out["child"] = scenario_to_json(bundle.child, board="target")
    return out


def bundle_from_json(data: Mapping, source: Board) -> Bundle:
    bt = transform_from_json(data["transform"], source)
    responses = {
        int(qid): scenario_from_json(sc, board=bt.target)
        for qid, sc in data["responses"].items()
    }
    child = (
        scenario_from_json(data["child"], board=bt.target)
        if data.get("child") is not None
        else None
    )
    return Bundle(
        transform=bt,
        responses=responses,
        discards=frozenset(data.get("discards", ())),
        child=child,
    )


def round_to_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def trace_header(scenario: Scenario, policy: str, seed: Optional[int] = None) -> dict:
    out = {"header": {"scenario": scenario_to_json(scenario), "policy": policy}}
    if seed is not None:
        out["header"]["seed"] = seed
    return out


def replay_trace(lines: Iterable[str]) -> GameState:
    """Re-run a trace, re-validating every round; returns the final state."""
    it = iter(lines)
    try:
        header = json.loads(next(it))["header"]
    except StopIteration:
        raise ValueError("empty trace") from None
    state = new_game(scenario_from_json(header["scenario"]))
    for line in it:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        move = move_from_json(record["move"])
        bundle = bundle_from_json(record["bundle"], state.board)
        applied = apply_round(state, move, bundle)
        for key in ("new_quest", "won", "discarded"):
            if applied.get(key) != record.get(key):
                raise ValueError(
                    f"round {record['round']}: recorded {key} {record.get(key)!r} "
                    f"does not match the replay {applied.get(key)!r}"
                )
    return state
