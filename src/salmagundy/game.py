"""Umpire: the quest tree, round validation, and the replayable trace.

A game is a tree of quests sharing one board. Dido moves by calling a new
quest into existence or by naming a blowup center; Mephisto answers with a
bundle: the board transform plus one response scenario per open quest (or a
discard where the center closed the quest). ``validate_bundle`` is the single
gate, and it takes no options: a round is applied only when every response
satisfies its transform rules and every parent/child pair still satisfies
the relation created by the original call. Each condition is checked once,
in one place. ``blowup_discards`` alone decides which quests a blowup
closes: the umpire rejects a bundle whose discards or responses disagree
with it before it checks any square, so ``transform.commutes`` sees only
surviving children. Before any transform or call check, every scenario the
round brings in must fit its board (``scenario.validate_shape``), because
the checks read its nodes there.

A position is a value, as every quest in it is: ``apply_round`` returns
the next ``GameState`` and leaves the one it is given as it was, so the
explorer answers one position many ways and a verdict about it can be stored.

Checks are pure functions of immutable objects, and each is answered once
per identical inputs: a verdict is stored on its owner under ``board``'s
rule, which for a blowup round is the round's transform, one slot per check
and identity of the other inputs (``board._memo``). Mephisto sieves
candidates with ``validate_bundle`` and shares each distinct response among
the candidates of one blown-up board, so a response is checked once under
each parent response it meets, not once per candidate, and the quests a
blowup closes are worked out once per state and blown-up board
(``blowup_discards``). A bundle is a value too, and its own verdict is a
``_memo`` slot on it, keyed by the identities of the state and the move it
was judged against. The sieve judges against Dido's own move, so
``apply_round`` reads the verdict the sieve reached for the chosen bundle
instead of judging it again; a bundle no sieve judged, such as one read from
a trace, is checked in full. A call round's check compares the child with
its call's response, which is cheap, and reads the child's stored validity.
Values are stored too: a call's child sits on its parent scenario
(``quests.call_response``). A slot lives as long as its owner, so the game
owns its root scenario: ``new_game`` plays a copy of the caller's.

The trace encodes each value once, too. A response scenario and a transform
store their JSON text on themselves (``board._json_text``), and
``round_to_json`` builds a played round's line from those texts plus one
small encoding of the rest of the record. Every text is encoded by one
module-level encoder, ``board._encode``, which gives ``json.dumps`` with
sorted keys, from the value's one JSON formula, so the line is
byte-identical to encoding the record's dict form, and it dies with its
value. A ``Bundle`` stores its verdict but no text: its line is built from
the texts stored on its fields. Replay reads each value once, too
(``replay_trace``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .board import (
    BLOWUP,
    Board,
    BoardTransform,
    FrozenDict,
    NodeId,
    Violation,
    _encode,
    _json_text,
    _memo,
    board_from_json,
    board_to_json,
    trivial_refinement,
    validate_board,
    validate_board_transform,
)
from .quests import (
    DESCENT,
    QUOTIENT,
    RELAXATION,
    TRANSVERSALITY,
    QuestRelation,
    call_check,
    descent_check,
)
from .scenario import (
    Scenario,
    admissible_centers,
    factor_from_json,
    factor_to_json,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
    validate_shape,
)
from .transform import (
    commutes,
    exceptional_cap,
    transport_relation,
    validate_blowup_transform,
)
from .values import INF, format_value, parse_value

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


@dataclass(frozen=True)
class Quest:
    """One quest: a scenario plus the call that created it (root: none)."""

    quest_id: int
    parent_id: Optional[int]
    relation: Optional[QuestRelation]
    scenario: Scenario
    status: str = OPEN


@dataclass(frozen=True)
class GameState:
    """A position: the quests, by id, after ``round_no`` rounds. The given
    map is frozen into a ``FrozenDict`` in id order, so a state never
    changes and its quests come parent first: ids are handed out in order."""

    quests: Mapping[int, Quest]
    round_no: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "quests", FrozenDict(sorted(self.quests.items())))

    @property
    def root(self) -> Quest:
        return self.quests[0]

    @property
    def board(self) -> Board:
        """The main quest's board, which every blowup answers while it is open."""
        return self.root.scenario.board

    @property
    def next_quest_id(self) -> int:
        """Ids are handed out in order and no quest leaves the tree."""
        return len(self.quests)

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
        """The state itself, which is a value that nothing changes. No package
        code calls it; it stays because ``bench/tracer.py`` wraps it by name."""
        return self


def new_game(scenario: Scenario) -> GameState:
    """Start a game on a copy of the scenario, which the game owns; the root
    quest gets id 0."""
    scenario = replace(scenario)  # nothing the game stores sits on the caller's
    vs = validate_scenario(scenario)
    if vs:
        raise ValueError("initial scenario is invalid: " + "; ".join(map(str, vs)))
    root = Quest(0, None, None, scenario, OPEN if scenario.S else WON)
    return GameState({0: root})


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


@dataclass(frozen=True)
class Bundle:
    """Mephisto's answer to one move, a value like ``GameState``.

    ``responses`` maps every surviving open quest to its next scenario; on a
    call round that is all open quests (unchanged) and ``child`` holds the
    new quest's scenario. ``discards`` is the set of quests the center
    closed. The constructor (``dataclasses.replace`` too) makes the
    responses a ``FrozenDict`` and the discards a frozenset, so a bundle
    never changes and its verdict can be stored on it (``validate_bundle``).
    """

    transform: BoardTransform
    responses: Mapping[int, Scenario]
    discards: FrozenSet[int] = frozenset()
    child: Optional[Scenario] = None

    def __post_init__(self) -> None:
        if type(self.responses) is not FrozenDict:
            object.__setattr__(self, "responses", FrozenDict(self.responses))
        if type(self.discards) is not frozenset:
            object.__setattr__(self, "discards", frozenset(self.discards))


class BundleError(ValueError):
    def __init__(self, violations: List[Violation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))


def _bundle_violation(detail: str, witness: Tuple = ()) -> Violation:
    return Violation("bundle", "structure", witness, detail)


def validate_bundle(state: GameState, move: Move, bundle: Bundle) -> List[Violation]:
    """All violations of the bundle, empty when it is legal.

    The verdict is a ``board._memo`` slot on the bundle, keyed by the
    identities of the state and the move, which the slot holds. Mephisto's
    sieve judges each candidate against Dido's own move, so it reaches each
    verdict once and ``apply_round`` only reads it. A bundle never judged
    for this very state and move (one read from a trace, one built by hand,
    one judged against an equal but distinct move) is checked in full. A
    bundle lives only as long as its round's record.

    Every rule check behind this gate is a pure function of immutable
    objects, answered once per identical inputs: a blowup round's verdicts
    are stored on its transform, keyed by the identity of the other inputs.

    Before any transform or call check, every scenario the round brings in
    (a blowup's responses, a call's child) must pass ``validate_shape``;
    otherwise its shape violations are the verdict, since the checks after
    them read its nodes on the board. A call round's responses are only
    compared with the quests' scenarios, which reads no node. Every call
    returns a fresh list.
    """
    return list(_memo(_judge, state, move, bundle))


def _judge(state: GameState, move: Move, bundle: Bundle) -> List[Violation]:
    if move.kind == CALL:
        check, new = _validate_call, [bundle.child] if bundle.child is not None else []
    elif move.kind == BLOWUP_MOVE:
        check, new = _validate_blowup, [bundle.responses[q] for q in sorted(bundle.responses)]
    else:
        return [_bundle_violation(f"unknown move kind {move.kind!r}")]
    misfits = [v for sc in new for v in validate_shape(sc)]
    return misfits or check(state, move, bundle)


def _validate_call(state: GameState, move: Move, bundle: Bundle) -> List[Violation]:
    quest = state.quests.get(move.quest_id)
    if quest is None or quest.status != OPEN:
        return [_bundle_violation(f"call target {move.quest_id} is not an open quest")]
    if move.relation is None:
        return [_bundle_violation("call move without a relation")]
    ident = trivial_refinement(state.board)
    if bundle.transform is not ident and bundle.transform != ident:
        return [_bundle_violation("call rounds ride on the identity refinement")]
    open_ids = {q.quest_id for q in state.open_quests()}
    if set(bundle.responses) != open_ids:
        return [
            _bundle_violation(
                f"responses cover {sorted(bundle.responses)}, open quests are {sorted(open_ids)}"
            )
        ]
    out = [_bundle_violation("call rounds cannot discard quests")] if bundle.discards else []
    for qid in sorted(open_ids):
        sc, was = bundle.responses[qid], state.quests[qid].scenario
        if sc is not was and sc != was:
            out.append(_bundle_violation(f"quest {qid} changed on a call round", (str(qid),)))
    if bundle.child is None:
        return out + [_bundle_violation("call round without a child scenario")]
    return out + _check_call_child(quest.scenario, move.relation, bundle.child)


def _check_call_child(
    parent_sc: Scenario, rel: QuestRelation, child_sc: Scenario
) -> List[Violation]:
    """The call's relation between the parent's scenario and the child's,
    and the child's own validity."""
    try:
        if rel.kind == DESCENT:
            # descent_check also validates the child (its orders are free)
            return descent_check(parent_sc, child_sc)
        out = call_check(parent_sc, rel, child_sc)
    except ValueError as exc:
        return [_bundle_violation(f"illegal call: {exc}")]
    return out + validate_scenario(child_sc)


def _validate_blowup(state: GameState, move: Move, bundle: Bundle) -> List[Violation]:
    bt, z, root = bundle.transform, move.center, state.root
    if root.status != OPEN:  # the board lives on the main quest's scenario
        return [_bundle_violation("the main quest is closed: the game is over")]
    if bt.kind != BLOWUP or bt.source != state.board or bt.center != z:
        return [_bundle_violation("transform does not blow up the named center")]
    out = validate_board(bt.target) + validate_board_transform(bt)
    if out:
        return out
    if bundle.child is not None:
        out.append(_bundle_violation("blowup rounds do not create quests"))
    if z not in admissible_centers(root.scenario):
        return out + [_bundle_violation(f"center {z} is not admissible for the main quest", (z,))]
    want_discards = blowup_discards(state, bt)
    if frozenset(bundle.discards) != want_discards:
        detail = f"do not match the closed quests {sorted(want_discards)}"
        return out + [_bundle_violation(f"discards {sorted(bundle.discards)} {detail}")]
    want_responses = {q.quest_id for q in state.open_quests()} - want_discards
    if set(bundle.responses) != want_responses:
        detail = f"surviving quests are {sorted(want_responses)}"
        return out + [_bundle_violation(f"responses cover {sorted(bundle.responses)}, {detail}")]
    for qid in sorted(want_responses):
        quest, new_sc = state.quests[qid], bundle.responses[qid]
        if quest.parent_id is None:
            out += validate_blowup_transform(quest.scenario, bt, new_sc)
        else:
            parent = state.quests[quest.parent_id]
            new_parent = bundle.responses[parent.quest_id]
            out += commutes(quest.relation, parent.scenario, quest.scenario, new_parent, new_sc, bt)
    return out


def blowup_discards(state: GameState, bt: BoardTransform) -> frozenset:
    """The open quests a blowup closes.

    A child quest is closed when its parent is not open or is closed by this
    blowup (a closed parent takes its subtree down), or when the center
    closes it itself: the center is not admissible for the child's scenario,
    or the child is a quotient child whose lifted factor would weigh more at
    the exceptional node than the cap every response family enforces there
    (a corner only reachable at centers outside the child's singular set).
    The main quest is never closed.

    The verdict is stored on ``bt`` for ``state`` (``board._memo``), so
    Mephisto and the umpire's check of each candidate read one computation.
    """
    return _memo(_blowup_discards, state, bt)


def _blowup_discards(state: GameState, bt: BoardTransform) -> frozenset:
    z = bt.center
    closed = set()
    for quest in state.open_quests():
        if quest.parent_id is None:
            continue
        parent = state.quests[quest.parent_id]
        rel = quest.relation
        if (
            parent.status != OPEN
            or parent.quest_id in closed
            or z not in admissible_centers(quest.scenario)
            or (
                rel.kind == QUOTIENT
                and transport_relation(rel, bt).factor[bt.exceptional]
                > exceptional_cap(parent.scenario, z)
            )
        ):
            closed.add(quest.quest_id)
    return frozenset(closed)


def apply_round(state: GameState, move: Move, bundle: Bundle) -> Tuple[GameState, dict]:
    """Validate one round; returns the state after it and the trace record.
    The verdict is ``validate_bundle``'s, read from the bundle's slot for
    this very state and move when the sieve judged it.

    ``state`` stays as it was: the next state shares every quest the round
    leaves alone. The record holds the ``Bundle`` itself under ``"bundle"``,
    not its dict form: only ``round_to_json`` encodes it, so the umpire and
    ``replay_trace`` encode nothing."""
    vs = validate_bundle(state, move, bundle)
    if vs:
        raise BundleError(vs)
    quests = dict(state.quests)
    newly_won: List[int] = []
    new_quest = None
    if move.kind == CALL:
        new_quest = state.next_quest_id
        status = OPEN if bundle.child.S else WON
        quests[new_quest] = Quest(new_quest, move.quest_id, move.relation, bundle.child, status)
        if status == WON:
            newly_won.append(new_quest)
    else:
        bt = bundle.transform
        for qid in bundle.discards:
            quests[qid] = replace(quests[qid], status=DISCARDED)
        for qid, new_sc in bundle.responses.items():  # the gate admits open quests only
            quest = quests[qid]
            rel = quest.relation and transport_relation(quest.relation, bt)
            status = OPEN if new_sc.S else WON
            quests[qid] = Quest(qid, quest.parent_id, rel, new_sc, status)
            if status == WON:
                newly_won.append(qid)
    record = {
        "round": state.round_no + 1,
        "move": move_to_json(move),
        "bundle": bundle,
        "new_quest": new_quest,
        "won": sorted(newly_won),
        "discarded": sorted(bundle.discards),
    }
    return GameState(quests, state.round_no + 1), record


# ---- serialization ---------------------------------------------------------


def relation_to_json(rel: QuestRelation) -> dict:
    out: dict = {"kind": rel.kind}
    if rel.jibs:
        out["jibs"] = sorted(rel.jibs)
    if rel.factor is not None:
        out["factor"] = factor_to_json(rel.factor)
    if rel.scale is not None:
        out["scale"] = format_value(rel.scale)
    return out


# The parameters each call kind records: (required, optional).
_RELATION_PARAMS = {
    RELAXATION: (frozenset(), frozenset({"jibs"})),
    TRANSVERSALITY: (frozenset(), frozenset({"jibs"})),
    QUOTIENT: (frozenset({"factor", "scale"}), frozenset()),
    DESCENT: (frozenset(), frozenset()),
}


def relation_from_json(data: Mapping) -> QuestRelation:
    """The call relation ``data`` records. Each kind takes exactly the
    parameters ``relation_to_json`` writes for it: a relaxation and a
    transversality an optional ``"jibs"``, a list of node ids; a quotient a
    ``"factor"``, an object of weight texts, and a ``"scale"``, the text of a
    finite number (``values.parse_value``), both required; a descent none.
    Raises ValueError for every other form. A relation of an unknown kind is
    read as it stands, and the umpire rejects its call."""
    kind = data["kind"]
    if kind in _RELATION_PARAMS:
        required, optional = _RELATION_PARAMS[kind]
        given = data.keys() - {"kind"}
        if given - optional != required:
            want = " and ".join(
                [*sorted(required), *(f"an optional {k}" for k in sorted(optional))]
            ) or "no parameter"
            raise ValueError(
                f"malformed relation JSON: a {kind} call takes {want}, got {sorted(given)}"
            )
        jibs = data.get("jibs", [])
        if type(jibs) is not list or not all(type(h) is str for h in jibs):
            raise ValueError(f"malformed relation JSON: jibs {jibs!r} is not a list of node ids")
        factor = data.get("factor", {})
        if type(factor) is not dict or not all(type(w) is str for w in factor.values()):
            raise ValueError(
                f"malformed relation JSON: factor {factor!r} is not an object of weights"
            )
    jibs = frozenset(data.get("jibs", ()))
    factor = factor_from_json(data["factor"]) if "factor" in data else None
    scale = None
    if "scale" in data:
        text = data["scale"]
        if type(text) is not str or (scale := parse_value(text)) is INF:
            raise ValueError(f"malformed relation JSON: scale {text!r} is not a finite number")
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
    """The move ``data`` records. Raises ValueError where its quest id is not
    an integer or its center is not a node id."""
    if data["type"] == CALL:
        quest = data["quest"]
        if type(quest) is not int:
            raise ValueError(f"malformed move JSON: quest id {quest!r} is not an integer")
        return Move.call(quest, relation_from_json(data["relation"]))
    if data["type"] == BLOWUP_MOVE:
        center = data["center"]
        if type(center) is not str:
            raise ValueError(f"malformed move JSON: center {center!r} is not a node id")
        return Move.blowup(center)
    raise ValueError(f"unknown move type {data['type']!r}")


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


def transform_from_json(data: Mapping, source: Board, target: Board) -> BoardTransform:
    """The transform ``data`` records from ``source`` to ``target``, the board
    that ``data["target"]`` reads as: its ``"kind"``, ``"embed"`` and
    ``"retract"``, objects that map node ids to node ids, and an optional
    ``"center"``, a node id. Raises ValueError for every other form."""
    embed, retract, center = data["embed"], data["retract"], data.get("center")
    if type(embed) is not dict or type(retract) is not dict:
        raise ValueError("malformed transform JSON: embed or retract is not an object")
    ids = [*embed.values(), *retract.values(), *([] if center is None else [center])]
    if not set(map(type, ids)) <= {str}:
        raise ValueError("malformed transform JSON: a node id is not a string")
    return BoardTransform(
        kind=data["kind"],
        source=source,
        target=target,
        embed=embed,
        retract=retract,
        center=center,
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


# What a trace reader holds: the JSON its board was read from, and each open
# quest's id mapped to the JSON its scenario was read from (response form)
# and that scenario.
Held = Tuple[object, Mapping[int, Tuple[object, Scenario]]]


def bundle_from_json(data: Mapping, source: Board, held: Optional[Held] = None) -> Bundle:
    """The bundle a trace line records, on the board ``source``: a
    ``"transform"``, ``"responses"``, an object of scenarios by quest id, a
    ``"discards"`` list of quest ids and, on a call round, a ``"child"``.

    A reader that holds the values it read earlier passes them as ``held``,
    with ``source`` read from ``held[0]``. When the transform's target JSON
    equals ``held[0]``, the target is ``source`` itself, neither parsed nor
    closed again, and the held scenarios are on it. A response or child
    whose JSON equals one held there or already read on this line is that
    scenario; everything else is parsed. Equal JSON parses to an equal
    value, so the bundle equals the one read without ``held``. Raises
    ValueError where its discards are not a list.
    """
    t = data["transform"]
    if held is not None and t["target"] == held[0]:
        bt = transform_from_json(t, source, source)
        scenarios = held[1]
    else:
        bt = transform_from_json(t, source, board_from_json(t["target"]))
        scenarios = {}
    seen = list(scenarios.values())

    def read(sc: object) -> Scenario:
        for known in seen:
            if known[0] == sc:
                return known[1]
        seen.append((sc, scenario_from_json(sc, board=bt.target)))
        return seen[-1][1]

    responses = {}
    for key, sc in data["responses"].items():
        qid = int(key)
        known = scenarios.get(qid)  # most often the quest's own held JSON
        responses[qid] = known[1] if known is not None and known[0] == sc else read(sc)
    child = read(data["child"]) if data.get("child") is not None else None
    discards = data.get("discards", [])
    if type(discards) is not list:
        raise ValueError(f"malformed bundle JSON: discards {discards!r} is not a list")
    return Bundle(transform=bt, responses=responses, discards=frozenset(discards), child=child)


def _response_to_json(sc: Scenario) -> dict:
    return scenario_to_json(sc, board="target")


def _bundle_text(bundle: Bundle) -> str:
    """``json.dumps(bundle_to_json(bundle), sort_keys=True)``, built from the
    texts stored on the bundle's transform and scenarios. Keys come in sorted
    order, and response ids sort as strings: "10" before "2"."""
    parts = []
    if bundle.child is not None:
        parts.append('"child": ' + _json_text(bundle.child, _response_to_json))
    parts.append('"discards": ' + _encode(sorted(bundle.discards)))
    responses = sorted((str(qid), sc) for qid, sc in bundle.responses.items())
    parts.append(
        '"responses": {'
        + ", ".join(f'"{qid}": {_json_text(sc, _response_to_json)}' for qid, sc in responses)
        + "}"
    )
    parts.append('"transform": ' + _json_text(bundle.transform, transform_to_json))
    return "{" + ", ".join(parts) + "}"


def round_to_json(record: dict) -> str:
    """One NDJSON line: ``json.dumps(record, sort_keys=True)`` of the record's
    dict form. A played round's record (``apply_round``) holds its Bundle,
    whose text is built from stored texts (``_bundle_text``); "bundle" sorts
    before every other key of a round record, so it leads the line."""
    bundle = record.get("bundle")
    if not isinstance(bundle, Bundle):
        return _encode(record)
    rest = {k: v for k, v in record.items() if k != "bundle"}
    tail = ", " + _encode(rest)[1:] if rest else "}"
    return '{"bundle": ' + _bundle_text(bundle) + tail


def trace_header(scenario: Scenario, policy: str, seed: Optional[int] = None) -> dict:
    out = {"header": {"scenario": scenario_to_json(scenario), "policy": policy}}
    if seed is not None:
        out["header"]["seed"] = seed
    return out


def replay_trace(lines: Iterable[str]) -> GameState:
    """Re-run a trace, re-validating every round; returns the final state.

    Raises ValueError for a round the umpire rejects, an outcome that does
    not match the replay, and a malformed line (named by its number).

    The reader holds the JSON each value of the state was read from: the
    board, and each open quest's scenario in its response form (the root's
    is the header scenario with ``"board": "target"``). A line that repeats
    a held JSON is read as the held value (``bundle_from_json``): on a call
    round, the board and every unchanged response, so at most the child is
    parsed. A blowup round brings a new board, so each distinct response on
    it is parsed once. Verdicts do not change: equal JSON parses to an
    equal value, every check is a pure function of values, and the umpire
    still runs ``validate_bundle`` in full on every round.
    """
    it = iter(lines)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("empty trace") from None
    try:
        header = json.loads(first)["header"]["scenario"]
        scenario = scenario_from_json(header)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise _malformed(1, exc) from exc
    state = new_game(scenario)
    board_json = header["board"]
    scenarios: Dict[int, Tuple[object, Scenario]] = {
        0: (dict(header, board="target"), state.root.scenario)
    }
    for lineno, line in enumerate(it, 2):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            move = move_from_json(record["move"])
            data = record["bundle"]
            bundle = bundle_from_json(data, state.board, (board_json, scenarios))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise _malformed(lineno, exc) from exc
        state, applied = apply_round(state, move, bundle)
        for key in ("round", "new_quest", "won", "discarded"):
            if applied.get(key) != record.get(key):
                raise ValueError(
                    f"round {record.get('round')}: recorded {key} {record.get(key)!r} "
                    f"does not match the replay {applied.get(key)!r}"
                )
        if move.kind == BLOWUP_MOVE:
            board_json = data["transform"]["target"]
        read = {int(key): sc for key, sc in data["responses"].items()}
        if move.kind == CALL:
            read[applied["new_quest"]] = data["child"]
        quests = state.quests
        scenarios = {
            qid: (sc, quests[qid].scenario)
            for qid, sc in read.items()
            if quests[qid].status == OPEN
        }
    return state


def _malformed(lineno: int, exc: Exception) -> ValueError:
    return ValueError(f"line {lineno}: malformed trace record ({type(exc).__name__}: {exc})")
