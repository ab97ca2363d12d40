"""The umpire: bundle validation, round application, traces, replay."""

import contextlib
import dataclasses
import functools
import gc
import io
import json
import os
import re
import tempfile
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies

from salmagundy import board, cli, game, harness, transform
from salmagundy.board import Board, BoardTransform, blowup_transform, trivial_refinement
from salmagundy.game import (
    DISCARDED,
    WON,
    Bundle,
    BundleError,
    GameState,
    Move,
    Quest,
    apply_round,
    blowup_discards,
    bundle_from_json,
    bundle_to_json,
    move_from_json,
    move_to_json,
    new_game,
    relation_from_json,
    relation_to_json,
    replay_trace,
    round_to_json,
    trace_header,
    validate_bundle,
)
from salmagundy.dido import DidoStrategy
from salmagundy.harness import gen_scenario, play_game
from salmagundy.mephisto import (
    Policy,
    enumerate_blowup_bundles,
    enumerate_call_bundles,
    respond,
)
from salmagundy.quests import transversality_response
from salmagundy.scenario import (
    MonomialFactor,
    Scenario,
    admissible_centers,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
    zero_factor,
)
from salmagundy.transform import QuestRelation, validate_blowup_transform
from salmagundy.values import INF, is_finite


def _bundle_tags(violations):
    return {v.issue for v in violations if v.rule == "bundle"}


# ---- new_game ----------------------------------------------------------------


def test_new_game_shape(chain_scenario):
    st = new_game(chain_scenario)
    assert st.board == chain_scenario.board
    assert set(st.quests) == {0}
    assert st.root.scenario == chain_scenario
    assert st.root.status == "open"
    assert not st.won
    assert st.strict
    assert st.round_no == 0


def test_new_game_on_resolved_scenario(crossing_scenario):
    from salmagundy.scenario import Scenario

    done = Scenario(
        crossing_scenario.board, 2, 10, crossing_scenario.H, [],
        crossing_scenario.T, {}, crossing_scenario.M,
    )
    st = new_game(done)
    assert st.won
    # the game is over: a blowup would move the board off the main quest's
    z = min(admissible_centers(done))
    bundle = Bundle(transform=blowup_transform(st.board, z), responses={})
    assert [v.detail for v in validate_bundle(st, Move.blowup(z), bundle)] == [
        "the main quest is closed: the game is over"
    ]


# ---- call rounds ---------------------------------------------------------------


def test_apply_call_round(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1", "h2"})
    mv = Move.call(0, rel)
    bundle = respond(st, mv, Policy.parse("canonical"))
    st, record = apply_round(st, mv, bundle)
    assert record["new_quest"] == 1
    assert st.round_no == 1
    assert st.quests[1].scenario == transversality_response(
        crossing_scenario, {"h1", "h2"}
    )
    assert st.quests[1].parent_id == 0
    assert st.quests[1].status == "open"


def test_call_round_rejects_blowup_transform(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    bt = blowup_transform(st.board, "s")
    child = transversality_response(crossing_scenario, {"h1"})
    bad = Bundle(transform=bt, responses={0: crossing_scenario}, child=child)
    got = validate_bundle(st, Move.call(0, rel), bad)
    assert _bundle_tags(got) == {"structure"}
    with pytest.raises(BundleError):
        apply_round(st, Move.call(0, rel), bad)


def test_call_round_must_keep_quests_unchanged(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    child = transversality_response(crossing_scenario, {"h1"})
    moved = transversality_response(crossing_scenario, {"h2"})
    bad = Bundle(
        transform=trivial_refinement(st.board),
        responses={0: moved},
        child=child,
    )
    got = validate_bundle(st, Move.call(0, rel), bad)
    assert _bundle_tags(got) == {"structure"}


def test_call_round_requires_child(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    bad = Bundle(
        transform=trivial_refinement(st.board),
        responses={0: crossing_scenario},
        child=None,
    )
    assert _bundle_tags(validate_bundle(st, Move.call(0, rel), bad)) == {"structure"}


def test_call_on_closed_quest_rejected(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    bad = Bundle(
        transform=trivial_refinement(st.board),
        responses={0: crossing_scenario},
        child=transversality_response(crossing_scenario, {"h1"}),
    )
    assert validate_bundle(st, Move.call(7, rel), bad)


def test_wrong_child_scenario_rejected(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1", "h2"})
    bad = Bundle(
        transform=trivial_refinement(st.board),
        responses={0: crossing_scenario},
        child=crossing_scenario,  # kept the parent's orders instead of 1
    )
    got = validate_bundle(st, Move.call(0, rel), bad)
    assert any(v.rule == "transversality" and v.issue == 4 for v in got)


# ---- blowup rounds --------------------------------------------------------------


def test_apply_blowup_round(chain_scenario, blown_chain_response):
    st = new_game(chain_scenario)
    mv = Move.blowup("p")
    bundle = respond(st, mv, Policy.parse("canonical"))
    st, record = apply_round(st, mv, bundle)
    assert st.board == bundle.transform.target
    assert st.root.scenario == blown_chain_response
    assert record["new_quest"] is None
    assert record["discarded"] == []


def test_blowup_round_rejects_child(chain_scenario):
    st = new_game(chain_scenario)
    mv = Move.blowup("p")
    bundle = respond(st, mv, Policy.parse("canonical"))
    bad = Bundle(
        transform=bundle.transform,
        responses=dict(bundle.responses),
        child=chain_scenario,
    )
    assert _bundle_tags(validate_bundle(st, mv, bad)) == {"structure"}


def test_blowup_round_rejects_wrong_center(chain_scenario):
    st = new_game(chain_scenario)
    bundle = respond(st, Move.blowup("p"), Policy.parse("canonical"))
    got = validate_bundle(st, Move.blowup("a"), bundle)
    assert _bundle_tags(got) == {"structure"}


def test_blowup_round_rejects_wrong_discards(crossing_scenario):
    st = new_game(crossing_scenario)
    mv = Move.blowup("s")
    bundle = respond(st, mv, Policy.parse("canonical"))
    bad = Bundle(
        transform=bundle.transform,
        responses={},
        discards=frozenset({0}),
    )
    got = validate_bundle(st, mv, bad)
    assert _bundle_tags(got) == {"structure"}


def test_blowup_round_rejects_missing_response(crossing_scenario):
    st = new_game(crossing_scenario)
    mv = Move.blowup("s")
    bundle = respond(st, mv, Policy.parse("canonical"))
    bad = Bundle(transform=bundle.transform, responses={})
    got = validate_bundle(st, mv, bad)
    assert _bundle_tags(got) == {"structure"}


def test_quest_wins_when_singularities_vanish(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    mv = Move.call(0, rel)
    bundle = respond(st, mv, Policy.parse("canonical"))
    st, record = apply_round(st, mv, bundle)
    # the response restricted S to nodes under h1 only: s survives, so the
    # child stays open; a full flattening closes it instead
    rel2 = QuestRelation.quotient(zero_factor(crossing_scenario.H), Fraction(2))
    mv2 = Move.call(0, rel2)
    bundle2 = respond(st, mv2, Policy.parse("canonical"))
    st, record2 = apply_round(st, mv2, bundle2)
    assert bundle2.child.S == frozenset()
    assert record2["won"] == [2]
    assert st.quests[2].status == "won"


# ---- relation / move / bundle JSON -----------------------------------------------


def test_relation_json_roundtrip(crossing_scenario):
    rels = [
        QuestRelation.relaxation({"h1"}),
        QuestRelation.descent(),
        QuestRelation.transversality({"h1", "h2"}),
        QuestRelation.quotient(zero_factor({"h1", "h2"}), Fraction(3, 2)),
    ]
    for rel in rels:
        assert relation_from_json(json.loads(json.dumps(relation_to_json(rel)))) == rel


def test_move_json_roundtrip():
    moves = [
        Move.blowup("p"),
        Move.call(3, QuestRelation.descent()),
        Move.call(0, QuestRelation.relaxation({"h1"})),
    ]
    for mv in moves:
        assert move_from_json(json.loads(json.dumps(move_to_json(mv)))) == mv


def test_bundle_json_roundtrip(chain_scenario):
    st = new_game(chain_scenario)
    mv = Move.blowup("p")
    bundle = respond(st, mv, Policy.parse("canonical"))
    data = json.loads(json.dumps(bundle_to_json(bundle)))
    back = bundle_from_json(data, st.board)
    assert back.transform.target == bundle.transform.target
    assert back.transform.embed == bundle.transform.embed
    assert back.responses == bundle.responses
    assert back.discards == bundle.discards
    assert back.child == bundle.child


# ---- replay -----------------------------------------------------------------------


def test_replay_reproduces_final_state(chain_scenario):
    result = play_game(chain_scenario, Policy.parse("canonical"))
    assert result.won
    st = replay_trace(result.trace)
    assert st.won
    assert st.round_no == result.state.round_no
    assert set(st.quests) == set(result.state.quests)
    for qid, q in st.quests.items():
        assert q.scenario == result.state.quests[qid].scenario
        assert q.status == result.state.quests[qid].status


def test_replay_rejects_tampered_outcome(chain_scenario):
    result = play_game(chain_scenario, Policy.parse("canonical"))
    lines = list(result.trace)
    record = json.loads(lines[-1])
    record["won"] = [41]
    lines[-1] = round_to_json(record)
    with pytest.raises(ValueError):
        replay_trace(lines)


def test_replay_rejects_a_recorded_round_number_that_is_not_the_replays(chain_scenario):
    lines = list(play_game(chain_scenario, Policy.parse("canonical")).trace)
    record = json.loads(lines[1])
    assert record["round"] == 1
    record["round"] = 99
    lines[1] = round_to_json(record)
    with pytest.raises(ValueError, match="^round 99: recorded round 99 does not match the replay 1$"):
        replay_trace(lines)


def test_replay_rejects_tampered_bundle(chain_scenario):
    result = play_game(chain_scenario, Policy.parse("canonical"))
    lines = list(result.trace)
    for i, line in enumerate(lines):
        record = json.loads(line)
        if "bundle" in record and record["move"]["type"] == "blowup":
            victim = record["bundle"]["responses"]
            qid = sorted(victim)[0]
            victim[qid]["ord"] = {s: "7" for s in victim[qid]["S"]}
            lines[i] = round_to_json(record)
            break
    with pytest.raises((ValueError, BundleError)):
        replay_trace(lines)


@pytest.mark.parametrize("tamper", ["center", "retract"])
def test_replay_rejects_a_call_transform_that_is_not_the_identity(tamper):
    # round 2 of canonical seed 5 is a call; its transform must equal the
    # board's identity refinement, not merely embed every node onto itself
    lines = list(play_game(gen_scenario(5), Policy.parse("canonical")).trace)
    record = json.loads(lines[2])
    assert record["round"] == 2 and record["move"]["type"] == "call"
    t = record["bundle"]["transform"]
    ids = sorted(t["embed"])
    if tamper == "center":
        t["center"] = ids[0]
    else:
        t["retract"][ids[0]] = t["retract"][ids[1]]
    assert all(t["embed"][s] == s for s in ids)
    lines[2] = round_to_json(record)
    with pytest.raises(ValueError, match="call rounds ride on the identity refinement"):
        replay_trace(lines)


def test_replay_rejects_an_unknown_move_type(chain_scenario):
    lines = list(play_game(chain_scenario, Policy.parse("canonical")).trace)
    records = [json.loads(line) for line in lines]
    i = next(i for i, r in enumerate(records) if r.get("move", {}).get("type") == "blowup")
    records[i]["move"]["type"] = "bogus"
    lines[i] = round_to_json(records[i])
    lineno = i + 1
    with pytest.raises(ValueError, match=f"^line {lineno}: malformed trace record .*'bogus'"):
        replay_trace(lines)


def test_replay_rejects_empty_trace():
    with pytest.raises(ValueError):
        replay_trace([])


@functools.lru_cache(maxsize=None)
def _trace(source, seed):
    """The trace of a game: a generated scenario under the policy named
    ``source``, or, for "monomial", a scenario owning a complete factor
    under canonical."""
    if source == "monomial":
        scenario, policy = harness.gen_monomial_scenario(seed), "canonical"
    else:
        scenario, policy = gen_scenario(seed), source
    return tuple(play_game(scenario, Policy.parse(policy)).trace)


def _canonical_trace(seed):
    return _trace("canonical", seed)


_TRACE_SOURCES = ["canonical", "random:1", "random:3", "monomial"]


def _relaxation_child_off_the_board(record):
    # canonical seed 0, line 4: a relaxation call on quest 2
    assert record["move"]["relation"]["kind"] == "relaxation"
    record["bundle"]["child"]["T"].append("zz")


def _blowup_response_off_the_board(record):
    # canonical seed 0, line 9: the first blowup, at v1
    assert record["move"]["type"] == "blowup"
    response = record["bundle"]["responses"]["0"]
    response["S"].append("zz")
    response["ord"]["zz"] = "1"


@pytest.mark.parametrize(
    "lineno, mutate",
    [(4, _relaxation_child_off_the_board), (9, _blowup_response_off_the_board)],
)
def test_replay_rejects_nodes_off_the_board_before_it_reads_them(lineno, mutate):
    # the relaxation check reads the child's T on the board, and transform
    # item 8 reads the retract at every node of a response's S: both raised
    # KeyError before the umpire checked each new scenario's shape first
    lines = list(_canonical_trace(0))
    record = json.loads(lines[lineno - 1])
    mutate(record)
    lines[lineno - 1] = round_to_json(record)
    with pytest.raises(BundleError, match=r"contains unknown nodes \(witness: zz\)"):
        replay_trace(lines)


def test_replay_rejects_a_response_order_below_1_as_issue_4():
    # canonical seed 6, line 11: its third blowup answers with ord(q5) = 1,
    # a free order at its floor; 2/3 is on the grid but below 1
    lines = list(_canonical_trace(6))
    record = json.loads(lines[11])
    response = record["bundle"]["responses"]["0"]
    assert record["move"]["type"] == "blowup" and response["ord"]["q5"] == "1"
    response["ord"]["q5"] = "2/3"
    lines[11] = round_to_json(record)
    with pytest.raises(BundleError) as info:
        replay_trace(lines)
    assert [(v.rule, v.issue, v.witness) for v in info.value.violations] == [
        ("scenario", 4, ("q5",))
    ]
    assert str(info.value) == "[scenario / issue 4] ord(q5) = 2/3 < 1 (witness: q5)"


def _off_the_board(sc, part):
    """Put the node id "zz", which no board has, into one part of a
    scenario's JSON."""
    if part == "S":
        sc["S"].append("zz")
        sc["ord"]["zz"] = "1"
    elif part in ("H", "T"):
        sc[part].append("zz")
    elif part == "ord":
        sc["ord"]["zz"] = "1"
    else:
        sc["M"][0]["zz"] = "0"


@settings(max_examples=60, deadline=None)
@given(
    source=strategies.sampled_from(_TRACE_SOURCES),
    seed=strategies.integers(0, 7),
    pick=strategies.integers(0, 10**6),
    part=strategies.sampled_from(["S", "T", "H", "ord", "M"]),
)
def test_replay_rejects_every_node_off_the_board(source, seed, pick, part):
    lines = list(_trace(source, seed))
    lineno = 1 + pick % (len(lines) - 1)
    record = json.loads(lines[lineno])
    bundle = record["bundle"]
    targets = sorted(bundle["responses"]) + (["child"] if "child" in bundle else [])
    target = targets[pick % len(targets)]
    _off_the_board(bundle["child"] if target == "child" else bundle["responses"][target], part)
    lines[lineno] = round_to_json(record)
    with pytest.raises(ValueError) as info:
        replay_trace(lines)
    if target == "child" or record["move"]["type"] == "blowup":
        assert re.fullmatch(r"\[scenario / issue structure\] .* \(witness: zz\)", str(info.value))
    else:
        # a call round's response is compared with its quest's scenario
        assert f"quest {target} changed on a call round" in str(info.value)


_BAD_VALUES = [
    None, True, 0, -1, 2.5, 10**30, "", "x", "v0", "1/0", "-1", "inf", [], ["v0"], [[]],
    {}, {"v0": "1"},
]


def _json_paths(value, path=()):
    """The path to every part of a JSON value, the whole value first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


def _mutated(lines, kind, pick):
    """``lines`` with one line repeated, two lines swapped, or one part of a
    line dropped or given a bad value; ``pick`` chooses which."""
    lines = list(lines)
    i, pick = pick % len(lines), pick // len(lines)
    if kind == "repeat":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = pick % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    else:
        record = json.loads(lines[i])
        paths = list(_json_paths(record))[1:]
        path, pick = paths[pick % len(paths)], pick // len(paths)
        parent = functools.reduce(lambda part, key: part[key], path[:-1], record)
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = _BAD_VALUES[pick % len(_BAD_VALUES)]
        lines[i] = json.dumps(record, sort_keys=True)
    return lines


@settings(max_examples=150, deadline=None)
@given(
    source=strategies.sampled_from(_TRACE_SOURCES),
    seed=strategies.integers(0, 7),
    kind=strategies.sampled_from(["drop", "bad", "repeat", "swap"]),
    pick=strategies.integers(0, 10**9),
)
def test_replay_accepts_or_rejects_every_mutated_trace(source, seed, kind, pick):
    # replay_trace either accepts a trace or raises ValueError, which the
    # command line reports as a rejected trace (exit 1), never a traceback
    lines = _mutated(_trace(source, seed), kind, pick)
    try:
        replay_trace(lines)
        want = cli.EXIT_OK
    except ValueError:
        want = cli.EXIT_VIOLATIONS
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.ndjson")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert cli.main(["replay", path]) == want
    assert "Traceback" not in err.getvalue()


def test_a_malformed_node_id_is_a_rejected_trace():
    # A witness that is not a string made the violation's text raise
    # TypeError, and a map value that is not hashable made the board
    # transform check raise it. A trace's H holds node ids only, and a
    # scenario built with another id reports it.
    header, *rounds = _canonical_trace(0)
    record = json.loads(header)
    record["header"]["scenario"]["H"].append(1)
    with pytest.raises(ValueError, match=r"^line 1: malformed trace record .* is not a list of"):
        replay_trace([json.dumps(record), *rounds])
    c = scenario_from_json(json.loads(header)["header"]["scenario"])
    (v,) = validate_scenario(dataclasses.replace(c, H=c.H | {1}))
    assert str(v).endswith("unknown nodes (witness: 1)")
    lines = list(_canonical_trace(0))
    record = json.loads(lines[8])  # line 9: the first blowup, at v1
    record["bundle"]["transform"]["retract"]["v1"] = ["v1"]
    lines[8] = json.dumps(record, sort_keys=True)
    with pytest.raises(ValueError, match="line 9: malformed trace record .* not a string"):
        replay_trace(lines)


@pytest.mark.parametrize("case", ["H-empty", "S-object", "embed-pairs"])
def test_a_value_in_another_json_form_is_a_rejected_trace(case):
    # Each edit replayed as won: a string was read as its characters, an
    # object as its keys, and a list of pairs as a map.
    lines = list(_canonical_trace(6))
    for i, line in enumerate(lines[1:], 1):
        record = json.loads(line)
        bundle = record["bundle"]
        if case == "H-empty":
            empty = [sc for _, sc in sorted(bundle["responses"].items()) if sc["H"] == []]
            if not empty:
                continue
            empty[0]["H"] = ""
        elif case == "S-object":
            response = bundle["responses"]["0"]
            response["S"] = dict.fromkeys(response["S"], 1)
        else:
            bundle["transform"]["embed"] = sorted(bundle["transform"]["embed"].items())
        lines[i] = json.dumps(record, sort_keys=True)
        break
    what = "transform" if case == "embed-pairs" else "scenario"
    with pytest.raises(ValueError, match=f"^line {i + 1}: malformed trace record .*malformed {what} JSON"):
        replay_trace(lines)


def test_a_malformed_move_is_a_rejected_trace():
    # a quest id that is not hashable made the call check raise TypeError
    lines = list(_canonical_trace(0))
    for kind, key, bad in (("call", "quest", []), ("blowup", "center", ["v1"])):
        lineno = next(
            n for n, line in enumerate(lines[1:], 2) if json.loads(line)["move"]["type"] == kind
        )
        record = json.loads(lines[lineno - 1])
        record["move"][key] = bad
        mutated = list(lines)
        mutated[lineno - 1] = json.dumps(record, sort_keys=True)
        with pytest.raises(ValueError, match=f"line {lineno}: malformed trace record .* {key}"):
            replay_trace(mutated)


def _respell_response_id(text):
    def edit(record):
        responses = record["bundle"]["responses"]
        responses[text] = responses.pop("0")
    return edit


def _set(kind, *path, value):
    """An edit of the first record whose move is of ``kind`` (None: any):
    the value at ``path`` becomes ``value``, or goes if ``value`` is None."""
    def edit(record):
        if kind is not None and record["move"]["type"] != kind:
            return False
        *parents, last = path
        for key in parents:
            record = record[key]
        if value is None:
            del record[last]
        else:
            record[last] = value
    return edit


_NOT_ON_TARGET = 'malformed bundle JSON: a response or the child is not on "target"'


@pytest.mark.parametrize(
    "edit, error",
    [
        *[
            pytest.param(
                _respell_response_id(text),
                "line 2: malformed trace record (ValueError: "
                f"malformed bundle JSON: response id {text!r} is not written '0')",
                id=f"response-id-{name}",
            )
            for text, name in (
                ("00", "00"), ("+0", "plus-0"), (" 0", "space-0"), ("٠", "arabic-0")
            )
        ],
        *[
            pytest.param(
                _set(kind, "bundle", *part, "board", value=board),
                f"line {lineno}: malformed trace record (ValueError: {_NOT_ON_TARGET})",
                id=f"{part[0]}-board-{board}",
            )
            for kind, part, lineno in (("blowup", ("responses", "0"), 9), ("call", ("child",), 2))
            for board in ("source", 0, None)
        ],
        pytest.param(
            _set(None, "new_quest", value=True),
            "round 1: recorded new_quest True does not match the replay 1",
            id="new_quest-true",
        ),
        pytest.param(
            _set(None, "round", value=1.0),
            "round 1.0: recorded round 1.0 does not match the replay 1",
            id="round-float",
        ),
        *[
            pytest.param(
                _set(None, key, value=None),
                f"line 2: malformed trace record (KeyError: '{key}')",
                id=f"no-{key}",
            )
            for key in ("round", "new_quest", "won", "discarded")
        ],
    ],
)
def test_replay_takes_only_the_writers_form_of_a_record(edit, error):
    # Each edit once replayed as a won game: a response id is the quest id as str
    # writes it, every response and child is on "target", and a recorded
    # outcome is there and has the replay's type (true is not quest 1).
    lines = list(_canonical_trace(0))
    for i, line in enumerate(lines[1:], 1):
        record = json.loads(line)
        if edit(record) is not False:
            lines[i] = json.dumps(record, sort_keys=True)
            break
    with pytest.raises(ValueError) as info:
        replay_trace(lines)
    assert str(info.value) == error


def test_replay_rejects_an_order_with_a_zero_denominator():
    # parse_value raised ZeroDivisionError at "1/0", which replay_trace, and
    # so the CLI, did not catch
    lines = play_game(gen_scenario(4), Policy.parse("random:3")).trace
    changed = 0
    for lineno in range(2, len(lines) + 1):
        record = json.loads(lines[lineno - 1])
        held = [sc for _, sc in sorted(record["bundle"]["responses"].items()) if sc["ord"]]
        if not held:
            continue
        held[0]["ord"][min(held[0]["ord"])] = "1/0"
        mutated = list(lines)
        mutated[lineno - 1] = round_to_json(record)
        with pytest.raises(ValueError) as info:
            replay_trace(mutated)
        assert str(info.value) == (
            f"line {lineno}: malformed trace record "
            "(ValueError: value '1/0' has a zero denominator)"
        )
        changed += 1
    assert changed > 10


@pytest.mark.parametrize(
    "scale, error",
    [
        ("1/0", "ValueError: value '1/0' has a zero denominator"),
        ("inf", "ValueError: malformed relation JSON: scale 'inf' is not a finite number"),
        (2, "ValueError: malformed relation JSON: scale 2 is not a finite number"),
    ],
)
def test_replay_rejects_a_quotient_scale_that_is_not_a_finite_number(scale, error):
    # relation_from_json read the scale with Fraction, which raised
    # ZeroDivisionError at "1/0"; it reads it as orders are read
    lines = list(_canonical_trace(0))
    record = json.loads(lines[1])  # line 2: the first call, a quotient of scale "2"
    assert record["move"]["relation"]["scale"] == "2"
    record["move"]["relation"]["scale"] = scale
    lines[1] = round_to_json(record)
    with pytest.raises(ValueError) as info:
        replay_trace(lines)
    assert str(info.value) == f"line 2: malformed trace record ({error})"


def _first_call(lines, kind):
    """The line number of the trace's first call of ``kind``, and its record."""
    for lineno, line in enumerate(lines[1:], 2):
        record = json.loads(line)
        if record["move"].get("relation", {}).get("kind") == kind:
            return lineno, record
    raise AssertionError(f"the trace has no {kind} call")


@pytest.mark.parametrize(
    "kind, change, error",
    [
        ("quotient", {"scale": None}, "a quotient call takes factor and scale, got ['factor']"),
        ("quotient", {"factor": None}, "a quotient call takes factor and scale, got ['scale']"),
        (
            "quotient",
            {"jibs": ["zz"]},
            "a quotient call takes factor and scale, got ['factor', 'jibs', 'scale']",
        ),
        ("quotient", {"factor": []}, "factor [] is not an object of weights"),
        ("quotient", {"factor": {"e0": 0}}, "factor {'e0': 0} is not an object of weights"),
        (
            "relaxation",
            {"factor": {"e0": "0"}},
            "a relaxation call takes an optional jibs, got ['factor', 'jibs']",
        ),
        (
            "relaxation",
            {"scale": "1"},
            "a relaxation call takes an optional jibs, got ['jibs', 'scale']",
        ),
        ("relaxation", {"jibs": "e0"}, "jibs 'e0' is not a list of node ids"),
        ("relaxation", {"jibs": [0]}, "jibs [0] is not a list of node ids"),
        (
            "transversality",
            {"scale": "1"},
            "a transversality call takes an optional jibs, got ['scale']",
        ),
        ("descent", {"jibs": ["e0"]}, "a descent call takes no parameter, got ['jibs']"),
        ("descent", {"factor": {}}, "a descent call takes no parameter, got ['factor']"),
    ],
)
def test_replay_reads_exactly_the_parameters_of_each_call_kind(kind, change, error):
    # A quotient without "scale" raised TypeError and one without "factor"
    # AttributeError; a parameter of another kind was ignored, and "jibs": "e0"
    # read as the jibs {"0", "e"}. Each is a malformed record now.
    lines = list(_canonical_trace(6))
    lineno, record = _first_call(lines, kind)
    rel = record["move"]["relation"]
    for key, value in change.items():
        if value is None:
            del rel[key]
        else:
            rel[key] = value
    lines[lineno - 1] = round_to_json(record)
    with pytest.raises(ValueError) as info:
        replay_trace(lines)
    assert str(info.value) == (
        f"line {lineno}: malformed trace record (ValueError: malformed relation JSON: {error})"
    )


def test_every_relation_written_is_read_back_and_an_unknown_kind_is_the_umpires():
    lines = list(_canonical_trace(6))
    for kind in ("quotient", "transversality", "relaxation", "descent"):
        _, record = _first_call(lines, kind)
        data = record["move"]["relation"]
        assert relation_to_json(relation_from_json(data)) == data
    # an unknown kind is read as it stands, and the umpire rejects its call
    lineno, record = _first_call(lines, "relaxation")
    record["move"]["relation"]["kind"] = "bogus"
    lines[lineno - 1] = round_to_json(record)
    with pytest.raises(BundleError, match="illegal call: no fixed response to a 'bogus' call"):
        replay_trace(lines)


def test_replay_reads_discards_only_as_a_list():
    # "discards": "ab" was read as the quests ["a", "b"]
    lines = list(_canonical_trace(6))
    record = json.loads(lines[1])
    assert record["bundle"]["discards"] == []
    for bad in ("ab", {}, 0):
        record["bundle"]["discards"] = bad
        mutated = [*lines[:1], round_to_json(record), *lines[2:]]
        with pytest.raises(ValueError) as info:
            replay_trace(mutated)
        assert str(info.value) == (
            "line 2: malformed trace record "
            f"(ValueError: malformed bundle JSON: discards {bad!r} is not a list)"
        )


# ---- what replay reuses ---------------------------------------------------------------


@pytest.mark.parametrize("seed, policy", [(0, "canonical"), (4, "random:1")])
def test_a_call_round_reads_the_held_board_and_responses(monkeypatch, seed, policy):
    result = play_game(gen_scenario(seed), Policy.parse(policy))
    apply = game.apply_round
    calls = []

    def spy(state, move, bundle):
        if move.kind == "call":
            calls.append(move)
            assert bundle.transform.target is state.board
            for qid, sc in bundle.responses.items():
                assert sc is state.quests[qid].scenario, qid
        return apply(state, move, bundle)

    monkeypatch.setattr(game, "apply_round", spy)
    assert replay_trace(result.trace) == result.state
    assert len(calls) > 1


def test_a_line_with_two_equal_responses_reads_one_object():
    lines = _canonical_trace(0)
    record = json.loads(lines[8])  # line 9: the first blowup, at v1
    assert record["move"]["type"] == "blowup"
    data = record["bundle"]["responses"]
    assert data["1"] == data["2"] == data["5"] != data["0"]
    state = replay_trace(lines[:8])
    bundle = bundle_from_json(record["bundle"], state.board)
    assert bundle.responses[1] is bundle.responses[2] is bundle.responses[5]
    assert bundle.responses[0] is not bundle.responses[1]


def test_equal_scenarios_on_a_line_are_read_as_one_object(monkeypatch):
    # Play shares equal responses and children; replay reads a response or
    # child whose JSON equals one held or already read on its line as that
    # same scenario, so a check stored on it answers for the others too.
    apply = game.apply_round
    shared = Counter()

    def spy(state, move, bundle):
        scs = [*bundle.responses.values(), *([bundle.child] if bundle.child else [])]
        first = {}
        for sc in scs:
            assert first.setdefault(sc, sc) is sc
        shared[move.kind] += len(scs) - len(first)
        return apply(state, move, bundle)

    monkeypatch.setattr(game, "apply_round", spy)
    for seed in range(8):
        replay_trace(_canonical_trace(seed))
    assert shared["blowup"] and shared["call"]


def test_replay_parses_a_board_per_blowup_round_and_the_header(monkeypatch):
    lines = _canonical_trace(0)
    blowups = sum(json.loads(line)["move"]["type"] == "blowup" for line in lines[1:])
    parse = board.board_from_json
    parsed = []

    def counted(data):
        parsed.append(data)
        return parse(data)

    monkeypatch.setattr(game, "board_from_json", counted)
    monkeypatch.setattr("salmagundy.scenario.board_from_json", counted)
    assert replay_trace(lines).round_no == len(lines) - 1
    assert 0 < blowups < len(lines) - 2
    assert len(parsed) == blowups + 1


@pytest.mark.parametrize("seed, policy", [(0, "canonical"), (4, "random:1")])
def test_replay_parses_each_scenario_once_per_board(monkeypatch, seed, policy):
    # The reader holds every scenario it read on the current board, the
    # header's root among them, so a response or child is parsed on the
    # first line that brings it to its board and never again there.
    lines = play_game(gen_scenario(seed), Policy.parse(policy)).trace
    parse = game.scenario_from_json
    parsed = []

    def counted(data, board=None):
        parsed.append(json.dumps(data, sort_keys=True))
        return parse(data, board)

    monkeypatch.setattr(game, "scenario_from_json", counted)
    replay_trace(lines)
    header = json.loads(lines[0])["header"]["scenario"]
    on_board = json.dumps(header["board"], sort_keys=True)
    read = {(on_board, json.dumps(dict(header, board="target"), sort_keys=True))}
    want, brought, kinds = [json.dumps(header, sort_keys=True)], 0, set()
    for line in lines[1:]:
        record = json.loads(line)
        kinds.add(record["move"]["type"])
        bundle = record["bundle"]
        on_board = json.dumps(bundle["transform"]["target"], sort_keys=True)
        for sc in [*bundle["responses"].values(), *filter(None, [bundle.get("child")])]:
            text = json.dumps(sc, sort_keys=True)
            brought += 1
            if (on_board, text) not in read:
                read.add((on_board, text))
                want.append(text)
    assert kinds == {"call", "blowup"} and brought > 2 * len(want)
    assert parsed == want


def test_a_tampered_response_of_an_unchanged_quest_is_parsed_and_rejected():
    lines = list(_canonical_trace(0))
    record = json.loads(lines[3])  # a call on quest 2: quest 1 must not change
    assert record["move"]["type"] == "call" and record["move"]["quest"] == 2
    record["bundle"]["responses"]["1"]["d"] += 1
    lines[3] = round_to_json(record)
    with pytest.raises(BundleError, match="quest 1 changed on a call round"):
        replay_trace(lines)


def test_trace_header_contents(chain_scenario):
    line = round_to_json(trace_header(chain_scenario, "random", 5))
    data = json.loads(line)
    assert data["header"]["policy"] == "random"
    assert data["header"]["seed"] == 5
    assert data["header"]["scenario"]["d"] == chain_scenario.d


# ---- trace lines from stored texts --------------------------------------------------


def _dict_line(record):
    """The line of a record encoded from its dict form, bundle included."""
    bundle = record.get("bundle")
    if isinstance(bundle, Bundle):
        record = dict(record, bundle=bundle_to_json(bundle))
    return json.dumps(record, sort_keys=True)


def _recording_lines(monkeypatch):
    """Every (record, line) pair the harness encodes from now on."""
    seen = []

    def record_and_encode(record):
        line = round_to_json(record)
        seen.append((record, line))
        return line

    monkeypatch.setattr(harness, "round_to_json", record_and_encode)
    return seen


def test_every_pinned_line_equals_its_dict_form(monkeypatch):
    # the games of tests/test_trace_identity.py
    seen = _recording_lines(monkeypatch)
    for text, count in (("canonical", 40), ("random:1", 40), ("adversarial", 20)):
        for seed in range(count):
            play_game(gen_scenario(seed), Policy.parse(text))
    # explore encodes only the trace of its first lost leaf, so the pinned
    # trees are capped below their depth; seed 16 at cap 15 also has table hits
    for seed in range(6):
        harness.explore(gen_scenario(seed), depth_cap=6)
    harness.explore(gen_scenario(16), depth_cap=15)
    played = [r["bundle"] for r, _ in seen if "bundle" in r]
    assert len(played) > 900 and all(isinstance(b, Bundle) for b in played)
    assert any(b.child for b in played)
    # some line holds ids whose string order is not their integer order
    assert any({2, 10} <= set(b.responses) for b in played)
    # the call rounds on one board ride on one identity transform
    calls = {}
    for b in played:
        if b.child is not None:
            calls.setdefault(id(b.transform.source), []).append(id(b.transform))
    assert any(len(ids) > 1 for ids in calls.values())
    assert all(len(set(ids)) == 1 for ids in calls.values())
    for record, line in seen:
        assert line == _dict_line(record)


def _id_board():
    return Board({'a"b': 0, "c\\d": 1, "\u00e9": 2}, [('a"b', "c\\d"), ("c\\d", "\u00e9")])


def _crafted_records(crossing_scenario):
    """Two records no game plays: open quests 0, 2 and 10 with a call round's
    child and discards, and a blowup of a board whose ids need escaping."""
    c = crossing_scenario
    other = dataclasses.replace(c, S=frozenset({"h1"}), ord={"h1": Fraction(1, 2)})
    b = _id_board()
    odd = Scenario(
        board=b, d=1, B=2, H={"c\\d"}, S={'a"b'}, T=b.ids, ord={'a"b': Fraction(3, 2)},
        M=[MonomialFactor({"c\\d": INF})],
    )
    ident = trivial_refinement(b)
    blowup = BoardTransform("blowup", b, b, ident.embed, ident.retract, center='a"b')
    return [
        {
            "round": 7,
            "move": move_to_json(Move.call(2, QuestRelation.transversality({"h1"}))),
            "bundle": Bundle(
                transform=trivial_refinement(c.board),
                responses={10: other, 0: c, 2: other},
                discards=frozenset({11, 8, 3}),
                child=c,
            ),
            "new_quest": 12,
            "won": [],
            "discarded": [3, 8, 11],
        },
        {
            "round": 1,
            "move": move_to_json(Move.blowup('a"b')),
            "bundle": Bundle(transform=blowup, responses={0: odd, 1: odd}),
            "new_quest": None,
            "won": [1],
            "discarded": [],
        },
    ]


def test_crafted_lines_equal_their_dict_form(crossing_scenario):
    quests, ids = _crafted_records(crossing_scenario)
    line = round_to_json(quests)
    assert line == _dict_line(quests)
    # response ids sort as strings
    assert line.index('"0": {') < line.index('"10": {') < line.index('"2": {')
    line = round_to_json(ids)
    assert line == _dict_line(ids)
    assert line.isascii() and '"a\\"b"' in line and '"c\\\\d"' in line
    assert '"\\u00e9"' in line
    assert json.loads(line)["bundle"]["transform"]["center"] == 'a"b'
    alone = {"bundle": ids["bundle"]}
    assert round_to_json(alone) == _dict_line(alone)


def test_stored_texts_stay_out_of_equality_hash_and_repr(crossing_scenario):
    record = _crafted_records(crossing_scenario)[1]
    round_to_json(record)  # stores the texts
    bundle = record["bundle"]
    sc, bt, b = bundle.responses[0], bundle.transform, bundle.transform.source
    ident = trivial_refinement(b)
    round_to_json(dict(record, bundle=Bundle(transform=ident, responses={})))
    assert all(hasattr(v, "_memo") for v in (sc, bt, ident, b))
    fresh_b = _id_board()
    fresh_sc = dataclasses.replace(sc, board=fresh_b)
    fresh_bt = dataclasses.replace(bt, source=fresh_b, target=fresh_b)
    for stored, fresh in ((sc, fresh_sc), (bt, fresh_bt), (ident, trivial_refinement(fresh_b)), (b, fresh_b)):
        assert stored is not fresh
        assert stored == fresh and hash(stored) == hash(fresh) and repr(stored) == repr(fresh)


def test_stored_texts_die_with_their_values(crossing_scenario, monkeypatch):
    record = _crafted_records(crossing_scenario)[1]
    bundle = record["bundle"]
    line = round_to_json(record)
    owners = (
        (bundle.responses[0], game._response_to_json),
        (bundle.transform, game.transform_to_json),
    )
    with monkeypatch.context() as patched:
        patched.setattr(json, "dumps", None)  # the texts are read, not encoded again
        assert all(board._json_text(v, to_json) in line for v, to_json in owners)
    refs = [weakref.ref(v) for v, _ in owners]
    del record, bundle, owners
    gc.collect()
    assert all(ref() is None for ref in refs)
    # a board takes no weak reference, so look for it among the live objects;
    # its identity transform holds a text
    assert not [o for o in gc.get_objects() if isinstance(o, Board) and 'a"b' in o]


def test_a_bundle_owns_no_text(crossing_scenario):
    # A bundle stores its verdict, in a slot that holds the state and the
    # move it judged, and no text: its line is built from the texts of its
    # fields, so a bundle built from it by dataclasses.replace has its own
    # line.
    record = _crafted_records(crossing_scenario)[0]
    bundle = record["bundle"]
    before = round_to_json(record)
    assert "_memo" not in vars(bundle)
    state = new_game(crossing_scenario)
    move = move_from_json(record["move"])
    verdict = validate_bundle(state, move, bundle)
    assert verdict  # quest 2 is not a quest of the state
    assert round_to_json(record) == before
    assert list(vars(bundle)["_memo"].values()) == [(verdict, (state, move))]
    responses = dict(bundle.responses)
    responses[4] = responses.pop(10)
    changed = dataclasses.replace(bundle, responses=responses, discards=())
    record = dict(record, bundle=changed)
    after = round_to_json(record)
    assert after != before and after == _dict_line(record)
    assert sorted(json.loads(after)["bundle"]["responses"]) == ["0", "2", "4"]
    assert "_memo" not in vars(changed)


def test_apply_round_and_replay_encode_nothing(monkeypatch):
    result = play_game(gen_scenario(9), Policy.parse("canonical"))
    assert result.won and result.rounds > 2

    def boom(*args, **kwargs):
        raise AssertionError("encoded during replay")

    for owner, name in (
        (game, "_json_text"),
        (game, "_bundle_text"),
        (game, "bundle_to_json"),
        (game, "transform_to_json"),
        (game, "scenario_to_json"),
        (board, "_json_text"),
        (board, "board_to_json"),
        (json, "dumps"),
    ):
        monkeypatch.setattr(owner, name, boom)
    st = replay_trace(result.trace)
    assert st.won and st.round_no == result.state.round_no
    for qid, q in st.quests.items():
        assert q.scenario == result.state.quests[qid].scenario
        assert q.status == result.state.quests[qid].status


# ---- memoized checks ----------------------------------------------------------------


def _raised(c, s):
    """An equal copy of c, except that ord(s) is one grid step higher."""
    ords = dict(c.ord)
    ords[s] = ords[s] + Fraction(1, c.B)
    return dataclasses.replace(c, ord=ords)


def _seed9_first_blowup():
    """Seed 9 opens with a blowup whose canonical root response has a finite
    order pinned by transform item 10."""
    st = new_game(gen_scenario(9))
    mv, _ = DidoStrategy().decide(st)
    assert mv.kind == "blowup"
    bundle = next(enumerate_blowup_bundles(st, mv, Policy()))
    return st, mv, bundle


def test_sieved_verdicts_never_pass_to_a_distinct_response():
    st, mv, bundle = _seed9_first_blowup()
    root = bundle.responses[0]
    assert validate_bundle(st, mv, bundle) == []  # the sieve's verdicts, reused
    s = min(x for x in root.S if is_finite(root.ord[x]))
    swapped = dataclasses.replace(bundle, responses={**bundle.responses, 0: _raised(root, s)})
    got = validate_bundle(st, mv, swapped)
    assert ("scenario-transform", 10) in {(v.rule, v.issue) for v in got}
    with pytest.raises(BundleError):
        apply_round(st, mv, swapped)
    assert validate_bundle(st, mv, bundle) == []


def test_call_verdicts_never_pass_to_a_distinct_child(crossing_scenario):
    st = new_game(crossing_scenario)
    mv = Move.call(0, QuestRelation.transversality({"h1", "h2"}))
    bundle = next(enumerate_call_bundles(st, mv, Policy()))
    assert validate_bundle(st, mv, bundle) == []
    swapped = dataclasses.replace(bundle, child=_raised(bundle.child, "s"))
    assert validate_bundle(st, mv, swapped) != []
    assert validate_bundle(st, mv, bundle) == []


def test_equal_but_distinct_response_is_checked_afresh(monkeypatch):
    st, _, bundle = _seed9_first_blowup()
    root, bt = st.root.scenario, bundle.transform
    new = bundle.responses[0]
    seen = []
    check = transform.validate_scenario
    monkeypatch.setattr(transform, "validate_scenario", lambda c: seen.append(c) or check(c))
    assert validate_blowup_transform(root, bt, new) == []
    assert seen == []  # the sieve already checked this very response
    twin = dataclasses.replace(new)
    assert twin == new and twin is not new
    assert validate_blowup_transform(root, bt, twin) == []
    assert len(seen) == 1 and seen[0] is twin
    assert validate_blowup_transform(root, bt, twin) == []
    assert len(seen) == 1
    # an equal but distinct old scenario is a different input as well
    assert validate_blowup_transform(dataclasses.replace(root), bt, twin) == []
    assert len(seen) == 2


def test_mutating_a_returned_verdict_changes_nothing():
    st, mv, bundle = _seed9_first_blowup()
    root = bundle.responses[0]
    s = min(x for x in root.S if is_finite(root.ord[x]))
    swapped = dataclasses.replace(bundle, responses={**bundle.responses, 0: _raised(root, s)})
    first = validate_bundle(st, mv, swapped)
    want = list(first)
    first.clear()
    assert validate_bundle(st, mv, swapped) == want
    ok = validate_bundle(st, mv, bundle)
    ok.append(want[0])
    assert validate_bundle(st, mv, bundle) == []


def test_a_bundle_refuses_changes():
    st, mv, bundle = _seed9_first_blowup()
    assert type(bundle.responses) is board.FrozenDict and type(bundle.discards) is frozenset
    for field in dataclasses.fields(bundle):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bundle, field.name, getattr(bundle, field.name))
    with pytest.raises(TypeError):
        bundle.responses[0] = st.root.scenario
    built = Bundle(transform=bundle.transform, responses=dict(bundle.responses), discards=[])
    assert built == bundle and type(built.responses) is board.FrozenDict
    assert type(built.discards) is frozenset


def _counting_checks(monkeypatch):
    """Count the calls of the umpire's per-quest checks."""
    calls = Counter()
    for name in ("_validate_blowup", "_validate_call"):
        check = getattr(game, name)

        def counted(*args, check=check, name=name):
            calls[name] += 1
            return check(*args)

        monkeypatch.setattr(game, name, counted)
    return calls


def test_apply_round_reads_the_verdict_the_sieve_stored(monkeypatch):
    # Once Mephisto's sieve has judged the chosen bundle, apply_round runs
    # no per-quest check: it reads the verdict. Seed 9 plays both kinds of
    # round under canonical, and the sieve meets the same move by value.
    state, strategy, kinds = new_game(gen_scenario(9)), DidoStrategy(), Counter()
    while True:
        move, strategy = strategy.decide(state)
        if move is None:
            break
        bundle = respond(state, move, Policy())
        with monkeypatch.context() as patched:
            for name in ("_validate_blowup", "_validate_call"):
                patched.setattr(game, name, functools.partial(pytest.fail, "checked again"))
            state, _ = apply_round(state, move, bundle)
        strategy = strategy.observe(state, move, bundle)
        kinds[move.kind] += 1
    assert state.won and kinds["blowup"] and kinds["call"]


def test_explore_applies_the_verdicts_its_streams_stored(monkeypatch):
    # explore hands both streams Dido's own move, so apply_round reads each
    # branch's verdict: with every per-quest check failing inside it, the
    # search gives the same report. Seed 6 branches on both kinds of round.
    scenario = gen_scenario(6)
    want = harness.explore(scenario)
    kinds = Counter()

    def reading(state, move, bundle):
        kinds[move.kind] += 1
        with monkeypatch.context() as patched:
            for name in ("_validate_blowup", "_validate_call"):
                patched.setattr(game, name, functools.partial(pytest.fail, "checked again"))
            return apply_round(state, move, bundle)

    monkeypatch.setattr(harness, "apply_round", reading)
    assert harness.explore(scenario) == want
    assert kinds["blowup"] and kinds["call"]


def test_a_verdict_has_one_slot_per_identity_of_state_and_move(monkeypatch):
    # The sieve judged the bundle against Dido's own move. An equal but
    # distinct move, or an equal but distinct state, is judged afresh; each
    # (state, move) pair keeps its own slot, and a repeat of any pair already
    # judged, the sieve's included, reads its verdict.
    st, mv, bundle = _seed9_first_blowup()
    calls = _counting_checks(monkeypatch)
    assert validate_bundle(st, mv, bundle) == []
    assert calls["_validate_blowup"] == 0  # the sieve's verdict
    equal_move = Move.blowup(mv.center)
    assert equal_move == mv and equal_move is not mv
    assert validate_bundle(st, equal_move, bundle) == []
    assert calls["_validate_blowup"] == 1
    twin = GameState(st.quests, st.round_no)
    assert twin == st and twin is not st
    assert validate_bundle(twin, mv, bundle) == []
    assert calls["_validate_blowup"] == 2
    other = Move.blowup(next(z for z in admissible_centers(st.root.scenario) if z != mv.center))
    assert validate_bundle(st, other, bundle) != []
    assert calls["_validate_blowup"] == 3
    pairs = [(st, mv), (st, equal_move), (twin, mv), (st, other)]
    held = [args for _, args in vars(bundle)["_memo"].values()]
    assert [tuple(map(id, h)) for h in held] == [tuple(map(id, p)) for p in pairs]
    for state, move in pairs:
        assert (validate_bundle(state, move, bundle) == []) == (move is not other)
    assert calls["_validate_blowup"] == 3


def test_replay_runs_the_umpire_in_full(monkeypatch):
    result = play_game(gen_scenario(9), Policy())
    calls = _counting_checks(monkeypatch)
    state = replay_trace(result.trace)
    assert state.won and state.round_no == result.rounds
    assert calls["_validate_blowup"] and calls["_validate_call"]
    assert calls["_validate_blowup"] + calls["_validate_call"] == result.rounds


def _watching(scenarios, transforms):
    """``apply_round`` that first records a weak reference to each scenario
    a round brings in and to a blowup round's transform."""

    def recording(state, move, bundle):
        scenarios.extend(weakref.ref(sc) for sc in bundle.responses.values())
        if bundle.child is not None:
            scenarios.append(weakref.ref(bundle.child))
        if bundle.transform.kind == "blowup":
            transforms.append(weakref.ref(bundle.transform))
        return apply_round(state, move, bundle)

    return recording


def test_memos_do_not_keep_earlier_rounds_alive(monkeypatch):
    # A slot holds its inputs, so no value may store one of an earlier round.
    # Once a game is played, or replayed, every scenario it brought in is dead
    # unless the final state holds it, and so is every blowup transform. Seed
    # 16 blows up at least three times under each policy.
    for policy in ("canonical", "random:1", "adversarial"):
        played, replayed = ([], []), ([], [])
        monkeypatch.setattr(harness, "apply_round", _watching(*played))
        result = play_game(gen_scenario(16), Policy.parse(policy))
        assert result.won and len(played[1]) > 2
        monkeypatch.setattr(game, "apply_round", _watching(*replayed))
        state = replay_trace(result.trace)
        assert state.won and len(replayed[1]) == len(played[1])
        gc.collect()
        for (scenarios, transforms), final in ((played, result.state), (replayed, state)):
            held = [q.scenario for q in final.quests.values()]
            alive = [sc for sc in (ref() for ref in scenarios) if sc is not None]
            assert all(any(sc is h for h in held) for sc in alive), policy
            assert len(alive) < len(scenarios)
            assert all(ref() is None for ref in transforms), policy


def test_finished_games_leave_no_board_alive():
    gc.collect()
    before = [o for o in gc.get_objects() if isinstance(o, Board)]
    known = {id(o) for o in before}
    for seed in range(50):
        assert play_game(gen_scenario(seed), Policy()).won
    gc.collect()
    left = [o for o in gc.get_objects() if isinstance(o, Board) and id(o) not in known]
    assert left == []


def _stored_scenarios(owner):
    """The scenarios ``owner``'s memo holds, as results or as the other
    inputs of a slot."""
    todo = list(getattr(owner, "_memo", {}).values())
    out = []
    while todo:
        value = todo.pop()
        if isinstance(value, Scenario):
            out.append(value)
        elif isinstance(value, (tuple, list)):
            todo.extend(value)
    return out


@pytest.mark.parametrize("play", ["canonical", "random:1", "adversarial", "explore"])
def test_no_scenario_stores_the_callers_scenario_or_itself(monkeypatch, play):
    # A memo slot lives as long as its owner. Nothing a game stores may sit
    # on the caller's scenario, which outlives the game, and a scenario
    # holding itself would be a cycle. Seed 0 calls transversality with an
    # empty jib set, whose child is its parent.
    played = []

    def recording(state, move, bundle):
        after, record = apply_round(state, move, bundle)
        played.extend(q.scenario for q in after.quests.values())
        return after, record

    monkeypatch.setattr(harness, "apply_round", recording)
    scenario = gen_scenario(0)
    if play == "explore":
        assert harness.explore(scenario).all_won
    else:
        assert play_game(scenario, Policy.parse(play)).won
    assert played
    assert _stored_scenarios(scenario) == []
    stored = [_stored_scenarios(c) for c in played]
    assert any(stored)  # call children sit on their parents
    assert not any(c is s for c, held in zip(played, stored) for s in held)


# ---- the quests a blowup closes ----------------------------------------------------


@pytest.fixture
def layered_game():
    """On the chain p < a < w, a quotient child (quest 1) keeps p but drops
    a, so a blowup at a, admissible for the main quest, closes it; quest 2 is
    a call on quest 1. The state, and the trace of its two rounds."""
    b = Board({"p": 0, "a": 1, "w": 2}, [("p", "a"), ("a", "w")])
    c = Scenario(
        board=b, d=2, B=1, H=(), S={"p", "a"}, T=b.ids, ord={"p": 2, "a": 1},
        M=[zero_factor(())],
    )
    st = new_game(c)
    lines = [round_to_json(trace_header(c, "canonical"))]
    for move in (
        Move.call(0, QuestRelation.quotient(zero_factor(()), 2)),
        Move.call(1, QuestRelation.transversality(())),
    ):
        st, record = apply_round(st, move, respond(st, move, Policy()))
        lines.append(round_to_json(record))
    assert st.quests[1].scenario.S == {"p"}
    return st, lines


@pytest.fixture
def layered_state(layered_game):
    return layered_game[0]


def _with_quests(state, *quests):
    """The state with ``quests`` stored under their ids."""
    return dataclasses.replace(state, quests={**state.quests, **{q.quest_id: q for q in quests}})


def test_blowup_discards_close_the_subtree_of_a_closed_quest(layered_state):
    st = layered_state
    c = st.root.scenario
    bt = blowup_transform(st.board, "a")
    # quest 2 survives the center on its own, but its parent does not
    st = _with_quests(st, dataclasses.replace(st.quests[2], scenario=c))
    alone = _with_quests(st, dataclasses.replace(st.quests[2], parent_id=0))
    assert 2 not in blowup_discards(alone, bt)
    # quest 4 would survive too, but its parent (quest 3) is no longer open
    st = _with_quests(
        st,
        Quest(3, 0, QuestRelation.transversality(()), c, status=WON),
        Quest(4, 3, QuestRelation.transversality(()), c),
    )
    assert blowup_discards(st, bt) == {1, 2, 4}


def test_a_state_keeps_its_quests_in_id_order(layered_state):
    # A blowup at a closes quest 1, and so quest 2, its child: the discards
    # must meet a parent before its children, and a state built from a dict
    # in reverse id order stores its quests in id order all the same.
    st = layered_state
    backwards = GameState(dict(reversed(st.quests.items())), st.round_no)
    assert list(backwards.quests) == list(st.quests) == [0, 1, 2]
    bt = blowup_transform(st.board, "a")
    assert game._blowup_discards(backwards, bt) == game._blowup_discards(st, bt) == {1, 2}
    strategy = DidoStrategy()
    assert harness._state_key(backwards, strategy) == harness._state_key(st, strategy)


@pytest.mark.parametrize("policy", ["canonical", "random:3", "adversarial"])
def test_respond_discards_what_the_umpire_closes(layered_game, policy):
    st, lines = layered_game
    move = Move.blowup("a")
    bundle = respond(st, move, Policy.parse(policy))
    assert bundle.discards == blowup_discards(st, bundle.transform) == {1, 2}
    assert validate_bundle(st, move, bundle) == []
    # the round closes both quests, and its trace replays
    played, record = apply_round(st, move, bundle)
    assert played.quests[1].status == played.quests[2].status == DISCARDED
    assert not played.strict and st.strict
    assert record["discarded"] == [1, 2]
    lines.append(round_to_json(record))
    assert replay_trace(lines) == played
    # a quest whose parent is closed is discarded, not answered
    st = _with_quests(
        st,
        dataclasses.replace(st.quests[1], status=WON),
        dataclasses.replace(st.quests[2], scenario=st.root.scenario),
    )
    bundle = respond(st, move, Policy.parse(policy))
    assert bundle.discards == blowup_discards(st, bundle.transform) == {2}
    assert set(bundle.responses) == {0}
    assert validate_bundle(st, move, bundle) == []


def test_a_round_replaces_only_the_quests_it_changes(layered_game):
    st, lines = layered_game
    move = Move.blowup("a")
    lines = lines + [round_to_json(apply_round(st, move, respond(st, move, Policy()))[1])]
    games = [lines, play_game(gen_scenario(11), Policy.parse("canonical")).trace]
    shared_closed = 0
    for trace in games:
        state = new_game(scenario_from_json(json.loads(trace[0])["header"]["scenario"]))
        for line in trace[1:]:
            record = json.loads(line)
            move = move_from_json(record["move"])
            bundle = bundle_from_json(record["bundle"], state.board)
            before = {qid: dict(vars(q)) for qid, q in state.quests.items()}
            quests = dict(state.quests)
            after, _ = apply_round(state, move, bundle)
            # the original state's quests are as they were
            assert {qid: dict(vars(q)) for qid, q in state.quests.items()} == before
            # a blowup replaces each quest it answers or discards; the next
            # state shares every other quest value
            changed = set(bundle.responses) | bundle.discards if move.kind == "blowup" else ()
            for qid, quest in quests.items():
                assert (after.quests[qid] is quest) == (qid not in changed), qid
                shared_closed += move.kind == "blowup" and quest.status != "open"
            state = after
    assert shared_closed
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.root.status = DISCARDED


def _quest_texts(state):
    """Each quest of ``state`` as a JSON text of every field."""
    return {
        qid: json.dumps(
            [
                q.parent_id,
                q.relation and relation_to_json(q.relation),
                scenario_to_json(q.scenario),
                q.status,
            ],
            sort_keys=True,
        )
        for qid, q in state.quests.items()
    }


def test_apply_round_leaves_the_state_it_is_given_as_it_was(layered_game):
    st, _ = layered_game
    move = Move.blowup("a")
    bundle = respond(st, move, Policy())
    before = _quest_texts(st)
    quests = st.quests
    after, _ = apply_round(st, move, bundle)
    assert _quest_texts(st) == before and st.quests is quests and after != st
    with pytest.raises(BundleError):
        apply_round(st, move, dataclasses.replace(bundle, discards=frozenset()))
    assert _quest_texts(st) == before and st.quests is quests
    for field in dataclasses.fields(st):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(st, field.name, getattr(st, field.name))
    with pytest.raises(TypeError):
        st.quests[0] = st.root


@pytest.mark.parametrize("play", ["canonical", "adversarial", "explore"])
def test_the_discards_are_worked_out_once_per_state_and_board(monkeypatch, play):
    # Mephisto asks for each blown-up board's discards, and the umpire asks
    # again for every candidate and for the chosen bundle; all of them read
    # the verdict stored on the board's transform for the state.
    work = game._blowup_discards
    computed, alive = Counter(), []

    def counting(state, bt):
        alive.append((state, bt))  # no id is reused while the test runs
        computed[id(state), id(bt)] += 1
        return work(state, bt)

    monkeypatch.setattr(game, "_blowup_discards", counting)
    scenario = gen_scenario(0)
    if play == "explore":
        assert harness.explore(scenario).all_won
    else:
        assert play_game(scenario, Policy.parse(play)).won
    assert computed and max(computed.values()) == 1
