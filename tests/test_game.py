"""The umpire: bundle validation, round application, traces, replay."""

import copy
import dataclasses
import gc
import json
import pickle
import weakref
from fractions import Fraction

import pytest

from salmagundy import harness, transform
from salmagundy.board import Board, trivial_refinement
from salmagundy.game import (
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
    blowup_transform,
    enumerate_blowup_bundles,
    enumerate_call_bundles,
    respond,
)
from salmagundy.quests import transversality_response
from salmagundy.scenario import Scenario, validate_scenario, zero_factor
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

    done = Scenario.make(
        crossing_scenario.board, 2, 10, crossing_scenario.H, [],
        crossing_scenario.T, {}, crossing_scenario.M,
    )
    st = new_game(done)
    assert st.won


# ---- call rounds ---------------------------------------------------------------


def test_apply_call_round(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1", "h2"})
    mv = Move.call(0, rel)
    bundle = respond(st, mv, Policy.parse("canonical"))
    record = apply_round(st, mv, bundle)
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
    record = apply_round(st, mv, bundle)
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


def test_validate_false_skips_the_umpire(chain_scenario):
    st = new_game(chain_scenario)
    mv = Move.blowup("p")
    bundle = respond(st, mv, Policy.parse("canonical"))
    bad = Bundle(
        transform=bundle.transform,
        responses=dict(bundle.responses),
        child=chain_scenario,
    )
    record = apply_round(st, mv, bad, validate=False)
    assert record["round"] == 1  # applied without complaint


def test_quest_wins_when_singularities_vanish(crossing_scenario):
    st = new_game(crossing_scenario)
    rel = QuestRelation.transversality({"h1"})
    mv = Move.call(0, rel)
    bundle = respond(st, mv, Policy.parse("canonical"))
    record = apply_round(st, mv, bundle)
    # the response restricted S to nodes under h1 only: s survives, so the
    # child stays open; a full flattening closes it instead
    rel2 = QuestRelation.quotient(zero_factor(crossing_scenario.H), Fraction(2))
    mv2 = Move.call(0, rel2)
    bundle2 = respond(st, mv2, Policy.parse("canonical"))
    record2 = apply_round(st, mv2, bundle2)
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


def test_replay_rejects_empty_trace():
    with pytest.raises(ValueError):
        replay_trace([])


def test_trace_header_contents(chain_scenario):
    line = round_to_json(trace_header(chain_scenario, "random", 5))
    data = json.loads(line)
    assert data["header"]["policy"] == "random"
    assert data["header"]["seed"] == 5
    assert data["header"]["scenario"]["d"] == chain_scenario.d


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
    mv = DidoStrategy().decide(st)
    assert mv.kind == "blowup"
    bundle = next(enumerate_blowup_bundles(st, mv.center, Policy()))
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


def test_memos_do_not_keep_earlier_rounds_alive(monkeypatch):
    first_round = []

    def respond_and_watch(state, move, policy):
        bundle = respond(state, move, policy)
        if state.round_no == 0:
            first_round.extend(weakref.ref(sc) for sc in bundle.responses.values())
        return bundle

    monkeypatch.setattr(harness, "respond", respond_and_watch)
    result = play_game(gen_scenario(9), Policy())
    assert result.won and result.rounds > 2 and first_round
    gc.collect()
    assert all(ref() is None for ref in first_round)
    assert result.state.root.scenario is not None


# ---- the quests a blowup closes ----------------------------------------------------


@pytest.fixture
def layered_state():
    """On the chain p < a < w, a quotient child (quest 1) keeps p but drops
    a, so a blowup at a, admissible for the main quest, closes it; quest 2 is
    a call on quest 1."""
    b = Board({"p": 0, "a": 1, "w": 2}, [("p", "a"), ("a", "w")])
    c = Scenario.make(
        board=b, d=2, B=1, H=(), S={"p", "a"}, T=b.ids, ord={"p": 2, "a": 1},
        M=[zero_factor(())],
    )
    st = new_game(c)
    for move in (
        Move.call(0, QuestRelation.quotient(zero_factor(()), 2)),
        Move.call(1, QuestRelation.transversality(())),
    ):
        apply_round(st, move, respond(st, move, Policy()))
    assert st.quests[1].scenario.S == {"p"}
    return st


def test_blowup_discards_close_the_subtree_of_a_closed_quest(layered_state):
    st = layered_state
    c = st.root.scenario
    bt = blowup_transform(st.board, "a")
    # quest 2 survives the center on its own, but its parent does not
    st.quests[2].scenario = c
    assert transform.child_survives(st.quests[2].relation, st.quests[1].scenario, c, bt)
    # quest 4 would survive too, but its parent (quest 3) is no longer open
    st.quests[3] = Quest(3, 0, QuestRelation.transversality(()), c, status=WON)
    st.quests[4] = Quest(4, 3, QuestRelation.transversality(()), c)
    assert blowup_discards(st, bt) == {1, 2, 4}


@pytest.mark.parametrize("policy", ["canonical", "random:3", "adversarial"])
def test_respond_discards_what_the_umpire_closes(layered_state, policy):
    st = layered_state
    move = Move.blowup("a")
    bundle = respond(st, move, Policy.parse(policy))
    assert bundle.discards == blowup_discards(st, bundle.transform) == {1, 2}
    assert validate_bundle(st, move, bundle) == []
    # a quest whose parent is closed is discarded, not answered
    st.quests[1].status = WON
    st.quests[2].scenario = st.root.scenario
    bundle = respond(st, move, Policy.parse(policy))
    assert bundle.discards == blowup_discards(st, bundle.transform) == {2}
    assert set(bundle.responses) == {0}
    assert validate_bundle(st, move, bundle) == []


# ---- copies and pickles ------------------------------------------------------------


def test_played_state_survives_a_pickle_round_trip():
    start = gen_scenario(3)  # its orders hold INF
    state = play_game(start, Policy.parse("canonical")).state
    assert state.round_no > 0 and hasattr(start, "_memo")
    loaded, loaded_start = pickle.loads(pickle.dumps((state, start)))
    assert loaded == state and loaded_start == start
    assert copy.deepcopy(state) == state and copy.deepcopy(start) == start
    for sc in [loaded_start] + [q.scenario for q in loaded.quests.values()]:
        assert not hasattr(sc, "_memo")
        assert validate_scenario(sc) == []
    assert INF in loaded_start.ord.values()
    assert all(v is INF for v in loaded_start.ord.values() if not is_finite(v))
