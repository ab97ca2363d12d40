"""Dido's strategy: the monomial measure, its order, small games and a sweep."""

import copy
import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salmagundy import harness, mephisto
from salmagundy.dido import DidoStrategy, StrategyError, _plans_text, dms_less, measure_of
from salmagundy.game import CALL, apply_round, new_game, replay_trace, validate_bundle
from salmagundy.harness import gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import NoValidBundle, Policy, respond
from salmagundy.scenario import MonomialFactor, validate_scenario, zero_factor
from salmagundy.transform import transport_relation
from conftest import remake


# ---- the monomial measure -----------------------------------------------------


def test_measure_of_crossing(crossing_scenario):
    (m,) = crossing_scenario.M.generators
    assert measure_of(crossing_scenario, m) == (Fraction(13, 10),)


def test_measure_of_zero_factor_is_empty(crossing_scenario):
    assert measure_of(crossing_scenario, zero_factor(crossing_scenario.H)) == ()


def test_measure_takes_minimal_critical_sets(crossing_scenario):
    # each jib alone reaches mass 1 with s below it, so the singletons are
    # the minimal critical sets and the heavier pair does not count
    m = MonomialFactor.of({"h1": 1, "h2": 1})
    c = remake(crossing_scenario, ord={"s": 2}, M=[m])
    assert measure_of(c, m) == (Fraction(1), Fraction(1))


def test_measure_rejects_infinite_mass(crossing_scenario):
    from salmagundy.values import INF

    m = MonomialFactor.of({"h1": INF, "h2": 0})
    with pytest.raises(StrategyError):
        measure_of(crossing_scenario, m)


# ---- the multiset order --------------------------------------------------------


def test_dms_less_examples():
    one = Fraction(1)
    two = Fraction(2)
    assert dms_less((), (one,))
    assert dms_less((one, one), (two,))
    assert dms_less((one,), (two,))
    assert dms_less((Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), (one,))
    assert not dms_less((two,), (one, one))
    assert not dms_less((one,), (one,))
    assert not dms_less((), ())
    # dropping an element is allowed as long as every newcomer is covered
    assert dms_less((one, one), (two, Fraction(1, 2)))
    assert not dms_less((two, Fraction(1, 2)), (one, one))


def test_dms_less_is_a_strict_order():
    rng = random.Random(11)

    def sample():
        return tuple(
            sorted(
                (Fraction(rng.randint(0, 6), rng.randint(1, 4))
                 for _ in range(rng.randint(0, 4))),
                reverse=True,
            )
        )

    for _ in range(300):
        a, b, c = sample(), sample(), sample()
        assert not dms_less(a, a)
        if dms_less(a, b):
            assert not dms_less(b, a)
        if dms_less(a, b) and dms_less(b, c):
            assert dms_less(a, c)


# ---- two frozen games -----------------------------------------------------------


def test_chain_game_canonical(chain_scenario):
    r = play_game(chain_scenario, Policy.parse("canonical"))
    assert r.won
    assert r.rounds == 6
    assert r.blowups == 2
    assert r.singular_centers
    assert r.no_discards
    assert r.state.won


def test_crossing_game_canonical(crossing_scenario):
    r = play_game(crossing_scenario, Policy.parse("canonical"))
    assert r.won
    assert r.rounds == 2
    measures = [m for _, m in r.measure_log]
    assert measures == [(Fraction(13, 10),), (Fraction(1),)]


def _assert_won_with_falling_measure(scenario, policy):
    """The game is won, its trace replays to the same end and each line is
    its own sorted ``json.dumps``, and Dido's measure of each quest falls
    strictly under ``dms_less`` from one elementary step to the next."""
    r = play_game(scenario, Policy.parse(policy))
    assert r.won
    replayed = replay_trace(r.trace)
    assert (replayed.round_no, replayed.won) == (r.rounds, r.won)
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in r.trace)
    per_quest = {}
    for qid, m in r.measure_log:
        if qid in per_quest:
            assert dms_less(m, per_quest[qid]), (qid, m, per_quest[qid])
        per_quest[qid] = m


_RANDOM_POLICIES = st.integers(0, 10**6).map(lambda k: f"random:{k}")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6 - 1),
    policy=st.sampled_from(["canonical", "adversarial"]) | _RANDOM_POLICIES,
)
@example(seed=0, policy="canonical")
@example(seed=1, policy="canonical")
@example(seed=2, policy="canonical")
@example(seed=3, policy="canonical")
@example(seed=4, policy="canonical")
@example(seed=5, policy="canonical")
def test_monomial_measure_decreases_in_play(seed, policy):
    _assert_won_with_falling_measure(gen_monomial_scenario(seed), policy)


# Adversarial play is drawn on monomial scenarios only: gen_scenario seeds
# have a heavy tail under it (seed 327 takes minutes), so those seeds are
# played by name, in CI, rather than drawn.
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6 - 1), policy=st.just("canonical") | _RANDOM_POLICIES)
def test_generated_measure_decreases_in_play(seed, policy):
    _assert_won_with_falling_measure(gen_scenario(seed), policy)


# ---- the paper's claim over generated games ---------------------------------


@pytest.mark.parametrize("policy", ["canonical", "random:1"])
def test_dido_wins_every_generated_game_of_seeds_100_to_399(policy):
    from salmagundy.harness import gen_scenario

    lost = [
        seed
        for seed in range(100, 400)
        if not play_game(gen_scenario(seed), Policy.parse(policy)).won
    ]
    assert lost == []


# ---- copies --------------------------------------------------------------------


def test_a_copy_plans_apart_and_fills_its_own_slot():
    # explore copies the strategy between decide and observe; the copy
    # shares every plan, and a round stores new plans in the copy's dict only
    state, strategy = new_game(gen_scenario(16)), DidoStrategy()
    policy = Policy.parse("canonical")
    calls, kinds = 0, set()
    while (move := strategy.decide(state)) is not None:
        twin = copy.copy(strategy)
        assert twin.plans == strategy.plans and twin.plans is not strategy.plans
        assert all(twin.plans[qid] is plan for qid, plan in strategy.plans.items())
        assert twin._slot == strategy._slot
        assert twin.measure_log == strategy.measure_log
        assert twin.measure_log is not strategy.measure_log
        bundle = respond(state, move, policy)
        untouched = _plans_text(strategy.plans)
        branch, record = apply_round(state, move, bundle)
        twin.observe(branch, move, bundle, record)
        assert _plans_text(strategy.plans) == untouched
        if move.kind == CALL:  # only the plan that made the call changes
            changed = {qid for qid, plan in twin.plans.items() if plan is not strategy.plans[qid]}
            assert changed == {strategy._slot}
        state, record = apply_round(state, move, bundle)
        strategy.observe(state, move, bundle, record)
        assert _plans_text(twin.plans) == _plans_text(strategy.plans)
        calls += move.kind == CALL
        for plan in strategy.plans.values():
            kinds.add(type(plan).__name__)
            for f in dataclasses.fields(plan):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(plan, f.name, getattr(plan, f.name))
    assert state.won and calls
    assert kinds == {"_LoopPlan", "_DriverPlan"}


@pytest.mark.parametrize("seed", [0, 16])
def test_decide_twice_on_one_state_decides_alike(seed):
    # observe, not decide, records a call's new quest, so a second decide
    # finds the plans as the first left them
    state, strategy = new_game(gen_scenario(seed)), DidoStrategy()
    policy = Policy.parse("canonical")
    while (move := strategy.decide(state)) is not None:
        text, slot = _plans_text(strategy.plans), strategy._slot
        assert strategy.decide(state) == move
        assert (_plans_text(strategy.plans), strategy._slot) == (text, slot)
        bundle = respond(state, move, policy)
        state, record = apply_round(state, move, bundle)
        strategy.observe(state, move, bundle, record)
    assert state.won


# ---- a start that is not won ----------------------------------------------------------


def test_a_runaway_start_ends_at_the_round_cap():
    # gen_scenario(5) with ord(v1) = 2/3 < 1 passes the validator, and Dido
    # calls a quotient on the newest quest every round; a decide that
    # recursed along that chain raised RecursionError near round 500
    c = remake(gen_scenario(5), ord={"v1": Fraction(2, 3)})
    assert c.S == {"v1"} and validate_scenario(c) == []
    result = play_game(c, Policy.parse("canonical"), round_cap=600)
    assert not result.won and result.rounds == 600
    assert result.note == "round cap 600 reached"


def _answering_below_one(monkeypatch, round_no, node, value):
    """Make canonical Mephisto answer the blowup at ``round_no`` (rounds
    played before it) with ``node``'s order in the root response set to
    ``value``, every child built from that response as Mephisto builds
    them, and the bundle checked by the umpire before it is played."""
    answer = harness.respond

    def answering(state, move, policy):
        bundle = answer(state, move, policy)
        if state.round_no != round_no:
            return bundle
        assert move.kind == "blowup" and bundle.responses[0].ord[node] == 1
        root = bundle.responses[0]
        root = dataclasses.replace(root, ord={**root.ord, node: value})
        bt = bundle.transform
        relations = {
            q.quest_id: transport_relation(q.relation, bt)
            for q in sorted(state.open_quests(), key=lambda q: q.quest_id)
            if q.parent_id is not None and q.quest_id not in bundle.discards
        }
        below = mephisto._assemble_blowup(state, bt, root, Fraction(0), relations, {})
        assert validate_bundle(state, move, below) == []
        return below

    monkeypatch.setattr(harness, "respond", answering)


def test_a_mid_game_order_below_1_that_the_umpire_accepts_runs_to_the_round_cap(monkeypatch):
    # Canonical seed 6 answers its third blowup with ord(q5) = 1; at 2/3 the
    # umpire accepts the answer, and Dido then calls a quotient on the
    # newest quest every round. Whether orders below 1 are legal is open.
    _answering_below_one(monkeypatch, 10, "q5", Fraction(2, 3))
    result = play_game(gen_scenario(6), Policy.parse("canonical"), round_cap=300)
    assert not result.won and result.rounds == 300
    assert result.note == "round cap 300 reached"


def test_a_mid_game_order_below_1_leaves_a_quotient_call_without_an_answer(monkeypatch):
    # Canonical seed 14 answers its third blowup with ord(q3) = 1; at 11/12
    # the umpire accepts the answer, and Mephisto finds no valid bundle for
    # Dido's next move, a quotient call on quest 0. The rounds played
    # before it replay.
    _answering_below_one(monkeypatch, 16, "q3", Fraction(11, 12))
    trace = []
    with pytest.raises(NoValidBundle, match="no valid bundle for call on quest 0"):
        play_game(gen_scenario(14), Policy.parse("canonical"), trace=trace)
    record = json.loads(trace[-1])
    assert record["round"] == 17 and record["move"]["type"] == "blowup"
    assert replay_trace(trace).round_no == 17
