"""Dido's strategy: the monomial measure, its order, small games and a sweep."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salmagundy import harness, mephisto
from salmagundy.board import Board, FrozenDict
from salmagundy.dido import DidoStrategy, StrategyError, dms_less, measure_of
from salmagundy.game import CALL, BundleError, apply_round, new_game, replay_trace
from salmagundy.harness import gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import Policy, respond
from salmagundy.scenario import MonomialFactor, Scenario, validate_scenario, zero_factor
from salmagundy.transform import transport_relation
from salmagundy.values import INF
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
    m = MonomialFactor({"h1": 1, "h2": 1})
    c = remake(crossing_scenario, ord={"s": 2}, M=[m])
    assert measure_of(c, m) == (Fraction(1), Fraction(1))


def test_measure_rejects_infinite_mass(crossing_scenario):
    from salmagundy.values import INF

    m = MonomialFactor({"h1": INF, "h2": 0})
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


# ---- the strategy as a value ------------------------------------------------------


def test_the_next_strategy_shares_every_plan_it_does_not_change():
    # decide and observe return the next strategy and leave their own as it
    # was, so explore hands every branch the strategy that decided the move
    state, strategy = new_game(gen_scenario(16)), DidoStrategy()
    policy = Policy.parse("canonical")
    calls, kinds = 0, set()
    while True:
        log = strategy.measure_log
        twin = DidoStrategy(FrozenDict(strategy.plans), log)
        move, decided = strategy.decide(state)
        assert strategy == twin
        assert strategy.measure_log is log
        if move is None:
            break
        # decide adds plans, and changes none but the one that blows up
        assert decided.plans.keys() >= strategy.plans.keys()
        for qid, plan in strategy.plans.items():
            if decided.plans[qid] is not plan:
                assert move.kind != CALL and decided.plans[qid].pending[0] == move.center
        bundle = respond(state, move, policy)
        state, _ = apply_round(state, move, bundle)
        plans = dict(decided.plans)
        observed = decided.observe(state, move, bundle)
        assert decided.plans == plans
        assert observed.measure_log is decided.measure_log
        changed = {qid for qid, plan in observed.plans.items() if plan is not decided.plans[qid]}
        if move.kind == CALL:  # only the plan that made the call changes, and records the quest
            new = state.next_quest_id - 1
            assert changed == {
                qid for qid, plan in observed.plans.items()
                if new in getattr(plan, "made", ()) or getattr(plan, "child_id", None) == new
            }
            assert len(changed) == 1
            calls += 1
        else:  # a driver plan holds no node, so a blowup leaves it as it was
            assert all(type(observed.plans[qid]).__name__ == "_LoopPlan" for qid in changed)
        strategy = observed
        with pytest.raises(dataclasses.FrozenInstanceError):
            strategy.plans = {}
        with pytest.raises(TypeError):
            strategy.plans[-1] = None
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
    while True:
        move, decided = strategy.decide(state)
        again = strategy.decide(state)
        assert again == (move, decided)
        if move is None:
            break
        bundle = respond(state, move, policy)
        state, _ = apply_round(state, move, bundle)
        strategy = decided.observe(state, move, bundle)
    assert state.won


# ---- issue 8 with a positive separating mass ----------------------------------------


def _separated_start(B=2, ord_s=Fraction(3, 2), weight=Fraction(1, 2)):
    """A start in which issue 8 reads a positive mass: S holds s < t, and
    the jib h lies above s but not above t; with ord(s) = 1 it breaks issue
    8 (1 - 1/2 < 1)."""
    board = Board(
        {"s": 0, "t": 1, "h": 2, "w": 3}, [("s", "h"), ("s", "t"), ("t", "w"), ("h", "w")]
    )
    return Scenario(
        board, d=2, B=B, H={"h"}, S={"s", "t"}, T=board.ids,
        ord={"s": ord_s, "t": 1}, M=[MonomialFactor({"h": weight})],
    )


def _positive_separations(c):
    """Issue 8, stated here: for every generator g and singular s < t,
    ord(s) >= ord(t) + the sum of g's weights at the jibs above s but not
    above t, INF absorbing. Returns how many of those masses are positive
    and finite."""
    positive = 0
    for s in c.S:
        for t in (c.board.up_set(s) & c.S) - {s}:
            for g in c.M.generators:
                between = c.board.up_set(s) - c.board.up_set(t)
                weights = [w for h, w in g.items() if h in between]
                mass = INF if INF in weights else sum(weights, Fraction(0))
                if mass is INF or c.ord[t] is INF:
                    assert c.ord[s] is INF, (s, t)
                else:
                    assert c.ord[s] >= c.ord[t] + mass, (s, t)
                positive += mass is not INF and mass > 0
    return positive


def test_a_rejected_order_shows_the_start_meets_issue_8():
    assert validate_scenario(_separated_start()) == []
    [v] = validate_scenario(_separated_start(ord_s=1))
    detail = "residual order increases from s to t: 1 - 1/2 < 1"
    assert (v.issue, v.witness, v.detail) == (8, ("s", "t"), detail)


@pytest.mark.parametrize(
    "B, ord_s, weight",
    [(2, Fraction(3, 2), Fraction(1, 2)), (2, Fraction(5, 2), Fraction(1, 2)),
     (3, Fraction(5, 3), Fraction(2, 3)), (4, Fraction(5, 4), Fraction(1, 4)),
     (4, Fraction(7, 4), Fraction(3, 4))],
)
@pytest.mark.parametrize("policy", ["canonical", "random:1", "adversarial"])
def test_games_that_meet_issue_8_with_a_positive_mass_are_won(B, ord_s, weight, policy):
    start = _separated_start(B, ord_s, weight)
    assert validate_scenario(start) == []
    state, strategy, policy = new_game(start), DidoStrategy(), Policy.parse(policy)
    met = {}  # every scenario of every state with a positive separating mass
    while True:
        for quest in state.quests.values():
            if _positive_separations(quest.scenario):
                met[quest.scenario] = quest.quest_id
        move, strategy = strategy.decide(state)
        if move is None:
            break
        bundle = respond(state, move, policy)
        state, _ = apply_round(state, move, bundle)
        strategy = strategy.observe(state, move, bundle)
    assert state.won and start in met
    played = play_game(start, policy)
    assert played.won and played.rounds == state.round_no
    assert replay_trace(played.trace).won
    if (B, ord_s, policy.kind) == (2, Fraction(3, 2), "canonical"):
        assert len(met) > 1  # a blowup response holds a positive mass too


# ---- a start that is not won ----------------------------------------------------------


def test_a_runaway_start_ends_at_the_round_cap():
    # gen_scenario(5) with ord(v1) = 2/3 < 1 once passed the validator, and
    # Dido called a quotient on the newest quest every round until the cap.
    # An order below 1 is now scenario issue 4, so that start is refused.
    c = remake(gen_scenario(5), ord={"v1": Fraction(2, 3)})
    assert [(v.rule, v.issue, v.witness) for v in validate_scenario(c)] == [
        ("scenario", 4, ("v1",))
    ]
    with pytest.raises(ValueError, match="issue 4"):
        new_game(c)
    # the round cap still ends a game that is not yet won: seed 6 takes 21 rounds
    result = play_game(gen_scenario(6), Policy(), round_cap=5)
    assert not result.won and result.rounds == 5
    assert result.note == "round cap 5 reached"


def _answering_below_one(monkeypatch, round_no, node, value):
    """Make canonical Mephisto answer the blowup at ``round_no`` (rounds
    played before it) with ``node``'s order in the root response set to
    ``value``, every child built from that response as Mephisto builds
    them."""
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
        return mephisto._assemble_blowup(state, bt, root, Fraction(0), relations, {})

    monkeypatch.setattr(harness, "respond", answering)


def _rejected_below_one(monkeypatch, seed, round_no, node, value):
    """The violations the umpire names when canonical seed ``seed`` is
    answered as ``_answering_below_one`` makes it; the rounds played before
    the answer replay."""
    _answering_below_one(monkeypatch, round_no, node, value)
    trace = []
    with pytest.raises(BundleError) as info:
        play_game(gen_scenario(seed), Policy.parse("canonical"), trace=trace)
    assert replay_trace(trace).round_no == round_no
    return [(v.rule, v.issue, v.witness) for v in info.value.violations]


def test_a_mid_game_order_below_1_is_rejected_as_issue_4_at_seed_6(monkeypatch):
    # Canonical seed 6 answers its third blowup with ord(q5) = 1. At 2/3 the
    # umpire once accepted the answer, and Dido then called a quotient on
    # the newest quest every round until the round cap.
    got = _rejected_below_one(monkeypatch, 6, 10, "q5", Fraction(2, 3))
    assert got == [("scenario", 4, ("q5",))]


def test_a_mid_game_order_below_1_is_rejected_as_issue_4_at_seed_14(monkeypatch):
    # Canonical seed 14 answers its third blowup with ord(q3) = 1. At 11/12
    # the umpire once accepted the answer, and Mephisto then found no valid
    # bundle for Dido's next move, a quotient call on quest 0.
    got = _rejected_below_one(monkeypatch, 14, 16, "q3", Fraction(11, 12))
    assert got == [("scenario", 4, ("q3",))]
