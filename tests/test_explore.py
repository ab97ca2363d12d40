"""The explorer's transposition table and the assumption its key rests on.

``harness.explore`` answers a state it has already expanded from its table.
The reports must not depend on whether the table is used, and the key may
leave out closed quests' scenarios only while no later round reads them.
"""

import dataclasses

import pytest

from salmagundy import harness, mephisto
from salmagundy.game import OPEN
from salmagundy.harness import explore, gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import Policy

# (seed, depth_cap, _CANDIDATE_CAP); None keeps the default
EXPLORES = (
    [(seed, 50, None) for seed in (*range(6), *range(7, 14), 16, 19)]
    # both table hits and lost leaves
    + [(16, 15, None), (19, 18, None)]
    # capped enumerations: truncation reasons under the table
    + [(4, 50, 5), (16, 50, 5)]
)


def _explore(monkeypatch, seed, depth_cap, cap):
    if cap is not None:
        monkeypatch.setattr(mephisto, "_CANDIDATE_CAP", cap)
    return explore(gen_scenario(seed), depth_cap=depth_cap)


@pytest.mark.parametrize("seed, depth_cap, cap", EXPLORES)
def test_the_table_changes_no_report(monkeypatch, seed, depth_cap, cap):
    on = _explore(monkeypatch, seed, depth_cap, cap)
    # a fresh object never equals a stored key, so nothing is answered
    monkeypatch.setattr(harness, "_state_key", lambda state, strategy: object())
    off = _explore(monkeypatch, seed, depth_cap, cap)
    assert off.states == off.branch_count + 1
    assert dataclasses.replace(on, states=off.states) == off
    hits = on.states < on.branch_count + 1
    assert hits == (seed in (16, 19))
    if depth_cap < 50:
        assert on.counterexample and not on.all_won
    if cap is not None:
        assert on.truncated


def _forget_closed_scenarios(monkeypatch):
    """After every round, drop the scenario of every closed quest but the
    main one, whose scenario holds the state's board: ``observe``, every
    decision and every later round see the state without them."""
    apply = harness.apply_round

    def forgetting(state, move, bundle):
        after, record = apply(state, move, bundle)
        quests = {
            qid: quest if quest.status == OPEN or qid == 0
            else dataclasses.replace(quest, scenario=None)
            for qid, quest in after.quests.items()
        }
        return dataclasses.replace(after, quests=quests), record

    monkeypatch.setattr(harness, "apply_round", forgetting)


def test_no_round_reads_a_closed_quests_scenario(monkeypatch):
    # The table's key leaves these scenarios out; the day some code reads
    # one, games and reports change here and the key is unsound.
    games = [
        (scenario, Policy.parse(text))
        for text in ("canonical", "random:1", "adversarial")
        for scenario in [gen_scenario(s) for s in range(12)]
        + [gen_monomial_scenario(s) for s in range(8)]
    ]
    trees = [(seed, 50) for seed in range(6)] + [(16, 15), (19, 50)]

    def run():
        played = [play_game(scenario, policy) for scenario, policy in games]
        reports = [explore(gen_scenario(seed), depth_cap=cap) for seed, cap in trees]
        return [(r.trace, r.won, r.measure_log) for r in played], reports, played

    *before, _ = run()
    _forget_closed_scenarios(monkeypatch)
    *after, played = run()
    assert after == before
    closed = [
        q for r in played for q in r.state.quests.values() if q.status != OPEN and q.quest_id
    ]
    assert closed and all(q.scenario is None for q in closed)
