"""Byte-identity pins: refactors must not change a single trace byte.

The first digest covers the NDJSON traces of a fixed set of games under all
three policies plus the explorer's tree counts. The second covers games the
first misses: monomial scenarios, which take every order of a blowup
response from ``transform.complete_orders``, and more ``random:1`` games,
which use every bump level. A third covers the scenarios ``gen_scenario``
draws when it is given a board, d, B and a jib count, as
``salmagundy gen scenario --board --d --B --jib-count`` gives them. A change
that alters any digest changes behaviour, and must say why and re-pin it.
"""

import hashlib
import json

from salmagundy.harness import (
    explore,
    gen_board,
    gen_monomial_scenario,
    gen_scenario,
    play_game,
)
from salmagundy.mephisto import Policy
from salmagundy.scenario import scenario_to_json

PINNED = "dd8db96718aeeccf38f2bde2660de8edb6de26f0a45459579452ff33984472f1"
PINNED_WIDE = "4eb1d9c29f0e813cfdab233147023d49c16888f8d70ef3a7dba9b295be3e2060"
PINNED_GEN = "3a637d40dbcff8f873cdca5f7d001a826a86751b4ea05d661544dd5f3326797f"


def test_traces_are_byte_identical():
    h = hashlib.sha256()
    for text, count in (("canonical", 40), ("random:1", 40), ("adversarial", 20)):
        policy = Policy.parse(text)
        for seed in range(count):
            trace = play_game(gen_scenario(seed), policy).trace
            h.update(("\n".join(trace) + "\n").encode())
    for seed in range(6):
        r = explore(gen_scenario(seed))
        counts = (r.all_won, r.branch_count, r.leaf_count, r.win_count, r.max_depth)
        h.update(repr(counts).encode())
    assert h.hexdigest() == PINNED


def test_monomial_and_wider_random_traces_are_byte_identical():
    h = hashlib.sha256()
    for text in ("canonical", "random:1", "adversarial"):
        policy = Policy.parse(text)
        for seed in range(30):
            trace = play_game(gen_monomial_scenario(seed), policy).trace
            h.update(("\n".join(trace) + "\n").encode())
    policy = Policy.parse("random:1")
    for seed in range(40, 400):
        trace = play_game(gen_scenario(seed), policy).trace
        h.update(("\n".join(trace) + "\n").encode())
    assert h.hexdigest() == PINNED_WIDE


def test_scenarios_generated_from_explicit_arguments_are_byte_identical():
    h = hashlib.sha256()
    count = 0
    for seed in range(60):
        board = gen_board(seed, max_nodes=12)
        jibs = sum(1 for x in board.ids if board.dim(x) == board.n - 1)
        for d in range(board.n + 1):
            for B in (1, 2, 5, 12):
                for jib_count in (None, *range(jibs + 1)):
                    c = gen_scenario(seed, board=board, d=d, B=B, jib_count=jib_count)
                    h.update(json.dumps(scenario_to_json(c), sort_keys=True).encode() + b"\n")
                    count += 1
    assert count > 3000
    assert h.hexdigest() == PINNED_GEN
