"""Byte-identity pin: refactors must not change a single trace byte.

The digest covers the NDJSON traces of a fixed set of games under all three
policies plus the explorer's tree counts. A change that alters it changes
behaviour, and must say why and re-pin the digest.
"""

import hashlib

from salmagundy.harness import explore, gen_scenario, play_game
from salmagundy.mephisto import Policy

PINNED = "dd8db96718aeeccf38f2bde2660de8edb6de26f0a45459579452ff33984472f1"


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
