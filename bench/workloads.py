"""The benchmark's workloads: which scenarios each one generates and how one
game of it is played, timed and checked.

Every workload is a fixed list of ``gen_scenario`` seeds counted from a base
(default 0). A run's ``--seed`` only shuffles the order in which those games
are played, so every seed does the same work and the trace digests recorded
in ``expected.json`` hold for all of them. The program only ever receives
the generated ``Scenario`` objects.

Functions of the package are looked up through their module at call time
(``harness.play_game``), never imported by name, so that the tracer's
rebinding sees the benchmark's own calls as the root spans.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "play", "explore" or "replay"
    count: int  # games (or trees, or traces) counted from the base seed
    policy: Optional[str] = None

    def seeds(self, base: int) -> range:
        return range(base, base + self.count)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("play-canonical", "play", 1000, "canonical"),
        # Seed 92 alone takes about a minute under this policy; the range
        # stops before it only to bound the run length.
        Workload("play-adversarial", "play", 92, "adversarial"),
        Workload("explore", "explore", 12),
        # Replays the traces of the first 300 play-canonical games, recorded
        # during set-up.
        Workload("replay", "replay", 300, "canonical"),
    )
}


@dataclass
class Game:
    """What one game (tree, trace) leaves behind for the checks."""

    rounds: int  # apply_round calls; explorer branches
    ok: bool  # won (every tree leaf won; replay matched the recording)
    text: str  # the part of the digest this game contributes
    error: str = ""


def setup(w: Workload, base: int) -> list:
    """Generate the workload's inputs; for ``replay``, also record the traces."""
    from salmagundy import harness, mephisto

    scenarios = [harness.gen_scenario(s) for s in w.seeds(base)]
    if w.kind != "replay":
        return scenarios
    policy = mephisto.Policy.parse(w.policy)
    recorded = []
    for sc in scenarios:
        r = harness.play_game(sc, policy)
        recorded.append((r.trace, r.won, r.rounds))
    return recorded


def player(w: Workload) -> Callable[[object], Game]:
    """The function that plays one input of the workload."""
    from salmagundy import dido, game, harness, mephisto

    failures = (mephisto.NoValidBundle, dido.StrategyError, game.BundleError)

    if w.kind == "play":
        policy = mephisto.Policy.parse(w.policy)

        def play(sc) -> Game:
            try:
                r = harness.play_game(sc, policy)
            except failures as exc:
                return Game(0, False, "", f"{type(exc).__name__}: {exc}")
            return Game(r.rounds, r.won, "\n".join(r.trace) + "\n")

        return play

    if w.kind == "explore":

        def tree(sc) -> Game:
            try:
                rep = harness.explore(sc)
            except failures as exc:
                return Game(0, False, "", f"{type(exc).__name__}: {exc}")
            counts = [rep.branch_count, rep.leaf_count, rep.win_count, rep.max_depth]
            return Game(rep.branch_count, rep.all_won, json.dumps(counts) + "\n")

        return tree

    def replay(item) -> Game:
        lines, won, rounds = item
        try:
            state = game.replay_trace(lines)
        except (ValueError, *failures) as exc:  # BundleError is a ValueError
            return Game(0, False, "", f"{type(exc).__name__}: {exc}")
        ok = state.won == won and state.round_no == rounds
        return Game(state.round_no, ok, "\n".join(lines) + "\n")

    return replay


def play_all(run_one: Callable, inputs: list, seed: int, on_game=None):
    """Play every input once, in the order ``seed`` shuffles them to.

    Returns the per-game results and the ``perf_counter`` interval of each
    game, both indexed like ``inputs``.
    """
    order = list(range(len(inputs)))
    random.Random(seed).shuffle(order)
    games: List[Optional[Game]] = [None] * len(inputs)
    spans = [(0.0, 0.0)] * len(inputs)
    clock = time.perf_counter
    for i in order:
        if on_game is not None:
            on_game(i)
        t = clock()
        games[i] = run_one(inputs[i])
        spans[i] = (t, clock())
    return games, spans


def digest(games: List[Game]) -> str:
    """SHA-256 of the games' texts concatenated in seed order."""
    h = hashlib.sha256()
    for g in games:
        h.update(g.text.encode())
    return h.hexdigest()
