"""Tests of the benchmark's tracer and checks on tiny workloads (seeds 0-4).

    python3 -m pytest bench
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

from run import check  # noqa: E402
from tracer import LAYERS, METHODS, PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, play_all, player, setup  # noqa: E402

TINY = {name: replace(w, count=5) for name, w in WORKLOADS.items()}
COUNTS = (".calls", "bundles_valid", "repeat_frac", ".bytes")


def run_tiny(name: str, traced: bool, seed: int = 0):
    w = TINY[name]
    inputs = setup(w, 0)
    run_one = player(w)
    if not traced:
        games, _ = play_all(run_one, inputs, seed)
        return games, None
    tracer = Tracer()

    def on_game(i: int) -> None:
        tracer.game = i

    with tracer:
        games, spans = play_all(run_one, inputs, seed, on_game)
    wall = max(b for _, b in spans) - min(a for a, _ in spans)
    assert tracer.root_seconds() <= wall
    return games, tracer


def bindings() -> dict:
    """Every attribute the tracer may rebind, by identity."""
    out = {}
    for m in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{m}")
        out.update({(m, k): v for k, v in vars(mod).items() if inspect.isfunction(v)})
    for m, cls, meth, _ in METHODS:
        klass = getattr(importlib.import_module(f"{PACKAGE}.{m}"), cls)
        out[(m, cls, meth)] = vars(klass)[meth]
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_span_times_are_consistent(name):
    games, tracer = run_tiny(name, traced=True)
    stats = tracer.stats()
    for key, total in stats.items():
        if key.endswith(".total_s"):
            assert stats[key[: -len("total_s")] + "self_s"] <= total, key
    assert tracer.root_seconds() > 0  # and below the timed region: see run_tiny
    assert all(g.ok for g in games)
    # the umpire checks every applied round exactly once
    assert stats["game.validate_bundle.umpire.calls"] == sum(g.rounds for g in games)


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_does_not_change_the_games(name):
    plain, _ = run_tiny(name, traced=False)
    traced, _ = run_tiny(name, traced=True)
    assert digest(traced) == digest(plain)
    assert [g.rounds for g in traced] == [g.rounds for g in plain]


def test_counts_repeat_exactly_whatever_the_order():
    _, first = run_tiny("play-adversarial", traced=True, seed=0)
    _, second = run_tiny("play-adversarial", traced=True, seed=7)
    a, b = first.stats(), second.stats()
    counts = {k: v for k, v in a.items() if k.endswith(COUNTS) or ".reject." in k}
    assert counts["mephisto.bundles_valid"] > 0
    assert counts == {k: b[k] for k in counts}


def test_rebindings_are_restored_after_an_exception():
    before = bindings()
    with pytest.raises(KeyError):
        with Tracer():
            assert bindings() != before
            raise KeyError("boom")
    assert bindings() == before


def test_generator_resumptions_nest_under_their_consumer():
    _, tracer = run_tiny("play-canonical", traced=True)
    names = tracer.site_names
    resumptions = [
        i for i in range(tracer.span_count)
        if names[tracer.span_site[i]] == "mephisto.enumerate_blowup_bundles.respond"
    ]
    assert resumptions
    for i in resumptions:
        assert names[tracer.span_site[tracer.span_parent[i]]] == "mephisto.respond_blowup"


def test_check_flags_changed_digests_and_failures():
    expected = {"base": 0, "workloads": {"replay": {"games": 2, "rounds": 5, "digest": "d1"}}}
    good = {"games": 2, "rounds": 5, "digest": "d1", "failed": 0, "errors": []}
    assert check("replay", 0, [good, dict(good)], expected) == []
    assert check("replay", 0, [dict(good, digest="d2")], expected)
    assert check("replay", 0, [good, dict(good, digest="d2")], expected)
    assert check("replay", 0, [dict(good, failed=1)], expected)
    # nothing is recorded for another base, but passes must still agree
    assert check("replay", 7, [dict(good, digest="d2")], expected) == []
    assert check("replay", 7, [good, dict(good, rounds=6)], expected)
