"""Generators, the game loop, the bounded explorer, and a DOT exporter."""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .board import Board, NodeId
from .dido import DidoStrategy
from .game import (
    BLOWUP_MOVE,
    CALL,
    GameState,
    apply_round,
    new_game,
    round_to_json,
    trace_header,
)
from .mephisto import (
    EXPLORE,
    NoValidBundle,
    Policy,
    enumerate_blowup_bundles,
    enumerate_call_bundles,
    respond,
)
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    complete_factor,
    validate_scenario,
    zero_factor,
)
from .values import INF, format_value, is_finite

__all__ = [
    "gen_board",
    "gen_scenario",
    "gen_monomial_scenario",
    "GameResult",
    "play_game",
    "ExploreReport",
    "explore",
    "scenario_to_dot",
]


# ---- generators ---------------------------------------------------------------


def gen_board(seed: int, max_nodes: int = 8, n: Optional[int] = None) -> Board:
    """A random valid board, deterministic in the seed."""
    if max_nodes < 1:
        raise ValueError("max_nodes must be at least 1")
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(1, 3)
    if max_nodes == 1:
        return Board({"w": n}, [])
    count = rng.randint(2, max_nodes)
    dims: Dict[NodeId, int] = {"w": n}
    for k in range(count - 1):
        dims[f"v{k}"] = rng.randint(0, n - 1)
    covers = []
    for s in sorted(dims):
        if s == "w":
            continue
        uppers = [t for t in sorted(dims) if dims[t] > dims[s]]  # "w" is always here
        for t in rng.sample(uppers, k=min(len(uppers), rng.randint(1, 2))):
            covers.append((s, t))
    return Board(dims, covers)


def _hereditary_candidates(board: Board, d: int, H: frozenset) -> List[NodeId]:
    """Nodes usable in S: every node below them (themselves included) is at
    dimension <= d with slack d - dim covering its count of jibs above."""

    def base_ok(s: NodeId) -> bool:
        if board.dim(s) > d:
            return False
        if s == board.top:
            return False
        ju = sum(1 for h in H if board.leq(s, h))
        return d - board.dim(s) >= ju

    return [
        s
        for s in sorted(board.ids)
        if all(base_ok(t) for t in board.down_set(s))
    ]


def gen_scenario(
    seed: int,
    board: Optional[Board] = None,
    d: Optional[int] = None,
    B: Optional[int] = None,
    jib_count: Optional[int] = None,
) -> Scenario:
    """A random valid scenario with M = <0>, deterministic in the seed."""
    rng = random.Random(seed)
    if board is None:
        board = gen_board(rng.randrange(1 << 30))
    n = board.n
    if d is None:
        d = rng.randint(0, min(n, 2))
    if d > n:
        raise ValueError(f"d={d} exceeds the board dimension {n}")
    if B is None:
        B = rng.choice([1, 2, 3, 4, 6, 12])
    jib_pool = sorted(s for s in board.ids if board.dim(s) == n - 1)
    if jib_count is None:
        jib_count = rng.randint(0, min(len(jib_pool), 3))
    if jib_count > len(jib_pool):
        raise ValueError(
            f"jib_count={jib_count} exceeds the {len(jib_pool)} dim-(n-1) nodes"
        )
    last_error: Optional[str] = None
    for _ in range(20):
        H = frozenset(rng.sample(jib_pool, k=jib_count))
        good = _hereditary_candidates(board, d, H)
        seeds = [s for s in good if rng.random() < 0.6]
        if not seeds and good:
            seeds = [rng.choice(good)]
        S = set()
        for s in seeds:
            S |= board.down_set(s)
        ords: Dict[NodeId, object] = {}
        for s in sorted(S, key=lambda x: (-board.dim(x), x)):
            if board.dim(s) == d:
                ords[s] = INF
                continue
            v = Fraction(1) + Fraction(rng.randint(0, 2 * B), B)
            for t in S:
                if t != s and board.leq(s, t):
                    vt = ords[t]
                    if not is_finite(vt):
                        v = INF
                        break
                    if vt > v:
                        v = vt
            ords[s] = v
        c = Scenario.make(
            board=board, d=d, B=B, H=H, S=frozenset(S),
            T=frozenset(board.ids), ord=ords,
            M=FactorSet.of([zero_factor(H)]),
        )
        vs = validate_scenario(c)
        if not vs:
            return c
        last_error = "; ".join(map(str, vs))
    raise RuntimeError(f"scenario repair failed after 20 attempts: {last_error}")


_CLUSTER_WEIGHTS = {
    1: [Fraction(1), Fraction(13, 12), Fraction(7, 6), Fraction(3, 2)],
    2: [Fraction(1, 2), Fraction(7, 12), Fraction(2, 3), Fraction(3, 4)],
    3: [Fraction(1, 3), Fraction(5, 12)],
}


def gen_monomial_scenario(seed: int) -> Scenario:
    """A scenario owning a complete factor: disjoint jib clusters, one
    singular node under each cluster, orders equal to the factor extension.
    Cluster weight tables put every full cluster at mass >= 1 and every
    proper subset below 1, so each cluster is one minimal critical set."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    while sum(sizes) > 5:
        sizes.pop()
    n = max(sizes) + 1
    d = n - 1
    dims: Dict[NodeId, int] = {"w": n}
    covers = []
    weights: Dict[NodeId, Fraction] = {}
    ords: Dict[NodeId, Fraction] = {}
    S = []
    for i, k in enumerate(sizes):
        s = f"s{i}"
        dims[s] = d - k
        S.append(s)
        total = Fraction(0)
        for j in range(k):
            h = f"h{i}{j}"
            dims[h] = n - 1
            w = rng.choice(_CLUSTER_WEIGHTS[k])
            weights[h] = w
            total += w
            covers.append((s, h))
            covers.append((h, "w"))
        ords[s] = total
    board = Board(dims, covers)
    c = Scenario.make(
        board=board, d=d, B=12, H=frozenset(weights),
        S=frozenset(S), T=frozenset(board.ids), ord=ords,
        M=FactorSet.of([MonomialFactor.of(weights)]),
    )
    vs = validate_scenario(c)
    if vs:
        raise RuntimeError("monomial generator produced " + "; ".join(map(str, vs)))
    if complete_factor(c) is None:
        raise RuntimeError("monomial generator lost its complete factor")
    return c


# ---- the game loop -------------------------------------------------------------


@dataclass
class GameResult:
    won: bool
    rounds: int
    blowups: int
    singular_centers: bool  # every blowup center was singular for the main quest
    no_discards: bool
    state: GameState
    trace: List[str]
    measure_log: List[Tuple[int, Tuple[Fraction, ...]]]
    note: str = ""


def play_game(
    scenario: Scenario,
    policy: Policy,
    round_cap: int = 10_000,
    trace: Optional[List[str]] = None,
) -> GameResult:
    """Play Dido against ``policy`` on ``scenario``. The NDJSON lines of the
    game are appended to ``trace`` (a fresh list if not given) as they are
    played, so a caller holds the rounds already played even when a
    CapError stops the game; the result's ``trace`` is that list."""
    state = new_game(scenario)
    strategy = DidoStrategy()
    lines = [] if trace is None else trace
    lines.append(round_to_json(trace_header(scenario, policy.kind, policy.seed)))
    blowups = 0
    singular_centers = True

    def result(won: bool, note: str = "") -> GameResult:
        return GameResult(
            won=won, rounds=state.round_no, blowups=blowups,
            singular_centers=singular_centers, no_discards=state.strict, state=state,
            trace=lines, measure_log=strategy.measure_log, note=note,
        )

    while True:
        move = strategy.decide(state)
        if move is None:
            return result(state.won)
        if state.round_no >= round_cap:
            return result(False, f"round cap {round_cap} reached")
        if move.kind == BLOWUP_MOVE:
            blowups += 1
            if move.center not in state.root.scenario.S:
                singular_centers = False
        bundle = respond(state, move, policy)
        record = apply_round(state, move, bundle)
        strategy.observe(state, move, bundle, record)
        lines.append(round_to_json(record))


# ---- the bounded explorer -------------------------------------------------------


@dataclass
class ExploreReport:
    all_won: bool  # there was at least one leaf, and Dido won every leaf
    branch_count: int  # bundles applied: edges of the explored game tree
    leaf_count: int
    win_count: int
    max_depth: int
    counterexample: Optional[List[str]] = None  # trace of the first bad leaf
    # Why the search was not exhaustive: one reason per capped or repaired
    # blowup enumeration. Empty when every bundle in the capped space was tried.
    truncated: List[str] = field(default_factory=list)


def explore(
    scenario: Scenario,
    max_new_nodes: Optional[int] = None,
    max_order_steps: int = 2,
    depth_cap: int = 50,
) -> ExploreReport:
    """Play Dido against every bundle the capped choice space allows.

    Dido's move is a function of the state, so each tree node has one move
    and branches only on Mephisto's answer. The ``EXPLORE`` policy makes
    ``enumerate_blowup_bundles`` try every blown-up board that fits inside
    ``max_new_nodes``, not only the full one. Bundles come out of the
    enumerators in a deterministic order; the counts are reproducible.
    ``truncated`` lists every place where the blowup enumeration was cut
    short, so ``all_won`` speaks for the whole capped space only when it is
    empty. A blowup cut short before its first valid bundle adds a reason
    and no leaf; one that found no valid bundle in a complete search raises
    ``NoValidBundle``. A tree without leaves is not won.
    """
    policy = Policy(
        kind=EXPLORE, max_new_nodes=max_new_nodes, max_order_steps=max_order_steps
    )
    report = ExploreReport(
        all_won=True, branch_count=0, leaf_count=0, win_count=0, max_depth=0
    )
    header = round_to_json(trace_header(scenario, EXPLORE))

    def leaf(state: GameState, depth: int, lines: List[str], won: bool) -> None:
        report.leaf_count += 1
        report.max_depth = max(report.max_depth, depth)
        if won:
            report.win_count += 1
        else:
            report.all_won = False
            if report.counterexample is None:
                report.counterexample = lines

    def dfs(state: GameState, strategy: DidoStrategy, depth: int, lines: List[str]):
        move = strategy.decide(state)
        if move is None:
            leaf(state, depth, lines, state.won)
            return
        if depth >= depth_cap:
            leaf(state, depth, lines, False)
            return
        cut: List[str] = []  # this blowup's own reasons; note() de-duplicates
        if move.kind == CALL:
            variants = enumerate_call_bundles(state, move, policy)
        else:
            variants = enumerate_blowup_bundles(state, move.center, policy, cut)
        any_bundle = False
        for bundle in variants:
            any_bundle = True
            report.branch_count += 1
            child_state = state.clone()
            child_strategy = copy.deepcopy(strategy)
            record = apply_round(child_state, move, bundle)
            child_strategy.observe(child_state, move, bundle, record)
            dfs(child_state, child_strategy, depth + 1, lines + [round_to_json(record)])
        report.truncated += [r for r in cut if r not in report.truncated]
        if not any_bundle and not cut:
            raise NoValidBundle(
                f"no valid bundle for {move.kind} at depth {depth}"
            )

    dfs(new_game(scenario), DidoStrategy(), 0, [header])
    report.all_won = report.all_won and report.leaf_count > 0
    return report


# ---- DOT exporter ---------------------------------------------------------------


def scenario_to_dot(c: Scenario) -> str:
    """The board with the scenario painted on: singular nodes filled (with
    their orders), jibs boxed, transversal nodes double-edged."""
    b = c.board
    lines = ["digraph scenario {", "  rankdir=BT;"]
    for s in sorted(b.ids):
        label = f"{s}\\ndim {b.dim(s)}"
        attrs = []
        if s in c.S:
            label += f"\\nord {format_value(c.ord[s])}"
            attrs.append('style="filled"')
            attrs.append('fillcolor="lightgray"')
        attrs.append('shape="box"' if s in c.H else 'shape="ellipse"')
        if s in c.T:
            attrs.append("peripheries=2")
        attrs.append(f'label="{label}"')
        lines.append(f"  \"{s}\" [{', '.join(attrs)}];")
    for a, t in sorted(b.covers):
        lines.append(f'  "{a}" -> "{t}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
