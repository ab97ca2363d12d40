"""Generators, the game loop, the bounded explorer, and a DOT exporter."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .board import Board, NodeId, _dot_escape, _json_text, board_to_json
from .dido import DidoStrategy, _plans_text
from .game import (
    BLOWUP_MOVE,
    CALL,
    OPEN,
    GameState,
    _response_to_json,
    apply_round,
    new_game,
    relation_to_json,
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
    _jib_uppers,
    assign_orders,
    complete_factor,
    validate_scenario,
    zero_factor,
)
from .values import Q, ZERO, format_value

__all__ = [
    "gen_board",
    "gen_scenario",
    "gen_monomial_scenario",
    "GameResult",
    "check_caps",
    "play_game",
    "ExploreReport",
    "explore",
    "scenario_to_dot",
]


# ---- generators ---------------------------------------------------------------


def gen_board(seed: int, max_nodes: int = 8, n: Optional[int] = None) -> Board:
    """A random valid board, deterministic in the seed. Raises ValueError
    where ``max_nodes`` is below 1 or the top dimension ``n`` leaves no
    room for the nodes below the top."""
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be at least 1, got {max_nodes}")
    least = 0 if max_nodes == 1 else 1  # no node fits below a top of dimension 0
    if n is not None and n < least:
        raise ValueError(f"n must be at least {least}, got {n}")
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
    """Nodes usable in S: every node below them (themselves included) is
    not the top and has slack d - dim covering its count of jibs above, so
    is at dimension <= d."""
    ok = {
        s for s in board.ids
        if s != board.top and d - board.dim(s) >= len(_jib_uppers(board, H, s))
    }
    return [s for s in sorted(board.ids) if board.down_set(s) <= ok]


def gen_scenario(
    seed: int,
    board: Optional[Board] = None,
    d: Optional[int] = None,
    B: Optional[int] = None,
    jib_count: Optional[int] = None,
) -> Scenario:
    """A random valid scenario with M = <0>, deterministic in the seed, on
    ``board`` (which must be valid) or on a generated one. Its orders are
    placed by ``scenario.assign_orders``, each node of dimension below d
    raised by a drawn k/B with 0 <= k <= 2B. Raises ValueError where d is
    outside 0..n, B is below 1, or jib_count is outside 0 and the number of
    nodes of dimension n - 1."""
    rng = random.Random(seed)
    if board is None:
        board = gen_board(rng.randrange(1 << 30))
    n = board.n
    if d is None:
        d = rng.randint(0, min(n, 2))
    if not 0 <= d <= n:
        raise ValueError(f"d={d} is outside 0..{n}, the board dimension")
    if B is None:
        B = rng.choice([1, 2, 3, 4, 6, 12])
    if B < 1:
        raise ValueError(f"B must be at least 1, got {B}")
    jib_pool = sorted(s for s in board.ids if board.dim(s) == n - 1)
    if jib_count is None:
        jib_count = rng.randint(0, min(len(jib_pool), 3))
    if not 0 <= jib_count <= len(jib_pool):
        raise ValueError(
            f"jib_count={jib_count} is outside 0..{len(jib_pool)}, the dim-(n-1) nodes"
        )
    H = frozenset(rng.sample(jib_pool, k=jib_count))
    good = _hereditary_candidates(board, d, H)
    seeds = [s for s in good if rng.random() < 0.6]
    if not seeds and good:
        seeds = [rng.choice(good)]
    S = set()
    for s in seeds:
        S |= board.down_set(s)
    raises = {
        s: Q(rng.randint(0, 2 * B), B)
        for s in sorted(S, key=lambda x: (-board.dim(x), x))
        if board.dim(s) != d
    }
    M = FactorSet.of([zero_factor(H)])
    c = Scenario(
        board=board, d=d, B=B, H=H, S=S, T=board.ids,
        ord=assign_orders(board, d, S, M.generators, {}, raises), M=M,
    )
    vs = validate_scenario(c)
    if vs:  # on a valid board every draw is valid by construction
        raise RuntimeError(f"generated an invalid scenario: {'; '.join(map(str, vs))}")
    return c


_CLUSTER_WEIGHTS = {
    1: [Q(1), Q(13, 12), Q(7, 6), Q(3, 2)],
    2: [Q(1, 2), Q(7, 12), Q(2, 3), Q(3, 4)],
    3: [Q(1, 3), Q(5, 12)],
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
    weights: Dict[NodeId, Q] = {}
    ords: Dict[NodeId, Q] = {}
    S = []
    for i, k in enumerate(sizes):
        s = f"s{i}"
        dims[s] = d - k
        S.append(s)
        total = ZERO
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
    c = Scenario(
        board=board, d=d, B=12, H=weights.keys(), S=S, T=board.ids, ord=ords,
        M=[MonomialFactor(weights)],
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
    measure_log: Tuple[Tuple[int, Tuple[Q, ...]], ...]
    note: str = ""


def check_caps(**caps: int) -> None:
    """Raise ValueError, naming the argument, for a negative cap among
    ``caps``: ``round_cap`` of ``play_game``, and ``depth_cap``,
    ``max_new_nodes`` and ``max_order_steps`` of ``explore``, each worded
    as ``Policy`` words its own."""
    for name, value in caps.items():
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")


def play_game(
    scenario: Scenario,
    policy: Policy,
    round_cap: int = 10_000,
    trace: Optional[List[str]] = None,
) -> GameResult:
    """Play Dido against ``policy`` on ``scenario``. The NDJSON lines of the
    game are appended to ``trace`` (a fresh list if not given) as they are
    played, so a caller holds the rounds already played even when a
    CapError stops the game; the result's ``trace`` is that list. Each round
    rebinds the state and Dido's strategy, both values, to the next ones.
    Raises ValueError for a negative ``round_cap``."""
    check_caps(round_cap=round_cap)
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
        move, strategy = strategy.decide(state)
        if move is None:
            return result(state.won)
        if state.round_no >= round_cap:
            return result(False, f"round cap {round_cap} reached")
        if move.kind == BLOWUP_MOVE:
            blowups += 1
            if move.center not in state.root.scenario.S:
                singular_centers = False
        bundle = respond(state, move, policy)
        state, record = apply_round(state, move, bundle)
        strategy = strategy.observe(state, move, bundle)
        lines.append(round_to_json(record))


# ---- the bounded explorer -------------------------------------------------------


@dataclass
class ExploreReport:
    all_won: bool  # there was at least one leaf, and Dido won every leaf
    branch_count: int  # bundles applied: edges of the explored game tree
    leaf_count: int
    win_count: int
    max_depth: int
    depth_cap: int  # a state this deep is a leaf, lost if the game goes on
    counterexample: Optional[List[str]] = None  # trace of the first bad leaf
    # Why the search was not exhaustive: one reason per capped or repaired
    # blowup enumeration. Empty when every bundle in the capped space was tried.
    truncated: List[str] = field(default_factory=list)
    # States at which Dido decided: branch_count + 1 when the transposition
    # table answers none, fewer by every node of the subtrees it answers.
    states: int = 0


def _state_key(state: GameState, strategy: DidoStrategy) -> bytes:
    """The SHA-256 digest of what the rest of the game reads of ``state`` and
    ``strategy``: the board, the round, each quest's id, parent, status and
    relation, each open quest's scenario, and Dido's plans. Every text but
    the plans' is stored on its value. The key holds the plans' text in the
    digest, not the plans: a key that held the plan values kept them all
    alive, and explore seed 14 peaked at 37.4 MB of RSS instead of 25.3."""
    # imported here, not at the top: hashlib loads OpenSSL, which raised the
    # peak RSS of a process that never explores by 3.6 MB (CPython 3.11, Linux)
    from hashlib import sha256

    parts = [
        _json_text(state.board, board_to_json),
        str(state.round_no),
    ]
    for qid, quest in state.quests.items():
        rel = quest.relation
        parts.append(f"{qid} {quest.parent_id} {quest.status}")
        parts.append("" if rel is None else _json_text(rel, relation_to_json))
        parts.append(
            _json_text(quest.scenario, _response_to_json) if quest.status == OPEN else ""
        )
    parts.append(_plans_text(strategy.plans))
    return sha256("\n".join(parts).encode()).digest()


def explore(scenario: Scenario, depth_cap: int = 50, **caps) -> ExploreReport:
    """Play Dido against every bundle the capped choice space allows: the
    ``EXPLORE`` policy with the caps (``max_new_nodes``,
    ``max_order_steps``) given in ``caps``, on a tree cut at ``depth_cap``.

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

    Two answers can lead to equal states, and equal states have equal
    subtrees. So the search keeps a transposition table for the call: it
    maps the key (``_state_key``) of each state that branched to its
    subtree's (branches, leaves, wins), and a state found there adds those
    counts and is not expanded again. Nothing else needs the subtree: the
    key holds the round number, which is the depth, and the first visit,
    earlier in depth-first order, has already recorded every lost leaf,
    truncation reason and ``NoValidBundle`` the subtree holds. A leaf costs
    one ``decide`` and is not stored. The key leaves out what no later
    round reads: the strategy's ``measure_log``, and the scenarios of closed
    quests, which nothing reads once Dido decides again; with those
    scenarios in it, few states would ever meet.
    The key is a digest, so the table keeps no scenario or board alive; its
    memory grows by one entry per stored state.

    Raises ValueError for a negative ``depth_cap``, and as ``Policy`` does
    for a negative cap in ``caps``.

    Each branch applies its bundle to the parent state itself, which
    ``apply_round`` leaves as it was, so the branches of a blowup share the
    parent, every quest the round leaves alone, and the discards stored for
    the parent on each blown-up board. Each branch likewise observes its
    answer on the strategy that decided the move, which ``observe`` leaves
    as it was, so the branches share every plan they do not change. A
    branch encodes no trace line: the search carries each record
    on a (parent, record) chain and encodes the chain only for the first
    lost leaf, as ``counterexample``.
    """
    check_caps(depth_cap=depth_cap)
    policy = Policy(kind=EXPLORE, **caps)
    report = ExploreReport(
        all_won=True, branch_count=0, leaf_count=0, win_count=0, max_depth=0,
        depth_cap=depth_cap,
    )
    table: Dict[object, Tuple[int, int, int]] = {}

    def leaf(state: GameState, depth: int, path: Optional[tuple], won: bool) -> None:
        report.leaf_count += 1
        report.max_depth = max(report.max_depth, depth)
        if won:
            report.win_count += 1
        else:
            report.all_won = False
            if report.counterexample is None:
                records = []
                while path is not None:
                    path, record = path
                    records.append(record)
                report.counterexample = [round_to_json(r) for r in reversed(records)]

    def dfs(state: GameState, strategy: DidoStrategy, depth: int, path: Optional[tuple]):
        key = _state_key(state, strategy)
        seen = table.get(key)
        if seen is not None:
            report.branch_count += seen[0]
            report.leaf_count += seen[1]
            report.win_count += seen[2]
            return
        report.states += 1
        move, strategy = strategy.decide(state)
        if move is None:
            leaf(state, depth, path, state.won)
            return
        if depth >= depth_cap:
            leaf(state, depth, path, False)
            return
        before = (report.branch_count, report.leaf_count, report.win_count)
        cut: List[str] = []  # this blowup's own reasons; note() de-duplicates
        if move.kind == CALL:
            variants = enumerate_call_bundles(state, move, policy)
        else:
            variants = enumerate_blowup_bundles(state, move, policy, cut)
        any_bundle = False
        for bundle in variants:
            any_bundle = True
            report.branch_count += 1
            child_state, record = apply_round(state, move, bundle)
            child_strategy = strategy.observe(child_state, move, bundle)
            dfs(child_state, child_strategy, depth + 1, (path, record))
        report.truncated += [r for r in cut if r not in report.truncated]
        if not any_bundle and not cut:
            raise NoValidBundle(
                f"no valid bundle for {move.kind} at depth {depth}"
            )
        table[key] = (
            report.branch_count - before[0],
            report.leaf_count - before[1],
            report.win_count - before[2],
        )

    dfs(new_game(scenario), DidoStrategy(), 0, (None, trace_header(scenario, EXPLORE)))
    report.all_won = report.all_won and report.leaf_count > 0
    return report


# ---- DOT exporter ---------------------------------------------------------------


def scenario_to_dot(c: Scenario) -> str:
    """The board with the scenario painted on: singular nodes filled (with
    their orders), jibs boxed, transversal nodes double-edged."""
    b = c.board
    lines = ["digraph scenario {", "  rankdir=BT;"]
    for s in sorted(b.ids):
        q = _dot_escape(s)
        label = f"{q}\\ndim {b.dim(s)}"
        attrs = []
        if s in c.S:
            label += f"\\nord {format_value(c.ord[s])}"
            attrs.append('style="filled"')
            attrs.append('fillcolor="lightgray"')
        attrs.append('shape="box"' if s in c.H else 'shape="ellipse"')
        if s in c.T:
            attrs.append("peripheries=2")
        attrs.append(f'label="{label}"')
        lines.append(f"  \"{q}\" [{', '.join(attrs)}];")
    for a, t in sorted(b.covers):
        lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(t)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
