"""Mephisto: bundle construction under three answer policies.

Every move of Dido's demands a full bundle: the board transform plus one
response scenario per open quest. The relation formulas pin most of each
response; Mephisto's honest freedom is the shape of the blown-up board, which
singular nodes to keep, and the orders of nodes the transform rules leave
free. The policies differ only in how they spend that freedom:

* ``canonical``      largest board, largest keepable singular set, smallest
                     legal orders; deterministic.
* ``random:<seed>``  a seeded uniform pick among the leading valid bundles.
* ``adversarial``    scores the leading valid bundles and plays the one with
                     the most singular nodes and the largest finite orders.

Mephisto owns no rule formula: a call's child comes from
``quests.call_response`` (descent orders aside), a blowup response's handicap
and factors from ``transform.blowup_jibs``, and its discards from
``game.blowup_discards``, which the umpire checks against.

Order choices use a uniform bump level: level k raises every non-forced free
order to at least 1 + k/B. Optional additions to the transversal set are
never made, and orders below 1 are never chosen (nodes are dropped instead),
so every policy stays inside the regime the strategy layer relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .board import BLOWUP, Board, BoardTransform, NodeId, Violation, trivial_refinement
from .game import (
    BLOWUP_MOVE,
    Bundle,
    CALL,
    GameState,
    Move,
    OPEN,
    blowup_discards,
    validate_bundle,
)
from .quests import DESCENT, QuestRelation, call_response
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    complete_factor,
    extend_factor,
    heavy_jib_violations,
    is_tight,
    zero_factor,
)
from .transform import (
    blowup_jibs,
    capped_transport,
    transport_relation,
    validate_blowup_transform,
)
from .values import INF, Value, is_finite

__all__ = [
    "CANONICAL",
    "RANDOM",
    "ADVERSARIAL",
    "EXPLORE",
    "CapError",
    "NoValidBundle",
    "Policy",
    "blowup_uppers",
    "blowup_transform",
    "respond",
    "respond_call",
    "respond_blowup",
    "enumerate_call_bundles",
    "enumerate_blowup_bundles",
]

CANONICAL = "canonical"
RANDOM = "random"
ADVERSARIAL = "adversarial"
EXPLORE = "explore"  # harness.explore walks every bundle; it never chooses one

_RANDOM_POOL = 16  # random picks among this many leading valid bundles
_ADVERSARIAL_POOL = 64  # adversarial scores this many leading valid bundles
_CANDIDATE_CAP = 20000  # give up after examining this many raw candidates
_KEEP_ENUM_LIMIT = 14  # widest singular set whose subsets are enumerated


class CapError(RuntimeError):
    """A blowup cannot fit inside max_new_nodes."""


class NoValidBundle(RuntimeError):
    def __init__(self, message: str, violations: Sequence = ()):
        self.violations = list(violations)
        if self.violations:
            message += ": " + "; ".join(str(v) for v in self.violations)
        super().__init__(message)


@dataclass(frozen=True)
class Policy:
    kind: str = CANONICAL
    seed: int = 0
    max_new_nodes: Optional[int] = None
    max_order_steps: int = 2

    @classmethod
    def parse(cls, text: str, max_new_nodes: Optional[int] = None,
              max_order_steps: int = 2) -> "Policy":
        if text == CANONICAL or text == ADVERSARIAL:
            return cls(text, 0, max_new_nodes, max_order_steps)
        if text == RANDOM:
            return cls(RANDOM, 0, max_new_nodes, max_order_steps)
        if text.startswith(RANDOM + ":"):
            try:
                seed = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad policy seed in {text!r}") from None
            return cls(RANDOM, seed, max_new_nodes, max_order_steps)
        raise ValueError(f"unknown policy {text!r}")

    def rng(self, round_no: int) -> random.Random:
        return random.Random(self.seed * 1000003 + round_no)

    def bump_levels(self) -> Sequence[int]:
        if self.kind == CANONICAL:
            return (0,)
        return tuple(range(self.max_order_steps + 1))


# ---- blowup boards ----------------------------------------------------------


def blowup_uppers(board: Board, z: NodeId) -> List[NodeId]:
    """The strict uppers of z that earn a fresh node (everything below top)."""
    n = board.n
    return sorted(t for t in board.up_set(z) if t != z and board.dim(t) < n)


def blowup_transform(
    board: Board,
    z: NodeId,
    keep_uppers: Optional[Iterable[NodeId]] = None,
    max_new: Optional[int] = None,
) -> BoardTransform:
    """Blow up z: the fiber collapses to one fresh node e of dimension n-1,
    and each kept strict upper t below the top gains a fresh node x_t with
    dim(x_t) = dim(t) - 1, squeezed between e and t. Node ids off the fiber
    are reused, so only the fresh nodes are new.
    """
    if z not in board.ids:
        raise ValueError(f"unknown center {z}")
    n = board.n
    top = board.top
    if z == top:
        raise ValueError("cannot blow up the top node")
    ts = blowup_uppers(board, z)
    if keep_uppers is not None:
        keep = set(keep_uppers)
        if not keep <= set(ts):
            raise ValueError(f"kept uppers {sorted(keep - set(ts))} are not eligible")
        ts = [t for t in ts if t in keep]
    if max_new is not None and 1 + len(ts) > max_new:
        raise CapError(
            f"blowup at {z} needs {1 + len(ts)} fresh nodes, cap is {max_new}"
        )
    fresh = board.fresh_start
    e = f"e{fresh}"
    xs = {t: f"q{fresh + 1 + k}" for k, t in enumerate(ts)}
    shift = n - 1 - board.dim(z)
    embed = {s: s for s in board.ids}
    embed[z] = e
    dims: Dict[NodeId, int] = {}
    for s in board.ids:
        if board.leq(s, z):
            dims[embed[s]] = board.dim(s) + shift
        else:
            dims[embed[s]] = board.dim(s)
    for t, x in xs.items():
        dims[x] = board.dim(t) - 1
    covers = []
    for a, b in board.covers:
        if board.leq(a, z) and not board.leq(b, z):
            continue  # mixed pairs lose their edge
        covers.append((embed[a], embed[b]))
    for t, x in xs.items():
        covers.append((x, e))
        covers.append((x, embed[t]))
    covers.append((e, embed[top]))
    retract = {embed[s]: s for s in board.ids}
    retract[e] = z
    for x in xs.values():
        retract[x] = z
    return BoardTransform(
        kind=BLOWUP,
        source=board,
        target=Board(dims, covers),
        embed=embed,
        retract=retract,
        center=z,
    )


# ---- free order assignment ---------------------------------------------------


def _order_floor(
    board: Board,
    gens: Sequence[MonomialFactor],
    assigned: Dict[NodeId, Value],
    f: NodeId,
) -> Value:
    """Least order for f: at least 1, at least every factor extension, and at
    least ord(t) plus the factor mass separating f from each assigned upper t.
    """
    floor: Value = Fraction(1)
    for g in gens:
        floor = max(floor, extend_factor(board, g, f))
    for t, vt in assigned.items():
        if t == f or not board.leq(f, t):
            continue
        for g in gens:
            sep = Fraction(0)
            inf = False
            for h, w in g.weights:
                if board.leq(f, h) and not board.leq(t, h):
                    if not is_finite(w):
                        inf = True
                        break
                    sep += w
            bound = INF if (inf or not is_finite(vt)) else vt + sep
            floor = max(floor, bound)
    return floor


def _assign_orders(
    board: Board,
    d: int,
    keep: Iterable[NodeId],
    gens: Sequence[MonomialFactor],
    pinned: Dict[NodeId, Value],
    bump: Fraction,
    force_one: bool = False,
    override: Optional[MonomialFactor] = None,
) -> Optional[Dict[NodeId, Value]]:
    """Choose orders on ``keep`` top-down; None when no legal choice exists."""
    ords: Dict[NodeId, Value] = {}
    for f in sorted(keep, key=lambda s: (-board.dim(s), s)):
        if override is not None:
            v = extend_factor(board, override, f)
            if f in pinned and pinned[f] != v:
                return None
            if board.dim(f) == d and is_finite(v):
                return None
        elif f in pinned:
            v = pinned[f]
        elif board.dim(f) == d:
            v = INF
        else:
            floor = _order_floor(board, gens, ords, f)
            if is_finite(floor) and bump:
                v = max(floor, Fraction(1) + bump)
            else:
                v = floor
        if force_one and v != Fraction(1):
            return None
        if is_finite(v) and v < 1:
            return None
        ords[f] = v
    for f, v in ords.items():
        others = {t: w for t, w in ords.items() if t != f}
        floor = _order_floor(board, gens, others, f)
        if is_finite(v) and (not is_finite(floor) or v < floor):
            return None
    return ords


# ---- blowup responses ------------------------------------------------------------


def _root_keep_max(c: Scenario, bt: BoardTransform) -> FrozenSet[NodeId]:
    """The largest singular set any policy will offer after the blowup.

    Forced removals: nodes above the target dimension, the exceptional node
    when its pinned order leaves the regime, the sets item 13 clears, nodes a
    complete factor prices below 1, and (in a tight quest) nodes whose floor
    already exceeds 1. Removals cascade upward to keep the set down-closed.
    """
    board0, board1 = c.board, bt.target
    z = bt.center
    e = bt.exceptional
    keep = {x for x in board1.ids if bt.retract[x] in c.S}

    if e in keep:
        pe = c.ord[z] - Fraction(1)
        d_ok = (c.d == board0.n and is_finite(pe) and pe >= 1) or (
            c.d == board0.n - 1 and not is_finite(pe)
        )
        if not d_ok:
            keep.discard(e)

    keep -= {x for x in keep if board1.dim(x) > c.d}

    k = c.d - board0.dim(z)
    if k >= 0:
        jibs_z = c.jib_uppers(z)
        for K in combinations(jibs_z, k):
            imgs = [bt.embed[h] for h in K]
            keep -= {
                x
                for x in keep
                if board0.leq(bt.retract[x], z)
                and all(board1.leq(x, i) for i in imgs)
            }

    cf = complete_factor(c)
    if cf is not None:
        cf1 = capped_transport(c, bt, cf)
        keep -= {x for x in keep if extend_factor(board1, cf1, x) < 1}

    if is_tight(c):
        gens1 = blowup_jibs(c, bt)[1].generators
        changed = True
        while changed:
            changed = False
            ones = {x: Fraction(1) for x in keep}
            for x in sorted(keep):
                if board1.dim(x) == c.d:
                    bad = True
                else:
                    rest = {t: w for t, w in ones.items() if t != x}
                    bad = _order_floor(board1, gens1, rest, x) != Fraction(1)
                if bad:
                    keep.discard(x)
                    changed = True

    # down-closedness is absolute: a kept node needs every node below it kept
    changed = True
    while changed:
        changed = False
        for x in sorted(keep):
            below = {y for y in board1.ids if y != x and board1.leq(y, x)}
            if not below <= keep:
                keep.discard(x)
                changed = True
    return frozenset(keep)


def _blowup_response(
    c: Scenario,
    bt: BoardTransform,
    S1: FrozenSet[NodeId],
    T1: FrozenSet[NodeId],
    bump: Fraction,
) -> Optional[Scenario]:
    """Carry c through the blowup onto the singular set S1 and transversal
    set T1: handicap i(H) + e, the capped transports of the factors, orders
    pinned where items 9, 10 and 15 pin them and chosen elsewhere."""
    board1 = bt.target
    e = bt.exceptional
    H1, M1 = blowup_jibs(c, bt)
    pinned: Dict[NodeId, Value] = {
        x: c.ord[bt.retract[x]] for x in S1 if not board1.leq(x, e)
    }
    if e in S1:
        pinned[e] = c.ord[bt.center] - Fraction(1)
    cf = complete_factor(c)
    override = capped_transport(c, bt, cf) if cf is not None else None
    ords = _assign_orders(
        board1, c.d, S1, M1.generators, pinned, bump,
        force_one=is_tight(c), override=override,
    )
    if ords is None:
        return None
    return Scenario.make(board=board1, d=c.d, B=c.B, H=H1, S=S1, T=T1, ord=ords, M=M1)


def _root_response(
    c: Scenario, bt: BoardTransform, keep: FrozenSet[NodeId], bump: Fraction
) -> Optional[Scenario]:
    """The main quest keeps ``keep`` singular; every fresh node is transversal."""
    fresh = frozenset(bt.target.ids) - frozenset(bt.embed.values())
    T1 = frozenset(bt.embed[s] for s in c.T) | fresh
    return _blowup_response(c, bt, keep, T1, bump)


def _child_blowup_response(
    rel_new: QuestRelation,
    parent_new: Scenario,
    child_old: Scenario,
    bt: BoardTransform,
    bump: Fraction,
) -> Optional[Scenario]:
    if rel_new.kind == DESCENT:
        return _blowup_response(child_old, bt, parent_new.S, parent_new.T, bump)
    try:
        return call_response(parent_new, rel_new)
    except ValueError:  # a lifted quotient factor outside the parent's factors
        return None


# ---- bundle assembly -----------------------------------------------------------


def _assemble_blowup(
    state: GameState, bt: BoardTransform, root_new: Scenario, bump: Fraction
) -> Optional[Bundle]:
    responses: Dict[int, Scenario] = {0: root_new}
    discards = blowup_discards(state, bt)
    for quest in sorted(state.open_quests(), key=lambda q: q.quest_id):
        if quest.parent_id is None or quest.quest_id in discards:
            continue
        parent = state.quests[quest.parent_id]
        rel_new = transport_relation(quest.relation, parent.scenario, bt)
        resp = _child_blowup_response(
            rel_new, responses[quest.parent_id], quest.scenario, bt, bump
        )
        if resp is None:
            return None
        responses[quest.quest_id] = resp
    return Bundle(transform=bt, responses=responses, discards=discards)


def _down_closed_keeps(board1: Board, keep_max: FrozenSet[NodeId]) -> List[FrozenSet[NodeId]]:
    """All down-closed subsets of keep_max, largest first (then lexicographic).

    Nodes join in order of dimension, which rises strictly along the order of
    a valid board, and each one extends exactly the subsets built so far that
    already hold everything of keep_max below it.
    """
    if len(keep_max) > _KEEP_ENUM_LIMIT:
        return [keep_max]
    out = [frozenset()]
    for x in sorted(keep_max, key=lambda s: (board1.dim(s), s)):
        below = (board1.down_set(x) - {x}) & keep_max
        out += [sub | {x} for sub in out if below <= sub]
    out.sort(key=lambda s: (-len(s), tuple(sorted(s))))
    return out


def _shrink_keep(
    board1: Board, keep: FrozenSet[NodeId], violations: Sequence[Violation]
) -> Optional[FrozenSet[NodeId]]:
    """Drop the violations' witness nodes (and their up-sets) from a keep.

    Child responses are derived from the root's by fixed formulas, so when one
    of them rejects a node the only lever is to shed it from the root's keep.
    Returns None when no witness lies in the keep (nothing to learn).
    """
    bad = {w for v in violations for w in v.witness if w in keep}
    if not bad:
        return None
    shed = set()
    for x in bad:
        shed |= {y for y in keep if board1.leq(x, y)}
    return frozenset(keep - shed)


def enumerate_blowup_bundles(
    state: GameState,
    z: NodeId,
    policy: Policy,
    enumerate_boards: bool = False,
    truncated: Optional[List[str]] = None,
) -> Iterator[Bundle]:
    """Valid bundles for a blowup at z, largest-keep and lowest-orders first.

    Policies answer on the full blowup board (raising CapError when it busts
    max_new_nodes); with ``enumerate_boards`` every fitting subset of fresh
    nodes is tried, largest first, which is how the explorer branches.

    The stream is not exhaustive when it stops at ``_CANDIDATE_CAP`` or when
    a keep set is too wide to enumerate and is repaired instead. When that
    happens, a reason is added to ``truncated`` (if given and not already
    there).

    Each keep is sieved once on scenario issue 9 before any orders are
    assigned. That check reads only the root response's board, d, H, S and M;
    S is the keep, and H and M are fixed by the blowup, so a keep that fails
    it fails at every bump level and is skipped whole. The skip is exact: it
    drops only candidates the per-candidate sieve would reject, and still
    counts them against ``_CANDIDATE_CAP``, so the yield sequence and the
    point where the cap stops the search are unchanged. The repair path
    (keeps wider than ``_KEEP_ENUM_LIMIT``) keeps the full check, because it
    learns which nodes to shed from the issue-9 witnesses.
    """
    board = state.board
    root = state.root.scenario
    ts = blowup_uppers(board, z)
    cap = policy.max_new_nodes
    if enumerate_boards:
        subsets = [
            list(sub)
            for size in range(len(ts), -1, -1)
            for sub in combinations(ts, size)
        ]
        subsets = [sub for sub in subsets if cap is None or 1 + len(sub) <= cap]
        if not subsets:
            raise CapError(f"no blowup at {z} fits inside max_new_nodes={cap}")
    else:
        subsets = [ts]  # may raise CapError below
    levels = policy.bump_levels()
    examined = 0

    def note(reason: str) -> None:
        reason = f"round {state.round_no + 1}, blowup at {z}: {reason}"
        if truncated is not None and reason not in truncated:
            truncated.append(reason)

    def capped() -> bool:
        if examined > _CANDIDATE_CAP:
            note(f"stopped after {_CANDIDATE_CAP} candidates")
            return True
        return False

    for sub in subsets:
        bt = blowup_transform(board, z, sub, cap)
        keep_max = _root_keep_max(root, bt)
        keeps = _down_closed_keeps(bt.target, keep_max)
        repair = len(keep_max) > _KEEP_ENUM_LIMIT
        if repair:
            note(
                f"{len(keep_max)} keepable nodes exceed {_KEEP_ENUM_LIMIT}; keep sets "
                "were repaired, not enumerated"
            )
        H1, M1 = blowup_jibs(root, bt)
        tried = set(keeps)
        while keeps:
            keep = keeps.pop(0)
            if not repair and heavy_jib_violations(bt.target, root.d, H1, keep, M1):
                # Every level's root response has S = keep, H = H1 and M = M1,
                # so the sieve below would reject each one on scenario issue 9.
                # Count them as examined, so the cap fires where it did.
                examined += len(levels)
                if capped():
                    return
                continue
            # The root's singular set is the keep, so bundles can only repeat
            # within one keep, when two bump levels settle on the same orders.
            yielded: List[Dict[int, Scenario]] = []
            for level in levels:
                examined += 1
                if capped():
                    return
                bump = Fraction(level, root.B)
                root_new = _root_response(root, bt, keep, bump)
                if root_new is None:
                    continue
                if not repair and validate_blowup_transform(root, bt, root_new):
                    # The full bundle check starts with exactly this test, so
                    # a failing root sinks the candidate; skip the assembly.
                    continue
                bundle = _assemble_blowup(state, bt, root_new, bump)
                if bundle is None or bundle.responses in yielded:
                    continue
                # While enumerating, only emptiness matters; the repair loop
                # instead wants every witness, so it takes the full scan.
                violations = validate_bundle(
                    state, Move.blowup(z), bundle, first_only=not repair
                )
                if not violations:
                    yielded.append(bundle.responses)
                    yield bundle
                elif repair:
                    # Too many keepable nodes to enumerate subsets: shed the
                    # nodes the child responses rejected and try again.
                    smaller = _shrink_keep(bt.target, keep, violations)
                    if smaller is not None and smaller not in tried:
                        tried.add(smaller)
                        keeps.append(smaller)


def _descent_call_child(c: Scenario, bump: Fraction) -> Optional[Scenario]:
    gens = (zero_factor(frozenset()),)
    ords = _assign_orders(c.board, c.d - 1, c.S, gens, {}, bump)
    if ords is None:
        return None
    return Scenario.make(
        board=c.board, d=c.d - 1, B=c.B, H=frozenset(), S=c.S, T=c.T,
        ord=ords, M=FactorSet.of(gens),
    )


def enumerate_call_bundles(
    state: GameState, move: Move, policy: Policy
) -> Iterator[Bundle]:
    quest = state.quests.get(move.quest_id)
    if quest is None or quest.status != OPEN:
        raise NoValidBundle(f"quest {move.quest_id} is not open")
    rel = move.relation
    parent = quest.scenario
    bt = trivial_refinement(state.board)
    responses = {q.quest_id: q.scenario for q in state.open_quests()}

    if rel.kind == DESCENT:
        children = (
            _descent_call_child(parent, Fraction(level, parent.B))
            for level in policy.bump_levels()
        )
    else:
        try:
            children = [call_response(parent, rel)]
        except ValueError as exc:
            raise NoValidBundle(f"illegal call: {exc}") from exc
    seen: List[Scenario] = []
    for child in children:
        if child is None or child in seen:
            continue
        seen.append(child)
        bundle = Bundle(transform=bt, responses=dict(responses), child=child)
        if not validate_bundle(state, move, bundle, first_only=True):
            yield bundle


# ---- the policy front door -----------------------------------------------------


def _choose(
    state: GameState, policy: Policy, stream: Iterator[Bundle], what: str
) -> Bundle:
    if policy.kind == CANONICAL:
        for bundle in stream:
            return bundle
        raise NoValidBundle(f"no valid bundle for {what}")
    if policy.kind not in (RANDOM, ADVERSARIAL):
        raise ValueError(f"policy {policy.kind!r} does not choose a bundle")
    pool_size = _RANDOM_POOL if policy.kind == RANDOM else _ADVERSARIAL_POOL
    pool: List[Bundle] = []
    for bundle in stream:
        pool.append(bundle)
        if len(pool) >= pool_size:
            break
    if not pool:
        raise NoValidBundle(f"no valid bundle for {what}")
    if policy.kind == RANDOM:
        return policy.rng(state.round_no).choice(pool)
    return max(pool, key=_bundle_score)  # adversarial; max is stable on ties


def _bundle_score(bundle: Bundle) -> Tuple[int, Fraction]:
    total_s = 0
    mass = Fraction(0)
    scs = list(bundle.responses.values())
    if bundle.child is not None:
        scs.append(bundle.child)
    for sc in scs:
        total_s += len(sc.S)
        for v in sc.ord.values():
            if is_finite(v):
                mass += v
    return (total_s, mass)


def respond_call(state: GameState, move: Move, policy: Policy) -> Bundle:
    stream = enumerate_call_bundles(state, move, policy)
    return _choose(state, policy, stream, f"call on quest {move.quest_id}")


def respond_blowup(state: GameState, z: NodeId, policy: Policy) -> Bundle:
    stream = enumerate_blowup_bundles(state, z, policy)
    return _choose(state, policy, stream, f"blowup at {z}")


def respond(state: GameState, move: Move, policy: Policy) -> Bundle:
    if move.kind == CALL:
        return respond_call(state, move, policy)
    if move.kind == BLOWUP_MOVE:
        return respond_blowup(state, move.center, policy)
    raise ValueError(f"unknown move kind {move.kind!r}")
