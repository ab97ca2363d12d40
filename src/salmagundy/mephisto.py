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
                     the most singular nodes and the largest finite orders;
                     it stops the search once no keep set still to come can
                     hold as many singular nodes as its incumbent.

Mephisto owns no rule formula; each lives with the validator that checks
it. A call's child comes from ``quests.call_response`` (descent orders
aside). A blowup response takes its handicap and factors from
``transform.blowup_jibs``, the exceptional node's pinned order from
``transform.exceptional_cap``, the nodes it must clear from
``transform.cleared_nodes`` (item 13), and its discards from
``game.blowup_discards``. Free orders are floored by ``scenario.extend_factor``
and ``scenario.separation_mass`` (issues 6 and 8).

The sieve is the umpire's own gate, ``game.validate_bundle``, plus one exact
shortcut: a keep set whose root response must fail scenario issue 9
(``scenario.heavy_jib_violations``) is skipped before any bundle is built.
Issue 9 reads one table per blown-up board: ``transform.blowup_jibs`` gives
every keep the same handicap H1 and factor set M1, and M1 holds each node's
heavy jib sets with their candidate nodes, so each keep costs set lookups.
The root responses carry the same H1 and M1, so the umpire's issue-9 check
of every candidate reads the same rows.

The adversarial search is a branch and bound (Land and Doig, 1960). A
bundle's first score component is its total |S|, and every response's S
lies within the root's keep and within a node set D_q fixed per blown-up
board (``_order_ceilings``), so UB(keep) = sum over quests of |keep & D_q|
is admissible. Once the incumbent's total |S| is strictly greater than UB
of every keep not yet started, no later bundle can be chosen and the stream
stops. A tie does not stop it, because the mass can break the tie. The stop
is exact: the chosen bundle, and so every trace, is the one the whole
window of leading valid bundles gives.

Candidates on one blown-up board share their responses. Each response built
there is interned: it is replaced by the first equal response built on that
board, so equal responses are one object and the checks stored on it
(``board._memo``) answer every later candidate. A child's response depends
only on its transported call, its old scenario (both fixed per board), its
parent's new response and, for descent, the bump level; it is built once per
quest and parent response object, and a repeated root reuses its whole
subtree. Likewise a call's child equal to an open quest's scenario is that
scenario, so the two quests share their checks at the next blowup.

Order choices use a uniform bump level: level k raises every non-forced free
order to at least 1 + k/B. Optional additions to the transversal set are
never made, and orders below 1 are never chosen (nodes are dropped instead),
so every policy stays inside the regime the strategy layer relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
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
from .quests import DESCENT, QUOTIENT, TRANSVERSALITY, QuestRelation, call_response
from .scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    complete_factor,
    extend_factor,
    heavy_jib_violations,
    is_tight,
    separation_mass,
    zero_factor,
)
from .transform import (
    blowup_jibs,
    capped_transport,
    cleared_nodes,
    exceptional_cap,
    transport_relation,
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
# Widest keepable set whose down-closed subsets are enumerated; a wider one
# goes to the repair loop (_shrink_keep) instead. It is not a tunable: the
# loop runs in recorded games (canonical seeds 68 and 817, 15 blowups with up
# to 23 keepable nodes; adversarial seeds 68 and 92, 65 blowups with up to
# 29), so another value changes their traces, and 2^29 subsets are out of
# reach anyway.
_KEEP_ENUM_LIMIT = 14


class CapError(RuntimeError):
    """A cap cut the search short: no blowup fits inside max_new_nodes, or a
    capped or repaired blowup stream ended before its first valid bundle."""


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
    """Least order for f: at least 1, at least every factor extension
    (scenario issue 6), and at least ord(t) plus the factor mass separating f
    from each assigned upper t (issue 8).
    """
    floor: Value = Fraction(1)
    for g in gens:
        floor = max(floor, extend_factor(board, g, f))
    for t, vt in assigned.items():
        if t == f or not board.leq(f, t):
            continue
        for g in gens:
            floor = max(floor, vt + separation_mass(board, g, f, t))
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
    """Choose orders on ``keep`` top-down; None when no legal choice exists.

    Each node's floor is taken once, when it is placed: every node above it
    has a strictly higher dimension on a valid board, so it is already
    placed and the floor is final. A pinned or overridden order below its
    floor has no legal completion.
    """
    ords: Dict[NodeId, Value] = {}
    for f in sorted(keep, key=lambda s: (-board.dim(s), s)):
        floor = _order_floor(board, gens, ords, f)
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
        elif is_finite(floor) and bump:
            v = max(floor, Fraction(1) + bump)
        else:
            v = floor
        if force_one and v != Fraction(1):
            return None
        if is_finite(v) and v < floor:  # the floor is at least 1
            return None
        ords[f] = v
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
        pe = exceptional_cap(c, z)
        d_ok = (c.d == board0.n and is_finite(pe) and pe >= 1) or (
            c.d == board0.n - 1 and not is_finite(pe)
        )
        if not d_ok:
            keep.discard(e)

    keep -= {x for x in keep if board1.dim(x) > c.d}

    keep -= {x for _, hit in cleared_nodes(c, bt, keep) for x in hit}

    cf = complete_factor(c)
    if cf is not None:
        cf1 = capped_transport(c, bt, cf)
        keep -= {x for x in keep if extend_factor(board1, cf1, x) < 1}

    if is_tight(c):
        gens1 = blowup_jibs(c, bt)[1].generators
        # One pass: while every other kept node sits at order 1, a floor can
        # only fall as nodes leave, so a second pass would remove nothing.
        ones = {x: Fraction(1) for x in keep}
        for x in sorted(keep):
            if board1.dim(x) == c.d:
                keep.discard(x)
                continue
            rest = {t: w for t, w in ones.items() if t != x}
            if _order_floor(board1, gens1, rest, x) != Fraction(1):
                keep.discard(x)

    # down-closedness is absolute: a kept node needs every node below it kept
    return frozenset(x for x in keep if board1.down_set(x) <= keep)


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
        pinned[e] = exceptional_cap(c, bt.center)
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
    state: GameState,
    bt: BoardTransform,
    root_new: Scenario,
    bump: Fraction,
    discards: FrozenSet[int],
    relations: Dict[int, QuestRelation],
    interned: Dict[Scenario, Scenario],
    children: Dict[tuple, Optional[Scenario]],
) -> Optional[Bundle]:
    """The bundle around a root response. ``discards`` is
    ``blowup_discards(state, bt)`` and ``relations`` maps each surviving
    child, in id order, to its call transported onto the new board; both
    depend on the board alone.

    ``interned`` and ``children`` are shared by the candidates of one board.
    ``interned`` maps every response built to the first equal one, and
    ``children`` maps (quest id, id of the parent's response, and the bump
    for descent) to the child built for it, None when it has none. Every
    parent response is held by ``interned``, so its id cannot pass to
    another object."""
    root_new = interned.setdefault(root_new, root_new)
    responses: Dict[int, Scenario] = {0: root_new}
    for qid, rel_new in relations.items():
        quest = state.quests[qid]
        parent_new = responses[quest.parent_id]
        key = (qid, id(parent_new), bump) if rel_new.kind == DESCENT else (qid, id(parent_new))
        if key in children:
            resp = children[key]
        else:
            resp = _child_blowup_response(rel_new, parent_new, quest.scenario, bt, bump)
            if resp is not None:
                resp = interned.setdefault(resp, resp)
            children[key] = resp
        if resp is None:
            return None
        responses[qid] = resp
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


# ---- the adversarial stop ------------------------------------------------------


def _root_order_ceiling(
    c: Scenario, bt: BoardTransform, nodes: Iterable[NodeId]
) -> Dict[NodeId, Value]:
    """An upper bound on the order of each of ``nodes`` in every root
    response on ``bt``, whatever the keep and bump: the order
    ``_blowup_response`` pins there, and INF where the order is free. The
    nodes must lie over c's singular set."""
    board1 = bt.target
    e = bt.exceptional
    cf = complete_factor(c)
    if cf is not None:
        cf1 = capped_transport(c, bt, cf)
        return {x: extend_factor(board1, cf1, x) for x in nodes}
    if is_tight(c):
        return dict.fromkeys(nodes, Fraction(1))
    return {
        x: exceptional_cap(c, bt.center) if x == e
        else INF if board1.leq(x, e)
        else c.ord[bt.retract[x]]
        for x in nodes
    }


def _order_ceilings(
    state: GameState,
    bt: BoardTransform,
    keep_max: FrozenSet[NodeId],
    relations: Dict[int, QuestRelation],
) -> Dict[int, Dict[NodeId, Value]]:
    """ω_q for the root (quest 0) and each child in ``relations``: the nodes
    q's response can hold singular in any bundle on ``bt``, each with an
    upper bound on its order there. The nodes are D_q, so S_q lies within
    keep & D_q.

    Every call gives S_child within S_parent: transversality keeps the nodes
    below every jib of K, at order 1; quotient keeps x while ω_p(x) - ext(x)
    can reach the scale (over an infinite ext, a finite order has no
    response at all), and bounds its order by min(ω_p, (ω_p - ext)/q),
    which rises with the parent's order; relaxation copies S and orders;
    descent copies S and frees the orders."""
    board1 = bt.target
    ceilings = {0: _root_order_ceiling(state.root.scenario, bt, keep_max)}
    for qid, rel in relations.items():  # parents come before their children
        parent = ceilings[state.quests[qid].parent_id]
        if rel.kind == TRANSVERSALITY and rel.jibs:
            ceiling = {
                x: Fraction(1) for x in parent if all(board1.leq(x, h) for h in rel.jibs)
            }
        elif rel.kind == QUOTIENT:
            ceiling = {}
            for x, w in parent.items():
                ext = extend_factor(board1, rel.factor, x)
                if ext is INF and w is not INF:
                    continue  # quotient_response refuses x singular here
                resid = w - ext
                if resid >= rel.scale:
                    scaled = resid / rel.scale
                    ceiling[x] = w if w <= scaled else scaled
        elif rel.kind == DESCENT:
            ceiling = dict.fromkeys(parent, INF)
        else:  # relaxation, and transversality with K empty, copy S and orders
            ceiling = parent
        ceilings[qid] = ceiling
    return ceilings


def _keep_bound(ceilings: Dict[int, Dict[NodeId, Value]], keep: FrozenSet[NodeId]) -> int:
    """UB(keep): no bundle whose root keeps ``keep`` has a larger total |S|
    than the sum over the quests of |keep & D_q|."""
    return sum(len(keep & ceiling.keys()) for ceiling in ceilings.values())


def enumerate_blowup_bundles(
    state: GameState,
    z: NodeId,
    policy: Policy,
    truncated: Optional[List[str]] = None,
    pool: Optional[List[Bundle]] = None,
) -> Iterator[Bundle]:
    """Valid bundles for a blowup at z, largest-keep and lowest-orders first.

    The policy decides which boards are enumerated. The choosing policies
    answer on the full blowup board (raising CapError when it busts
    max_new_nodes); under ``EXPLORE`` every fitting subset of fresh nodes is
    tried, largest first, which is how the explorer branches.

    The stream is not exhaustive when it stops at ``_CANDIDATE_CAP`` or when
    a keep set is too wide to enumerate and is repaired instead. When that
    happens, a reason is added to ``truncated`` (if given and not already
    there).

    ``pool`` is the caller's list of the bundles it has taken from this
    stream so far (``_choose`` fills it). Given one under the adversarial
    policy, the stream stops before starting a keep once the incumbent, the
    pool's largest total |S|, is strictly greater than UB(k) for every keep
    k not yet started. UB(k) is ``_keep_bound``: the sum over the quests of
    |k & D_q| (``_order_ceilings``). It is admissible: each response's S
    lies within the keep and within its quest's D_q, and both are fixed per
    blown-up board. Enumerated keeps are started in a fixed order, so the
    stop reads a suffix maximum of their bounds; the repair path reads the
    maximum over its live list, whose later keeps are subsets of the keeps
    in it and so have no larger bound. No later bundle can then be the
    first of highest ``_bundle_score`` in the pool, inside the 64-bundle
    window or after it. A tie on total |S| does not stop the search,
    because mass can still break it. The stop is exact, so it adds no
    reason to ``truncated``; the other policies and a caller without a
    pool get the whole stream.

    Each keep is sieved once on scenario issue 9 before any orders are
    assigned. That check reads only the root response's board, d, H, S and M;
    S is the keep, and H and M are fixed by the blowup, so a keep that fails
    it fails at every bump level and is skipped whole. H1 and M1 are the one
    pair ``blowup_jibs`` stores on ``bt``, so the heavy jib sets of each node
    are worked out once, in M1's table, for all keeps and for the umpire's
    check of every root response built here. The skip is exact: it
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
    if policy.kind == EXPLORE:
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
    bounded = pool is not None and policy.kind == ADVERSARIAL
    best, taken = -1, 0  # the incumbent's total |S|; bundles of pool scored

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
        discards = blowup_discards(state, bt)
        relations = {
            quest.quest_id: transport_relation(quest.relation, bt)
            for quest in sorted(state.open_quests(), key=lambda q: q.quest_id)
            if quest.parent_id is not None and quest.quest_id not in discards
        }
        interned: Dict[Scenario, Scenario] = {}
        children: Dict[tuple, Optional[Scenario]] = {}
        tried = set(keeps)
        if bounded:
            ceilings = _order_ceilings(state, bt, keep_max, relations)
            rest = [0]  # rest[j]: the largest bound among the last j keeps
            for k in reversed(keeps):
                rest.append(max(rest[-1], _keep_bound(ceilings, k)))
        while keeps:
            if bounded and pool:
                best = max([best] + [_bundle_score(b)[0] for b in pool[taken:]])
                taken = len(pool)
                beyond = (
                    max(_keep_bound(ceilings, k) for k in keeps) if repair
                    else rest[len(keeps)]
                )
                if best > beyond:
                    break
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
                bundle = _assemble_blowup(
                    state, bt, root_new, bump, discards, relations, interned, children
                )
                if bundle is None or bundle.responses in yielded:
                    continue
                violations = validate_bundle(state, Move.blowup(z), bundle)
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
        # A child equal to an open quest's scenario is that object, so at the
        # next blowup the two quests share their checks as well.
        child = next((sc for sc in responses.values() if sc == child), child)
        bundle = Bundle(transform=bt, responses=dict(responses), child=child)
        if not validate_bundle(state, move, bundle):
            yield bundle


# ---- the policy front door -----------------------------------------------------


def _choose(
    state: GameState,
    policy: Policy,
    stream: Iterator[Bundle],
    what: str,
    truncated=(),
    pool: Optional[List[Bundle]] = None,
) -> Bundle:
    """The policy's pick among the leading bundles of ``stream``. A stream
    without one raises CapError if it reported itself cut short in
    ``truncated``, and NoValidBundle if it was complete.

    Each bundle taken is appended to ``pool`` before the next is asked for,
    so a blowup stream given the same list sees the incumbent and may stop
    once no bundle still to come can beat it: adversarial plays the first
    bundle of highest ``_bundle_score``, and the stream stops only on a
    strict win on total |S| (see ``enumerate_blowup_bundles``)."""
    size = {CANONICAL: 1, RANDOM: _RANDOM_POOL, ADVERSARIAL: _ADVERSARIAL_POOL}.get(policy.kind)
    if size is None:
        raise ValueError(f"policy {policy.kind!r} does not choose a bundle")
    pool = [] if pool is None else pool
    for bundle in islice(stream, size):
        pool.append(bundle)
    if not pool and truncated:
        reasons = "; ".join(truncated)
        raise CapError(f"search for {what} cut short before its first valid bundle: {reasons}")
    if not pool:
        raise NoValidBundle(f"no valid bundle for {what}")
    if policy.kind == RANDOM:
        return policy.rng(state.round_no).choice(pool)
    # canonical plays its first bundle; adversarial the first of highest score
    return pool[0] if policy.kind == CANONICAL else max(pool, key=_bundle_score)


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
    truncated: List[str] = []
    pool: List[Bundle] = []
    stream = enumerate_blowup_bundles(state, z, policy, truncated, pool)
    return _choose(state, policy, stream, f"blowup at {z}", truncated, pool)


def respond(state: GameState, move: Move, policy: Policy) -> Bundle:
    if move.kind == CALL:
        return respond_call(state, move, policy)
    if move.kind == BLOWUP_MOVE:
        return respond_blowup(state, move.center, policy)
    raise ValueError(f"unknown move kind {move.kind!r}")
