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
it. The blown-up board and its fresh node names come from
``board.blowup_transform``, and a call's child from ``quests.call_response``
(descent orders aside). A blowup response takes its handicap and factors
from ``transform.blowup_jibs``, the nodes it must clear from
``transform.cleared_nodes`` (item 13), and its discards from
``game.blowup_discards``. Every order is placed by one rule,
``scenario.assign_orders``: the order the rules fix, or else the floor
(``scenario.order_floor``: at least 1, INF at dimension d, and issues 6
and 8) raised by the bump. The orders the rules fix come as one map: every
order from ``transform.complete_orders`` when the quest has a complete
factor (item 15), and otherwise those of the exceptional node and of every
node off the exceptional locus from ``transform.pinned_orders`` (items
9-10). A fixed order below its floor, so any finite one at dimension d,
or a tight quest's order other than 1 (item 11), leaves no response. The cap on fresh nodes,
``Policy.max_new_nodes``, is policy, not rule, so Mephisto applies it
itself.

Keeps start largest first (``_down_closed_keeps``), so every stream starts
at keep_max (``_root_keep_max``). The policies without a bound (canonical,
``random:`` and explore) start it before any other keep is listed, and list
the rest only once the stream is read past keep_max's bundles; a canonical
game plays the first valid bundle, which keep_max gives in most blowups.
The adversarial bound reads every keep's bound before it starts one, so it
lists them all first. Either way the keeps start in one order, and the
candidates they count against ``_CANDIDATE_CAP`` are the same.

The sieve is the umpire's own gate, ``game.validate_bundle``, and both
streams judge each candidate against Dido's own move. The verdict is a
``board._memo`` slot on the bundle, keyed by the identities of the state
and the move, so the umpire reads the chosen bundle's verdict instead of
reaching it again. The sieve adds one exact shortcut: a keep set whose
root response must fail scenario issue 9 (``scenario.heavy_jib_violations``)
is skipped before any bundle is built.
Issue 9 reads one table per blown-up board: ``transform.blowup_jibs`` gives
every keep the same handicap H1 and factor set M1, and M1 holds each node's
heavy jib sets with their candidate nodes, so each keep costs set lookups.
The root responses carry the same H1 and M1, so the umpire's issue-9 check
of every candidate reads the same rows.

The adversarial search is a branch and bound (Land and Doig, 1960). A
bundle's first score component is its total |S|. On each blown-up board
every quest q has a ceiling (``_order_ceilings``): a scenario whose S,
called D_q, holds every node q's response can hold singular there, at
orders no lower than the response's. The root's ceiling is
``scenario.assign_orders`` on the largest keep at the policy's top level
L, which raises each free node to max(floor, 1 + L/B); a tight quest's
free floors are 1, and it raises none. A floor only grows with the uppers
it meets and their orders, so that is finite wherever the floor is, and
still no lower than any response's. Each child's is
``quests.call_response`` of its parent's ceiling, since a call's S and
orders can only grow as its parent's do; where the call raises (descent,
which frees the orders, or parameters the ceiling does not admit) the
child's ceiling is its parent's S at order INF. Each response's S lies
within the root's keep and within D_q, so UB(keep) = sum over quests of
|keep & D_q| is admissible. Lower root orders leave fewer nodes to a
quotient child, so the finite ceiling stops streams that INF orders let
run on. The stream keeps its own incumbent, the largest total |S| it has
yielded, and stops before starting a keep once the incumbent is strictly
greater than UB of every keep not yet started. Enumerated keeps start in
a fixed order, so the stop reads a suffix maximum of their bounds; the
repair path reads the maximum over its live list, whose later keeps are
subsets of keeps in it. A tie does not stop the stream, because the mass
can break the tie. The stop is exact: the chosen bundle, and so every
trace, is the one the whole window of leading valid bundles gives, and it
adds no reason to ``truncated``.

Candidates on one blown-up board share their responses. Each response built
there is interned: it is replaced by the first equal response built on that
board, so equal responses are one object and the checks stored for it
(``board._memo``) answer every later candidate. A fixed call's child is
``quests.call_response`` of its parent's new response, which stores it on
that parent: it is built once per parent response object, a repeated root
reuses its whole subtree, and the umpire's ``quests.call_check`` reads the
same child instead of building its own. A descent quest's response is built
for each candidate, by ``_blowup_response`` from the quest's own scenario,
and interned like every other, so its checks too run once per value. A keep
whose nodes all have orders no bump level moves, the fixed ones and INF at
dimension d, in the root's response and in every descent quest's
(``_bump_blind_nodes``), gives the same bundle at every level: it is built
at its first level only, and its other levels are still counted against
``_CANDIDATE_CAP``. Likewise a call's child equal to an open quest's
scenario is that scenario, so the two quests share their checks at the next
blowup.

Order choices use a uniform bump level: level k raises every non-forced free
order to at least 1 + k/B. Optional additions to the transversal set are
never made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations, islice
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from .board import (
    Board,
    BoardTransform,
    FrozenDict,
    NodeId,
    Violation,
    blowup_transform,
    blowup_uppers,
    trivial_refinement,
)
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
    Scenario,
    admissible_centers,
    assign_orders,
    heavy_jib_violations,
    is_tight,
    order_floor,
    zero_factor,
)
from .transform import (
    blowup_jibs,
    cleared_nodes,
    complete_orders,
    pinned_orders,
    transport_relation,
)
from .values import INF, Q, ZERO, Value, is_finite

__all__ = [
    "CANONICAL",
    "RANDOM",
    "ADVERSARIAL",
    "EXPLORE",
    "CapError",
    "NoValidBundle",
    "Policy",
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
    """No valid bundle answers a move."""


@dataclass(frozen=True)
class Policy:
    kind: str = CANONICAL
    seed: int = 0
    max_new_nodes: Optional[int] = None
    max_order_steps: int = 2

    def __post_init__(self) -> None:
        if self.max_new_nodes is not None and self.max_new_nodes < 0:
            raise ValueError(f"max_new_nodes must be at least 0, got {self.max_new_nodes}")
        if self.max_order_steps < 0:
            raise ValueError(f"max_order_steps must be at least 0, got {self.max_order_steps}")

    @classmethod
    def parse(cls, text: str, **caps) -> "Policy":
        """The policy ``text`` names, with the caps (``max_new_nodes``,
        ``max_order_steps``) given in ``caps`` and the others at their
        defaults."""
        if text in (CANONICAL, RANDOM, ADVERSARIAL):
            return cls(text, **caps)
        if text.startswith(RANDOM + ":"):
            try:
                seed = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad policy seed in {text!r}") from None
            return cls(RANDOM, seed, **caps)
        raise ValueError(f"unknown policy {text!r}")

    def rng(self, round_no: int) -> random.Random:
        return random.Random(self.seed * 1000003 + round_no)

    def bump_levels(self) -> Sequence[int]:
        if self.kind == CANONICAL:
            return (0,)
        return tuple(range(self.max_order_steps + 1))


# ---- blowup responses ------------------------------------------------------------


def _root_keep_max(c: Scenario, bt: BoardTransform) -> FrozenSet[NodeId]:
    """The largest singular set any policy will offer after the blowup.

    Forced removals: nodes above the target dimension, nodes the transform
    rules fix (``_fixed_orders``) below issue 4's floor (1, or INF at
    dimension d: ``scenario.order_floor`` with no factors and no uppers),
    such as e when its pin leaves the regime or a node a complete factor
    prices below 1, the sets item 13 clears, and (in a tight quest) nodes of
    dimension d, whose order INF breaks tightness. Every other node of a
    tight quest has floor 1 (issues 6 and 8 carry over from the source, and
    the cap 0 has removed e), so none goes for its floor. Each removal tests
    one node alone; removals cascade upward to keep the set down-closed.
    """
    board1, fixed = bt.target, _fixed_orders(c, bt)
    keep = {x for x in board1.ids if bt.retract[x] in c.S and board1.dim(x) <= c.d}
    keep -= {x for x in keep if x in fixed and fixed[x] < order_floor(board1, c.d, (), {}, x)}
    keep -= {x for _, hit in cleared_nodes(c, bt, keep) for x in hit}
    if is_tight(c):
        keep -= {x for x in keep if board1.dim(x) == c.d}

    # down-closedness is absolute: a kept node needs every node below it kept
    return frozenset(x for x in keep if board1.down_set(x) <= keep)


def _fixed_orders(c: Scenario, bt: BoardTransform) -> Mapping[NodeId, Value]:
    """The orders the transform rules fix for a response to c: every one when
    c has a complete factor (item 15), the pins otherwise (items 9-10)."""
    return complete_orders(c, bt) or pinned_orders(c, bt)


def _blowup_response(
    c: Scenario,
    bt: BoardTransform,
    S1: FrozenSet[NodeId],
    T1: FrozenSet[NodeId],
    bump: Q,
) -> Optional[Scenario]:
    """Carry c through the blowup onto the singular set S1 and transversal
    set T1: handicap i(H) + e, the capped transports of the factors, orders
    fixed where the transform rules fix them (``_fixed_orders``) and placed
    elsewhere by ``scenario.assign_orders`` at ``bump``, and, if c is tight,
    each 1 (item 11). None when no legal choice exists: a fixed order is
    below its floor (INF at dimension d), or a tight quest's is not 1."""
    H1, M1 = blowup_jibs(c, bt)
    board1, gens, fixed = bt.target, M1.generators, _fixed_orders(c, bt)
    ords = assign_orders(board1, c.d, S1, gens, fixed, dict.fromkeys(S1, bump))
    for f, v in ords.items():
        if f in fixed and is_finite(v) and v < order_floor(board1, c.d, gens, ords, f):
            return None
    if is_tight(c) and any(v != 1 for v in ords.values()):
        return None
    return Scenario(board=board1, d=c.d, B=c.B, H=H1, S=S1, T=T1, ord=ords, M=M1)


def _root_response(
    c: Scenario, bt: BoardTransform, keep: FrozenSet[NodeId], bump: Q
) -> Optional[Scenario]:
    """The main quest keeps ``keep`` singular; every fresh node is transversal."""
    fresh = frozenset(bt.target.ids) - frozenset(bt.embed.values())
    T1 = frozenset(bt.embed[s] for s in c.T) | fresh
    return _blowup_response(c, bt, keep, T1, bump)


# ---- bundle assembly -----------------------------------------------------------


def _assemble_blowup(
    state: GameState,
    bt: BoardTransform,
    root_new: Scenario,
    bump: Q,
    relations: Dict[int, QuestRelation],
    interned: Dict[Scenario, Scenario],
) -> Optional[Bundle]:
    """The bundle around a root response. Its discards are
    ``blowup_discards(state, bt)``, stored on ``bt`` for ``state``, and
    ``relations`` maps each surviving child, in id order, to its call
    transported onto the new board; both depend on the board alone.
    ``interned``, shared by the candidates of one board, maps every response
    built to the first equal one. A descent quest's response carries its own
    scenario through the blowup onto its parent response's S and T at
    ``bump``; every other child's is ``quests.call_response`` of its
    parent's."""
    root_new = interned.setdefault(root_new, root_new)
    responses: Dict[int, Scenario] = {0: root_new}
    for qid, rel_new in relations.items():
        quest = state.quests[qid]
        parent_new = responses[quest.parent_id]
        if rel_new.kind == DESCENT:
            resp = _blowup_response(quest.scenario, bt, parent_new.S, parent_new.T, bump)
        else:
            try:
                resp = call_response(parent_new, rel_new)
            except ValueError:  # a lifted quotient factor outside the parent's factors
                resp = None
        if resp is None:
            return None
        responses[qid] = interned.setdefault(resp, resp)
    return Bundle(transform=bt, responses=responses, discards=blowup_discards(state, bt))


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
    return keep.difference(*(board1.up_set(x) for x in bad))


# ---- the adversarial stop ------------------------------------------------------


def _order_ceilings(
    state: GameState,
    bt: BoardTransform,
    keep_max: FrozenSet[NodeId],
    relations: Dict[int, QuestRelation],
    levels: Sequence[int],
) -> Dict[int, Scenario]:
    """The ceiling of the root (quest 0) and of each child in ``relations``
    on ``bt``: a scenario whose S is D_q and whose orders bound q's response
    in every bundle there (see the module docstring). T is left empty: no
    call's S or orders depend on it.

    The root's ceiling holds keep_max at the orders
    ``scenario.assign_orders`` places at the top of the bump ``levels``:
    the orders the rules fix, and elsewhere max(floor, 1 + L/B) for the top
    level L, the largest order any level gives (the floor is INF at
    dimension d). A tight quest's free nodes have floor 1 and must stay at
    1, so there the raise is 0. A floor only grows with the uppers it meets
    and their orders, so no keep at any level assigns more."""
    root = state.root.scenario
    H1, M1 = blowup_jibs(root, bt)
    top = 0 if is_tight(root) else Q(max(levels), root.B)
    ords = assign_orders(
        bt.target, root.d, keep_max, M1.generators, _fixed_orders(root, bt),
        dict.fromkeys(keep_max, top),
    )
    ceilings = {
        0: Scenario(
            board=bt.target, d=root.d, B=root.B, H=H1, S=keep_max, T=(), ord=ords, M=M1
        )
    }
    for qid, rel in relations.items():  # parents come before their children
        parent = ceilings[state.quests[qid].parent_id]
        try:
            ceilings[qid] = call_response(parent, rel)
        except ValueError:  # descent, or parameters the ceiling does not admit
            ceilings[qid] = replace(parent, ord=dict.fromkeys(parent.S, INF))
    return ceilings


def _bump_blind_nodes(
    state: GameState, bt: BoardTransform, relations: Dict[int, QuestRelation]
) -> FrozenSet[NodeId]:
    """The nodes of ``bt.target`` whose order no bump level changes, in the
    root's response and in each descent quest's: the orders the rules fix,
    and the nodes of dimension d, whose floor is INF. Every response's S
    lies within the root's keep, and the call children follow their
    parents, so a keep within this set gives the same bundle, or none, at
    every level."""
    board1 = bt.target
    blind = frozenset(board1.ids)
    descents = [state.quests[qid] for qid, rel in relations.items() if rel.kind == DESCENT]
    for quest in [state.root, *descents]:
        c = quest.scenario
        fixed = _fixed_orders(c, bt)
        blind &= {x for x in board1.ids if x in fixed or board1.dim(x) == c.d}
    return blind


def _keep_bound(ceilings: Dict[int, Scenario], keep: FrozenSet[NodeId]) -> int:
    """UB(keep): no bundle whose root keeps ``keep`` has a larger total |S|."""
    return sum(len(keep & ceiling.S) for ceiling in ceilings.values())


def enumerate_blowup_bundles(
    state: GameState,
    move: Move,
    policy: Policy,
    truncated: Optional[List[str]] = None,
) -> Iterator[Bundle]:
    """Valid bundles for Dido's blowup ``move`` at its center z,
    largest-keep and lowest-orders first. Each candidate is judged against
    ``move`` itself, so its verdict is the ``board._memo`` slot the umpire
    reads when it applies the bundle for the same state and move.

    The policy decides which boards are enumerated. The choosing policies
    answer on the full blowup board (raising CapError when it busts
    max_new_nodes); under ``EXPLORE`` every subset of fresh nodes that fits
    is built, largest first, which is how the explorer branches.

    The stream is not exhaustive when it stops at ``_CANDIDATE_CAP`` or when
    a keep set is too wide to enumerate and is repaired instead. When that
    happens, a reason is added to ``truncated`` (if given and not already
    there).

    Under the adversarial policy the stream stops once no keep still to
    come can beat the largest total |S| it has yielded (see the module
    docstring). Every other policy starts keep_max first and lists the
    other keeps only when it is read past keep_max's bundles, so a
    canonical answer that keep_max gives lists none of them.

    A center the main quest does not admit has no valid bundle, whatever
    the keep: the stream raises NoValidBundle before it builds any board.

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
    z = move.center
    if z not in admissible_centers(root):
        raise NoValidBundle(f"center {z} is not admissible for the main quest")
    ts = blowup_uppers(board, z)
    cap = policy.max_new_nodes
    if policy.kind == EXPLORE:
        largest = len(ts) if cap is None else min(len(ts), cap - 1)  # e is fresh too
        subsets = [
            list(sub)
            for size in range(largest, -1, -1)
            for sub in combinations(ts, size)
        ]
        if not subsets:
            raise CapError(f"no blowup at {z} fits inside max_new_nodes={cap}")
    elif cap is not None and 1 + len(ts) > cap:
        raise CapError(f"blowup at {z} needs {1 + len(ts)} fresh nodes, cap is {cap}")
    else:
        subsets = [ts]
    levels = policy.bump_levels()
    examined = 0
    bounded = policy.kind == ADVERSARIAL
    best = -1  # the incumbent: the largest total |S| yielded so far

    def note(reason: str) -> None:
        reason = f"round {state.round_no + 1}, blowup at {z}: {reason}"
        if truncated is not None and reason not in truncated:
            truncated.append(reason)

    for sub in subsets:
        bt = blowup_transform(board, z, sub)
        keep_max = _root_keep_max(root, bt)
        repair = len(keep_max) > _KEEP_ENUM_LIMIT
        # keep_max is the first keep of every list. The bound reads them all
        # before it starts one; otherwise the rest are listed only once the
        # stream is read past keep_max, which a canonical game seldom does.
        listed = bounded or repair
        keeps = _down_closed_keeps(bt.target, keep_max) if listed else [keep_max]
        if repair:
            note(
                f"{len(keep_max)} keepable nodes exceed {_KEEP_ENUM_LIMIT}; keep sets "
                "were repaired, not enumerated"
            )
        H1, M1 = blowup_jibs(root, bt)
        discards = blowup_discards(state, bt)
        relations = {
            quest.quest_id: transport_relation(quest.relation, bt)
            for quest in state.open_quests()
            if quest.parent_id is not None and quest.quest_id not in discards
        }
        interned: Dict[Scenario, Scenario] = {}
        # under one level there is no later level to skip
        blind = _bump_blind_nodes(state, bt, relations) if len(levels) > 1 else frozenset()
        tried = {keep_max}  # read on the repair path only, where keeps == [keep_max]
        if bounded:
            ceilings = _order_ceilings(state, bt, keep_max, relations, levels)
            rest = [0]  # rest[j]: the largest bound among the last j keeps
            for k in reversed(keeps):
                rest.append(max(rest[-1], _keep_bound(ceilings, k)))
        while keeps:
            if bounded and best > (
                max(_keep_bound(ceilings, k) for k in keeps) if repair
                else rest[len(keeps)]
            ):
                break
            keep = keeps.pop(0)
            # Every level's root response has S = keep, H = H1 and M = M1, so
            # when this holds the sieve would reject each one on scenario
            # issue 9. Its candidates still count, so the cap fires where it did.
            skip = not repair and heavy_jib_violations(bt.target, root.d, H1, keep, M1)
            # When no order of the keep's responses moves with the bump, every
            # level builds the first level's bundle again: the later levels
            # are only counted, so the cap still fires where it did.
            steady = keep <= blind
            # The root's singular set is the keep, so bundles can only repeat
            # within one keep, when two bump levels settle on the same orders.
            yielded: List[Dict[int, Scenario]] = []
            for i, level in enumerate(levels):
                examined += 1
                if examined > _CANDIDATE_CAP:
                    note(f"stopped after {_CANDIDATE_CAP} candidates")
                    return
                if skip or (i and steady):
                    continue
                bump = Q(level, root.B)
                root_new = _root_response(root, bt, keep, bump)
                if root_new is None:
                    continue
                bundle = _assemble_blowup(state, bt, root_new, bump, relations, interned)
                if bundle is None or bundle.responses in yielded:
                    continue
                violations = validate_bundle(state, move, bundle)
                if not violations:
                    yielded.append(bundle.responses)
                    if bounded:
                        best = max(best, _bundle_score(bundle)[0])
                    yield bundle
                elif repair:
                    # Too many keepable nodes to enumerate subsets: shed the
                    # nodes the child responses rejected and try again.
                    smaller = _shrink_keep(bt.target, keep, violations)
                    if smaller is not None and smaller not in tried:
                        tried.add(smaller)
                        keeps.append(smaller)
            if not listed:
                keeps = _down_closed_keeps(bt.target, keep_max)[1:]
                listed = True


def _descent_call_child(c: Scenario, bump: Q) -> Scenario:
    """The descent child at level ``bump``, its orders placed by
    ``scenario.assign_orders``. Nothing is fixed, so every order is INF, the
    floor or above it, and one always exists."""
    gens = (zero_factor(frozenset()),)
    ords = assign_orders(c.board, c.d - 1, c.S, gens, {}, dict.fromkeys(c.S, bump))
    return Scenario(
        board=c.board, d=c.d - 1, B=c.B, H=(), S=c.S, T=c.T, ord=ords, M=gens,
    )


def enumerate_call_bundles(
    state: GameState, move: Move, policy: Policy
) -> Iterator[Bundle]:
    """Valid bundles for a call: every open quest unchanged, plus the child.

    A descent child's orders are free, so it is built at each bump level of
    the policy. Every other call fixes its child (``quests.call_response``),
    so it has one candidate; when that one is illegal, the stream raises
    NoValidBundle naming the first violation of its verdict."""
    quest = state.quests.get(move.quest_id)
    if quest is None or quest.status != OPEN:
        raise NoValidBundle(f"quest {move.quest_id} is not open")
    rel = move.relation
    parent = quest.scenario
    bt = trivial_refinement(state.board)
    responses = FrozenDict((q.quest_id, q.scenario) for q in state.open_quests())

    if rel.kind == DESCENT:
        children = (
            _descent_call_child(parent, Q(level, parent.B))
            for level in policy.bump_levels()
        )
    else:
        try:
            children = [call_response(parent, rel)]
        except ValueError as exc:
            raise NoValidBundle(f"illegal call: {exc}") from exc
    seen: List[Scenario] = []
    for child in children:
        if child in seen:
            continue
        seen.append(child)
        # A child equal to an open quest's scenario is that object, so at the
        # next blowup the two quests share their checks as well.
        child = next((sc for sc in responses.values() if sc == child), child)
        bundle = Bundle(transform=bt, responses=responses, child=child)
        violations = validate_bundle(state, move, bundle)
        if not violations:
            yield bundle
        elif rel.kind != DESCENT:
            raise NoValidBundle(f"illegal call on quest {move.quest_id}: {violations[0]}")


# ---- the policy front door -----------------------------------------------------


def _choose(
    state: GameState,
    policy: Policy,
    stream: Iterator[Bundle],
    what: str,
    truncated=(),
) -> Bundle:
    """The policy's pick among the leading bundles of ``stream``. A stream
    without one raises CapError if it reported itself cut short in
    ``truncated``, and NoValidBundle if it was complete."""
    size = {CANONICAL: 1, RANDOM: _RANDOM_POOL, ADVERSARIAL: _ADVERSARIAL_POOL}.get(policy.kind)
    if size is None:
        raise ValueError(f"policy {policy.kind!r} does not choose a bundle")
    pool = list(islice(stream, size))
    if not pool and truncated:
        reasons = "; ".join(truncated)
        raise CapError(f"search for {what} cut short before its first valid bundle: {reasons}")
    if not pool:
        raise NoValidBundle(f"no valid bundle for {what}")
    if policy.kind == RANDOM:
        return policy.rng(state.round_no).choice(pool)
    # canonical plays its first bundle; adversarial the first of highest score
    return pool[0] if policy.kind == CANONICAL else max(pool, key=_bundle_score)


def _bundle_score(bundle: Bundle) -> Tuple[int, Q]:
    total_s = 0
    mass = ZERO
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


def respond_blowup(state: GameState, move: Move, policy: Policy) -> Bundle:
    truncated: List[str] = []
    stream = enumerate_blowup_bundles(state, move, policy, truncated)
    return _choose(state, policy, stream, f"blowup at {move.center}", truncated)


def respond(state: GameState, move: Move, policy: Policy) -> Bundle:
    if move.kind == CALL:
        return respond_call(state, move, policy)
    if move.kind == BLOWUP_MOVE:
        return respond_blowup(state, move, policy)
    raise ValueError(f"unknown move kind {move.kind!r}")
