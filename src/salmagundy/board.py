"""Boards: finite posets with dimension labels, and transforms between them.

A board is the Hasse diagram of a finite poset together with a strictly
monotone dimension label per node and a unique top node. A transform is an
embedding ``i`` of the source into the target and a retract ``u`` back. The
board changes only by a blowup at a center. This module builds it
(``blowup_transform``) beside its check (``validate_board_transform``), and
both read one dimension rule (``_blowup_dims``, issues 6-7). It alone names
nodes: a blowup's fresh nodes are ``e<k>`` and ``q<k>``, numbered past every
such id already on the board. A call round rides on the board's identity
transform (``trivial_refinement``), which the umpire compares by value and
checks no further.

Everything here is immutable after construction and safe to share, so
nothing copies or pickles these values: a deep copy or a pickle round trip
of a board raises. Immutability is what lets a check be answered once:
``_memo(check, *args)`` stores the result on the last argument, its owner,
keyed by the check alone when the owner is its only argument, and otherwise
by the check and the identities of the other arguments, which the slot
holds. A slot lives as long as its owner, so one rule picks owners that
keep no value of a round from storing anything of an earlier round: a
result about one value is stored on that value (its checks, its JSON text
``_json_text``, a board's identity transform ``trivial_refinement``); a
result about a blowup round on the round's transform, which dies with the
round (every ``transform`` result and ``game.blowup_discards``); a call's
child on its parent scenario (``quests.call_response``); a bundle's verdict
on the bundle, in one slot per identity of the state and the move it was
judged against, and only the bundle's round record holds the bundle
(``game.validate_bundle``). A check that
reuses part of its work across inputs (the issue-9 table of
``scenario.heavy_jib_violations``) keeps it in the same per-value dict,
``_memo_of``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "NodeId",
    "Violation",
    "FrozenDict",
    "Board",
    "BoardTransform",
    "validate_board",
    "validate_board_transform",
    "trivial_refinement",
    "blowup_uppers",
    "blowup_transform",
    "board_to_json",
    "board_from_json",
    "board_to_dot",
]

NodeId = str

REFINEMENT = "refinement"
BLOWUP = "blowup"


@dataclass(frozen=True)
class Violation:
    """One failed check: which rule, which numbered issue, and the witnesses."""

    rule: str
    issue: object  # int for numbered issues, short string for structural ones
    witness: Tuple[NodeId, ...]
    detail: str

    def __str__(self) -> str:
        w = ", ".join(map(str, self.witness))  # a malformed input may hold any id
        return f"[{self.rule} / issue {self.issue}] {self.detail} (witness: {w})"


class FrozenDict(dict):
    """A dict that refuses every change after construction.

    It hashes like the frozenset of its items, so it agrees with ``==``. The
    hash is worked out on first use and kept on the instance: a scenario's
    hash, and every lookup that interns one, reads it instead of rehashing
    the whole order map. Until then the class's ``_hash``, None, answers,
    so the first hash raises nothing, and an instance never hashed carries
    no attribute dict.
    """

    __slots__ = ("__dict__",)
    _hash = None

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.items()))
        return h


def _memo_of(owner) -> dict:
    """The dict in which ``owner``, an immutable value, holds what has been
    worked out about it: the results of ``_memo`` and any table a check
    fills in as it goes. It is never part of the owner's equality or
    hash."""
    # object.__setattr__, not owner.__dict__: reading __dict__ would turn the
    # instance's inline attribute values into a dict and slow every later
    # attribute read of the scenario.
    memo = getattr(owner, "_memo", None)
    if memo is None:
        memo = {}
        object.__setattr__(owner, "_memo", memo)
    return memo


def _memo(check: Callable, *args):
    """``check(*args)``, evaluated once per identical ``args``.

    The result is stored on the last argument, its owner by the module's
    rule: the value it is about, a blowup round's transform, or a call's
    parent. A one-argument check has one slot per owner, keyed by the check
    alone, which holds the result. Any other has one slot per ``check`` and
    identity of the other arguments, keyed by the tuple of the check and
    those ids. The slot holds those arguments, so while it lives none of
    them dies and no new object takes its address: it answers only a call
    with those very objects. An equal but distinct input is checked afresh,
    and one value checked against several others (a response under two
    parents, say) keeps every result. The result is returned as stored and
    must not be changed; a validator returns a copy of its stored list.
    """
    owner = args[-1]
    memo = getattr(owner, "_memo", None)  # ``_memo_of``, read inline: every check passes here
    if memo is None:
        memo = {}
        object.__setattr__(owner, "_memo", memo)
    if len(args) == 1:
        if check in memo:
            return memo[check]
        out = memo[check] = check(owner)
        return out
    key = (check, *map(id, args[:-1]))
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (check(*args), args[:-1])
    return hit[0]


# json.dumps(obj, sort_keys=True) without building an encoder per call: the
# one encoding of every trace text.
_encode = json.JSONEncoder(sort_keys=True).encode


def _dumps(to_json: Callable[[object], dict], owner) -> str:
    return _encode(to_json(owner))


def _json_text(owner, to_json: Callable[[object], dict]) -> str:
    """``json.dumps(to_json(owner), sort_keys=True)``, encoded once per
    immutable ``owner`` and stored on it, so the text dies with its value.
    ``to_json`` must be the one formula of the owner's JSON form."""
    return _memo(_dumps, to_json, owner)


class Board:
    """Immutable annotated poset.

    ``dims`` maps node id to its dimension label; ``covers`` are the Hasse
    edges (a, b) meaning a < b with nothing in between. The full order is
    the transitive closure, precomputed here since boards stay small.
    """

    __slots__ = ("_dims", "_covers", "_ids", "_down", "_up", "_maximal", "_n", "_hash", "_memo")

    def __init__(self, dims: Mapping[NodeId, int], covers: Iterable[Tuple[NodeId, NodeId]]):
        dims = dict(dims)
        for s, d in dims.items():
            if not isinstance(s, str) or not s:
                raise ValueError(f"node id must be a non-empty string, got {s!r}")
            if not isinstance(d, int) or isinstance(d, bool):
                raise ValueError(f"dim of {s!r} must be an integer, got {d!r}")
        cov = []
        seen = set()
        for a, b in covers:
            if a not in dims or b not in dims:
                raise ValueError(f"cover ({a!r}, {b!r}) references an unknown node")
            if a == b:
                raise ValueError(f"cover ({a!r}, {b!r}) is a self-loop")
            if (a, b) not in seen:
                seen.add((a, b))
                cov.append((a, b))
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_covers", frozenset(cov))
        object.__setattr__(self, "_ids", tuple(sorted(dims)))

        children: Dict[NodeId, List[NodeId]] = {s: [] for s in dims}
        parents: Dict[NodeId, List[NodeId]] = {s: [] for s in dims}
        for a, b in cov:
            children[b].append(a)
            parents[a].append(b)

        down = {s: self._reach(s, children) for s in dims}
        up = {s: self._reach(s, parents) for s in dims}
        object.__setattr__(self, "_down", down)
        object.__setattr__(self, "_up", up)
        maximal = tuple(s for s in self._ids if len(up[s]) == 1)
        object.__setattr__(self, "_maximal", maximal)
        # the dimension of the top, or None without a unique top
        object.__setattr__(self, "_n", dims[maximal[0]] if len(maximal) == 1 else None)

        object.__setattr__(
            self, "_hash", hash((tuple(sorted(dims.items())), self._covers))
        )

    @staticmethod
    def _reach(start: NodeId, adj: Mapping[NodeId, List[NodeId]]) -> FrozenSet[NodeId]:
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Board is immutable")

    # ---- basic queries -------------------------------------------------

    @property
    def ids(self) -> Tuple[NodeId, ...]:
        return self._ids

    @property
    def covers(self) -> FrozenSet[Tuple[NodeId, NodeId]]:
        return self._covers

    def __contains__(self, s: NodeId) -> bool:
        return s in self._dims

    def __len__(self) -> int:
        return len(self._dims)

    def dim(self, s: NodeId) -> int:
        try:
            return self._dims[s]
        except KeyError:
            raise KeyError(f"unknown node id {s!r}") from None

    def down_set(self, s: NodeId) -> FrozenSet[NodeId]:
        """All nodes <= s (including s)."""
        if s not in self._dims:
            raise KeyError(f"unknown node id {s!r}")
        return self._down[s]

    def up_set(self, s: NodeId) -> FrozenSet[NodeId]:
        """All nodes >= s (including s)."""
        if s not in self._dims:
            raise KeyError(f"unknown node id {s!r}")
        return self._up[s]

    def remote(self, s: NodeId, t: NodeId) -> bool:
        """True iff no node lies below both s and t. Never true for s = t."""
        return not (self.down_set(s) & self.down_set(t))

    def maximal_among(self, nodes: Iterable[NodeId]) -> List[NodeId]:
        """The members of ``nodes`` with no other member above them, sorted."""
        nodes = frozenset(nodes)
        return sorted(s for s in nodes if len(self.up_set(s) & nodes) == 1)

    @property
    def maximal_nodes(self) -> Tuple[NodeId, ...]:
        return self._maximal

    @property
    def top(self) -> NodeId:
        """The unique maximal node; raises if the board does not have one."""
        if len(self._maximal) != 1:
            raise ValueError(f"board has {len(self._maximal)} maximal nodes, not 1")
        return self._maximal[0]

    @property
    def n(self) -> int:
        """The board dimension: the dimension of the top node. Raises as
        ``top`` does if the board does not have one."""
        n = self._n
        return self.dim(self.top) if n is None else n

    # ---- equality / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Board):
            return NotImplemented
        return self._dims == other._dims and self._covers == other._covers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Board({len(self._dims)} nodes, top-hunt {self._maximal})"


def validate_board(b: Board) -> List[Violation]:
    """Check the three board invariants; returns violations, never raises.

    The verdict is stored on ``b``; every call returns a fresh list.
    """
    return list(_memo(_check_board, b))


def _check_board(b: Board) -> List[Violation]:
    out: List[Violation] = []

    for s in b.ids:
        if b.dim(s) < 0:
            out.append(Violation("board", "dim-negative", (s,), f"dim({s}) = {b.dim(s)} < 0"))

    # Acyclicity: a node on a cycle has another node both below and above it.
    cyclic = tuple(s for s in b.ids if len(b.down_set(s) & b.up_set(s)) > 1)
    if cyclic:
        out.append(Violation("board", "acyclic", cyclic, "covers contain a cycle"))
        return out  # dims along a cycle cannot be monotone; stop here

    for a, c in sorted(b.covers):
        if not b.dim(a) < b.dim(c):
            out.append(
                Violation(
                    "board",
                    "monotone-dim",
                    (a, c),
                    f"cover {a} < {c} but dim {b.dim(a)} >= {b.dim(c)}",
                )
            )

    if len(b.maximal_nodes) != 1:
        out.append(
            Violation(
                "board",
                "unique-top",
                b.maximal_nodes,
                f"expected exactly one maximal node, found {len(b.maximal_nodes)}",
            )
        )
    return out


@dataclass(frozen=True)
class BoardTransform:
    """A blowup or the identity refinement: target board plus the (i, u) map
    pair.

    For blowups, ``center`` is the blown-up source node and the exceptional
    node is its image ``embed[center]``. The maps are frozen on construction,
    so a transform is a hashable value that never changes.
    """

    kind: str
    source: Board
    target: Board
    embed: Mapping[NodeId, NodeId]
    retract: Mapping[NodeId, NodeId]
    center: Optional[NodeId] = None

    def __post_init__(self) -> None:
        for name in ("embed", "retract"):
            m = getattr(self, name)
            if not isinstance(m, FrozenDict):
                object.__setattr__(self, name, FrozenDict(m))

    @property
    def exceptional(self) -> NodeId:
        if self.kind != BLOWUP:
            raise ValueError("only blowups have an exceptional node")
        return self.embed[self.center]


def trivial_refinement(b: Board) -> BoardTransform:
    """The identity transform on b: one instance per board, stored on b, so
    every call round on one board rides on the same transform and shares its
    checks and its stored JSON text."""
    return _memo(_identity, b)


def _identity(b: Board) -> BoardTransform:
    ident = FrozenDict((s, s) for s in b.ids)
    return BoardTransform(REFINEMENT, b, b, ident, ident)


# ---- blowups -------------------------------------------------------------

_FRESH_RE = re.compile(r"^[eq](\d+)$")


def blowup_uppers(board: Board, z: NodeId) -> List[NodeId]:
    """The strict uppers of z that earn a fresh node (everything below top)."""
    n = board.n
    return sorted(t for t in board.up_set(z) if t != z and board.dim(t) < n)


def _blowup_dims(board: Board, z: NodeId) -> Dict[NodeId, int]:
    """Issues 6-7: the dimension of each source node's image under a blowup
    at z. The down-set of z rises by n - 1 - dim(z), so the exceptional
    node i(z) has dimension n - 1; every other node keeps its own."""
    below = board.down_set(z)
    shift = board.n - 1 - board.dim(z)
    return {s: board.dim(s) + shift if s in below else board.dim(s) for s in board.ids}


def blowup_transform(
    board: Board, z: NodeId, keep_uppers: Optional[Iterable[NodeId]] = None
) -> BoardTransform:
    """Blow up z: the fiber collapses to one fresh node e of dimension n-1,
    and each kept strict upper t below the top gains a fresh node x_t with
    dim(x_t) = dim(t) - 1, squeezed between e and t. Node ids off the fiber
    are reused, so only the fresh nodes are new.

    The fresh ids are the only node names this package makes up: e is
    ``e<k>`` and the x_t, in the order of t, are ``q<k+1>``, ``q<k+2>``, ...,
    where k is one past the largest index of an ``e``/``q`` id on the board.
    """
    if z not in board:
        raise ValueError(f"unknown center {z}")
    top = board.top
    if z == top:
        raise ValueError("cannot blow up the top node")
    ts = blowup_uppers(board, z)
    if keep_uppers is not None:
        keep = set(keep_uppers)
        if not keep <= set(ts):
            raise ValueError(f"kept uppers {sorted(keep - set(ts))} are not eligible")
        ts = [t for t in ts if t in keep]
    fresh = 1 + max((int(m.group(1)) for m in map(_FRESH_RE.match, board.ids) if m), default=-1)
    e = f"e{fresh}"
    xs = {t: f"q{fresh + 1 + k}" for k, t in enumerate(ts)}
    embed = {s: s for s in board.ids}
    embed[z] = e
    dims = {embed[s]: d for s, d in _blowup_dims(board, z).items()}
    dims.update((x, board.dim(t) - 1) for t, x in xs.items())
    below = board.down_set(z)
    # mixed pairs (a below z, b not) lose their edge
    covers = [(embed[a], embed[b]) for a, b in board.covers if a not in below or b in below]
    for t, x in xs.items():
        covers += [(x, e), (x, t)]
    covers.append((e, top))
    retract = {embed[s]: s for s in board.ids}  # e = embed[z] retracts to z
    retract.update(dict.fromkeys(xs.values(), z))
    return BoardTransform(BLOWUP, board, Board(dims, covers), embed, retract, z)


def validate_board_transform(t: BoardTransform) -> List[Violation]:
    """Check a blowup against the numbered issues 1-3 and 5-7.

    Issue map: 1 embed-into-fiber-maximum (includes u o i = id), 2 order
    embedding, 3 retract weakly monotone, 5 blowup center, 6 blowup dims
    off-center, 7 blowup dims on-center. The numbers are kept from when
    refinements had issue 4, so that violation tags do not shift.
    Structural defects (non-total maps, a kind other than blowup, no center)
    are reported as issue "structure". Each issue is checked row by row, one
    node against its up-set, never pair by pair.

    The checks read only the transform, so each instance is checked once:
    Mephisto validates every candidate bundle of one blown-up board against
    the same transform. ``dataclasses.replace`` builds a new instance, which
    is checked afresh. Every call returns a fresh list.
    """
    return list(_memo(_check_board_transform, t))


def _check_board_transform(t: BoardTransform) -> List[Violation]:
    out: List[Violation] = []
    src, tgt = t.source, t.target
    rule = "board-transform"

    if t.kind != BLOWUP:
        out.append(Violation(rule, "structure", (), f"kind {t.kind!r} is not a blowup"))
        return out
    for s in src.ids:
        if s not in t.embed or t.embed[s] not in tgt:
            out.append(Violation(rule, "structure", (s,), f"embed undefined or off-target at {s}"))
            return out
    for x in tgt.ids:
        if x not in t.retract or t.retract[x] not in src:
            out.append(Violation(rule, "structure", (x,), f"retract undefined or off-source at {x}"))
            return out
    stray = set(t.embed).difference(src.ids) | set(t.retract).difference(tgt.ids)
    if stray:
        out.append(Violation(rule, "structure", tuple(sorted(stray)), "map defined off its board"))
        return out
    z = t.center
    if z is None or z not in src:
        out.append(Violation(rule, "structure", (), "blowup without a source center"))
        return out
    i, u = t.embed, t.retract

    # Issue 1: i(s) lies in its own fiber and dominates it.
    fibers: Dict[NodeId, List[NodeId]] = {s: [] for s in src.ids}
    for x in tgt.ids:
        fibers[u[x]].append(x)
    for s in src.ids:
        img = i[s]
        if u[img] != s:
            out.append(Violation(rule, 1, (s, img), f"u(i({s})) = {u[img]} != {s}"))
            continue
        below = tgt._down[img]
        for x in fibers[s]:
            if x not in below:
                out.append(
                    Violation(
                        rule, 1, (s, x), f"fiber node {x} of {s} not below i({s}) = {img}"
                    )
                )

    # Issue 2: order embedding, row by row: the nodes strictly above s must
    # be the nodes whose images lie strictly above i(s). For a blowup, a
    # "mixed" pair (s below the center, u not) is exempt from the forward
    # direction: the image of s moves into the exceptional locus and need
    # not stay below i(u).
    preimages: Dict[NodeId, List[NodeId]] = {}
    for s in src.ids:
        preimages.setdefault(i[s], []).append(s)
    below_z = src._down[z]
    for s in src.ids:
        above = src._up[s] - {s}
        img_above = {
            v for x in tgt._up[i[s]] if x != i[s] for v in preimages.get(x, ())
        }
        for v in sorted(above ^ img_above):
            if v in img_above:
                out.append(
                    Violation(
                        rule, 2, (s, v), f"i({s}) < i({v}) in target but {s} < {v} fails in source"
                    )
                )
            elif not (s in below_z and v not in below_z):
                out.append(
                    Violation(
                        rule, 2, (s, v), f"{s} < {v} in source but i({s}) < i({v}) fails in target"
                    )
                )

    # Issue 3: u weakly monotone, row by row: everything strictly above x
    # retracts into the up-set of u(x).
    for x in tgt.ids:
        up = src._up[u[x]]
        for y in sorted(tgt._up[x] - {x}):
            if u[y] not in up:
                out.append(
                    Violation(
                        rule, 3, (x, y), f"{x} < {y} in target but u({x}) !<= u({y}) in source"
                    )
                )

    # Issues 5-7.
    n = src.n
    if z == src.top:
        out.append(Violation(rule, 5, (z,), "the top node may not be a blowup center"))
    for s, want in _blowup_dims(src, z).items():
        got = tgt.dim(i[s])
        if got != want:
            issue = 7 if s in below_z else 6
            out.append(
                Violation(
                    rule,
                    issue,
                    (s,),
                    f"dim(i({s})) = {got}, expected {want} (center {z}, board dim {n})",
                )
            )
    return out


# ---- serialization -----------------------------------------------------


def board_to_json(b: Board) -> dict:
    return {
        "nodes": [{"id": s, "dim": b.dim(s)} for s in b.ids],
        "covers": sorted([a, c] for a, c in b.covers),
    }


def board_from_json(data: dict) -> Board:
    """The board ``data`` records: ``"nodes"``, a list of objects with an
    ``"id"`` and a ``"dim"``, and ``"covers"``, a list of [lower, upper] node
    id pairs. Raises ValueError for any other form and a duplicate id."""
    try:
        nodes, covers = data["nodes"], data["covers"]
        if type(nodes) is not list or not all(type(node) is dict for node in nodes):
            raise ValueError(f"malformed board JSON: nodes {nodes!r} is not a list of objects")
        dims = {node["id"]: node["dim"] for node in nodes}
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed board JSON: {exc}") from exc
    if type(covers) is not list or not all(
        type(cover) is list and len(cover) == 2 and type(cover[0]) is type(cover[1]) is str
        for cover in covers
    ):
        raise ValueError(f"malformed board JSON: covers {covers!r} is not a list of id pairs")
    if len(dims) != len(nodes):
        raise ValueError("malformed board JSON: duplicate node id")
    return Board(dims, covers)


def _dot_escape(text: str) -> str:
    """``text`` as the inside of a quoted DOT string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def board_to_dot(b: Board) -> str:
    """GraphViz rendering; edges point upward (covered node -> covering node)."""
    lines = ["digraph board {", "  rankdir=BT;", '  node [shape=ellipse, fontname="Helvetica"];']
    for s in b.ids:
        q = _dot_escape(s)
        lines.append(f'  "{q}" [label="{q}\\ndim {b.dim(s)}"];')
    for a, c in sorted(b.covers):
        lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(c)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
