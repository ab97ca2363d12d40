"""Boards: finite posets with dimension labels, and transforms between them.

A board is the Hasse diagram of a finite poset together with a strictly
monotone dimension label per node and a unique top node. Transforms come in
two kinds, refinement and blowup, each given by an embedding ``i`` of the
source into the target and a retract ``u`` back; the seven numbered checks
of ``validate_board_transform`` police them.

Everything here is immutable after construction and safe to share. That is
what lets a check be answered once: ``_memo`` stores a check's verdict on the
value it describes, and the package's rule checks use it.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import lru_cache
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

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "issue": self.issue,
            "witness": list(self.witness),
            "detail": self.detail,
        }

    def __str__(self) -> str:
        w = ", ".join(self.witness)
        return f"[{self.rule} / issue {self.issue}] {self.detail} (witness: {w})"


class FrozenDict(dict):
    """A dict that refuses every change after construction.

    It hashes like the frozenset of its items, so it agrees with ``==``.
    ``copy`` and ``deepcopy`` share it instead of rebuilding it, which also
    keeps the identity of the ``INF`` values it holds.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is immutable")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __copy__(self) -> "FrozenDict":
        return self

    def __deepcopy__(self, memo) -> "FrozenDict":
        return self

    def __reduce__(self):
        return (FrozenDict, (dict(self),))


def _memo(owner, others: tuple, check: Callable, *args):
    """``check(*args)``, evaluated once per identical ``owner`` and ``others``.

    The verdict is stored on ``owner``, an immutable value the check
    describes, one per ``check``, together with the identity of ``others``:
    it answers only a call with those very objects, and an equal but
    distinct input is checked afresh. ``others`` are held by weak reference,
    so a memo never keeps another object (say, the scenario of an earlier
    round) alive. A list of violations is stored as a tuple and every call
    gets a fresh list; any other verdict must be immutable and is returned
    as it is.
    """
    # object.__setattr__, not owner.__dict__: reading __dict__ would turn the
    # instance's inline attribute values into a dict and slow every later
    # attribute read of the scenario.
    memo = getattr(owner, "_memo", None)
    if memo is None:
        memo = {}
        object.__setattr__(owner, "_memo", memo)
    hit = memo.get(check)
    if hit is not None and all(ref() is x for ref, x in zip(hit[0], others)):
        verdict = hit[1]
    else:
        verdict = check(*args)
        if isinstance(verdict, list):
            verdict = tuple(verdict)
        memo[check] = (tuple(map(weakref.ref, others)), verdict)
    return list(verdict) if isinstance(verdict, tuple) else verdict


def _state_without_memo(owner) -> dict:
    """``__getstate__`` of a ``_memo`` owner: its fields without the stored
    verdicts, which hold weak references and describe this very instance, so
    that no verdict crosses a pickle or a deep copy."""
    state = dict(owner.__dict__)
    state.pop("_memo", None)
    return state


_FRESH_RE = re.compile(r"^[eq](\d+)$")


class Board:
    """Immutable annotated poset.

    ``dims`` maps node id to its dimension label; ``covers`` are the Hasse
    edges (a, b) meaning a < b with nothing in between. The full order is
    the transitive closure, precomputed here since boards stay small.
    """

    __slots__ = (
        "_dims", "_covers", "_ids", "_down", "_up", "_maximal", "_fresh_start", "_hash",
    )

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
        object.__setattr__(
            self, "_maximal", tuple(s for s in self._ids if len(up[s]) == 1)
        )

        fresh = 0
        for s in dims:
            m = _FRESH_RE.match(s)
            if m:
                fresh = max(fresh, int(m.group(1)) + 1)
        object.__setattr__(self, "_fresh_start", fresh)
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

    # Immutable: a copy is the board itself, a pickle rebuilds it from dims and covers.
    def __copy__(self) -> "Board":
        return self

    def __deepcopy__(self, memo) -> "Board":
        return self

    def __reduce__(self):
        return (Board, (self._dims, self._covers))

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

    def leq(self, s: NodeId, t: NodeId) -> bool:
        """True iff s <= t in the order generated by the covers."""
        if s not in self._dims:
            raise KeyError(f"unknown node id {s!r}")
        if t not in self._dims:
            raise KeyError(f"unknown node id {t!r}")
        return s in self._down[t]

    def lt(self, s: NodeId, t: NodeId) -> bool:
        return s != t and self.leq(s, t)

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
        """The board dimension: the dimension of the top node."""
        return self.dim(self.top)

    @property
    def fresh_start(self) -> int:
        """First counter value whose 'e<k>'/'q<k>' ids are unused on this board."""
        return self._fresh_start

    # ---- equality / hashing -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Board):
            return NotImplemented
        return self._dims == other._dims and self._covers == other._covers

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Board({len(self._dims)} nodes, top-hunt {self._maximal})"


def validate_board(b: Board) -> List[Violation]:
    """Check the three board invariants; returns violations, never raises."""
    return list(_validate_board_cached(b))


@lru_cache(maxsize=1024)
def _validate_board_cached(b: Board) -> Tuple[Violation, ...]:
    out: List[Violation] = []

    for s in b.ids:
        if b.dim(s) < 0:
            out.append(Violation("board", "dim-negative", (s,), f"dim({s}) = {b.dim(s)} < 0"))

    # Acyclicity: a cycle makes two distinct nodes mutually reachable.
    cyclic = sorted(s for s in b.ids for t in b.ids if s != t and b.leq(s, t) and b.leq(t, s))
    if cyclic:
        out.append(
            Violation("board", "acyclic", tuple(dict.fromkeys(cyclic)), "covers contain a cycle")
        )
        return tuple(out)  # dims along a cycle cannot be monotone; stop here

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
    return tuple(out)


@dataclass(frozen=True)
class BoardTransform:
    """A refinement or blowup: target board plus the (i, u) map pair.

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

    __getstate__ = _state_without_memo

    @property
    def exceptional(self) -> NodeId:
        if self.kind != BLOWUP:
            raise ValueError("only blowups have an exceptional node")
        return self.embed[self.center]

    def fiber(self, s: NodeId) -> FrozenSet[NodeId]:
        """u^{-1}(s): the target nodes retracting onto s."""
        return frozenset(x for x, y in self.retract.items() if y == s)

    def is_identity(self) -> bool:
        return (
            self.kind == REFINEMENT
            and self.source == self.target
            and all(self.embed[s] == s for s in self.source.ids)
        )


def trivial_refinement(b: Board) -> BoardTransform:
    """The identity transform on b."""
    ident = FrozenDict((s, s) for s in b.ids)
    return BoardTransform(REFINEMENT, b, b, ident, ident)


def validate_board_transform(t: BoardTransform) -> List[Violation]:
    """Check a transform against the seven numbered issues.

    Issue map: 1 embed-into-fiber-maximum (includes u o i = id), 2 order
    embedding, 3 retract weakly monotone, 4 refinement dims, 5 blowup center,
    6 blowup dims off-center, 7 blowup dims on-center. Structural defects
    (non-total maps, bad kind) are reported as issue "structure".

    The checks read only the transform, so each instance is checked once:
    Mephisto validates every candidate bundle of one blown-up board against
    the same transform. ``dataclasses.replace`` builds a new instance, which
    is checked afresh. Every call returns a fresh list.
    """
    return _memo(t, (), _check_board_transform, t)


def _check_board_transform(t: BoardTransform) -> List[Violation]:
    out: List[Violation] = []
    src, tgt = t.source, t.target
    rule = "board-transform"

    if t.kind not in (REFINEMENT, BLOWUP):
        out.append(Violation(rule, "structure", (), f"unknown kind {t.kind!r}"))
        return out
    for s in src.ids:
        if s not in t.embed or t.embed[s] not in tgt:
            out.append(Violation(rule, "structure", (s,), f"embed undefined or off-target at {s}"))
            return out
    for x in tgt.ids:
        if x not in t.retract or t.retract[x] not in src:
            out.append(Violation(rule, "structure", (x,), f"retract undefined or off-source at {x}"))
            return out
    if t.kind == BLOWUP and (t.center is None or t.center not in src):
        out.append(Violation(rule, "structure", (), "blowup without a source center"))
        return out
    if t.kind == REFINEMENT and t.center is not None:
        out.append(Violation(rule, "structure", (t.center,), "refinement carries a center"))

    # Issue 1: i(s) lies in its own fiber and dominates it.
    for s in src.ids:
        img = t.embed[s]
        if t.retract[img] != s:
            out.append(
                Violation(rule, 1, (s, img), f"u(i({s})) = {t.retract[img]} != {s}")
            )
            continue
        for x in sorted(t.fiber(s)):
            if not tgt.leq(x, img):
                out.append(
                    Violation(
                        rule, 1, (s, x), f"fiber node {x} of {s} not below i({s}) = {img}"
                    )
                )

    # Issue 2: order embedding. For blowups, a "mixed" pair (s below the
    # center, t not) is exempt from the forward direction: the image of s
    # moves into the exceptional locus and need not stay below i(t).
    z = t.center
    for s in src.ids:
        for u in src.ids:
            if s == u:
                continue
            fwd = src.lt(s, u)
            img = tgt.lt(t.embed[s], t.embed[u])
            if img and not fwd:
                out.append(
                    Violation(
                        rule, 2, (s, u), f"i({s}) < i({u}) in target but {s} < {u} fails in source"
                    )
                )
            if fwd and not img:
                mixed = t.kind == BLOWUP and src.leq(s, z) and not src.leq(u, z)
                if not mixed:
                    out.append(
                        Violation(
                            rule, 2, (s, u), f"{s} < {u} in source but i({s}) < i({u}) fails in target"
                        )
                    )

    # Issue 3: u weakly monotone.
    for x in tgt.ids:
        for y in tgt.ids:
            if x != y and tgt.lt(x, y) and not src.leq(t.retract[x], t.retract[y]):
                out.append(
                    Violation(
                        rule, 3, (x, y), f"{x} < {y} in target but u({x}) !<= u({y}) in source"
                    )
                )

    if t.kind == REFINEMENT:
        # Issue 4: dimensions preserved.
        for s in src.ids:
            if tgt.dim(t.embed[s]) != src.dim(s):
                out.append(
                    Violation(
                        rule, 4, (s,), f"dim(i({s})) = {tgt.dim(t.embed[s])} != dim({s}) = {src.dim(s)}"
                    )
                )
        return out

    # Blowup issues 5-7.
    n = src.n
    if z == src.top:
        out.append(Violation(rule, 5, (z,), "the top node may not be a blowup center"))
    shift = n - 1 - src.dim(z)
    for s in src.ids:
        want = src.dim(s) + shift if src.leq(s, z) else src.dim(s)
        got = tgt.dim(t.embed[s])
        if got != want:
            issue = 7 if src.leq(s, z) else 6
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
    try:
        dims = {node["id"]: node["dim"] for node in data["nodes"]}
        covers = [(a, c) for a, c in data["covers"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed board JSON: {exc}") from exc
    if len(dims) != len(data["nodes"]):
        raise ValueError("malformed board JSON: duplicate node id")
    return Board(dims, covers)


def board_to_dot(b: Board, highlight: Iterable[NodeId] = ()) -> str:
    """GraphViz rendering; edges point upward (covered node -> covering node)."""
    hi = set(highlight)
    lines = ["digraph board {", "  rankdir=BT;", '  node [shape=ellipse, fontname="Helvetica"];']
    for s in b.ids:
        style = ', style=filled, fillcolor="lightblue"' if s in hi else ""
        lines.append(f'  "{s}" [label="{s}\\ndim {b.dim(s)}"{style}];')
    for a, c in sorted(b.covers):
        lines.append(f'  "{a}" -> "{c}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
