"""Scenarios: the per-quest game state and its nine validity checks.

A scenario attaches to a board: a dimension ``d`` and grid bound ``B``, the
jib set ``H`` (codimension-one obstacles), the singular set ``S`` with its
order function, the transversal set ``T`` (allowed blowup centers), and a
set of monomial factors ``M``.

``M`` is an infinite, downward-closed family of weight functions on ``H``;
it is represented by the finite antichain of its maximal elements (the
generators). Generator weights may be infinite: blowing up a node of
infinite order produces an unbounded family of factors, and the infinite
coordinate encodes the missing cap. All checks quantified over members of
``M`` are evaluated exactly against this representation.

Each value has one constructor, which normalises its input: a factor is a
``board.FrozenDict`` from jib to weight, and a ``Scenario`` freezes its parts
however it is built. ``FactorSet.of`` prunes generators to their antichain;
the raw ``FactorSet`` keeps them, so that a file's set can be judged.

Every order has a floor under the orders of its node's uppers: 1, INF at
dimension d (issue 4), every factor's extension (issue 6), and each upper's
order plus the factor mass separating the two (issue 8). ``_floor_terms``
lists these bounds, which the umpire checks every order of S against;
``order_floor`` is the largest, and ``assign_orders`` places the orders of
a set of nodes top-down at their floors: the one rule by which Mephisto's
blowup responses, descent children and adversarial ceilings, and
``harness.gen_scenario``, all get their orders.

Issue 9 does not read the orders and reads S only to count singular nodes in
fixed candidate sets, so its per-node part (the heavy jib sets over a node,
each with the nodes that could witness it) is a table of the board, d, H and
M. The table is stored on M (``board._memo_of``) and filled node by node as
nodes are asked about. It dies with M, never enters its equality or hash,
and serves every scenario and keep set that shares M:
after a blowup, every response of a quest shares one M
(``transform.blowup_jibs``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .board import (
    Board,
    FrozenDict,
    NodeId,
    Violation,
    _memo,
    _memo_of,
    board_from_json,
    board_to_json,
    validate_board,
)
from .values import INF, ONE, Q, ZERO, Value, format_value, parse_value

__all__ = [
    "MonomialFactor",
    "FactorSet",
    "Scenario",
    "zero_factor",
    "extend_factor",
    "separation_mass",
    "order_floor",
    "assign_orders",
    "validate_scenario",
    "validate_shape",
    "heavy_jib_sets",
    "heavy_jib_violations",
    "is_tight",
    "complete_factor",
    "admissible_centers",
    "scenario_to_json",
    "scenario_from_json",
]


class MonomialFactor(FrozenDict):
    """A weight function on the jib set: an immutable map from jib to weight,
    built from any such map, with the jibs in sorted order and every finite
    weight a ``Q``. Weights are non-negative rationals or INF (an uncapped
    coordinate of a generator). The domain must equal the owning scenario's
    handicap. Equality and hash are the map's, whatever the order given."""

    __slots__ = ()

    def __init__(self, weights: Mapping[NodeId, Value]) -> None:
        items = []
        for h in sorted(weights):
            w = weights[h]
            if w is not INF and type(w) is not Q:
                w = Q(w)
            items.append((h, w))
        dict.__init__(self, items)

    def dominates(self, other: "MonomialFactor") -> bool:
        """Pointwise >= on a shared domain."""
        return all(self.get(h, 0) >= w for h, w in other.items())

    def _sort_key(self):
        return tuple((h, w is INF, w if w is not INF else 0) for h, w in self.items())


def zero_factor(H: Iterable[NodeId]) -> MonomialFactor:
    return MonomialFactor(dict.fromkeys(H, ZERO))


@dataclass(frozen=True)
class FactorSet:
    """Downward closure of finitely many generators, stored as an antichain.

    A factor m belongs to the set iff m <= g pointwise for some generator g.
    ``of`` prunes dominated and duplicate generators and sorts the rest by
    ``_sort_key``, so that equal families build equal sets. The raw
    constructor keeps what it is given, so that a set that is not an
    antichain, read from a file, is there for issue 7 to report.
    """

    generators: Tuple[MonomialFactor, ...]

    @classmethod
    def of(cls, generators: Iterable[MonomialFactor]) -> "FactorSet":
        gens = list(generators)
        keep: List[MonomialFactor] = []
        for g in gens:
            if any(other is not g and other.dominates(g) and other != g for other in gens):
                continue
            if g not in keep:
                keep.append(g)
        keep.sort(key=MonomialFactor._sort_key)
        return cls(tuple(keep))

    def contains(self, m: MonomialFactor) -> bool:
        return any(g.dominates(m) for g in self.generators)


def _max_mass(factors: Iterable[Mapping[NodeId, Value]], K: Iterable[NodeId]) -> Value:
    """max over the weight maps of their total on K (0 when K is empty)."""
    best: Value = ZERO
    for w in factors:
        total: Value = ZERO
        for h in K:
            total = total + w.get(h, ZERO)
        if total > best:
            best = total
    return best


@dataclass(frozen=True)
class Scenario:
    """One quest's state: (d, B, H, S, T, ord, M) on a board.

    The constructor (``dataclasses.replace`` too) makes H, S and T
    frozensets, ``ord`` a ``FrozenDict`` of ``Q`` and INF orders, and M, if
    it is not a ``FactorSet``, ``FactorSet.of`` it; a part already so is
    kept. So a scenario is a hashable value that never changes, and checks
    may store their verdicts on it.
    """

    board: Board
    d: int
    B: int
    H: FrozenSet[NodeId]
    S: FrozenSet[NodeId]
    T: FrozenSet[NodeId]
    ord: Mapping[NodeId, Value]
    M: FactorSet

    def __post_init__(self) -> None:
        for name in ("H", "S", "T"):
            part = getattr(self, name)
            if type(part) is not frozenset:
                object.__setattr__(self, name, frozenset(part))
        ords = self.ord
        if type(ords) is not FrozenDict or not all(v is INF or type(v) is Q for v in ords.values()):
            fixed = {}
            for s, v in ords.items():
                if v is not INF and type(v) is not Q:
                    v = Q(v)
                fixed[s] = v
            object.__setattr__(self, "ord", FrozenDict(fixed))
        if not isinstance(self.M, FactorSet):
            object.__setattr__(self, "M", FactorSet.of(self.M))

    def jib_uppers(self, s: NodeId) -> Tuple[NodeId, ...]:
        """The jibs lying above s, sorted."""
        return _jib_uppers(self.board, self.H, s)


def _jib_uppers(board: Board, H: Iterable[NodeId], s: NodeId) -> Tuple[NodeId, ...]:
    up = board.up_set(s)
    return tuple(h for h in sorted(H) if h in up)


def extend_factor(board: Board, m: MonomialFactor, s: NodeId) -> Value:
    """The factor's value at a node s of the board: the sum of its weights at
    the jibs above s, INF as soon as one of them is uncapped."""
    up = board._up[s]
    total = ZERO
    for h, w in m.items():
        if h in up:
            if w is INF:
                return INF
            total += w
    return total


def separation_mass(board: Board, m: MonomialFactor, s: NodeId, t: NodeId) -> Value:
    """The factor's weight that separates s from an upper t: the sum of its
    weights at the jibs above s but not above t, INF as soon as one of them
    is uncapped (scenario issue 8). Both nodes lie on the board."""
    up_s, up_t = board._up[s], board._up[t]
    total = ZERO
    for h, w in m.items():
        if h in up_s and h not in up_t:
            if w is INF:
                return INF
            total += w
    return total


def _floor_terms(
    board: Board, d: int, gens: Sequence[MonomialFactor], placed: Mapping[NodeId, Value], f: NodeId
) -> Iterator[Tuple[int, Optional[NodeId], Value, Value]]:
    """Every lower bound the rules put on f's order, as (issue, upper, mass,
    bound): 1 and, at dimension d, INF (issue 4, upper and mass None); each
    factor's extension at f (issue 6, the mass is the bound); and, for each
    strict upper t of f in ``placed``, in sorted order, and each factor, ord(t)
    plus the factor mass separating f from t (issue 8). f and every node of
    ``placed`` lie on the board."""
    yield 4, None, None, ONE
    if board._dims[f] == d:
        yield 4, None, None, INF
    for g in gens:
        ext = extend_factor(board, g, f)
        yield 6, None, ext, ext
    for t in sorted(board._up[f].intersection(placed)):
        if t != f:
            for g in gens:
                spent = separation_mass(board, g, f, t)
                yield 8, t, spent, placed[t] + spent


def order_floor(
    board: Board, d: int, gens: Sequence[MonomialFactor], placed: Mapping[NodeId, Value], f: NodeId
) -> Value:
    """The least order f may take under the orders ``placed`` on its uppers,
    the largest ``_floor_terms`` bound: at least 1, INF at dimension d
    (issue 4), at least every factor's extension at f (issue 6), and at
    least ord(t) plus the factor mass separating f from each placed upper t
    (issue 8). Only the strict uppers of f in ``placed`` are read, and the
    terms are read up to the first INF."""
    floor: Value = ZERO
    for *_, bound in _floor_terms(board, d, gens, placed, f):
        if bound is INF:
            return INF
        floor = max(floor, bound)
    return floor


def assign_orders(
    board: Board,
    d: int,
    nodes: Iterable[NodeId],
    gens: Sequence[MonomialFactor],
    fixed: Mapping[NodeId, Value],
    raises: Mapping[NodeId, Value],
) -> Dict[NodeId, Value]:
    """Orders on ``nodes``, placed top-down. A node takes its ``fixed``
    order if it has one, and otherwise the larger of its floor
    (``order_floor``: INF at dimension d, at least 1 everywhere) and
    1 + ``raises.get(f, 0)``. Every upper of a node has a strictly higher
    dimension on a valid board, so it is placed first and the floor is
    final. The fixed orders are taken as they are: a caller that needs them
    legal compares each with its ``order_floor`` over the result, which
    reads only the node's uppers."""
    ords: Dict[NodeId, Value] = {}
    for f in sorted(nodes, key=lambda s: (-board.dim(s), s)):
        if f in fixed:
            ords[f] = fixed[f]
        else:
            floor, r = order_floor(board, d, gens, ords, f), raises.get(f)
            ords[f] = max(floor, 1 + r) if r else floor
    return ords


def _subsets(items: Tuple[NodeId, ...]):
    n = len(items)
    for mask in range(1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


def validate_scenario(c: Scenario) -> List[Violation]:
    """All nine scenario checks plus structural well-formedness.

    Issue map: 1 jib dimension, 2 S downward closed, 3 maximal
    infinite-order nodes, 4 dimension/order bound on S (dimension at most
    d, every order at least 1, INF at dimension d), 5 joint dimension drop
    below jib sets (with forced transversality at equality), 6 orders
    dominate factors, 7 factor-set representation, 8 residual order weakly
    decreasing, 9 unique maximal node under heavy jib sets. The order
    bounds of issues 4, 6 and 8 are the terms of ``order_floor``.

    The checks read only the scenario, so each instance is checked once.
    Every call returns a fresh list.
    """
    return list(_memo(_check_scenario, c))


def validate_shape(c: Scenario) -> List[Violation]:
    """The structure checks on which ``validate_scenario`` stops at once,
    because every later check would raise rather than report or read a
    meaningless input: the board's own violations (``validate_board``), d or
    B not an integer (a bool is not one) with B > 0, a node of H, S or T off
    the board, an M weight off the board, an ord domain other than S. A
    scenario that passes may be read node by node. Each instance is checked
    once, and the board's verdict is stored on the board; every call returns
    a fresh list."""
    return list(_memo(_check_shape, c))


def _check_shape(c: Scenario) -> List[Violation]:
    b = c.board
    out = validate_board(b)
    if out:
        return out
    rule = "scenario"
    if not (type(c.d) is int and type(c.B) is int and c.B > 0):
        return [Violation(rule, "structure", (), f"bad d/B: d={c.d!r}, B={c.B!r}")]
    # Each part is tested against the board's node map whole; only the
    # witnesses of a failing test are sorted.
    dims = b._dims
    for name, part in (("H", c.H), ("S", c.S), ("T", c.T)):
        stray = part.difference(dims)
        if stray:
            detail = f"{name} contains unknown nodes"
            return [Violation(rule, "structure", tuple(sorted(stray)), detail)]
    stray = {h for g in c.M.generators for h in g if h not in dims}
    if stray:
        detail = "M has weights at unknown nodes"
        return [Violation(rule, "structure", tuple(sorted(stray)), detail)]
    if c.ord.keys() != c.S:
        diff = sorted(c.ord.keys() ^ c.S)
        return [Violation(rule, "structure", tuple(diff), "ord domain differs from S")]
    return []


def _check_scenario(c: Scenario) -> List[Violation]:
    out = validate_shape(c)
    if out:
        return out
    # The shape holds, so every node read below lies on the board: its
    # tables are read directly.
    b = c.board
    n, dims, up_sets = b.n, b._dims, b._up
    rule = "scenario"
    S, H = sorted(c.S), sorted(c.H)
    if not 0 <= c.d <= n:
        out.append(Violation(rule, "structure", (), f"d = {c.d} outside [0, {n}]"))
    for s in S:
        v = c.ord[s]
        if v is INF:
            continue
        if v < 0:
            out.append(Violation(rule, "structure", (s,), f"ord({s}) = {v} is negative"))
        elif c.B % v.denominator:  # in lowest terms, v is on the 1/B grid iff this is 0
            out.append(
                Violation(rule, "structure", (s,), f"ord({s}) = {v} is not a multiple of 1/{c.B}")
            )

    # Issue 7: representation of M.
    if not c.M.generators:
        out.append(Violation(rule, 7, (), "factor set has no generators (must contain 0)"))
    for g in c.M.generators:
        if g.keys() != c.H:
            out.append(
                Violation(rule, 7, tuple(sorted(g.keys() ^ c.H)), "factor domain differs from H")
            )
        for h, w in g.items():
            if w is not INF and w < 0:
                out.append(Violation(rule, 7, (h,), f"negative factor weight {w} at {h}"))
    gens = c.M.generators
    for i, g in enumerate(gens):
        for gg in gens[i + 1 :]:
            if g.keys() == gg.keys() and (g.dominates(gg) or gg.dominates(g)):
                out.append(Violation(rule, 7, (), "generators are not an antichain"))
    if any(v.issue == "structure" for v in out):
        return out  # numbered checks below assume clean structure

    # Issue 1: jibs are hypersurface-dimensional.
    for h in H:
        if dims[h] != n - 1:
            out.append(Violation(rule, 1, (h,), f"jib {h} has dim {dims[h]}, expected {n - 1}"))

    # Issue 2: S downward closed.
    for s in S:
        for t in sorted(b._down[s] - c.S):
            out.append(Violation(rule, 2, (t, s), f"{t} <= {s} in S but {t} not in S"))

    # Issue 3: maximal infinite-order nodes.
    for s in b.maximal_among(s for s in c.S if c.ord[s] is INF):
        if dims[s] != c.d:
            out.append(
                Violation(
                    rule, 3, (s,), f"maximal infinite-order node {s} has dim {dims[s]}, expected {c.d}"
                )
            )
        if not c.H and s not in c.T:
            out.append(
                Violation(rule, 3, (s,), f"jib-free scenario: maximal infinite-order node {s} not in T")
            )

    # Issue 4: dimension bound on S (its order bounds are checked below).
    for s in S:
        if dims[s] > c.d:
            out.append(Violation(rule, 4, (s,), f"singular node {s} has dim {dims[s]} > d = {c.d}"))

    # Issue 5: below a size-k jib set the dimension drops by k; at equality
    # the node must be transversal. Only the count of jibs above s matters.
    for s in S:
        up = up_sets[s]
        uppers = tuple(h for h in H if h in up)
        J = len(uppers)
        k = c.d - dims[s]
        if k < J:
            out.append(
                Violation(
                    rule,
                    5,
                    (s,) + uppers,
                    f"{s} lies below {J} jibs but dim({s}) = {dims[s]} > d - {J}",
                )
            )
        if 0 <= k <= J and s not in c.T:
            witness_K = uppers[:k]
            out.append(
                Violation(
                    rule,
                    5,
                    (s,) + witness_K,
                    f"dim({s}) = d - {k} with {k} jibs above it, but {s} not in T",
                )
            )

    # Issues 4, 6 and 8: every order of S is at least each term of its
    # floor. Issue 8 asks that residual orders ord - m weakly decrease
    # upward for every member m of M. Per generator g only weights at jibs
    # above s but not above t fail to cancel, so for s <= t the exact bound
    # is ord(t) + separation_mass(g, s, t), INF for an uncapped weight; each
    # pair (s, t) is reported once, at its first failing generator.
    for s in S:
        v, reported = c.ord[s], set()
        for issue, t, mass, bound in _floor_terms(b, c.d, gens, c.ord, s):
            if v >= bound or t in reported:
                continue
            if issue == 4 and bound is INF:
                detail = f"dim({s}) = d but ord({s}) = {format_value(v)}"
            elif issue == 4:
                detail = f"ord({s}) = {format_value(v)} < 1"
            elif issue == 6:
                detail = f"ord({s}) = {format_value(v)} < factor value {format_value(mass)}"
            else:
                reported.add(t)
                detail = f"uncapped factor weight between {s} and {t} but ord({s}) finite"
                if mass is not INF:
                    detail = (
                        f"residual order increases from {s} to {t}: "
                        f"{format_value(v)} - {format_value(mass)} < {format_value(c.ord[t])}"
                    )
            out.append(Violation(rule, issue, (s,) if t is None else (s, t), detail))

    out.extend(heavy_jib_violations(b, c.d, c.H, c.S, c.M))
    return out


def heavy_jib_sets(
    uppers: Tuple[NodeId, ...], factors: Sequence[MonomialFactor]
) -> Iterator[Tuple[NodeId, ...]]:
    """The heavy jib sets over one node: the non-empty subsets K of its jib
    uppers on which some factor has mass >= 1, in ``_subsets`` order."""
    # Weights are nonnegative, so no subset can reach mass 1 unless the
    # whole upper set does; skip the exponential scan when it cannot.
    if not _max_mass(factors, uppers) >= 1:
        return
    for K in _subsets(uppers):
        if K and _max_mass(factors, K) >= 1:
            yield K


def heavy_jib_violations(
    board: Board, d: int, H: FrozenSet[NodeId], S: FrozenSet[NodeId], M: FactorSet
) -> List[Violation]:
    """Scenario issue 9: heavy jib sets pin down a unique singular node of
    dimension d - |K| above each singular node they cover.

    The check reads the board, d, H, S and M, never the orders, so a caller
    that knows those parts of a scenario can run it before choosing orders.
    ``validate_scenario`` reports exactly this list as its issue-9 findings.

    Only the count of singular nodes in each candidate set depends on S, so
    the rest is a table of (board, d, H, M), node -> its row (``_heavy_row``),
    filled as nodes are asked about: every keep set Mephisto sieves on one
    blown-up board, and every response built there, reads the same rows. The
    table is stored on M (``board._memo_of``), so it dies with M. M keeps one
    table per value of board, d and H; equal boards have the same order and
    dimensions, so they may share one. The key holds the board and H, which
    package code takes from the scenarios that share M, so the table keeps
    alive nothing they do not.
    """
    out: List[Violation] = []
    rows = _memo_of(M).setdefault((heavy_jib_violations, board, d, H), {})
    for s in sorted(S):
        row = rows.get(s)
        if row is None:
            row = rows[s] = _heavy_row(board, d, H, M, s)
        for K, cands in row:
            found = len(cands & S)
            if found != 1:
                out.append(
                    Violation(
                        "scenario",
                        9,
                        (s,) + K,
                        f"expected exactly one dim-{d - len(K)} singular node above {s} "
                        f"below {{{', '.join(K)}}}, found {found}",
                    )
                )
    return out


def _heavy_row(
    board: Board, d: int, H: FrozenSet[NodeId], M: FactorSet, s: NodeId
) -> Tuple[Tuple[Tuple[NodeId, ...], FrozenSet[NodeId]], ...]:
    """Issue 9's row of s: each heavy jib set K over s, in ``heavy_jib_sets``
    order, with its candidates, the nodes t with s <= t <= every h in K and
    dim t = d - |K|."""
    row = []
    for K in heavy_jib_sets(_jib_uppers(board, H, s), M.generators):
        cands = board.up_set(s).intersection(*(board.down_set(h) for h in K))
        row.append((K, frozenset(t for t in cands if board.dim(t) == d - len(K))))
    return tuple(row)


def is_tight(c: Scenario) -> bool:
    """Order constantly 1 on S (vacuously for empty S)."""
    return all(v == ONE for v in c.ord.values())


def complete_factor(c: Scenario) -> Optional[MonomialFactor]:
    """A generator whose extension matches ord on all of S, if any.

    With S empty every factor is trivially complete; the tie-break returns
    the last generator in canonical order (the heaviest by sort key).
    """
    if not c.S:
        return c.M.generators[-1] if c.M.generators else None
    for g in c.M.generators:
        if all(extend_factor(c.board, g, s) == c.ord[s] for s in c.S):
            return g
    return None


def admissible_centers(c: Scenario) -> FrozenSet[NodeId]:
    """Nodes Dido may blow up for this scenario: transversal, not the top,
    and either singular or remote from everything singular.

    Validation asks for the same scenario's centers once per candidate
    bundle, so each instance computes them once. S and T must lie on the
    board (``validate_shape``): the down-set of every node of S and of every
    candidate center is read."""
    return _memo(_admissible_centers, c)


def _admissible_centers(c: Scenario) -> FrozenSet[NodeId]:
    # z is remote from every singular node iff nothing below z lies below one
    b, S = c.board, c.S
    top = b.top
    below_S = frozenset().union(*map(b.down_set, S))
    return frozenset(
        z for z in c.T if z != top and (z in S or b.down_set(z).isdisjoint(below_S))
    )


# ---- serialization -----------------------------------------------------


def factor_to_json(m: MonomialFactor) -> dict:
    return {h: format_value(w) for h, w in m.items()}


def factor_from_json(data: Mapping[str, str]) -> MonomialFactor:
    """The factor ``data`` records: an object of weight texts
    (``values.parse_value``) by jib."""
    return MonomialFactor({h: parse_value(w) for h, w in data.items()})


def scenario_to_json(c: Scenario, board: object = None) -> dict:
    """Self-contained JSON; pass ``board`` to override the embedded board ref."""
    return {
        "board": board if board is not None else board_to_json(c.board),
        "d": c.d,
        "B": c.B,
        "H": sorted(c.H),
        "S": sorted(c.S),
        "T": sorted(c.T),
        "ord": {s: format_value(c.ord[s]) for s in sorted(c.ord)},
        "M": [factor_to_json(g) for g in c.M.generators],
    }


def scenario_from_json(data: dict, board: Optional[Board] = None) -> Scenario:
    """The scenario ``data`` records: a ``"board"`` (``board_from_json``),
    unless ``board`` is given; ``"d"`` and ``"B"`` as they are; ``"H"``,
    ``"S"`` and ``"T"``, lists of node ids; ``"ord"``, an object of order
    texts; ``"M"``, a list of factors (``factor_from_json``), kept as
    written in ``_sort_key`` order. Raises ValueError for any other form."""
    try:
        if board is None:
            board = board_from_json(data["board"])
        parts = [data["H"], data["S"], data["T"]]
        for name, part in zip("HST", parts):
            if type(part) is not list or not all(type(s) is str for s in part):
                raise ValueError(f"malformed scenario JSON: {name} {part!r} is not a list of node ids")
        ords = {s: parse_value(v) for s, v in data["ord"].items()}
        gens = sorted(map(factor_from_json, data["M"]), key=MonomialFactor._sort_key)
        return Scenario(board, data["d"], data["B"], *parts, ords, FactorSet(tuple(gens)))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed scenario JSON: {exc}") from exc
