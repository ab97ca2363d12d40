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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from .board import Board, FrozenDict, NodeId, Violation, _memo, _state_without_memo
from .values import INF, Value, format_value, parse_value

__all__ = [
    "MonomialFactor",
    "FactorSet",
    "Scenario",
    "zero_factor",
    "extend_factor",
    "validate_scenario",
    "heavy_jib_violations",
    "is_tight",
    "is_resolved",
    "complete_factor",
    "is_monomial",
    "admissible_centers",
    "scenario_to_json",
    "scenario_from_json",
]


@dataclass(frozen=True)
class MonomialFactor:
    """A weight function on the jib set, stored as a sorted tuple of pairs.

    Weights are non-negative rationals or INF (an uncapped coordinate of a
    generator). The domain must equal the owning scenario's handicap.
    """

    weights: Tuple[Tuple[NodeId, Value], ...]

    @classmethod
    def of(cls, mapping: Mapping[NodeId, Value]) -> "MonomialFactor":
        items = []
        for h in sorted(mapping):
            w = mapping[h]
            if w is not INF and not isinstance(w, Fraction):
                w = Fraction(w)
            items.append((h, w))
        return cls(tuple(items))

    @property
    def domain(self) -> FrozenSet[NodeId]:
        return frozenset(h for h, _ in self.weights)

    def weight(self, h: NodeId) -> Value:
        for hh, w in self.weights:
            if hh == h:
                return w
        raise KeyError(f"jib {h!r} not in factor domain")

    def as_dict(self) -> Dict[NodeId, Value]:
        return dict(self.weights)

    def dominates(self, other: "MonomialFactor") -> bool:
        """Pointwise >= on a shared domain."""
        mine = self.as_dict()
        return all(mine.get(h, 0) >= w for h, w in other.weights)

    def _sort_key(self):
        return tuple((h, w is INF, w if w is not INF else 0) for h, w in self.weights)


def zero_factor(H: Iterable[NodeId]) -> MonomialFactor:
    return MonomialFactor.of({h: Fraction(0) for h in H})


@dataclass(frozen=True)
class FactorSet:
    """Downward closure of finitely many generators; stores the antichain.

    A factor m belongs to the set iff m <= g pointwise for some generator g.
    The constructor prunes dominated generators and duplicates so that
    structural equality of FactorSets means equality of the families.
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
        keep.sort(key=lambda m: m._sort_key())
        return cls(tuple(keep))

    def contains(self, m: MonomialFactor) -> bool:
        return any(g.dominates(m) for g in self.generators)

    def max_sum_over(self, K: Iterable[NodeId]) -> Value:
        """max over generators of the total weight on K (0 when K is empty)."""
        return _max_mass([g.as_dict() for g in self.generators], list(K))


def _max_mass(weights: List[Dict[NodeId, Value]], K: Iterable[NodeId]) -> Value:
    """max over the weight maps of their total on K (0 when K is empty)."""
    best: Value = Fraction(0)
    for w in weights:
        total: Value = Fraction(0)
        for h in K:
            total = total + w.get(h, Fraction(0))
        if total > best:
            best = total
    return best


@dataclass(frozen=True)
class Scenario:
    """One quest's state: (d, B, H, S, T, ord, M) on a board.

    ``ord`` is frozen on construction, so a scenario is a hashable value that
    never changes, and checks may memoize their verdicts on it.
    """

    board: Board
    d: int
    B: int
    H: FrozenSet[NodeId]
    S: FrozenSet[NodeId]
    T: FrozenSet[NodeId]
    ord: Mapping[NodeId, Value]
    M: FactorSet

    @classmethod
    def make(
        cls,
        board: Board,
        d: int,
        B: int,
        H: Iterable[NodeId],
        S: Iterable[NodeId],
        T: Iterable[NodeId],
        ord: Mapping[NodeId, Value],
        M: FactorSet | Iterable[MonomialFactor],
    ) -> "Scenario":
        if not isinstance(M, FactorSet):
            M = FactorSet.of(M)
        fixed = {}
        for s, v in ord.items():
            if v is not INF and not isinstance(v, Fraction):
                v = Fraction(v)
            fixed[s] = v
        return cls(board, d, B, frozenset(H), frozenset(S), frozenset(T), FrozenDict(fixed), M)

    def __post_init__(self) -> None:
        if not isinstance(self.ord, FrozenDict):
            object.__setattr__(self, "ord", FrozenDict(self.ord))

    __getstate__ = _state_without_memo

    def jib_uppers(self, s: NodeId) -> Tuple[NodeId, ...]:
        """The jibs lying above s, sorted."""
        return tuple(h for h in sorted(self.H) if self.board.leq(s, h))


def extend_factor(board: Board, m: MonomialFactor, s: NodeId) -> Value:
    """The factor's value at an arbitrary node: the sum of its weights at the
    jibs above s, INF as soon as one of them is uncapped."""
    total = Fraction(0)
    for h, w in m.weights:
        if board.leq(s, h):
            if w is INF:
                return INF
            total += w
    return total


def _subsets(items: Tuple[NodeId, ...]):
    n = len(items)
    for mask in range(1 << n):
        yield tuple(items[i] for i in range(n) if mask >> i & 1)


def validate_scenario(c: Scenario) -> List[Violation]:
    """All nine scenario checks plus structural well-formedness.

    Issue map: 1 jib dimension, 2 S downward closed, 3 maximal
    infinite-order nodes, 4 dimension/order bound on S, 5 joint dimension
    drop below jib sets (with forced transversality at equality), 6 orders
    dominate factors, 7 factor-set representation, 8 residual order weakly
    decreasing, 9 unique maximal node under heavy jib sets.

    The checks read only the scenario, so each instance is checked once.
    Every call returns a fresh list.
    """
    return _memo(c, (), _check_scenario, c)


def _check_scenario(c: Scenario) -> List[Violation]:
    out: List[Violation] = []
    b = c.board
    rule = "scenario"

    # Structure first: if the pieces do not even fit the board, the numbered
    # checks would throw rather than report.
    if not (isinstance(c.d, int) and isinstance(c.B, int) and c.B > 0):
        out.append(Violation(rule, "structure", (), f"bad d/B: d={c.d!r}, B={c.B!r}"))
        return out
    if not 0 <= c.d <= b.n:
        out.append(Violation(rule, "structure", (), f"d = {c.d} outside [0, {b.n}]"))
    for name, part in (("H", c.H), ("S", c.S), ("T", c.T)):
        stray = sorted(x for x in part if x not in b)
        if stray:
            out.append(Violation(rule, "structure", tuple(stray), f"{name} contains unknown nodes"))
            return out
    stray = sorted({h for g in c.M.generators for h in g.domain if h not in b})
    if stray:
        out.append(Violation(rule, "structure", tuple(stray), "M has weights at unknown nodes"))
        return out
    if set(c.ord) != set(c.S):
        diff = sorted(set(c.ord) ^ set(c.S))
        out.append(Violation(rule, "structure", tuple(diff), "ord domain differs from S"))
        return out
    for s in sorted(c.S):
        v = c.ord[s]
        if v is INF:
            continue
        if v < 0:
            out.append(Violation(rule, "structure", (s,), f"ord({s}) = {v} is negative"))
        elif (v * c.B).denominator != 1:
            out.append(
                Violation(rule, "structure", (s,), f"ord({s}) = {v} is not a multiple of 1/{c.B}")
            )

    # Issue 7: representation of M.
    if not c.M.generators:
        out.append(Violation(rule, 7, (), "factor set has no generators (must contain 0)"))
    for g in c.M.generators:
        if g.domain != c.H:
            out.append(
                Violation(rule, 7, tuple(sorted(g.domain ^ c.H)), "factor domain differs from H")
            )
        for h, w in g.weights:
            if w is not INF and w < 0:
                out.append(Violation(rule, 7, (h,), f"negative factor weight {w} at {h}"))
    gens = c.M.generators
    for i, g in enumerate(gens):
        for gg in gens[i + 1 :]:
            if g.domain == gg.domain and (g.dominates(gg) or gg.dominates(g)):
                out.append(Violation(rule, 7, (), "generators are not an antichain"))
    if any(v.rule == rule and v.issue in ("structure", 7) for v in out):
        # Numbered checks below assume clean structure.
        if any(v.issue == "structure" for v in out):
            return out

    # Issue 1: jibs are hypersurface-dimensional.
    for h in sorted(c.H):
        if b.dim(h) != b.n - 1:
            out.append(Violation(rule, 1, (h,), f"jib {h} has dim {b.dim(h)}, expected {b.n - 1}"))

    # Issue 2: S downward closed.
    for s in sorted(c.S):
        for t in sorted(b.down_set(s)):
            if t not in c.S:
                out.append(Violation(rule, 2, (t, s), f"{t} <= {s} in S but {t} not in S"))

    # Issue 3: maximal infinite-order nodes.
    infs = [s for s in c.S if c.ord[s] is INF]
    max_inf = [s for s in infs if not any(t != s and b.lt(s, t) for t in infs)]
    for s in sorted(max_inf):
        if b.dim(s) != c.d:
            out.append(
                Violation(
                    rule, 3, (s,), f"maximal infinite-order node {s} has dim {b.dim(s)}, expected {c.d}"
                )
            )
        if not c.H and s not in c.T:
            out.append(
                Violation(rule, 3, (s,), f"jib-free scenario: maximal infinite-order node {s} not in T")
            )

    # Issue 4: dimension bound on S; top-dimensional singular nodes have order INF.
    for s in sorted(c.S):
        if b.dim(s) > c.d:
            out.append(Violation(rule, 4, (s,), f"singular node {s} has dim {b.dim(s)} > d = {c.d}"))
        elif b.dim(s) == c.d and c.ord[s] is not INF:
            out.append(
                Violation(rule, 4, (s,), f"dim({s}) = d but ord({s}) = {format_value(c.ord[s])}")
            )

    # Issue 5: below a size-k jib set the dimension drops by k; at equality
    # the node must be transversal. Only the count of jibs above s matters.
    for s in sorted(c.S):
        uppers = c.jib_uppers(s)
        J = len(uppers)
        k = c.d - b.dim(s)
        if k < J:
            out.append(
                Violation(
                    rule,
                    5,
                    (s,) + uppers,
                    f"{s} lies below {J} jibs but dim({s}) = {b.dim(s)} > d - {J}",
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

    # Issue 6: orders dominate every factor of M (generators suffice).
    for s in sorted(c.S):
        for g in gens:
            ext = extend_factor(b, g, s)
            if not c.ord[s] >= ext:
                out.append(
                    Violation(
                        rule,
                        6,
                        (s,),
                        f"ord({s}) = {format_value(c.ord[s])} < factor value {format_value(ext)}",
                    )
                )

    # Issue 8: residual orders ord - m weakly decrease upward, for every
    # member m of M. Evaluated per generator g over the member supremum:
    # only weights at jibs above s but not above t fail to cancel, so the
    # exact condition for s <= t is
    #   ord(s) - sum of g over D >= ord(t),  D = {h in H : h >= s, h !>= t},
    # with an infinite weight in D forcing ord(s) = INF.
    for s in sorted(c.S):
        for t in sorted(c.S):
            if s == t or not b.leq(s, t):
                continue
            for g in gens:
                w = g.as_dict()
                D = [h for h in c.H if b.leq(s, h) and not b.leq(t, h)]
                if any(w.get(h, Fraction(0)) is INF for h in D):
                    ok = c.ord[s] is INF
                    detail = f"uncapped factor weight between {s} and {t} but ord({s}) finite"
                else:
                    spent: Value = Fraction(0)
                    for h in D:
                        spent = spent + w.get(h, Fraction(0))
                    ok = c.ord[s] - spent >= c.ord[t]
                    detail = (
                        f"residual order increases from {s} to {t}: "
                        f"{format_value(c.ord[s])} - {format_value(spent)} < {format_value(c.ord[t])}"
                    )
                if not ok:
                    out.append(Violation(rule, 8, (s, t), detail))
                    break

    out.extend(heavy_jib_violations(b, c.d, c.H, c.S, c.M))
    return out


def heavy_jib_violations(
    board: Board, d: int, H: FrozenSet[NodeId], S: FrozenSet[NodeId], M: FactorSet
) -> List[Violation]:
    """Scenario issue 9: heavy jib sets pin down a unique singular node of
    dimension d - |K| above each singular node they cover.

    The check reads the board, d, H, S and M, never the orders, so a caller
    that knows those parts of a scenario can run it before choosing orders.
    ``validate_scenario`` reports exactly this list as its issue-9 findings.
    """
    out: List[Violation] = []
    singular = sorted(S)
    jibs = sorted(H)
    weights = [g.as_dict() for g in M.generators]
    for s in singular:
        uppers = tuple(h for h in jibs if board.leq(s, h))
        # Weights are nonnegative, so no subset can reach mass 1 unless the
        # whole upper set does; skip the exponential scan when it cannot.
        if not _max_mass(weights, uppers) >= 1:
            continue
        for K in _subsets(uppers):
            if not K:
                continue
            if not _max_mass(weights, K) >= 1:
                continue
            hits = [
                t
                for t in singular
                if board.leq(s, t)
                and all(board.leq(t, h) for h in K)
                and board.dim(t) == d - len(K)
            ]
            if len(hits) != 1:
                out.append(
                    Violation(
                        "scenario",
                        9,
                        (s,) + K,
                        f"expected exactly one dim-{d - len(K)} singular node above {s} "
                        f"below {{{', '.join(K)}}}, found {len(hits)}",
                    )
                )
    return out


def is_tight(c: Scenario) -> bool:
    """Order constantly 1 on S (vacuously for empty S)."""
    one = Fraction(1)
    return all(v == one for v in c.ord.values())


def is_resolved(c: Scenario) -> bool:
    return not c.S


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


def is_monomial(c: Scenario) -> bool:
    return complete_factor(c) is not None


def admissible_centers(c: Scenario) -> FrozenSet[NodeId]:
    """Nodes Dido may blow up for this scenario: transversal, not the top,
    and either singular or remote from everything singular.

    Validation asks for the same scenario's centers once per candidate
    bundle, so each instance computes them once."""
    return _memo(c, (), _admissible_centers, c)


def _admissible_centers(c: Scenario) -> FrozenSet[NodeId]:
    b = c.board
    top = b.top
    out = set()
    for z in c.T:
        if z == top:
            continue
        if z in c.S or all(b.remote(z, s) for s in c.S):
            out.add(z)
    return frozenset(out)


# ---- serialization -----------------------------------------------------


def factor_to_json(m: MonomialFactor) -> dict:
    return {h: format_value(w) for h, w in m.weights}


def factor_from_json(data: Mapping[str, str]) -> MonomialFactor:
    return MonomialFactor.of({h: parse_value(w) for h, w in data.items()})


def scenario_to_json(c: Scenario, board: object = None) -> dict:
    """Self-contained JSON; pass ``board`` to override the embedded board ref."""
    from .board import board_to_json

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
    from .board import board_from_json

    try:
        if board is None:
            board = board_from_json(data["board"])
        return Scenario.make(
            board=board,
            d=data["d"],
            B=data["B"],
            H=data["H"],
            S=data["S"],
            T=data["T"],
            ord={s: parse_value(v) for s, v in data["ord"].items()},
            M=FactorSet.of(factor_from_json(g) for g in data["M"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scenario JSON: {exc}") from exc
