"""The umpire's row checks against the loops they replaced.

``scenario._check_shape``, ``scenario._check_scenario``,
``transform._check_blowup_transform`` and ``scenario._admissible_centers``
test whole rows with set operations and sort only the witnesses they report.
The references below are the node-by-node loops they replaced, kept as
test-only oracles. Over generated starts, their blowup responses and
mutations of both, each check must return exactly its reference's list:
rules, issues, witnesses, details and order. A blowup response that fails
``validate_shape`` gets exactly that list instead.
"""

from fractions import Fraction

import pytest

from salmagundy.board import Violation, blowup_transform, validate_board
from salmagundy.harness import gen_monomial_scenario, gen_scenario
from salmagundy.mephisto import _down_closed_keeps, _root_keep_max, _root_response
from salmagundy.scenario import (
    MonomialFactor,
    _admissible_centers,
    _check_scenario,
    _check_shape,
    _floor_terms,
    heavy_jib_violations,
    is_tight,
    validate_shape,
)
from salmagundy.transform import (
    RULE,
    _check_blowup_transform,
    blowup_jibs,
    cleared_nodes,
    complete_orders,
    exceptional_cap,
    pinned_orders,
)
from salmagundy.values import INF, Q, format_value
from conftest import remake


# ---- the references ------------------------------------------------------------


def _ref_check_shape(c):
    b = c.board
    out = validate_board(b)
    if out:
        return out
    rule = "scenario"
    if not (type(c.d) is int and type(c.B) is int and c.B > 0):
        return [Violation(rule, "structure", (), f"bad d/B: d={c.d!r}, B={c.B!r}")]
    for name, part in (("H", c.H), ("S", c.S), ("T", c.T)):
        stray = sorted(x for x in part if x not in b)
        if stray:
            return [Violation(rule, "structure", tuple(stray), f"{name} contains unknown nodes")]
    stray = sorted({h for g in c.M.generators for h in g if h not in b})
    if stray:
        return [Violation(rule, "structure", tuple(stray), "M has weights at unknown nodes")]
    if set(c.ord) != set(c.S):
        diff = sorted(set(c.ord) ^ set(c.S))
        return [Violation(rule, "structure", tuple(diff), "ord domain differs from S")]
    return []


def _ref_check_scenario(c):
    out = _ref_check_shape(c)
    if out:
        return out
    b = c.board
    rule = "scenario"
    if not 0 <= c.d <= b.n:
        out.append(Violation(rule, "structure", (), f"d = {c.d} outside [0, {b.n}]"))
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
        return out
    for h in sorted(c.H):
        if b.dim(h) != b.n - 1:
            out.append(Violation(rule, 1, (h,), f"jib {h} has dim {b.dim(h)}, expected {b.n - 1}"))
    for s in sorted(c.S):
        for t in sorted(b.down_set(s)):
            if t not in c.S:
                out.append(Violation(rule, 2, (t, s), f"{t} <= {s} in S but {t} not in S"))
    for s in b.maximal_among(s for s in c.S if c.ord[s] is INF):
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
    for s in sorted(c.S):
        if b.dim(s) > c.d:
            out.append(Violation(rule, 4, (s,), f"singular node {s} has dim {b.dim(s)} > d = {c.d}"))
    for s in sorted(c.S):
        uppers = c.jib_uppers(s)
        J = len(uppers)
        k = c.d - b.dim(s)
        if k < J:
            out.append(
                Violation(
                    rule, 5, (s,) + uppers,
                    f"{s} lies below {J} jibs but dim({s}) = {b.dim(s)} > d - {J}",
                )
            )
        if 0 <= k <= J and s not in c.T:
            out.append(
                Violation(
                    rule, 5, (s,) + uppers[:k],
                    f"dim({s}) = d - {k} with {k} jibs above it, but {s} not in T",
                )
            )
    for s in sorted(c.S):
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


def _ref_admissible_centers(c):
    b = c.board
    top = b.top
    out = set()
    for z in c.T:
        if z == top:
            continue
        if z in c.S or all(b.remote(z, s) for s in c.S):
            out.add(z)
    return frozenset(out)


def _ref_check_blowup_transform(c, c1, bt):
    out = []
    if c.board != bt.source or c1.board != bt.target:
        out.append(Violation(RULE, "structure", (), "scenario boards do not match the transform"))
        return out
    if (c1.d, c1.B) != (c.d, c.B):
        out.append(Violation(RULE, 1, (), f"expected d={c.d}, B={c.B}; got d={c1.d}, B={c1.B}"))
    for s in c.board.ids:
        if (bt.embed[s] in c1.T) != (s in c.T):
            out.append(
                Violation(RULE, 2, (s,), f"transversality of {s} not mirrored at {bt.embed[s]}")
            )
    z = bt.center
    e = bt.exceptional
    if z not in _ref_admissible_centers(c):
        out.append(
            Violation(
                RULE, 7, (z,), f"center {z} is not admissible (transversal and singular-or-remote)"
            )
        )
    stray = tuple(s for s in sorted(c1.S) if bt.retract[s] not in c.S)
    if stray:
        out.append(Violation(RULE, 8, stray, "singular nodes outside u^{-1}(S)"))
    pins = pinned_orders(c, bt)
    if e in c1.S:
        if z not in c.S or c.ord[z] < 2:
            out.append(
                Violation(
                    RULE, 9, (e,),
                    "exceptional node kept singular although the center has order < 2 or is not singular",
                )
            )
        elif c1.ord[e] != pins[e]:
            out.append(
                Violation(
                    RULE, 9, (e,),
                    f"ord({e}) = {format_value(c1.ord[e])}, expected {format_value(pins[e])}",
                )
            )
    for s1 in sorted(c1.S):
        if s1 != e and s1 in pins and c1.ord[s1] != pins[s1]:
            out.append(
                Violation(
                    RULE, 10, (s1,),
                    f"ord({s1}) = {format_value(c1.ord[s1])} != ord({bt.retract[s1]}) = "
                    f"{format_value(pins[s1])}",
                )
            )
    if is_tight(c) and not is_tight(c1):
        bad = tuple(s for s in sorted(c1.S) if c1.ord[s] != 1)
        out.append(Violation(RULE, 11, bad, "tight scenario transformed into a non-tight one"))
    want_H, want_M = blowup_jibs(c, bt)
    if c1.H != want_H:
        out.append(Violation(RULE, 12, tuple(sorted(c1.H ^ want_H)), "handicap is not i(H) + e"))
    for K, hit in cleared_nodes(c, bt, c1.S):
        if hit:
            out.append(
                Violation(
                    RULE, 13, hit + K,
                    f"singular nodes over the center survive below i(K), K = {set(K) or '{}'}",
                )
            )
    cap = exceptional_cap(c, z)
    if cap < 0:
        out.append(
            Violation(
                RULE, 14, (z,), f"no legal factor set: the cap at {e} would be {format_value(cap)} < 0"
            )
        )
    elif c1.M != want_M:
        out.append(Violation(RULE, 14, (e,), "factor generators are not the capped transports"))
    complete = None if cap < 0 else complete_orders(c, bt)
    if complete is not None:
        for s1 in sorted(c1.S):
            if c1.ord[s1] != complete[s1]:
                out.append(
                    Violation(
                        RULE, 15, (s1,),
                        f"transported complete factor misses ord({s1}): "
                        f"{format_value(complete[s1])} != {format_value(c1.ord[s1])}",
                    )
                )
    out.extend(_ref_check_scenario(c1))
    return out


# ---- inputs --------------------------------------------------------------------


def _starts():
    yield from (gen_scenario(seed) for seed in range(60))
    yield from (gen_monomial_scenario(seed) for seed in range(30))


def _lower_singular(c):
    """The singular nodes that lie below another, sorted."""
    return [s for s in sorted(c.S) if any(s != t and s in c.board.down_set(t) for t in c.S)]


def _mutants(c):
    """c itself and one-field mutations of it: a node off the board in H, S,
    T or an M weight; an ord domain other than S; off-grid, on-grid and
    negative orders; S not down-closed; a singular node dropped from T."""
    S = sorted(c.S)
    yield c
    yield remake(c, H=c.H | {"zz"})
    yield remake(c, S=c.S | {"zz"}, ord={**c.ord, "zz": INF})
    yield remake(c, T=c.T | {"zz"})
    first, *rest = c.M.generators
    yield remake(c, M=[MonomialFactor({**first, "zz": Q(1)}), *rest])
    yield remake(c, ord={**c.ord, "zz": Q(1)})
    if not S:
        return
    ords = dict(c.ord)
    yield remake(c, ord={s: v for s, v in ords.items() if s != S[0]})
    for v in (1 + Q(1, 2 * c.B), 1 + Q(1, c.B), Q(3), Q(-1), Q(0)):
        yield remake(c, ord={**ords, S[-1]: v})
    low = _lower_singular(c)
    if low:  # S not down-closed
        drop = low[0]
        yield remake(c, S=c.S - {drop}, ord={s: v for s, v in ords.items() if s != drop})
    for s in S[:2]:
        if s in c.T:
            yield remake(c, T=c.T - {s})


def _responses(c, limit=3):
    """Each admissible center's blowup (the first two), with its root
    responses at the first ``limit`` keeps and levels 0 and 1."""
    centers = sorted(_ref_admissible_centers(c))[:2]
    for z in centers:
        bt = blowup_transform(c.board, z)
        keeps = _down_closed_keeps(bt.target, _root_keep_max(c, bt))[:limit]
        for keep in keeps:
            for level in (0, 1):
                c1 = _root_response(c, bt, keep, Fraction(level, c.B))
                if c1 is not None:
                    yield bt, c1


# ---- the checks against their references ---------------------------------------


def test_shape_and_scenario_checks_match_their_loops():
    checked = issues = 0
    for start in _starts():
        for c in _mutants(start):
            assert _check_shape(c) == _ref_check_shape(c)
            got = _check_scenario(c)
            assert got == _ref_check_scenario(c)
            checked += 1
            issues += bool(got)
    assert checked > 1000 and issues > checked // 2


def test_the_scenario_check_reports_what_each_mutation_breaks():
    # the mutations are seen: each (issue, witness) the loops report
    c = next(c for c in _starts() if _lower_singular(c))
    S = sorted(c.S)
    low = _lower_singular(c)[0]
    cut = remake(c, S=c.S - {low}, ord={s: v for s, v in c.ord.items() if s != low})
    lows = [v.witness[0] for v in _check_scenario(cut) if v.issue == 2]
    assert lows and set(lows) == {low}
    grid = remake(c, ord={**c.ord, S[-1]: 1 + Q(1, c.B)})
    assert not [v for v in _check_scenario(grid) if v.issue == "structure"]
    off = remake(c, ord={**c.ord, S[-1]: 1 + Q(1, 2 * c.B)})
    assert [v.witness for v in _check_scenario(off) if v.issue == "structure"] == [(S[-1],)]


def test_admissible_centers_match_their_loop():
    checked = 0
    for start in _starts():
        for c in _mutants(start):
            if validate_shape(c):  # the centers are read only on the board
                continue
            assert _admissible_centers(c) == _ref_admissible_centers(c)
            checked += 1
    assert checked > 500


def test_blowup_transform_checks_match_their_loop():
    checked = issues = shaped = 0
    for start in _starts():
        for bt, c1 in _responses(start):
            olds = [m for m in _mutants(start) if not validate_shape(m)][:4]
            z = bt.center
            if z in start.T:
                olds.append(remake(start, T=start.T - {z}))  # the center outside T
            news = [*_mutants(c1), remake(c1, d=c1.d + 1)]
            for old in olds:
                for new in news:
                    got = _check_blowup_transform(old, new, bt)
                    shape = validate_shape(new)
                    if shape:  # the items read a response node by node
                        assert got == shape
                        shaped += 1
                        continue
                    assert got == _ref_check_blowup_transform(old, new, bt)
                    checked += 1
                    issues += bool(got)
    assert checked > 10000 and issues > checked // 2 and shaped > 10000


@pytest.mark.parametrize("make", [gen_scenario, gen_monomial_scenario])
def test_a_center_outside_T_is_item_7(make):
    c = make(0)
    z = sorted(_admissible_centers(c))[0]
    bt = blowup_transform(c.board, z)
    c1 = _root_response(c, bt, _root_keep_max(c, bt), Fraction(0))
    moved = remake(c, T=c.T - {z})
    got = _check_blowup_transform(moved, c1, bt)
    assert any(v.issue == 7 and v.witness == (z,) for v in got)
    assert got == _ref_check_blowup_transform(moved, c1, bt)
