"""Scenarios: factors, the nine validity checks, predicates, JSON."""

import dataclasses
import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from salmagundy.board import Board, FrozenDict, Violation, blowup_transform, validate_board
from salmagundy.harness import gen_monomial_scenario, gen_scenario
from salmagundy.mephisto import _down_closed_keeps, _root_keep_max, _root_response
from salmagundy.scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    _max_mass,
    admissible_centers,
    assign_orders,
    complete_factor,
    extend_factor,
    factor_from_json,
    factor_to_json,
    heavy_jib_sets,
    heavy_jib_violations,
    is_tight,
    scenario_from_json,
    scenario_to_json,
    separation_mass,
    validate_scenario,
    validate_shape,
    zero_factor,
)
from salmagundy.transform import blowup_jibs, validate_blowup_transform
from salmagundy.values import INF, Q, format_value
from conftest import remake


def _issues(c):
    return {v.issue for v in validate_scenario(c)}


# ---- factors ----------------------------------------------------------------


def test_factor_normalizes_and_sorts():
    m = MonomialFactor({"b": 1, "a": Fraction(1, 2)})
    assert list(m.items()) == [("a", Fraction(1, 2)), ("b", Fraction(1))]
    assert m.keys() == {"a", "b"}
    assert m["b"] == 1
    with pytest.raises(KeyError):
        m["c"]
    assert m == {"a": Fraction(1, 2), "b": Fraction(1)}


def test_factor_is_an_immutable_map_in_jib_order():
    m = MonomialFactor({"c": 2, "a": 0, "b": 1})
    assert isinstance(m, FrozenDict)
    assert list(m) == ["a", "b", "c"]
    assert [type(w) for w in m.values()] == [Q, Q, Q]
    with pytest.raises(TypeError):
        m["a"] = Q(1)
    with pytest.raises(TypeError):
        del m["a"]
    other = MonomialFactor({"b": Q(1), "c": Fraction(2), "a": 0})
    assert m == other and hash(m) == hash(other)
    assert len({m, other}) == 1


def test_factor_dominates_pointwise():
    lo = MonomialFactor({"a": 1, "b": 0})
    hi = MonomialFactor({"a": 1, "b": 2})
    top = MonomialFactor({"a": INF, "b": 2})
    assert hi.dominates(lo) and not lo.dominates(hi)
    assert top.dominates(hi) and not hi.dominates(top)
    assert hi.dominates(hi)
    assert zero_factor(["a", "b"]) == MonomialFactor({"a": 0, "b": 0})


def test_factor_set_prunes_to_antichain():
    lo = MonomialFactor({"a": 1, "b": 0})
    hi = MonomialFactor({"a": 1, "b": 2})
    side = MonomialFactor({"a": 0, "b": 3})
    fs = FactorSet.of([lo, hi, hi, side])
    assert set(fs.generators) == {hi, side}
    assert fs.contains(lo)
    assert fs.contains(MonomialFactor({"a": 0, "b": 1}))
    assert not fs.contains(MonomialFactor({"a": 2, "b": 0}))


def test_max_mass_over_weight_maps():
    weights = [{"a": 1, "b": 2}, {"a": 3, "b": 0}]
    assert _max_mass(weights, []) == 0
    assert _max_mass(weights, ["a"]) == 3
    assert _max_mass(weights, ["a", "b"]) == 3
    assert _max_mass(weights, ["b"]) == 2
    assert _max_mass([{"a": INF, "b": 0}], ["a", "b"]) is INF


def test_extend_factor_sums_jibs_above(crossing_scenario):
    (g,) = crossing_scenario.M.generators
    b = crossing_scenario.board
    assert extend_factor(b, g, "s") == Fraction(13, 10)
    assert extend_factor(b, g, "h1") == Fraction(3, 5)
    assert extend_factor(b, g, "w") == 0
    with pytest.raises(KeyError):
        extend_factor(b, g, "nope")
    uncapped = MonomialFactor({"h1": INF, "h2": Fraction(7, 10)})
    assert extend_factor(b, uncapped, "s") is INF
    assert extend_factor(b, uncapped, "h2") == Fraction(7, 10)


# ---- structural checks ------------------------------------------------------


def test_fixture_scenarios_are_valid(chain_scenario, crossing_scenario, blown_chain_response):
    assert validate_scenario(chain_scenario) == []
    assert validate_scenario(crossing_scenario) == []
    assert validate_scenario(blown_chain_response) == []


def test_structure_bad_budget(chain_scenario):
    assert _issues(remake(chain_scenario, B=0)) == {"structure"}


def test_structure_boolean_d_or_B(chain_scenario):
    # bool is a subclass of int; a JSON true is not a dimension or a bound
    for bad in (remake(chain_scenario, B=True), remake(chain_scenario, d=True)):
        (v,) = validate_shape(bad)
        assert (v.issue, v.detail.startswith("bad d/B")) == ("structure", True)
        assert validate_scenario(bad) == [v]


def test_structure_d_out_of_range(chain_scenario):
    assert "structure" in _issues(remake(chain_scenario, d=5))


def test_structure_unknown_nodes(chain_scenario):
    bad = remake(chain_scenario, T=chain_scenario.T | {"ghost"})
    assert _issues(bad) == {"structure"}


def test_structure_factor_weight_at_unknown_node(crossing_scenario):
    ghost = MonomialFactor({"h1": Fraction(3, 5), "h2": Fraction(7, 10), "ghost": 1})
    vs = validate_scenario(remake(crossing_scenario, M=FactorSet((ghost,))))
    assert [(v.issue, v.witness) for v in vs] == [("structure", ("ghost",))]


def test_structure_ord_domain_mismatch(chain_scenario):
    assert _issues(remake(chain_scenario, ord={})) == {"structure"}


def test_structure_ord_granularity(crossing_scenario):
    bad = remake(crossing_scenario, ord={"s": Fraction(1, 3)})
    assert "structure" in _issues(bad)
    worse = remake(crossing_scenario, ord={"s": Fraction(-1, 10)})
    assert "structure" in _issues(worse)


def _crossed_board():
    """The cover x < h joins two nodes of dimension 1: not a valid board."""
    covers = [("s", "h"), ("h", "w"), ("x", "h"), ("x", "w")]
    return Board({"s": 0, "h": 1, "x": 1, "w": 2}, covers)


def test_a_scenario_on_an_invalid_board_reports_the_board_and_stops():
    b = _crossed_board()
    c = Scenario(b, d=0, B=6, H=[], S={"s"}, T=b.ids, ord={"s": INF}, M=[zero_factor([])])
    want = validate_board(b)
    assert [(v.rule, v.issue) for v in want] == [("board", "monotone-dim")]
    assert validate_shape(c) == want
    assert validate_scenario(c) == want


def test_gen_scenario_hands_out_no_scenario_on_an_invalid_board():
    with pytest.raises(RuntimeError, match="monotone-dim"):
        gen_scenario(1, board=_crossed_board())


# ---- the nine numbered checks, one targeted mutant each ---------------------


def test_issue_1_jib_dimension(crossing_board):
    c = Scenario(
        crossing_board, d=2, B=1, H={"s"}, S=[], T={"w"},
        ord={}, M=[zero_factor({"s"})],
    )
    assert _issues(c) == {1}


def test_issue_2_singular_set_not_down_closed(chain_board):
    c = Scenario(
        chain_board, d=1, B=1, H=[], S={"a"}, T={"p", "a", "w"},
        ord={"a": INF}, M=[zero_factor([])],
    )
    assert _issues(c) == {2}


def test_issue_3_maximal_infinite_order_dim(chain_scenario):
    c = remake(chain_scenario, ord={"p": INF})
    assert _issues(c) == {3}


def test_issue_3_jib_free_needs_transversal(chain_scenario):
    c = remake(chain_scenario, d=0, ord={"p": INF}, T={"a", "w"})
    assert 3 in _issues(c)


def test_issue_4_dim_exceeds_d(chain_board):
    c = Scenario(
        chain_board, d=0, B=1, H=[], S={"p", "a"}, T={"p", "a", "w"},
        ord={"p": INF, "a": 1}, M=[zero_factor([])],
    )
    assert 4 in _issues(c)


def test_issue_4_top_dim_singular_must_be_uncapped(chain_scenario):
    c = remake(chain_scenario, d=0, ord={"p": 1})
    assert _issues(c) == {4}


def test_issue_5_too_many_jibs_above(crossing_scenario):
    c = remake(crossing_scenario, d=1, ord={"s": Fraction(1, 2)})
    assert 5 in _issues(c)


def test_issue_5_forced_transversality(crossing_scenario):
    c = remake(crossing_scenario, T={"h1", "h2", "w"})
    assert _issues(c) == {5}


def test_issue_6_order_below_factor(crossing_scenario):
    # 6/5 is at least 1 (issue 4) and below the factor's 13/10 at s
    c = remake(crossing_scenario, ord={"s": Fraction(6, 5)})
    assert _issues(c) == {6}


def test_issue_7_empty_factor_set(crossing_scenario):
    c = remake(crossing_scenario, M=FactorSet(()))
    assert _issues(c) == {7}


def test_issue_7_domain_mismatch(crossing_scenario):
    c = remake(crossing_scenario, M=[zero_factor({"h1"})])
    assert _issues(c) == {7}


def test_issue_7_negative_weight(crossing_scenario):
    c = remake(crossing_scenario, M=FactorSet((
        MonomialFactor({"h1": Fraction(-1), "h2": 0}),
    )))
    assert _issues(c) == {7}


def test_issue_7_generators_not_an_antichain(crossing_scenario):
    g1 = MonomialFactor({"h1": Fraction(1, 10), "h2": 0})
    g2 = zero_factor({"h1", "h2"})
    c = remake(crossing_scenario, M=FactorSet((g1, g2)))
    assert _issues(c) == {7}


def test_issue_8_residual_order_increases(chain_board):
    good = Scenario(
        chain_board, d=1, B=1, H=[], S={"p", "a"}, T={"p", "a", "w"},
        ord={"p": INF, "a": INF}, M=[zero_factor([])],
    )
    assert validate_scenario(good) == []
    bad = remake(good, ord={"p": 2, "a": INF})
    assert _issues(bad) == {8}


def test_issue_8_reads_the_weights_issue_7_rejects_off_the_handicap():
    # p below a and b; the only generator weighs b, which is not a jib.
    board = Board(
        {"p": 0, "a": 1, "b": 1, "w": 2},
        [("p", "a"), ("p", "b"), ("a", "w"), ("b", "w")],
    )
    c = Scenario(
        board, d=2, B=1, H=[], S={"p", "a"}, T=board.ids,
        ord={"p": 2, "a": 1}, M=[MonomialFactor({"b": 2})],
    )
    # Issue 8 sums the generator's own weights separating p from a, as
    # issue 6 extends them: 2 - 2 < 1. Any such input already fails issue 7.
    assert separation_mass(board, c.M.generators[0], "p", "a") == 2
    assert [(v.issue, v.witness) for v in validate_scenario(c)] == [
        (7, ("b",)),
        (8, ("p", "a")),
    ]


def _reference_order_checks(c):
    """Reference: issue 4 and the order checks of issues 6 and 8 as loops of
    their own, as ``validate_scenario`` once ran them, before an order below
    1 was an issue-4 finding."""
    b, gens, out = c.board, c.M.generators, []
    for s in sorted(c.S):
        if b.dim(s) > c.d:
            out.append((4, (s,), f"singular node {s} has dim {b.dim(s)} > d = {c.d}"))
        elif b.dim(s) == c.d and c.ord[s] is not INF:
            out.append((4, (s,), f"dim({s}) = d but ord({s}) = {format_value(c.ord[s])}"))
    for s in sorted(c.S):
        for g in gens:
            ext = extend_factor(b, g, s)
            if not c.ord[s] >= ext:
                detail = f"ord({s}) = {format_value(c.ord[s])} < factor value {format_value(ext)}"
                out.append((6, (s,), detail))
    for s in sorted(c.S):
        for t in sorted((b.up_set(s) & c.S) - {s}):
            for g in gens:
                spent = separation_mass(b, g, s, t)
                if spent is INF:
                    ok = c.ord[s] is INF
                    detail = f"uncapped factor weight between {s} and {t} but ord({s}) finite"
                else:
                    ok = c.ord[s] - spent >= c.ord[t]
                    detail = (
                        f"residual order increases from {s} to {t}: "
                        f"{format_value(c.ord[s])} - {format_value(spent)} < {format_value(c.ord[t])}"
                    )
                if not ok:
                    out.append((8, (s, t), detail))
                    break
    return out


def _reference_floor(c, s):
    """Reference: the least order s may take under the orders of its uppers,
    at least 1, INF at dimension d, and the largest order the reference
    checks of issues 6 and 8 ask for."""
    b, gens = c.board, c.M.generators
    if b.dim(s) == c.d:
        return INF
    bounds = [Fraction(1)] + [extend_factor(b, g, s) for g in gens]
    for t in (b.up_set(s) & c.S) - {s}:
        bounds += [c.ord[t] + separation_mass(b, g, s, t) for g in gens]
    return INF if INF in bounds else max(bounds)


def _order_mutants(c):
    """c, and c with one order of S moved to 1, to INF, up by 1/B, and to
    its floor minus 1/B where that floor is finite."""
    yield c
    step = Fraction(1, c.B)
    for s in sorted(c.S):
        floor = _reference_floor(c, s)
        moves = [Fraction(1), INF, c.ord[s] + step] + [floor - step] * (floor is not INF)
        for v in moves:
            yield remake(c, ord={**c.ord, s: v})


def _separated_pairs():
    """Scenarios in which issue 8 reads a positive separating mass: S holds
    p < a, the jib h lies above p but not above a, and the one generator
    weighs h at k/B or INF."""
    board = Board(
        {"p": 0, "a": 1, "h": 1, "w": 2}, [("p", "a"), ("p", "h"), ("a", "w"), ("h", "w")]
    )
    for B in (1, 2, 3):
        for weight in [Fraction(k, B) for k in range(2 * B + 1)] + [INF]:
            yield Scenario(
                board, d=2, B=B, H={"h"}, S={"p", "a"}, T=board.ids,
                ord={"p": INF, "a": 2}, M=[MonomialFactor({"h": weight})],
            )


def test_order_checks_match_their_own_loops_apart_from_orders_below_1():
    # Issues 4, 6 and 8 read the terms of order_floor; they must report
    # what the loops of their own reported, plus issue 4 at every finite
    # order below 1. Generated starts weigh no jib and seldom hold two
    # comparable singular nodes, so issue 8's masses come from the blowup
    # walks' responses and from _separated_pairs.
    starts = [gen_scenario(seed) for seed in range(60)]
    starts += [gen_monomial_scenario(seed) for seed in range(30)]
    starts += dict.fromkeys(c for seed in range(12) for c in _blowup_walk(seed))
    starts += _separated_pairs()
    met = Counter()
    for c in (m for start in starts for m in _order_mutants(start)):
        got = validate_scenario(c)
        below_one = [
            (4, (s,), f"ord({s}) = {format_value(v)} < 1")
            for s, v in sorted(c.ord.items()) if v is not INF and v < 1
        ]
        want = Counter(_reference_order_checks(c)) + Counter(below_one)
        assert Counter((v.issue, v.witness, v.detail) for v in got if v.issue in (4, 6, 8)) == want
        met["compared"] += 1
        met["below 1"] += len(below_one)
        met.update(issue for issue, _, _ in want.elements())
    # every order issue, and the new finding, was met many times
    assert met["compared"] > 1000 and all(met[k] > 20 for k in (4, 6, 8, "below 1")), met


def test_issue_9_heavy_jib_set_without_witness(crossing_scenario):
    c = remake(crossing_scenario, M=[MonomialFactor({"h1": 1, "h2": 0})])
    assert _issues(c) == {9}


def _issue_9(c):
    return [v for v in validate_scenario(c) if v.issue == 9]


def _heavy(c):
    return heavy_jib_violations(c.board, c.d, c.H, c.S, c.M)


def _walk_blowups(seed, steps=4):
    """A generated scenario's root blowups over a few rounds: each scenario
    c, its blowup bt, and every root response on bt (every keep set at every
    bump level, valid or not). Each round continues from a randomly picked
    valid response."""
    rng = random.Random(seed)
    c = gen_scenario(seed)
    for _ in range(steps):
        centers = sorted(admissible_centers(c))
        if not centers:
            return
        bt = blowup_transform(c.board, rng.choice(centers))
        responses = [
            c1
            for keep in _down_closed_keeps(bt.target, _root_keep_max(c, bt))
            for level in range(3)
            if (c1 := _root_response(c, bt, keep, Fraction(level, c.B))) is not None
        ]
        yield c, bt, responses
        valid = [c1 for c1 in responses if not validate_blowup_transform(c, bt, c1)]
        if not valid:
            return
        c = rng.choice(valid)


def _blowup_walk(seed, steps=4):
    """A generated scenario and its root blowup responses over a few rounds."""
    yield gen_scenario(seed)
    for _, _, responses in _walk_blowups(seed, steps):
        yield from responses


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**4), data=st.data())
@example(seed=6, data=None)
@example(seed=26, data=None)
def test_heavy_jib_violations_are_issue_9_and_ignore_orders(seed, data):
    for c in _blowup_walk(seed):
        assert not [v for v in validate_scenario(c) if v.issue == "structure"]
        found = _heavy(c)
        assert found == _issue_9(c)
        # replacing every order leaves the issue-9 findings alone
        values = [INF, Fraction(0), Fraction(1), 1 + Fraction(1, c.B), Fraction(5)]
        if data is None:
            new = {s: values[i % len(values)] for i, s in enumerate(sorted(c.S))}
        else:
            new = {s: data.draw(st.sampled_from(values)) for s in sorted(c.S)}
        assert _issue_9(remake(c, ord=new)) == found


def test_blowup_walks_reach_issue_9():
    # the property above is not vacuous: seeds 6 and 26 meet heavy jib sets
    for seed in (6, 26):
        assert any(_heavy(c) for c in _blowup_walk(seed))


def _reference_heavy_jib_violations(board, d, H, S, M):
    """Issue 9 by the per-node formula, with no table: the oracle for
    ``heavy_jib_violations``."""
    out = []
    singular = sorted(S)
    for s in singular:
        uppers = tuple(h for h in sorted(H) if s in board.down_set(h))
        for K in heavy_jib_sets(uppers, M.generators):
            hits = [
                t
                for t in singular
                if s in board.down_set(t)
                and all(t in board.down_set(h) for h in K)
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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**4))
@example(seed=6)
@example(seed=26)
def test_heavy_jib_table_matches_the_per_node_formula_on_every_keep(seed):
    found = 0
    for c, bt, responses in _walk_blowups(seed):
        b1 = bt.target
        H1, M1 = blowup_jibs(c, bt)
        assert blowup_jibs(c, bt)[1] is M1
        assert all(c1.H is H1 and c1.M is M1 for c1 in responses)
        for keep in _down_closed_keeps(b1, _root_keep_max(c, bt)):
            want = _reference_heavy_jib_violations(b1, c.d, H1, keep, M1)
            found += bool(want)
            # every keep of the board reads the one table on M1 ...
            assert heavy_jib_violations(b1, c.d, H1, keep, M1) == want
            # ... and equal but fresh objects build their own
            fresh_board = Board({s: b1.dim(s) for s in b1.ids}, b1.covers)
            fresh_M = FactorSet.of(M1.generators)
            assert fresh_board is not b1 and fresh_M is not M1
            got = heavy_jib_violations(fresh_board, c.d, frozenset(set(H1)), keep, fresh_M)
            assert got == want
    if seed in (6, 26):
        assert found  # the walk meets keeps that fail issue 9


def test_heavy_jib_table_is_keyed_by_board_d_and_H():
    board = Board(
        {"s": 0, "h1": 1, "h2": 1, "w": 2},
        [("s", "h1"), ("s", "h2"), ("h1", "w"), ("h2", "w")],
    )
    # the same nodes, but s lies below h2 only
    other = Board(
        {"s": 0, "h1": 1, "h2": 1, "w": 2},
        [("s", "h2"), ("h1", "w"), ("h2", "w")],
    )
    M = FactorSet.of([MonomialFactor({"h1": 1, "h2": 0})])
    H = frozenset({"h1", "h2"})
    asks = [
        (board, 2, H, frozenset({"s"})),
        (board, 2, H, frozenset({"s", "h1"})),
        (board, 1, H, frozenset({"s"})),
        (board, 2, frozenset({"h2"}), frozenset({"s"})),
        (other, 2, H, frozenset({"s"})),
        (board, 2, H, frozenset({"s"})),
    ]
    witnesses = []
    for b, d, HH, S in asks:
        want = _reference_heavy_jib_violations(b, d, HH, S, M)
        assert heavy_jib_violations(b, d, HH, S, M) == want
        witnesses.append([v.witness for v in want])
    # asks 3-5 share S with the first and still answer differently, so a row
    # kept from it would have shown
    assert witnesses == [[("s", "h1")], [], [("s", "h1", "h2")], [], [], [("s", "h1")]]


def test_heavy_jib_table_stays_off_equality_and_hash(crossing_scenario):
    c = remake(crossing_scenario, M=[MonomialFactor({"h1": 1, "h2": 0})])
    twin = remake(c)
    before = (hash(c), hash(c.M), repr(c))
    assert _issue_9(c)
    assert vars(c.M).get("_memo")  # the table is stored on M
    assert (hash(c), hash(c.M), repr(c)) == before
    assert c == twin and c.M == twin.M and hash(c.M) == hash(twin.M)
    # the table dies with its factor set
    M = FactorSet.of([MonomialFactor({"h1": 1, "h2": 0})])
    assert heavy_jib_violations(c.board, c.d, c.H, c.S, M)
    dead = weakref.ref(M)
    del M
    gc.collect()
    assert dead() is None


# ---- predicates -------------------------------------------------------------


def test_tight_resolved_monomial(chain_scenario, crossing_scenario, blown_chain_response):
    assert not is_tight(chain_scenario)
    assert is_tight(blown_chain_response)
    assert chain_scenario.S
    assert not remake(chain_scenario, S=[], ord={}).S
    assert complete_factor(crossing_scenario) == crossing_scenario.M.generators[0]
    assert complete_factor(chain_scenario) is None


def test_complete_factor_on_resolved_scenario(crossing_scenario):
    done = remake(crossing_scenario, S=[], ord={})
    assert complete_factor(done) == crossing_scenario.M.generators[-1]


def test_admissible_centers(chain_scenario, crossing_scenario):
    assert admissible_centers(chain_scenario) == frozenset({"p"})
    first = admissible_centers(crossing_scenario)
    assert first == frozenset({"s"})
    assert admissible_centers(crossing_scenario) is first


def test_admissible_centers_remote_nodes(crossing_board):
    # With nothing singular below them, side nodes become legal centers.
    c = Scenario(
        crossing_board, d=2, B=1, H={"h1", "h2"}, S=[], T={"s", "h1", "h2", "w"},
        ord={}, M=[zero_factor({"h1", "h2"})],
    )
    assert admissible_centers(c) == frozenset({"s", "h1", "h2"})


# ---- order placement --------------------------------------------------------


def test_assign_orders_raises_each_free_node_by_its_own_amount():
    board = Board({"a": 0, "b": 0, "h": 1, "w": 2}, [("a", "h"), ("b", "h"), ("h", "w")])
    gens = (MonomialFactor({"h": Fraction(1, 2)}),)
    raises = {"h": Fraction(1, 2), "a": Fraction(2)}  # b is missing: 0
    # h: floor 1, raised to 3/2. a and b: floor 3/2, the order of h, since
    # the one jib lies above h as well and separates nothing; a is raised to 3
    assert assign_orders(board, 2, {"a", "b", "h"}, gens, {}, raises) == {
        "h": Fraction(3, 2), "a": Fraction(3), "b": Fraction(3, 2)
    }
    # a fixed order is taken as it is, even below its floor; below an order
    # INF at dimension d, the floor is INF
    assert assign_orders(board, 1, {"a", "b", "h"}, gens, {"b": Fraction(1)}, raises) == {
        "h": INF, "a": INF, "b": Fraction(1)
    }


# ---- generated scenarios stay valid -----------------------------------------


def test_generated_scenarios_are_valid():
    for seed in range(40):
        c = gen_scenario(seed)
        assert validate_scenario(c) == [], f"seed {seed}"


def test_equal_scenarios_hash_alike():
    c = next(c for c in map(gen_scenario, range(40)) if len(c.S) >= 2)
    swapped = remake(c, ord=dict(reversed(list(c.ord.items()))))
    assert list(swapped.ord) != list(c.ord)
    assert swapped == c and hash(swapped) == hash(c)
    assert len({c, swapped, remake(c, ord={s: Fraction(7) for s in c.S})}) == 2


def test_scenario_normalises_its_input(crossing_board):
    b = crossing_board
    loose = Scenario(
        b, 2, 10, ["h2", "h1"], {"s"}, list(b.ids), {"s": 2},
        [MonomialFactor({"h2": Fraction(7, 10), "h1": 1})],
    )
    exact = Scenario(
        b, 2, 10, frozenset({"h1", "h2"}), frozenset({"s"}), frozenset(b.ids),
        FrozenDict({"s": Q(2)}), FactorSet((MonomialFactor({"h1": Q(1), "h2": Q(7, 10)}),)),
    )
    assert loose == exact and hash(loose) == hash(exact)
    assert [type(part) for part in (loose.H, loose.S, loose.T)] == [frozenset] * 3
    assert type(loose.ord) is FrozenDict and type(loose.M) is FactorSet
    assert [type(v) for v in loose.ord.values()] == [Q]
    assert [type(w) for g in loose.M.generators for w in g.values()] == [Q, Q]
    # a frozen map of other numbers is converted too
    frozen = dataclasses.replace(exact, ord=FrozenDict({"s": Fraction(2)}))
    assert frozen == exact and type(frozen.ord["s"]) is Q


def test_replace_gives_q_orders(chain_scenario):
    c = dataclasses.replace(chain_scenario, ord={"p": Fraction(3), "a": INF})
    assert type(c.ord) is FrozenDict
    assert type(c.ord["p"]) is Q and c.ord["a"] is INF


def test_scenario_orders_are_read_only(chain_scenario):
    c = chain_scenario
    for change in (
        lambda o: o.__setitem__("p", Fraction(3)),
        lambda o: o.__delitem__("p"),
        lambda o: o.update(p=Fraction(3)),
        lambda o: o.setdefault("q", Fraction(1)),
        lambda o: o.pop("p"),
        lambda o: o.popitem(),
        lambda o: o.clear(),
    ):
        with pytest.raises(TypeError):
            change(c.ord)
    assert c.ord == {"p": 2}
    # a scenario built from a plain dict freezes it too
    raw = Scenario(c.board, c.d, c.B, c.H, c.S, c.T, {"p": Fraction(2)}, c.M)
    with pytest.raises(TypeError):
        raw.ord["p"] = Fraction(3)
    assert raw == c and hash(raw) == hash(c)


# ---- serialization ----------------------------------------------------------


def test_factor_json_roundtrip():
    m = MonomialFactor({"a": Fraction(3, 7), "b": INF, "c": 0})
    assert factor_from_json(factor_to_json(m)) == m


def test_scenario_json_roundtrip():
    for seed in range(25):
        c = gen_scenario(seed)
        assert scenario_from_json(scenario_to_json(c)) == c


def test_scenario_json_board_override(crossing_scenario):
    data = scenario_to_json(crossing_scenario)
    del data["board"]
    data["board"] = None
    c = scenario_from_json(data, board=crossing_scenario.board)
    assert c == crossing_scenario


def test_scenario_json_rejects_malformed():
    with pytest.raises(ValueError):
        scenario_from_json({"d": 1})


@pytest.mark.parametrize(
    "key, bad", [("H", ""), ("H", "h1"), ("S", {"s": "1"}), ("T", ["w", 1]), ("T", None)]
)
def test_scenario_json_takes_node_ids_in_lists_only(crossing_scenario, key, bad):
    # a string was split into its characters and an object read as its keys
    data = scenario_to_json(crossing_scenario)
    data[key] = bad
    with pytest.raises(ValueError, match=f"^malformed scenario JSON: {key} .* not a list of node ids"):
        scenario_from_json(data)


@pytest.mark.parametrize("extra", ["duplicate", "dominated"])
def test_scenario_json_keeps_the_generators_as_written(crossing_scenario, extra):
    # the reader pruned them, so a set that is not an antichain read clean
    data = scenario_to_json(crossing_scenario)
    (g,) = data["M"]
    data["M"] = [g, g] if extra == "duplicate" else [{h: "0" for h in g}, g]
    c = scenario_from_json(data)
    assert len(c.M.generators) == 2
    assert [g._sort_key() for g in c.M.generators] == sorted(g._sort_key() for g in c.M.generators)
    assert [(v.issue, v.detail) for v in validate_scenario(c)] == [
        (7, "generators are not an antichain")
    ]
