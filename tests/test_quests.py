"""The four quest calls: responses, checks, and their numbered items."""

import itertools
import random
from fractions import Fraction

import pytest

from salmagundy.board import BLOWUP, Board, BoardTransform, trivial_refinement
from salmagundy.mephisto import blowup_transform
from salmagundy.quests import (
    QuestRelation,
    call_check,
    call_response,
    descent_check,
    quotient_bound,
    quotient_check,
    quotient_response,
    relaxation_check,
    relaxation_response,
    transversality_check,
    transversality_response,
)
from salmagundy.scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    is_tight,
    validate_scenario,
    zero_factor,
)
from salmagundy.values import INF


def _remake(c, **kw):
    fields = dict(
        board=c.board, d=c.d, B=c.B, H=c.H, S=c.S, T=c.T, ord=dict(c.ord), M=c.M
    )
    fields.update(kw)
    return Scenario.make(**fields)


def _tags(violations, rule):
    assert all(v.rule == rule for v in violations), violations
    return {v.issue for v in violations}


# ---- quotient bound ---------------------------------------------------------


def test_quotient_bound_examples():
    assert quotient_bound(2, Fraction(3, 2)) == 4
    assert quotient_bound(6, Fraction(3)) == 2
    assert quotient_bound(1, Fraction(1)) == 1
    assert quotient_bound(10, Fraction(13, 10)) == 100
    with pytest.raises(ValueError):
        quotient_bound(5, Fraction(0))
    with pytest.raises(ValueError):
        quotient_bound(5, Fraction(-1, 2))


def test_quotient_bound_matches_grid_intersection():
    # smallest positive integer k with k*q/B integral
    rng = random.Random(20)
    for _ in range(120):
        B = rng.randint(1, 12)
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        got = quotient_bound(B, q)
        denom = B * q.denominator
        brute = next(k for k in range(1, denom + 1) if (k * q.numerator) % denom == 0)
        assert got == brute, (B, q)


# ---- quotient response ------------------------------------------------------


def test_quotient_by_zero_factor_at_scale_one_is_identity(crossing_scenario):
    c = crossing_scenario
    c1 = quotient_response(c, zero_factor(c.H), Fraction(1))
    assert c1 == c


def test_quotient_rescales_orders_and_factors(crossing_scenario):
    c = crossing_scenario
    q = Fraction(13, 10)
    c1 = quotient_response(c, zero_factor(c.H), q)
    assert c1.S == {"s"}
    assert c1.ord["s"] == 1
    assert is_tight(c1)
    assert c1.B == 100
    assert c1.M.generators == (
        MonomialFactor.of({"h1": Fraction(6, 13), "h2": Fraction(7, 13)}),
    )
    assert validate_scenario(c1) == []


def test_quotient_by_complete_factor_resolves(crossing_scenario):
    c = crossing_scenario
    (g,) = c.M.generators
    c1 = quotient_response(c, g, Fraction(1))
    assert c1.S == frozenset()
    assert c1.M == FactorSet.of([zero_factor(c.H)])


def test_quotient_drops_shallow_nodes():
    b = Board({"p": 0, "a": 1, "w": 2}, [("p", "a"), ("a", "w")])
    c = Scenario.make(
        b, d=1, B=2, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": Fraction(1, 2)}, M=[zero_factor([])],
    )
    c1 = quotient_response(c, zero_factor([]), Fraction(1))
    assert c1.S == frozenset()


def test_quotient_keeps_uncapped_orders_and_weights(chain_board):
    c = Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p", "a"}, T={"p", "a", "w"},
        ord={"p": INF, "a": INF}, M=[zero_factor([])],
    )
    c1 = quotient_response(c, zero_factor([]), Fraction(2))
    assert c1.S == {"p", "a"}
    assert c1.ord["p"] is INF and c1.ord["a"] is INF
    assert c1.B == 1


def test_quotient_rejects_bad_arguments(crossing_scenario):
    c = crossing_scenario
    with pytest.raises(ValueError):
        quotient_response(c, zero_factor(c.H), Fraction(0))
    with pytest.raises(ValueError):
        quotient_response(c, MonomialFactor.of({"h1": 2, "h2": 0}), Fraction(1))
    with pytest.raises(ValueError, match="unknown nodes"):
        # A zero weight off the board still passes membership.
        quotient_response(c, MonomialFactor.of({"h1": 0, "h2": 0, "ghost": 0}), Fraction(1))


def test_quotient_check_items(crossing_scenario):
    c = crossing_scenario
    q = Fraction(13, 10)
    m = zero_factor(c.H)
    want = quotient_response(c, m, q)
    assert quotient_check(c, m, q, want) == []
    other_board = Board({"x": 0, "w": 1}, [("x", "w")])
    alien = Scenario.make(
        other_board, want.d, want.B, [], [], ["w"], {}, [zero_factor([])]
    )
    assert _tags(quotient_check(c, m, q, alien), "quotient") == {"structure"}
    assert _tags(quotient_check(c, m, q, _remake(want, d=0)), "quotient") == {1}
    assert _tags(quotient_check(c, m, q, _remake(want, B=1)), "quotient") == {1}
    assert _tags(
        quotient_check(c, m, q, _remake(want, H=["h1"])), "quotient"
    ) == {2}
    assert _tags(
        quotient_check(c, m, q, _remake(want, S=[], ord={})), "quotient"
    ) == {3}
    assert _tags(
        quotient_check(c, m, q, _remake(want, ord={"s": 2})), "quotient"
    ) == {4}
    assert _tags(
        quotient_check(c, m, q, _remake(want, T=want.T - {"w"})), "quotient"
    ) == {5}
    assert _tags(
        quotient_check(c, m, q, _remake(want, M=[zero_factor(want.H)])), "quotient"
    ) == {6}


# ---- transversality ---------------------------------------------------------


@pytest.fixture
def jib_heavy_scenario(crossing_board):
    """A valid scenario whose factor set admits the single-jib factor at h1."""
    return Scenario.make(
        crossing_board, d=2, B=10, H={"h1", "h2"}, S={"s", "h1"},
        T={"s", "h1", "h2", "w"}, ord={"s": 2, "h1": 1},
        M=[MonomialFactor.of({"h1": 1, "h2": Fraction(7, 10)})],
    )


def test_transversality_empty_call_is_identity(crossing_scenario):
    assert transversality_response(crossing_scenario, []) is crossing_scenario


def test_transversality_full_call_flattens(crossing_scenario):
    c1 = transversality_response(crossing_scenario, ["h1", "h2"])
    assert c1.S == {"s"}
    assert c1.ord["s"] == 1
    assert c1.M == FactorSet.of([zero_factor(crossing_scenario.H)])
    assert c1.T == crossing_scenario.T
    assert validate_scenario(c1) == []


def test_transversality_single_jib_keeps_unit_factor(jib_heavy_scenario):
    c = jib_heavy_scenario
    assert validate_scenario(c) == []
    c1 = transversality_response(c, ["h1"])
    assert c1.S == {"s", "h1"}
    assert all(v == 1 for v in c1.ord.values())
    assert c1.M == FactorSet.of([MonomialFactor.of({"h1": 1, "h2": 0})])
    assert validate_scenario(c1) == []


def test_transversality_single_jib_without_support_zeroes(crossing_scenario):
    # the parent factors cannot pay weight 1 at h1, so the factor collapses
    c1 = transversality_response(crossing_scenario, ["h1"])
    assert c1.M == FactorSet.of([zero_factor(crossing_scenario.H)])


def test_transversality_rejects_non_jibs(crossing_scenario):
    with pytest.raises(ValueError):
        transversality_response(crossing_scenario, ["s"])


def test_transversality_check_items(crossing_scenario):
    c = crossing_scenario
    K = ["h1", "h2"]
    want = transversality_response(c, K)
    assert transversality_check(c, K, want) == []
    assert _tags(
        transversality_check(c, K, _remake(want, d=1)), "transversality"
    ) == {1}
    assert _tags(
        transversality_check(c, K, _remake(want, H=[])), "transversality"
    ) == {2}
    got = transversality_check(c, K, _remake(want, S=[], ord={}))
    assert _tags(got, "transversality") == {3}
    assert _tags(
        transversality_check(c, K, _remake(want, ord={"s": 2})), "transversality"
    ) == {4}
    assert _tags(
        transversality_check(c, K, _remake(want, T=["s", "w"])), "transversality"
    ) == {5}
    assert _tags(
        transversality_check(
            c, K, _remake(want, M=[MonomialFactor.of({"h1": 1, "h2": 0})])
        ),
        "transversality",
    ) == {6}


# ---- relaxation -------------------------------------------------------------


@pytest.fixture
def forked_scenario():
    """A jib branch and a bare branch; t is remote from the only jib."""
    b = Board({"s": 0, "h1": 1, "t": 0, "w": 2}, [("s", "h1"), ("h1", "w"), ("t", "w")])
    return Scenario.make(
        b, d=1, B=1, H={"h1"}, S={"s"}, T={"s"},
        ord={"s": 1}, M=[zero_factor({"h1"})],
    )


def test_relaxation_accepts_plain_release(forked_scenario):
    c = forked_scenario
    assert validate_scenario(c) == []
    c1 = _remake(c, H=[], M=[zero_factor([])])
    assert relaxation_check(c, ["h1"], c1) == []


def test_relaxation_accepts_partial_meeting_additions(forked_scenario):
    c = forked_scenario
    c1 = _remake(c, H=[], M=[zero_factor([])], T={"s", "w"})
    assert relaxation_check(c, ["h1"], c1) == []


def test_relaxation_check_items(forked_scenario):
    c = forked_scenario
    ok = _remake(c, H=[], M=[zero_factor([])])
    alien = Scenario.make(
        Board({"x": 0}, []), c.d, c.B, [], [], ["x"], {}, [zero_factor([])]
    )
    assert _tags(relaxation_check(c, ["h1"], alien), "relaxation") == {"structure"}
    assert _tags(relaxation_check(c, ["h1"], _remake(ok, B=7)), "relaxation") == {1}
    assert _tags(
        relaxation_check(c, ["h1"], _remake(ok, S=[], ord={})), "relaxation"
    ) == {2}
    assert _tags(
        relaxation_check(c, ["h1"], _remake(ok, ord={"s": 0})), "relaxation"
    ) == {2}
    assert _tags(relaxation_check(c, ["h1"], c), "relaxation") == {3, 5}
    assert _tags(
        relaxation_check(c, ["h1"], _remake(ok, T=[])), "relaxation"
    ) == {4}
    # t is remote from the released jib: it earned nothing
    assert _tags(
        relaxation_check(c, ["h1"], _remake(ok, T={"s", "t"})), "relaxation"
    ) == {4}
    assert _tags(
        relaxation_check(c, ["h1"], _remake(ok, M=FactorSet(()))), "relaxation"
    ) == {5}
    with pytest.raises(ValueError):
        relaxation_check(c, ["nope"], c)


def test_relaxation_response_passes_its_check(
    forked_scenario, crossing_scenario, chain_scenario, blown_chain_response
):
    for c in (forked_scenario, crossing_scenario, chain_scenario, blown_chain_response):
        jibs = sorted(c.H)
        for k in range(len(jibs) + 1):
            for J in itertools.combinations(jibs, k):
                c1 = relaxation_response(c, J)
                assert relaxation_check(c, J, c1) == []
                assert (c1.H, c1.T, c1.S) == (c.H - set(J), c.T, c.S)
    with pytest.raises(ValueError):
        relaxation_response(forked_scenario, ["nope"])


def test_relaxation_response_restricts_factors(crossing_scenario):
    c1 = relaxation_response(crossing_scenario, ["h1"])
    assert c1.M == FactorSet.of([MonomialFactor.of({"h2": Fraction(7, 10)})])
    assert validate_scenario(c1) == validate_scenario(
        _remake(crossing_scenario, H={"h2"}, M=c1.M)
    )


# ---- descent ----------------------------------------------------------------


@pytest.fixture
def tight_bare_scenario(chain_board):
    return Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": 1}, M=[zero_factor([])],
    )


def test_descent_happy_path(tight_bare_scenario, chain_board):
    c = tight_bare_scenario
    assert validate_scenario(c) == []
    bt = trivial_refinement(chain_board)
    c1 = Scenario.make(
        chain_board, d=0, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": INF}, M=[zero_factor([])],
    )
    assert descent_check(c, bt, c1) == []


def test_descent_preconditions_raise(chain_scenario, crossing_scenario, tight_bare_scenario, chain_board):
    bt = trivial_refinement(chain_board)
    with pytest.raises(ValueError):
        descent_check(chain_scenario, bt, chain_scenario)  # not tight
    jibbed = _remake(crossing_scenario, ord={"s": 1})
    with pytest.raises(ValueError):
        descent_check(jibbed, trivial_refinement(jibbed.board), jibbed)  # H nonempty
    floor = Scenario.make(
        chain_board, d=0, B=1, H=[], S=[], T={"w"}, ord={}, M=[zero_factor([])]
    )
    with pytest.raises(ValueError):
        descent_check(floor, bt, floor)  # d = 0
    blow = blowup_transform(chain_board, "p")
    with pytest.raises(ValueError):
        descent_check(tight_bare_scenario, blow, tight_bare_scenario)  # not a refinement


def test_descent_check_items(tight_bare_scenario, chain_board):
    c = tight_bare_scenario
    bt = trivial_refinement(chain_board)
    good = Scenario.make(
        chain_board, d=0, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": INF}, M=[zero_factor([])],
    )

    def descent_tags(c1):
        return {v.issue for v in descent_check(c, bt, c1) if v.rule == "descent"}

    other = Board({"x": 0, "w": 1}, [("x", "w")])
    alien = Scenario.make(other, 0, 1, [], [], ["w"], {}, [zero_factor([])])
    assert descent_tags(alien) == {"structure"}
    assert descent_tags(_remake(good, d=1)) == {1}
    assert descent_tags(_remake(good, S=["p", "a"], ord={"p": INF, "a": INF})) == {2}
    assert descent_tags(_remake(good, T=["a", "w"])) == {2}
    # the restriction to the empty handicap is the only legal factor set
    assert descent_tags(_remake(good, M=FactorSet(()))) == {2}


def test_descent_response_must_be_valid_scenario(tight_bare_scenario, chain_board):
    # keeping a finite order at the new top dimension breaks scenario rules,
    # and the check surfaces those violations alongside its own items
    c = tight_bare_scenario
    bt = trivial_refinement(chain_board)
    sloppy = Scenario.make(
        chain_board, d=0, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": 1}, M=[zero_factor([])],
    )
    got = descent_check(c, bt, sloppy)
    assert any(v.rule == "scenario" and v.issue == 4 for v in got)


# ---- the one dispatch over the fixed-response calls ----------------------------


def _fixed_calls(c):
    """Every transversality and relaxation call on c, and a quotient call by
    each generator and by zero at each residual order."""
    jib_sets = [
        K for k in range(len(c.H) + 1) for K in itertools.combinations(sorted(c.H), k)
    ]
    out = [(QuestRelation.transversality(K), transversality_response, transversality_check)
           for K in jib_sets]
    out += [(QuestRelation.relaxation(J), relaxation_response, relaxation_check)
            for J in jib_sets]
    for m in c.M.generators + (zero_factor(c.H),):
        for q in sorted({v for v in c.ord.values() if v is not INF} | {Fraction(1)}):
            out.append((QuestRelation.quotient(m, q), quotient_response, quotient_check))
    return out


def _args(rel):
    return (rel.factor, rel.scale) if rel.kind == "quotient" else (rel.jibs,)


def test_call_response_and_check_are_the_per_kind_functions(
    crossing_scenario, jib_heavy_scenario, forked_scenario, chain_scenario
):
    parents = [crossing_scenario, jib_heavy_scenario, forked_scenario, chain_scenario]
    kinds = set()
    for c in parents:
        for rel, response, check in _fixed_calls(c):
            want = response(c, *_args(rel))
            assert call_response(c, rel) == want
            for claimed in (want, c, _remake(want, T=[])):
                assert call_check(c, rel, claimed) == check(c, *_args(rel), claimed)
            kinds.add(rel.kind)
    assert kinds == {"transversality", "relaxation", "quotient"}


def test_call_dispatch_rejects_descent_and_unknown_kinds(crossing_scenario):
    c = crossing_scenario
    for rel in (QuestRelation.descent(), QuestRelation("shuffle")):
        with pytest.raises(ValueError):
            call_response(c, rel)
        with pytest.raises(ValueError):
            call_check(c, rel, c)
