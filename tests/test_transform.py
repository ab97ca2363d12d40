"""Scenario transport across blowups, and commutativity."""

from collections import Counter
from fractions import Fraction

import pytest

from salmagundy.board import Board, BoardTransform, blowup_transform, trivial_refinement
from salmagundy.dido import DidoStrategy
from salmagundy.game import (
    Bundle,
    GameState,
    Move,
    Quest,
    apply_round,
    blowup_discards,
    new_game,
    validate_bundle,
)
from salmagundy.harness import gen_monomial_scenario, gen_scenario
from salmagundy.mephisto import Policy, respond
from salmagundy.quests import (
    DESCENT,
    QUOTIENT,
    RELAXATION,
    TRANSVERSALITY,
    quotient_response,
    transversality_response,
)
from salmagundy.scenario import (
    FactorSet,
    MonomialFactor,
    Scenario,
    admissible_centers,
    complete_factor,
    zero_factor,
)
from salmagundy.transform import (
    RULE,
    QuestRelation,
    capped_transport,
    commutes,
    complete_orders,
    pinned_orders,
    quotient_lifted_factor,
    transport_relation,
    validate_blowup_transform,
)
from salmagundy.values import INF
from conftest import remake


def _rule_tags(violations):
    return {v.issue for v in violations if v.rule == RULE}


# ---- blowups: the fixture square --------------------------------------------


def test_chain_blowup_response_is_accepted(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    assert validate_blowup_transform(chain_scenario, bt, blown_chain_response) == []


def test_blowup_rejects_refinement_kind(chain_scenario):
    bt = trivial_refinement(chain_scenario.board)
    with pytest.raises(ValueError):
        validate_blowup_transform(chain_scenario, bt, chain_scenario)


def test_blowup_rejects_scenarios_on_other_boards(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    c = chain_scenario
    alien = Scenario.make(
        Board({"x": 0}, []), c.d, c.B, [], [], ["x"], {}, [zero_factor([])]
    )
    assert _rule_tags(validate_blowup_transform(c, bt, alien)) == {"structure"}
    assert _rule_tags(validate_blowup_transform(alien, bt, blown_chain_response)) == {"structure"}


@pytest.fixture
def crossing_blowup(crossing_scenario):
    """Blowup of the crossing at its singular bottom, with a full response."""
    bt = blowup_transform(crossing_scenario.board, "s")
    c1 = Scenario.make(
        bt.target, d=2, B=10, H={"h1", "h2", "e0"}, S={"q1", "q2"},
        T=set(bt.target.ids),
        ord={"q1": Fraction(9, 10), "q2": Fraction(1)},
        M=[MonomialFactor.of(
            {"h1": Fraction(3, 5), "h2": Fraction(7, 10), "e0": Fraction(3, 10)}
        )],
    )
    return bt, c1


def test_crossing_blowup_full_response_is_accepted(crossing_scenario, crossing_blowup):
    bt, c1 = crossing_blowup
    assert validate_blowup_transform(crossing_scenario, bt, c1) == []


# ---- blowups: one targeted mutant per numbered item --------------------------


def test_blowup_item_1_dimension_changed(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    got = validate_blowup_transform(
        chain_scenario, bt, remake(blown_chain_response, d=2)
    )
    assert 1 in _rule_tags(got)


def test_blowup_item_2_transversality_not_mirrored(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    got = validate_blowup_transform(
        chain_scenario, bt, remake(blown_chain_response, T={"e0", "q1", "w"})
    )
    assert 2 in _rule_tags(got)


def test_blowup_item_7_center_must_be_admissible(chain_scenario, blown_chain_response):
    shy = remake(chain_scenario, T={"a", "w"})
    bt = blowup_transform(shy.board, "p")
    c1 = remake(blown_chain_response, T={"a", "w", "q1"})
    assert _rule_tags(validate_blowup_transform(shy, bt, c1)) == {7}


def test_blowup_item_8_singular_outside_fiber(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    c1 = remake(
        blown_chain_response,
        S={"q1", "a"},
        ord={"q1": Fraction(1), "a": INF},
    )
    assert _rule_tags(validate_blowup_transform(chain_scenario, bt, c1)) == {8}


def test_blowup_item_9_exceptional_order_pinned(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    c1 = remake(
        blown_chain_response,
        S={"q1", "e0"},
        ord={"q1": Fraction(1), "e0": Fraction(2)},
    )
    assert _rule_tags(validate_blowup_transform(chain_scenario, bt, c1)) == {9}


def test_blowup_item_9_needs_heavy_singular_center(chain_board, blown_chain_response):
    lean = Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": 1}, M=[zero_factor([])],
    )
    bt = blowup_transform(chain_board, "p")
    c1 = Scenario.make(
        bt.target, d=1, B=1, H={"e0"}, S={"q1", "e0"},
        T=set(bt.target.ids), ord={"q1": 1, "e0": INF},
        M=[MonomialFactor.of({"e0": 0})],
    )
    assert 9 in _rule_tags(validate_blowup_transform(lean, bt, c1))


def test_blowup_item_10_orders_carried_off_locus(chain_board):
    deep = Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p", "a"}, T={"p", "a", "w"},
        ord={"p": INF, "a": INF}, M=[zero_factor([])],
    )
    bt = blowup_transform(chain_board, "p")
    c1 = Scenario.make(
        bt.target, d=1, B=1, H={"e0"}, S={"q1", "a"},
        T=set(bt.target.ids), ord={"q1": INF, "a": 1},
        M=[MonomialFactor.of({"e0": INF})],
    )
    assert _rule_tags(validate_blowup_transform(deep, bt, c1)) == {10}


def test_blowup_item_11_tightness_is_hereditary(chain_board):
    tight = Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": 1}, M=[zero_factor([])],
    )
    bt = blowup_transform(chain_board, "p")
    c1 = Scenario.make(
        bt.target, d=1, B=1, H={"e0"}, S={"q1"},
        T=set(bt.target.ids), ord={"q1": 2},
        M=[MonomialFactor.of({"e0": 0})],
    )
    assert _rule_tags(validate_blowup_transform(tight, bt, c1)) == {11}


def test_blowup_item_12_handicap_gains_exceptional(chain_scenario, blown_chain_response):
    bt = blowup_transform(chain_scenario.board, "p")
    c1 = remake(blown_chain_response, H=[])
    assert _rule_tags(validate_blowup_transform(chain_scenario, bt, c1)) == {12}


def test_blowup_item_13_critical_fiber_killed(crossing_board):
    heavy = Scenario.make(
        crossing_board, d=2, B=10, H={"h1", "h2"}, S={"s", "h1"},
        T={"s", "h1", "h2", "w"}, ord={"s": 2, "h1": 1},
        M=[MonomialFactor.of({"h1": 1, "h2": Fraction(7, 10)})],
    )
    bt = blowup_transform(crossing_board, "h1")
    c1 = Scenario.make(
        bt.target, d=2, B=10, H={"e0", "h2"}, S={"s"},
        T=set(bt.target.ids), ord={"s": 2},
        M=[MonomialFactor.of({"e0": 0, "h2": Fraction(7, 10)})],
    )
    assert _rule_tags(validate_blowup_transform(heavy, bt, c1)) == {13}


def test_blowup_item_14_cap_cannot_go_negative(chain_board):
    thin = Scenario.make(
        chain_board, d=1, B=2, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": Fraction(1, 2)}, M=[zero_factor([])],
    )
    bt = blowup_transform(chain_board, "p")
    c1 = Scenario.make(
        bt.target, d=1, B=2, H={"e0"}, S={"q1"},
        T=set(bt.target.ids), ord={"q1": Fraction(1, 2)},
        M=[MonomialFactor.of({"e0": 0})],
    )
    assert 14 in _rule_tags(validate_blowup_transform(thin, bt, c1))


def test_blowup_item_14_generators_must_be_capped_transports(
    chain_scenario, blown_chain_response
):
    bt = blowup_transform(chain_scenario.board, "p")
    c1 = remake(blown_chain_response, M=[MonomialFactor.of({"e0": 0})])
    assert _rule_tags(validate_blowup_transform(chain_scenario, bt, c1)) == {14}


def test_blowup_item_15_complete_factor_stays_complete(crossing_scenario, crossing_blowup):
    bt, good = crossing_blowup
    c1 = remake(good, ord={"q1": Fraction(9, 10), "q2": Fraction(13, 10)})
    assert _rule_tags(validate_blowup_transform(crossing_scenario, bt, c1)) == {15}


def _driver_transversality_children(seeds):
    """Every scenario with a singular node and a complete factor that an
    open transversality child holds in canonical games on monomial seeds."""
    found = {}
    for seed in seeds:
        st, dido = new_game(gen_monomial_scenario(seed)), DidoStrategy()
        while (mv := dido.decide(st)) is not None:
            bundle = respond(st, mv, Policy.parse("canonical"))
            st, record = apply_round(st, mv, bundle)
            dido.observe(st, mv, bundle, record)
            for q in st.open_quests():
                c = q.scenario
                if q.relation is not None and q.relation.kind == TRANSVERSALITY:
                    if c.S and complete_factor(c) is not None:
                        found[id(c)] = c
    return list(found.values())


def test_complete_orders_agree_with_every_pin():
    # where items 9-10 pin an order, item 15 gives the same one, so Mephisto
    # reads one map: the complete orders when there are any, else the pins
    kids = _driver_transversality_children(range(30))
    met = Counter()
    for c in [gen_monomial_scenario(seed) for seed in range(60)] + kids:
        for z in sorted(admissible_centers(c)):
            bt = blowup_transform(c.board, z)
            complete = complete_orders(c, bt)
            assert set(complete) == set(bt.target.ids)
            for x, pin in pinned_orders(c, bt).items():
                assert complete[x] == pin, (z, x)
                met["e" if x == bt.exceptional else "off the exceptional locus"] += 1
    assert kids and len(met) == 2, met


# ---- transported factors ----------------------------------------------------


def test_capped_transport_weights(crossing_scenario):
    bt = blowup_transform(crossing_scenario.board, "s")
    (m,) = crossing_scenario.M.generators
    m1 = capped_transport(crossing_scenario, bt, m)
    assert m1.as_dict() == {
        "h1": Fraction(3, 5),
        "h2": Fraction(7, 10),
        "e0": Fraction(3, 10),
    }


def test_quotient_lifted_factor_adds_scale_at_exceptional(crossing_scenario):
    bt = blowup_transform(crossing_scenario.board, "s")
    (m,) = crossing_scenario.M.generators
    lifted = quotient_lifted_factor(m, Fraction(1, 2), bt)
    assert lifted.weight("e0") == Fraction(13, 10) + Fraction(1, 2) - 1
    assert lifted.weight("h1") == Fraction(3, 5)


def test_quotient_lifted_factor_clamps_at_zero(crossing_scenario):
    bt = blowup_transform(crossing_scenario.board, "s")
    z = zero_factor(crossing_scenario.H)
    lifted = quotient_lifted_factor(z, Fraction(1, 2), bt)
    assert lifted.weight("e0") == 0


def test_transport_relation_kinds(crossing_scenario):
    bt = blowup_transform(crossing_scenario.board, "s")
    c = crossing_scenario
    rel = transport_relation(QuestRelation.relaxation({"h1"}), bt)
    assert rel.jibs == frozenset({"h1"})
    rel = transport_relation(QuestRelation.transversality({"h2"}), bt)
    assert rel.jibs == frozenset({"h2"})
    rel = transport_relation(QuestRelation.descent(), bt)
    assert rel == QuestRelation.descent()
    q = transport_relation(
        QuestRelation.quotient(zero_factor(c.H), Fraction(1)), bt
    )
    assert q.scale == 1
    assert q.factor.domain == {"h1", "h2", "e0"}


def test_transport_relation_sheds_exceptional_from_release(crossing_board):
    bt = blowup_transform(crossing_board, "h1")
    rel = transport_relation(QuestRelation.relaxation({"h1", "h2"}), bt)
    assert bt.exceptional == "e0"
    assert rel.jibs == frozenset({"h2"})


# ---- child survival ---------------------------------------------------------


def _children_of_root(root, *children):
    """A game state whose main quest has the given (relation, scenario)
    children, as quests 1, 2, ..."""
    quests = {0: Quest(0, None, None, root)}
    for qid, (rel, c1) in enumerate(children, 1):
        quests[qid] = Quest(qid, 0, rel, c1)
    return GameState(quests)


def test_child_survival_requires_admissible_center(chain_scenario):
    bt = blowup_transform(chain_scenario.board, "p")
    shy_child = remake(chain_scenario, T={"a", "w"})
    rel = QuestRelation.descent()
    st = _children_of_root(chain_scenario, (rel, chain_scenario), (rel, shy_child))
    assert blowup_discards(st, bt) == {2}


def test_quotient_child_discarded_when_lift_exceeds_cap(crossing_scenario):
    c = crossing_scenario
    bt = blowup_transform(c.board, "s")
    z = zero_factor(c.H)
    fine = QuestRelation.quotient(z, Fraction(13, 10))
    fine_child = quotient_response(c, z, Fraction(13, 10))
    big = QuestRelation.quotient(z, Fraction(3, 2))
    big_child = quotient_response(c, z, Fraction(3, 2))
    # the center is admissible for both children: only the cap tells them apart
    assert "s" in admissible_centers(fine_child) and "s" in admissible_centers(big_child)
    st = _children_of_root(c, (fine, fine_child), (big, big_child))
    assert blowup_discards(st, bt) == {2}


# ---- commutativity ----------------------------------------------------------


@pytest.fixture
def squares(crossing_scenario, chain_board):
    """Per call kind: a parent, the call, its child and a blowup center the
    child survives."""
    c = crossing_scenario
    z = zero_factor(c.H)
    tight = Scenario.make(
        chain_board, d=1, B=1, H=[], S={"p"}, T={"p", "a", "w"},
        ord={"p": 1}, M=[zero_factor([])],
    )
    return {
        RELAXATION: (
            c,
            QuestRelation.relaxation({"h1"}),
            Scenario.make(
                c.board, 2, 10, {"h2"}, {"s"}, c.T, {"s": Fraction(13, 10)},
                [MonomialFactor.of({"h2": Fraction(7, 10)})],
            ),
            "s",
        ),
        DESCENT: (
            tight,
            QuestRelation.descent(),
            Scenario.make(
                chain_board, d=0, B=1, H=[], S={"p"}, T={"p", "a", "w"},
                ord={"p": INF}, M=[zero_factor([])],
            ),
            "p",
        ),
        TRANSVERSALITY: (
            c,
            QuestRelation.transversality({"h1", "h2"}),
            transversality_response(c, {"h1", "h2"}),
            "s",
        ),
        QUOTIENT: (
            c,
            QuestRelation.quotient(z, Fraction(1)),
            quotient_response(c, z, Fraction(1)),
            "s",
        ),
    }


def _two_quests(parent, rel, child):
    return GameState({0: Quest(0, None, None, parent), 1: Quest(1, 0, rel, child)})


def _square(parent, rel, child, center):
    """Run the umpire for one blowup over parent+child; return its square."""
    st = _two_quests(parent, rel, child)
    bundle = respond(st, Move.blowup(center), Policy.parse("canonical"))
    return bundle.transform, bundle.responses.get(0), bundle.responses.get(1)


def _comm_tags(violations):
    return {v.issue for v in violations if v.rule == "commutativity"}


def _bundle_structure(violations):
    return any(v.rule == "bundle" and v.issue == "structure" for v in violations)


def test_commutes_relaxation(squares):
    c, rel, child, center = squares[RELAXATION]
    bt, cp, c1p = _square(c, rel, child, center)
    assert commutes(rel, c, child, cp, c1p, bt) == []
    warped = remake(c1p, H=c1p.H | {"h1"}, M=cp.M)
    assert 1 in _comm_tags(commutes(rel, c, child, cp, warped, bt))


def test_commutes_descent(squares):
    parent, rel, child, center = squares[DESCENT]
    bt, cp, c1p = _square(parent, rel, child, center)
    assert commutes(rel, parent, child, cp, c1p, bt) == []
    assert 2 in _comm_tags(
        commutes(rel, parent, child, cp, remake(c1p, d=cp.d), bt)
    )


def test_commutes_transversality(squares):
    c, rel, child, center = squares[TRANSVERSALITY]
    bt, cp, c1p = _square(c, rel, child, center)
    assert commutes(rel, c, child, cp, c1p, bt) == []
    assert 3 in _comm_tags(
        commutes(rel, c, child, cp, remake(c1p, T=c1p.T - {"w"}), bt)
    )


def test_commutes_quotient(squares):
    c, rel, child, center = squares[QUOTIENT]
    bt, cp, c1p = _square(c, rel, child, center)
    assert commutes(rel, c, child, cp, c1p, bt) == []
    bad_ord = {s: v + 1 for s, v in c1p.ord.items()}
    assert 4 in _comm_tags(
        commutes(rel, c, child, cp, remake(c1p, ord=bad_ord), bt)
    )


@pytest.mark.parametrize("kind", [RELAXATION, DESCENT, TRANSVERSALITY, QUOTIENT])
def test_umpire_rejects_responses_that_disagree_with_the_discards(squares, kind):
    c, rel, child, center = squares[kind]
    mv = Move.blowup(center)
    st = _two_quests(c, rel, child)
    bundle = respond(st, mv, Policy.parse("canonical"))
    assert bundle.discards == frozenset() and set(bundle.responses) == {0, 1}
    kept = bundle.responses[1]
    missing = Bundle(bundle.transform, {0: bundle.responses[0]})
    assert _bundle_structure(validate_bundle(st, mv, missing))
    # without the center among its transversal nodes the child is discarded
    st = _two_quests(c, rel, remake(child, T=child.T - {center}))
    bundle = respond(st, mv, Policy.parse("canonical"))
    assert bundle.discards == {1} and set(bundle.responses) == {0}
    for discards in (bundle.discards, frozenset()):
        ghost = Bundle(bundle.transform, {**bundle.responses, 1: kept}, discards)
        assert _bundle_structure(validate_bundle(st, mv, ghost))


def test_commutes_discarded_child_must_stay_closed(crossing_scenario):
    # the lifted quotient factor exceeds the exceptional cap, so the
    # blowup closes the child, and the umpire refuses a response for it
    c = crossing_scenario
    z = zero_factor(c.H)
    rel = QuestRelation.quotient(z, Fraction(3, 2))
    child = quotient_response(c, z, Fraction(3, 2))
    st = _two_quests(c, rel, child)
    mv = Move.blowup("s")
    bundle = respond(st, mv, Policy.parse("canonical"))
    assert bundle.discards == {1} and 1 not in bundle.responses
    assert validate_bundle(st, mv, bundle) == []
    ghost = remake(bundle.responses[0], B=child.B)
    for discards in (bundle.discards, frozenset()):
        kept = Bundle(bundle.transform, {**bundle.responses, 1: ghost}, discards)
        assert _bundle_structure(validate_bundle(st, mv, kept))


def test_commutes_requires_aligned_boards(squares, chain_scenario):
    c, rel, child, center = squares[TRANSVERSALITY]
    bt, cp, c1p = _square(c, rel, child, center)
    assert commutes(rel, c, child, cp, c1p, bt) == []
    for args in ((c, chain_scenario, cp), (c, child, c)):
        got = commutes(rel, *args, c1p, bt)
        assert [(v.rule, v.issue) for v in got] == [("commutativity", "structure")]
    # a parent response off the new board is reported, not raised
    stale_root = Bundle(bt, {0: c, 1: c1p})
    got = validate_bundle(_two_quests(c, rel, child), Move.blowup(center), stale_root)
    assert ("commutativity", "structure") in {(v.rule, v.issue) for v in got}


def test_commutes_reports_a_call_the_new_parent_does_not_admit():
    # gen_scenario(5), canonical: a blowup at a jib K of a transversality
    # child carries K onto the exceptional node; a root response without
    # that jib leaves the transported call nothing to answer
    st = new_game(gen_scenario(5))
    dido, policy = DidoStrategy(), Policy.parse("canonical")
    while True:
        mv = dido.decide(st)
        bundle = respond(st, mv, policy)
        if mv.kind == "blowup":
            child = st.quests.get(1)
            if child is not None and mv.center in child.relation.jibs and 1 in bundle.responses:
                break
        st, record = apply_round(st, mv, bundle)
        dido.observe(st, mv, bundle, record)
    assert child.relation.kind == TRANSVERSALITY
    bt = bundle.transform
    root = bundle.responses[0]
    crafted = remake(root, H=root.H - {bt.exceptional})
    got = validate_bundle(st, mv, Bundle(bt, {**bundle.responses, 0: crafted}, bundle.discards))
    assert any(
        v.rule == "commutativity" and v.issue == 3 and v.witness == (bt.exceptional,)
        for v in got
    )
