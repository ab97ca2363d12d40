"""Extended order values: ordering, arithmetic conventions, serialization."""

import collections
import copy
import operator
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salmagundy import INF, ONE, ZERO, Q, format_value, harness, is_finite, parse_value
from salmagundy.dido import DidoStrategy
from salmagundy.harness import explore, gen_monomial_scenario, gen_scenario, play_game
from salmagundy.mephisto import Policy


def test_identity_and_equality():
    assert INF == INF
    assert INF != Fraction(10**9) and INF != 0
    assert len({INF, INF}) == 1
    # a copy or a pickle of INF, alone or inside a container, is INF itself
    held = {"s": INF, "t": Q(3, 2)}
    for back in (copy.copy(INF), copy.deepcopy(held)["s"], pickle.loads(pickle.dumps(held))["s"]):
        assert back is INF


def test_total_order_against_finites():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
        assert x < INF
        assert x <= INF
        assert INF > x
        assert INF >= x
        assert not (INF < x) and not (INF <= x)
    assert not INF < INF and INF <= INF


def test_addition_and_negation():
    assert INF + 5 == INF and 5 + INF == INF
    assert INF + INF == INF
    with pytest.raises(TypeError):
        -INF


def test_subtraction_conventions():
    # INF absorbs on the left, even against itself.
    assert INF - 7 == INF
    assert INF - INF == INF
    # finite - INF is undefined: there is no negative infinity.
    with pytest.raises(ArithmeticError):
        Fraction(1) - INF
    with pytest.raises(ArithmeticError):
        3 - INF


def test_scaling():
    assert INF / 4 == INF and INF / Fraction(1, 2) == INF
    for scale in (-1, Fraction(-1, 2)):
        with pytest.raises(ArithmeticError):
            INF / scale
    with pytest.raises(TypeError):
        INF * 2
    with pytest.raises(TypeError):
        2 * INF
    with pytest.raises(ZeroDivisionError):
        INF / 0
    with pytest.raises(ArithmeticError):
        INF / INF


def test_is_finite():
    assert is_finite(Fraction(5, 3)) and is_finite(0)
    assert not is_finite(INF)


def test_parse_format_roundtrip():
    rng = random.Random(11)
    cases = [INF, Fraction(0), Fraction(-7, 3)]
    cases += [
        Fraction(rng.randint(-500, 500), rng.randint(1, 60)) for _ in range(100)
    ]
    for v in cases:
        assert parse_value(format_value(v)) == v
    assert format_value(INF) == "inf"
    assert format_value(Fraction(4, 2)) == "2"
    assert parse_value("13/10") == Fraction(13, 10)


@pytest.mark.parametrize(
    "text", ["", "1//2", "x", "1/0", "1/", "in f", "3/ 4", "3 /4", "1/-2", "\u00b2"]
)
def test_malformed_text_raises_fractions_own_error(text):
    with pytest.raises((ValueError, ZeroDivisionError)) as want:
        Fraction(text)
    if want.type is ZeroDivisionError:  # a zero denominator is malformed text too
        with pytest.raises(ValueError, match="zero denominator"):
            parse_value(text)
        return
    with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
        parse_value(text)


@pytest.mark.parametrize("text", ["1/0", "0/0", "007/000", " 1/0", "-1/0", "+3/00"])
def test_a_zero_denominator_is_a_value_error(text):
    # a trace or scenario file that holds one is rejected input; replay and
    # validate report a ValueError and would print a ZeroDivisionError's
    # traceback
    with pytest.raises(ValueError, match=f"value {re.escape(repr(text))} has a zero denominator"):
        parse_value(text)


def test_parse_value_reads_only_what_format_value_writes():
    # A text parses only if format_value of its value gives it back, so a
    # trace or scenario file has one spelling of each value.
    for text in ["0", "3", "12", "-3", "3/4", "-3/4", "10/3", "inf"]:
        got = parse_value(text)
        assert format_value(got) == text and (got is INF or type(got) is Q)
    other = [" 1", "+1", "1e0", "1_0", "0.5", "2/4", "2/2", "01", "007", "4/6", "10/4"]
    other += ["+3", " 7/2 ", "1e2", "-0", "0/3", "00", "3/1", "1/02", "-2/4", "-01"]
    other += ["\u0663", "\u0663/\u0664"]  # Arabic-Indic 3 and 3/4
    for text in other:
        written = format_value(Fraction(text))
        assert written != text
        with pytest.raises(ValueError, match=f"^value {re.escape(repr(text))} is not written as "
                           f"{re.escape(repr(written))}$"):
            parse_value(text)


# ---- Q against fractions.Fraction -------------------------------------------

_SMALL = st.integers(-40, 40)
_OPERAND = st.one_of(
    st.tuples(st.just("int"), _SMALL, st.just(1)),
    st.tuples(st.sampled_from(["Q", "Fraction"]), _SMALL, st.integers(1, 24)),
    st.just(("INF", 0, 1)),
)
_OPERATORS = [
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne,
]


def _operand(kind, n, d):
    """The operand and its reference, in which a Q is the Fraction of its value."""
    if kind == "INF":
        return INF, INF
    if kind == "int":
        return n, n
    return (Q if kind == "Q" else Fraction)(n, d), Fraction(n, d)


def _outcome(op, x, y):
    try:
        return op(x, y)
    except Exception as exc:  # the reference may raise; Q must raise alike
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_OPERAND, _OPERAND)
def test_q_computes_what_fraction_computes(a, b):
    (x, rx), (y, ry) = _operand(*a), _operand(*b)
    for op in _OPERATORS:
        got, want = _outcome(op, x, y), _outcome(op, rx, ry)
        if isinstance(want, type):  # the reference raised
            assert got is want, (op, x, y)
        elif isinstance(want, Fraction):
            assert isinstance(got, Fraction) and got == want, (op, x, y)
            assert hash(got) == hash(got) == hash(want)  # the second hash is the stored one
            assert str(got) == str(want) and format_value(got) == format_value(want)
            # a Q and an int or a Q give a Q
            if {type(x), type(y)} <= {Q, int} and Q in (type(x), type(y)):
                assert type(got) is Q, (op, x, y)
        else:  # a bool, a float or INF
            assert got == want and type(got) is type(want), (op, x, y)
    assert hash(x) == hash(rx) and str(x) == str(rx) and format_value(x) == format_value(rx)


@given(_SMALL, st.integers(-24, 24).filter(bool))
def test_q_is_built_like_fraction(n, d):
    q, want = Q(n, d), Fraction(n, d)
    assert (q.numerator, q.denominator) == (want.numerator, want.denominator)
    assert Q(q) is q and Q(want) == q and type(Q(want)) is Q
    assert Q(str(want)) == q and type(Q(str(want))) is Q
    with pytest.raises(ZeroDivisionError):
        Q(n, 0)


def test_zero_and_one_are_shared_qs():
    assert type(ZERO) is type(ONE) is Q
    assert ZERO == 0 and ONE == 1 and not ZERO and ONE


# ---- no value of a game falls back to Fraction ---------------------------------


def _finite_values(scenario):
    yield from scenario.ord.values()
    for g in scenario.M.generators:
        yield from g.values()


def _relation_values(rel):
    if rel is None:
        return
    if rel.factor is not None:
        yield from rel.factor.values()
    if rel.scale is not None:
        yield rel.scale


def test_every_order_weight_and_scale_of_a_game_is_a_q(monkeypatch):
    """A stray ``Fraction`` would compute right but take Fraction's slow
    operators. Every value of every state, move and Dido plan must be a Q."""
    seen = collections.Counter()

    def check(values, what):
        for v in values:
            if v is not INF:
                assert type(v) is Q, (what, v, type(v))
                seen[what] += 1

    apply = harness.apply_round

    def checked_apply(state, move, bundle):
        after, record = apply(state, move, bundle)
        check(_relation_values(move.relation), "scale or factor of a call")
        for quest in after.quests.values():
            check(_finite_values(quest.scenario), "order or weight")
            check(_relation_values(quest.relation), "scale or factor of a call")
        return after, record

    observe = DidoStrategy.observe

    def checked_observe(self, *args):
        after = observe(self, *args)
        for plan in after.plans.values():
            if hasattr(plan, "m"):
                check(plan.m.values(), "Dido's factor")
        for _, masses in after.measure_log:
            check(masses, "Dido's measure")
        return after

    monkeypatch.setattr(harness, "apply_round", checked_apply)
    monkeypatch.setattr(DidoStrategy, "observe", checked_observe)
    for scenario, policy in (
        [(gen_scenario(seed), "canonical") for seed in (4, 6)]
        + [(gen_scenario(seed), "adversarial") for seed in (6, 14)]
        + [(gen_scenario(seed), "random:1") for seed in (4, 16)]
        + [(gen_monomial_scenario(seed), "canonical") for seed in (2, 7)]
    ):
        check(_finite_values(scenario), "order or weight")
        assert play_game(scenario, Policy.parse(policy)).won
    assert explore(gen_scenario(4)).all_won
    assert all(seen[what] for what in (
        "scale or factor of a call", "order or weight", "Dido's factor", "Dido's measure"
    )), seen
