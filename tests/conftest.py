"""Shared fixtures: the small boards and scenarios the suite returns to.

``chain_*`` is the three-node chain p < a < w with an order-2 point at the
bottom; its canonical blowup response is frozen in ``blown_chain_*``.
``crossing_*`` is the two-jib diamond with a complete factor (a monomial
scenario). Both are small enough to check by hand. ``remake`` is a helper
that test modules import.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from salmagundy import (
    Board,
    FactorSet,
    MonomialFactor,
    Scenario,
    zero_factor,
)


def remake(c: Scenario, **kw) -> Scenario:
    """c with the fields in ``kw`` replaced: a new scenario, normalised by its
    constructor, with nothing stored on it."""
    return replace(c, **kw)


@pytest.fixture
def chain_board() -> Board:
    return Board({"p": 0, "a": 1, "w": 2}, [("p", "a"), ("a", "w")])


@pytest.fixture
def chain_scenario(chain_board) -> Scenario:
    return Scenario(
        board=chain_board,
        d=1,
        B=1,
        H=frozenset(),
        S={"p"},
        T=chain_board.ids,
        ord={"p": 2},
        M=FactorSet.of([zero_factor(frozenset())]),
    )


@pytest.fixture
def blown_chain_board() -> Board:
    """The canonical blowup of the chain at p: e0 replaces p one dimension up,
    q1 is the fresh intersection of e0 with the transform of a."""
    return Board(
        {"a": 1, "e0": 1, "q1": 0, "w": 2},
        [("a", "w"), ("e0", "w"), ("q1", "a"), ("q1", "e0")],
    )


@pytest.fixture
def blown_chain_response(blown_chain_board) -> Scenario:
    """The frozen canonical root response to blowing up the chain at p."""
    return Scenario(
        board=blown_chain_board,
        d=1,
        B=1,
        H={"e0"},
        S={"q1"},
        T=blown_chain_board.ids,
        ord={"q1": 1},
        M=FactorSet.of([MonomialFactor({"e0": Fraction(1)})]),
    )


@pytest.fixture
def crossing_board() -> Board:
    return Board(
        {"s": 0, "h1": 1, "h2": 1, "w": 2},
        [("s", "h1"), ("s", "h2"), ("h1", "w"), ("h2", "w")],
    )


@pytest.fixture
def crossing_scenario(crossing_board) -> Scenario:
    """Monomial: the complete factor (3/5, 7/10) carries the whole order."""
    return Scenario(
        board=crossing_board,
        d=2,
        B=10,
        H={"h1", "h2"},
        S={"s"},
        T=crossing_board.ids,
        ord={"s": Fraction(13, 10)},
        M=FactorSet.of(
            [MonomialFactor({"h1": Fraction(3, 5), "h2": Fraction(7, 10)})]
        ),
    )
