import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgeo import Poset, grid_config, lattice_1p1, random_dag
from posetgeo.errors import CycleViolation, DuplicateEvent, UnknownEvent
from posetgeo.poset import Chain

from .conftest import warshall_closure, warshall_reduction, wide_denominator_doc


def test_leq_matches_warshall_oracle():
    edges = [(0, 1), (1, 2), (0, 3), (3, 4), (2, 4), (5, 0)]
    n = 6
    poset = Poset(range(n), edges)
    closure = warshall_closure(n, edges)
    for a in range(n):
        for b in range(n):
            assert poset.leq(a, b) == closure[a, b]


@settings(max_examples=50, deadline=None)
@given(st.integers(10, 60), st.floats(0.0, 0.4), st.integers(0, 10_000))
def test_random_dag_closure_matches_oracle(n, p, seed):
    poset = random_dag(n, p, seed)
    edges = poset.cover_pairs()
    closure = warshall_closure(n, edges)
    for a in range(n):
        for b in range(n):
            assert poset.leq(a, b) == closure[a, b]


def test_covers_is_transitive_reduction():
    poset = Poset(range(3), [(0, 1), (1, 2), (0, 2)])
    # (0, 2) is implied by the chain through 1
    assert poset.cover_pairs() == [(0, 1), (1, 2)]


@st.composite
def _dags(draw):
    """(n, pairs): random generating pairs, oriented by a hidden linear
    order that differs from the row order, so some rows precede their
    predecessors."""
    n = draw(st.integers(1, 24))
    rank = draw(st.permutations(range(n)))
    raw = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                        max_size=4 * n))
    return n, [(a, b) if rank[a] < rank[b] else (b, a) for a, b in raw if a != b]


@settings(max_examples=100, deadline=None)
@given(_dags())
def test_cover_pairs_match_reduction_oracle_on_random_dags(dag):
    n, pairs = dag
    poset = Poset(range(n), pairs)
    assert poset.cover_pairs() == warshall_reduction(n, pairs)


def _full_relation(poset):
    events = poset.events()
    return [(a, b) for a in events for b in events if poset.leq(a, b)]


@pytest.mark.parametrize("make", [
    lambda: lattice_1p1(4, 20).poset,
    lambda: lattice_1p1(4, 20).poset.dual(),
    lambda: grid_config(3, 3, 3, 4).bundle.poset,
], ids=["lattice", "lattice-dual", "grid"])
def test_cover_pairs_match_reduction_oracle_on_layouts(make):
    poset = make()
    events = poset.events()
    assert events == list(range(len(events)))
    assert poset.cover_pairs() == warshall_reduction(len(events), _full_relation(poset))


def test_cycle_rejected():
    with pytest.raises(CycleViolation):
        Poset(range(3), [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleViolation):
        Poset(range(3), [(1, 1)])


def test_duplicate_and_unknown_events():
    with pytest.raises(DuplicateEvent):
        Poset([7, 7])
    with pytest.raises(UnknownEvent):
        Poset([7], [(7, 8)])


def test_dual_reverses_order():
    poset = Poset(range(3), [(0, 1), (1, 2)])
    dual = poset.dual()
    assert dual.leq(2, 0) and not dual.leq(0, 2)
    assert set(dual.cover_pairs()) == {(2, 1), (1, 0)}


def test_chain_requires_monotone_valuation():
    poset = Poset(range(3), [(0, 1), (1, 2)])
    Chain.build(poset, "c", [0, 1, 2], [0, 1, 2])
    with pytest.raises(ValueError):
        Chain.build(poset, "c", [0, 1, 2], [0, 2, 1])
    with pytest.raises(ValueError):
        Chain.build(poset, "c", [0, 2, 1], [0, 1, 2])


def test_dual_chain_negates_valuations():
    poset = Poset(range(3), [(0, 1), (1, 2)])
    chain = Chain.build(poset, "c", [0, 1, 2], [0, 1, 5])
    dual = chain.dual()
    assert list(dual.elements) == [2, 1, 0]
    assert dual.value(2) == -5 and dual.value(0) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions() | st.integers(-50, 50), min_size=1, max_size=8,
                unique=True))
def test_chain_values_are_the_valuations_given(valuations):
    """Kept as ticks over their least common denominator, each valuation
    reads back exactly, and the dual chain reads back its negation."""
    valuations.sort()
    n = len(valuations)
    poset = Poset(range(n), [(k, k + 1) for k in range(n - 1)])
    chain = Chain.build(poset, "c", range(n), valuations)
    assert chain.den == math.lcm(*(Fraction(v).denominator for v in valuations))
    dual = chain.dual()
    for e, v in enumerate(valuations):
        assert chain.value(e) == Fraction(v)
        assert dual.value(e) == -Fraction(v)


def test_chain_build_bounds_the_common_denominator():
    """The common denominator is folded one valuation at a time, so
    valuations with large coprime denominators stop at the digit bound
    instead of building it."""
    doc = wide_denominator_doc(50)
    (spec,) = doc["chains"]
    poset = Poset(doc["events"], doc["covers"])
    values = [Fraction(v) for v in spec["valuations"]]
    start = time.perf_counter()
    with pytest.raises(ValueError, match="common denominator"):
        Chain.build(poset, spec["id"], spec["events"], values)
    assert time.perf_counter() - start < 1.0
