from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgeo import (
    IntervalClass,
    Projector,
    QuantPair,
    Side,
    check_orthogonal_subspaces,
    classify_interval,
    dot_product,
    event_chain_distance_sq,
    grid_config,
    interval_scalar,
    lattice_1p1,
    quantify_event,
    quantify_interval_one_chain,
    quantify_interval_two_chains,
    random_dag,
    sym_antisym_decompose,
    validate_fence,
)
from posetgeo.errors import MissingProjection, NotBetween, Unquantifiable
from posetgeo.poset import Chain

from .conftest import scan_backward, scan_forward


def _assert_projections_match_scan(poset, chains):
    pr = Projector(poset)
    for chain in chains:
        for x in poset.events():
            assert pr.forward(x, chain) == scan_forward(poset, x, chain)
            assert pr.backward(x, chain) == scan_backward(poset, x, chain)


def test_projections_match_scan_oracle(lattice):
    _assert_projections_match_scan(lattice.poset, lattice.chains)


def test_projections_match_scan_oracle_on_random_dag():
    poset = random_dag(40, 0.2, seed=7)
    # longest path as the chain, unit valuations
    elems = sorted(poset.events(), key=lambda e: sum(
        poset.leq(o, e) for o in poset.events()))
    chain_elems = []
    for e in elems:
        if not chain_elems or poset.leq(chain_elems[-1], e):
            chain_elems.append(e)
    chain = Chain.build(poset, "c", chain_elems, list(range(len(chain_elems))))
    _assert_projections_match_scan(poset, [chain])


def test_projections_match_scan_oracle_on_grid():
    bundle = grid_config(3, 4, 3, 4).bundle
    _assert_projections_match_scan(bundle.poset, bundle.chains)


def test_projections_match_scan_oracle_on_dual_grid():
    # reversed chains on the order-reversed poset: suffix and prefix swap
    bundle = grid_config(3, 4, 3, 4).bundle
    _assert_projections_match_scan(
        bundle.poset.dual(), [c.dual() for c in bundle.chains]
    )


def test_chains_sharing_an_id_keep_separate_answers(lattice):
    # a window of chain '0' under the same id, on one projector that has
    # already answered for the full chain
    full = lattice.chain("0")
    ticks_10_20 = full.elements[10:21]
    window = Chain("0", ticks_10_20, full.ticks[10:21], full.den)
    poset = lattice.poset
    pr = Projector(poset)
    for chain in (full, window):
        for x in poset.events():
            assert pr.forward(x, chain) == scan_forward(poset, x, chain)
            assert pr.backward(x, chain) == scan_backward(poset, x, chain)
    x = lattice.event("3", 14)
    assert (pr.forward(x, window), pr.backward(x, window)) == (17, 11)


def test_projection_idempotent_and_monotone(lattice, lattice_projector):
    poset = lattice.poset
    pr = lattice_projector
    chain = lattice.chain("0")
    for x in poset.events():
        f = pr.forward(x, chain)
        if f is not None:
            assert pr.forward(f, chain) == f  # idempotence
            assert poset.leq(x, f)
        b = pr.backward(x, chain)
        if b is not None:
            assert pr.backward(b, chain) == b
            assert poset.leq(b, x)
        if f is not None and b is not None:
            assert poset.leq(b, f)  # sandwich
    # monotonicity: x <= y forces Px <= Py where both exist
    events = poset.events()
    for x in events[:200]:
        for y in events[:200]:
            if poset.leq(x, y):
                fx, fy = pr.forward(x, chain), pr.forward(y, chain)
                if fx is not None and fy is not None:
                    assert poset.leq(fx, fy)


def test_quantify_event_values(lattice, lattice_projector):
    # event at tick 5, position 3 against the chain at position 0:
    # forward lands at tick 8, backward at tick 2
    x = lattice.event("3", 5)
    pair = quantify_event(lattice_projector, x, lattice.chain("0"))
    assert pair.components() == (Fraction(8), Fraction(2))
    assert classify_interval(pair) == IntervalClass.CHAIN_LIKE
    assert interval_scalar(pair) == 16


def test_quantify_event_unquantifiable_at_boundary(lattice, lattice_projector):
    x = lattice.event("4", 18)  # forward projection runs off the chain
    with pytest.raises(Unquantifiable):
        quantify_event(lattice_projector, x, lattice.chain("0"))


def _boundary_calls(lattice, pr):
    """One call per operation that needs both projections of an event,
    each at an event whose forward projection onto chain '0' runs off
    the top of the chain."""
    c0 = lattice.chain("0")
    late = lattice.event("4", 18)
    early = lattice.event("4", 5)
    fence = validate_fence(pr, lattice.chains[:3])
    return {
        "quantify_event": lambda: quantify_event(pr, late, c0),
        "quantify_interval_one_chain": lambda: quantify_interval_one_chain(
            pr, early, late, c0, Side.SAME_SIDE
        ),
        "event_chain_distance_sq": lambda: event_chain_distance_sq(pr, late, c0),
        "dot_product": lambda: dot_product(pr, early, late, fence, 0, 2),
        "check_orthogonal_subspaces": lambda: check_orthogonal_subspaces(
            pr,
            c0,
            lattice.chain("4"),
            lattice.chain("1"),
            lattice.chain("3"),
            lattice.event("0", 18),
            late,
        ),
    }


@pytest.mark.parametrize(
    "operation",
    [
        "quantify_event",
        "quantify_interval_one_chain",
        "event_chain_distance_sq",
        "dot_product",
        "check_orthogonal_subspaces",
    ],
)
def test_missing_projection_is_one_error_class(lattice, lattice_projector, operation):
    with pytest.raises(MissingProjection) as raised:
        _boundary_calls(lattice, lattice_projector)[operation]()
    assert isinstance(raised.value, Unquantifiable)


@pytest.mark.parametrize(
    "bundle",
    [lattice_1p1(4, 20), grid_config(3, 3, 3, 4).bundle],
    ids=["lattice-4x20", "grid-3x3"],
)
def test_interior_matches_scan_oracle(bundle):
    poset, chains = bundle.poset, bundle.chains
    pr = Projector(poset)

    def both_ways(e, others):
        return all(
            scan_forward(poset, e, o) is not None
            and scan_backward(poset, e, o) is not None
            for o in others
        )

    for chain in chains:
        others = [o for o in chains if o is not chain]
        for group in [others] + [[o] for o in others]:
            expected = [i for i, e in enumerate(chain.elements) if both_ways(e, group)]
            assert pr.interior(chain, group) == expected


def test_one_chain_interval_same_side(lattice, lattice_projector):
    chain = lattice.chain("0")
    x = lattice.event("2", 5)
    y = lattice.event("2", 9)
    pair = quantify_interval_one_chain(
        lattice_projector, x, y, chain, Side.SAME_SIDE
    )
    assert pair.components() == (Fraction(4), Fraction(4))
    assert classify_interval(pair) == IntervalClass.PURELY_CHAIN_LIKE


def test_one_chain_interval_straddling(lattice, lattice_projector):
    # x and y at the same tick on opposite sides of the chain at 2
    chain = lattice.chain("2")
    x = lattice.event("0", 10)
    y = lattice.event("4", 10)
    pair = quantify_interval_one_chain(
        lattice_projector, x, y, chain, Side.STRADDLING
    )
    # p_y - p-bar_x = 12 - 8 = 4; p-bar_y - p_x = 8 - 12 = -4
    assert pair.components() == (Fraction(4), Fraction(-4))
    assert classify_interval(pair) == IntervalClass.PURELY_ANTICHAIN_LIKE
    assert interval_scalar(pair) == -16


def test_two_chain_interval_between(lattice, lattice_projector):
    p, q = lattice.chain("0"), lattice.chain("4")
    x = lattice.event("1", 10)
    y = lattice.event("3", 10)
    pair = quantify_interval_two_chains(lattice_projector, x, y, p, q)
    assert pair.components() == (Fraction(2), Fraction(-2))
    assert pair.basis == ("0", "4")


def test_two_chain_interval_rejects_outside_events(lattice, lattice_projector):
    p, q = lattice.chain("1"), lattice.chain("3")
    x = lattice.event("0", 10)  # on the far side of p
    y = lattice.event("2", 10)
    with pytest.raises(NotBetween):
        quantify_interval_two_chains(lattice_projector, x, y, p, q)


def test_two_chain_interval_endpoint_on_chain_counts_as_between(
    lattice, lattice_projector
):
    p, q = lattice.chain("0"), lattice.chain("4")
    x = lattice.event("0", 10)
    y = lattice.event("3", 10)
    pair = quantify_interval_two_chains(lattice_projector, x, y, p, q)
    assert pair.components() == (Fraction(3), Fraction(-3))


fractions_st = st.fractions(
    min_value=-3, max_value=3, max_denominator=8
)


@given(fractions_st, fractions_st)
def test_decomposition_round_trip(a, b):
    pair = QuantPair(a, b, ("p", "q"))
    sym, anti = sym_antisym_decompose(pair)
    assert sym.first == sym.second
    assert anti.first == -anti.second
    assert sym.first + anti.first == a
    assert sym.second + anti.second == b


@given(fractions_st, fractions_st)
@settings(max_examples=300)
def test_classification_matches_sign_table(a, b):
    cls = classify_interval(QuantPair(a, b, ("p",)))
    if a == 0 and b == 0:
        assert cls == IntervalClass.DEGENERATE
    elif a == 0 or b == 0:
        assert cls == IntervalClass.PROJECTION_LIKE
    elif (a > 0) == (b > 0):
        expected = (
            IntervalClass.PURELY_CHAIN_LIKE
            if a == b and a > 0
            else IntervalClass.CHAIN_LIKE
        )
        assert cls == expected
    else:
        expected = (
            IntervalClass.PURELY_ANTICHAIN_LIKE
            if a == -b
            else IntervalClass.ANTICHAIN_LIKE
        )
        assert cls == expected
    # scalar sign follows the class
    if cls in (IntervalClass.CHAIN_LIKE, IntervalClass.PURELY_CHAIN_LIKE):
        assert interval_scalar(QuantPair(a, b, ("p",))) > 0
    if cls in (IntervalClass.ANTICHAIN_LIKE, IntervalClass.PURELY_ANTICHAIN_LIKE):
        assert interval_scalar(QuantPair(a, b, ("p",))) < 0
