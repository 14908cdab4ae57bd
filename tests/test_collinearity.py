from collections import Counter
from itertools import combinations, permutations

import pytest

from posetgeo import (
    CollinearityCase,
    Poset,
    Projector,
    SideClass,
    census,
    chain_order,
    chains_properly_collinear,
    classify_collinearity,
    dotprod_config,
    in_subspace,
    is_properly_collinear,
    lattice_1p1,
    projection_code,
    side_of,
)
from posetgeo.collinearity import LEGAL_CODE_STRINGS
from posetgeo.errors import InconsistentSides, MissingProjection
from posetgeo.poset import Chain

from .conftest import reference_code


def test_case_geography(lattice, lattice_projector):
    """Positions <1 / in (1,3) / >3 against chains at 1 and 3."""
    p, q = lattice.chain("1"), lattice.chain("3")
    pr = lattice_projector
    expected = {"0": SideClass.P_SIDE, "2": SideClass.BETWEEN, "4": SideClass.Q_SIDE}
    for pos, side in expected.items():
        for e in lattice.chain(pos).elements:
            try:
                code = projection_code(pr, e, p, q)
            except MissingProjection:
                continue
            if not code.fully_defined:
                continue
            assert side_of(pr, e, p, q) == side


def test_codes_for_three_regions(lattice, lattice_projector):
    pr = lattice_projector
    p, q = lattice.chain("1"), lattice.chain("3")
    cases = {
        "0": ((2, 2, 0, 1), CollinearityCase.CASE_I),
        "2": ((1, 0, 1, 0), CollinearityCase.CASE_II),
        "4": ((0, 1, 2, 2), CollinearityCase.CASE_III),
    }
    for pos, (digits, case) in cases.items():
        e = lattice.event(pos, 10)
        code = projection_code(pr, e, p, q)
        assert code.digits == digits
        assert classify_collinearity(pr, e, p, q) == case
        assert is_properly_collinear(pr, e, p, q)


def test_on_chain_events_have_undefined_digits(lattice, lattice_projector):
    p, q = lattice.chain("1"), lattice.chain("3")
    e = lattice.event("1", 10)
    code = projection_code(lattice_projector, e, p, q)
    assert not code.fully_defined
    assert "u" in str(code)


def test_identical_chains_rejected(lattice, lattice_projector):
    p = lattice.chain("1")
    with pytest.raises(ValueError):
        projection_code(lattice_projector, lattice.event("0", 5), p, p)


def test_census_is_supported_on_legal_codes(lattice):
    result = census(Projector(lattice.poset), combinations(lattice.chains, 2))
    assert result.legal_codes_only
    assert result.fully_defined_codes() <= LEGAL_CODE_STRINGS
    assert {"2201", "1010", "0122"} <= result.fully_defined_codes()
    assert result.total == sum(result.histogram.values())


def test_chain_order(lattice, lattice_projector):
    p, q, x = lattice.chain("1"), lattice.chain("3"), lattice.chain("4")
    ordered = chain_order(lattice_projector, x, p, q)
    assert [c.chain_id for c in ordered] == ["1", "3", "4"]
    mid = lattice.chain("2")
    ordered = chain_order(lattice_projector, mid, p, q)
    assert [c.chain_id for c in ordered] == ["1", "2", "3"]


def test_in_subspace(lattice, lattice_projector):
    pr = lattice_projector
    p, q = lattice.chain("1"), lattice.chain("3")
    assert in_subspace(pr, lattice.event("1", 10), p, q)
    assert in_subspace(pr, lattice.event("0", 10), p, q)
    # boundary event with a missing projection is excluded, not an error
    assert not in_subspace(pr, lattice.event("4", 19), p, q)


def test_chains_properly_collinear_window(lattice, lattice_projector):
    mid, p, q = lattice.chain("2"), lattice.chain("1"), lattice.chain("3")
    window = [lattice.event("2", t) for t in range(3, 18)]
    assert chains_properly_collinear(lattice_projector, mid, p, q, events=window)
    # full chain includes boundary events whose projections run off
    assert not chains_properly_collinear(lattice_projector, mid, p, q)


def _case_iv_poset():
    """Seven events realizing code 0221: chains P = p1<p15<p2 and
    Q = q1<q15<q2 interleaved so x's four projections hit the outer
    elements while each digit identity holds exactly once."""
    names = ["p1", "p15", "p2", "q1", "q15", "q2", "x"]
    idx = {n: i for i, n in enumerate(names)}
    poset = Poset()
    for i in range(len(names)):
        poset.add_event(i)
    rels = [
        ("p1", "p15"), ("p15", "p2"),
        ("q1", "q15"), ("q15", "q2"),
        ("q1", "p1"), ("p1", "q15"), ("p15", "q2"), ("q2", "p2"),
        ("p1", "x"), ("x", "q2"),
    ]
    for a, b in rels:
        poset.add_influence(idx[a], idx[b])
    poset.freeze()
    p = Chain.build(poset, "P", [idx["p1"], idx["p15"], idx["p2"]], [0, 1, 2])
    q = Chain.build(poset, "Q", [idx["q1"], idx["q15"], idx["q2"]], [0, 1, 2])
    return poset, p, q, idx["x"]


def test_case_iv_realized_and_dual_is_case_v():
    poset, p, q, x = _case_iv_poset()
    pr = Projector(poset)
    code = projection_code(pr, x, p, q)
    assert code.digits == (0, 2, 2, 1)
    assert classify_collinearity(pr, x, p, q) == CollinearityCase.CASE_IV
    assert not is_properly_collinear(pr, x, p, q)

    dual_pr = Projector(poset.dual())
    dp, dq = p.dual(), q.dual()
    dcode = projection_code(dual_pr, x, dp, dq)
    assert dcode.digits == (2, 1, 0, 2)
    assert classify_collinearity(dual_pr, x, dp, dq) == CollinearityCase.CASE_V


def test_duality_preserves_proper_cases():
    bundle = lattice_1p1(4, 16)
    poset = bundle.poset
    dual = poset.dual()
    for pa, qa in combinations(bundle.chains, 2):
        dp, dq = pa.dual(), qa.dual()
        dual_pr = Projector(dual)
        pr = Projector(poset)
        for x in poset.events():
            try:
                case = classify_collinearity(pr, x, pa, qa)
            except MissingProjection:
                continue
            if case in (
                CollinearityCase.CASE_I,
                CollinearityCase.CASE_II,
                CollinearityCase.CASE_III,
            ):
                assert classify_collinearity(dual_pr, x, dp, dq) == case


def test_inconsistent_sides_raises():
    bundle = lattice_1p1(4, 16)
    pr = Projector(bundle.poset)
    # the middle chain of the window classifies its own neighbours
    with pytest.raises(InconsistentSides):
        chain_order(pr, bundle.chain("2"), bundle.chain("2"), bundle.chain("3"))


def _codes_match_reference(poset, chains) -> Counter:
    """Compare projection_code with the scan-evaluated twelve-candidate
    table on every (event, ordered chain pair); return the code counts,
    with None for a missing projection."""
    pr = Projector(poset)
    seen: Counter = Counter()
    for p, q in permutations(chains, 2):
        for x in poset.events():
            try:
                code = str(projection_code(pr, x, p, q))
            except MissingProjection:
                code = None
            assert code == reference_code(poset, x, p, q), (x, p.chain_id, q.chain_id)
            seen[code] += 1
    return seen


def test_codes_match_reference_on_lattice(lattice):
    seen = _codes_match_reference(lattice.poset, lattice.chains)
    assert {"2201", "1010", "0122"} <= set(seen)
    assert any(code is not None and "u" in code for code in seen)


def test_codes_match_reference_on_probe_layout():
    # a fence plus a one-event probe chain; no generated layout realises
    # Cases IV or V, so those are covered by the hand-built poset below
    bundle = dotprod_config(1).bundle
    seen = _codes_match_reference(bundle.poset, bundle.chains)
    assert {"2201", "1010", "0122"} <= set(seen)


def test_codes_match_reference_on_case_iv_poset_and_dual():
    poset, p, q, _ = _case_iv_poset()
    assert "0221" in _codes_match_reference(poset, [p, q])  # Case IV
    assert "2102" in _codes_match_reference(poset.dual(), [p.dual(), q.dual()])


def test_codes_match_reference_on_dual_lattice(lattice):
    dual = lattice.poset.dual()
    seen = _codes_match_reference(dual, [c.dual() for c in lattice.chains])
    assert {"2201", "1010", "0122"} <= set(seen)
