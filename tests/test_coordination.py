import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from posetgeo import (
    Chain,
    MetricConfig,
    Projector,
    QuantPair,
    SimplexMode,
    are_coordinated,
    build_metric_poset,
    check_orthogonal_subspaces,
    collinear_config,
    concatenate_orthogonal,
    dimension_count,
    lattice_1p1,
    pythagoras_check,
    pythagoras_config,
    simplex_config,
    simplex_table,
)
from posetgeo.errors import (
    AlignmentError,
    MixedConfiguration,
    NotAntichainLike,
    PosetGeoError,
)

from .conftest import scan_coordinated


def test_lattice_chains_coordinated(lattice, lattice_projector):
    for a in lattice.chains:
        for b in lattice.chains:
            assert are_coordinated(lattice_projector, a, b)


def test_mismatched_tick_spacing_not_coordinated():
    """One chain ticking twice as fast as the other cannot be
    coordinated: the offset is not constant."""
    config = MetricConfig.from_points({"A": (0,), "B": (1,)})
    fast = tuple(Fraction(t) for t in range(0, 13))
    slow = tuple(Fraction(t) for t in range(0, 13, 2))
    bundle = build_metric_poset(
        config, {"A": fast, "B": slow}
    )
    pr = Projector(bundle.poset)
    assert not are_coordinated(pr, bundle.chain("A"), bundle.chain("B"))


def test_explicit_windows():
    bundle = lattice_1p1(2, 12)
    pr = Projector(bundle.poset)
    a, b = bundle.chain("0"), bundle.chain("2")
    wa = (bundle.event("0", 2), bundle.event("0", 8))
    wb = (bundle.event("2", 4), bundle.event("2", 10))
    assert are_coordinated(pr, a, b, p_interval=wa, q_interval=wb)
    # shifted target window breaks the bijection
    wb_bad = (bundle.event("2", 3), bundle.event("2", 10))
    assert not are_coordinated(pr, a, b, p_interval=wa, q_interval=wb_bad)


def test_orthogonal_subspaces_true_case():
    cfg = pythagoras_config(3, 4)
    b = cfg.bundle
    t = cfg.mid_tick
    assert check_orthogonal_subspaces(
        Projector(b.poset), b.chain("P"), b.chain("Q"), b.chain("R"), b.chain("S"),
        b.event("P", t), b.event("Q", t),
    )


def test_orthogonal_subspaces_false_when_not_perpendicular():
    # R,S parallel to PQ rather than perpendicular: transported
    # intervals pick up a component along PQ
    coords = {"P": (-3, 0), "Q": (3, 0), "R": (-12, 0), "S": (12, 0)}
    config = MetricConfig.from_points(coords)
    ticks = tuple(Fraction(t) for t in range(0, 120))
    b = build_metric_poset(config, dict.fromkeys(coords, ticks))
    t = Fraction(60)
    chains = {c.chain_id: c for c in b.chains}
    assert not check_orthogonal_subspaces(
        Projector(b.poset), chains["P"], chains["Q"], chains["R"], chains["S"],
        b.event("P", t), b.event("Q", t),
    )


def test_concatenate_orthogonal():
    a = QuantPair(Fraction(3), Fraction(-3), ("p", "o"))
    b = QuantPair(Fraction(4), Fraction(-4), ("o", "r"))
    sa, sb, total = concatenate_orthogonal(a, b)
    assert (sa, sb, total) == (-9, -16, -25)
    with pytest.raises(NotAntichainLike):
        concatenate_orthogonal(a, QuantPair(Fraction(1), Fraction(2), ("o", "r")))


@pytest.mark.parametrize("a,b,c", [(3, 4, 5), (6, 8, 10), (5, 12, 13)])
def test_pythagoras_exact(a, b, c):
    cfg = pythagoras_config(a, b)
    assert pythagoras_check(cfg)


def test_pythagoras_misaligned_hypotenuse():
    with pytest.raises(AlignmentError):
        pythagoras_check(pythagoras_config(1, 1))


def test_simplex_collinear_tables():
    for n in (3, 4):
        bundle = collinear_config(n)
        table = simplex_table(Projector(bundle.poset), bundle.chains,
                              mode=SimplexMode.COLLINEAR)
        for i in range(n):
            for j in range(n):
                if i != j:
                    d = Fraction(abs(i - j))
                    assert table[i][j].components() == (d, -d)


def test_simplex_pairwise_tables():
    for n in (3, 4):
        bundle = simplex_config(n)
        table = simplex_table(Projector(bundle.poset), bundle.chains,
                              mode=SimplexMode.PAIRWISE)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert table[i][j].components() == (1, -1)


def test_simplex_mode_mismatch_raises():
    bundle = collinear_config(3)
    with pytest.raises(MixedConfiguration):
        simplex_table(Projector(bundle.poset), bundle.chains, mode=SimplexMode.PAIRWISE)


def test_dimension_count():
    col = collinear_config(4)
    assert dimension_count(Projector(col.poset), col.chains, False) == (1, 1)
    simp = simplex_config(4)
    simp_pr = Projector(simp.poset)
    assert dimension_count(simp_pr, simp.chains, True) == (3, 1)
    with pytest.raises(MixedConfiguration):
        dimension_count(simp_pr, simp.chains, False)


def _coordination(pr, p, q, wp=None, wq=None):
    try:
        return are_coordinated(pr, p, q, wp, wq)
    except PosetGeoError as exc:
        return type(exc).__name__


def _warped(bundle, chain_id):
    """The bundle's poset and chains, with one chain valued by the square
    of its ticks: same order, uneven valuation steps."""
    chains = [
        Chain(c.chain_id, c.elements, [t * t for t in c.ticks], c.den * c.den)
        if c.chain_id == chain_id
        else c
        for c in bundle.chains
    ]
    return SimpleNamespace(poset=bundle.poset, chains=chains)


def test_uneven_valuation_is_not_coordinated():
    """Projections between neighbouring lattice chains stay bijective, but
    the valuation offsets differ once one chain is valued unevenly."""
    warped = _warped(lattice_1p1(2, 12), "1")
    pr = Projector(warped.poset)
    a, b, c = warped.chains
    assert are_coordinated(pr, a, c)
    assert not are_coordinated(pr, a, b)
    assert not are_coordinated(pr, b, c)


def _coordination_layouts():
    yield lattice_1p1(3, 12)
    yield _warped(lattice_1p1(3, 12), "2")
    config = MetricConfig.from_points({"A": (0,), "B": (1,), "C": (2,)})
    fast = tuple(Fraction(t) for t in range(0, 13))
    slow = tuple(Fraction(t) for t in range(0, 13, 2))
    half = tuple(Fraction(t, 2) for t in range(1, 20))
    yield build_metric_poset(
        config,
        {"A": fast, "B": slow, "C": half},
    )
    planar = MetricConfig.from_points(
        {"A": (0, 0), "B": (3, 4), "C": (8, 4), "D": (2, 1)}
    )
    yield build_metric_poset(
        planar, dict.fromkeys("ABCD", fast + (Fraction(13), Fraction(14)))
    )


@pytest.mark.parametrize("layout", range(4))
def test_are_coordinated_matches_scan_oracle(layout):
    """Every ordered chain pair, with no windows and with seeded explicit
    windows, gives the scan oracle's verdict or error class."""
    bundle = list(_coordination_layouts())[layout]
    pr = Projector(bundle.poset)
    rng = random.Random(layout)
    seen = set()
    for p in bundle.chains:
        for q in bundle.chains:
            expected = scan_coordinated(bundle.poset, p, q)
            assert _coordination(pr, p, q) == expected, (p.chain_id, q.chain_id)
            seen.add(expected)
            for _ in range(40):
                wp = tuple(rng.sample(p.elements, 2))
                wq = tuple(rng.sample(q.elements, 2))
                for windows in ((wp, wq), (wp, None)):
                    expected = scan_coordinated(bundle.poset, p, q, *windows)
                    got = _coordination(pr, p, q, *windows)
                    assert got == expected, (p.chain_id, q.chain_id, windows)
                    seen.add(expected)
    assert {True, False} <= seen
