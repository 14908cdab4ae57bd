from fractions import Fraction
from itertools import permutations

import pytest

from posetgeo import (
    MetricConfig,
    Projector,
    build_metric_poset,
    chain_pair_distance,
    dot_product,
    dotprod_config,
    event_chain_distance_sq,
    geometric_identity_check,
    grid_config,
    grid_displacement_sq,
    lattice_1p1,
    parallel_postulate_check,
    validate_fence,
    validate_grid,
    wedge_product,
)
from posetgeo.errors import (
    NonUniformSpacing,
    NotCollinear,
    NotCoordinated,
    NotParallel,
    PosetGeoError,
    SpacingMismatch,
    TimeMismatch,
)
from posetgeo.fence import Fence, shared_chains
from posetgeo.verify import is_orthogonal_grid

from .conftest import planar_cross, planar_dot


@pytest.fixture(scope="module")
def wide_lattice():
    return lattice_1p1(6, 26)


@pytest.fixture(scope="module")
def wide_projector(wide_lattice):
    return Projector(wide_lattice.poset)


def test_validate_fence(wide_lattice, wide_projector):
    fence = validate_fence(wide_projector, wide_lattice.chains[:4])
    assert fence.spacing == 1
    assert len(fence) == 4


def test_fence_rejects_nonuniform_spacing():
    coords = {"A": (0,), "B": (1,), "C": (3,)}
    config = MetricConfig.from_points(coords)
    ticks = tuple(Fraction(t) for t in range(0, 20))
    b = build_metric_poset(config, dict.fromkeys(coords, ticks))
    with pytest.raises(NonUniformSpacing):
        validate_fence(Projector(b.poset), b.chains)


def test_fence_needs_three_chains(wide_lattice, wide_projector):
    with pytest.raises(ValueError):
        validate_fence(wide_projector, wide_lattice.chains[:2])


def test_chain_pair_distance(wide_lattice, wide_projector):
    d = chain_pair_distance(
        wide_projector, wide_lattice.chain("1"), wide_lattice.chain("4")
    )
    assert d == 3


def test_event_chain_distance_sq(wide_lattice, wide_projector):
    x = wide_lattice.event("2", 13)
    assert event_chain_distance_sq(wide_projector, x, wide_lattice.chain("5")) == 9


def test_parallel_postulate_agreement(wide_lattice, wide_projector):
    pr = wide_projector
    chains = wide_lattice.chains
    fa = validate_fence(pr, chains[0:4])
    fb = validate_fence(pr, chains[2:7])
    assert shared_chains(fa, fb) == [(2, 0), (3, 1)]
    assert parallel_postulate_check(pr, fa, fb)
    # fewer than two shared chains: vacuously true
    fc = validate_fence(pr, chains[3:6])
    assert parallel_postulate_check(pr, fa, fc)


def test_parallel_postulate_spacing_mismatch(wide_lattice, wide_projector):
    chains = wide_lattice.chains
    fa = validate_fence(wide_projector, chains[0:3])
    coarse = Fence(chains=(chains[0], chains[2], chains[4]), spacing=Fraction(2))
    with pytest.raises(SpacingMismatch):
        parallel_postulate_check(wide_projector, fa, coarse)


def test_parallel_postulate_detects_disagreement(wide_lattice, wide_projector):
    chains = wide_lattice.chains
    fa = validate_fence(wide_projector, chains[0:4])
    # hand-forged fence putting chain 3 where chain 2 belongs
    forged = Fence(
        chains=(chains[1], chains[3], chains[2]), spacing=Fraction(1)
    )
    assert not parallel_postulate_check(wide_projector, fa, forged)


def test_dot_product_values_and_pair_independence():
    cfg = dotprod_config(2)
    pr = Projector(cfg.bundle.poset)
    fence = validate_fence(pr, cfg.fence_chains)
    t = cfg.probe_tick
    x = cfg.probe_event          # embedded at (6, 8)
    y = cfg.bundle.event("F2", t)  # embedded at (12, 0)
    oracle = planar_dot((Fraction(6), Fraction(-8)), (Fraction(1), Fraction(0)))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert dot_product(pr, x, y, fence, i, j).signed == oracle
    r = dot_product(pr, x, y, fence, 0, 2)
    assert r.magnitude == abs(r.signed)
    assert r.scaled == r.signed * 12


def test_dot_product_special_cases():
    cfg = dotprod_config(1)
    pr = Projector(cfg.bundle.poset)
    fence = validate_fence(pr, cfg.fence_chains)
    t = cfg.probe_tick
    p_ev, q_ev = cfg.bundle.event("F0", t), cfg.bundle.event("F2", t)
    assert dot_product(pr, p_ev, p_ev, fence, 0, 2).signed == 0
    assert dot_product(pr, cfg.probe_event,
                       cfg.bundle.event("F1", t), fence, 0, 2).signed == 0
    assert dot_product(pr, p_ev, q_ev, fence, 0, 2).signed == 6
    assert dot_product(pr, q_ev, p_ev, fence, 0, 2).signed == -6


def test_dot_product_time_mismatch():
    cfg = dotprod_config(1)
    pr = Projector(cfg.bundle.poset)
    fence = validate_fence(pr, cfg.fence_chains)
    t = cfg.probe_tick
    x = cfg.bundle.event("F0", t)
    y = cfg.bundle.event("F2", t + 2)
    with pytest.raises(TimeMismatch):
        dot_product(pr, x, y, fence, 0, 2)


@pytest.fixture(scope="module")
def grid345():
    g = grid_config(3, 3, 3, 4)
    pr = Projector(g.bundle.poset)
    grid = validate_grid(pr, g.chain_array())
    return g, grid, pr


def test_validate_grid(grid345):
    g, grid, _ = grid345
    assert grid.shape == (3, 3)
    assert grid.row_spacing == 3 and grid.col_spacing == 4
    assert is_orthogonal_grid(grid, g.bundle)


def test_grid_too_small():
    g = grid_config(3, 2, 3, 4)
    with pytest.raises(ValueError):
        validate_grid(Projector(g.bundle.poset), g.chain_array())


def test_wedge_matches_cross_oracle(grid345):
    g, grid, pr = grid345
    origin = g.bundle.chain("0,0")
    mid = origin.value(origin.elements[len(origin) // 2])
    x = g.bundle.event("0,0", mid)
    y = g.bundle.event("2,2", mid)
    w = wedge_product(pr, x, y, grid, 0, 2, 0, 2)
    # chain-pair vector (6,0) crossed with the displacement (6,8)
    assert w == planar_cross((Fraction(6), Fraction(0)), (Fraction(6), Fraction(8)))
    w_neg = wedge_product(pr, y, x, grid, 2, 0, 0, 2)
    assert w_neg == -w
    # displacement inside one row carries no perpendicular part
    assert wedge_product(pr, x, g.bundle.event("0,2", mid),
                         grid, 0, 0, 0, 2) == 0


def test_grid_displacement_sq(grid345):
    g, grid, pr = grid345
    origin = g.bundle.chain("0,0")
    mid = origin.value(origin.elements[len(origin) // 2])
    x = g.bundle.event("0,0", mid)
    y = g.bundle.event("1,1", mid)
    assert grid_displacement_sq(pr, x, y, grid, 0, 1) == 25


def test_geometric_identity(grid345):
    g, grid, pr = grid345
    origin = g.bundle.chain("0,0")
    mid = origin.value(origin.elements[len(origin) // 2])
    x = g.bundle.event("0,0", mid)
    y = g.bundle.event("2,2", mid)
    lhs, dot, wedge = geometric_identity_check(pr, x, y, grid, 0, 2, 0, 2)
    assert lhs == dot * dot + wedge * wedge
    # displacement (6,8), chain pair length 6: 100*36 = 36^2 + 48^2
    assert (lhs, dot, wedge) == (3600, 36, 48)


def _planar(coords, ticks=40, **own_ticks):
    """A metric layout of worldlines at explicit points, all on integer
    ticks 0..ticks unless given their own."""
    config = MetricConfig.from_points(coords)
    shared = tuple(Fraction(t) for t in range(ticks + 1))
    return build_metric_poset(
        config, {n: own_ticks.get(n, shared) for n in coords}
    )


def _fence_of(bundle, names):
    return validate_fence(Projector(bundle.poset), [bundle.chain(n) for n in names])


def test_straight_triple_at_spacing_five_is_a_fence():
    bundle = _planar({"A": (0, 0), "B": (3, 4), "C": (6, 8)})
    assert _fence_of(bundle, "ABC").spacing == 5


@pytest.mark.parametrize("coords", [
    {"A": (0, 0), "B": (3, 4), "C": (8, 4)},
    {"A": (0, 0), "B": (5, 0), "C": (5, 5)},
    {"A": (0, 0), "B": (3, 4), "C": (6, 0), "D": (9, 4)},
], ids=["bend-3-4-5", "right-angle", "zigzag-of-four"])
def test_bent_families_are_not_collinear(coords):
    """Every neighbour distance is 5, but the chains do not lie on a line."""
    with pytest.raises(NotCollinear, match="not properly collinear"):
        _fence_of(_planar(coords), list(coords))


def test_folded_triple_has_nonuniform_spacing():
    bundle = _planar({"A": (0, 0), "B": (5, 0), "C": (10, 0)})
    with pytest.raises(NonUniformSpacing):
        _fence_of(bundle, "BAC")


def test_mismatched_tick_spacing_is_not_coordinated():
    """B ticks every 2 while A and C tick every 1: the neighbour
    distances agree, but A and B are not coordinated."""
    slow = tuple(Fraction(t) for t in range(0, 41, 2))
    bundle = _planar({"A": (0,), "B": (1,), "C": (2,)}, B=slow)
    with pytest.raises(NotCoordinated, match="A and B"):
        _fence_of(bundle, "ABC")


def test_grid_with_unequal_row_spacings_is_not_parallel():
    """Three horizontal rows whose chains sit 3, 1 and 5 apart.  Every
    row and every column is a fence (columns at spacings 5, 3 and 5),
    but the rows are not parallel fences."""
    coords = {
        f"{r},{c}": (c * (3 - 4 * r) + 4 * r, 3 * r) for r in range(3) for c in range(3)
    }
    bundle = _planar(coords)
    array = [[bundle.chain(f"{r},{c}") for c in range(3)] for r in range(3)]
    pr = Projector(bundle.poset)
    assert [validate_fence(pr, row).spacing for row in array] == [3, 1, 5]
    with pytest.raises(NotParallel, match="spacings differ"):
        validate_grid(pr, array)


def _verdict(pr, chains):
    try:
        fence = validate_fence(pr, chains)
    except PosetGeoError as exc:
        return (type(exc).__name__, str(exc))
    return (fence.chains, fence.spacing)


def test_reused_projector_gives_the_verdicts_of_fresh_ones():
    """One projector across many fences (sharing pairs and triples)
    returns the same Fence or error as a fresh projector for each."""
    coords = {
        "A": (0, 0), "B": (3, 4), "C": (6, 8), "D": (9, 12),
        "E": (8, 4), "F": (6, 0), "G": (3, 0), "H": (12, 16),
    }
    # H continues the line A..D but ticks every 2
    bundle = _planar(coords, H=tuple(Fraction(t) for t in range(0, 41, 2)))
    shared = Projector(bundle.poset)
    verdicts = set()
    for names in [*permutations("ABCDEFGH", 3), *permutations("ABCD", 4), "ABCDH"]:
        chains = [bundle.chain(n) for n in names]
        got = _verdict(shared, chains)
        assert got == _verdict(Projector(bundle.poset), chains), names
        verdicts.add(got[0] if isinstance(got[0], str) else "Fence")
    assert verdicts == {"Fence", "NonUniformSpacing", "NotCollinear", "NotCoordinated"}
