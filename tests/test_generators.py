from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetgeo import (
    MetricConfig,
    build_metric_poset,
    collinear_config,
    dotprod_config,
    grid_config,
    lattice_1p1,
    pythagoras_config,
    random_dag,
    simplex_config,
    sqrt_exact,
)
from posetgeo.errors import EmptyWorldline, InvalidMetric
from posetgeo.verify import _grid_layouts

from .conftest import ReachedBuild, sweep_masks


def sq_dist_points(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def test_order_matches_causal_rule_oracle():
    """Every pair ordered iff the exact time gap dominates the distance."""
    coords = {"A": (0, 0), "B": (Fraction(3, 2), 0), "C": (0, 2)}
    config = MetricConfig.from_points(coords)
    ticks = tuple(Fraction(t, 2) for t in range(0, 17))
    bundle = build_metric_poset(config, dict.fromkeys(coords, ticks))
    poset = bundle.poset
    events = [
        (n, t, bundle.event(n, t)) for n in coords for t in ticks
    ]
    for na, ta, ea in events:
        for nb, tb, eb in events:
            dt = tb - ta
            expected = dt >= 0 and dt * dt >= sq_dist_points(coords[na], coords[nb])
            assert poset.leq(ea, eb) == expected


def test_lattice_counts():
    bundle = lattice_1p1(5, 40)
    assert len(bundle.poset) == 6 * 41
    assert len(bundle.chains) == 6
    assert all(len(c) == 41 for c in bundle.chains)


def test_transitivity_on_metric_poset():
    bundle = lattice_1p1(3, 10)
    poset = bundle.poset
    events = poset.events()
    for a in events:
        for b in events:
            if not poset.leq(a, b):
                continue
            for c in events:
                if poset.leq(b, c):
                    assert poset.leq(a, c)


def test_sqrt_exact():
    assert sqrt_exact(Fraction(25)) == 5
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_exact(Fraction(2)) is None
    assert sqrt_exact(Fraction(0)) == 0


def test_triangle_inequality_enforced():
    with pytest.raises(InvalidMetric):
        MetricConfig(
            ["A", "B", "C"],
            {("A", "B"): Fraction(1), ("B", "C"): Fraction(1),
             ("A", "C"): Fraction(100)},
        )


@pytest.mark.parametrize("order", list(permutations("ABC")), ids="".join)
@pytest.mark.parametrize("long_side", list(combinations("ABC", 2)), ids="".join)
def test_triangle_long_side_rejected_in_every_place(long_side, order):
    """Whichever pair holds the long side, in whatever position order."""
    sq = {pair: 1 for pair in combinations("ABC", 2)}
    sq[long_side] = 100
    with pytest.raises(InvalidMetric):
        MetricConfig(list(order), sq)


def _violates_triangle(sq):
    """Oracle: some ordered triple (a, b, c) of distinct positions has
    sqrt(sq[a][c]) > sqrt(sq[a][b]) + sqrt(sq[b][c]).  Squaring twice:
    z > x + y + 2 sqrt(xy) iff z - x - y > 0 and (z - x - y)^2 > 4xy."""
    for a, b, c in permutations(range(len(sq)), 3):
        x, y, z = sq[a][b], sq[b][c], sq[a][c]
        if z - x - y > 0 and (z - x - y) ** 2 > 4 * x * y:
            return True
    return False


def _heron_negative(sq):
    """Second oracle: three lengths with squares x, y, z form a triangle
    iff 16 area^2 = 2(xy + yz + zx) - x^2 - y^2 - z^2 >= 0 (Heron)."""
    for a, b, c in combinations(range(len(sq)), 3):
        x, y, z = sq[a][b], sq[b][c], sq[a][c]
        if 2 * (x * y + y * z + z * x) - x * x - y * y - z * z < 0:
            return True
    return False


_SQ = st.fractions(min_value=0, max_value=12, max_denominator=4)


@st.composite
def _sq_tables(draw):
    """3-6 positions, squared distances either from rational points
    (a metric, often with collinear triples on the boundary), from the
    points with one entry nudged, or drawn at random."""
    n = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["points", "nudged", "random"]))
    if kind == "random":
        vals = {(i, j): draw(_SQ) for i, j in combinations(range(n), 2)}
    else:
        dims = draw(st.integers(1, 2))
        pts = [draw(st.tuples(*[st.integers(-3, 3)] * dims)) for _ in range(n)]
        vals = {
            (i, j): Fraction(sum((u - v) ** 2 for u, v in zip(pts[i], pts[j])))
            for i, j in combinations(range(n), 2)
        }
        if kind == "nudged":
            pair = draw(st.sampled_from(sorted(vals)))
            delta = draw(st.fractions(min_value=-2, max_value=2, max_denominator=4))
            vals[pair] = max(Fraction(0), vals[pair] + delta)
    return n, vals


@settings(max_examples=80, deadline=None)
@given(_sq_tables())
@example((3, {(0, 1): Fraction(100), (0, 2): Fraction(1), (1, 2): Fraction(1)}))
@example((3, {(0, 1): Fraction(1), (0, 2): Fraction(4), (1, 2): Fraction(1)}))
def test_triangle_check_matches_oracle(table):
    n, vals = table
    sq = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in vals.items():
        sq[i][j] = sq[j][i] = v
    expected = _violates_triangle(sq)
    assert expected == _heron_negative(sq)
    names = [f"p{i}" for i in range(n)]
    by_name = {(names[i], names[j]): v for (i, j), v in vals.items()}
    if expected:
        with pytest.raises(InvalidMetric):
            MetricConfig(names, by_name)
    else:
        MetricConfig(names, by_name)


def test_empty_worldline_rejected():
    config = MetricConfig.from_points({"A": (0,)})
    with pytest.raises(EmptyWorldline):
        build_metric_poset(config, {"A": ()})


# the 32 x 240 ladder rung (7,953 events), the bench inputs, the largest
# suite grid, and the largest layouts and random DAG the bounds admit
@pytest.mark.parametrize("make", [
    lambda: lattice_1p1(32, 240),
    lambda: lattice_1p1(8, 60),
    lambda: random_dag(400, 0.1, 0),
    lambda: grid_config(4, 3, 21, 28),
    lambda: collinear_config(2, ticks=4999),
    lambda: simplex_config(64, ticks=155),
    lambda: random_dag(2000, 1, 0),
], ids=["lattice32x240", "lattice8x60", "randomdag400", "grid4x3k7",
        "events", "positions", "randomdag"])
def test_size_bound_admits(stop_at_build, make):
    with pytest.raises(ReachedBuild):
        make()


# Just past each bound, or past it by far where the request is still
# cheap to set up, so a missing bound stops at once in stop_at_build.
_HUGE = 10**9


@pytest.mark.parametrize("make", [
    lambda: lattice_1p1(64),
    lambda: lattice_1p1(5, _HUGE),
    lambda: collinear_config(2, ticks=5000),
    lambda: simplex_config(65, ticks=0),
    lambda: grid_config(9, 8),
    lambda: grid_config(3, 3, _HUGE),
    lambda: pythagoras_config(_HUGE, 4),
    lambda: dotprod_config(_HUGE),
    lambda: random_dag(2001, 0.1, 0),
    lambda: random_dag(_HUGE, 0.1, 0),
], ids=["width", "ticks", "events", "positions", "grid-shape", "grid-spacing",
        "leg", "scale", "randomdag", "randomdag-huge"])
def test_size_bound_refuses_before_building(stop_at_build, make):
    with pytest.raises(ValueError, match="bound"):
        make()


def test_simplex_config_distances():
    bundle = simplex_config(4, spacing=2)
    ids = [c.chain_id for c in bundle.chains]
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            assert bundle.sq_dist_chains(a, b) == 4


def test_collinear_config_distances():
    bundle = collinear_config(4, spacing=3)
    assert bundle.sq_dist_chains("0", "3") == 81
    assert bundle.sq_dist_chains("1", "2") == 9


def test_pythagoras_config_layout():
    cfg = pythagoras_config(3, 4)
    b = cfg.bundle
    assert b.sq_dist_chains("P", "O") == 9
    assert b.sq_dist_chains("O", "R") == 16
    assert b.sq_dist_chains("P", "R") == 25
    assert b.sq_dist_chains("P", "Q") == 36
    assert b.sq_dist_chains("R", "S") == 64


def test_dotprod_config_probe_distances():
    for k in (1, 2):
        cfg = dotprod_config(k)
        b = cfg.bundle
        assert b.sq_dist_chains("X", "F0") == 25 * k * k
        assert b.sq_dist_chains("X", "F1") == 16 * k * k
        assert b.sq_dist_chains("X", "F2") == 25 * k * k
        assert len(b.chain("X")) == 1


def test_grid_config_layout():
    g = grid_config(3, 3, 3, 4)
    b = g.bundle
    assert b.sq_dist_chains("0,0", "0,2") == 36  # along a row
    assert b.sq_dist_chains("0,0", "2,0") == 64  # along a column
    assert b.sq_dist_chains("0,0", "1,1") == 25  # 3-4-5 diagonal


def test_bad_params():
    with pytest.raises(ValueError):
        lattice_1p1(-1, 10)
    with pytest.raises(ValueError):
        grid_config(1, 3)
    with pytest.raises(ValueError):
        dotprod_config(0)


def _worldlines(bundle):
    return {c.chain_id: tuple(map(c.value, c.elements)) for c in bundle.chains}


def _assert_masks_match_sweep(bundle):
    poset = bundle.poset
    events = poset.events()
    up, down = sweep_masks(bundle.config, _worldlines(bundle))
    assert [poset.up_mask(e) for e in events] == up
    assert [poset.down_mask(e) for e in events] == down


# every metric kind of `posetgeo generate`, at its command-line defaults
# (randomdag is not metric-built)
@pytest.mark.parametrize("make", [
    lambda: lattice_1p1(5, 40),
    lambda: collinear_config(3, 1, 20),
    lambda: simplex_config(3, 1, 20),
    lambda: grid_config(3, 3, 3, 4).bundle,
    lambda: pythagoras_config(3, 4).bundle,
    lambda: dotprod_config(1).bundle,
], ids=["lattice1p1", "collinear", "simplex", "grid", "pythagoras", "dotprod"])
def test_masks_match_sweep_on_generate_kinds(make):
    _assert_masks_match_sweep(make())


def test_masks_match_sweep_on_suite_grids():
    for rows, cols, k in _grid_layouts():
        _assert_masks_match_sweep(grid_config(rows, cols, 3 * k, 4 * k).bundle)


@pytest.mark.parametrize("scale", [1, 2, 3])
def test_masks_match_sweep_on_mixed_ticks(scale):
    """The probe worldline has one tick of its own."""
    _assert_masks_match_sweep(dotprod_config(scale).bundle)


_COORD = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_TICK = st.fractions(min_value=0, max_value=10, max_denominator=4)
_TICKS = st.lists(_TICK, min_size=1, max_size=8, unique=True).map(
    lambda ts: tuple(sorted(ts))
)
_EVEN_TICKS = st.builds(
    lambda start, step, n: tuple(start + i * step for i in range(n)),
    _TICK,
    st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3),
    st.integers(1, 8),
)
_INT_TICKS = st.lists(st.integers(0, 10), min_size=1, max_size=8, unique=True).map(
    lambda ts: tuple(sorted(ts))
)
_RANGES = st.builds(range, st.integers(0, 4), st.integers(5, 12), st.integers(1, 3))


@st.composite
def _rational_layouts(draw):
    """Two to four worldlines at rational points; each takes a shared
    evenly spaced tick tuple, a shared uneven one, or ticks of its own.
    Ticks are Fractions, plain ints or ranges of ints."""
    dims = draw(st.integers(1, 2))
    names = [f"w{i}" for i in range(draw(st.integers(2, 4)))]
    coords = {n: draw(st.tuples(*[_COORD] * dims)) for n in names}
    even, uneven = draw(_EVEN_TICKS | _RANGES), draw(_TICKS | _INT_TICKS)
    worldlines = {
        n: draw(st.sampled_from([even, uneven]) | _TICKS | _INT_TICKS | _RANGES)
        for n in names
    }
    return MetricConfig.from_points(coords), worldlines


@settings(max_examples=50, deadline=None)
@given(_rational_layouts())
def test_masks_match_sweep_on_rational_layouts(layout):
    config, worldlines = layout
    bundle = build_metric_poset(config, worldlines)
    assert list(bundle.config.positions) == list(worldlines)
    _assert_masks_match_sweep(bundle)


_EVENT_CASES = [
    pytest.param(lambda r=rows, c=cols, k=k: grid_config(r, c, 3 * k, 4 * k).bundle,
                 id=f"grid{rows}x{cols}k{k}")
    for rows, cols, k in _grid_layouts()
] + [
    pytest.param(lambda s=scale: dotprod_config(s).bundle, id=f"dotprod{scale}")
    for scale in (1, 2, 3)
]


@pytest.mark.parametrize("make", _EVENT_CASES)
def test_event_lookup(make):
    """Every (position, tick) finds its event, by int or Fraction tick;
    a tick between two ticks, past either end or at an unknown position
    raises KeyError."""
    bundle = make()
    for chain in bundle.chains:
        ticks = [chain.value(e) for e in chain.elements]
        for e, t in zip(chain.elements, ticks):
            assert bundle.event(chain.chain_id, t) == e
            if t.denominator == 1:
                assert bundle.event(chain.chain_id, int(t)) == e
        missing = [ticks[0] - 1, ticks[-1] + 1]
        missing += [(a + b) / 2 for a, b in zip(ticks, ticks[1:])]
        for t in missing:
            with pytest.raises(KeyError):
                bundle.event(chain.chain_id, t)
    with pytest.raises(KeyError):
        bundle.event("nowhere", ticks[0])


@pytest.mark.parametrize("ticks", [(0, 0), (2, 1), (0, 2, 1)])
def test_worldline_ticks_must_increase(ticks):
    """The worldline's chain checks its ticks before any mask is built,
    so a repeated tick never reaches the template step as a zero step."""
    config = MetricConfig.from_points({"A": [0], "B": [1]})
    worldlines = {"A": ticks, "B": ticks}
    with pytest.raises(ValueError):
        build_metric_poset(config, worldlines)


_COORD = st.fractions(max_denominator=12) | st.integers(-5, 5)


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(st.text("abcd", min_size=1, max_size=2),
                       st.lists(_COORD, min_size=2, max_size=2),
                       min_size=2, max_size=5))
def test_from_points_matches_a_fraction_sum(coords):
    """Squared distances over the common coordinate denominator equal the
    sum of Fraction differences squared, for mixed and negative
    rational coordinates."""
    config = MetricConfig.from_points(coords)
    for a, b in combinations(coords, 2):
        want = sum((Fraction(u) - Fraction(v)) ** 2 for u, v in zip(coords[a], coords[b]))
        assert config.sq_dist(a, b) == want
