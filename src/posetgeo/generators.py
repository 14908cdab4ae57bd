"""Construct exact test posets whose causal order is induced by a metric.

Events are (tick, position) pairs; the order rule is

    (t1, p1) <= (t2, p2)  iff  t2 - t1 >= 0 and (t2 - t1)^2 >= d^2(p1, p2)

compared exactly on Fractions, so no floating point enters anywhere.
The triangle inequality on the metric guarantees transitivity.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyWorldline, InvalidMetric, UnknownChain
from .poset import Chain, Poset

Rational = Fraction | int


def sqrt_exact(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    value = Fraction(value)
    if value < 0:
        return None
    n, d = value.numerator, value.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class WorldlineSpec:
    """A position plus the strictly increasing tick times of its events.

    A tick that is already a ``Fraction`` is kept as given; any other
    value is converted with ``Fraction``.  The chain that
    :func:`build_metric_poset` makes of the worldline checks that the
    ticks increase."""

    position_id: str
    tick_times: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ticks = tuple(
            t if isinstance(t, Fraction) else Fraction(t) for t in self.tick_times
        )
        object.__setattr__(self, "tick_times", ticks)
        if not ticks:
            raise EmptyWorldline(f"worldline {self.position_id} has no ticks")


class MetricConfig:
    """Symmetric table of exact squared distances between positions."""

    def __init__(
        self, positions: Sequence[str], sq_dist: dict[tuple[str, str], Rational]
    ) -> None:
        self.positions = list(positions)
        self._sq: dict[frozenset, Fraction] = {}
        for (a, b), d2 in sq_dist.items():
            d2 = Fraction(d2)
            if d2 < 0:
                raise InvalidMetric(f"negative squared distance for ({a},{b})")
            if a == b and d2 != 0:
                raise InvalidMetric(f"nonzero diagonal for {a}")
            self._sq[frozenset((a, b))] = d2
        for a in self.positions:
            for b in self.positions:
                if a != b and frozenset((a, b)) not in self._sq:
                    raise InvalidMetric(f"missing squared distance for ({a},{b})")
        self._check_triangle()

    @classmethod
    def from_points(
        cls, coords: dict[str, Sequence[Rational]]
    ) -> "MetricConfig":
        """Euclidean squared distances of explicit coordinates, summed
        on integers over one common coordinate denominator."""
        names = list(coords)
        points = [list(map(Fraction, coords[a])) for a in names]
        den = math.lcm(*(x.denominator for xs in points for x in xs))
        points = [[x.numerator * (den // x.denominator) for x in xs] for xs in points]
        sq = {}
        for i, a in enumerate(names):
            for j in range(i + 1, len(names)):
                d2 = sum((u - v) ** 2 for u, v in zip(points[i], points[j]))
                sq[(a, names[j])] = Fraction(d2, den * den)
        return cls(names, sq)

    def sq_dist(self, a: str, b: str) -> Fraction:
        if a == b:
            return Fraction(0)
        return self._sq[frozenset((a, b))]

    def _check_triangle(self) -> None:
        """Each unordered triple once: with its squared sides x <= y <= z
        scaled to integers over one denominator, sqrt(z) <= sqrt(x) +
        sqrt(y) reads gap = z - x - y <= 0 or gap^2 <= 4xy."""
        ps = self.positions
        sq = [[self.sq_dist(a, b) for b in ps] for a in ps]
        scale = math.lcm(*(d2.denominator for row in sq for d2 in row))
        sq = [[d2.numerator * (scale // d2.denominator) for d2 in row] for row in sq]
        n = len(ps)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    x, y, z = sorted((sq[i][j], sq[i][k], sq[j][k]))
                    gap = z - x - y
                    if gap > 0 and gap * gap > 4 * x * y:
                        raise InvalidMetric(
                            f"triangle inequality fails for ({ps[i]},{ps[j]},{ps[k]})"
                        )


class MetricPoset:
    """A metric-generated poset bundle: the poset, one chain per
    worldline, and the exact squared-distance table that produced it.
    """

    def __init__(self, poset: Poset, chains: list[Chain], config: MetricConfig) -> None:
        self.poset = poset
        self.chains = chains
        self.config = config
        self._by_id = {c.chain_id: c for c in chains}

    def chain(self, position_id: str) -> Chain:
        try:
            return self._by_id[position_id]
        except KeyError:
            raise UnknownChain(f"no chain {position_id!r}") from None

    def event(self, position_id: str, tick: Rational) -> int:
        """The event at tick on the worldline of position_id, found by
        bisection over its chain's integer ticks; KeyError when there is
        none."""
        tick = Fraction(tick)
        chain = self._by_id.get(position_id)
        if chain is not None:
            t, rest = divmod(tick.numerator * chain.den, tick.denominator)
            i = bisect.bisect_left(chain.ticks, t)
            if not rest and i < len(chain) and chain.ticks[i] == t:
                return chain.elements[i]
        raise KeyError((position_id, tick))

    def sq_dist_chains(self, a: str, b: str) -> Fraction:
        return self.config.sq_dist(a, b)


def _threshold(d2: Fraction, scale: int) -> int:
    """The least integer D >= 0 with D^2 >= d2 * scale^2: on the
    integer-scaled tick grid, (t2 - t1)^2 >= d^2 with t2 >= t1 reads
    t2 - t1 >= D."""
    # D^2 * q >= r, and D^2 is an integer, so D^2 >= ceil(r / q)
    need = -(-d2.numerator * scale * scale // d2.denominator)
    root = math.isqrt(need)
    return root if root * root == need else root + 1


def _step(ticks: Sequence[int]) -> int | None:
    """The common difference of an arithmetic tick sequence, else None
    (1 for a single tick, whose one difference is vacuous)."""
    if len(ticks) == 1:
        return 1
    step = ticks[1] - ticks[0]
    if any(b - a != step for a, b in zip(ticks, ticks[1:])):
        return None
    return step


def build_metric_poset(
    config: MetricConfig, worldlines: Sequence[WorldlineSpec]
) -> MetricPoset:
    """Realize worldlines over a metric as a poset plus chains.

    Worldline w takes the rows of one block, in tick order, and its
    chain keeps the ticks scaled to one integer grid, so the order rule
    between worldlines i and j reads t_j - t_i >= D_ij, with D_ij from
    one ``isqrt`` (see :func:`_threshold`).  Worldlines that share one
    evenly spaced tick tuple of n ticks (every preset grid) share one
    shift k_ij = ceil(D_ij / step) per pair: row a of i lies below rows
    a + k_ij .. n - 1 of j.  So worldline i has one up template, the
    bits of row 0, and row a's up mask is that template shifted left by
    a, with the bits that spill into the next block cleared; the down
    masks mirror it from the last row.  This is the shift-and idiom of
    bit-parallel string matching (Baeza-Yates and Gonnet, CACM 1992).  A
    pair outside such a group (a probe with its own ticks) joins row by
    row, through a ``bisect`` at t + D and t - D.
    """
    seen = set()
    for w in worldlines:
        if w.position_id not in config.positions:
            raise InvalidMetric(f"worldline position {w.position_id!r} not in metric")
        if w.position_id in seen:
            raise InvalidMetric(f"duplicate worldline {w.position_id!r}")
        seen.add(w.position_id)

    # scale every tick to a shared integer grid so the causal-rule
    # comparisons run on plain ints instead of Fractions
    scale = math.lcm(*(t.denominator for w in worldlines for t in w.tick_times))
    groups: dict[tuple[int, ...], list[int]] = {}
    chains = []
    offsets = []
    total = 0
    for wi, w in enumerate(worldlines):
        n = len(w.tick_times)
        ticks = [t.numerator * (scale // t.denominator) for t in w.tick_times]
        chain = Chain(w.position_id, range(total, total + n), ticks, scale)
        chains.append(chain)
        groups.setdefault(chain.ticks, []).append(wi)
        offsets.append(total)
        total += n
    ids = [w.position_id for w in worldlines]
    threshold = [
        [_threshold(config.sq_dist(a, b), scale) for b in ids] for a in ids
    ]

    up = [0] * total
    down = [0] * total
    shifted = set()
    for ticks, members in groups.items():
        step = _step(ticks)
        if step is None:
            continue
        n = len(ticks)
        block = (1 << n) - 1
        starts = sum(1 << offsets[j] for j in members)
        full = block * starts
        for i in members:
            up_t = down_t = 0
            for j in members:
                k = -(-threshold[i][j] // step)
                if k < n:
                    up_t |= (block >> k << k) << offsets[j]
                    down_t |= (block >> k) << offsets[j]
                shifted.add((i, j))
            off = offsets[i]
            low = 0  # the bits of in-block index < a, then <= a
            for a in range(n):
                high = full ^ low
                low |= starts << a
                up[off + a] |= (up_t << a) & high
                down[off + a] |= (down_t >> (n - 1 - a)) & low

    for i, chain_i in enumerate(chains):
        off_i = offsets[i]
        for j, chain_j in enumerate(chains):
            if (i, j) in shifted:
                continue
            gap = threshold[i][j]
            off_j = offsets[j]
            ticks_j = chain_j.ticks
            top = ((1 << len(ticks_j)) - 1) << off_j
            for a, t in enumerate(chain_i.ticks):
                lo = bisect.bisect_left(ticks_j, t + gap)
                hi = bisect.bisect_right(ticks_j, t - gap)
                up[off_i + a] |= top >> (off_j + lo) << (off_j + lo)
                down[off_i + a] |= top & ((1 << (off_j + hi)) - 1)

    poset = Poset._from_masks(range(total), up, down)
    return MetricPoset(poset, chains, config)


def _integer_ticks(ticks: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(t) for t in range(ticks + 1))


def lattice_1p1(width: int, ticks: int) -> MetricPoset:
    """Unit-spaced worldlines on a line: positions 0..width, ticks 0..ticks."""
    if width < 0 or ticks < 1:
        raise ValueError("width must be >= 0 and ticks >= 1")
    coords = {str(i): (i,) for i in range(width + 1)}
    config = MetricConfig.from_points(coords)
    tick_tuple = _integer_ticks(ticks)
    return build_metric_poset(
        config, [WorldlineSpec(str(i), tick_tuple) for i in range(width + 1)]
    )


def collinear_config(
    n_chains: int, spacing: Rational = 1, ticks: int = 20
) -> MetricPoset:
    """n chains on a line at arithmetic spacing (simplex Case I)."""
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    spacing = Fraction(spacing)
    coords = {str(i): (i * spacing,) for i in range(n_chains)}
    config = MetricConfig.from_points(coords)
    tick_tuple = _integer_ticks(ticks)
    return build_metric_poset(
        config, [WorldlineSpec(str(i), tick_tuple) for i in range(n_chains)]
    )


def simplex_config(
    n_chains: int, spacing: Rational = 1, ticks: int = 20
) -> MetricPoset:
    """n pairwise-equidistant chains (simplex Case II)."""
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    spacing = Fraction(spacing)
    names = [str(i) for i in range(n_chains)]
    sq = {
        (a, b): spacing * spacing
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    }
    config = MetricConfig(names, sq)
    tick_tuple = _integer_ticks(ticks)
    return build_metric_poset(
        config, [WorldlineSpec(n, tick_tuple) for n in names]
    )


def pythagoras_config(a: int, b: int, ticks: int | None = None) -> "PythagorasConfig":
    """Two orthogonal coordinated pairs with legs a and b.

    Chains sit at P(-a,0), O(0,0), Q(a,0) on one axis and R(0,b),
    S(0,-b) on the perpendicular; [p,o] and [o,r] realize the legs.
    """
    if a < 0 or b < 0:
        raise ValueError("legs must be nonnegative")
    reach = 2 * (a + b) + 2
    if ticks is None:
        ticks = 2 * reach
    coords = {
        "P": (-a, 0),
        "O": (0, 0),
        "Q": (a, 0),
        "R": (0, b),
        "S": (0, -b),
    }
    config = MetricConfig.from_points(coords)
    tick_tuple = _integer_ticks(ticks)
    bundle = build_metric_poset(
        config, [WorldlineSpec(n, tick_tuple) for n in coords]
    )
    return PythagorasConfig(bundle, Fraction(a), Fraction(b))


@dataclass
class PythagorasConfig:
    bundle: MetricPoset
    leg_a: Fraction
    leg_b: Fraction

    @property
    def mid_tick(self) -> Fraction:
        chain = self.bundle.chain("O")
        return chain.value(chain.elements[len(chain) // 2])


def dotprod_config(scale: int = 1, ticks: int | None = None) -> "DotprodConfig":
    """Centered 3-4-5 probe layout: a three-chain fence at spacing 3k
    plus a one-tick probe worldline at height 4k above the middle chain,
    so every probe-to-chain distance is an exact integer (5k, 4k, 5k).
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    k = scale
    if ticks is None:
        ticks = 14 * k + 2
    mid = Fraction(ticks, 2) if ticks % 2 == 0 else Fraction(ticks - 1, 2)
    coords = {
        "F0": (0, 0),
        "F1": (3 * k, 0),
        "F2": (6 * k, 0),
        "X": (3 * k, 4 * k),
    }
    config = MetricConfig.from_points(coords)
    tick_tuple = _integer_ticks(ticks)
    worldlines = [WorldlineSpec(n, tick_tuple) for n in ("F0", "F1", "F2")]
    worldlines.append(WorldlineSpec("X", (mid,)))
    bundle = build_metric_poset(config, worldlines)
    return DotprodConfig(bundle, k, mid)


@dataclass
class DotprodConfig:
    bundle: MetricPoset
    scale: int
    probe_tick: Fraction

    @property
    def fence_chains(self) -> list[Chain]:
        return [self.bundle.chain(n) for n in ("F0", "F1", "F2")]

    @property
    def probe_event(self) -> int:
        return self.bundle.event("X", self.probe_tick)


def grid_config(
    rows: int = 3,
    cols: int = 3,
    row_spacing: Rational = 1,
    col_spacing: Rational = 1,
    ticks: int | None = None,
) -> "GridConfig":
    """rows x cols chains at axis-aligned rational spacings."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    row_spacing = Fraction(row_spacing)
    col_spacing = Fraction(col_spacing)
    if ticks is None:
        span = (cols - 1) * row_spacing + (rows - 1) * col_spacing
        ticks = int(2 * span) + 4
    coords = {
        f"{r},{c}": (c * row_spacing, r * col_spacing)
        for r in range(rows)
        for c in range(cols)
    }
    config = MetricConfig.from_points(coords)
    tick_tuple = _integer_ticks(ticks)
    bundle = build_metric_poset(
        config, [WorldlineSpec(n, tick_tuple) for n in coords]
    )
    return GridConfig(bundle, rows, cols)


@dataclass
class GridConfig:
    bundle: MetricPoset
    rows: int
    cols: int

    def chain_array(self) -> list[list[Chain]]:
        return [
            [self.bundle.chain(f"{r},{c}") for c in range(self.cols)]
            for r in range(self.rows)
        ]


def random_dag(n_events: int, edge_probability: float, seed: int) -> Poset:
    """Deterministic random layered DAG, transitively closed."""
    if not 0 <= edge_probability <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    layer_count = max(1, math.isqrt(max(n_events, 1)))
    layers = [rng.randrange(layer_count) for _ in range(n_events)]
    pairs = [
        (a, b)
        for a in range(n_events)
        for b in range(n_events)
        if layers[a] < layers[b] and rng.random() < edge_probability
    ]
    return Poset(range(n_events), pairs)
