"""Construct exact test posets whose causal order is induced by a metric.

Events are (tick, position) pairs; the order rule is

    (t1, p1) <= (t2, p2)  iff  t2 - t1 >= 0 and (t2 - t1)^2 >= d^2(p1, p2)

compared exactly on integers: every tick is put over one shared scale,
and each squared distance becomes one integer threshold, so no floating
point enters anywhere.  The triangle inequality on the metric guarantees
transitivity.
"""

from __future__ import annotations

import bisect
import math
import random
from itertools import combinations
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import EmptyWorldline, InvalidMetric, UnknownChain
from .poset import Chain, Poset

Rational = Fraction | int

# Size bounds, checked before any metric is built or pair drawn: the
# triangle check visits every triple of positions; random_dag O(n^2) pairs.
MAX_EVENTS = 10_000
MAX_POSITIONS = 64
MAX_DAG_EVENTS = 2_000


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
    config: MetricConfig, worldlines: Mapping[str, Sequence[Rational]]
) -> MetricPoset:
    """Realize worldlines over a metric as a poset plus chains.

    ``worldlines`` maps each position id to the increasing ticks of its
    events, each an int or a Fraction.  Worldline w takes the rows of
    one block, in tick order, and its chain keeps the ticks over one
    shared integer scale, so the order rule between worldlines i and j
    reads t_j - t_i >= D_ij, with D_ij from one ``isqrt`` (see
    :func:`_threshold`).  Worldlines that share one evenly spaced tick
    tuple of n ticks (every preset grid) share one shift k_ij = ceil(D_ij
    / step) per pair: row a of i lies below rows a + k_ij .. n - 1 of j.
    So worldline i has one up template, the bits of row 0, and row a's
    up mask is that template shifted left by a, with the bits that spill
    into the next block cleared; the down masks mirror it from the last
    row.  This is the shift-and idiom of bit-parallel string matching
    (Baeza-Yates and Gonnet, CACM 1992).  A pair outside such a group (a
    probe with its own ticks) joins row by row, through a ``bisect`` at
    t + D and t - D.
    """
    for position_id, ticks in worldlines.items():
        if position_id not in config.positions:
            raise InvalidMetric(f"worldline position {position_id!r} not in metric")
        if not ticks:
            raise EmptyWorldline(f"worldline {position_id} has no ticks")

    # every tick over one shared integer scale (an int's denominator is
    # 1), so the causal-rule comparisons run on plain ints
    scale = math.lcm(*(t.denominator for ticks in worldlines.values() for t in ticks))
    groups: dict[tuple[int, ...], list[int]] = {}
    chains = []
    offsets = []
    total = 0
    for wi, (position_id, ticks) in enumerate(worldlines.items()):
        n = len(ticks)
        scaled = [t.numerator * (scale // t.denominator) for t in ticks]
        chain = Chain(position_id, range(total, total + n), scaled, scale)
        chains.append(chain)
        groups.setdefault(chain.ticks, []).append(wi)
        offsets.append(total)
        total += n
    ids = list(worldlines)
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


def _check_size(positions: int, ticks: int) -> None:
    """Refuse a layout of more than MAX_POSITIONS worldlines, or of more
    than MAX_EVENTS events at ticks 0..ticks, before its metric is built."""
    if positions > MAX_POSITIONS or positions * (ticks + 1) > MAX_EVENTS:
        raise ValueError(
            f"{positions} worldlines of {ticks + 1} ticks pass the bound of"
            f" {MAX_POSITIONS} worldlines and {MAX_EVENTS} events"
        )


def _ticking(config: MetricConfig, ticks: int) -> MetricPoset:
    """Every position of config with one event at each tick 0..ticks."""
    return build_metric_poset(config, dict.fromkeys(config.positions, range(ticks + 1)))


def _line(n_chains: int, spacing: Rational, ticks: int) -> MetricPoset:
    """The body of both line presets: chains "0".."n-1" at i * spacing."""
    _check_size(n_chains, ticks)
    coords = {str(i): (i * spacing,) for i in range(n_chains)}
    return _ticking(MetricConfig.from_points(coords), ticks)


def lattice_1p1(width: int, ticks: int | None = None) -> MetricPoset:
    """Unit-spaced worldlines on a line: positions 0..width, ticks
    0..ticks (40 by default)."""
    ticks = 40 if ticks is None else ticks
    if width < 0 or ticks < 1:
        raise ValueError("width must be >= 0 and ticks >= 1")
    return _line(width + 1, 1, ticks)


def collinear_config(
    n_chains: int, spacing: Rational = 1, ticks: int | None = None
) -> MetricPoset:
    """n chains on a line at arithmetic spacing (simplex Case I), ticks
    0..ticks (20 by default)."""
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    return _line(n_chains, Fraction(spacing), 20 if ticks is None else ticks)


def simplex_config(
    n_chains: int, spacing: Rational = 1, ticks: int | None = None
) -> MetricPoset:
    """n pairwise-equidistant chains (simplex Case II), ticks 0..ticks
    (20 by default)."""
    if n_chains < 2:
        raise ValueError("need at least 2 chains")
    ticks = 20 if ticks is None else ticks
    _check_size(n_chains, ticks)
    spacing = Fraction(spacing)
    names = [str(i) for i in range(n_chains)]
    sq = {pair: spacing * spacing for pair in combinations(names, 2)}
    return _ticking(MetricConfig(names, sq), ticks)


def pythagoras_config(a: int, b: int, ticks: int | None = None) -> "PythagorasConfig":
    """Two orthogonal coordinated pairs with legs a and b.

    Chains sit at P(-a,0), O(0,0), Q(a,0) on one axis and R(0,b),
    S(0,-b) on the perpendicular; [p,o] and [o,r] realize the legs.
    By default they tick for twice the reach 2(a + b) + 2.
    """
    if a < 0 or b < 0:
        raise ValueError("legs must be nonnegative")
    ticks = 2 * (2 * (a + b) + 2) if ticks is None else ticks
    _check_size(5, ticks)
    coords = {"P": (-a, 0), "O": (0, 0), "Q": (a, 0), "R": (0, b), "S": (0, -b)}
    return PythagorasConfig(_ticking(MetricConfig.from_points(coords), ticks))


@dataclass
class PythagorasConfig:
    bundle: MetricPoset

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
    ticks = 14 * k + 2 if ticks is None else ticks
    _check_size(4, ticks)
    coords = {"F0": (0, 0), "F1": (3 * k, 0), "F2": (6 * k, 0), "X": (3 * k, 4 * k)}
    mid = ticks // 2
    worldlines = dict.fromkeys(("F0", "F1", "F2"), range(ticks + 1))
    worldlines["X"] = (mid,)
    bundle = build_metric_poset(MetricConfig.from_points(coords), worldlines)
    return DotprodConfig(bundle, mid)


@dataclass
class DotprodConfig:
    bundle: MetricPoset
    probe_tick: int

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
    _check_size(rows * cols, ticks)
    coords = {
        f"{r},{c}": (c * row_spacing, r * col_spacing)
        for r in range(rows)
        for c in range(cols)
    }
    return GridConfig(_ticking(MetricConfig.from_points(coords), ticks), rows, cols)


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
    if n_events > MAX_DAG_EVENTS:
        raise ValueError(
            f"{n_events} events pass the random DAG bound of {MAX_DAG_EVENTS}"
        )
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
