"""Construct exact test posets whose causal order is induced by a metric.

Events are (tick, position) pairs; the order rule is

    (t1, p1) <= (t2, p2)  iff  t2 - t1 >= 0 and (t2 - t1)^2 >= d^2(p1, p2)

compared exactly on Fractions, so no floating point enters anywhere.
The triangle inequality on the metric guarantees transitivity.
"""

from __future__ import annotations

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


def _sqrt_leq_sum(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """sqrt(a) <= sqrt(b) + sqrt(c), decided exactly on the squares."""
    gap = a - b - c
    if gap <= 0:
        return True
    return gap * gap <= 4 * b * c


@dataclass(frozen=True)
class WorldlineSpec:
    """A position plus the strictly increasing tick times of its events."""

    position_id: str
    tick_times: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ticks = tuple(Fraction(t) for t in self.tick_times)
        object.__setattr__(self, "tick_times", ticks)
        if not ticks:
            raise EmptyWorldline(f"worldline {self.position_id} has no ticks")
        if any(a >= b for a, b in zip(ticks, ticks[1:])):
            raise ValueError(f"ticks of {self.position_id} not strictly increasing")


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
        """Euclidean squared distances of explicit coordinates."""
        names = list(coords)
        sq = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                sq[(a, b)] = sum(
                    (Fraction(u) - Fraction(v)) ** 2
                    for u, v in zip(coords[a], coords[b])
                )
        return cls(names, sq)

    def sq_dist(self, a: str, b: str) -> Fraction:
        if a == b:
            return Fraction(0)
        return self._sq[frozenset((a, b))]

    def _check_triangle(self) -> None:
        ps = self.positions
        for i, a in enumerate(ps):
            for j, b in enumerate(ps):
                if j == i:
                    continue
                for c in ps[j + 1 :]:
                    if c == a:
                        continue
                    if not _sqrt_leq_sum(
                        self.sq_dist(a, c), self.sq_dist(a, b), self.sq_dist(b, c)
                    ):
                        raise InvalidMetric(
                            f"triangle inequality fails for ({a},{b},{c})"
                        )


class MetricPoset:
    """A metric-generated poset bundle: the poset, one chain per
    worldline, and the exact squared-distance table that produced it.
    """

    def __init__(
        self,
        poset: Poset,
        chains: list[Chain],
        config: MetricConfig,
        event_index: dict[tuple[str, Fraction], int],
    ) -> None:
        self.poset = poset
        self.chains = chains
        self.config = config
        self._event_index = event_index
        self._by_id = {c.chain_id: c for c in chains}

    def chain(self, position_id: str) -> Chain:
        try:
            return self._by_id[position_id]
        except KeyError:
            raise UnknownChain(f"no chain {position_id!r}") from None

    def event(self, position_id: str, tick: Rational) -> int:
        return self._event_index[(position_id, Fraction(tick))]

    def sq_dist_chains(self, a: str, b: str) -> Fraction:
        return self.config.sq_dist(a, b)


def build_metric_poset(
    config: MetricConfig, worldlines: Sequence[WorldlineSpec]
) -> MetricPoset:
    """Realize worldlines over a metric as a poset plus chains."""
    seen = set()
    for w in worldlines:
        if w.position_id not in config.positions:
            raise InvalidMetric(f"worldline position {w.position_id!r} not in metric")
        if w.position_id in seen:
            raise InvalidMetric(f"duplicate worldline {w.position_id!r}")
        seen.add(w.position_id)
        if not w.tick_times:
            raise EmptyWorldline(w.position_id)

    offsets = []
    total = 0
    for w in worldlines:
        offsets.append(total)
        total += len(w.tick_times)

    full_mask = []
    for off, w in zip(offsets, worldlines):
        n = len(w.tick_times)
        full_mask.append(((1 << n) - 1) << off)

    # scale every tick to a shared integer grid so the causal-rule
    # comparisons run on plain ints instead of Fractions
    scale = 1
    for w in worldlines:
        for t in w.tick_times:
            scale = scale * t.denominator // math.gcd(scale, t.denominator)
    scaled = [[int(t * scale) for t in w.tick_times] for w in worldlines]

    up = [0] * total
    down = [0] * total
    for wi, (off_i, w_i) in enumerate(zip(offsets, worldlines)):
        ticks_i = scaled[wi]
        for wj, (off_j, w_j) in enumerate(zip(offsets, worldlines)):
            d2 = config.sq_dist(w_i.position_id, w_j.position_id)
            # (tj - ti)^2 >= d2 becomes dt^2 * q >= r on the scaled grid
            r = d2.numerator * scale * scale
            q = d2.denominator
            ticks_j = scaled[wj]
            nj = len(ticks_j)
            # thresholds are monotone in t, so sweep with two pointers
            j0 = 0
            j1 = -1
            for i, t in enumerate(ticks_i):
                row = off_i + i
                while j0 < nj and (
                    ticks_j[j0] < t or (ticks_j[j0] - t) ** 2 * q < r
                ):
                    j0 += 1
                if j0 < nj:
                    up[row] |= (full_mask[wj] >> (off_j + j0)) << (off_j + j0)
                while j1 + 1 < nj and ticks_j[j1 + 1] <= t and (
                    (t - ticks_j[j1 + 1]) ** 2 * q >= r
                ):
                    j1 += 1
                if j1 >= 0:
                    down[row] |= full_mask[wj] & ((1 << (off_j + j1 + 1)) - 1)

    poset = Poset._from_masks(range(total), up, down, frozen=True)

    chains = []
    event_index: dict[tuple[str, Fraction], int] = {}
    for off, w in zip(offsets, worldlines):
        elements = list(range(off, off + len(w.tick_times)))
        valuation = dict(zip(elements, w.tick_times))
        chains.append(Chain(w.position_id, elements, valuation))
        for e, t in valuation.items():
            event_index[(w.position_id, t)] = e
    return MetricPoset(poset, chains, config, event_index)


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
        return chain.valuation[chain.elements[len(chain) // 2]]


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
    poset = Poset()
    for e in range(n_events):
        poset.add_event(e)
    for a in range(n_events):
        for b in range(n_events):
            if layers[a] < layers[b] and rng.random() < edge_probability:
                poset.add_influence(a, b)
    return poset.freeze()
