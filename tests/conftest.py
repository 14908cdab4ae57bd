"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's fast paths: projections by
linear scan, closure and transitive reduction by matrix Warshall, planar
products from embedded coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

from posetgeo import Chain, MetricConfig, Poset, generators, lattice_1p1
from posetgeo.projection import Projector


def wide_denominator_doc(n: int) -> dict:
    """A one-chain document of n increasing valuations k + 1/(B + k),
    B = 10**3990, written "(k(B + k) + 1)/(B + k)": each fits the
    loader's digit limit, but consecutive denominators are coprime, so
    their common denominator has about 3991 * n digits."""
    big = 10**3990
    values = [f"{k * (big + k) + 1}/{big + k}" for k in range(n)]
    return {
        "events": list(range(n)),
        "covers": [[k, k + 1] for k in range(n - 1)],
        "chains": [{"id": "w", "events": list(range(n)), "valuations": values}],
    }


# Posets and chains never change, so a scan answer can be kept; the
# census oracle asks for each one many times.
@cache
def scan_forward(poset: Poset, x: int, chain: Chain) -> int | None:
    """Least upper bound of x on the chain by exhaustive scan."""
    above = [p for p in chain.elements if poset.leq(x, p)]
    if not above:
        return None
    return min(above, key=chain.value)


@cache
def scan_backward(poset: Poset, x: int, chain: Chain) -> int | None:
    below = [p for p in chain.elements if poset.leq(p, x)]
    if not below:
        return None
    return max(below, key=chain.value)


# The twelve-relation table of the projection code, kept here as an
# oracle independent of the library's straight-line version.  Row d
# holds the target projection of digit d, as (direction, chain role),
# and its three candidates, as (outer direction, outer chain, inner
# direction, inner chain): column 0 of the Px row is P(Qx).
_CODE_TABLE = (
    (("F", "P"), (("F", "P", "F", "Q"), ("F", "P", "B", "Q"), ("B", "P", "F", "Q"))),
    (("B", "P"), (("B", "P", "F", "Q"), ("B", "P", "B", "Q"), ("F", "P", "B", "Q"))),
    (("F", "Q"), (("F", "Q", "F", "P"), ("F", "Q", "B", "P"), ("B", "Q", "F", "P"))),
    (("B", "Q"), (("B", "Q", "F", "P"), ("B", "Q", "B", "P"), ("F", "Q", "B", "P"))),
)


def reference_code(poset: Poset, x: int, p: Chain, q: Chain) -> str | None:
    """Projection code of x against (p, q) by scan, in ``str(ProjCode)``
    form, or None when a projection of x onto p or q is missing."""
    chains = {"P": p, "Q": q}
    scan = {"F": scan_forward, "B": scan_backward}

    def project(direction, role, e):
        return None if e is None else scan[direction](poset, e, chains[role])

    if any(project(d, r, x) is None for d in "FB" for r in "PQ"):
        return None
    digits = ""
    for (direction, role), candidates in _CODE_TABLE:
        target = project(direction, role, x)
        held = [
            col
            for col, (od, oc, idir, ic) in enumerate(candidates)
            if project(od, oc, project(idir, ic, x)) == target
        ]
        digits += str(held[0]) if len(held) == 1 else "u"
    return digits


def scan_coordinated(
    poset: Poset,
    p: Chain,
    q: Chain,
    p_interval: tuple[int, int] | None = None,
    q_interval: tuple[int, int] | None = None,
) -> bool | str:
    """Coordination of (p, q) by scan, as ``are_coordinated`` defines it:
    True or False, or the name of the error class it raises.  Windows
    and images are event sets, and offsets Fractions."""
    if p.chain_id == q.chain_id:
        return True

    def window(chain, interval):
        lo, hi = sorted((chain.index_of(interval[0]), chain.index_of(interval[1])))
        return list(chain.elements[lo : hi + 1])

    if p_interval is None:
        wp = [e for e in p.elements if scan_forward(poset, e, q) is not None]
        if not wp:
            return "Unquantifiable"
        lo = p.index_of(wp[0])
        if list(p.elements[lo : lo + len(wp)]) != wp:
            return False
    else:
        wp = window(p, p_interval)
    images = [scan_forward(poset, e, q) for e in wp]
    if None in images:
        return "Unquantifiable"
    if q_interval is None:
        wq = window(q, (images[0], images[-1]))
    else:
        wq = window(q, q_interval)
    if len({q.value(i) - p.value(e) for e, i in zip(wp, images)}) != 1:
        return False
    if set(images) != set(wq):
        return False
    back = [scan_backward(poset, e, p) for e in wq]
    if None in back:
        return "Unquantifiable"
    if len({p.value(i) - q.value(e) for e, i in zip(wq, back)}) != 1:
        return False
    return set(back) == set(wp)


def warshall_closure(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Reflexive-transitive closure as a boolean matrix."""
    m = np.eye(n, dtype=bool)
    for a, b in edges:
        m[a, b] = True
    for k in range(n):
        m |= np.outer(m[:, k], m[k, :])
    return m


def warshall_reduction(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Transitive reduction of the Warshall closure: the pairs a < b with
    nothing strictly between, ordered by a, then b."""
    strict = warshall_closure(n, edges) & ~np.eye(n, dtype=bool)
    counts = strict.astype(np.int64)
    between = counts @ counts > 0
    return [(int(a), int(b)) for a, b in np.argwhere(strict & ~between)]


def planar_dot(u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]) -> Fraction:
    return u[0] * v[0] + u[1] * v[1]


def planar_cross(
    u: tuple[Fraction, Fraction], v: tuple[Fraction, Fraction]
) -> Fraction:
    return u[0] * v[1] - u[1] * v[0]


@pytest.fixture(scope="session")
def lattice():
    return lattice_1p1(4, 20)


@pytest.fixture(scope="session")
def lattice_projector(lattice):
    return Projector(lattice.poset)


class ReachedBuild(Exception):
    """A generator got past its size bound to the metric or the draw."""


@pytest.fixture
def stop_at_build(monkeypatch):
    """Stop every generator where its work would start: the metric's
    constructor and random_dag's generator raise ReachedBuild, so a test
    can see whether a request passes the size bound without running it."""
    def stop(*args, **kwargs):
        raise ReachedBuild

    monkeypatch.setattr(MetricConfig, "__init__", stop)
    monkeypatch.setattr(generators, "random", SimpleNamespace(Random=stop))


def sweep_masks(config, worldlines) -> tuple[list[int], list[int]]:
    """Up and down masks of a metric layout, given as a mapping from
    position id to ticks, by a two-pointer sweep over every ordered
    worldline pair: the order rule compared tick by tick, without
    thresholds or templates.  Rows follow the worldlines' ticks in order,
    as in ``build_metric_poset``."""
    ids = list(worldlines)
    tick_lists = [[Fraction(t) for t in worldlines[n]] for n in ids]
    offsets = []
    total = 0
    for ticks in tick_lists:
        offsets.append(total)
        total += len(ticks)
    full_mask = [
        ((1 << len(ticks)) - 1) << off for off, ticks in zip(offsets, tick_lists)
    ]
    scale = 1
    for ticks in tick_lists:
        for t in ticks:
            scale = scale * t.denominator // gcd(scale, t.denominator)
    scaled = [[int(t * scale) for t in ticks] for ticks in tick_lists]

    up = [0] * total
    down = [0] * total
    for wi, (off_i, id_i) in enumerate(zip(offsets, ids)):
        ticks_i = scaled[wi]
        for wj, (off_j, id_j) in enumerate(zip(offsets, ids)):
            d2 = config.sq_dist(id_i, id_j)
            # (tj - ti)^2 >= d2 becomes dt^2 * q >= r on the scaled grid
            r = d2.numerator * scale * scale
            q = d2.denominator
            ticks_j = scaled[wj]
            nj = len(ticks_j)
            j0 = 0
            j1 = -1
            for i, t in enumerate(ticks_i):
                row = off_i + i
                while j0 < nj and (ticks_j[j0] < t or (ticks_j[j0] - t) ** 2 * q < r):
                    j0 += 1
                if j0 < nj:
                    up[row] |= (full_mask[wj] >> (off_j + j0)) << (off_j + j0)
                while j1 + 1 < nj and ticks_j[j1 + 1] <= t and (
                    (t - ticks_j[j1 + 1]) ** 2 * q >= r
                ):
                    j1 += 1
                if j1 >= 0:
                    down[row] |= full_mask[wj] & ((1 << (off_j + j1 + 1)) - 1)
    return up, down
