"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's fast paths: projections by
linear scan, closure and transitive reduction by matrix Warshall, planar
products from embedded coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from posetgeo import Chain, Poset, lattice_1p1
from posetgeo.projection import Projector


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
