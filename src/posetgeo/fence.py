"""Fences (uniform families of parallel chains), grids built from two
fence families, and the discrete dot, wedge and geometric products.

Fence validation runs on the chain pairs' composed index lists from the
Projector: the distance and the coordination of an adjacent pair, and
the collinearity of each consecutive triple, whose interior window is
classified in one batch of the digit rule.
Each of these verdicts is computed once per projector (``pr.once``), so
the fences of one family, and the rows and columns of one grid, share
the pairs and triples they have in common.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .collinearity import _BETWEEN_CODE, _window_codes
from .coordination import are_coordinated
from .errors import (
    NonUniformSpacing,
    NotCollinear,
    NotCoordinated,
    NotParallel,
    SpacingMismatch,
    TimeMismatch,
    Unquantifiable,
)
from .poset import Chain
from .projection import Projector, quantify_event, sym_antisym_decompose


def event_chain_distance_sq(pr: Projector, x: int, chain: Chain) -> Fraction:
    """Squared distance from an event to a chain, from the antisymmetric
    part of the event's quantification against that chain."""
    _, anti = sym_antisym_decompose(quantify_event(pr, x, chain))
    return anti.first * anti.first


def chain_pair_distance(pr: Projector, p: Chain, q: Chain) -> Fraction:
    """Distance between two parallel chains, measured by projecting an
    interior element of P through Q in both directions."""
    _, _, forward, backward = pr.composed(p, q)
    for f, b in zip(forward, backward):
        if f is not None and b is not None:
            return Fraction(q.ticks[f] - q.ticks[b], 2 * q.den)
    raise Unquantifiable(
        f"no element of {p.chain_id} projects through {q.chain_id} both ways"
    )


@dataclass
class Fence:
    """An ordered family of mutually coordinated, collinear chains with
    one uniform spacing between neighbours."""

    chains: tuple[Chain, ...]
    spacing: Fraction

    def __len__(self) -> int:
        return len(self.chains)


def _triple_fault(pr: Projector, left: Chain, mid: Chain, right: Chain) -> str | None:
    """Why the fence triple (left, mid, right) fails, or None: mid's
    interior window must be properly collinear with its neighbours, and
    its middle event between them.  The window is classified once."""
    window = pr.interior(mid, (left, right))
    if not window:
        return f"{mid.chain_id} has no events projecting through both neighbours"
    codes = _window_codes(pr, mid, left, right, window)
    if codes is None:
        return (
            f"{mid.chain_id} is not properly collinear with "
            f"{left.chain_id} and {right.chain_id}"
        )
    if codes[len(codes) // 2] != _BETWEEN_CODE:
        return (
            f"{mid.chain_id} does not lie between {left.chain_id} "
            f"and {right.chain_id}"
        )
    return None


def validate_fence(pr: Projector, chains: Sequence[Chain]) -> Fence:
    """Check the fence axioms and return the validated Fence.

    Needs at least three chains. Adjacent chains must be coordinated and
    sit at one common projection-derived distance; every consecutive
    triple must be properly collinear with the middle chain between its
    neighbours.

    Each verdict is reached once per projector (``pr.once``): the
    distance and the coordination of an adjacent pair, keyed by the two
    Chain objects, and the collinearity of a triple, keyed by the three.
    So fences that share pairs and triples on one projector share their
    work, and the verdicts equal those of a fresh projector.
    """
    if len(chains) < 3:
        raise ValueError("a fence needs at least three chains")

    pairs = list(zip(chains, chains[1:]))
    spacings = [pr.once(chain_pair_distance, a, b) for a, b in pairs]
    if len(set(spacings)) != 1:
        raise NonUniformSpacing(f"adjacent chain distances differ: {spacings}")
    spacing = spacings[0]
    if spacing <= 0:
        raise NonUniformSpacing(f"degenerate spacing {spacing}")

    for a, b in pairs:
        if not pr.once(are_coordinated, a, b):
            raise NotCoordinated(f"{a.chain_id} and {b.chain_id} are not coordinated")

    # collinearity of consecutive triples extends to the whole family by
    # transitivity of betweenness along a uniformly spaced line
    for triple in zip(chains, chains[1:], chains[2:]):
        fault = pr.once(_triple_fault, *triple)
        if fault is not None:
            raise NotCollinear(fault)
    return Fence(chains=tuple(chains), spacing=spacing)


def shared_chains(fence_a: Fence, fence_b: Fence) -> list[tuple[int, int]]:
    """Index pairs (i, j) with fence_a.chains[i] is fence_b.chains[j],
    matched by chain id."""
    by_id = {c.chain_id: i for i, c in enumerate(fence_a.chains)}
    out = []
    for j, c in enumerate(fence_b.chains):
        if c.chain_id in by_id:
            out.append((by_id[c.chain_id], j))
    return out


def parallel_postulate_check(pr: Projector, fence_a: Fence, fence_b: Fence) -> bool:
    """Two equal-spacing fences sharing at least two chains must agree
    chain-by-chain over their common extent.

    Vacuously true with fewer than two shared chains. Raises
    SpacingMismatch when the spacings differ.  The fences were validated
    against ``pr``; the check itself compares chain positions only.
    """
    if fence_a.spacing != fence_b.spacing:
        raise SpacingMismatch(
            f"fence spacings differ: {fence_a.spacing} vs {fence_b.spacing}"
        )
    shared = shared_chains(fence_a, fence_b)
    if len(shared) < 2:
        return True
    (i0, j0), (i1, j1) = shared[0], shared[1]
    if i1 - i0 == 0:
        return False
    step = (j1 - j0) // (i1 - i0) if (j1 - j0) % (i1 - i0) == 0 else None
    if step not in (1, -1) or abs(j1 - j0) != abs(i1 - i0):
        return False
    # every chain of A inside B's extent must be the chain B puts there
    for i, c in enumerate(fence_a.chains):
        j = j0 + step * (i - i0)
        if 0 <= j < len(fence_b.chains):
            if fence_b.chains[j].chain_id != c.chain_id:
                return False
    for (i, j) in shared:
        if j != j0 + step * (i - i0):
            return False
    return True


@dataclass(frozen=True)
class DotResult:
    signed: Fraction      # normalised by 1/(2 D(P,Q))
    magnitude: Fraction   # |signed|
    scaled: Fraction      # signed * D, the distance-weighted form

    def components(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.signed, self.magnitude, self.scaled)


def dot_product(
    pr: Projector, x: int, y: int, fence: Fence, i: int, j: int
) -> DotResult:
    """Discrete dot product of the displacement [x, y] with the fence
    direction, quantified against chains i and j of the fence.

    Both events must share their symmetric (time) component against each
    chain, else the product mixes temporal displacement and the call
    raises TimeMismatch.
    """
    if i == j:
        raise ValueError("need two distinct fence chains")
    p, q = fence.chains[i], fence.chains[j]
    for c in (p, q):
        tx = sym_antisym_decompose(quantify_event(pr, x, c))[0].first
        ty = sym_antisym_decompose(quantify_event(pr, y, c))[0].first
        if tx != ty:
            raise TimeMismatch(
                f"events {x} and {y} differ in time against {c.chain_id}: "
                f"{tx} vs {ty}"
            )
    dpq = abs(i - j) * fence.spacing
    num = (
        event_chain_distance_sq(pr, y, p)
        - event_chain_distance_sq(pr, x, p)
        - event_chain_distance_sq(pr, y, q)
        + event_chain_distance_sq(pr, x, q)
    )
    signed = num / (2 * dpq)
    return DotResult(signed=signed, magnitude=abs(signed), scaled=signed * dpq)


@dataclass
class Grid:
    """m x n chain array whose rows and columns each form a fence."""

    chain_array: tuple[tuple[Chain, ...], ...]
    row_fences: tuple[Fence, ...]
    col_fences: tuple[Fence, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.chain_array), len(self.chain_array[0]))

    @property
    def row_spacing(self) -> Fraction:
        # spacing between columns, i.e. along a row fence
        return self.row_fences[0].spacing

    @property
    def col_spacing(self) -> Fraction:
        return self.col_fences[0].spacing


def validate_grid(pr: Projector, chain_array: Sequence[Sequence[Chain]]) -> Grid:
    """Validate every row and column as a fence and check the rows are
    mutually parallel, likewise the columns."""
    m, n = len(chain_array), len(chain_array[0])
    if m < 3 or n < 3:
        raise ValueError("a grid needs at least 3 rows and 3 columns")
    if any(len(row) != n for row in chain_array):
        raise ValueError("ragged chain array")

    rows = tuple(validate_fence(pr, row) for row in chain_array)
    cols = tuple(
        validate_fence(pr, [chain_array[i][k] for i in range(m)]) for k in range(n)
    )
    for fences in (rows, cols):
        spacings = {f.spacing for f in fences}
        if len(spacings) != 1:
            raise NotParallel(f"fence spacings differ across the family: {spacings}")
        base = fences[0]
        for other in fences[1:]:
            if not parallel_postulate_check(pr, base, other):
                raise NotParallel("fences share chains but disagree on their ordering")
    return Grid(
        chain_array=tuple(tuple(row) for row in chain_array),
        row_fences=rows,
        col_fences=cols,
    )


def grid_displacement_sq(
    pr: Projector, x: int, y: int, grid: Grid, row_x: int, row_y: int
) -> Fraction:
    """Squared length of [x, y] from its orthogonal components: the
    along-row part from the signed dot product, the across-row part from
    the row offset."""
    fence = grid.row_fences[row_x]
    dot = dot_product(pr, x, y, fence, 0, len(fence) - 1)
    par = dot.signed
    perp = (row_y - row_x) * grid.col_spacing
    return par * par + perp * perp


def wedge_product(
    pr: Projector,
    x: int,
    y: int,
    grid: Grid,
    row_x: int,
    row_y: int,
    i: int,
    j: int,
) -> Fraction:
    """Discrete wedge product of [x, y] against the direction of the row
    fences, in the distance-weighted form: (perpendicular displacement)
    times the chain-pair distance |i - j| * spacing.

    x must sit on a chain of row_x and y on a chain of row_y; their row
    indices supply the exact perpendicular displacement.  The body uses
    the indices only: the rows are fences validated against ``pr``.
    """
    if i == j:
        raise ValueError("need two distinct fence chains")
    perp = (row_y - row_x) * grid.col_spacing
    dpq = abs(i - j) * grid.row_spacing
    return perp * dpq


def geometric_identity_check(
    pr: Projector,
    x: int,
    y: int,
    grid: Grid,
    row_x: int,
    row_y: int,
    i: int,
    j: int,
) -> tuple[Fraction, Fraction, Fraction]:
    """Verify D(x,y)^2 * D(P_i,P_j)^2 == dot^2 + wedge^2 for the
    distance-weighted products; returns (lhs, dot, wedge)."""
    fence = grid.row_fences[row_x]
    dot = dot_product(pr, x, y, fence, i, j)
    wedge = wedge_product(pr, x, y, grid, row_x, row_y, i, j)
    dxy_sq = grid_displacement_sq(pr, x, y, grid, row_x, row_y)
    dpq = abs(i - j) * grid.row_spacing
    lhs = dxy_sq * dpq * dpq
    if lhs != dot.scaled * dot.scaled + wedge * wedge:
        raise AssertionError(
            f"geometric identity fails: {lhs} != {dot.scaled}^2 + {wedge}^2"
        )
    return (lhs, dot.scaled, wedge)
