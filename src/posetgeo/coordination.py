"""Coordination of chain pairs, orthogonal subspaces, the discrete
Pythagorean theorem, and simplex quantification tables."""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Sequence

from .collinearity import SideClass, side_of
from .errors import (
    AlignmentError,
    MixedConfiguration,
    NotAntichainLike,
    NotBetween,
    Unquantifiable,
)
from .generators import PythagorasConfig, sqrt_exact
from .poset import Chain
from .projection import (
    IntervalClass,
    Projector,
    QuantPair,
    _require,
    classify_interval,
    interval_scalar,
)


def _span(chain: Chain, interval: tuple[int, int]) -> tuple[int, int]:
    """The chain indices of the closed window between two of its events."""
    lo, hi = chain.index_of(interval[0]), chain.index_of(interval[1])
    return (lo, hi) if lo <= hi else (hi, lo)


def are_coordinated(
    pr: Projector,
    p: Chain,
    q: Chain,
    p_interval: tuple[int, int] | None = None,
    q_interval: tuple[int, int] | None = None,
) -> bool:
    """Projections between the two windows are bijective and preserve
    every closed subinterval's valuation length.

    With no explicit windows, the P window is the maximal run of P whose
    forward projections onto Q exist, and the Q window is its image span.
    Raises Unquantifiable when no projection exists at all.

    The check runs on chain indices: the forward images of the P window
    are the Q-indices of ``pr.composed(p, q)``, and the backward images
    of the Q window its P-indices.  A bijection maps the window onto a
    run of consecutive indices.  Valuation offsets are compared exactly,
    element by element, on the chains' integer ticks cross-multiplied by
    each other's denominator.
    """
    if p.chain_id == q.chain_id:
        return True

    _, back_of, image_of, _ = pr.composed(p, q)
    if p_interval is None:
        defined = [i for i, j in enumerate(image_of) if j is not None]
        if not defined:
            raise Unquantifiable(
                f"no element of {p.chain_id} projects onto {q.chain_id}"
            )
        # the defined-forward region of a chain is a prefix; demand
        # contiguity so the window is a closed subchain
        lo, hi = defined[0], defined[-1]
        if hi - lo + 1 != len(defined):
            return False
    else:
        lo, hi = _span(p, p_interval)

    images = image_of[lo : hi + 1]
    if None in images:
        e = p.elements[lo + images.index(None)]
        raise Unquantifiable(f"forward projection of {e} leaves {q.chain_id}")
    if q_interval is None:
        qlo, qhi = sorted((images[0], images[-1]))
    else:
        qlo, qhi = _span(q, q_interval)

    if set(images) != set(range(qlo, qhi + 1)):
        return False
    # each y of the Q run is the image of some x <= y, so back has no None
    back = back_of[qlo : qhi + 1]
    if set(back) != set(range(lo, hi + 1)):
        return False
    # both maps are now monotone bijections between runs of one length,
    # so back inverts the forward map and one offset set covers both
    # v_p - v_q, scaled by p.den * q.den, is one integer for every pair
    tp, tq = p.ticks, q.ticks
    offsets = {tp[i] * q.den - tq[j] * p.den for j, i in enumerate(back, qlo)}
    return len(offsets) == 1


def quantify_interval_two_chains(
    pr: Projector,
    x: int,
    y: int,
    p: Chain,
    q: Chain,
    check_between: bool = True,
) -> QuantPair:
    """Quantify [x, y] against a coordinated chain pair (forward
    projections onto each chain).

    Both endpoints must lie between the chains, endpoints on P or Q
    included.  Coordination of (p, q) is the caller's precondition.
    """
    if check_between:
        for e in (x, y):
            if e in p or e in q:
                continue
            if side_of(pr, e, p, q) is not SideClass.BETWEEN:
                raise NotBetween(
                    f"event {e} is not between {p.chain_id} and {q.chain_id}"
                )
    px = _require(pr.forward(x, p), f"forward projection of {x}")
    py = _require(pr.forward(y, p), f"forward projection of {y}")
    qx = _require(pr.forward(x, q), f"forward projection of {x}")
    qy = _require(pr.forward(y, q), f"forward projection of {y}")
    return QuantPair(
        p.value(py) - p.value(px),
        q.value(qy) - q.value(qx),
        (p.chain_id, q.chain_id),
    )


def check_orthogonal_subspaces(
    pr: Projector,
    p_chain: Chain,
    q_chain: Chain,
    r_chain: Chain,
    s_chain: Chain,
    p: int,
    q: int,
) -> bool:
    """Sufficient orthogonality condition between subspaces <PQ> and <RS>.

    [p,q] must be purely antichain-like under PQ while [p,q] under RS and
    both transported intervals under PQ are degenerate (0,0).
    """
    if p not in p_chain or q not in q_chain:
        raise ValueError("p must lie on P and q on Q")

    def fwd(x: int, c: Chain) -> int:
        return _require(
            pr.forward(x, c), f"forward projection of {x} onto {c.chain_id}"
        )

    def bwd(x: int, c: Chain) -> int:
        return _require(
            pr.backward(x, c), f"backward projection of {x} onto {c.chain_id}"
        )

    delta = p_chain.value(fwd(q, p_chain)) - p_chain.value(p)
    anti = q_chain.value(q) - q_chain.value(fwd(p, q_chain))
    if delta == 0 or anti != -delta:
        return False

    cross = (
        r_chain.value(fwd(q, r_chain)) - r_chain.value(fwd(p, r_chain)),
        s_chain.value(fwd(q, s_chain)) - s_chain.value(fwd(p, s_chain)),
    )
    if cross != (0, 0):
        return False

    for transport in (bwd, fwd):
        rp, sp = transport(p, r_chain), transport(p, s_chain)
        pair = (
            p_chain.value(fwd(sp, p_chain)) - p_chain.value(fwd(rp, p_chain)),
            q_chain.value(fwd(sp, q_chain)) - q_chain.value(fwd(rp, q_chain)),
        )
        if pair != (0, 0):
            return False
    return True


_ANTICHAIN_OK = {IntervalClass.PURELY_ANTICHAIN_LIKE, IntervalClass.DEGENERATE}


def concatenate_orthogonal(
    pair_a: QuantPair, pair_b: QuantPair
) -> tuple[Fraction, Fraction, Fraction]:
    """Combine two orthogonal purely antichain-like intervals at scalar
    level: returns (s_a, s_b, s_a + s_b)."""
    for pair in (pair_a, pair_b):
        if classify_interval(pair) not in _ANTICHAIN_OK:
            raise NotAntichainLike(f"{pair.components()} is not purely antichain-like")
    s_a, s_b = interval_scalar(pair_a), interval_scalar(pair_b)
    return (s_a, s_b, s_a + s_b)


def pythagoras_check(config: PythagorasConfig) -> bool:
    """Exact scalar additivity over the two orthogonal legs.

    Raises AlignmentError when the hypotenuse is not tick-aligned
    (legs whose squared sum is not a perfect square).
    """
    bundle = config.bundle
    hyp_sq = bundle.sq_dist_chains("P", "R")
    hyp = sqrt_exact(hyp_sq)
    if hyp is None or hyp.denominator != 1:
        raise AlignmentError(
            f"hypotenuse sqrt({hyp_sq}) is not aligned with the integer tick lattice"
        )
    pr = Projector(bundle.poset)
    t = config.mid_tick
    p = bundle.event("P", t)
    o = bundle.event("O", t)
    r = bundle.event("R", t)
    chain_p, chain_o, chain_r = (bundle.chain(n) for n in ("P", "O", "R"))

    pair_po = quantify_interval_two_chains(
        pr, p, o, chain_p, chain_o, check_between=False
    )
    pair_or = quantify_interval_two_chains(
        pr, o, r, chain_o, chain_r, check_between=False
    )
    pair_pr = quantify_interval_two_chains(
        pr, p, r, chain_p, chain_r, check_between=False
    )
    if classify_interval(pair_pr) not in _ANTICHAIN_OK:
        return False
    _, _, combined = concatenate_orthogonal(pair_po, pair_or)
    return interval_scalar(pair_pr) == combined


class SimplexMode(enum.Enum):
    COLLINEAR = "collinear"
    PAIRWISE = "pairwise"


def _aligned_interior_ticks(pr: Projector, chains: Sequence[Chain]) -> list[Fraction]:
    """Ticks present on every chain whose events project onto every
    other chain in both directions, in order."""
    ticks = []
    for c in chains:
        others = [o for o in chains if o is not c]
        ticks.append({Fraction(c.ticks[i], c.den) for i in pr.interior(c, others)})
    return sorted(set.intersection(*ticks))


def simplex_table(
    pr: Projector,
    chains: Sequence[Chain],
    mode: SimplexMode | None = None,
) -> list[list[QuantPair | None]]:
    """Pair matrix of all cross-chain same-tick intervals.

    Entry [i][j] quantifies [x_i, y_j] at aligned ticks against chains
    (i, j); the pair must be constant across all interior ticks, else
    the configuration is mixed.
    """
    ticks = _aligned_interior_ticks(pr, chains)
    if not ticks:
        raise Unquantifiable("no aligned interior ticks across the chains")
    by_tick = [{c.value(e): e for e in c.elements} for c in chains]
    n = len(chains)
    table: list[list[QuantPair | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pairs = {
                quantify_interval_two_chains(
                    pr,
                    by_tick[i][t],
                    by_tick[j][t],
                    chains[i],
                    chains[j],
                    check_between=False,
                ).components()
                for t in ticks
            }
            if len(pairs) != 1:
                raise MixedConfiguration(
                    f"pair for chains ({i},{j}) varies across ticks: {sorted(pairs)}"
                )
            first, second = pairs.pop()
            table[i][j] = QuantPair(
                first, second, (chains[i].chain_id, chains[j].chain_id)
            )
    if mode is not None:
        _validate_mode(table, mode)
    return table


def _validate_mode(
    table: list[list[QuantPair | None]], mode: SimplexMode
) -> None:
    n = len(table)
    base = table[0][1]
    assert base is not None
    delta = base.first
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            pair = table[i][j]
            expected = delta * abs(i - j) if mode is SimplexMode.COLLINEAR else delta
            if pair.components() != (expected, -expected):
                raise MixedConfiguration(
                    f"chains ({i},{j}) quantify to {pair.components()}, "
                    f"expected ({expected},{-expected}) for mode {mode.value}"
                )


def dimension_count(
    pr: Projector, chains: Sequence[Chain], pairwise_equidistant: bool
) -> tuple[int, int]:
    """(spatial, temporal) dimensions of the configuration: N
    equidistant chains span (N-1)+1, all-collinear chains span 1+1."""
    mode = SimplexMode.PAIRWISE if pairwise_equidistant else SimplexMode.COLLINEAR
    simplex_table(pr, chains, mode=mode)
    if pairwise_equidistant:
        return (len(chains) - 1, 1)
    return (1, 1)
