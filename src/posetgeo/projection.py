"""Chain projections and interval quantification.

Forward/backward projections are rank queries over reachability
bitmasks.  A chain lists its elements in poset order (``Chain.build``
checks this, and the generators build chains that way), so the chain
elements above x form a suffix and those below x a prefix.  With
``mask`` the rows of the chain's elements, the forward projection is
``elems[len(elems) - popcount(up[x] & mask)]`` and the backward
projection ``elems[popcount(down[x] & mask) - 1]``; a popcount of 0
means the projection does not exist.  :class:`Projector` keeps one mask
per chain and memoises each (event, chain) answer.

The Projector is the one context of every geometry function in this
package: each takes ``pr`` first and reads the poset as ``pr.poset``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotBetween, Unquantifiable
from .poset import Chain, Poset


class IntervalClass(enum.Enum):
    CHAIN_LIKE = "chain-like"
    PURELY_CHAIN_LIKE = "purely chain-like"
    ANTICHAIN_LIKE = "antichain-like"
    PURELY_ANTICHAIN_LIKE = "purely antichain-like"
    PROJECTION_LIKE = "projection-like"
    DEGENERATE = "degenerate"


class Side(enum.Enum):
    """Which single-chain quantification formula applies to [x, y]."""

    SAME_SIDE = "same-side"
    STRADDLING = "straddling"


@dataclass(frozen=True)
class QuantPair:
    """An interval (or event) quantification: two exact scalars plus the
    quantifying chain basis."""

    first: Fraction
    second: Fraction
    basis: tuple[str, ...]

    def components(self) -> tuple[Fraction, Fraction]:
        return (self.first, self.second)


class Projector:
    """Projection engine over a frozen poset, with memoisation.

    Memo entries and masks are keyed by the Chain object itself, not by
    its id, so two chains that share an id never share answers.
    """

    def __init__(self, poset: Poset) -> None:
        self.poset = poset
        self._fwd: dict[tuple[Chain, int], int | None] = {}
        self._bwd: dict[tuple[Chain, int], int | None] = {}
        self._masks: dict[Chain, int] = {}

    def _chain_mask(self, chain: Chain) -> int:
        """Bitmask of the rows of the chain's elements, built once."""
        mask = self._masks.get(chain)
        if mask is None:
            mask = self._masks[chain] = self.poset.rows_mask(chain.elements)
        return mask

    def forward(self, x: int, chain: Chain) -> int | None:
        """min{p in chain | x <= p}, or None."""
        key = (chain, x)
        try:
            return self._fwd[key]
        except KeyError:
            pass
        elems = chain.elements
        above = (self.poset.up_mask(x) & self._chain_mask(chain)).bit_count()
        result = elems[len(elems) - above] if above else None
        self._fwd[key] = result
        return result

    def backward(self, x: int, chain: Chain) -> int | None:
        """max{p in chain | p <= x}, or None."""
        key = (chain, x)
        try:
            return self._bwd[key]
        except KeyError:
            pass
        below = (self.poset.down_mask(x) & self._chain_mask(chain)).bit_count()
        result = chain.elements[below - 1] if below else None
        self._bwd[key] = result
        return result


def _require(value: int | None, what: str) -> int:
    if value is None:
        raise Unquantifiable(f"{what} does not exist")
    return value


def quantify_event(pr: Projector, x: int, chain: Chain) -> QuantPair:
    """Quantify event x by the valuations of its two projections."""
    fwd = _require(pr.forward(x, chain), f"forward projection of {x}")
    bwd = _require(pr.backward(x, chain), f"backward projection of {x}")
    return QuantPair(chain.value(fwd), chain.value(bwd), (chain.chain_id,))


def quantify_interval_one_chain(
    pr: Projector, x: int, y: int, chain: Chain, side: Side
) -> QuantPair:
    """Quantify [x, y] against a single chain.

    SAME_SIDE pairs forward-with-forward and backward-with-backward;
    STRADDLING crosses them, for intervals lying on both sides of the
    chain.
    """
    px = _require(pr.forward(x, chain), f"forward projection of {x}")
    bx = _require(pr.backward(x, chain), f"backward projection of {x}")
    py = _require(pr.forward(y, chain), f"forward projection of {y}")
    by = _require(pr.backward(y, chain), f"backward projection of {y}")
    v = chain.value
    if side is Side.SAME_SIDE:
        return QuantPair(v(py) - v(px), v(by) - v(bx), (chain.chain_id,))
    return QuantPair(v(py) - v(bx), v(by) - v(px), (chain.chain_id,))


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
        from .collinearity import SideClass, side_of

        for e in (x, y):
            if e in p or e in q:
                continue
            if side_of(pr, e, p, q) is not SideClass.BETWEEN:
                raise NotBetween(f"event {e} is not between {p.chain_id} and {q.chain_id}")
    px = _require(pr.forward(x, p), f"forward projection of {x}")
    py = _require(pr.forward(y, p), f"forward projection of {y}")
    qx = _require(pr.forward(x, q), f"forward projection of {x}")
    qy = _require(pr.forward(y, q), f"forward projection of {y}")
    return QuantPair(
        p.value(py) - p.value(px),
        q.value(qy) - q.value(qx),
        (p.chain_id, q.chain_id),
    )


def classify_interval(pair: QuantPair) -> IntervalClass:
    """Total sign-based interval taxonomy."""
    a, b = pair.first, pair.second
    if a == 0 and b == 0:
        return IntervalClass.DEGENERATE
    if a == 0 or b == 0:
        return IntervalClass.PROJECTION_LIKE
    if (a > 0) == (b > 0):
        if a == b and a > 0:
            return IntervalClass.PURELY_CHAIN_LIKE
        return IntervalClass.CHAIN_LIKE
    if a == -b:
        return IntervalClass.PURELY_ANTICHAIN_LIKE
    return IntervalClass.ANTICHAIN_LIKE


def interval_scalar(pair: QuantPair) -> Fraction:
    """Scalar quantification: product of the pair components."""
    return pair.first * pair.second


def sym_antisym_decompose(pair: QuantPair) -> tuple[QuantPair, QuantPair]:
    """Split a pair into (dt, dt) + (dx, -dx); the sum reproduces it."""
    dt = (pair.first + pair.second) / 2
    dx = (pair.first - pair.second) / 2
    return (
        QuantPair(dt, dt, pair.basis),
        QuantPair(dx, -dx, pair.basis),
    )
