"""Chain projections and interval quantification.

Forward/backward projections are rank queries over reachability
bitmasks.  A chain lists its elements in poset order (``Chain.build``
checks this, and the generators build chains that way), so the chain
elements above x form a suffix and those below x a prefix.  With
``mask`` the rows of the chain's elements, the forward projection of x
has chain index ``len(elems) - popcount(up[x] & mask)`` and the backward
projection ``popcount(down[x] & mask) - 1``; a popcount of 0 means the
projection does not exist.  This rule lives in :class:`Projector`
alone: ``indices`` applies it to a list of poset rows, and
``forward``/``backward`` to one event.  Every other reader takes its
indices from ``indices`` or from the composed lists of a chain pair, so
no module outside this one knows a per-row format.

The Projector is the one context of every geometry function in this
package: each takes ``pr`` first and reads the poset as ``pr.poset``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import MissingProjection
from .poset import Chain, Poset

_T = TypeVar("_T")


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
    """Projection engine over an immutable poset.

    It keeps two things per chain, built on first use: the bitmask of
    the chain's poset rows and the list of those rows.  ``indices``
    applies the rank rule to any rows; ``composed`` keeps the index
    lists of each ordered chain pair, and ``once`` the fence-local
    verdicts.  Everything is keyed by the Chain object itself, not by
    its id, so two chains that share an id never share answers.
    Nothing is kept beyond the projector: a caller that builds a new
    projector computes everything again.
    """

    def __init__(self, poset: Poset) -> None:
        self.poset = poset
        # the poset never changes, so its masks are read in place
        self._up = poset._up
        self._down = poset._down
        self._chains: dict[Chain, tuple[int, list[int]]] = {}
        self._composed: dict[tuple[Chain, Chain], tuple[list, list, list, list]] = {}
        self._once: dict[tuple, object] = {}

    def row(self, event: int) -> int:
        """The poset row of event."""
        return self.poset._row(event)

    def _chain(self, chain: Chain) -> tuple[int, list[int]]:
        """The chain's row mask and rows, built once."""
        got = self._chains.get(chain)
        if got is None:
            rows = [self.row(e) for e in chain.elements]
            got = self._chains[chain] = (sum(1 << r for r in rows), rows)
        return got

    def indices(
        self, chain: Chain, rows: Sequence[int]
    ) -> tuple[list[int | None], list[int | None]]:
        """The chain indices of the forward and of the backward
        projection of the events at poset ``rows``, None where a
        projection does not exist: one popcount each."""
        mask = self._chain(chain)[0]
        n = len(chain)
        up, down = self._up, self._down
        return (
            [n - k if (k := (up[r] & mask).bit_count()) else None for r in rows],
            [k - 1 if (k := (down[r] & mask).bit_count()) else None for r in rows],
        )

    def composed(self, p: Chain, q: Chain) -> tuple[list, list, list, list]:
        """The composed index lists of the pair (p, q), built once: the
        p-indices of the forward and of the backward projection of each
        element of q, in q order, then the q-indices of those of each
        element of p.  The pair (q, p) gets the same lists, mirrored."""
        lists = self._composed.get((p, q))
        if lists is None:
            pf, pb = self.indices(p, self._chain(q)[1])
            qf, qb = self.indices(q, self._chain(p)[1])
            lists = self._composed[p, q] = (pf, pb, qf, qb)
            self._composed[q, p] = (qf, qb, pf, pb)
        return lists

    def once(self, fn: Callable[..., _T], *chains: Chain) -> _T:
        """``fn(self, *chains)``, computed once per projector.  It holds
        the fence-local verdicts (the distance and coordination of a
        chain pair, the collinearity of a chain triple), keyed by ``fn``
        and the Chain objects.  A call that raises is not kept."""
        key = (fn, *chains)
        try:
            return self._once[key]  # type: ignore[return-value]
        except KeyError:
            value = self._once[key] = fn(self, *chains)
            return value

    def forward(self, x: int, chain: Chain) -> int | None:
        """min{p in chain | x <= p}, or None."""
        k = (self._up[self.row(x)] & self._chain(chain)[0]).bit_count()
        return chain.elements[len(chain) - k] if k else None

    def backward(self, x: int, chain: Chain) -> int | None:
        """max{p in chain | p <= x}, or None."""
        k = (self._down[self.row(x)] & self._chain(chain)[0]).bit_count()
        return chain.elements[k - 1] if k else None

    def interior(self, chain: Chain, others: Iterable[Chain]) -> list[int]:
        """The chain indices of the chain's events, in chain order, that
        project both ways onto every chain of others."""
        keep = range(len(chain))
        for other in others:
            f, b = self.composed(other, chain)[:2]
            keep = [i for i in keep if f[i] is not None and b[i] is not None]
        return list(keep)


def _require(value: int | None, what: str) -> int:
    """The projected event, or MissingProjection if there is none."""
    if value is None:
        raise MissingProjection(f"{what} does not exist")
    return value


def quantify_event(pr: Projector, x: int, chain: Chain) -> QuantPair:
    """Quantify event x by the valuations of its two projections.  This
    is the one place that demands both projections of an event."""
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
    px, bx = quantify_event(pr, x, chain).components()
    py, by = quantify_event(pr, y, chain).components()
    if side is Side.SAME_SIDE:
        return QuantPair(py - px, by - bx, (chain.chain_id,))
    return QuantPair(py - bx, by - px, (chain.chain_id,))


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
