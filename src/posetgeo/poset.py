"""Finite posets of events with exact order queries.

The order relation is kept as per-event reachability bitmasks (arbitrary
precision ints), so ``leq`` is a single bit test.  A poset is built once,
from its events and any generating pairs, and never changes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CycleViolation, DuplicateEvent, UnknownEvent

# A valuation is written back as "p/q", and Python refuses to turn an
# int of more than 4,300 digits into a string.  A chain keeps its
# valuations over one common denominator, which ``Chain.build`` holds
# to MAX_DIGITS digits; the loader holds each valuation to the same
# bound.
MAX_DIGITS = 4000


def _too_long(n: int) -> bool:
    n = abs(n)
    # 2**(3 * MAX_DIGITS) < 10**MAX_DIGITS, so most values skip the power
    return n.bit_length() > 3 * MAX_DIGITS and n >= 10**MAX_DIGITS


class Poset:
    """An immutable finite partially ordered set of integer event
    identifiers.

    ``Poset(events, relations)`` orders the events by the reflexive and
    transitive closure of the pairs ``(a, b)``, each meaning a <= b; a
    pair need not be a cover.  Row ``i`` belongs to ``events[i]``:
    ``_up[i]`` is the bitmask of the rows reachable from it (itself
    included) and ``_down[i]`` the dual ancestor mask.
    """

    def __init__(
        self, events: Iterable[int], relations: Iterable[tuple[int, int]] = ()
    ) -> None:
        ids = list(events)
        index = {e: i for i, e in enumerate(ids)}
        n = len(ids)
        if len(index) != n:
            raise DuplicateEvent("duplicate event ids")
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for a, b in relations:
            if a not in index or b not in index:
                raise UnknownEvent(f"relation ({a}, {b}) names an unknown event")
            ia, ib = index[a], index[b]
            succ[ia].append(ib)
            pred[ib].append(ia)
            indeg[ib] += 1

        # Kahn: a self-pair or a cycle leaves its rows with in-degree > 0
        order: list[int] = []
        stack = [i for i in range(n) if indeg[i] == 0]
        while stack:
            i = stack.pop()
            order.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(order) != n:
            raise CycleViolation("the relations contain a cycle")

        up = [1 << i for i in range(n)]
        for i in reversed(order):
            for j in succ[i]:
                up[i] |= up[j]
        down = [1 << i for i in range(n)]
        for i in order:
            for j in pred[i]:
                down[i] |= down[j]
        self._assign(ids, up, down)

    @classmethod
    def _from_masks(cls, ids: Sequence[int], up: list[int], down: list[int]) -> "Poset":
        """Bulk constructor from closed, mutually transposed up/down masks
        whose row i belongs to ids[i].  Checks nothing: the callers build
        the masks closed."""
        poset = cls.__new__(cls)
        poset._assign(ids, up, down)
        return poset

    def _assign(self, ids: Sequence[int], up: list[int], down: list[int]) -> None:
        self._ids = list(ids)
        self._index = {e: i for i, e in enumerate(self._ids)}
        self._up = up
        self._down = down

    # -- queries -------------------------------------------------------

    def _row(self, event: int) -> int:
        try:
            return self._index[event]
        except KeyError:
            raise UnknownEvent(f"unknown event {event}") from None

    def up_mask(self, event: int) -> int:
        """Bitmask of the rows of the events above event, itself included."""
        return self._up[self._row(event)]

    def down_mask(self, event: int) -> int:
        """Bitmask of the rows of the events below event, itself included."""
        return self._down[self._row(event)]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[self._row(a)] >> self._row(b) & 1)

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The transitive reduction, as (lower, upper) event pairs ordered
        by the row of the lower event, then of the upper one.

        A bitset form of the Aho-Garey-Ullman reduction: a minimal element
        of what is left of a row's strict up-set is a cover; clearing that
        cover's up-set leaves the remaining covers minimal in turn.
        """
        ids, up, down = self._ids, self._up, self._down
        pairs = []
        for i, a in enumerate(ids):
            rest = up[i] ^ (1 << i)
            covers = []
            while rest:
                j = (rest & -rest).bit_length() - 1
                below = (down[j] & rest) ^ (1 << j)
                while below:
                    j = (below & -below).bit_length() - 1
                    below = (down[j] & rest) ^ (1 << j)
                covers.append(j)
                rest &= ~up[j]
            covers.sort()
            pairs.extend((a, ids[j]) for j in covers)
        return pairs

    def events(self) -> list[int]:
        return list(self._ids)

    def dual(self) -> "Poset":
        """The order-reversed poset (same events, relation flipped)."""
        return Poset._from_masks(self._ids, list(self._down), list(self._up))

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, event: int) -> bool:
        return event in self._index


class Chain:
    """A totally ordered sequence of events with a strictly monotone
    exact-rational valuation, kept once: integer ``ticks`` in chain
    order over one positive denominator ``den``, so ``elements[i]`` is
    valued ``ticks[i] / den``."""

    def __init__(
        self, chain_id: str, elements: Sequence[int], ticks: Sequence[int], den: int
    ) -> None:
        self.chain_id = chain_id
        self.elements = tuple(elements)
        self.ticks = tuple(ticks)
        self.den = den
        self._pos = {e: i for i, e in enumerate(self.elements)}
        if len(self._pos) != len(self.elements):
            raise ValueError(f"chain {chain_id} repeats an event")
        if len(self.ticks) != len(self.elements):
            raise ValueError(f"chain {chain_id} needs one tick per event")
        if den < 1:
            raise ValueError(f"chain {chain_id} needs a positive denominator")
        if any(a >= b for a, b in zip(self.ticks, self.ticks[1:])):
            raise ValueError(f"valuation of chain {chain_id} not strictly monotone")

    @classmethod
    def build(
        cls,
        poset: Poset,
        chain_id: str,
        elements: Sequence[int],
        valuations: Sequence[Fraction | int],
    ) -> "Chain":
        """Validated constructor: elements must be totally ordered in
        poset.  The valuations are put over their least common
        denominator, folded one valuation at a time; a ValueError is
        raised once it passes MAX_DIGITS digits."""
        for e in elements:
            if e not in poset:
                raise UnknownEvent(f"chain {chain_id}: unknown event {e}")
        for a, b in zip(elements, elements[1:]):
            if not poset.leq(a, b):
                raise ValueError(
                    f"chain {chain_id}: {a} and {b} not ordered in the poset"
                )
        values = list(map(Fraction, valuations))
        den = 1
        for v in values:
            den = math.lcm(den, v.denominator)
            if _too_long(den):
                raise ValueError(
                    f"chain {chain_id!r}: the valuations have no common"
                    f" denominator of at most {MAX_DIGITS} digits"
                )
        ticks = [v.numerator * (den // v.denominator) for v in values]
        return cls(chain_id, elements, ticks, den)

    def value(self, event: int) -> Fraction:
        return Fraction(self.ticks[self._pos[event]], self.den)

    def index_of(self, event: int) -> int:
        return self._pos[event]

    def dual(self) -> "Chain":
        """Chain as seen in the dual poset: order reversed, valuation negated."""
        return Chain(
            self.chain_id,
            self.elements[::-1],
            [-t for t in reversed(self.ticks)],
            self.den,
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, event: int) -> bool:
        return event in self._pos

    def __repr__(self) -> str:
        return f"Chain({self.chain_id!r}, {len(self.elements)} events)"
