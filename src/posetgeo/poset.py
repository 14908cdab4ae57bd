"""Finite posets of events with exact order queries.

The order relation is kept as per-event reachability bitmasks (arbitrary
precision ints), so ``leq`` is a single bit test and the transitive
reduction falls out of cheap mask intersections.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import (
    CycleViolation,
    DuplicateEvent,
    FrozenPosetError,
    UnknownEvent,
)


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Poset:
    """A finite partially ordered set of integer event identifiers.

    ``_up[i]`` is the bitmask of events reachable from event row ``i``
    (including ``i`` itself: the relation is reflexive), ``_down[i]`` the
    dual ancestor mask.  Both masks are maintained incrementally by
    ``add_influence``; antisymmetry is enforced on every insertion.
    """

    def __init__(self) -> None:
        self._index: dict[int, int] = {}
        self._ids: list[int] = []
        self._up: list[int] = []
        self._down: list[int] = []
        self._frozen = False
        self._covers_cache: list[tuple[int, int]] | None = None

    # -- construction -------------------------------------------------

    def add_event(self, event: int) -> "Poset":
        if self._frozen:
            raise FrozenPosetError("poset is frozen")
        if event in self._index:
            raise DuplicateEvent(f"event {event} already present")
        row = len(self._ids)
        self._index[event] = row
        self._ids.append(event)
        bit = 1 << row
        self._up.append(bit)
        self._down.append(bit)
        self._covers_cache = None
        return self

    def add_influence(self, a: int, b: int) -> "Poset":
        """Record a <= b and close transitively.  Idempotent."""
        if self._frozen:
            raise FrozenPosetError("poset is frozen")
        ia, ib = self._row(a), self._row(b)
        if ia == ib:
            return self
        if self._up[ib] >> ia & 1:
            raise CycleViolation(f"adding {a}<={b} would create a cycle")
        if self._up[ia] >> ib & 1:
            return self
        up_b = self._up[ib]
        down_a = self._down[ia]
        for x in _bits(down_a):
            self._up[x] |= up_b
        for y in _bits(up_b):
            self._down[y] |= down_a
        self._covers_cache = None
        return self

    def freeze(self) -> "Poset":
        self._frozen = True
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen

    @classmethod
    def from_closure(
        cls, ids: Sequence[int], up_masks: Sequence[int]
    ) -> "Poset":
        """Bulk constructor from precomputed reachability masks.

        The caller guarantees the masks are reflexive and transitively
        closed; antisymmetry is checked.
        """
        poset = cls()
        n = len(ids)
        poset._ids = list(ids)
        poset._index = {e: i for i, e in enumerate(ids)}
        if len(poset._index) != n:
            raise DuplicateEvent("duplicate event ids")
        poset._up = list(up_masks)
        down = [1 << i for i in range(n)]
        for i, mask in enumerate(poset._up):
            if not mask >> i & 1:
                raise ValueError("closure mask not reflexive")
            for j in _bits(mask):
                if j != i:
                    if poset._up[j] >> i & 1:
                        raise CycleViolation("closure mask not antisymmetric")
                    down[j] |= 1 << i
        poset._down = down
        return poset

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

    def rows_mask(self, events: Iterable[int]) -> int:
        """Bitmask of the rows of events."""
        mask = 0
        for e in events:
            mask |= 1 << self._row(e)
        return mask

    def leq(self, a: int, b: int) -> bool:
        return bool(self._up[self._row(a)] >> self._row(b) & 1)

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: int, b: int) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def covers(self, a: int, b: int) -> bool:
        """True iff a < b with no event strictly between."""
        ia, ib = self._row(a), self._row(b)
        if ia == ib or not self._up[ia] >> ib & 1:
            return False
        return (self._up[ia] & self._down[ib]).bit_count() == 2

    def cover_pairs(self) -> list[tuple[int, int]]:
        """The transitive reduction, as (lower, upper) event pairs."""
        if self._covers_cache is None or not self._frozen:
            pairs = []
            for ia, a in enumerate(self._ids):
                strict = self._up[ia] & ~(1 << ia)
                for ib in _bits(strict):
                    if (self._up[ia] & self._down[ib]).bit_count() == 2:
                        pairs.append((a, self._ids[ib]))
            if not self._frozen:
                return pairs
            self._covers_cache = pairs
        return list(self._covers_cache)

    def is_chain(self, events: Iterable[int]) -> bool:
        rows = (self._row(e) for e in events)
        order = sorted(rows, key=lambda r: self._up[r].bit_count(), reverse=True)
        for x, y in zip(order, order[1:]):
            if not self._up[x] >> y & 1:
                return False
        return True

    def events(self) -> list[int]:
        return list(self._ids)

    def dual(self) -> "Poset":
        """The order-reversed poset (same events, relation flipped)."""
        rev = Poset()
        rev._ids = list(self._ids)
        rev._index = dict(self._index)
        rev._up = list(self._down)
        rev._down = list(self._up)
        rev._frozen = self._frozen
        return rev

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, event: int) -> bool:
        return event in self._index


class Chain:
    """A totally ordered sequence of events with a strictly monotone
    exact-rational valuation."""

    def __init__(
        self,
        chain_id: str,
        elements: Sequence[int],
        valuation: dict[int, Fraction],
    ) -> None:
        self.chain_id = chain_id
        self.elements = tuple(elements)
        self.valuation = {e: Fraction(v) for e, v in valuation.items()}
        self._pos = {e: i for i, e in enumerate(self.elements)}
        if len(self._pos) != len(self.elements):
            raise ValueError(f"chain {chain_id} repeats an event")
        vals = [self.valuation[e] for e in self.elements]
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"valuation of chain {chain_id} not strictly monotone")

    @classmethod
    def build(
        cls,
        poset: Poset,
        chain_id: str,
        elements: Sequence[int],
        valuations: Sequence[Fraction | int],
    ) -> "Chain":
        """Validated constructor: elements must be totally ordered in poset."""
        for a, b in zip(elements, elements[1:]):
            if not poset.leq(a, b):
                raise ValueError(
                    f"chain {chain_id}: {a} and {b} not ordered in the poset"
                )
        return cls(chain_id, elements, dict(zip(elements, map(Fraction, valuations))))

    def value(self, event: int) -> Fraction:
        return self.valuation[event]

    def index_of(self, event: int) -> int:
        return self._pos[event]

    def dual(self) -> "Chain":
        """Chain as seen in the dual poset: order reversed, valuation negated."""
        return Chain(
            self.chain_id,
            tuple(reversed(self.elements)),
            {e: -v for e, v in self.valuation.items()},
        )

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, event: int) -> bool:
        return event in self._pos

    def __repr__(self) -> str:
        return f"Chain({self.chain_id!r}, {len(self.elements)} events)"
