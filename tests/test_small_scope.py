"""Small-scope exhaustive check of the projection kernels.

Every naturally labelled poset on five events (relations only from a
lower to a higher label, deduplicated by closure: 357 posets), and every
ordered pair of disjoint chains of at least two events each (2,442
pairs).  A chain lists its events by label, which is a poset order under
a natural labelling, and is valued by those labels.  Each kernel is
compared with the scan oracles of ``conftest``.
"""

from collections import Counter
from itertools import combinations

from posetgeo import Chain, Poset, Projector, are_coordinated, census
from posetgeo.errors import PosetGeoError

from .conftest import reference_code, scan_backward, scan_coordinated, scan_forward

N = 5


def _posets() -> list[Poset]:
    pairs = list(combinations(range(N), 2))
    seen = {}
    for bits in range(1 << len(pairs)):
        relations = [pair for k, pair in enumerate(pairs) if bits >> k & 1]
        poset = Poset(range(N), relations)
        seen.setdefault(tuple(poset._up), poset)
    return list(seen.values())


def _chain_pairs(poset: Poset) -> list[tuple[Chain, Chain]]:
    chains = [
        Chain.build(poset, "".join(map(str, events)), events, events)
        for k in range(2, N + 1)
        for events in combinations(range(N), k)
        if all(poset.leq(a, b) for a, b in zip(events, events[1:]))
    ]
    return [
        (p, q)
        for p in chains
        for q in chains
        if not set(p.elements) & set(q.elements)
    ]


def _coordinated(pr, p, q) -> bool | str:
    try:
        return are_coordinated(pr, p, q)
    except PosetGeoError as exc:
        return type(exc).__name__


def _both_ways(poset, e, chain) -> bool:
    return (
        scan_forward(poset, e, chain) is not None
        and scan_backward(poset, e, chain) is not None
    )


def test_kernels_match_scan_oracles_on_every_five_event_poset():
    posets = _posets()
    assert len(posets) == 357
    checked = 0
    for poset in posets:
        pr = Projector(poset)
        events = poset.events()
        for p, q in _chain_pairs(poset):
            checked += 1
            codes = (reference_code(poset, x, p, q) for x in events)
            assert census(pr, [(p, q)]).histogram == Counter(
                c for c in codes if c is not None
            )
            assert _coordinated(pr, p, q) == scan_coordinated(poset, p, q)
            for x in events:
                assert pr.forward(x, q) == scan_forward(poset, x, q)
                assert pr.backward(x, q) == scan_backward(poset, x, q)
            interior = [p.elements[i] for i in pr.interior(p, [q])]
            assert interior == [e for e in p.elements if _both_ways(poset, e, q)]
    assert checked == 2442
