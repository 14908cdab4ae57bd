"""JSON and DOT serialization for posets with named chains.

The JSON document stores events, the transitive reduction (cover pairs)
and chains with exact rational valuations rendered as "p/q" strings.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Sequence

from .errors import UnknownChain
from .poset import Chain, Poset


def fraction_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def poset_to_doc(poset: Poset, chains: Sequence[Chain] = ()) -> dict:
    doc = {
        "events": list(poset.events()),
        "covers": [list(pair) for pair in poset.cover_pairs()],
        "chains": [
            {
                "id": c.chain_id,
                "events": list(c.elements),
                "valuations": [fraction_to_str(c.valuation[e]) for e in c.elements],
            }
            for c in chains
        ],
    }
    return doc


def poset_from_doc(doc: dict) -> tuple[Poset, dict[str, Chain]]:
    events = doc["events"]
    covers = [tuple(pair) for pair in doc.get("covers", [])]
    index = {e: i for i, e in enumerate(events)}
    n = len(events)
    if len(index) != n:
        raise ValueError("duplicate event ids in document")

    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for a, b in covers:
        if a not in index or b not in index:
            raise ValueError(f"cover ({a}, {b}) references an unknown event")
        succ[index[a]].append(index[b])
        indeg[index[b]] += 1

    # bulk transitive closure in topological order, one bitmask per event
    up = [1 << i for i in range(n)]
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
        raise ValueError("cover relation contains a cycle")
    for i in reversed(order):
        for j in succ[i]:
            up[i] |= up[j]

    poset = Poset.from_closure(events, up)
    chains: dict[str, Chain] = {}
    for spec in doc.get("chains", []):
        valuations = [Fraction(s) for s in spec["valuations"]]
        chain = Chain.build(poset, spec["id"], spec["events"], valuations)
        chains[chain.chain_id] = chain
    return poset, chains


def dump_json(poset: Poset, chains: Sequence[Chain], fp: IO[str]) -> None:
    json.dump(poset_to_doc(poset, chains), fp, indent=2)
    fp.write("\n")


def load_json(fp: IO[str]) -> tuple[Poset, dict[str, Chain]]:
    return poset_from_doc(json.load(fp))


def to_dot(poset: Poset, chains: Sequence[Chain] = ()) -> str:
    """Cover-relation digraph; chain members get a chain-labelled tooltip."""
    membership: dict[int, list[str]] = {}
    for c in chains:
        for e in c.elements:
            membership.setdefault(e, []).append(c.chain_id)
    lines = ["digraph poset {", "  rankdir=BT;"]
    for e in poset.events():
        attrs = ""
        if e in membership:
            attrs = f' [tooltip="{",".join(membership[e])}"]'
        lines.append(f'  "{e}"{attrs};')
    for a, b in poset.cover_pairs():
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def require_chain(chains: dict[str, Chain], chain_id: str) -> Chain:
    if chain_id not in chains:
        raise UnknownChain(f"no chain named {chain_id!r}")
    return chains[chain_id]
