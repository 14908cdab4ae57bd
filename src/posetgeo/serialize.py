"""JSON and DOT serialization for posets with named chains.

The JSON document stores events, the transitive reduction (cover pairs)
and chains with exact rational valuations rendered as "p/q" strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import IO, Sequence

from .errors import UnknownChain
from .poset import MAX_DIGITS, Chain, Poset, _too_long


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
                "valuations": [fraction_to_str(c.value(e)) for e in c.elements],
            }
            for c in chains
        ],
    }
    return doc


def _int_list(value, what: str) -> list[int]:
    if not isinstance(value, list) or not all(isinstance(e, int) for e in value):
        raise ValueError(f"{what} must be a list of integers")
    return value


# Fraction expands a decimal exponent into an exact power of ten, so a
# short string such as "1e100000000" would stall the loader.  A valuation
# whose exponent exceeds MAX_EXPONENT is rejected before it reaches
# Fraction.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)")


def _fraction(value, chain_id: str) -> Fraction:
    if isinstance(value, str) and (match := _EXPONENT.search(value)):
        digits = match.group(1).replace("_", "").lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ValueError(
                f"chain {chain_id!r}: valuation {value[:40]!r} has an exponent"
                f" beyond {MAX_EXPONENT}"
            )
    try:
        result = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"chain {chain_id!r}: bad valuation {value!r}") from None
    if _too_long(result.numerator) or _too_long(result.denominator):
        raise ValueError(
            f"chain {chain_id!r}: a valuation has more than {MAX_DIGITS} digits"
        )
    return result


def poset_from_doc(doc: dict) -> tuple[Poset, dict[str, Chain]]:
    """The poset and chains of a document.  A document of the wrong shape
    raises ValueError; cyclic covers raise CycleViolation, and covers or
    chains naming an absent event raise UnknownEvent."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    events = _int_list(doc.get("events"), "events")
    covers = doc.get("covers", [])
    if not isinstance(covers, list) or any(
        len(_int_list(pair, "each cover")) != 2 for pair in covers
    ):
        raise ValueError("covers must be a list of [lower, upper] pairs")
    specs = doc.get("chains", [])
    if not isinstance(specs, list) or not all(
        isinstance(spec, dict) and isinstance(spec.get("id"), str) for spec in specs
    ):
        raise ValueError("chains must be a list of objects with a string id")

    poset = Poset(events, covers)
    chains: dict[str, Chain] = {}
    for spec in specs:
        chain_id = spec["id"]
        elements = _int_list(spec.get("events"), f"chain {chain_id!r} events")
        valuations = spec.get("valuations")
        if not isinstance(valuations, list) or len(valuations) != len(elements):
            raise ValueError(f"chain {chain_id!r} needs one valuation per event")
        values = [_fraction(v, chain_id) for v in valuations]
        chains[chain_id] = Chain.build(poset, chain_id, elements, values)
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
