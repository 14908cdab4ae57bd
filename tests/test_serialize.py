import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgeo import (
    Poset,
    PosetGeoError,
    dump_json,
    lattice_1p1,
    load_json,
    poset_from_doc,
    poset_to_doc,
    random_dag,
    to_dot,
)
from posetgeo.errors import CycleViolation, UnknownEvent
from posetgeo.serialize import MAX_DIGITS
from posetgeo.poset import Chain

from .conftest import wide_denominator_doc


def round_trip(poset, chains):
    buf = io.StringIO()
    dump_json(poset, chains, buf)
    buf.seek(0)
    return load_json(buf)


def test_round_trip_preserves_closure_and_valuations():
    bundle = lattice_1p1(3, 8)
    poset2, chains2 = round_trip(bundle.poset, bundle.chains)
    events = bundle.poset.events()
    assert poset2.events() == events
    for a in events:
        for b in events:
            assert poset2.leq(a, b) == bundle.poset.leq(a, b)
    for c in bundle.chains:
        c2 = chains2[c.chain_id]
        assert c2.elements == c.elements
        assert list(map(c2.value, c2.elements)) == list(map(c.value, c.elements))


def _lattice():
    bundle = lattice_1p1(3, 8)
    return bundle.poset, bundle.chains


@pytest.mark.parametrize("make", [_lattice, lambda: (random_dag(60, 0.1, 5), [])],
                         ids=["lattice", "random-dag"])
def test_dump_load_dump_is_byte_identical(make):
    def dumps(poset, chains):
        buf = io.StringIO()
        dump_json(poset, chains, buf)
        return buf.getvalue()

    poset, chains = make()
    poset2, chains2 = round_trip(poset, chains)
    assert dumps(poset2, list(chains2.values())) == dumps(poset, chains)


def test_rationals_serialized_exactly():
    poset = Poset([0, 1], [(0, 1)])
    from fractions import Fraction

    chain = Chain.build(poset, "c", [0, 1], [Fraction(-1, 3), Fraction(7, 2)])
    doc = poset_to_doc(poset, [chain])
    assert doc["chains"][0]["valuations"] == ["-1/3", "7/2"]
    poset2, chains2 = poset_from_doc(doc)
    assert chains2["c"].value(0) == Fraction(-1, 3)
    assert chains2["c"].value(1) == Fraction(7, 2)


def test_doc_stores_covers_only():
    poset = Poset(range(3), [(0, 1), (1, 2), (0, 2)])
    doc = poset_to_doc(poset)
    assert sorted(map(tuple, doc["covers"])) == [(0, 1), (1, 2)]
    poset2, _ = poset_from_doc(doc)
    assert poset2.leq(0, 2)  # closure restored from covers


def test_cycle_in_doc_rejected():
    doc = {"events": [0, 1], "covers": [[0, 1], [1, 0]], "chains": []}
    with pytest.raises(CycleViolation):
        poset_from_doc(doc)


def test_unknown_cover_event_rejected():
    doc = {"events": [0], "covers": [[0, 9]], "chains": []}
    with pytest.raises(UnknownEvent):
        poset_from_doc(doc)
    doc = {"events": [0], "chains": [{"id": "c", "events": [9], "valuations": ["0"]}]}
    with pytest.raises(UnknownEvent):
        poset_from_doc(doc)


def test_dot_export():
    poset = Poset(range(3), [(0, 1), (1, 2)])
    chain = Chain.build(poset, "c", [0, 1, 2], [0, 1, 2])
    dot = to_dot(poset, [chain])
    assert dot.count("->") == 2  # covers of a 3-chain
    assert '"0" -> "1";' in dot and '"1" -> "2";' in dot
    assert dot.startswith("digraph")


def test_json_doc_shape():
    bundle = lattice_1p1(2, 4)
    buf = io.StringIO()
    dump_json(bundle.poset, bundle.chains, buf)
    doc = json.loads(buf.getvalue())
    assert set(doc) == {"events", "covers", "chains"}
    assert len(doc["events"]) == 15
    assert {c["id"] for c in doc["chains"]} == {"0", "1", "2"}


def _one_valuation_doc(text):
    return {"events": [0], "chains": [{"id": "c", "events": [0], "valuations": [text]}]}


@pytest.mark.parametrize("text, value", [
    ("3/2", Fraction(3, 2)),
    ("-7", Fraction(-7)),
    ("0.5", Fraction(1, 2)),
    ("25e-1", Fraction(5, 2)),
    ("1e1000", Fraction(10**1000)),
])
def test_valuation_strings_load(text, value):
    _, chains = poset_from_doc(_one_valuation_doc(text))
    assert chains["c"].value(0) == value


@pytest.mark.parametrize("text", ["1e100000", "1E-100000", "1e1_001", "2.5e+0001001"])
def test_valuation_with_a_large_exponent_is_rejected(text):
    with pytest.raises(ValueError, match="exponent"):
        poset_from_doc(_one_valuation_doc(text))


@pytest.mark.parametrize("text", [
    "9" * 3400 + "e1000",
    "1/" + "7" * 4001,
    "-" + "3" * 3001 + "e1000",
])
def test_valuation_with_too_many_digits_is_rejected(text):
    """A valuation that could not be written back as "p/q" does not load."""
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        poset_from_doc(_one_valuation_doc(text))


def test_valuation_at_the_digit_limit_round_trips():
    text = "9" * (MAX_DIGITS - 1000) + "e1000"
    poset, chains = poset_from_doc(_one_valuation_doc(text))
    doc = poset_to_doc(poset, list(chains.values()))
    assert doc["chains"][0]["valuations"] == [str(10**MAX_DIGITS - 10**1000)]


def test_valuations_without_a_short_common_denominator_are_rejected():
    """Each valuation fits the digit limit, but their common denominator
    does not; the loader stops at the second one instead of building it."""
    poset_from_doc(wide_denominator_doc(1))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="common denominator"):
        poset_from_doc(wide_denominator_doc(50))
    assert time.perf_counter() - start < 1.0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_CHAIN = st.fixed_dictionaries(
    {"id": _JSON | st.text(max_size=2), "events": _JSON | st.lists(st.integers(-1, 3)),
     "valuations": _JSON | st.lists(st.text(max_size=4) | st.integers(-2, 2))}
)
_DOC = _JSON | st.fixed_dictionaries(
    {"events": _JSON | st.lists(st.integers(-1, 3), max_size=5)},
    optional={
        "covers": _JSON | st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=5),
        "chains": _JSON | st.lists(_CHAIN, max_size=3),
    },
)


@settings(max_examples=300, deadline=None)
@given(_DOC)
def test_loader_raises_only_library_or_value_errors(doc):
    try:
        poset_from_doc(doc)
    except (PosetGeoError, ValueError):
        pass
