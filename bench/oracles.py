"""Independent oracles for the benchmark's output checks.

Nothing here imports posetgeo.  The census oracle works on the 1+1
lattice's own coordinates: event (i, t) projects forward onto chain j at
(j, t + |i - j|) and backward at (j, t - |i - j|), when that tick exists.
The document oracles close a poset document's cover list with their own
bitmask closure.
"""

from __future__ import annotations

from collections import Counter

# Candidate compositions for the four digits (Px, P'x, Qx, Q'x), as
# (outer direction, outer chain, inner direction, inner chain); column
# order follows the paper's twelve-relation table.
_TARGETS = (("f", "P"), ("b", "P"), ("f", "Q"), ("b", "Q"))
_CANDIDATES = (
    (("f", "P", "f", "Q"), ("f", "P", "b", "Q"), ("b", "P", "f", "Q")),
    (("b", "P", "f", "Q"), ("b", "P", "b", "Q"), ("f", "P", "b", "Q")),
    (("f", "Q", "f", "P"), ("f", "Q", "b", "P"), ("b", "Q", "f", "P")),
    (("b", "Q", "f", "P"), ("b", "Q", "b", "P"), ("f", "Q", "b", "P")),
)


def projection_code(x, project) -> str | None:
    """Four-digit code of x from a projection function
    ``project(direction, event, role)`` that returns None when the
    projection does not exist.  None when a base projection is missing
    (the census skips those); a digit is ``u`` unless exactly one
    candidate holds."""
    base = {key: project(key[0], x, key[1]) for key in _TARGETS}
    if None in base.values():
        return None
    digits = []
    for target, candidates in zip(_TARGETS, _CANDIDATES):
        held = [
            col
            for col, (od, oc, idr, ic) in enumerate(candidates)
            if project(od, base[(idr, ic)], oc) == base[target]
        ]
        digits.append(str(held[0]) if len(held) == 1 else "u")
    return "".join(digits)


def lattice_project(ticks: int, positions: dict[str, int]):
    """Projection on lattice coordinates; events are (position, tick)."""

    def project(direction, event, role):
        i, t = event
        j = positions[role]
        s = t + abs(i - j) if direction == "f" else t - abs(i - j)
        return (j, s) if 0 <= s <= ticks else None

    return project


def lattice_census(width: int, ticks: int) -> Counter:
    """Histogram of codes over every (event, chain pair) of the
    width x ticks lattice.  A code depends only on the event's offset
    from P, the pair's separation and the tick, so each (offset,
    separation) column is computed once."""
    columns: dict[tuple[int, int], Counter] = {}
    hist: Counter = Counter()
    for p in range(width + 1):
        for q in range(p + 1, width + 1):
            for i in range(width + 1):
                key = (i - p, q - p)
                if key not in columns:
                    project = lattice_project(ticks, {"P": 0, "Q": key[1]})
                    col: Counter = Counter()
                    for t in range(ticks + 1):
                        code = projection_code((key[0], t), project)
                        if code is not None:
                            col[code] += 1
                    columns[key] = col
                hist.update(columns[key])
    return hist


def csv_histogram(text: str) -> Counter | None:
    """Parse ``code,count`` rows after the header; None if malformed."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "code,count":
        return None
    hist: Counter = Counter()
    for line in lines[1:]:
        parts = line.strip().split(",")
        if len(parts) != 2 or not parts[1].isdigit():
            return None
        hist[parts[0]] = int(parts[1])
    return hist


def lattice_coordinates(doc: dict) -> dict[int, tuple[int, int]]:
    """Event -> (position, tick), read from the document's chains."""
    coords = {}
    for spec in doc["chains"]:
        i = int(spec["id"])
        for e, v in zip(spec["events"], spec["valuations"]):
            coords[e] = (i, int(v))
    return coords


def closure(doc: dict) -> tuple[list, dict[int, int], list[int]]:
    """Up-set bitmasks of the document's cover relation.  Returns
    (up masks by row, event -> row, rows in topological order); raises
    ValueError on a cycle."""
    events = doc["events"]
    row = {e: k for k, e in enumerate(events)}
    succ: list[list[int]] = [[] for _ in events]
    indeg = [0] * len(events)
    for a, b in doc["covers"]:
        succ[row[a]].append(row[b])
        indeg[row[b]] += 1
    order = [k for k, d in enumerate(indeg) if d == 0]
    for k in order:
        for s in succ[k]:
            indeg[s] -= 1
            if indeg[s] == 0:
                order.append(s)
    if len(order) != len(events):
        raise ValueError("cover relation has a cycle")
    up = [1 << k for k in range(len(events))]
    for k in reversed(order):
        for s in succ[k]:
            up[k] |= up[s]
    return up, row, order


def covers_irredundant(doc: dict) -> bool:
    """Every cover (a, b) is the only path from a to b: no other direct
    successor of a reaches b.  Together with acyclicity this makes the
    cover list a transitive reduction."""
    try:
        up, row, _ = closure(doc)
    except (ValueError, KeyError):
        return False
    succ: dict[int, list[int]] = {}
    for a, b in doc["covers"]:
        succ.setdefault(row[a], []).append(row[b])
    for a, outs in succ.items():
        if len(set(outs)) != len(outs):
            return False
        for b in outs:
            if any(c != b and up[c] >> b & 1 for c in outs):
                return False
    return True


def lattice_covers_match(doc: dict) -> bool:
    """Covers of the unit 1+1 lattice: (i, t) -> (j, t + 1) for |i - j| <= 1."""
    coords = lattice_coordinates(doc)
    if len(coords) != len(doc["events"]):
        return False
    at = {c: e for e, c in coords.items()}
    expected = set()
    for (i, t), e in at.items():
        for j in (i - 1, i, i + 1):
            f = at.get((j, t + 1))
            if f is not None:
                expected.add((e, f))
    return {tuple(c) for c in doc["covers"]} == expected


def sampled_codes_match(doc: dict, width: int, ticks: int, rng, samples: int) -> list[str]:
    """Codes of sampled (event, chain pair) computed twice: from the
    document's own cover closure and from lattice coordinates.  Returns
    the mismatches."""
    up, row, _ = closure(doc)
    coords = lattice_coordinates(doc)
    chains = {spec["id"]: spec["events"] for spec in doc["chains"]}
    ids = sorted(chains, key=int)

    def doc_project(pair):
        def project(direction, e, role):
            members = chains[pair[role]]
            if direction == "f":
                return next((c for c in members if up[row[e]] >> row[c] & 1), None)
            return next(
                (c for c in reversed(members) if up[row[c]] >> row[e] & 1), None
            )
        return project

    bad = []
    events = doc["events"]
    for _ in range(samples):
        p, q = sorted(rng.sample(ids, 2), key=int)
        x = rng.choice(events)
        pair = {"P": p, "Q": q}
        from_doc = projection_code(x, doc_project(pair))
        from_coords = projection_code(
            coords[x], lattice_project(ticks, {"P": int(p), "Q": int(q)})
        )
        if from_doc != from_coords:
            bad.append(f"event {x} pair ({p},{q}): {from_doc} != {from_coords}")
    return bad
