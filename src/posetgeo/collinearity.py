"""Projection-pattern classification for an event against two chains.

Each of the four projections Px, P'x (backward), Qx, Q'x is tested
against three candidate composed projections; the column of the one
that reproduces it is the digit.  Exactly five four-digit codes are
realisable, one per collinearity case.
"""

from __future__ import annotations

import csv
import enum
import io
import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InconsistentSides, MissingProjection
from .poset import Chain
from .projection import Projector


class CollinearityCase(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"
    CASE_IV = "IV"
    CASE_V = "V"
    NOT_COLLINEAR = "not-collinear"


class SideClass(enum.Enum):
    P_SIDE = "P-side"
    BETWEEN = "between"
    Q_SIDE = "Q-side"
    NONE = "none"


_LEGAL_CODES = {
    (2, 2, 0, 1): CollinearityCase.CASE_I,
    (1, 0, 1, 0): CollinearityCase.CASE_II,
    (0, 1, 2, 2): CollinearityCase.CASE_III,
    (0, 2, 2, 1): CollinearityCase.CASE_IV,
    (2, 1, 0, 2): CollinearityCase.CASE_V,
}

LEGAL_CODE_STRINGS = frozenset("".join(map(str, c)) for c in _LEGAL_CODES)


@dataclass(frozen=True)
class ProjCode:
    """Four digits for (Px, P'x, Qx, Q'x); a digit is None when no
    candidate identity holds, or when more than one does (ambiguous
    boundary configurations, e.g. events lying on a chain)."""

    digits: tuple[int | None, int | None, int | None, int | None]

    @property
    def fully_defined(self) -> bool:
        return all(d is not None for d in self.digits)

    def __str__(self) -> str:
        return "".join("u" if d is None else str(d) for d in self.digits)


def _digit(target: int, c0: int | None, c1: int | None, c2: int | None) -> int | None:
    """Index of the one candidate equal to target; None if none or several."""
    hits = (c0 == target) + (c1 == target) + (c2 == target)
    if hits != 1:
        return None
    return 0 if c0 == target else 1 if c1 == target else 2


def projection_code(pr: Projector, x: int, p: Chain, q: Chain) -> ProjCode:
    """Classify the four projections of x against chains p and q.

    Each digit names which of three composed projections reproduces the
    target projection (columns follow the twelve-relation table):

    ====  =======  ========  =======
    row   col 0    col 1     col 2
    ====  =======  ========  =======
    Px    PQx      PQ'x      P'Qx
    P'x   P'Qx     P'Q'x     PQ'x
    Qx    QPx      QP'x      Q'Px
    Q'x   Q'Px     Q'P'x     QP'x
    ====  =======  ========  =======
    """
    if p.chain_id == q.chain_id:
        raise ValueError("projection_code requires two distinct chains")
    fwd, bwd = pr.forward, pr.backward
    px, bpx, qx, bqx = fwd(x, p), bwd(x, p), fwd(x, q), bwd(x, q)
    if px is None or bpx is None or qx is None or bqx is None:
        base = zip(("Px", "P'x", "Qx", "Q'x"), (px, bpx, qx, bqx))
        missing = [name for name, v in base if v is None]
        raise MissingProjection(f"projections {missing} of event {x} undefined")
    p_qx, p_bqx, bp_qx, bp_bqx = fwd(qx, p), fwd(bqx, p), bwd(qx, p), bwd(bqx, p)
    q_px, q_bpx, bq_px, bq_bpx = fwd(px, q), fwd(bpx, q), bwd(px, q), bwd(bpx, q)
    return ProjCode(
        (
            _digit(px, p_qx, p_bqx, bp_qx),
            _digit(bpx, bp_qx, bp_bqx, p_bqx),
            _digit(qx, q_px, q_bpx, bq_px),
            _digit(bqx, bq_px, bq_bpx, q_bpx),
        )
    )


def classify_collinearity(
    pr: Projector, x: int, p: Chain, q: Chain
) -> CollinearityCase:
    code = projection_code(pr, x, p, q)
    return _LEGAL_CODES.get(code.digits, CollinearityCase.NOT_COLLINEAR)


_PROPER = {
    CollinearityCase.CASE_I,
    CollinearityCase.CASE_II,
    CollinearityCase.CASE_III,
}


def is_properly_collinear(pr: Projector, x: int, p: Chain, q: Chain) -> bool:
    """True for the three order-reversal-invariant cases."""
    return classify_collinearity(pr, x, p, q) in _PROPER


_SIDES = {
    CollinearityCase.CASE_I: SideClass.P_SIDE,
    CollinearityCase.CASE_II: SideClass.BETWEEN,
    CollinearityCase.CASE_III: SideClass.Q_SIDE,
}


def side_of(pr: Projector, x: int, p: Chain, q: Chain) -> SideClass:
    case = classify_collinearity(pr, x, p, q)
    return _SIDES.get(case, SideClass.NONE)


def in_subspace(pr: Projector, x: int, p: Chain, q: Chain) -> bool:
    """Membership of x in the discrete subspace spanned by p and q.

    Chain elements belong by definition; other events must be properly
    collinear.  Missing projections yield False, never an error.
    """
    defined = all(
        f(x, c) is not None for c in (p, q) for f in (pr.forward, pr.backward)
    )
    if not defined:
        return False
    if x in p or x in q:
        return True
    return is_properly_collinear(pr, x, p, q)


def chain_order(
    pr: Projector, x_chain: Chain, p: Chain, q: Chain
) -> tuple[Chain, Chain, Chain]:
    """Order three chains from the side classification of x_chain's events.

    Canonical direction: the chain seen on the P side is placed least.
    Events whose projections are undefined (chain boundaries) are skipped.
    """
    sides = set()
    for e in x_chain.elements:
        try:
            s = side_of(pr, e, p, q)
        except MissingProjection:
            continue
        if s is not SideClass.NONE:
            sides.add(s)
    if len(sides) != 1:
        raise InconsistentSides(
            f"events of {x_chain.chain_id} classify as {sorted(s.value for s in sides)}"
        )
    side = sides.pop()
    if side is SideClass.P_SIDE:
        return (x_chain, p, q)
    if side is SideClass.BETWEEN:
        return (p, x_chain, q)
    return (p, q, x_chain)


def chains_properly_collinear(
    pr: Projector,
    x_chain: Chain,
    p: Chain,
    q: Chain,
    events: Sequence[int] | None = None,
) -> bool:
    """Every event of x_chain properly collinear with (p, q), and the
    projections jointly surjective onto the closed subchains they span.

    ``events`` restricts the check to a window of x_chain (defaults to
    the whole chain, which on finite chains usually fails at the
    boundary where projections run off p or q).
    """
    if x_chain.chain_id in (p.chain_id, q.chain_id):
        raise ValueError("chains_properly_collinear requires distinct chains")
    window = list(events) if events is not None else list(x_chain.elements)
    if not window:
        return False
    for target in (p, q):
        image = set()
        for e in window:
            fwd, bwd = pr.forward(e, target), pr.backward(e, target)
            if fwd is None or bwd is None:
                return False
            image.add(fwd)
            image.add(bwd)
        if not all(is_properly_collinear(pr, e, p, q) for e in window):
            return False
        idx = sorted(target.index_of(e) for e in image)
        if set(range(idx[0], idx[-1] + 1)) != set(idx):
            return False
    return True


@dataclass
class CensusResult:
    """Histogram of projection codes over (event, chain-pair) samples."""

    histogram: Counter
    total: int

    @property
    def legal_codes_only(self) -> bool:
        return all(
            code in LEGAL_CODE_STRINGS
            for code in self.histogram
            if "u" not in code
        )

    def fully_defined_codes(self) -> set[str]:
        return {c for c in self.histogram if "u" not in c}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["code", "count"])
        for code, count in sorted(self.histogram.items()):
            writer.writerow([code, count])
        return buf.getvalue()

    def to_json_summary(self) -> str:
        return json.dumps(
            {
                "legal_codes_only": self.legal_codes_only,
                "total": self.total,
                "distinct_codes": len(self.histogram),
            }
        )


def census(
    pr: Projector,
    chain_pairs: Iterable[tuple[Chain, Chain]],
    events: Sequence[int] | None = None,
) -> CensusResult:
    """Count the projection code of every (event, chain pair)."""
    hist: Counter = Counter()
    total = 0
    universe = events if events is not None else pr.poset.events()
    for p, q in chain_pairs:
        for x in universe:
            try:
                code = projection_code(pr, x, p, q)
            except MissingProjection:
                continue
            hist[str(code)] += 1
            total += 1
    return CensusResult(hist, total)
