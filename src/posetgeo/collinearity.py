"""Projection-pattern classification for an event against two chains.

Each of the four projections Px, P'x (backward), Qx, Q'x is tested
against three candidate composed projections; the column of the one
that reproduces it is the digit.  Exactly five four-digit codes are
realisable, one per collinearity case.

Codes are computed on chain indices from the Projector.  The digit rule
is written once (:func:`_codes`), over a batch of events: each digit
reads only three of an event's four base indices, and its candidates
from the chain pair's composed index lists.  ``census`` runs it on every
event of a chain pair at once, with base indices from
``Projector.indices``; ``projection_code`` runs it on one event, and
``chains_properly_collinear`` on a window of a third chain, whose base
indices are that chain's composed lists against p and q.
"""

from __future__ import annotations

import csv
import enum
import io
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
    "2201": CollinearityCase.CASE_I,
    "1010": CollinearityCase.CASE_II,
    "0122": CollinearityCase.CASE_III,
    "0221": CollinearityCase.CASE_IV,
    "2102": CollinearityCase.CASE_V,
}

LEGAL_CODE_STRINGS = frozenset(_LEGAL_CODES)


@dataclass(frozen=True)
class ProjCode:
    """The code string of (Px, P'x, Qx, Q'x): one character per
    projection, its digit, or "u" when no candidate identity holds or
    more than one does (ambiguous boundary configurations, e.g. events
    lying on a chain)."""

    code: str

    @property
    def digits(self) -> tuple[int | None, ...]:
        """The four digits, None for each "u"."""
        return tuple(None if c == "u" else int(c) for c in self.code)

    @property
    def fully_defined(self) -> bool:
        return "u" not in self.code

    def __str__(self) -> str:
        return self.code


# The digit of a target among its three candidates c0, c1, c2, indexed
# by (c0 == t) + 2 * (c1 == t) + 4 * (c2 == t): the column of the one
# candidate that equals the target, "u" when none or several do.
_DIGIT = "u01u2uuu"


def _codes(
    pr: Projector, p: Chain, q: Chain, base: Iterable[tuple[int, int, int, int]]
) -> list[str]:
    """The code strings of events whose projections onto p and q have
    the chain indices (Px, P'x, Qx, Q'x) of ``base``, all defined.

    This is the one digit rule.  Each digit reads three of the four
    indices, and its candidates from the composed index lists, in the
    columns of the table in :func:`projection_code`.
    """
    pf, pb, qf, qb = pr.composed(p, q)
    d = _DIGIT
    return [
        d[(pf[fq] == fp) + 2 * (pf[bq] == fp) + 4 * (pb[fq] == fp)]
        + d[(pb[fq] == bp) + 2 * (pb[bq] == bp) + 4 * (pf[bq] == bp)]
        + d[(qf[fp] == fq) + 2 * (qf[bp] == fq) + 4 * (qb[fp] == fq)]
        + d[(qb[fp] == bq) + 2 * (qb[bp] == bq) + 4 * (qf[bp] == bq)]
        for fp, bp, fq, bq in base
    ]


def _require_distinct(p: Chain, q: Chain) -> None:
    if p.chain_id == q.chain_id:
        raise ValueError("projection_code requires two distinct chains")


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

    Projections are compared as chain indices, which the Projector
    gives directly: PQx is the P-index of the forward projection of the
    element of Q at the index of Qx.
    """
    _require_distinct(p, q)
    row = (pr.row(x),)
    (fp,), (bp,) = pr.indices(p, row)
    (fq,), (bq,) = pr.indices(q, row)
    base = (fp, bp, fq, bq)
    if None in base:
        names = ("Px", "P'x", "Qx", "Q'x")
        missing = [name for name, i in zip(names, base) if i is None]
        raise MissingProjection(f"projections {missing} of event {x} undefined")
    (code,) = _codes(pr, p, q, (base,))
    return ProjCode(code)


def classify_collinearity(
    pr: Projector, x: int, p: Chain, q: Chain
) -> CollinearityCase:
    code = projection_code(pr, x, p, q)
    return _LEGAL_CODES.get(code.code, CollinearityCase.NOT_COLLINEAR)


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

_PROPER_CODES = frozenset(c for c, case in _LEGAL_CODES.items() if case in _PROPER)


# the code of Case II, the one proper case whose side is BETWEEN
_BETWEEN_CODE = "1010"


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


def _window_codes(
    pr: Projector, x_chain: Chain, p: Chain, q: Chain, window: Sequence[int]
) -> list[str] | None:
    """The codes of the events of x_chain at the chain indices ``window``
    against (p, q), from one batched :func:`_codes` call, when those
    events are properly collinear with (p, q) and their projections onto
    each of p and q cover a closed subchain; None otherwise, a missing
    projection included."""
    if x_chain.chain_id in (p.chain_id, q.chain_id):
        raise ValueError("chains_properly_collinear requires distinct chains")
    if not window:
        return None
    _require_distinct(p, q)
    fp, bp = pr.composed(p, x_chain)[:2]
    fq, bq = pr.composed(q, x_chain)[:2]
    base = [(fp[i], bp[i], fq[i], bq[i]) for i in window]
    if any(None in b for b in base):
        return None
    codes = _codes(pr, p, q, base)
    if not _PROPER_CODES.issuperset(codes):
        return None
    for f, b in ((0, 1), (2, 3)):
        image = {t[f] for t in base} | {t[b] for t in base}
        if max(image) - min(image) + 1 != len(image):
            return None
    return codes


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
    boundary where projections run off p or q); an event that is not on
    x_chain raises ValueError.  The window is read by chain index from
    the composed lists of (p, x_chain) and (q, x_chain) and classified
    in one batch; an event with a missing projection onto p or q makes
    the answer False, whichever of the two chains it misses.
    """
    if events is None:
        window: Sequence[int] = range(len(x_chain))
    else:
        for e in events:
            if e not in x_chain:
                raise ValueError(f"event {e} is not on chain {x_chain.chain_id}")
        window = [x_chain.index_of(e) for e in events]
    return _window_codes(pr, x_chain, p, q, window) is not None


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


def census(
    pr: Projector,
    chain_pairs: Iterable[tuple[Chain, Chain]],
    events: Sequence[int] | None = None,
) -> CensusResult:
    """Count the projection code of every (event, chain pair) whose four
    projections exist, one chain pair at a time.  The projection indices
    of the events are taken once per chain."""
    rows = range(len(pr.poset)) if events is None else [pr.row(e) for e in events]
    indices: dict[Chain, tuple[list, list]] = {}
    hist: Counter = Counter()
    total = 0
    for p, q in chain_pairs:
        _require_distinct(p, q)
        for c in (p, q):
            if c not in indices:
                indices[c] = pr.indices(c, rows)
        (fp, bp), (fq, bq) = indices[p], indices[q]
        base = [t for t in zip(fp, bp, fq, bq) if None not in t]
        codes = _codes(pr, p, q, base)
        hist.update(codes)
        total += len(codes)
    return CensusResult(hist, total)
