"""Named verification suites over generated layouts.

Each suite builds exact-arithmetic configurations, runs the relevant
checks and returns a RunReport whose values are rational strings.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .collinearity import census
from .coordination import (
    SimplexMode,
    check_orthogonal_subspaces,
    pythagoras_check,
    simplex_table,
)
from .errors import PosetGeoError, UnknownSuite
from .fence import (
    Grid,
    dot_product,
    geometric_identity_check,
    parallel_postulate_check,
    validate_fence,
    validate_grid,
    wedge_product,
)
from .generators import (
    MetricPoset,
    collinear_config,
    dotprod_config,
    grid_config,
    lattice_1p1,
    pythagoras_config,
    simplex_config,
)
from .poset import Chain
from .projection import Projector
from .serialize import fraction_to_str


@dataclass
class CheckOutcome:
    check: str
    inputs: dict
    value: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "inputs": self.inputs,
            "value": self.value,
            "pass": self.passed,
        }


@dataclass
class RunReport:
    command: str
    inputs: dict
    results: list[CheckOutcome] = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, check: str, inputs: dict, value, passed: bool) -> None:
        if isinstance(value, Fraction):
            value = fraction_to_str(value)
        self.results.append(CheckOutcome(check, inputs, str(value), passed))

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": [r.to_dict() for r in self.results],
            "pass": self.passed,
            "wall_time_ms": self.wall_time_ms,
        }


def suite_census(width: int = 8, ticks: int = 60) -> RunReport:
    """Exhaustive projection-code census over a unit lattice."""
    report = RunReport("verify census", {"width": width, "ticks": ticks})
    bundle = lattice_1p1(width, ticks)
    pairs = list(combinations(bundle.chains, 2))
    result = census(Projector(bundle.poset), pairs)
    seen = result.fully_defined_codes()
    report.add(
        "fully-defined-codes-are-legal",
        {"pairs": len(pairs), "events": len(bundle.poset)},
        ",".join(sorted(seen)),
        result.legal_codes_only,
    )
    # a 1-D lattice only realises the three on-line cases; the two
    # off-line codes need a planar layout and are checked elsewhere
    proper = {"2201", "1010", "0122"}
    report.add(
        "proper-codes-realised",
        {"expected": sorted(proper)},
        ",".join(sorted(seen & proper)),
        seen >= proper,
    )
    return report


def pythagorean_leg_pairs(max_leg: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(1, max_leg + 1):
        for b in range(a, max_leg + 1):
            c = math.isqrt(a * a + b * b)
            if c * c == a * a + b * b:
                out.append((a, b, c))
    return out


def suite_pythagoras(max_leg: int = 20) -> RunReport:
    """Exact scalar additivity on every aligned right triangle."""
    report = RunReport("verify pythagoras", {"max_leg": max_leg})
    for a, b, c in pythagorean_leg_pairs(max_leg):
        config = pythagoras_config(a, b)
        ok = pythagoras_check(config)
        report.add(
            "scalar-additivity",
            {"a": a, "b": b, "c": c},
            f"{-a * a}+{-b * b}={-c * c}",
            ok,
        )
    return report


def _check_simplex(
    report: RunReport, n: int, mode: SimplexMode
) -> None:
    if mode is SimplexMode.COLLINEAR:
        bundle = collinear_config(n)
    else:
        bundle = simplex_config(n)
    try:
        table = simplex_table(Projector(bundle.poset), bundle.chains, mode=mode)
        cells = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    f, s = table[i][j].components()
                    cells.append(f"({fraction_to_str(f)},{fraction_to_str(s)})")
        report.add(
            "simplex-table", {"chains": n, "mode": mode.value}, ";".join(cells), True
        )
    except PosetGeoError as exc:
        report.add(
            "simplex-table", {"chains": n, "mode": mode.value}, repr(exc), False
        )


def suite_simplex() -> RunReport:
    report = RunReport("verify simplex", {})
    for n in (3, 4):
        _check_simplex(report, n, SimplexMode.COLLINEAR)
        _check_simplex(report, n, SimplexMode.PAIRWISE)
    return report


def suite_subspaces() -> RunReport:
    """Orthogonal-subspace degeneracy on perpendicular-bisector layouts."""
    report = RunReport("verify subspaces", {})
    for a, b in ((3, 4), (6, 8), (5, 12), (9, 12), (8, 15)):
        config = pythagoras_config(a, b)
        bundle = config.bundle
        t = config.mid_tick
        ok = check_orthogonal_subspaces(
            Projector(bundle.poset),
            bundle.chain("P"),
            bundle.chain("Q"),
            bundle.chain("R"),
            bundle.chain("S"),
            bundle.event("P", t),
            bundle.event("Q", t),
        )
        report.add("subspace-degeneracy", {"a": a, "b": b}, 2 * a, ok)
    return report


def fence_projection_replay(pr: Projector, chains: list[Chain]) -> bool:
    """Composition law behind the uniqueness argument: projecting one
    chain ahead twice agrees with projecting two ahead, event by event."""
    for p1, p2, p3 in zip(chains, chains[1:], chains[2:]):
        for x in p1.elements:
            via = pr.forward(x, p2)
            direct = pr.forward(x, p3)
            if via is None or direct is None:
                continue
            composed = pr.forward(via, p3)
            if composed != direct:
                return False
            bvia = pr.backward(x, p2)
            bdirect = pr.backward(x, p3)
            if bvia is not None and bdirect is not None:
                if pr.backward(bvia, p3) != bdirect:
                    return False
    return True


def suite_parallel(trials: int = 1000, seed: int = 0, width: int = 20) -> RunReport:
    """Randomized unit fences in a lattice: shared chains force full
    agreement on the common extent, and the projection replay holds."""
    report = RunReport(
        "verify parallel", {"trials": trials, "seed": seed, "width": width}
    )
    ticks = 2 * width + 6
    bundle = lattice_1p1(width, ticks)
    chains = list(bundle.chains)
    pr = Projector(bundle.poset)
    rng = random.Random(seed)

    fences = {}

    def fence_for(lo: int, hi: int):
        key = (lo, hi)
        if key not in fences:
            fences[key] = validate_fence(pr, chains[lo : hi + 1])
        return fences[key]

    failures = 0
    checked = 0
    for _ in range(trials):
        lo_a = rng.randrange(0, width - 1)
        hi_a = rng.randrange(lo_a + 2, width + 1)
        # second window starts near the first so overlaps are common
        lo_b = rng.randrange(max(0, lo_a - 3), min(hi_a, width - 1))
        hi_b = min(width, lo_b + rng.randrange(2, width))
        if min(hi_a, hi_b) - max(lo_a, lo_b) < 1:
            continue
        fa, fb = fence_for(lo_a, hi_a), fence_for(lo_b, hi_b)
        checked += 1
        if not parallel_postulate_check(pr, fa, fb):
            failures += 1
    report.add(
        "shared-chains-agree",
        {"trials": trials, "with_overlap": checked},
        f"{failures} failures",
        failures == 0,
    )

    # a fence replays iff each of its consecutive triples does, and the
    # fences share their triples, so each distinct triple is replayed once
    triples = sorted({i for lo, hi in fences for i in range(lo, hi - 1)})
    replay_ok = all(fence_projection_replay(pr, chains[i : i + 3]) for i in triples)
    report.add(
        "projection-replay",
        {"fences": len(fences)},
        f"{len(fences)} fences",
        replay_ok,
    )
    return report


def suite_dot(max_scale: int = 20) -> RunReport:
    """Signed dot product on scaled 3-4-5 probe layouts: special cases,
    agreement with the planar inner product, chain-pair independence."""
    report = RunReport("verify dot", {"max_scale": max_scale})
    for k in range(1, max_scale + 1):
        config = dotprod_config(k)
        pr = Projector(config.bundle.poset)
        fence = validate_fence(pr, config.fence_chains)
        t = config.probe_tick
        x = config.probe_event
        y = config.bundle.event("F2", t)

        # planar oracle: displacement (3k, -4k) onto the fence axis
        expect = Fraction(3 * k)
        values = [
            dot_product(pr, x, y, fence, i, j).signed
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        report.add(
            "signed-dot-matches-planar-oracle",
            {"scale": k, "pairs": 3},
            ",".join(fraction_to_str(v) for v in values),
            all(v == expect for v in values),
        )

        if k <= 3:
            p_ev = config.bundle.event("F0", t)
            q_ev = config.bundle.event("F2", t)
            zero = dot_product(pr, p_ev, p_ev, fence, 0, 2).signed
            report.add("dot-zero-when-equal", {"scale": k}, zero, zero == 0)
            perp = dot_product(pr, x, config.bundle.event("F1", t), fence, 0, 2).signed
            report.add("dot-zero-when-perpendicular", {"scale": k}, perp, perp == 0)
            span = dot_product(pr, p_ev, q_ev, fence, 0, 2).signed
            report.add(
                "dot-chain-to-chain", {"scale": k}, span, span == Fraction(6 * k)
            )
            back = dot_product(pr, q_ev, p_ev, fence, 0, 2).signed
            report.add(
                "dot-chain-to-chain-reversed",
                {"scale": k},
                back,
                back == Fraction(-6 * k),
            )
    return report


def _grid_layouts():
    for k in range(1, 8):
        for rows, cols in ((3, 3), (3, 4), (4, 3)):
            yield rows, cols, k


def is_orthogonal_grid(grid: Grid, metric: MetricPoset) -> bool:
    """Metric truth for the wedge suite, read from the squared-distance
    table and not from projections: over all row/column quadruples, the
    diagonal of every sub-rectangle satisfies the Pythagorean relation."""
    m, n = grid.shape
    ids = [[c.chain_id for c in row] for row in grid.chain_array]
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    diag = metric.sq_dist_chains(ids[i][k], ids[j][l])
                    rows = metric.sq_dist_chains(ids[i][k], ids[j][k])
                    cols = metric.sq_dist_chains(ids[j][k], ids[j][l])
                    if diag != rows + cols:
                        return False
    return True


def suite_wedge() -> RunReport:
    """Distance-weighted wedge against the planar cross-product oracle
    on scaled orthogonal 3-4 grids."""
    report = RunReport("verify wedge", {})
    for rows, cols, k in _grid_layouts():
        rs, cs = Fraction(3 * k), Fraction(4 * k)
        gcfg = grid_config(rows, cols, rs, cs)
        bundle = gcfg.bundle
        pr = Projector(bundle.poset)
        grid = validate_grid(pr, gcfg.chain_array())
        report.add(
            "grid-orthogonality",
            {"rows": rows, "cols": cols, "scale": k},
            f"{rs}x{cs}",
            is_orthogonal_grid(grid, bundle),
        )
        origin = bundle.chain("0,0")
        mid = origin.value(origin.elements[len(origin) // 2])
        for row_x, row_y in ((0, rows - 1), (rows - 1, 0)):
            x = bundle.event(f"{row_x},0", mid)
            y = bundle.event(f"{row_y},{cols - 1}", mid)
            i, j = 0, cols - 1
            w = wedge_product(pr, x, y, grid, row_x, row_y, i, j)
            # cross of the chain-pair vector with the displacement
            vx = (j - i) * rs
            uy = (row_y - row_x) * cs
            oracle = vx * uy
            report.add(
                "wedge-matches-cross-oracle",
                {"rows": rows, "cols": cols, "scale": k, "row_x": row_x,
                 "row_y": row_y},
                w,
                w == oracle,
            )
    return report


def suite_geoproduct() -> RunReport:
    """Exact squared-norm identity: displacement times chain-pair length
    decomposes into dot and wedge parts."""
    report = RunReport("verify geoproduct", {})
    for rows, cols, k in _grid_layouts():
        rs, cs = Fraction(3 * k), Fraction(4 * k)
        gcfg = grid_config(rows, cols, rs, cs)
        bundle = gcfg.bundle
        pr = Projector(bundle.poset)
        grid = validate_grid(pr, gcfg.chain_array())
        origin = bundle.chain("0,0")
        mid = origin.value(origin.elements[len(origin) // 2])
        x = bundle.event("0,0", mid)
        y = bundle.event(f"{rows - 1},{cols - 1}", mid)
        try:
            lhs, dot, wedge = geometric_identity_check(
                pr, x, y, grid, 0, rows - 1, 0, cols - 1
            )
            report.add(
                "geometric-identity",
                {"rows": rows, "cols": cols, "scale": k},
                f"{fraction_to_str(lhs)}={fraction_to_str(dot)}^2"
                f"+{fraction_to_str(wedge)}^2",
                True,
            )
        except AssertionError as exc:
            report.add(
                "geometric-identity",
                {"rows": rows, "cols": cols, "scale": k},
                str(exc),
                False,
            )
    return report


_SUITES = {
    "census": suite_census,
    "pythagoras": suite_pythagoras,
    "simplex": suite_simplex,
    "subspaces": suite_subspaces,
    "parallel": suite_parallel,
    "dot": suite_dot,
    "wedge": suite_wedge,
    "geoproduct": suite_geoproduct,
}


def run_suite(name: str, **params) -> RunReport:
    if name not in _SUITES:
        raise UnknownSuite(
            f"unknown suite {name!r}; choose from {sorted(_SUITES)}"
        )
    start = time.monotonic()
    report = _SUITES[name](**params)
    report.wall_time_ms = int((time.monotonic() - start) * 1000)
    return report
