"""Acceptance gate: ten exact end-to-end checks, one printed line each."""

import io
import math
import time
from fractions import Fraction
from itertools import combinations

from posetgeo import (
    CollinearityCase,
    Projector,
    SideClass,
    census,
    check_orthogonal_subspaces,
    classify_collinearity,
    classify_interval,
    collinear_config,
    dump_json,
    geometric_identity_check,
    grid_config,
    interval_scalar,
    lattice_1p1,
    load_json,
    projection_code,
    pythagoras_check,
    pythagoras_config,
    quantify_interval_two_chains,
    random_dag,
    side_of,
    simplex_config,
    simplex_table,
    sym_antisym_decompose,
    validate_grid,
    wedge_product,
)
from posetgeo.collinearity import LEGAL_CODE_STRINGS
from posetgeo.coordination import SimplexMode
from posetgeo.errors import MissingProjection
from posetgeo.projection import IntervalClass, QuantPair
from posetgeo.verify import run_suite

from .conftest import planar_cross, warshall_closure
from .test_collinearity import _case_iv_poset


def report(num, name, ok, elapsed=None):
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_criterion_1_collinearity_census():
    start = time.monotonic()
    bundle = lattice_1p1(8, 60)
    assert len(bundle.poset) == 549
    pairs = list(combinations(bundle.chains, 2))
    assert len(pairs) == 36
    result = census(Projector(bundle.poset), pairs)
    ok = result.fully_defined_codes() <= LEGAL_CODE_STRINGS
    elapsed = time.monotonic() - start
    report(1, "collinearity census", ok and elapsed < 10, elapsed)


def test_criterion_2_case_geography():
    bundle = lattice_1p1(8, 40)
    pr = Projector(bundle.poset)
    p, q = bundle.chain("3"), bundle.chain("6")
    ok = True
    for pos in range(9):
        if pos in (3, 6):
            continue
        expected = (
            SideClass.P_SIDE if pos < 3
            else SideClass.BETWEEN if pos < 6
            else SideClass.Q_SIDE
        )
        for e in bundle.chain(str(pos)).elements:
            try:
                code = projection_code(pr, e, p, q)
            except MissingProjection:
                continue
            if code.fully_defined:
                ok &= side_of(pr, e, p, q) == expected
    report(2, "case geography", ok)


def test_criterion_3_order_reversal_duality():
    ok = True
    # proper cases survive dualization on a metric lattice
    bundle = lattice_1p1(4, 16)
    poset, dual = bundle.poset, bundle.poset.dual()
    proper = (CollinearityCase.CASE_I, CollinearityCase.CASE_II,
              CollinearityCase.CASE_III)
    for pa, qa in combinations(bundle.chains, 2):
        pr, dual_pr = Projector(poset), Projector(dual)
        dp, dq = pa.dual(), qa.dual()
        for x in poset.events():
            try:
                case = classify_collinearity(pr, x, pa, qa)
            except MissingProjection:
                continue
            if case in proper:
                ok &= classify_collinearity(dual_pr, x, dp, dq) == case
    # the improper cases swap under dualization
    cposet, cp, cq, cx = _case_iv_poset()
    ok &= (
        classify_collinearity(Projector(cposet), cx, cp, cq)
        == CollinearityCase.CASE_IV
    )
    ok &= (
        classify_collinearity(Projector(cposet.dual()), cx, cp.dual(), cq.dual())
        == CollinearityCase.CASE_V
    )
    report(3, "order-reversal duality", ok)


def test_criterion_4_simplex_tables():
    ok = True
    for n in (3, 4):
        col = collinear_config(n)
        table = simplex_table(
            Projector(col.poset), col.chains, mode=SimplexMode.COLLINEAR
        )
        for i in range(n):
            for j in range(n):
                if i != j:
                    d = Fraction(abs(i - j))
                    ok &= table[i][j].components() == (d, -d)
        simp = simplex_config(n)
        table = simplex_table(
            Projector(simp.poset), simp.chains, mode=SimplexMode.PAIRWISE
        )
        for i in range(n):
            for j in range(n):
                if i != j:
                    ok &= table[i][j].components() == (1, -1)
    report(4, "simplex tables", ok)


def test_criterion_5_pythagoras():
    start = time.monotonic()
    ok = True
    count = 0
    for a in range(1, 21):
        for b in range(a, 21):
            c = math.isqrt(a * a + b * b)
            if c * c != a * a + b * b:
                continue
            count += 1
            cfg = pythagoras_config(a, b)
            ok &= pythagoras_check(cfg)
            # the three interval scalars directly
            bundle = cfg.bundle
            pr = Projector(bundle.poset)
            t = cfg.mid_tick
            legs = [
                ("P", "O", -a * a), ("O", "R", -b * b), ("P", "R", -c * c),
            ]
            for ca, cb, expected in legs:
                pair = quantify_interval_two_chains(
                    pr, bundle.event(ca, t), bundle.event(cb, t),
                    bundle.chain(ca), bundle.chain(cb),
                    check_between=False,
                )
                ok &= interval_scalar(pair) == expected
    elapsed = time.monotonic() - start
    report(5, f"pythagoras ({count} triples)", ok and elapsed < 5, elapsed)


def test_criterion_6_orthogonal_subspaces():
    cfg = pythagoras_config(3, 4)
    b = cfg.bundle
    pr = Projector(b.poset)
    t = cfg.mid_tick
    p_ev, q_ev = b.event("P", t), b.event("Q", t)
    pair_pq = quantify_interval_two_chains(
        pr, p_ev, q_ev, b.chain("P"), b.chain("Q"), check_between=False
    )
    ok = pair_pq.components() == (6, -6)
    pair_rs = quantify_interval_two_chains(
        pr, p_ev, q_ev, b.chain("R"), b.chain("S"), check_between=False
    )
    ok &= pair_rs.components() == (0, 0)
    ok &= check_orthogonal_subspaces(
        pr, b.chain("P"), b.chain("Q"), b.chain("R"), b.chain("S"), p_ev, q_ev
    )
    report(6, "orthogonal subspaces", ok)


def test_criterion_7_parallel_postulate():
    r = run_suite("parallel", trials=1000, seed=0)
    report(7, "parallel postulate (1000 trials)", r.passed)


def test_criterion_8_dot_product():
    r = run_suite("dot", max_scale=20)
    report(8, "dot product (20 layouts)", r.passed)


def test_criterion_9_geometric_identity():
    ok = True
    layouts = 0
    for k in range(1, 8):
        for rows, cols in ((3, 3), (3, 4), (4, 3)):
            layouts += 1
            g = grid_config(rows, cols, 3 * k, 4 * k)
            pr = Projector(g.bundle.poset)
            grid = validate_grid(pr, g.chain_array())
            origin = g.bundle.chain("0,0")
            mid = origin.valuation[origin.elements[len(origin) // 2]]
            x = g.bundle.event("0,0", mid)
            y = g.bundle.event(f"{rows - 1},{cols - 1}", mid)
            i, j = 0, cols - 1
            lhs, dot, wedge = geometric_identity_check(
                pr, x, y, grid, 0, rows - 1, i, j
            )
            ok &= lhs == dot * dot + wedge * wedge
            oracle = planar_cross(
                ((j - i) * grid.row_spacing, Fraction(0)),
                ((cols - 1) * grid.row_spacing, (rows - 1) * grid.col_spacing),
            )
            ok &= wedge == oracle
            ok &= wedge_product(pr, x, y, grid, 0, rows - 1, i, j) == oracle
    report(9, f"geometric identity ({layouts} layouts)", ok and layouts >= 20)


def test_criterion_10_structural_properties():
    ok = True
    # projection idempotence and monotonicity
    bundle = lattice_1p1(3, 14)
    poset = bundle.poset
    pr = Projector(poset)
    chain = bundle.chain("0")
    events = poset.events()
    for x in events:
        f = pr.forward(x, chain)
        if f is not None:
            ok &= pr.forward(f, chain) == f and poset.leq(x, f)
        b = pr.backward(x, chain)
        if b is not None:
            ok &= pr.backward(b, chain) == b and poset.leq(b, x)
    for x in events:
        for y in events:
            if poset.leq(x, y):
                fx, fy = pr.forward(x, chain), pr.forward(y, chain)
                if fx is not None and fy is not None:
                    ok &= poset.leq(fx, fy)
    # decomposition round trip
    vals = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    for a in vals:
        for b in vals:
            pair = QuantPair(a, b, ("p",))
            sym, anti = sym_antisym_decompose(pair)
            ok &= sym.first == sym.second and anti.first == -anti.second
            ok &= (sym.first + anti.first, sym.second + anti.second) == (a, b)
            ok &= classify_interval(pair) in IntervalClass
    # closure vs oracle at 200 events
    poset200 = random_dag(200, 0.05, seed=3)
    edges = [(a, b) for a, b in poset200.cover_pairs()]
    closure = warshall_closure(200, edges)
    for a in range(0, 200, 3):
        for b in range(200):
            ok &= poset200.leq(a, b) == closure[a, b]
    # JSON round trip, byte for byte
    buf1 = io.StringIO()
    dump_json(bundle.poset, bundle.chains, buf1)
    buf1.seek(0)
    poset2, chains2 = load_json(buf1)
    buf2 = io.StringIO()
    dump_json(poset2, list(chains2.values()), buf2)
    ok &= buf1.getvalue() == buf2.getvalue()
    report(10, "structural properties", ok)
