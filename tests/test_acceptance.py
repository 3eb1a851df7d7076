"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced (plain `pytest` shows them for failing criteria only).
"""

import json
import math
import random
import time
from fractions import Fraction

from conftest import random_distribution, random_pair
from test_lattice import brute_force_upsets

from recone.cli import main as cli_main
from recone.cone import REVector, check_membership
from recone.lattice import enumerate_upsets, proper_submasks, subsets_in_order, upward_closure
from recone.realize import realize_ray, synthesize, verify
from recone.schemes import (
    dnf_scheme,
    scheme_state_pair,
    threshold_clause_scheme,
    verify_scheme,
    weighted_threshold_scheme,
)
from recone.states import (
    StatePair,
    binary_entropy,
    marginal,
    mix,
    re_vector,
    relative_entropy,
    shannon_entropy,
    tensor,
)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_weighted_gf5_regression():
    t0 = time.perf_counter()
    scheme = weighted_threshold_scheme(3, (2, 1, 1), 2, 5)
    vec = re_vector(scheme_state_pair(scheme))
    elapsed = time.perf_counter() - t0
    target = (1, 0, 0, 1, 1, 1, 1)
    worst = max(abs(a - t) for a, t in zip(vec.values, target))
    ok = worst <= 1e-9 and elapsed < 0.1
    report(1, ok,
           f"GF(5) weighted scheme vector {tuple(vec.values)}; "
           f"max deviation {worst:.2e} (tol 1e-9), runtime {elapsed * 1000:.1f} ms (< 100 ms)")


def test_criterion_2_two_clause_gf3_regression():
    t0 = time.perf_counter()
    structure = upward_closure({0b0011, 0b1100}, 4)
    pair = scheme_state_pair(threshold_clause_scheme(structure))
    vec = re_vector(pair)
    target = (0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    worst = max(abs(a - t) for a, t in zip(vec.values, target))
    rho_ab = marginal(pair.rho, 0b0011)
    support_ok = (rho_ab.atoms == (((0, 0), 1), ((1, 2), 1), ((2, 1), 1))
                  and rho_ab.denominator == 3)
    bc_ok = marginal(pair.rho, 0b0110) == marginal(pair.sigma, 0b0110)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and support_ok and bc_ok and elapsed < 0.5
    report(2, ok,
           f"two GF(3) clauses: max vector deviation {worst:.2e} (tol 1e-9), "
           f"rho_AB support/weights exact: {support_ok}, rho_BC == sigma_BC: {bc_ok}, "
           f"runtime {elapsed * 1000:.1f} ms (< 500 ms)")


def test_criterion_3_ray_table_and_count(capsys):
    expected_rows = [
        (0, 0, 0, 0, 0, 0, 1),
        (0, 0, 0, 1, 0, 0, 1),
        (0, 0, 0, 1, 1, 0, 1),
        (0, 0, 0, 1, 1, 1, 1),
        (1, 0, 0, 1, 1, 0, 1),
        (1, 0, 0, 1, 1, 1, 1),
        (1, 1, 0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1),
    ]
    code = cli_main(["rays", "--n", "3", "--classes"])
    lines = capsys.readouterr().out.splitlines()
    rows = [tuple(int(x) for x in line.split()[1:8]) for line in lines[1:9]]
    oracle = len(brute_force_upsets(3))
    enumerated = len(enumerate_upsets(3))
    ok = (code == 0 and len(lines) == 10 and rows == expected_rows
          and oracle == 18 and enumerated == 18)
    with capsys.disabled():
        report(3, ok,
               f"rays --n 3 --classes emitted {len(rows)} classes matching the "
               f"eight-ray table: {rows == expected_rows}; "
               f"up-set count {enumerated} == oracle {oracle} == 18")


def test_criterion_4_exhaustive_realization_n_up_to_4():
    worst = 0.0
    checked = 0
    elapsed_n4 = 0.0
    for n in (1, 2, 3, 4):
        t0 = time.perf_counter()
        for u in enumerate_upsets(n):
            audit = verify_scheme(dnf_scheme(u), u)
            assert audit.passed, (n, u.minimal_sets(), audit.failures)
            vec = re_vector(realize_ray(u, 1))
            dev = max(abs(a - t) for a, t in zip(vec.values, u.indicator_values()))
            worst = max(worst, dev)
            checked += 1
        if n == 4:
            elapsed_n4 = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed_n4 < 30
    report(4, ok,
           f"{checked} up-sets at n <= 4: every XOR scheme audit exact, "
           f"worst ray deviation {worst:.2e} (tol 1e-9), n=4 stage {elapsed_n4:.1f} s (< 30 s)")


def test_criterion_5_round_trip_synthesis_n3():
    rng = random.Random(555)
    upsets = enumerate_upsets(3)
    order = subsets_in_order(3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        picks = rng.sample(upsets, rng.randint(1, 4))
        coeffs = [rng.uniform(0.1, 3.0) for _ in picks]
        values = tuple(
            math.fsum(c for c, u in zip(coeffs, picks) if mask in u.members)
            for mask in order)
        target = REVector(3, values)
        result = synthesize(target)
        assert verify(target, result.pair, tol=1e-6).passed
        worst = max(worst, result.max_abs_error)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60
    report(5, ok,
           f"100 random members at n=3 synthesized and verified, worst error "
           f"{worst:.2e} (tol 1e-6), runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_6_monotonicity_and_ssa():
    rng = random.Random(606)
    order = subsets_in_order(3)
    mono_violations = 0
    ssa_violations = 0
    for _ in range(1000):
        sizes = tuple(rng.randint(2, 3) for _ in range(3))
        pair = random_pair(rng, 3, sizes)
        vec = re_vector(pair)
        for mask in order:
            for sub in proper_submasks(mask):
                hi, lo = vec.value(mask), vec.value(sub)
                if lo == math.inf:
                    if hi != math.inf:
                        mono_violations += 1
                elif hi != math.inf and hi < lo - 1e-12:
                    mono_violations += 1
        h = {m: shannon_entropy(marginal(pair.rho, m)) for m in (0b011, 0b110, 0b111, 0b010)}
        if h[0b011] + h[0b110] < h[0b111] + h[0b010] - 1e-12:
            ssa_violations += 1
    ok = mono_violations == 0 and ssa_violations == 0
    report(6, ok,
           f"1000 exact-rational pairs at n=3: {mono_violations} monotonicity "
           f"violations beyond 1e-12, {ssa_violations} strong-subadditivity violations")


def test_criterion_7_additivity_and_dilution():
    rng = random.Random(707)
    add_worst = 0.0
    for _ in range(100):
        a = random_pair(rng, 2, (2, 3))
        b = random_pair(rng, 2, (3, 2))
        lhs = re_vector(tensor(a, b))
        rhs = re_vector(a) + re_vector(b)
        for x, y in zip(lhs.values, rhs.values):
            if x == math.inf or y == math.inf:
                assert x == y
            else:
                add_worst = max(add_worst, abs(x - y))
    dilution_ok = True
    alpha_range = (math.inf, -math.inf)
    for lam in (Fraction(1, 100), Fraction(1, 10), Fraction(3, 10)):
        h2 = binary_entropy(float(lam))
        for _ in range(50):
            pair = random_pair(rng, 2, (3, 3), sigma_full_support=True)
            v = re_vector(pair)
            w = re_vector(StatePair(mix(pair.rho, pair.sigma, lam), pair.sigma))
            for mask in subsets_in_order(2):
                alpha = float(lam) * v.value(mask) - w.value(mask)
                alpha_range = (min(alpha_range[0], alpha), max(alpha_range[1], alpha))
                if not 0.0 <= alpha <= h2:
                    dilution_ok = False
    ok = add_worst <= 1e-10 and dilution_ok
    report(7, ok,
           f"additivity worst gap {add_worst:.2e} (tol 1e-10) on 100 tensor pairs; "
           f"dilution drop alpha in [{alpha_range[0]:.2e}, {alpha_range[1]:.2e}] stayed "
           f"inside [0, H2(lam)] for lam in {{0.01, 0.1, 0.3}} on 50 pairs each: {dilution_ok}")


def test_criterion_8_scope_note():
    # the universal statement (every monotone vector is realizable, for all
    # states and dimensions) is not numerically checkable beyond desk scale;
    # criteria 1-7 carry the evidence: exact regressions plus oracle suites
    report(8, True,
           "universal claim rests on criteria 1-7 (exact regressions, exhaustive "
           "small-n realization, property suites)")
