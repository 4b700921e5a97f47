"""End-to-end acceptance gate.

One criterion per test, one printed PASS/FAIL line each, every check in
exact integer arithmetic.  Runtime budgets are part of the contract and
asserted where stated.
"""

import math
import random
import time

import numpy as np

from bentkit import gf2n
from bentkit.boolfun import (
    BooleanFunction,
    VectorialFunction,
    algebraic_degree,
    derivative,
    dot_form,
    dual,
    is_bent,
    linear_form,
    translate,
    wht,
)
from bentkit.constructions import (
    build_generic,
    carlet_build,
    check_property_pr,
    cornew_build,
    correduced_build,
    mesnager2_build,
    mesnager_build,
    zlj_build,
)
from bentkit.errors import SideConditionFailed
from bentkit.families import (
    GoldParams,
    MMParams,
    corn4t_build,
    gold_bent_admissible,
    gold_dual,
    gold_function,
    mm_dual,
    mm_function,
)
from bentkit.search import ea_fingerprint, find_alphas, find_mu_tuples, MuSearchSpec
from util import check_odd_sum_condition, inner_product_fn, random_function, random_mm_bent, sylvester

G16 = gf2n.make_field(4)
G64 = gf2n.make_field(6)
G256 = gf2n.make_field(8)


def run_criterion(tag, budget, body):
    t0 = time.perf_counter()
    try:
        body()
        ok, detail = True, ""
    except Exception as exc:  # noqa: BLE001 - verdict line must always print
        ok, detail = False, f" [{type(exc).__name__}: {exc}]"
    elapsed = time.perf_counter() - t0
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s){detail}", flush=True)
    assert ok, f"{tag}{detail}"
    if budget is not None:
        assert elapsed < budget, f"{tag} took {elapsed:.2f}s, budget {budget}s"


def test_a1_spectral_core():
    def body():
        rng = random.Random(101)
        for n in (2, 4, 6, 8):
            size = 1 << n
            h = sylvester(n)
            for _ in range(100):
                f = random_function(rng, n)
                w = wht(f).values.astype(np.int64)
                assert int((w * w).sum()) == size * size  # exact Parseval
                back = w @ h  # inverse transform up to the 2^n factor
                signs = 1 - 2 * f.bits().astype(np.int64)
                assert np.array_equal(back, size * signs)

    run_criterion("A1", 5.0, body)


GOLD_CONFIGS = ((G16, 1), (G16, 2), (G64, 1), (G64, 3), (G256, 1), (G256, 2), (G256, 4))


def test_a2_gold_biconditional():
    def body():
        for spec, t in GOLD_CONFIGS:
            for lam in range(1 << spec.n):
                p = GoldParams(spec, lam, t)
                assert is_bent(gold_function(p)) == gold_bent_admissible(p)

    run_criterion("A2", 30.0, body)


def test_a3_gold_dual_closed_form():
    def body():
        for spec, t in GOLD_CONFIGS:
            for lam in range(1 << spec.n):
                p = GoldParams(spec, lam, t)
                if gold_bent_admissible(p):
                    assert gold_dual(p) == dual(gold_function(p), spec)

    run_criterion("A3", 60.0, body)


def test_a4_certified_duals_for_every_F():
    def body():
        from bentkit.families import _gold_pair_condition

        p = next(
            GoldParams(G256, lam, 2)
            for lam in range(2, 256)
            if gold_bent_admissible(GoldParams(G256, lam, 2))
        )
        f = gold_dual(p)
        a, b = next(
            (a, b)
            for a in range(1, 256)
            for b in range(a + 1, 256)
            if not _gold_pair_condition(p, a, b)
        )
        alpha = next(
            v
            for v in range(1, 256)
            if gf2n.trace_abs(gf2n.mul(v, a, G256), G256) == 0
            and gf2n.trace_abs(gf2n.mul(v, b, G256), G256) == 0
        )
        phi = VectorialFunction(
            8,
            3,
            (
                f ^ translate(f, alpha),
                linear_form(G256, a),
                linear_form(G256, b),
            ),
        )
        cert = check_property_pr(f, phi, G256)
        assert cert.holds
        for table in range(256):
            F = BooleanFunction.from_bits(3, [table >> z & 1 for z in range(8)])
            rep = build_generic(f, F, phi, cert)
            assert rep.bent
            assert rep.h_star == dual(rep.h, G256)

    run_criterion("A4", 60.0, body)


def test_a5_certificate_equals_odd_sum_rule():
    def body():
        rng = random.Random(105)
        outcomes = {True: 0, False: 0}
        trials = 0
        while trials < 60:
            f = random_mm_bent(rng, 6)
            r = rng.choice((2, 3))
            if rng.random() < 0.5:
                mus = rng.sample((8, 16, 24, 32, 40, 48, 56), r)  # high half
            else:
                mus = rng.sample(range(1, 64), r)
            phi = VectorialFunction(6, r, tuple(dot_form(6, m) for m in mus))
            gs = [f ^ dot_form(6, m) for m in mus]
            verdict = check_property_pr(f, phi).holds
            assert verdict == check_odd_sum_condition(f, gs)
            outcomes[verdict] += 1
            trials += 1
        assert outcomes[True] >= 5 and outcomes[False] >= 5

    run_criterion("A5", None, body)


def test_a6_six_variable_walkthrough():
    def body():
        f = inner_product_fn(6)
        mu2, mu3 = 1, 6
        f_star = dual(f)
        assert derivative(derivative(f_star, mu2), mu3).weight() == 0
        for table in range(16):
            F = BooleanFunction.from_bits(2, [table >> z & 1 for z in range(4)])
            rep = zlj_build(f, (mu2, mu3), F)
            assert rep.ok
        h = zlj_build(f, (mu2, mu3), BooleanFunction.from_bits(2, [0, 0, 0, 1])).h
        assert algebraic_degree(h) == 2
        alpha = mu3
        hh = correduced_build(
            f, alpha, (mu2, mu3), BooleanFunction.from_bits(3, [0] * 7 + [1])
        ).h
        assert is_bent(hh) and algebraic_degree(hh) == 3
        assert ea_fingerprint(h) != ea_fingerprint(hh)

    run_criterion("A6", 5.0, body)


def test_a7_alpha_zero_reduction():
    def body():
        rng = random.Random(107)
        count = 0
        for n in (6, 8):
            highs = [1 << k for k in range(n // 2, n)]
            for _ in range(10):
                f = random_mm_bent(rng, n)
                r = rng.choice((2, 3))
                mus = tuple(rng.sample(highs, r - 1))
                F = random_function(rng, r)
                rep = correduced_build(f, 0, mus, F)
                F0 = BooleanFunction.from_bits(
                    r - 1, [F(z << 1) for z in range(1 << (r - 1))]
                )
                ref = zlj_build(f, mus, F0)
                assert rep.ok and ref.ok
                assert rep.h.table == ref.h.table
                assert rep.h_star.table == ref.h_star.table
                count += 1
        assert count == 20

    run_criterion("A7", None, body)


def test_a8_mm_dual_closed_form():
    def body():
        rng = random.Random(108)
        for spec in (G16, G64, G256):
            m = spec.n // 2
            units = [k for k in range(1, 1 << m) if math.gcd(k, (1 << m) - 1) == 1]
            for _ in range(50):
                lam = rng.randrange(1 << spec.n)
                while gf2n.in_subfield(lam, m, spec):
                    lam = rng.randrange(1 << spec.n)
                if rng.random() < 0.5:
                    pi = rng.choice(units)
                else:
                    tab = list(range(1 << m))
                    rng.shuffle(tab)
                    pi = tuple(tab)
                g_sub = random_function(rng, m)
                p = MMParams(spec, lam, rng.randrange(3), pi, g_sub)
                assert mm_dual(p) == dual(mm_function(p), spec)
        subfield = gf2n.subfield_elements(4, G256)
        for _ in range(20):
            lam = subfield[rng.randrange(16)]
            tab = list(range(16))
            rng.shuffle(tab)
            p = MMParams(G256, lam, rng.randrange(3), tuple(tab), random_function(rng, 4))
            assert not is_bent(mm_function(p))

    run_criterion("A8", 120.0, body)


def test_a9_n_equals_4t_dual_coefficient():
    def body():
        const1 = BooleanFunction.from_bits(1, [0, 0])
        special = [
            lam
            for lam in gf2n.subfield_elements(4, G256)
            if lam ^ gf2n.frobenius(lam, 2, G256) == 1
        ]
        assert special
        for lam in special:
            rep = corn4t_build(G256, lam, (), 0, const1)
            assert rep.ok
            assert rep.params["p_lam"] == lam
            assert rep.h_star == gold_function(GoldParams(G256, lam, 2))
        lam0 = special[0]
        mus = find_mu_tuples(
            MuSearchSpec("gold-trace", 2, 1, gold=GoldParams(G256, lam0, 2))
        )[0]
        alpha = [a for a in find_alphas(mus, 4, spec=G256) if a][0]
        rng = random.Random(109)
        for _ in range(20):
            F = random_function(rng, 3)
            rep = corn4t_build(G256, lam0, mus, alpha, F)
            assert rep.ok
            assert rep.h_star == dual(rep.h, G256)

    run_criterion("A9", None, body)


def test_a10_cross_consistency():
    def body():
        rng = random.Random(110)

        def valid_pair(d):
            while True:
                a, b = rng.randrange(1, 64), rng.randrange(1, 64)
                if a != b and derivative(derivative(d, a), b).weight() == 0:
                    return a, b

        def invalid_pair(d):
            while True:
                a, b = rng.randrange(1, 64), rng.randrange(1, 64)
                if a != b and derivative(derivative(d, a), b).weight() != 0:
                    return a, b

        F_prod = BooleanFunction.from_bits(2, [0, 0, 0, 1])
        for _ in range(20):
            f1 = random_mm_bent(rng, 6)
            d1 = dual(f1, G64)
            a, b = valid_pair(d1)
            f2 = f1 ^ linear_form(G64, b)
            r_new = cornew_build(f1, f2, (a,), F_prod, spec=G64)
            r_two = mesnager2_build(f1, f2, a, spec=G64)
            assert r_new.ok and r_two.ok
            assert r_new.h.table == r_two.h.table
            assert r_new.h_star.table == r_two.h_star.table
        for _ in range(20):
            f = random_mm_bent(rng, 6)
            d = dual(f, G64)
            a, b = valid_pair(d)
            r_car = carlet_build(
                f, f ^ linear_form(G64, a), f ^ linear_form(G64, b), spec=G64
            )
            r_mes = mesnager_build(f, a, b, spec=G64)
            assert r_car.ok and r_mes.ok
            assert r_car.h.table == r_mes.h.table
            assert r_car.h_star.table == r_mes.h_star.table
        for _ in range(20):
            f = random_mm_bent(rng, 6)
            a, b = invalid_pair(dual(f, G64))
            try:
                mesnager_build(f, a, b, spec=G64)
                raise AssertionError("invalid pair accepted")
            except SideConditionFailed:
                pass
            h = f ^ (linear_form(G64, a) & linear_form(G64, b))
            assert not is_bent(h)

    run_criterion("A10", None, body)
