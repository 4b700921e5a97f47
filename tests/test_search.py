"""Enumeration, restartable cursors, the slow spectral oracle, batch
verification, and the EA fingerprint.

The searches are checked against flat rescans written inline: the same
condition evaluated over products of ranges with no pruning, so any
disagreement implicates the DFS bookkeeping.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import gf2n
from bentkit.boolfun import (
    BooleanFunction,
    algebraic_degree,
    derivative,
    dot_form,
    dual,
    is_bent,
    translate,
)
from bentkit.constructions import zlj_build
from bentkit.families import GoldParams, gold_bent_admissible, gold_function
from bentkit.search import (
    MuSearchSpec,
    ea_fingerprint,
    find_alphas,
    find_gold_lambdas,
    find_mu_tuples,
)
from util import (
    BatchSummary,
    batch_verify,
    brute_force_bent_check,
    ea_fingerprint_per_derivative,
    inner_product_fn,
    random_affine_image,
    random_function,
    random_mm_bent,
    xor_rank,
    xor_span,
)

F6 = inner_product_fn(6)


def rescan_second_derivative(f_star, r, independent):
    n = f_star.n
    good = []
    for tup in itertools.combinations(range(1, 1 << n), r):
        ok = all(
            (
                f_star
                ^ translate(f_star, a)
                ^ translate(f_star, b)
                ^ translate(f_star, a ^ b)
            ).weight()
            == 0
            for a, b in itertools.combinations(tup, 2)
        )
        if ok and (not independent or xor_rank(tup) == r):
            good.append(tup)
    return good


def test_mu_search_spec_validation(g64):
    with pytest.raises(ValueError):
        MuSearchSpec("second-derivative", 0, 5, f_star=F6)
    with pytest.raises(ValueError):
        MuSearchSpec("second-derivative", 2, -1, f_star=F6)
    with pytest.raises(ValueError):
        MuSearchSpec("second-derivative", 2, 5)
    with pytest.raises(ValueError):
        MuSearchSpec("gold-trace", 2, 5)
    with pytest.raises(ValueError):
        MuSearchSpec("cor9-trace", 2, 5, theta=1)
    with pytest.raises(ValueError):
        MuSearchSpec("no-such-mode", 2, 5)
    with pytest.raises(ValueError):
        MuSearchSpec("cor9-trace", 2, 5, theta=1, spec=gf2n.make_field(5))


def test_second_derivative_search_matches_rescan():
    for r in (1, 2, 3):
        want = rescan_second_derivative(dual(F6), r, True)
        got = find_mu_tuples(
            MuSearchSpec("second-derivative", r, 10**6, f_star=dual(F6))
        )
        assert got == want
        assert got == sorted(got)  # ascending lexicographic order


def test_search_respects_independence_flag():
    ms_free = MuSearchSpec(
        "second-derivative", 3, 10**6, require_independent=False, f_star=dual(F6)
    )
    free = find_mu_tuples(ms_free)
    assert (1, 2, 3) in free  # dependent but condition-satisfying
    strict = find_mu_tuples(
        MuSearchSpec("second-derivative", 3, 10**6, f_star=dual(F6))
    )
    assert (1, 2, 3) not in strict
    assert set(strict) < set(free)
    assert free == rescan_second_derivative(dual(F6), 3, False)


def test_search_limit_and_cursor_chunking():
    ms = MuSearchSpec("second-derivative", 2, 10**6, f_star=dual(F6))
    full = find_mu_tuples(ms)
    assert len(full) > 10
    for chunk in (1, 3, 7):
        ms_c = MuSearchSpec("second-derivative", 2, chunk, f_star=dual(F6))
        collected, cursor = [], None
        while True:
            got = find_mu_tuples(ms_c, cursor=cursor)
            collected.extend(got)
            if len(got) < chunk:
                break
            cursor = got[-1]
        assert collected == full
    with pytest.raises(ValueError):
        find_mu_tuples(ms, cursor=(1,))
    assert find_mu_tuples(MuSearchSpec("second-derivative", 2, 0, f_star=dual(F6))) == []


def test_gold_trace_search_matches_rescan(g64):
    p = GoldParams(g64, 0x2A, 1)
    got = find_mu_tuples(MuSearchSpec("gold-trace", 2, 10**6, gold=p))

    def cond(a, b):
        v = gf2n.mul(gf2n.frobenius(a, 1, g64), b, g64) ^ gf2n.mul(
            a, gf2n.frobenius(b, 1, g64), g64
        )
        return gf2n.trace_abs(gf2n.mul(0x2A, v, g64), g64)

    want = [
        (a, b)
        for a in range(1, 64)
        for b in range(a + 1, 64)
        if not cond(a, b) and xor_rank((a, b)) == 2
    ]
    assert got == want


def test_cor9_trace_search_matches_rescan(g64):
    theta = gf2n.subfield_elements(3, g64)[1]
    got = find_mu_tuples(
        MuSearchSpec("cor9-trace", 2, 10**6, theta=theta, spec=g64)
    )
    th_inv = gf2n.inverse(theta, g64)

    def cond(a, b):
        return gf2n.trace_abs(
            gf2n.mul(th_inv, gf2n.mul(a, gf2n.frobenius(b, 3, g64), g64), g64), g64
        )

    want = [
        (a, b)
        for a in range(1, 64)
        for b in range(a + 1, 64)
        if not cond(a, b) and xor_rank((a, b)) == 2
    ]
    assert got == want


def test_find_alphas_dot_and_trace(g64):
    # spanning tuple leaves only zero
    assert find_alphas((1, 2, 4, 8, 16, 32), 100, n=6) == [0]
    # empty tuple: the whole space, ascending, capped by the limit
    assert find_alphas((), 10, n=4) == list(range(10))
    members = find_alphas((1, 6), 100, spec=g64)
    want = sorted(
        a
        for a in range(64)
        if gf2n.trace_abs(gf2n.mul(a, 1, g64), g64) == 0
        and gf2n.trace_abs(gf2n.mul(a, 6, g64), g64) == 0
    )
    assert members == want
    dot = find_alphas((1, 6), 100, n=6)
    want_dot = sorted(
        a for a in range(64) if (a & 1).bit_count() % 2 == 0 and (a & 6).bit_count() % 2 == 0
    )
    assert dot == want_dot
    assert find_alphas((1, 6), 4, n=6) == want_dot[:4]  # limit truncates
    with pytest.raises(ValueError):
        find_alphas((1,), 5)
    with pytest.raises(ValueError):
        find_alphas((1,), 5, n=6, spec=g64)


def test_find_alphas_is_a_subspace(g64):
    members = find_alphas((9, 20), 1 << 6, spec=g64)
    assert set(members) == xor_span(members)


def test_find_gold_lambdas_matches_filter(g256, g64):
    got = find_gold_lambdas(g256, 2, 300)
    want = [
        lam
        for lam in range(256)
        if gold_bent_admissible(GoldParams(g256, lam, 2))
    ]
    assert got == want
    assert find_gold_lambdas(g256, 2, 3) == want[:3]
    resumed = find_gold_lambdas(g256, 2, 300, cursor=want[2])
    assert resumed == want[3:]
    assert find_gold_lambdas(g64, 2, 10) == []  # odd n/d leaves nothing


def test_brute_force_matches_butterfly():
    rng = random.Random(50)
    agree = 0
    for _ in range(60):
        f = random_function(rng, 6)
        assert brute_force_bent_check(f) == is_bent(f)
        agree += 1
    for _ in range(10):
        f = random_mm_bent(rng, 8)
        assert brute_force_bent_check(f)
    assert not brute_force_bent_check(BooleanFunction.from_bits(4, [0] * 16))
    assert not brute_force_bent_check(random_function(rng, 5))  # odd arity
    with pytest.raises(ValueError):
        brute_force_bent_check(random_function(rng, 13))


def test_batch_verify_counts(g64):
    reports = [
        zlj_build(F6, (mu,), BooleanFunction.from_bits(1, [0, 1]))
        for mu in (1, 2, 3, 9, 23)
    ]
    summary = batch_verify(reports)
    assert isinstance(summary, BatchSummary)
    assert summary.all_ok
    assert summary.total == 5 and summary.bent_ok == 5
    assert summary.dual_ok == 5 and summary.conditions_ok == 5
    assert summary.failures == ()
    # corrupt one dual table and one side condition
    broken = zlj_build(F6, (2,), BooleanFunction.from_bits(1, [0, 1]))
    broken.h_star = broken.h_star ^ BooleanFunction.from_bits(6, [1] + [0] * 63)
    flagged = zlj_build(F6, (3,), BooleanFunction.from_bits(1, [0, 1]))
    flagged.side_conditions = [("f-bent", False)]
    summary = batch_verify(reports + [broken, flagged])
    assert not summary.all_ok
    assert summary.total == 7
    assert summary.dual_ok == 6 and summary.conditions_ok == 6
    assert len(summary.failures) == 2


def test_fingerprint_basics():
    affine = dot_form(6, 11)
    fp = ea_fingerprint(affine)
    assert fp.degree == 1
    assert fp.derivative_degrees == ((0, 64),)
    assert "0:64" in str(fp)
    with pytest.raises(ValueError):
        ea_fingerprint(random_function(random.Random(51), 15))


def test_fingerprint_is_affine_invariant():
    rng = random.Random(52)
    h = zlj_build(F6, (1, 6), BooleanFunction.from_bits(2, [0, 0, 0, 1])).h
    fp = ea_fingerprint(h)
    for _ in range(50):
        assert ea_fingerprint(random_affine_image(rng, h)) == fp


def test_fingerprint_separates_degrees():
    from bentkit.constructions import correduced_build

    h = zlj_build(F6, (1, 6), BooleanFunction.from_bits(2, [0, 0, 0, 1])).h
    hh = correduced_build(
        F6, 6, (1, 6), BooleanFunction.from_bits(3, [0] * 7 + [1])
    ).h
    assert algebraic_degree(h) == 2 and algebraic_degree(hh) == 3
    assert ea_fingerprint(h) != ea_fingerprint(hh)
    assert ea_fingerprint(h).degree == 2
    assert ea_fingerprint(hh).degree == 3


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fingerprint_matches_per_derivative_oracle(data):
    n = data.draw(st.integers(1, 9))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # a random function of the first k variables plus a random quadratic,
    # so the derivative degrees spread out
    k = data.draw(st.integers(0, n))
    low = random_function(rng, k) if k else BooleanFunction.const(1, rng.randrange(2))
    h = BooleanFunction.from_bits(n, [low(x & ((1 << k) - 1)) for x in range(1 << n)])
    h ^= dot_form(n, rng.randrange(1 << n)) & dot_form(n, rng.randrange(1 << n))
    assert ea_fingerprint(h) == ea_fingerprint_per_derivative(h)


def test_fingerprint_memory_is_bounded_by_its_chunk():
    # an all-pairs index array would take 128 MB at n = 12 in int64
    h = random_function(random.Random(53), 12)
    tracemalloc.start()
    try:
        fp = ea_fingerprint(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(c for _, c in fp.derivative_degrees) == 1 << 12
    assert peak < 2 << 20
