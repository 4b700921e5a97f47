"""Enumeration, restartable cursors, the slow spectral oracle, batch
verification, and the EA fingerprint.

The searches are checked against flat rescans written inline (the same
condition evaluated over products of ranges with no pruning) and against
the depth-first search the subspace walk replaced, which tests every
candidate through the scalar pair oracles.  The walk's own pieces are
checked as laws: partner covectors against the pair conditions, period
spaces against brute-force second derivatives, and the ascending walk
against the sorted span.  A disagreement with a rescan or with the old
search implicates the walk's subspace bookkeeping.
"""

import dataclasses
import itertools
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import families, gf2n, search
from bentkit.boolfun import (
    BooleanFunction,
    _derivative_degrees,
    algebraic_degree,
    derivative,
    dot_form,
    dual,
    is_bent,
    translate,
    wht,
)
from bentkit.constructions import _d2_nonzero, zlj_build
from bentkit.errors import UnsupportedDegree
from bentkit.families import GoldParams, gold_bent_admissible, gold_function
from bentkit.search import (
    MuSearchSpec,
    _ascending,
    ea_fingerprint,
    find_alphas,
    find_gold_lambdas,
    find_mu_tuples,
)
from util import (
    BatchSummary,
    _cor9_pair_condition,
    _gold_pair_condition,
    batch_verify,
    brute_force_bent_check,
    d2_nonzero_unpacked,
    derivative_degrees,
    ea_fingerprint_per_derivative,
    find_alphas_sorted,
    find_mu_tuples_dfs,
    inner_product_fn,
    random_affine_image,
    random_function,
    random_mm_bent,
    scalar_cor9_tables,
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


@pytest.mark.parametrize("mode", ["second-derivative", "gold-trace", "cor9-trace"])
def test_mu_search_r_is_capped_by_the_r_of_phi_row(mode):
    # each tuple fills the mu slots of some F, whose arity is capped at 16
    spec = gf2n.make_field(6)
    kw = {"second-derivative": {"f_star": F6}, "gold-trace": {"gold": GoldParams(spec, 1, 3)},
          "cor9-trace": {"theta": 1, "spec": spec}}[mode]
    for r in (0, 17):
        why = f"r of phi must be in 1..16, got {r}"
        with pytest.raises(UnsupportedDegree, match=f"^{re.escape(why)}$"):
            MuSearchSpec(mode, r, 1, **kw)
    # only the vanishing gold form (lam = 1, t = n/2) has 16 pairwise
    # partners, all of them dependent; the other forms are isotropic in at
    # most 3 dimensions
    for independent in (True, False):
        ms = MuSearchSpec(mode, 16, 1, independent, **kw)
        assert (ms.r, ms.n) == (16, 6)
        vanishing = mode == "gold-trace" and not independent
        assert find_mu_tuples(ms) == ([tuple(range(1, 17))] if vanishing else [])


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
    for bad in ((-5, 3), (1, 1 << 6)):
        with pytest.raises(ValueError, match="outside the 6-variable domain"):
            find_mu_tuples(ms, cursor=bad)
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


def test_find_gold_lambdas_matches_admissibility_at_every_small_degree():
    rng = random.Random(54)
    for n in range(1, 11):
        spec = gf2n.make_field(n)
        for t in range(n + 2):
            want = [lam for lam in range(1 << n) if gold_bent_admissible(GoldParams(spec, lam, t))]
            assert find_gold_lambdas(spec, t, 1 << n) == want
            cursor = rng.randrange(1 << n)
            assert find_gold_lambdas(spec, t, 7, cursor) == [lam for lam in want if lam > cursor][:7]
    with pytest.raises(ValueError):
        find_gold_lambdas(gf2n.make_field(6), -1, 4)
    for bad in (-5, 0x40, 0x99):
        with pytest.raises(ValueError, match="outside the 6-variable domain"):
            find_gold_lambdas(gf2n.make_field(6), 1, 4, bad)


def test_find_gold_lambdas_memory_stays_small():
    # byte tables of the Frobenius, not a whole-field table (4 MB at n = 20)
    spec = gf2n.make_field(20)
    tracemalloc.start()
    try:
        found = find_gold_lambdas(spec, 1, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 48 and peak < 1 << 20


def test_find_gold_lambdas_odd_quotient_tests_no_candidate(monkeypatch):
    # n/gcd(t, n) odd: no lam is admissible, so nothing may be scanned
    def refuse(*args):
        raise AssertionError("candidate tested")

    monkeypatch.setattr(families, "gold_in_S", refuse)
    monkeypatch.setattr(gf2n, "frobenius_array", refuse)
    monkeypatch.setattr(gf2n, "mul_array", refuse)
    assert find_gold_lambdas(gf2n.make_field(15), 1, 16) == []
    assert find_gold_lambdas(gf2n.make_field(12), 4, 16) == []  # 12/gcd(4, 12) = 3


# ----------------------------------------------------- the subspace walk


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partner_covector_is_the_pair_condition(data):
    n = data.draw(st.sampled_from([2, 4, 6, 8, 10]))
    spec = gf2n.make_field(n)
    a, b = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, (1 << n) - 1))
    p = GoldParams(spec, data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 2 * n)))
    # parity(k_a & b) is the scalar trace condition and, the duals being
    # quadratic, the constant second derivative D_a D_b of the dual
    k_a, = MuSearchSpec("gold-trace", 2, 1, gold=p).partners(a)
    assert (k_a & b).bit_count() & 1 == _gold_pair_condition(p, a, b) == _d2_nonzero(gold_function(p))(a, b)
    theta = data.draw(st.sampled_from(gf2n.subfield_elements(n // 2, spec)[1:]))
    ms = MuSearchSpec("cor9-trace", 2, 1, theta=theta, spec=spec)
    k_a, = ms.partners(a)
    _, cor9_dual = scalar_cor9_tables(spec, theta)
    pair = _cor9_pair_condition(spec, gf2n.inverse(theta, spec), a, b)
    assert (k_a & b).bit_count() & 1 == pair == _d2_nonzero(cor9_dual)(a, b)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_period_space_is_the_vanishing_second_derivative(data):
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # bent, random, or with a large linear space, so every space size occurs
    kind = data.draw(st.sampled_from(["bent", "random", "linear-space"]))
    if kind == "bent" and n % 2 == 0:
        f = random_mm_bent(rng, n)
    elif kind == "linear-space":
        k = data.draw(st.integers(0, n))
        low = random_function(rng, k) if k else BooleanFunction.const(1, 1)
        f = BooleanFunction.from_bits(n, [low(x >> (n - k)) if k else 0 for x in range(1 << n)])
    else:
        f = random_function(rng, n)
    a = data.draw(st.integers(0, (1 << n) - 1))
    rows = MuSearchSpec("second-derivative", 2, 1, f_star=f).partners(a)
    fails, packed = d2_nonzero_unpacked(f), _d2_nonzero(f)
    assert xor_span(gf2n.nullspace(rows, n)) == {b for b in range(1 << n) if not fails(a, b)}
    assert all(packed(a, b) == fails(a, b) for b in range(1 << n))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ascending_walk_is_the_sorted_span(data):
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=n + 1))
    basis = gf2n.nullspace(rows, n)
    members = sorted(xor_span(basis))
    start = data.draw(st.integers(0, (1 << n) + 1))
    assert list(_ascending(basis, start)) == [v for v in members if v >= start]
    # one more row keeps the form: the walk is the filtered span
    row = data.draw(st.integers(0, (1 << n) - 1))
    cut = gf2n.nullspace(rows + [row], n)
    assert list(_ascending(cut, 0)) == [v for v in members if (v & row).bit_count() % 2 == 0]


def _draw_search(data, n_max):
    mode = data.draw(st.sampled_from(["second-derivative", "gold-trace", "cor9-trace"]))
    r = data.draw(st.integers(1, 4))
    limit = data.draw(st.sampled_from([1, 2, 5, 17, 60]))
    independent = data.draw(st.booleans())
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if mode == "second-derivative":
        # bent tables up to n = 8; random ones, for which the old search
        # scans far longer, up to n = 6
        if data.draw(st.booleans()):
            f = random_mm_bent(rng, data.draw(st.sampled_from([2, 4, 6, 8])))
        else:
            f = random_function(rng, data.draw(st.integers(1, 6)))
        return MuSearchSpec(mode, r, limit, independent, f_star=f)
    n = data.draw(st.sampled_from([k for k in (2, 4, 6, 8, 10) if k <= n_max]))
    spec = gf2n.make_field(n)
    if mode == "gold-trace":
        p = GoldParams(spec, rng.randrange(1 << n), rng.randrange(2 * n))
        return MuSearchSpec(mode, r, limit, independent, gold=p)
    theta = rng.choice(gf2n.subfield_elements(n // 2, spec)[1:])
    return MuSearchSpec(mode, r, limit, independent, theta=theta, spec=spec)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_walk_matches_depth_first_oracle(data):
    ms = _draw_search(data, 10)
    n = ms.n
    cursor = None
    if data.draw(st.booleans()):
        # increasing tuples and arbitrary ones, zero and past-the-end included
        cursor = tuple(data.draw(st.lists(st.integers(-1, (1 << n) + 1), min_size=ms.r, max_size=ms.r)))
        if data.draw(st.booleans()):
            cursor = tuple(sorted(cursor))
        if not all(0 <= c < 1 << n for c in cursor):
            with pytest.raises(ValueError, match=f"cursor .* outside the {n}-variable domain"):
                find_mu_tuples(ms, cursor)
            return
    assert find_mu_tuples(ms, cursor) == find_mu_tuples_dfs(ms, cursor)


def test_oversized_trace_tuple_returns_at_once():
    # the gold form at n = 10, t = 1, lam = 2 has isotropic subspaces of
    # dimension 5 and none larger; without the bound, r = 6 walks every
    # isotropic 5-tuple before it gives up
    p = GoldParams(gf2n.make_field(10), 2, 1)
    start = time.perf_counter()
    assert find_mu_tuples(MuSearchSpec("gold-trace", 6, 1, gold=p)) == []
    assert time.perf_counter() - start < 1
    assert len(find_mu_tuples(MuSearchSpec("gold-trace", 5, 1, gold=p))) == 1


def test_oversized_quadratic_dual_tuple_returns_at_once():
    # the inner-product function is its own dual, with second derivatives
    # the symplectic form of isotropic dimension n/2; without the bound,
    # r = n/2 + 1 walks every shorter tuple first
    for n, r in ((8, 5), (10, 6)):
        start = time.perf_counter()
        assert find_mu_tuples(MuSearchSpec("second-derivative", r, 1, f_star=inner_product_fn(n))) == []
        assert time.perf_counter() - start < 1
    assert len(find_mu_tuples(MuSearchSpec("second-derivative", 4, 1, f_star=inner_product_fn(8)))) == 1


# the cubic x0x3 + x1x4 + x2x5 + x3x4x5, with no independent 4-tuple
CUBIC6 = BooleanFunction.from_bits(6, [(x & x >> 3 & 7).bit_count() + (x >> 3 & 7 == 7) & 1 for x in range(64)])


def test_second_derivative_walk_transforms_each_shift_once(monkeypatch):
    # r = 4 walks many shorter tuples, picking each shift at many nodes
    transforms, shifts = [], set()
    monkeypatch.setattr(search, "wht", lambda f, *a: transforms.append(f) or wht(f, *a))
    monkeypatch.setattr(search, "derivative", lambda f, a: shifts.add(a) or derivative(f, a))
    assert find_mu_tuples(MuSearchSpec("second-derivative", 4, 100, f_star=CUBIC6)) == []
    assert 0 < len(transforms) <= len(shifts) <= (1 << CUBIC6.n) - 1


def test_independent_walk_skips_kernels_below_r_dimensions(monkeypatch):
    # each element is its own period and pairs are mutual, so a tuple lies in
    # the kernel of its prefix's period rows; a kernel of fewer than r
    # dimensions holds no independent completion and is never walked
    dims = []
    monkeypatch.setattr(search, "_ascending", lambda space, start: dims.append(len(space)) or _ascending(space, start))
    for r in (3, 4):
        ms = MuSearchSpec("second-derivative", r, 1000, f_star=CUBIC6)
        dims.clear()
        assert find_mu_tuples(ms) == find_mu_tuples_dfs(ms)
        assert dims and min(dims) >= r


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_trace_walk_past_the_isotropic_dimension_matches_the_oracle(data):
    # r up to n + 2 crosses the largest isotropic subspace of every form,
    # the zero form (lam = 0, or t a multiple of n) included; in
    # second-derivative mode the quadratic dual is a gold function
    mode = data.draw(st.sampled_from(["gold-trace", "cor9-trace", "second-derivative"]))
    n = data.draw(st.sampled_from([2, 4, 6] if mode == "cor9-trace" else range(1, 7)))
    spec = gf2n.make_field(n)
    r, independent = data.draw(st.integers(1, n + 2)), data.draw(st.booleans())
    limit = data.draw(st.sampled_from([1, 5, 60]))
    if mode != "cor9-trace":
        p = GoldParams(spec, data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 2 * n)))
        kw = {"gold": p} if mode == "gold-trace" else {"f_star": gold_function(p)}
        ms = MuSearchSpec(mode, r, limit, independent, **kw)
    else:
        theta = data.draw(st.sampled_from(gf2n.subfield_elements(n // 2, spec)[1:]))
        ms = MuSearchSpec(mode, r, limit, independent, theta=theta, spec=spec)
    if independent and r > n:
        # no r independent vectors in n dimensions; the oracle would first
        # try every shorter independent tuple, about 10^7 under the zero
        # form at n = 6
        assert find_mu_tuples(ms) == []
    else:
        assert find_mu_tuples(ms) == find_mu_tuples_dfs(ms)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_chunked_walk_resumes_by_cursor(data):
    ms = _draw_search(data, 8)
    whole = find_mu_tuples(dataclasses.replace(ms, limit=200))
    assert whole == find_mu_tuples_dfs(dataclasses.replace(ms, limit=200))
    chunk = data.draw(st.integers(1, 7))
    ms_c = dataclasses.replace(ms, limit=chunk)
    collected, cursor = [], None
    while len(collected) < len(whole):
        got = find_mu_tuples(ms_c, cursor)
        assert got, "a chunk came back empty before the stream ended"
        collected += got
        cursor = got[-1]
    assert collected[: len(whole)] == whole


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_find_alphas_matches_sorted_listing(data):
    n = data.draw(st.integers(1, 10))
    mus = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=4))
    limit = data.draw(st.integers(0, (1 << n) + 2))
    assert find_alphas(mus, limit, n=n) == find_alphas_sorted(mus, limit, n=n)
    spec = gf2n.make_field(n)
    assert find_alphas(mus, limit, spec=spec) == find_alphas_sorted(mus, limit, spec=spec)


def test_find_alphas_lists_only_what_it_returns():
    spec = gf2n.make_field(20)
    gf2n.covector(1, spec)  # field tables outside the measurement
    for kwargs in ({"n": 20}, {"spec": spec}):
        tracemalloc.start()
        try:
            got = find_alphas((0x9A3C1,), 4, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 4 and got[0] == 0
        assert peak < 64 << 10  # the whole subspace would be 2^19 members
    with pytest.raises(ValueError):
        find_alphas((1,), -1, n=4)


def test_trace_mode_searches_take_every_field_degree():
    # the trace modes tabulate n basis images and walk subspaces: no 2^n work
    spec = gf2n.make_field(20)
    gold = GoldParams(spec, 2, 1)
    gf2n.covector(1, spec), gf2n.frobenius_images(1, spec)  # field tables outside the measurement
    tracemalloc.start()
    try:
        got = find_mu_tuples(MuSearchSpec("gold-trace", 2, 4, gold=gold))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10
    assert len(got) == 4 and all(not _gold_pair_condition(gold, a, b) for a, b in got)
    theta = gf2n.subfield_elements(10, spec)[5]
    for a, b in find_mu_tuples(MuSearchSpec("cor9-trace", 2, 4, theta=theta, spec=spec)):
        assert not _cor9_pair_condition(spec, gf2n.inverse(theta, spec), a, b)
    why = r"^n of the second-derivative search must be in 1\.\.16, got 18$"
    with pytest.raises(UnsupportedDegree, match=why):
        find_mu_tuples(MuSearchSpec("second-derivative", 2, 4, f_star=BooleanFunction(18, 0)))


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
    assert summary.dual_ok == 5
    assert summary.failures == ()
    # corrupt one dual table
    broken = zlj_build(F6, (2,), BooleanFunction.from_bits(1, [0, 1]))
    broken.h_star = broken.h_star ^ BooleanFunction.from_bits(6, [1] + [0] * 63)
    summary = batch_verify(reports + [broken])
    assert not summary.all_ok
    assert summary.total == 6
    assert summary.bent_ok == 6 and summary.dual_ok == 5
    assert summary.failures == (5,)


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
    n = data.draw(st.integers(1, 10))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    # a random function of the first k variables plus a random quadratic,
    # so the derivative degrees spread out
    k = data.draw(st.integers(0, n))
    low = random_function(rng, k) if k else BooleanFunction.const(1, rng.randrange(2))
    h = BooleanFunction.from_bits(n, [low(x & ((1 << k) - 1)) for x in range(1 << n)])
    h ^= dot_form(n, rng.randrange(1 << n)) & dot_form(n, rng.randrange(1 << n))
    assert ea_fingerprint(h) == ea_fingerprint_per_derivative(h)


def test_fingerprint_batches_match_one_call_and_the_oracle():
    # at n = 12 the fingerprint runs four blocks of 1,024 derivatives; the
    # byte kernel's one batch of every shift gives each a its degree
    h = random_function(random.Random(54), 12)
    fp = ea_fingerprint(h)
    degrees = _derivative_degrees(h)
    assert np.array_equal(degrees, derivative_degrees(h, np.arange(1 << 12, dtype=np.uint16)))
    counts = np.bincount(degrees)
    assert fp.derivative_degrees == tuple((d, int(c)) for d, c in enumerate(counts) if c)
    assert fp == ea_fingerprint_per_derivative(h)


def test_fingerprint_memory_is_bounded_by_its_chunk():
    # an all-pairs index array would take 128 MB at n = 12 in int64
    for n in (12, 14):
        h = random_function(random.Random(53), n)
        tracemalloc.start()
        try:
            fp = ea_fingerprint(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(c for _, c in fp.derivative_degrees) == 1 << n
        assert peak < 2 << 20
