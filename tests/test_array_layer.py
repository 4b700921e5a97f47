"""The array layer of gf2n and the table builders that run on it.

Array arithmetic is checked against the scalar field functions: every
pair for n <= 8, and random samples at n = 16, 20 and 24, where a shift
of a 24-bit element reaches bit 24 of the uint32 word.  Each family table
is checked byte for byte against the per-element scalar loops kept in
util as oracles, at fixed parameters and as laws over drawn ones.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bentkit import gf2n
from bentkit.boolfun import BooleanFunction, derivative, linear_form
from bentkit.families import (
    GoldParams,
    _exp,
    MMParams,
    _mm_u,
    _mm_z,
    _smallest_omega,
    _subfield_embedding,
    cort_m_build,
    gold_bent_admissible,
    gold_dual,
    gold_function,
    mm_dual,
    mm_function,
    thmm_build,
)
from bentkit.search import find_gold_lambdas
from util import (
    from_trace_monomial,
    mul_array_bit_sliced,
    power_array,
    scalar_cor9_slot,
    scalar_cor9_tables,
    scalar_gold_companion,
    scalar_gold_dual,
    scalar_gold_function,
    scalar_mm_dual,
    scalar_mm_function,
    scalar_mm_u_table,
    scalar_thmm_companion,
    scalar_trace_monomial,
    trace_array,
)

SMALL = range(1, 9)
WIDE = (16, 20, 24)


def elements(spec):
    return np.arange(1 << spec.n, dtype=np.uint32)


# ------------------------------------------------------------ arithmetic


@pytest.mark.parametrize("n", SMALL)
def test_mul_array_exhaustive(n):
    spec = gf2n.make_field(n)
    a, b = np.meshgrid(elements(spec), elements(spec), indexing="ij")
    expected = [[gf2n.mul(x, y, spec) for y in range(1 << n)] for x in range(1 << n)]
    assert np.array_equal(gf2n.mul_array(a, b, spec), expected)
    for c in (0, 1, (1 << n) - 1):
        assert np.array_equal(gf2n.mul_array(elements(spec), c, spec), expected[c])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mul_array_matches_scalar_mul(data):
    # 1-D and 2-D arrays, a scalar on either side, 0 and all-ones drawn often
    n = data.draw(st.integers(9, 24))
    spec = gf2n.make_field(n)
    element = st.one_of(st.sampled_from([0, 1, (1 << n) - 1]), st.integers(0, (1 << n) - 1))
    shape = data.draw(st.sampled_from([(12,), (3, 4)]))
    a, b = (np.array(data.draw(st.lists(element, min_size=12, max_size=12)), np.uint32).reshape(shape) for _ in "ab")
    c = data.draw(element)
    xs = a.ravel().tolist()
    cases = [(gf2n.mul_array(a, b, spec), [gf2n.mul(x, y, spec) for x, y in zip(xs, b.ravel().tolist())])]
    cases += [(got, [gf2n.mul(x, c, spec) for x in xs]) for got in (gf2n.mul_array(a, c, spec), gf2n.mul_array(c, a, spec))]
    for got, expected in cases:
        assert got.dtype == np.uint32 and got.shape == shape and got.ravel().tolist() == expected
    assert np.array_equal(cases[0][0], mul_array_bit_sliced(a, b, spec))


@pytest.mark.parametrize("n", SMALL)
def test_power_and_trace_arrays_exhaustive(n):
    spec = gf2n.make_field(n)
    xs = elements(spec)
    for e in (0, 1, 2, 3, 5, (1 << n) - 2, (1 << n) + 6):
        assert np.array_equal(power_array(xs, e, spec), [gf2n.power(x, e, spec) for x in range(1 << n)])
    for coeff in range(1 << n):
        expected = [gf2n.trace_abs(gf2n.mul(coeff, x, spec), spec) for x in range(1 << n)]
        assert np.array_equal(trace_array(xs, spec, coeff), expected)
    with pytest.raises(ValueError):
        power_array(xs, -1, spec)


@pytest.mark.parametrize("n", SMALL)
def test_frobenius_table_exhaustive(n):
    spec = gf2n.make_field(n)
    field = np.arange(1 << n, dtype=np.uint32)
    for k in range(n + 2):
        expected = [gf2n.frobenius(x, k, spec) for x in range(1 << n)]
        assert np.array_equal(gf2n.frobenius_array(field, k, spec), expected)


@pytest.mark.parametrize("n", WIDE)
def test_array_layer_random_pairs(n):
    spec = gf2n.make_field(n)
    rng = random.Random(n)
    a = [rng.randrange(1 << n) for _ in range(4096)]
    b = [rng.randrange(1 << n) for _ in range(4096)]
    arr_a = np.array(a, np.uint32)
    assert np.array_equal(gf2n.mul_array(arr_a, np.array(b, np.uint32), spec),
                          [gf2n.mul(x, y, spec) for x, y in zip(a, b)])
    e = rng.randrange(1 << n)
    assert np.array_equal(power_array(arr_a, e, spec), [gf2n.power(x, e, spec) for x in a])
    coeff = b[0]
    assert np.array_equal(trace_array(arr_a, spec, coeff),
                          [gf2n.trace_abs(gf2n.mul(coeff, x, spec), spec) for x in a])
    k = rng.randrange(2, n)
    assert np.array_equal(gf2n.frobenius_array(arr_a, k, spec), [gf2n.frobenius(x, k, spec) for x in a])


def test_linear_table_is_xor_of_images():
    rng = random.Random(7)
    for k in range(11):
        images = [rng.randrange(1 << 24) for _ in range(k)]
        table = gf2n.linear_table(images)
        for x in [0, (1 << k) - 1, *(rng.randrange(1 << k) for _ in range(50))]:
            expected = 0
            for j in range(k):
                if x >> j & 1:
                    expected ^= images[j]
            assert table[x] == expected


# ------------------------------------------------------------ family tables


@pytest.mark.parametrize("n", (2, 4, 6, 8, 10))
def test_gold_tables_match_scalar_oracles(n):
    spec = gf2n.make_field(n)
    rng = random.Random(100 + n)
    admissible = 0
    for t in range(n):
        for lam in rng.sample(range(1, 1 << n), 2):
            p = GoldParams(spec, lam, t)
            assert gold_function(p) == scalar_gold_function(p)
            mu = rng.randrange(1 << n)
            assert derivative(gold_function(p), mu) == scalar_gold_companion(p, mu)
            if gold_bent_admissible(p):
                admissible += 1
                assert gold_dual(p) == scalar_gold_dual(p)
    assert admissible >= 2


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_cor9_tables_match_scalar_oracles(n):
    spec = gf2n.make_field(n)
    nonzero = gf2n.subfield_elements(n // 2, spec)[1:]
    zero_F = BooleanFunction.from_bits(1, [0, 0])
    for theta in random.Random(200 + n).sample(nonzero, 3):
        rep = cort_m_build(spec, theta, (), 0, zero_F)
        assert (rep.h, rep.h_star) == scalar_cor9_tables(spec, theta)


def mm_cases(spec, rng):
    m = spec.n // 2
    outside = [v for v in range(1 << spec.n) if not gf2n.in_subfield(v, m, spec)]
    powers = [k for k in range(1, 1 << m) if np.gcd(k, (1 << m) - 1) == 1]
    for t in sorted({0, 1, m - 1, rng.randrange(spec.n)}):
        g = BooleanFunction.from_bits(m, [rng.randrange(2) for _ in range(1 << m)])
        table = list(range(1 << m))
        rng.shuffle(table)
        for pi in (rng.choice(powers), tuple(table)):
            yield MMParams(spec, rng.choice(outside), t, pi, g)


@pytest.mark.parametrize("n", (4, 6, 8, 10))
def test_mm_tables_match_scalar_oracles(n):
    spec = gf2n.make_field(n)
    emb, _ = _subfield_embedding(spec, n // 2)
    omega = _smallest_omega(spec)
    mu = gf2n.subfield_elements(n // 2, spec)[-1]
    F_second = BooleanFunction.from_bits(2, [0, 0, 1, 1])  # F(y) = y_2
    for p in mm_cases(spec, random.Random(300 + n)):
        assert mm_function(p) == scalar_mm_function(p)
        assert np.array_equal(emb[_mm_u(p)[_mm_z(p)]], scalar_mm_u_table(p))
        f_star = mm_dual(p)
        assert f_star == scalar_mm_dual(p)
        rep = thmm_build(p, (mu,), 0, F_second)
        assert rep.h_star == f_star ^ scalar_thmm_companion(p, mu, omega)


def test_trace_monomial_matches_scalar_oracle():
    rng = random.Random(400)
    for n in SMALL:
        spec = gf2n.make_field(n)
        for e in (0, 1, 3, rng.randrange(1 << n), (1 << n) + 1):
            lam = rng.randrange(1 << n)
            assert from_trace_monomial(spec, lam, e) == scalar_trace_monomial(spec, lam, e)


# ------------------------------------------------ laws over drawn parameters

LAW_DEGREES = (4, 6, 8, 10, 12)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_gold_builders_law(data):
    # over any (lam, t) for the function and the companion, over admissible
    # ones for the dual: the doubled tables against the scalar loops
    n = data.draw(st.sampled_from(LAW_DEGREES))
    spec = gf2n.make_field(n)
    t, mu = data.draw(st.integers(0, 2 * n)), data.draw(st.integers(0, (1 << n) - 1))
    p = GoldParams(spec, data.draw(st.integers(0, (1 << n) - 1)), t)
    assert gold_function(p) == scalar_gold_function(p)
    assert derivative(gold_function(p), mu) == scalar_gold_companion(p, mu)
    # the dual at the least admissible lam past a drawn cursor, for a t
    # with n/gcd(t, n) even
    s = data.draw(st.sampled_from([s for s in range(1, 2 * n + 1) if (n // math.gcd(s, n)) % 2 == 0]))
    lams = find_gold_lambdas(spec, s, 1, data.draw(st.integers(0, (1 << n) - 2)))
    assume(lams)
    q = GoldParams(spec, lams[0], s)
    assert gold_dual(q) == scalar_gold_dual(q)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_cor9_tables_law(data):
    # seed, dual and both kinds of slot against the scalar loops
    n = data.draw(st.sampled_from(LAW_DEGREES))
    spec = gf2n.make_field(n)
    theta = data.draw(st.sampled_from(gf2n.subfield_elements(n // 2, spec)[1:]))
    alpha, mu = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(1, (1 << n) - 1))
    f, f_star = scalar_cor9_tables(spec, theta)
    rep = cort_m_build(spec, theta, (), alpha, BooleanFunction.from_bits(1, [0, 1]))  # F(y) = y_1
    assert rep.ok and rep.h == f ^ scalar_cor9_slot(spec, theta, alpha)
    assert rep.h_star == f_star ^ linear_form(spec, alpha)
    rep = cort_m_build(spec, theta, (mu,), 0, BooleanFunction.from_bits(2, [0, 0, 1, 1]))  # F(y) = y_2
    assert rep.ok and rep.h == f ^ linear_form(spec, mu)
    assert rep.h_star == f_star ^ scalar_cor9_slot(spec, gf2n.inverse(theta, spec), mu)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_mm_builders_law(data):
    # random lam, t, g and pi, pi a power map or a drawn table
    n = data.draw(st.sampled_from(LAW_DEGREES))
    spec, m = gf2n.make_field(n), n // 2
    lam = data.draw(st.integers(1, (1 << n) - 1))
    assume(not gf2n.in_subfield(lam, m, spec))
    if data.draw(st.booleans()):
        pi = data.draw(st.sampled_from([k for k in range(1, 3 << m) if np.gcd(k, (1 << m) - 1) == 1]))
    else:
        pi = tuple(data.draw(st.permutations(range(1 << m))))
    g = BooleanFunction(m, data.draw(st.integers(0, (1 << (1 << m)) - 1)))
    p = MMParams(spec, lam, data.draw(st.integers(0, n + 1)), pi, g)
    assert mm_function(p) == scalar_mm_function(p)
    f_star = mm_dual(p)
    assert f_star == scalar_mm_dual(p)
    mu = data.draw(st.sampled_from(gf2n.subfield_elements(m, spec)[1:]))
    rep = thmm_build(p, (mu,), 0, BooleanFunction.from_bits(2, [0, 0, 1, 1]))  # F(y) = y_2
    assert rep.ok and rep.h_star == f_star ^ scalar_thmm_companion(p, mu, _smallest_omega(spec))


@pytest.mark.parametrize("m", range(1, 13))
def test_power_map_from_exp_table(m):
    # exp lists every unit once, and the power map it gives on subfield
    # indices is gf2n.power in GF(2^m)
    sub = gf2n.make_field(m)
    exp = _exp(m)
    assert sorted(exp) == list(range(1, 1 << m))
    rng = random.Random(m)
    for k in {1, (1 << m) + 1, *(rng.randrange(1, 4 << m) for _ in range(4))}:
        if np.gcd(k, (1 << m) - 1) != 1:
            continue
        g = BooleanFunction.const(m, 0)
        p = MMParams(gf2n.make_field(2 * m), 2, 1, k, g)
        assert p.pi_index.tolist() == [gf2n.power(z, k, sub) for z in range(1 << m)]
