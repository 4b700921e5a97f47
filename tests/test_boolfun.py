"""Truth tables, spectra, duals, ANF, and the wire format.

Spectral routines are checked against direct sign summation and a
Sylvester matrix built by doubling; neither oracle shares code with the
package butterfly.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import boolfun, gf2n
from bentkit.boolfun import (
    AnfForm,
    BooleanFunction,
    VectorialFunction,
    algebraic_degree,
    anf,
    bent_dual,
    compose,
    derivative,
    dot_form,
    dual,
    from_text,
    from_trace_monomial,
    is_bent,
    linear_form,
    parse_bitstring,
    to_text,
    translate,
    wht,
)
from bentkit.errors import ArityMismatch, NotBent
from util import (
    anf_degree_walk,
    butterfly_with_copies,
    inner_product_fn,
    moebius_with_copies,
    random_function,
    random_mm_bent,
    slow_walsh,
    sylvester,
)


def test_frozen_spectra_two_variables():
    zero = BooleanFunction.from_bits(2, [0, 0, 0, 0])
    assert list(wht(zero).values) == [4, 0, 0, 0]
    x1x2 = BooleanFunction.from_bits(2, [0, 0, 0, 1])
    assert list(wht(x1x2).values) == [2, 2, 2, -2]


def test_wht_matches_direct_summation_dot():
    rng = random.Random(10)
    for n in (2, 4, 6):
        for _ in range(5):
            f = random_function(rng, n)
            w = wht(f).values
            for mu in range(1 << n):
                assert int(w[mu]) == slow_walsh(f, mu)


def test_wht_matches_direct_summation_trace(g16, g64):
    rng = random.Random(11)
    for spec in (g16, g64):
        f = random_function(rng, spec.n)
        w = wht(f, spec).values
        for mu in range(1 << spec.n):
            assert int(w[mu]) == slow_walsh(f, mu, spec)


def test_wht_agrees_with_sylvester_matrix():
    rng = random.Random(12)
    n = 6
    for _ in range(10):
        f = random_function(rng, n)
        signs = 1 - 2 * f.bits().astype(np.int64)
        assert np.array_equal(wht(f).values, sylvester(n) @ signs)


def _drawn_function(data, n: int) -> BooleanFunction:
    raw = data.draw(st.binary(min_size=(1 << n) // 8 + 1, max_size=(1 << n) // 8 + 1))
    return BooleanFunction(n, int.from_bytes(raw, "little") & ((1 << (1 << n)) - 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_wht_matches_copying_butterfly(data):
    n = data.draw(st.integers(1, 12))
    f = _drawn_function(data, n)
    expected = butterfly_with_copies(1 - 2 * f.bits().astype(np.int32))
    got = wht(f).values
    assert got.dtype == np.int32 and np.array_equal(got, expected)
    spec = gf2n.make_field(n)
    assert np.array_equal(wht(f, spec).values, expected[boolfun._covector_permutation(spec)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bent_dual_agrees_with_is_bent_and_dual(data):
    n = data.draw(st.integers(1, 12))
    if n % 2 == 0 and data.draw(st.booleans()):
        f = random_mm_bent(random.Random(data.draw(st.integers(0, 2**32))), n)
        f ^= dot_form(n, data.draw(st.integers(0, (1 << n) - 1)))
    else:
        f = _drawn_function(data, n)
    spec = gf2n.make_field(n) if data.draw(st.booleans()) else None
    g = bent_dual(f, spec)
    assert (g is not None) == is_bent(f)
    if g is None:
        with pytest.raises(NotBent):
            dual(f, spec)
        return
    assert g == dual(f, spec) and bent_dual(g, spec) == f
    half = 1 << (n // 2)
    w = butterfly_with_copies(1 - 2 * f.bits().astype(np.int32))
    if spec is not None:
        w = w[boolfun._covector_permutation(spec)]
    assert np.array_equal(g.bits(), (w == -half).astype(np.uint8))


def test_linear_forms_peak_at_their_mask(g64):
    n = 6
    for mu in (0, 1, 9, 63):
        wd = wht(dot_form(n, mu)).values
        assert int(wd[mu]) == 1 << n and int(np.abs(wd).sum()) == 1 << n
        wt = wht(linear_form(g64, mu), g64).values
        assert int(wt[mu]) == 1 << n and int(np.abs(wt).sum()) == 1 << n


def test_wht_rejects_mismatched_spec(g16):
    f = random_function(random.Random(13), 6)
    with pytest.raises(ArityMismatch):
        wht(f, g16)


def test_bent_census_four_variables():
    # all 2^16 tables at once against a Sylvester matmul: exactly 896
    # bent functions on four variables
    tables = (np.arange(1 << 16, dtype=np.uint32)[:, None] >> np.arange(16)) & 1
    signs = 1 - 2 * tables.astype(np.int64)
    spectra = signs @ sylvester(4)
    census = int((np.abs(spectra) == 4).all(axis=1).sum())
    assert census == 896
    rng = random.Random(14)
    flat = np.abs(spectra)
    for _ in range(300):
        idx = rng.randrange(1 << 16)
        f = BooleanFunction.from_bits(4, list(tables[idx]))
        assert is_bent(f) == bool((flat[idx] == 4).all())


def test_is_bent_edge_cases():
    assert not is_bent(BooleanFunction.from_bits(3, [0] * 8))  # odd arity
    assert not is_bent(dot_form(4, 5))  # affine
    assert is_bent(inner_product_fn(4))
    assert is_bent(inner_product_fn(6))


def test_dual_frozen_and_involution():
    x1x2 = BooleanFunction.from_bits(2, [0, 0, 0, 1])
    assert dual(x1x2) == x1x2
    f = random_mm_bent(random.Random(15), 6)
    assert dual(dual(f)) == f
    for x in range(64):
        # sign identity W_f(x) = 2^{n/2} (-1)^{f~(x)}
        assert int(wht(f).values[x]) == (8 if dual(f)(x) == 0 else -8)


def test_dual_shift_law_dot_and_trace(g64):
    rng = random.Random(16)
    f = random_mm_bent(rng, 6)
    for a in (1, 17, 42, 63):
        assert dual(f ^ dot_form(6, a)) == translate(dual(f), a)
    ft = from_trace_monomial(g64, 0x2A, 3)  # quadratic bent in the trace world
    assert is_bent(ft)
    for a in (1, 30, 55):
        assert dual(ft ^ linear_form(g64, a), g64) == translate(dual(ft, g64), a)


def test_dual_reindexing_between_pairings(g64):
    # the trace dual is the dot dual composed with the covector permutation
    f = inner_product_fn(6)
    dd = dual(f)
    dt = dual(f, g64)
    for mu in range(64):
        assert dt(mu) == dd(gf2n.covector(mu, g64))


def test_dual_requires_bent():
    with pytest.raises(NotBent):
        dual(dot_form(4, 3))


def test_dual_rejects_bad_arity_before_transforming(monkeypatch, g64):
    def no_butterfly(f):
        raise AssertionError("the butterfly ran on a rejected input")

    monkeypatch.setattr(boolfun, "_butterfly", no_butterfly)
    odd = dot_form(5, 3)
    with pytest.raises(NotBent):
        dual(odd)
    with pytest.raises(ArityMismatch):
        dual(odd, g64)  # the arity check comes first
    with pytest.raises(ArityMismatch):
        dual(inner_product_fn(4), g64)


def test_derivative_pointwise():
    rng = random.Random(17)
    f = random_function(rng, 6)
    assert derivative(f, 0).weight() == 0
    for mu in (1, 33, 63):
        d = derivative(f, mu)
        for x in range(64):
            assert d(x) == f(x) ^ f(x ^ mu)
        assert derivative(d, mu).weight() == 0


def test_translate_pointwise_involution():
    rng = random.Random(18)
    f = random_function(rng, 6)
    for a in (0, 5, 63):
        assert translate(translate(f, a), a) == f
        assert translate(f, a)(11) == f(11 ^ a)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translate_matches_index_xor(data):
    n = data.draw(st.integers(1, 12))
    f = random_function(random.Random(data.draw(st.integers(0, 2**32))), n)
    a = data.draw(st.integers(0, (1 << n) - 1))
    bits = f.bits()
    assert np.array_equal(translate(f, a).bits(), bits[np.arange(1 << n) ^ a])
    assert derivative(f, a).table == f.table ^ translate(f, a).table


def test_translate_memory_stays_near_the_table():
    # 128 KB of table; an int64 index as long as the table would be 8 MB
    f = BooleanFunction(20, random.Random(19).getrandbits(1 << 20))
    tracemalloc.start()
    try:
        g = translate(f, 0xB5A3D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g(0) == f(0xB5A3D) and g(0xB5A3D) == f(0)
    assert peak < 1 << 20


def test_anf_degree_frozen():
    assert anf(BooleanFunction.from_bits(2, [0] * 4)).degree == 0
    assert algebraic_degree(BooleanFunction.from_bits(2, [1] * 4)) == 0
    assert algebraic_degree(dot_form(6, 0b101)) == 1
    cube = BooleanFunction.from_bits(6, [int(x & 7 == 7) for x in range(64)])
    assert algebraic_degree(cube) == 3  # x1 x2 x3
    assert anf(cube).coeffs == 1 << 7
    top = BooleanFunction.from_bits(10, [int(x == 1023) for x in range(1024)])
    assert anf(top).coeffs == 1 << 1023
    assert algebraic_degree(top) == 10  # x1 ... x10
    rng = random.Random(21)
    for n in (1, 2, 3, 9, 14):
        form = anf(random_function(rng, n))
        assert form.degree == anf_degree_walk(form.coeffs)


def test_anf_roundtrip_is_involution():
    rng = random.Random(19)
    for _ in range(100):
        f = random_function(rng, 5)
        form = anf(f)
        assert form.function() == f
    assert AnfForm(3, 0b10000000).function() == BooleanFunction.from_bits(
        3, [0, 0, 0, 0, 0, 0, 0, 1]
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_anf_matches_copying_moebius(data):
    n = data.draw(st.integers(1, 14))
    kind = data.draw(st.sampled_from(["random", "constant", "affine", "monomial"]))
    if kind == "random":
        f = _drawn_function(data, n)
    elif kind == "constant":
        f = BooleanFunction.const(n, data.draw(st.integers(0, 1)))
    elif kind == "affine":
        f = dot_form(n, data.draw(st.integers(0, (1 << n) - 1)))
        f ^= BooleanFunction.const(n, data.draw(st.integers(0, 1)))
    else:
        u = data.draw(st.integers(0, (1 << n) - 1))
        f = BooleanFunction.from_bits(n, (np.arange(1 << n) & u) == u)
    coeffs = moebius_with_copies(f.bits())
    form = anf(f)
    assert form == AnfForm(n, BooleanFunction.from_bits(n, coeffs).table)
    monomials = np.nonzero(coeffs)[0]
    assert form.degree == (int(np.bitwise_count(monomials).max()) if monomials.size else 0)
    assert form.function() == f


def test_degree_bound_for_bent_functions():
    rng = random.Random(20)
    for n in (4, 6, 8):
        f = random_mm_bent(rng, n)
        assert algebraic_degree(f) <= n // 2


def test_compose_rules():
    rng = random.Random(21)
    comps = tuple(random_function(rng, 6) for _ in range(3))
    phi = VectorialFunction(6, 3, comps)
    zero_f = BooleanFunction.from_bits(3, [0] * 8)
    assert compose(zero_f, phi).weight() == 0
    for i in range(3):
        proj = BooleanFunction.from_bits(3, [(z >> i) & 1 for z in range(8)])
        assert compose(proj, phi) == comps[i]
    big_f = random_function(rng, 3)
    composed = compose(big_f, phi)
    for x in range(64):
        z = comps[0](x) | comps[1](x) << 1 | comps[2](x) << 2
        assert composed(x) == big_f(z)
    with pytest.raises(ArityMismatch):
        compose(random_function(rng, 2), phi)


def test_vectorial_validation():
    f6 = dot_form(6, 1)
    f4 = dot_form(4, 1)
    with pytest.raises(ArityMismatch):
        VectorialFunction(6, 2, (f6, f4))
    with pytest.raises(ArityMismatch):
        VectorialFunction(6, 2, (f6,))
    assert VectorialFunction.from_components([f6, f6]).r == 2


def test_trace_monomials(g16, g64):
    assert from_trace_monomial(g16, 0, 3).weight() == 0
    assert from_trace_monomial(g64, 9, 1) == linear_form(g64, 9)
    # lam outside the cubes makes Tr(lam x^3) bent on four variables
    g = from_trace_monomial(g16, 2, 3)
    assert is_bent(g)
    for x in range(16):
        assert g(x) == gf2n.trace_abs(gf2n.mul(2, gf2n.power(x, 3, g16), g16), g16)


def test_text_format_frozen_strings():
    x1x2 = BooleanFunction.from_bits(2, [0, 0, 0, 1])
    assert to_text(x1x2) == "n=2\n1\n"
    f1 = BooleanFunction.from_bits(1, [0, 1])
    assert to_text(f1) == "n=1\n01\n"  # below one nibble: raw bits
    assert from_text("n=2\n1\n") == x1x2
    assert from_text("n=1\n01\n") == f1


def test_text_roundtrip():
    rng = random.Random(22)
    for n in (1, 2, 3, 6, 8):
        f = random_function(rng, n)
        assert from_text(to_text(f)) == f


def test_text_rejects_malformed_input():
    for bad in (
        "",
        "n=0\n\n",
        "n=two\nff\n",
        "n=2\nfff\n",  # wrong length
        "n=4\nzz\n",  # junk digits
        "m=2\n1\n",  # wrong header key
        "n=2\n",  # missing payload
    ):
        with pytest.raises(ValueError):
            from_text(bad)


def test_parse_bitstring():
    f = parse_bitstring("0001", expect=2)
    assert f == BooleanFunction.from_bits(2, [0, 0, 0, 1])
    with pytest.raises(ValueError):
        parse_bitstring("0001", expect=3)
    with pytest.raises(ValueError):
        parse_bitstring("00x1")
    with pytest.raises(ValueError):
        parse_bitstring("000")  # not a power of two


def test_walsh_spectrum_equality():
    f = dot_form(4, 3)
    assert wht(f) == wht(f)
    assert wht(f) != wht(dot_form(4, 5))
    assert wht(f) != object()
