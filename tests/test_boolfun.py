"""Truth tables, spectra, duals, ANF, and the wire format.

Spectral routines are checked against direct sign summation and a
Sylvester matrix built by doubling; neither oracle shares code with the
package butterfly.
"""

import ast
import random
import sys
import threading
import tracemalloc
from pathlib import Path

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
    is_bent,
    linear_form,
    parse_bitstring,
    quadratic_form,
    to_text,
    translate,
    wht,
)
from bentkit.errors import ArityMismatch, NotBent, UnsupportedDegree
from util import (
    anf_degree_walk,
    butterfly_with_copies,
    compose_unpacked,
    dual_int32,
    from_text_by_nibbles,
    from_trace_monomial,
    inner_product_fn,
    malformed_table_texts,
    mm_bent_pair,
    moebius_with_copies,
    random_function,
    random_mm_bent,
    slow_walsh,
    sylvester,
    translate_by_index,
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


def _packs_its_int(g: BooleanFunction) -> bool:
    # the raw a producer seeded, or raw built from the int, is the packing of g's int
    return type(g.raw) is bytes and g.raw == BooleanFunction(g.n, g.table).raw


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_from_raw_inverts_raw(data):
    n = data.draw(st.integers(1, 12))
    f = _drawn_function(data, n)
    assert BooleanFunction.from_raw(n, f.raw) == f
    g = BooleanFunction.from_bits(n, f.bits())
    assert g == f and _packs_its_int(g)


@pytest.mark.parametrize("n", range(1, 13))
def test_from_raw_refuses_a_wrong_length_or_set_padding(n):
    # a byte too many or too few; below n = 3 each padding bit of the one byte
    raw = random_function(random.Random(n), n).raw
    for bad in [raw + b"\0", raw[:-1]] + [bytes([raw[0] | 1 << bit]) for bit in range(1 << n, 8)]:
        with pytest.raises(ValueError):
            BooleanFunction.from_raw(n, bad)


def test_only_raw_and_from_raw_cross_between_int_and_bytes():
    # a to_bytes or from_bytes anywhere else in the package is a second copy of the packed format
    def crossings(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if isinstance(child, ast.Attribute) and child.attr in ("to_bytes", "from_bytes"):
                yield ".".join(scope), child.attr
            yield from crossings(child, inner)

    found = [
        (path.name, *site)
        for path in sorted(Path(boolfun.__file__).parent.glob("*.py"))
        for site in crossings(ast.parse(path.read_text()), ())
    ]
    assert found == [("boolfun.py", "BooleanFunction.raw", "to_bytes"), ("boolfun.py", "BooleanFunction.from_raw", "from_bytes")]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_wht_matches_copying_butterfly(data):
    # up to n = 16, so every mid/high split of a single block is drawn
    n = data.draw(st.integers(1, 16))
    f = _drawn_function(data, n)
    expected = butterfly_with_copies(1 - 2 * f.bits().astype(np.int32))
    got = wht(f).values
    assert got.dtype == np.int32 and np.array_equal(got, expected)
    spec = gf2n.make_field(n)
    assert np.array_equal(wht(f, spec).values, expected[boolfun._covector_permutation(spec)])


def _kernel_ns(ns):
    # the butterfly's mid/high split changes with each n up to 18, where
    # its first block ends; the checks at n >= 19 are slow-marked
    return [pytest.param(n, marks=pytest.mark.slow) if n >= 19 else n for n in ns]


@pytest.mark.parametrize("n", _kernel_ns(range(4, 21)))
def test_wht_of_constant_and_affine_functions(n):
    # these reach the largest |W| = 2^n, so a too narrow dtype overflows
    mask = random.Random(n).getrandbits(n)
    zero, one, linear = BooleanFunction.const(n, 0), BooleanFunction.const(n, 1), dot_form(n, mask)
    for f, at, sign in ((zero, 0, 1), (one, 0, -1), (linear, mask, 1), (linear ^ one, mask, -1)):
        expected = np.zeros(1 << n, np.int32)
        expected[at] = sign << n
        got = wht(f).values
        assert got.dtype == np.int32 and np.array_equal(got, expected)


@pytest.mark.parametrize("n", _kernel_ns((15, 16, 17, 18, 19, 20, 21)))
def test_wht_matches_copying_butterfly_across_boundaries(n):
    f = BooleanFunction(n, random.Random(n).getrandbits(1 << n))
    assert np.array_equal(wht(f).values, butterfly_with_copies(1 - 2 * f.bits().astype(np.int32)))


@pytest.mark.slow
def test_wht_memory_stays_near_its_output():
    # 4 MB of int32 output; the 1 MB word table is built before measuring
    f = BooleanFunction(20, random.Random(20).getrandbits(1 << 20))
    boolfun._word_wht()
    tracemalloc.start()
    try:
        values = wht(f).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.nbytes == 4 << 20 and peak < 1.5 * values.nbytes


def _flipped(f: BooleanFunction, rng: random.Random, count: int) -> BooleanFunction:
    return BooleanFunction(f.n, f.table ^ sum(1 << x for x in rng.sample(range(1 << f.n), count)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bent_dual_agrees_with_is_bent_and_dual(data):
    # the wrapping int16 verdict and dual against the int32 oracle, on
    # Maiorana-McFarland tables with 0, 1, 2, 3 or 2^(n/2-1) points flipped,
    # random tables, constants and affine forms
    n = data.draw(st.integers(2, 16))
    kind = data.draw(st.sampled_from(["bent", "flipped", "random", "const", "affine"]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    if kind == "const":
        f = BooleanFunction.const(n, rng.getrandbits(1))
    elif kind == "affine":
        f = dot_form(n, rng.getrandbits(n)) ^ BooleanFunction.const(n, rng.getrandbits(1))
    elif kind == "random" or n % 2:
        f = _drawn_function(data, n)
    else:
        f = mm_bent_pair(rng.getrandbits(32), n)[0] ^ dot_form(n, rng.getrandbits(n))
        if kind == "flipped":
            f = _flipped(f, rng, data.draw(st.sampled_from([1, 2, 3, 1 << (n // 2 - 1)])))
    spec = gf2n.make_field(n) if data.draw(st.booleans()) else None
    w = butterfly_with_copies(1 - 2 * f.bits().astype(np.int32))
    g = bent_dual(f, spec)
    assert g == dual_int32(n, w if spec is None else w[boolfun._covector_permutation(spec)])
    assert (g is not None) == is_bent(f)
    if g is None:
        with pytest.raises(NotBent):
            dual(f, spec)
        return
    assert g == dual(f, spec) and bent_dual(g, spec) == f


@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if n >= 20 else n for n in (18, 20, 22, 24)])
def test_bent_dual_agrees_with_the_int32_oracle_at_large_n(n):
    # one and 2^(n/2-1) flipped points move some |W| off 2^(n/2) by 2 and by
    # up to 2^(n/2); the constants' W(0) = 2^n wraps to 0 in int16, so at
    # n = 24 their whole int16 spectrum is 0
    rng = random.Random(n)
    f, f_star = mm_bent_pair(n, n)
    cases = [f, _flipped(f, rng, 1), _flipped(f, rng, 1 << (n // 2 - 1)), dot_form(n, rng.getrandbits(n))]
    for g in cases + [BooleanFunction.const(n, 0), BooleanFunction.const(n, 1)]:
        assert bent_dual(g) == dual_int32(n, wht(g).values)
        assert is_bent(g) == (g == f)
    assert bent_dual(f) == f_star


# the largest even n (28) whose wrapped int16 values still prove bentness, as in
# boolfun._flat_spectrum: a wrapped |W| >= 2^16 - 2^(n/2) must exceed 2^(n/2)
INT16_EXACT_N = max(n for n in range(2, 64, 2) if (1 << 16) - (1 << n // 2) > 1 << n // 2)


def test_degree_caps_keep_int16_exact():
    # raising a degree row of gf2n.CAPS past this fails here, not by a silent wrap
    assert all(cap <= INT16_EXACT_N for job, cap in gf2n.CAPS.items() if job.split()[0] == "n")


def test_is_bent_packs_no_dual(monkeypatch):
    # the verdict alone: is_bent returns before any sign table is packed
    f, _ = mm_bent_pair(18, 18)

    def refuse(n, raw):
        raise AssertionError("is_bent packed a dual it does not return")

    monkeypatch.setattr(BooleanFunction, "from_raw", refuse)
    assert is_bent(f)
    assert not is_bent(_flipped(f, random.Random(18), 1))


def test_verification_is_thread_safe():
    # each thread transforms in its own workspace: two threads at different
    # n, switching often, agree with the serial results
    pairs = [mm_bent_pair(n, n) for n in (14, 16, 18)]
    fs = [f for f, _ in pairs] + [_flipped(f, random.Random(f.n), 1) for f, _ in pairs]
    expected = [(is_bent(f), bent_dual(f)) for f in fs]
    assert [e[1] for e in expected[:3]] == [f_star for _, f_star in pairs]
    wrong = []

    def check(order, between):
        # between: whether a wht of another table runs between is_bent(f) and bent_dual(f)
        for _ in range(5):
            for i in order:
                verdict = is_bent(fs[i])
                if between:
                    wht(fs[i - 1])
                if (verdict, bent_dual(fs[i])) != expected[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=check, args=args) for args in (([0, 4, 2], False), ([1, 5, 3, 2], True))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []


@pytest.mark.slow
def test_bent_dual_memory_stays_near_its_output():
    # the 2 MB int16 spectrum, the 1 MB sign mask and the 128 KB packed dual,
    # with the word table and this thread's workspace built before measuring
    f, f_star = mm_bent_pair(20, 20)
    bent_dual(f)
    tracemalloc.start()
    try:
        g = bent_dual(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == f_star and peak < 3.5 * 2**20


_VERIFY_CALLS = ("is_bent", "bent_dual", "dual", "wht")


def _verify_call(name: str, f: BooleanFunction, spec):
    # one of _VERIFY_CALLS on f; dual's NotBent is returned, not raised
    if name == "dual":
        try:
            return dual(f, spec)
        except NotBent:
            return NotBent
    return is_bent(f) if name == "is_bent" else {"bent_dual": bent_dual, "wht": wht}[name](f, spec)


def _fresh_results(f: BooleanFunction, spec) -> dict:
    # each call's result on a fresh copy of f, which no handover can reach
    return {name: _verify_call(name, BooleanFunction(f.n, f.table), spec) for name in _VERIFY_CALLS}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_handed_over_spectrum_is_never_stale(data):
    # is_bent hands its spectrum to the next bent_dual of the same object: over
    # drawn call sequences on an MM bent table (a random one at odd n), one or
    # two more tables and up to two equal but distinct copies, every call gives
    # what it gives on a fresh copy.  Each group of calls is is_bent(f), up to
    # two calls on any function, then one on f
    n = data.draw(st.integers(1, 12))
    spec = gf2n.make_field(n) if data.draw(st.booleans()) else None
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    fs = []
    for kind in ["bent"] + data.draw(st.lists(st.sampled_from(["bent", "const", "random"]), min_size=1, max_size=2)):
        if kind == "const":
            fs.append(BooleanFunction.const(n, rng.getrandbits(1)))
        else:
            fs.append(mm_bent_pair(rng.getrandbits(32), n)[0] if kind == "bent" and n % 2 == 0 else _drawn_function(data, n))
    fs += [BooleanFunction(f.n, f.table) for f in data.draw(st.lists(st.sampled_from(fs), max_size=2))]
    expected = [_fresh_results(f, spec) for f in fs]
    index = st.integers(0, len(fs) - 1)
    calls = st.sampled_from(_VERIFY_CALLS)
    groups = st.tuples(index, st.lists(st.tuples(calls, index), max_size=2), calls)
    for i, between, last in data.draw(st.lists(groups, min_size=1, max_size=4)):
        for name, j in [("is_bent", i), *between, (last, i)]:
            assert _verify_call(name, fs[j], spec) == expected[j][name], (name, j)


def test_handed_over_spectrum_outside_the_workspace():
    # at n = 20 the int16 spectrum is its own array, not a workspace buffer
    f = mm_bent_pair(20, 20)[0]
    g, copy, spec = _flipped(f, random.Random(20), 1), BooleanFunction(f.n, f.table), gf2n.make_field(20)
    expected = {id(h): _fresh_results(h, spec) for h in (f, g)}
    expected[id(copy)] = expected[id(f)]
    steps = [("is_bent", f), ("bent_dual", f), ("is_bent", f), ("wht", g), ("bent_dual", f), ("is_bent", g),
             ("bent_dual", f), ("is_bent", f), ("dual", copy), ("is_bent", copy), ("dual", copy), ("bent_dual", copy)]
    for name, h in steps:
        assert _verify_call(name, h, spec) == expected[id(h)][name], name


@pytest.mark.slow
def test_is_bent_then_bent_dual_memory_stays_near_bent_dual_alone():
    # the handed-over 2 MB spectrum stands in for bent_dual's own; afterwards
    # only the dual itself is held, its 128 KB bytes and its 128 KB int
    f, f_star = mm_bent_pair(20, 20)
    bent_dual(f)
    tracemalloc.start()
    try:
        bent_dual(f)
        alone = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert is_bent(f)
        g = bent_dual(f)
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g == f_star and peak - start <= alone + 2**18
    assert now - start <= sys.getsizeof(g.raw) + sys.getsizeof(g.table) + 2**16


@st.composite
def mm_bent_functions(draw):
    """y.pi(z) + g(z) on the half-split coordinates y = x mod 2^m, z = x >> m,
    with a drawn permutation pi and a drawn g: a Maiorana-McFarland bent f."""
    n = draw(st.sampled_from(range(4, 17, 2)))
    m = n // 2
    pi = np.array(draw(st.permutations(range(1 << m))), np.uint32)
    g = np.frombuffer(draw(st.binary(min_size=1 << m, max_size=1 << m)), np.uint8) & 1
    x = np.arange(1 << n, dtype=np.uint32)
    y, z = x & ((1 << m) - 1), x >> m
    return BooleanFunction.from_bits(n, (np.bitwise_count(y & pi[z]) & 1) ^ g[z])


@settings(max_examples=30, deadline=None)
@given(f=mm_bent_functions())
def test_dual_involution_and_sign_identity(f):
    # under both pairings: f~~ = f and W_f = 2^(n/2) (-1)^f~
    for spec in (None, gf2n.make_field(f.n)):
        g = dual(f, spec)
        assert dual(g, spec) == f
        signs = 1 - 2 * g.bits().astype(np.int32)
        assert np.array_equal(wht(f, spec).values, signs << (f.n // 2))


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dual_reindexing_between_pairings(data):
    # the trace pairing is the dot pairing read through the covector map:
    # W_tr[mu] = W_dot[covector(mu)], and for bent f, f~_tr(mu) = f~_dot(covector(mu))
    n = data.draw(st.integers(1, 16))
    spec = gf2n.make_field(n)
    if n % 2 == 0 and data.draw(st.booleans()):
        f = mm_bent_pair(data.draw(st.integers(0, 2**32)), n)[0]
    else:
        f = _drawn_function(data, n)
    wd, wt = wht(f).values, wht(f, spec).values
    dd, dt = bent_dual(f), bent_dual(f, spec)
    assert (dd is None) == (dt is None)
    assert dd is None or _packs_its_int(dd) and _packs_its_int(dt)
    for mu in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=16)):
        cov = gf2n.covector(mu, spec)
        assert wt[mu] == wd[cov]
        assert dd is None or dt(mu) == dd(cov)


def test_dual_requires_bent():
    with pytest.raises(NotBent):
        dual(dot_form(4, 3))


def test_dual_rejects_bad_arity_before_transforming(monkeypatch, g64):
    def no_butterfly(f, dtype):
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


def _shift_classes(rng: random.Random, n: int) -> dict[str, int]:
    # bit 0, bits 0-2, bits 0-8 (in-byte, in-word and in-block moves), the
    # high half, the top bit, all ones and a random shift, cut to the domain
    top = (1 << n) - 1
    shifts = {"zero": 0, "bit 0": 1, "low 3": 7, "low 9": 0x1FF, "high half": top ^ ((1 << n // 2) - 1)}
    shifts.update({"top": 1 << (n - 1), "all ones": top, "random": rng.randrange(1 << n)})
    return {name: a & top for name, a in shifts.items()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_translate_matches_index_xor(data):
    n = data.draw(st.integers(1, 16))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_function(rng, n)
    shifts = _shift_classes(rng, n)
    a = shifts[data.draw(st.sampled_from(sorted(shifts)))]
    assert translate(f, a) == translate_by_index(f, a)
    assert derivative(f, a).table == f.table ^ translate(f, a).table
    assert _packs_its_int(translate(f, a)) and _packs_its_int(derivative(f, a))
    if n <= 12:
        bits = f.bits()
        assert np.array_equal(translate(f, a).bits(), bits[np.arange(1 << n) ^ a])


def test_translate_every_shift_at_small_n():
    rng = random.Random(23)
    for n in range(1, 9):
        f = random_function(rng, n)
        for a in range(1 << n):
            assert translate(f, a) == translate_by_index(f, a)


@pytest.mark.slow
def test_translate_matches_the_gather_at_24():
    rng = random.Random(24)
    f = BooleanFunction(24, rng.getrandbits(1 << 24))
    for name, a in _shift_classes(rng, 24).items():
        assert translate(f, a) == translate_by_index(f, a), name


def test_translate_memory_stays_near_the_table():
    # 128 KB of table; an int64 index as long as the table would be 8 MB
    f = BooleanFunction(20, random.Random(19).getrandbits(1 << 20))
    for a in (1, 7, 0xB5A3D, 0x80000, 0xFFFFF):
        tracemalloc.start()
        try:
            g = translate(f, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g(0) == f(a) and g(a) == f(0)
        assert peak < 1 << 20, hex(a)


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


@pytest.mark.parametrize(
    "n, coeffs, message",
    [(0, 1, r"n must be in 1\.\.24"), (25, 1, r"n must be in 1\.\.24"), (3, 1 << 20, "does not fit"), (3, -1, "does not fit")],
)
def test_anf_form_checks_its_input(n, coeffs, message):
    with pytest.raises(ValueError, match=message):
        AnfForm(n, coeffs)


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
    assert algebraic_degree(f) == form.degree
    monomials = np.nonzero(coeffs)[0]
    assert form.degree == (int(np.bitwise_count(monomials).max()) if monomials.size else 0)
    assert form.function() == f and _packs_its_int(form.function())


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


def _structured_table(kind: str, r: int, rng: random.Random) -> int:
    # F tables that reach the mux tree's pruning: constant, F ignoring its
    # top inputs (equal halves, repeatedly), a projection; else random
    if kind == "constant":
        return rng.choice([0, (1 << (1 << r)) - 1])
    if kind == "equal halves":
        low = rng.randrange(r + 1)
        table = rng.getrandbits(1 << low)
        for j in range(low, r):
            table |= table << (1 << j)
        return table
    if kind == "projection":
        i = rng.randrange(r)
        return sum(1 << z for z in range(1 << r) if z >> i & 1)
    return rng.getrandbits(1 << r)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_compose_matches_unpacked_oracle(data):
    # r <= 8 takes the mux tree, r >= 9 the gather (a uint16 index, n = 17
    # two blocks of 2^16 points); n < 3 pads a single byte
    n = data.draw(st.sampled_from([1, 2, 3, 4, 7, 9, 17]))
    r = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["random", "constant", "equal halves", "projection"]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    phi = VectorialFunction(n, r, tuple(BooleanFunction(n, rng.getrandbits(1 << n)) for _ in range(r)))
    F = BooleanFunction(r, _structured_table(kind, r, rng))
    assert compose(F, phi) == compose_unpacked(F, phi)
    assert _packs_its_int(compose(F, phi))


def test_compose_memory_stays_near_the_tables():
    # r 128 KB components, the parity F; an int64 index as long as the table
    # would be 8 MB.  r = 3 and 8 take the mux tree, r = 9 the gather
    for r in (3, 8, 9):
        rng = random.Random(22)
        phi = VectorialFunction(20, r, tuple(BooleanFunction(20, rng.getrandbits(1 << 20)) for _ in range(r)))
        F = BooleanFunction(r, sum(1 << z for z in range(1 << r) if z.bit_count() % 2))
        tracemalloc.start()
        try:
            h = compose(F, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = 0
        for c in phi.components:
            want ^= c.table
        assert h.table == want, r
        assert peak < 2 << 20, (r, peak)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quadratic_form_doubling_law(data):
    # the table against Q(x) = const + linear.x + sum over i < j of x_i x_j
    # (bit i of covectors[j]), evaluated point by point
    n = data.draw(st.integers(1, 10))
    linear, const = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 1))
    cov = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    q = quadratic_form(n, linear, cov, const)
    for x in range(1 << n):
        pairs = sum(x >> j & 1 and (cov[j] & x & ((1 << j) - 1)).bit_count() for j in range(n))
        assert q(x) == (const + (linear & x).bit_count() + pairs) % 2
    assert quadratic_form(n, linear) == dot_form(n, linear)
    dots = [(linear & x).bit_count() & 1 for x in range(1 << n)]
    assert dot_form(n, linear) == BooleanFunction.from_bits(n, dots)


def test_vectorial_validation():
    f6 = dot_form(6, 1)
    f4 = dot_form(4, 1)
    with pytest.raises(ArityMismatch):
        VectorialFunction(6, 2, (f6, f4))
    with pytest.raises(ArityMismatch):
        VectorialFunction(6, 2, (f6,))
    assert VectorialFunction.from_components([f6, f6]).r == 2
    with pytest.raises(UnsupportedDegree, match=r"^r of phi must be in 1\.\.16, got 0$"):
        VectorialFunction.from_components([])
    with pytest.raises(UnsupportedDegree, match=r"^r of phi must be in 1\.\.16, got 17$"):
        VectorialFunction.from_components([f6] * 17)
    assert VectorialFunction.from_components([f6] * 16).r == 16


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_text_roundtrip(data):
    n = data.draw(st.integers(1, 10))
    f = _drawn_function(data, n)
    text = to_text(f)
    assert from_text(text) == f and from_text_by_nibbles(text) == f
    assert _packs_its_int(from_text(text))
    head, body, _ = text.split("\n")
    assert from_text(f"{head}\n{body.upper()}\n") == f


@settings(max_examples=300, deadline=None)
@given(malformed_table_texts())
def test_text_malformed_bodies_match_the_oracle(text):
    with pytest.raises(ValueError) as want:
        from_text_by_nibbles(text)
    with pytest.raises(ValueError) as got:
        from_text(text)
    assert str(got.value) == str(want.value)


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
