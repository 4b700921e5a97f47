"""Field arithmetic against schoolbook oracles.

The reference routines here redo everything with carry-less schoolbook
polynomial arithmetic, so any disagreement points at the table-free
shift-and-reduce path in the package.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import gf2n
from bentkit.errors import (
    NonIrreducible,
    NotADivisor,
    SingularMap,
    UnsupportedDegree,
)
from bentkit.search import find_alphas
from util import from_hex, to_hex, trace_rel, xor_rank, xor_span


def ref_clmul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def ref_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def ref_is_irreducible(p: int) -> bool:
    # modulus convention: constant term must be set (X never divides)
    deg = p.bit_length() - 1
    if deg < 1 or not p & 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if ref_mod(p, d) == 0:
            return False
    return True


def test_default_moduli_frozen():
    # lexicographically least irreducibles, re-derived by the oracle scan
    assert gf2n.default_modulus(1) == 0b11
    assert gf2n.default_modulus(2) == 0b111
    assert gf2n.default_modulus(8) == 0x11B
    for n in range(1, 13):
        m = gf2n.default_modulus(n)
        assert m.bit_length() - 1 == n
        assert ref_is_irreducible(m)
        for cand in range(1 << n, m):
            assert not ref_is_irreducible(cand)


def test_make_field_rejects_bad_input():
    with pytest.raises(UnsupportedDegree):
        gf2n.make_field(25)
    with pytest.raises(UnsupportedDegree):
        gf2n.make_field(0)
    with pytest.raises(NonIrreducible):
        gf2n.make_field(4, 0b10101)  # (x^2+x+1)^2
    with pytest.raises(NonIrreducible):
        gf2n.make_field(3, 0b1011 << 1)  # even constant term


def test_gf4_multiplication_table(g4):
    # full table of the four-element field
    assert gf2n.mul(2, 2, g4) == 3
    assert gf2n.mul(2, 3, g4) == 1
    assert gf2n.mul(3, 3, g4) == 2
    assert gf2n.frobenius(2, 1, g4) == 3
    assert [gf2n.trace_abs(a, g4) for a in range(4)] == [0, 0, 1, 1]


def test_mul_matches_schoolbook(g256):
    rng = random.Random(1)
    for _ in range(300):
        a, b = rng.randrange(256), rng.randrange(256)
        assert gf2n.mul(a, b, g256) == ref_mod(ref_clmul(a, b), g256.modulus)


def test_ring_axioms(g256):
    rng = random.Random(2)
    for _ in range(200):
        a, b, c = (rng.randrange(256) for _ in range(3))
        assert gf2n.mul(a, b, g256) == gf2n.mul(b, a, g256)
        assert gf2n.mul(a, gf2n.mul(b, c, g256), g256) == gf2n.mul(
            gf2n.mul(a, b, g256), c, g256
        )
        assert gf2n.mul(a, b ^ c, g256) == gf2n.mul(a, b, g256) ^ gf2n.mul(a, c, g256)


def test_power_and_inverse(g64):
    assert gf2n.power(0, 0, g64) == 1
    for a in range(1, 64):
        assert gf2n.mul(a, gf2n.inverse(a, g64), g64) == 1
        assert gf2n.power(a, 63, g64) == 1  # Lagrange in the unit group
        assert gf2n.power(a, 2, g64) == gf2n.frobenius(a, 1, g64)
    with pytest.raises(ZeroDivisionError):
        gf2n.inverse(0, g64)


def test_frobenius_is_additive_field_automorphism(g256):
    rng = random.Random(3)
    for a in range(256):
        assert gf2n.frobenius(a, 0, g256) == a
        assert gf2n.frobenius(a, 8, g256) == a
    for _ in range(100):
        a, b = rng.randrange(256), rng.randrange(256)
        k = rng.randrange(1, 8)
        assert gf2n.frobenius(a ^ b, k, g256) == gf2n.frobenius(
            a, k, g256
        ) ^ gf2n.frobenius(b, k, g256)
        assert gf2n.frobenius(gf2n.mul(a, b, g256), k, g256) == gf2n.mul(
            gf2n.frobenius(a, k, g256), gf2n.frobenius(b, k, g256), g256
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_frobenius_equals_repeated_squaring(data):
    # frobenius reads cached basis images; the reference squares k times
    n = data.draw(st.integers(1, 24))
    a, k = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 2 * n))
    spec = gf2n.make_field(n)
    x = a
    for _ in range(k):
        x = gf2n.mul(x, x, spec)
    assert gf2n.frobenius(a, k, spec) == x
    assert gf2n.apply_linear(gf2n.frobenius_images(k, spec), a) == x
    w = random.Random(a).randrange(1 << n)
    # pull_back composes a covector with the map of the images
    assert (gf2n.pull_back(gf2n.frobenius_images(k, spec), w) & a).bit_count() % 2 == (w & x).bit_count() % 2


def test_trace_abs_agrees_with_frobenius_sum(g64):
    for a in range(64):
        acc = 0
        for k in range(6):
            acc ^= gf2n.frobenius(a, k, g64)
        assert acc in (0, 1)
        assert gf2n.trace_abs(a, g64) == acc


def test_trace_rel_lands_in_subfield_and_composes(g16):
    with pytest.raises(NotADivisor):
        trace_rel(1, 3, g16)
    for a in range(16):
        assert trace_rel(a, 4, g16) == a
        t = trace_rel(a, 2, g16)
        assert gf2n.in_subfield(t, 2, g16)
        # transitivity Tr_1 = Tr_1^r o Tr_r^n
        assert gf2n.trace_abs(a, g16) == gf2n.trace_abs_in(t, 2, g16)
    assert trace_rel(0, 2, g16) == 0


def test_subfield_membership_counts(g16, g64):
    assert gf2n.subfield_elements(2, g16) == (0, 1, 6, 7)
    assert sum(gf2n.in_subfield(a, 2, g16) for a in range(16)) == 4
    sub8 = gf2n.subfield_elements(3, g64)
    assert len(sub8) == 8 and sub8[0] == 0 and sub8[1] == 1
    # closure under the field operations
    for a in sub8:
        for b in sub8:
            assert a ^ b in sub8
            assert gf2n.mul(a, b, g64) in sub8


def test_solve_linearized_roundtrip(g16):
    # L(y) = lam*y + lam^{2^t} * y^{2^{2t}}
    lam, t = 2, 1
    for rhs, y in zip(range(16), gf2n.solve_linearized(lam, t, range(16), g16)):
        img = gf2n.mul(lam, y, g16) ^ gf2n.mul(
            gf2n.frobenius(lam, t, g16), gf2n.frobenius(y, 2 * t, g16), g16
        )
        assert img == rhs
    with pytest.raises(SingularMap):
        gf2n.solve_linearized(1, 4, [3], g16)


def test_covector_realizes_the_trace_pairing(g64):
    seen = set()
    for mu in range(64):
        cv = gf2n.covector(mu, g64)
        seen.add(cv)
        for x in (0, 1, 5, 17, 40, 63):
            assert (cv & x).bit_count() & 1 == gf2n.trace_abs(
                gf2n.mul(mu, x, g64), g64
            )
    assert len(seen) == 64  # the reindexing is a permutation


def test_nullspace_and_ortho_complement(g64):
    assert gf2n.nullspace([], 4) == [1, 2, 4, 8]
    basis = gf2n.nullspace([0b101, 0b110], 3)
    assert len(basis) == 1
    v = basis[0]
    assert (0b101 & v).bit_count() & 1 == 0
    assert (0b110 & v).bit_count() & 1 == 0
    # complement of (1, 6): exhaustive filter equals spanned basis
    from util import xor_span

    comp = find_alphas((1, 6), 64, spec=g64)
    want = {
        a
        for a in range(64)
        if gf2n.trace_abs(gf2n.mul(a, 1, g64), g64) == 0
        and gf2n.trace_abs(gf2n.mul(a, 6, g64), g64) == 0
    }
    assert comp == sorted(want) and xor_span(comp) == want
    assert len(comp) == 16  # a codimension-2 subspace
    assert find_alphas((), 64, spec=g64) == list(range(64))


@given(st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=n + 2))))
def test_nullspace_is_the_kernel_in_reduced_echelon_form(case):
    n, rows = case
    basis = gf2n.nullspace(rows, n)
    assert len(basis) == n - xor_rank(rows)
    assert xor_span(basis) == {x for x in range(1 << n) if all((x & r).bit_count() % 2 == 0 for r in rows)}
    leads = [1 << (v.bit_length() - 1) for v in basis]
    assert basis == sorted(basis)
    # each vector's leading bit is set in that vector only
    assert all(sum(bool(v & lead) for v in basis) == 1 for lead in leads)


def test_hex_helpers_roundtrip():
    for a in (0, 1, 0x2A, 0x11B):
        assert from_hex(to_hex(a)) == a
    assert to_hex(42) == "2a"
