"""Field arithmetic against schoolbook oracles.

The reference routines here redo everything with carry-less schoolbook
polynomial arithmetic, so any disagreement points at the table-free
shift-and-reduce path in the package.
"""

import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import cli, gf2n
from bentkit.boolfun import BooleanFunction, VectorialFunction, dot_form, from_text, translate
from bentkit.cli import _guard
from bentkit.errors import (
    NonIrreducible,
    NotADivisor,
    SingularMap,
    UnsupportedDegree,
)
from bentkit.families import GoldParams, MMParams, _smallest_omega
from bentkit.search import MuSearchSpec, ea_fingerprint, find_alphas
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


def _phi_from_components(v):
    return VectorialFunction.from_components((BooleanFunction(1, 0),) * v)


# every site that checks each row of gf2n.CAPS (a new row needs an entry), the
# first one cheap enough to run at the cap itself (the fingerprint at n = 14
# takes about 0.3 s)
CAP_SITES = {
    "n": (lambda v: BooleanFunction(v, 0), gf2n.make_field, lambda v: from_text(f"n={v}\n0\n"),
          lambda v: find_alphas((), 1, n=v)),
    "n under BENT_MAX_N": (_guard,),
    "n of the second-derivative search": (
        lambda v: MuSearchSpec("second-derivative", 1, 0, f_star=BooleanFunction(v, 0)),
    ),
    "n of the fingerprint": (lambda v: ea_fingerprint(BooleanFunction(v, 0)),),
    "r of phi": (
        lambda v: VectorialFunction(1, v, (BooleanFunction(1, 0),) * max(v, 0)),
        _phi_from_components,
        lambda v: MuSearchSpec("second-derivative", v, 0, f_star=BooleanFunction(1, 0)),
    ),
}


@pytest.mark.parametrize("job", list(gf2n.CAPS))
def test_cap_rejects_outside_one_to_cap(job, monkeypatch):
    monkeypatch.delenv("BENT_MAX_N", raising=False)
    cap = gf2n.CAPS[job]
    CAP_SITES[job][0](cap)
    for v in (cap + 1, 0, -1):
        why = f"{job} must be in 1..{cap}, got {v}"
        with pytest.raises(UnsupportedDegree, match=f"^{re.escape(why)}$"):
            gf2n.check_cap(job, v)
        # below 1 the job's input may not exist, and the "n" row rejects it first
        allowed = {why} if v > cap else {why, f"n must be in 1..{gf2n.CAPS['n']}, got {v}"}
        for site in CAP_SITES[job]:
            if v < 0 and site is _phi_from_components:
                continue  # a sequence has no length below 0; v = 0 covers this site
            with pytest.raises(UnsupportedDegree) as exc:
                site(v)
            assert str(exc.value) in allowed


def test_readme_cap_table_matches_caps():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", readme, re.M)
    assert {job: int(cap) for job, cap in rows} == gf2n.CAPS
    assert len(rows) == len(gf2n.CAPS)


def test_readme_construct_table_matches_constructions():
    # the table under the "| name | builds |" header, up to the first blank line;
    # the cap table's rows also start with a backticked name, so never read past it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = re.search(r"^\| name \| builds \|\n\|---\|---\|\n((?:\|.*\n)+)", readme, re.M).group(1)
    names = [name for row in table.splitlines() for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(names) == len(set(names)) == len(cli.CONSTRUCTIONS)
    assert set(names) == set(cli.CONSTRUCTIONS)



def test_readme_command_list_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"exposes \w+ subcommands: ([^.]+)\.", readme).group(1)
    (top,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert re.findall(r"`([^`]+)`", listed) == list(top.choices)

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


@st.composite
def fields(draw, degrees):
    # the first irreducible modulus at or after a drawn one, wrapping round
    n = draw(degrees)
    start = draw(st.integers(0, (1 << n) - 1))
    return gf2n.make_field(n, next(
        p for k in range(1 << n) if gf2n.is_irreducible(p := 1 << n | (start + k) % (1 << n))
    ))


def ref_mul(a: int, b: int, spec) -> int:
    return ref_mod(ref_clmul(a, b), spec.modulus)


def ref_frobenius(a: int, k: int, spec) -> int:
    for _ in range(k % spec.n):
        a = ref_mul(a, a, spec)
    return a


@settings(max_examples=150, deadline=None)
@given(fields(st.integers(1, 12)), st.data())
def test_solve_linearized_inverts_the_map_or_names_its_rank(spec, data):
    # L(y) = lam y + lam^(2^t) y^(2^(2t)), tabulated by linearity from
    # schoolbook images of the basis
    n = spec.n
    lam, t = data.draw(st.integers(0, (1 << n) - 1)), data.draw(st.integers(0, 2 * n))
    lam_t = ref_frobenius(lam, t, spec)
    table = [0]
    for j in range(n):
        image = ref_mul(lam, 1 << j, spec) ^ ref_mul(lam_t, ref_frobenius(1 << j, 2 * t, spec), spec)
        table += [v ^ image for v in table]
    rank = len(set(table)).bit_length() - 1
    if rank < n:
        with pytest.raises(SingularMap, match=f"has rank {rank}$"):
            gf2n.solve_linearized(lam, t, [0], spec)
    else:
        ys = gf2n.solve_linearized(lam, t, range(1 << n), spec)
        assert [table[y] for y in ys] == list(range(1 << n))


@settings(max_examples=60, deadline=None)
@given(fields(st.integers(1, 16)))
def test_subfield_elements_are_the_fixed_points(spec):
    field = np.arange(1 << spec.n)
    for r in range(1, spec.n + 1):
        if spec.n % r == 0:
            fixed = np.flatnonzero(gf2n.frobenius_table(r, spec) == field)
            assert gf2n.subfield_elements(r, spec) == tuple(fixed.tolist())


@settings(max_examples=40, deadline=None)
@given(fields(st.integers(1, 8).map(lambda m: 2 * m)))
def test_smallest_omega_is_the_least_solution(spec):
    field = np.arange(1 << spec.n)
    least = np.flatnonzero(gf2n.frobenius_table(spec.n // 2, spec) ^ field == 1)[0]
    assert _smallest_omega(spec) == least


def test_one_domain_check_names_the_value_and_the_domain(g16):
    zero2, zero4 = BooleanFunction.const(2, 0), BooleanFunction.const(4, 0)
    for call, why in [
        (lambda: translate(zero4, 16), "shift 0x10"),
        (lambda: dot_form(4, -1), "mask -0x1"),
        (lambda: GoldParams(g16, 16, 1), "lam 0x10"),
        (lambda: MMParams(g16, 0x1F, 1, 1, zero2), "lam 0x1f"),
    ]:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"{why} outside the 4-variable domain"


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
