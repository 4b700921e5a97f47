"""Shared oracles for the test suite.

Everything here recomputes results along a route independent of the
package internals: direct sign summation instead of the butterfly,
Sylvester matrices built by doubling, and the classical half-split
recipe for bent truth tables.  Frozen constants elsewhere in the suite
were produced by these helpers.

The scalar_* builders are the per-element table loops the package used
before its tables moved to the array layer of gf2n, kept unchanged as
reference oracles: one scalar field call chain per truth-table entry.

The last section holds the oracles that only the tests use: the
direct-summation bent check, the batch re-verifier of construction
reports, the odd-sum form of the companion property and the enumerated
gold power image, and the helpers no package module calls (the
elementwise power over mul_array, the whole-field Frobenius table, the
elementwise trace through a covector and the trace monomial tables built
on them, the relative trace, the hex element format, the permutation file
writer).  After them come the package's earlier kernels, kept unchanged
as references for the ones that replaced them: the index-gather
translate, the copying butterfly,
a strategy drawing malformed truth-table files with the nibble-mask
wire-format reader, the every-omega certificate check, cornew's
every-selector dual-shift check, the closed forms of the known builders
carlet, mesnager1 and mesnager2 (majorities and linear-factor
corrections), the copying Moebius transform, the
per-derivative fingerprint with the one-batch derivative degrees it is
checked beside, the unpacked second-derivative predicate and
composition, and the depth-first mu search with the scalar gold and cor9
trace conditions it tests pairs by (also the oracles of the families'
partner covector) and the sort-based alpha listing over the
trace-orthogonal complement.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from bentkit import gf2n
from bentkit.boolfun import (
    _BYTE_SHIFTS,
    BooleanFunction,
    VectorialFunction,
    _derivative_degree_batches,
    dual,
    is_bent,
    to_text,
    translate,
    wht,
)
from bentkit.constructions import ConstructionReport, PrCertificate, _lin
from bentkit.errors import ArityMismatch, NotADivisor, NotBent, NotBentAdmissible
from bentkit.families import GoldParams, _smallest_omega, gold_bent_admissible
from bentkit.search import EaFingerprint, MuSearchSpec


def slow_walsh(f: BooleanFunction, mu: int, spec=None) -> int:
    """One coefficient by direct +-1 summation over the domain."""
    total = 0
    for x in range(1 << f.n):
        if spec is None:
            pair = (mu & x).bit_count() & 1
        else:
            pair = gf2n.trace_abs(gf2n.mul(mu, x, spec), spec)
        total += -1 if (f(x) ^ pair) else 1
    return total


def sylvester(n: int) -> np.ndarray:
    h = np.array([[1]], dtype=np.int64)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return h


def random_function(rng, n: int) -> BooleanFunction:
    return BooleanFunction.from_bits(n, [rng.randrange(2) for _ in range(1 << n)])


def inner_product_fn(n: int) -> BooleanFunction:
    """f(y, z) = y.z on half-split coordinates; bent and self dual."""
    m = n // 2
    mask = (1 << m) - 1
    bits = [(x & (x >> m) & mask).bit_count() & 1 for x in range(1 << n)]
    return BooleanFunction.from_bits(n, bits)


def random_mm_bent(rng, n: int) -> BooleanFunction:
    """y.pi(z) + g(z) on half-split coordinates, pi a random permutation."""
    return mm_bent_sharing_pi(rng, n, 1)[0]


def mm_bent_sharing_pi(rng, n: int, k: int) -> list[BooleanFunction]:
    """k functions y.pi(z) + g_i(z) on half-split coordinates, one random
    permutation pi and k random g_i."""
    m = n // 2
    mask = (1 << m) - 1
    perm = list(range(1 << m))
    rng.shuffle(perm)
    out = []
    for _ in range(k):
        gbits = [rng.randrange(2) for _ in range(1 << m)]
        bits = []
        for x in range(1 << n):
            lo, hi = x & mask, x >> m
            bits.append(((lo & perm[hi]).bit_count() & 1) ^ gbits[hi])
        out.append(BooleanFunction.from_bits(n, bits))
    return out


def xor_rank(vectors) -> int:
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def xor_span(vectors) -> set[int]:
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


def random_affine_image(rng, h: BooleanFunction) -> BooleanFunction:
    """h(Ax + c) + l.x + e for random invertible A, shift c, affine tail."""
    n = h.n
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if xor_rank(cols) == n:
            break
    c = rng.randrange(1 << n)
    ell = rng.randrange(1 << n)
    e = rng.randrange(2)
    bits = []
    for x in range(1 << n):
        y = c
        for i in range(n):
            if x >> i & 1:
                y ^= cols[i]
        bits.append(h(y) ^ ((ell & x).bit_count() & 1) ^ e)
    return BooleanFunction.from_bits(n, bits)


def anf_degree_walk(coeffs: int) -> int:
    """Degree of an ANF bitmask by walking its set bits one at a time."""
    # zero polynomial has degree 0 by convention; walk set bits only
    deg, c = 0, coeffs
    while c:
        low = c & -c
        deg = max(deg, (low.bit_length() - 1).bit_count())
        c ^= low
    return deg


# ------------------------------------------------ scalar table oracles


@functools.lru_cache(maxsize=8)
def _power_table(spec: gf2n.FieldSpec, e: int) -> tuple[int, ...]:
    return tuple(gf2n.power(x, e, spec) for x in range(1 << spec.n))


def scalar_trace_monomial(spec: gf2n.FieldSpec, lam: int, e: int) -> BooleanFunction:
    """x -> Tr(lam * x^e) over the field's domain."""
    bits = np.fromiter(
        (gf2n.trace_abs(gf2n.mul(lam, gf2n.power(x, e, spec), spec), spec)
         for x in range(1 << spec.n)),
        np.uint8,
        1 << spec.n,
    )
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_gold_function(p) -> BooleanFunction:
    """x -> Tr(lam * x^(2^t + 1))."""
    spec = p.spec
    powers = _power_table(spec, p.exponent)
    bits = [gf2n.trace_abs(gf2n.mul(p.lam, powers[x], spec), spec) for x in range(1 << spec.n)]
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_gold_dual(p) -> BooleanFunction:
    spec = p.spec
    if not gold_bent_admissible(p):
        raise NotBentAdmissible(
            f"gold parameters n={spec.n}, t={p.t}, lam={p.lam:x} are not bent"
        )
    const = (spec.n // 2 // p.d) % 2
    frob_t = _power_table(spec, 1 << p.t)
    bits = []
    for x0 in gf2n.solve_linearized(p.lam, p.t, frob_t, spec):
        bits.append(gf2n.trace_abs(gf2n.mul(p.lam, gf2n.mul(frob_t[x0], x0, spec), spec), spec) ^ const)
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_gold_companion(p, mu: int) -> BooleanFunction:
    # x -> Tr(lam * (mu x^(2^t) + mu^(2^t) x + mu^(2^t + 1)))
    spec = p.spec
    frob_t = _power_table(spec, 1 << p.t)
    mu_t = frob_t[mu]
    const_term = gf2n.mul(mu_t, mu, spec)
    bits = []
    for x in range(1 << spec.n):
        v = gf2n.mul(mu, frob_t[x], spec) ^ gf2n.mul(mu_t, x, spec) ^ const_term
        bits.append(gf2n.trace_abs(gf2n.mul(p.lam, v, spec), spec))
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_cor9_tables(spec: gf2n.FieldSpec, theta: int):
    """(f, base of h~) of the cor9 build: Tr_m(theta N(x)) + 1 and
    Tr_m(theta^(-1) N(x)) for the norm N(x) = x^(2^m + 1)."""
    m = spec.n // 2
    th_inv = gf2n.inverse(theta, spec)
    norm = _power_table(spec, (1 << m) + 1)
    size = 1 << spec.n
    one = BooleanFunction.const(spec.n, 1)
    f = BooleanFunction.from_bits(
        spec.n, [gf2n.trace_abs_in(gf2n.mul(theta, norm[x], spec), m, spec) for x in range(size)]
    ) ^ one
    h_star_base = BooleanFunction.from_bits(
        spec.n, [gf2n.trace_abs_in(gf2n.mul(th_inv, norm[x], spec), m, spec) for x in range(size)]
    )
    return f, h_star_base


def scalar_cor9_slot(spec: gf2n.FieldSpec, coeff: int, a: int) -> BooleanFunction:
    """x -> Tr(coeff a^(2^m) x) + Tr_m(coeff N(a)), the cor9 head (coeff
    theta, a alpha) and companion (coeff theta^(-1), a mu) slots."""
    m = spec.n // 2
    a_m = gf2n.frobenius(a, m, spec)
    const = gf2n.trace_abs_in(gf2n.mul(coeff, gf2n.mul(a, a_m, spec), spec), m, spec)
    return BooleanFunction.from_bits(
        spec.n,
        [gf2n.trace_abs(gf2n.mul(gf2n.mul(coeff, a_m, spec), x, spec), spec) ^ const for x in range(1 << spec.n)],
    )


@functools.lru_cache(maxsize=None)
def _subfield_embedding(spec: gf2n.FieldSpec, r: int):
    elems = gf2n.subfield_elements(r, spec)
    pmod = gf2n.default_modulus(r)
    beta = None
    for cand in elems:
        acc, rest, i = 0, pmod, 0
        while rest:
            if rest & 1:
                acc ^= gf2n.power(cand, i, spec)
            rest >>= 1
            i += 1
        if acc == 0:
            beta = cand
            break
    assert beta is not None, "subfield contains a root of every divisor-degree irreducible"
    pows = [gf2n.power(beta, i, spec) for i in range(r)]
    emb = []
    for z in range(1 << r):
        e = 0
        for i in range(r):
            if z >> i & 1:
                e ^= pows[i]
        emb.append(e)
    inv = {e: z for z, e in enumerate(emb)}
    assert len(inv) == 1 << r and set(emb) == set(elems)
    return tuple(emb), inv


def _pi_maps(p):
    """pi and its inverse as dicts over embedded subfield elements."""
    spec, m = p.spec, p.m
    emb, _ = _subfield_embedding(spec, m)
    if isinstance(p.pi, int):
        fwd = {s: gf2n.power(s, p.pi, spec) for s in emb}
    else:
        fwd = {emb[i]: emb[p.pi[i]] for i in range(1 << m)}
    return fwd, {v: k for k, v in fwd.items()}


def _g_bits(p) -> dict[int, int]:
    emb, _ = _subfield_embedding(p.spec, p.m)
    return {emb[z]: p.g_sub(z) for z in range(1 << p.m)}


def scalar_mm_function(p) -> BooleanFunction:
    spec, m = p.spec, p.m
    frob_m = _power_table(spec, 1 << m)
    frob_t = _power_table(spec, 1 << p.t)
    fwd, _ = _pi_maps(p)
    gb = _g_bits(p)
    bits = []
    for x in range(1 << spec.n):
        z = x ^ frob_m[x]
        prod = gf2n.mul(gf2n.mul(p.lam, frob_t[x], spec), fwd[z], spec)
        bits.append(gf2n.trace_abs(prod, spec) ^ gb[z])
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_mm_u_table(p) -> list[int]:
    """u(x) = pi^(-1)(Lam^(-1) * (x + x^(2^m))^(2^t)) as field elements."""
    spec, m = p.spec, p.m
    lam_inv = gf2n.inverse(p.lam ^ gf2n.frobenius(p.lam, m, spec), spec)
    frob_m = _power_table(spec, 1 << m)
    frob_t = _power_table(spec, 1 << p.t)
    _, back = _pi_maps(p)
    return [back[gf2n.mul(lam_inv, frob_t[x ^ frob_m[x]], spec)] for x in range(1 << spec.n)]


def scalar_mm_dual(p, omega: int | None = None) -> BooleanFunction:
    spec, m = p.spec, p.m
    if gf2n.in_subfield(p.lam, m, spec):
        raise NotBent(f"lam={p.lam:x} lies in GF(2^{m}), the shape is not bent")
    if omega is None:
        omega = _smallest_omega(spec)
    elif omega ^ gf2n.frobenius(omega, m, spec) != 1:
        raise ValueError(f"omega={omega:x} does not satisfy omega + omega^(2^m) = 1")
    frob_t = _power_table(spec, 1 << p.t)
    fwd, _ = _pi_maps(p)
    gb = _g_bits(p)
    big_g = {
        u: gf2n.trace_abs(
            gf2n.mul(gf2n.mul(p.lam, frob_t[gf2n.mul(omega, u, spec)], spec), fwd[u], spec), spec
        )
        ^ gb[u]
        for u in fwd
    }
    u_tab = scalar_mm_u_table(p)
    bits = [
        gf2n.trace_abs(gf2n.mul(gf2n.mul(omega, x, spec), u_tab[x], spec), spec) ^ big_g[u_tab[x]]
        for x in range(1 << spec.n)
    ]
    return BooleanFunction.from_bits(spec.n, bits)


def scalar_thmm_companion(p, mu: int, omega: int) -> BooleanFunction:
    """x -> Tr(omega mu u(x)), the thm12 dual slot for mu."""
    spec = p.spec
    u_tab = scalar_mm_u_table(p)
    size = 1 << spec.n
    c = gf2n.mul(omega, mu, spec)
    return BooleanFunction.from_bits(
        spec.n, [gf2n.trace_abs(gf2n.mul(c, u_tab[x], spec), spec) for x in range(size)]
    )


# ------------------------------------------------------ test-only oracles


def brute_force_bent_check(h: BooleanFunction) -> bool:
    """Bentness by direct summation of (-1)^(f(x) + mu.x), one mu at a
    time; quadratic in the table size and independent of the butterfly."""
    if h.n > 12:
        raise ValueError("direct summation is capped at degree 12")
    if h.n % 2:
        return False
    size = 1 << h.n
    signs = 1 - 2 * h.bits().astype(np.int64)
    idx = np.arange(size, dtype=np.int64)
    target = 1 << (h.n // 2)
    for mu in range(size):
        par = np.bitwise_count(idx & mu) & 1
        w = int((signs * (1 - 2 * par.astype(np.int64))).sum())
        if abs(w) != target:
            return False
    return True


@dataclass(frozen=True)
class BatchSummary:
    total: int
    bent_ok: int
    dual_ok: int
    failures: tuple[int, ...]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def batch_verify(reports: list[ConstructionReport]) -> BatchSummary:
    """Recheck every report from scratch: h bent, h_star equal to the
    spectral dual under the report's pairing.  Counts successes and
    collects failing indices."""
    bent_ok = dual_ok = 0
    failures = []
    for i, rep in enumerate(reports):
        w = wht(rep.h, rep.spec)
        target = 1 << (rep.h.n // 2) if rep.h.n % 2 == 0 else -1
        bent = bool(np.all(np.abs(w.values) == target))
        dmatch = False
        if bent:
            dual_bits = (w.values == -target).astype(np.uint8)
            dmatch = bool(np.array_equal(dual_bits, rep.h_star.bits()))
        bent_ok += bent
        dual_ok += dmatch
        if not (bent and dmatch):
            failures.append(i)
    return BatchSummary(len(reports), bent_ok, dual_ok, tuple(failures))


def check_odd_sum_condition(
    f: BooleanFunction,
    gs: list[BooleanFunction] | tuple[BooleanFunction, ...],
    spec: gf2n.FieldSpec | None = None,
) -> bool:
    """Every odd-size subset of {f, g_1, ..., g_r} sums to a bent function
    whose dual is the sum of the members' duals.

    Equivalent to the companion property of (f, phi) with phi_i = f + g_i;
    the two checkers are tested against each other.
    """
    fns = [f, *gs]
    for g in fns:
        if g.n != f.n:
            raise ArityMismatch("mixed arities in the odd-sum family")
        if not is_bent(g):
            return False
    duals = [dual(g, spec) for g in fns]
    k = len(fns)
    for mask in range(1, 1 << k):
        if mask.bit_count() % 2 == 0 or mask.bit_count() == 1:
            continue
        s_tab = 0
        d_tab = 0
        for i in range(k):
            if mask >> i & 1:
                s_tab ^= fns[i].table
                d_tab ^= duals[i].table
        s = BooleanFunction(f.n, s_tab)
        if not is_bent(s):
            return False
        if dual(s, spec).table != d_tab:
            return False
    return True


def power_array(a, e: int, spec: gf2n.FieldSpec) -> np.ndarray:
    """Elementwise a ** e by square-and-multiply over mul_array."""
    if e < 0:
        raise ValueError("negative exponent")
    a = np.asarray(a, np.uint32)
    r = np.ones(a.shape, np.uint32)
    while e:
        if e & 1:
            r = gf2n.mul_array(r, a, spec)
        e >>= 1
        if e:
            a = gf2n.mul_array(a, a, spec)
    return r


def frobenius_table(k: int, spec: gf2n.FieldSpec) -> np.ndarray:
    """x -> x ** (2 ** (k mod n)) over the whole field, tabulated from the
    basis images by doubling: the 2^n-entry table gf2n built before its
    Frobenius moved to byte tables, kept as the oracle of the subfield tests."""
    return gf2n.linear_table(gf2n.frobenius_images(k, spec))


def trace_array(a, spec: gf2n.FieldSpec, coeff: int = 1) -> np.ndarray:
    """Elementwise Tr(coeff * a) as uint8 0/1, through the covector of coeff."""
    counts = np.bitwise_count(np.asarray(a, np.uint32) & np.uint32(gf2n.covector(coeff, spec)))
    counts &= 1
    return counts


def from_trace_monomial(spec: gf2n.FieldSpec, lam: int, e: int) -> BooleanFunction:
    """x -> Tr(lam * x^e) over the field's domain."""
    powers = power_array(np.arange(1 << spec.n, dtype=np.uint32), e, spec)
    return BooleanFunction.from_bits(spec.n, trace_array(powers, spec, lam))


def gold_power_image(spec: gf2n.FieldSpec, t: int) -> frozenset[int]:
    """The image of x -> x^(2^t + 1) by enumeration; small-degree oracle
    kept around so gold_in_S has an independent cross-check."""
    if spec.n > 12:
        raise ValueError("image enumeration is capped at degree 12")
    return frozenset(power_array(np.arange(1 << spec.n), (1 << t) + 1, spec).tolist())


def trace_rel(a: int, r: int, spec: gf2n.FieldSpec) -> int:
    """Relative trace into the subfield GF(2^r); requires r | n."""
    if r < 1 or spec.n % r:
        raise NotADivisor(f"{r} does not divide {spec.n}")
    t = 0
    x = a
    for _ in range(spec.n // r):
        t ^= x
        x = gf2n.frobenius(x, r, spec)
    assert x == a
    return t


def to_hex(a: int) -> str:
    """Spec'd wire format for a field element: lowercase hex, no prefix."""
    return format(a, "x")


def from_hex(s: str) -> int:
    a = int(s, 16)
    if a < 0:
        raise ValueError(f"negative element {s!r}")
    return a


def permutation_to_text(m: int, images) -> str:
    """Two-line permutation table: "m=<int>", then the images of
    0 .. 2^m - 1 as space-separated subfield indices."""
    images = tuple(images)
    if sorted(images) != list(range(1 << m)):
        raise ValueError("images do not form a permutation of the subfield indices")
    return f"m={m}\n" + " ".join(str(v) for v in images) + "\n"


def dual_int32(n: int, values: np.ndarray) -> BooleanFunction | None:
    """Oracle for bent_dual from an exact int32 dot or trace spectrum: as
    Parseval makes the squares sum to 2^(2n) over 2^n points, no |W| above
    2^(n/2) means every |W| equals it.  None when not bent."""
    half = 1 << (n // 2)
    if n % 2 or int(values.max()) > half or int(values.min()) < -half:
        return None
    return BooleanFunction.from_bits(n, values < 0)


def mm_bent_pair(seed: int, n: int) -> tuple[BooleanFunction, BooleanFunction]:
    """y.pi(z) + g(z) on the low and high n/2 bits y, z, with its dot-pairing
    dual g(pi^-1(u)) + v.pi^-1(u) at u, v = low, high bits; numpy-built, so
    it stays fast up to n = 24."""
    rng = np.random.default_rng(seed)
    half = np.arange(1 << (n // 2), dtype=np.uint16)
    pi, g = rng.permutation(half), rng.integers(0, 2, half.size, dtype=np.uint8)
    inv = np.argsort(pi).astype(np.uint16)
    f = BooleanFunction.from_bits(n, ((np.bitwise_count(pi[:, None] & half) & 1) ^ g[:, None]).reshape(-1))
    f_star = BooleanFunction.from_bits(n, ((np.bitwise_count(half[:, None] & inv) & 1) ^ g[inv]).reshape(-1))
    return f, f_star


def translate_by_index(f: BooleanFunction, a: int) -> BooleanFunction:
    """The translate that boolfun.translate replaced: every byte through the
    in-byte table of a & 7, then a gather at the byte index j ^ (a >> 3), an
    array of 2^(n-3) entries."""
    gf2n.check_domain(f.n, "shift", a)
    raw = f.table.to_bytes(max(1, (1 << f.n) // 8), "little")
    moved = np.frombuffer(raw.translate(_BYTE_SHIFTS[a & 7]), np.uint8)
    idx = np.arange(moved.size, dtype=np.min_scalar_type(moved.size - 1))
    idx ^= a >> 3
    return BooleanFunction(f.n, int.from_bytes(moved[idx].tobytes(), "little"))


def butterfly_with_copies(v: np.ndarray) -> np.ndarray:
    """The dot-pairing Walsh butterfly on a +-1 vector, copying one half
    at every stage; the package kernel it was replaced by is checked
    against it."""
    a = v.astype(np.int32, copy=True)
    size = a.size
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        top = a[:, 0, :].copy()
        a[:, 0, :] = top + a[:, 1, :]
        a[:, 1, :] = top - a[:, 1, :]
        a = a.reshape(size)
        h *= 2
    return a


# line ends that keep a text's non-blank lines as they are, blank and
# whitespace-only lines included, and the breaks and spaces put inside a body
_LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\n\n", " \n\t \n", "\r\n \r\n")
_BREAKS = (" ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\n\n", "\n \n")


@st.composite
def malformed_table_texts(draw) -> str:
    """A wire-format text at n = 1..10 whose body has one character that
    is no digit of its format, one or two inner spaces (two can leave the
    hex digits in whole pairs), a line break, space or blank line strictly
    inside it, or the wrong length; its lines end in any line break, with
    blank lines and spaces around, after any leading blank line."""
    n = draw(st.integers(1, 10))
    body = to_text(BooleanFunction(n, draw(st.integers(0, (1 << (1 << n)) - 1)))).split("\n")[1]
    i, j = (draw(st.integers(0, len(body) - 1)) for _ in range(2))
    kind = draw(st.sampled_from(["digit", "space", "length", "break"]))
    if kind == "length":
        body = draw(st.sampled_from([body[:i], body + body[i]]))
    elif kind == "break" and len(body) > 1:  # a third line, or a line too long
        k = draw(st.integers(1, len(body) - 1))
        body = body[:k] + draw(st.sampled_from(_BREAKS)) + body[k:]
    else:
        bad = draw(st.sampled_from("gzG-.\x1f\u0130")) if kind == "digit" else " "
        for k in {i} if kind == "digit" else {i, j}:
            body = body[:k] + bad + body[k + 1 :]
    lead, end = draw(st.sampled_from(["", "\n", " \r\n", "\x0c\t\n"])), draw(st.sampled_from(_LINE_ENDS))
    return f"{lead}n={n}{end}{body}{end}"


def from_text_by_nibbles(text: str) -> BooleanFunction:
    """The wire-format reader that boolfun.from_text replaced: it decodes
    each hex character to a nibble through a character-code mask and
    unpacks the nibbles to one byte per bit.  Its messages are the ones
    the package reader must raise."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ValueError("expected two lines: 'n=<int>' then the table")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad arity line {lines[0]!r}") from None
    if not 1 <= n <= gf2n.CAPS["n"]:
        raise ValueError(f"n must be in 1..{gf2n.CAPS['n']}, got {n}")
    body = lines[1].lower()
    size = 1 << n
    if size < 4:
        if len(body) != size or set(body) - set("01"):
            raise ValueError("bad raw binary table")
        bits = np.frombuffer(body.encode(), np.uint8) - ord("0")
    else:
        if len(body) != size // 4:
            raise ValueError(f"expected {size // 4} hex chars, got {len(body)}")
        codes = np.frombuffer(body.encode(), np.uint8)
        nibbles = np.full(codes.size, 255, np.uint8)
        digit = (codes >= ord("0")) & (codes <= ord("9"))
        letter = (codes >= ord("a")) & (codes <= ord("f"))
        nibbles[digit] = codes[digit] - ord("0")
        nibbles[letter] = codes[letter] - ord("a") + 10
        if np.any(nibbles == 255):
            raise ValueError("bad hex table")
        bits = np.unpackbits(nibbles.reshape(-1, 1) << 4, axis=1, count=4).reshape(-1)
    return BooleanFunction.from_bits(n, bits)


def check_property_pr_every_omega(
    f: BooleanFunction,
    phi: VectorialFunction,
    spec: gf2n.FieldSpec | None = None,
) -> PrCertificate:
    """The companion-property check that transforms every omega twice,
    weights 0 and 1 included (is_bent, then dual); the one-pass
    check_property_pr must give the same certificate."""
    if phi.n != f.n:
        raise ArityMismatch(f"phi is on {phi.n} variables, f on {f.n}")
    if not is_bent(f):
        return PrCertificate(False, None, witness_omega=0, spec=spec)
    f_star = dual(f, spec)
    companions = []
    for i, comp in enumerate(phi.components):
        g = f ^ comp
        if not is_bent(g):
            return PrCertificate(False, None, witness_omega=1 << i, spec=spec)
        companions.append(f_star ^ dual(g, spec))
    varphi = VectorialFunction(f.n, phi.r, tuple(companions))
    for omega in range(1 << phi.r):
        g, expected = f, f_star
        for i in range(phi.r):
            if omega >> i & 1:
                g ^= phi.components[i]
                expected ^= companions[i]
        if not is_bent(g):
            return PrCertificate(False, None, witness_omega=omega, spec=spec)
        got = dual(g, spec)
        if got != expected:
            diff = got.table ^ expected.table
            x = (diff & -diff).bit_length() - 1
            return PrCertificate(False, None, witness_omega=omega, witness_x=x, spec=spec)
    return PrCertificate(True, varphi, spec=spec)


def dual_shift_literal(f_star: BooleanFunction, g_star: BooleanFunction, mus) -> tuple[int, int] | None:
    """cornew's condition (B) over every selector omega' of the mu tuple,
    g~(x + sum omega_i mu_i) = g~(x) + sum omega_i f~(x + mu_i)
    [+ f~(x) when omega' has odd weight], at 2^r - 1 table comparisons:
    the first failing (omega', x), or None.  Given the pairwise
    second-derivative conditions, the builder's r period checks must agree."""
    shifted = [translate(f_star, mu) for mu in mus]
    for omega in range(1, 1 << len(mus)):
        s = 0
        rhs = g_star.table
        for i in range(len(mus)):
            if omega >> i & 1:
                s ^= mus[i]
                rhs ^= shifted[i].table
        if omega.bit_count() % 2:
            rhs ^= f_star.table
        lhs = translate(g_star, s).table
        if lhs != rhs:
            diff = lhs ^ rhs
            return omega, (diff & -diff).bit_length() - 1
    return None


def maj(a: BooleanFunction, b: BooleanFunction, c: BooleanFunction) -> BooleanFunction:
    """The pointwise majority of three functions."""
    return (a & b) ^ (a & c) ^ (b & c)


def carlet_closed_form(f1, f2, f3, spec=None) -> tuple[BooleanFunction, BooleanFunction]:
    """(maj(f1, f2, f3), maj(f1~, f2~, f3~)), carlet's closed form; the
    builder's shifted_build route must give the same pair."""
    return maj(f1, f2, f3), maj(*(dual(g, spec) for g in (f1, f2, f3)))


def mesnager1_closed_form(f, a: int, b: int, spec=None) -> tuple[BooleanFunction, BooleanFunction]:
    """(f + l_a l_b, maj(f~, f~(x + a), f~(x + b))), mesnager1's closed form."""
    d = dual(f, spec)
    return f ^ (_lin(f.n, a, spec) & _lin(f.n, b, spec)), maj(d, translate(d, a), translate(d, b))


def mesnager2_closed_form(f1, f2, a: int, spec=None) -> tuple[BooleanFunction, BooleanFunction]:
    """(f1 + l_a (f1 + f2), f1~ + (f1~ + f2~) D_a f1~), mesnager2's closed form."""
    d1, d2 = dual(f1, spec), dual(f2, spec)
    return f1 ^ (_lin(f1.n, a, spec) & (f1 ^ f2)), d1 ^ ((d1 ^ d2) & (d1 ^ translate(d1, a)))


def moebius_with_copies(bits: np.ndarray) -> np.ndarray:
    """The Moebius transform on one unpacked bit per byte, copying the
    input and reshaping at every stage; the packed in-place kernel behind
    anf is checked against it."""
    a = bits.copy()
    size = a.size
    step = 1
    while step < size:
        a = a.reshape(-1, 2, step)
        a[:, 1, :] ^= a[:, 0, :]
        a = a.reshape(size)
        step *= 2
    return a


def ea_fingerprint_per_derivative(h: BooleanFunction) -> EaFingerprint:
    """The EA fingerprint with one unpacked Moebius transform per
    derivative; the batched ea_fingerprint must give the same result."""
    if h.n > 14:
        raise ValueError(f"n of the fingerprint must be in 1..14, got {h.n}")
    size = 1 << h.n
    bits = h.bits()
    idx = np.arange(size)
    weights = np.bitwise_count(idx)
    degs = Counter()
    for a in range(size):
        coeffs = moebius_with_copies(bits ^ bits[idx ^ a])
        nz = np.nonzero(coeffs)[0]
        degs[int(weights[nz].max()) if nz.size else 0] += 1
    own = moebius_with_copies(bits)
    nz = np.nonzero(own)[0]
    own_deg = int(weights[nz].max()) if nz.size else 0
    return EaFingerprint(own_deg, tuple(sorted(degs.items())))


def derivative_degrees(f: BooleanFunction, shifts: np.ndarray) -> np.ndarray:
    """Algebraic degree of D_a f for each a in shifts, as one batch of the
    kernel behind ea_fingerprint."""
    return next(_derivative_degree_batches(f, [shifts]))


def d2_nonzero_unpacked(f_star: BooleanFunction):
    """(a, b) -> whether D_a D_b f_star is nonzero somewhere, on one
    unpacked bit per point with int64 index arrays; the packed
    constructions._d2_nonzero must agree with it."""
    bits = f_star.bits()
    idx = np.arange(bits.size)

    def fails(a: int, b: int) -> bool:
        return bool((bits ^ bits[idx ^ a] ^ bits[idx ^ b] ^ bits[idx ^ a ^ b]).any())

    return fails


def compose_unpacked(F: BooleanFunction, phi: VectorialFunction) -> BooleanFunction:
    """x -> F(phi_1(x), ..., phi_r(x)) on one unpacked bit per point with an
    int64 index as long as the table; the blocked boolfun.compose must
    agree with it."""
    idx = np.zeros(1 << phi.n, np.int64)
    for i, comp in enumerate(phi.components):
        idx |= comp.bits().astype(np.int64) << i
    return BooleanFunction.from_bits(phi.n, F.bits()[idx])


def _gold_pair_condition(p: GoldParams, a: int, b: int) -> int:
    # Tr(lam * (a^(2^t) b + a b^(2^t))), the second derivative of the gold
    # function at (a, b); constant in x
    spec = p.spec
    v = gf2n.mul(gf2n.frobenius(a, p.t, spec), b, spec) ^ gf2n.mul(a, gf2n.frobenius(b, p.t, spec), spec)
    return gf2n.trace_abs(gf2n.mul(p.lam, v, spec), spec)


def _cor9_pair_condition(spec: gf2n.FieldSpec, th_inv: int, a: int, b: int) -> int:
    # Tr(theta^(-1) * a * b^(2^m)), the pairwise condition of the t = m
    # specialization
    m = spec.n // 2
    return gf2n.trace_abs(gf2n.mul(th_inv, gf2n.mul(a, gf2n.frobenius(b, m, spec), spec), spec), spec)


def _pair_oracle(ms: MuSearchSpec):
    # (a, b) -> truthy when the pair fails the mode's condition
    if ms.mode == "second-derivative":
        return d2_nonzero_unpacked(ms.f_star)
    if ms.mode == "gold-trace":
        return functools.partial(_gold_pair_condition, ms.gold)
    return functools.partial(_cor9_pair_condition, ms.spec, gf2n.inverse(ms.theta, ms.spec))


def _reduce(basis: dict[int, int], v: int) -> int:
    # basis maps leading bit -> vector with that leading bit; the
    # remainder is 0 exactly when v lies in the span
    while v:
        lead = v.bit_length() - 1
        if lead not in basis:
            break
        v ^= basis[lead]
    return v


def find_mu_tuples_dfs(
    ms: MuSearchSpec, cursor: tuple[int, ...] | None = None
) -> list[tuple[int, ...]]:
    """The depth-first mu search that tests every candidate against every
    chosen element through the scalar pair oracles; the subspace walk of
    find_mu_tuples must give the same list."""
    if ms.n > 16:
        raise ValueError("exhaustive search is capped at degree 16")
    if cursor is not None and len(cursor) != ms.r:
        raise ValueError(f"cursor length {len(cursor)} does not match r={ms.r}")
    fails = functools.lru_cache(maxsize=None)(_pair_oracle(ms))
    size = 1 << ms.n
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []
    basis: dict[int, int] = {}

    def dfs(start: int) -> bool:
        depth = len(chosen)
        if depth == ms.r:
            t = tuple(chosen)
            if cursor is None or t > cursor:
                out.append(t)
            return len(out) >= ms.limit
        if cursor is not None and tuple(chosen) == cursor[:depth] and depth < len(cursor):
            # on the cursor's own path, nothing below cursor[depth] can
            # produce a tuple beyond the cursor
            start = max(start, cursor[depth])
        for cand in range(start, size):
            if any(fails(prev, cand) for prev in chosen):
                continue
            if ms.require_independent:
                red = _reduce(basis, cand)
                if red == 0:
                    continue
                basis[red.bit_length() - 1] = red
            chosen.append(cand)
            stop = dfs(cand + 1)
            chosen.pop()
            if ms.require_independent:
                del basis[red.bit_length() - 1]
            if stop:
                return True
        return False

    if ms.limit:
        dfs(1)
    return out


def ortho_complement(mus, spec: gf2n.FieldSpec) -> list[int]:
    """Basis of {alpha : Tr(alpha * mu_i) = 0 for every mu_i}."""
    gf2n.check_domain(spec.n, "element", *mus)
    return gf2n.nullspace([gf2n.covector(mu, spec) for mu in mus], spec.n)


def find_alphas_sorted(
    mus,
    limit: int,
    *,
    n: int | None = None,
    spec: gf2n.FieldSpec | None = None,
) -> list[int]:
    """find_alphas by listing the whole subspace and sorting it."""
    if (n is None) == (spec is None):
        raise ValueError("pass exactly one of n or spec")
    if spec is not None:
        basis = ortho_complement(tuple(mus), spec)
    else:
        if n < 1:
            raise ValueError(f"n must be in 1..{gf2n.CAPS['n']}, got {n}")
        gf2n.check_domain(n, "element", *mus)
        basis = gf2n.nullspace([mu for mu in mus if mu], n)
    members = [0]
    for b in basis:
        members += [m ^ b for m in members]
    members.sort()
    return members[:limit]
