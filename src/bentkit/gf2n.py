"""Arithmetic in GF(2^n) on integer-indexed elements.

An element is a plain int in [0, 2^n): bit i holds the coefficient of X^i
in the polynomial basis, so field addition is integer XOR and the index of
an element doubles as its truth-table position.  A FieldSpec pins the degree
and the reduction modulus (given as the bitmask of the irreducible
polynomial, e.g. 0b111 for X^2+X+1); all operations take the spec explicitly.

Degrees 1..CAPS["n"] are supported.  When no modulus is supplied the
lexicographically smallest irreducible bitmask of that degree is used, found
by an ascending scan with trial division, so results are reproducible
without a shipped table.

Two layers share that representation.  The scalar functions (mul, power,
frobenius, trace_abs, ...) act on single ints and serve per-element work:
searches, side conditions, basis images.  A GF(2)-linear map is carried by
its n basis images: apply_linear evaluates it, pull_back composes a
covector with it, and the Frobenius powers are such images, cached.  The
array layer (mul_array, linear_table, frobenius_array) acts on numpy
uint32 arrays of elements, which hold every supported degree with room
for the one-bit overflow of a shift; linear_table tabulates a map from its
images by doubling, 2^k writes for k images, and the carry-less products
of mul_array, reduced through byte tables, serve subfields and batches of
candidates.
Whole-field truth tables need no field product per point: `boolfun` and
`families` build them from basis images and covectors.

GF(2)-linear systems have one kernel solver, nullspace, the reduced
echelon kernel of a list of rows: find_alphas' subspace, the radical of
the mu search's isotropic bound, the subfield GF(2^r) (the kernel of
x -> x^(2^r) + x) and, as the kernel of [L^T | I], the inverse of a
map L (solve_linearized).  span walks a span one XOR a member: the
searches' kernels and a certificate's omega tables.  The mu search
keeps three reductions, each cheaper there than a kernel: its kernel
basis, cut in nullspace's form by each chosen element's rows; an echelon
basis grown by one vector per candidate for its independence test; and
a numpy reduction of a Walsh support, up to 2^n vectors, to period rows.
check_domain is the one range check of elements and shifts, check_cap
the one check of sizes, each job's cap being a row of the table CAPS.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonIrreducible, NotADivisor, SingularMap, UnsupportedDegree

# job -> largest value it accepts; the README's cap table mirrors it row by row
CAPS = {
    "n": 24,  # field degree and function arity: make_field, BooleanFunction, from_text, find_alphas
    "n under BENT_MAX_N": 16,  # the CLI's default cap, which BENT_MAX_N moves within 1..CAPS["n"]
    "n of the second-derivative search": 16,  # one transform per element
    "n of the fingerprint": 14,  # 2^n derivatives
    "r of phi": 16,  # 2^r transforms per certificate, one more in construct generic
    "certificate n + r": 28,  # 2^r transforms of 2^n points per certificate
}


def check_cap(job: str, value: int, cap: int | None = None) -> None:
    """Raise UnsupportedDegree unless value is an int in 1..cap, CAPS[job] by default."""
    cap = CAPS[job] if cap is None else cap
    if not isinstance(value, int) or not 1 <= value <= cap:
        raise UnsupportedDegree(f"{job} must be in 1..{cap}, got {value}")


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    db = _poly_degree(b)
    while a and _poly_degree(a) >= db:
        a ^= b << (_poly_degree(a) - db)
    return a


def is_irreducible(p: int) -> bool:
    """Trial division by every polynomial of degree up to deg(p)/2.

    A zero constant term means X divides p, so such bitmasks are
    rejected outright; that also rules out X itself, which cannot serve
    as a reduction modulus.  Divisors with zero constant term then
    cannot occur either, hence the scan walks odd bitmasks only.
    """
    d = _poly_degree(p)
    if d < 1 or not p & 1:
        return False
    for q in range(3, 1 << (d // 2 + 1), 2):
        if _poly_mod(p, q) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(n: int) -> int:
    for p in range(1 << n, 1 << (n + 1)):
        if is_irreducible(p):
            return p
    raise NonIrreducible(f"no irreducible of degree {n}")  # unreachable for n >= 1


@dataclass(frozen=True)
class FieldSpec:
    """Degree plus reduction modulus; hashable so derived tables can cache on it."""

    n: int
    modulus: int

    def __str__(self) -> str:
        return f"GF(2^{self.n}) mod {self.modulus:x}"


def make_field(n: int, modulus: int | None = None) -> FieldSpec:
    check_cap("n", n)
    if modulus is None:
        modulus = default_modulus(n)
    elif _poly_degree(modulus) != n:
        raise NonIrreducible(f"modulus {modulus:#x} does not have degree {n}")
    elif not is_irreducible(modulus):
        raise NonIrreducible(f"modulus {modulus:#x} is reducible")
    return FieldSpec(n, modulus)


def check_domain(n: int, name: str, *values: int) -> None:
    """Raise ValueError for the first value outside [0, 2^n)."""
    for v in values:
        if not 0 <= v < 1 << n:
            raise ValueError(f"{name} {v:#x} outside the {n}-variable domain")


def mul(a: int, b: int, spec: FieldSpec) -> int:
    """Carry-less product reduced by the modulus."""
    n, mod = spec.n, spec.modulus
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= mod
    return r


def power(a: int, e: int, spec: FieldSpec) -> int:
    if e < 0:
        raise ValueError("negative exponent")
    r = 1
    while e:
        if e & 1:
            r = mul(r, a, spec)
        a = mul(a, a, spec)
        e >>= 1
    return r


def inverse(a: int, spec: FieldSpec) -> int:
    """a^-1 by the extended Euclidean algorithm in GF(2)[X]: u = g1 a, v = g2 a mod the modulus."""
    check_domain(spec.n, "element", a)
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    u, v, g1, g2 = a, spec.modulus, 1, 0
    while u != 1:
        if (j := u.bit_length() - v.bit_length()) < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u, g1 = u ^ v << j, g1 ^ g2 << j
    return g1


@functools.lru_cache(maxsize=None)
def _frobenius_images(k: int, spec: FieldSpec) -> tuple[int, ...]:
    if k == 0:
        return tuple(1 << j for j in range(spec.n))
    return tuple(mul(v, v, spec) for v in _frobenius_images(k - 1, spec))


def frobenius_images(k: int, spec: FieldSpec) -> tuple[int, ...]:
    """Images of the basis under x -> x ** (2 ** k), cached per (k mod n, field)."""
    return _frobenius_images(k % spec.n, spec)


def frobenius(a: int, k: int, spec: FieldSpec) -> int:
    """a ** (2 ** (k mod n)), i.e. k applications of the squaring map."""
    return apply_linear(frobenius_images(k, spec), a)


@functools.lru_cache(maxsize=None)
def _trace_mask(spec: FieldSpec) -> int:
    # bit i = Tr(X^i), computed from the defining sum of conjugates
    return sum(trace_abs_in(1 << i, spec.n, spec) << i for i in range(spec.n))


def trace_abs(a: int, spec: FieldSpec) -> int:
    """Absolute trace to GF(2), as 0 or 1."""
    return (a & _trace_mask(spec)).bit_count() & 1


def in_subfield(a: int, r: int, spec: FieldSpec) -> bool:
    """True iff a lies in the subfield GF(2^r); requires r | n."""
    if r < 1 or spec.n % r:
        raise NotADivisor(f"{r} does not divide {spec.n}")
    return frobenius(a, r, spec) == a


def trace_abs_in(a: int, r: int, spec: FieldSpec) -> int:
    """Absolute trace of a subfield element, taken inside GF(2^r).

    For a in the subfield GF(2^r) of GF(2^n) this is the sum of the r
    conjugates a^(2^k), k < r, which lands in GF(2).  Distinct from
    trace_abs: the full-field trace vanishes identically on a half-degree
    subfield when n/r is even.
    """
    if not in_subfield(a, r, spec):
        raise ValueError(f"{a:#x} is not in GF(2^{r})")
    t = functools.reduce(operator.xor, (frobenius(a, k, spec) for k in range(r)))
    assert t in (0, 1), "trace landed outside the prime field"
    return t


@functools.lru_cache(maxsize=None)
def _covector_images(spec: FieldSpec) -> tuple[int, ...]:
    # image of each basis vector under mu -> covector(mu); entry j has
    # bit i = Tr(X^(i+j))
    tp = []
    x = 1
    for _ in range(2 * spec.n - 1):
        tp.append(trace_abs(x, spec))
        x = mul(x, 2, spec)
    return tuple(sum(tp[i + j] << i for i in range(spec.n)) for j in range(spec.n))


def apply_linear(images, v: int) -> int:
    """The GF(2)-linear map sending bit j to images[j], at v."""
    out = 0
    for image in images:
        if v & 1:
            out ^= image
        v >>= 1
    return out


def span(vectors, i: int = 0):
    """Members i, i + 1, ... of span(vectors), member k being the XOR of the
    vectors at the set bits of k.  One XOR a step, so the vectors may be any
    ints: field elements or whole truth tables."""
    v, flips = apply_linear(vectors, i), [*itertools.accumulate(vectors, operator.xor), 0]
    while i < 1 << len(vectors):
        yield v
        i += 1
        v ^= flips[(i & -i).bit_length() - 1]  # the vectors up to i's lowest set bit flip


def pull_back(images, w: int) -> int:
    """The covector w composed with the map of apply_linear, i.e. bit i is
    parity(w & images[i])."""
    return sum(((w & image).bit_count() & 1) << i for i, image in enumerate(images))


def covector(mu: int, spec: FieldSpec) -> int:
    """Bitmask v with parity(v & x) = Tr(mu * x) for every x.

    Bridges the trace pairing on field elements and the dot pairing on
    plain bit vectors; it is a bijection because the trace form is
    non-degenerate.
    """
    return apply_linear(_covector_images(spec), mu)


def solve_linearized(lam: int, t: int, rhs, spec: FieldSpec) -> list[int]:
    """Solve L y = lam*y + lam^(2^t) * y^(2^(2t)) = r for y, for each r in rhs.

    The rows (L e_j, e_j) form [L^T | I], whose kernel is the pairs (a, b)
    with b = L^T a.  When L is invertible the b bits are exactly the free
    columns, and free column n + i carries a = L^-T e_i, row i of L^-1, so
    y = L^-1 r is one pull_back; a free a column is a kernel vector of L^T,
    so the rank is n minus their number.  Raises SingularMap when L is not
    invertible.
    """
    n, lam_t, images = spec.n, frobenius(lam, t, spec), frobenius_images(2 * t, spec)
    cols = [mul(lam, 1 << j, spec) ^ mul(lam_t, images[j], spec) for j in range(n)]
    basis = nullspace([col | 1 << (n + j) for j, col in enumerate(cols)], 2 * n)
    if basis[0] < 1 << n:
        rank = n - sum(v < 1 << n for v in basis)
        raise SingularMap(f"linearized map for lam={lam:#x}, t={t} has rank {rank}")
    return [pull_back(basis, r) for r in rhs]


def nullspace(rows: list[int], n: int) -> list[int]:
    """Basis of {x : parity(x & row) = 0 for every row}, ascending and in
    reduced echelon form: no vector has another's leading bit set, so
    member i, the XOR of the vectors at the set bits of i, grows with i.
    With the rows reduced on their lowest bits, free column j gives
    1 << j plus pivot bits below j.  The package's one kernel solver:
    solve_linearized and subfield_elements are kernels of it too."""
    pivots: dict[int, int] = {}  # lowest bit -> row, clear in every other row
    for row in rows:
        for c, r in pivots.items():
            if row >> c & 1:
                row ^= r
        if row:
            low = (row & -row).bit_length() - 1
            for c, r in pivots.items():
                if r >> low & 1:
                    pivots[c] = r ^ row
            pivots[low] = row
    return [
        1 << j | sum(1 << c for c, r in pivots.items() if r >> j & 1)
        for j in range(n)
        if j not in pivots
    ]


@functools.lru_cache(maxsize=None)
def subfield_elements(r: int, spec: FieldSpec) -> tuple[int, ...]:
    """All elements of GF(2^r) inside the field, ascending; requires r | n.
    The kernel of x -> x^(2^r) + x, tabulated from its reduced basis."""
    if r < 1 or spec.n % r:
        raise NotADivisor(f"{r} does not divide {spec.n}")
    cols = [f ^ 1 << j for j, f in enumerate(frobenius_images(r, spec))]
    rows = [pull_back(cols, 1 << i) for i in range(spec.n)]
    return tuple(linear_table(nullspace(rows, spec.n)).tolist())


# ------------------------------------------------------------ array layer


@functools.lru_cache(maxsize=None)
def _reduction_bytes(spec: FieldSpec) -> tuple[np.ndarray, ...]:
    # table i reduces bits n + 8i .. n + 8i + 7 of a carry-less product: byte v to v X^(n + 8i) mod the modulus
    return tuple(linear_table([_poly_mod(1 << spec.n + i, spec.modulus) for i in range(k, k + 8)]) for k in range(0, spec.n - 1, 8))


def mul_array(a, b, spec: FieldSpec) -> np.ndarray:
    """Elementwise product of two uint32 element arrays, or of an array and
    a scalar: the XOR of the shifts of a by the set bits of b, one broadcast
    of n uint64 words per element, reduced through _reduction_bytes."""
    a, b = np.broadcast_arrays(np.asarray(a, np.uint32), np.asarray(b, np.uint32))
    shifts = np.arange(spec.n, dtype=np.uint64)
    prod = np.bitwise_xor.reduce((a[..., None] << shifts) * (b[..., None] >> shifts & 1), axis=-1)
    out = np.array(prod & (1 << spec.n) - 1, np.uint32)
    for k, table in enumerate(_reduction_bytes(spec)):
        out ^= table[prod >> spec.n + 8 * k & 255]
    return out


def linear_table(images) -> np.ndarray:
    """Full table of the GF(2)-linear map sending basis vector j to images[j].

    Entry x is the XOR of images[j] over the set bits j of x; the table is
    built by doubling, one XOR pass per basis vector, so it costs 2^k
    writes for k images.
    """
    table = np.zeros(1 << len(images), np.uint32)
    for j, image in enumerate(images):
        np.bitwise_xor(table[: 1 << j], np.uint32(image), out=table[1 << j : 2 << j])
    return table


@functools.lru_cache(maxsize=None)
def _frobenius_bytes(k: int, spec: FieldSpec) -> tuple[np.ndarray, ...]:
    return tuple(linear_table(frobenius_images(k, spec)[i : i + 8]) for i in range(0, spec.n, 8))


def frobenius_array(xs: np.ndarray, k: int, spec: FieldSpec) -> np.ndarray:
    """x -> x ** (2 ** (k mod n)) on a uint32 array of elements: by
    linearity the XOR of one entry per byte of x, read from ceil(n/8) cached
    tables of up to 256 entries."""
    parts = xs.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4).T
    return functools.reduce(operator.xor, map(operator.getitem, _frobenius_bytes(k % spec.n, spec), parts))

