"""Arithmetic in GF(2^n) on integer-indexed elements.

An element is a plain int in [0, 2^n): bit i holds the coefficient of X^i
in the polynomial basis, so field addition is integer XOR and the index of
an element doubles as its truth-table position.  A FieldSpec pins the degree
and the reduction modulus (given as the bitmask of the irreducible
polynomial, e.g. 0b111 for X^2+X+1); all operations take the spec explicitly.

Degrees 1..24 are supported.  When no modulus is supplied the
lexicographically smallest irreducible bitmask of that degree is used, found
by an ascending scan with trial division, so results are reproducible
without a shipped table.

Two layers share that representation.  The scalar functions (mul, power,
frobenius, trace_abs, ...) act on single ints and serve per-element work:
searches, side conditions, basis images.  A GF(2)-linear map is carried by
its n basis images: apply_linear evaluates it, pull_back composes a
covector with it, and the Frobenius powers are such images, cached.  The
array layer (mul_array, trace_array, linear_table, frobenius_table) acts
on numpy uint32 arrays of elements, which hold every degree up to 24 with
room for the one-bit overflow of a shift; linear_table tabulates a map
from its images by doubling, 2^k writes for k images, and the bit-sliced
products of mul_array serve subfields and batches of candidates.
Whole-field truth tables need no field product per point: `boolfun` and
`families` build them from basis images and covectors.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonIrreducible, NotADivisor, SingularMap, UnsupportedDegree

MAX_DEGREE = 24


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

    @property
    def m(self) -> int | None:
        """Half degree for even n, None otherwise."""
        return self.n // 2 if self.n % 2 == 0 else None

    def __str__(self) -> str:
        return f"GF(2^{self.n}) mod {self.modulus:x}"


def make_field(n: int, modulus: int | None = None) -> FieldSpec:
    if not isinstance(n, int) or n < 1 or n > MAX_DEGREE:
        raise UnsupportedDegree(f"degree must be in 1..{MAX_DEGREE}, got {n}")
    if modulus is None:
        modulus = default_modulus(n)
    elif _poly_degree(modulus) != n:
        raise NonIrreducible(f"modulus {modulus:#x} does not have degree {n}")
    elif not is_irreducible(modulus):
        raise NonIrreducible(f"modulus {modulus:#x} is reducible")
    return FieldSpec(n, modulus)


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
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    return power(a, (1 << spec.n) - 2, spec)


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


def _column_echelon(cols: list[int]):
    """Echelonize images of basis vectors, tracking input combinations.

    Returns (rows, kernel): rows is a list of (pivot_bit, vector, combo)
    with distinct pivots, kernel is a list of input combos mapping to zero.
    """
    rows: list[tuple[int, int, int]] = []
    kernel: list[int] = []
    for j, v in enumerate(cols):
        combo = 1 << j
        for pb, bv, bc in rows:
            if v >> pb & 1:
                v ^= bv
                combo ^= bc
        if v:
            rows.append((v.bit_length() - 1, v, combo))
        else:
            kernel.append(combo)
    return rows, kernel


def _solve(rows, rhs: int) -> tuple[int, int]:
    # rhs reduced over _column_echelon rows: (input combination, remainder)
    y = 0
    for pb, bv, bc in rows:
        if rhs >> pb & 1:
            rhs ^= bv
            y ^= bc
    return y, rhs


def solve_linearized(lam: int, t: int, rhs, spec: FieldSpec) -> list[int]:
    """Solve lam*y + lam^(2^t) * y^(2^(2t)) = r for y, for each r in rhs.

    The map is GF(2)-linear in y and echelonized once per call; each r then
    costs O(n) reductions.  Raises SingularMap when it is not invertible.
    """
    lam_t, images = frobenius(lam, t, spec), frobenius_images(2 * t, spec)
    rows, _ = _column_echelon([mul(lam, 1 << j, spec) ^ mul(lam_t, images[j], spec) for j in range(spec.n)])
    if len(rows) < spec.n:
        raise SingularMap(f"linearized map for lam={lam:#x}, t={t} has rank {len(rows)}")
    return [_solve(rows, r)[0] for r in rhs]


def nullspace(rows: list[int], n: int) -> list[int]:
    """Basis of {x : parity(x & row) = 0 for every row}, ascending and in
    reduced echelon form: no vector has another's leading bit set, so
    member i, the XOR of the vectors at the set bits of i, grows with i.
    With the rows reduced on their lowest bits, free column j gives
    1 << j plus pivot bits below j."""
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


def ortho_complement(mus: tuple[int, ...] | list[int], spec: FieldSpec) -> list[int]:
    """Basis of {alpha : Tr(alpha * mu_i) = 0 for every mu_i}."""
    size = 1 << spec.n
    for mu in mus:
        if not 0 <= mu < size:
            raise ValueError(f"element {mu:#x} outside the field")
    return nullspace([covector(mu, spec) for mu in mus], spec.n)


@functools.lru_cache(maxsize=None)
def subfield_elements(r: int, spec: FieldSpec) -> tuple[int, ...]:
    """All elements of GF(2^r) inside the field, ascending; requires r | n."""
    if r < 1 or spec.n % r:
        raise NotADivisor(f"{r} does not divide {spec.n}")
    cols = [frobenius(1 << j, r, spec) ^ (1 << j) for j in range(spec.n)]
    _, kernel = _column_echelon(cols)
    assert len(kernel) == r
    elems = [0]
    for b in kernel:
        elems += [e ^ b for e in elems]
    assert len(elems) == 1 << r
    return tuple(sorted(elems))


# ------------------------------------------------------------ array layer


def mul_array(a, b, spec: FieldSpec) -> np.ndarray:
    """Elementwise product of two uint32 element arrays, or of an array and
    a scalar: bit-sliced shift-and-reduce, one pass per bit of b."""
    a, b = np.broadcast_arrays(np.asarray(a, np.uint32), np.asarray(b, np.uint32))
    x, r, tmp = a.copy(), np.zeros(a.shape, np.uint32), np.empty(a.shape, np.uint32)
    n, mod = spec.n, np.uint32(spec.modulus)
    for i in range(n):
        np.right_shift(b, i, out=tmp)
        tmp &= 1
        tmp *= x
        r ^= tmp
        x <<= 1
        np.right_shift(x, n, out=tmp)
        tmp *= mod
        x ^= tmp
    return r


def trace_array(a, spec: FieldSpec, coeff: int = 1) -> np.ndarray:
    """Elementwise Tr(coeff * a) as uint8 0/1.

    The product never forms: the covector of coeff is the mask whose
    parity with a gives that trace, and covector(1) is the trace mask.
    """
    counts = np.bitwise_count(np.asarray(a, np.uint32) & np.uint32(covector(coeff, spec)))
    counts &= 1
    return counts


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


def frobenius_table(k: int, spec: FieldSpec) -> np.ndarray:
    """x -> x ** (2 ** (k mod n)) over the whole field, tabulated."""
    return linear_table(frobenius_images(k, spec))

