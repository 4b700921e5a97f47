"""Boolean functions on F_2^n as bit-packed truth tables.

Conventions, used everywhere downstream:

* a function on n variables is a single int with bit x = f(x), for truth
  table indices x in [0, 2^n);
* bit i of the index is the value of variable x_(i+1), so the index is at
  once a vector in F_2^n and (through gf2n) a field element;
* the Walsh transform and the dual default to the canonical dot pairing
  mu.x = parity(mu & x); passing a FieldSpec switches the pairing to
  Tr(mu*x) of that field, which is what the closed-form duals of the
  field families are stated against.  The two pairings differ by the
  covector reindexing and are never mixed inside one call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .errors import ArityMismatch, NotBent

MAX_ARITY = 24
_HEX = b"0123456789abcdef"
_HEX_TRANS = bytes.maketrans(bytes(range(16)), _HEX)


def _unpack(table: int, n: int) -> np.ndarray:
    size = 1 << n
    raw = table.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")[:size]


def _pack(bits: np.ndarray) -> int:
    packed = np.packbits(np.asarray(bits, np.uint8) & 1, bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


# _BYTE_BITS[b, j] = bit j of byte b, the point j of an 8-point table
_BYTE_BITS = np.arange(256, dtype=np.uint8)[:, None] >> np.arange(8, dtype=np.uint8) & 1

# _BYTE_SCORE[b] = 1 + the largest popcount(j) over set bits j of byte b;
# -64 for the empty byte, which no index popcount (<= 21) lifts above 0
_BYTE_SCORE = (_BYTE_BITS * (1 + np.bitwise_count(np.arange(8, dtype=np.uint8)))).max(axis=1).astype(np.int8)
_BYTE_SCORE[0] = -64

# _H8[u, j] = (-1)^popcount(u & j), the 8-point Sylvester-Hadamard matrix;
# _BYTE_WHT[b] is the Walsh transform of the 8 signs (-1)^bit of byte b
_H8 = 1 - 2 * (np.bitwise_count(np.arange(8)[:, None] & np.arange(8)).astype(np.int32) & 1)
_BYTE_WHT = (1 - 2 * _BYTE_BITS.astype(np.int32)) @ _H8

# _BYTE_MOEBIUS[b] is the 8-point Moebius transform of byte b: bit u is the
# XOR of the bits j of b with j a subset of u
_BYTE_MOEBIUS = np.packbits(
    _BYTE_BITS @ (np.arange(8)[:, None] & ~np.arange(8) == 0) & 1, axis=1, bitorder="little"
).ravel()

# _BYTE_TRANSLATE[s, b] is byte b with bit j moved to bit j ^ s, i.e. the
# 8-point table x -> b(x + s)
_BYTE_TRANSLATE = np.packbits(
    _BYTE_BITS[:, np.arange(8) ^ np.arange(8)[:, None]], axis=2, bitorder="little"
)[:, :, 0].T


@dataclass(frozen=True)
class BooleanFunction:
    n: int
    table: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ARITY:
            raise ArityMismatch(f"arity must be in 1..{MAX_ARITY}, got {self.n}")
        if not 0 <= self.table < 1 << (1 << self.n):
            raise ValueError("truth table does not fit 2^n bits")

    @classmethod
    def const(cls, n: int, bit: int) -> "BooleanFunction":
        return cls(n, ((1 << (1 << n)) - 1) if bit & 1 else 0)

    @classmethod
    def from_bits(cls, n: int, bits) -> "BooleanFunction":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.size != 1 << n:
            raise ValueError(f"expected {1 << n} bits, got {arr.size}")
        return cls(n, _pack(arr))

    def bits(self) -> np.ndarray:
        return _unpack(self.table, self.n)

    def weight(self) -> int:
        return self.table.bit_count()

    def __call__(self, x: int) -> int:
        return self.table >> x & 1

    def __xor__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.n != other.n:
            raise ArityMismatch(f"cannot add functions on {self.n} and {other.n} variables")
        return BooleanFunction(self.n, self.table ^ other.table)

    def __and__(self, other: "BooleanFunction") -> "BooleanFunction":
        if self.n != other.n:
            raise ArityMismatch(f"cannot multiply functions on {self.n} and {other.n} variables")
        return BooleanFunction(self.n, self.table & other.table)


@dataclass(frozen=True, eq=False)
class WalshSpectrum:
    n: int
    values: np.ndarray  # int32, length 2^n, write-protected

    def __post_init__(self):
        self.values.flags.writeable = False

    def __eq__(self, other):
        return (
            isinstance(other, WalshSpectrum)
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )


@dataclass(frozen=True)
class AnfForm:
    """Algebraic normal form; bit u of coeffs is the coefficient of the
    monomial prod{x_(i+1) : bit i of u}."""

    n: int
    coeffs: int

    @property
    def degree(self) -> int:
        """Largest popcount of a monomial with a nonzero coefficient; the
        zero polynomial has degree 0 by convention."""
        return int(_degrees(_table_bytes(self.coeffs, self.n)))

    def function(self) -> "BooleanFunction":
        # the Moebius transform is an involution
        return BooleanFunction(self.n, _moebius_table(self.coeffs, self.n))


@dataclass(frozen=True)
class VectorialFunction:
    n: int
    r: int
    components: tuple[BooleanFunction, ...]

    def __post_init__(self):
        if not 1 <= self.r <= 16:
            raise ArityMismatch(f"output arity must be in 1..16, got {self.r}")
        if len(self.components) != self.r:
            raise ArityMismatch("component count does not match r")
        for c in self.components:
            if c.n != self.n:
                raise ArityMismatch("components disagree on input arity")

    @classmethod
    def from_components(cls, comps) -> "VectorialFunction":
        comps = tuple(comps)
        if not comps:
            raise ArityMismatch("need at least one component")
        return cls(comps[0].n, len(comps), comps)


def _butterfly(f: BooleanFunction) -> np.ndarray:
    """Dot-pairing Walsh transform of f as a fresh int32 array.

    The first three stages act inside each byte of the packed table, so
    they are read from _BYTE_WHT; every later stage maps each pair of
    half-blocks (x, y) to (x + y, x - y) in place, on views of the one
    array, so the working memory is the output itself.
    """
    size = 1 << f.n
    if f.n < 3:
        return (1 - 2 * _unpack(f.table, f.n).astype(np.int32)) @ _H8[:size, :size]
    raw = np.frombuffer(f.table.to_bytes(size // 8, "little"), np.uint8)
    a = np.take(_BYTE_WHT, raw, axis=0).reshape(size)
    h = 8
    while h < size:
        pairs = a.reshape(-1, 2, h)
        x, y = pairs[:, 0], pairs[:, 1]
        x += y
        y *= -2
        y += x
        h *= 2
    return a


@functools.lru_cache(maxsize=None)
def _covector_permutation(spec: gf2n.FieldSpec) -> np.ndarray:
    perm = gf2n.linear_table(gf2n._covector_images(spec))
    perm.flags.writeable = False
    return perm


def wht(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> WalshSpectrum:
    """Exact Walsh spectrum, W[mu] = sum_x (-1)^(f(x) + <mu,x>).

    The butterfly computes the dot-pairing transform; with a FieldSpec the
    result is reindexed through the covector map so that <mu,x> = Tr(mu*x).
    Values are exact int32 (|W| <= 2^24 < 2^31).
    """
    if spec is not None and spec.n != f.n:
        raise ArityMismatch(f"field degree {spec.n} != function arity {f.n}")
    values = _butterfly(f)
    if spec is not None:
        values = values[_covector_permutation(spec)]
    return WalshSpectrum(f.n, values)


def _flat(values: np.ndarray, n: int) -> bool:
    # Parseval: the squares sum to 2^(2n) over 2^n points, so no |W| above
    # 2^(n/2) means every |W| equals it
    half = 1 << (n // 2)
    return int(values.max()) <= half and int(values.min()) >= -half


def is_bent(f: BooleanFunction) -> bool:
    """Flat spectrum test; pairing-independent, so no spec is needed."""
    return f.n % 2 == 0 and _flat(_butterfly(f), f.n)


def bent_dual(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> BooleanFunction | None:
    """The dual f~ with W[mu] = 2^(n/2) * (-1)^f~(mu), from one transform;
    None when f is not bent, odd arity included."""
    if spec is not None and spec.n != f.n:
        raise ArityMismatch(f"field degree {spec.n} != function arity {f.n}")
    if f.n % 2:
        return None
    values = wht(f, spec).values
    if not _flat(values, f.n):
        return None
    return BooleanFunction(f.n, _pack(values < 0))


def dual(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> BooleanFunction:
    """bent_dual, raising NotBent where it gives None."""
    g = bent_dual(f, spec)
    if g is None:
        raise NotBent(f"no bent functions on {f.n} (odd) variables" if f.n % 2 else "spectrum is not flat")
    return g


def translate(f: BooleanFunction, a: int) -> BooleanFunction:
    """x -> f(x + a); index XOR is both vector and field addition."""
    if not 0 <= a < 1 << f.n:
        raise ValueError(f"shift {a:#x} outside the domain")
    # byte j is byte j ^ (a >> 3) of f moved by a & 7 inside the byte; unlike
    # np.take, indexing casts a narrow index in chunks, not in one int64 copy
    moved = _BYTE_TRANSLATE[a & 7][_table_bytes(f.table, f.n)]
    idx = np.arange(moved.size, dtype=np.min_scalar_type(moved.size - 1))
    idx ^= a >> 3
    moved = moved[idx]
    del idx
    return BooleanFunction(f.n, int.from_bytes(moved.tobytes(), "little"))


def derivative(f: BooleanFunction, mu: int) -> BooleanFunction:
    """D_mu f(x) = f(x) + f(x + mu)."""
    return f ^ translate(f, mu)


def _table_bytes(table: int, n: int) -> np.ndarray:
    # writable little-endian bytes of a 2^n-bit table, bit x % 8 of byte
    # x // 8 being the point x; one byte, high bits clear, below n = 3
    return np.frombuffer(bytearray(table.to_bytes(max(1, (1 << n) // 8), "little")), np.uint8)


def _moebius(a: np.ndarray, n: int) -> np.ndarray:
    """Moebius transform of packed n-variable tables along the last axis of
    the C-contiguous uint8 array a, in place; returns a.

    It is an involution: it maps a truth table to its ANF coefficients
    and back.  The first three stages act inside each byte, so they are
    read from _BYTE_MOEBIUS; every later stage XORs each lower half-block
    of h bytes into the upper one, on a view of a in words of min(h, 8)
    bytes.  Below n = 3 the 8-point table sets the padding bits above
    2^n, so they are masked off.
    """
    np.take(_BYTE_MOEBIUS, a, out=a)
    if n < 3:
        a &= (1 << (1 << n)) - 1
    h = 1
    while h < a.shape[-1]:
        width = min(h, 8)
        words = a.view(f"u{width}")
        pairs = words.reshape(*words.shape[:-1], -1, 2, h // width)
        pairs[..., 1, :] ^= pairs[..., 0, :]
        h *= 2
    return a


def _moebius_table(table: int, n: int) -> int:
    return int.from_bytes(_moebius(_table_bytes(table, n), n).tobytes(), "little")


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """Degree of each ANF along the last axis of packed coefficient bytes,
    the zero polynomial counting as degree 0.

    Monomial u is bit u % 8 of byte u // 8 and popcount(u) = popcount(u // 8)
    + popcount(u % 8), so the bytes are scored with _BYTE_SCORE, whose
    negative empty-byte score needs no mask.  Viewed as rows of 256
    bytes, a byte index splits the same way again, so no index array of
    the table's length is formed.
    """
    rows = coeffs.reshape(*coeffs.shape[:-1], -1, min(coeffs.shape[-1], 256))
    score = np.take(_BYTE_SCORE, rows)
    score += np.bitwise_count(np.arange(rows.shape[-1], dtype=np.uint8)).astype(np.int8)
    best = score.max(axis=-1)
    best += np.bitwise_count(np.arange(best.shape[-1], dtype=np.uint32)).astype(np.int8)
    return np.maximum(best.max(axis=-1), 1) - 1


def anf(f: BooleanFunction) -> AnfForm:
    return AnfForm(f.n, _moebius_table(f.table, f.n))


def algebraic_degree(f: BooleanFunction) -> int:
    return anf(f).degree


def derivative_degrees(f: BooleanFunction, shifts: np.ndarray) -> np.ndarray:
    """Algebraic degree of D_a f for each a in shifts, in one batched
    Moebius transform of the derivatives' packed tables.

    With uint16 shifts (n <= 16) every index array is uint16, and the
    working memory is a few bytes per table byte per row, plus eight
    translated copies of f.
    """
    raw = _table_bytes(f.table, f.n)
    # row a reads byte j ^ (a >> 3) of the copy of f translated by a & 7
    # inside each byte; that index is below 2^n, so it fits shifts' dtype
    moved = np.take(_BYTE_TRANSLATE, raw, axis=1)
    idx = np.arange(raw.size, dtype=shifts.dtype) ^ (shifts >> 3)[:, None]
    idx += ((shifts & 7) * raw.size)[:, None]
    rows = np.take(moved, idx)
    rows ^= raw
    return _degrees(_moebius(rows, f.n))


def compose(F: BooleanFunction, phi: VectorialFunction) -> BooleanFunction:
    """x -> F(phi_1(x), ..., phi_r(x)), component i feeding index bit i of F."""
    if F.n != phi.r:
        raise ArityMismatch(f"F takes {F.n} inputs, phi supplies {phi.r}")
    idx = np.zeros(1 << phi.n, np.int64)
    for i, comp in enumerate(phi.components):
        idx |= _unpack(comp.table, phi.n).astype(np.int64) << i
    return BooleanFunction(phi.n, _pack(_unpack(F.table, F.n)[idx]))


def dot_form(n: int, mask: int) -> BooleanFunction:
    """Linear form x -> parity(mask & x) under the dot pairing."""
    if not 0 <= mask < 1 << n:
        raise ValueError(f"mask {mask:#x} outside the domain")
    return BooleanFunction(n, _pack(np.bitwise_count(np.arange(1 << n, dtype=np.uint32) & mask) & 1))


def linear_form(spec: gf2n.FieldSpec, mu: int) -> BooleanFunction:
    """Linear form x -> Tr(mu * x) under the field's trace pairing."""
    return dot_form(spec.n, gf2n.covector(mu, spec))


def from_trace_monomial(spec: gf2n.FieldSpec, lam: int, e: int) -> BooleanFunction:
    """x -> Tr(lam * x^e) over the field's domain."""
    powers = gf2n.power_array(np.arange(1 << spec.n, dtype=np.uint32), e, spec)
    return BooleanFunction(spec.n, _pack(gf2n.trace_array(powers, spec, lam)))


def to_text(f: BooleanFunction) -> str:
    """Two-line wire format: "n=<int>" then the table.

    For 2^n >= 4 the table is hex, one character per nibble, the most
    significant bit of each nibble being the smallest index, i.e. the
    binary string f(0) f(1) ... f(2^n - 1) read in groups of four.  For a
    domain smaller than one nibble the raw binary string is used instead.
    """
    bits = _unpack(f.table, f.n)
    if bits.size < 4:
        body = "".join("01"[b] for b in bits)
    else:
        nibbles = bits.reshape(-1, 4) @ np.array([8, 4, 2, 1], np.uint8)
        body = nibbles.astype(np.uint8).tobytes().translate(_HEX_TRANS).decode()
    return f"n={f.n}\n{body}\n"


def from_text(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ValueError("expected two lines: 'n=<int>' then the table")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise ValueError(f"bad arity line {lines[0]!r}") from None
    if not 1 <= n <= MAX_ARITY:
        raise ValueError(f"arity {n} out of range")
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


def parse_bitstring(bits: str, expect: int | None = None) -> BooleanFunction:
    """Truth table from a plain binary string F(0) F(1) ... (CLI F inputs)."""
    if set(bits) - set("01") or not bits:
        raise ValueError(f"not a binary string: {bits!r}")
    size = len(bits)
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    if expect is not None and size != 1 << expect:
        raise ValueError(f"expected {1 << expect} bits, got {size}")
    return BooleanFunction.from_bits(size.bit_length() - 1, [int(c) for c in bits])
