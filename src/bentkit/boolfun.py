"""Boolean functions on F_2^n as bit-packed truth tables.

Conventions, used everywhere downstream:

* a function on n variables is a single int with bit x = f(x), for truth
  table indices x in [0, 2^n);
* packed, the table is max(1, 2^n / 8) little-endian bytes, f(x) bit x % 8
  of byte x // 8, padding clear below n = 3; BooleanFunction.raw (cached)
  and from_raw (seeding it) are the only crossings between int and bytes;
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
import threading
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .errors import ArityMismatch, NotBent


# _BYTE_BITS[b, j] = bit j of byte b, the point j of an 8-point table
_BYTE_BITS = np.arange(256, dtype=np.uint8)[:, None] >> np.arange(8, dtype=np.uint8) & 1

# _H8[u, j] = (-1)^popcount(u & j), the 8-point Sylvester-Hadamard matrix
_H8 = 1 - 2 * (np.bitwise_count(np.arange(8)[:, None] & np.arange(8)).astype(np.int32) & 1)

# _BYTE_MOEBIUS is the bytes.translate table of the 8-point Moebius transform:
# bit u of the image of byte b is the XOR of the bits j of b with j a subset of u
_BYTE_MOEBIUS = np.packbits(
    _BYTE_BITS @ (np.arange(8)[:, None] & ~np.arange(8) == 0) & 1, axis=1, bitorder="little"
).tobytes()

# _UPPER[i] marks the positions of a 64-bit word with bit i set, which
# Moebius stage i XORs from 2^i positions lower
_UPPER = np.packbits(np.arange(64) >> np.arange(6)[:, None] & 1, axis=1, bitorder="little").view("<u8").ravel()

# _REACH[k] marks the positions j of a 64-bit word with popcount(j) >= k
_REACH = np.packbits(np.bitwise_count(np.arange(64)) >= np.arange(7)[:, None], axis=1, bitorder="little").view("<u8").ravel()

# _BYTE_SHIFTS[s] is the bytes.translate table moving bit j of a byte to bit
# j ^ s, i.e. b to the 8-point table x -> b(x + s); s = 7 reverses the bit
# order, as the wire format writes it
_BYTE_SHIFTS = tuple(np.packbits(_BYTE_BITS[:, np.arange(8) ^ s], axis=1, bitorder="little").tobytes() for s in range(8))
_FLIPS = {"0": slice(None), "1": slice(None, None, -1)}  # keep or reverse an axis, by binary digit
_WORDS = tuple(np.dtype(f"u{width}") for width in (2, 4, 8))


@dataclass(frozen=True)
class BooleanFunction:
    n: int
    table: int

    def __post_init__(self):
        gf2n.check_cap("n", self.n)
        if self.table < 0 or self.table.bit_length() > 1 << self.n:
            raise ValueError("truth table does not fit 2^n bits")

    @functools.cached_property
    def raw(self) -> bytes:
        """The packed table, built from table once unless from_raw seeded it."""
        return self.table.to_bytes(max(1, (1 << self.n) // 8), "little")

    @classmethod
    def from_raw(cls, n: int, raw) -> "BooleanFunction":
        """The function whose packed table is the bytes-like raw, which seeds
        its raw; a wrong length or a set padding bit raises ValueError."""
        raw = bytes(raw)
        f = cls(n, int.from_bytes(raw, "little"))
        if len(raw) != max(1, (1 << n) // 8):
            raise ValueError(f"{len(raw)} bytes do not pack a 2^{n}-bit table")
        f.__dict__["raw"] = raw
        return f

    @classmethod
    def const(cls, n: int, bit: int) -> "BooleanFunction":
        return cls(n, ((1 << (1 << n)) - 1) if bit & 1 else 0)

    @classmethod
    def from_bits(cls, n: int, bits) -> "BooleanFunction":
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        if arr.size != 1 << n:
            raise ValueError(f"expected {1 << n} bits, got {arr.size}")
        return cls.from_raw(n, np.packbits(arr.astype(np.uint8) & 1, bitorder="little"))

    def bits(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.raw, np.uint8), bitorder="little")[: 1 << self.n]

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

    def __post_init__(self):
        BooleanFunction(self.n, self.coeffs)  # n's cap and the fit, checked as for a truth table

    @property
    def degree(self) -> int:
        """Largest popcount of a monomial with a nonzero coefficient; the
        zero polynomial has degree 0 by convention."""
        return int(_degrees(_words(BooleanFunction(self.n, self.coeffs).raw)))

    def function(self) -> "BooleanFunction":
        # the Moebius transform is an involution
        return _moebius_of(BooleanFunction(self.n, self.coeffs))


@dataclass(frozen=True)
class VectorialFunction:
    n: int
    r: int
    components: tuple[BooleanFunction, ...]

    def __post_init__(self):
        gf2n.check_cap("r of phi", self.r)
        if len(self.components) != self.r:
            raise ArityMismatch("component count does not match r")
        for c in self.components:
            if c.n != self.n:
                raise ArityMismatch("components disagree on input arity")

    @classmethod
    def from_components(cls, comps) -> "VectorialFunction":
        comps = tuple(comps)
        return cls(comps[0].n if comps else 1, len(comps), comps)


@functools.cache
def _word_wht() -> np.ndarray:
    # row w: Walsh transform of the 16 signs of word w, from its two bytes'; int16, 2 MB
    byte = (1 - 2 * _BYTE_BITS.astype(np.int16)) @ _H8.astype(np.int16)
    table = np.empty((256, 256, 16), np.int16)  # [high byte, low byte]
    np.add(byte, byte[:, None], out=table[..., :8])
    np.subtract(byte, byte[:, None], out=table[..., 8:])
    table.flags.writeable = False
    return table.reshape(-1, 16)


class _Workspace(threading.local):
    # three int16 buffers of 2^18 points per thread, never resized; smaller blocks use prefixes;
    # held is (f, its flat spectrum or None) as is_bent left it for the next bent_dual
    def __init__(self):
        self.buffers = tuple(np.empty(1 << 18, np.int16) for _ in range(3))
        self.held = None


_WORKSPACE = _Workspace()


def _stages(a: np.ndarray, h: int, stop: int, b: np.ndarray | None = None):
    # stages h, 2h, ... below stop, (x, y) -> (x + y, x - y), a into b and back or in place; (result, other)
    while h < stop:
        x, y = a.reshape(-1, 2, h).swapaxes(0, 1)
        if b is None:
            x += y
            y *= -2
            y += x
        else:
            u, v = b.reshape(-1, 2, h).swapaxes(0, 1)
            np.add(x, y, out=u)
            np.subtract(x, y, out=v)
            a, b = b, a
        h *= 2
    return a, b


def _butterfly(f: BooleanFunction, dtype) -> np.ndarray:
    """Dot-pairing Walsh transform of f in dtype, int32 or int16.

    Point bits 0-3 are transformed inside each 16-bit word of the packed
    table by one row gather from _word_wht(); the rest run per block of 2^k
    points, k = min(n, 18), with bits 4 .. 3+m "mid" and 4+m .. k-1 "high",
    m = min(k - 4, k // 2 - 1).  Gathered transposed into a workspace buffer
    (mid, high, 16), the mid stages run on rows of 2^(k-m) points; copied to
    natural order, the high ones on rows of 2^(4+m) or more.  Stages move
    between two buffers, but int32 high stages and those across blocks run in
    place.  A stage at most doubles max |W|: int16 is exact through the 4 + m
    <= 12 word and mid stages, then wraps (see _flat_spectrum), aliasing the
    workspace up to n = 18."""
    _WORKSPACE.held = None  # its spectrum may alias the buffers reused below
    size = 1 << f.n
    if f.n < 4:
        return ((1 - 2 * f.bits().astype(np.int32)) @ _H8[:size, :size]).astype(dtype)
    words = np.frombuffer(f.raw, "<u2")
    k = min(f.n, 18)
    block, mid = 1 << k, 1 << min(k - 4, k // 2 - 1)
    ws, out = _WORKSPACE.buffers, None if dtype == np.int16 and size == block else np.empty(size, dtype)
    # numpy copies rows under half its buffer (8,192 by default) through it: 3x on 2^10 or 2^11 points
    bufsize = np.setbufsize(1024)
    try:
        for lo in range(0, size, block):
            a, b, rows = ws[0][:block], ws[1][:block], words[lo // 16 : (lo + block) // 16].reshape(-1, mid).T
            np.take(_word_wht(), rows, 0, a.reshape(mid, -1, 16), "clip")  # no word is out of range
            a, b = _stages(a, block // mid, block, b)
            b.view("V32").reshape(-1, mid)[...] = a.view("V32").reshape(mid, -1).T  # 16 points as one item
            dst = b if out is None else out[lo : lo + block]
            dst[...] = b  # a no-op in one block; beyond, six high stages end an int16 result in out
            res = _stages(dst, 16 * mid, block, a if dtype == np.int16 else None)
    finally:
        np.setbufsize(bufsize)
    return res[0] if out is None else _stages(out, block, size)[0]


@functools.lru_cache(maxsize=None)
def _covector_permutation(spec: gf2n.FieldSpec) -> np.ndarray:
    perm = gf2n.linear_table(gf2n._covector_images(spec))
    perm.flags.writeable = False
    return perm


def wht(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> WalshSpectrum:
    """Exact Walsh spectrum, W[mu] = sum_x (-1)^(f(x) + <mu,x>).

    The butterfly computes the dot-pairing transform; with a FieldSpec the
    result is reindexed through the covector map so that <mu,x> = Tr(mu*x).
    Values are exact int32 (|W| <= 2^n < 2^31).
    """
    if spec is not None and spec.n != f.n:
        raise ArityMismatch(f"field degree {spec.n} != function arity {f.n}")
    values = _butterfly(f, np.int32)
    if spec is not None:
        values = values[_covector_permutation(spec)]
    return WalshSpectrum(f.n, values)


def _flat_spectrum(f: BooleanFunction) -> np.ndarray | None:
    """f's int16 Walsh values, which may alias this thread's workspace, when
    every one is +-2^(n/2); else None, odd arity included.  They wrap mod
    2^16, yet f is bent iff every int16 value is +-2^(n/2): then each W =
    +-2^(n/2) + j 2^16 has |W| >= 2^(n/2), as j != 0 gives |W| >= 2^16 -
    2^(n/2) > 2^(n/2) for n <= 28 (test_degree_caps_keep_int16_exact holds
    gf2n.CAPS there), and Parseval, sum W^2 = 2^(2n) over 2^n points, forces
    |W| = 2^(n/2).  |W| goes to the spare buffer."""
    if f.n % 2:
        return None
    values, half, spare = _butterfly(f, np.int16), 1 << f.n // 2, _WORKSPACE.buffers[2]
    mags = (np.abs(part, out=spare[: part.size]) for part in values.reshape(-1, min(values.size, spare.size)))
    return values if all(mag.min() == half == mag.max() for mag in mags) else None


def is_bent(f: BooleanFunction) -> bool:
    """Flat spectrum test; pairing-independent, so no spec is needed.  It packs
    no dual, but leaves (f, its flat spectrum or None) until the next bent_dual
    or transform on this thread."""
    _WORKSPACE.held = f, _flat_spectrum(f)
    return _WORKSPACE.held[1] is not None


def bent_dual(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> BooleanFunction | None:
    """The dual f~ with W[mu] = 2^(n/2) * (-1)^f~(mu), the signs of one
    transform; None when f is not bent, odd arity included.  It reuses what
    is_bent(f) left if f is the same object, and always drops it."""
    held, _WORKSPACE.held = _WORKSPACE.held, None
    if spec is not None and spec.n != f.n:
        raise ArityMismatch(f"field degree {spec.n} != function arity {f.n}")
    values = held[1] if held is not None and held[0] is f else _flat_spectrum(f)
    if values is None:
        return None
    signs = (values < 0)[... if spec is None else _covector_permutation(spec)]
    return BooleanFunction.from_raw(f.n, np.packbits(signs, bitorder="little"))


def dual(f: BooleanFunction, spec: gf2n.FieldSpec | None = None) -> BooleanFunction:
    """bent_dual, raising NotBent where it gives None."""
    g = bent_dual(f, spec)
    if g is None:
        raise NotBent(f"no bent functions on {f.n} (odd) variables" if f.n % 2 else "spectrum is not flat")
    return g


def _move_bytes(raw, c: int, rows: int = 1) -> np.ndarray:
    """The rows equal-length packed tables in the bytes-like raw, byte j of
    each moved to j ^ c < their length, as a fresh array of words of up to
    8 bytes, with no index array: the words by axis flips of a (rows, 2,
    ..., 2) view, bytes inside a word by byteswaps: widths 2, 4, 8 send j to
    j ^ 1, j ^ 3, j ^ 7, so bit i of the Gray code of c & 7 picks width 2 << i."""
    size = len(raw) // rows
    k = max(0, size.bit_length() - 4)
    words = np.ndarray((rows,) + (2,) * k, _WORDS[min(size, 8).bit_length() - 2], raw)
    # the first of the k + 1 binary digits keeps the rows axis
    moved, c = words[tuple(map(_FLIPS.get, bin(c >> 3 | 2 << k)[3:]))].copy(), c & 7
    for i, word in enumerate(_WORDS):
        if (c ^ c >> 1) >> i & 1:
            moved.view(word).byteswap(inplace=True)
    return moved


def translate(f: BooleanFunction, a: int) -> BooleanFunction:
    """x -> f(x + a); index XOR is both vector and field addition.  Bit i of
    packed byte j comes from bit i ^ (a & 7) of byte j ^ (a >> 3), moved
    inside each byte by bytes.translate, the bytes by _move_bytes."""
    gf2n.check_domain(f.n, "shift", a)
    raw = f.raw
    if a & 7:
        raw = raw.translate(_BYTE_SHIFTS[a & 7])
    if a >> 3:
        raw = _move_bytes(raw, a >> 3)
    return BooleanFunction.from_raw(f.n, raw)


def derivative(f: BooleanFunction, mu: int) -> BooleanFunction:
    """D_mu f(x) = f(x) + f(x + mu)."""
    return f ^ translate(f, mu)


def _words(raw: bytes) -> np.ndarray:
    # a packed table as little-endian uint64 words, zero bytes padding it to one word
    return np.frombuffer(raw.ljust(8, b"\0"), "<u8")


def _moebius(words: np.ndarray, n: int) -> np.ndarray:
    """Moebius stages 3 .. n - 1 along the last axis of uint64 packed-table
    words, in place; returns words.  After stages 0-2, bytes.translate
    through _BYTE_MOEBIUS, it completes the involution from truth tables to
    ANF coefficients; below n = 3 those set padding bits above 2^n, masked
    here.  Stages 3-5 shift and mask inside each word, later ones XOR each
    lower half-block of words into the upper one."""
    if n < 3:
        words &= (1 << (1 << n)) - 1
    spare = np.empty_like(words) if n > 3 else None
    for i in range(3, min(n, 6)):
        np.left_shift(words, 1 << i, out=spare)
        spare &= _UPPER[i]
        words ^= spare
    for i in range(6, n):
        pairs = words.reshape(*words.shape[:-1], -1, 2, 1 << i - 6)
        pairs[..., 1, :] ^= pairs[..., 0, :]
    return words


def _anf_words(f: BooleanFunction) -> np.ndarray:
    # f's ANF coefficients, as the words of a packed table
    return _moebius(_words(f.raw.translate(_BYTE_MOEBIUS)).copy(), f.n)


def _moebius_of(f: BooleanFunction) -> BooleanFunction:
    # the table whose packed bytes are the Moebius transform of f's
    return BooleanFunction.from_raw(f.n, _anf_words(f).view(np.uint8)[: len(f.raw)])


@functools.cache
def _weight_classes(count: int):
    # word indices below count by ascending popcount, the offset where each
    # popcount c starts, and score[c, k] = 1 + c + k
    weights = np.bitwise_count(np.arange(count))
    order = np.argsort(weights, kind="stable")
    classes = np.arange(count.bit_length())
    return order, np.searchsorted(weights[order], classes), (1 + classes[:, None] + np.arange(7)).astype(np.int8)


def _degrees(words: np.ndarray) -> np.ndarray:
    """Degree of each ANF along the last axis of uint64 coefficient words,
    0 for the zero polynomial.  Monomial u is bit u % 64 of word u // 64, so
    the words whose index has popcount c are ORed into one class word, whose
    largest in-word popcount is the number of _REACH masks it meets, less 1."""
    order, starts, score = _weight_classes(words.shape[-1])
    classes = np.bitwise_or.reduceat(words[..., order], starts, axis=-1)
    best = (((classes[..., None] & _REACH) != 0) * score).max(axis=(-2, -1))
    return np.maximum(best, 1) - 1


def anf(f: BooleanFunction) -> AnfForm:
    return AnfForm(f.n, _moebius_of(f).table)


def algebraic_degree(f: BooleanFunction) -> int:
    """anf(f).degree, from one transformed copy of the table's words."""
    return int(_degrees(_anf_words(f)))


def _derivative_degrees(f: BooleanFunction) -> np.ndarray:
    """deg D_a f at index a, for every shift a.  The in-byte Moebius stages
    commute with byte moves, so they act once, on f's eight in-byte
    translates.  In aligned blocks [8 lo, 8 lo + 8h) of shifts, row a reads
    byte j ^ (a >> 3) of the translate by a & 7: the eight with byte j moved
    to j ^ lo by _move_bytes, then log2(h) doublings, each swapping byte
    half-blocks of d bytes, give rows a ^ 8d.  XORed with f's own row, they
    take the rest of the transform.  h keeps a block's tables within 512 KB;
    rows are padded to one word, and below n = 3 those past 2^n dropped."""
    span = len(f.raw)  # values of a >> 3
    width = max(span, 8)
    eight = b"".join(f.raw.translate(s).translate(_BYTE_MOEBIUS).ljust(8, b"\0") for s in _BYTE_SHIFTS)
    h = min(span, max(1, (1 << 16) // width))
    block, out = np.empty((h, 8, width), np.uint8), np.empty(8 * span, np.int8)
    for lo in range(0, span, h):
        block[0] = np.frombuffer(_move_bytes(eight, lo, 8) if lo else eight, np.uint8).reshape(8, width)
        d = 1
        while d < h:
            word = f"u{min(d, 8)}"
            half = (d, 8, -1, 2, max(1, d // 8))
            block[d : 2 * d].view(word).reshape(half)[...] = block[:d].view(word).reshape(half)[..., ::-1, :]
            d *= 2
        block ^= np.frombuffer(eight, np.uint8, width)
        out[8 * lo : 8 * (lo + h)] = _degrees(_moebius(block.reshape(8 * h, width).view("<u8"), f.n))
    return out[: 1 << f.n]


# compose's largest r for the mux tree; its up to 2^r - 1 muxes lose to the gather beyond
_MUX_MAX_R = 8


def _mux_tree(table: int, r: int, comps: list[int], ones: int) -> int:
    # F(comps) for F's 2^r-bit table, depth first: the results a, b of its
    # halves on the top input comps[r - 1] join as a ^ ((a ^ b) & comps[r - 1])
    if table in (0, (1 << (1 << r)) - 1):
        return ones if table else 0
    if r == 1:
        return comps[0] if table == 2 else ones ^ comps[0]
    lo, hi = table & ((1 << (1 << r - 1)) - 1), table >> (1 << r - 1)
    a = _mux_tree(lo, r - 1, comps, ones)
    if lo == hi:  # F ignores its top input
        return a
    b = _mux_tree(hi, r - 1, comps, ones)
    return a ^ ((a ^ b) & comps[r - 1])


def compose(F: BooleanFunction, phi: VectorialFunction) -> BooleanFunction:
    """x -> F(phi_1(x), ..., phi_r(x)), component i feeding index bit i of F.

    Up to r = _MUX_MAX_R the packed tables are muxed by a Shannon tree,
    about r + 3 tables alive; above, F is gathered at an r-bit index per
    point, 2^16 points per block.  On 2 vCPUs, r = 3 at n = 18 takes
    0.04 ms muxed against 2.1 ms gathered, and r = 8 at n = 24 228 against
    239 ms; r = 9 muxed loses at n = 12 and 24 (0.27 against 0.15 ms, 299
    against 208 ms)."""
    if F.n != phi.r:
        raise ArityMismatch(f"F takes {F.n} inputs, phi supplies {phi.r}")
    if phi.r <= _MUX_MAX_R:
        ones = (1 << (1 << phi.n)) - 1
        return BooleanFunction(phi.n, _mux_tree(F.table, phi.r, [c.table for c in phi.components], ones))
    values, step = F.bits(), 1 << 13
    comps = [np.frombuffer(c.raw, np.uint8) for c in phi.components]
    dtype, out = np.min_scalar_type(values.size - 1), bytearray()
    for lo in range(0, comps[0].size, step):
        block = (np.unpackbits(c[lo : lo + step], bitorder="little") for c in comps)
        idx = sum(np.left_shift(bits, i, dtype=dtype) for i, bits in enumerate(block))
        out += np.packbits(values[idx[: 1 << phi.n]], bitorder="little").tobytes()  # below n = 3 the padding stays clear
    return BooleanFunction.from_raw(phi.n, out)


def quadratic_form(n: int, linear: int, covectors=(), const: int = 0) -> BooleanFunction:
    """Q with Q(0) = const and Q(x + e_j) = Q(x) + (bit j of linear) +
    parity(covectors[j] & x) for x < 2^j: a quadratic form from its values
    on the basis and the covectors of its bilinear form at e_j, or without
    covectors an affine form.  The packed table doubles one level at a time
    with a constant and the linear form of covectors[j], itself grown by the
    same doubling: O(2^n) bit work on ints, no per-point arithmetic."""
    cov = list(covectors) or [0] * n
    table = const & 1
    for j in range(n):
        lin = 0
        for i in range(j):
            lin |= (lin ^ ((1 << (1 << i)) - 1 if cov[j] >> i & 1 else 0)) << (1 << i)
        table |= (table ^ ((1 << (1 << j)) - 1 if linear >> j & 1 else 0) ^ lin) << (1 << j)
    return BooleanFunction(n, table)


def dot_form(n: int, mask: int) -> BooleanFunction:
    """Linear form x -> parity(mask & x) under the dot pairing."""
    gf2n.check_domain(n, "mask", mask)
    return quadratic_form(n, mask)


def linear_form(spec: gf2n.FieldSpec, mu: int) -> BooleanFunction:
    """Linear form x -> Tr(mu * x) under the field's trace pairing."""
    return dot_form(spec.n, gf2n.covector(mu, spec))


def to_text(f: BooleanFunction) -> str:
    """Two-line wire format: "n=<int>" then the table.

    For 2^n >= 4 the table is hex, one character per nibble, the most
    significant bit of each nibble being the smallest index, i.e. the
    binary string f(0) f(1) ... f(2^n - 1) read in groups of four.  For a
    domain smaller than one nibble the raw binary string is used instead.
    """
    size = 1 << f.n
    # below n = 3 the one byte is part padding, read as binary below n = 2
    raw = f.raw.translate(_BYTE_SHIFTS[7])
    body = raw.hex()[: size // 4] if size >= 4 else f"{raw[0]:08b}"[:size]
    return f"n={f.n}\n{body}\n"


def from_text(text: str) -> BooleanFunction:
    """Inverse of to_text: the non-blank lines of text, stripped, must be
    "n=<int>" and the table, in hex digits of either case."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("n="):
        raise ValueError("expected two lines: 'n=<int>' then the table")
    head, body = lines
    try:
        n = int(head[2:])
    except ValueError:
        raise ValueError(f"bad arity line {head!r}") from None
    gf2n.check_cap("n", n)  # before anything is sized by 1 << n
    body = body if body.isascii() else body.lower()  # a lower case can be longer
    size = 1 << n
    if size < 4:
        if len(body) != size or set(body) - set("01"):
            raise ValueError("bad raw binary table")
        return BooleanFunction(n, int(body[::-1], 2))
    if len(body) != size // 4:
        raise ValueError(f"expected {size // 4} hex chars, got {len(body)}")
    try:  # with a padding nibble at n = 2; inner whitespace, skipped, leaves from_raw too few bytes
        return BooleanFunction.from_raw(n, bytes.fromhex(body + "0" * (size == 4)).translate(_BYTE_SHIFTS[7]))
    except ValueError:
        raise ValueError("bad hex table") from None


def parse_bitstring(bits: str, expect: int | None = None) -> BooleanFunction:
    """Truth table from a plain binary string F(0) F(1) ... (CLI F inputs)."""
    if set(bits) - set("01") or not bits:
        raise ValueError(f"not a binary string: {bits!r}")
    size = len(bits)
    if size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    if expect is not None and size != 1 << expect:
        raise ValueError(f"expected {1 << expect} bits, got {size}")
    return BooleanFunction(size.bit_length() - 1, int(bits[::-1], 2))
