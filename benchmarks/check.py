"""Independent re-check of every op's output.

Nothing here imports the package under test: the field arithmetic, the
integer Walsh transform, the dual, the Moebius transform and the table
parser are this file's own small implementations, so a defect in the
package cannot hide itself by agreeing with its own check.

check_op returns None when the output is correct and a short reason
otherwise; a failing op counts toward error_rate.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

# ------------------------------------------------------------ GF(2^n)


@functools.lru_cache(maxsize=None)
def modulus(n: int) -> int:
    """Smallest irreducible bitmask of degree n, by trial division."""

    def irreducible(p: int) -> bool:
        for q in range(2, 1 << (n // 2 + 1)):
            a, dq = p, q.bit_length()
            while a.bit_length() >= dq:
                a ^= q << (a.bit_length() - dq)
            if a == 0:
                return False
        return True

    return next(p for p in range(1 << n | 1, 1 << (n + 1), 2) if irreducible(p))


def gf_mul(a: int, b: int, n: int) -> int:
    mod, r = modulus(n), 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= mod
    return r


def gf_pow(a: int, e: int, n: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, a, n)
        a = gf_mul(a, a, n)
        e >>= 1
    return r


@functools.lru_cache(maxsize=None)
def _trace_mask(n: int) -> int:
    # bit i = Tr(X^i) from the defining sum of conjugates; the trace is
    # linear, so Tr(a) is then the parity of a & mask
    mask = 0
    for i in range(n):
        t, x = 0, 1 << i
        for _ in range(n):
            t ^= x
            x = gf_mul(x, x, n)
        mask |= t << i
    return mask


def gf_trace(a: int, n: int) -> int:
    return (a & _trace_mask(n)).bit_count() & 1


@functools.lru_cache(maxsize=None)
def trace_reindex(n: int) -> np.ndarray:
    """perm with W_trace[mu] = W_dot[perm[mu]]: perm[mu] is the bit
    vector v with v.x = Tr(mu x), built from its values on the basis."""
    perm = np.zeros(1, np.int64)
    for j in range(n):
        image = sum(gf_trace(gf_pow(2, i + j, n), n) << i for i in range(n))
        perm = np.concatenate([perm, perm ^ image])
    return perm


# ------------------------------------------------------- Boolean tables


_NIBBLE = np.full(256, 255, np.uint8)
_NIBBLE[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def read_table(text: str) -> np.ndarray:
    head, body = text.split()
    if not head.startswith("n="):
        raise ValueError("bad arity line")
    n = int(head[2:])
    nibbles = _NIBBLE[np.frombuffer(body.encode(), np.uint8)]
    if nibbles.size != 1 << n >> 2 or np.any(nibbles == 255):
        raise ValueError("table body does not match n")
    return np.unpackbits(nibbles[:, None] << 4, axis=1, count=4).reshape(-1)


def walsh(bits: np.ndarray) -> np.ndarray:
    """Dot-pairing spectrum W[u] = sum_x (-1)^(f(x) + u.x), exact int64."""
    w = 1 - 2 * bits.astype(np.int64)
    h = 1
    while h < w.size:
        w = w.reshape(-1, 2, h)
        w = np.stack((w[:, 0] + w[:, 1], w[:, 0] - w[:, 1]), axis=1).reshape(-1)
        h *= 2
    return w


def spectral_dual(bits: np.ndarray, trace: bool) -> np.ndarray | None:
    """Dual bits under the dot or trace pairing, None if not bent."""
    n = bits.size.bit_length() - 1
    w = walsh(bits)
    if trace:
        w = w[trace_reindex(n)]
    if n % 2 or not np.all(np.abs(w) == 1 << n // 2):
        return None
    return (w < 0).astype(np.uint8)


def anf_degree(bits: np.ndarray) -> int:
    a = bits.copy()
    step = 1
    while step < a.size:
        a = a.reshape(-1, 2, step)
        a[:, 1] ^= a[:, 0]
        a = a.reshape(-1)
        step *= 2
    nz = np.nonzero(a)[0]
    return int(np.bitwise_count(nz).max()) if nz.size else 0


# ------------------------------------------------------------ the checks


def _lines(out: str) -> dict[str, str]:
    return dict(ln.split(": ", 1) for ln in out.splitlines() if ": " in ln)


def _hex_rows(out: str) -> list[tuple[int, ...]]:
    return [tuple(int(tok, 16) for tok in ln.split(",")) for ln in out.split()]


def _check_pair(data: dict, out: str) -> str | None:
    rep = _lines(out)
    if rep.get("bent") != "true" or rep.get("dual-matches") != "true":
        return "report lacks bent: true / dual-matches: true"
    if data["trace"] and int(rep["modulus"], 16) != modulus(data["n"]):
        return "unexpected modulus"
    h = read_table(Path(data["h"]).read_text())
    d = read_table(Path(data["dual"]).read_text())
    if h.size != 1 << data["n"]:
        return "h has the wrong arity"
    expected = spectral_dual(h, data["trace"])
    if expected is None:
        return "h is not bent"
    if not np.array_equal(expected, d):
        return "written dual differs from the spectral dual"
    return None


def _check_mus(data: dict, out: str) -> str | None:
    rows = _hex_rows(out)
    n, r = data["n"], data["r"]
    if len(rows) != data["limit"]:
        return f"expected {data['limit']} tuples, got {len(rows)}"
    if rows != sorted(set(rows)) or rows[0] <= tuple(data["cursor"]):
        return "tuples not strictly ascending after the cursor"
    mode = data["mode"]
    if mode == "second-derivative":
        f = read_table(Path(data["f"]).read_text())
        idx = np.arange(f.size)

        def ok(a, b):
            return not np.any(f ^ f[idx ^ a] ^ f[idx ^ b] ^ f[idx ^ a ^ b])

    elif mode == "gold-trace":
        lam, t = data["lam"], data["t"]

        def ok(a, b):
            v = gf_mul(gf_pow(a, 1 << t, n), b, n) ^ gf_mul(a, gf_pow(b, 1 << t, n), n)
            return gf_trace(gf_mul(lam, v, n), n) == 0

    else:
        th_inv = gf_pow(data["theta"], (1 << n) - 2, n)

        def ok(a, b):
            return gf_trace(gf_mul(th_inv, gf_mul(a, gf_pow(b, 1 << n // 2, n), n), n), n) == 0

    for tup in rows:
        if len(tup) != r or not all(0 < v < 1 << n for v in tup) or rank(tup) < r:
            return f"malformed tuple {tup}"
        if not all(ok(tup[i], tup[j]) for i in range(r) for j in range(i + 1, r)):
            return f"pairwise condition fails on {tup}"
    return None


def _check_lambdas(data: dict, out: str) -> str | None:
    lams = [int(tok, 16) for tok in out.split()]
    n, t = data["n"], data["t"]
    if len(lams) != data["limit"] or lams != sorted(set(lams)) or lams[0] <= data["cursor"]:
        return "lambdas not limit many, ascending, after the cursor"
    order = (1 << n) - 1
    k = order // math.gcd((1 << t) + 1, order)
    if (n // math.gcd(t, n)) % 2:
        return "no gold lambda exists for odd n/gcd(t, n)"
    for lam in lams:
        if lam == 0 or gf_pow(lam, k, n) == 1:
            return f"lambda {lam:x} is a (2^t+1)-th power"
    return None


def _check_alphas(data: dict, out: str) -> str | None:
    alphas = [int(tok, 16) for tok in out.split()]
    n, mus = data["n"], data["mus"]
    size = 1 << (n - rank(mus))
    if len(alphas) != min(data["limit"], size) or alphas != sorted(set(alphas)) or alphas[0] != 0:
        return "alphas not the ascending start of the complement"
    for a in alphas:
        for mu in mus:
            pair = gf_trace(gf_mul(a, mu, n), n) if data["trace"] else (a & mu).bit_count() & 1
            if pair:
                return f"alpha {a:x} not orthogonal to {mu:x}"
    return None


def _check_fingerprint(data: dict, out: str) -> str | None:
    rep = _lines(out)
    f = read_table(Path(data["f"]).read_text())
    if int(rep["n"]) != data["n"] or int(rep["degree"]) != anf_degree(f):
        return "wrong degree"
    counts = [tuple(map(int, p.split(":"))) for p in rep["derivative-degrees"].split(",")]
    if sum(c for _, c in counts) != 1 << data["n"] or counts[0][0] != 0:
        return "derivative histogram does not cover every direction once"
    return None


def _check_bent(data: dict, out: str) -> str | None:
    f = read_table(Path(data["f"]).read_text())
    if _lines(out).get("bent") != "true" or spectral_dual(f, False) is None:
        return "bent verdict wrong"
    return None


def _check_dual(data: dict, out: str) -> str | None:
    f = read_table(Path(data["f"]).read_text())
    if not np.array_equal(read_table(out), spectral_dual(f, False)):
        return "printed dual differs from the spectral dual"
    return None


def _check_holds(data: dict, out: str) -> str | None:
    return None if _lines(out).get("holds") == "true" else "certificate reported as not holding"


def rank(vs) -> int:
    """GF(2) rank of a list of bit vectors."""
    basis: dict[int, int] = {}
    for v in vs:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


CHECKS = {
    "pair": _check_pair,
    "mus": _check_mus,
    "lambdas": _check_lambdas,
    "alphas": _check_alphas,
    "fingerprint": _check_fingerprint,
    "bent": _check_bent,
    "dual": _check_dual,
    "holds": _check_holds,
}


def check_op(op, code: int, out: str) -> str | None:
    """None when op's exit code and output are right, else the reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        return CHECKS[op.check](op.data, out)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return f"unreadable output: {exc!r}"
