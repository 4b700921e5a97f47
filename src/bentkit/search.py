"""Parameter discovery and distinguishing invariants.

Two jobs, both at desk scale:

* enumerate mu tuples satisfying one of the pairwise side conditions
  (vanishing second derivative of a dual, the gold trace condition, or
  the half-degree trace condition; each defined once, next to the
  builder that checks it), plus the matching alpha subspaces and
  admissible gold coefficients;
* an EA-invariant fingerprint (degree plus the multiset of derivative
  degrees) strong enough to separate inequivalent outputs.

Enumeration is depth-first in ascending integer order and restartable:
every search takes an optional cursor, the last tuple already emitted,
and resumes strictly after it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .boolfun import BooleanFunction, algebraic_degree, derivative_degrees
from .constructions import _check_domain, _d2_nonzero
from .families import GoldParams, _cor9_pair_condition, _gold_pair_condition, gold_bent_admissible


@dataclass(frozen=True)
class MuSearchSpec:
    """What to search and under which pairwise condition.

    mode selects the condition: "second-derivative" needs f_star and
    accepts tuples whose pairwise second derivatives of f_star vanish;
    "gold-trace" needs gold params and tests Tr(lam*(a^(2^t) b +
    a b^(2^t))) = 0; "cor9-trace" needs theta and a field and tests
    Tr(theta^(-1) a b^(2^m)) = 0.  r is the tuple size, limit caps the
    result list, and require_independent skips linearly dependent
    tuples (they only produce degenerate compositions).
    """

    mode: str
    r: int
    limit: int
    require_independent: bool = True
    f_star: BooleanFunction | None = None
    gold: GoldParams | None = None
    theta: int | None = None
    spec: gf2n.FieldSpec | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("tuple size must be at least 1")
        if self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.mode == "second-derivative":
            if self.f_star is None:
                raise ValueError("second-derivative mode needs f_star")
        elif self.mode == "gold-trace":
            if self.gold is None:
                raise ValueError("gold-trace mode needs gold parameters")
        elif self.mode == "cor9-trace":
            if self.theta is None or self.spec is None:
                raise ValueError("cor9-trace mode needs theta and a field")
            if self.spec.n % 2:
                raise ValueError("cor9-trace mode needs an even degree")
            _check_domain(self.spec.n, "theta", self.theta)
            m = self.spec.n // 2
            if self.theta == 0 or not gf2n.in_subfield(self.theta, m, self.spec):
                raise ValueError(f"theta={self.theta:x} not in GF(2^{m})*")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def n(self) -> int:
        if self.mode == "second-derivative":
            return self.f_star.n
        if self.mode == "gold-trace":
            return self.gold.spec.n
        return self.spec.n


def _pair_oracle(ms: MuSearchSpec):
    # (a, b) -> truthy when the pair fails the mode's condition
    if ms.mode == "second-derivative":
        return _d2_nonzero(ms.f_star)
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


def find_mu_tuples(
    ms: MuSearchSpec, cursor: tuple[int, ...] | None = None
) -> list[tuple[int, ...]]:
    """Strictly increasing r-tuples of nonzero elements passing the mode's
    pairwise condition, in lexicographic order, at most `limit` of them.

    cursor, when given, is the last tuple of a previous run; enumeration
    resumes strictly after it, so concatenating chunked runs reproduces
    the unchunked list.
    """
    if ms.n > 16:
        raise ValueError("exhaustive search is capped at degree 16")
    if cursor is not None and len(cursor) != ms.r:
        raise ValueError(f"cursor length {len(cursor)} does not match r={ms.r}")
    fails = _pair_oracle(ms)
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


def find_alphas(
    mus,
    limit: int,
    *,
    n: int | None = None,
    spec: gf2n.FieldSpec | None = None,
) -> list[int]:
    """Ascending elements of the subspace orthogonal to every mu, zero
    included, truncated at limit.  Pass spec for the trace pairing or a
    bare n for the dot pairing."""
    if (n is None) == (spec is None):
        raise ValueError("pass exactly one of n or spec")
    if spec is not None:
        basis = gf2n.ortho_complement(tuple(mus), spec)
    else:
        if n < 1:
            raise ValueError(f"degree must be at least 1, got {n}")
        _check_domain(n, "element", *mus)
        basis = gf2n.nullspace([mu for mu in mus if mu], n)
    members = [0]
    for b in basis:
        members += [m ^ b for m in members]
    members.sort()
    return members[:limit]


def find_gold_lambdas(
    spec: gf2n.FieldSpec, t: int, limit: int, cursor: int | None = None
) -> list[int]:
    """Ascending coefficients lam for which Tr(lam * x^(2^t + 1)) is bent,
    resuming strictly after cursor when given."""
    out = []
    start = 0 if cursor is None else cursor + 1
    for lam in range(start, 1 << spec.n):
        if len(out) >= limit:
            break
        if gold_bent_admissible(GoldParams(spec, lam, t)):
            out.append(lam)
    return out


# --------------------------------------------------------- fingerprint


@dataclass(frozen=True)
class EaFingerprint:
    """Degree of h plus the multiset of degrees of all 2^n derivatives
    D_a h, stored as ascending (degree, count) pairs.  Both survive
    composition with affine bijections and addition of affine functions,
    so differing fingerprints certify EA-inequivalence."""

    degree: int
    derivative_degrees: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        inner = ",".join(f"{d}:{c}" for d, c in self.derivative_degrees)
        return f"degree={self.degree} derivatives[{inner}]"


# derivative tables per batch in ea_fingerprint: about 2^16 bits, so its
# working memory stays well under 1 MB at every n <= 14
_CHUNK_BITS = 1 << 16


def ea_fingerprint(h: BooleanFunction) -> EaFingerprint:
    if h.n > 14:
        raise ValueError("fingerprint computation is capped at degree 14")
    size = 1 << h.n
    step = max(1, _CHUNK_BITS >> h.n)
    counts = np.zeros(h.n + 1, np.int64)
    for start in range(0, size, step):
        shifts = np.arange(start, min(start + step, size), dtype=np.uint16)
        counts += np.bincount(derivative_degrees(h, shifts), minlength=h.n + 1)
    return EaFingerprint(algebraic_degree(h), tuple((d, int(c)) for d, c in enumerate(counts) if c))
