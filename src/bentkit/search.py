"""Parameter discovery and distinguishing invariants.

Two jobs, both at desk scale:

* enumerate mu tuples satisfying one of the pairwise side conditions
  (vanishing second derivative of a dual, the gold trace condition, or
  the half-degree trace condition; each defined once, next to the
  builder that checks it), plus the matching alpha subspaces and
  admissible gold coefficients;
* an EA-invariant fingerprint (degree plus the multiset of derivative
  degrees) strong enough to separate inequivalent outputs.

Each pairwise condition is GF(2)-linear in its second element, so the
partners of a chosen element form a subspace, the common kernel of the
covectors MuSearchSpec.partners gives: the Walsh support of D_a f_star,
or in both trace modes the one partner covector `families._gold_partner`
of the dual's gold parameters.  Enumeration walks the intersection of
the chosen prefix's partner spaces in ascending order, tuples in
lexicographic order, testing no candidate; a tuple is at most the
`r of phi` row of gf2n.CAPS long, the arity of any F it can feed.  Every
search takes an optional cursor, the last tuple already emitted, and
resumes strictly after it.  The trace modes do no work of size 2^n, so
they take every field degree; the second-derivative mode, one transform
per element, and the fingerprint, 2^n derivatives, stop at their own
rows of gf2n.CAPS.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import gf2n
from .boolfun import BooleanFunction, _derivative_degree_batches, algebraic_degree, derivative, wht
from .families import GoldParams, _gold_partner, _norm_gold


@dataclass(frozen=True)
class MuSearchSpec:
    """What to search and under which pairwise condition.

    mode selects the condition: "second-derivative" needs f_star and
    accepts tuples whose pairwise second derivatives of f_star vanish;
    "gold-trace" needs gold params and tests Tr(lam*(a^(2^t) b +
    a b^(2^t))) = 0; "cor9-trace" needs theta and a field and tests
    Tr(theta^(-1) a b^(2^m)) = 0, the gold trace condition of cor9's
    dual, the gold form Tr(omega theta^(-1) x^(2^m + 1)).  r is the
    tuple size, in 1..CAPS["r of phi"] as each tuple fills the mu slots
    of some F; limit caps the result list, and require_independent
    skips linearly dependent tuples (they only produce degenerate
    compositions).  The mode is read here once: n is the degree searched
    and partners(a) the covectors whose common kernel is a's partner
    space, the b for which the pair (a, b) passes the condition.
    """

    mode: str
    r: int
    limit: int
    require_independent: bool = True
    f_star: BooleanFunction | None = None
    gold: GoldParams | None = None
    theta: int | None = None
    spec: gf2n.FieldSpec | None = None
    n: int = field(init=False)
    partners: Callable[[int], list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gf2n.check_cap("r of phi", self.r)
        if self.limit < 0:
            raise ValueError("limit must be non-negative")
        if self.mode == "second-derivative":
            if self.f_star is None:
                raise ValueError("second-derivative mode needs f_star")
            gf2n.check_cap("n of the second-derivative search", self.f_star.n)
            object.__setattr__(self, "n", self.f_star.n)
            # one transform per distinct shift, not one per node of the walk that picks it
            object.__setattr__(self, "partners", functools.cache(functools.partial(_periods, self.f_star)))
            return
        if self.mode == "gold-trace":
            if self.gold is None:
                raise ValueError("gold-trace mode needs gold parameters")
            q = self.gold
        elif self.mode == "cor9-trace":
            if self.theta is None or self.spec is None:
                raise ValueError("cor9-trace mode needs theta and a field")
            if self.spec.n % 2:
                raise ValueError("cor9-trace mode needs an even degree")
            gf2n.check_domain(self.spec.n, "theta", self.theta)
            m = self.spec.n // 2
            if self.theta == 0 or not gf2n.in_subfield(self.theta, m, self.spec):
                raise ValueError(f"theta={self.theta:x} not in GF(2^{m})*")
            # cor9's dual is the norm form of theta^(-1), a gold form
            q = _norm_gold(self.spec, gf2n.inverse(self.theta, self.spec))
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "n", q.spec.n)
        object.__setattr__(self, "partners", lambda a: [_gold_partner(q, a)])


def _periods(f_star: BooleanFunction, a: int) -> list[int]:
    # D_b D_a f_star = 0 exactly when b is a period of D_a f_star, i.e.
    # orthogonal to the span of its Walsh support
    vecs, rows = np.flatnonzero(wht(derivative(f_star, a)).values), []
    while vecs.size and (top := int(vecs.max())):
        rows.append(top)
        np.minimum(vecs, vecs ^ top, out=vecs)  # clears top's lead bit
    return rows


def _reduce(basis: dict[int, int], v: int) -> int:
    # basis maps leading bit -> vector with that leading bit; the
    # remainder is 0 exactly when v lies in the span
    while v:
        lead = v.bit_length() - 1
        if lead not in basis:
            break
        v ^= basis[lead]
    return v


def _ascending(space: list[int], start: int):
    """span(space) from start upward, ascending; space as gf2n.nullspace gives."""
    i = bisect.bisect_left(range(1 << len(space)), start, key=lambda i: gf2n.apply_linear(space, i))
    return gf2n.span(space, i)


def find_mu_tuples(ms: MuSearchSpec, cursor: tuple[int, ...] | None = None) -> list[tuple[int, ...]]:
    """Strictly increasing r-tuples of nonzero elements passing the mode's
    pairwise condition, in lexicographic order, at most `limit` of them.

    cursor, when given, is the last tuple of a previous run; enumeration
    resumes strictly after it, so concatenating chunked runs reproduces
    the unchunked list.
    """
    if cursor is not None and len(cursor) != ms.r:
        raise ValueError(f"cursor length {len(cursor)} does not match r={ms.r}")
    gf2n.check_domain(ms.n, "cursor", *(cursor or ()))
    if ms.require_independent and ms.r > ms.n:
        return []
    if 2 * ms.r > ms.n and (ms.f_star is None or algebraic_degree(ms.f_star) <= 2):
        # a quadratic dual, as in both trace modes, has D_a D_b f~ =
        # parity(k_a & b), k_a = 0 for a constant D_a f~; a tuple spans a
        # totally isotropic subspace of this alternating form, of dimension
        # at most m = (n + dim radical) / 2
        rows = [(ms.partners(1 << j) or [0])[0] for j in range(ms.n)]
        m = (ms.n + len(gf2n.nullspace(rows, ms.n))) // 2
        if ms.r > (m if ms.require_independent else (1 << m) - 1):
            return []

    def walk(chosen: tuple[int, ...], rows: list[int], basis: dict[int, int], start: int):
        # the next element ranges over the kernel of the chosen ones' rows;
        # basis, as in _reduce, spans the chosen ones
        last = len(chosen) == ms.r - 1
        if cursor is not None and chosen == tuple(cursor[: len(chosen)]):
            # on the cursor's own path nothing below its next entry, and in
            # the last slot nothing up to it, gives a tuple beyond the cursor
            start = max(start, cursor[len(chosen)] + last)
        space = gf2n.nullspace(rows, ms.n)
        # each element is its own period and pairs are mutual, so the whole
        # tuple lies in this kernel: r independent ones need r dimensions
        if ms.require_independent and len(space) < ms.r:
            return
        for cand in _ascending(space, start):
            red = _reduce(basis, cand)
            if red == 0 and ms.require_independent:
                continue
            if last:
                yield (*chosen, cand)
            else:
                grown = {**basis, red.bit_length() - 1: red} if red else basis
                yield from walk((*chosen, cand), rows + ms.partners(cand), grown, cand + 1)

    return list(itertools.islice(walk((), [], {}, 1), ms.limit))


def find_alphas(mus, limit: int, *, n: int | None = None, spec: gf2n.FieldSpec | None = None) -> list[int]:
    """Ascending elements of the subspace orthogonal to every mu, zero
    included, truncated at limit.  Pass spec for the trace pairing or a
    bare n for the dot pairing."""
    if (n is None) == (spec is None):
        raise ValueError("pass exactly one of n or spec")
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if spec is not None:
        n = spec.n
    gf2n.check_cap("n", n)
    gf2n.check_domain(n, "element", *mus)
    rows = [mu if spec is None else gf2n.covector(mu, spec) for mu in mus]
    return list(itertools.islice(_ascending(gf2n.nullspace(rows, n), 0), limit))


# candidates per batched order test in find_gold_lambdas
_LAMBDA_CHUNK = 128


def find_gold_lambdas(spec: gf2n.FieldSpec, t: int, limit: int, cursor: int | None = None) -> list[int]:
    """Ascending coefficients lam for which Tr(lam * x^(2^t + 1)) is bent,
    resuming strictly after cursor when given.

    That needs n/d even, d = gcd(t, n), and lam not a (2^d + 1)-th power.
    As (2^n - 1)/(2^d + 1) = (2^d - 1) * sum_i 2^(2di), a nonzero lam is
    one exactly when the product of its conjugates lam^(2^(2di)) lies in
    GF(2^d); that is tested on batches of candidates."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if limit < 0:
        raise ValueError("limit must be non-negative")
    if cursor is not None:
        gf2n.check_domain(spec.n, "cursor", cursor)
    d = math.gcd(t, spec.n)
    if (spec.n // d) % 2:
        return []  # no lam gives a bent function
    out: list[int] = []
    lo = 0 if cursor is None else cursor + 1
    while len(out) < limit and lo < 1 << spec.n:
        lam = np.arange(lo, min(lo + _LAMBDA_CHUNK, 1 << spec.n), dtype=np.uint32)
        # norm = lam^(1 + q + ... + q^(j-1)), q = 2^(2d), grown to j = n/(2d)
        # over its binary digits by (j, 2j) and (j, j + 1) steps
        norm, j = lam, 1
        for digit in f"{spec.n // (2 * d):b}"[1:]:
            norm, j = gf2n.mul_array(norm, gf2n.frobenius_array(norm, 2 * d * j, spec), spec), 2 * j
            if digit == "1":
                norm, j = gf2n.mul_array(lam, gf2n.frobenius_array(norm, 2 * d, spec), spec), j + 1
        out += lam[(lam != 0) & (gf2n.frobenius_array(norm, d, spec) != norm)][: limit - len(out)].tolist()
        lo += _LAMBDA_CHUNK
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


def ea_fingerprint(h: BooleanFunction) -> EaFingerprint:
    gf2n.check_cap("n of the fingerprint", h.n)
    size = 1 << h.n
    # 512 KB of derivative tables per batch: with their uint16 index, two
    # bytes per table byte, the working memory stays under 2 MB
    step = max(1, (1 << 19) // max(1, size // 8))
    batches = (np.arange(lo, min(lo + step, size), dtype=np.uint16) for lo in range(0, size, step))
    counts = np.zeros(h.n + 1, np.int64)
    for degrees in _derivative_degree_batches(h, batches):
        counts += np.bincount(degrees, minlength=h.n + 1)
    return EaFingerprint(algebraic_degree(h), tuple((d, int(c)) for d, c in enumerate(counts) if c))
