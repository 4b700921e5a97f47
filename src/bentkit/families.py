"""Concrete bent families over GF(2^n) and their closed-form duals.

Two sources feed the generic machinery of `constructions`:

* Gold functions Tr(lam * x^(2^t + 1)), bent exactly when n/gcd(t, n) is
  even and lam avoids the image of x -> x^(2^t + 1); the dual is again a
  trace form evaluated at the solution of a linearized equation, plus the
  parity constant (m/d mod 2).
* Maiorana-MacFarland shapes Tr(lam * x^(2^t) * pi(x + x^(2^m))) +
  g(x + x^(2^m)) for a permutation pi of the half-degree subfield, bent
  exactly when lam stays outside that subfield; the dual rides on the
  decomposition x = y + omega*z with z = x + x^(2^m) and any omega
  satisfying omega + omega^(2^m) = 1.

All spectral statements here use the trace pairing of the ambient field.
The shifted-tuple builders (thm8, cor9, cor10, thm12) are instances of
`constructions.shifted_build`: h = f + F(D_alpha f, Tr(mu_2 x), ...) with
the dual swapping in Tr(alpha x) (an affine slot for cor9) and the
closed-form companions.  Each supplies its seed, dual, companions and its
own side conditions; every report is verified spectrally before it is
returned.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .boolfun import BooleanFunction, derivative, linear_form
from .constructions import (
    ConstructionReport,
    _alpha_complement,
    _check_shape,
    _d2_nonzero,
    _finish,
    _pairwise,
    shifted_build,
)
from .errors import NotBent, NotBentAdmissible, SideConditionFailed, ZeroDenominator

# the alpha-complement clause under the trace pairing of the family's field
_TR_ALPHA = "Tr(alpha*mu) = 1 for alpha={alpha:x}, mu={mu:x}"


def _domain(spec: gf2n.FieldSpec) -> np.ndarray:
    return np.arange(1 << spec.n, dtype=np.uint32)


def _basis(spec: gf2n.FieldSpec) -> list[int]:
    return [1 << j for j in range(spec.n)]


# ---------------------------------------------------------------- Gold


@dataclass(frozen=True)
class GoldParams:
    spec: gf2n.FieldSpec
    lam: int
    t: int

    def __post_init__(self):
        if not 0 <= self.lam < 1 << self.spec.n:
            raise ValueError(f"lam {self.lam:#x} outside the field")
        if self.t < 0:
            raise ValueError("t must be non-negative")

    @property
    def d(self) -> int:
        return math.gcd(self.t, self.spec.n)

    @property
    def exponent(self) -> int:
        return (1 << self.t) + 1


def gold_function(p: GoldParams) -> BooleanFunction:
    """x -> Tr(lam * x^(2^t + 1))."""
    spec = p.spec
    powers = gf2n.mul_array(_domain(spec), gf2n.frobenius_table(p.t, spec), spec)
    return BooleanFunction.from_bits(spec.n, gf2n.trace_array(powers, spec, p.lam))


def gold_in_S(p: GoldParams) -> bool:
    """Membership of lam in the image of x -> x^(2^t + 1), by order test."""
    if p.lam == 0:
        return True
    order = (1 << p.spec.n) - 1
    g = math.gcd(p.exponent, order)
    return gf2n.power(p.lam, order // g, p.spec) == 1


def gold_bent_admissible(p: GoldParams) -> bool:
    return (p.spec.n // p.d) % 2 == 0 and not gold_in_S(p)


def gold_dual(p: GoldParams) -> BooleanFunction:
    """Closed-form dual Tr(lam * x0^(2^t + 1)) + (m/d mod 2), where x0 solves
    lam*x0 + lam^(2^t) * x0^(2^(2t)) = x^(2^t).

    Raises NotBentAdmissible unless n/d is even and lam avoids the power
    image; equality with the spectral dual is part of the acceptance gate.
    """
    spec = p.spec
    if not gold_bent_admissible(p):
        raise NotBentAdmissible(
            f"gold parameters n={spec.n}, t={p.t}, lam={p.lam:x} are not bent"
        )
    const = (spec.n // 2 // p.d) % 2
    # x -> x0 is GF(2)-linear: solve once per basis vector, then tabulate
    x0 = gf2n.linear_table(
        [gf2n.solve_linearized(p.lam, p.t, gf2n.frobenius(b, p.t, spec), spec) for b in _basis(spec)]
    )
    powers = gf2n.mul_array(x0, gf2n.frobenius_table(p.t, spec)[x0], spec)
    return BooleanFunction.from_bits(spec.n, gf2n.trace_array(powers, spec, p.lam) ^ const)


def _gold_pair_condition(p: GoldParams, a: int, b: int) -> int:
    # Tr(lam * (a^(2^t) b + a b^(2^t))), the second derivative of the gold
    # function at (a, b); constant in x
    spec = p.spec
    v = gf2n.mul(gf2n.frobenius(a, p.t, spec), b, spec) ^ gf2n.mul(a, gf2n.frobenius(b, p.t, spec), spec)
    return gf2n.trace_abs(gf2n.mul(p.lam, v, spec), spec)


def _gold_companion(p: GoldParams, mu: int) -> BooleanFunction:
    # x -> Tr(lam * (mu x^(2^t) + mu^(2^t) x + mu^(2^t + 1))); the part
    # inside the trace is affine in x
    spec = p.spec
    mu_t = gf2n.frobenius(mu, p.t, spec)
    v = gf2n.linear_table(
        [gf2n.mul(mu, gf2n.frobenius(b, p.t, spec), spec) ^ gf2n.mul(mu_t, b, spec) for b in _basis(spec)]
    )
    v ^= gf2n.mul(mu_t, mu, spec)
    return BooleanFunction.from_bits(spec.n, gf2n.trace_array(v, spec, p.lam))


def _cor9_pair_condition(spec: gf2n.FieldSpec, th_inv: int, a: int, b: int) -> int:
    # Tr(theta^(-1) * a * b^(2^m)), the pairwise condition of the t = m
    # specialization
    m = spec.n // 2
    return gf2n.trace_abs(gf2n.mul(th_inv, gf2n.mul(a, gf2n.frobenius(b, m, spec), spec), spec), spec)


def thfromgold_build(
    p: GoldParams,
    mus: tuple[int, ...] | list[int],
    alpha: int,
    F: BooleanFunction,
) -> ConstructionReport:
    """Shifted-tuple construction seeded by f = dual of a gold function.

    The pairwise second derivatives of f's dual (the gold function itself)
    reduce to constants, so the hypotheses become trace conditions on the
    mu tuple; the companions have the closed form Tr(lam*(mu x^(2^t) +
    mu^(2^t) x + mu^(2^t+1))).
    """
    spec = p.spec
    mus = _check_shape(F, spec.n, mus, 1, alpha)
    f = gold_dual(p)  # raises NotBentAdmissible for bad parameters
    conds = _pairwise("trace-condition", mus, 2, functools.partial(_gold_pair_condition, p))
    conds += _alpha_complement(alpha, mus, spec, _TR_ALPHA)
    companions = [_gold_companion(p, mu) for mu in mus]
    params = {"lam": p.lam, "t": p.t, "alpha": alpha, "mus": mus, "F": F.table}
    return shifted_build(
        f, gold_function(p), F, (derivative(f, alpha),), (linear_form(spec, alpha),),
        mus, companions, conds, params, spec,
    )


def cort_m_build(
    spec: gf2n.FieldSpec,
    theta: int,
    mus: tuple[int, ...] | list[int],
    alpha: int,
    F: BooleanFunction,
) -> ConstructionReport:
    """The t = m specialization: f(x) = Tr_m(theta * x^(2^m + 1)) + 1 over
    the half-degree norm, with dual Tr_m(theta^(-1) * x^(2^m + 1)).

    theta ranges over the nonzero half-field; the trailing +1 and the
    inverted coefficient in the dual are kept exactly as derived.
    """
    if spec.n % 2:
        raise ValueError("needs an even degree")
    m = spec.n // 2
    mus = _check_shape(F, spec.n, mus, 1, alpha)
    if theta == 0 or not gf2n.in_subfield(theta, m, spec):
        raise SideConditionFailed("theta-subfield", f"theta={theta:x} not in GF(2^{m})*")
    th_inv = gf2n.inverse(theta, spec)
    conds = [("theta-subfield", True)]
    conds += _pairwise("trace-condition", mus, 2, functools.partial(_cor9_pair_condition, spec, th_inv))
    conds += _alpha_complement(alpha, mus, spec, _TR_ALPHA)
    norm = gf2n.mul_array(_domain(spec), gf2n.frobenius_table(m, spec), spec)
    one = BooleanFunction.const(spec.n, 1)

    def norm_form(coeff: int) -> BooleanFunction:
        # x -> Tr_m(coeff * x^(2^m + 1)), scaling through the tabulated map
        scale = gf2n.linear_table([gf2n.mul(coeff, b, spec) for b in _basis(spec)])
        return BooleanFunction.from_bits(spec.n, gf2n.trace_abs_in_array(scale[norm], m, spec))

    def slot(coeff: int, a: int) -> BooleanFunction:
        # x -> Tr(coeff a^(2^m) x) + Tr_m(coeff N(a)): the head (coeff theta,
        # a alpha) and the companions (coeff theta^(-1), a mu)
        base = linear_form(spec, gf2n.mul(coeff, gf2n.frobenius(a, m, spec), spec))
        return base ^ one if gf2n.trace_abs_in(gf2n.mul(coeff, int(norm[a]), spec), m, spec) else base

    params = {"theta": theta, "alpha": alpha, "mus": mus, "F": F.table}
    return shifted_build(
        norm_form(theta) ^ one, norm_form(th_inv), F, (slot(theta, alpha),), (linear_form(spec, alpha),),
        mus, [slot(th_inv, mu) for mu in mus], conds, params, spec,
    )


def corn4t_build(
    spec: gf2n.FieldSpec,
    lam: int,
    mus: tuple[int, ...] | list[int],
    alpha: int,
    F: BooleanFunction,
) -> ConstructionReport:
    """The n = 4t specialization: the dual coefficient is the rational
    expression P(lam) and f = Tr(P(lam) * x^(2^t + 1)) is gold again."""
    if spec.n % 4:
        raise ValueError("needs a degree divisible by 4")
    t, m = spec.n // 4, spec.n // 2
    mus = _check_shape(F, spec.n, mus, 1, alpha)
    p = GoldParams(spec, lam, t)
    if gold_in_S(p):
        raise SideConditionFailed("lambda-not-in-S", f"lam={lam:x} lies in the power image")
    conds = [("lambda-not-in-S", True)]
    conds += _pairwise("trace-condition", mus, 2, functools.partial(_gold_pair_condition, p))
    conds += _alpha_complement(alpha, mus, spec, _TR_ALPHA)
    num = gf2n.power(lam, (1 << (m + 1)) + 1, spec) ^ gf2n.power(
        lam, (1 << t) + (1 << m) + (1 << (3 * t)), spec
    )
    z = gf2n.power(gf2n.mul(lam, lam, spec), (1 << m) + 1, spec)
    den = z ^ gf2n.frobenius(z, t, spec)
    if den == 0:
        raise ZeroDenominator(f"dual coefficient undefined at lam={lam:x}")
    p_lam = gf2n.mul(num, gf2n.inverse(den, spec), spec)
    f = gold_function(GoldParams(spec, p_lam, t))
    companions = [_gold_companion(p, mu) for mu in mus]
    params = {"lam": lam, "t": t, "p_lam": p_lam, "alpha": alpha, "mus": mus, "F": F.table}
    return shifted_build(
        f, gold_function(p), F, (derivative(f, alpha),), (linear_form(spec, alpha),),
        mus, companions, conds, params, spec,
    )


# ---------------------------------------------- Maiorana-MacFarland


@dataclass(frozen=True)
class MMParams:
    """Tr(lam * x^(2^t) * pi(x + x^(2^m))) + g(x + x^(2^m)).

    pi is either an exponent k (the power map x^k on the subfield, which
    permutes it iff gcd(k, 2^m - 1) = 1) or an explicit table of length
    2^m over subfield indices; g_sub is a Boolean function on m variables,
    both read through the subfield index embedding.
    """

    spec: gf2n.FieldSpec
    lam: int
    t: int
    pi: int | tuple[int, ...]
    g_sub: BooleanFunction

    def __post_init__(self):
        if self.spec.n % 2:
            raise ValueError("needs an even degree")
        m = self.spec.n // 2
        if not 0 <= self.lam < 1 << self.spec.n:
            raise ValueError(f"lam {self.lam:#x} outside the field")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if self.g_sub.n != m:
            raise ValueError(f"g_sub must live on {m} variables, got {self.g_sub.n}")
        if isinstance(self.pi, int):
            if self.pi < 1 or math.gcd(self.pi, (1 << m) - 1) != 1:
                raise ValueError(f"power map exponent {self.pi} is not a permutation")
        else:
            object.__setattr__(self, "pi", tuple(self.pi))
            if sorted(self.pi) != list(range(1 << m)):
                raise ValueError("pi table is not a bijection on the subfield indices")

    @property
    def m(self) -> int:
        return self.spec.n // 2


@functools.lru_cache(maxsize=None)
def _subfield_embedding(spec: gf2n.FieldSpec, r: int):
    """Index map GF(2^r) -> subfield elements of the big field.

    The smallest root beta of the degree-r default modulus inside the
    subfield induces the field isomorphism z -> sum z_i beta^i, so power
    maps act the same whether applied to r-bit indices or to embedded
    elements.  Returns (emb, inv): emb is the read-only uint32 array with
    emb[z] the n-bit element, inv its inverse dict.
    """
    elems = np.array(gf2n.subfield_elements(r, spec), np.uint32)
    pmod = gf2n.default_modulus(r)
    # the modulus at every subfield element at once, by Horner
    acc = np.zeros_like(elems)
    for i in range(r, -1, -1):
        acc = gf2n.mul_array(acc, elems, spec) ^ np.uint32(pmod >> i & 1)
    roots = elems[acc == 0]
    assert roots.size, "subfield contains a root of every divisor-degree irreducible"
    beta = int(roots[0])
    emb = gf2n.linear_table([gf2n.power(beta, i, spec) for i in range(r)])
    inv = {e: z for z, e in enumerate(emb.tolist())}
    assert len(inv) == 1 << r and np.array_equal(np.sort(emb), elems)
    emb.flags.writeable = False
    return emb, inv


@functools.lru_cache(maxsize=None)
def _smallest_omega(spec: gf2n.FieldSpec) -> int:
    # least omega with omega + omega^(2^m) = 1; solutions form a coset of
    # the subfield
    m = spec.n // 2
    cols = [gf2n.frobenius(1 << j, m, spec) ^ (1 << j) for j in range(spec.n)]
    rows, _ = gf2n._column_echelon(cols)
    rhs, w = 1, 0
    for pb, bv, bc in rows:
        if rhs >> pb & 1:
            rhs ^= bv
            w ^= bc
    assert rhs == 0, "1 must lie in the image of the relative trace"
    return min(w ^ s for s in gf2n.subfield_elements(m, spec))


def _pi_index(p: MMParams) -> np.ndarray:
    """pi as a permutation of subfield indices.

    A power map is taken in GF(2^m) on the indices themselves: the
    embedding is a field isomorphism, so it commutes with powers.
    """
    if isinstance(p.pi, int):
        return gf2n.power_array(np.arange(1 << p.m), p.pi, gf2n.make_field(p.m))
    return np.array(p.pi, np.uint32)


def _subfield_index_table(p: MMParams, image) -> np.ndarray:
    # x -> subfield index of image(x), for a GF(2)-linear image landing in
    # GF(2^m); the embedding is linear, so so is the index
    _, inv = _subfield_embedding(p.spec, p.m)
    return gf2n.linear_table([inv[image(b)] for b in _basis(p.spec)])


def mm_function(p: MMParams) -> BooleanFunction:
    spec, m = p.spec, p.m
    emb, _ = _subfield_embedding(spec, m)
    z = _subfield_index_table(p, lambda b: b ^ gf2n.frobenius(b, m, spec))
    prod = gf2n.mul_array(gf2n.frobenius_table(p.t, spec), emb[_pi_index(p)][z], spec)
    return BooleanFunction.from_bits(spec.n, gf2n.trace_array(prod, spec, p.lam) ^ p.g_sub.bits()[z])


def _mm_u_table(p: MMParams) -> np.ndarray:
    # subfield index of u(x) = pi^(-1)(Lam^(-1) * (x + x^(2^m))^(2^t)),
    # shared by the dual and the companions
    spec, m = p.spec, p.m
    lam_inv = gf2n.inverse(p.lam ^ gf2n.frobenius(p.lam, m, spec), spec)
    v = _subfield_index_table(
        p, lambda b: gf2n.mul(lam_inv, gf2n.frobenius(b ^ gf2n.frobenius(b, m, spec), p.t, spec), spec)
    )
    return np.argsort(_pi_index(p)).astype(np.uint32)[v]


def mm_dual(p: MMParams, omega: int | None = None) -> BooleanFunction:
    """Closed-form dual Tr(omega * x * u(x)) + G(u(x)).

    Here u(x) = pi^(-1)(Lam^(-1) * z^(2^t)) for z = x + x^(2^m),
    Lam = lam + lam^(2^m), G(z) = Tr(lam * (omega z)^(2^t) * pi(z)) + g(z),
    and omega is any solution of omega + omega^(2^m) = 1 (canonically the
    smallest; the table does not depend on the choice).  Raises NotBent
    when lam sits in the subfield, where the shape is never bent.
    """
    spec, m = p.spec, p.m
    if gf2n.in_subfield(p.lam, m, spec):
        raise NotBent(f"lam={p.lam:x} lies in GF(2^{m}), the shape is not bent")
    if omega is None:
        omega = _smallest_omega(spec)
    elif omega ^ gf2n.frobenius(omega, m, spec) != 1:
        raise ValueError(f"omega={omega:x} does not satisfy omega + omega^(2^m) = 1")
    emb, _ = _subfield_embedding(spec, m)
    # G over subfield indices; z -> (omega z)^(2^t) is linear in the index
    omega_t = gf2n.linear_table(
        [gf2n.frobenius(gf2n.mul(omega, int(emb[1 << k]), spec), p.t, spec) for k in range(m)]
    )
    big_g = gf2n.trace_array(gf2n.mul_array(omega_t, emb[_pi_index(p)], spec), spec, p.lam) ^ p.g_sub.bits()
    u = _mm_u_table(p)
    bits = gf2n.trace_array(gf2n.mul_array(_domain(spec), emb[u], spec), spec, omega) ^ big_g[u]
    return BooleanFunction.from_bits(spec.n, bits)


def _gold_conditions(p: GoldParams) -> list[tuple[str, bool]]:
    # the admissibility clauses as named side conditions, so the front end
    # can refuse bad parameters before any table is built
    if (p.spec.n // p.d) % 2:
        raise SideConditionFailed("n-over-d-even", f"n/gcd(t,n) = {p.spec.n // p.d} is odd")
    if gold_in_S(p):
        raise SideConditionFailed(
            "lambda-not-in-S", f"lambda in S: {p.lam:x} is a (2^t + 1)-th power"
        )
    return [("n-over-d-even", True), ("lambda-not-in-S", True)]


def gold_build(p: GoldParams) -> ConstructionReport:
    """Report wrapper: h is the gold function, h_star its closed-form dual."""
    conds = _gold_conditions(p)
    return _finish(gold_function(p), gold_dual(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def gold_dual_build(p: GoldParams) -> ConstructionReport:
    """Report wrapper for the dual direction; duality being an involution,
    the expected dual of gold_dual is the gold function itself."""
    conds = _gold_conditions(p)
    return _finish(gold_dual(p), gold_function(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def _mm_conditions(p: MMParams) -> list[tuple[str, bool]]:
    if gf2n.in_subfield(p.lam, p.m, p.spec):
        raise SideConditionFailed(
            "lambda-not-in-subfield", f"lambda={p.lam:x} lies in GF(2^{p.m})"
        )
    return [("lambda-not-in-subfield", True)]


def mm_build(p: MMParams, omega: int | None = None) -> ConstructionReport:
    conds = _mm_conditions(p)
    return _finish(mm_function(p), mm_dual(p, omega), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def mm_dual_build(p: MMParams, omega: int | None = None) -> ConstructionReport:
    conds = _mm_conditions(p)
    return _finish(mm_dual(p, omega), mm_function(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def permutation_to_text(m: int, images) -> str:
    """Two-line permutation table: "m=<int>", then the images of
    0 .. 2^m - 1 as space-separated subfield indices."""
    images = tuple(images)
    if sorted(images) != list(range(1 << m)):
        raise ValueError("images do not form a permutation of the subfield indices")
    return f"m={m}\n" + " ".join(str(v) for v in images) + "\n"


def parse_permutation_text(text: str) -> tuple[int, tuple[int, ...]]:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("m="):
        raise ValueError('permutation file needs a "m=<int>" line and an image line')
    try:
        m = int(lines[0][2:])
        images = tuple(int(tok) for tok in lines[1].split())
    except ValueError as exc:
        raise ValueError(f"malformed permutation file: {exc}") from None
    if m < 1 or sorted(images) != list(range(1 << m)):
        raise ValueError("images do not form a permutation of the subfield indices")
    return m, images


def thmm_build(
    p: MMParams,
    mus: tuple[int, ...] | list[int],
    alpha: int,
    F: BooleanFunction,
    omega: int | None = None,
) -> ConstructionReport:
    """Shifted-tuple construction on an MM function with mu_i from the
    nonzero subfield, where z = x + x^(2^m) kills the shifts and the
    second-derivative hypotheses hold automatically (still asserted)."""
    spec, m = p.spec, p.m
    mus = _check_shape(F, spec.n, mus, 1, alpha)
    conds: list[tuple[str, bool]] = []
    for i, mu in enumerate(mus, 2):
        name = f"mu-subfield[{i}]"
        if mu == 0 or not gf2n.in_subfield(mu, m, spec):
            raise SideConditionFailed(name, f"mu={mu:x} not in GF(2^{m})*")
        conds.append((name, True))
    conds += _alpha_complement(alpha, mus, spec, _TR_ALPHA)
    f = mm_function(p)
    f_star = mm_dual(p, omega)  # raises NotBent for subfield lam
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    if omega is None:
        omega = _smallest_omega(spec)
    emb, _ = _subfield_embedding(spec, m)
    u = _mm_u_table(p)
    # x -> Tr(omega mu u(x)), read off the subfield through u's index
    companions = [
        BooleanFunction.from_bits(spec.n, gf2n.trace_array(emb, spec, gf2n.mul(omega, mu, spec))[u])
        for mu in mus
    ]
    params = {"lam": p.lam, "t": p.t, "alpha": alpha, "mus": mus, "F": F.table}
    return shifted_build(
        f, f_star, F, (derivative(f, alpha),), (linear_form(spec, alpha),),
        mus, companions, conds, params, spec,
    )
