"""Concrete bent families over GF(2^n) and their closed-form duals.

Two sources feed the generic machinery of `constructions`:

* Gold functions Tr(lam * x^(2^t + 1)), bent exactly when n/gcd(t, n) is
  even and lam avoids the image of x -> x^(2^t + 1); the dual is again a
  trace form evaluated at the solution of a linearized equation, plus the
  parity constant (m/d mod 2).  Both, like the cor9 norm forms, are
  quadratic: `boolfun.quadratic_form` doubles their tables from values on
  the basis and covectors of the bilinear form.
* Maiorana-MacFarland shapes Tr(lam * x^(2^t) * pi(x + x^(2^m))) +
  g(x + x^(2^m)) for a permutation pi of the half-degree subfield, bent
  exactly when lam stays outside that subfield; the dual rides on the
  decomposition x = y + omega*z with z = x + x^(2^m) and any omega
  satisfying omega + omega^(2^m) = 1.  Both read parity(x & C[z]) + g(z)
  through half-size tables C and g over the 2^m subfield indices of z.

All spectral statements here use the trace pairing of the ambient field.
The shifted-tuple builders (thm8, cor9, cor10, thm12) are instances of
`constructions.shifted_build`, which forms h = f + F(D_alpha f, Tr(mu_2 x),
...) and h~ = f~ + F(Tr(alpha x), D_mu_2 f~, ...).  Each supplies its seed,
dual and own side conditions.  thm8, cor9 and cor10 have a gold dual
gold_function(q), cor9's norm form Tr_m(theta^(-1) x^(2^m + 1)) being the
gold form of `_norm_gold`.  So D_a D_b f~ = parity(k_a & b) for k_a the
linear part of the companion D_a f~: `_gold_partner(q, a)` states k_a
once, for the trace conditions here and both trace modes of `search`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2n
from .boolfun import BooleanFunction, quadratic_form
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


# ---------------------------------------------------------------- Gold


@dataclass(frozen=True)
class GoldParams:
    spec: gf2n.FieldSpec
    lam: int
    t: int

    def __post_init__(self):
        gf2n.check_domain(self.spec.n, "lam", self.lam)
        if self.t < 0:
            raise ValueError("t must be non-negative")

    @property
    def d(self) -> int:
        return math.gcd(self.t, self.spec.n)

    @property
    def exponent(self) -> int:
        # x^(2^t) = x^(2^(t mod n)) on GF(2^n), so no int grows with t
        return (1 << self.t % self.spec.n) + 1


def _gold_form(spec: gf2n.FieldSpec, lam: int, t: int, images=None, const: int = 0) -> BooleanFunction:
    """x -> Q(y) + const for Q(y) = Tr(lam y^(2^t + 1)) and y the image of x
    under the linear map of images (the identity by default), by doubling.
    x -> B(x, e_j) = Tr(lam (x^(2^t) e_j + x e_j^(2^t))) has the covector
    covector(lam e_j^(2^t)) plus covector(lam e_j) pulled back through the
    Frobenius; the map pulls Q's values and covectors back once more."""
    frob = gf2n.frobenius_images(t, spec)
    w = [gf2n.covector(gf2n.mul(lam, 1 << j, spec), spec) for j in range(spec.n)]
    cov = [gf2n.apply_linear(w, f) ^ gf2n.pull_back(frob, wj) for wj, f in zip(w, frob)]
    if images is not None:  # B(Xx, X e_j), a covector pulled back through X
        cov = [gf2n.pull_back(images, gf2n.apply_linear(cov, s)) for s in images]
    # Q(s) = Tr(lam s s^(2^t)) = parity(covector(lam s) & s^(2^t))
    values = sum(
        ((gf2n.apply_linear(w, s) & gf2n.apply_linear(frob, s)).bit_count() & 1) << j
        for j, s in enumerate(images or [1 << j for j in range(spec.n)])
    )
    return quadratic_form(spec.n, values, cov, const)


def gold_function(p: GoldParams) -> BooleanFunction:
    """x -> Tr(lam * x^(2^t + 1))."""
    return _gold_form(p.spec, p.lam, p.t)


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
    # x -> x0 is GF(2)-linear: solve for the n basis vectors
    x0 = gf2n.solve_linearized(p.lam, p.t, gf2n.frobenius_images(p.t, spec), spec)
    return _gold_form(spec, p.lam, p.t, x0, (spec.n // 2 // p.d) % 2)


def _gold_partner(p: GoldParams, a: int) -> int:
    # k_a with parity(k_a & b) = Tr(lam (a b^(2^t) + a^(2^t) b)) = D_a D_b of
    # the gold function: covector(lam a) pulled back through the Frobenius,
    # plus covector(lam a^(2^t))
    spec = p.spec
    k = gf2n.pull_back(gf2n.frobenius_images(p.t, spec), gf2n.covector(gf2n.mul(p.lam, a, spec), spec))
    return k ^ gf2n.covector(gf2n.mul(p.lam, gf2n.frobenius(a, p.t, spec), spec), spec)


def _norm_gold(spec: gf2n.FieldSpec, c: int) -> GoldParams:
    # Tr_m(c N(x)) = Tr(omega c x^(2^m + 1)), as Tr(omega y) = Tr_m(y) on
    # GF(2^m) for omega + omega^(2^m) = 1: the norm forms are gold forms
    return GoldParams(spec, gf2n.mul(_smallest_omega(spec), c, spec), spec.n // 2)


def _gold_shift_conditions(q: GoldParams, mus, alpha: int) -> list[str]:
    # the side conditions of a shifted-tuple build whose dual is
    # gold_function(q): D_a D_b f~ = parity(k_a & b), then alpha-complement
    conds = _pairwise("trace-condition", mus, 2, lambda a, b: (_gold_partner(q, a) & b).bit_count() & 1)
    return conds + _alpha_complement(alpha, mus, q.spec, _TR_ALPHA)


def thfromgold_build(
    p: GoldParams,
    mus: tuple[int, ...] | list[int],
    alpha: int,
    F: BooleanFunction,
) -> ConstructionReport:
    """Shifted-tuple construction seeded by f = dual of a gold function.

    The pairwise second derivatives of f's dual (the gold function itself)
    reduce to constants, so the hypotheses become trace conditions on the
    mu tuple.
    """
    spec = p.spec
    mus = _check_shape(F, spec.n, mus, 1, alpha)
    f = gold_dual(p)  # raises NotBentAdmissible for bad parameters
    conds = _gold_shift_conditions(p, mus, alpha)
    return shifted_build(f, gold_function(p), F, mus, conds, {"lam": p.lam, "t": p.t}, spec, alpha)


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
    gf2n.check_domain(spec.n, "theta", theta)
    if theta == 0 or not gf2n.in_subfield(theta, m, spec):
        raise SideConditionFailed("theta-subfield", f"theta={theta:x} not in GF(2^{m})*")
    q = _norm_gold(spec, gf2n.inverse(theta, spec))
    conds = ["theta-subfield", *_gold_shift_conditions(q, mus, alpha)]
    f = _gold_form(spec, _norm_gold(spec, theta).lam, m, const=1)
    return shifted_build(f, gold_function(q), F, mus, conds, {"theta": theta}, spec, alpha)


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
    conds = ["lambda-not-in-S", *_gold_shift_conditions(p, mus, alpha)]
    num = gf2n.power(lam, (1 << (m + 1)) + 1, spec) ^ gf2n.power(
        lam, (1 << t) + (1 << m) + (1 << (3 * t)), spec
    )
    z = gf2n.power(gf2n.mul(lam, lam, spec), (1 << m) + 1, spec)
    den = z ^ gf2n.frobenius(z, t, spec)
    if den == 0:
        raise ZeroDenominator(f"dual coefficient undefined at lam={lam:x}")
    p_lam = gf2n.mul(num, gf2n.inverse(den, spec), spec)
    f = gold_function(GoldParams(spec, p_lam, t))
    params = {"lam": lam, "t": t, "p_lam": p_lam}
    return shifted_build(f, gold_function(p), F, mus, conds, params, spec, alpha)


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
        gf2n.check_domain(self.spec.n, "lam", self.lam)
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

    @functools.cached_property
    def pi_index(self) -> np.ndarray:
        """pi on subfield indices, once per params object.  A power map is
        taken in GF(2^m) on the indices, through its exp table: g^i -> g^(ik);
        the embedding is a field isomorphism, so it commutes with powers."""
        if not isinstance(self.pi, int):
            return np.array(self.pi, np.uint32)
        exp, table = np.array(_exp(self.m), np.uint32), np.zeros(1 << self.m, np.uint32)
        table[exp] = exp[np.arange(exp.size) * (self.pi % exp.size) % exp.size]
        return table


@functools.lru_cache(maxsize=None)
def _exp(r: int) -> tuple[int, ...]:
    # powers of the least primitive element of GF(2^r), default modulus
    spec, order = gf2n.make_field(r), (1 << r) - 1
    for g in range(1, 1 << r):
        exp = np.ones(1, np.uint32)
        while exp.size < order:
            exp = np.concatenate([exp, gf2n.mul_array(exp, gf2n.power(g, exp.size, spec), spec)])
        if np.unique(exp[:order]).size == order:
            return tuple(exp[:order].tolist())


@functools.lru_cache(maxsize=None)
def _subfield_embedding(spec: gf2n.FieldSpec, r: int):
    """Index map GF(2^r) -> subfield elements of the big field: the field
    isomorphism z -> sum z_i beta^i for the smallest root beta of the
    degree-r default modulus inside the subfield, so power maps act the
    same on r-bit indices and on embedded elements.  Returns (emb, inv),
    the read-only uint32 array of the elements emb[z] and its inverse dict.
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
    # least omega with omega + omega^(2^m) = 1: the kernel vector of
    # (y, s) -> y + y^(2^m) + s with bit n (s) set is zero on the subfield
    # part's leading bits, so it is the least of its coset of the subfield
    n = spec.n
    cols = [f ^ 1 << j for j, f in enumerate(gf2n.frobenius_images(n // 2, spec))] + [1]
    basis = gf2n.nullspace([gf2n.pull_back(cols, 1 << i) for i in range(n)], n + 1)
    return next(v for v in basis if v >> n) ^ 1 << n


def _mm_z(p: MMParams) -> np.ndarray:
    # subfield index of z = x + x^(2^m) over the 2^n points, linear in x
    _, inv = _subfield_embedding(p.spec, p.m)
    return gf2n.linear_table([inv[1 << j ^ gf2n.frobenius(1 << j, p.m, p.spec)] for j in range(p.spec.n)])


def _index_map(p: MMParams, image) -> np.ndarray:
    # z -> image(emb[z]) over the 2^m subfield indices, for a linear image
    emb, _ = _subfield_embedding(p.spec, p.m)
    return gf2n.linear_table([image(int(emb[1 << k])) for k in range(p.m)])


def _index_form(n: int, z: np.ndarray, cov: np.ndarray, g: np.ndarray) -> BooleanFunction:
    # x -> parity(x & cov[z[x]]) + g[z[x]], from the half-size tables cov
    # and g over subfield indices; no field product over the 2^n points
    w = cov[z]
    w &= np.arange(1 << n, dtype=np.uint32)
    return BooleanFunction.from_bits(n, (np.bitwise_count(w) & 1) ^ g[z])


def mm_function(p: MMParams) -> BooleanFunction:
    """Tr(lam x^(2^t) pi(z)) + g(z) as parity(x & C[z]) + g(z), where
    C[z] = covector((lam pi(z))^(2^(n-t))) is a table over the 2^m indices."""
    spec = p.spec
    cov = _index_map(p, lambda e: gf2n.covector(gf2n.frobenius(gf2n.mul(p.lam, e, spec), -p.t, spec), spec))
    return _index_form(spec.n, _mm_z(p), cov[p.pi_index], p.g_sub.bits())


def _mm_u(p: MMParams) -> np.ndarray:
    # u = pi^(-1)(Lam^(-1) * z^(2^t)) over the 2^m indices of z
    spec, (_, inv) = p.spec, _subfield_embedding(p.spec, p.m)
    lam_inv = gf2n.inverse(p.lam ^ gf2n.frobenius(p.lam, p.m, spec), spec)
    v = _index_map(p, lambda e: inv[gf2n.mul(lam_inv, gf2n.frobenius(e, p.t, spec), spec)])
    return np.argsort(p.pi_index)[v]


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
    # G(z) = parity(covector(c z^(2^t)) & pi(z)) + g(z), c = lam omega^(2^t),
    # and Tr(omega x u) = parity(x & D[u]) with D[u] = covector(omega u)
    c = gf2n.mul(p.lam, gf2n.frobenius(omega, p.t, spec), spec)
    k = _index_map(p, lambda e: gf2n.covector(gf2n.mul(c, gf2n.frobenius(e, p.t, spec), spec), spec))
    big_g = (np.bitwise_count(k & emb[p.pi_index]) & 1) ^ p.g_sub.bits()
    d, u = _index_map(p, lambda e: gf2n.covector(gf2n.mul(omega, e, spec), spec)), _mm_u(p)
    return _index_form(spec.n, _mm_z(p), d[u], big_g[u])


def _gold_conditions(p: GoldParams) -> list[str]:
    # the admissibility clauses as named side conditions, so the front end
    # can refuse bad parameters before any table is built
    if (p.spec.n // p.d) % 2:
        raise SideConditionFailed("n-over-d-even", f"n/gcd(t,n) = {p.spec.n // p.d} is odd")
    if gold_in_S(p):
        raise SideConditionFailed(
            "lambda-not-in-S", f"lambda in S: {p.lam:x} is a (2^t + 1)-th power"
        )
    return ["n-over-d-even", "lambda-not-in-S"]


def gold_build(p: GoldParams) -> ConstructionReport:
    """Report wrapper: h is the gold function, h_star its closed-form dual."""
    conds = _gold_conditions(p)
    return _finish(gold_function(p), gold_dual(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def gold_dual_build(p: GoldParams) -> ConstructionReport:
    """Report wrapper for the dual direction; duality being an involution,
    the expected dual of gold_dual is the gold function itself."""
    conds = _gold_conditions(p)
    return _finish(gold_dual(p), gold_function(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def _mm_conditions(p: MMParams) -> list[str]:
    if gf2n.in_subfield(p.lam, p.m, p.spec):
        raise SideConditionFailed(
            "lambda-not-in-subfield", f"lambda={p.lam:x} lies in GF(2^{p.m})"
        )
    return ["lambda-not-in-subfield"]


def mm_build(p: MMParams, omega: int | None = None) -> ConstructionReport:
    conds = _mm_conditions(p)
    return _finish(mm_function(p), mm_dual(p, omega), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


def mm_dual_build(p: MMParams, omega: int | None = None) -> ConstructionReport:
    conds = _mm_conditions(p)
    return _finish(mm_dual(p, omega), mm_function(p), conds, {"lam": p.lam, "t": p.t}, [], p.spec)


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
    conds: list[str] = []
    for i, mu in enumerate(mus, 2):
        name = f"mu-subfield[{i}]"
        if mu == 0 or not gf2n.in_subfield(mu, m, spec):
            raise SideConditionFailed(name, f"mu={mu:x} not in GF(2^{m})*")
        conds.append(name)
    conds += _alpha_complement(alpha, mus, spec, _TR_ALPHA)
    f = mm_function(p)
    f_star = mm_dual(p, omega)  # raises NotBent for subfield lam
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    return shifted_build(f, f_star, F, mus, conds, {"lam": p.lam, "t": p.t}, spec, alpha)
