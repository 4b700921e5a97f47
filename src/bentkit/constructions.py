"""Secondary bent constructions of the form h = f + F(phi_1, ..., phi_r).

The central object is the companion certificate: f together with a tuple
phi has the companion property when every f + omega.phi is bent and the
duals move additively, (f + omega.phi)~ = f~ + omega.phi' for a fixed
companion tuple phi'.  The weight-one cases force phi'_i = f~ + (f+phi_i)~,
so the checker derives the only possible companion and then verifies every
omega against it.  Under a valid certificate, h = f + F(phi) is bent for
every F on r inputs with dual h~ = f~ + F(phi').

The shifted-tuple builders are instances of one theorem.  Let f be bent
and let mu_1, ..., mu_k have vanishing pairwise second derivatives
D_mu_i D_mu_j f~, so each linear form l_mu_i has the companion
f~ + f~(x + mu_i).  With an optional head slot psi whose companion psi'
meets the builder's own side conditions, for every F

    h  = f  + F(psi,  l_mu_1, ..., l_mu_k)
    h~ = f~ + F(psi', f~ + f~(x + mu_1), ..., f~ + f~(x + mu_k)).

`shifted_build` is the one assembly step of every certified secondary
build.  It forms every mu companion D_mu f~ itself and places the head
pairs (psi, psi') before the mu slots; given alpha orthogonal to every mu,
its one pair is D_alpha f with companion l_alpha (correduced and thm8,
cor9, cor10, thm12 in `families`).  zlj has no head; cornew passes f + g
with companion f~ + g~ under the dual-shift condition (B); the generic
build passes its r certified pairs (phi_i, phi'_i) and no mu.  Each
builder supplies only its seed, dual and side conditions.  cornew's
condition (B) reduces to the periods D_mu_i(f~ + g~) = 0, mesnager2's
derivative-sum clause being its r = 1 case.  Where f~ is quadratic,
D_a D_b f~ = parity(k_a & b) for k_a the linear part of D_a f~;
`families` states k_a once, for every gold-form dual, for builder and
search.

The known builders are the theorem's particular cases at F = y1 y2:
carlet's majority of three is the head pairs (f1 + f2, f1~ + f2~) and
(f1 + f3, f1~ + f3~), mesnager1's f + l_a l_b the mus (a, b), and
mesnager2's f1 + l_a (f1 + f2) the head (f1 + f2, f1~ + f2~) with the mu
a.  So every secondary builder, the eleven here and in `families`, goes
through `shifted_build`.  Every builder raises SideConditionFailed
naming the violated clause, so a report lists the clauses that held,
and verifies the built pair spectrally before reporting.

Every entry point takes an optional FieldSpec selecting the trace pairing
for linear forms, complements, and duals; the default is the dot pairing
on plain bit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from . import gf2n
from .boolfun import (
    BooleanFunction,
    VectorialFunction,
    algebraic_degree,
    bent_dual,
    compose,
    derivative,
    dot_form,
    dual,
    is_bent,
    linear_form,
)
from .errors import ArityMismatch, CertificateInvalid, SideConditionFailed


@dataclass(frozen=True)
class PrCertificate:
    holds: bool
    varphi: VectorialFunction | None
    witness_omega: int | None = None
    witness_x: int | None = None
    spec: gf2n.FieldSpec | None = None
    f_star: BooleanFunction | None = None  # the dual of f, when holds


@dataclass
class ConstructionReport:
    h: BooleanFunction
    h_star: BooleanFunction
    side_conditions: tuple[str, ...]  # the clauses that held; a failing one raises instead
    params: dict
    warnings: list[str] = field(default_factory=list)
    bent: bool = False
    dual_matches: bool = False
    spec: gf2n.FieldSpec | None = None

    @property
    def ok(self) -> bool:
        return self.bent and self.dual_matches


def _lin(n: int, mu: int, spec: gf2n.FieldSpec | None) -> BooleanFunction:
    return linear_form(spec, mu) if spec is not None else dot_form(n, mu)


_Y1Y2 = BooleanFunction(2, 0b1000)  # F = y1 y2, the known builders' selector


def _degeneracy_warnings(mus, n: int) -> list[str]:
    warnings = []
    if any(mu == 0 for mu in mus):
        warnings.append("zero element among the mu tuple")
    if len(set(mus)) != len(mus):
        warnings.append("repeated element in the mu tuple")
    # the mus span n minus the dimension of their orthogonal
    if not warnings and len(gf2n.nullspace(list(mus), n)) > n - len(mus):
        warnings.append("linearly dependent mu tuple")
    return warnings


def _finish(h, h_star, conds, params, warnings, spec) -> ConstructionReport:
    bent = is_bent(h)
    dual_matches = bent and dual(h, spec) == h_star
    return ConstructionReport(h=h, h_star=h_star, side_conditions=tuple(conds), params=params,
                              warnings=warnings, bent=bent, dual_matches=dual_matches, spec=spec)


def _check_shape(F: BooleanFunction, n: int, mus, heads: int, *extra: int) -> tuple[int, ...]:
    """F's arity against the head and mu slots, then every element (extra
    ones such as alpha first) inside the n-variable domain."""
    mus = tuple(mus)
    if F.n != len(mus) + heads:
        raise ArityMismatch(f"F takes {F.n} inputs, expected {len(mus) + heads}")
    gf2n.check_domain(n, "element", *extra, *mus)
    return mus


def _pairwise(label: str, mus, first: int, fails) -> list[str]:
    """The conditions label[i,j] over every pair of the mu tuple, slots
    numbered from `first`; raises at the first pair where fails(mu_i, mu_j)."""
    conds = []
    for (i, a), (j, b) in combinations(enumerate(mus, first), 2):
        name = f"{label}[{i},{j}]"
        if fails(a, b):
            raise SideConditionFailed(name)
        conds.append(name)
    return conds


def _d2_nonzero(f_star: BooleanFunction):
    """(a, b) -> whether the second derivative D_a D_b f_star is nonzero
    somewhere; the pairwise hypothesis of the shifted-tuple theorem."""
    return lambda a, b: derivative(derivative(f_star, a), b).table != 0


def _first_nonperiod(g: BooleanFunction, mus) -> tuple[int, int] | None:
    """(i, x) for the first mu_i with D_mu_i g nonzero and the lowest x
    where it is; None when every mu is a period of g."""
    for i, mu in enumerate(mus):
        if diff := derivative(g, mu).table:
            return i, (diff & -diff).bit_length() - 1
    return None


def _alpha_complement(alpha: int, mus, spec, detail="<alpha, mu_{i}> = 1 (alpha={alpha:x}, mu={mu:x})"):
    # alpha pairs to zero with every mu, so l_alpha kills the mu shifts;
    # Tr(alpha mu) = parity(covector(alpha) & mu)
    k = alpha if spec is None else gf2n.covector(alpha, spec)
    for i, mu in enumerate(mus, 2):
        if (k & mu).bit_count() & 1:
            raise SideConditionFailed("alpha-complement", detail.format(i=i, alpha=alpha, mu=mu))
    return ["alpha-complement"]


def _bent_conditions(
    spec: gf2n.FieldSpec | None, **fns: BooleanFunction
) -> tuple[list[str], list[BooleanFunction]]:
    """The name-bent conditions, with the duals their transforms gave, in order."""
    conds, duals = [], []
    for name, g in fns.items():
        g_star = bent_dual(g, spec)
        if g_star is None:
            raise SideConditionFailed(f"{name}-bent")
        conds.append(f"{name}-bent")
        duals.append(g_star)
    return conds, duals


def shifted_build(
    f: BooleanFunction, f_star: BooleanFunction, F: BooleanFunction, mus: tuple[int, ...],
    conds: list, params: dict, spec: gf2n.FieldSpec | None, alpha: int | None = None, heads=(),
) -> ConstructionReport:
    """h = f + F(psi..., l_mu...), h~ = f~ + F(psi'..., D_mu f~...), verified; the
    caller checked every side condition.  The (psi, psi') slot pairs are heads,
    or the one pair (D_alpha f, l_alpha) given alpha; build_generic passes its r
    certified pairs and no mu.  params gains alpha, mus and F after the caller's keys."""
    if alpha is not None:
        heads, params = [(derivative(f, alpha), _lin(f.n, alpha, spec))], {**params, "alpha": alpha}
    slots = (*heads, *((_lin(f.n, mu, spec), derivative(f_star, mu)) for mu in mus))
    # compose, not the tuple, checks F's arity against the slot count
    phi, varphi = (VectorialFunction.from_components(side) for side in zip(*slots))
    h = f ^ compose(F, phi)
    h_star = f_star ^ compose(F, varphi)
    params = {**params, "mus": mus, "F": F.table}
    return _finish(h, h_star, conds, params, _degeneracy_warnings(mus, f.n), spec)


def check_property_pr(
    f: BooleanFunction, phi: VectorialFunction, spec: gf2n.FieldSpec | None = None
) -> PrCertificate:
    """Derive the forced companion tuple and verify it for every omega.

    Returns a certificate with holds=False and a witness omega (and, for a
    dual mismatch, the first disagreeing point x) as soon as one omega
    fails; omega is encoded with bit i-1 selecting phi_i.
    """
    if phi.n != f.n:
        raise ArityMismatch(f"phi is on {phi.n} variables, f on {f.n}")
    gf2n.check_cap("certificate n + r", f.n + phi.r)  # before any transform
    f_star = bent_dual(f, spec)
    if f_star is None:
        return PrCertificate(False, None, witness_omega=0, spec=spec)
    companions = []
    for i, comp in enumerate(phi.components):
        g_star = bent_dual(f ^ comp, spec)
        if g_star is None:
            return PrCertificate(False, None, witness_omega=1 << i, spec=spec)
        companions.append(f_star ^ g_star)
    # the weight-one omegas hold by the choice of companions; the rest walk the span
    members = zip(gf2n.span([c.table for c in phi.components]), gf2n.span([c.table for c in companions]))
    for omega, (g, expected) in enumerate(members):
        if omega & (omega - 1) == 0:
            continue
        got = bent_dual(BooleanFunction(f.n, f.table ^ g), spec)
        if got is None or (diff := got.table ^ f_star.table ^ expected):
            x = None if got is None else (diff & -diff).bit_length() - 1
            return PrCertificate(False, None, witness_omega=omega, witness_x=x, spec=spec)
    varphi = VectorialFunction(f.n, phi.r, tuple(companions))
    return PrCertificate(True, varphi, spec=spec, f_star=f_star)


def build_generic(
    f: BooleanFunction,
    F: BooleanFunction,
    phi: VectorialFunction,
    certificate: PrCertificate,
) -> ConstructionReport:
    """h = f + F(phi) under a companion certificate: shifted_build with the r
    certified (phi_i, phi'_i) pairs as heads and no mu."""
    if not certificate.holds or certificate.varphi is None or certificate.f_star is None:
        raise CertificateInvalid("certificate does not hold")
    if certificate.varphi.r != phi.r or certificate.varphi.n != phi.n:
        raise CertificateInvalid("certificate shape does not match phi")
    heads = zip(phi.components, certificate.varphi.components)
    return shifted_build(
        f, certificate.f_star, F, (), ["certificate-holds"], {"r": phi.r}, certificate.spec, heads=heads
    )


def carlet_build(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """Majority of three bent functions whose sum is bent with additive dual."""
    conds, (d1, d2, d3) = _bent_conditions(spec, f1=f1, f2=f2, f3=f3)
    s_star = bent_dual(f1 ^ f2 ^ f3, spec)
    if s_star is None:
        raise SideConditionFailed("sum-bent")
    conds.append("sum-bent")
    if s_star != d1 ^ d2 ^ d3:
        raise SideConditionFailed("dual-additive")
    conds.append("dual-additive")
    heads = [(f1 ^ f2, d1 ^ d2), (f1 ^ f3, d1 ^ d3)]
    return shifted_build(f1, d1, _Y1Y2, (), conds, {}, spec, heads=heads)


def mesnager_build(
    f: BooleanFunction,
    a: int,
    b: int,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + l_a l_b, bent iff the second derivative of the dual by (a, b)
    vanishes; the dual is the majority of f~ and its two shifts."""
    gf2n.check_domain(f.n, "shift", a, b)
    conds, (f_star,) = _bent_conditions(spec, f=f)
    if _d2_nonzero(f_star)(a, b):
        raise SideConditionFailed("second-derivative", f"D_a D_b of the dual is nonzero (a={a:x}, b={b:x})")
    conds.append("second-derivative")
    return shifted_build(f, f_star, _Y1Y2, (a, b), conds, {"a": a, "b": b}, spec)


def mesnager2_build(
    f1: BooleanFunction,
    f2: BooleanFunction,
    a: int,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f1 + l_a (f1 + f2) for bent f1, f2 with D_a(f1~ + f2~) = 0."""
    gf2n.check_domain(f1.n, "shift", a)
    conds, (d1, d2) = _bent_conditions(spec, f1=f1, f2=f2)
    if failed := _first_nonperiod(d1 ^ d2, (a,)):
        _, x = failed
        raise SideConditionFailed("derivative-sum", f"D_a(f1~ + f2~) is nonzero (a={a:x})", witness=(a, x))
    conds.append("derivative-sum")
    return shifted_build(f1, d1, _Y1Y2, (a,), conds, {"a": a}, spec, heads=[(f1 ^ f2, d1 ^ d2)])


def zlj_build(
    f: BooleanFunction,
    mus: tuple[int, ...] | list[int],
    F: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + F(l_mu1, ..., l_mur) under vanishing pairwise second
    derivatives of the dual; companions are the dual's derivatives."""
    mus = _check_shape(F, f.n, mus, 0)
    conds, (f_star,) = _bent_conditions(spec, f=f)
    conds += _pairwise("second-derivative", mus, 1, _d2_nonzero(f_star))
    return shifted_build(f, f_star, F, mus, conds, {}, spec)


def cornew_build(
    f: BooleanFunction,
    g: BooleanFunction,
    mus: tuple[int, ...] | list[int],
    F: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + F(f + g, l_mu2, ..., l_mur) for a second bent g whose dual
    shifts compatibly along the mu span.

    Condition (B): for every selector omega' over the mu tuple and every x,
      g~(x + sum omega_i mu_i) = g~(x) + sum omega_i f~(x + mu_i)
                                 [+ f~(x) when omega' has odd weight].
    Given the pairwise conditions, checked first, D_s D_mu_j f~ = 0 for s
    in the mu span, so (B) holds once it holds for the r singletons,
    D_mu_i(f~ + g~) = 0, and the first failing singleton is the first
    failing omega'.  So it costs r table comparisons with early exit.
    """
    mus = _check_shape(F, f.n, mus, 1)
    if g.n != f.n:
        raise ArityMismatch("f and g disagree on arity")
    conds, (f_star, g_star) = _bent_conditions(spec, f=f, g=g)
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    if failed := _first_nonperiod(f_star ^ g_star, mus):
        i, x = failed
        raise SideConditionFailed("dual-shift", f"fails at omega'={1 << i:x}, x={x:x}", witness=(1 << i, x))
    conds.append("dual-shift")
    return shifted_build(f, f_star, F, mus, conds, {}, spec, heads=[(f ^ g, f_star ^ g_star)])


def correduced_build(
    f: BooleanFunction,
    alpha: int,
    mus: tuple[int, ...] | list[int],
    F: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + F(D_alpha f, l_mu2, ..., l_mur) with alpha orthogonal to the
    mu tuple; the dual swaps the first slot to l_alpha."""
    mus = _check_shape(F, f.n, mus, 1, alpha)
    conds, (f_star,) = _bent_conditions(spec, f=f)
    conds += _alpha_complement(alpha, mus, spec)
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    return shifted_build(f, f_star, F, mus, conds, {}, spec, alpha)


def report_degrees(report: ConstructionReport) -> tuple[int, int]:
    """(degree of h, degree of h~); used by the CLI report writer."""
    return algebraic_degree(report.h), algebraic_degree(report.h_star)
