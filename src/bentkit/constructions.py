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

`shifted_build` assembles and verifies both sides; each builder supplies
its seed, head and side conditions.  zlj has no head; cornew's head is
f + g with companion f~ + g~ under the dual-shift condition (B);
correduced's is D_alpha f with companion l_alpha for alpha orthogonal to
every mu.  The field families (thm8, cor9, cor10, thm12 in `families`)
give seed, dual and companions in closed form, the second-derivative
condition becoming a trace condition where the dual is quadratic.

The other builders (three-function majority, one- and two-linear-factor
corrections, the certified generic build) check their own hypotheses.
Every builder raises SideConditionFailed naming the violated clause and
verifies the built pair spectrally before reporting.

Every entry point takes an optional FieldSpec selecting the trace pairing
for linear forms, complements, and duals; the default is the dot pairing
on plain bit vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import gf2n
from .boolfun import (
    BooleanFunction,
    VectorialFunction,
    algebraic_degree,
    compose,
    derivative,
    dot_form,
    dual,
    is_bent,
    linear_form,
    translate,
)
from .errors import ArityMismatch, CertificateInvalid, SideConditionFailed


@dataclass(frozen=True)
class PrCertificate:
    holds: bool
    varphi: VectorialFunction | None
    witness_omega: int | None = None
    witness_x: int | None = None
    spec: gf2n.FieldSpec | None = None


@dataclass
class ConstructionReport:
    h: BooleanFunction
    h_star: BooleanFunction
    side_conditions: list[tuple[str, bool]]
    params: dict
    warnings: list[str] = field(default_factory=list)
    bent: bool = False
    dual_matches: bool = False
    spec: gf2n.FieldSpec | None = None

    @property
    def ok(self) -> bool:
        return (
            all(passed for _, passed in self.side_conditions)
            and self.bent
            and self.dual_matches
        )


def _lin(n: int, mu: int, spec: gf2n.FieldSpec | None) -> BooleanFunction:
    return linear_form(spec, mu) if spec is not None else dot_form(n, mu)


def _pair_bit(a: int, b: int, spec: gf2n.FieldSpec | None) -> int:
    if spec is None:
        return (a & b).bit_count() & 1
    return gf2n.trace_abs(gf2n.mul(a, b, spec), spec)


def _maj(a: BooleanFunction, b: BooleanFunction, c: BooleanFunction) -> BooleanFunction:
    return (a & b) ^ (a & c) ^ (b & c)


def _check_domain(n: int, name: str, *values: int) -> None:
    for v in values:
        if not 0 <= v < 1 << n:
            raise ValueError(f"{name} {v:#x} outside the {n}-variable domain")


def _degeneracy_warnings(mus, n: int) -> list[str]:
    warnings = []
    if any(mu == 0 for mu in mus):
        warnings.append("zero element among the mu tuple")
    if len(set(mus)) != len(mus):
        warnings.append("repeated element in the mu tuple")
    basis: dict[int, int] = {}  # leading bit -> reduced vector
    dependent = False
    for mu in mus:
        v = mu
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
        else:
            dependent = True
    if dependent and not warnings:
        warnings.append("linearly dependent mu tuple")
    return warnings


def _finish(h, h_star, conds, params, warnings, spec) -> ConstructionReport:
    report = ConstructionReport(
        h=h,
        h_star=h_star,
        side_conditions=conds,
        params=params,
        warnings=warnings,
        spec=spec,
    )
    report.bent = is_bent(h)
    report.dual_matches = report.bent and dual(h, spec) == h_star
    return report


def _check_shape(F: BooleanFunction, n: int, mus, heads: int, *extra: int) -> tuple[int, ...]:
    """F's arity against the head and mu slots, then every element (extra
    ones such as alpha first) inside the n-variable domain."""
    mus = tuple(mus)
    if F.n != len(mus) + heads:
        raise ArityMismatch(f"F takes {F.n} inputs, expected {len(mus) + heads}")
    _check_domain(n, "element", *extra, *mus)
    return mus


def _pairwise(label: str, mus, first: int, fails) -> list[tuple[str, bool]]:
    """The conditions label[i,j] over every pair of the mu tuple, slots
    numbered from `first`; raises at the first pair where fails(mu_i, mu_j)."""
    conds = []
    for (i, a), (j, b) in combinations(enumerate(mus, first), 2):
        name = f"{label}[{i},{j}]"
        if fails(a, b):
            raise SideConditionFailed(name)
        conds.append((name, True))
    return conds


def _d2_nonzero(f_star: BooleanFunction):
    """(a, b) -> whether the second derivative D_a D_b f_star is nonzero
    somewhere; the pairwise hypothesis of the shifted-tuple theorem."""
    bits = f_star.bits()
    idx = np.arange(bits.size)

    def fails(a: int, b: int) -> bool:
        return bool((bits ^ bits[idx ^ a] ^ bits[idx ^ b] ^ bits[idx ^ a ^ b]).any())

    return fails


def _alpha_complement(alpha: int, mus, spec, detail="<alpha, mu_{i}> = 1 (alpha={alpha:x}, mu={mu:x})"):
    # alpha pairs to zero with every mu, so l_alpha kills the mu shifts
    for i, mu in enumerate(mus, 2):
        if _pair_bit(alpha, mu, spec):
            raise SideConditionFailed("alpha-complement", detail.format(i=i, alpha=alpha, mu=mu))
    return [("alpha-complement", True)]


def _bent_conditions(**fns: BooleanFunction) -> list[tuple[str, bool]]:
    conds = []
    for name, g in fns.items():
        if not is_bent(g):
            raise SideConditionFailed(f"{name}-bent")
        conds.append((f"{name}-bent", True))
    return conds


def shifted_build(
    f: BooleanFunction, f_star: BooleanFunction, F: BooleanFunction, head: tuple, head_dual: tuple,
    mus: tuple[int, ...], companions, conds: list, params: dict, spec: gf2n.FieldSpec | None,
) -> ConstructionReport:
    """h = f + F(head, l_mu...) with h~ = f~ + F(head_dual, companions),
    verified spectrally; the caller has checked every side condition."""
    phi = VectorialFunction(f.n, F.n, (*head, *(_lin(f.n, mu, spec) for mu in mus)))
    varphi = VectorialFunction(f.n, F.n, (*head_dual, *companions))
    h = f ^ compose(F, phi)
    h_star = f_star ^ compose(F, varphi)
    return _finish(h, h_star, conds, params, _degeneracy_warnings(mus, f.n), spec)


def check_property_pr(
    f: BooleanFunction,
    phi: VectorialFunction,
    spec: gf2n.FieldSpec | None = None,
) -> PrCertificate:
    """Derive the forced companion tuple and verify it for every omega.

    Returns a certificate with holds=False and a witness omega (and, for a
    dual mismatch, the first disagreeing point x) as soon as one omega
    fails; omega is encoded with bit i-1 selecting phi_i.
    """
    if phi.n != f.n:
        raise ArityMismatch(f"phi is on {phi.n} variables, f on {f.n}")
    if not is_bent(f):
        return PrCertificate(False, None, witness_omega=0, spec=spec)
    f_star = dual(f, spec)
    companions = []
    for i, comp in enumerate(phi.components):
        g = f ^ comp
        if not is_bent(g):
            return PrCertificate(False, None, witness_omega=1 << i, spec=spec)
        companions.append(f_star ^ dual(g, spec))
    varphi = VectorialFunction(f.n, phi.r, tuple(companions))
    for omega in range(1 << phi.r):
        g, expected = f, f_star
        for i in range(phi.r):
            if omega >> i & 1:
                g ^= phi.components[i]
                expected ^= companions[i]
        if not is_bent(g):
            return PrCertificate(False, None, witness_omega=omega, spec=spec)
        got = dual(g, spec)
        if got != expected:
            diff = got.table ^ expected.table
            x = (diff & -diff).bit_length() - 1
            return PrCertificate(False, None, witness_omega=omega, witness_x=x, spec=spec)
    return PrCertificate(True, varphi, spec=spec)


def build_generic(
    f: BooleanFunction,
    F: BooleanFunction,
    phi: VectorialFunction,
    certificate: PrCertificate,
) -> ConstructionReport:
    """h = f + F(phi) under a companion certificate; dual from the companions."""
    if not certificate.holds or certificate.varphi is None:
        raise CertificateInvalid("certificate does not hold")
    if F.n != phi.r:
        raise ArityMismatch(f"F takes {F.n} inputs, phi supplies {phi.r}")
    if certificate.varphi.r != phi.r or certificate.varphi.n != phi.n:
        raise CertificateInvalid("certificate shape does not match phi")
    spec = certificate.spec
    h = f ^ compose(F, phi)
    h_star = dual(f, spec) ^ compose(F, certificate.varphi)
    params = {"r": phi.r, "F": F.table}
    return _finish(h, h_star, [("certificate-holds", True)], params, [], spec)


def carlet_build(
    f1: BooleanFunction,
    f2: BooleanFunction,
    f3: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """Majority of three bent functions whose sum is bent with additive dual."""
    conds = _bent_conditions(f1=f1, f2=f2, f3=f3)
    s = f1 ^ f2 ^ f3
    if not is_bent(s):
        raise SideConditionFailed("sum-bent")
    conds.append(("sum-bent", True))
    d1, d2, d3 = dual(f1, spec), dual(f2, spec), dual(f3, spec)
    if dual(s, spec) != d1 ^ d2 ^ d3:
        raise SideConditionFailed("dual-additive")
    conds.append(("dual-additive", True))
    h = _maj(f1, f2, f3)
    h_star = _maj(d1, d2, d3)
    return _finish(h, h_star, conds, {}, [], spec)


def mesnager_build(
    f: BooleanFunction,
    a: int,
    b: int,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + l_a l_b, bent iff the second derivative of the dual by (a, b)
    vanishes; the dual is the majority of f~ and its two shifts."""
    _check_domain(f.n, "shift", a, b)
    conds = _bent_conditions(f=f)
    f_star = dual(f, spec)
    if _d2_nonzero(f_star)(a, b):
        raise SideConditionFailed("second-derivative", f"D_a D_b of the dual is nonzero (a={a:x}, b={b:x})")
    conds.append(("second-derivative", True))
    h = f ^ (_lin(f.n, a, spec) & _lin(f.n, b, spec))
    h_star = _maj(f_star, translate(f_star, a), translate(f_star, b))
    return _finish(h, h_star, conds, {"a": a, "b": b}, [], spec)


def mesnager2_build(
    f1: BooleanFunction,
    f2: BooleanFunction,
    a: int,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f1 + l_a (f1 + f2) for bent f1, f2 with D_a(f1~ + f2~) = 0."""
    _check_domain(f1.n, "shift", a)
    conds = _bent_conditions(f1=f1, f2=f2)
    d1, d2 = dual(f1, spec), dual(f2, spec)
    sd = d1 ^ d2
    if derivative(sd, a).table != 0:
        raise SideConditionFailed("derivative-sum", f"D_a(f1~ + f2~) is nonzero (a={a:x})")
    conds.append(("derivative-sum", True))
    h = f1 ^ (_lin(f1.n, a, spec) & (f1 ^ f2))
    h_star = d1 ^ (sd & derivative(d1, a))
    return _finish(h, h_star, conds, {"a": a}, [], spec)


def zlj_build(
    f: BooleanFunction,
    mus: tuple[int, ...] | list[int],
    F: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + F(l_mu1, ..., l_mur) under vanishing pairwise second
    derivatives of the dual; companions are the dual's derivatives."""
    mus = _check_shape(F, f.n, mus, 0)
    conds = _bent_conditions(f=f)
    f_star = dual(f, spec)
    conds += _pairwise("second-derivative", mus, 1, _d2_nonzero(f_star))
    companions = [derivative(f_star, mu) for mu in mus]
    params = {"mus": mus, "F": F.table}
    return shifted_build(f, f_star, F, (), (), mus, companions, conds, params, spec)


def cornew_build(
    f: BooleanFunction,
    g: BooleanFunction,
    mus: tuple[int, ...] | list[int],
    F: BooleanFunction,
    spec: gf2n.FieldSpec | None = None,
) -> ConstructionReport:
    """h = f + F(f + g, l_mu2, ..., l_mur) for a second bent g whose dual
    shifts compatibly along the mu span.

    Condition (B) is checked literally: for every selector omega' over the
    mu tuple and every x,
      g~(x + sum omega_i mu_i) = g~(x) + sum omega_i f~(x + mu_i)
                                 [+ f~(x) when omega' has odd weight],
    at a cost of 2^(r-1) table comparisons with early exit.
    """
    mus = _check_shape(F, f.n, mus, 1)
    if g.n != f.n:
        raise ArityMismatch("f and g disagree on arity")
    conds = _bent_conditions(f=f, g=g)
    f_star, g_star = dual(f, spec), dual(g, spec)
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    shifted = [translate(f_star, mu) for mu in mus]
    for omega in range(1, 1 << len(mus)):
        s = 0
        rhs = g_star.table
        for i in range(len(mus)):
            if omega >> i & 1:
                s ^= mus[i]
                rhs ^= shifted[i].table
        if omega.bit_count() % 2:
            rhs ^= f_star.table
        lhs = translate(g_star, s).table
        if lhs != rhs:
            diff = lhs ^ rhs
            x = (diff & -diff).bit_length() - 1
            raise SideConditionFailed(
                "dual-shift", f"fails at omega'={omega:x}, x={x:x}", witness=(omega, x)
            )
    conds.append(("dual-shift", True))
    companions = [f_star ^ s for s in shifted]
    params = {"mus": mus, "F": F.table}
    return shifted_build(f, f_star, F, (f ^ g,), (f_star ^ g_star,), mus, companions, conds, params, spec)


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
    conds = _bent_conditions(f=f)
    conds += _alpha_complement(alpha, mus, spec)
    f_star = dual(f, spec)
    conds += _pairwise("second-derivative", mus, 2, _d2_nonzero(f_star))
    companions = [derivative(f_star, mu) for mu in mus]
    params = {"alpha": alpha, "mus": mus, "F": F.table}
    return shifted_build(
        f, f_star, F, (derivative(f, alpha),), (_lin(f.n, alpha, spec),), mus, companions, conds, params, spec
    )


def report_degrees(report: ConstructionReport) -> tuple[int, int]:
    """(degree of h, degree of h~); used by the CLI report writer."""
    return algebraic_degree(report.h), algebraic_degree(report.h_star)
