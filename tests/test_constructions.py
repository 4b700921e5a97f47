"""Secondary constructions: certificates, specialized builders, and the
identities that tie them together.

Validity claims are double-checked: each builder already verifies its
output spectrally, and the tests re-derive the expected tables by hand
where the collapse is forced (repeated inputs, zero correction terms).
"""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bentkit import constructions, gf2n
from bentkit.boolfun import (
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
from bentkit.constructions import (
    ConstructionReport,
    build_generic,
    carlet_build,
    check_property_pr,
    cornew_build,
    correduced_build,
    mesnager2_build,
    mesnager_build,
    report_degrees,
    zlj_build,
)
from bentkit.errors import ArityMismatch, CertificateInvalid, SideConditionFailed
from bentkit.families import (
    GoldParams,
    MMParams,
    corn4t_build,
    cort_m_build,
    gold_function,
    thfromgold_build,
    thmm_build,
)
from bentkit.search import MuSearchSpec, find_alphas, find_gold_lambdas, find_mu_tuples
from util import (
    carlet_closed_form,
    check_odd_sum_condition,
    check_property_pr_every_omega,
    d2_nonzero_unpacked,
    dual_shift_literal,
    from_trace_monomial,
    inner_product_fn,
    mesnager1_closed_form,
    mesnager2_closed_form,
    mm_bent_sharing_pi,
    random_function,
    random_mm_bent,
)

F6 = inner_product_fn(6)  # self dual, low half pairs all compatible
QUART = BooleanFunction.from_bits(6, [int(x & 15 == 15) for x in range(64)])


def lin(mu):
    return dot_form(6, mu)


def F_bits(n, bits):
    return BooleanFunction.from_bits(n, [int(c) for c in bits])


def test_certificate_weight_one_forces_dual_derivative():
    for mu in (1, 5, 7):
        cert = check_property_pr(F6, VectorialFunction(6, 1, (lin(mu),)))
        assert cert.holds
        assert cert.varphi.components[0] == derivative(dual(F6), mu)


def test_certificate_zero_and_constant_components():
    zero = BooleanFunction.from_bits(6, [0] * 64)
    one = BooleanFunction.from_bits(6, [1] * 64)
    for comp in (zero, one):
        cert = check_property_pr(F6, VectorialFunction(6, 1, (comp,)))
        assert cert.holds


def test_certificate_failure_carries_witness():
    assert not is_bent(F6 ^ QUART)  # the quartic correction destroys bentness
    cert = check_property_pr(F6, VectorialFunction(6, 1, (QUART,)))
    assert not cert.holds
    assert cert.witness_omega == 1
    assert cert.varphi is None


def test_certificate_joint_failure_beyond_weight_one():
    # each f + l_mu is bent with additive dual, but omega = 3 can fail;
    # mu pairs whose second derivative of the dual is nonzero do exactly that
    phi = VectorialFunction(6, 2, (lin(1), lin(8)))
    second = derivative(derivative(dual(F6), 1), 8)
    assert second.weight() != 0
    cert = check_property_pr(F6, phi)
    assert not cert.holds
    assert cert.witness_omega == 3


def test_certificate_agrees_with_odd_sum_rule():
    rng = random.Random(30)
    seen = {True: 0, False: 0}
    for _ in range(12):
        f = random_mm_bent(rng, 6)
        r = rng.choice((2, 3))
        mus = rng.sample(range(1, 64), r)
        phi = VectorialFunction(6, r, tuple(lin(m) for m in mus))
        gs = [f ^ lin(m) for m in mus]
        verdict = check_property_pr(f, phi).holds
        assert verdict == check_odd_sum_condition(f, gs)
        seen[verdict] += 1
    assert seen[False] > 0  # the sample must exercise both outcomes


def _certificate_kind(cert) -> str:
    if cert.holds:
        return "holds"
    omega = cert.witness_omega
    if omega == 0:
        return "f-not-bent"
    if omega & (omega - 1) == 0:
        return "g-not-bent"
    if cert.witness_x is None:
        return f"weight-{omega.bit_count()}-not-bent"
    return "dual-mismatch"


@pytest.mark.parametrize("pairing", ["dot", "trace"])
def test_certificate_matches_every_omega_oracle(pairing, g64):
    # f, the g_i = f + phi_i and the sums over omega of weight >= 2 each
    # fail somewhere in this sample; the one-pass checker must name the
    # same omega and x as the oracle that transforms every omega twice
    spec = g64 if pairing == "trace" else None
    rng = random.Random(41)
    kinds = set()
    for trial in range(60):
        f = random_function(rng, 6) if trial % 3 == 0 else F6
        comps = []
        for _ in range(rng.randint(1, 6)):
            c = rng.random()
            if c < 0.15:
                comps.append(random_function(rng, 6))
            elif c < 0.5:
                comps.append(lin(rng.randrange(64)))
            else:
                comps.append(f ^ random_mm_bent(rng, 6))
        phi = VectorialFunction.from_components(comps)
        cert = check_property_pr(f, phi, spec)
        expected = check_property_pr_every_omega(f, phi, spec)
        if cert.holds:
            assert cert.f_star == dual(f, spec)
            cert = dataclasses.replace(cert, f_star=None)
        assert cert == expected
        kinds.add(_certificate_kind(cert))
    assert {"holds", "f-not-bent", "g-not-bent", "weight-2-not-bent", "dual-mismatch"} <= kinds


@pytest.mark.parametrize("pairing", ["dot", "trace"])
def test_certificate_walk_keeps_the_oracle_witness_at_every_row(pairing, g64):
    # one failing pair planted at omega = 3 and at the last weight-two row
    # 2^(r-1) + 2^(r-2), every other component 0, so every lower row holds:
    # the walk reaches the pair's row one XOR at a time and must fail there
    spec = g64 if pairing == "trace" else None
    lin_ = (lambda mu: linear_form(spec, mu)) if spec else lin
    rng = random.Random(43)
    zero = BooleanFunction(6, 0)
    for f in (F6, random_mm_bent(rng, 6)):
        f_star = dual(f, spec)
        # f + l_a + l_b is bent with dual f~ + D_a f~ + D_b f~ + D_a D_b f~
        a, b = next((a, b) for a in range(64) for b in range(64) if derivative(derivative(f_star, a), b).table)
        second = derivative(derivative(f_star, a), b).table
        # f + (f + g) + (f + h) = f + g + h, with g and h bent
        g, h = random_mm_bent(rng, 6), random_mm_bent(rng, 6)
        while is_bent(f ^ g ^ h):
            h = random_mm_bent(rng, 6)
        for r in range(2, 7):
            for i in {0, r - 2}:
                for pair, kind in (((lin_(a), lin_(b)), "dual-mismatch"), ((f ^ g, f ^ h), "weight-2-not-bent")):
                    comps = [zero] * r
                    comps[i : i + 2] = pair
                    phi = VectorialFunction.from_components(comps)
                    cert = check_property_pr(f, phi, spec)
                    assert (cert.witness_omega, _certificate_kind(cert)) == (3 << i, kind)
                    if kind == "dual-mismatch":
                        assert cert.witness_x == (second & -second).bit_length() - 1
                    assert cert == check_property_pr_every_omega(f, phi, spec)


@pytest.mark.parametrize("pairing", ["dot", "trace"])
def test_certificate_makes_no_function_xor_after_its_weight_one_pass(pairing, g64, monkeypatch):
    # a holding certificate at n = 6, r = 8 (linear forms on the low half of
    # the inner product, a repeated one and 0 among them): one transform per
    # omega, and the walk steps on plain ints, so the only BooleanFunction
    # XORs are the weight-one pass's f + phi_i and f~ + (f + phi_i)~
    spec = g64 if pairing == "trace" else None
    r = 8
    phi = VectorialFunction(6, r, tuple(lin(mu) for mu in (1, 2, 4, 3, 5, 6, 7, 1)))
    events = []
    xor, bent_dual = BooleanFunction.__xor__, constructions.bent_dual

    def spy_xor(a, b):
        events.append("xor")
        return xor(a, b)

    def spy_bent_dual(g, spec=None):
        events.append("transform")
        return bent_dual(g, spec)

    monkeypatch.setattr(BooleanFunction, "__xor__", spy_xor)
    monkeypatch.setattr(constructions, "bent_dual", spy_bent_dual)
    assert check_property_pr(F6, phi, spec).holds
    transforms = [k for k, event in enumerate(events) if event == "transform"]
    assert len(transforms) == 1 << r
    assert events.count("xor") <= 2 * r
    # the walk starts at the (r + 2)-th transform, the first of weight two
    assert "xor" not in events[transforms[r + 1] :]


def _bent_seed(rng, n, spec, gold):
    """A Gold bent function of the field, or a random MM one."""
    if gold:
        t = rng.choice([t for t in range(1, n) if n // math.gcd(t, n) % 2 == 0] or [1])
        lams = find_gold_lambdas(spec, t, 1, rng.randrange(1 << n)) or find_gold_lambdas(spec, t, 1)
        return gold_function(GoldParams(spec, lams[0], t))
    return random_mm_bent(rng, n)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_affine_certificate_is_the_pairwise_second_derivative_law(data):
    # the source paper's characterization of P_r for phi_i = l_mu_i + c_i:
    # it holds iff every D_mu_i D_mu_j f~ vanishes, the companions being
    # D_mu_i f~ + c_i.  A failing omega of weight >= 3 contains a failing
    # pair, so the witness is the least failing 2^i + 2^j, at the lowest x
    # of that pair's second derivative
    n = data.draw(st.sampled_from([2, 4, 6, 8, 10]))
    field = gf2n.make_field(n)
    spec = data.draw(st.sampled_from([None, field]))
    f = _bent_seed(random.Random(data.draw(st.integers(0, 2**32))), n, field, data.draw(st.booleans()))
    mus, cs = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        mus.append(data.draw(st.integers(0, (1 << n) - 1) | st.sampled_from([0, *mus])))
        cs.append(data.draw(st.integers(0, 1)))
    lin_ = (lambda mu: linear_form(spec, mu)) if spec else (lambda mu: dot_form(n, mu))
    phi = VectorialFunction.from_components(lin_(mu) ^ BooleanFunction.const(n, c) for mu, c in zip(mus, cs))
    f_star = dual(f, spec)
    fails = sorted(
        (1 << i | 1 << j, second)
        for j in range(len(mus))
        for i in range(j)
        if (second := derivative(derivative(f_star, mus[i]), mus[j]).table)
    )
    cert = check_property_pr(f, phi, spec)
    assert cert.holds == (not fails)
    if cert.holds:
        assert cert.varphi.components == tuple(
            derivative(f_star, mu) ^ BooleanFunction.const(n, c) for mu, c in zip(mus, cs)
        )
    else:
        omega, second = fails[0]
        assert (cert.witness_omega, cert.witness_x) == (omega, (second & -second).bit_length() - 1)


def test_certificate_is_the_fiber_identity():
    # N_u(v), the sum of (-1)^(f(x) + <u, x>) over phi(x) = v, is 2^-r times
    # the sum over omega of (-1)^(omega.v) W_{f + omega.phi}(u): P_r holds iff
    # every N_u vanishes but at v = phi'(u), where it is (-1)^f~(u) 2^(n/2)
    rng = random.Random(47)
    seen = set()
    for trial in range(48):
        n = rng.choice([2, 4, 6, 8])
        field = gf2n.make_field(n)
        spec = rng.choice([None, field])
        f = inner_product_fn(n) if trial % 2 else _bent_seed(rng, n, field, rng.random() < 0.3)
        # low-half linear forms keep the inner product's certificate holding
        comps = []
        for _ in range(rng.randint(1, 4)):
            c = rng.random()
            if c < 0.6:
                comps.append(dot_form(n, rng.randrange(1 << n // 2)) ^ BooleanFunction.const(n, rng.randrange(2)))
            elif c < 0.8:
                comps.append(f ^ random_mm_bent(rng, n))
            else:
                comps.append(random_function(rng, n))
        phi = VectorialFunction.from_components(comps)
        xs = np.arange(1 << n)
        pairing = xs if spec is None else np.array([gf2n.covector(u, spec) for u in xs])
        signs = 1 - 2 * ((np.bitwise_count(pairing[:, None] & xs) ^ f.bits()) & 1).astype(np.int64)
        v = sum(c.bits().astype(np.int64) << i for i, c in enumerate(comps))
        fibers = signs @ (v[:, None] == np.arange(1 << phi.r))  # N[u, v]
        single = (np.count_nonzero(fibers, axis=1) == 1) & (np.abs(fibers).max(axis=1) == 1 << n // 2)
        cert = check_property_pr(f, phi, spec)
        assert cert.holds == single.all()
        if cert.holds:
            at = sum(c.bits().astype(np.int64) << i for i, c in enumerate(cert.varphi.components))
            assert (fibers[xs, at] == (1 - 2 * cert.f_star.bits().astype(np.int64)) << n // 2).all()
        seen.add(cert.holds)
    assert seen == {True, False}


def test_build_generic_identities():
    phi = VectorialFunction(6, 2, (lin(1), lin(6)))
    cert = check_property_pr(F6, phi)
    assert cert.holds
    rep0 = build_generic(F6, F_bits(2, "0000"), phi, cert)
    assert rep0.ok and rep0.h == F6 and rep0.h_star == dual(F6)
    rep1 = build_generic(F6, F_bits(2, "0101"), phi, cert)  # F = z1
    assert rep1.ok and rep1.h == F6 ^ lin(1)
    assert rep1.h_star == translate(dual(F6), 1)
    for bits in ("0001", "0110", "1001", "1111"):
        rep = build_generic(F6, F_bits(2, bits), phi, cert)
        assert rep.ok
        assert rep.h_star == dual(rep.h)


def test_build_generic_rejects_bad_certificate():
    bad = check_property_pr(F6, VectorialFunction(6, 1, (QUART,)))
    with pytest.raises(CertificateInvalid):
        build_generic(F6, F_bits(1, "01"), VectorialFunction(6, 1, (QUART,)), bad)
    phi = VectorialFunction(6, 1, (lin(1),))
    cert = check_property_pr(F6, phi)
    with pytest.raises(ArityMismatch, match=r"^F takes 2 inputs, phi supplies 1$"):
        build_generic(F6, F_bits(2, "0110"), phi, cert)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_build_generic_catches_a_certificate_of_another_seed(n):
    # f and g share pi, so phi = (l_{1<<m}, l_{3<<m}) on the pi half certifies
    # both, with the same companions; a certificate made for g gives h~ =
    # g~ + F(phi'), which misses dual(h) = f~ + F(phi') by f~ + g~, and the
    # spectral check, not the certificate, decides the verdict
    m = n // 2
    f, g = mm_bent_sharing_pi(random.Random(n), n, 2)
    assert f != g
    phi = VectorialFunction.from_components([dot_form(n, 1 << m), dot_form(n, 3 << m)])
    F = BooleanFunction(2, 0b1000)  # y1 y2
    assert build_generic(f, F, phi, check_property_pr(f, phi)).ok
    rep = build_generic(f, F, phi, check_property_pr(g, phi))
    assert rep.bent and not rep.dual_matches and not rep.ok


def test_carlet_collapse_rules():
    rng = random.Random(31)
    f1 = random_mm_bent(rng, 6)
    f2 = random_mm_bent(rng, 6)
    rep = carlet_build(f1, f2, f2)
    assert rep.ok and rep.h == f2  # majority with a repeated input
    rep = carlet_build(f1, f1, f1)
    assert rep.ok and rep.h == f1


def test_carlet_dual_is_majority_of_duals():
    a, b = 2, 5  # low half masks commute for the split inner product
    rep = carlet_build(F6, F6 ^ lin(a), F6 ^ lin(b))
    assert rep.ok
    d = dual(F6)
    da, db = translate(d, a), translate(d, b)
    maj = (d & da) ^ (d & db) ^ (da & db)
    assert rep.h_star == maj


def test_carlet_rejects_non_additive_duals():
    with pytest.raises(SideConditionFailed) as exc:
        carlet_build(F6, F6 ^ lin(1), F6 ^ lin(8))
    assert exc.value.condition == "dual-additive"
    with pytest.raises(SideConditionFailed) as exc:
        carlet_build(QUART, F6, F6)
    assert exc.value.condition == "f1-bent"


def test_mesnager_degenerate_and_valid_pairs():
    rep = mesnager_build(F6, 3, 3)
    assert rep.ok and rep.h == F6 ^ lin(3)  # a = b squares the linear factor
    assert rep.warnings == ["repeated element in the mu tuple"]
    rep = mesnager_build(F6, 0, 5)
    assert rep.ok and rep.h == F6 and rep.warnings == ["zero element among the mu tuple"]
    rep = mesnager_build(F6, 1, 6)
    assert rep.ok and rep.h == F6 ^ (lin(1) & lin(6))
    assert rep.h_star == dual(rep.h)
    assert rep.warnings == [] and rep.params == {"a": 1, "b": 6, "mus": (1, 6), "F": 8}


def test_mesnager_rejects_and_certifies_non_bent():
    with pytest.raises(SideConditionFailed) as exc:
        mesnager_build(F6, 1, 8)
    assert exc.value.condition == "second-derivative"
    assert not is_bent(F6 ^ (lin(1) & lin(8)))  # the rejection is honest


def test_carlet_matches_mesnager_on_linear_shifts():
    for a, b in ((1, 2), (3, 4), (2, 7)):
        r1 = carlet_build(F6, F6 ^ lin(a), F6 ^ lin(b))
        r2 = mesnager_build(F6, a, b)
        assert r1.ok and r2.ok
        assert r1.h == r2.h and r1.h_star == r2.h_star


def test_mesnager2_collapses():
    rng = random.Random(32)
    f1 = random_mm_bent(rng, 6)
    rep = mesnager2_build(f1, f1, 9)
    assert rep.ok and rep.h == f1  # f2 = f1 kills the correction
    assert rep.warnings == [] and rep.params == {"a": 9, "mus": (9,), "F": 8}
    f2 = random_mm_bent(rng, 6)
    rep = mesnager2_build(f1, f2, 0)
    assert rep.ok and rep.h == f1  # a = 0 kills the linear factor
    assert rep.warnings == ["zero element among the mu tuple"]


def test_mesnager2_reduces_to_two_linear_factors():
    for a, b in ((1, 2), (5, 7)):
        r1 = mesnager2_build(F6, F6 ^ lin(b), a)
        r2 = mesnager_build(F6, a, b)
        assert r1.ok and r2.ok
        assert r1.h == r2.h and r1.h_star == r2.h_star


def test_mesnager2_rejects_bad_shift():
    with pytest.raises(SideConditionFailed) as exc:
        mesnager2_build(F6, F6 ^ lin(8), 1)
    assert exc.value.condition == "derivative-sum"
    assert exc.value.witness == (1, 0)  # f1~ + f2~ = D_8 F6 = x_0
    # the witness x is the lowest point where D_a(f1~ + f2~) is 1
    f2 = random_mm_bent(random.Random(36), 6)
    sd = (dual(F6) ^ dual(f2)).bits()
    for a in range(64):
        ones = np.flatnonzero(sd ^ sd[np.arange(64) ^ a])
        if ones.size:
            with pytest.raises(SideConditionFailed) as exc:
                mesnager2_build(F6, f2, a)
            assert exc.value.witness == (a, int(ones[0]))


def test_zlj_r1_needs_no_conditions():
    rng = random.Random(33)
    f = random_mm_bent(rng, 6)
    for mu in (1, 44, 63):
        rep = zlj_build(f, (mu,), F_bits(1, "01"))
        assert rep.ok
        assert rep.h == f ^ lin(mu)
        assert rep.h_star == translate(dual(f), mu)


def test_zlj_conditions_and_warnings():
    rep = zlj_build(F6, (1, 2, 3), F_bits(3, "00000001"))
    assert rep.ok
    assert "linearly dependent mu tuple" in rep.warnings
    assert "second-derivative[1,2]" in rep.side_conditions
    with pytest.raises(SideConditionFailed) as exc:
        zlj_build(F6, (1, 8), F_bits(2, "0001"))
    assert exc.value.condition == "second-derivative[1,2]"
    rep = zlj_build(F6, (0, 1), F_bits(2, "0001"))
    assert rep.ok and "zero element among the mu tuple" in rep.warnings


def test_zlj_trace_pairing(g64):
    f = from_trace_monomial(g64, 0x2A, 3)
    for mu in (1, 7, 50):
        rep = zlj_build(f, (mu,), F_bits(1, "01"), spec=g64)
        assert rep.ok
        assert rep.h == f ^ linear_form(g64, mu)
        assert rep.h_star == translate(dual(f, g64), mu)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_seed_builders_dual_law(data):
    # h~ == dual(h) for zlj, correduced and mesnager1 over a drawn MM seed,
    # mus from the second-derivative search on its dual, alpha from
    # find_alphas and a drawn F, under both pairings
    n = data.draw(st.sampled_from([4, 6, 8]))
    spec = data.draw(st.sampled_from([None, gf2n.make_field(n)]))
    f = random_mm_bent(random.Random(data.draw(st.integers(0, 2**32))), n)
    r = data.draw(st.integers(1, 3))
    ms = MuSearchSpec("second-derivative", r, 64, data.draw(st.booleans()), f_star=dual(f, spec))
    tuples = find_mu_tuples(ms)
    assume(tuples)
    mus = data.draw(st.sampled_from(tuples))
    alpha = data.draw(st.sampled_from(find_alphas(mus, 1 << n, **({"spec": spec} if spec else {"n": n}))))
    F, F_head = (BooleanFunction(k, data.draw(st.integers(0, (1 << (1 << k)) - 1))) for k in (r, r + 1))
    for rep in (
        zlj_build(f, mus, F, spec),
        correduced_build(f, alpha, mus, F_head, spec),
        mesnager_build(f, mus[0], mus[-1], spec),
    ):
        assert rep.ok and rep.h_star == dual(rep.h, spec)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_remaining_builders_dual_law(data):
    # h~ == dual(h) for cornew, mesnager2, carlet and build_generic, under
    # both pairings: MM functions sharing pi, mus from the second-derivative
    # search on the first one's dual, alpha orthogonal to them
    n = data.draw(st.sampled_from([4, 6, 8]))
    spec = data.draw(st.sampled_from([None, gf2n.make_field(n)]))
    f, f2, f3 = mm_bent_sharing_pi(random.Random(data.draw(st.integers(0, 2**32))), n, 3)
    r = data.draw(st.integers(1, 3))
    tuples = find_mu_tuples(MuSearchSpec("second-derivative", r, 64, data.draw(st.booleans()), f_star=dual(f, spec)))
    assume(tuples)
    mus = data.draw(st.sampled_from(tuples))
    alpha = data.draw(st.sampled_from(find_alphas(mus, 1 << n, **({"spec": spec} if spec else {"n": n}))))
    # every a with D_a(f~ + f2~) = 0, by comparing the table with its shifts
    sd = (dual(f, spec) ^ dual(f2, spec)).bits()
    idx = np.arange(1 << n)
    a = data.draw(st.sampled_from([a for a in range(1 << n) if np.array_equal(sd, sd[idx ^ a])]))
    phi = VectorialFunction(n, r, tuple(linear_form(spec, mu) if spec else dot_form(n, mu) for mu in mus))
    F, F_head = (BooleanFunction(k, data.draw(st.integers(0, (1 << (1 << k)) - 1))) for k in (r, r + 1))
    for rep in (
        cornew_build(f, translate(f, alpha), mus, F_head, spec),
        mesnager2_build(f, f2, a, spec),
        carlet_build(f, f2, f3, spec),
        build_generic(f, F, phi, check_property_pr(f, phi, spec)),
    ):
        assert rep.ok and rep.h_star == dual(rep.h, spec)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_known_builders_are_generic_particular_cases(data):
    # the paper's particular cases at F = y1 y2 under both pairings: each
    # known builder, one shifted_build call, gives its closed form; the dual
    # halves of MM functions sharing pi are linear, so a and b always exist
    n = data.draw(st.sampled_from([4, 6, 8]))
    spec = data.draw(st.sampled_from([None, gf2n.make_field(n)]))
    f1, f2, f3 = mm_bent_sharing_pi(random.Random(data.draw(st.integers(0, 2**32))), n, 3)
    ms = MuSearchSpec("second-derivative", 2, 64, data.draw(st.booleans()), f_star=dual(f1, spec))
    a, b = data.draw(st.sampled_from(find_mu_tuples(ms)))
    sd = (dual(f1, spec) ^ dual(f2, spec)).bits()
    idx = np.arange(1 << n)
    c = data.draw(st.sampled_from([c for c in range(1 << n) if np.array_equal(sd, sd[idx ^ c])]))
    for rep, closed, params in (
        (carlet_build(f1, f2, f3, spec), carlet_closed_form(f1, f2, f3, spec), {"mus": (), "F": 8}),
        (mesnager_build(f1, a, b, spec), mesnager1_closed_form(f1, a, b, spec), {"a": a, "b": b, "mus": (a, b), "F": 8}),
        (mesnager2_build(f1, f2, c, spec), mesnager2_closed_form(f1, f2, c, spec), {"a": c, "mus": (c,), "F": 8}),
    ):
        assert rep.ok and (rep.h, rep.h_star) == closed
        assert rep.params == params and list(rep.params) == list(params)


def _shifted_family(data, family, n, spec):
    """A drawn admissible instance of one shifted-tuple family: (build, mus,
    head), build(F) calling the builder and head being the explicit (slot,
    companion) pair, () for none, or alpha for the head D_alpha f, l_alpha."""
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    r, indep, m = data.draw(st.integers(1, 3)), data.draw(st.booleans()), n // 2
    if family in ("zlj", "correduced"):
        f = random_mm_bent(rng, n)
        ms = MuSearchSpec("second-derivative", r, 64, indep, f_star=dual(f, spec))
    elif family == "cornew":
        # g shares f's pi, so f~ + g~ has the shifts along one half as periods
        f, g = mm_bent_sharing_pi(rng, n, 2)
        f_star, g_star = dual(f, spec), dual(g, spec)
        periods = [a for a in range(1, 1 << n) if not derivative(f_star ^ g_star, a).table]
        fails, mus = d2_nonzero_unpacked(f_star), []
        for _ in range(r):
            partners = [b for b in periods if b not in mus and not any(fails(a, b) for a in mus)]
            assume(partners)
            mus.append(data.draw(st.sampled_from(partners)))
        return (lambda F: cornew_build(f, g, mus, F, spec)), tuple(mus), (f ^ g, f_star ^ g_star)
    elif family in ("thm8", "cor10"):
        t = n // 4 if family == "cor10" else data.draw(
            st.sampled_from([s for s in range(1, n) if (n // math.gcd(s, n)) % 2 == 0])
        )
        lams = find_gold_lambdas(spec, t, 1, data.draw(st.integers(0, (1 << n) - 2)))
        assume(lams)
        ms = MuSearchSpec("gold-trace", r, 64, indep, gold=GoldParams(spec, lams[0], t))
    elif family == "cor9":
        theta = data.draw(st.sampled_from(gf2n.subfield_elements(m, spec)[1:]))
        ms = MuSearchSpec("cor9-trace", r, 64, indep, theta=theta, spec=spec)
    else:  # thm12: mus from the nonzero half field, where the conditions hold by themselves
        lam = data.draw(st.integers(1, (1 << n) - 1))
        assume(not gf2n.in_subfield(lam, m, spec))
        g = BooleanFunction(m, data.draw(st.integers(0, (1 << (1 << m)) - 1)))
        pi = tuple(data.draw(st.permutations(range(1 << m))))
        p = MMParams(spec, lam, data.draw(st.integers(0, n)), pi, g)
        half = gf2n.subfield_elements(m, spec)[1:]
        mus = tuple(sorted(data.draw(st.lists(st.sampled_from(half), min_size=1, max_size=r, unique=True))))
    if family != "thm12":
        tuples = find_mu_tuples(ms)
        assume(tuples)
        mus = data.draw(st.sampled_from(tuples))
    if family == "zlj":
        return (lambda F: zlj_build(f, mus, F, spec)), mus, ()
    alpha = data.draw(st.sampled_from(find_alphas(mus, 1 << n, **({"spec": spec} if spec else {"n": n}))))
    build = {
        "correduced": lambda F: correduced_build(f, alpha, mus, F, spec),
        "thm8": lambda F: thfromgold_build(ms.gold, mus, alpha, F),
        "cor10": lambda F: corn4t_build(spec, ms.gold.lam, mus, alpha, F),
        "cor9": lambda F: cort_m_build(spec, theta, mus, alpha, F),
        "thm12": lambda F: thmm_build(p, mus, alpha, F),
    }[family]
    return build, mus, alpha


@pytest.mark.parametrize(
    "family, n",
    [(family, n) for family in ("zlj", "correduced", "cornew", "thm8", "cor9", "cor10", "thm12")
     for n in (4, 6, 8, 10) if family != "cor10" or n % 4 == 0],
)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_shifted_families_are_certified_generic_instances(family, n, data):
    # the source paper's claim: every shifted-tuple family is an instance of
    # the generic construction h = f + F(phi), phi being the builder's slots.
    # The certificate derives every companion spectrally, so unlike the dual
    # laws it checks the slots the drawn F ignores too
    spec = gf2n.make_field(n)
    if family in ("zlj", "correduced", "cornew"):
        spec = data.draw(st.sampled_from([None, spec]))
    build, mus, head = _shifted_family(data, family, n, spec)
    k = len(mus) + (head != ())
    base = build(BooleanFunction(k, 0))  # F = 0 leaves the seed pair
    assert base.ok
    f, f_star = base.h, base.h_star
    lin = (lambda mu: linear_form(spec, mu)) if spec else (lambda mu: dot_form(n, mu))
    if not isinstance(head, tuple):
        head = (derivative(f, head), lin(head))
    phi = VectorialFunction(n, k, (*head[:1], *map(lin, mus)))
    cert = check_property_pr(f, phi, spec)
    assert cert.holds
    assert cert.varphi.components == (*head[1:], *(derivative(f_star, mu) for mu in mus))
    # the builder's own companions: F = z_i gives h~ = f~ + companion i
    assert tuple(build(dot_form(k, 1 << i)).h_star ^ f_star for i in range(k)) == cert.varphi.components
    F = BooleanFunction(k, data.draw(st.integers(0, (1 << (1 << k)) - 1)))
    rep, generic = build(F), build_generic(f, F, phi, cert)
    assert rep.ok and generic.ok
    assert (generic.h, generic.h_star) == (rep.h, rep.h_star)


def test_cornew_with_g_equal_f_matches_zlj():
    F = F_bits(3, "00010110")  # depends on all three slots
    rep = cornew_build(F6, F6, (1, 2), F)
    # slot one is f + g = 0, so only the restriction F(0, ., .) acts
    F0 = BooleanFunction.from_bits(2, [F(z << 1) for z in range(4)])
    ref = zlj_build(F6, (1, 2), F0)
    assert rep.ok and ref.ok
    assert rep.h == ref.h and rep.h_star == ref.h_star


def test_cornew_with_shifted_g_matches_correduced():
    alpha = 4  # orthogonal to both mu's under the dot pairing
    F = F_bits(3, "01101001")
    r1 = cornew_build(F6, translate(F6, alpha), (1, 2), F)
    r2 = correduced_build(F6, alpha, (1, 2), F)
    assert r1.ok and r2.ok
    assert r1.h == r2.h and r1.h_star == r2.h_star


def test_cornew_dual_shift_witness():
    g = random_mm_bent(random.Random(34), 6)
    assert g != F6
    with pytest.raises(SideConditionFailed) as exc:
        cornew_build(F6, g, (1, 2), F_bits(3, "00000001"))
    assert exc.value.condition == "dual-shift"
    omega, x = exc.value.witness
    assert omega >= 1 and 0 <= x < 64


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cornew_dual_shift_is_the_selector_loop(data):
    # given the pairwise condition, the r period checks D_mu_i(f~ + g~) = 0
    # pass exactly when every selector does, and fail with the same witness
    n = data.draw(st.sampled_from([4, 6, 8]))
    spec = data.draw(st.sampled_from([None, gf2n.make_field(n)]))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    kind = data.draw(st.sampled_from(["same-pi", "other-pi", "translate"]))
    if kind == "same-pi":
        f, g = mm_bent_sharing_pi(rng, n, 2)
    else:
        f = random_mm_bent(rng, n)
        g = random_mm_bent(rng, n) if kind == "other-pi" else translate(f, rng.randrange(1 << n))
    f_star, g_star = dual(f, spec), dual(g, spec)
    # each mu among the partners of the earlier ones: zero and repeats pass
    fails, mus = d2_nonzero_unpacked(f_star), []
    for _ in range(data.draw(st.integers(1, 3))):
        mus.append(data.draw(st.sampled_from([b for b in range(1 << n) if not any(fails(a, b) for a in mus)])))
    F = BooleanFunction(len(mus) + 1, data.draw(st.integers(0, (1 << (2 << len(mus))) - 1)))
    expected = dual_shift_literal(f_star, g_star, mus)
    if expected is None:
        assert cornew_build(f, g, mus, F, spec).ok
    else:
        with pytest.raises(SideConditionFailed) as exc:
            cornew_build(f, g, mus, F, spec)
        omega, x = expected
        assert exc.value.witness == expected
        assert str(exc.value) == f"dual-shift: fails at omega'={omega:x}, x={x:x}"


def test_correduced_alpha_zero_is_zlj_restriction():
    # duals of half-split bent functions tolerate shifts by the high half,
    # so mu tuples drawn from there satisfy the second-derivative clause
    rng = random.Random(35)
    for _ in range(3):
        f = random_mm_bent(rng, 6)
        F = random_function(rng, 3)
        rep = correduced_build(f, 0, (8, 16), F)
        F0 = BooleanFunction.from_bits(2, [F(z << 1) for z in range(4)])
        ref = zlj_build(f, (8, 16), F0)
        assert rep.ok and ref.ok
        assert rep.h == ref.h and rep.h_star == ref.h_star


def test_correduced_rejects_nonorthogonal_alpha():
    with pytest.raises(SideConditionFailed) as exc:
        correduced_build(F6, 1, (1, 2), F_bits(3, "00000001"))
    assert exc.value.condition == "alpha-complement"
    assert "mu_2" in str(exc.value)


def test_correduced_can_raise_degree():
    rep = correduced_build(F6, 6, (1, 6), F_bits(3, "00000001"))
    assert rep.ok
    assert algebraic_degree(F6) == 2
    assert algebraic_degree(rep.h) == 3


def test_degenerate_F_keeps_degree_two():
    # affine F only shifts by linear forms, so the degree stays at two
    for bits in ("0000", "1111", "0101", "0110"):
        rep = zlj_build(F6, (1, 2), F_bits(2, bits))
        assert rep.ok
        assert algebraic_degree(rep.h) <= 2


def test_report_surface():
    rep = zlj_build(F6, (1,), F_bits(1, "01"))
    assert report_degrees(rep) == (2, 2)
    assert rep.params["mus"] == (1,)
    broken = ConstructionReport(
        h=rep.h,
        h_star=rep.h_star,
        side_conditions=("f-bent",),
        params={},
        bent=False,
        dual_matches=True,
    )
    assert not broken.ok
