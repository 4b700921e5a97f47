"""Gold and Maiorana-MacFarland families with closed-form duals.

The oracle routes here avoid the closed forms: power-image enumeration
instead of order tests, spectral duals instead of linearized solves, and
cross-identities that reach the same table through two different
builders.
"""

import random

import pytest

from bentkit import gf2n
from bentkit.boolfun import (
    BooleanFunction,
    algebraic_degree,
    dual,
    is_bent,
    linear_form,
    translate,
)
from bentkit.errors import (
    ArityMismatch,
    NotBent,
    NotBentAdmissible,
    SideConditionFailed,
)
from bentkit.families import (
    GoldParams,
    MMParams,
    corn4t_build,
    cort_m_build,
    gold_bent_admissible,
    gold_build,
    gold_dual,
    gold_dual_build,
    gold_function,
    gold_in_S,
    mm_build,
    mm_dual,
    mm_dual_build,
    mm_function,
    parse_permutation_text,
    permutation_to_text,
    thfromgold_build,
    thmm_build,
)
from util import gold_power_image


def F_bits(n, bits):
    return BooleanFunction.from_bits(n, [int(c) for c in bits])


def const0(n):
    return F_bits(n, "0" * (1 << n))


# ---------------------------------------------------------------- Gold


def test_gold_function_pointwise(g64):
    p = GoldParams(g64, 0x2A, 1)
    f = gold_function(p)
    for x in range(64):
        v = gf2n.mul(0x2A, gf2n.power(x, 3, g64), g64)
        assert f(x) == gf2n.trace_abs(v, g64)
    assert gold_function(GoldParams(g64, 0, 1)).weight() == 0


def test_gold_in_S_matches_power_image(g16, g64, g256):
    for spec, t in ((g16, 1), (g64, 1), (g256, 2)):
        image = gold_power_image(spec, t)
        for lam in range(1 << spec.n):
            assert gold_in_S(GoldParams(spec, lam, t)) == (lam in image)


def test_gold_power_image_cap(g256):
    big = gf2n.make_field(13)
    with pytest.raises(ValueError):
        gold_power_image(big, 1)


def test_gold_bentness_biconditional(g16, g64):
    for spec, t in ((g16, 1), (g16, 2), ((g64), 1)):
        for lam in range(1 << spec.n):
            p = GoldParams(spec, lam, t)
            assert is_bent(gold_function(p)) == gold_bent_admissible(p)


def test_gold_odd_quotient_never_bent(g64):
    # t = 2 gives n/d = 3; no lam is admissible and none is bent
    for lam in (1, 2, 9, 63):
        p = GoldParams(g64, lam, 2)
        assert not gold_bent_admissible(p)
        assert not is_bent(gold_function(p))


def test_gold_dual_matches_spectral(g16, g64, g256):
    for spec, t in ((g16, 1), (g64, 1), (g64, 3)):
        for lam in range(1 << spec.n):
            p = GoldParams(spec, lam, t)
            if not gold_bent_admissible(p):
                continue
            assert gold_dual(p) == dual(gold_function(p), spec)
    rng = random.Random(40)
    admissible = [
        lam
        for lam in range(256)
        if gold_bent_admissible(GoldParams(g256, lam, 2))
    ]
    for lam in rng.sample(admissible, 12):
        p = GoldParams(g256, lam, 2)
        assert gold_dual(p) == dual(gold_function(p), g256)


def test_gold_dual_rejects_inadmissible(g64):
    with pytest.raises(NotBentAdmissible):
        gold_dual(GoldParams(g64, 1, 1))  # 1 is always a power value
    with pytest.raises(NotBentAdmissible):
        gold_dual(GoldParams(g64, 5, 2))  # odd n/d


def test_gold_build_reports(g64):
    p = GoldParams(g64, 0x2A, 1)
    rep = gold_build(p)
    assert rep.ok
    assert rep.h == gold_function(p) and rep.h_star == gold_dual(p)
    assert algebraic_degree(rep.h) == 2
    rev = gold_dual_build(p)
    assert rev.ok and rev.h == rep.h_star and rev.h_star == rep.h
    with pytest.raises(SideConditionFailed) as exc:
        gold_build(GoldParams(g64, 1, 1))
    assert "lambda in S" in str(exc.value)
    with pytest.raises(SideConditionFailed) as exc:
        gold_build(GoldParams(g64, 5, 2))
    assert exc.value.condition == "n-over-d-even"


def first_gold(spec, t):
    for lam in range(2, 1 << spec.n):
        p = GoldParams(spec, lam, t)
        if gold_bent_admissible(p):
            return p
    raise AssertionError("no admissible lam")


def valid_trace_pair(p):
    from bentkit.families import _gold_pair_condition

    n = p.spec.n
    for a in range(1, 1 << n):
        for b in range(a + 1, 1 << n):
            if not _gold_pair_condition(p, a, b):
                return a, b
    raise AssertionError("no compatible pair")


def orthogonal_alpha(spec, mus):
    for alpha in range(1, 1 << spec.n):
        if all(
            gf2n.trace_abs(gf2n.mul(alpha, mu, spec), spec) == 0 for mu in mus
        ):
            return alpha
    return 0


def test_thfromgold_zero_F_returns_the_seed_pair(g64):
    p = first_gold(g64, 1)
    rep = thfromgold_build(p, (), 0, const0(1))
    assert rep.ok
    assert rep.h == gold_dual(p)
    assert rep.h_star == gold_function(p)


def test_thfromgold_companion_is_the_derivative(g64):
    # F = projection to the mu slot: h picks up Tr(mu x) and the dual must
    # shift by the closed-form companion, which equals D_mu of the gold
    # function; so h~ is exactly the translate of the seed's dual
    p = first_gold(g64, 1)
    g = gold_function(p)
    for mu in (1, 9, 30):
        rep = thfromgold_build(p, (mu,), 0, F_bits(2, "0011"))
        assert rep.ok
        assert rep.h == gold_dual(p) ^ linear_form(g64, mu)
        assert rep.h_star == translate(g, mu)


def test_thfromgold_full_build(g64):
    p = first_gold(g64, 1)
    a, b = valid_trace_pair(p)
    alpha = orthogonal_alpha(g64, (a, b))
    rng = random.Random(41)
    for _ in range(5):
        F = F_bits(3, "".join(str(rng.randrange(2)) for _ in range(8)))
        rep = thfromgold_build(p, (a, b), alpha, F)
        assert rep.ok
        assert rep.h_star == dual(rep.h, g64)


def test_thfromgold_rejects_bad_tuples(g64):
    p = first_gold(g64, 1)
    from bentkit.families import _gold_pair_condition

    bad = next(
        (a, b)
        for a in range(1, 64)
        for b in range(a + 1, 64)
        if _gold_pair_condition(p, a, b)
    )
    with pytest.raises(SideConditionFailed) as exc:
        thfromgold_build(p, bad, 0, const0(3))
    assert exc.value.condition == "trace-condition[2,3]"
    a, b = valid_trace_pair(p)
    witness = next(
        alpha
        for alpha in range(1, 64)
        if gf2n.trace_abs(gf2n.mul(alpha, a, g64), g64)
    )
    with pytest.raises(SideConditionFailed) as exc:
        thfromgold_build(p, (a, b), witness, const0(3))
    assert exc.value.condition == "alpha-complement"


def test_thfromgold_arity_check(g64):
    p = first_gold(g64, 1)
    with pytest.raises(ArityMismatch):
        thfromgold_build(p, (1, 2), 0, const0(2))


# ------------------------------------------------------------- t = m


def test_cort_m_seed_matches_gold_route(g64):
    # Tr_m(theta N(x)) + 1 equals the t = m gold function + 1 whenever
    # theta = lam + lam^(2^m); two unrelated code paths, one table
    m = 3
    theta = gf2n.subfield_elements(m, g64)[1]  # the embedded 1
    rep = cort_m_build(g64, theta, (), 0, const0(1))
    assert rep.ok
    lam = next(
        lam
        for lam in range(64)
        if lam ^ gf2n.frobenius(lam, m, g64) == theta
    )
    one = BooleanFunction.const(6, 1)
    assert rep.h == gold_function(GoldParams(g64, lam, m)) ^ one
    assert rep.h_star == dual(rep.h, g64)
    assert rep.h(0) == 1  # the trailing constant


def test_cort_m_distinct_theta(g64):
    for theta in gf2n.subfield_elements(3, g64)[1:]:
        rep = cort_m_build(g64, theta, (), 0, const0(1))
        assert rep.ok


def test_cort_m_full_build(g64):
    theta = gf2n.subfield_elements(3, g64)[2]
    th_inv = gf2n.inverse(theta, g64)
    pair = next(
        (a, b)
        for a in range(1, 64)
        for b in range(a + 1, 64)
        if gf2n.trace_abs(
            gf2n.mul(th_inv, gf2n.mul(a, gf2n.frobenius(b, 3, g64), g64), g64), g64
        )
        == 0
    )
    alpha = orthogonal_alpha(g64, pair)
    rep = cort_m_build(g64, theta, pair, alpha, F_bits(3, "00010111"))
    assert rep.ok
    assert ("trace-condition[2,3]", True) in rep.side_conditions


def test_cort_m_rejects_theta_outside_subfield(g64):
    outside = next(
        v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64)
    )
    with pytest.raises(SideConditionFailed) as exc:
        cort_m_build(g64, outside, (), 0, const0(1))
    assert exc.value.condition == "theta-subfield"
    with pytest.raises(SideConditionFailed):
        cort_m_build(g64, 0, (), 0, const0(1))


# ------------------------------------------------------------- n = 4t


def test_corn4t_fixed_points_of_P(g256):
    # lam in the half field with lam + lam^(2^t) = 1 satisfies P(lam) = lam
    special = [
        lam
        for lam in gf2n.subfield_elements(4, g256)
        if lam ^ gf2n.frobenius(lam, 2, g256) == 1
    ]
    assert special  # the fixed-point set is nonempty
    for lam in special:
        rep = corn4t_build(g256, lam, (), 0, const0(1))
        assert rep.ok
        assert rep.params["p_lam"] == lam
        assert rep.h == rep.h_star  # the build is self dual here


def test_corn4t_zero_F_crosses_gold_dual(g256):
    # dual coefficient route vs linearized-equation route
    hits = 0
    for lam in range(1, 256):
        p = GoldParams(g256, lam, 2)
        if gold_in_S(p):
            continue
        rep = corn4t_build(g256, lam, (), 0, const0(1))
        assert rep.ok
        assert rep.h_star == gold_function(p)
        assert rep.h == gold_dual(p)
        assert rep.h == gold_function(GoldParams(g256, rep.params["p_lam"], 2))
        hits += 1
    assert hits == 204  # 51 power values minus zero stay excluded


def test_corn4t_denominator_vanishes_only_inside_S(g256):
    # explains why ZeroDenominator is defensive: every vanishing
    # denominator at n = 8 happens at a power value, which is rejected first
    for lam in range(256):
        z = gf2n.power(gf2n.mul(lam, lam, g256), 17, g256)
        den = z ^ gf2n.frobenius(z, 2, g256)
        if den == 0:
            assert gold_in_S(GoldParams(g256, lam, 2))


def test_corn4t_rejects_power_values(g256):
    with pytest.raises(SideConditionFailed) as exc:
        corn4t_build(g256, 1, (), 0, const0(1))
    assert exc.value.condition == "lambda-not-in-S"
    with pytest.raises(ValueError):
        corn4t_build(gf2n.make_field(6), 1, (), 0, const0(1))


def test_corn4t_full_build(g256):
    lam = next(
        lam for lam in range(2, 256) if not gold_in_S(GoldParams(g256, lam, 2))
    )
    p = GoldParams(g256, lam, 2)
    a, b = valid_trace_pair(p)
    alpha = orthogonal_alpha(g256, (a, b))
    rep = corn4t_build(g256, lam, (a, b), alpha, F_bits(3, "01101001"))
    assert rep.ok
    assert rep.h_star == dual(rep.h, g256)


# ---------------------------------------------- Maiorana-MacFarland


def test_mm_params_validation(g64, g256):
    g3 = const0(3)
    with pytest.raises(ValueError):
        MMParams(gf2n.make_field(5), 1, 0, 1, const0(2))  # odd degree
    with pytest.raises(ValueError):
        MMParams(g64, 2, 0, 7, g3)  # gcd(7, 7) > 1
    with pytest.raises(ValueError):
        MMParams(g64, 2, 0, (0, 1, 2, 3, 4, 5, 6, 6), g3)
    with pytest.raises(ValueError):
        MMParams(g64, 2, 0, 1, const0(2))  # g on the wrong arity
    assert MMParams(g64, 2, 0, 1, g3).m == 3


def test_mm_bentness_biconditional(g64):
    p0 = MMParams(g64, 0, 0, 1, const0(3))
    for lam in range(64):
        p = MMParams(g64, lam, 0, 1, const0(3))
        f = mm_function(p)
        assert is_bent(f) == (not gf2n.in_subfield(lam, 3, g64))


def test_mm_dual_matches_spectral(g16, g64):
    rng = random.Random(42)
    for spec in (g16, g64):
        m = spec.n // 2
        for _ in range(8):
            lam = rng.randrange(1 << spec.n)
            while gf2n.in_subfield(lam, m, spec):
                lam = rng.randrange(1 << spec.n)
            if rng.random() < 0.5:
                pi = rng.choice(
                    [k for k in range(1, 1 << m) if __import__("math").gcd(k, (1 << m) - 1) == 1]
                )
            else:
                tab = list(range(1 << m))
                rng.shuffle(tab)
                pi = tuple(tab)
            g_sub = BooleanFunction.from_bits(
                m, [rng.randrange(2) for _ in range(1 << m)]
            )
            p = MMParams(spec, lam, rng.randrange(3), pi, g_sub)
            assert mm_dual(p) == dual(mm_function(p), spec)


def test_mm_dual_is_omega_independent(g64):
    rng = random.Random(43)
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 1, 3, F_bits(3, "01100101"))
    omegas = [
        w for w in range(64) if w ^ gf2n.frobenius(w, 3, g64) == 1
    ]
    assert len(omegas) == 8  # a coset of the half field
    base = mm_dual(p)
    for w in omegas:
        assert mm_dual(p, omega=w) == base


def test_mm_dual_rejects_bad_omega_and_subfield_lam(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 0, 1, const0(3))
    with pytest.raises(ValueError):
        mm_dual(p, omega=0)
    sub_lam = gf2n.subfield_elements(3, g64)[2]
    with pytest.raises(NotBent):
        mm_dual(MMParams(g64, sub_lam, 0, 1, const0(3)))


def test_mm_power_map_equals_its_table(g64):
    # a pi table computed with plain GF(2^3) arithmetic on the indices must
    # match the exponent form applied to embedded elements; this pins the
    # index embedding as a field isomorphism
    small = gf2n.make_field(3)
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    tab = tuple(gf2n.power(i, 3, small) for i in range(8))
    p_pow = MMParams(g64, lam, 1, 3, F_bits(3, "00101100"))
    p_tab = MMParams(g64, lam, 1, tab, F_bits(3, "00101100"))
    assert mm_function(p_pow) == mm_function(p_tab)
    assert mm_dual(p_pow) == mm_dual(p_tab)


def test_mm_build_reports(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 0, 1, const0(3))
    rep = mm_build(p)
    assert rep.ok and rep.h == mm_function(p) and rep.h_star == mm_dual(p)
    rev = mm_dual_build(p)
    assert rev.ok and rev.h == rep.h_star and rev.h_star == rep.h
    sub_lam = gf2n.subfield_elements(3, g64)[2]
    with pytest.raises(SideConditionFailed) as exc:
        mm_build(MMParams(g64, sub_lam, 0, 1, const0(3)))
    assert exc.value.condition == "lambda-not-in-subfield"


def test_thmm_zero_F_returns_the_seed_pair(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 1, 5, F_bits(3, "10010110"))
    rep = thmm_build(p, (), 0, const0(1))
    assert rep.ok
    assert rep.h == mm_function(p) and rep.h_star == mm_dual(p)


def test_thmm_full_build(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 0, 3, F_bits(3, "01010011"))
    mus = gf2n.subfield_elements(3, g64)[1:3]
    alpha = orthogonal_alpha(g64, mus)
    rng = random.Random(44)
    for _ in range(5):
        F = F_bits(3, "".join(str(rng.randrange(2)) for _ in range(8)))
        rep = thmm_build(p, mus, alpha, F)
        assert rep.ok
        assert ("second-derivative[2,3]", True) in rep.side_conditions
        assert rep.h_star == dual(rep.h, g64)


def test_thmm_omega_choice_is_irrelevant(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 0, 1, const0(3))
    mus = gf2n.subfield_elements(3, g64)[1:2]
    alpha = orthogonal_alpha(g64, mus)
    omegas = [w for w in range(64) if w ^ gf2n.frobenius(w, 3, g64) == 1]
    base = thmm_build(p, mus, alpha, F_bits(2, "0110"))
    for w in omegas[:3]:
        rep = thmm_build(p, mus, alpha, F_bits(2, "0110"), omega=w)
        assert rep.h == base.h and rep.h_star == base.h_star


def test_thmm_rejects_bad_mus_and_alpha(g64):
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    p = MMParams(g64, lam, 0, 1, const0(3))
    outside = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    with pytest.raises(SideConditionFailed) as exc:
        thmm_build(p, (outside,), 0, const0(2))
    assert exc.value.condition == "mu-subfield[2]"
    with pytest.raises(SideConditionFailed) as exc:
        thmm_build(p, (0,), 0, const0(2))
    assert exc.value.condition == "mu-subfield[2]"
    mu = gf2n.subfield_elements(3, g64)[1]
    bad_alpha = next(
        a for a in range(1, 64) if gf2n.trace_abs(gf2n.mul(a, mu, g64), g64)
    )
    with pytest.raises(SideConditionFailed) as exc:
        thmm_build(p, (mu,), bad_alpha, const0(2))
    assert exc.value.condition == "alpha-complement"


# --------------------------------------------------- permutation text


def test_permutation_text_frozen_and_roundtrip():
    assert permutation_to_text(2, (0, 2, 3, 1)) == "m=2\n0 2 3 1\n"
    m, images = parse_permutation_text("m=2\n0 2 3 1\n")
    assert (m, images) == (2, (0, 2, 3, 1))
    rng = random.Random(45)
    tab = list(range(16))
    rng.shuffle(tab)
    assert parse_permutation_text(permutation_to_text(4, tab)) == (4, tuple(tab))


def test_permutation_text_rejects_malformed():
    with pytest.raises(ValueError):
        permutation_to_text(2, (0, 1, 2, 2))
    for bad in (
        "m=2\n0 1 2\n",  # wrong length
        "m=2\n0 1 2 4\n",  # not a permutation
        "n=2\n0 1 2 3\n",  # wrong header
        "m=two\n0 1 2 3\n",
        "m=2\n0 1 two 3\n",
        "m=0\n0\n",
        "m=2\n",
    ):
        with pytest.raises(ValueError):
            parse_permutation_text(bad)
