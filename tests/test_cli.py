"""Command-line surface: wire formats, report shape, exit codes.

Commands run in-process through main() with redirected streams, so the
tests stay independent of the pytest capture mode; one subprocess call
at the end proves the installed entry point works.
"""

import contextlib
import io
import subprocess
import sys

import pytest

from bentkit import gf2n
from bentkit.boolfun import dual, from_text, is_bent, to_text
from bentkit.cli import main
from bentkit.families import GoldParams, gold_function, permutation_to_text
from util import inner_product_fn, random_function

import random


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def report_lines(text):
    # key: value pairs with the timing line stripped
    return [ln for ln in text.splitlines() if not ln.startswith("elapsed-ms:")]


def write_fn(path, f):
    path.write_text(to_text(f))
    return str(path)


F6 = inner_product_fn(6)


def test_field_info_frozen():
    code, out, _ = run_cli(["field", "info", "--n", "8"])
    assert code == 0
    assert report_lines(out) == [
        "command: field info",
        "n: 8",
        "modulus: 11b",
        "modulus-poly: x^8 + x^4 + x^3 + x + 1",
        "default-modulus: 11b",
        "subfields: 1,2,4,8",
    ]


def test_field_info_rejects_reducible_modulus():
    code, _, err = run_cli(["field", "info", "--n", "9", "--modulus", "201"])
    assert code == 2
    assert err.startswith("error:")


def test_fn_bent_and_degree(tmp_path):
    path = write_fn(tmp_path / "f.tt", F6)
    code, out, _ = run_cli(["fn", "bent", "--in", path])
    assert code == 0 and "bent: true" in out
    code, out, _ = run_cli(["fn", "degree", "--in", path])
    assert code == 0 and "degree: 2" in out
    affine = write_fn(tmp_path / "a.tt", from_text("n=2\n6\n"))
    code, out, _ = run_cli(["fn", "bent", "--in", affine])
    assert code == 0 and "bent: false" in out


def test_fn_walsh_stream(tmp_path):
    path = write_fn(tmp_path / "f.tt", from_text("n=2\n1\n"))
    code, out, _ = run_cli(["fn", "walsh", "--in", path])
    assert code == 0
    assert out == "0 2\n1 2\n2 2\n3 -2\n"


def test_fn_dual_roundtrip(tmp_path):
    path = write_fn(tmp_path / "f.tt", F6)
    code, out, _ = run_cli(["fn", "dual", "--in", path])
    assert code == 0
    assert from_text(out) == dual(F6)
    dual_path = tmp_path / "d.tt"
    dual_path.write_text(out)
    code, out2, _ = run_cli(["fn", "dual", "--in", str(dual_path)])
    assert code == 0 and from_text(out2) == F6


def test_fn_dual_trace_pairing(tmp_path, g64):
    g = gold_function(GoldParams(g64, 0x2A, 1))
    path = write_fn(tmp_path / "g.tt", g)
    code, out, _ = run_cli(
        ["fn", "dual", "--in", path, "--pairing", "trace", "--modulus", "43"]
    )
    assert code == 0
    assert from_text(out) == dual(g, g64)


def test_fn_dual_rejects_non_bent(tmp_path):
    path = write_fn(tmp_path / "f.tt", from_text("n=2\n6\n"))
    code, _, err = run_cli(["fn", "dual", "--in", path])
    assert code == 3 and err.startswith("error:")


def test_fn_derivative_needs_mu(tmp_path):
    path = write_fn(tmp_path / "f.tt", F6)
    code, _, err = run_cli(["fn", "derivative", "--in", path])
    assert code == 2 and "mu" in err
    code, out, _ = run_cli(["fn", "derivative", "--in", path, "--mu", "9"])
    assert code == 0
    parsed = from_text(out)
    assert parsed(0) == F6(0) ^ F6(9)
    code, _, err = run_cli(["fn", "derivative", "--in", path, "--mu", "7f"])
    assert code == 2  # direction outside the domain


def test_fn_missing_and_malformed_files(tmp_path):
    code, _, err = run_cli(["fn", "bent", "--in", str(tmp_path / "nope.tt")])
    assert code == 2
    bad = tmp_path / "bad.tt"
    bad.write_text("n=2\nzz\n")
    code, _, err = run_cli(["fn", "bent", "--in", str(bad)])
    assert code == 2


def test_construct_gold_report_and_files(tmp_path, g64):
    out_h, out_d = str(tmp_path / "h.tt"), str(tmp_path / "d.tt")
    code, out, _ = run_cli(
        ["construct", "gold", "--n", "6", "--t", "1", "--lambda", "2a",
         "--out-h", out_h, "--out-dual", out_d]
    )
    assert code == 0
    lines = report_lines(out)
    assert "command: construct gold" in lines
    assert "condition[lambda-not-in-S]: pass" in lines
    assert "bent: true" in lines and "dual-matches: true" in lines
    assert "degree-h: 2" in lines
    p = GoldParams(g64, 0x2A, 1)
    assert from_text(open(out_h).read()) == gold_function(p)
    assert is_bent(from_text(open(out_d).read()))


def test_construct_gold_rejects_power_value(tmp_path):
    code, _, err = run_cli(
        ["construct", "gold", "--n", "6", "--t", "1", "--lambda", "1",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 4
    assert "lambda-not-in-S" in err


def test_construct_report_is_deterministic(tmp_path):
    argv = ["construct", "correduced", "--f", write_fn(tmp_path / "f.tt", F6),
            "--alpha", "6", "--mus", "1,6", "--F", "00000001",
            "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv)
    assert code1 == code2 == 0
    assert report_lines(out1) == report_lines(out2)
    assert "degree-h: 3" in report_lines(out1)


def test_construct_cor10_echoes_dual_coefficient(tmp_path, g256):
    special = next(
        lam
        for lam in gf2n.subfield_elements(4, g256)
        if lam ^ gf2n.frobenius(lam, 2, g256) == 1
    )
    code, out, _ = run_cli(
        ["construct", "cor10", "--n", "8", "--lambda", f"{special:x}",
         "--mus", "", "--alpha", "0", "--F", "00",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0
    assert f"p-lambda: {special:x}" in report_lines(out)
    # P fixes this lambda, so the build is self dual
    assert (tmp_path / "h.tt").read_text() == (tmp_path / "d.tt").read_text()


def test_construct_mm_with_pi_file(tmp_path, g64):
    rng = random.Random(60)
    tab = list(range(8))
    rng.shuffle(tab)
    pi_path = tmp_path / "pi.perm"
    pi_path.write_text(permutation_to_text(3, tab))
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    code, out, _ = run_cli(
        ["construct", "mm", "--n", "6", "--t", "1", "--lambda", f"{lam:x}",
         "--pi-file", str(pi_path), "--g-bits", "01100101",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0
    assert "bent: true" in out and "dual-matches: true" in out
    bad = tmp_path / "bad.perm"
    bad.write_text("m=3\n0 1 2 3 4 5 6 6\n")
    code, _, err = run_cli(
        ["construct", "mm", "--n", "6", "--t", "1", "--lambda", f"{lam:x}",
         "--pi-file", str(bad), "--g-bits", "01100101",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 2


def test_construct_mm_rejects_subfield_lambda(tmp_path, g64):
    sub = gf2n.subfield_elements(3, g64)[2]
    code, _, err = run_cli(
        ["construct", "mm", "--n", "6", "--t", "0", "--lambda", f"{sub:x}",
         "--g-bits", "00000000",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 4 and "lambda-not-in-subfield" in err


def test_construct_thm8_and_thm12(tmp_path, g64):
    code, out, _ = run_cli(
        ["construct", "thm8", "--n", "6", "--t", "1", "--lambda", "2a",
         "--mus", "1", "--alpha", "0", "--F", "0110",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0 and "bent: true" in out
    lam = next(v for v in range(2, 64) if not gf2n.in_subfield(v, 3, g64))
    mu = gf2n.subfield_elements(3, g64)[1]
    alpha = next(
        a for a in range(1, 64)
        if gf2n.trace_abs(gf2n.mul(a, mu, g64), g64) == 0
    )
    code, out, _ = run_cli(
        ["construct", "thm12", "--n", "6", "--t", "0", "--lambda", f"{lam:x}",
         "--g-bits", "00000000", "--mus", f"{mu:x}", "--alpha", f"{alpha:x}",
         "--F", "0110",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0 and "bent: true" in out


def test_construct_zlj_and_equivalence(tmp_path):
    f_path = write_fn(tmp_path / "f.tt", F6)
    code, out, _ = run_cli(
        ["construct", "zlj", "--f", f_path, "--mus", "1,6", "--F", "0001",
         "--out-h", str(tmp_path / "h1.tt"), "--out-dual", str(tmp_path / "d1.tt")]
    )
    assert code == 0 and "bent: true" in out
    # alpha = 0 zeroes the first slot, so lift F to ignore it
    code, out, _ = run_cli(
        ["construct", "correduced", "--f", f_path, "--alpha", "0",
         "--mus", "1,6", "--F", "00000011",
         "--out-h", str(tmp_path / "h2.tt"), "--out-dual", str(tmp_path / "d2.tt")]
    )
    assert code == 0
    assert (tmp_path / "h1.tt").read_text() == (tmp_path / "h2.tt").read_text()
    assert (tmp_path / "d1.tt").read_text() == (tmp_path / "d2.tt").read_text()


def test_construct_carlet_equals_mesnager1(tmp_path):
    from bentkit.boolfun import dot_form

    f_path = write_fn(tmp_path / "f.tt", F6)
    f2_path = write_fn(tmp_path / "f2.tt", F6 ^ dot_form(6, 1))
    f3_path = write_fn(tmp_path / "f3.tt", F6 ^ dot_form(6, 2))
    code, _, _ = run_cli(
        ["construct", "carlet", "--f1", f_path, "--f2", f2_path, "--f3", f3_path,
         "--out-h", str(tmp_path / "hc.tt"), "--out-dual", str(tmp_path / "dc.tt")]
    )
    assert code == 0
    code, _, _ = run_cli(
        ["construct", "mesnager1", "--f", f_path, "--a", "1", "--b", "2",
         "--out-h", str(tmp_path / "hm.tt"), "--out-dual", str(tmp_path / "dm.tt")]
    )
    assert code == 0
    assert (tmp_path / "hc.tt").read_text() == (tmp_path / "hm.tt").read_text()
    assert (tmp_path / "dc.tt").read_text() == (tmp_path / "dm.tt").read_text()


def test_construct_mesnager2_rejects_bad_shift(tmp_path):
    from bentkit.boolfun import dot_form

    f1 = write_fn(tmp_path / "f1.tt", F6)
    f2 = write_fn(tmp_path / "f2.tt", F6 ^ dot_form(6, 8))
    code, _, err = run_cli(
        ["construct", "mesnager2", "--f1", f1, "--f2", f2, "--a", "1",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 4 and "derivative-sum" in err


def test_construct_generic_certificate_flow(tmp_path):
    from bentkit.boolfun import BooleanFunction, dot_form

    f_path = write_fn(tmp_path / "f.tt", F6)
    p1 = write_fn(tmp_path / "p1.tt", dot_form(6, 1))
    p2 = write_fn(tmp_path / "p2.tt", dot_form(6, 6))
    code, out, _ = run_cli(
        ["construct", "generic", "--f", f_path, "--phi", p1, p2, "--F", "0110",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0
    assert "condition[certificate-holds]: pass" in out
    quart = BooleanFunction.from_bits(6, [int(x & 15 == 15) for x in range(64)])
    p_bad = write_fn(tmp_path / "pb.tt", quart)
    code, _, err = run_cli(
        ["construct", "generic", "--f", f_path, "--phi", p_bad, "--F", "01",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 4 and "omega" in err


def test_verify_pr_both_verdicts(tmp_path):
    from bentkit.boolfun import BooleanFunction, dot_form

    f_path = write_fn(tmp_path / "f.tt", F6)
    good = write_fn(tmp_path / "good.tt", dot_form(6, 1))
    code, out, _ = run_cli(["verify", "pr", "--f", f_path, "--phi", good])
    assert code == 0 and "holds: true" in out
    quart = write_fn(
        tmp_path / "q.tt",
        BooleanFunction.from_bits(6, [int(x & 15 == 15) for x in range(64)]),
    )
    code, out, _ = run_cli(["verify", "pr", "--f", f_path, "--phi", quart])
    assert code == 0  # a verdict is not an error
    assert "holds: false" in out
    assert "witness-omega: 1" in out


def test_search_mus_stream(tmp_path):
    d_path = write_fn(tmp_path / "d.tt", dual(F6))
    code, out, _ = run_cli(
        ["search", "mus", "--mode", "second-derivative", "--r", "2",
         "--limit", "5", "--f-star", d_path]
    )
    assert code == 0
    assert out.splitlines()[:2] == ["1,2", "1,3"]
    assert len(out.splitlines()) == 5
    code, out2, _ = run_cli(
        ["search", "mus", "--mode", "second-derivative", "--r", "2",
         "--limit", "5", "--f-star", d_path, "--cursor", "1,3"]
    )
    assert code == 0
    assert out2.splitlines()[0] not in out.splitlines()[:2]


def test_search_mus_gold_needs_params():
    code, _, err = run_cli(
        ["search", "mus", "--mode", "gold-trace", "--r", "2", "--limit", "3"]
    )
    assert code == 2


def test_search_lambdas_stream(g256):
    code, out, _ = run_cli(
        ["search", "lambdas", "--n", "8", "--t", "2", "--limit", "5"]
    )
    assert code == 0
    from bentkit.search import find_gold_lambdas

    want = [f"{v:x}" for v in find_gold_lambdas(g256, 2, 5)]
    assert out.splitlines() == want


def test_search_alphas_stream():
    code, out, _ = run_cli(["search", "alphas", "--mus", "1,6", "--n", "6", "--limit", "4"])
    assert code == 0
    assert len(out.splitlines()) == 4
    assert out.splitlines()[0] == "0"


def test_fingerprint_output(tmp_path):
    h = F6
    path = write_fn(tmp_path / "h.tt", h)
    code, out, _ = run_cli(["fingerprint", "--in", path])
    assert code == 0
    lines = report_lines(out)
    assert "degree: 2" in lines
    assert any(ln.startswith("derivative-degrees: ") for ln in lines)


@pytest.mark.parametrize("shape", ["gold", "mm"])
def test_construct_at_n20(tmp_path, monkeypatch, shape):
    monkeypatch.setenv("BENT_MAX_N", "20")
    code, out, _ = run_cli(
        ["construct", shape, "--n", "20", "--t", "1", "--lambda", "2",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0
    lines = report_lines(out)
    assert "n: 20" in lines
    assert "bent: true" in lines and "dual-matches: true" in lines


def test_degree_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BENT_MAX_N", "4")
    path = write_fn(tmp_path / "f.tt", F6)
    code, _, err = run_cli(["fn", "bent", "--in", path])
    assert code == 2
    monkeypatch.setenv("BENT_MAX_N", "64")  # hard cap still applies
    from bentkit.cli import max_degree_cap

    assert max_degree_cap() <= 24


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "bentkit", "field", "info", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "modulus: 13" in proc.stdout
