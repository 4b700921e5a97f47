"""Command-line surface: wire formats, report shape, exit codes.

Commands run in-process through main() with redirected streams, so the
tests stay independent of the pytest capture mode; one subprocess call
at the end proves the installed entry point works.
"""

import argparse
import contextlib
import errno
import hashlib
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bentkit import boolfun, gf2n
from bentkit.boolfun import (
    BooleanFunction,
    anf,
    dot_form,
    dual,
    from_text,
    is_bent,
    to_text,
    translate,
)
from bentkit.cli import _ARGS, _LEAVES, _hex, _hex_tuple, _parse, build_parser, main
from bentkit.families import GoldParams, gold_function
from util import (
    from_trace_monomial,
    inner_product_fn,
    malformed_table_texts,
    permutation_to_text,
    random_function,
    random_mm_bent,
)

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


@settings(max_examples=25, deadline=None)
@given(text=malformed_table_texts())
def test_fn_bent_rejects_malformed_tables(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "malformed.tt"
    path.write_text(text)
    code, out, err = run_cli(["fn", "bent", "--in", str(path)])
    assert code == 2 and not out and err.startswith("error:")


def test_fn_walsh_stream(tmp_path):
    path = write_fn(tmp_path / "f.tt", from_text("n=2\n1\n"))
    code, out, _ = run_cli(["fn", "walsh", "--in", path])
    assert code == 0
    assert out == "0 2\n1 2\n2 2\n3 -2\n"


def test_fn_anf_frozen(tmp_path):
    cases = {"f6": (F6, "x1x4 + x2x5 + x3x6"), "g3": (from_text("n=3\n6b\n"), "x1 + x2 + x3 + x2x3 + x1x2x3"),
             "zero": (BooleanFunction.const(2, 0), "0"), "one": (BooleanFunction.const(2, 1), "1")}
    for name, (f, expected) in cases.items():
        code, out, _ = run_cli(["fn", "anf", "--in", write_fn(tmp_path / f"{name}.tt", f)])
        assert (code, out) == (0, expected + "\n")


def test_fn_anf_lists_the_set_monomials_in_linear_time(tmp_path, monkeypatch):
    # the quadratic n = 20 Gold table: testing each of the 2^n monomials'
    # bits of the coefficient int would be quadratic in the table size
    monkeypatch.setenv("BENT_MAX_N", "20")
    f = gold_function(GoldParams(gf2n.make_field(20), 2, 1))
    path = write_fn(tmp_path / "g.tt", f)
    start = time.perf_counter()
    code, out, _ = run_cli(["fn", "anf", "--in", path])
    assert code == 0 and time.perf_counter() - start < 1.0
    terms = [[int(i) for i in t.split("x")[1:]] for t in out.strip().split(" + ")]
    bits = np.unpackbits(np.frombuffer(anf(f).coeffs.to_bytes(1 << 17, "little"), np.uint8), bitorder="little")
    assert [sum(1 << (i - 1) for i in t) for t in terms] == np.flatnonzero(bits).tolist()


@pytest.mark.slow
def test_fn_walsh_streams_its_lines(tmp_path, monkeypatch):
    # 11 MB of lines at n = 20 into a stream that keeps nothing: formatted
    # per block of 2^16 lines, they never exist in one string
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    monkeypatch.setenv("BENT_MAX_N", "20")
    path = write_fn(tmp_path / "f.tt", BooleanFunction(20, random.Random(20).getrandbits(1 << 20)))
    sink = Sink()
    boolfun._word_wht(), boolfun._WORKSPACE.buffers  # built once per process and thread
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["fn", "walsh", "--in", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.size > 11 * 10**6 and peak < 12 * 2**20, peak


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
    assert (code, err) == (2, "error: shift 0x7f outside the 6-variable domain\n")


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
    assert from_text(Path(out_h).read_text()) == gold_function(p)
    assert is_bent(from_text(Path(out_d).read_text()))


def test_construct_gold_rejects_power_value(tmp_path):
    code, _, err = run_cli(
        ["construct", "gold", "--n", "6", "--t", "1", "--lambda", "1",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 4
    assert "lambda-not-in-S" in err


def test_construct_gold_reduces_t_modulo_n(tmp_path):
    # x^(2^t + 1) = x^(2^(t mod n) + 1) on GF(2^n): a huge t writes the
    # tables of t mod n without an int of t bits
    def build(t):
        argv = ["construct", "gold", "--n", "8", "--lambda", "3", "--t", t,
                "--out-h", str(tmp_path / f"h{t}.tt"), "--out-dual", str(tmp_path / f"d{t}.tt")]
        return run_cli(argv)

    build("1")
    tracemalloc.start()
    try:
        code, out, _ = build("1000000001")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "t: 1000000001" in report_lines(out) and peak < 2**20, peak
    for side in "hd":
        assert (tmp_path / f"{side}1.tt").read_text() == (tmp_path / f"{side}1000000001.tt").read_text()


GOLD6 = ["construct", "gold", "--n", "6", "--t", "1", "--lambda", "2a"]


@pytest.mark.parametrize("fault", ["disk-full", "interrupt", "rename"])
def test_construct_failed_write_keeps_the_old_table(tmp_path, monkeypatch, fault):
    out_h, out_d = tmp_path / "h.tt", tmp_path / "d.tt"
    out_h.write_text("n=2\n1\n")
    real_write = Path.write_text

    def torn_write(self, text, *args, **kwargs):
        real_write(self, text[: len(text) // 2])  # half the table is on disk
        if fault == "interrupt":
            raise KeyboardInterrupt
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    def failed_replace(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link", str(src), str(dst))

    if fault == "rename":
        monkeypatch.setattr(os, "replace", failed_replace)
    else:
        monkeypatch.setattr(Path, "write_text", torn_write)
    argv = [*GOLD6, "--out-h", str(out_h), "--out-dual", str(out_d)]
    if fault == "interrupt":
        with pytest.raises(KeyboardInterrupt):
            run_cli(argv)
    else:
        code, _, err = run_cli(argv)
        assert code == 2 and err.endswith(f": '{out_h}'\n") and "[Errno" in err
    assert out_h.read_text() == "n=2\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.tt"]


def test_construct_unwritable_output_names_the_path(tmp_path):
    missing = tmp_path / "nonexistent" / "h.tt"
    code, out, err = run_cli([*GOLD6, "--out-h", str(missing), "--out-dual", str(tmp_path / "d.tt")])
    assert (code, out) == (2, "") and err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    code, out, err = run_cli([*GOLD6, "--out-h", str(tmp_path), "--out-dual", str(tmp_path / "d.tt")])
    assert (code, out) == (2, "") and err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "argv",
    [
        "thm8 --n 6 --t 1 --lambda 2a --mus 41 --alpha 0 --F 0110",
        "thm8 --n 6 --t 1 --lambda 2a --mus 1 --alpha 40 --F 0110",
        "cor9 --n 6 --theta e --mus 41 --alpha 0 --F 0110",
        "cor9 --n 6 --theta e --mus 1 --alpha 40 --F 0110",
        "cor10 --n 8 --lambda 3 --mus 1,141 --alpha 0 --F 00010111",
        "cor10 --n 8 --lambda 3 --mus 1 --alpha 100 --F 0110",
        "thm12 --n 6 --t 0 --lambda 2 --mus 41 --alpha 1 --F 0110",
        "thm12 --n 6 --t 0 --lambda 2 --mus 1 --alpha 40 --F 0110",
    ],
)
def test_construct_rejects_elements_outside_the_field(tmp_path, argv):
    # every mu and alpha is range-checked before any field arithmetic
    code, out, err = run_cli(
        ["construct", *argv.split(),
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    n = argv.split()[2]
    assert code == 2 and out == ""
    assert err.startswith("error: element 0x") and f"outside the {n}-variable domain" in err
    assert not (tmp_path / "h.tt").exists()


def test_construct_cor9_rejects_theta_outside_the_field(tmp_path):
    # range-checked like search mus --theta, before the half-field clause
    code, out, err = run_cli(
        ["construct", "cor9", "--n", "6", "--theta", "1ff", "--mus", "1", "--alpha", "0", "--F", "0110",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert (code, out, err) == (2, "", "error: theta 0x1ff outside the 6-variable domain\n")
    assert not (tmp_path / "h.tt").exists()


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


def test_construct_mesnager1_warns_on_a_repeated_shift(tmp_path):
    f_path = write_fn(tmp_path / "f.tt", F6)
    code, out, _ = run_cli(
        ["construct", "mesnager1", "--f", f_path, "--a", "3", "--b", "3",
         "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    lines = report_lines(out)
    assert code == 0 and "warning: repeated element in the mu tuple" in lines
    assert lines.index("condition[second-derivative]: pass") < lines.index("warning: repeated element in the mu tuple")


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
    assert "gold-trace mode needs --n and --lambda" in err


# lam = 1 and t = n/2 make the gold trace form vanish, so every pair passes
# and only the r cap stops the walk
_VANISHING_GOLD = ["search", "mus", "--mode", "gold-trace", "--n", "16", "--lambda", "1", "--t", "8"]


def test_search_mus_caps_r_at_the_r_of_phi_row():
    argv = [*_VANISHING_GOLD, "--allow-dependent", "--limit", "1"]
    assert run_cli([*argv, "--r", "1500"]) == (2, "", "error: r of phi must be in 1..16, got 1500\n")
    assert run_cli([*argv, "--r", "16"]) == (0, "1,2,3,4,5,6,7,8,9,a,b,c,d,e,f,10\n", "")


def test_search_mus_answers_every_r_with_a_result_or_exit_2(tmp_path):
    modes = {
        "second-derivative": ["--f-star", write_fn(tmp_path / "d.tt", dual(inner_product_fn(16)))],
        "gold-trace": _VANISHING_GOLD[4:],
        "cor9-trace": ["--n", "16", "--theta", "1"],
    }
    for mode, extra in modes.items():
        for r in (0, 1, 16, 17, 10**6):
            for dependent in ([], ["--allow-dependent"]):
                argv = ["search", "mus", "--mode", mode, "--r", str(r), "--limit", "1", *extra, *dependent]
                code, out, err = run_cli(argv)
                if 1 <= r <= 16:
                    assert code == 0 and err == ""
                else:
                    assert (code, out, err) == (2, "", f"error: r of phi must be in 1..16, got {r}\n")


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


def test_search_alphas_rejects_elements_outside_the_domain():
    for pairing in ("dot", "trace"):
        code, out, err = run_cli(["search", "alphas", "--mus", "1,41", "--n", "6", "--pairing", pairing])
        assert (code, out) == (2, "") and err.startswith("error: element 0x41 outside the")


@pytest.mark.parametrize(
    "argv",
    [["lambdas", "--n", "6", "--t", "1"], ["alphas", "--n", "6", "--mus", "1"],
     ["mus", "--mode", "gold-trace", "--n", "6", "--t", "1", "--lambda", "2a", "--r", "2"]],
)
def test_search_rejects_a_negative_limit(argv):
    assert run_cli(["search", *argv, "--limit", "-1"]) == (2, "", "error: limit must be non-negative\n")


@pytest.mark.parametrize("n, mus", [("0", "0"), ("-1", "1")])
def test_search_alphas_rejects_degree_below_one(n, mus):
    why = f"error: n must be in 1..24, got {n}\n"
    assert run_cli(["search", "alphas", "--n", n, "--mus", mus]) == (2, "", why)


@pytest.mark.parametrize(
    "theta, why",
    [("0", "theta=0 not in GF(2^3)*"), ("5", "theta=5 not in GF(2^3)*"),
     ("41", "theta 0x41 outside the 6-variable domain")],
)
def test_search_mus_cor9_rejects_theta_outside_the_half_field(theta, why):
    argv = ["search", "mus", "--mode", "cor9-trace", "--n", "6", "--r", "2", "--limit", "2", "--theta"]
    assert run_cli([*argv, theta]) == (2, "", f"error: {why}\n")
    code, out, _ = run_cli([*argv, "1"])
    assert code == 0 and len(out.splitlines()) == 2


def test_parser_is_built_once_and_survives_a_rejected_call():
    assert build_parser() is build_parser()
    code, custom, _ = run_cli(["field", "info", "--n", "8", "--modulus", "11d"])
    assert code == 0 and "modulus: 11d" in custom
    code, before, _ = run_cli(["field", "info", "--n", "8"])
    for bad in (["field", "info", "--n", "8", "--modulus", "zz"], ["construct", "gold", "--n", "8"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
    code, after, _ = run_cli(["field", "info", "--n", "8"])
    assert code == 0 and report_lines(after) == report_lines(before)
    assert "modulus: 11b" in after



@pytest.mark.parametrize(
    "case",
    ["search mus --mode gold-trace --n 6 --lambda 2a --r 2 --cursor=-5,3", "search lambdas --n 6 --t 1 --cursor=-5",
     "search alphas --n 6 --mus=-1"],
)
def test_hex_elements_are_non_negative_alone_and_in_tuples(case):
    record = leaf_record(case)
    assert record["code"] == 2 and "field elements are non-negative" in record["stderr"]


@pytest.mark.parametrize(
    "case, value",
    [("search mus --mode gold-trace --n 6 --lambda 2a --r 2 --cursor 99,3", "0x99"),
     ("search mus --mode gold-trace --n 6 --lambda 2a --r 2 --cursor 1,40", "0x40"),
     ("search lambdas --n 6 --t 1 --cursor 99", "0x99"), ("search lambdas --n 6 --t 1 --cursor 40", "0x40")],
)
def test_cursor_outside_the_domain_is_a_usage_error(case, value):
    record = leaf_record(case)
    assert record["code"] == 2 and record["stdout"] == []
    assert f"cursor {value} outside the 6-variable domain" in record["stderr"]


@pytest.mark.parametrize(
    "target, argv",
    [("bentkit.cli.ea_fingerprint", "fingerprint --in f.tt"), ("bentkit.gf2n.make_field", "field info --n 6"),
     ("bentkit.cli.from_text", "fn bent --in f.tt"), ("bentkit.cli.from_text", "fn degree --in f.tt"),
     ("bentkit.cli.from_text", "verify pr --f f.tt --phi p1.tt")],
)
def test_elapsed_ms_times_the_whole_command(tmp_path, monkeypatch, target, argv):
    module, name = target.rsplit(".", 1)
    slow = getattr(importlib.import_module(module), name)

    def sleep_then_call(*args, **kwargs):
        time.sleep(0.05)
        return slow(*args, **kwargs)

    monkeypatch.setattr(target, sleep_then_call)
    monkeypatch.chdir(tmp_path)
    write_fn(tmp_path / "f.tt", F6)
    write_fn(tmp_path / "p1.tt", dot_form(6, 1))
    code, out, _ = run_cli(argv.split())
    assert code == 0 and float(out.splitlines()[-1].removeprefix("elapsed-ms: ")) >= 50

def _lifted_plus_inner_product(seed: int) -> BooleanFunction:
    # a random function of x1..x5 plus the 10-variable inner product, so
    # its derivatives spread over several degrees
    low = random_function(random.Random(seed), 5)
    return BooleanFunction.from_bits(10, [low(x & 31) for x in range(1024)]) ^ inner_product_fn(10)


def test_fingerprint_output(tmp_path):
    # the expected lines were produced by the per-derivative fingerprint
    # the batched one replaced (ea_fingerprint_per_derivative in util)
    cases = [
        (F6, "degree: 2", "derivative-degrees: 0:1,1:63"),
        (random_function(random.Random(54), 10), "degree: 9", "derivative-degrees: 0:1,7:1,8:1022"),
        (_lifted_plus_inner_product(55), "degree: 4", "derivative-degrees: 0:1,1:31,2:32,3:960"),
    ]
    for h, degree, derivatives in cases:
        path = write_fn(tmp_path / "h.tt", h)
        code, out, err = run_cli(["fingerprint", "--in", path])
        assert (code, err) == (0, "")
        assert report_lines(out) == ["command: fingerprint", f"n: {h.n}", degree, derivatives]


def _search_first(argv):
    code, out, err = run_cli(["search", *argv])
    assert code == 0, err
    return out.split()[0]


def _n20_args(shape):
    # the shape's own flags at n = 20, mus and alpha taken from search
    base = ["--n", "20"]
    if shape in ("gold", "gold-dual"):
        return [*base, "--t", "1", "--lambda", "2"]
    if shape in ("mm", "mm-dual"):
        return [*base, "--t", "1", "--lambda", "2", "--pi-power", "7", "--g-bits", "01" * 512]
    if shape == "thm12":
        # mus from the half field GF(2^10), where the second derivatives vanish
        sub = gf2n.subfield_elements(10, gf2n.make_field(20))
        mus = f"{sub[1]:x},{sub[2]:x}"
        head = ["--t", "1", "--lambda", "2", "--pi-power", "7"]
    elif shape == "cor9":
        mus = _search_first(["mus", "--mode", "cor9-trace", "--n", "20", "--theta", "1", "--r", "2"])
        head = ["--theta", "1"]
    else:
        t = "1" if shape == "thm8" else "5"  # cor10 takes t = n/4
        lam = _search_first(["lambdas", "--n", "20", "--t", t, "--limit", "1"])
        mus = _search_first(["mus", "--mode", "gold-trace", "--n", "20", "--t", t, "--lambda", lam, "--r=2"])
        head = ["--t", t, "--lambda", lam] if shape == "thm8" else ["--lambda", lam]
    alphas = run_cli(["search", "alphas", "--n", "20", "--mus", mus, "--pairing", "trace", "--limit", "2"])[1]
    return [*base, *head, "--mus", mus, "--alpha", alphas.split()[1], "--F", "01101001"]


FIELD_SHAPES = ["gold", "mm", "gold-dual", "thm8", "cor9", "cor10", "mm-dual", "thm12"]


@pytest.mark.slow
@pytest.mark.parametrize("shape", FIELD_SHAPES)
def test_construct_at_n20(tmp_path, monkeypatch, shape):
    monkeypatch.setenv("BENT_MAX_N", "20")
    outs = ["--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    code, out, err = run_cli(["construct", shape, *_n20_args(shape), *outs])
    assert code == 0, err
    lines = report_lines(out)
    assert "n: 20" in lines
    assert "bent: true" in lines and "dual-matches: true" in lines


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["gold", "mm"])
def test_construct_at_n24(tmp_path, monkeypatch, shape):
    monkeypatch.setenv("BENT_MAX_N", "24")
    args = ["--n", "24", "--t", "1", "--lambda", "2"] + (["--g-bits", "0110" * 1024] if shape == "mm" else [])
    code, out, err = run_cli(
        ["construct", shape, *args, "--out-h", str(tmp_path / "h.tt"), "--out-dual", str(tmp_path / "d.tt")]
    )
    assert code == 0, err
    lines = report_lines(out)
    assert "n: 24" in lines
    assert "bent: true" in lines and "dual-matches: true" in lines
    h = from_text((tmp_path / "h.tt").read_text())
    assert h.n == 24 and dual(h, gf2n.make_field(24)) == from_text((tmp_path / "d.tt").read_text())


@pytest.mark.slow
def test_spectral_check_at_n24(tmp_path, monkeypatch):
    # y.pi(z) + g(z) on 12 + 12 bits, whose dual is g(pi^-1(y)) + z.pi^-1(y);
    # |W| = 2^12 and the butterfly's partial sums stay far inside int32
    monkeypatch.setenv("BENT_MAX_N", "24")
    rng = np.random.default_rng(24)
    half = np.arange(1 << 12, dtype=np.uint16)
    pi = rng.permutation(half)
    g = rng.integers(0, 2, half.size, dtype=np.uint8)
    inv = np.argsort(pi).astype(np.uint16)
    f = BooleanFunction.from_bits(24, ((np.bitwise_count(pi[:, None] & half) & 1) ^ g[:, None]).reshape(-1))
    f_star = BooleanFunction.from_bits(24, ((np.bitwise_count(half[:, None] & inv) & 1) ^ g[inv]).reshape(-1))
    path = write_fn(tmp_path / "f.tt", f)
    code, out, _ = run_cli(["fn", "bent", "--in", path])
    assert code == 0 and "bent: true" in report_lines(out)
    code, out, _ = run_cli(["fn", "dual", "--in", path])
    assert code == 0 and out == to_text(f_star)
    code, out, _ = run_cli(["fn", "dual", "--in", write_fn(tmp_path / "d.tt", f_star)])
    assert code == 0 and out == to_text(f)


def test_degree_cap_env(tmp_path, monkeypatch):
    from bentkit.cli import max_degree_cap

    # BENT_MAX_N -> the cap it sets, and the message one past it
    for env, cap, why in [
        (None, 16, "n under BENT_MAX_N must be in 1..16, got 17"),
        ("4", 4, "n under BENT_MAX_N must be in 1..4, got 5"),
        ("24", 24, "n must be in 1..24, got 25"),
        ("64", 24, "n must be in 1..24, got 25"),  # clamped to the library's row
        ("0", 1, "n under BENT_MAX_N must be in 1..1, got 2"),
    ]:
        if env is None:
            monkeypatch.delenv("BENT_MAX_N", raising=False)
        else:
            monkeypatch.setenv("BENT_MAX_N", env)
        assert max_degree_cap() == cap
        alphas = ["search", "alphas", "--mus", "1", "--limit", "1", "--n"]
        assert run_cli([*alphas, str(cap)]) == (0, "0\n", "")
        assert run_cli([*alphas, str(cap + 1)]) == (2, "", f"error: {why}\n")
        if cap < F6.n:  # a table file passes the same cap
            why = f"error: n under BENT_MAX_N must be in 1..{cap}, got 6\n"
            assert run_cli(["fn", "bent", "--in", write_fn(tmp_path / "f.tt", F6)]) == (2, "", why)
    monkeypatch.setenv("BENT_MAX_N", "abc")
    why = "error: BENT_MAX_N is not an integer: 'abc'\n"
    assert run_cli(["field", "info", "--n", "4"]) == (2, "", why)


def test_degree_zero_reads_the_same_everywhere(tmp_path):
    # a field, a dot-pairing search and a table file all check n against the library's row first
    (tmp_path / "zero.tt").write_text("n=0\n0\n")
    why = "error: n must be in 1..24, got 0\n"
    for argv in (["field", "info", "--n", "0"], ["search", "alphas", "--n", "0", "--mus", "0"],
                 ["fn", "bent", "--in", str(tmp_path / "zero.tt")]):
        assert run_cli(argv) == (2, "", why)


def test_console_script_entry(monkeypatch):
    # the child imports the package from this checkout's src, as pytest does,
    # and main() reads its argv from sys.argv, where a usage error reads as in process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("COLUMNS", "80")

    def child(case):
        return subprocess.run([sys.executable, "-m", "bentkit", *case.split()], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})

    proc = child("field info --n 4")
    assert proc.returncode == 0
    assert "modulus: 13" in proc.stdout
    proc, record = child("field info --n 4 --bogus"), leaf_record("field info --n 4 --bogus")
    assert record["code"] == proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == record["stderr"] != ""


# --------------------------------------------------------------- golden
#
# Every construct shape, passing and failing, pinned in full: the report
# lines (minus elapsed-ms), the exit code, stderr (whose first token after
# "error:" names the failed condition) and a hash of each written table.
# Seed files are written into the working directory, so reports echo
# stable relative paths.  Regenerate with `python tests/test_cli.py` only
# when a report change is intended.

GOLDEN_PATH = Path(__file__).with_name("construct_golden.json")

GOLDEN_CASES = [
    "gold --n 6 --t 1 --lambda 2a",
    "gold --n 8 --t 2 --lambda 6 --modulus 11d",
    "gold --n 6 --t 1 --lambda 1",
    "gold --n 6 --t 2 --lambda 2a",
    "gold-dual --n 6 --t 1 --lambda 2a",
    "gold-dual --n 6 --t 1 --lambda 1",
    "thm8 --n 6 --t 1 --lambda 2a --mus 1 --alpha 0 --F 0110",
    "thm8 --n 6 --t 1 --lambda 2a --mus 1,4 --alpha 2 --F 00010111",
    "thm8 --n 6 --t 1 --lambda 2a --mus 1,2 --alpha 0 --F 00010111",
    "thm8 --n 6 --t 1 --lambda 2a --mus 1,4 --alpha 8 --F 00010111",
    "thm8 --n 6 --t 1 --lambda 1 --mus 1 --alpha 0 --F 0110",
    "cor9 --n 6 --theta e --mus 1,4 --alpha 1 --F 00010111",
    "cor9 --n 6 --theta 2 --mus 1 --alpha 0 --F 0110",
    "cor9 --n 6 --theta e --mus 1,2 --alpha 0 --F 00010111",
    "cor9 --n 6 --theta e --mus 1,4 --alpha 20 --F 00010111",
    "cor9 --n 5 --theta 1 --mus 1 --alpha 0 --F 0110",
    "cor10 --n 8 --lambda 5c --mus '' --alpha 0 --F 00",
    "cor10 --n 8 --lambda 3 --mus 1,6 --alpha 1 --F 00010111",
    "cor10 --n 8 --lambda 1 --mus 1 --alpha 0 --F 0110",
    "cor10 --n 6 --lambda 3 --mus 1 --alpha 0 --F 0110",
    "mm --n 6 --t 1 --lambda 2",
    "mm --n 6 --t 1 --lambda 2 --pi-file pi.perm --g-bits 01100101",
    "mm --n 6 --t 2 --lambda 3 --pi-power 3 --g-file g3.tt --omega 23",
    "mm --n 6 --t 1 --lambda e",
    "mm --n 6 --t 1 --lambda 2 --omega 1",
    "mm-dual --n 6 --t 1 --lambda 2 --g-bits 01100101",
    "mm-dual --n 6 --t 1 --lambda e",
    "thm12 --n 6 --t 0 --lambda 2 --g-bits 00000000 --mus 1 --alpha 1 --F 0110",
    "thm12 --n 6 --t 1 --lambda 2 --pi-file pi.perm --mus 1,e --alpha c --F 00010111",
    "thm12 --n 6 --t 0 --lambda 2 --mus 2 --alpha 0 --F 0110",
    "thm12 --n 6 --t 0 --lambda 2 --mus 1 --alpha 20 --F 0110",
    "thm12 --n 6 --t 0 --lambda e --mus 1 --alpha 1 --F 0110",
    "zlj --f f.tt --mus 1,6 --F 0001",
    "zlj --f gold.tt --mus 7 --F 01 --pairing trace",
    "zlj --f gold.tt --mus 7 --F 01 --pairing trace --modulus 5b",
    "zlj --f f.tt --mus 1,8 --F 0001",
    "zlj --f quart.tt --mus 1 --F 01",
    "zlj --f missing.tt --mus 1 --F 01",
    "cornew --f f.tt --g f.tt --mus 1,2 --F 00010110",
    "cornew --f f.tt --g f_t4.tt --mus 1,2 --F 01101001",
    "cornew --f f.tt --g mm34.tt --mus 1,2 --F 00000001",
    "cornew --f f.tt --g quart.tt --mus 1 --F 0110",
    "cornew --f f.tt --g f.tt --mus 1,8 --F 00010110",
    "correduced --f f.tt --alpha 6 --mus 1,6 --F 00000001",
    "correduced --f f.tt --alpha 0 --mus 1,6 --F 00000011 --pairing trace",
    "correduced --f f.tt --alpha 1 --mus 1,2 --F 00000001",
    "correduced --f f.tt --alpha 0 --mus 1,8 --F 00000001",
    "carlet --f1 f.tt --f2 f_d1.tt --f3 f_d2.tt",
    "carlet --f1 f.tt --f2 f_d1.tt --f3 f_d2.tt --pairing trace",
    "carlet --f1 quart.tt --f2 f_d1.tt --f3 f_d2.tt",
    "carlet --f1 f.tt --f2 f.tt --f3 mm34.tt",
    "mesnager1 --f f.tt --a 1 --b 2",
    "mesnager1 --f gold.tt --a 1 --b 2 --pairing trace",
    "mesnager1 --f f.tt --a 1 --b 8",
    "mesnager2 --f1 f.tt --f2 f_d2.tt --a 1",
    "mesnager2 --f1 f.tt --f2 f_d8.tt --a 1",
    "generic --f f.tt --phi p1.tt p6.tt --F 0110",
    "generic --f f.tt --phi p1.tt p6.tt --F 0110 --pairing trace",
    "generic --f f.tt --phi quart.tt --F 01",
    "generic --f f.tt --phi p1.tt --F 0110",
]


def write_golden_seeds(workdir: Path) -> None:
    fns = {
        "f.tt": F6,
        "f_d1.tt": F6 ^ dot_form(6, 1),
        "f_d2.tt": F6 ^ dot_form(6, 2),
        "f_d8.tt": F6 ^ dot_form(6, 8),
        "f_t4.tt": translate(F6, 4),
        "mm34.tt": random_mm_bent(random.Random(34), 6),
        "quart.tt": BooleanFunction.from_bits(6, [int(x & 15 == 15) for x in range(64)]),
        "p1.tt": dot_form(6, 1),
        "p6.tt": dot_form(6, 6),
        "gold.tt": from_trace_monomial(gf2n.make_field(6), 0x2A, 3),
        "g3.tt": from_text("n=3\n6b\n"),
    }
    for name, f in fns.items():
        write_fn(workdir / name, f)
    (workdir / "pi.perm").write_text(permutation_to_text(3, [3, 6, 0, 5, 1, 7, 2, 4]))


def golden_record(case: str) -> dict:
    outs = [Path("h.tt"), Path("d.tt")]
    for p in outs:
        p.unlink(missing_ok=True)
    code, out, err = run_cli(["construct", *shlex.split(case), "--out-h", "h.tt", "--out-dual", "d.tt"])
    tables = [hashlib.sha256(p.read_bytes()).hexdigest()[:16] if p.exists() else None for p in outs]
    return {"code": code, "report": report_lines(out), "stderr": err, "tables": tables}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    write_golden_seeds(workdir)
    return workdir


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_construct_golden(case, golden, golden_dir, monkeypatch):
    monkeypatch.chdir(golden_dir)
    assert golden_record(case) == golden[case]


def test_golden_passes_and_fails_every_shape(golden):
    shapes = {case.split()[0] for case in GOLDEN_CASES}
    assert len(shapes) == 15 and set(golden) == set(GOLDEN_CASES)
    for shape in shapes:
        codes = {rec["code"] for case, rec in golden.items() if case.split()[0] == shape}
        assert 0 in codes and codes - {0}, shape


# ---------------------------------------------------------- leaf golden
#
# Every other leaf, with its error paths, pinned the same way: exit code
# (argparse's SystemExit included), report lines minus elapsed-ms, or a
# hash of a longer stream, and stderr; plus the usage line of every leaf.
# COLUMNS is fixed, since argparse wraps usage to the terminal width.

LEAF_GOLDEN_PATH = Path(__file__).with_name("leaf_golden.json")

_MUS_SD = "search mus --mode second-derivative --r 2 --f-star fstar.tt"
_MUS_GOLD = "search mus --mode gold-trace --n 6 --lambda 2a --r 2"
_MUS_COR9 = "search mus --mode cor9-trace --n 6 --theta 1 --r 2"
LEAF_CASES = [
    "field info --n 8",
    "field info --n 8 --modulus 11d",
    "field info --n 9 --modulus 201",
    "field info --n 0",
    "field info --n 17",
    "field info",
    "field info --n 8 --modulus zz",
    "field info --n 8 --modulus=-3",
    *(f"fn {op} --in {table}{extra}"
      for op, mu in [("walsh", ""), ("bent", ""), ("dual", ""), ("degree", ""), ("anf", ""), ("derivative", " --mu 9")]
      for table, extra in [("f.tt", mu), ("gold.tt", mu + " --pairing trace"), ("gold.tt", mu + " --pairing trace --modulus 5b")]),
    "fn bent --in quart.tt",
    "fn dual --in quart.tt",
    "fn derivative --in f.tt",
    "fn derivative --in f.tt --mu 7f",
    "fn bent --in missing.tt",
    "fn bent --in f.tt --pairing trace --modulus 201",
    "fn walsh --in f.tt --mu zz",
    "fn bogus --in f.tt",
    "fn bent",
    f"{_MUS_SD} --limit 5",
    f"{_MUS_SD} --limit 5 --cursor 1,3",
    f"{_MUS_SD} --limit 5 --allow-dependent",
    f"{_MUS_SD} --cursor 1",
    f"{_MUS_SD} --cursor 1,2,3",
    f"{_MUS_SD} --cursor zz",
    f"{_MUS_SD} --limit -1",
    "search mus --mode second-derivative --r 2",
    "search mus --mode second-derivative --r 0 --f-star fstar.tt",
    "search mus --mode second-derivative --r 17 --f-star fstar.tt",
    f"{_MUS_GOLD} --limit 4",
    f"{_MUS_GOLD} --limit 4 --t 2 --modulus 5b",
    f"{_MUS_GOLD} --limit 4 --cursor 1,2",
    f"{_MUS_GOLD} --cursor 1",
    f"{_MUS_GOLD} --limit -1",
    "search mus --mode gold-trace --r 2",
    "search mus --mode gold-trace --n 6 --r 2",
    "search mus --mode gold-trace --n 6 --lambda 2a --r 0",
    f"{_MUS_COR9} --limit 3",
    f"{_MUS_COR9} --cursor 1",
    "search mus --mode cor9-trace --n 6 --r 2",
    "search mus --mode cor9-trace --n 6 --theta 0 --r 2",
    "search mus --mode cor9-trace --n 6 --theta 1 --r 0",
    "search mus --mode bogus --r 2",
    "search mus --r 2",
    "search mus --mode gold-trace",
    "search alphas --mus 1,6 --n 6 --limit 4",
    "search alphas --mus 1,6 --n 6 --limit 4 --pairing trace",
    "search alphas --mus 1,6 --n 6 --limit 4 --pairing trace --modulus 5b",
    "search alphas --mus 1,41 --n 6",
    "search alphas --mus 0 --n 0",
    "search alphas --mus 1 --n 6 --limit -1",
    "search alphas --mus zz --n 6",
    "search alphas --mus 1,zz --n 6",
    "search alphas --mus 1",
    "search lambdas --n 8 --t 2 --limit 5",
    "search lambdas --n 8 --t 2 --limit 5 --cursor 2",
    "search lambdas --n 8 --t 2 --limit 5 --modulus 11d",
    "search lambdas --n 8 --t 2 --cursor 1,2",
    "search lambdas --n 8 --t 2 --cursor zz",
    "search lambdas --n 8 --t 2 --limit -1",
    "search lambdas --n 8",
    "search lambdas --n 0 --t 1",
    "verify pr --f f.tt --phi p1.tt p6.tt",
    "verify pr --f gold.tt --phi p1.tt --pairing trace",
    "verify pr --f gold.tt --phi p1.tt --pairing trace --modulus 5b",
    "verify pr --f f.tt --phi p1.tt p8.tt",
    "verify pr --f quart.tt --phi p1.tt",
    "verify pr --f f.tt --phi quart.tt",
    "verify pr --f f.tt --phi p4.tt",
    "verify pr --f f.tt --phi p1.tt p4.tt",
    "verify pr --f f.tt --phi missing.tt",
    "verify pr --f missing.tt --phi p1.tt",
    "verify pr --f f.tt --phi p1.tt --pairing trace --modulus 201",
    "verify pr --f f.tt",
    "verify pr --f f.tt --phi p1.tt --pairing bogus",
    "fingerprint --in f.tt",
    "fingerprint --in fp10.tt",
    "fingerprint --in quart.tt",
    "fingerprint --in missing.tt",
    "fingerprint",
]


def write_leaf_seeds(workdir: Path) -> None:
    write_golden_seeds(workdir)
    for name, f in {"fstar.tt": dual(F6), "p8.tt": dot_form(6, 8), "p4.tt": dot_form(4, 1),
                    "fp10.tt": _lifted_plus_inner_product(55)}.items():
        write_fn(workdir / name, f)


def leaf_record(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(shlex.split(case))
        except SystemExit as exc:
            code = exc.code
    text = out.getvalue()
    stdout = report_lines(text) if len(text) <= 300 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]
    return {"code": code, "stdout": stdout, "stderr": err.getvalue()}


def leaf_usages() -> dict:
    # the usage line of every leaf parser, by its prog
    usages, todo = {}, [build_parser()]
    while todo:
        parser = todo.pop(0)
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if subs:
            todo.extend(subs[0].choices.values())
        else:
            usages[parser.prog] = parser.format_usage()
    return usages


@pytest.fixture(scope="module")
def leaf_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("leaf_golden")
    write_leaf_seeds(workdir)
    return workdir


@pytest.fixture(scope="module")
def leaf_golden():
    return json.loads(LEAF_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", LEAF_CASES)
def test_leaf_golden(case, leaf_golden, leaf_dir, monkeypatch):
    monkeypatch.chdir(leaf_dir)
    monkeypatch.setenv("COLUMNS", "80")
    assert leaf_record(case) == leaf_golden["cases"][case]


def test_leaf_usage_lines(leaf_golden, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usages = leaf_usages()
    assert len(usages) == 22 and set(leaf_golden["cases"]) == set(LEAF_CASES)
    assert usages == leaf_golden["usage"]


_TOP_USAGE = "usage: bentkit [-h] {field,fn,construct,search,verify,fingerprint} ...\n"


@pytest.mark.parametrize(
    "case, stderr",
    [(f"{_MUS_GOLD} --bogus", f"{_TOP_USAGE}bentkit: error: unrecognized arguments: --bogus\n"),
     ("fingerprint --in F stray", f"{_TOP_USAGE}bentkit: error: unrecognized arguments: stray\n"),
     ("fn bent --in F x y", f"{_TOP_USAGE}bentkit: error: unrecognized arguments: x y\n"),
     ("fingerprint stray", "usage: bentkit fingerprint [-h] --in FILE\n"
                           "bentkit fingerprint: error: the following arguments are required: --in\n")],
)
def test_leftover_arguments_are_reported_by_the_top_level_parser(case, stderr, monkeypatch):
    # only once the leaf has parsed, so its own errors, a missing flag among them, come first
    monkeypatch.setenv("COLUMNS", "80")
    assert leaf_record(case) == {"code": 2, "stdout": [], "stderr": stderr}


# --------------------------------------------------------- dispatch law
#
# main parses an argv that names a leaf with that leaf's parser alone; an
# argv that names none goes through the tree.  Either way the result must
# be what the tree gives: the same Namespace, or the same exit, stdout and
# stderr.

_NO_LEAF = [[], ["-h"], ["--help"], ["field"], ["construct"], ["search"], ["verify"], ["serch", "mus"],
            ["search", "mu"], ["construct", "nope"], ["search mus"], ["--", "fn"], ["-h", "fingerprint"], ["FN"]]
_BAD_VALUES = ["zz", "-1", "", "1,zz", "=", "--bogus"]
_NOISE = ["--bogus", "--lim", "--h", "--pai", "--m", "-h", "--", "stray", "zz", "--n=6", "--limit=-2", "bent"]


def _valid_value(key: str) -> list[str]:
    kw = _ARGS[key].kwargs
    if kw.get("action") == "store_true":
        return []
    if "choices" in kw:
        return [kw["choices"][-1]]
    return [{int: "6", _hex: "2a", _hex_tuple: "1,2"}.get(kw.get("type"), "f.tt")]


@st.composite
def dispatch_argvs(draw):
    leaf = draw(st.sampled_from(_LEAVES))
    head = leaf.path.split() if draw(st.integers(0, 3)) else draw(st.sampled_from(_NO_LEAF))
    parts = []
    for item in leaf.flags:
        for flag in item if isinstance(item, tuple) else (item,):
            key = flag.rstrip("!")
            if draw(st.integers(0, 9)) < (9 if flag.endswith("!") else 3):
                value = _valid_value(key) if draw(st.integers(0, 4)) else [draw(st.sampled_from(_BAD_VALUES))]
                parts.append([key.split()[0]] * key.startswith("-") + value)
    tokens = [tok for part in draw(st.permutations(parts)) for tok in part]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(_NOISE)))
    return head + tokens


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(argv=dispatch_argvs())
def test_leaf_dispatch_parses_as_the_tree(argv):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        write_golden_seeds(Path(tmp))
        records = {case: golden_record(case) for case in GOLDEN_CASES}
        write_leaf_seeds(Path(tmp))
        os.environ["COLUMNS"] = "80"
        leaves = {"cases": {case: leaf_record(case) for case in LEAF_CASES}, "usage": leaf_usages()}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
    LEAF_GOLDEN_PATH.write_text(json.dumps(leaves, indent=1) + "\n")
