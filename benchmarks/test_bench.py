"""Self-tests of the benchmark itself.

    python3 -m pytest benchmarks/test_bench.py -q

They show that the seeded generator is deterministic, that the
independent transform in check.py agrees with bentkit's under both
pairings, that a corrupted output drives error_rate above 0, that a
paced round times a reference burst around every op, that the
tracer sees calls through every module's binding, and that the
benchmark refuses to run without the package source.
"""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def pkg():
    return run.load_package()


def _draw(name, seed, workdir, pkg, rounds=2):
    wl = WORKLOADS[name](seed, workdir, pkg)
    ops = [op for i in range(rounds) for op in wl.round(i)]
    argvs = [[a.replace(str(workdir), "<work>") for a in op.argv] for op in ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, pkg, tmp_path):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _draw(name, 7, dirs[0], pkg)
    assert first == _draw(name, 7, dirs[1], pkg)
    other = _draw(name, 8, dirs[2], pkg)
    assert first[0] != other[0]
    assert len({tuple(a) for a in first[0]}) == len(first[0])


@pytest.mark.parametrize("n", range(2, 11))
def test_walsh_matches_boolfun_under_both_pairings(n, pkg):
    from bentkit.boolfun import BooleanFunction, to_text, wht

    rng = random.Random(n)
    for _ in range(3):
        f = BooleanFunction(n, rng.getrandbits(1 << n))
        bits = check.read_table(to_text(f))
        assert np.array_equal(check.walsh(bits), wht(f).values)
        spec = pkg.gf2n.make_field(n)
        assert check.modulus(n) == spec.modulus
        assert np.array_equal(check.walsh(bits)[check.trace_reindex(n)], wht(f, spec).values)


def test_corrupted_dual_raises_error_rate(pkg, tmp_path):
    wl = WORKLOADS["family-build"](3, tmp_path, pkg)
    ops = [op for op in wl.round(0) if op.kind.endswith("n=12")][:3]
    records, _ = run.run_round(pkg.cli, ops, None, 0)
    assert run.failures_of(records) == []
    dual = Path(ops[1].data["dual"])
    text = dual.read_text().splitlines()
    body = text[1]
    text[1] = f"{int(body[0], 16) ^ 8:x}" + body[1:]  # flip the dual at x = 0
    dual.write_text("\n".join(text) + "\n")
    failures = run.failures_of(records)
    assert [op for op, _ in failures] == [ops[1]]
    assert len(failures) / len(records) > 0


def test_paced_round_brackets_every_op(pkg, tmp_path):
    wl = WORKLOADS["param-search"](5, tmp_path, pkg)
    ops = wl.round(0)[:4]
    paces = []
    records, wall = run.run_round(pkg.cli, ops, None, 0, paces)
    assert len(paces) == len(ops) + 1 and all(p > 0 for p in paces)
    assert sum(dt for *_, dt in records) < wall
    assert pace.scale(2 * pace.NOMINAL_S, 2 * pace.NOMINAL_S) == pytest.approx(0.5)


def test_tracer_sees_every_binding_and_restores(pkg, tmp_path):
    wl = WORKLOADS["family-build"](4, tmp_path, pkg)
    ops = wl.round(0)[:1]
    original = pkg.cli.is_bent
    tracer = Tracer()
    tracer.install()
    try:
        records, wall = run.run_round(pkg.cli, ops, tracer, 0)
    finally:
        tracer.uninstall()
    assert pkg.cli.is_bent is original
    assert run.failures_of(records) == []
    layer = tracer.layer_metrics(records[0][3], 0.0)
    assert layer["gf2n.mul.calls"] > 0
    assert layer["boolfun.is_bent.calls"] >= 1  # bound in constructions, not boolfun
    assert layer["families.gold_function.ms"] > 0
    assert 0 < layer["share.tables"] < 1
    names = {s[0] for s in tracer.spans}
    assert "cli.main" in names and all(s[4] == 0 for s in tracer.spans)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "param-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
