"""bentkit benchmark: three seeded workloads through bentkit.cli.main.

One workload, one seed:

    python3 benchmarks/run.py --workload family-build --seed 1 --seconds 25 --trace 0

Every workload, in turn, each in its own process, writing the results
and the environment to benchmarks/baseline.json:

    python3 benchmarks/run.py --all --seed 1 --seconds 25

A run imports the package from the checkout's src/, draws its inputs
from the seed, then times whole rounds of ops (see workloads.py) in
this single process until --seconds have been measured.  Each op's
wall time is paced: scaled by a reference burst timed just before and
just after it (pace.py), so that stretches in which the shared host runs
the whole process slower cancel out.  Every op's output is re-checked
afterwards with check.py.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics,
which are the end-to-end metrics with --trace 0 and the per-layer
metrics (tracing.py) with --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import pace  # noqa: E402
from check import check_op  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

E2E_UNITS = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def load_package() -> SimpleNamespace:
    """Import a fresh copy of bentkit from src/, dropping any loaded one."""
    for name in [k for k in sys.modules if k == "bentkit" or k.startswith("bentkit.")]:
        del sys.modules[name]
    cli = importlib.import_module("bentkit.cli")
    mods = {k: sys.modules[f"bentkit.{k}"] for k in ("gf2n", "search", "families")}
    return SimpleNamespace(cli=cli, **mods)


def run_round(cli, ops, tracer: Tracer | None, first_op: int, paces: list | None = None):
    """Run ops back to back through cli.main, looked up per call so an
    installed tracer sees it; returns per-op records and the round's
    wall time.  Given a list, paces gets a reference burst (pace.py)
    before the first op and after every op, outside the op's own time."""
    records = []
    if paces is not None:
        paces.append(pace.burst())
    t_round = time.perf_counter()
    for k, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = first_op + k
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed op, not a dead run
                print(f"crash: {exc!r}", file=sys.stderr)
                code = -1
        records.append((op, code, out.getvalue(), time.perf_counter() - t0))
        if paces is not None:
            paces.append(pace.burst())
    return records, time.perf_counter() - t_round


def failures_of(records) -> list[tuple]:
    """(op, reason) for every record whose output fails the re-check."""
    return [(op, why) for op, code, out, _ in records if (why := check_op(op, code, out)) is not None]


def round_digest(records, workdir: Path) -> str:
    """sha256 over one round's arguments, exit codes, reports (minus the
    elapsed-ms line) and written tables, with the work path normalized."""
    h = hashlib.sha256()
    for op, code, out, _ in records:
        text = "\n".join(ln for ln in out.splitlines() if not ln.startswith("elapsed-ms:"))
        h.update(f"{' '.join(op.argv)}\0{code}\0{text}\0".replace(str(workdir), "<work>").encode())
        if op.check == "pair" and code == 0:
            h.update(Path(op.data["h"]).read_bytes() + Path(op.data["dual"]).read_bytes())
    return h.hexdigest()[:16]


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "bentkit" / "cli.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # keep the package's bytecode in the work directory, written whatever
    # PYTHONDONTWRITEBYTECODE says, so that every set-up imports compiled
    # modules (as an installed package does) rather than compiling them
    sys.pycache_prefix = str(WORK / "pycache")
    sys.dont_write_bytecode = False
    wl_cls = WORKLOADS[name]
    os.environ.update(wl_cls.env)
    workdir = WORK / f"{name}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        gen_pkg = load_package()
        if not Path(gen_pkg.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            print("error: bentkit was not imported from src/", file=sys.stderr)
            return 2
        wl = wl_cls(seed, workdir, gen_pkg)

        # set-up: a fresh import plus every field the workload uses; the
        # last copy loaded is the one measured, its caches cold
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            gc.collect()  # free the previous copy outside the timed part
            before = pace.burst()
            t0 = time.perf_counter()
            pkg = load_package()
            for n in wl.degrees:
                pkg.gf2n.make_field(n)
            raw_setups.append(time.perf_counter() - t0)
            setups.append(raw_setups[-1] * pace.scale(before, pace.burst()))

        records, walls, traced_walls, traced_op_s = [], [], [], 0.0
        paced = []  # per untraced op: wall time scaled to the reference pace
        tracer = Tracer() if trace else None
        i = 0
        while True:
            if trace:
                if i == 2 * wl.trace_rounds:
                    break
                # untraced and traced rounds in the order U T T U U T ...,
                # so drift within the run cancels out of trace.overhead
                active = tracer if i % 4 in (1, 2) else None
            elif sum(walls) >= seconds:
                break
            else:
                active = None
            ops = wl.round(i)
            if active is not None:
                active.install()
            paces = None if trace else []
            try:
                recs, wall = run_round(pkg.cli, ops, active, len(records), paces)
            finally:
                if active is not None:
                    active.uninstall()
            (traced_walls if active is not None else walls).append(wall)
            if active is not None:
                traced_op_s += sum(dt for *_, dt in recs)
            if paces is not None:
                paced += [dt * pace.scale(paces[k], paces[k + 1]) for k, (*_, dt) in enumerate(recs)]
            records.extend(recs)
            if i == 0:
                digest = round_digest(recs, workdir)
            i += 1

        # read before the re-check, whose own arrays would otherwise count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = failures_of(records)
        for op, why in failures[:10]:
            print(f"failed: {op.kind}: {why}")
        times_ms = [dt * 1e3 for op, code, out, dt in records]
        print(f"workload: {name}")
        print(f"seed: {seed}")
        print(f"rounds: {i}")
        print(f"ops: {len(records)}")
        print(f"error_rate: {len(failures) / len(records):.6f} 1")
        print(f"outputs-digest: {digest}")

        if trace:
            overhead = sum(traced_walls) / sum(walls) - 1
            metrics = tracer.layer_metrics(traced_op_s, overhead)
            units = LAYER_METRICS
            tracer.dump(WORK / f"trace-{name}-s{seed}.json")
        else:
            paced_ms = [dt * 1e3 for dt in paced]
            tail = percentile(paced_ms, wl.tail_pct)
            print(f"tail: p{wl.tail_pct} over {len(paced_ms)} ops, {sum(t > tail for t in paced_ms)} above")
            print("setup-samples-s: " + " ".join(f"{s:.5f}" for s in setups))
            print("round-walls-s: " + " ".join(f"{w:.4f}" for w in walls))
            # the same figures from unscaled wall times, for reference
            print(f"wall-ops_per_s: {len(times_ms) / (sum(times_ms) / 1e3):.6g} 1/s")
            print(f"wall-op_ms_p50: {statistics.median(times_ms):.6g} ms")
            print(f"wall-op_ms_tail: {percentile(times_ms, wl.tail_pct):.6g} ms")
            print(f"wall-setup_s: {statistics.median(raw_setups):.6g} s")
            metrics = {
                "ops_per_s": len(paced) / sum(paced),
                "op_ms_p50": statistics.median(paced_ms),
                "op_ms_tail": tail,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb,
            }
            units = E2E_UNITS
        for key, value in metrics.items():
            print(f"{key}: {value:.6g} {units[key]}")
        print(json.dumps({
            "correct": not failures,
            "attempted": len(records),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def environment() -> dict:
    import numpy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own process,
    print every metric and write benchmarks/baseline.json."""
    baseline = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    for name, wl in WORKLOADS.items():
        entry = {"degrees": sorted({n for *_, n in (s[:2] for s in wl.ROUND)}),
                 "tail_percentile": wl.tail_pct, "trace_rounds": wl.trace_rounds}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            info = dict(ln.split(": ", 1) for ln in lines[:-1] if ": " in ln)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["ops" if not trace else "traced_run_ops"] = result["attempted"]
            entry["error_rate" if not trace else "traced_run_error_rate"] = result["failed"] / result["attempted"]
            entry.setdefault("outputs_digest", info["outputs-digest"])
            if not trace:
                entry["tail"] = info["tail"]
            for k, v in result["metrics"].items():
                print(f"{name} {k}: {v['value']:.6g} {v['unit']}")
            print(f"{name} error_rate{'[traced]' if trace else ''}: {result['failed'] / result['attempted']:.6f} 1")
        baseline["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload and write benchmarks/baseline.json")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        ap.error("pass --workload or --all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
