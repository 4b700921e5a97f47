"""Command-line front end.

Every command prints a flat report of "key: value" lines in a fixed
order, the timing line always last, so two runs of the same command
produce byte-identical output apart from elapsed-ms.  Data outputs
(truth tables, spectra, search streams) print in their wire formats
instead.

Exit codes: 0 success, 2 malformed input or field errors, 3 a function
that ought to be bent is not, 4 a construction hypothesis or parameter
admissibility clause failed.  Field elements are read and written as
lowercase hex indices; F tables as plain binary strings.  Sizes are
capped by the rows of gf2n.CAPS; the CLI's own row, "n under BENT_MAX_N",
is moved by the BENT_MAX_N environment variable within 1..CAPS["n"].
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import gf2n
from .boolfun import (
    BooleanFunction,
    VectorialFunction,
    algebraic_degree,
    anf,
    derivative,
    dual,
    from_text,
    is_bent,
    parse_bitstring,
    to_text,
    wht,
)
from .constructions import (
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
from .errors import (
    CertificateInvalid,
    NotBent,
    NotBentAdmissible,
    SideConditionFailed,
    SingularMap,
    ZeroDenominator,
)
from .families import (
    GoldParams,
    MMParams,
    corn4t_build,
    cort_m_build,
    gold_build,
    gold_dual_build,
    mm_build,
    mm_dual_build,
    parse_permutation_text,
    thfromgold_build,
    thmm_build,
)
from .search import (
    MuSearchSpec,
    ea_fingerprint,
    find_alphas,
    find_gold_lambdas,
    find_mu_tuples,
)

EXIT_INPUT, EXIT_NOT_BENT, EXIT_CONDITION = 2, 3, 4


class Report:
    """Ordered key: value emitter with the elapsed-ms line appended last."""

    def __init__(self, command: str):
        self._t0 = time.perf_counter()
        self._lines: list[tuple[str, str]] = [("command", command)]

    def add(self, key: str, value) -> None:
        self._lines.append((key, str(value)))

    def emit(self) -> None:
        self._lines.append(("elapsed-ms", f"{(time.perf_counter() - self._t0) * 1e3:.1f}"))
        sys.stdout.write("".join(f"{k}: {v}\n" for k, v in self._lines))


# ------------------------------------------------------------ plumbing


def max_degree_cap() -> int:
    raw = os.environ.get("BENT_MAX_N")
    if raw is None:
        return gf2n.CAPS["n under BENT_MAX_N"]
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"BENT_MAX_N is not an integer: {raw!r}") from None
    return max(1, min(cap, gf2n.CAPS["n"]))


def _guard(n: int) -> None:
    gf2n.check_cap("n", n)  # first, so that n < 1 reads as from_text reports it for a file
    gf2n.check_cap("n under BENT_MAX_N", n, max_degree_cap())


def _hex(tok: str) -> int:
    try:
        v = int(tok, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hex field element: {tok!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError("field elements are non-negative")
    return v


def _hex_tuple(tok: str) -> tuple[int, ...]:
    tok = tok.strip()
    if not tok:
        return ()
    try:
        return tuple(int(p, 16) for p in tok.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated hex tuple: {tok!r}") from None


def _hx(v: int) -> str:
    return f"{v:x}"


def _b(flag: bool) -> str:
    return "true" if flag else "false"


def _read_fn(path: str) -> BooleanFunction:
    f = from_text(Path(path).read_text())
    _guard(f.n)
    return f


def _write_fn(path: str, f: BooleanFunction) -> None:
    # to a temporary file beside the target, renamed over it once complete
    target = Path(path)
    tmp = Path(f"{target}.{os.getpid()}.tmp")
    try:
        tmp.write_text(to_text(f))
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno:  # name the requested path
            raise OSError(exc.errno, exc.strerror, str(target)) from None
        raise


def _field(n: int, modulus: int | None) -> gf2n.FieldSpec:
    _guard(n)
    return gf2n.make_field(n, modulus)


def _field_for(f: BooleanFunction, args) -> gf2n.FieldSpec | None:
    # dot pairing needs no field structure at all
    if args.pairing == "trace":
        return gf2n.make_field(f.n, args.modulus)
    return None


def _pairing_lines(rep: Report, n: int, spec: gf2n.FieldSpec | None, pairing: str) -> None:
    rep.add("n", n)
    if spec is not None:
        rep.add("modulus", _hx(spec.modulus))
    rep.add("pairing", pairing)


def _poly_str(p: int) -> str:
    terms = ({0: "1", 1: "x"}.get(i, f"x^{i}") for i in reversed(range(p.bit_length())) if p >> i & 1)
    return " + ".join(terms) or "0"


def _write_anf(form, write) -> None:
    # per block of 2^16 monomials; a term joins the names of its low and high halves of bits
    h, sep = form.n // 2, ""
    low, high = (["".join(f"x{i + 1}" for i in range(a, b) if v >> (i - a) & 1) for v in range(1 << (b - a))]
                 for a, b in ((0, h), (h, form.n)))
    raw = np.frombuffer(form.coeffs.to_bytes(max(1, (1 << form.n) // 8), "little"), np.uint8)
    for lo in range(0, raw.size, 8192):
        if us := (np.flatnonzero(np.unpackbits(raw[lo : lo + 8192], bitorder="little")) + 8 * lo).tolist():
            write(sep + " + ".join(low[u & ((1 << h) - 1)] + high[u >> h] or "1" for u in us))
            sep = " + "
    write("\n" if sep else "0\n")


def _emit_construction(rep: Report, cons, args) -> int:
    for name in cons.side_conditions:
        rep.add(f"condition[{name}]", "pass")
    for w in cons.warnings:
        rep.add("warning", w)
    rep.add("bent", _b(cons.bent))
    rep.add("dual-matches", _b(cons.dual_matches))
    dh, ds = report_degrees(cons)
    rep.add("degree-h", dh)
    rep.add("degree-dual", ds)
    _write_fn(args.out_h, cons.h)
    rep.add("out-h", args.out_h)
    _write_fn(args.out_dual, cons.h_star)
    rep.add("out-dual", args.out_dual)
    rep.emit()
    return 0 if cons.ok else EXIT_NOT_BENT


# ------------------------------------------------------------ commands


def cmd_field_info(args) -> int:
    spec = _field(args.n, args.modulus)
    rep = Report("field info")
    rep.add("n", spec.n)
    rep.add("modulus", _hx(spec.modulus))
    rep.add("modulus-poly", _poly_str(spec.modulus))
    rep.add("default-modulus", _hx(gf2n.default_modulus(spec.n)))
    rep.add("subfields", ",".join(str(d) for d in range(1, spec.n + 1) if spec.n % d == 0))
    rep.emit()
    return 0


def cmd_fn(args) -> int:
    f = _read_fn(args.infile)
    spec = _field_for(f, args)
    if args.op == "walsh":
        w = wht(f, spec).values
        for lo in range(0, w.size, 65536):  # formatted and written per block of 2^16 lines
            sys.stdout.write("".join(map("{:x} {}\n".format, range(lo, w.size), w[lo : lo + 65536].tolist())))
    elif args.op == "bent":
        rep = Report("fn bent")
        rep.add("n", f.n)
        rep.add("bent", _b(is_bent(f)))
        rep.emit()
    elif args.op == "dual":
        sys.stdout.write(to_text(dual(f, spec)))
    elif args.op == "degree":
        rep = Report("fn degree")
        rep.add("n", f.n)
        rep.add("degree", algebraic_degree(f))
        rep.emit()
    elif args.op == "anf":
        _write_anf(anf(f), sys.stdout.write)
    else:
        if args.mu is None:
            raise ValueError("fn derivative needs --mu")
        sys.stdout.write(to_text(derivative(f, args.mu)))
    return 0


def _mm_params(args, spec: gf2n.FieldSpec, rep: Report) -> MMParams:
    m = spec.n // 2
    rep.add("lambda", _hx(args.lam))
    rep.add("t", args.t)
    if args.pi_file is not None:
        fm, images = parse_permutation_text(Path(args.pi_file).read_text())
        if fm != m:
            raise ValueError(f"permutation acts on GF(2^{fm}), the field needs GF(2^{m})")
        pi: int | tuple[int, ...] = images
        rep.add("pi", f"file:{args.pi_file}")
    else:
        pi = args.pi_power
        rep.add("pi", f"power:{args.pi_power}")
    if args.g_file is not None:
        g = _read_fn(args.g_file)
        rep.add("g", f"file:{args.g_file}")
    elif args.g_bits is not None:
        g = parse_bitstring(args.g_bits)
        rep.add("g", args.g_bits)
    else:
        g = BooleanFunction.const(m, 0)
        rep.add("g", "0" * (1 << m))
    return MMParams(spec, args.lam, args.t, pi, g)


def _generic(args, spec: gf2n.FieldSpec | None, fns: dict):
    phi = VectorialFunction.from_components(tuple(_read_fn(p) for p in args.phi))
    F = parse_bitstring(args.F, phi.r)
    cert = check_property_pr(fns["f"], phi, spec)
    if not cert.holds:
        detail = f"companion property fails at omega={cert.witness_omega:x}"
        if cert.witness_x is not None:
            detail += f", x={cert.witness_x:x}"
        raise CertificateInvalid(detail)
    return build_generic(fns["f"], F, phi, cert)


_HEX_ARG = ({"type": _hex}, _hx)
_FILE_ARG = ({"metavar": "FILE"}, str)
# echoed argument -> (argparse keywords beyond --<key> and required, report form)
_ARGS: dict[str, tuple[dict, Callable]] = {
    "t": ({"type": int}, str),
    "lambda": ({"dest": "lam", "type": _hex}, _hx),
    **dict.fromkeys(("theta", "alpha", "a", "b"), _HEX_ARG),
    "mus": ({"type": _hex_tuple, "metavar": "HEX,HEX,..."}, lambda v: ",".join(map(_hx, v))),
    "F": ({"metavar": "BITS", "help": "truth table of F as a binary string"}, str),
    "phi": ({"nargs": "+", "metavar": "FILE"}, ",".join),
    **dict.fromkeys(("f", "g", "f1", "f2", "f3"), _FILE_ARG),
}


class Shape(NamedTuple):
    """One construct shape; it drives both the parser and the report.

    kind: "field" (--n, --modulus), "mm" (those plus the MM flags that
    _mm_params reads) or "seed" (the truth-table files named in echo,
    plus --pairing).  echo: the shape's own arguments in report order,
    each a required flag.  build(args, spec, inputs): the builder call,
    inputs being None, the MMParams or the seed tables by name.  after:
    (report key, param) pairs echoed in hex once the build returns.
    """

    kind: str
    echo: tuple[str, ...]
    build: Callable
    after: tuple[tuple[str, str], ...] = ()


CONSTRUCTIONS: dict[str, Shape] = {
    "gold": Shape("field", ("lambda", "t"), lambda a, spec, _: gold_build(GoldParams(spec, a.lam, a.t))),
    "gold-dual": Shape(
        "field", ("lambda", "t"), lambda a, spec, _: gold_dual_build(GoldParams(spec, a.lam, a.t))
    ),
    "thm8": Shape(
        "field", ("lambda", "t", "mus", "alpha", "F"),
        lambda a, spec, _: thfromgold_build(
            GoldParams(spec, a.lam, a.t), a.mus, a.alpha, parse_bitstring(a.F)
        ),
    ),
    "cor9": Shape(
        "field", ("theta", "mus", "alpha", "F"),
        lambda a, spec, _: cort_m_build(spec, a.theta, a.mus, a.alpha, parse_bitstring(a.F)),
    ),
    "cor10": Shape(
        "field", ("lambda", "mus", "alpha", "F"),
        lambda a, spec, _: corn4t_build(spec, a.lam, a.mus, a.alpha, parse_bitstring(a.F)),
        after=(("p-lambda", "p_lam"),),
    ),
    "mm": Shape("mm", (), lambda a, spec, p: mm_build(p, a.omega)),
    "mm-dual": Shape("mm", (), lambda a, spec, p: mm_dual_build(p, a.omega)),
    "thm12": Shape(
        "mm", ("mus", "alpha", "F"),
        lambda a, spec, p: thmm_build(p, a.mus, a.alpha, parse_bitstring(a.F), a.omega),
    ),
    "zlj": Shape(
        "seed", ("f", "mus", "F"), lambda a, spec, fs: zlj_build(fs["f"], a.mus, parse_bitstring(a.F), spec)
    ),
    "cornew": Shape(
        "seed", ("f", "g", "mus", "F"),
        lambda a, spec, fs: cornew_build(fs["f"], fs["g"], a.mus, parse_bitstring(a.F), spec),
    ),
    "correduced": Shape(
        "seed", ("f", "alpha", "mus", "F"),
        lambda a, spec, fs: correduced_build(fs["f"], a.alpha, a.mus, parse_bitstring(a.F), spec),
    ),
    "carlet": Shape(
        "seed", ("f1", "f2", "f3"), lambda a, spec, fs: carlet_build(fs["f1"], fs["f2"], fs["f3"], spec)
    ),
    "mesnager1": Shape("seed", ("f", "a", "b"), lambda a, spec, fs: mesnager_build(fs["f"], a.a, a.b, spec)),
    "mesnager2": Shape(
        "seed", ("f1", "f2", "a"), lambda a, spec, fs: mesnager2_build(fs["f1"], fs["f2"], a.a, spec)
    ),
    "generic": Shape("seed", ("f", "phi", "F"), _generic),
}


def cmd_construct(args) -> int:
    """Echo the shape's inputs in report order, build, then write h and its dual."""
    shape = CONSTRUCTIONS[args.shape]
    rep = Report(f"construct {args.shape}")
    inputs = None
    if shape.kind == "seed":
        inputs = {k: _read_fn(getattr(args, k)) for k in shape.echo if _ARGS[k] is _FILE_ARG}
        first = next(iter(inputs.values()))
        spec = _field_for(first, args)
        _pairing_lines(rep, first.n, spec, args.pairing)
    else:
        spec = _field(args.n, args.modulus)
        _pairing_lines(rep, spec.n, spec, "trace")
        if shape.kind == "mm":
            inputs = _mm_params(args, spec, rep)
            if args.omega is not None:
                rep.add("omega", _hx(args.omega))
    for key in shape.echo:
        kwargs, form = _ARGS[key]
        rep.add(key, form(getattr(args, kwargs.get("dest", key))))
    cons = shape.build(args, spec, inputs)
    for key, param in shape.after:
        rep.add(key, _hx(cons.params[param]))
    return _emit_construction(rep, cons, args)


def cmd_search_mus(args) -> int:
    kwargs = dict(mode=args.mode, r=args.r, limit=args.limit, require_independent=not args.allow_dependent)
    if args.mode == "second-derivative":
        if args.f_star is None:
            raise ValueError("second-derivative mode needs --f-star")
        kwargs["f_star"] = _read_fn(args.f_star)
    elif args.mode == "gold-trace":
        if args.n is None or args.lam is None:
            raise ValueError("gold-trace mode needs --n and --lambda")
        kwargs["gold"] = GoldParams(_field(args.n, args.modulus), args.lam, args.t)
    else:
        if args.n is None or args.theta is None:
            raise ValueError("cor9-trace mode needs --n and --theta")
        kwargs.update(theta=args.theta, spec=_field(args.n, args.modulus))
    for tup in find_mu_tuples(MuSearchSpec(**kwargs), args.cursor):
        sys.stdout.write(",".join(map(_hx, tup)) + "\n")
    return 0


def cmd_search_alphas(args) -> int:
    if args.pairing == "trace":
        members = find_alphas(args.mus, args.limit, spec=_field(args.n, args.modulus))
    else:
        _guard(args.n)
        members = find_alphas(args.mus, args.limit, n=args.n)
    sys.stdout.write("".join(f"{a:x}\n" for a in members))
    return 0


def cmd_search_lambdas(args) -> int:
    spec = _field(args.n, args.modulus)
    for lam in find_gold_lambdas(spec, args.t, args.limit, args.cursor):
        sys.stdout.write(f"{lam:x}\n")
    return 0


def cmd_verify_pr(args) -> int:
    f = _read_fn(args.f)
    phi = VectorialFunction.from_components(tuple(_read_fn(p) for p in args.phi))
    spec = _field_for(f, args)
    rep = Report("verify pr")
    _pairing_lines(rep, f.n, spec, args.pairing)
    rep.add("f", args.f)
    rep.add("phi", ",".join(args.phi))
    rep.add("r", phi.r)
    cert = check_property_pr(f, phi, spec)
    rep.add("holds", _b(cert.holds))
    if not cert.holds:
        rep.add("witness-omega", _hx(cert.witness_omega))
        if cert.witness_x is not None:
            rep.add("witness-x", _hx(cert.witness_x))
    rep.emit()
    return 0


def cmd_fingerprint(args) -> int:
    f = _read_fn(args.infile)
    fp = ea_fingerprint(f)
    rep = Report("fingerprint")
    rep.add("n", f.n)
    rep.add("degree", fp.degree)
    rep.add("derivative-degrees", ",".join(f"{d}:{c}" for d, c in fp.derivative_degrees))
    rep.emit()
    return 0


# -------------------------------------------------------------- parser


def _add_out(sp) -> None:
    sp.add_argument("--out-h", default="h.tt", metavar="PATH", help="truth table of h")
    sp.add_argument("--out-dual", default="h-dual.tt", metavar="PATH", help="truth table of the dual")


def _add_pairing(sp) -> None:
    sp.add_argument("--pairing", choices=("dot", "trace"), default="dot")
    sp.add_argument("--modulus", type=_hex, help="field modulus when --pairing trace")


def _add_mm_flags(sp) -> None:
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=_hex, required=True)
    pi = sp.add_mutually_exclusive_group()
    pi.add_argument("--pi-power", type=int, default=1, metavar="K")
    pi.add_argument("--pi-file", metavar="PATH")
    g = sp.add_mutually_exclusive_group()
    g.add_argument("--g-bits", metavar="BITS")
    g.add_argument("--g-file", metavar="PATH")
    sp.add_argument("--omega", type=_hex, help="override the canonical omega")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, built on first use and then shared: it takes
    milliseconds to build, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="bentkit",
        description="construct and exhaustively verify bent functions and their duals",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field structure queries")
    fsub = p_field.add_subparsers(dest="sub", required=True)
    p_info = fsub.add_parser("info", help="modulus and subfield lattice")
    p_info.add_argument("--n", type=int, required=True)
    p_info.add_argument("--modulus", type=_hex)
    p_info.set_defaults(func=cmd_field_info)

    p_fn = sub.add_parser("fn", help="pointwise operators on one truth table")
    p_fn.add_argument("op", choices=("walsh", "bent", "dual", "degree", "anf", "derivative"))
    p_fn.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_fn.add_argument("--mu", type=_hex, help="direction for the derivative")
    _add_pairing(p_fn)
    p_fn.set_defaults(func=cmd_fn)

    p_con = sub.add_parser("construct", help="run one construction and verify it")
    csub = p_con.add_subparsers(dest="shape", required=True)

    for name, shape in CONSTRUCTIONS.items():
        sp = csub.add_parser(name)
        if shape.kind == "seed":
            _add_pairing(sp)
        else:
            sp.add_argument("--n", type=int, required=True)
            sp.add_argument("--modulus", type=_hex)
            if shape.kind == "mm":
                _add_mm_flags(sp)
        for key in shape.echo:
            sp.add_argument(f"--{key}", required=True, **_ARGS[key][0])
        _add_out(sp)
        sp.set_defaults(func=cmd_construct)

    p_search = sub.add_parser("search", help="parameter enumeration, one result per line")
    ssub = p_search.add_subparsers(dest="sub", required=True)

    sp = ssub.add_parser("mus")
    sp.add_argument("--mode", choices=("second-derivative", "gold-trace", "cor9-trace"), required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--limit", type=int, default=16)
    sp.add_argument("--cursor", type=_hex_tuple, help="last tuple already emitted")
    sp.add_argument("--allow-dependent", action="store_true")
    sp.add_argument("--f-star", metavar="FILE", help="dual table for second-derivative mode")
    sp.add_argument("--n", type=int)
    sp.add_argument("--modulus", type=_hex)
    sp.add_argument("--t", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", type=_hex)
    sp.add_argument("--theta", type=_hex)
    sp.set_defaults(func=cmd_search_mus)

    sp = ssub.add_parser("alphas")
    sp.add_argument("--mus", type=_hex_tuple, required=True, metavar="HEX,HEX,...")
    sp.add_argument("--limit", type=int, default=16)
    sp.add_argument("--n", type=int, required=True)
    _add_pairing(sp)
    sp.set_defaults(func=cmd_search_alphas)

    sp = ssub.add_parser("lambdas")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--modulus", type=_hex)
    sp.add_argument("--t", type=int, required=True)
    sp.add_argument("--limit", type=int, default=16)
    sp.add_argument("--cursor", type=_hex)
    sp.set_defaults(func=cmd_search_lambdas)

    p_verify = sub.add_parser("verify", help="check certified properties")
    vsub = p_verify.add_subparsers(dest="sub", required=True)
    sp = vsub.add_parser("pr")
    sp.add_argument("--f", required=True, metavar="FILE")
    sp.add_argument("--phi", required=True, nargs="+", metavar="FILE")
    _add_pairing(sp)
    sp.set_defaults(func=cmd_verify_pr)

    p_fp = sub.add_parser("fingerprint", help="EA-invariant fingerprint of one table")
    p_fp.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p_fp.set_defaults(func=cmd_fingerprint)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotBent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_BENT
    except (SideConditionFailed, NotBentAdmissible, CertificateInvalid, ZeroDenominator, SingularMap) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONDITION
    except (ValueError, OSError) as exc:
        # NonIrreducible, UnsupportedDegree, NotADivisor, ArityMismatch and
        # plain parse or file problems all count as input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
