"""Command-line front end.

Every command prints a flat report of "key: value" lines in a fixed
order, the timing line always last, so two runs of the same command
produce byte-identical output apart from elapsed-ms, which times the
whole command.  Data outputs (truth tables, spectra, search streams)
print in their wire formats instead.  The parser is one table: _ARGS
declares each flag once, and each row of _LEAVES names one command's
handler and flags.  An argv whose first words name a leaf is parsed by
that leaf's parser alone; any other goes through the whole tree.

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
from typing import Callable

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


def _hex(tok: str, bad: str = "") -> int:  # bad: the message for a token that is not hex
    try:
        v = int(tok, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(bad or f"not a hex field element: {tok!r}") from None
    if v < 0:
        raise argparse.ArgumentTypeError("field elements are non-negative")
    return v


def _hex_tuple(tok: str) -> tuple[int, ...]:
    bad = f"not a comma-separated hex tuple: {tok.strip()!r}"
    return tuple(_hex(p, bad) for p in tok.split(",")) if tok.strip() else ()


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
    raw = np.frombuffer(BooleanFunction(form.n, form.coeffs).raw, np.uint8)
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
    rep = Report("field info")
    spec = _field(args.n, args.modulus)
    rep.add("n", spec.n)
    rep.add("modulus", _hx(spec.modulus))
    rep.add("modulus-poly", _poly_str(spec.modulus))
    rep.add("default-modulus", _hx(gf2n.default_modulus(spec.n)))
    rep.add("subfields", ",".join(str(d) for d in range(1, spec.n + 1) if spec.n % d == 0))
    rep.emit()
    return 0


def cmd_fn(args) -> int:
    rep = Report(f"fn {args.op}")  # emitted by the two report ops, bent and degree
    f = _read_fn(args.infile)
    spec = _field_for(f, args)
    if args.op == "walsh":
        w = wht(f, spec).values
        for lo in range(0, w.size, 65536):  # formatted and written per block of 2^16 lines
            sys.stdout.write("".join(map("{:x} {}\n".format, range(lo, w.size), w[lo : lo + 65536].tolist())))
    elif args.op in ("bent", "degree"):
        rep.add("n", f.n)
        rep.add(args.op, _b(is_bent(f)) if args.op == "bent" else algebraic_degree(f))
        rep.emit()
    elif args.op == "dual":
        sys.stdout.write(to_text(dual(f, spec)))
    elif args.op == "anf":
        _write_anf(anf(f), sys.stdout.write)
    else:
        if args.mu is None:
            raise ValueError("fn derivative needs --mu")
        sys.stdout.write(to_text(derivative(f, args.mu)))
    return 0


def _mm_params(args, spec: gf2n.FieldSpec, rep: Report) -> MMParams:
    m = spec.n // 2
    _echo(rep, args, ("lambda", "t"))
    pi: int | tuple[int, ...] = args.pi_power
    if args.pi_file is not None:
        fm, pi = parse_permutation_text(Path(args.pi_file).read_text())
        if fm != m:
            raise ValueError(f"permutation acts on GF(2^{fm}), the field needs GF(2^{m})")
        rep.add("pi", f"file:{args.pi_file}")
    else:
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
    if args.omega is not None:
        rep.add("omega", _hx(args.omega))
    return MMParams(spec, args.lam, args.t, pi, g)


def _certify(spec: gf2n.FieldSpec | None, tables: dict):
    """Property P_r of the seed tables f and phi, as verify pr reports it and construct
    generic requires it: the certificate, and its witness as (name, element) pairs."""
    cert = check_property_pr(tables["f"], tables["phi"], spec)
    witness = [] if cert.holds else [("omega", cert.witness_omega), ("x", cert.witness_x)]
    return cert, [(k, v) for k, v in witness if v is not None]


def _generic(args, spec: gf2n.FieldSpec | None, tables: dict):
    F = parse_bitstring(args.F, tables["phi"].r)
    cert, witness = _certify(spec, tables)
    if not cert.holds:
        raise CertificateInvalid("companion property fails at " + ", ".join(f"{k}={v:x}" for k, v in witness))
    return build_generic(tables["f"], F, tables["phi"], cert)


class Arg:
    """One flag: its argparse keywords beyond the name and required, how a
    report echoes its value, and, for a seed table, how it is read."""

    def __init__(self, kwargs: dict, form: Callable = str, read: Callable | None = None):
        self.kwargs, self.form, self.read = kwargs, form, read


# every flag of every command, declared once under its command-line name;
# "--cursor hex" is search lambdas' --cursor, one element where search mus reads a tuple
_ARGS: dict[str, Arg] = {
    "op": Arg({"choices": ("walsh", "bent", "dual", "degree", "anf", "derivative")}),
    "--in": Arg({"dest": "infile", "metavar": "FILE"}),
    "--n": Arg({"type": int}),
    "--modulus": Arg({"type": _hex, "help": "field modulus (under --pairing, read only for trace)"}),
    "--pairing": Arg({"choices": ("dot", "trace"), "default": "dot"}),
    "--mu": Arg({"type": _hex, "help": "direction for the derivative"}),
    "--t": Arg({"type": int, "default": 1}),
    "--lambda": Arg({"dest": "lam", "type": _hex}, _hx),
    **dict.fromkeys(("--theta", "--alpha", "--a", "--b"), Arg({"type": _hex}, _hx)),
    "--mus": Arg({"type": _hex_tuple, "metavar": "HEX,HEX,..."}, lambda v: ",".join(map(_hx, v))),
    "--F": Arg({"metavar": "BITS", "help": "truth table of F as a binary string"}),
    "--phi": Arg({"nargs": "+", "metavar": "FILE"}, ",".join,
                 lambda paths: VectorialFunction.from_components(tuple(map(_read_fn, paths)))),
    **dict.fromkeys(("--f", "--g", "--f1", "--f2", "--f3"), Arg({"metavar": "FILE"}, read=_read_fn)),
    "--pi-power": Arg({"type": int, "default": 1, "metavar": "K"}),
    **dict.fromkeys(("--pi-file", "--g-file"), Arg({"metavar": "PATH"})),
    "--g-bits": Arg({"metavar": "BITS"}),
    "--omega": Arg({"type": _hex, "help": "override the canonical omega"}),
    "--out-h": Arg({"default": "h.tt", "metavar": "PATH", "help": "truth table of h"}),
    "--out-dual": Arg({"default": "h-dual.tt", "metavar": "PATH", "help": "truth table of the dual"}),
    "--mode": Arg({"choices": ("second-derivative", "gold-trace", "cor9-trace")}),
    "--r": Arg({"type": int}),
    "--limit": Arg({"type": int, "default": 16}),
    "--cursor": Arg({"type": _hex_tuple, "help": "last tuple already emitted"}),
    "--cursor hex": Arg({"type": _hex}),
    "--allow-dependent": Arg({"action": "store_true"}),
    "--f-star": Arg({"metavar": "FILE", "help": "dual table for second-derivative mode"}),
}


class Shape:
    """One construct shape, which drives both its parser row and its report.

    kind: "field", "mm" or "seed", naming the flags before the shape's own
    (_KIND_FLAGS).  echo: the shape's own arguments in report order, each a
    required flag.  build(args, spec, inputs): the builder call, inputs being
    None, the MMParams or the seed tables by name.  after: (report key,
    param) pairs echoed in hex once the build returns."""

    def __init__(self, kind: str, echo: tuple[str, ...], build: Callable, after: tuple = ()):
        self.kind, self.echo, self.build, self.after = kind, echo, build, after


CONSTRUCTIONS: dict[str, Shape] = {
    "gold": Shape("field", ("lambda", "t"), lambda a, spec, _: gold_build(GoldParams(spec, a.lam, a.t))),
    "gold-dual": Shape(
        "field", ("lambda", "t"), lambda a, spec, _: gold_dual_build(GoldParams(spec, a.lam, a.t))
    ),
    "thm8": Shape(
        "field", ("lambda", "t", "mus", "alpha", "F"),
        lambda a, spec, _: thfromgold_build(GoldParams(spec, a.lam, a.t), a.mus, a.alpha,
                                            parse_bitstring(a.F)),
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
# a construct shape's flags before its echo keys, by kind
_KIND_FLAGS = {
    "field": ("--n!", "--modulus"),
    "mm": ("--n!", "--modulus", "--t!", "--lambda!", ("--pi-power", "--pi-file"), ("--g-bits", "--g-file"),
           "--omega"),
    "seed": ("--pairing", "--modulus"),
}


def _echo(rep: Report, args, keys) -> None:
    for key in keys:
        arg = _ARGS[f"--{key}"]
        rep.add(key, arg.form(getattr(args, arg.kwargs.get("dest", key))))


def _seed_inputs(rep: Report, args, keys) -> tuple[gf2n.FieldSpec | None, dict]:
    """The seed step of verify pr and the seed construct shapes: read the tables among keys,
    build the pairing's field from the first, and echo the pairing lines and keys."""
    tables = {k: _ARGS[f"--{k}"].read(getattr(args, k)) for k in keys if _ARGS[f"--{k}"].read}
    first = next(iter(tables.values()))
    spec = _field_for(first, args)
    _pairing_lines(rep, first.n, spec, args.pairing)
    _echo(rep, args, keys)
    return spec, tables


def cmd_construct(args) -> int:
    """Echo the shape's inputs in report order, build, then write h and its dual."""
    shape = CONSTRUCTIONS[args.shape]
    rep = Report(f"construct {args.shape}")
    if shape.kind == "seed":
        spec, inputs = _seed_inputs(rep, args, shape.echo)
    else:
        spec = _field(args.n, args.modulus)
        _pairing_lines(rep, spec.n, spec, "trace")
        inputs = _mm_params(args, spec, rep) if shape.kind == "mm" else None
        _echo(rep, args, shape.echo)
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
    rep = Report("verify pr")
    spec, tables = _seed_inputs(rep, args, ("f", "phi"))
    rep.add("r", tables["phi"].r)
    cert, witness = _certify(spec, tables)
    rep.add("holds", _b(cert.holds))
    for key, v in witness:
        rep.add(f"witness-{key}", _hx(v))
    rep.emit()
    return 0


def cmd_fingerprint(args) -> int:
    rep = Report("fingerprint")
    f = _read_fn(args.infile)
    fp = ea_fingerprint(f)
    rep.add("n", f.n)
    rep.add("degree", fp.degree)
    rep.add("derivative-degrees", ",".join(f"{d}:{c}" for d, c in fp.derivative_degrees))
    rep.emit()
    return 0


# -------------------------------------------------------------- parser


class Leaf:
    """One command: its path, its handler, its flags in usage order (a trailing "!" marking a
    required one, a tuple of them a mutually exclusive group) and its line in the parent's help."""

    def __init__(self, path: str, func: Callable, flags: tuple, help: str | None = None):
        self.path, self.func, self.flags, self.help = path, func, flags, help


_LEAVES: tuple[Leaf, ...] = (
    Leaf("field info", cmd_field_info, ("--n!", "--modulus"), "modulus and subfield lattice"),
    Leaf("fn", cmd_fn, ("op", "--in!", "--mu", "--pairing", "--modulus"),
         "pointwise operators on one truth table"),
    *(Leaf(f"construct {name}", cmd_construct,
           (*_KIND_FLAGS[shape.kind], *(f"--{k}!" for k in shape.echo), "--out-h", "--out-dual"))
      for name, shape in CONSTRUCTIONS.items()),
    Leaf("search mus", cmd_search_mus, ("--mode!", "--r!", "--limit", "--cursor", "--allow-dependent",
                                        "--f-star", "--n", "--modulus", "--t", "--lambda", "--theta")),
    Leaf("search alphas", cmd_search_alphas, ("--mus!", "--limit", "--n!", "--pairing", "--modulus")),
    Leaf("search lambdas", cmd_search_lambdas, ("--n!", "--modulus", "--t!", "--limit", "--cursor hex")),
    Leaf("verify pr", cmd_verify_pr, ("--f!", "--phi!", "--pairing", "--modulus")),
    Leaf("fingerprint", cmd_fingerprint, ("--in!",), "EA-invariant fingerprint of one table"),
)
# command group -> its line in the top-level help, and the name its subcommand is stored under
_GROUPS = {
    "field": ("field structure queries", "sub"),
    "construct": ("run one construction and verify it", "shape"),
    "search": ("parameter enumeration, one result per line", "sub"),
    "verify": ("check certified properties", "sub"),
}


# each leaf's parser in the tree, by its path's words, as build_parser records them
_LEAF_PARSERS: dict[tuple[str, ...], argparse.ArgumentParser] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole command tree, one parser per row of _LEAVES, built on first use and then
    shared: it takes milliseconds to build, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="bentkit",
        description="construct and exhaustively verify bent functions and their duals",
    )
    subs = {"": ap.add_subparsers(dest="command", required=True)}
    for leaf in _LEAVES:
        group, _, name = leaf.path.rpartition(" ")
        if group not in subs:
            text, dest = _GROUPS[group]
            subs[group] = subs[""].add_parser(group, help=text).add_subparsers(dest=dest, required=True)
        sp = subs[group].add_parser(name, **({"help": leaf.help} if leaf.help else {}))
        _LEAF_PARSERS[tuple(leaf.path.split())] = sp
        for item in leaf.flags:
            into = sp.add_mutually_exclusive_group() if isinstance(item, tuple) else sp
            for flag in item if isinstance(item, tuple) else (item,):
                key = flag.rstrip("!")
                required = {"required": True} if flag.endswith("!") else {}
                into.add_argument(key.split()[0], **_ARGS[key].kwargs, **required)
        sp.set_defaults(func=leaf.func)
    return ap


def _parse(argv: list[str] | None = None) -> argparse.Namespace:
    """build_parser().parse_args(argv), with an argv whose first words name a leaf parsed by
    that leaf's parser alone: the levels above it would only hand it the rest, and set
    command and the group's dest, which are preset here instead."""
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        if leaf := _LEAF_PARSERS.get(path):
            preset = {_GROUPS[path[0]][1]: path[1]} if len(path) == 2 else {}
            args, rest = leaf.parse_known_args(argv[len(path):], argparse.Namespace(command=path[0], **preset))
            if rest:  # reported as parse_args reports them: by the top-level parser
                ap.error("unrecognized arguments: %s" % " ".join(rest))
            return args
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
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
