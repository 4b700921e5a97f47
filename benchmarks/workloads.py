"""Seeded inputs for the three benchmark workloads.

A workload is an endless sequence of rounds.  Every round has the same
shape (the same command kinds at the same degrees, in the same order,
with the same fixed structural parameters such as t and the tuple size
r); only the values drawn from the seed differ: coefficients, cursors,
selector tables F, permutations and truth tables.  Costs that depend on
structure, and the package's cache hit pattern, are therefore the same
for every seed, which keeps the timing spread across seeds small.

Round i is drawn from its own generator seeded by (workload, seed, i),
so the op list and every input file are byte-identical for a given
seed, and rounds can be drawn lazily.  Parameters are drawn with the
package's public search functions; the truth tables and permutation
files are built here with numpy.  No op within a run repeats identical
arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from check import rank

_HEX = np.frombuffer(b"0123456789abcdef", np.uint8)


@dataclass
class Op:
    """One CLI invocation plus what the independent check needs.

    kind is the op's class label (command plus degree); check names the
    verification in check.py and data carries its inputs.
    """

    kind: str
    argv: list[str]
    check: str
    data: dict = field(default_factory=dict)


def table_text(bits: np.ndarray) -> str:
    """Truth-table wire format: "n=<int>", then hex nibbles, f(0) as the
    most significant bit of the first nibble (n >= 2)."""
    n = int(bits.size).bit_length() - 1
    nibbles = bits.reshape(-1, 4).astype(np.uint8) @ np.array([8, 4, 2, 1], np.uint8)
    return f"n={n}\n{_HEX[nibbles].tobytes().decode()}\n"


def mm_pair(m: int, pi: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maiorana-McFarland table f(x, y) = x.pi(y) + g(y) on 2m variables
    and its dual under the dot pairing, f~(a, b) = b.pi^-1(a) + g(pi^-1(a)).

    x (and a) are the low m index bits, y (and b) the high m bits.  Both
    tables are built as 2^m x 2^m grids of narrow integers, rows indexed
    by the high half, so the generator's own memory stays small.
    """
    half = np.arange(1 << m, dtype=np.uint16)
    pi = pi.astype(np.uint16)
    pinv = np.argsort(pi).astype(np.uint16)
    f = (np.bitwise_count(pi[:, None] & half[None, :]) & 1) ^ g[:, None]
    f_dual = (np.bitwise_count(half[:, None] & pinv[None, :]) & 1) ^ g[pinv][None, :]
    return f.astype(np.uint8).ravel(), f_dual.astype(np.uint8).ravel()


def _perm(rng: random.Random, m: int) -> np.ndarray:
    images = list(range(1 << m))
    rng.shuffle(images)
    return np.array(images, np.uint16)


def _bits(rng: random.Random, count: int) -> np.ndarray:
    return np.array([rng.getrandbits(1) for _ in range(count)], np.uint8)


def _bitstring(rng: random.Random, count: int) -> str:
    return "".join("01"[rng.getrandbits(1)] for _ in range(count))


def _hx(v: int) -> str:
    return f"{v:x}"


def _hex_tuple(vs) -> str:
    return ",".join(map(_hx, vs))


class Workload:
    """Base class: draws round i of one workload into workdir.

    bk is a namespace holding the package's gf2n, search and families
    modules; the generator uses its own imported copy so that drawing
    inputs leaves the measured copy's caches cold.
    """

    name = ""
    ROUND: tuple = ()  # one slot per op: kind, degree and fixed parameters
    degrees: tuple[int, ...] = ()  # fields built in set-up
    tail_pct = 75  # percentile behind op_ms_tail, fixed per workload
    trace_rounds = 1  # traced rounds in a --trace 1 run
    env: dict[str, str] = {}

    def __init__(self, seed: int, workdir: Path, bk: SimpleNamespace):
        self.seed = seed
        self.workdir = Path(workdir)
        self.bk = bk
        self._seen: set[tuple] = set()
        self._fields: dict[int, object] = {}

    def round(self, i: int) -> list[Op]:
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        return [self._op(rng, i, k, slot) for k, slot in enumerate(self.ROUND)]

    # -- helpers shared by the subclasses

    def _fresh(self, key: tuple) -> bool:
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _field(self, n: int):
        if n not in self._fields:
            self._fields[n] = self.bk.gf2n.make_field(n)
        return self._fields[n]

    def _path(self, i: int, k: int, tag: str) -> str:
        return str(self.workdir / f"r{i:03d}-{k:02d}-{tag}")

    def _write(self, path: str, text: str) -> str:
        Path(path).write_text(text)
        return path

    def _cursor(self, rng: random.Random, n: int, r: int) -> tuple[int, ...]:
        # the first entry stays in the lower half, so every search has
        # far more than `limit` results after the cursor
        first = rng.randrange(1, 1 << (n - 1))
        rest = rng.sample(range(first + 1, 1 << n), r - 1)
        return (first, *sorted(rest))

    def _gold_lambda(self, rng: random.Random, spec, t: int) -> int:
        while True:
            found = self.bk.search.find_gold_lambdas(spec, t, 1, rng.randrange(1 << (spec.n - 1)))
            if found:
                return found[0]

    def _alpha(self, rng: random.Random, mus, spec) -> int:
        members = [a for a in self.bk.search.find_alphas(mus, 1 << 12, spec=spec) if a]
        return rng.choice(members)


# ------------------------------------------------------------ family-build


_FAMILY_T = {"gold": 1, "gold-dual": 3, "thm8": 1, "mm": 1, "mm-dual": 2, "thm12": 1}
_FAMILY_R = 2  # mu tuple size of the shifted-tuple shapes
_SHAPES = ("gold", "gold-dual", "thm8", "cor9", "cor10", "mm", "mm-dual", "thm12")


class FamilyBuild(Workload):
    """construct over all eight field-family shapes, trace pairing.

    Every shape runs at n = 12 and n = 14, except cor10, which needs
    4 | n; gold and mm also run at n = 16.  cor9 costs several times more
    than the other shapes at the same degree, so it runs once per degree
    and the others repeat: sorted by cost, a round's 37 ops are 21 n = 12
    ops, cor9 at n = 12, 12 n = 14 ops, cor9 at n = 14 and the 2 n = 16
    ops.  The median then falls among the n = 12 ops and the p75 tail
    among the n = 14 ops, away from the large jumps in cost between
    those groups.
    """

    name = "family-build"
    degrees = (12, 14, 16)
    tail_pct = 75
    trace_rounds = 1
    ROUND = (
        *((s, 12) for s in _SHAPES),
        *((s, 14) for s in _SHAPES if s != "cor10"),
        *((s, 12) for s in _SHAPES if s != "cor9"),
        *((s, 14) for s in _SHAPES if s not in ("cor9", "cor10")),
        *((s, 12) for s in _SHAPES if s != "cor9"),
        ("gold", 16),
        ("mm", 16),
    )

    def _op(self, rng, i, k, slot) -> Op:
        shape, n = slot
        drawn = None
        while drawn is None or not self._fresh((shape, n, drawn[1])):
            drawn = self._draw(rng, shape, n, i, k)
        args = drawn[0]
        h, d = self._path(i, k, "h.tt"), self._path(i, k, "hd.tt")
        argv = ["construct", shape, "--n", str(n), *args, "--out-h", h, "--out-dual", d]
        return Op(f"construct {shape} n={n}", argv, "pair", {"n": n, "trace": True, "h": h, "dual": d})

    def _draw(self, rng, shape, n, i, k):
        bk = self.bk
        spec = self._field(n)
        m = n // 2
        if shape in ("gold", "gold-dual"):
            t = _FAMILY_T[shape]
            lam = self._gold_lambda(rng, spec, t)
            return ["--t", str(t), "--lambda", _hx(lam)], (lam,)
        if shape in ("thm8", "cor10"):
            t = _FAMILY_T["thm8"] if shape == "thm8" else n // 4
            lam = self._gold_lambda(rng, spec, t)
            if shape == "cor10" and self._cor10_denominator(spec, lam, t) == 0:
                return None
            gold = bk.families.GoldParams(spec, lam, t)
            mus = self._mus(rng, bk.search.MuSearchSpec("gold-trace", _FAMILY_R, 1, gold=gold), n)
            alpha = self._alpha(rng, mus, spec)
            F = _bitstring(rng, 1 << (_FAMILY_R + 1))
            lead = ["--t", str(t)] if shape == "thm8" else []
            args = [*lead, "--lambda", _hx(lam), "--mus", _hex_tuple(mus), "--alpha", _hx(alpha), "--F", F]
            return args, (lam, mus, alpha, F)
        if shape == "cor9":
            theta = rng.choice([s for s in bk.gf2n.subfield_elements(m, spec) if s])
            ms = bk.search.MuSearchSpec("cor9-trace", _FAMILY_R, 1, theta=theta, spec=spec)
            mus = self._mus(rng, ms, n)
            alpha = self._alpha(rng, mus, spec)
            F = _bitstring(rng, 1 << (_FAMILY_R + 1))
            args = ["--theta", _hx(theta), "--mus", _hex_tuple(mus), "--alpha", _hx(alpha), "--F", F]
            return args, (theta, mus, alpha, F)
        # the half-split shapes
        t = _FAMILY_T[shape]
        lam = rng.randrange(1, 1 << n)
        while bk.gf2n.in_subfield(lam, m, spec):
            lam = rng.randrange(1, 1 << n)
        g = _bitstring(rng, 1 << m)
        args = ["--t", str(t), "--lambda", _hx(lam), "--g-bits", g]
        if shape in ("mm", "mm-dual"):
            k_pow = rng.randrange(1, (1 << m) - 1)
            while math.gcd(k_pow, (1 << m) - 1) != 1:
                k_pow = rng.randrange(1, (1 << m) - 1)
            return [*args, "--pi-power", str(k_pow)], (lam, g, k_pow)
        pi = _perm(rng, m)
        pi_path = self._write(
            self._path(i, k, "pi.txt"), f"m={m}\n" + " ".join(map(str, pi.tolist())) + "\n"
        )
        sub = [s for s in bk.gf2n.subfield_elements(m, spec) if s]
        mus = tuple(sorted(rng.sample(sub, _FAMILY_R)))
        while rank(mus) < _FAMILY_R:
            mus = tuple(sorted(rng.sample(sub, _FAMILY_R)))
        alpha = self._alpha(rng, mus, spec)
        F = _bitstring(rng, 1 << (_FAMILY_R + 1))
        args += ["--pi-file", pi_path, "--mus", _hex_tuple(mus), "--alpha", _hx(alpha), "--F", F]
        return args, (lam, g, tuple(pi.tolist()), mus, alpha, F)

    def _mus(self, rng, ms, n) -> tuple[int, ...]:
        while True:
            found = self.bk.search.find_mu_tuples(ms, self._cursor(rng, n, ms.r))
            if found:
                return found[0]

    def _cor10_denominator(self, spec, lam, t) -> int:
        gf = self.bk.gf2n
        m = spec.n // 2
        z = gf.power(gf.mul(lam, lam, spec), (1 << m) + 1, spec)
        return z ^ gf.frobenius(z, t, spec)


# ---------------------------------------------------------- spectral-check


_SPECTRAL_KINDS = (
    "zlj", "correduced", "mesnager1", "mesnager2", "carlet", "generic", "verify-pr", "fn-bent", "fn-dual",
)


class SpectralCheck(Workload):
    """Secondary builds and certificate checks on seeded MM bent tables
    under the dot pairing; no field arithmetic runs."""

    name = "spectral-check"
    degrees = (16, 18)
    tail_pct = 90
    trace_rounds = 2
    env = {"BENT_MAX_N": "18"}
    # a second verify pr at n = 16 makes the round's op count odd
    ROUND = (*((kind, n) for n in (16, 18) for kind in _SPECTRAL_KINDS), ("verify-pr", 16))

    def _op(self, rng, i, k, slot) -> Op:
        kind, n = slot
        m = n // 2
        pi = _perm(rng, m)
        gs = [_bits(rng, 1 << m) for _ in range(3)]
        # directions in the high half, where the dual is affine, so every
        # second derivative of the dual along them vanishes
        highs = [b << m for b in rng.sample(range(1, 1 << m), 3)]

        def seed_table(j: int) -> str:
            f, _ = mm_pair(m, pi, gs[j])
            return self._write(self._path(i, k, f"f{j}.tt"), table_text(f))

        def high_fns(r: int) -> list[str]:
            # functions of the high half only keep f + omega.phi in the MM
            # class with additive duals, so the certificate holds
            return [
                self._write(self._path(i, k, f"phi{j}.tt"), table_text(np.repeat(_bits(rng, 1 << m), 1 << m)))
                for j in range(r)
            ]

        label = f"{kind.replace('-', ' ')} n={n}"
        h, d = self._path(i, k, "h.tt"), self._path(i, k, "hd.tt")
        out = ["--out-h", h, "--out-dual", d]
        pair = {"n": n, "trace": False, "h": h, "dual": d}
        if kind == "zlj":
            argv = ["construct", "zlj", "--f", seed_table(0), "--mus", _hex_tuple(highs[:2]),
                    "--F", _bitstring(rng, 4), *out]
        elif kind == "correduced":
            alpha = rng.randrange(1, 1 << n)
            while any((alpha & mu).bit_count() & 1 for mu in highs[:2]):
                alpha = rng.randrange(1, 1 << n)
            argv = ["construct", "correduced", "--f", seed_table(0), "--alpha", _hx(alpha),
                    "--mus", _hex_tuple(highs[:2]), "--F", _bitstring(rng, 8), *out]
        elif kind == "mesnager1":
            argv = ["construct", "mesnager1", "--f", seed_table(0), "--a", _hx(highs[0]),
                    "--b", _hx(highs[1]), *out]
        elif kind == "mesnager2":
            argv = ["construct", "mesnager2", "--f1", seed_table(0), "--f2", seed_table(1),
                    "--a", _hx(highs[0]), *out]
        elif kind == "carlet":
            argv = ["construct", "carlet", "--f1", seed_table(0), "--f2", seed_table(1),
                    "--f3", seed_table(2), *out]
        elif kind == "generic":
            argv = ["construct", "generic", "--f", seed_table(0), "--phi", *high_fns(3),
                    "--F", _bitstring(rng, 8), *out]
        elif kind == "verify-pr":
            return Op(label, ["verify", "pr", "--f", seed_table(0), "--phi", *high_fns(3)], "holds")
        elif kind == "fn-bent":
            return Op(label, ["fn", "bent", "--in", seed_table(0)], "bent", {"f": self._path(i, k, "f0.tt")})
        else:
            return Op(label, ["fn", "dual", "--in", seed_table(0)], "dual", {"f": self._path(i, k, "f0.tt")})
        return Op(label, argv, "pair", pair)


# ------------------------------------------------------------ param-search


class ParamSearch(Workload):
    """search mus in all three modes, search lambdas and alphas, and
    fingerprint; scalar field arithmetic and per-call CLI cost.

    Each slot fixes the structural parameters (degree, r or t, limit,
    pairing); the seed draws the coefficient, cursor or table.
    """

    name = "param-search"
    degrees = (12, 14, 16)
    tail_pct = 99
    trace_rounds = 3
    ROUND = (
        ("mus-sd", 8, 2, 4), ("mus-sd", 10, 2, 6), ("mus-sd", 10, 3, 4),
        ("mus-gold", 12, 2, 64), ("mus-gold", 14, 3, 48), ("mus-gold", 16, 4, 32),
        ("mus-gold", 12, 4, 32), ("mus-gold", 16, 2, 64),
        ("mus-cor9", 12, 2, 64), ("mus-cor9", 14, 3, 48), ("mus-cor9", 16, 4, 32),
        ("mus-cor9", 12, 4, 32), ("mus-cor9", 16, 2, 64),
        ("lambdas", 12, 1, 48), ("lambdas", 14, 1, 48), ("lambdas", 16, 1, 48),
        ("lambdas", 12, 3, 48), ("lambdas", 16, 2, 48),
        ("alphas-trace", 12, 1, 256), ("alphas-dot", 13, 2, 256), ("alphas-trace", 14, 2, 256),
        ("alphas-dot", 15, 3, 256), ("alphas-trace", 16, 3, 256),
        ("fingerprint", 8, 0, 0), ("fingerprint", 8, 0, 0), ("fingerprint", 10, 0, 0),
    )

    def _op(self, rng, i, k, slot) -> Op:
        kind, n, p, limit = slot
        while True:
            op = self._draw(rng, i, k, kind, n, p, limit)
            if op is not None:
                return op

    def _draw(self, rng, i, k, kind, n, p, limit):
        bk = self.bk
        label = f"{kind} n={n}"
        if kind == "mus-sd":
            m = n // 2
            _, f_dual = mm_pair(m, _perm(rng, m), _bits(rng, 1 << m))
            path = self._write(self._path(i, k, "fstar.tt"), table_text(f_dual))
            # a cursor of high-half directions: the tuples after it stay in
            # the high half, where the dual's second derivatives vanish
            top = (1 << m) - 1 - 2 * limit
            highs = sorted(rng.sample(range(1, top), p))
            cursor = tuple(b << m for b in highs)
            argv = ["search", "mus", "--mode", "second-derivative", "--r", str(p), "--limit", str(limit),
                    "--cursor", _hex_tuple(cursor), "--f-star", path]
            data = {"mode": "second-derivative", "n": n, "r": p, "limit": limit, "cursor": cursor, "f": path}
            return Op(label, argv, "mus", data)
        if kind in ("mus-gold", "mus-cor9"):
            spec = self._field(n)
            cursor = self._cursor(rng, n, p)
            if kind == "mus-gold":
                t = 1
                lam = self._gold_lambda(rng, spec, t)
                extra = ["--mode", "gold-trace", "--n", str(n), "--t", str(t), "--lambda", _hx(lam)]
                data = {"mode": "gold-trace", "t": t, "lam": lam}
            else:
                theta = rng.choice([s for s in bk.gf2n.subfield_elements(n // 2, spec) if s])
                extra = ["--mode", "cor9-trace", "--n", str(n), "--theta", _hx(theta)]
                data = {"mode": "cor9-trace", "theta": theta}
            if not self._fresh((kind, n, cursor, *data.values())):
                return None
            argv = ["search", "mus", *extra, "--r", str(p), "--limit", str(limit), "--cursor", _hex_tuple(cursor)]
            data.update(n=n, r=p, limit=limit, cursor=cursor)
            return Op(label, argv, "mus", data)
        if kind == "lambdas":
            cursor = rng.randrange(1 << (n - 1))
            if not self._fresh((kind, n, p, cursor)):
                return None
            argv = ["search", "lambdas", "--n", str(n), "--t", str(p), "--limit", str(limit), "--cursor", _hx(cursor)]
            return Op(label, argv, "lambdas", {"n": n, "t": p, "limit": limit, "cursor": cursor})
        if kind.startswith("alphas"):
            mus = tuple(sorted(rng.sample(range(1, 1 << n), p)))
            pairing = kind.split("-")[1]
            if not self._fresh((kind, n, mus)):
                return None
            argv = ["search", "alphas", "--n", str(n), "--mus", _hex_tuple(mus), "--limit", str(limit),
                    "--pairing", pairing]
            return Op(label, argv, "alphas", {"n": n, "mus": mus, "limit": limit, "trace": pairing == "trace"})
        path = self._write(self._path(i, k, "fp.tt"), table_text(_bits(rng, 1 << n)))
        return Op(label, ["fingerprint", "--in", path], "fingerprint", {"n": n, "f": path})


WORKLOADS = {w.name: w for w in (FamilyBuild, SpectralCheck, ParamSearch)}
