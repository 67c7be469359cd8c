"""Seeded inputs for the three workloads, and the check of every op's output.

An op is one ``zetasolve`` CLI call: its argv, the JSON text it reads on
stdin, and a check that parses its stdout and compares it with a reference
the benchmark computes itself (``oracles``).  Each workload is a cycle of
op *slots*; the seed shuffles the slots within each cycle and draws the
forms, systems and s points, so every seed runs the same mix of op kinds
and sizes.  Warm-up ops come from a stream that no seed reaches, so their
cost does not depend on the seed and no timed op repeats them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

# Tolerances: the acceptance-suite ones for residues and solves, and a
# relative bound for zeta values.
ZETA_TOL = 1e-6        # |value - ref| <= ZETA_TOL * max(|ref|, 1)
FUNCEQ_TOL = 1e-8      # |lhs - rhs| <= FUNCEQ_TOL * max(|lhs|, |rhs|)
RESIDUE_TOL = 1e-7     # numeric residues, relative
MC_TOL = 1e-2          # Monte Carlo solves, relative to max |x_ref|
DET_TOL = 1e-8         # deterministic quadrature solves, relative to max |x_ref|

_WARMUP_STREAM = 1
_TIMED_STREAM = 0
_POOL = 8              # forms kept per slot for revisits
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Outcome:
    """What the check of one op found."""

    rel_err: float
    claims: list = field(default_factory=list)  # (actual error, claimed error)
    cause: str | None = None                    # None when the op passed


@dataclass
class Op:
    op_id: str
    slot: str
    argv: list
    stdin: str
    check: Callable[[str], Outcome]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed) % 2 ** 63, stream]))


def _fail(cause: str) -> Outcome:
    return Outcome(rel_err=math.inf, cause=cause)


def _within(rel: float, tol: float, what: str) -> str | None:
    if not math.isfinite(rel) or rel > tol:
        return f"{what}: relative error {rel:.3e} above {tol:.0e}"
    return None


def _json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Workload:
    """A cycle of slots; ``make(slot, rng, op_id)`` builds one op."""

    name = ""
    slots: tuple = ()
    warmup_slots: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.pools: dict[str, deque] = {}
        self.counters: dict[str, int] = {}
        self.phase = "timed"

    def ops(self):
        """Endless stream of timed ops."""
        rng = _rng(self.seed, _TIMED_STREAM)
        k = 0
        while True:
            for idx in rng.permutation(len(self.slots)):
                yield self.make(self.slots[idx], rng, f"{self.name}:{k}")
                k += 1

    def warmup(self) -> list[Op]:
        """Fixed warm-up ops; their forms never enter the timed pools."""
        rng = _rng(2 ** 40 + 7, _WARMUP_STREAM)
        saved = self.pools, self.counters
        self.pools, self.counters, self.phase = {}, {}, "warmup"
        try:
            return [self.make(slot, rng, f"{self.name}:warmup{i}")
                    for i, slot in enumerate(self.warmup_slots)]
        finally:
            (self.pools, self.counters), self.phase = saved, "timed"

    def _count(self, key: str) -> int:
        k = self.counters.get(key, 0)
        self.counters[key] = k + 1
        return k

    def form(self, key: str, rng: np.random.Generator, build: Callable):
        """A new form for the pool ``key`` on even calls, a pooled one on odd calls."""
        pool = self.pools.setdefault(key, deque(maxlen=_POOL))
        if pool and self._count(key) % 2:
            return pool[int(self.spread(key + "/revisit") * len(pool))]
        f = build()
        pool.append(f)
        return f

    def spread(self, key: str) -> float:
        """Next point in [0, 1) of a golden-ratio sequence, the same for every seed.

        Sizes, form families and revisits drawn this way cover their range
        evenly within a few ops, and every seed runs the same sequence of
        them; the seed draws the forms, systems and points of each size.  So
        the mix of op costs varies between seeds only through inputs of the
        same size, which keeps the timing metrics of runs on different seeds
        comparable.
        """
        start = zlib.crc32(f"{self.phase}/{key}".encode()) / 2.0 ** 32
        return (start + self._count("spread/" + key) * _GOLDEN) % 1.0

    def make(self, slot: str, rng: np.random.Generator, op_id: str) -> Op:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# zeta-grid
# ---------------------------------------------------------------------------

def _unimodular(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integer matrix of determinant +-1: a few shears and a signed permutation."""
    u = np.eye(n)
    if n > 1:
        first = rng.integers(n, size=3)
        second = (first + 1 + rng.integers(n - 1, size=3)) % n   # never equal to first
        for i, j, sign in zip(first, second, 2 * rng.integers(2, size=3) - 1):
            u[:, i] += sign * u[:, j]
    return u[:, rng.permutation(n)] * (2 * rng.integers(2, size=n) - 1)


def _well_conditioned(rng: np.random.Generator, q0: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unimodular W with (VW)^T Q0 (VW) of condition number at most 6.

    Bounding the condition keeps enumeration sizes, and so op costs and
    peak memory, within a narrow band for every seed.
    """
    while True:
        w = _unimodular(rng, q0.shape[0])
        m = v @ w
        if np.linalg.cond(m.T @ q0 @ m) <= 6.0:
            return w


def _generic_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real SPD form with det 1 and eigenvalues within a factor 4."""
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), n))
    lam /= np.prod(lam) ** (1.0 / n)
    q = r @ np.diag(lam) @ r.T
    return (q + q.T) / 2.0


def _generic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Real matrix with |det| = 1 and singular values within a factor 2."""
    r1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    r2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sig = np.exp(rng.uniform(-0.35, 0.35, n))
    sig /= np.prod(sig) ** (1.0 / n)
    return r1 @ np.diag(sig) @ r2.T


def _pick(options, u: float):
    return options[int(u * len(options))]


def _sym(m: np.ndarray) -> list:
    return ((m + m.T) / 2.0).tolist()


class ZetaGrid(Workload):
    """Oracle forms through ``zeta``/``scan``; generic forms through ``funceq``."""

    name = "zeta-grid"
    # Slots in cost bands (cheapest first).  About 12 of 32 ops per cycle
    # cost under 7 ms (the lattice, weighted, scan and vector slots build a
    # cold I4 form on some of their ops and then cost 20-90 ms), 7 fall in
    # the 7-13 ms band of n = 2 funceq ops, and 13 cost more, so the median
    # latency falls near the middle of that narrow band; the top 10% of
    # ops fall inside the fe-weighted:4 band.  A boundary between op kinds
    # at either quantile would move it by a factor of two between seeds.
    # 14 of 32 slots use oracle forms.
    slots = ("epstein:one", "epstein:one", "epstein:I2", "epstein:I2", "epstein:hex",
             "epstein:hex", "lattice", "lattice", "weighted", "weighted", "scan", "scan",
             "vector", "fe-lattice:2", "fe-lattice:2",
             "fe-weighted:2", "fe-weighted:2", "fe-weighted:2", "fe-vector:2", "fe-vector:2",
             "fe-vector:2", "fe-vector:2",
             "fe-lattice:3", "epstein:I4", "fe-vector:3", "fe-weighted:3", "fe-lattice:4",
             "fe-weighted:4", "fe-weighted:4", "fe-weighted:4", "fe-weighted:4",
             "fe-weighted:4")
    warmup_slots = ("epstein:I2", "weighted", "lattice", "vector", "scan",
                    "fe-lattice:3", "fe-weighted:2", "fe-vector:2")

    LARGE_IM_SHARE = 0.15       # points drawn from the large-|Im s| band
    LARGE_IM = (6.0, 12.0)

    def _s_point(self, rng, pole: float) -> complex:
        large = self.spread("large-im") < self.LARGE_IM_SHARE
        while True:
            re = rng.uniform(-1.5, pole + 2.5)
            if large:
                im = rng.choice((-1.0, 1.0)) * rng.uniform(*self.LARGE_IM)
            else:
                im = rng.uniform(-3.0, 3.0)
            s = complex(re, im)
            if abs(s - pole) >= 0.3:
                return s

    def _fe_point(self, rng, n: int) -> complex:
        im = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
        return complex(rng.uniform(-1.0, n / 2.0 + 1.5), im)

    def _oracle_form(self, rng, base: str) -> dict:
        n, q0, _ = oracles.BASES[base]
        u = _well_conditioned(rng, q0, np.eye(n))
        c = math.exp(rng.uniform(math.log(0.6), math.log(1.6)))
        return {"base": base, "n": n, "c": c, "u": u, "q": c * (u.T @ q0 @ u)}

    def make(self, slot, rng, op_id):
        kind, _, arg = slot.partition(":")
        if kind.startswith("fe-"):
            return self._funceq(slot, kind[3:], int(arg), rng, op_id)
        if kind == "scan":
            return self._scan(slot, rng, op_id)
        if kind == "vector":
            def build():
                f = self._oracle_form(rng, _pick(oracles.CUBIC, self.spread(slot)))
                return f | {"b": rng.standard_normal(f["n"])}
            f = self.form(slot, rng, build)
            n, b = f["n"], f["b"]
            pts = [self._s_point(rng, n / 2.0 + 1.0) for _ in range(3)]
            payload = {"A": (f["c"] * f["u"]).tolist(), "b": b.tolist(),
                       "s_list": [[s.real, s.imag] for s in pts]}

            def check(out: str) -> Outcome:
                recs = _json_lines(out)
                if len(recs) != n * len(pts):
                    return _fail(f"expected {n * len(pts)} records, got {len(recs)}")
                worst, claims = 0.0, []
                for k, s in enumerate(pts):
                    ref = oracles.vector_zeta_ref(f["base"], f["c"], f["u"], b, s)
                    scale = max(float(np.max(np.abs(ref))), 1.0)
                    for j in range(n):
                        rec = recs[k * n + j]
                        err = abs(complex(rec["value_re"], rec["value_im"]) - ref[j])
                        worst = max(worst, err / scale)
                        claims.append((err, rec["abs_error"]))
                return Outcome(worst, claims, _within(worst, ZETA_TOL, "vector zeta"))

            return Op(op_id, slot, ["zeta", "-i", "-"], json.dumps(payload), check)

        # Epstein, weighted and lattice families evaluated by `zeta`
        payload, ref, pole = self._scalar_family(slot, kind, arg, rng)
        pts = [self._s_point(rng, pole) for _ in range(3)]
        payload["s_list"] = [[s.real, s.imag] for s in pts]

        def check(out: str) -> Outcome:
            recs = _json_lines(out)
            if len(recs) != len(pts):
                return _fail(f"expected {len(pts)} records, got {len(recs)}")
            return _scalar_outcome(
                [(complex(r["value_re"], r["value_im"]), r["abs_error"]) for r in recs],
                [ref(s) for s in pts])

        return Op(op_id, slot, ["zeta", "-i", "-"], json.dumps(payload), check)

    def _scalar_family(self, slot, kind, arg, rng):
        """Payload (without s), reference function and pole of one scalar family."""
        key = f"{slot}/{kind}"
        if kind == "epstein":
            f = self.form(f"{key}/{arg}", rng, lambda: self._oracle_form(rng, arg))
            return ({"Q": _sym(f["q"])},
                    lambda s: oracles.transported_zeta(f["base"], f["c"], s), f["n"] / 2.0)
        base = _pick(list(oracles.BASES), self.spread(key))
        if kind == "weighted":
            f = self.form(key, rng, lambda: self._oracle_form(rng, base)
                          | {"beta": rng.uniform(0.5, 2.0)})
            return ({"Q": _sym(f["q"]), "B": _sym(f["beta"] * f["q"])},
                    lambda s: f["beta"] * oracles.transported_zeta(f["base"], f["c"], s - 1.0),
                    f["n"] / 2.0 + 1.0)
        # lattice: zeta_L(Q, s) = zeta(L^T Q L, s); with L = lam W and
        # Q = c V^T Q0 V this is zeta(lam^2 c (VW)^T Q0 (VW), s)
        def build():
            f = self._oracle_form(rng, base)
            w = _well_conditioned(rng, oracles.BASES[base][1], f["u"])
            lam = rng.uniform(0.8, 1.25)
            return f | {"gen": lam * w, "c_eff": lam * lam * f["c"],
                        "beta": (rng.uniform(0.5, 2.0)
                                 if self.spread(key + "/beta") < 0.5 else None)}
        f = self.form(key, rng, build)
        payload = {"Q": _sym(f["q"]), "lattice": f["gen"].tolist()}
        if f["beta"] is None:
            return (payload, lambda s: oracles.transported_zeta(f["base"], f["c_eff"], s),
                    f["n"] / 2.0)
        payload["B"] = _sym(f["beta"] * f["q"])
        return (payload,
                lambda s: f["beta"] * oracles.transported_zeta(f["base"], f["c_eff"], s - 1.0),
                f["n"] / 2.0 + 1.0)

    def _scan(self, slot, rng, op_id):
        kind = _pick(("epstein", "weighted", "lattice"), self.spread(slot))
        arg = _pick(list(oracles.BASES), self.spread(slot + "/base"))
        payload, ref, pole = self._scalar_family(slot, kind, arg, rng)
        steps = 4
        while True:
            start = self._s_point(rng, pole)
            end = start + complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            pts = [start + k / (steps - 1) * (end - start) for k in range(steps)]
            if all(abs(s - pole) >= 0.3 for s in pts):
                break
        payload |= {"s_start": [start.real, start.imag], "s_end": [end.real, end.imag],
                    "steps": steps}

        def check(out: str) -> Outcome:
            rows = list(csv.DictReader(io.StringIO(out)))
            if len(rows) != steps:
                return _fail(f"expected {steps} scan rows, got {len(rows)}")
            got = []
            for row, s in zip(rows, pts):
                if row["flag"] != "0":
                    return _fail(f"scan flagged a pole at s={s}")
                if abs(complex(float(row["re_s"]), float(row["im_s"])) - s) > 1e-12 * abs(s) + 1e-12:
                    return _fail(f"scan row at {row['re_s']},{row['im_s']} is not s={s}")
                got.append((complex(float(row["re_zeta"]), float(row["im_zeta"])),
                            float(row["abs_err"])))
            return _scalar_outcome(got, [ref(s) for s in pts])

        return Op(op_id, slot, ["scan", "-i", "-", "-o", "csv"], json.dumps(payload), check)

    def _funceq(self, slot, family, n, rng, op_id):
        def build():
            if family == "vector":
                return {"A": _generic_matrix(rng, n).tolist(),
                        "b": rng.standard_normal(n).tolist(),
                        "c": rng.standard_normal(n).tolist()}
            f = {"Q": _generic_spd(rng, n).tolist()}
            if family == "weighted":
                m = rng.standard_normal((n, n))
                f["B"] = _sym(m)
            if self.spread(slot + "/lattice") < 0.5:
                f["lattice"] = _generic_matrix(rng, n).tolist()
            return f
        f = self.form(slot, rng, build)
        pts = [self._fe_point(rng, n) for _ in range(1 if n == 4 else 2)]
        payload = dict(f, family=family, s_list=[[s.real, s.imag] for s in pts])

        def check(out: str) -> Outcome:
            recs = _json_lines(out)
            if len(recs) != len(pts):
                return _fail(f"expected {len(pts)} records, got {len(recs)}")
            worst = 0.0
            for rec in recs:
                lhs = complex(rec["lhs_re"], rec["lhs_im"])
                rhs = complex(rec["rhs_re"], rec["rhs_im"])
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
            return Outcome(worst, [], _within(worst, FUNCEQ_TOL, "functional equation"))

        return Op(op_id, slot, ["funceq", "-i", "-"], json.dumps(payload), check)


def _scalar_outcome(got: list, refs: list) -> Outcome:
    worst, claims = 0.0, []
    for (value, claimed), ref in zip(got, refs):
        err = abs(value - ref)
        worst = max(worst, err / max(abs(ref), 1.0))
        claims.append((err, claimed))
    return Outcome(worst, claims, _within(worst, ZETA_TOL, "zeta value"))


# ---------------------------------------------------------------------------
# residue-solve
# ---------------------------------------------------------------------------

def _integer_system(rng, n: int, lo: float, hi: float, u: float) -> np.ndarray:
    """Integer matrix with Gram determinant det(A)^2 in [lo, hi] and condition
    number at most 4; |det A| is the integer at position u of a log scale."""
    dlo, dhi = math.ceil(math.sqrt(lo)), math.floor(math.sqrt(hi))
    d = min(dhi, max(dlo, round(dlo * (dhi / dlo) ** u)))
    k = max(2, math.ceil(1.5 * d ** (1.0 / n)))
    while True:   # candidates in batches; the first that qualifies is taken
        batch = rng.integers(-k, k + 1, size=(256, n, n))
        ok = np.abs(np.rint(np.linalg.det(batch))) == d
        ok[ok] = np.linalg.cond(batch[ok]) <= 4.0
        if ok.any():
            return batch[int(np.argmax(ok))]


def _nonzero_int_vector(rng, n: int) -> np.ndarray:
    while True:
        b = rng.integers(-5, 6, size=n)
        if b.any():
            return b


class ResidueSolve(Workload):
    """Contour residues of the continued zeta families on integer systems."""

    name = "residue-solve"
    # slot: kind:n:lo:hi (Gram determinant range).  70% of the slots cost
    # 100-150 ms at the median, so the median latency falls inside that
    # band and not in the gap below the 3x3 and large-determinant slots.
    slots = ("res-weighted:2:10:300",) * 3 + ("solve:2:10:100",) * 5 \
        + ("res-vector:2:10:1000",) * 3 + ("res-epstein:2:10:10000",) * 3 \
        + ("res-weighted:3:10:100", "solve:3:10:60", "solve:3:10:60",
           "res-epstein:3:10:1000", "res-epstein:3:10:1000", "solve:2:100:1000")
    warmup_slots = ("solve:2:10:100", "res-vector:2:10:1000", "res-epstein:3:10:1000")

    def make(self, slot, rng, op_id):
        kind, n, lo, hi = slot.split(":")
        n, lo, hi = int(n), float(lo), float(hi)
        a = _integer_system(rng, n, lo, hi, self.spread(slot))
        b = _nonzero_int_vector(rng, n)
        if kind == "solve":
            payload = {"A": a.tolist(), "b": b.tolist(), "route": "numeric_residue",
                       "tolerance": RESIDUE_TOL}
            return Op(op_id, slot, ["solve", "-i", "-"], json.dumps(payload),
                      lambda out: _solve_outcome(out, oracles.exact_solve(a, b),
                                                 RESIDUE_TOL, "numeric residue solve"))
        if kind == "res-vector":
            payload = {"A": a.tolist(), "b": b.tolist()}
            ref = lambda: oracles.vector_residue_ref(a.tolist(), b.tolist())  # noqa: E731
        else:
            q = (a.T @ a).tolist()
            payload = {"Q": q}
            if kind == "res-epstein":
                ref = lambda: oracles.epstein_residue_ref(q)  # noqa: E731
            else:
                bm = self._weight(rng, a.T @ a)
                payload["B"] = bm
                ref = lambda: oracles.weighted_residue_ref(q, bm)  # noqa: E731

        def check(out: str) -> Outcome:
            recs = _json_lines(out)
            if [r.get("source") for r in recs] != ["analytic", "numeric"]:
                return _fail("expected an analytic and a numeric residue record")
            want = np.atleast_1d(ref())
            scale = float(np.max(np.abs(want)))
            worst = max(float(np.max(np.abs(np.atleast_1d(r["residue"]) - want))) / scale
                        for r in recs)
            return Outcome(worst, [], _within(worst, RESIDUE_TOL, f"{kind} residue"))

        return Op(op_id, slot, ["residue", "-i", "-"], json.dumps(payload), check)

    @staticmethod
    def _weight(rng, q: np.ndarray) -> list:
        """Integer symmetric weight whose residue is not a near-cancellation."""
        n = q.shape[0]
        qinv = np.linalg.inv(q)
        while True:
            m = rng.integers(-2, 3, size=(n, n))
            bm = m + m.T
            if bm.any() and abs(np.trace(qinv @ bm)) >= 0.25 * np.trace(qinv) * np.max(np.abs(bm)):
                return bm.tolist()


def _solve_outcome(out: str, x_ref, tol: float, what: str) -> Outcome:
    rep = json.loads(out)
    x = np.array(rep["x"]["v"], dtype=float)
    ref = np.array([float(v) for v in x_ref])
    err = np.abs(x - ref)
    scale = float(np.max(np.abs(ref)))
    claims = []
    if rep.get("x_error3sigma") is not None:
        claims = list(zip(err.tolist(), rep["x_error3sigma"]["v"]))
    worst = float(np.max(err)) / scale
    return Outcome(worst, claims, _within(worst, tol, what))


# ---------------------------------------------------------------------------
# sphere-solve
# ---------------------------------------------------------------------------

def _real_system(rng, n: int, max_cond: float):
    """As in the acceptance suite: random rotations around a geometric spectrum."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    cond = rng.uniform(1.0, max_cond)
    sing = np.geomspace(1.0, 1.0 / cond, n) * rng.uniform(0.5, 2.0)
    return u @ np.diag(sing) @ v.T, rng.standard_normal(n)


class SphereSolve(Workload):
    """Sphere-integral solves: Monte Carlo, product-Gauss and circle trapezoid."""

    name = "sphere-solve"
    # slot: method:n:nodes_lo:nodes_hi:max_cond.  Monte Carlo runs at 10^6
    # samples only: at 10^5 the 3-sigma bar is 0.8e-2 to 2e-2 for n = 2..8,
    # above the largest tolerance the CLI accepts (1e-2), so such ops fail.
    # Slots in cost bands (cheapest first): the median falls inside the
    # product-Gauss n = 4 band (39-61% of ops) and p90 inside the Monte
    # Carlo n = 8 band (86-100%), not on a boundary between op kinds, whose
    # costs are set by n and the node count.
    slots = ("circle_trapezoid:2:1024:4096:20",) * 6 + ("product_gauss:3:32:48:1.5",) * 5 \
        + ("product_gauss:4:44:48:1.5",) * 6 + ("product_gauss:5:20:32:1.25",) \
        + tuple(f"monte_carlo:{n}:1000000:1000000:1.5" for n in range(2, 8)) \
        + ("monte_carlo:8:1000000:1000000:1.5",) * 4
    warmup_slots = ("monte_carlo:8:1000000:1000000:1.5", "product_gauss:5:32:32:1.25",
                    "product_gauss:3:32:48:1.5", "circle_trapezoid:2:1024:4096:20")

    def make(self, slot, rng, op_id):
        method, n, lo, hi, max_cond = slot.split(":")
        n, lo, hi, max_cond = int(n), int(lo), int(hi), float(max_cond)
        if method == "monte_carlo":
            nodes = lo
        else:
            nodes = 4 * int(lo // 4 + self.spread(slot) * (hi // 4 - lo // 4 + 1))
        a, b = _real_system(rng, n, max_cond)
        tol = MC_TOL if method == "monte_carlo" else DET_TOL
        payload = {"A": a.tolist(), "b": b.tolist(), "route": "integrals",
                   "quadrature": {"method": method, "nodes": nodes,
                                  "seed": int(rng.integers(2 ** 31))},
                   "tolerance": tol}
        return Op(op_id, slot, ["solve", "-i", "-"], json.dumps(payload),
                  lambda out: _solve_outcome(out, oracles.float_solve(a, b), tol,
                                             f"{method} solve"))


WORKLOADS = {w.name: w for w in (ZetaGrid, ResidueSolve, SphereSolve)}
