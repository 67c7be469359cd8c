"""Command-line front end.

One entry point (``zetasolve``) with subcommands::

    zeta     evaluate Epstein / weighted / lattice / vector zeta values
    theta    evaluate theta series
    residue  analytic and contour residues of the zeta families
    funceq   functional-equation residuals
    solve    solve A x = b via residues / sphere integrals / contour residues
    verify   run the built-in identity suite (or user cases)
    bench    crude timings of the main evaluators
    scan     CSV of zeta values along a segment in the s-plane

All numerical configuration lives in the JSON input file; flags only select
paths, output format, and the random seed.  Records are emitted on stdout
(JSON lines or CSV), diagnostics on stderr.  The points of one ``zeta``,
``scan``, ``funceq`` or ``verify`` case request are evaluated as one batch.

Exit codes: 0 ok; 2 validation error; 3 pole; 4 verification or tolerance
failure, or an evaluation that failed or ran out of memory; 5 singular matrix.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .errors import (
    DegenerateGrid,
    DegenerateQuadrature,
    DimensionMismatch,
    EvaluationFailure,
    NonFiniteIntegrand,
    NonPositiveX,
    NotPositiveDefinite,
    NotSymmetric,
    OutsideConvergence,
    PoleOfGamma,
    SingularMatrix,
    TooCloseToPole,
    TooManyPoints,
    ValidationError,
)
from .quadforms import Lattice, matrix_from_json, vector_from_json
from .solver import (
    numeric_residue_solve,
    solve_via_integrals,
    solve_via_residues,
)
from .spherequad import QuadratureSpec
from .theta import theta_star_gaussian, theta_star_weighted
from .tolerances import POLE_EXCLUSION
from .verify import run_default_suite
from .zeta import (
    PoleReport,
    epstein_continued,
    funceq_residual_lattice,
    funceq_residual_vector,
    funceq_residual_weighted,
    lattice_weighted_zeta,
    lattice_zeta,
    residue_epstein,
    residue_numeric,
    residue_vector,
    residue_weighted,
    vector_zeta,
    weighted_continued,
)

_EXIT_OK = 0
_EXIT_VALIDATION = 2
_EXIT_POLE = 3
_EXIT_TOLERANCE = 4
_EXIT_SINGULAR = 5

_VALIDATION_ERRORS = (
    ValidationError,
    DimensionMismatch,
    NotSymmetric,
    NotPositiveDefinite,
    OutsideConvergence,
    NonPositiveX,
    DegenerateGrid,
    NonFiniteIntegrand,
    TooManyPoints,
)
_POLE_ERRORS = (TooCloseToPole, PoleOfGamma)

MAX_SCAN_STEPS = 10_000
MAX_BENCH_REPEAT = 100
# Quadrature caps for ``solve``: directions times n (2^24 doubles) and the
# product-Gauss order per polar angle (a dense O(nodes^3) eigenproblem).  They
# bound run time, not memory, which chunked evaluation bounds.  Monte Carlo
# 10^6 at n = 8 and product-Gauss 32 at n = 5 (2 * 32^4 directions) fit.
MAX_QUADRATURE_ENTRIES = 2 ** 24
MAX_GAUSS_ORDER = 256


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _load_input(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read input: {exc}") from exc
    except ValueError as exc:  # bad JSON, bad UTF-8, over-long integer literals
        raise ValidationError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("input must be a JSON object")
    return data


def _check_keys(data: dict, allowed: set[str], command: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(f"unknown fields for {command}: {sorted(unknown)}")


def _field(data: dict, key: str, command: str):
    if key not in data:
        raise ValidationError(f"{command} needs '{key}'")
    return data[key]


def _number(obj, what: str) -> float:
    """A finite JSON number as a float (booleans are not numbers)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        try:
            x = float(obj)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ValidationError(f"{what} must be a finite number, got {obj!r}")


def _count(obj, what: str, limit: int) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or not 1 <= obj <= limit:
        raise ValidationError(f"{what} must be an integer in [1, {limit}], got {obj!r}")
    return obj


def _parse_s(obj) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_number(obj, "s"), 0.0)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_number(obj[0], "re s"), _number(obj[1], "im s"))
    if isinstance(obj, dict) and set(obj) <= {"re", "im"} and "re" in obj:
        return complex(_number(obj["re"], "re s"), _number(obj.get("im", 0.0), "im s"))
    raise ValidationError(f"cannot parse s value: {obj!r}")


def _one_or_list(data: dict, key: str, parse: Callable) -> list:
    """The values of exactly one of ``key`` (a value) or ``key_list`` (a
    non-empty list of values), each read by ``parse``."""
    many = f"{key}_list"
    if (key in data) == (many in data):
        raise ValidationError(f"provide exactly one of '{key}' or '{many}'")
    if key in data:
        return [parse(data[key])]
    if not isinstance(data[many], list) or not data[many]:
        raise ValidationError(f"{many} must be a non-empty list")
    return [parse(v) for v in data[many]]


def _parse_tolerance(data: dict, default: float) -> float:
    tol = _number(data.get("tolerance", default), "tolerance")
    if not 1e-14 <= tol <= 1e-2:
        raise ValidationError(f"tolerance must lie in [1e-14, 1e-2], got {tol}")
    return tol


@dataclass(frozen=True)
class _Family:
    """A zeta family bound to its operands."""

    name: str                        # "epstein", "weighted" or "vector"
    evaluate: Callable               # s -> ZetaValue (vector: list of ZetaValue)
    pole: float
    residue: Callable[[], PoleReport]  # closed-form residue at the pole


def _lattice(data: dict, n: int) -> Lattice:
    """The optional ``lattice`` operand; Z^n when it is absent."""
    return Lattice(matrix_from_json(data["lattice"]) if "lattice" in data else np.eye(n))


def _zeta_family(data: dict, command: str) -> _Family:
    """The family named by the operands: ``A, b`` for the vector zeta, else
    ``Q`` with an optional weight ``B`` and an optional ``lattice``."""
    if "A" in data:
        if data.keys() & {"Q", "B", "lattice"}:
            raise ValidationError("vector zeta takes A and b only")
        a = matrix_from_json(data["A"])
        b = vector_from_json(_field(data, "b", command))
        return _Family("vector", lambda s: vector_zeta(a, b, s),
                       a.shape[0] / 2.0 + 1.0, lambda: residue_vector(a, b))
    q = matrix_from_json(_field(data, "Q", command))
    n = q.shape[0]
    lat = _lattice(data, n)
    if "B" in data:
        bmat = matrix_from_json(data["B"])
        return _Family("weighted", lambda s: lattice_weighted_zeta(lat, q, bmat, s),
                       n / 2.0 + 1.0, lambda: residue_weighted(lat, q, bmat))
    return _Family("epstein", lambda s: lattice_zeta(lat, q, s), n / 2.0,
                   lambda: residue_epstein(lat, q))


# the operand fields each functional-equation family reads
_FUNCEQ_OPERANDS = {
    "lattice": {"Q", "lattice"},
    "weighted": {"Q", "B", "lattice"},
    "vector": {"A", "b", "c"},
}
_FUNCEQ_COMMON = {"family", "s", "s_list"}
_FUNCEQ_FIELDS = _FUNCEQ_COMMON.union(*_FUNCEQ_OPERANDS.values())


def _funceq_request(data: dict, command: str):
    """Parse a functional-equation request; returns (family, residual fn, points)."""
    family = data.get("family")
    if not isinstance(family, str) or family not in _FUNCEQ_OPERANDS:
        raise ValidationError("family must be one of lattice / weighted / vector")
    unread = data.keys() & (_FUNCEQ_FIELDS - _FUNCEQ_COMMON - _FUNCEQ_OPERANDS[family])
    if unread:
        raise ValidationError(f"the {family} family does not take {sorted(unread)}")
    points = _one_or_list(data, "s", _parse_s)
    if family == "vector":
        a = matrix_from_json(_field(data, "A", command))
        b = vector_from_json(_field(data, "b", command))
        c = vector_from_json(_field(data, "c", command))
        return family, lambda s: funceq_residual_vector(a, b, c, s), points
    q = matrix_from_json(_field(data, "Q", command))
    lat = _lattice(data, q.shape[0])
    if family == "weighted":
        bmat = matrix_from_json(_field(data, "B", command))
        return family, lambda s: funceq_residual_weighted(lat, q, bmat, s), points
    return family, lambda s: funceq_residual_lattice(lat, q, s), points


def _parse_quadrature(obj, n: int, seed_override: int | None) -> QuadratureSpec:
    if obj is None:
        if n == 2:
            method, nodes = "circle_trapezoid", 1024
        elif 3 <= n <= 5:
            method, nodes = "product_gauss", 48
        else:
            method, nodes = "monte_carlo", 10 ** 6
        obj = {"method": method, "nodes": nodes}
    if not isinstance(obj, dict):
        raise ValidationError("quadrature must be an object")
    _check_keys(obj, {"method", "nodes", "seed"}, "quadrature")
    if "method" not in obj or "nodes" not in obj:
        raise ValidationError("quadrature needs 'method' and 'nodes'")
    seed = obj.get("seed", 0)
    if seed_override is not None:
        seed = seed_override
    spec = QuadratureSpec(method=obj["method"], nodes=obj["nodes"], seed=seed)
    if spec.method == "product_gauss":
        _count(spec.nodes, "product_gauss nodes", MAX_GAUSS_ORDER)
        directions = 2 * spec.nodes ** (n - 1)
    else:
        directions = spec.nodes
    if directions * n > MAX_QUADRATURE_ENTRIES:
        raise ValidationError(
            f"quadrature has {directions} directions in n = {n}; directions times n "
            f"must be at most {MAX_QUADRATURE_ENTRIES}"
        )
    return spec


def _emit_records(records: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for rec in records:
            out.write(json.dumps(rec, sort_keys=True) + "\n")
        return
    if not records:
        return
    cols = list(records[0].keys())
    out.write(",".join(cols) + "\n")
    for rec in records:
        cells = []
        for c in cols:
            v = rec.get(c, "")
            if isinstance(v, float):
                cells.append(_fmt(v))
            elif isinstance(v, (list, tuple)):
                cells.append(";".join(_fmt(x) for x in v))
            else:
                cells.append(str(v))
        out.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_zeta(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, {"Q", "B", "lattice", "A", "b", "s", "s_list"}, "zeta")
    points = _one_or_list(data, "s", _parse_s)
    got = _zeta_family(data, "zeta").evaluate(np.array(points))
    vector = isinstance(got, list)
    records = []
    for k, s in enumerate(points):
        for j, zv in enumerate(got if vector else [got]):
            rec = {"s": [s.real, s.imag]}
            if vector:
                rec["component"] = j + 1
            rec.update(value_re=zv.value[k].real, value_im=zv.value[k].imag,
                       abs_error=zv.abs_error[k])
            records.append(rec)
    _emit_records(records, args.format, sys.stdout)
    return _EXIT_OK


def _cmd_theta(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, {"Q", "B", "t", "t_list", "tol"}, "theta")
    q = matrix_from_json(_field(data, "Q", "theta"))
    bmat = matrix_from_json(data["B"]) if "B" in data else None
    ts = _one_or_list(data, "t", lambda t: _number(t, "t"))
    tol = _number(data.get("tol", 1e-12), "tol")
    records = []
    for t in ts:
        if bmat is None:
            value = theta_star_gaussian(q, t, tol)
        else:
            value = theta_star_weighted(q, bmat, t, tol)
        records.append({"t": t, "value": value, "tol": tol})
    _emit_records(records, args.format, sys.stdout)
    return _EXIT_OK


def _residue_json(residue):
    value = np.asarray(residue).real
    return value.tolist() if value.ndim else float(value)


def _cmd_residue(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, {"Q", "B", "lattice", "A", "b", "numeric"}, "residue")
    want_numeric = data.get("numeric", True)
    if not isinstance(want_numeric, bool):
        raise ValidationError("numeric must be true or false")
    family = _zeta_family(data, "residue")
    reports = [family.residue()]
    if want_numeric:
        reports.append(residue_numeric(family.evaluate, family.pole))
    records = [{"family": family.name, "location": family.pole,
                "residue": _residue_json(rep.residue), "source": rep.source}
               for rep in reports]
    _emit_records(records, args.format, sys.stdout)
    return _EXIT_OK


def _cmd_funceq(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, _FUNCEQ_FIELDS, "funceq")
    family, residual, points = _funceq_request(data, "funceq")
    r = residual(np.array(points))
    records = [{
        "family": family, "s": [s.real, s.imag],
        "lhs_re": lhs.real, "lhs_im": lhs.imag,
        "rhs_re": rhs.real, "rhs_im": rhs.imag,
        "residual": res,
    } for s, lhs, rhs, res in zip(points, r.lhs.tolist(), r.rhs.tolist(),
                                  r.residual.tolist())]
    _emit_records(records, args.format, sys.stdout)
    return _EXIT_OK


def _cmd_solve(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, {"A", "b", "route", "quadrature", "tolerance"}, "solve")
    if "A" not in data or "b" not in data:
        raise ValidationError("solve needs 'A' and 'b'")
    a = matrix_from_json(data["A"])
    b = vector_from_json(data["b"])
    route = data.get("route", "residues")
    tol = _parse_tolerance(data, 1e-8)
    if route == "residues":
        report = solve_via_residues(a, b)
    elif route == "integrals":
        spec = _parse_quadrature(data.get("quadrature"), a.shape[0], args.seed)
        report = solve_via_integrals(a, b, spec)
    elif route == "numeric_residue":
        report = numeric_residue_solve(a, b)
    else:
        raise ValidationError(
            "route must be one of residues / integrals / numeric_residue"
        )
    sys.stdout.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    if report.max_rel_err >= tol:
        sys.stderr.write(
            f"max relative error {report.max_rel_err:.3e} exceeds tolerance {tol:.3e}\n"
        )
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _user_cases(cases, override: float | None) -> list[tuple[str, float, float]]:
    """Rows for user cases: each is a funceq request whose ``family`` is named
    by ``check`` (funceq_lattice / funceq_weighted / funceq_vector), plus an
    optional ``bound``; the row measures the worst residual over its points."""
    if not isinstance(cases, list) or not cases:
        raise ValidationError("cases must be a non-empty list")
    parsed = []
    for idx, case in enumerate(cases):
        where = f"verify case {idx}"
        if not isinstance(case, dict):
            raise ValidationError(f"{where} must be an object")
        _check_keys(case, _FUNCEQ_FIELDS - {"family"} | {"check", "bound"}, where)
        check = _field(case, "check", where)
        if check not in ("funceq_lattice", "funceq_weighted", "funceq_vector"):
            raise ValidationError(f"unknown check kind {check!r}")
        bound = _number(case.get("bound", 1e-8), f"{where} bound")
        _, residual, points = _funceq_request(
            dict(case, family=check.removeprefix("funceq_")), where)
        parsed.append((f"{check}[{idx}]", residual, points,
                       bound if override is None else override))
    return [(name, float(residual(np.array(points)).residual.max()), bound)
            for name, residual, points, bound in parsed]


def _cmd_verify(args) -> int:
    data = _load_input(args.input) if args.input else {}
    _check_keys(data, {"tolerance", "cases"}, "verify")
    override = None
    if "tolerance" in data:
        override = _number(data["tolerance"], "tolerance")
    if "cases" in data:
        rows = _user_cases(data["cases"], override)
    else:
        rows = run_default_suite(override)
    records = [{
        "check": name, "measured": measured, "bound": bound,
        "status": "pass" if measured < bound else "FAIL",
    } for name, measured, bound in rows]
    _emit_records(records, args.format, sys.stdout)
    failures = sum(1 for r in records if r["status"] == "FAIL")
    if failures:
        sys.stderr.write(f"{failures} of {len(records)} checks failed\n")
        return _EXIT_TOLERANCE
    return _EXIT_OK


def _cmd_bench(args) -> int:
    data = _load_input(args.input) if args.input else {}
    _check_keys(data, {"repeat"}, "bench")
    repeat = _count(data.get("repeat", 3), "repeat", MAX_BENCH_REPEAT)
    eye2 = np.eye(2)
    a3 = np.array([[3.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 5.0]])
    b3 = np.array([1.0, 2.0, 3.0])
    tasks = [
        ("epstein_continued", lambda: epstein_continued(eye2, 2.5)),
        ("weighted_continued", lambda: weighted_continued(eye2, eye2, 3.5)),
        ("theta_star", lambda: theta_star_gaussian(eye2, 0.05, 1e-12)),
        ("solve_residues", lambda: solve_via_residues(a3, b3)),
        ("solve_integrals_mc", lambda: solve_via_integrals(
            a3, b3, QuadratureSpec("monte_carlo", 100000, seed=args.seed or 0))),
        ("numeric_residue_solve", lambda: numeric_residue_solve(a3, b3)),
    ]
    records = []
    for name, fn in tasks:
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        total = time.perf_counter() - start
        records.append({"task": name, "runs": repeat, "seconds_total": total,
                        "ms_per_run": 1000.0 * total / repeat})
    _emit_records(records, args.format, sys.stdout)
    return _EXIT_OK


def _cmd_scan(args) -> int:
    data = _load_input(args.input)
    _check_keys(data, {"Q", "B", "lattice", "s_start", "s_end", "steps"}, "scan")
    family = _zeta_family(data, "scan")
    start = _parse_s(_field(data, "s_start", "scan"))
    end = _parse_s(_field(data, "s_end", "scan"))
    steps = _count(data.get("steps", 2), "steps", MAX_SCAN_STEPS)

    fracs = [k / (steps - 1) for k in range(steps)] if steps > 1 else [0.0]
    points = np.array([start + frac * (end - start) for frac in fracs])
    # the evaluators' own pole test flags a row; the other rows are one batch
    near = np.abs(points - family.pole) <= POLE_EXCLUSION
    cells = np.full(steps, ",,,1", dtype=object)
    if not near.all():
        zv = family.evaluate(points[~near])
        cells[~near] = [f"{_fmt(v.real)},{_fmt(v.imag)},{_fmt(e)},0"
                        for v, e in zip(zv.value.tolist(), zv.abs_error.tolist())]
    out = sys.stdout
    out.write("re_s,im_s,re_zeta,im_zeta,abs_err,flag\n")
    for s, cell in zip(points.tolist(), cells):
        out.write(f"{_fmt(s.real)},{_fmt(s.imag)},{cell}\n")
    return _EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetasolve",
        description="Zeta/theta machinery for quadratic forms and the "
                    "residue/sphere-integral linear solvers built on it.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "zeta": (_cmd_zeta, True),
        "theta": (_cmd_theta, True),
        "residue": (_cmd_residue, True),
        "funceq": (_cmd_funceq, True),
        "solve": (_cmd_solve, True),
        "verify": (_cmd_verify, False),
        "bench": (_cmd_bench, False),
        "scan": (_cmd_scan, True),
    }
    for name, (fn, needs_input) in specs.items():
        p = sub.add_parser(name)
        p.add_argument("-i", "--input", required=needs_input, default=None,
                       help="input JSON file ('-' for stdin)")
        p.add_argument("-o", "--format", choices=("json", "csv"), default="json",
                       help="output format (default json)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the Monte Carlo seed")
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _POLE_ERRORS as exc:
        sys.stderr.write(f"pole: {exc}\n")
        return _EXIT_POLE
    except SingularMatrix as exc:
        sys.stderr.write(f"singular matrix: {exc}\n")
        return _EXIT_SINGULAR
    except _VALIDATION_ERRORS as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return _EXIT_VALIDATION
    except (DegenerateQuadrature, EvaluationFailure) as exc:
        sys.stderr.write(f"evaluation failed: {exc}\n")
        return _EXIT_TOLERANCE
    except MemoryError:
        sys.stderr.write("evaluation failed: out of memory\n")
        return _EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
