"""zetasolve benchmark: one closed-loop caller issuing CLI ops in process.

Run from the repository root:

    python3 perfbench/run.py --workload zeta-grid --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``zeta-grid``,
``residue-solve``, ``sphere-solve``.  Each op is one call of
``zetasolve.cli.main([...])`` on a JSON input generated from ``--seed``; the
op's stdout is parsed and checked against a reference the benchmark computes
itself.  ``zetasolve`` is imported from ``./src``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced replay of the
first half of the run (``spans.py``), and the spans are written to
``.perfbench/``.  Human-readable lines, including every failed op, come
before the last line.

The end-to-end times (``ops_per_s``, ``op_p50_ms``, ``op_p90_ms``,
``setup_s``) are scaled to the reference machine's quiet speed by a host
probe timed between ops (``hostspeed.py``); the unscaled figures are
printed in the human-readable lines.
"""

from __future__ import annotations

import os

# One BLAS thread (nproc is 2 on the reference machine): set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Op, Outcome  # noqa: E402

SETUP_ROUNDS = 3
OUT_DIR = ".perfbench"


@dataclass
class Result:
    op: Op
    start: float        # perf_counter at the call
    seconds: float
    code: int | None
    stdout: str
    error: str | None   # exception text, or the first stderr line of a non-zero exit


def fresh_import(src: str):
    """Import zetasolve from ``src`` with empty module state and caches."""
    for name in [m for m in sys.modules if m == "zetasolve" or m.startswith("zetasolve.")]:
        del sys.modules[name]
    cli = importlib.import_module("zetasolve.cli")
    where = os.path.dirname(os.path.realpath(sys.modules["zetasolve"].__file__))
    if where != os.path.realpath(os.path.join(src, "zetasolve")):
        raise RuntimeError(f"zetasolve imported from {where}, not from {src}")
    return cli


def run_op(cli, op: Op) -> Result:
    """One timed CLI call; exceptions and argparse exits are the op's failure.

    Cyclic garbage the op left is collected after the timer stops, as the
    exit of a CLI process would free it, so every op starts from the same
    heap and ``peak_rss_mb`` is the largest single op's footprint over the
    module caches, not an artefact of when the collector happens to run.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(op.stdin)
    error = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # noqa: BLE001 - a raising op is a failed op
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            seconds = perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    gc.collect()
    if error is None and code != 0:
        lines = err.getvalue().strip().splitlines()
        error = f"exit {code}: {lines[0] if lines else ''}"
    return Result(op, t0, seconds, code, out.getvalue(), error)


def run_for(cli, ops, budget: float, host: hostspeed.HostSpeed) -> list[Result]:
    """Issue ops back to back until their summed time reaches ``budget``,
    probing the host's speed every ``hostspeed.EVERY`` seconds of op time."""
    results = []
    busy = 0.0
    for op in ops:
        host.maybe_sample(busy)
        if busy >= budget:
            break
        r = run_op(cli, op)
        results.append(r)
        busy += r.seconds
    return results


def check(result: Result) -> Outcome:
    if result.error is not None:
        return Outcome(rel_err=math.inf, cause=result.error)
    try:
        return result.op.check(result.stdout)
    except (ValueError, KeyError, TypeError, IndexError, ArithmeticError) as exc:
        return Outcome(rel_err=math.inf, cause=f"unreadable output: {exc!r}")


def setup(wl, src: str, rounds: int, host: hostspeed.HostSpeed):
    """Import plus warm-up ops, ``rounds`` times, with a host probe around each
    step; returns (cli, [[(start, seconds)] per step] per round, warm-up results)."""
    warm = wl.warmup()
    timed = []
    for _ in range(rounds):
        host.sample()
        t0 = perf_counter()
        cli = fresh_import(src)
        steps = [(t0, perf_counter() - t0)]
        host.sample()
        results = []
        for op in warm:
            results.append(run_op(cli, op))
            steps.append((results[-1].start, results[-1].seconds))
            host.sample()
        timed.append(steps)
    # the benchmark's own heap (imports, oracles, inputs) is left out of
    # every later collection, so the collection after each op stays cheap
    gc.freeze()
    return cli, timed, results


def digits(rel_err: float) -> float:
    if rel_err <= 0.0:
        return 16.0
    return min(16.0, max(0.0, -math.log10(rel_err)))


def scaled(host: hostspeed.HostSpeed, start: float, seconds: float) -> float:
    """A measured time, scaled to the reference machine's quiet speed."""
    return seconds / host.slowdown(start, start + seconds)


def end_to_end(results, outcomes, rounds, host) -> tuple[dict, dict]:
    times = [scaled(host, r.start, r.seconds) for r in results]
    setup_s = statistics.median(sum(scaled(host, t0, dt) for t0, dt in steps)
                                for steps in rounds)
    ok = sum(o.cause is None for o in outcomes)
    p90 = statistics.quantiles(times, n=10)[8]
    claims = [c for o in outcomes for c in o.claims]
    held = sum(actual <= claimed for actual, claimed in claims)
    acc = statistics.quantiles([digits(o.rel_err) for o in outcomes], n=10)[0]
    metrics = {
        "ops_per_s": (ok / sum(times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "ok_rate": (ok / len(results), "ratio"),
        "error_bar_hold_rate": (held / len(claims) if claims else 1.0, "ratio"),
        "accuracy_digits": (min(16.0, max(0.0, acc)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    raw = [r.seconds for r in results]
    info = {"ops": len(results), "beyond_p90": sum(t > p90 for t in times),
            "raw_ops_per_s": ok / sum(raw), "raw_op_p50_ms": 1e3 * statistics.median(raw),
            "raw_op_p90_ms": 1e3 * statistics.quantiles(raw, n=10)[8],
            "raw_setup_s": statistics.median(sum(dt for _, dt in steps) for steps in rounds),
            "host_slowdown": host.run_slowdown(), "probes": len(host.seconds),
            "claims": len(claims), "claims_missed": len(claims) - held,
            "error_rate": 1.0 - ok / len(results),
            "error_bar_miss_rate": (len(claims) - held) / len(claims) if claims else 0.0}
    return metrics, info


def slot_table(results) -> list[str]:
    by_slot: dict[str, list[float]] = {}
    for r in results:
        by_slot.setdefault(r.op.slot, []).append(r.seconds)
    return [f"  {slot:36s} n={len(ts):4d} median={1e3 * statistics.median(ts):9.2f} ms "
            f"total={sum(ts):7.2f} s" for slot, ts in sorted(by_slot.items())]


def failures(workload: str, pairs) -> list[str]:
    return [f"  FAILED {workload} {r.op.op_id} [{r.op.slot}]: {o.cause}"
            for r, o in pairs if o.cause is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "zetasolve", "cli.py")):
        sys.stderr.write("perfbench: no zetasolve sources under ./src; "
                         "run from the repository root\n")
        return 2
    sys.path.insert(0, src)
    problems = oracles.self_check()
    if problems:
        sys.stderr.write("perfbench: oracle self-check failed:\n  "
                         + "\n  ".join(problems) + "\n")
        return 3

    wl = WORKLOADS[args.workload](args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} numpy={np.__version__} "
          f"blas_threads={BLAS_THREADS} nproc={os.cpu_count()}")
    if args.trace == 0:
        host = hostspeed.HostSpeed()
        cli, rounds, warm = setup(wl, src, SETUP_ROUNDS, host)
        results = run_for(cli, wl.ops(), args.seconds, host)
        outcomes = [check(r) for r in results]
        metrics, info = end_to_end(results, outcomes, rounds, host)
        pairs = [(r, check(r)) for r in warm] + list(zip(results, outcomes))
        lines = [f"  {name:22s} {value:14.6g} {unit}" for name, (value, unit) in metrics.items()]
        lines += [f"  {name:22s} {info[name]:14.6g} ratio (= 1 - {other})"
                  for name, other in (("error_rate", "ok_rate"),
                                      ("error_bar_miss_rate", "error_bar_hold_rate"))]
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(f"ops attempted={info['ops']} beyond_p90={info['beyond_p90']} "
              f"claimed_errors={info['claims']} missed={info['claims_missed']}")
        print(f"host probes={info['probes']} mean slowdown={info['host_slowdown']:.3f}; "
              f"unscaled: ops_per_s={info['raw_ops_per_s']:.6g} "
              f"op_p50_ms={info['raw_op_p50_ms']:.6g} op_p90_ms={info['raw_op_p90_ms']:.6g} "
              f"setup_s={info['raw_setup_s']:.6g}")
    else:
        host = hostspeed.HostSpeed()
        cli, _, warm = setup(wl, src, 1, host)
        plain = run_for(cli, wl.ops(), args.seconds / 2.0, host)
        ops = [r.op for r in plain]
        cli, _, warm2 = setup(wl, src, 1, host)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = []
            busy = 0.0
            for op in ops:
                host.maybe_sample(busy)
                tracer.op_id = op.op_id
                traced.append(run_op(cli, op))
                busy += traced[-1].seconds
            host.sample()
        finally:
            tracer.uninstall()
        results = plain + traced
        outcomes = [check(r) for r in results]
        pairs = [(r, check(r)) for r in warm + warm2] + list(zip(results, outcomes))
        layer = tracer.metrics()
        traced_s = sum(r.seconds for r in traced)
        # both halves scaled to the reference speed, so host drift between them cancels
        layer["trace.overhead_ratio"] = (sum(scaled(host, r.start, r.seconds) for r in traced)
                                         / sum(scaled(host, r.start, r.seconds) for r in plain)
                                         - 1.0)
        layer["trace.self_sum_ratio"] = sum(tracer.self_times()[0].values()) / traced_s
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(path)
        print(f"traced ops={len(traced)} spans={len(tracer.spans)} written to {path}")
        lines = [f"  {name:36s} {value:16.6g}" for name, value in layer.items()]
        slot_of = {op.op_id: op.slot for op in ops}
        lines.append("self-time share per slot (traced):")
        for slot, g in sorted(tracer.by_group(slot_of.get).items()):
            shares = "  ".join(f"{k}={100 * g[k] / g['op']:.0f}%"
                               for k in (*spans.LAYERS, "sample") if g[k] > 0)
            lines.append(f"  {slot:36s} {g['op']:7.2f} s  {shares}")
        out_metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layer.items()}
    print("\n".join(lines))
    print("per slot (unscaled):")
    print("\n".join(slot_table(results)))
    failed_lines = failures(args.workload, pairs)
    print(f"failed ops: {len(failed_lines)}")
    if failed_lines:
        print("\n".join(failed_lines))
    print(json.dumps({"correct": not failed_lines, "attempted": len(results),
                      "failed": sum(o.cause is not None for o in outcomes),
                      "metrics": out_metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("spherequad.bytes"):
        return "bytes"
    if name.endswith("ns_per_call") or name.endswith("ns_per_direction") \
            or name.endswith("ns_per_sample"):
        return "ns"
    if "ratio" in name or name.endswith("per_point") or name.endswith("_to_main_points"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
