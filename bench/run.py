"""tribessel benchmark: seeded workloads, checked values, metrics as JSON.

    python3 bench/run.py --workload closed_unique --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, seed 0

Each workload is a closed loop with one caller in this process and thread:
the next operation starts when the previous one returns, until --seconds
have passed. Every returned value is then checked against a reference
(reference.py) that does not depend on the package. The report lists each
metric with its unit; the last line of output is one JSON object per
workload run. With --trace 1 the same operations run under the span
tracer (spans.py) and then again untraced, which gives the per-layer
metrics, the tracing overhead and a bit-for-bit comparison of the two.
README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

RTOL, ATOL = 1e-6, 1e-9   # pass: |v - ref| <= RTOL |ref| + ATOL + ref_err
SETUP_RUNS = 7            # fresh interpreters timed per run
TAIL_SAMPLES = 10         # samples beyond the reported tail percentile
WARMUP_SECONDS = 1.0      # untimed ops first, from another seed's stream
WARMUP_SEED = 1_000_003   # offset to that seed
MAX_DIGITS = 16.0

# Splits the traced run should show; a failed prediction is reported, not
# an error (it describes the package, not the benchmark).
PREDICTIONS = {
    "closed_unique": {
        "sphfun idle": lambda m: m["sphfun.jl_vec.calls"] == 0,
        "no reduction reused across ops":
            lambda m: m["triple.reduce_orders.repeat_share_across_ops"] == 0,
    },
    "sweep_shared": {
        "reductions repeat":
            lambda m: m["triple.reduce_orders.repeat_share"] >= 0.9,
    },
    "verify": {
        "oracle and sphfun take most self time":
            lambda m: m["oracle.self_share"] + m["sphfun.self_share"] > 0.5,
    },
}


def import_package():
    """Import tribessel from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tribessel
        import tribessel.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import tribessel from {src}: {exc}")
    where = Path(tribessel.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"tribessel resolves to {where}, outside {src}")
    return tribessel


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _spec(tb, op):
    return tb.IntegralSpec(n=op.n, m=op.m, h=op.h, k=op.k, l=op.l,
                           alpha=op.alpha, beta=op.beta, mu=op.mu,
                           m_imaginary=op.m_imaginary)


def _closed(tb, op) -> list:
    spec = _spec(tb, op)
    if op.kind == "def":
        r = tb.eval_definite(spec)
        return [(op, r.value, r.err_estimate)]
    hi = tb.eval_indefinite(spec, op.x_hi)
    lo = tb.eval_indefinite(spec, op.x_lo)
    return [(op, hi.value - lo.value, hi.err_estimate + lo.err_estimate)]


def _verify(tb, pair) -> list:
    d, i = pair
    sd, si = _spec(tb, d), _spec(tb, i)
    out = _closed(tb, d)
    r = tb.quad_semi_infinite(sd)
    out.append((d, r.value, r.err_estimate))
    out += _closed(tb, i)
    r = tb.quad_finite(tb.integrand(si), i.x_lo, i.x_hi)
    out.append((i, r.value, r.err_estimate))
    return out


def _sweep_items(seed: int):
    """(family number, family, x index or -1 for the definite sweep)."""
    for f, fam in enumerate(workloads.sweep_shared(seed)):
        yield f, fam, -1
        for j in range(len(workloads.SWEEP_X)):
            yield f, fam, j


def _sweep_argv(fam, j: int, path: str) -> list:
    if j < 0:
        grid = ["--n", ",".join(map(repr, workloads.SWEEP_DEF_N)), "--definite"]
    else:
        grid = ["--n", ",".join(map(str, workloads.SWEEP_INT_N)),
                "--x", repr(workloads.SWEEP_X[j])]
    return ["sweep", *grid, "--m", ",".join(map(repr, workloads.SWEEP_M)),
            "--h", str(fam.h), "--k", str(fam.k), "--l", str(fam.l),
            "--alpha", repr(fam.alpha), "--beta", repr(fam.beta),
            "--mu", repr(fam.mu), "--format", fam.fmt, "--output", path]


class Workload:
    """Items, the timed call on one item, and the untimed collection of its
    output. For sweep_shared an item is one CLI invocation."""

    def __init__(self, name: str, seed: int, tb, scratch: str):
        self.name, self.tb, self.scratch = name, tb, scratch
        if name == "sweep_shared":
            self.items = _sweep_items(seed)
        else:
            self.items = workloads.STREAMS[name](seed)

    def call(self, item):
        tb = self.tb
        if self.name == "closed_unique":
            return _closed(tb, item)
        if self.name == "verify":
            return _verify(tb, item)
        return tb.cli.main(_sweep_argv(item[1], item[2],
                                       os.path.join(self.scratch, "out")))

    def collect(self, item, out):
        if self.name != "sweep_shared":
            return out
        with open(os.path.join(self.scratch, "out")) as fh:
            return out, fh.read()


@dataclass
class Record:
    item: object
    out: object
    error: str | None
    seconds: float  # CPU time of the call


def timed_loop(wl: Workload, items, seconds: float, tracer=None) -> list:
    """Closed loop over items until `seconds` of wall time have passed.

    Each call is timed in process CPU time: the loop runs in one thread, so
    on an idle core this equals its wall time, and unlike wall time it does
    not count the spells in which a shared machine runs other work."""
    call = wl.call if tracer is None else tracer.wrap(wl.call, "bench.op")
    records = []
    cpu = time.process_time
    deadline = time.perf_counter() + seconds
    for item in items:
        if tracer is not None:
            tracer.op_index = len(records)
        c0 = cpu()
        try:
            out, error = call(item), None
        except (ValueError, ArithmeticError) as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        c1 = cpu()
        records.append(Record(item, wl.collect(item, out) if error is None
                              else None, error, c1 - c0))
        if time.perf_counter() >= deadline:
            break
    return records


def fingerprint(records: list) -> list:
    """Every output of a run as exact text, to compare two runs bitwise."""
    return [repr(r.out) if r.error is None else r.error for r in records]


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

@dataclass
class Unit:
    """One attempted unit: an op (closed_unique, verify) or a table row
    (sweep_shared), with the values it returned."""

    ops: list                 # workload ops the unit evaluates
    broken: str | None = None  # unexpected error, bad status or non-finite
    values: list = field(default_factory=list)  # (value, err, ref, ref_err)

    def bad_values(self) -> int:
        return sum(1 for v, _, r, re in self.values
                   if not abs(v - r) <= RTOL * abs(r) + ATOL + re)


def _checked(refs, op, value, err):
    ref, ref_err = refs.get(op)
    return (complex(value), float(err), ref, ref_err)


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def units_from_ops(records: list, refs) -> list:
    units = []
    for rec in records:
        ops = list(rec.item) if isinstance(rec.item, tuple) else [rec.item]
        u = Unit(ops, broken=rec.error)
        for op, value, err in rec.out or ():
            u.values.append(_checked(refs, op, value, err))
            if not _finite(complex(value)):
                u.broken = u.broken or f"non-finite value for {op.key}"
        units.append(u)
    return units


def _parse_table(text: str, fmt: str) -> list:
    """(status, value, err) per row of a sweep CSV or JSON output."""
    rows = csv.DictReader(io.StringIO(text)) if fmt == "csv" else json.loads(text)
    out = []
    for row in rows:
        value = row["value"]
        if value in ("", None):
            out.append((row["status"], None, None))
        else:
            out.append((row["status"], complex(value), float(row["err_estimate"])))
    return out


def units_from_sweeps(records: list, refs) -> list:
    """One unit per table row. Definite rows are checked directly; each
    antiderivative row at x_j (j >= 1) through F(x_j) - F(x_{j-1}); rows at
    the first x point are checked for status only."""
    units = []
    previous = {}
    for rec in records:
        f, fam, j = rec.item
        ops = fam.definite_ops() if j < 0 else fam.interval_ops(j)
        if rec.error is not None or rec.out[0] != 0:
            why = rec.error or f"exit code {rec.out[0]}"
            units += [Unit([op], broken=why) for op in ops]
            continue
        rows = _parse_table(rec.out[1], fam.fmt)
        if len(rows) != len(ops):
            units += [Unit([op], broken="row count") for op in ops]
            continue
        for r, (op, (status, value, err)) in enumerate(zip(ops, rows)):
            u = Unit([op])
            expect = ("divergent-precondition" if j < 0 and op.m == 0.0
                      and op.n >= 2.0 else "ok")
            if status != expect:
                u.broken = f"status {status}, expected {expect}"
            elif value is not None and not _finite(value):
                u.broken = "non-finite value"
            elif value is not None:
                if j < 0:
                    u.values.append(_checked(refs, op, value, err))
                elif (f, j - 1) in previous:
                    v0, e0 = previous[(f, j - 1)][r]
                    u.values.append(_checked(refs, op, value - v0, err + e0))
            units.append(u)
        if j >= 0:
            previous[(f, j)] = [(v, e) for _, v, e in rows]
    return units


def _digits(value: complex, ref: complex, ref_err: float):
    """Correct significant digits, or None where the reference itself does
    not resolve the value."""
    if abs(ref) <= 10.0 * ref_err:
        return None
    gap = abs(value - ref)
    if gap == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, max(0.0, -math.log10(gap / abs(ref))))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list) -> tuple:
    """(percentile, value): the highest percentile with at least
    TAIL_SAMPLES samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_SAMPLES:
        return 0.0, xs[0]
    return 100.0 * (n - TAIL_SAMPLES) / n, xs[n - TAIL_SAMPLES - 1]


def measure_setup(workload: str, scratch: str) -> list:
    """Cold start of a fresh interpreter, SETUP_RUNS times: the child's CPU
    seconds (interpreter start, imports, warm-up calls) and the probe's own
    phase times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    runs = []
    for _ in range(SETUP_RUNS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run([sys.executable, str(HERE / "probe.py"),
                               workload, scratch], env=env, cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if (ROOT / "src").resolve() not in Path(probe["file"]).resolve().parents:
            raise SystemExit(f"probe imported tribessel from {probe['file']}")
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        runs.append((cpu, probe))
    return runs


def properties(units: list) -> dict:
    """Measured share of the input properties later optimisations key on.
    The repeat share is over units whose reduction key an earlier unit
    already had; the others are over the ops the units evaluate."""
    seen, repeats = set(), 0
    for u in units:
        keys = {op.reduction_key for op in u.ops}
        repeats += bool(keys & seen)
        seen |= keys
    ops = [op for u in units for op in u.ops]
    n = max(len(ops), 1)
    return {
        "reduction_key_repeat_share": repeats / max(len(units), 1),
        "undamped_share": sum(op.undamped for op in ops) / n,
        "order_ge_5_share": sum(op.max_order >= 5 for op in ops) / n,
        "x_below_0.2_share": sum(op.kind == "int" and op.x_lo < 0.2
                                 for op in ops) / n,
    }


def end_to_end(name, records, units, setup, rss_mb) -> tuple:
    latencies = [r.seconds for r in records]
    values = [v for u in units for v in u.values]
    # sweep_shared delivers table rows; the others one value per check
    delivered = len(units) if name == "sweep_shared" else len(values)
    digits = sorted(d for d in (_digits(v, r, re) for v, _, r, re in values)
                    if d is not None)
    failed = sum(1 for u in units if u.broken or u.bad_values())
    misses = sum(1 for v, e, r, re in values if abs(v - r) > e + re)
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(w for w, _ in setup), "s"),
        "values_per_s": (delivered / sum(latencies), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "failed_share": (failed / len(units), "ratio"),
        "err_miss_share": (misses / max(len(values), 1), "ratio"),
        "correct_digits_mean": (statistics.fmean(digits) if digits else 0.0,
                                "digits"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"ops": len(records), "units": len(units),
               "values": len(values), "busy_s": sum(latencies),
               "tail_percentile": pct, "tail_samples_beyond": TAIL_SAMPLES,
               "correct_digits_p10": (statistics.quantiles(digits, n=10)[0]
                                      if len(digits) > 1 else None),
               "digits_samples": len(digits), "failed_units": failed,
               "err_misses": misses}
    return metrics, details


def per_layer(tracer, setup, n_ops, rows, overhead) -> dict:
    """Layer metrics of a traced run, per op unless they are ratios."""
    s = tracer.summary()
    n = max(n_ops, 1)

    def total(name, key="calls"):
        return s.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    module_self = {}
    for name, v in s.items():
        mod = name.split(".")[0]
        module_self[mod] = module_self.get(mod, 0.0) + v["self_ms"]
    self_total = sum(module_self.values())
    reductions = total("triple.reduce_orders")
    oracle = ("oracle.quad_semi_infinite", "oracle.quad_finite")
    m = {
        "import.tribessel_ms": (1e3 * statistics.median(
            p["tribessel_s"] for _, p in setup), "ms"),
        "import.numpy_ms": (1e3 * statistics.median(
            p["numpy_s"] for _, p in setup), "ms"),
        "cli.main.self_ms": (total("cli.main", "self_ms") / n, "ms"),
        "cli.rows_per_call": (ratio(rows, total("cli.main")), "count"),
        "triple.reduce_orders.calls": (reductions / n, "count"),
        "triple.reduce_orders.self_ms": (
            total("triple.reduce_orders", "self_ms") / n, "ms"),
        "triple.reduce_orders.terms_per_call": (
            ratio(total("triple.reduce_orders", "aux"), reductions), "count"),
        "triple.reduce_orders.repeat_share": (
            ratio(tracer.repeats, reductions), "ratio"),
        "triple.reduce_orders.repeat_share_across_ops": (
            ratio(tracer.repeats_across_ops, reductions), "ratio"),
        "triple.eval_definite.self_ms": (
            total("triple.eval_definite", "self_ms") / n, "ms"),
        "triple.eval_indefinite.self_ms": (
            total("triple.eval_indefinite", "self_ms") / n, "ms"),
        "triple.integrand.calls": (total("triple.integrand") / n, "count"),
        "triple.integrand.points": (total("triple.integrand", "aux") / n,
                                    "count"),
        "sphfun.jl_vec.points_per_call": (
            ratio(total("sphfun.jl_vec", "aux"), total("sphfun.jl_vec")),
            "count"),
        "sphfun.jl_vec.points": (total("sphfun.jl_vec", "aux") / n, "count"),
        "oracle.converged_share": (
            ratio(sum(total(o, "top_aux") for o in oracle),
                  sum(total(o, "top_calls") for o in oracle)), "ratio"),
    }
    for name in ("triple.antiderivative_base", "expint.exp_integral_en",
                 "expint.lower_gamma", "expint.z_antiderivative",
                 "sphfun.jl_vec", "oracle.quad_finite", "oracle.gk_segment"):
        m[f"{name}.calls"] = (total(name) / n, "count")
        m[f"{name}.self_ms"] = (total(name, "self_ms") / n, "ms")
    for name in ("oracle.quad_semi_infinite", "oracle.period_tail"):
        m[f"{name}.self_ms"] = (total(name, "self_ms") / n, "ms")
    for mod in ("sphfun", "expint", "triple", "oracle", "cli", "bench"):
        m[f"{mod}.self_share"] = (ratio(module_self.get(mod, 0.0), self_total),
                                  "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    for layer in tracer.absent:
        for key in m:
            if key.startswith(layer + "."):
                m[key] = (None, m[key][1])
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    tb = import_package()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        setup = measure_setup(name, scratch)
        warm = Workload(name, seed + WARMUP_SEED, tb, scratch)
        timed_loop(warm, warm.items, WARMUP_SECONDS)
        wl = Workload(name, seed, tb, scratch)
        tracer = None
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                records = timed_loop(wl, wl.items, seconds, tracer)
            finally:
                tracer.uninstall()
            replay = timed_loop(wl, [r.item for r in records], math.inf)
            identical = fingerprint(replay) == fingerprint(records)
            overhead = (sum(r.seconds for r in records)
                        / sum(r.seconds for r in replay) - 1.0)
        else:
            records = timed_loop(wl, wl.items, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from reference import References  # scipy loads only after the timing

    refs = References()
    if name == "sweep_shared":
        units = units_from_sweeps(records, refs)
    else:
        units = units_from_ops(records, refs)
    metrics, details = end_to_end(name, records, units, setup, rss_mb)
    broken = [u.broken for u in units if u.broken]
    keys = [r.item.reduction_key for r in records] \
        if name == "closed_unique" else []
    unique = len(set(keys)) == len(keys)
    details.update(properties(units))
    details["references_computed"] = refs.computed
    details["unique_reduction_keys"] = unique
    correct = not broken and unique
    if traced:
        rows = len(units) if name == "sweep_shared" else 0
        metrics = per_layer(tracer, setup, len(records), rows, overhead)
        details["trace_bit_identical"] = identical
        details["trace_absent_layers"] = tracer.absent
        details["spans"] = len(tracer.span_name)
        values = {k: v for k, (v, _) in metrics.items()}
        for claim, holds in PREDICTIONS[name].items():
            try:
                details[f"prediction: {claim}"] = holds(values)
            except TypeError:  # a layer it reads is absent
                details[f"prediction: {claim}"] = None
        correct = correct and identical
        tracer.write(OUT_DIR / f"spans_{name}_{seed}.npz")
    result = {
        "correct": correct,
        "attempted": len(units),
        "failed": len(broken),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report(name, seed, result, details, broken)
    (OUT_DIR / f"result_{name}_{seed}_trace{int(traced)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, **result,
                    "details": details}, indent=1) + "\n")
    return result


def report(name, seed, result, details, broken) -> None:
    print(f"== {name} seed={seed}")
    for key, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {key:48s} {value:>14s} {m['unit']}")
    for key, value in details.items():
        print(f"  # {key} = {value}")
    for why in broken[:5]:
        print(f"  ! {why}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + tuple(workloads.STREAMS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = tuple(workloads.STREAMS) if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for res in results:
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
