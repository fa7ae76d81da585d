"""Generate the frozen references the benchmark checks against.

    python3 bench/gen_refs.py catalog          # refs/undamped.json
    python3 bench/gen_refs.py seed --seed 0    # refs/seed0.json

``catalog`` evaluates every undamped catalog shape (see workloads.py) at
each n in N_UNDAMPED with the package's quadrature oracle under the
``exponential_bound`` tail policy, skipping entries the file already holds.
The full catalog takes about 10 minutes on two cores.

``seed`` freezes references for the first operations of every workload
stream of one seed: intervals through ``quad_finite`` and damped definite
integrals through ``quad_semi_infinite``, both at a tightened tolerance.
Each value is also compared with the benchmark's own independent
quadrature (reference.py), and the largest disagreement is printed.

Both use the quadrature code only, never a closed form. Run them at the
commit whose oracle you trust; the files are keyed by spec, so any later
commit is checked against the same values.
"""

from __future__ import annotations

import argparse
import itertools
import json
import multiprocessing
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402

# ops per workload frozen by ``seed`` (sweep_shared counts families)
SEED_OPS = {"closed_unique": 400, "sweep_shared": 4, "verify": 100}
TIGHT = dict(abs_tol=1e-15, rel_tol=1e-13)


def _spec(op):
    from tribessel import IntegralSpec
    return IntegralSpec(n=op.n, m=op.m, h=op.h, k=op.k, l=op.l,
                        alpha=op.alpha, beta=op.beta, mu=op.mu,
                        m_imaginary=op.m_imaginary)


def _catalog_task(task):
    from tribessel import QuadConfig, quad_semi_infinite
    shape, n = task
    h, k, l, a, b, u = workloads.UNDAMPED_SHAPES[shape]
    op = workloads.Op("def", n, 0.0, h, k, l, a, b, u)
    t0 = time.perf_counter()
    res = quad_semi_infinite(_spec(op),
                             QuadConfig(tail_policy="exponential_bound"))
    return (workloads.catalog_key(shape, n), res.value.real,
            res.err_estimate, res.converged, time.perf_counter() - t0)


def gen_catalog(path: Path, workers: int) -> None:
    """Evaluate the catalog entries that path does not hold yet."""
    refs = json.loads(path.read_text())["refs"] if path.exists() else {}
    tasks = [t for t in itertools.product(range(len(workloads.UNDAMPED_SHAPES)),
                                          workloads.N_UNDAMPED)
             if workloads.catalog_key(*t) not in refs]
    # slowest first (largest n, then highest total order) to balance workers
    tasks.sort(key=lambda t: (-t[1], -sum(workloads.UNDAMPED_SHAPES[t[0]][:3])))
    failed = []
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        for key, val, err, ok, dt in pool.imap_unordered(_catalog_task, tasks):
            print(f"{dt:6.1f}s {key} {val:.15e} converged={ok}", flush=True)
            if ok:
                refs[key] = [val, 0.0, err]
            else:
                failed.append(key)
    _write(path, "quad_semi_infinite, tail_policy=exponential_bound", refs)
    if failed:
        raise SystemExit("oracle did not converge for:\n" + "\n".join(failed))


def _seed_ops(seed: int):
    for name, count in SEED_OPS.items():
        stream = workloads.STREAMS[name](seed)
        for item in itertools.islice(stream, count):
            if name == "sweep_shared":
                yield from item.definite_ops()
                for i in range(1, len(workloads.SWEEP_X)):
                    yield from item.interval_ops(i)
            elif name == "verify":
                yield from item
            else:
                yield item


def gen_seed(path: Path, seed: int) -> None:
    from tribessel import QuadConfig, integrand, quad_finite, quad_semi_infinite
    cfg = QuadConfig(**TIGHT)
    refs = {}
    worst = 0.0
    for op in _seed_ops(seed):
        if op.key in refs or (op.kind == "def" and op.m == 0.0):
            continue  # undamped definite values come from the catalog
        spec = _spec(op)
        if op.kind == "def":
            res = quad_semi_infinite(spec, cfg)
        else:
            res = quad_finite(integrand(spec), op.x_lo, op.x_hi, cfg)
        if not res.converged:
            raise SystemExit(f"oracle did not converge for {op.key}")
        val = complex(res.value)
        indep, indep_err = reference.compute(op)
        scale = max(abs(val), 1e-300)
        worst = max(worst, abs(val - indep) / scale)
        refs[op.key] = [val.real, val.imag, res.err_estimate + abs(val - indep)]
    print(f"{len(refs)} references; largest relative gap to the independent "
          f"quadrature {worst:.3e}")
    _write(path, "quad_finite / quad_semi_infinite, abs_tol=1e-15, "
                 "rel_tol=1e-13", refs)


def _write(path: Path, method: str, refs: dict) -> None:
    body = {"method": method,
            "format": "key -> [real, imag, absolute error bound]",
            "refs": dict(sorted(refs.items()))}
    path.write_text(json.dumps(body, indent=0) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("catalog", "seed"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)
    if args.what == "catalog":
        gen_catalog(HERE / "refs" / "undamped.json", args.workers)
    else:
        gen_seed(HERE / "refs" / f"seed{args.seed}.json", args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
