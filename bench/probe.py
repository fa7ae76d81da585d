"""Cold-start probe: run in a fresh interpreter by run.py to time set-up.

    python3 bench/probe.py <workload> <scratch dir>

Imports numpy, then tribessel (and its CLI for sweep_shared), then makes
one warm-up call of each entry point the workload uses, and prints the
three phase times as JSON. It imports nothing else, so the cost of this
process is what a user pays before the first useful result.
"""

import json
import sys
import time


def main(workload: str, scratch: str) -> None:
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import tribessel

    if workload == "sweep_shared":
        import tribessel.cli
    t2 = time.perf_counter()

    spec = tribessel.IntegralSpec(n=1, m=1.0, h=1, k=0, l=2, alpha=1.2,
                                  beta=0.8, mu=2.0)
    if workload == "sweep_shared":
        tribessel.cli.main(["sweep", "--n", "0,1", "--m", "0.5,1", "--h", "1",
                            "--k", "0", "--l", "2", "--alpha", "1.2", "--beta",
                            "0.8", "--mu", "2", "--x", "0.5", "--format", "csv",
                            "--output", f"{scratch}/probe.csv"])
    else:
        tribessel.eval_definite(spec)
        tribessel.eval_indefinite(spec, 0.5)
        if workload == "verify":
            tribessel.quad_semi_infinite(spec)
            tribessel.quad_finite(tribessel.integrand(spec), 0.5, 1.0)
    t3 = time.perf_counter()
    print(json.dumps({"file": tribessel.__file__, "numpy_s": t1 - t0,
                      "tribessel_s": t2 - t1, "warmup_s": t3 - t2}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
