"""One fit workload run in a fresh process (spawned by ``run.py``).

    python3 bench_e2e/fit_child.py WORKLOAD SEED SPAWN_T [--setup-only]
                                   [--trace] [--smoke]

``SPAWN_T`` is the parent's ``time.monotonic()`` just before the spawn,
so ``setup_s`` covers interpreter start, imports, input generation and
the split — everything up to the first call into ``GraphRARE.fit``.
Prints one JSON object: ``setup_s`` and, unless ``--setup-only``,
``fit_s``, ``test_acc``, ``peak_rss_mb`` and (``--trace``) the tracer's
span totals.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def peak_rss_mb(pid="self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def main(argv) -> int:
    workload, seed, spawn_t = argv[0], int(argv[1]), float(argv[2])
    flags = set(argv[3:])
    from repro.core import GraphRARE

    from workloads import fit_inputs

    backbone, config, graph, split = fit_inputs(
        workload, seed, smoke="--smoke" in flags
    )
    tracer = None
    if "--trace" in flags:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    model = GraphRARE(backbone, config)
    out = {"setup_s": time.monotonic() - spawn_t}
    if "--setup-only" not in flags:
        start = time.perf_counter()
        result = model.fit(graph, split)
        out["fit_s"] = time.perf_counter() - start
        out["test_acc"] = result.test_acc
        out["peak_rss_mb"] = peak_rss_mb()
        out["num_envs"] = config.num_envs
        if tracer is not None:
            out["trace"] = tracer.snapshot()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
