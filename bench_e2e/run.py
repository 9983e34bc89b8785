"""End-to-end benchmark of the GraphRARE reproduction.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs generated from ``--seed`` in ``workloads.py``):

* ``fit-sparse-train`` / ``fit-rl-vec`` -- one ``GraphRARE.fit`` per fresh
  process (``fit_child.py``), repeated until ``--seconds`` of fit time is
  measured (at least twice, so the accuracy is checked for determinism).
* ``serve-churn`` -- a closed loop of 2 connections x 8 requests in flight
  against a ``repro serve --unix`` subprocess: ``score``/``rewire`` of a
  Zipf-ranked candidate pool with a ``churn`` every 20th request.

With ``--trace 0`` the run measures untraced processes and reports the
end-to-end metrics; with ``--trace 1`` it repeats the unit of work once
untraced and once with ``tracer.install`` wrappers in the program's
process, and reports the per-layer metrics (also written, with self
times, to ``bench_e2e/.work/trace-WORKLOAD-SEED.json``).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when every correctness check
passes, 1 when one fails, 2 when the program (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: BLAS is pinned to one thread in every process of a run, this one
#: included (set before numpy loads, so the in-process reference scores
#: use the server's float summation order).  On a 2-core box a second
#: OpenBLAS thread contends with everything else the run does, and it made
#: run-to-run spread several times wider: the fit-rl-vec fit time's
#: quartile spread over seeds was 18% with two threads, 5% with one, at
#: the same median.
os.environ.update(
    OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
)
PROGRAM_ENV = dict(os.environ, PYTHONPATH=SRC)

#: End-to-end metrics, the same four for every workload.  The "operation"
#: is one ``GraphRARE.fit`` on the fit workloads and one request on
#: ``serve-churn`` (latency: ``score`` requests; rate: every request).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUPS_PER_FIT = 4
SERVE_SETUP_SAMPLES = 3
SERVE_REQUESTS = 3000
CONNECTIONS = 2
IN_FLIGHT = 8
VERIFY_CANDIDATES = 4
#: A run starts no further repetition once this much wall time is spent,
#: which keeps every run well inside three minutes.
RUN_BUDGET_S = 110.0
CHILD_TIMEOUT_S = 170.0


class Run:
    """What one benchmark run found: checks, counts, metrics, report."""

    def __init__(self) -> None:
        self.errors: list = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict = {}
        self.lines: list = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def median(values):
    return statistics.median(values) if values else float("nan")


def write_trace(workload: str, seed: int, payload: dict) -> str:
    path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
    return os.path.relpath(path, ROOT)


def layer_lines(values: dict, units: dict) -> list:
    return [f"  {name:<26} {values[name]:.6g} {units[name]}" for name in units]


# ----------------------------------------------------------------------
# Fit workloads
# ----------------------------------------------------------------------
def spawn_fit(workload: str, seed: int, *flags: str) -> dict:
    """Run ``fit_child.py`` in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "fit_child.py"), workload,
           str(seed), repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, env=PROGRAM_ENV, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"fit process exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_fit(args, run: Run) -> None:
    from stats import describe, summarize
    from tracer import PER_LAYER, per_layer

    smoke = ["--smoke"] if args.smoke else []
    fits, setups = [], []

    def attempt(*flags):
        run.attempted += 1
        try:
            out = spawn_fit(args.workload, args.seed, *smoke, *flags)
        except (RuntimeError, ValueError, subprocess.SubprocessError) as exc:
            run.failed += 1
            run.check(False, f"fit raised: {exc}")
            return None
        if not math.isfinite(out["test_acc"]):
            run.failed += 1
            run.check(False, f"fit returned test_acc {out['test_acc']}")
            return None
        fits.append(out)
        setups.append(out["setup_s"])
        return out

    start = time.monotonic()
    if args.trace:
        plain, traced = attempt(), attempt("--trace")
    else:
        while run.attempted < 2 or (
            sum(f["fit_s"] for f in fits) < args.seconds
            and time.monotonic() - start + fits[-1]["fit_s"] < RUN_BUDGET_S
        ):
            # Set-up samples spread over the run, not bunched at one end:
            # the box's speed drifts on a scale of seconds.
            try:
                for _ in range(SETUPS_PER_FIT - 1):
                    setups.append(spawn_fit(args.workload, args.seed, *smoke,
                                            "--setup-only")["setup_s"])
            except (RuntimeError, subprocess.SubprocessError) as exc:
                run.check(False, f"set-up raised: {exc}")
                break
            if attempt() is None:
                break
    accs = sorted({f["test_acc"] for f in fits})
    run.check(len(accs) <= 1,
              f"test_acc differs between repetitions of seed {args.seed}: "
              f"{accs}")

    fit_s = [f["fit_s"] for f in fits]
    run.lines.append(describe("fit_s", summarize(fit_s), "s"))
    run.lines.append(f"{'test_acc':<16} {accs}")
    if args.trace:
        if plain is None or traced is None:
            return
        overhead = traced["fit_s"] / plain["fit_s"]
        values = per_layer(traced["trace"], num_envs=traced["num_envs"],
                           wall_s=traced["fit_s"], overhead=overhead)
        run.metrics = values
        path = write_trace(args.workload, args.seed, {
            "workload": args.workload, "seed": args.seed,
            "untraced_fit_s": plain["fit_s"], "traced_fit_s": traced["fit_s"],
            "overhead": overhead, "per_layer": values, **traced["trace"],
        })
        wall = traced["fit_s"]
        run.lines += layer_lines(values, PER_LAYER) + [
            f"share of traced fit_s: gnn.train_epoch "
            f"{values['gnn.train_epoch_s'] / wall:.1%}, rl.update + "
            f"env.step_self "
            f"{(values['rl.update_s'] + values['env.step_self_s']) / wall:.1%}",
            f"trace written to {path}",
        ]
        return
    if not fits:
        return
    rss = [f["peak_rss_mb"] for f in fits]
    run.lines.append(describe("setup_s", summarize(setups), "s"))
    run.lines.append(f"{'peak_rss_mb':<16} {median(rss):.1f} MB")
    run.metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": 1000.0 * median(fit_s),
        "ops_per_s": len(fit_s) / sum(fit_s),
        "peak_rss_mb": median(rss),
    }


# ----------------------------------------------------------------------
# serve-churn
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve --unix`` subprocess, traced through
    ``serve_launcher.py`` when ``trace_out`` is given."""

    def __init__(self, tag: str, trace_out: str = None) -> None:
        # Relative to ROOT (the working directory of both processes), so
        # a deep checkout path cannot overflow the unix socket name limit.
        self.sock = os.path.relpath(
            os.path.join(WORK, f"{tag}-{os.getpid()}.sock"), ROOT
        )
        self.log_path = os.path.join(WORK, f"{tag}-{os.getpid()}.log")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        if trace_out:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   trace_out, "--unix", self.sock]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--unix", self.sock]
        self._log = open(self.log_path, "w")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=PROGRAM_ENV,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def _log_tail(self) -> str:
        with open(self.log_path) as fh:
            lines = fh.read().strip().splitlines()
        return lines[-1] if lines else "no output"

    async def connect(self, timeout: float = 60.0):
        from repro.serve import ServeClient

        while True:
            try:
                return await ServeClient.connect(unix_path=self.sock)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited {self.proc.returncode}: "
                        f"{self._log_tail()}"
                    )
                if time.monotonic() - self.spawned > timeout:
                    raise RuntimeError("server did not start listening")
                await asyncio.sleep(0.005)

    async def stop(self, client) -> None:
        """Ask for a clean shutdown; kill if it does not come."""
        try:
            if client is not None:
                await client.shutdown()
                await client.close()
        except Exception:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()
        if os.path.exists(self.sock):
            os.unlink(self.sock)


def response_problem(op: str, arg, result: dict):
    """Why a successful response is wrong, or ``None``."""
    if op == "score":
        if not (0.0 <= result["acc"] <= 1.0 and math.isfinite(result["loss"])):
            return f"score out of range: {result}"
    elif op == "rewire":
        if result["num_edges"] <= 0:
            return f"rewire returned an empty graph: {result}"
    elif result["applied"] != len(arg):
        return f"churn applied {result['applied']} of {len(arg)} events"
    return None


async def drive(server: Server, session: str, pool, plan, run: Run) -> dict:
    """The closed loop: each in-flight slot sends its next request only
    after the previous one is answered.  Every failure counts."""
    clients = [await server.connect() for _ in range(CONNECTIONS)]
    latency = {"score": [], "rewire": [], "churn": []}
    rebases = 0
    queue = iter(plan)

    async def slot(client):
        nonlocal rebases
        for op, arg in queue:
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                if op == "churn":
                    result = await client.churn(session, arg)
                else:
                    result = await getattr(client, op)(session, *pool[arg])
            except Exception as exc:  # error envelope, shed, transport
                run.failed += 1
                run.check(False, f"{op} failed: {type(exc).__name__}: {exc}")
                continue
            latency[op].append(time.perf_counter() - t0)
            problem = response_problem(op, arg, result)
            run.check(problem is None, problem)
            rebases += bool(op == "churn" and result["rebased"])

    start = time.perf_counter()
    await asyncio.gather(*(
        slot(client) for client in clients for _ in range(IN_FLIGHT)
    ))
    wall = time.perf_counter() - start
    for client in clients:
        await client.close()
    return {"wall_s": wall, "latency": latency, "rebases": rebases}


async def serve_pass(spec, pool, plan, expected, run: Run, tag: str,
                     trace_out: str = None) -> dict:
    """Spawn a server, open the session (the setup time), check the
    byte-identity candidates, then (``plan`` given) drive the load."""
    from fit_child import peak_rss_mb

    server = Server(tag, trace_out)
    boot = None
    try:
        boot = await server.connect()
        session = (await boot.open_session(spec))["session"]
        out = {"setup_s": time.monotonic() - server.spawned}
        for index, want in expected:
            got = await boot.score(session, *pool[index])
            run.check((got["acc"], got["loss"]) == want,
                      f"candidate {index} scored {got['acc']!r}/"
                      f"{got['loss']!r} over the wire, {want} in process")
        if plan is not None:
            out.update(await drive(server, session, pool, plan, run))
            out["counters"] = (await boot.stats())["telemetry"]["counters"]
            out["peak_rss_mb"] = peak_rss_mb(server.proc.pid)
    finally:
        await server.stop(boot)
    if trace_out:
        with open(trace_out) as fh:
            out["trace"] = json.load(fh)
    return out


def expected_scores(spec, pool):
    """In-process ``build_artifact`` + ``score_blocks`` of the first
    :data:`VERIFY_CANDIDATES` pool entries (each a width-1 forward, as the
    sequential wire requests are), and the artifact's initial edges."""
    from repro.core.lru import LRUCache
    from repro.serve.session import SessionSpec, build_artifact

    artifact = build_artifact(SessionSpec.from_wire(spec), max_batch=16)
    memo = LRUCache(VERIFY_CANDIDATES)
    expected = []
    for index in range(VERIFY_CANDIDATES):
        graph = artifact.rewired(*artifact.clamp(*pool[index]), memo)
        acc, loss = artifact.score_blocks([graph])[0]
        expected.append((index, (float(acc), float(loss))))
    return expected, artifact.graph.edge_array()


def run_serve(args, run: Run) -> None:
    from stats import describe, summarize
    from tracer import PER_LAYER, per_layer
    from workloads import candidate_pool, request_plan, serve_spec

    spec = serve_spec(args.seed, smoke=args.smoke)
    pool = candidate_pool(spec, args.seed)
    expected, edges = expected_scores(spec, pool)
    count = 60 if args.smoke else SERVE_REQUESTS
    plan = request_plan(spec, args.seed, count, edges)

    async def session_passes():
        passes = []
        if args.trace:
            trace_out = os.path.join(WORK, f"serve-trace-{os.getpid()}.json")
            passes.append(await serve_pass(spec, pool, plan, expected, run,
                                           "plain"))
            passes.append(await serve_pass(spec, pool, plan, expected, run,
                                           "traced", trace_out))
            os.unlink(trace_out)
            return passes, []
        start = time.monotonic()
        while not passes or (
            sum(p["wall_s"] for p in passes) < args.seconds
            and time.monotonic() - start + passes[-1]["wall_s"] < RUN_BUDGET_S
        ):
            passes.append(await serve_pass(spec, pool, plan, expected, run,
                                           "load"))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SERVE_SETUP_SAMPLES:
            extra = await serve_pass(spec, pool, None, expected, run, "setup")
            setups.append(extra["setup_s"])
        return passes, setups

    passes, setups = asyncio.run(session_passes())
    latency = {
        op: [x for p in passes for x in p["latency"][op]]
        for op in ("score", "rewire", "churn")
    }
    done = sum(len(v) for v in latency.values())
    wall = sum(p["wall_s"] for p in passes)
    rebases = sum(p["rebases"] for p in passes)
    run.check(rebases > 0 or args.smoke, "no churn batch triggered a rebase")
    run.lines += [
        f"{'serve_rps':<16} {done / wall:.1f} 1/s  "
        f"({done} requests in {wall:.2f} s, {len(passes)} pass(es))",
        describe("score_ms", summarize(latency["score"], 1000.0), "ms"),
        describe("rewire_ms", summarize(latency["rewire"], 1000.0), "ms"),
        describe("churn_ms", summarize(latency["churn"], 1000.0), "ms"),
        f"{'failed_frac':<16} {run.failed / max(run.attempted, 1):.4f}  "
        f"({run.failed} of {run.attempted})",
        f"{'rebases':<16} {rebases}",
    ]
    if args.trace:
        plain, traced = passes
        overhead = traced["wall_s"] / plain["wall_s"]
        values = per_layer(traced["trace"], counters=traced["counters"],
                           wall_s=traced["wall_s"], overhead=overhead)
        run.metrics = values
        path = write_trace(args.workload, args.seed, {
            "workload": args.workload, "seed": args.seed,
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"], "overhead": overhead,
            "per_layer": values, "counters": traced["counters"],
            **traced["trace"],
        })
        run.lines += layer_lines(values, PER_LAYER)
        run.lines.append(f"trace written to {path}")
        return
    rss = [p["peak_rss_mb"] for p in passes]
    run.lines += [
        describe("setup_s", summarize(setups), "s"),
        f"{'peak_rss_mb':<16} {median(rss):.1f} MB",
    ]
    run.metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": 1000.0 * median(latency["score"]),
        "ops_per_s": done / wall,
        "peak_rss_mb": median(rss),
    }


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    from tracer import PER_LAYER
    from workloads import FIT_WORKLOADS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time to accumulate per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program is missing: no package at "
              f"{os.path.join(SRC, 'repro')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(WORK, exist_ok=True)

    run = Run()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.workload in FIT_WORKLOADS:
        run_fit(args, run)
    else:
        run_serve(args, run)
    run.check(bool(run.metrics), "no metrics measured")
    for line in run.lines:
        print(line)
    for error in dict.fromkeys(run.errors):
        print(f"CHECK FAILED: {error}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in run.metrics.items()
        },
    }))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
