"""``repro serve`` with the benchmark's per-layer tracer installed.

    python3 bench_e2e/serve_launcher.py TRACE_OUT [repro serve flags...]

Wraps the same public functions as a traced fit (:func:`tracer.install`),
runs the CLI's ``serve`` command unchanged, and after the server shuts
down writes the tracer's span totals to ``TRACE_OUT`` as JSON.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv) -> int:
    from repro.cli import main as repro_main

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = repro_main(["serve", *argv[1:]])
    with open(argv[0], "w") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
