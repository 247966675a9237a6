"""``repro serve`` with the benchmark's span wrappers installed.

    python repobench/serve_traced.py SPANS.json serve --bind 127.0.0.1:0 ...

Runs the daemon's own entry point unchanged; when it exits (SIGTERM
drains it), writes the per-layer report of everything it traced to
``SPANS.json``.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    out_path, argv = pathlib.Path(sys.argv[1]), sys.argv[2:]
    from repro.__main__ import main as repro_main

    tracer = layers.install(Tracer())
    try:
        return repro_main(argv)
    finally:
        tracer.restore()
        everything = (float("-inf"), float("inf"))
        out_path.write_text(json.dumps(layers.layer_report(tracer, window=everything)))


if __name__ == "__main__":
    sys.exit(main())
