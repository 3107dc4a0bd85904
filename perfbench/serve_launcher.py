"""Traced daemon: install the layer wrappers, then run the daemon loop.

    python perfbench/serve_launcher.py SPANS_FILE --state-dir DIR

Same JSON-lines protocol as ``python -m repro serve --daemon``.  When the
loop exits, the spans and connector counters are written to SPANS_FILE
for the parent benchmark to analyse.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, flag, state_dir = argv
    if flag != "--state-dir":
        raise SystemExit("usage: serve_launcher.py SPANS_FILE --state-dir DIR")
    from repro.serve.daemon import run_daemon

    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        code = run_daemon(state_dir)
    finally:
        undo()
        with open(spans_file, "w") as fh:
            json.dump({"spans": tracer.spans,
                       "thread_names": tracer.thread_names,
                       "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
