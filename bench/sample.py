"""One benchmark sample: call ``torusns.cli.main`` in this process.

Usage::

    python3 sample.py SRC RECORD TRACE -- CLI-ARGS...

SRC is the ``src`` directory holding the ``torusns`` package, RECORD the
JSON file this process writes, TRACE ``1`` for a traced sample and ``0``
for an untraced one.  The exit code is the CLI's.

An untraced sample times only the import and the three set-up calls
(mesh, spaces, operators), which is three wrapped calls in all.  A traced
sample wraps every public function and method of the layer modules and
records one span per call; see ``spans.Tracer``.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from spans import SETUP_SPANS, Tracer  # noqa: E402


def main():
    src, record, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: sample.py SRC RECORD TRACE -- CLI-ARGS...")
    cli_args = sys.argv[5:]
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import torusns.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(torusns.__file__).startswith(src + os.sep):
        raise SystemExit(f"torusns imported from {torusns.__file__}, "
                         f"not from {src}")
    tracer = Tracer(only=None if trace else SETUP_SPANS)
    tracer.install()
    code = torusns.cli.main(cli_args)
    with open(record, "w") as fh:
        json.dump({"exit": code, "import_s": import_s,
                   "spans": tracer.spans, "fills": tracer.fills,
                   "missing": tracer.missing()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
