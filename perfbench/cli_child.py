"""Traced stand-in for `tm-lab`: one CLI operation with layer spans.

    python perfbench/cli_child.py SPANS_JSON OP_ID -- <tm-lab arguments>

Times the import of `tmlab.cli`, wraps the layer functions, runs
`tmlab.cli.main(argv)` and exits with its code.  The spans are written
to SPANS_JSON when the operation ends.
"""

import sys
import time

t0 = time.perf_counter()
import tmlab.cli  # noqa: E402  (the import is what is being timed)
t1 = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON OP_ID -- ARGS...")
    tracer = Tracer()
    tracer.op = op_id
    tracer.spans.append(["cli.import", t0, t1, -1, op_id, None, None])
    tracer.install()
    try:
        return tracer.span("cli.main", tmlab.cli.main)(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
