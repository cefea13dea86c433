"""Traced launcher: ``python perfbench/boot.py <repro CLI arguments>``.

Runs exactly what ``python -m repro.cli <arguments>`` runs, after
:func:`tracer.install` has wrapped the traced entry points.  Spans go
to ``$PERFBENCH_TRACE_DIR`` when the process ends.
"""

import os
import sys

from tracer import Tracer, install


def main() -> int:
    tracer = Tracer(os.environ["PERFBENCH_TRACE_DIR"])
    argv = sys.argv[1:]
    install(tracer, server=argv[:1] == ["serve"])
    import repro.cli

    try:
        return repro.cli.main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    raise SystemExit(main())
