"""Run one qwalk command in this fresh interpreter with layer spans recorded.

    python3 bench/traced_job.py <spans.json> <qwalk arguments...>

The traced counterpart of what the ``qwalk`` console script runs: spans for
the import and for every traced call are written to ``spans.json``, and the
exit code is the CLI's.
"""
import json
import sys

from tracing import Tracer, install, to_json


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import qwalk.cli
    restore = install(tracer)
    try:
        return qwalk.cli.main(argv)
    finally:
        restore()
        with open(spans_path, "w") as handle:
            json.dump(to_json(tracer.spans), handle)


if __name__ == "__main__":
    sys.exit(main())
