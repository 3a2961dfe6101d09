"""Traced stand-in for ``python -m booldiff``: same process shape, wrappers installed.

    python3 bench/cli_entry.py REPORT_JSON SPANS_JSONL CLI_ARGS...

The root span opens before ``booldiff`` is imported, so import time counts as
unattributed operation time.
"""

from __future__ import annotations

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    report_path, spans_path, *cli_args = sys.argv[1:]

    import booldiff.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code, _ = tracer.root(cli_args[0], lambda: booldiff.cli.main(cli_args), start=start)
    finally:
        tracer.uninstall()
        tracer.write_spans(spans_path)
        with open(report_path, "w") as fh:
            json.dump(tracer.report(), fh)
    sys.exit(code)
