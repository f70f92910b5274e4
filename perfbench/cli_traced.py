"""Run one `ddproof` command with span tracing, for the traced cli-readme run.

    python3 perfbench/cli_traced.py LAYERS_JSON ARGS...

Behaves as `ddproof ARGS...` (same output, same exit code) and writes the
per-layer totals to LAYERS_JSON and the spans beside it.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from ddproof import cli

    tracer.current_item = 0
    tracer.enabled = True
    try:
        code = cli.main(args)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.layer_metrics(), fh)
    tracer.write(out_path[: -len(".json")] + ".bin")
    return code


if __name__ == "__main__":
    sys.exit(main())
