"""Run the cnfscope CLI with the layer probes installed.

    python3 perfbench/traced_cli.py SPANS.json <cnfscope arguments>

Stdout, stderr and the exit code are the CLI's own. SPANS.json receives
{"spans": [...], "errors": [...]}: the spans recorded in this process (the
roots are cli.main and bench.check, the cover checks made after it) and any
broken cover invariant.
"""

import json
import sys

import layers
from cnfscope import cli
from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    probes = layers.Probes(tracer)
    probes.install()
    try:
        with tracer.span("cli.main"):
            rc = cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with tracer.span("bench.check"):
        errors = probes.curve_errors()
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "errors": errors}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
