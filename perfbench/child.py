"""One benchmark sample in a fresh interpreter.

Usage::

    python3 perfbench/child.py WORKLOAD SEED INDEX {sweep|mirror} WORKDIR

``sweep`` runs ``sample.run_untraced``, ``mirror`` runs
``sample.run_traced``.  The speed gauge (``gauge.py``) starts before the
program is imported, so it also covers the set-up.  Prints one JSON line.
"""

from __future__ import annotations

import json
import sys
from typing import Sequence

from gauge import SpeedGauge


def main(argv: Sequence[str]) -> int:
    name, seed, index, mode, workdir = argv
    gauge = SpeedGauge()
    gauge.start()
    try:
        # The program's modules load here, under the gauge.
        import sample
        from workloads import WORKLOADS

        run = {"sweep": sample.run_untraced, "mirror": sample.run_traced}[mode]
        result = run(
            WORKLOADS[name],
            sample.sweep_seed(int(seed), int(index)),
            workdir,
            gauge=gauge,
        )
    finally:
        gauge.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
