"""Run one benchmark workload and print its result as the last stdout line.

From the repository root::

    python3 perfbench/run.py --workload atm_socket --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` spends the
first half of the window untraced and the second half traced, prints
the per-layer metrics instead and writes the spans to
``perfbench/traces/``.  ``--write-expected`` regenerates
``perfbench/expected_qss.json`` after checking that the compiled and
legacy QSS engines agree on every net.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="atm_socket, atm_oneshot, merge_oneshot or qss_synth")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SOURCE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    if args.write_expected:
        return workloads.write_expected()
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {', '.join(workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
