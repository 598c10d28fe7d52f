"""Set-up probe, run in a fresh interpreter by run.py.

    python3 bench/probe.py <workload> <seed>

Imports circle_cs, builds the workload's inputs from the seed, does the
lazy set-up (one small warm-up call per layer the op uses), prints "ready"
and exits.  run.py times it from spawn to the "ready" line: that interval is
the workload's setup_s.
"""

from __future__ import annotations

import sys

import machine


def main(argv: list) -> int:
    name, seed = argv[1], int(argv[2])
    machine.cap_threads()
    machine.load_package()
    import workloads

    workload = workloads.WORKLOADS[name]
    workload.warm(workload.build(seed))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
