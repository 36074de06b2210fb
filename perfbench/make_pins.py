"""Regenerate pins.json, the expected outputs of the library for the pinned
seed. Run from the repository root, for all workloads or the named ones:

    python3 perfbench/make_pins.py [workload ...]

Only regenerate after a change that alters outputs on purpose (for example a
fix of the decode defect), and say so in that change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run as bench

PIN_SEED = 1
# Enough operations to cover a run of the benchmark several times over.
PIN_COUNTS = {"infer-c512": 64, "ptq-d512": 20, "sim-grid": 48}


def main(names: list[str]) -> int:
    bench.cap_threads()
    sys.path.insert(0, str(bench.ROOT / "src"))
    from workloads import WORKLOADS
    pins = {"seed": PIN_SEED, "setup": {}, "ops": {}}
    if bench.PIN_FILE.is_file():
        pins = bench.load_pins()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=bench.ROOT) as tmp:
        work = Path(tmp)
        for name in names or list(WORKLOADS):
            wl = WORKLOADS[name]
            state = wl.setup(work)
            pins["setup"][name] = wl.setup_digest(state)
            pins["ops"][name] = [wl.digest(wl.run(state, wl.make_input(state, PIN_SEED, i, work)))
                                 for i in range(PIN_COUNTS[name])]
            print(f"{name}: pinned set-up and {PIN_COUNTS[name]} operations", flush=True)
    with open(bench.PIN_FILE, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
