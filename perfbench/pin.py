"""Record the simulated outputs that ``perfbench/run.py`` checks against.

Run from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-9                   # every workload
    python3 perfbench/pin.py --workload restart --seeds 0

Each (workload, seed) runs one untraced pass and its job outputs are
written to ``perfbench/pins.json``, replacing that entry.  Re-pin only
for a deliberate change of the simulated model, and say why in the
change that does it: a change meant to speed up the simulator must
reproduce the pins as they are.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

import run


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--seeds", type=parse_seeds, default=[run.DEFAULT_SEED],
                    help="a seed or an inclusive range such as 0-9")
    args = ap.parse_args(argv)

    run.import_program()
    import suite

    with open(run.PINS) as f:
        pins = json.load(f)
    for name in args.workload or run.WORKLOADS:
        for seed in args.seeds:
            result = suite.run_pass(suite.SCENARIOS[name].stages(seed))
            bad = [f"{rec.key}: {why}" for rec in result.jobs
                   if (why := suite.job_failures(rec, None)) is not None]
            if bad:
                print(f"{name} seed {seed}: not pinned:\n  " + "\n  ".join(bad))
                return 1
            pins.setdefault(name, {})[str(seed)] = result.outputs()
            print(f"{name} seed {seed}: digest {run.digest(result.outputs())}")
            with open(run.PINS, "w") as f:
                json.dump(pins, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
