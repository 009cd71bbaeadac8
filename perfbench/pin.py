"""Pin the output digests of earlier benchmark runs into ``digests.json``.

    python3 perfbench/pin.py

Run it from the repository root after ``run.py``.  Every result under
``.perfbench/results`` whose operations all passed adds its digest under
its fingerprint, workload and seed.  A digest that contradicts one already
pinned, or two runs of one seed that disagree, stop it without writing:
that means the program's output changed, which is a behaviour change to
declare, not a digest to overwrite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import DIGESTS


def main() -> int:
    pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    added = 0
    for path in sorted(Path(".perfbench/results").glob("*.json")):
        rec = json.loads(path.read_text())
        if not rec["result"]["correct"] or len(rec["digests"]) != 1:
            print(f"skipped {path}: not a clean run", file=sys.stderr)
            continue
        entry = pins.setdefault(rec["fingerprint_key"],
                                {"fingerprint": rec["fingerprint"], "digests": {}})
        seeds = entry["digests"].setdefault(rec["workload"], {})
        seed, digest = str(rec["seed"]), rec["digests"][0]
        if seeds.get(seed, digest) != digest:
            print(f"error: {path} gives {rec['workload']} seed {seed} digest {digest}, "
                  f"but {seeds[seed]} is pinned", file=sys.stderr)
            return 1
        added += seed not in seeds
        seeds[seed] = digest
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {added} new digests in {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
