#!/usr/bin/env python3
"""Write `expected.json`: the recorded result of every op that has no oracle.

    python3 perfbench/record.py

Runs those ops once, for seed 0, on the library in `src/`.  Their results do
not depend on the seed (see `workloads.py`), so the record holds for every
seed.  Rerun it only when a result changes on purpose, and say why in the
change that does so.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = run.OUT / "tmp-record"
    tmp.mkdir(exist_ok=True)
    record = {}
    for name in sorted(run.workloads.WORKLOADS):
        _, lib, ops = run.setup(name, 0, str(tmp))
        pending = [op for op in ops if op.reference is None]
        _, prints = run.run_pass(pending, lib)
        for op, text in zip(pending, prints):
            if "error" in json.loads(text):
                print(f"{op.key}: {text}", file=sys.stderr)
                return 1
            record[op.key] = json.loads(text)
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record)} results in {run.EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
