#!/usr/bin/env python3
"""Record the correctness gate's reference data into perfbench/expected.json.

    python3 perfbench/record.py

Stores the list of check names of the ledger at (2,3) and (1,2) (every
check must pass) and the SHA-256 of each CLI table at both pairs.  Run it
only at a commit whose ledger and tables are known to be right: the
benchmark then fails any later commit whose checks or tables differ.
"""

from __future__ import annotations

import json
import sys

from run import HERE, ROOT
from workloads import check_names, fresh_qpm, pair_key, table_digests

# (2,3) is benchmarked; the self-test runs every workload at (1,2)
PAIRS = ((2, 3), (1, 2))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    q = fresh_qpm()
    ledger = {}
    for pair in PAIRS:
        ok, results = q.verify.run_suites(*pair, report=None)
        if not ok:
            print(f"ledger {pair} has failing checks; nothing recorded", file=sys.stderr)
            return 1
        ledger[pair_key(pair)] = check_names(results)
    tables = {pair_key(pair): table_digests(q, pair, str(ROOT)) for pair in PAIRS}
    with open(HERE / "expected.json", "w") as fh:
        json.dump({"ledger": ledger, "tables": tables}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
