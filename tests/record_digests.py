"""The recorded SHA-256 digests of the CLI tables, tests/table_digests.json:
record them, or check them against the tables the code writes now.

The store has two sections.  "tier1" is read by tests/test_cli.py, "sweep"
by the sweep job of CI.  In each, a pair "p,q" maps the rest of a qpm
command line ("smatrix", "--format csv info", "center --full") to the
digest of the file that command writes with --output.  perfbench keeps its
own digests of (1,2) and (2,3), in perfbench/expected.json.

    PYTHONPATH=src python3 tests/record_digests.py [--check] [SELECTOR ...]

re-records every entry that a SELECTOR names, as a section ("sweep"), a
pair ("3,5") or one command ("3,5 smatrix"), or every entry if none is
given.  With --check it writes nothing, prints each entry's time and
result, and exits 1 if a digest differs.
"""

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

from qpm.cli import main as qpm_main

STORE = Path(__file__).with_name("table_digests.json")


def load() -> dict:
    with open(STORE) as fh:
        return json.load(fh)


def table_digest(pair: str, command: str, directory) -> str:
    """The digest of the table that `qpm --p-plus p --p-minus q command`
    writes with --output into `directory`."""
    p, q = pair.split(",")
    path = Path(directory) / "table"
    if qpm_main(["--p-plus", p, "--p-minus", q, "--output", str(path), *command.split()]):
        raise RuntimeError(f"qpm failed on ({pair}) {command}")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv) -> int:
    check = "--check" in argv
    selectors = set(argv) - {"--check"}
    store = load()
    changed = []
    with tempfile.TemporaryDirectory() as tmp:
        for section, pairs in store.items():
            for pair, tables in pairs.items():
                for command, want in tables.items():
                    if selectors and not selectors & {section, pair, f"{pair} {command}"}:
                        continue
                    start = time.perf_counter()
                    tables[command] = table_digest(pair, command, tmp)
                    if tables[command] != want:
                        changed.append(f"{section} ({pair}) {command}")
                    print(f"{section} ({pair}) {command}: {time.perf_counter() - start:.1f} s"
                          f" {'ok' if tables[command] == want else 'CHANGED'}", flush=True)
    if check:
        if changed:
            print("digests differ:", ", ".join(changed))
        return 1 if changed else 0
    with open(STORE, "w") as fh:
        json.dump(store, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
