"""Self-test of the input generator: one seed, one byte stream.

``python3 -m bench.selftest`` exits non-zero on failure; every benchmark
run also runs it before timing anything.
"""

from __future__ import annotations

import sys

from .gen import fingerprint, make_plan

BATCHES = 16       # long enough for every transaction kind to appear


def problems(seed: int) -> list[str]:
    out = []
    first = fingerprint(make_plan(seed, 0, BATCHES, deletes=True))
    if fingerprint(make_plan(seed, 0, BATCHES, deletes=True)) != first:
        out.append(f"seed {seed} gave two different inputs")
    for other, what in (((seed + 1, 0), "seed"), ((seed, 1), "pass")):
        if fingerprint(make_plan(*other, BATCHES, deletes=True)) == first:
            out.append(f"another {what} gave the same inputs as seed {seed}")
    return out


if __name__ == "__main__":
    found = problems(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
