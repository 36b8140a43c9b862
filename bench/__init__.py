"""Benchmark for mutachain: four closed-loop workloads timed from outside.

Run ``python3 -m bench --workload grow --seed 1 --seconds 10 --trace 0``
from the repository root; see ``bench/README.md`` for the workloads and
metrics.  The package measures the library in ``src/`` of the checkout
it sits in, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "mutachain" / "__init__.py").is_file():
    raise SystemExit(f"bench: no mutachain source under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
