"""One pass of a workload in a fresh process.

    python3 -m bench.passrun WORKLOAD WORKDIR SEED PASS TRACE OUT

Each pass runs in its own interpreter, so every pass starts from the
same state: the library's signature cache starts empty, and the peak
resident memory is that of one pass, however many passes a run makes.
The pass, with that peak (its children's included), is pickled to OUT.
"""

from __future__ import annotations

import pickle
import resource
import sys
from pathlib import Path

from .trace import Tracer
from .workloads import WORKLOADS


def main(argv: list[str]) -> None:
    workload, work, seed, pass_no, trace, out = argv
    tracer = Tracer() if trace == "1" else None
    p = WORKLOADS[workload](Path(work), int(seed), int(pass_no), tracer)
    if tracer is not None:
        p.traced = True
        p.spans = p.spans or tracer.spans
    p.rss_mb = max(resource.getrusage(who).ru_maxrss
                   for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    with open(out, "wb") as fh:
        pickle.dump(p, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
