"""The benchmark's tracer wraps library members by name; a rename that
would break a traced run fails here instead of in the benchmark."""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import trace  # noqa: E402
from mutachain import simnet  # noqa: E402


def test_every_traced_target_resolves():
    # looked up the way Tracer.install does: a class's own __dict__
    missing = [trace._name(owner, attr) for owner, attr, _ in trace.TARGETS
               if attr not in (owner.__dict__ if isinstance(owner, type) else vars(owner))]
    assert missing == []


def test_fill_response_carries_the_fills_the_tracer_counts():
    assert "fills" in {f.name for f in dataclasses.fields(simnet.FillResponse)}
