"""The benchmark's tracer wraps named sectsum functions; renaming or deleting
one of them breaks ``perfbench/run.py --trace 1``. Installing the tracer here
keeps that contract inside the fast suite."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import FUNCTIONS, METHODS, Tracer  # noqa: E402


def test_tracer_installs_on_current_package():
    with Tracer().installed() as replaced:
        wrapped = {attr for _, attr, _ in replaced}
    assert {attr for _, attr in FUNCTIONS} | {attr for _, _, attr in METHODS} <= wrapped
