"""Every name the traced benchmark pass wraps still exists in wavesym.

perfbench/tracing.py replaces functions at the names their callers look
up; a renamed or removed one fails the traced run with MissingTarget.
This test fails first, in the test suite.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    """perfbench/tracing.py, loaded by file path; sys.path stays as it is."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = load_tracing()
    specs = [s for targets in tracing.SPAN_TARGETS.values() for s in targets] + list(tracing.COUNT_TARGETS)
    assert specs
    assert [s for s in specs if tracing._resolve(s) is None] == []
