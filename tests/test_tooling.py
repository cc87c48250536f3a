"""Guards that the benchmark's tooling still fits the library.

``perfbench/tracing.py`` wraps library functions by module and attribute
path, and a path that no longer resolves silently drops every per-layer
metric that needs it. A rename therefore fails here, in the tests, and
not only in the benchmark's own self-test.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    # executed from its source text, so that nothing is written beside it
    ns = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), ns)
    return ns["TARGETS"]


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) >= 40
    assert len({span for span, *_ in TARGETS}) == len(TARGETS), "span names repeat"


@pytest.mark.parametrize(
    "module, path", [(m, p) for _, m, p, _ in TARGETS], ids=[s for s, *_ in TARGETS]
)
def test_trace_target_resolves(module, path):
    # the same lookup the tracer makes: the attribute in its owner's own
    # namespace, a function or a class- or static method
    mod = importlib.import_module(f"rangemaj.{module}")
    owner = mod
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner).get(attr)
    assert raw is not None, f"rangemaj.{module}.{path} is gone"
    fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    assert callable(fn) and fn.__module__ == mod.__name__, f"{path} is not a function"
