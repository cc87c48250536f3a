"""Read the shared machine's current speed with a fixed probe.

The benchmark box is shared. From one second to the next its speed
swings by up to 1.7x whatever this process does, and it can stay slow
for minutes, so raw timings of one commit differ from run to run by more
than a regression bound. rangemaj's op times move with the time of a
fixed piece of pure-Python work, the probe, run next to them: over a
minute in which both swung by 1.5x, their ratio held within 7%. The
benchmark therefore times the probe between chunks of ops, outside the
timed region, and reports every time multiplied by ``REF_PROBE_S`` over
the probe time around it: the time the op would have taken on the
reference machine at full speed.

The probe mixes the interpreter work rangemaj does: dict updates on
small ints, and building and walking a tree of ``__slots__`` objects.
The collector is paused during the probe, so that a collection of the
program's heap does not land in it. The probe never touches rangemaj.
"""

from __future__ import annotations

import gc
import time

DICT_LOOPS = 10_000
TREE_LEAVES = 1_000
# the probe's time on the reference machine (2 vCPU VM, CPython 3.11.7)
# at full speed; it only fixes the scale of the reported times
REF_PROBE_S = 1.8e-3


class _Node:
    __slots__ = ("left", "right", "value")

    def __init__(self, left, right, value):
        self.left = left
        self.right = right
        self.value = value


def _build(lo, hi):
    if lo == hi:
        return _Node(None, None, lo)
    mid = (lo + hi) // 2
    return _Node(_build(lo, mid), _build(mid + 1, hi), 0)


def _walk(node):
    if node.left is None:
        return node.value
    return _walk(node.left) + _walk(node.right)


def probe(clock=time.perf_counter) -> float:
    """Seconds the fixed probe work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        d: dict = {}
        for i in range(DICT_LOOPS):
            k = i & 127
            d[k] = d.get(k, 0) + i
        _walk(_build(0, TREE_LEAVES - 1))
        return clock() - t0
    finally:
        if enabled:
            gc.enable()
