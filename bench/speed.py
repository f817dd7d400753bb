"""A fixed pure-Python reference, timed next to each op to track host speed.

Some hosts change speed in phases of a few seconds (on the 2-core VM this
benchmark was built on, by up to 1.7x, with no steal time).  Every run times
``reference`` just before and after each op and each set-up, and scales the
op's time by ``REFERENCE_S / reference time``: the figure is the time the op
would take on a host where the reference takes ``REFERENCE_S``.  Program
changes cannot move the reference, so they show in full in the scaled
figures, while host phases mostly cancel out.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.0025  # the reference's time at the nominal speed
_ROUNDS = 24


class _Node:
    __slots__ = ("label", "kids", "text")

    def __init__(self, label, kids, text) -> None:
        self.label, self.kids, self.text = label, kids, text


def _work() -> int:
    """Build, walk and summarise small trees: the kind of work xview does."""
    total = 0
    for r in range(_ROUNDS):
        root = _Node(
            "r",
            [
                _Node(f"a{i}", [_Node("c", [], str(i * r)), _Node("t", [], "w" * (i % 7))], None)
                for i in range(60)
            ],
            None,
        )
        stack, labels, texts = [root], [], {}
        while stack:
            node = stack.pop()
            labels.append(node.label)
            if node.text is not None:
                texts[node.text] = texts.get(node.text, 0) + 1
            stack.extend(node.kids)
        total += len("".join(labels)) + len(texts)
    return total


def scale(before: float, after: float) -> float:
    """Factor from wall-clock time to time at the reference speed."""
    return REFERENCE_S * 2 / (before + after)


def reference() -> float:
    """Seconds one run of the reference work takes now.

    The collector is off meanwhile (the work makes no cycles), so the size of
    the program's heap does not change the figure.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
