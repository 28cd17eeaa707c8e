"""Speed normalisation against a fixed pure-Python reference chunk.

The machines this runs on share their cores, and the interpreter's speed
drifts by up to a factor of two over tens of seconds.  Every timed case is
therefore preceded by one reference chunk (fixed work that does not touch the
library: permutation arithmetic, frozen dataclasses, hashing), and times are
reported in reference-normalised seconds:

    normalised = measured * REFERENCE_S / mean reference time of the pass

A single case's latency is normalised the same way by the median of the six
chunks nearest to it, three before and three after (``case_factors``): the
speed drifts within a pass too, and a case of 100 ms would otherwise carry
the drift between its own moment and the pass average.

A change to the library moves the measured time but not the reference, so it
moves the normalised time by the same factor; a drift of machine speed moves
both and largely cancels.  ``REFERENCE_S`` is the chunk's typical time on a
2-CPU x86-64 machine with Python 3.11, so normalised seconds read close to
real ones there.  It is a fixed unit: changing it rescales every time metric.
"""
from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from dataclasses import dataclass

import oracle

REFERENCE_S = 0.001

_rng = random.Random(5)
_PERMS = [oracle.random_permutation(_rng, 7) for _ in range(12)]
_IMAGES = list(itertools.permutations(range(1, 6)))


@dataclass(frozen=True)
class _Perm:
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(self.image)


def _work() -> int:
    acc = 0
    for p in _PERMS:
        for q in _PERMS:
            acc += len(oracle.cycles(oracle.compose(p, q)))
    seen = set()
    for image in _IMAGES:
        p = _Perm(image)
        seen.add(p)
        seen.add(_Perm(tuple(image[x - 1] for x in image)))
    return acc + len(seen)


def reference_chunk() -> float:
    """Seconds taken by the reference work.

    The collector is paused so that the library's heap, which differs from
    one version to the next, does not change the reference's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factor(refs: list[float]) -> float:
    """Normalised seconds per measured second, from a pass's reference times."""
    return REFERENCE_S * len(refs) / sum(refs)


def case_factors(refs: list[float]) -> list[float]:
    """Normalised seconds per measured second of each case of a pass.

    Case ``i`` runs between reference chunks ``i`` and ``i + 1``; its factor
    comes from the median of chunks ``i - 2`` to ``i + 3``, as far as they exist.
    """
    return [REFERENCE_S / statistics.median(refs[max(0, i - 2): i + 4]) for i in range(len(refs))]
