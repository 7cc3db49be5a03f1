"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed for the same Python
code changes by up to 2x within seconds and drifts over minutes, as
other tenants load the cores.  Process CPU time moves with it, so it is
not a way out.  Instead, a fixed pure-Python chunk that uses none of the
program's code is timed between consecutive grades, and each grade's
latency is scaled by how fast the chunk ran around it::

    scaled = latency * REFERENCE_CHUNK_S / local chunk time

where the local chunk time is the median of the chunks timed just
before and just after the grade and two on either side of those.  A
scaled latency is the latency the grade would have on a machine on which
the chunk takes ``REFERENCE_CHUNK_S``: a slower or faster program shows,
a slower or faster machine cancels out.  The chunk runs right after a
grade, so it meets the caches as a grade leaves them and feels other
tenants' pressure on them as the grades do; its own data is a few
hundred kilobytes, so what the program leaves behind beyond that does
not change the chunk's time.
"""

from __future__ import annotations

import statistics
import time

#: Seconds one chunk takes on the reference machine.  Any fixed value
#: works: it only sets the unit.  0.5 ms is about what the chunk takes
#: between grades on a 2-core x86-64 VM (CPython 3.11) in its fast
#: stretches; 0.8-0.9 ms in its slow ones.
REFERENCE_CHUNK_S = 0.0005
#: Chunks on either side of a grade's two neighbours that enter its scale.
WINDOW = 2


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key, kids):
        self.key = key
        self.kids = kids


def _walk(node):
    total = node.key
    for kid in node.kids:
        total += _walk(kid)
    return total


def chunk():
    """A fixed piece of interpreter work: dicts, tuples, frozensets,
    strings, small objects and recursion, like the program's own."""
    counts = {}
    acc = 0
    items = []
    for i in range(400):
        key = ("k", i % 97)
        counts[key] = counts.get(key, 0) + i
        items.append(frozenset((i % 7, i % 11, i % 13)))
        acc += len(str(i))
    tree = _Node(0, [_Node(i, [_Node(j, ()) for j in range(5)])
                     for i in range(40)])
    acc += _walk(tree)
    return acc + len(set(items)) + len(sorted(counts.values()))


def time_chunk():
    """Seconds one chunk takes now."""
    began = time.perf_counter()
    chunk()
    return time.perf_counter() - began


def scale(latencies, chunks):
    """Each latency at reference speed.

    ``chunks`` has one more entry than ``latencies``: chunk ``i`` was
    timed just before grade ``i`` and chunk ``i + 1`` just after it.
    """
    if len(chunks) != len(latencies) + 1:
        raise ValueError("need one chunk before each grade and one after "
                         "the last")
    scaled = []
    for i, latency in enumerate(latencies):
        local = statistics.median(
            chunks[max(0, i - WINDOW):i + 2 + WINDOW])
        scaled.append(latency * REFERENCE_CHUNK_S / local)
    return scaled
