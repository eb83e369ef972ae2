"""The machine's speed, sampled while the benchmark runs, and the scaling
of every reported time to one reference speed.

On a shared machine the same call can take twice as long from one
minute to the next, and a slow stretch can outlast a whole run, so no
statistic over one run's raw times is steady across runs.  The processor
time of the process slows down just as much (the slowdown is contention
for the cores, not time taken away), so it is no way out.

So a fixed pure-Python loop, independent of wfcheck, is timed between
the calls: right before a call if the last sample is EVERY_S old, so at
least right before and right after every call longer than that.  A call
that took t between two samples that took s1 and s2 is reported as
t * REFERENCE_S / ((s1 + s2) / 2): the time it would take on a machine
on which the loop takes REFERENCE_S, exactly 1 ms.  The samples nearest
in time are used because the speed also swings within a second.  The
loop is sized to take about that long on a 2-vCPU VM at its usual speed,
so the scaled figures read as seconds there.  It does the kinds of work
wfcheck does (JSON text both ways, regular expressions, sorting,
frozensets, small objects built and walked recursively), over more code
than a tight loop would, so both slow down alike when other tenants
crowd the caches.  A change to wfcheck moves its scaled times just as it
moves its raw ones; only the machine's drift cancels.
"""
from __future__ import annotations

import json
import re
import statistics
from time import perf_counter

REFERENCE_S = 0.001  # the loop's time at the reference speed
EVERY_S = 0.025      # at most this long between two samples


class _Node:
    __slots__ = ("name", "kids")

    def __init__(self, name: str, kids: list):
        self.name, self.kids = name, kids


def _tree(depth: int, i: int) -> _Node:
    return _Node(f"n{i}", [_tree(depth - 1, 3 * i + k) for k in range(3)]
                 if depth else [])


def _size(node: _Node) -> int:
    return 1 + sum(_size(kid) for kid in node.kids)


_WORD = re.compile(r"-?[a-z]+\d")


def loop() -> int:
    """The calibration work: the same every time, nothing of wfcheck."""
    acc = 0
    for i in range(9):
        block = {"id": f"t{i}",
                 "ann": [f"-a{j}" if j % 2 else f"a{j}" for j in range(i)],
                 "kids": [{"type": "task", "id": f"k{j}"} for j in range(4)]}
        text = json.dumps(block, indent=2)
        back = json.loads(text)
        acc += len(_WORD.findall(text))
        acc += len(sorted(back["ann"], key=lambda a: a.lstrip("-")))
        acc += len(frozenset(back["ann"]) | {"x", "y"})
        acc += _size(_tree(3, i))
    return acc


class Speed:
    """The loop's samples in time order, and the factor that scales a
    time measured between two of them to the reference speed."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> int:
        """Time the loop once; return the sample's index."""
        start = perf_counter()
        loop()
        now = perf_counter()
        self.samples.append(now - start)
        self._due = now + EVERY_S
        return len(self.samples) - 1

    def tick(self) -> int:
        """Take a sample if the last one is EVERY_S old; return the index
        of the last sample, which a call timed next starts after."""
        if perf_counter() >= self._due:
            self.sample()
        return len(self.samples) - 1

    def factor(self, mark: int) -> float:
        """For a time measured between samples mark and mark + 1."""
        s1, s2 = self.samples[mark], self.samples[mark + 1]
        return REFERENCE_S / ((s1 + s2) / 2)

    def run_factor(self) -> float:
        """REFERENCE_S over the median of every sample of the run."""
        return REFERENCE_S / statistics.median(self.samples)
