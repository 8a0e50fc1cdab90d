"""Times measured against a reference loop, so host speed drift cancels.

The benchmark runs on shared virtual machines whose speed changes
within seconds and drifts from minute to minute: the same
deterministic cell takes 0.29 s in one second and 0.60 s a few seconds
later, with CPU time equal to wall time and no steal.  Medians over a
run do not average that out, because the drift is slower than a run.

A :class:`RefTimer` therefore times every block of work twice: as
wall-clock seconds, and as *reference seconds* -- the wall time scaled
by ``REF_NOMINAL_S`` over the time of a fixed pure-Python loop run just
before and just after the block.  A block timed with
:meth:`RefTimer.time` is also cut into pieces of about ``SAMPLE_S``
seconds by a ``SIGALRM`` handler that runs the loop in between, so a
slow-down in the middle of a long cell is tracked too; the loop's own
time is left out of the block's.  When the host slows down, the work
and the loops around it slow down together and the reference seconds
stay put; a slower program still reads slower, since the loop does not
depend on the program.  The end-to-end times the benchmark reports are
reference seconds; the wall-clock figures go to standard error.
"""

import random
import signal
from time import perf_counter

__all__ = ["REF_LOOPS", "REF_NOMINAL_S", "GROUP_S", "SAMPLE_S",
           "reference_s", "RefTimer"]

#: Iterations of the reference loop's two halves: integer arithmetic,
#: and dict updates, tuple appends and a sort.
REF_LOOPS = (50_000, 5_000)

#: The reference loop's typical time between cells on a quiet 2.0 GHz
#: Xeon vCPU (CPython 3.11).  It only sets the unit: a reference second
#: is a second at that speed.
REF_NOMINAL_S = 0.011

#: Blocks shorter than this are grouped until the group is this long
#: before the reference loop runs again, so that many short blocks do
#: not pay one loop each.
GROUP_S = 0.25

#: Within a block timed by :meth:`RefTimer.time`, the loop runs again
#: after every this many seconds of the block.
SAMPLE_S = 0.5


def reference_s() -> float:
    """Seconds one run of the reference loop takes now.

    Spread (quartile distance over median) of single passes of seed
    base 0 on a 2-vCPU 2.0 GHz Xeon VM: scaled by the arithmetic half
    alone, ``pernode_count`` spread 13%, since its dict- and
    object-heavy code slows down more than arithmetic when the host is
    busy; scaled by the dict half alone, ``batch_count`` spread 7%
    against 3%, since its NumPy and SciPy work slows down less.  Both
    halves together: 6% and 7%.
    """
    start = perf_counter()
    acc = 0
    for i in range(REF_LOOPS[0]):
        acc += i * i % 7
    rng = random.Random(1)
    counts = {}
    pairs = []
    for i in range(REF_LOOPS[1]):
        key = rng.randrange(5000)
        counts[key] = counts.get(key, 0) + 1
        pairs.append((key, i))
    pairs.sort()
    return perf_counter() - start


class RefTimer:
    """Sums wall seconds and reference seconds over timed blocks.

    The reference loop runs when the timer is created, then after every
    group of blocks at least ``GROUP_S`` long, every ``SAMPLE_S`` inside
    a block timed by :meth:`time`, and on :meth:`close`; each stretch
    of work is scaled by the mean of the loop times on either side of
    it.  Read :attr:`wall_s` and :attr:`ref_s` after :meth:`close`.
    :meth:`time` uses ``SIGALRM``, so it must run in the main thread.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self._pending = 0.0
        self._before = reference_s()

    def add(self, seconds: float) -> None:
        """Count *seconds* of wall time that ended just now."""
        self._pending += seconds
        if self._pending >= GROUP_S:
            self._settle()

    def add_before(self, seconds: float) -> None:
        """Count *seconds* of wall time that ended just before the timer
        was created, scaled by the loop time taken at creation."""
        self.wall_s += seconds
        self.ref_s += seconds * REF_NOMINAL_S / self._before

    def time(self, fn, *args):
        """Call ``fn(*args)``, count its wall time, return its result."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.add(perf_counter() - self._start)

    def _on_alarm(self, signum, frame):
        self._pending += perf_counter() - self._start
        self._settle()
        self._start = perf_counter()
        # One-shot, re-armed here, so the handler never re-enters.
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S)

    def close(self) -> None:
        """Scale the blocks not yet scaled."""
        if self._pending:
            self._settle()

    def _settle(self) -> None:
        after = reference_s()
        self.wall_s += self._pending
        self.ref_s += self._pending * 2 * REF_NOMINAL_S / (
            self._before + after)
        self._pending = 0.0
        self._before = after
