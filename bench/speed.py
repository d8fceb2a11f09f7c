"""Machine speed, sampled while a task runs.

The benchmark's host is shared: the same code runs up to twice as fast
at one moment as at another, and the slow spells last from milliseconds
to tens of seconds, so a whole run can fall in one.  CPU time follows
wall time, so no other clock helps.  What does help is to time a fixed
reference kernel often, during the task itself, and to express the
task's time in units of that kernel: the ratio of two pure-Python
workloads timed side by side stays nearly constant while both swing.

`Probe.start()` times the kernel a few times, then every INTERVAL_S of
wall time from a SIGALRM handler, until `Probe.stop()`.  The kernel's
own time inside the measured span is returned by `stop()`, so the
caller can take it out.  `scale()` turns a raw duration into seconds at
reference speed: what it would have taken on a machine where one kernel
call takes REFERENCE_S.  The kernel is bench code only, so a change to
the package moves the scaled time in the same proportion as the raw
time.
"""

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
REFERENCE_S = 0.001    # a round figure near the kernel's time on a 2-core Xeon VM
BRACKET = 3            # samples taken before and after the measured span


def kernel():
    """A fixed mix of what the package spends its time on: Fraction
    arithmetic, dicts keyed by tuples, small-int loops, method calls.
    Of the kernels tried, this one's slowdowns tracked the tasks' most
    closely; a loop of plain dict lookups slowed down more than they did."""
    terms = {}
    acc = Fraction(0)
    for i in range(1, 241):
        step = Fraction(i % 7 - 3, i % 5 + 1)
        acc = acc * Fraction(1, 2) + step
        key = (i % 6, i % 4)
        terms[key] = terms.get(key, 0) + i * i
    return acc, sorted(terms.items())


def _timed():
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


class Probe:
    def __init__(self):
        self.samples = []
        self.inside_ns = 0
        self._previous = None
        for _ in range(BRACKET):     # warm the kernel's code and caches
            kernel()

    def bracket(self):
        self.samples += [_timed() for _ in range(BRACKET)]

    def _on_alarm(self, signum, frame):
        start = time.perf_counter_ns()
        self.samples.append(_timed())
        self.inside_ns += time.perf_counter_ns() - start

    def start(self, sample=True):
        """Begin a span: clear the samples and take the first bracket.
        With sample=False the span gets only its two brackets."""
        self.samples = []
        self.inside_ns = 0
        self.bracket()
        if sample:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """End the span; return the kernel's time inside it, in ns."""
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        inside = self.inside_ns
        self.bracket()
        return inside

    def scale(self):
        """Factor from raw seconds to seconds at reference speed, from
        the samples of the last span."""
        mean_ns = sum(self.samples) / len(self.samples)
        return REFERENCE_S / (mean_ns * 1e-9)
