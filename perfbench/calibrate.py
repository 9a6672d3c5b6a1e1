"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

On a shared host the processor's speed changes for tens of seconds at a
time, by up to half, and the same deterministic job then takes up to twice
as long.  Every process that does measured work therefore also times slices
of this kernel: a ``Sampler`` runs one slice every PERIOD_S seconds from a
SIGALRM handler while the work runs, so the slices see the speed the work
saw, with the work's data in the caches around them.  The benchmark
subtracts the slices' own time from the work's and scales the rest by the
mean over the slices of

    REFERENCE_SLICE_S / (slice time)

so a time reads as it would on a host where one slice takes
REFERENCE_SLICE_S.  The slices come at even steps of wall time, so this
mean weighs each stretch of the work by its length: a slowdown over a third
of the work moves the factor a third of the way.  The lowest and highest
tenth of the factors are left out of the mean (a single slice can be
interrupted, or run in a quiet moment the work around it did not get).  Work too short for MIN_DURING slices (set-up) is scaled
by slices run right after it instead.  The kernel does the kind of work
gentrop does (dicts of exponent tuples, products of large integers) without
importing it, so a change to the package never changes the kernel.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# about one slice during gentrop work on a 2-vCPU Xeon host; only scales the
# printed numbers
REFERENCE_SLICE_S = 0.016
PERIOD_S = 0.2    # between slices during the work
MIN_DURING = 3    # slices during the work that suffice to scale it
AFTER = 8         # slices after shorter work
TRIM = 0.1        # share of the factors left out at each end


def _poly(rng: random.Random, terms: int) -> dict:
    # 4 variables of degree < 4: the product has at most 7^4 terms, so a
    # slice allocates well under a megabyte
    return {tuple(rng.randrange(4) for _ in range(4)): rng.getrandbits(200) - (1 << 199)
            for _ in range(terms)}


_RNG = random.Random(20091209)
_A, _B = _poly(_RNG, 90), _poly(_RNG, 90)


def _kernel() -> int:
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return len(out)


def slices(count: int) -> list:
    """Wall times of ``count`` kernel slices."""
    clock = time.perf_counter
    out = []
    for _ in range(count):
        t0 = clock()
        _kernel()
        out.append(clock() - t0)
    return out


def scale(record: dict) -> float:
    """Factor that turns the time of the work a ``Sampler.finish`` record
    belongs to into reference-host time."""
    factors = sorted(REFERENCE_SLICE_S / t for t in record["after"] or record["slices"])
    cut = int(len(factors) * TRIM)
    return statistics.mean(factors[cut:len(factors) - cut])


def overhead(record: dict) -> float:
    """Seconds the process spent in the slices of a ``Sampler.finish`` record."""
    return record["paused"] + sum(record["after"])


class Sampler:
    """Context manager timing one slice every PERIOD_S seconds of the work
    it wraps.  ``finish`` returns the record ``{"paused": seconds spent in
    slices during the work, "slices": [their times], "after": [...]}``,
    with AFTER slices timed after the work if fewer than MIN_DURING ran
    during it."""

    def __init__(self):
        self.slices: list = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.paused = sum(self.slices)

    def _tick(self, signum, frame):
        self.slices.extend(slices(1))

    def finish(self) -> dict:
        return {"paused": self.paused, "slices": self.slices,
                "after": slices(AFTER) if len(self.slices) < MIN_DURING else []}
