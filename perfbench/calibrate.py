"""Host-speed calibration for timings taken on a shared machine.

On a shared host the speed of a vCPU drifts by up to 2x over a few
seconds, so a raw wall time says as much about the neighbours as about the
program.  Every timed step is therefore bracketed by runs of a fixed piece
of pure-Python work (``loop_seconds``), a step that runs long is sampled by
the same loop every ``PERIOD_S`` seconds while it runs (``Sampler``), and
its time is reported at the reference speed at which the loop takes
``REF_S`` seconds.  A change that makes the program slower still reads
slower: the loop is benchmark code and does not change with the program.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_S = 0.002  # the loop's time on an idle 2.1 GHz Xeon vCPU, Python 3.11
PERIOD_S = 0.02


def loop_seconds() -> float:
    """Seconds taken now by a fixed mix of tuple, dict and integer work."""
    t0 = perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + sum(key)
    sorted(table.items())
    return perf_counter() - t0


class Sampler:
    """Runs the loop on every ``SIGALRM`` tick of a ``PERIOD_S`` timer while active.

    The handler runs between bytecodes of whatever the main thread is
    doing; ``samples`` holds each loop's time, which the caller takes out of
    the step's wall time.
    """

    def __enter__(self) -> "Sampler":
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(loop_seconds())


def factors(loops: list[float], during: list[list[float]]) -> list[float]:
    """Scale factors to the reference speed, one per step.

    Step ``i`` ran between ``loops[i]`` and ``loops[i + 1]`` and was sampled
    ``during[i]`` while it ran; its speed is the median of those samples and
    of the two loop samples on each side, which shrugs off a stray sample.
    Multiply the step's wall time by its factor.
    """
    return [
        REF_S / statistics.median(loops[max(0, i - 1) : i + 3] + samples)
        for i, samples in enumerate(during)
    ]
