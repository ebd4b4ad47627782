"""Host-speed calibration: timings at a reference speed.

The sizing host runs at two speeds. The *same* op repeated in one
process has a stable floor and episodes, seconds to minutes long, at
up to +60 % — in user CPU time, with no page faults and no context
switches: the core got slower, not the program. That put the
run-to-run spread of every raw timing at 25-55 %, one seed or ten.

So each timed interval is bracketed by :func:`calibrate`, a fixed
interpreter-bound loop that depends on nothing in the repository, and
multiplied by :func:`host_scale`. A change to the program cannot move
the loop; a slower program still reads slower. The README has the
measurements (raw spreads 0.27-0.54, scaled 0.05-0.19).
"""

from __future__ import annotations

import statistics
import time

#: What :func:`calibrate` takes on the sizing box when nothing
#: interferes. Timings are reported as if it always took this long.
REFERENCE_CALIBRATION_S = 1.7e-3


class _Cell:
    __slots__ = ("key", "value", "link")

    def __init__(self, key, value, link):
        self.key = key
        self.value = value
        self.link = link


def calibrate(steps: int = 4000) -> float:
    """Seconds a fixed interpreter-bound loop takes right now.

    Object allocation, attribute access, dict traffic and integer
    arithmetic — the mix the program is made of — and no I/O.
    """
    start = time.perf_counter()
    table = {}
    chain = None
    total = 0
    for index in range(steps):
        chain = _Cell(index, index * 3, chain)
        table[str(index)] = chain
        total += chain.value + len(table)
    return time.perf_counter() - start


def host_scale(*calibrations: float) -> float:
    """Factor that turns a raw interval into reference-speed seconds,
    from the calibration loops run around (and during) it."""
    return REFERENCE_CALIBRATION_S / statistics.mean(calibrations)
