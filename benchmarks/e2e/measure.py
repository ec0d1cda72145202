"""Measuring tools shared by the workloads: the latency summary, the
speed-corrected stopwatch and the durability oracle."""

from __future__ import annotations

import math
import time

def latency_summary(samples: list) -> dict:
    """The two latency numbers the benchmark tracks, and the percentiles
    printed beside them.

    Both tracked numbers are means over a band of the sorted sample,
    not single order statistics: the timing model charges fixed costs,
    so a percentile of simulated latencies sits on a plateau (every
    seed of ``catalog_query`` has p50 = one statement + one page read,
    to the last digit) and cannot show a small change, while a mean
    moves with every op in its band.

    * ``trimmed_mean_s``: all ops but the slowest 0.5 %. That last half
      per cent is a handful of ops stalled behind the one checkpoint;
      how many there are changes threefold with the seed, and they
      would double the seed-to-seed spread of a plain mean.
    * ``tail_s``: the ops between the 97.5th and the 99th percentile,
      which leaves 1 % of the sample (ten ops of 1 000) beyond it.
    """
    ordered = sorted(samples)
    count = len(ordered)

    def band(low, high):
        first = int(low * count)
        picked = ordered[first:max(first + 1, int(high * count))]
        return sum(picked) / len(picked)

    def rank(pct):
        return ordered[max(1, math.ceil(pct / 100.0 * count)) - 1]
    return {"samples": count,
            "trimmed_mean_s": band(0.0, 0.995),
            "tail_s": band(0.975, 0.99),
            "p50_s": rank(50), "p99_s": rank(99), "max_s": ordered[-1]}


#: Steps of the reference loop and the CPU time it takes between two
#: laps on the undisturbed reference box (measured there once, then
#: frozen like the op counts): corrected seconds are that box's seconds.
SPIN_STEPS = 60_000
SPIN_NOMINAL_S = 0.0044
#: Host CPU seconds between two readings of the machine's speed.
LAP_S = 0.15


def reference_spin() -> float:
    """CPU seconds a fixed arithmetic loop takes right now: how fast
    this core is at the moment. The loop touches no memory to speak of,
    so the state the program left the caches in does not show in it."""
    acc = 1
    for i in range(SPIN_STEPS // 4):     # untimed: warm up
        acc = (acc * 31 + i) & 0xFFFF
    started = time.process_time()
    for i in range(SPIN_STEPS):
        acc = (acc * 31 + i) & 0xFFFF
    return time.process_time() - started


def corrected(cpu_s: float, spin_before: float, spin_after: float) -> float:
    """``cpu_s`` in seconds of the undisturbed reference box, given the
    reference loop's time at both ends of the interval."""
    return cpu_s * 2 * SPIN_NOMINAL_S / (spin_before + spin_after)


class Stopwatch:
    """Both clocks of the measured window, with the benchmark's own
    checking (oracle compare, invariant sweep, quiesce wait) paused out
    so it is never billed to the program.

    Host CPU time is kept twice: as read (``cpu_raw``) and corrected
    for the machine's speed (``cpu``). The window is cut into laps of
    ``LAP_S``; the reference loop runs between laps (outside the timed
    region), and each lap's CPU time is scaled by nominal / measured
    loop time at its two ends.
    """

    def __init__(self, sim):
        self.sim = sim
        self.cpu = self.cpu_raw = self.wall = self.sim_s = 0.0
        self.laps = 0
        self._since = None

    def resume(self) -> None:
        self._speed = reference_spin()
        self._since = (time.process_time(), time.perf_counter(),
                       self.sim.now)

    def lap(self) -> None:
        cpu, wall, sim = self._since
        spent = time.process_time() - cpu
        self.wall += time.perf_counter() - wall
        self.sim_s += self.sim.now - sim
        speed = reference_spin()
        self.cpu_raw += spent
        self.cpu += corrected(spent, self._speed, speed)
        self.laps += 1
        self._speed = speed
        self._since = (time.process_time(), time.perf_counter(),
                       self.sim.now)

    def tick(self) -> None:
        """Called after every op: start a new lap when one is due."""
        if time.process_time() - self._since[0] >= LAP_S:
            self.lap()

    def pause(self) -> None:
        self.lap()
        self._since = None


class Oracle:
    """What the generator knows was acknowledged: key -> value, where a
    ``None`` value means "acknowledged deleted"."""

    def __init__(self):
        self.rows: dict = {}

    def ack(self, key, value) -> None:
        self.rows[key] = value

    def mismatches(self, actual: dict, limit: int = 5) -> list:
        """Differences between the acknowledged state and ``actual``
        (key -> value for every row that exists)."""
        bad = []
        for key, value in self.rows.items():
            if actual.get(key) != value:
                bad.append(f"{key}: acknowledged {value!r}, "
                           f"found {actual.get(key)!r}")
        live = sum(1 for v in self.rows.values() if v is not None)
        if not bad and live != len(actual):
            bad.append(f"{len(actual)} rows found, {live} acknowledged")
        return bad[:limit]
