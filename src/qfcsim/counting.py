"""Coincidence counting and normalized intensity correlations.

All estimators work on a ``FirstClicks`` index, built once per run from
its generated ``ChannelClicks`` or a loaded ``EventStream``.  Clicks are
paired by pulse: the first click per pulse on each channel counts,
matching start-stop electronics with one valid event per gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_table
from .config import ConfigError
from .sources import (ChannelClicks, EventStream, START_CHANNEL, STOP_CHANNEL,
                      TRIGGER_CHANNEL)


class InsufficientEventsError(ValueError):
    """Too few coincidence opportunities for a meaningful estimate."""


#: fewest coincidence opportunities a g2 estimate is made from
MIN_OPPORTUNITIES = 100

#: most bins a delay histogram may span (the presets use fewer than 100)
MAX_HISTOGRAM_BINS = 1 << 20

#: trigger entries per block of the opportunity count (fastest of 2^12 .. 2^18)
_LAG_BLOCK = 1 << 16
#: start entries per block of the pulse join (see ``pair_delays``)
_JOIN_BLOCK = 1 << 16


@dataclass(frozen=True)
class CoincidenceWindow:
    """Zero-centered acceptance window on the stop-minus-start delay, in seconds."""

    width: float

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("window width must be > 0")

    def contains_ps(self, delays_ps: np.ndarray) -> np.ndarray:
        return np.abs(delays_ps) <= self.width * 1e12 / 2.0


@dataclass(frozen=True)
class CountSummary:
    """Raw counts of one heralded correlation run."""

    n_trigger: int
    n_start: int
    n_stop: int
    n_coincidence: int

    def __post_init__(self):
        counts = (self.n_trigger, self.n_start, self.n_stop, self.n_coincidence)
        if any(c < 0 for c in counts):
            raise ValueError("counts must be >= 0")
        if self.n_coincidence > min(self.n_start, self.n_stop):
            raise ValueError("coincidences cannot exceed either singles count")


@dataclass(frozen=True)
class DelayHistogram:
    """Histogram of stop-minus-start delays, bin centers in picoseconds."""

    bin_width_ps: float
    centers_ps: np.ndarray
    counts: np.ndarray

    @property
    def mass(self) -> int:
        return int(self.counts.sum())

    def save(self, path) -> None:
        write_table(path, "delay_ps,count", (self.centers_ps, self.counts))


@dataclass(frozen=True)
class FirstClicks:
    """First click per pulse on the trigger, start and stop channels of one run.

    Every pulse list is sorted and unique (uint32 up to 2**32 pulses), and
    each times array holds the earliest click of the matching pulse in ps.
    The trigger side is a pulse list alone, since only its length and its
    pulse gaps are counted.  Built once per run by ``first_clicks``, it
    serves every offset through joins on sorted lists.
    """

    trigger_pulses: np.ndarray
    start_pulses: np.ndarray
    start_times: np.ndarray
    stop_pulses: np.ndarray
    stop_times: np.ndarray
    rep_ps: float

    def summary(self, n_coincidence: int) -> CountSummary:
        """The singles of this index with ``n_coincidence`` coincidences."""
        return CountSummary(len(self.trigger_pulses), len(self.start_pulses),
                            len(self.stop_pulses), n_coincidence)


def first_clicks(stream: ChannelClicks | EventStream, start_channel: int = START_CHANNEL,
                 stop_channel: int = STOP_CHANNEL) -> FirstClicks:
    """Index the first clicks of ``stream`` on the trigger, start and stop
    channels, each extracted once by its ``first_event_times``."""
    # a channel named twice (such as the trigger as start) is extracted once
    firsts = {ch: stream.first_event_times(ch)
              for ch in dict.fromkeys((start_channel, stop_channel))}
    trigger = firsts[TRIGGER_CHANNEL][0] if TRIGGER_CHANNEL in firsts \
        else stream.first_event_times(TRIGGER_CHANNEL, times=False)
    return FirstClicks(trigger, *firsts[start_channel], *firsts[stop_channel],
                       rep_ps=stream.rep_period * 1e12)


def opportunities(clicks: FirstClicks, offset: int) -> int:
    """Pulse pairs (p, p + offset) with a trigger at both ends.

    The count is the same for +n and -n, and at 0 it is the trigger count.
    In the sorted unique list T, k steps span at least k pulses, so T[i] + n
    is in T exactly when T[i + k] - T[i] == n for one lag k <= n.  Sorted,
    the lags are nonnegative in T's unsigned dtype too, and one past its
    range matches no pair.  The lags are taken per ``_LAG_BLOCK`` entries of
    T, so no temporary grows with T, and the cost grows with |offset| (the
    sideband offsets are at most 10).
    """
    trig, n = clicks.trigger_pulses, abs(offset)
    if n == 0:
        return len(trig)
    count = 0
    for lo in range(0, len(trig), _LAG_BLOCK):
        part = trig[lo:lo + _LAG_BLOCK + n]  # the block and the n entries its lags reach
        for k in range(1, min(n, len(part) - 1) + 1):
            m = min(_LAG_BLOCK, len(part) - k)
            count += int(np.count_nonzero(part[k:k + m] - part[:m] == n))
    return count


def pair_delays(clicks: FirstClicks, offset: int = 0, reach: int = 0,
                window: CoincidenceWindow | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stop-minus-start delays in ps, in start-pulse order, of the start
    clicks at pulse p with a stop click at pulse p + ``offset``, less the
    nominal ``offset``-pulse separation; and how many delays ``window``
    contains (all without a window) at each offset ``offset`` +- ``reach``.

    One join serves the window of offsets, per ``_JOIN_BLOCK`` start
    entries, so only the kept delays grow with the run.  A block's keys p +
    ``offset`` - ``reach`` are widened to int64 (a negative key, or one past
    the last uint32 pulse, needs it), and the stop list is searched once,
    for them clipped to its own dtype, so it is never cast.  The stop pulses
    are sorted and unique, so the stop at key + d, if any, is among the
    2 ``reach`` + 1 entries from there on.
    """
    stops, bounds = clicks.stop_pulses, np.iinfo(clicks.stop_pulses.dtype)
    low, span = offset - reach, 2 * reach + 1
    parts, counts = [np.zeros(0)], np.zeros(span, dtype=np.int64)
    for lo in range(0, len(clicks.start_pulses), _JOIN_BLOCK):
        keys = clicks.start_pulses[lo:lo + _JOIN_BLOCK].astype(np.int64) + low
        j = np.searchsorted(stops, np.clip(keys, bounds.min, bounds.max).astype(stops.dtype))
        start_times = clicks.start_times[lo:lo + len(keys)]
        kept, found = np.empty(len(keys)), np.zeros(len(keys), dtype=bool)
        for k in range(span):
            # j is nondecreasing, so the candidates inside the stop list are a
            # prefix; a key clipped onto the last stop gives d < 0, which wraps
            n = int(np.searchsorted(j, len(stops) - k))
            d = stops[k:][j[:n]] - keys[:n]
            i = np.flatnonzero(d.view(np.uint64) < span)
            d = d[i]
            delays = clicks.stop_times[k:][j[i]] - start_times[i] - (low + d) * clicks.rep_ps
            counts += np.bincount(d if window is None else d[window.contains_ps(delays)],
                                  minlength=span)
            own = i[d == reach]
            kept[own], found[own] = delays[d == reach], True
        parts.append(kept[found])
    return np.concatenate(parts), counts


def delay_histogram(delays_ps: np.ndarray, bin_width: float = 50e-12) -> DelayHistogram:
    """Histogram stop-minus-start delays given in ps (see ``pair_delays``).

    Bins are centered on integer multiples of ``bin_width`` (seconds), so a
    zero delay falls in the center of the zero bin.  Delays that are not
    finite or span more than ``MAX_HISTOGRAM_BINS`` bins come from bad input
    (a stream file, or a config's jitter): ``ConfigError``, a ValueError.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be > 0")
    width_ps = bin_width * 1e12
    if len(delays_ps) == 0:
        return DelayHistogram(width_ps, np.zeros(0), np.zeros(0, dtype=np.int64))
    scaled = np.rint(delays_ps / width_ps)
    lo, hi = scaled.min(), scaled.max()
    # NaN fails every comparison, and each bin index must fit in int64
    if not (-2.0 ** 62 < lo and hi < 2.0 ** 62 and hi - lo < MAX_HISTOGRAM_BINS):
        raise ConfigError(f"delays from {delays_ps.min():g} to {delays_ps.max():g} ps do not "
                          f"fit in {MAX_HISTOGRAM_BINS} bins of {width_ps:g} ps")
    lo, hi = int(lo), int(hi)
    counts = np.bincount(scaled.astype(np.int64) - lo, minlength=hi - lo + 1)
    centers = np.arange(lo, hi + 1) * width_ps
    return DelayHistogram(width_ps, centers, counts.astype(np.int64))


def count_summary(clicks: FirstClicks, window: CoincidenceWindow, offset: int = 0
                  ) -> tuple[CountSummary, np.ndarray]:
    """Triggers, singles, and windowed coincidences at a pulse offset, and the
    joined delays in ps, which ``delay_histogram`` takes as they are."""
    delays, (n_coinc,) = pair_delays(clicks, offset, window=window)
    return clicks.summary(int(n_coinc)), delays


def g2_zero_from_counts(summary: CountSummary) -> tuple[float, float]:
    """Heralded zero-delay correlation and its first-order Poisson error.

    g2(0) = N_trigger N_coincidence / (N_start N_stop): at zero offset the
    opportunities are the triggers, so ``g2_offset_from_counts`` gives the
    value and its guards (the same float, as int/int division rounds once).
    The error adds the independent-Poisson relative variances of every count.
    """
    value = g2_offset_from_counts(summary, summary.n_trigger)
    rel_var = 1.0 / summary.n_trigger + 1.0 / summary.n_start + 1.0 / summary.n_stop
    variance = value * value * rel_var \
        + (summary.n_trigger / (summary.n_start * summary.n_stop)) ** 2 \
        * summary.n_coincidence
    return value, float(np.sqrt(variance))


def g2_offset_from_counts(summary: CountSummary, opportunities: int) -> float:
    """Normalized correlation from the counts (and opportunities) of one pulse offset.

    The accidental normalization uses the per-opportunity singles product,
    so the estimator reduces to the zero-delay formula at offset 0 and
    approaches 1 for uncorrelated pulses.
    """
    if opportunities < MIN_OPPORTUNITIES:
        raise InsufficientEventsError(
            f"{opportunities} coincidence opportunities, need >= {MIN_OPPORTUNITIES}")
    if summary.n_start == 0 or summary.n_stop == 0:
        raise InsufficientEventsError("zero singles count")
    return float(summary.n_trigger ** 2 * summary.n_coincidence
                 / (opportunities * summary.n_start * summary.n_stop))


def g2_at_offset(clicks: FirstClicks, offset: int, window: CoincidenceWindow) -> float:
    """Normalized correlation between start clicks and stop clicks ``offset``
    pulses later (see ``g2_offset_from_counts``)."""
    return g2_offset_from_counts(count_summary(clicks, window, offset)[0],
                                 opportunities(clicks, offset))


def sideband_mean_from_counts(summary: CountSummary, sidebands) -> tuple[float, float]:
    """Pooled accidental level of the estimated sidebands and its Poisson error.

    ``sidebands`` holds the (coincidences C_n, opportunities O_n) of every
    estimated offset, and ``summary`` the singles they share.  Offset n
    expects A_n = O_n N_start N_stop / N_trigger^2 accidental coincidences,
    so the mean is sum(C_n) / sum(A_n), near 1 for uncorrelated pulses.  Its
    relative variance is 1/sum(C_n) + 1/N_start + 1/N_stop.  Both are NaN
    when no sideband was estimated or sum(C_n) = 0.
    """
    total = sum(c for c, _ in sidebands)
    if total == 0:
        return math.nan, math.nan
    expected = sum(o * summary.n_start * summary.n_stop / summary.n_trigger ** 2
                   for _, o in sidebands)
    value = total / expected
    rel_var = 1.0 / total + 1.0 / summary.n_start + 1.0 / summary.n_stop
    return value, value * math.sqrt(rel_var)


def select_window(stream: EventStream, window: CoincidenceWindow,
                  start_channel: int = START_CHANNEL,
                  stop_channel: int = STOP_CHANNEL) -> EventStream:
    """Keep only first clicks paired in one pulse whose delay falls inside the window.

    Trigger-channel events are preserved; unpaired or out-of-window start
    and stop clicks are dropped, and kept ones keep their times.  Applying
    the same window twice is a no-op.
    """
    clicks = first_clicks(stream, start_channel, stop_channel)
    pulses, i_start, i_stop = np.intersect1d(clicks.start_pulses, clicks.stop_pulses,
                                             assume_unique=True, return_indices=True)
    kept_start, kept_stop = clicks.start_times[i_start], clicks.stop_times[i_stop]
    keep = window.contains_ps(kept_stop - kept_start)
    kept_pulses, kept_start, kept_stop = pulses[keep], kept_start[keep], kept_stop[keep]

    other = ~np.isin(stream.channels, [start_channel, stop_channel])
    channels = np.concatenate([
        stream.channels[other],
        np.full(len(kept_pulses), start_channel, dtype=np.int16),
        np.full(len(kept_pulses), stop_channel, dtype=np.int16),
    ])
    pulse_arr = np.concatenate([stream.pulse_indices[other], kept_pulses, kept_pulses])
    time_arr = np.concatenate([stream.timestamps_ps[other], kept_start, kept_stop])
    order = np.argsort(time_arr, kind="stable")
    return EventStream(
        channels=channels[order],
        pulse_indices=pulse_arr[order],
        timestamps_ps=time_arr[order],
        n_pulses=stream.n_pulses,
        seed=stream.seed,
        rep_period=stream.rep_period,
    )
