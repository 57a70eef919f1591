"""Coincidence counting and normalized intensity correlations.

All estimators work on a ``FirstClicks`` index, built once per stream.
Clicks are paired by pulse: the first click per pulse on each channel
counts, matching start-stop electronics with one valid event per gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_table
from .sources import EventStream, START_CHANNEL, STOP_CHANNEL, TRIGGER_CHANNEL


class InsufficientEventsError(ValueError):
    """Too few coincidence opportunities for a meaningful estimate."""


#: fewest coincidence opportunities a g2 estimate is made from
MIN_OPPORTUNITIES = 100

#: most bins a delay histogram may span (the presets use fewer than 100)
MAX_HISTOGRAM_BINS = 1 << 20


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
    """First click per pulse on the trigger, start and stop channels of one stream.

    Every pulse list is sorted and unique, and each times array holds the
    earliest click of the matching pulse in ps.  Built once per stream by
    ``first_clicks``, it serves every offset through joins on sorted lists.
    """

    trigger_pulses: np.ndarray
    start_pulses: np.ndarray
    start_times: np.ndarray
    stop_pulses: np.ndarray
    stop_times: np.ndarray
    rep_ps: float


def first_clicks(stream: EventStream, start_channel: int = START_CHANNEL,
                 stop_channel: int = STOP_CHANNEL) -> FirstClicks:
    """Index the first clicks of ``stream`` on the trigger, start and stop
    channels; the one place the start-stop rule is applied."""
    channels = (TRIGGER_CHANNEL, start_channel, stop_channel)
    # a channel named twice (such as the trigger as start) is extracted once
    firsts = {ch: stream.first_event_times(ch) for ch in dict.fromkeys(channels)}
    return FirstClicks(firsts[TRIGGER_CHANNEL][0], *firsts[start_channel],
                       *firsts[stop_channel], rep_ps=stream.rep_period * 1e12)


def _join(keys: np.ndarray, pulses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) with keys[i] == pulses[j], for sorted unique arrays, by i."""
    j = np.searchsorted(pulses, keys)
    hit = j < len(pulses)
    hit[hit] = pulses[j[hit]] == keys[hit]
    i = np.flatnonzero(hit)
    return i, j[i]


def opportunities(clicks: FirstClicks, offset: int) -> int:
    """Pulse pairs (p, p + offset) with a trigger at both ends.

    The count is the same for +n and -n.  Merging the two sorted unique
    lists T and T + |n| puts every pulse they share next to its twin, and a
    stable sort of two presorted runs is a single merge.
    """
    trig = clicks.trigger_pulses
    merged = np.sort(np.concatenate((trig, trig + abs(offset))), kind="stable")
    return int(np.count_nonzero(merged[1:] == merged[:-1]))


def pair_delays(clicks: FirstClicks, offset: int = 0
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stop-minus-start delays for pulses with clicks on both channels.

    With ``offset`` n, start clicks at pulse p pair with stop clicks at
    pulse p + n, and the nominal n-pulse separation is subtracted from the
    delay.  Returns (start pulse indices, start indices' delays in ps,
    start times) sorted by pulse.
    """
    i_start, i_stop = _join(clicks.start_pulses + offset, clicks.stop_pulses)
    t_start = clicks.start_times[i_start]
    delays = clicks.stop_times[i_stop] - t_start - offset * clicks.rep_ps
    return clicks.start_pulses[i_start], delays, t_start


def delay_histogram(delays_ps: np.ndarray, bin_width: float = 50e-12) -> DelayHistogram:
    """Histogram stop-minus-start delays given in ps (see ``pair_delays``).

    Bins are centered on integer multiples of ``bin_width`` (seconds), so a
    zero delay falls in the center of the zero bin.  Raises ``ValueError``
    when the delays are not finite or span more than ``MAX_HISTOGRAM_BINS`` bins.
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
        raise ValueError(f"delays from {delays_ps.min():g} to {delays_ps.max():g} ps do not "
                         f"fit in {MAX_HISTOGRAM_BINS} bins of {width_ps:g} ps")
    lo, hi = int(lo), int(hi)
    counts = np.bincount(scaled.astype(np.int64) - lo, minlength=hi - lo + 1)
    centers = np.arange(lo, hi + 1) * width_ps
    return DelayHistogram(width_ps, centers, counts.astype(np.int64))


def count_summary(clicks: FirstClicks, window: CoincidenceWindow, offset: int = 0
                  ) -> tuple[CountSummary, np.ndarray]:
    """Triggers, singles, and windowed coincidences at a pulse offset, and the
    joined delays in ps, which ``delay_histogram`` takes as they are."""
    _, delays, _ = pair_delays(clicks, offset)
    n_coinc = int(np.count_nonzero(window.contains_ps(delays)))
    summary = CountSummary(len(clicks.trigger_pulses), len(clicks.start_pulses),
                           len(clicks.stop_pulses), n_coinc)
    return summary, delays


def g2_zero_from_counts(summary: CountSummary) -> tuple[float, float]:
    """Heralded zero-delay correlation and its first-order Poisson error.

    g2(0) = N_trigger N_coincidence / (N_start N_stop).  The error adds the
    independent-Poisson relative variances of every count in the estimator.
    At zero offset the coincidence opportunities are the triggers, so fewer
    than ``MIN_OPPORTUNITIES`` of them is too few.
    """
    if summary.n_trigger < MIN_OPPORTUNITIES:
        raise InsufficientEventsError(
            f"{summary.n_trigger} triggers, need >= {MIN_OPPORTUNITIES}")
    if summary.n_start == 0 or summary.n_stop == 0:
        raise InsufficientEventsError("zero singles count")
    value = summary.n_trigger * summary.n_coincidence / (summary.n_start * summary.n_stop)
    rel_var = 1.0 / summary.n_trigger + 1.0 / summary.n_start + 1.0 / summary.n_stop
    variance = value * value * rel_var \
        + (summary.n_trigger / (summary.n_start * summary.n_stop)) ** 2 \
        * summary.n_coincidence
    return float(value), float(np.sqrt(variance))


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
    """Keep only paired first clicks whose delay falls inside the window.

    Trigger-channel events are preserved; unpaired or out-of-window start
    and stop clicks are dropped.  Applying the same window twice is a
    no-op.
    """
    pulses, delays, t_start = pair_delays(first_clicks(stream, start_channel, stop_channel))
    keep = window.contains_ps(delays)
    kept_pulses = pulses[keep]
    kept_start = t_start[keep]
    kept_stop = kept_start + delays[keep]

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
