"""Coincidence counting and normalized intensity correlations.

All estimators work on pulse-indexed click streams.  Clicks are paired by
pulse: the first click per pulse on each channel counts, matching
start-stop electronics with one valid event per gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sources import EventStream, START_CHANNEL, STOP_CHANNEL, TRIGGER_CHANNEL


class InsufficientEventsError(ValueError):
    """Too few coincidence opportunities for a meaningful estimate."""


#: fewest coincidence opportunities a g2 estimate is made from
MIN_OPPORTUNITIES = 100


@dataclass(frozen=True)
class CoincidenceWindow:
    """Acceptance window on the stop-minus-start delay, in seconds."""

    width: float
    center: float = 0.0

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError("window width must be > 0")

    def contains_ps(self, delays_ps: np.ndarray) -> np.ndarray:
        half = self.width * 1e12 / 2.0
        return np.abs(delays_ps - self.center * 1e12) <= half


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

    def to_text(self) -> str:
        return (f"n_trigger={self.n_trigger}\nn_start={self.n_start}\n"
                f"n_stop={self.n_stop}\nn_coincidence={self.n_coincidence}\n")

    @classmethod
    def from_text(cls, text: str) -> "CountSummary":
        names = ("n_trigger", "n_start", "n_stop", "n_coincidence")
        values = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            # summary files may carry derived quantities on extra lines
            if key in names:
                values[key] = int(val)
        return cls(values["n_trigger"], values["n_start"],
                   values["n_stop"], values["n_coincidence"])


@dataclass(frozen=True)
class DelayHistogram:
    """Histogram of stop-minus-start delays, bin centers in picoseconds."""

    bin_width_ps: float
    centers_ps: np.ndarray
    counts: np.ndarray

    @property
    def mass(self) -> int:
        return int(self.counts.sum())

    def to_csv(self) -> str:
        lines = ["delay_ps,count"]
        for c, n in zip(self.centers_ps, self.counts):
            lines.append(f"{float(c)!r},{int(n)}")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


def pair_delays(stream: EventStream, start_channel: int = START_CHANNEL,
                stop_channel: int = STOP_CHANNEL, offset: int = 0
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stop-minus-start delays for pulses with clicks on both channels.

    With ``offset`` n, start clicks at pulse p pair with stop clicks at
    pulse p + n, and the nominal n-pulse separation is subtracted from the
    delay.  Returns (start pulse indices, start indices' delays in ps,
    stop times) sorted by pulse.
    """
    p_start, t_start = stream.first_event_times(start_channel)
    p_stop, t_stop = stream.first_event_times(stop_channel)
    # first_event_times returns np.unique output, so both lists are unique
    common, i_start, i_stop = np.intersect1d(
        p_start, p_stop - offset, assume_unique=True, return_indices=True)
    rep_ps = stream.rep_period * 1e12
    delays = t_stop[i_stop] - t_start[i_start] - offset * rep_ps
    return common, delays, t_start[i_start]


def delay_histogram(stream: EventStream, start_channel: int = START_CHANNEL,
                    stop_channel: int = STOP_CHANNEL,
                    bin_width: float = 50e-12) -> DelayHistogram:
    """Histogram same-pulse stop-minus-start delays.

    Bins are centered on integer multiples of ``bin_width`` (seconds), so a
    zero delay falls in the center of the zero bin.
    """
    if bin_width <= 0.0:
        raise ValueError("bin_width must be > 0")
    _, delays, _ = pair_delays(stream, start_channel, stop_channel)
    width_ps = bin_width * 1e12
    if len(delays) == 0:
        return DelayHistogram(width_ps, np.zeros(0), np.zeros(0, dtype=np.int64))
    bins = np.rint(delays / width_ps).astype(np.int64)
    lo, hi = bins.min(), bins.max()
    counts = np.bincount(bins - lo, minlength=hi - lo + 1)
    centers = np.arange(lo, hi + 1) * width_ps
    return DelayHistogram(width_ps, centers, counts.astype(np.int64))


def count_summary(stream: EventStream, window: CoincidenceWindow,
                  offset: int = 0, trigger_channel: int = TRIGGER_CHANNEL,
                  start_channel: int = START_CHANNEL,
                  stop_channel: int = STOP_CHANNEL
                  ) -> tuple[CountSummary, int]:
    """Count triggers, singles, and windowed coincidences at a pulse offset.

    Returns the counts plus the number of coincidence opportunities: pulse
    pairs (p, p + offset) with a trigger at both ends (for offset 0 this is
    just the trigger count).
    """
    trig_pulses, _ = stream.first_event_times(trigger_channel)
    start_pulses, _ = stream.first_event_times(start_channel)
    stop_pulses, _ = stream.first_event_times(stop_channel)
    _, delays, _ = pair_delays(stream, start_channel, stop_channel, offset)
    n_coinc = int(np.count_nonzero(window.contains_ps(delays)))
    # first_event_times returns np.unique output, so the pulse list is unique
    opportunities = len(np.intersect1d(trig_pulses, trig_pulses - offset,
                                       assume_unique=True))
    summary = CountSummary(len(trig_pulses), len(start_pulses),
                           len(stop_pulses), n_coinc)
    return summary, opportunities


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


def g2_at_offset(stream: EventStream, offset: int, window: CoincidenceWindow) -> float:
    """Normalized correlation between start clicks and stop clicks ``offset``
    pulses later.

    The accidental normalization uses the per-opportunity singles product,
    so the estimator reduces to the zero-delay formula at offset 0 and
    approaches 1 for uncorrelated pulses.
    """
    summary, opportunities = count_summary(stream, window, offset)
    if opportunities < MIN_OPPORTUNITIES:
        raise InsufficientEventsError(
            f"{opportunities} coincidence opportunities, need >= {MIN_OPPORTUNITIES}")
    if summary.n_start == 0 or summary.n_stop == 0:
        raise InsufficientEventsError("zero singles count")
    return float(summary.n_trigger ** 2 * summary.n_coincidence
                 / (opportunities * summary.n_start * summary.n_stop))


def select_window(stream: EventStream, window: CoincidenceWindow,
                  start_channel: int = START_CHANNEL,
                  stop_channel: int = STOP_CHANNEL) -> EventStream:
    """Keep only paired first clicks whose delay falls inside the window.

    Trigger-channel events are preserved; unpaired or out-of-window start
    and stop clicks are dropped.  Applying the same window twice is a
    no-op.
    """
    pulses, delays, t_start = pair_delays(stream, start_channel, stop_channel)
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
