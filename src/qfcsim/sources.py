"""Photon-pair sources, threshold detectors, and Monte Carlo event streams.

Streams are generated pulse-synchronously: each pump pulse may herald (or
clock) a trigger event on channel 1 and produce clicks on the analysis
detectors, channel 2 (start) and channel 3 (stop) behind a balanced
splitter, or channel 2 alone behind the decoding interferometer.

Determinism: every generator draws from counter-based Philox substreams
keyed by (seed, chunk_index) over fixed 2**19-pulse chunks, so results are
reproducible bit for bit however the chunks are scheduled.  A run of at
least ``parallel.MIN_TASKS`` chunks, on a machine with 2 CPUs or more, runs
them on a thread pool (numpy releases the GIL in the draws and ufuncs) and
keeps them in chunk order, so its clicks equal the serial ones.  A
heralded chunk draws only what its heralds need: the gaps between heralds
from Geometric(p_herald), then one uniform per herald for its pair number,
whose law given a herald is p_k h_k / p_herald.  That is exact in
distribution, and since the geometric law is memoryless each chunk restarts
its gaps, so a longer run still extends a shorter one.

Memory: a pair-source chunk's draws hold one entry per herald, not per
pulse, and each is dropped once used.  A generated run is kept as
``ChannelClicks``, each chunk's clicks per channel in generation order, at
16 bytes per click: nothing is sorted or joined until ``to_stream``, which
only a saved run and the tests call.  ``to_stream`` consumes the chunks one
at a time into columns allocated for the whole stream, so the clicks and
the stream are never both whole.  On the thread pool one chunk per worker
is in flight; the memory the worker threads freed into their malloc arenas
is handed back to the system as ``to_stream`` drops each chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .artifacts import format_pairs, parse_header, read_table, write_table
from .config import ConfigError, ExperimentConfig
from .parallel import ordered_map, trim_heap

TRIGGER_CHANNEL = 1
START_CHANNEL = 2
STOP_CHANNEL = 3

CHUNK_PULSES = 1 << 19

#: stream events per slice of the first-click extraction
_SLICE_EVENTS = 1 << 16

_CLASSICAL_KINDS = ("coherent", "thermal")

_STREAM_DTYPE = np.dtype([("channel", np.int16), ("pulse", np.int64), ("time_ps", np.float64)])


def pair_distribution(config: ExperimentConfig) -> np.ndarray:
    """P(k pairs) per pulse for the heralded source kinds.

    ``single_photon`` gives exactly one pair, [0, 1].  ``spdc`` (Poissonian,
    many-mode) and ``spdc_thermal`` (single-mode) are truncated at
    ``pair_truncation`` pairs and renormalized.
    """
    if config.source_kind == "single_photon":
        return np.array([0.0, 1.0])
    k = np.arange(config.pair_truncation + 1)
    mu = config.mean_pairs
    if mu <= 0.0:
        log_w = np.where(k == 0, 0.0, -np.inf)
    elif config.source_kind == "spdc_thermal":
        # in logs, as mu**k and (1 + mu)**(k + 1) overflow long before their ratio
        log_w = k * math.log(mu) - (k + 1) * math.log1p(mu)
    else:
        log_w = k * math.log(mu) - mu - np.cumsum(np.log(np.maximum(k, 1)))
    w = np.exp(log_w)
    return w / w.sum()


def _click_prob(efficiency: float, dark: float, n: np.ndarray) -> np.ndarray:
    """Threshold-detector click probability given n incident photons, each
    registered with probability ``efficiency``, plus a dark count with
    probability ``dark`` per gate.  For integer n up to its length, the
    powers come from a table of them: the same ``pow`` on the same inputs."""
    if n.dtype.kind in "iu" and 0 < len(n) and n.max() <= len(n):
        return 1.0 - (1.0 - dark) * ((1.0 - efficiency) ** np.arange(n.max() + 1))[n]
    return 1.0 - (1.0 - dark) * (1.0 - efficiency) ** n


def _first_per_pulse(pulses: np.ndarray, stamps: np.ndarray, times: bool
                     ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """The start-stop rule, the one place it is applied: from one channel's
    clicks in time order, the sorted unique pulses and, with ``times``, the
    earliest click time of each.  Every generator emits a channel's pulses
    in nondecreasing order (jitter and slot offsets are far below the
    period), so the first of each run of equal pulses is the answer in O(n);
    other orders, such as a hand-edited file's, fall back to ``np.unique``.
    """
    # compared in place: a diff array would be the largest temporary here
    later = pulses[1:] > pulses[:-1]
    if later.all():
        first = slice(None)  # no repeated pulse: every click is its pulse's first
    elif np.all(pulses[1:] >= pulses[:-1]):
        first = np.concatenate(([True], later))
    else:
        first = np.unique(pulses, return_index=True)[1]
    pulses = pulses[first]
    return (pulses, stamps[first]) if times else pulses


def _pulse_dtype(n_pulses: int) -> type:
    """The dtype of a first-click pulse list: uint32 while every index fits."""
    return np.uint32 if n_pulses <= 1 << 32 else np.int64


@dataclass
class EventStream:
    """Time-ordered detector clicks from one simulated run.

    Stored as parallel arrays (channel, pulse index, timestamp in ps).
    Timestamps are absolute (pulse index times repetition period, plus path
    delay and jitter) and nondecreasing.
    """

    channels: np.ndarray
    pulse_indices: np.ndarray
    timestamps_ps: np.ndarray
    n_pulses: int
    seed: int
    rep_period: float

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.int16)
        self.pulse_indices = np.asarray(self.pulse_indices, dtype=np.int64)
        self.timestamps_ps = np.asarray(self.timestamps_ps, dtype=np.float64)
        n = len(self.channels)
        if len(self.pulse_indices) != n or len(self.timestamps_ps) != n:
            raise ValueError("channel, pulse, and timestamp arrays must have equal length")
        if self.n_pulses < 0:
            raise ValueError(f"n_pulses must be >= 0, got {self.n_pulses}")
        if n and (self.pulse_indices.min() < 0
                  or self.pulse_indices.max() >= self.n_pulses):
            raise ValueError("pulse index outside [0, n_pulses)")
        # NaN fails the >= test, and sorted infinities can only sit at the ends;
        # compared in place: a diff array would add 8 bytes per event to the peak
        t = self.timestamps_ps
        if n and not (np.isfinite(t[[0, -1]]).all() and np.all(t[1:] >= t[:-1])):
            raise ValueError("timestamps must be finite and nondecreasing")
        if not (math.isfinite(self.rep_period) and self.rep_period > 0.0):
            raise ValueError(f"rep_period must be finite and > 0, got {self.rep_period}")

    def __len__(self) -> int:
        return len(self.channels)

    def first_event_times(self, channel: int, times: bool = True
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The sorted unique pulses with a click on ``channel`` and, with
        ``times``, the earliest click time of each in ps (``_first_per_pulse``).
        Pulses are uint32 while every index fits (``n_pulses <= 2**32``),
        int64 past it, read ``_SLICE_EVENTS`` events at a time into arrays
        of the result's size, so no stream-long mask or int64 copy exists.
        """
        slices = [slice(lo, lo + _SLICE_EVENTS) for lo in range(0, len(self), _SLICE_EVENTS)]
        size = sum(int(np.count_nonzero(self.channels[s] == channel)) for s in slices)
        pulses = np.empty(size, dtype=_pulse_dtype(self.n_pulses))
        stamps = np.empty(size if times else 0)
        end = 0
        for s in slices:
            mask = self.channels[s] == channel
            part = self.pulse_indices[s][mask]
            pulses[end:end + len(part)] = part
            if times:
                stamps[end:end + len(part)] = self.timestamps_ps[s][mask]
            end += len(part)
        return _first_per_pulse(pulses, stamps, times)

    def save(self, path) -> None:
        meta = {"n_pulses": self.n_pulses, "seed": self.seed,
                "rep_period_ps": float(self.rep_period * 1e12)}
        write_table(path, "# " + format_pairs(meta, " "),
                    (self.channels, self.pulse_indices, self.timestamps_ps))

    @classmethod
    def load(cls, path) -> "EventStream":
        with open(path, "r", encoding="utf-8") as fh:
            meta = parse_header(fh.readline().strip())
        # the header is a '#' comment, which the reader skips; numpy reads a
        # path faster than the open handle
        channels, pulses, times = read_table(path, _STREAM_DTYPE)
        return cls(channels, pulses, times, n_pulses=int(meta["n_pulses"]),
                   seed=int(meta["seed"]), rep_period=float(meta["rep_period_ps"]) / 1e12)


@dataclass
class ChannelClicks:
    """Generated clicks of one run, per chunk and channel, in generation order.

    ``chunks[i]`` maps each channel of chunk i to its (pulses, times in ps),
    in the order trigger, start, stop.  The first-click index reads them
    with no time sort; ``to_stream`` builds the time-sorted stream.
    """

    chunks: list[dict[int, tuple[np.ndarray, np.ndarray]]]
    n_pulses: int
    seed: int
    rep_period: float

    def __len__(self) -> int:
        return sum(len(pulses) for chunk in self.chunks for pulses, _ in chunk.values())

    def first_event_times(self, channel: int, times: bool = True
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """``EventStream.first_event_times`` of ``to_stream()``, with no
        stream built.  Only a channel on which a pulse clicks more than once
        (the interferometer's start channel) is put in time order, by the
        stream's own stable sort."""
        pulses, stamps = zip(*[chunk[channel] for chunk in self.chunks if channel in chunk]
                             or [(np.zeros(0, dtype=np.int64), np.zeros(0))])
        pulses = np.concatenate(pulses, dtype=_pulse_dtype(self.n_pulses), casting="unsafe")
        stamps = np.concatenate(stamps) if times else None
        if times and not np.all(pulses[1:] > pulses[:-1]):
            order = np.argsort(stamps, kind="stable")
            pulses, stamps = pulses[order], stamps[order]
        return _first_per_pulse(pulses, stamps, times)

    def to_stream(self) -> EventStream:
        """The time-sorted stream of these clicks, consuming them chunk by
        chunk: each chunk's events, concatenated channel by channel, are
        stably sorted by time into columns allocated once, and each column's
        chunk parts are dropped (and the heap trimmed, as the worker threads'
        arenas hold them if pooled) once it is joined.  Only a click past the
        next chunk's first click makes the stream be sorted again."""
        columns = [np.empty(len(self), dtype=dtype) for dtype in (np.int16, np.int64, float)]
        end = 0
        self.chunks.reverse()
        while self.chunks:
            chunk = self.chunks.pop()
            channels = np.repeat(np.array(list(chunk), dtype=np.int16),
                                 [len(part) for part, _ in chunk.values()])
            pulses, times = zip(*chunk.values())
            times = np.concatenate(times)
            del chunk
            trim_heap()
            order = np.argsort(times, kind="stable")
            out = slice(end, end + len(order))
            np.take(times, order, out=columns[2][out])
            del times
            np.take(channels, order, out=columns[0][out])
            pulses = np.concatenate(pulses)
            trim_heap()
            np.take(pulses, order, out=columns[1][out])
            end += len(order)
            del channels, pulses, order
        if not np.all(columns[2][1:] >= columns[2][:-1]):
            order = np.argsort(columns[2], kind="stable")
            for i in range(len(columns)):
                columns[i] = columns[i][order]  # one column copied at a time
        return EventStream(*columns, n_pulses=self.n_pulses, seed=self.seed,
                           rep_period=self.rep_period)


def _herald(rng: np.random.Generator, config: ExperimentConfig, m: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Heralded pulse offsets of an m-pulse chunk and their pair numbers k.

    Each pulse heralds on its own with p = sum_k w_k, where w_k = p_k h_k
    for the pair probability p_k and the herald click probability h_k.  So
    the gaps between heralds are Geometric(p), drawn in blocks until they
    pass the chunk's end, and a herald's k has law w_k / p, drawn by one
    uniform per herald (none when a single k has weight).  That is exact in
    distribution.  At p >= 1 every pulse heralds and no gap is drawn.
    """
    p_k = pair_distribution(config)
    w = p_k * _click_prob(config.det1_efficiency, config.det1_dark, np.arange(len(p_k)))
    p = float(w.sum())
    if p <= 0.0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        hidx = np.arange(m, dtype=np.int64)
    else:
        parts, last = [], -1
        block = int(m * p + 4.0 * math.sqrt(m * p)) + 1
        while last < m - 1:
            # numpy saturates a gap at int64 max below p of about 1e-20, and any
            # gap past m leaves the chunk, so the clip keeps the cumsum from wrapping
            pos = np.cumsum(np.minimum(rng.geometric(p, block), m + 1))
            pos += last
            parts.append(pos)
            last = int(pos[-1])
        hidx = np.concatenate(parts)
        hidx = hidx[:np.searchsorted(hidx, m)]
    support = np.flatnonzero(w)
    if len(support) == 1:
        return hidx, np.full(len(hidx), support[0], dtype=np.int64)
    # rounding can leave the cdf's end below 1, and no draw may pick a zero weight
    cdf = np.cumsum(w) / p
    k = np.searchsorted(cdf, rng.random(len(hidx)), side="right")
    return hidx, np.minimum(k, support[-1])


def _generate(config: ExperimentConfig, chunk_clicks: Callable) -> ChannelClicks:
    """Run ``chunk_clicks(rng, start, m)``, which simulates pulses ``start ..
    start + m - 1`` and returns each channel's (pulses, timestamps) by
    channel, over fixed chunks.  Each chunk draws from its own Philox
    substream keyed by (seed, chunk_index), and the chunks are kept in chunk
    order, so they may run on ``parallel.ordered_map``'s thread pool
    without changing a draw.
    """
    seed = config.require_seed()

    def run_chunk(task):
        index, start = task
        m = min(CHUNK_PULSES, config.n_pulses - start)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
        return chunk_clicks(rng, start, m)

    tasks = list(enumerate(range(0, config.n_pulses, CHUNK_PULSES)))
    chunks = list(ordered_map(run_chunk, tasks))
    trim_heap()  # the worker threads' malloc arenas hold what their chunks freed
    return ChannelClicks(chunks, config.n_pulses, seed, config.rep_period)


def generate_hbt_stream(config: ExperimentConfig) -> ChannelClicks:
    """Simulate a heralded intensity-correlation run.

    Channel 1 triggers (herald click for pair sources, laser clock for the
    coherent/thermal stand-ins), and the surviving converted-band light is
    split on a balanced splitter onto channels 2 and 3.  Dark counts share
    the pulse-locked timing of photon clicks, so a window as wide as the
    timing spread captures every same-pulse coincidence.
    """
    rep_ps = config.rep_period * 1e12
    sigma_ps = config.jitter_sigma * 1e12
    s_chain = config.chain_efficiency()
    nu = config.noise_mean()
    classical = config.source_kind in _CLASSICAL_KINDS

    def chunk_clicks(rng, start, m):
        # each draw is dropped once used, and jitter takes its pulse time in place
        if classical:
            pulses = np.arange(m, dtype=np.int64)
            mean_eff = config.mean_pairs * s_chain
            if config.source_kind == "coherent":
                n_band = rng.poisson(mean_eff, m)
            else:
                n_band = rng.geometric(1.0 / (1.0 + mean_eff), m) - 1
        else:
            pulses, k = _herald(rng, config, m)
            n_band = rng.binomial(k, s_chain)
            del k
        pulses += start
        nh = len(pulses)
        if nu > 0.0:
            n_band += rng.poisson(nu, nh)
        n_start = rng.binomial(n_band, 0.5)
        n_band -= n_start
        click2 = rng.random(nh) < _click_prob(config.det2_efficiency, config.det2_dark, n_start)
        del n_start
        click3 = rng.random(nh) < _click_prob(config.det3_efficiency, config.det3_dark, n_band)
        del n_band

        base = pulses * rep_ps
        clicks = {}
        for channel, keep in ((TRIGGER_CHANNEL, slice(None)), (START_CHANNEL, click2),
                              (STOP_CHANNEL, click3)):
            jitter = rng.normal(0.0, sigma_ps, nh)
            jitter += base
            clicks[channel] = (pulses[keep], jitter[keep])
        return clicks

    return _generate(config, chunk_clicks)


def generate_mzi_stream(config: ExperimentConfig) -> ChannelClicks:
    """Simulate arrival-time analysis behind the decoding interferometer.

    The heralded photon takes the short or long arm of the encoder and then
    of the decoder, so its arrival at channel 2 is offset by -delay, 0, or
    +delay relative to the pulse-locked reference; short-short and long-long
    paths both land in the central slot.  Pump-induced noise photons arrive
    uniformly across the gate, +-2 delay around the pulse.  Every click is
    kept, and ``counting.first_clicks`` applies the start-stop rule.  From a
    delay of rep_period / 4 the gates of neighbouring pulses overlap, so a
    pulse's noise click can arrive inside its neighbour's gate; that overlap
    is intended.  ``ExperimentConfig.validate`` refuses a delay of
    rep_period / 2 or more, where the +-delay slots themselves would land in
    a neighbouring pulse.
    """
    if config.source_kind in _CLASSICAL_KINDS:
        raise ConfigError("interferometer stream needs a heralded pair source")
    rep_ps = config.rep_period * 1e12
    sigma_ps = config.jitter_sigma * 1e12
    delay_ps = config.mzi_delay * 1e12
    s_chain = config.chain_efficiency()
    nu = config.noise_mean()
    eff2, dark2 = config.det2_efficiency, config.det2_dark

    def chunk_clicks(rng, start, m):
        # each draw is dropped once used, and jitter takes its pulse time in place
        pulses, _ = _herald(rng, config, m)
        pulses += start
        nh = len(pulses)
        base = pulses * rep_ps

        sig_det = rng.random(nh) < 0.5 * s_chain
        long_enc = rng.random(nh) < 0.5
        long_dec = rng.random(nh) < 0.5
        sig_det &= rng.random(nh) < eff2
        offset = (long_enc.astype(np.float64) + long_dec - 1.0) * delay_ps
        offset += base
        sig_time = rng.normal(0.0, sigma_ps, nh)
        sig_time += offset
        del offset

        cand_pulses = [pulses[sig_det]]
        cand_times = [sig_time[sig_det]]
        del sig_det, sig_time
        if nu > 0.0:
            n_noise = rng.binomial(rng.poisson(nu, nh), 0.5 * eff2)
            total = int(n_noise.sum())
            if total:
                cand_pulses.append(np.repeat(pulses, n_noise))
                noise = rng.uniform(-2.0 * delay_ps, 2.0 * delay_ps, total)
                noise += np.repeat(base, n_noise)
                cand_times.append(noise)
        if dark2 > 0.0:
            dark = rng.random(nh) < dark2
            cand_pulses.append(pulses[dark])
            jitter = rng.normal(0.0, sigma_ps, nh)
            jitter += base
            cand_times.append(jitter[dark])
            del jitter

        jitter = rng.normal(0.0, sigma_ps, nh)
        jitter += base
        return {TRIGGER_CHANNEL: (pulses, jitter),
                START_CHANNEL: (np.concatenate(cand_pulses), np.concatenate(cand_times))}

    return _generate(config, chunk_clicks)


class HbtRates(NamedTuple):
    p_trigger: float
    p_start: float
    p_stop: float
    p_coincidence: float
    g2: float


def expected_hbt_rates(config: ExperimentConfig) -> HbtRates:
    """Exact per-pulse click probabilities for the intensity-correlation run.

    Computed by enumerating pair numbers (threshold detectors factorize over
    independent photons, so only generating functions are needed), with
    Poissonian pump noise folded in analytically.  Serves as the analytic
    oracle the Monte Carlo stream is checked against and as the target
    function when calibrating the noise coefficient.
    """
    s_chain = config.chain_efficiency()
    nu = config.noise_mean()
    dark2, dark3 = config.det2_dark, config.det3_dark
    q2 = config.det2_efficiency / 2.0
    q3 = config.det3_efficiency / 2.0

    def poisson_noise_factor(q: float) -> float:
        return math.exp(-nu * q)

    if config.source_kind in _CLASSICAL_KINDS:
        mean_eff = config.mean_pairs * s_chain

        def survival(q: float) -> float:
            # E[(1-q)^n] for the band photon number n
            if config.source_kind == "coherent":
                band = math.exp(-mean_eff * q)
            else:
                band = 1.0 / (1.0 + mean_eff * q)
            return band * poisson_noise_factor(q)

        p_trig = 1.0
    else:
        p_k = pair_distribution(config)
        k = np.arange(len(p_k))
        h_k = _click_prob(config.det1_efficiency, config.det1_dark, k)
        p_trig = float(np.sum(p_k * h_k))
        if p_trig <= 0.0:
            raise ValueError("trigger never fires for this configuration")
        w_k = p_k * h_k / p_trig

        def survival(q: float) -> float:
            # E[(1-q)^n] for the band photon number n, averaged over heralded k
            return float(np.sum(w_k * (1.0 - s_chain * q) ** k)) * poisson_noise_factor(q)

    no2 = (1.0 - dark2) * survival(q2)
    no3 = (1.0 - dark3) * survival(q3)
    no23 = (1.0 - dark2) * (1.0 - dark3) * survival(q2 + q3)
    # the weights sum to 1 only up to rounding, so a zero can come out an ulp below 0
    p2, p3, pc = (max(p, 0.0) for p in (1.0 - no2, 1.0 - no3, 1.0 - no2 - no3 + no23))
    g2 = pc / (p2 * p3) if p2 > 0.0 and p3 > 0.0 else math.nan
    return HbtRates(p_trig, p2, p3, pc, g2)

