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
joins them in chunk order, so its stream equals the serial one.  A
heralded chunk of m pulses first draws m pair uniforms (none for
``single_photon``), then m herald uniforms; the herald lookup tabulates the
click probability per pair number and is exact.  Both are drawn in blocks
of 2**16, which give the same values in the same order as one call, and
only the pulses' pair numbers are kept between the two passes.

Memory: a chunk drops each draw once it is used, and the time-sorted chunks
are joined one column at a time, dropping that column's chunk parts.  So the
generation peak holds the stream's 18 bytes per event plus a copy of one
column: in the join of the timestamp column once a run has three chunks or
more (about 1.45 times the stream's bytes), and in the time sort of the one
chunk, which also holds its sort order, in a run of one chunk (below 2 times).
On the thread pool one chunk per worker is in flight, and that peak stays
near 1.45 times (1.45-1.48 for four chunks); once the chunks are joined,
the memory the worker threads freed is handed back to the system, since
their malloc arenas would otherwise keep it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .artifacts import format_pairs, parse_header, read_table, write_table
from .config import ConfigError, ExperimentConfig
from .parallel import ordered_map, pool_size, trim_heap
from .qubits import PHI_PLUS, density

TRIGGER_CHANNEL = 1
START_CHANNEL = 2
STOP_CHANNEL = 3

CHUNK_PULSES = 1 << 19

# uniforms drawn per call inside a chunk; the values do not depend on it
_DRAW_BLOCK = 1 << 16

_CLASSICAL_KINDS = ("coherent", "thermal")

_STREAM_DTYPE = np.dtype([("channel", np.int16), ("pulse", np.int64), ("time_ps", np.float64)])


def entangled_pair_state(werner_weight: float) -> np.ndarray:
    """Pair-source polarization state: weighted maximally entangled + white noise.

    weight 1 returns the maximally entangled target exactly; weight 0 the
    maximally mixed state.  Fidelity to the target is (1 + 3 w)/4.
    """
    if not 0.0 <= werner_weight <= 1.0:
        raise ValueError("werner_weight must lie in [0, 1]")
    return werner_weight * density(PHI_PLUS) \
        + (1.0 - werner_weight) * np.eye(4, dtype=complex) / 4.0


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
    probability ``dark`` per gate."""
    return 1.0 - (1.0 - dark) * (1.0 - efficiency) ** n


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

    def first_event_times(self, channel: int) -> tuple[np.ndarray, np.ndarray]:
        """Pulses with at least one click on ``channel`` and the earliest
        click time of each, both sorted by pulse index.

        The stream is time-sorted, so the first click of a pulse is its
        earliest.  Every generator emits a channel's pulses in
        nondecreasing order (jitter and slot offsets are far below the
        period), which makes the first entry of each run of equal pulses
        the answer in O(n); a stream that breaks that order, such as a
        hand-edited file, falls back to a sort.
        """
        mask = self.channels == channel
        pulses = self.pulse_indices[mask]
        times = self.timestamps_ps[mask]
        del mask
        # compared in place: a diff array would be the largest temporary here
        later = pulses[1:] > pulses[:-1]
        if later.all():
            # no repeated pulse: every click is its pulse's first, so no copy
            return pulses, times
        if np.all(pulses[1:] >= pulses[:-1]):
            first = np.concatenate(([True], later))
            return pulses[first], times[first]
        uniq, first = np.unique(pulses, return_index=True)
        return uniq, times[first]

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


def _blocks(m: int):
    """(lo, hi) bounds of consecutive ``_DRAW_BLOCK``-pulse slices of m pulses."""
    for lo in range(0, m, _DRAW_BLOCK):
        yield lo, min(lo + _DRAW_BLOCK, m)


def _herald(rng: np.random.Generator, config: ExperimentConfig, m: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """Heralded pulse offsets of an m-pulse chunk and their pair numbers k.

    Draws m pair uniforms u (none for ``single_photon``, where k = 1), then m
    herald uniforms v, each in ``_DRAW_BLOCK`` slices, which give the same
    values in the same order as one call.  Only k is kept between the two
    passes.  A pulse with no pair (u < cdf[0]) heralds only when
    v < P(click | 0), so k is looked up only for the rest, which is exact.
    """
    # cumsum can end just below 1, so u may land one past the last pair number
    table = _click_prob(config.det1_efficiency, config.det1_dark,
                        np.arange(config.pair_truncation + 2))
    heralded = np.zeros(m, dtype=bool)
    if config.source_kind == "single_photon":
        for lo, hi in _blocks(m):
            np.less(rng.random(hi - lo), table[1], out=heralded[lo:hi])
        hidx = np.flatnonzero(heralded)
        return hidx, np.ones(len(hidx), dtype=np.int64)
    cdf = np.cumsum(pair_distribution(config))
    k = np.zeros(m, dtype=np.min_scalar_type(len(table) - 1))
    for lo, hi in _blocks(m):
        u = rng.random(hi - lo)
        pair = np.flatnonzero(u >= cdf[0])
        k[lo + pair] = np.searchsorted(cdf, u[pair], side="right")
    for lo, hi in _blocks(m):
        v, kb = rng.random(hi - lo), k[lo:hi]
        cand = np.flatnonzero((kb > 0) | (v < table[0]))
        heralded[lo + cand] = v[cand] < table[kb[cand]]
    hidx = np.flatnonzero(heralded)
    return hidx, k[hidx].astype(np.int64)


def _generate(config: ExperimentConfig, chunk_events: Callable) -> EventStream:
    """Run ``chunk_events(rng, start, m)`` over fixed chunks and join the results.

    ``chunk_events`` simulates pulses ``start .. start + m - 1`` and returns
    their (channels, pulse indices, timestamps) in any order.  Each chunk
    draws from its own Philox substream keyed by (seed, chunk_index), and
    its events are stably sorted by time before the chunks are joined in
    chunk order, so the chunks may run on ``parallel.ordered_map``'s thread
    pool without changing a draw.  A click far from its pulse can land past
    the next chunk's first click, and only then is the joined stream sorted
    again.
    """
    seed = config.require_seed()

    def sorted_chunk(task):
        index, start = task
        m = min(CHUNK_PULSES, config.n_pulses - start)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
        chunk = list(chunk_events(rng, start, m))
        order = np.argsort(chunk[-1], kind="stable")
        # each unsorted column is dropped once its sorted copy exists
        return [chunk.pop(0)[order] for _ in range(len(chunk))]

    tasks = list(enumerate(range(0, config.n_pulses, CHUNK_PULSES)))
    columns = [list(parts) for parts in zip(*ordered_map(sorted_chunk, tasks))]
    # each column's parts are dropped once it is joined, and a re-sort
    # replaces one column at a time
    joined = []
    for parts in columns:
        joined.append(np.concatenate(parts))
        parts.clear()
    if pool_size(len(tasks)) > 1:
        # the chunks' memory was freed into the worker threads' malloc arenas
        trim_heap()
    if not np.all(joined[-1][1:] >= joined[-1][:-1]):
        order = np.argsort(joined[-1], kind="stable")
        for i in range(len(joined)):
            joined[i] = joined[i][order]
    channels, pulses, times = joined
    return EventStream(channels=channels, pulse_indices=pulses, timestamps_ps=times,
                       n_pulses=config.n_pulses, seed=seed,
                       rep_period=config.rep_period)


def generate_hbt_stream(config: ExperimentConfig) -> EventStream:
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

    def chunk_events(rng, start, m):
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
        clicked = (slice(None), click2, click3)
        times = []
        for keep in clicked:
            jitter = rng.normal(0.0, sigma_ps, nh)
            jitter += base
            times.append(jitter[keep])
        del base, jitter
        time_arr = np.concatenate(times)
        del times
        channels = np.concatenate([
            np.full(nh, TRIGGER_CHANNEL, dtype=np.int16),
            np.full(int(click2.sum()), START_CHANNEL, dtype=np.int16),
            np.full(int(click3.sum()), STOP_CHANNEL, dtype=np.int16),
        ])
        pulse_arr = np.concatenate([pulses, pulses[click2], pulses[click3]])
        return channels, pulse_arr, time_arr

    return _generate(config, chunk_events)


def generate_mzi_stream(config: ExperimentConfig) -> EventStream:
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

    def chunk_events(rng, start, m):
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
        del base
        time_arr = np.concatenate([jitter, *cand_times])
        del jitter, cand_times
        channels = np.concatenate([
            np.full(nh, TRIGGER_CHANNEL, dtype=np.int16),
            np.full(len(time_arr) - nh, START_CHANNEL, dtype=np.int16),
        ])
        pulse_arr = np.concatenate([pulses, *cand_pulses])
        return channels, pulse_arr, time_arr

    return _generate(config, chunk_events)


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

