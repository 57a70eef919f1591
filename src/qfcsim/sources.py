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
keeps them in chunk order, so its clicks equal the serial ones.  A chunk
first draws its triggers from ``_herald_weights``, the one trigger law:
Geometric(p_herald) gaps, none when every pulse triggers, then one uniform
per trigger for its class (pair number k, of law p_k h_k / p_herald), none
for a one-class law.  A correlation trigger then takes its (start, stop)
outcome by one uniform from its class's closed-form click law,
``_outcome_table``, which ``expected_hbt_rates`` averages, and draws a time
only for each click it keeps.  That is all exact in distribution, and since
the geometric law is memoryless each chunk restarts its gaps, so a longer
run still extends a shorter one.

Memory: a pair-source chunk's draws hold one entry per herald, not per
pulse, and a time-bin herald draws its earliest start click, so its pump
noise is one exponential, not one click per photon.  A run is kept as an
``EventStream``, each chunk's clicks per channel, at 16 bytes per click:
nothing is sorted or joined until ``sorted_blocks``, which only a save and
the tests call.  It sorts one chunk at a time and leaves the chunks as
they are, and a save writes each chunk's block before the next is sorted,
so the sorted stream is never whole.  On the thread pool one chunk per
worker is in flight; the memory the worker threads freed into their malloc
arenas is handed back to the system once the run is generated.  A loaded
stream is read one block of lines at a time, each block one chunk, so the
file's text is never whole either.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .artifacts import BLOCK_ROWS, format_pairs, parse_header, read_table, write_table
from .config import ConfigError, ExperimentConfig
from .parallel import ordered_map, trim_heap

TRIGGER_CHANNEL = 1
START_CHANNEL = 2
STOP_CHANNEL = 3

CHUNK_PULSES = 1 << 19

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


def _herald_weights(config: ExperimentConfig) -> np.ndarray:
    """The trigger law: each trigger class's weight, summing to the trigger
    probability per pulse.  A pair source's class is its pair number k, of
    weight p_k h_k, where h_k = 1 - (1 - det1_dark)(1 - det1_efficiency)^k
    is the threshold herald detector's click probability; the
    coherent/thermal stand-ins' one class is the laser pulse, of weight 1."""
    if config.source_kind in _CLASSICAL_KINDS:
        return np.ones(1)
    p_k = pair_distribution(config)
    k = np.arange(len(p_k))
    return p_k * (1.0 - (1.0 - config.det1_dark) * (1.0 - config.det1_efficiency) ** k)


def _pulse_dtype(n_pulses: int) -> type:
    """The dtype of a first-click pulse list: uint32 while every index fits."""
    return np.uint32 if n_pulses <= 1 << 32 else np.int64


@dataclass
class EventStream:
    """Detector clicks of one run, per chunk and channel.

    ``chunks[i]`` maps each channel of chunk i to its (pulses, times in ps):
    a generated chunk's in generation order (trigger, start, stop), a loaded
    block's in file order.  The first-click index reads them with no time
    sort; ``sorted_blocks`` yields the time-sorted stream that ``save``
    writes, one chunk at a time.  Neither changes the chunks.  Times are
    absolute (pulse index times repetition period, plus path delay and
    jitter).
    """

    chunks: list[dict[int, tuple[np.ndarray, np.ndarray]]]
    n_pulses: int
    seed: int
    rep_period: float

    def __len__(self) -> int:
        return sum(len(pulses) for chunk in self.chunks for pulses, _ in chunk.values())

    def first_event_times(self, channel: int, times: bool = True
                          ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The start-stop rule: the sorted unique pulses with a click on
        ``channel`` and, with ``times``, the earliest click time of each in
        ps, whatever the order of the clicks.  Pulses are uint32 while every
        index fits (``n_pulses <= 2**32``), int64 past it.  Pulses that are
        strictly increasing (every g2 channel) are their own index; any other
        channel is put in pulse order, time order within a pulse, by one
        stable sort."""
        pulses, stamps = zip(*[chunk[channel] for chunk in self.chunks if channel in chunk]
                             or [(np.zeros(0, dtype=np.int64), np.zeros(0))])
        pulses = np.concatenate(pulses, dtype=_pulse_dtype(self.n_pulses), casting="unsafe")
        stamps = np.concatenate(stamps) if times else None
        # compared in place: a diff array would be the largest temporary here
        if not np.all(pulses[1:] > pulses[:-1]):
            order = np.lexsort((stamps, pulses)) if times else np.argsort(pulses)
            pulses = pulses[order]
            first = np.concatenate(([True], pulses[1:] != pulses[:-1]))
            pulses = pulses[first]
            stamps = stamps[order[first]] if times else None
        return (pulses, stamps) if times else pulses

    def sorted_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The time-sorted (channel, pulse, time in ps) columns of these
        clicks, one block per chunk, leaving the chunks as they are.  Each
        chunk's clicks, concatenated channel by channel, are stably sorted
        by time behind those carried from earlier chunks; a click at or past
        the first click of any later chunk is carried on, so the blocks join
        into the stable time sort of all clicks in chunk order."""
        firsts = [min((times.min() for _, times in chunk.values() if len(times)),
                      default=math.inf) for chunk in self.chunks]
        bounds = np.minimum.accumulate([*firsts[1:], math.inf][::-1])[::-1]
        carry = (np.zeros(0, dtype=np.int16), np.zeros(0, dtype=np.int64), np.zeros(0))
        for chunk, bound in zip(self.chunks, bounds):
            channels = np.repeat(np.array(list(chunk), dtype=np.int16),
                                 [len(pulses) for pulses, _ in chunk.values()])
            pulses, times = zip(*chunk.values()) if chunk else ((), ())
            times = np.concatenate([carry[2], *times])
            order = np.argsort(times, kind="stable")
            times = times[order]
            # each column is joined and gathered in turn, so one unsorted column is alive at a time
            block = (np.concatenate([carry[0], channels])[order],
                     np.concatenate([carry[1], *pulses])[order], times)
            del channels, pulses, order
            cut = np.searchsorted(times, bound)
            carry = tuple(column[cut:].copy() for column in block)
            yield tuple(column[:cut] for column in block)
            del block, times  # before the next chunk's block is built
        if len(carry[0]):
            yield carry  # clicks at an infinite or NaN time, which no bound passes

    def save(self, path) -> None:
        """Write the ``sorted_blocks`` stream: a ``#`` header of ``n_pulses``,
        ``seed`` and ``rep_period_ps``, then one ``channel,pulse,time_ps``
        row per click."""
        meta = {"n_pulses": self.n_pulses, "seed": self.seed,
                "rep_period_ps": float(self.rep_period * 1e12)}
        write_table(path, "# " + format_pairs(meta, " "), self.sorted_blocks())

    @classmethod
    def load(cls, path) -> "EventStream":
        """The stream in a saved file, read ``BLOCK_ROWS`` lines at a time,
        each block one chunk split by channel, so each channel keeps its
        file order.  A file that no run could have written, with
        ``n_pulses`` < 0, a period that is not finite and > 0, a pulse
        outside [0, n_pulses), or times that are not finite and
        nondecreasing (across blocks too), raises ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            meta = parse_header(fh.readline().strip())
            stream = cls([], int(meta["n_pulses"]), int(meta["seed"]),
                         float(meta["rep_period_ps"]) / 1e12)
            if stream.n_pulses < 0:
                raise ValueError(f"n_pulses must be >= 0, got {stream.n_pulses}")
            if not (math.isfinite(stream.rep_period) and stream.rep_period > 0.0):
                raise ValueError(f"rep_period must be finite and > 0, got {stream.rep_period}")
            last = -math.inf
            while lines := list(itertools.islice(fh, BLOCK_ROWS)):
                channels, pulses, t = read_table(lines, _STREAM_DTYPE)
                if not len(t):
                    continue
                if pulses.min() < 0 or pulses.max() >= stream.n_pulses:
                    raise ValueError("pulse index outside [0, n_pulses)")
                # NaN fails the >= tests, and sorted infinities can only sit at
                # the ends; compared in place, as a diff array would be larger
                if not (t[0] >= last and np.isfinite(t[[0, -1]]).all()
                        and np.all(t[1:] >= t[:-1])):
                    raise ValueError("timestamps must be finite and nondecreasing")
                last = t[-1]
                stream.chunks.append({int(ch): (pulses[channels == ch], t[channels == ch])
                                      for ch in np.unique(channels)})
        return stream


def _herald(rng: np.random.Generator, w: np.ndarray, m: int
            ) -> tuple[np.ndarray, np.ndarray | int]:
    """Triggered pulse offsets of an m-pulse chunk and their classes k.

    Each pulse triggers on its own with p = sum_k w_k, so the gaps between
    triggers are Geometric(p), drawn in blocks until they pass the chunk's
    end, and a trigger's k has law w_k / p, drawn by one uniform per
    trigger.  That is exact in distribution.  At p >= 1 every pulse
    triggers and no gap is drawn; a one-class law returns its k as an int
    and draws no uniform.
    """
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
        return hidx, int(support[0])
    # rounding can leave the cdf's end below 1, and no draw may pick a zero weight
    cdf = np.cumsum(w) / p
    k = np.searchsorted(cdf, rng.random(len(hidx)), side="right")
    return hidx, np.minimum(k, support[-1])


def _generate(config: ExperimentConfig, chunk_clicks: Callable) -> EventStream:
    """Simulate the run over fixed chunks.  Each chunk draws from its own
    Philox substream keyed by (seed, chunk_index): first its triggers, by
    ``_herald`` from the run's ``_herald_weights``, then
    ``chunk_clicks(rng, pulses, k)`` for the triggers' absolute pulses and
    classes, which returns each channel's (pulses, timestamps) by channel.
    The chunks are kept in chunk order, so they may run on
    ``parallel.ordered_map``'s thread pool without changing a draw.
    """
    seed = config.require_seed()
    weights = _herald_weights(config)

    def run_chunk(task):
        index, start = task
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))
        pulses, k = _herald(rng, weights, min(CHUNK_PULSES, config.n_pulses - start))
        pulses += start
        return chunk_clicks(rng, pulses, k)

    tasks = list(enumerate(range(0, config.n_pulses, CHUNK_PULSES)))
    chunks = list(ordered_map(run_chunk, tasks))
    trim_heap()  # the worker threads' malloc arenas hold what their chunks freed
    return EventStream(chunks, config.n_pulses, seed, config.rep_period)


def _outcome_table(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """The click law of the intensity-correlation run, per herald class.

    A class is one of ``_herald_weights``, whose weights it returns: a pair
    number k, or the coherent/thermal stand-ins' one laser pulse.  Its row
    holds the probabilities of no click, a start click only, a stop click
    only and both, so the outcome's bit 0 is the start click and bit 1 the
    stop click.  Threshold detectors factorize over
    independent photons: each band photon goes either way at the balanced
    splitter, so a detector of efficiency e misses it with 1 - q (q = e/2)
    and both miss it with 1 - q2 - q3.  So a row follows from the survival
    terms (1 - d) E[(1 - q)^n]: E over the k pairs thinned by the chain,
    (1 - s_chain q)^k, or over the Poisson or Bose-Einstein band of the
    stand-ins, times exp(-nu q) for the Poissonian pump noise.
    """
    s_chain, nu = config.chain_efficiency(), config.noise_mean()
    # the survival terms' q of the start, the stop and both detectors, as a column
    q2, q3 = config.det2_efficiency / 2.0, config.det3_efficiency / 2.0
    q = np.array([[q2], [q3], [q2 + q3]])
    keep = np.array([[1.0 - config.det2_dark], [1.0 - config.det3_dark],
                     [(1.0 - config.det2_dark) * (1.0 - config.det3_dark)]])
    weights = _herald_weights(config)
    if config.source_kind == "coherent":
        band = np.exp(-config.mean_pairs * s_chain * q)
    elif config.source_kind == "thermal":
        band = 1.0 / (1.0 + config.mean_pairs * s_chain * q)
    else:
        band = (1.0 - s_chain * q) ** np.arange(len(weights))
    no2, no3, no23 = keep * band * np.exp(-nu * q)
    # every entry is >= 0 in exact arithmetic, so one below 0 is a rounded zero
    table = np.stack([no23, no3 - no23, no2 - no23, 1.0 - no2 - no3 + no23], axis=1)
    return weights, np.maximum(table, 0.0)


def generate_hbt_stream(config: ExperimentConfig) -> EventStream:
    """Simulate a heralded intensity-correlation run.

    Channel 1 triggers, as ``_generate`` draws them (herald click for pair
    sources, laser clock for the stand-ins), and the surviving light is
    split on a balanced splitter onto channels 2 and 3.  Each trigger's
    (start, stop) outcome is drawn by one uniform from its class's row of
    ``_outcome_table``, which is exact in distribution; normals are drawn
    for the trigger and the kept clicks only.  Dark counts share the
    pulse-locked timing of photon clicks, so a window as wide as the timing
    spread captures every same-pulse coincidence.
    """
    rep_ps = config.rep_period * 1e12
    sigma_ps = config.jitter_sigma * 1e12
    # a trigger's outcome is the number of its class's edges at or below its uniform
    edges = np.cumsum(_outcome_table(config)[1][:, :3], axis=1).T

    def chunk_clicks(rng, pulses, k):
        u = rng.random(len(pulses))
        outcome = sum(u >= edge[k] for edge in edges)
        del u
        clicks = {}
        for channel, keep in ((TRIGGER_CHANNEL, slice(None)), (START_CHANNEL, outcome % 2 == 1),
                              (STOP_CHANNEL, outcome >= 2)):
            kept = pulses[keep]
            times = rng.normal(0.0, sigma_ps, len(kept))
            times += kept * rep_ps
            clicks[channel] = (kept, times)
        return clicks

    return _generate(config, chunk_clicks)


def generate_mzi_stream(config: ExperimentConfig) -> EventStream:
    """Simulate arrival-time analysis behind the decoding interferometer.

    The heralded photon takes the short or long arm of the encoder and then
    of the decoder, so its arrival at channel 2 is offset by -delay, 0, or
    +delay relative to the pulse-locked reference; short-short and long-long
    paths both land in the central slot.  Pump-induced noise photons arrive
    uniformly across the gate, +-2 delay around the pulse.  Each herald
    keeps only its earliest start click, the one the start-stop rule reads,
    drawn from its exact law: a signal click with q = s_chain eff2 / 2, by
    one uniform u < q whose quarter picks the slot (1:2:1); a pulse-locked
    dark count; and the first of Poisson(lam = noise_mean eff2 / 2) noise
    clicks, at (4 E / lam - 2) delay for one standard exponential E < lam.
    From a delay of rep_period / 4 the gates of neighbouring pulses overlap,
    so a pulse's noise click can arrive inside its neighbour's gate; that
    overlap is intended.  ``ExperimentConfig.validate`` refuses a delay of
    rep_period / 2 or more, where the +-delay slots themselves would land in
    a neighbouring pulse.
    """
    if config.source_kind in _CLASSICAL_KINDS:
        raise ConfigError("interferometer stream needs a heralded pair source")
    rep_ps = config.rep_period * 1e12
    sigma_ps = config.jitter_sigma * 1e12
    delay_ps = config.mzi_delay * 1e12
    q = 0.5 * config.chain_efficiency() * config.det2_efficiency
    lam = 0.5 * config.noise_mean() * config.det2_efficiency

    def chunk_clicks(rng, pulses, _):
        nh = len(pulses)
        trigger = rng.normal(0.0, sigma_ps, nh)
        trigger += pulses * rep_ps
        # each herald's earliest start click relative to its pulse, inf for none
        first = np.full(nh, np.inf)
        u = rng.random(nh)
        hit = np.flatnonzero(u < q)
        first[hit] = (np.digitize(u[hit], [0.25 * q, 0.75 * q]) - 1.0) * delay_ps
        first[hit] += rng.normal(0.0, sigma_ps, len(hit))
        if config.det2_dark > 0.0:
            hit = np.flatnonzero(rng.random(nh) < config.det2_dark)
            first[hit] = np.minimum(first[hit], rng.normal(0.0, sigma_ps, len(hit)))
        if lam > 0.0:
            e = rng.standard_exponential(nh)
            hit = np.flatnonzero(e < lam)
            first[hit] = np.minimum(first[hit], (4.0 * e[hit] / lam - 2.0) * delay_ps)
        keep = first < np.inf
        kept = pulses[keep]
        first = first[keep]
        first += kept * rep_ps
        return {TRIGGER_CHANNEL: (pulses, trigger), START_CHANNEL: (kept, first)}

    return _generate(config, chunk_clicks)


class HbtRates(NamedTuple):
    p_trigger: float
    p_start: float
    p_stop: float
    p_coincidence: float
    g2: float


def expected_hbt_rates(config: ExperimentConfig) -> HbtRates:
    """Exact per-pulse click probabilities for the intensity-correlation run.

    The weighted mean of the ``_outcome_table`` rows that the generator
    draws from, so the trigger probability and the start, stop and
    coincidence probabilities per trigger.  Serves as the analytic oracle
    the Monte Carlo stream is checked against and as the target function
    when calibrating the noise coefficient.
    """
    weights, table = _outcome_table(config)
    p_trig = float(weights.sum())
    if p_trig <= 0.0:
        raise ValueError("trigger never fires for this configuration")
    _, start_only, stop_only, both = weights @ table / p_trig
    p2, p3, pc = start_only + both, stop_only + both, both
    g2 = pc / (p2 * p3) if p2 > 0.0 and p3 > 0.0 else math.nan
    return HbtRates(p_trig, float(p2), float(p3), float(pc), float(g2))
