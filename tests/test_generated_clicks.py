"""Generated clicks, indexed with no time sort, against the stream they make.

A run is generated as an ``EventStream``, each chunk's clicks per channel
in generation order.  Its first-click index must equal the sort-based
first clicks of the time-sorted columns that ``sorted_blocks`` yields (the
ones a save writes), and those columns must equal the stable time sort of
the chunks' concatenated events.  Permuting each channel's clicks within
their chunks, and the chunks, must leave every first-click list as it
is.  The one join that counts a window of offsets must give the delays
and in-window counts of one ``searchsorted`` per offset.  Configs are
drawn within the range rules of ``test_config.RANGE_RULES``, on runs of
several short chunks, with jitter and noise wide enough to carry clicks
across chunk boundaries.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_array_equal

from qfcsim import counting, sources
from qfcsim.config import SOURCE_KINDS, ExperimentConfig
from qfcsim.counting import CoincidenceWindow, first_clicks, pair_delays
from qfcsim.sources import (START_CHANNEL, STOP_CHANNEL, TRIGGER_CHANNEL,
                            generate_hbt_stream, generate_mzi_stream)

from test_config import RANGE_RULES, _valid_value
from test_counting import _documented, _reference_first, columns_of

HERALDED_KINDS = ("spdc", "spdc_thermal", "single_photon")


def _ruled(name, high=None):
    """Values of a config field that its rule accepts, at most ``high``."""
    rule = RANGE_RULES[name]
    if high is None:
        return _valid_value(name, rule)
    if name in ("pair_truncation", "n_pulses"):
        return st.integers(1, high)
    return st.floats(0.0, high, exclude_min=rule == "> 0")


def _detector():
    """A detector's efficiency or dark probability, often exactly 0, so
    that a channel can have no click at all."""
    return st.one_of(st.just(0.0), _ruled("det1_efficiency"))


@st.composite
def _runs(draw):
    """(generator, config, chunk pulses): a correlation or interferometer
    run of up to 1,500 pulses in chunks of 1 to 400 pulses."""
    mzi = draw(st.booleans())
    kind = draw(st.sampled_from(HERALDED_KINDS if mzi else SOURCE_KINDS))
    rep_period = ExperimentConfig().rep_period
    cfg = ExperimentConfig(
        source_kind=kind,
        mean_pairs=draw(_ruled("mean_pairs", 3.0)),
        pair_truncation=draw(_ruled("pair_truncation", 6)),
        extra_transmittance=draw(_ruled("extra_transmittance")),
        noise_coeff=draw(_ruled("noise_coeff", 4.0)),
        # up to most of a period: clicks of one chunk land among the next one's
        jitter_sigma=draw(_ruled("jitter_sigma", 0.8 * rep_period)),
        mzi_delay=draw(st.floats(0.0, 0.49 * rep_period, exclude_min=True)),
        **{f"det{i}_{what}": draw(_detector()) for i in (1, 2, 3)
           for what in ("efficiency", "dark")},
        n_pulses=draw(_ruled("n_pulses", 1_500)),
        seed=draw(st.integers(0, 2**63)))
    generate = generate_mzi_stream if mzi else generate_hbt_stream
    return generate, cfg, draw(st.sampled_from([1, 7, 100, 400]))


def _dense(generate):
    """A run of 1,500 pulses in 100-pulse chunks in which most pulses click
    on every channel, so the last stop pulse has starts within reach, and
    whose jitter (correlation) or noise (interferometer) overlaps chunks."""
    rep_period = ExperimentConfig().rep_period
    cfg = ExperimentConfig(
        source_kind="coherent" if generate is generate_hbt_stream else "spdc",
        mean_pairs=3.0, noise_coeff=4.0, jitter_sigma=0.8 * rep_period,
        mzi_delay=0.49 * rep_period, det1_efficiency=1.0, det2_efficiency=0.9,
        det3_efficiency=0.9, n_pulses=1_500, seed=3)
    return generate, cfg, 100


def _stable_time_sort(clicks):
    """The stream the chunks make: each chunk's events in the order of its
    channels, stably sorted by time, joined in chunk order and stably
    sorted again only if a chunk's clicks reach past the next one's."""
    parts = []
    for chunk in clicks.chunks:
        events = [np.concatenate([np.full(len(p), ch, dtype=np.int16)
                                  for ch, (p, _) in chunk.items()]),
                  *(np.concatenate(column) for column in zip(*chunk.values()))]
        order = np.argsort(events[-1], kind="stable")
        parts.append([column[order] for column in events])
    joined = [np.concatenate(column) for column in zip(*parts)]
    order = np.argsort(joined[-1], kind="stable")
    return [column[order] for column in joined]


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(_runs())
@example(_dense(generate_hbt_stream))
@example(_dense(generate_mzi_stream))
def test_generated_index_equals_stream_index(run):
    generate, cfg, chunk_pulses = run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "CHUNK_PULSES", chunk_pulses)
        clicks = generate(cfg)
    assert len(clicks.chunks) == -(-cfg.n_pulses // chunk_pulses)
    want_events = _stable_time_sort(clicks)
    pairings = [(START_CHANNEL, STOP_CHANNEL), (TRIGGER_CHANNEL, START_CHANNEL)]
    indexes = [first_clicks(clicks, *pairing) for pairing in pairings]
    columns = columns_of(clicks)
    assert len(clicks) == len(columns[0])  # the chunks are left as they are
    for column, want in zip(columns, want_events):
        assert_array_equal(column, want, strict=True)
    firsts = {}
    for ch in (TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL):
        pulses, times = _reference_first(columns, ch)
        firsts[ch] = (_documented(pulses, clicks), times)
    for (start, stop), got in zip(pairings, indexes):
        want = (firsts[TRIGGER_CHANNEL][0], *firsts[start], *firsts[stop])
        for field, want_field in zip(("trigger_pulses", "start_pulses", "start_times",
                                      "stop_pulses", "stop_times"), want):
            assert_array_equal(getattr(got, field), want_field, strict=True)
        assert got.rep_ps == cfg.rep_period * 1e12


def _permuted(clicks, rng):
    """``clicks`` with each channel's clicks permuted within their chunk
    and the chunks in permuted order."""
    chunks = []
    for chunk in clicks.chunks:
        orders = {ch: rng.permutation(len(pulses)) for ch, (pulses, _) in chunk.items()}
        chunks.append({ch: (pulses[orders[ch]], times[orders[ch]])
                       for ch, (pulses, times) in chunk.items()})
    chunks = [chunks[i] for i in rng.permutation(len(chunks))]
    return replace(clicks, chunks=chunks)


@settings(derandomize=True, max_examples=40, database=None, deadline=None)
@given(st.sampled_from([generate_hbt_stream, generate_mzi_stream]),
       st.integers(0, 2**63), st.sampled_from([1, 7, 100, 400]), st.integers(0, 2**63))
def test_first_event_times_ignore_click_order(generate, seed, chunk_pulses, shuffle_seed):
    # the dense runs: on the interferometer a 0.49-period delay and heavy
    # noise overlap the gates and the chunks; each herald keeps one start
    # click, so only the permutation takes a channel out of pulse order, and
    # pulses that click more than once are _small_streams' part in test_counting
    generate, cfg, _ = _dense(generate)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "CHUNK_PULSES", chunk_pulses)
        clicks = generate(replace(cfg, seed=seed))
    permuted = _permuted(clicks, np.random.default_rng(shuffle_seed))
    for ch in (TRIGGER_CHANNEL, START_CHANNEL, STOP_CHANNEL):
        for got, want in zip(permuted.first_event_times(ch), clicks.first_event_times(ch)):
            assert_array_equal(got, want, strict=True)
        assert_array_equal(permuted.first_event_times(ch, times=False),
                           clicks.first_event_times(ch, times=False), strict=True)


def _searchsorted_join(clicks, offset):
    """The delays at one offset by one ``searchsorted`` of every start
    key, the join that the windowed one replaced."""
    keys = clicks.start_pulses.astype(np.int64) + offset
    stops = clicks.stop_pulses.astype(np.int64)
    j = np.searchsorted(stops, keys)
    hit = j < len(stops)
    hit[hit] = stops[j[hit]] == keys[hit]
    i = np.flatnonzero(hit)
    return clicks.stop_times[j[i]] - clicks.start_times[i] - offset * clicks.rep_ps


@settings(derandomize=True, max_examples=150, database=None, deadline=None)
@given(_runs(), st.sampled_from([(0, 5), (0, 0), (3, 2), (-7, 4)]),
       st.sampled_from([1, 2, 7, 1 << 16]), st.sampled_from([None, 20e-12, 1e-9, 6e-9]))
@example(_dense(generate_hbt_stream), (0, 5), 7, 1e-9)
@example(_dense(generate_mzi_stream), (0, 0), 1 << 16, None)
def test_windowed_join_equals_one_join_per_offset(run, offsets, block, width):
    generate, cfg, chunk_pulses = run
    center, reach = offsets
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sources, "CHUNK_PULSES", chunk_pulses)
        clicks = first_clicks(generate(cfg))
    window = None if width is None else CoincidenceWindow(width)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "_JOIN_BLOCK", block)
        delays, counts = pair_delays(clicks, center, reach, window)
    assert_array_equal(delays, _searchsorted_join(clicks, center), strict=True)
    want = [_searchsorted_join(clicks, offset)
            for offset in range(center - reach, center + reach + 1)]
    if window is not None:
        want = [d[window.contains_ps(d)] for d in want]
    assert counts.tolist() == [len(d) for d in want]
