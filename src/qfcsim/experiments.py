"""End-to-end experiment drivers and their report writers.

Each driver takes an ExperimentConfig, runs the simulation and analysis,
and returns a result object; the matching writer lays the result down as
deterministic text artifacts (same config and seed, same bytes).  The
analysis steps ``analyze_g2`` and ``reconstruct`` and the reports
``g2_report`` and ``tomography_report`` are shared with the ``analyze``
command, which runs them on saved files; ``reconstruct`` is the one fit and
score of a count table, with or without bootstrap replicates.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .artifacts import write_pairs, write_table
from .config import ExperimentConfig
from .conversion import EfficiencyFit, conversion_efficiency, fit_efficiency_curve
from .counting import (CoincidenceWindow, CountSummary, DelayHistogram, FirstClicks,
                       InsufficientEventsError, delay_histogram, first_clicks,
                       g2_offset_from_counts, g2_zero_from_counts, opportunities,
                       pair_delays, sideband_mean_from_counts)
# unused here, but perfbench/child.py TARGETS traces them under these names
# (reconstruct fits through mle_reconstruct_batch, not mle_reconstruct)
from .counting import count_summary, g2_at_offset, select_window
from .tomography import mle_reconstruct
from .metrics import ChshResult, chsh_assessment, concurrence, eof_of_concurrence
from .qubits import end_to_end_state, noise_weight
from .sources import (EventStream, START_CHANNEL, TRIGGER_CHANNEL,
                      generate_hbt_stream, generate_mzi_stream)
from .tomography import (MeasurementSetting, MleResult, density_matrix_to_json,
                         mle_reconstruct_batch, save_records, save_report,
                         simulate_counts, standard_settings, subtract_background)


# ---------------------------------------------------------------------------
# Pump-power sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    powers_w: np.ndarray
    efficiencies: np.ndarray
    fit: Optional[EfficiencyFit]
    fit_error: str = ""

    @property
    def peak_power_w(self) -> float:
        return float(self.powers_w[int(np.argmax(self.efficiencies))])

    @property
    def peak_efficiency(self) -> float:
        return float(np.max(self.efficiencies))


def run_efficiency_sweep(config: ExperimentConfig) -> SweepResult:
    """Tabulate conversion efficiency against pump power and refit the law.

    The grid spans zero to the configured pump power in 2 mW steps.  A fit
    failure (too few distinct powers, say) is recorded rather than raised
    so the table is still produced.
    """
    top = max(config.pump_power, 1e-3)
    try:
        powers_w = np.linspace(0.0, top, max(int(round(top / 2e-3)) + 1, 2))
    except ValueError as exc:  # numpy refuses outright a grid of more bytes than it can address
        raise MemoryError(f"sweep grid up to {top!r} W: {exc}") from exc
    model = config.efficiency_model()
    effs = np.array([conversion_efficiency(p, model) for p in powers_w])
    try:
        fit = fit_efficiency_curve(np.column_stack([powers_w, effs]))
        return SweepResult(powers_w, effs, fit)
    except ValueError as exc:
        return SweepResult(powers_w, effs, None, fit_error=str(exc))


def write_sweep(result: SweepResult, outdir) -> list[Path]:
    """Write ``sweep.csv`` and ``sweep_fit.txt``; the fit is in watts, so coeff is per W."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table = outdir / "sweep.csv"
    write_table(table, "power_w,efficiency", [(result.powers_w, result.efficiencies)])
    fit = result.fit
    if fit is None:
        pairs = {"fit_error": result.fit_error}
    else:
        pairs = {"peak": fit.peak, "coeff": fit.coeff, "coeff_unit": "per_W",
                 "residual": fit.residual, "coeff_identifiable": fit.coeff_identifiable}
        if fit.coeff_identifiable:
            pairs["peak_power_w"] = fit.model().peak_power_w
    pairs["table_peak_power_w"] = result.peak_power_w
    pairs["table_peak_efficiency"] = result.peak_efficiency
    summary = outdir / "sweep_fit.txt"
    write_pairs(summary, pairs)
    return [table, summary]


# ---------------------------------------------------------------------------
# Heralded intensity correlation
# ---------------------------------------------------------------------------

@dataclass
class G2Result:
    value: float
    std_error: float
    summary: CountSummary
    histogram: DelayHistogram
    sidebands: dict[int, float] = field(default_factory=dict)
    sideband_errors: dict[int, float] = field(default_factory=dict)
    insufficient: bool = False
    stream: Optional[EventStream] = None
    sideband_mean: float = math.nan
    sideband_mean_error: float = math.nan

    @property
    def sideband_pull(self) -> float:
        """Deviation of the pooled sideband level from 1 in units of its error."""
        return (self.sideband_mean - 1.0) / self.sideband_mean_error


#: the sidebands are the pulse offsets +-1 .. +-SIDEBAND_REACH
SIDEBAND_REACH = 5


def analyze_g2(clicks: FirstClicks, window: CoincidenceWindow,
               bin_width: float = 50e-12) -> G2Result:
    """Zero-delay g2, its error, the histogram of its delays and the
    sidebands at pulse offsets +-1 .. +-``SIDEBAND_REACH``, all from one
    join of a first-click index.  The sidebands probe the accidental
    level: for uncorrelated pulses they sit at 1, and so does their pooled
    mean.  A run too short for a meaningful estimate gives NaN values and
    the ``insufficient`` flag instead of raising.
    """
    reach = SIDEBAND_REACH
    delays, coincidences = pair_delays(clicks, 0, reach, window)
    summary = clicks.summary(int(coincidences[reach]))
    try:
        value, err = g2_zero_from_counts(summary)
        insufficient = False
    except InsufficientEventsError:
        value, err, insufficient = math.nan, math.nan, True
    result = G2Result(value, err, summary, delay_histogram(delays, bin_width),
                      insufficient=insufficient)
    estimated = []
    for n in range(1, reach + 1):
        trigger_pairs = opportunities(clicks, n)
        for offset in (n, -n):
            counts = clicks.summary(int(coincidences[reach + offset]))
            try:
                result.sidebands[offset] = g2_offset_from_counts(counts, trigger_pairs)
            except InsufficientEventsError:
                continue
            estimated.append((counts.n_coincidence, trigger_pairs))
            # one sideband pooled alone is itself, with its own Poisson error
            result.sideband_errors[offset] = sideband_mean_from_counts(summary, estimated[-1:])[1]
    result.sideband_mean, result.sideband_mean_error = sideband_mean_from_counts(
        summary, estimated)
    return result


def run_g2_experiment(config: ExperimentConfig) -> G2Result:
    """Generate a heralded correlation run and analyze it.  The result
    keeps the generated stream, for ``EventStream.save``."""
    clicks = generate_hbt_stream(config)
    result = analyze_g2(first_clicks(clicks), CoincidenceWindow(config.coincidence_window))
    result.stream = clicks
    return result


def g2_report(result: G2Result) -> dict:
    """Summary dict in file key order: the counts, g2(0), its error, the
    ``insufficient`` flag, each estimated sideband and its error, and their
    pooled mean, its error and pull."""
    report = {**asdict(result.summary), "g2_zero": result.value,
              "std_error": result.std_error, "insufficient": result.insufficient}
    for offset in sorted(result.sidebands):
        report[f"g2_offset_{offset}"] = result.sidebands[offset]
        report[f"g2_offset_{offset}_error"] = result.sideband_errors[offset]
    report["sideband_mean"] = result.sideband_mean
    report["sideband_mean_error"] = result.sideband_mean_error
    report["sideband_pull"] = result.sideband_pull
    return report


def write_g2(result: G2Result, outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary_path = outdir / "g2_summary.txt"
    write_pairs(summary_path, g2_report(result))
    hist_path = outdir / "g2_histogram.csv"
    result.histogram.save(hist_path)
    return [summary_path, hist_path]


# ---------------------------------------------------------------------------
# Time-bin arrival histogram
# ---------------------------------------------------------------------------

def run_mzi_histogram(config: ExperimentConfig, postselect: bool = False) -> DelayHistogram:
    """Arrival-time histogram behind the decoding interferometer, in 50 ps bins.

    Delays are measured from the herald click, so the three path
    combinations pile up at -delay, 0, +delay with weights 1:2:1.
    ``postselect`` bins only the delays in the configured window (the central slot).
    """
    clicks = generate_mzi_stream(config)
    delays, _ = pair_delays(first_clicks(clicks, TRIGGER_CHANNEL, START_CHANNEL))
    if postselect:
        delays = delays[CoincidenceWindow(config.postselect_window).contains_ps(delays)]
    return delay_histogram(delays, bin_width=50e-12)


# ---------------------------------------------------------------------------
# Tomography of the converted entangled state
# ---------------------------------------------------------------------------

@dataclass
class TomographyResult:
    rho: np.ndarray
    fidelity: float
    concurrence: float
    eof: float
    chsh: ChshResult
    settings: list[MeasurementSetting]
    counts: np.ndarray
    durations_s: np.ndarray
    mle: MleResult
    subtracted: bool
    errors: dict[str, float] = field(default_factory=dict)
    mean_rate_hz: Optional[float] = None
    bootstrap: list[MleResult] = field(default_factory=list)
    zero_replicates: int = 0
    insufficient: bool = False


#: the scores of a count table with no count to fit
_NO_SCORES = (math.nan, math.nan, math.nan, ChshResult(math.nan, math.nan, False))


def _metrics_of(rho: np.ndarray) -> tuple[float, float, float, ChshResult]:
    conc, chsh = concurrence(rho), chsh_assessment(rho)
    return chsh.witness_fidelity, conc, eof_of_concurrence(conc), chsh


def reconstruct(settings: list[MeasurementSetting], counts: np.ndarray,
                durations_s: np.ndarray, floor=None, replicates=()) -> TomographyResult:
    """Fit a count table and its bootstrap ``replicates`` by MLE in one batch,
    score row 0 against PHI_PLUS, and take error bars from the other rows.

    With a ``floor`` (counts, one value or one per setting) that flat
    background is subtracted from every row.
    Each row gets the fit it would get alone, so row 0 equals the fit of the
    counts without replicates bit for bit.  Only rows with a count left are
    fitted: an all-zero replicate is counted in ``zero_replicates``, and
    all-zero counts give an ``insufficient`` result with NaN metrics and no
    errors.  The result keeps the raw counts and carries no count rate.
    """
    rows = np.array([counts, *replicates])
    if floor is not None:
        rows = subtract_background(rows, floor)
    kept = rows.any(axis=1)
    insufficient = not kept[0]
    # with no point estimate to put error bars on, no replicate is fitted
    point, *bootstrap = mle_reconstruct_batch(settings, rows[kept & kept[0]]) or [
        MleResult(np.full((4, 4), math.nan, dtype=complex), 0, False, math.nan)]
    fid, conc, eof, chsh = _NO_SCORES if insufficient else _metrics_of(point.rho)
    result = TomographyResult(
        rho=point.rho, fidelity=fid, concurrence=conc, eof=eof, chsh=chsh,
        settings=settings, counts=counts, durations_s=durations_s, mle=point,
        subtracted=floor is not None, bootstrap=bootstrap,
        zero_replicates=int(np.count_nonzero(~kept[1:])), insufficient=insufficient)
    if bootstrap:
        fids, concs, eofs, chshs = zip(*(_metrics_of(fit.rho) for fit in bootstrap))
        samples = {"fidelity": fids, "concurrence": concs, "eof": eofs,
                   "s_max": [c.s_max for c in chshs]}
        result.errors = {key: float(np.std(vals)) for key, vals in samples.items()}
    return result


def run_tomography_experiment(config: ExperimentConfig,
                              subtract_bg: bool = False) -> TomographyResult:
    """Simulate the 16-setting schedule on the end-to-end state and reconstruct.

    Pump-induced noise photons enter the simulated state itself, as white
    noise of weight w (``noise_weight``): a flat floor of n_per_setting w / 4
    counts on every setting, which ``subtract_bg`` removes before
    reconstruction.  Errors on the reported metrics come from a parametric
    bootstrap: ``n_bootstrap`` Poisson replicates of the counts, which
    ``reconstruct`` fits in one batch with the counts themselves.
    """
    seed = config.require_seed()
    settings = standard_settings()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 0, 1))))
    counts = simulate_counts(end_to_end_state(config), settings, config.n_per_setting, rng)
    replicates = [np.random.Generator(np.random.Philox(
        np.random.SeedSequence((seed, 0, 2, b)))).poisson(counts)
        for b in range(config.n_bootstrap)]
    floor = config.n_per_setting * noise_weight(config) / 4 if subtract_bg else None
    result = reconstruct(settings, counts, np.full(len(settings), config.duration_per_setting),
                         floor, replicates)
    result.mean_rate_hz = float(counts.sum()) / (len(counts) * config.duration_per_setting)
    return result


def tomography_report(result: TomographyResult) -> dict:
    """Report dict in file key order; the ``insufficient`` flag, the count
    rate, and the ``*_error`` and ``bootstrap_*`` keys appear only when the
    result carries them."""
    report = {
        "density_matrix": density_matrix_to_json(result.rho),
        "fidelity": result.fidelity,
        "concurrence": result.concurrence,
        "entanglement_of_formation": result.eof,
        "chsh_s_max": result.chsh.s_max,
        "witness_fidelity": result.chsh.witness_fidelity,
        "witness_violated": result.chsh.witness_violated,
        "background_subtracted": result.subtracted,
    }
    if result.insufficient:
        report["insufficient"] = True
    if result.mean_rate_hz is not None:
        report["mean_count_rate_hz"] = result.mean_rate_hz
    report["mle_iterations"] = result.mle.iterations
    report["mle_converged"] = result.mle.converged
    report["log_likelihood"] = result.mle.log_likelihood
    for key, val in result.errors.items():
        report[f"{key}_error"] = val
    if result.bootstrap:
        report["bootstrap_mle_iterations"] = [fit.iterations for fit in result.bootstrap]
        report["bootstrap_mle_converged"] = all(fit.converged for fit in result.bootstrap)
    if result.zero_replicates:
        report["bootstrap_zero_replicates"] = result.zero_replicates
    return report


def write_tomography(result: TomographyResult, outdir) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    report_path = outdir / "tomography.json"
    save_report(tomography_report(result), report_path)
    counts_path = outdir / "tomo_counts.csv"
    save_records(result.settings, result.counts, result.durations_s, counts_path)
    return [report_path, counts_path]
