//! The three campaign workloads: `paper-campaign` (bare engine),
//! `observed-campaign` (journal, disk telemetry and forensics) and
//! `strike-heavy` (high flux on both platforms).
//!
//! Each runs campaigns back to back for [`WARMUP`], untimed, and then
//! for the measured window, cycling over a few seeds derived from the
//! workload seed, and checks every report against the `jobs = 1` report
//! of its seed after the window.
//! With tracing on, every other campaign runs through a [`Probe`] and
//! the untraced ones in between give the overhead baseline.

use std::path::Path;
use std::time::{Duration, Instant};

use serscale_beam::facility::BeamFacility;
use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::start_or_resume;
use serscale_core::session::RetryPolicy;
use serscale_core::trace::NoopObserver;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_telemetry::{inspect_dir, ConvergenceTracker, TelemetryOptions, TelemetrySink};
use serscale_types::Flux;
use serscale_workload::Benchmark;

use crate::check::{same_report, Tally};
use crate::host::{dir_bytes, CpuTicks, HostLoad};
use crate::layers::{self, Census, EngineTotals, Probe, TrialClass};
use crate::metrics::Metrics;
use crate::stats::median;
use crate::Context;

/// Distinct campaign seeds a run cycles through. A campaign's time
/// varies by about a tenth between seeds (its corrupted kernels), so the
/// median of a run rests on as many seeds as the `jobs = 1` reference
/// runs leave affordable. The count is odd so that, with every other
/// campaign traced, each seed runs both traced and untraced.
pub const SEEDS_PER_RUN: usize = 11;

/// Campaigns run untimed before the window, for at least this long: on
/// the recorded host the first second or so of campaigns in a process ran
/// 1.2–1.9 times as long as the later ones, which would otherwise weigh
/// on the median of a window that holds a dozen campaigns.
pub const WARMUP: Duration = Duration::from_millis(1500);

/// Observed campaigns followed by the timed offline forensics and the
/// convergence-replay check (the first ones of each run).
pub const FORENSIC_RUNS: usize = 3;

/// How far `strike-heavy` raises the beam over the paper's TNF band.
pub const STRIKE_FLUX_FACTOR: f64 = 40.0;

/// The session-time scale of `strike-heavy` campaigns.
pub const STRIKE_SCALE: f64 = 0.05;

/// Campaign seeds for a workload seed: the workload seed itself, so a
/// run at the `repro` seed reports the `repro` census, then seeds
/// derived from it. The derived ones stay below 2^53, the largest seed a
/// JSON campaign spec carries exactly.
pub fn campaign_seeds(seed: u64, workload: &str, count: usize) -> Vec<u64> {
    std::iter::once(seed)
        .chain(
            SimRng::seed_from(seed)
                .fork(workload)
                .take_u64s(count.saturating_sub(1))
                .into_iter()
                .map(|s| s >> 11),
        )
        .take(count)
        .collect()
}

/// The high-flux facility of `strike-heavy`: the TNF band scaled by
/// [`STRIKE_FLUX_FACTOR`], same thermal share and uncertainty.
pub fn strike_facility() -> BeamFacility {
    let tnf = BeamFacility::tnf();
    let (lo, hi) = tnf.center_flux_band();
    BeamFacility::new(
        "perfbench-high-flux",
        Flux::per_cm2_s(lo.as_per_cm2_s() * STRIKE_FLUX_FACTOR),
        Flux::per_cm2_s(hi.as_per_cm2_s() * STRIKE_FLUX_FACTOR),
        tnf.thermal_fraction(),
        tnf.absolute_flux_uncertainty(),
    )
}

/// The campaigns one "campaign" of a workload runs, for one seed: the
/// full X-Gene 2 schedule, or the X-Gene 2 and Zynq MPSoC schedules
/// under the high-flux beam.
pub fn campaign_unit(workload: &str, specs: &[PlatformSpec], seed: u64) -> Vec<CampaignConfig> {
    specs
        .iter()
        .map(|spec| {
            let mut config = if workload == "strike-heavy" {
                let mut c = CampaignConfig::for_platform_scaled(spec, STRIKE_SCALE);
                c.facility = strike_facility();
                c
            } else {
                CampaignConfig::for_platform(spec)
            };
            config.seed = seed;
            config
        })
        .collect()
}

fn trials(report: &CampaignReport) -> u64 {
    report.sessions.iter().map(|s| s.runs).sum()
}

/// Host-time samples of one window.
#[derive(Default)]
struct Window {
    untraced: Vec<f64>,
    traced: Vec<f64>,
    trials: u64,
    /// Wall seconds spent in the campaigns.
    wall_s: f64,
    /// Traced wall time, and the part of it the layers account for.
    traced_wall_ns: u64,
    accounted_ns: u64,
    engine: EngineTotals,
}

impl Window {
    fn record(&mut self, traced: bool, secs: f64, trials: u64) {
        if traced {
            self.traced.push(secs);
        } else {
            self.untraced.push(secs);
        }
        self.trials += trials;
        self.wall_s += secs;
    }

    fn report(&self, ctx: &Context, metrics: &mut Metrics) {
        let untraced = median(&self.untraced);
        metrics.set("campaign_s_p50", untraced);
        metrics.set("trials_per_s", self.trials as f64 / self.wall_s);
        if !ctx.trace {
            return;
        }
        let n = self.traced.len().max(1) as f64;
        let e = &self.engine;
        let traced = median(&self.traced);
        metrics.set("trace.campaign_s_p50", traced);
        metrics.set("trace.untraced_campaign_s_p50", untraced);
        metrics.set("trace.samples", self.traced.len() as f64);
        metrics.set("trace.overhead", traced / untraced);
        metrics.set(
            "trace.residual",
            1.0 - self.accounted_ns as f64 / self.traced_wall_ns.max(1) as f64,
        );
        metrics.set("parallel.busy_s", e.busy_ns as f64 / 1e9 / n);
        metrics.set("parallel.idle_s", e.idle_ns as f64 / 1e9 / n);
        metrics.set(
            "parallel.utilization",
            e.busy_ns as f64 / (e.busy_ns + e.idle_ns).max(1) as f64,
        );
        metrics.set(
            "parallel.critical_path_s",
            e.critical_path_ns as f64 / 1e9 / n,
        );
        metrics.set("session.waves", e.waves as f64 / n);
        metrics.set(
            "session.speculation_yield",
            e.absorbed as f64 / e.planned.max(1) as f64,
        );
        metrics.set("session.merge_s", e.merge_ns() as f64 / 1e9 / n);
        metrics.set("observer.calls", e.observer_calls as f64 / n);
        metrics.set(
            "observer.s",
            (e.observer_in_wave_ns + e.observer_between_waves_ns) as f64 / 1e9 / n,
        );
    }
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one bare campaign, traced or not; returns its report and host
/// seconds.
fn run_bare(
    config: &CampaignConfig,
    jobs: usize,
    probe: Option<&mut Window>,
) -> (CampaignReport, f64) {
    let campaign = Campaign::new(config.clone());
    let clock = Instant::now();
    match probe {
        None => {
            let report = campaign.run_parallel(jobs);
            (report, clock.elapsed().as_secs_f64())
        }
        Some(window) => {
            let mut probe = Probe::new(NoopObserver);
            let report = campaign.run_observed(jobs, &mut probe);
            let wall = elapsed_ns(clock);
            window.engine.add(&probe.totals);
            window.traced_wall_ns += wall;
            window.accounted_ns += probe.totals.accounted_ns();
            (report, wall as f64 / 1e9)
        }
    }
}

/// What one observed campaign left for the checks.
struct Observed {
    report: CampaignReport,
    sink: TelemetrySink,
    secs: f64,
}

/// Runs one campaign through the production write path: a disk-backed
/// telemetry sink and an on-disk journal in `dir`, artifacts written at
/// the end. Traced, the probe decorates the sink's observer and the
/// steps around the engine are timed one by one.
fn run_observed(
    config: &CampaignConfig,
    jobs: usize,
    dir: &Path,
    window: Option<&mut Window>,
    export: &mut Vec<(f64, u64)>,
) -> Result<Observed, String> {
    let campaign = Campaign::new(config.clone());
    let clock = Instant::now();
    let sink = TelemetrySink::new(dir, TelemetryOptions::default()).map_err(|e| e.to_string())?;
    let sink_ns = elapsed_ns(clock);
    let opened = Instant::now();
    let (mut writer, recovered) =
        start_or_resume(dir, campaign.config()).map_err(|e| e.to_string())?;
    let open_ns = elapsed_ns(opened);
    if recovered.is_some() {
        return Err(format!("{} already held a journal", dir.display()));
    }
    let options = CampaignRunOptions {
        jobs,
        retry: RetryPolicy::standard(),
        journal: Some(&mut writer),
        recovered: None,
        cancel: None,
    };
    let (report, totals) = match window.is_some() {
        false => {
            let mut observer = sink.observer();
            (campaign.run_recoverable(options, &mut observer), None)
        }
        true => {
            let mut probe = Probe::new(sink.observer());
            let report = campaign.run_recoverable(options, &mut probe);
            (report, Some(probe.totals))
        }
    };
    let closing = Instant::now();
    drop(writer);
    let close_ns = elapsed_ns(closing);
    let writing = Instant::now();
    let paths = sink.write().map_err(|e| format!("telemetry export: {e}"))?;
    let write_ns = elapsed_ns(writing);
    let wall = elapsed_ns(clock);
    if let (Some(window), Some(totals)) = (window, totals) {
        window.engine.add(&totals);
        window.traced_wall_ns += wall;
        window.accounted_ns += totals.accounted_ns() + sink_ns + open_ns + close_ns + write_ns;
        let bytes = paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();
        export.push((write_ns as f64 / 1e9, bytes));
    }
    Ok(Observed {
        report,
        sink,
        secs: wall as f64 / 1e9,
    })
}

/// Offline forensics over an observed campaign's directory: `inspect_dir`
/// and the convergence replay, each timed; the replay must reproduce the
/// live snapshot byte for byte.
fn forensics(dir: &Path, observed: &Observed) -> Result<(f64, f64), String> {
    let clock = Instant::now();
    let inspected = inspect_dir(dir)?;
    let inspect_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let replayed =
        ConvergenceTracker::replay(dir).map_err(|e| format!("convergence replay: {e}"))?;
    let convergence_s = clock.elapsed().as_secs_f64();
    if inspected.sessions.len() != observed.report.sessions.len() || inspected.event_lines == 0 {
        return Err(format!(
            "inspect found {} sessions and {} event lines for a {}-session campaign",
            inspected.sessions.len(),
            inspected.event_lines,
            observed.report.sessions.len()
        ));
    }
    if replayed.snapshot().to_json() != observed.sink.convergence_json() {
        return Err("convergence replay differs from the live snapshot".into());
    }
    Ok((inspect_s, convergence_s))
}

/// Runs a campaign workload for the window and records its metrics,
/// with the traced run's census of the first seed's campaigns. Returns
/// the host load over the window.
///
/// # Errors
///
/// Set-up or I/O failures that stop the run; failed checks are counted
/// in `tally` instead.
pub fn run(
    ctx: &Context,
    specs: &[PlatformSpec],
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<HostLoad, String> {
    let workload = ctx.workload.as_str();
    let observed = workload == "observed-campaign";
    let units: Vec<Vec<CampaignConfig>> = campaign_seeds(ctx.seed, workload, SEEDS_PER_RUN)
        .into_iter()
        .map(|s| campaign_unit(workload, specs, s))
        .collect();

    let mut window = Window::default();
    let mut reports: Vec<(usize, Vec<CampaignReport>)> = Vec::new();
    let mut export = Vec::new();
    let mut forensic_samples = Vec::new();
    let mut artifact_bytes = Vec::new();
    let mut journal_cost = None;
    // Every seed runs at least once in the window; traced, at least once
    // traced and once untraced.
    let min_units = if ctx.trace {
        2 * SEEDS_PER_RUN
    } else {
        SEEDS_PER_RUN
    };
    let warmup_end = Instant::now() + WARMUP;
    let mut window_start = None;
    let mut measured = 0usize;
    let mut i = 0usize;
    loop {
        if window_start.is_none() && Instant::now() >= warmup_end {
            window_start = Some((Instant::now(), CpuTicks::now()));
        }
        if let Some((start, _)) = window_start {
            if measured >= min_units && start.elapsed() >= ctx.seconds {
                break;
            }
        }
        let timed = window_start.is_some();
        let which = i % units.len();
        let traced = ctx.trace && timed && i % 2 == 1;
        let mut unit_reports = Vec::new();
        let mut unit_secs = 0.0;
        for (k, config) in units[which].iter().enumerate() {
            if observed {
                let dir = ctx.work.join(format!("observed-{i}-{k}"));
                let result = run_observed(
                    config,
                    ctx.jobs,
                    &dir,
                    traced.then_some(&mut window),
                    &mut export,
                );
                let outcome = result.and_then(|obs| {
                    obs.sink.crosscheck_campaign(&obs.report)?;
                    artifact_bytes.push(dir_bytes(&dir));
                    if i < FORENSIC_RUNS {
                        forensic_samples.push(forensics(&dir, &obs)?);
                    }
                    if traced && journal_cost.is_none() {
                        let scratch = ctx.work.join("journal-replay");
                        journal_cost = Some(layers::replay_journal(&dir, &scratch, config)?);
                        std::fs::remove_dir_all(&scratch).map_err(|e| e.to_string())?;
                    }
                    Ok(obs)
                });
                std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                tally.record(outcome.as_ref().map(|_| ()).map_err(Clone::clone));
                if let Ok(obs) = outcome {
                    unit_secs += obs.secs;
                    unit_reports.push(obs.report);
                }
            } else {
                let (report, secs) = run_bare(config, ctx.jobs, traced.then_some(&mut window));
                unit_secs += secs;
                unit_reports.push(report);
            }
        }
        let unit_trials = unit_reports.iter().map(trials).sum();
        if timed {
            window.record(traced, unit_secs, unit_trials);
            measured += 1;
        }
        reports.push((which, unit_reports));
        i += 1;
    }
    let (_, ticks) = window_start.expect("the loop ends inside the window");
    let load = ticks.until(CpuTicks::now());

    // Correctness, outside the timed region: every report equals the
    // jobs = 1 report of its seed; observed reports also equal the bare
    // parallel run of their seed.
    let references: Vec<Vec<CampaignReport>> = units
        .iter()
        .map(|unit| {
            unit.iter()
                .map(|c| Campaign::new(c.clone()).run_parallel(1))
                .collect()
        })
        .collect();
    if observed {
        for (unit, refs) in units.iter().zip(&references) {
            for (config, reference) in unit.iter().zip(refs) {
                let bare = Campaign::new(config.clone()).run_parallel(ctx.jobs);
                tally.record(same_report(
                    &format!("paper-campaign seed {}", config.seed),
                    reference,
                    &bare,
                ));
            }
        }
    }
    for (which, unit_reports) in &reports {
        for (k, report) in unit_reports.iter().enumerate() {
            let what = format!("{workload} seed {} campaign {k}", units[*which][k].seed);
            tally.record(same_report(&what, &references[*which][k], report));
        }
    }

    window.report(ctx, metrics);
    if !artifact_bytes.is_empty() {
        let per_campaign = artifact_bytes.iter().sum::<u64>() as f64 / artifact_bytes.len() as f64;
        metrics.set("artifact_mb", per_campaign / 1e6);
    }
    if !ctx.trace {
        return Ok(load);
    }
    if !forensic_samples.is_empty() {
        let inspect: Vec<f64> = forensic_samples.iter().map(|s| s.0).collect();
        let convergence: Vec<f64> = forensic_samples.iter().map(|s| s.1).collect();
        let both: Vec<f64> = forensic_samples.iter().map(|s| s.0 + s.1).collect();
        metrics.set("inspect.dir_s", median(&inspect));
        metrics.set("inspect.convergence_s", median(&convergence));
        metrics.set("forensics_s", median(&both));
    }
    if !export.is_empty() {
        let secs: Vec<f64> = export.iter().map(|e| e.0).collect();
        metrics.set("export.write_s", median(&secs));
        metrics.set("export.bytes", export[0].1 as f64);
    }
    if let Some(j) = journal_cost {
        metrics.set("journal.records", j.records as f64);
        metrics.set("journal.bytes", j.bytes as f64);
        metrics.set("journal.append_ns", j.append_ns);
        metrics.set("journal.sync_s", j.sync_s);
        metrics.set("journal.read_s", j.read_s);
    }

    // The hot path, replayed trial by trial on the first seed's campaigns.
    let mut census = Census::default();
    let mut cost = layers::RunnerCost::default();
    for (config, report) in units[0].iter().zip(&references[0]) {
        let replay = layers::replay_runner(config, report);
        tally.record(replay.as_ref().map(|_| ()).map_err(Clone::clone));
        if let Ok((c, r)) = replay {
            census.add(&c);
            cost.add(&r);
        }
    }
    for (name, class) in [
        ("zero_upset", TrialClass::ZeroUpset),
        ("strike_classify", TrialClass::StrikeClassify),
        ("corrupted_kernel", TrialClass::CorruptedKernel),
    ] {
        metrics.set(&format!("runner.{name}_ns"), cost.mean_ns(class));
        metrics.set(&format!("runner.{name}_share"), cost.share(class));
    }
    let config = &units[0][0];
    metrics.set("sram.strike_ns", layers::time_sram_strikes(config, 20_000));
    let decode = layers::time_secded_decode(config.seed, 200_000);
    tally.record(decode.as_ref().map(|_| ()).map_err(Clone::clone));
    metrics.set("ecc.secded_decode_ns", decode.unwrap_or(0.0));
    for (benchmark, ns) in Benchmark::ALL
        .iter()
        .zip(layers::time_kernels(config.seed, 15))
    {
        metrics.set(&format!("workload.kernel_ns.{}", benchmark.name()), ns);
    }
    if observed {
        // The journal holds the same trials the replay classified.
        let dir = ctx.work.join("census");
        let outcome = run_observed(&units[0][0], ctx.jobs, &dir, None, &mut Vec::new())
            .and_then(|_| Census::of_journal(&dir))
            .and_then(|journal| {
                if journal == census {
                    Ok(())
                } else {
                    Err(format!(
                        "journal census {journal:?} differs from the replay {census:?}"
                    ))
                }
            });
        std::fs::remove_dir_all(&dir).ok();
        tally.record(outcome);
    }
    metrics.set("census.zero_upset", census.zero_upset as f64);
    metrics.set("census.strike_classify", census.strike_classify as f64);
    metrics.set("census.corrupted_kernel", census.corrupted_kernel as f64);
    Ok(load)
}
