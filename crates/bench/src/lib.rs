//! # serscale-bench
//!
//! The reproduction harness: every table and figure of the paper's
//! evaluation, regenerated from the simulator and printed side by side with
//! the paper's reported values.
//!
//! * [`paper`] — the reference numbers, transcribed from the paper.
//! * [`experiments`] — one regeneration function per table/figure.
//! * The `repro` binary (`cargo run -p serscale-bench --bin repro -- --all`)
//!   drives them from the command line.
//! * [`selfcheck`] asserts every EXPERIMENTS.md shape claim against a
//!   fresh campaign (`repro --selfcheck`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod selfcheck;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport, CampaignRunOptions};
use serscale_core::journal::start_or_resume;
use serscale_core::session::RetryPolicy;
use serscale_soc::PlatformSpec;

/// The default seed used by the `repro` outputs (any seed reproduces the
/// paper's *shape*; this one is fixed so the committed EXPERIMENTS.md is
/// regenerable verbatim).
pub const REPRO_SEED: u64 = 20231028; // MICRO '23 opening day

/// The campaign scale pinned by the golden smoke artifact
/// (`tests/golden/campaign_smoke.txt`): small enough for CI, large enough
/// that every session sees events.
pub const GOLDEN_SCALE: f64 = 0.005;

/// Runs the paper campaign at a given scale (1.0 = the full 64.8 beam
/// hours of Table 2).
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1`.
pub fn run_campaign(scale: f64, seed: u64) -> CampaignReport {
    run_campaign_jobs(scale, seed, 1)
}

/// [`run_campaign`] on `jobs` worker threads — same report, any thread
/// count (the engine's determinism contract).
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`.
pub fn run_campaign_jobs(scale: f64, seed: u64, jobs: usize) -> CampaignReport {
    run_platform_campaign_jobs(&PlatformSpec::xgene2(), scale, seed, jobs)
}

/// [`run_campaign_jobs`] on an arbitrary platform: the session schedule,
/// operating points and device models all come from `spec`.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`.
pub fn run_platform_campaign_jobs(
    spec: &PlatformSpec,
    scale: f64,
    seed: u64,
    jobs: usize,
) -> CampaignReport {
    let mut config = CampaignConfig::for_platform_scaled(spec, scale);
    config.seed = seed;
    Campaign::new(config).run_parallel(jobs)
}

/// [`run_platform_campaign_jobs`] with every engine callback reported to
/// `observer`. Observation is strictly one-way: the report is
/// bit-identical to the unobserved run at any `jobs` count.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`.
pub fn run_platform_campaign_observed(
    spec: &PlatformSpec,
    scale: f64,
    seed: u64,
    jobs: usize,
    observer: &mut dyn serscale_core::trace::SessionObserver,
) -> CampaignReport {
    let mut config = CampaignConfig::for_platform_scaled(spec, scale);
    config.seed = seed;
    Campaign::new(config).run_observed(jobs, observer)
}

/// Runs the paper campaign with crash safety: absorbed trials are
/// journaled to `journal_dir` (fsync'd per wave), and if the directory
/// already holds a journal for this exact configuration the completed
/// prefix is replayed instead of re-simulated — the report and the
/// observer's trace come out bit-identical to an uninterrupted run at any
/// `jobs`. An optional [`SyncProbe`](serscale_core::journal::SyncProbe)
/// is attached to the journal writer (so `/healthz` can report fsync
/// lag), and the returned pair carries how many trials the journal
/// replayed instead of re-simulating (surfaced on `/campaign` as
/// `resumed_trials`). The hooks are observe-only; the report is
/// bit-identical either way.
///
/// # Errors
///
/// Propagates journal I/O failures; a journal for a *different*
/// configuration (wrong seed or scale) is refused rather than resumed.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`, or if a journal write
/// cannot be made durable mid-run.
pub fn run_campaign_recovering_monitored(
    scale: f64,
    seed: u64,
    jobs: usize,
    retry: RetryPolicy,
    journal_dir: &std::path::Path,
    probe: Option<serscale_core::journal::SyncProbe>,
    observer: &mut dyn serscale_core::trace::SessionObserver,
) -> std::io::Result<(CampaignReport, u64)> {
    run_platform_campaign_recovering_monitored(
        &PlatformSpec::xgene2(),
        scale,
        seed,
        jobs,
        retry,
        journal_dir,
        probe,
        observer,
    )
}

/// [`run_campaign_recovering_monitored`] on an arbitrary platform. The
/// platform is folded into the journal's config fingerprint, so a journal
/// written for one platform refuses to resume under another.
///
/// # Errors
///
/// Propagates journal I/O failures; a journal for a *different*
/// configuration (wrong seed, scale, or platform) is refused rather than
/// resumed.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1` and `jobs > 0`, or if a journal write
/// cannot be made durable mid-run.
#[allow(clippy::too_many_arguments)]
pub fn run_platform_campaign_recovering_monitored(
    spec: &PlatformSpec,
    scale: f64,
    seed: u64,
    jobs: usize,
    retry: RetryPolicy,
    journal_dir: &std::path::Path,
    probe: Option<serscale_core::journal::SyncProbe>,
    observer: &mut dyn serscale_core::trace::SessionObserver,
) -> std::io::Result<(CampaignReport, u64)> {
    let mut config = CampaignConfig::for_platform_scaled(spec, scale);
    config.seed = seed;
    let campaign = Campaign::new(config);
    let (mut writer, recovered) = start_or_resume(journal_dir, campaign.config())?;
    if let Some(probe) = probe {
        writer.attach_probe(probe);
    }
    let resumed = recovered.as_ref().map_or(
        0,
        serscale_core::journal::RecoveredCampaign::trials_recovered,
    );
    let report = campaign.run_recoverable(
        CampaignRunOptions {
            jobs,
            retry,
            journal: Some(&mut writer),
            recovered: recovered.as_ref(),
            cancel: None,
        },
        observer,
    );
    Ok((report, resumed))
}

// The bit-stable golden renderer moved to `serscale_core::report` so the
// control plane can serve byte-comparable reports; the re-export keeps
// the historical `serscale_bench::golden_summary` path working.
pub use serscale_core::report::golden_summary;

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// A two-column "simulated vs paper" cell.
pub fn vs(sim: f64, paper: f64, width: usize, precision: usize) -> String {
    format!("{sim:>width$.precision$} (paper {paper:.precision$})")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_campaign_runs() {
        let report = run_campaign(0.005, 1);
        assert_eq!(report.sessions.len(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.305), "30.5%");
        assert_eq!(vs(1.25, 1.2, 6, 2), "  1.25 (paper 1.20)");
    }
}
