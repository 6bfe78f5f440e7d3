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

use serscale_core::campaign::CampaignConfig;
use serscale_soc::PlatformSpec;

/// The default seed used by the `repro` outputs (any seed reproduces the
/// paper's *shape*; this one is fixed so the committed EXPERIMENTS.md is
/// regenerable verbatim).
pub const REPRO_SEED: u64 = 20231028; // MICRO '23 opening day

/// The campaign scale pinned by the golden smoke artifact
/// (`tests/golden/campaign_smoke.txt`): small enough for CI, large enough
/// that every session sees events.
pub const GOLDEN_SCALE: f64 = 0.005;

/// `spec`'s own campaign with every session time box scaled by `scale`
/// (1.0 = the full 64.8 beam hours of Table 2 on the X-Gene 2), seeded
/// with `seed` — the configuration every `repro` campaign runs.
///
/// # Panics
///
/// Panics unless `0 < scale ≤ 1`.
pub fn campaign_config(spec: &PlatformSpec, scale: f64, seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::for_platform_scaled(spec, scale);
    config.seed = seed;
    config
}

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
    use serscale_core::campaign::Campaign;

    #[test]
    fn tiny_campaign_runs() {
        let config = campaign_config(&PlatformSpec::xgene2(), 0.005, 1);
        let report = Campaign::new(config).run_parallel(1);
        assert_eq!(report.sessions.len(), 4);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.305), "30.5%");
        assert_eq!(vs(1.25, 1.2, 6, 2), "  1.25 (paper 1.20)");
    }
}
