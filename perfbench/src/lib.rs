//! # serscale-perfbench
//!
//! The repository's benchmark: four workloads over the public API of
//! `serscale-core`, `-soc`, `-sram`, `-ecc`, `-workload` and
//! `-telemetry`, timed from outside the program. See `README.md` in this
//! directory for the workloads, the metrics and how to run them.

#![forbid(unsafe_code)]

pub mod campaigns;
pub mod check;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod service;
pub mod setup;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

/// Seeds must stay below 2^53, the largest seed a JSON campaign spec
/// carries exactly.
pub const MAX_SEED: u64 = (1 << 53) - 1;

/// Everything a run is parameterised by.
#[derive(Debug, Clone)]
pub struct Context {
    /// The workload name.
    pub workload: String,
    /// The workload seed; campaign seeds derive from it.
    pub seed: u64,
    /// The measured window.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads per campaign: the host's hardware threads.
    pub jobs: usize,
    /// The checkout root (the working directory).
    pub root: PathBuf,
    /// Scratch space for journals, telemetry and service state.
    pub work: PathBuf,
}

/// The platforms a workload's campaigns run on.
pub fn platforms(workload: &str) -> &'static [&'static str] {
    match workload {
        "strike-heavy" | "service-mix" => &["xgene2", "zynq-mpsoc"],
        _ => &["xgene2"],
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The metrics, by name.
    pub metrics: metrics::Metrics,
    /// Attempted and failed operations.
    pub tally: check::Tally,
    /// The host's steal and I/O-wait shares over the measured window.
    pub load: host::HostLoad,
}

/// Runs one workload: set-up, the measured window, the checks.
///
/// # Errors
///
/// Failures that stop the run before it can report (an unknown
/// workload, set-up that cannot load the platforms, I/O).
pub fn run(ctx: &Context) -> Result<Outcome, String> {
    if !metrics::WORKLOADS.iter().any(|w| w.name == ctx.workload) {
        return Err(format!("unknown workload {:?}", ctx.workload));
    }
    let mut metrics = metrics::Metrics::default();
    let mut tally = check::Tally::default();
    let names = platforms(&ctx.workload);
    setup::measure(&ctx.root, names, &mut metrics)?;
    let specs = names
        .iter()
        .map(|name| setup::load_platform(&ctx.root, name))
        .collect::<Result<Vec<_>, _>>()?;
    let load = if ctx.workload == "service-mix" {
        service::run(ctx, &mut metrics, &mut tally)?
    } else {
        campaigns::run(ctx, &specs, &mut metrics, &mut tally)?
    };
    metrics.set("error_rate", tally.error_rate());
    metrics.set("success_rate", 1.0 - tally.error_rate());
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    Ok(Outcome {
        metrics,
        tally,
        load,
    })
}
