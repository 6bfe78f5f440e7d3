//! Campaign set-up, timed layer by layer: platform spec load
//! (`telemetry::platform` over `soc`), Vmin anchoring, DUT build
//! (`core::dut`) and the kernel goldens (`workload`).

use std::path::Path;
use std::time::Instant;

use serscale_core::dut::DeviceUnderTest;
use serscale_soc::PlatformSpec;
use serscale_telemetry::parse_platform;
use serscale_workload::Benchmark;

use crate::metrics::Metrics;
use crate::stats::median;

/// How many times a run repeats set-up; `setup_s` is the median.
pub const REPEATS: usize = 20;

/// The pause between set-up passes. One pass takes about 10 ms, so
/// back-to-back passes would all land in the same burst of load from
/// other tenants of the host; spacing them samples 1.5 s of it.
const GAP: std::time::Duration = std::time::Duration::from_millis(75);

/// One set-up pass, in seconds per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Reading and validating the platform spec files.
    pub platform_load: f64,
    /// Anchoring the safe Vmin of every session frequency.
    pub vmin: f64,
    /// Building one DUT per session.
    pub dut_build: f64,
    /// Building every kernel and computing its golden output.
    pub golden: f64,
}

impl SetupTimes {
    /// All layers together.
    pub fn total(&self) -> f64 {
        self.platform_load + self.vmin + self.dut_build + self.golden
    }
}

/// Loads a committed platform spec (`platforms/<name>.json` under `root`)
/// and checks it against the built-in spec of the same name.
///
/// # Errors
///
/// A missing or invalid file, or one that disagrees with the built-in.
pub fn load_platform(root: &Path, name: &str) -> Result<PlatformSpec, String> {
    let path = root.join("platforms").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spec = parse_platform(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match PlatformSpec::builtin(name) {
        Some(builtin) if builtin == spec => Ok(spec),
        Some(_) => Err(format!("{} differs from the built-in spec", path.display())),
        None => Err(format!("no built-in platform {name}")),
    }
}

/// One timed set-up pass for campaigns on `platforms`.
///
/// # Errors
///
/// A platform that fails to load, or a golden output that differs from
/// the process-wide shared golden the engine adjudicates against.
pub fn measure_once(root: &Path, platforms: &[&str]) -> Result<SetupTimes, String> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let specs: Vec<PlatformSpec> = platforms
        .iter()
        .map(|name| load_platform(root, name))
        .collect::<Result<_, _>>()?;
    times.platform_load = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let anchored: Vec<Vec<_>> = specs
        .iter()
        .map(|spec| {
            spec.campaign
                .iter()
                .map(|c| (c.point, spec.vmin_at(c.point.frequency)))
                .collect()
        })
        .collect();
    times.vmin = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let duts: Vec<DeviceUnderTest> = specs
        .iter()
        .zip(&anchored)
        .flat_map(|(spec, points)| {
            points
                .iter()
                .map(|(point, vmin)| DeviceUnderTest::for_platform(spec, *point, *vmin))
        })
        .collect();
    times.dut_build = t.elapsed().as_secs_f64();
    std::hint::black_box(&duts);

    let t = Instant::now();
    let goldens: Vec<_> = Benchmark::ALL.iter().map(|b| b.kernel().golden()).collect();
    times.golden = t.elapsed().as_secs_f64();
    for (b, golden) in Benchmark::ALL.iter().zip(&goldens) {
        if !golden.matches(b.shared_golden()) {
            return Err(format!(
                "{} golden differs from the shared golden",
                b.name()
            ));
        }
    }
    Ok(times)
}

/// Repeats set-up [`REPEATS`] times, [`GAP`] apart, warming the engine's
/// shared goldens first so no campaign pays them, and records `setup_s`
/// and the per-layer medians.
///
/// # Errors
///
/// As [`measure_once`].
pub fn measure(root: &Path, platforms: &[&str], metrics: &mut Metrics) -> Result<(), String> {
    for b in Benchmark::ALL {
        b.shared_golden();
    }
    let passes: Vec<SetupTimes> = (0..REPEATS)
        .map(|_| {
            std::thread::sleep(GAP);
            measure_once(root, platforms)
        })
        .collect::<Result<_, _>>()?;
    let pick = |f: fn(&SetupTimes) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    metrics.set("setup_s", pick(SetupTimes::total));
    metrics.set("setup.platform_load_s", pick(|t| t.platform_load));
    metrics.set("setup.vmin_s", pick(|t| t.vmin));
    metrics.set("setup.dut_build_s", pick(|t| t.dut_build));
    metrics.set("setup.golden_s", pick(|t| t.golden));
    Ok(())
}
