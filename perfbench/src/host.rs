//! The host class a result was measured on. Results from different host
//! classes are not comparable, and the benchmark's comparison refuses
//! them.

use std::path::Path;

use serscale_telemetry::json::{self, JsonValue};

/// Hardware threads, CPU model and compiler: what a timing depends on
/// besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostClass {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
}

impl HostClass {
    /// Detects the current host.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostClass {
            nproc: nproc(),
            cpu_model,
            rustc,
        }
    }

    /// JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{}}}",
            self.nproc,
            json::escape(&self.cpu_model),
            json::escape(&self.rustc)
        )
    }

    /// Reads the rendering back.
    pub fn from_json(doc: &JsonValue) -> Option<Self> {
        Some(HostClass {
            nproc: doc.get("nproc")?.as_f64()? as usize,
            cpu_model: doc.get("cpu_model")?.as_str()?.to_string(),
            rustc: doc.get("rustc")?.as_str()?.to_string(),
        })
    }
}

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes under `dir`, subdirectories included (0 where it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The host's CPU time counters (`cpu` line of `/proc/stat`, in ticks),
/// read at the start and the end of a measured window to tell how much
/// of it the hypervisor stole or the host spent waiting on disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
    iowait: u64,
}

impl CpuTicks {
    /// Reads the counters now (all zero where `/proc` is unavailable).
    pub fn now() -> Self {
        let fields: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let line = stat.lines().find(|l| l.starts_with("cpu "))?;
                line.split_whitespace()
                    .skip(1)
                    .map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        // user nice system idle iowait irq softirq steal; guest time is
        // already counted in user.
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        CpuTicks {
            total: (0..8).map(at).sum(),
            steal: at(7),
            iowait: at(4),
        }
    }

    /// The host load between `self` and a later reading.
    pub fn until(self, later: CpuTicks) -> HostLoad {
        let total = later.total.saturating_sub(self.total).max(1) as f64;
        HostLoad {
            steal: later.steal.saturating_sub(self.steal) as f64 / total,
            iowait: later.iowait.saturating_sub(self.iowait) as f64 / total,
        }
    }
}

/// Shares of the host's CPU time over a window: stolen by the hypervisor
/// for other guests, and idle waiting on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostLoad {
    /// Steal share, 0 to 1.
    pub steal: f64,
    /// I/O-wait share, 0 to 1.
    pub iowait: f64,
}

impl HostLoad {
    /// JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"steal\":{},\"iowait\":{}}}",
            json::number(self.steal),
            json::number(self.iowait)
        )
    }

    /// Reads the rendering back.
    pub fn from_json(doc: &JsonValue) -> Option<Self> {
        Some(HostLoad {
            steal: doc.get("steal")?.as_f64()?,
            iowait: doc.get("iowait")?.as_f64()?,
        })
    }
}
