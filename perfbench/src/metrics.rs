//! The benchmark's contract: workload and metric definitions, the result
//! line every run prints, and the `BENCHMARK.json` manifest rendered from
//! the same tables (one source for names, units and bounds).

use serscale_telemetry::json::{self, JsonValue};

/// Seconds one run measures, as written into the manifest.
pub const RUN_SECONDS: u64 = 15;

/// A workload: its name and why the benchmark runs it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The `--workload` argument.
    pub name: &'static str,
    /// One line on what the workload loads and why.
    pub why: &'static str,
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes).
    Lower,
    /// Larger is better (rates, shares of success).
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name in the result line.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// For end-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, in the order the manifest lists them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "paper-campaign",
        why: "X-Gene 2 Table 2 schedule at scale 1.0 run bare: zero-upset short circuit, pool dispatch and ordered merge; no journal, telemetry or HTTP",
    },
    WorkloadDef {
        name: "observed-campaign",
        why: "same campaigns through the journal and a disk-backed telemetry sink, then inspect and convergence replay: the cost of observing the same hot path",
    },
    WorkloadDef {
        name: "strike-heavy",
        why: "X-Gene 2 and Zynq MPSoC schedules under a 40x flux: most trials strike SRAM and several percent run a corrupted kernel",
    },
    WorkloadDef {
        name: "service-mix",
        why: "HTTP control plane: a closed-loop client keeps two small campaigns in flight while an open-loop scraper polls the monitoring endpoints",
    },
];

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports all of them with tracing
/// off, and none of them is ever zero on a correct run.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("campaign_s_p50", "s", Lower, 0.25),
    e2e("trials_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.2),
    e2e("success_rate", "ratio", Higher, 0.01),
];

/// Per-layer metrics, reported by the traced run. A metric that does not
/// apply to a workload is reported as 0 there.
pub const PER_LAYER: [MetricDef; 61] = [
    // Workload-specific user-facing figures (zero on some workloads, so
    // they cannot carry an end-to-end bound).
    layer("error_rate", "ratio", Lower),
    layer("artifact_mb", "MB", Lower),
    layer("forensics_s", "s", Lower),
    layer("turnaround_s_p50", "s", Lower),
    layer("turnaround_s_p90", "s", Lower),
    layer("scrape_ms_p50", "ms", Lower),
    layer("scrape_ms_p99", "ms", Lower),
    // Trial-class census of the first campaign seed, the workload seed.
    layer("census.zero_upset", "count", Lower),
    layer("census.strike_classify", "count", Lower),
    layer("census.corrupted_kernel", "count", Lower),
    // Set-up: soc / telemetry::platform, core::dut, workload.
    layer("setup.platform_load_s", "s", Lower),
    layer("setup.vmin_s", "s", Lower),
    layer("setup.dut_build_s", "s", Lower),
    layer("setup.golden_s", "s", Lower),
    // Trial hot path: core::runner.
    layer("runner.zero_upset_ns", "ns", Lower),
    layer("runner.strike_classify_ns", "ns", Lower),
    layer("runner.corrupted_kernel_ns", "ns", Lower),
    layer("runner.zero_upset_share", "ratio", Lower),
    layer("runner.strike_classify_share", "ratio", Lower),
    layer("runner.corrupted_kernel_share", "ratio", Lower),
    // SRAM, ECC and the corrupted kernels.
    layer("sram.strike_ns", "ns", Lower),
    layer("ecc.secded_decode_ns", "ns", Lower),
    layer("workload.kernel_ns.CG", "ns", Lower),
    layer("workload.kernel_ns.EP", "ns", Lower),
    layer("workload.kernel_ns.FT", "ns", Lower),
    layer("workload.kernel_ns.IS", "ns", Lower),
    layer("workload.kernel_ns.LU", "ns", Lower),
    layer("workload.kernel_ns.MG", "ns", Lower),
    // Engine: core::parallel, core::session (per campaign).
    layer("parallel.busy_s", "s", Lower),
    layer("parallel.idle_s", "s", Lower),
    layer("parallel.utilization", "ratio", Higher),
    layer("parallel.critical_path_s", "s", Lower),
    layer("session.waves", "count", Lower),
    layer("session.speculation_yield", "ratio", Higher),
    layer("session.merge_s", "s", Lower),
    // Observation and persistence (per campaign).
    layer("observer.calls", "count", Lower),
    layer("observer.s", "s", Lower),
    layer("journal.records", "count", Lower),
    layer("journal.bytes", "bytes", Lower),
    layer("journal.append_ns", "ns", Lower),
    layer("journal.sync_s", "s", Lower),
    layer("journal.read_s", "s", Lower),
    layer("export.write_s", "s", Lower),
    layer("export.bytes", "bytes", Lower),
    // Forensics: telemetry::inspect, telemetry::convergence.
    layer("inspect.dir_s", "s", Lower),
    layer("inspect.convergence_s", "s", Lower),
    // Service: telemetry::serve, telemetry::control, core::scheduler.
    layer("serve.healthz_ms_p99", "ms", Lower),
    layer("serve.metrics_ms_p99", "ms", Lower),
    layer("serve.convergence_ms_p99", "ms", Lower),
    layer("serve.status_ms_p99", "ms", Lower),
    layer("serve.non2xx", "count", Lower),
    layer("control.submit_ms_p50", "ms", Lower),
    layer("control.report_ms_p50", "ms", Lower),
    layer("control.queue_wait_s_p50", "s", Lower),
    layer("control.run_s_p50", "s", Lower),
    layer("gen.lateness_ms_p99", "ms", Lower),
    // Trace accounting.
    layer("trace.overhead", "ratio", Lower),
    layer("trace.residual", "ratio", Lower),
    layer("trace.campaign_s_p50", "s", Lower),
    layer("trace.untraced_campaign_s_p50", "s", Lower),
    layer("trace.samples", "count", Higher),
];

/// The definition of a metric by name, from either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The definitions a run must report: end-to-end with tracing off,
/// per-layer with tracing on.
pub fn expected(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The measured values of one run, by metric name.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets a metric (the last value set wins).
    ///
    /// # Panics
    ///
    /// Panics on a name neither table defines — a typo in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = find(name).unwrap_or_else(|| panic!("undefined metric {name}"));
        self.values.retain(|(n, _)| *n != def.name);
        self.values.push((def.name, value));
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Renders the one-line result: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, the latter holding every definition of
    /// `defs` with its unit. A metric left unset reports 0; a non-finite
    /// value reports 0 and marks the run incorrect, since JSON has no
    /// encoding for it.
    pub fn render(&self, defs: &[MetricDef], correct: bool, attempted: u64, failed: u64) -> String {
        let mut correct = correct;
        let mut body = Vec::with_capacity(defs.len());
        for def in defs {
            let mut value = self.get(def.name).unwrap_or(0.0);
            if !value.is_finite() {
                correct = false;
                value = 0.0;
            }
            body.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::escape(def.name),
                json::number(value),
                json::escape(def.unit)
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
            attempted.max(1),
            body.join(",")
        )
    }
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value, unit)` per reported metric.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a result line and checks it against the contract: exactly the
/// four keys, whole-number counts, and every metric of `defs` present
/// with its defined unit and a numeric value.
///
/// # Errors
///
/// A description of the first violation.
pub fn parse_result(line: &str, defs: &[MetricDef]) -> Result<ResultLine, String> {
    let doc = json::parse(line)?;
    let JsonValue::Object(map) = &doc else {
        return Err("result is not a JSON object".into());
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    let correct = match doc.get("correct") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("`correct` is not a boolean".into()),
    };
    let count = |key: &str| -> Result<u64, String> {
        let v = doc
            .get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("`{key}` is not a number"))?;
        if v < 0.0 || v.fract() != 0.0 {
            return Err(format!("`{key}` = {v} is not a whole number"));
        }
        Ok(v as u64)
    };
    let attempted = count("attempted")?;
    let failed = count("failed")?;
    if attempted == 0 {
        return Err("`attempted` is 0".into());
    }
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        return Err("`metrics` is not an object".into());
    };
    let mut out = Vec::new();
    for (name, entry) in metrics {
        let value = entry
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        let unit = entry
            .get("unit")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("metric {name} has no unit"))?;
        out.push((name.clone(), value, unit.to_string()));
    }
    for def in defs {
        match out.iter().find(|(n, _, _)| n == def.name) {
            None => return Err(format!("metric {} missing", def.name)),
            Some((_, _, unit)) if unit != def.unit => {
                return Err(format!(
                    "metric {} has unit {unit}, want {}",
                    def.name, def.unit
                ))
            }
            Some(_) => {}
        }
    }
    if out.len() != defs.len() {
        return Err(format!(
            "{} metrics reported, {} defined",
            out.len(),
            defs.len()
        ));
    }
    Ok(ResultLine {
        correct,
        attempted,
        failed,
        metrics: out,
    })
}

fn metric_list(defs: &[MetricDef]) -> String {
    let rows: Vec<String> = defs
        .iter()
        .map(|d| {
            let mut row = format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": \"{}\"",
                json::escape(d.name),
                json::escape(d.unit),
                d.better.label()
            );
            if let Some(bound) = d.bound {
                row.push_str(&format!(", \"bound\": {bound}"));
            }
            row.push('}');
            format!("    {row}")
        })
        .collect();
    format!("[\n{}\n  ]", rows.join(",\n"))
}

/// The `BENCHMARK.json` manifest, rendered from the tables above.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::escape(w.name),
                json::escape(w.why)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        workloads.join(",\n"),
        metric_list(&END_TO_END),
        metric_list(&PER_LAYER)
    )
}
