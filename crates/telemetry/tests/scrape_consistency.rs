//! The monitoring plane under load, proven harmless and truthful: a
//! campaign runs at `--jobs 8` while eight client threads hammer the
//! [`MonitorServer`](serscale_telemetry::MonitorServer), and
//!
//! 1. every response parses (JSON endpoints through the crate's own
//!    parser, `/metrics` through a minimal Prometheus text parser),
//! 2. counter totals are monotonically nondecreasing scrape over scrape,
//! 3. the final report and Logbook trace are bit-identical to a run with
//!    no server attached — the scrape storm observed, it never perturbed.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignReport};
use serscale_core::json;
use serscale_core::trace::{tee, Logbook};
use serscale_telemetry::serve::http_get;
use serscale_telemetry::{TelemetryOptions, TelemetrySink};

const SCALE: f64 = 0.005;
const SEED: u64 = 20231028;
const SCRAPERS: usize = 8;

fn campaign() -> Campaign {
    let mut config = CampaignConfig::paper_scaled(SCALE);
    config.seed = SEED;
    Campaign::new(config)
}

fn run_without_server(jobs: usize) -> (CampaignReport, String) {
    let sink = TelemetrySink::in_memory(TelemetryOptions::default());
    let mut logbook = Logbook::new();
    let mut observer = tee(&mut logbook, sink.observer());
    let report = campaign().run_observed(jobs, &mut observer);
    drop(observer);
    (report, logbook.to_jsonl())
}

/// Parses Prometheus text exposition into per-name value totals,
/// rejecting any line that is neither a comment nor `series value`.
/// Histogram sample lines (`_bucket`/`_sum`/`_count`) keep their
/// suffixed names so bucket counts don't pollute base-name totals.
fn parse_prom(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut totals = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator: {line:?}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value {value:?}", lineno + 1))?;
        let name = series
            .split_once('{')
            .map(|(name, _)| name)
            .unwrap_or(series);
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
        *totals.entry(name.to_string()).or_insert(0.0) += value;
    }
    Ok(totals)
}

/// Counter metrics whose totals must never decrease between scrapes.
const MONOTONE: &[&str] = &[
    "runs_total",
    "edac_events",
    "telemetry_events_total",
    "waves_total",
    "wave_trials_absorbed_total",
];

struct ScrapeStats {
    metrics_scrapes: u64,
    progress_scrapes: u64,
}

fn scrape_loop(addr: SocketAddr, stop: Arc<AtomicBool>, id: usize) -> Result<ScrapeStats, String> {
    let mut stats = ScrapeStats {
        metrics_scrapes: 0,
        progress_scrapes: 0,
    };
    let mut last_totals: BTreeMap<String, f64> = BTreeMap::new();
    // Keep scraping until the run ends, then one final pass so every
    // thread sees the end-of-run state at least once.
    let mut final_pass = false;
    loop {
        if stop.load(Ordering::Acquire) {
            if final_pass {
                break;
            }
            final_pass = true;
        }
        let (status, body) =
            http_get(addr, "/metrics").map_err(|e| format!("scraper {id}: /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("scraper {id}: /metrics returned {status}"));
        }
        let totals = parse_prom(&body).map_err(|e| format!("scraper {id}: {e}"))?;
        for name in MONOTONE {
            let prev = last_totals.get(*name).copied().unwrap_or(0.0);
            let now = totals.get(*name).copied().unwrap_or(0.0);
            if now < prev {
                return Err(format!(
                    "scraper {id}: {name} went backwards: {prev} -> {now}"
                ));
            }
        }
        last_totals = totals;
        stats.metrics_scrapes += 1;

        let (status, body) =
            http_get(addr, "/progress").map_err(|e| format!("scraper {id}: /progress: {e}"))?;
        if status != 200 {
            return Err(format!("scraper {id}: /progress returned {status}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("scraper {id}: /progress: {e}"))?;
        if let Some(eta) = doc.get("eta_seconds").and_then(json::JsonValue::as_f64) {
            if !(eta.is_finite() && eta >= 0.0) {
                return Err(format!("scraper {id}: bad ETA {eta}"));
            }
        }
        stats.progress_scrapes += 1;
    }
    Ok(stats)
}

/// The tentpole proof: a jobs=8 campaign with the server attached and
/// eight concurrent scrapers produces bit-identical science to a
/// server-less run — and every scrape along the way was well-formed and
/// monotone.
#[test]
fn hammered_monitoring_server_never_perturbs_the_run() {
    let (baseline_report, baseline_trace) = run_without_server(1);

    for jobs in [1, 8] {
        let sink = TelemetrySink::in_memory(TelemetryOptions::default());
        let mut server = sink.serve("127.0.0.1:0").expect("bind monitor");
        let addr = server.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let scrapers: Vec<_> = (0..SCRAPERS)
            .map(|id| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || scrape_loop(addr, stop, id))
            })
            .collect();

        let mut logbook = Logbook::new();
        let mut observer = tee(&mut logbook, sink.observer());
        let report = campaign().run_observed(jobs, &mut observer);
        drop(observer);
        sink.set_campaign_status(|status| status.done = true);
        stop.store(true, Ordering::Release);

        let mut metrics_scrapes = 0;
        for scraper in scrapers {
            let stats = scraper
                .join()
                .expect("scraper panicked")
                .unwrap_or_else(|e| panic!("jobs={jobs}: {e}"));
            assert!(stats.metrics_scrapes >= 1, "jobs={jobs}: scraper idle");
            assert!(stats.progress_scrapes >= 1, "jobs={jobs}: scraper idle");
            metrics_scrapes += stats.metrics_scrapes;
        }
        assert!(metrics_scrapes as usize >= SCRAPERS, "storm too small");
        server.shutdown();

        assert_eq!(
            report, baseline_report,
            "jobs={jobs}: scrape storm perturbed the report"
        );
        assert_eq!(
            logbook.to_jsonl(),
            baseline_trace,
            "jobs={jobs}: scrape storm perturbed the trace"
        );
        sink.crosscheck_campaign(&report)
            .expect("counters agree with the report despite the storm");
    }
}

/// After a run, every endpoint serves a parseable, mutually consistent
/// view: `/campaign` totals equal the registry's, `/spans` is valid
/// JSONL, `/healthz` stays ok, and `/metrics` totals match the report.
#[test]
fn endpoints_agree_with_the_final_report() {
    let sink = TelemetrySink::in_memory(TelemetryOptions::default());
    let mut observer = sink.observer();
    let report = campaign().run_observed(4, &mut observer);
    drop(observer);
    sink.set_campaign_status(|status| {
        status.config_fingerprint = Some(0x5e5c);
        status.done = true;
    });
    let server = sink.serve("127.0.0.1:0").expect("bind monitor");
    let addr = server.addr();

    let (_, body) = http_get(addr, "/metrics").expect("/metrics");
    let totals = parse_prom(&body).expect("prom parses");
    let report_runs: u64 = report.sessions.iter().map(|s| s.runs).sum();
    let report_upsets: u64 = report.sessions.iter().map(|s| s.memory_upsets).sum();
    assert_eq!(totals["runs_total"], report_runs as f64);
    assert_eq!(totals["edac_events"], report_upsets as f64);

    let (_, body) = http_get(addr, "/campaign").expect("/campaign");
    let doc = json::parse(&body).expect("campaign parses");
    assert_eq!(
        doc.get("trials_done").and_then(json::JsonValue::as_f64),
        Some(report_runs as f64)
    );
    assert_eq!(doc.get("done"), Some(&json::JsonValue::Bool(true)));
    assert!(
        doc.get("waves_merged")
            .and_then(json::JsonValue::as_f64)
            .expect("waves_merged")
            > 0.0
    );

    let (_, body) = http_get(addr, "/healthz").expect("/healthz");
    let doc = json::parse(&body).expect("healthz parses");
    assert_eq!(
        doc.get("status").and_then(json::JsonValue::as_str),
        Some("ok")
    );

    let (_, body) = http_get(addr, "/spans").expect("/spans");
    let spans = json::parse_lines(&body).expect("spans parse");
    assert!(!spans.is_empty(), "a campaign closes spans");

    let (_, body) = http_get(addr, "/progress").expect("/progress");
    let doc = json::parse(&body).expect("progress parses");
    assert_eq!(
        doc.get("trials").and_then(json::JsonValue::as_f64),
        Some(report_runs as f64)
    );
}
