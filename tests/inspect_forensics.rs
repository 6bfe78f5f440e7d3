//! Offline forensics battery: `repro inspect` must tell the truth.
//!
//! Three contracts over real artifacts on disk:
//!
//! 1. **Exact reconstruction** — inspecting a finished run's directory
//!    reproduces the live registry's `worker_busy_seconds` gauges and the
//!    `wave_critical_path{voltage=…}` histogram count/sum **bit for
//!    bit**, at `--jobs 1` and `--jobs 8`. The live numbers come from
//!    integer nanosecond ledgers divided once (gauges) and a sequential
//!    f64 accumulation in observation order (histogram sums); the wave
//!    spans carry the same integers, so the replay has no rounding slack
//!    to hide in.
//! 2. **Observe-only, on disk too** — a journaled run produces the same
//!    report and byte-identical journal whether the telemetry layer is
//!    attached or not, at both jobs counts.
//! 3. **Folded stacks everywhere** — `--folded` output is non-empty and
//!    well-formed for a CLI campaign's telemetry directory and for an
//!    HTTP-submitted campaign's service job directory, whose busy-time
//!    attribution must also match `GET /campaigns/{id}`.
//!
//! Plus a property check: the nearest-rank quantile engine agrees with a
//! naive counting reference on arbitrary populations.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use serscale_bench::campaign_config;
use serscale_core::campaign::{Campaign, CampaignReport, CampaignRunOptions};
use serscale_core::journal::start_or_resume;
use serscale_core::trace::{NoopObserver, SessionObserver};
use serscale_soc::PlatformSpec;
use serscale_telemetry::inspect::{exact_quantile, inspect_dir};
use serscale_telemetry::json::{self, JsonValue};
use serscale_telemetry::metrics::SeriesKey;
use serscale_telemetry::serve::{http_get, http_request};
use serscale_telemetry::{ControlPlane, ControlPlaneOptions, TelemetryOptions, TelemetrySink};

const SCALE: f64 = 0.002;
const SEED: u64 = 977;

fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "serscale-inspect-{}-{tag}-{case}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("case dir creatable");
    dir
}

/// Runs the campaign on `jobs` workers, journaled into the fresh
/// directory `dir` and reported through `observer`.
fn journaled_run(dir: &Path, jobs: usize, observer: &mut dyn SessionObserver) -> CampaignReport {
    let campaign = Campaign::new(campaign_config(&PlatformSpec::xgene2(), SCALE, SEED));
    let (mut journal, _) = start_or_resume(dir, campaign.config()).expect("journal opens");
    campaign.run_recoverable(
        CampaignRunOptions {
            journal: Some(&mut journal),
            ..CampaignRunOptions::with_jobs(jobs)
        },
        observer,
    )
}

/// Runs a journaled, telemetry-observed campaign whose journal and
/// telemetry artifacts land in the same directory, returning the sink
/// for live-registry comparison.
fn observed_run(dir: &Path, jobs: usize) -> TelemetrySink {
    let sink = TelemetrySink::new(dir, TelemetryOptions::default()).expect("sink dir");
    let mut observer = sink.observer();
    journaled_run(dir, jobs, &mut observer);
    drop(observer);
    sink.write().expect("artifacts written");
    sink
}

/// Contract 1: the offline replay reproduces the live busy-time gauges
/// and critical-path histogram totals exactly — no epsilon.
#[test]
fn inspect_reproduces_live_worker_and_critical_path_totals_exactly() {
    for jobs in [1usize, 8] {
        let dir = case_dir(&format!("exact-j{jobs}"));
        let sink = observed_run(&dir, jobs);
        let snapshot = sink.registry().snapshot();
        let report = inspect_dir(&dir).expect("inspectable");

        assert!(!report.workers.is_empty(), "jobs {jobs}: workers observed");
        for worker in &report.workers {
            let label = worker.index.to_string();
            let live = snapshot
                .gauge_value("worker_busy_seconds", &[("worker", &label)])
                .unwrap_or_else(|| panic!("live gauge for worker {label}"));
            assert_eq!(
                worker.busy_seconds(),
                live,
                "jobs {jobs}: worker {label} busy seconds must match bit-exactly"
            );
        }

        assert!(
            !report.critical_path_series.is_empty(),
            "jobs {jobs}: critical-path series reconstructed"
        );
        for series in &report.critical_path_series {
            let key = SeriesKey::new("wave_critical_path", &[("voltage", &series.voltage)]);
            let live = snapshot
                .histograms
                .get(&key)
                .unwrap_or_else(|| panic!("live histogram for {}", series.voltage));
            assert_eq!(series.count, live.count, "count @ {}", series.voltage);
            assert_eq!(
                series.sum_seconds, live.sum,
                "jobs {jobs}: histogram sum @ {} must match bit-exactly",
                series.voltage
            );
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// Contract 2: attaching the telemetry layer changes neither the report
/// nor a single journal byte, at both jobs counts.
#[test]
fn telemetry_layer_leaves_report_and_journal_bytes_unchanged() {
    for jobs in [1usize, 8] {
        let bare_dir = case_dir(&format!("bare-j{jobs}"));
        let bare_report = journaled_run(&bare_dir, jobs, &mut NoopObserver);
        let observed_dir = case_dir(&format!("observed-j{jobs}"));
        let sink = TelemetrySink::new(&observed_dir, TelemetryOptions::default()).expect("sink");
        let mut observer = sink.observer();
        let observed_report = journaled_run(&observed_dir, jobs, &mut observer);
        assert_eq!(
            bare_report, observed_report,
            "jobs {jobs}: telemetry must not touch the report"
        );
        let bare_journal = std::fs::read(bare_dir.join("journal.jsonl")).expect("bare journal");
        let observed_journal =
            std::fs::read(observed_dir.join("journal.jsonl")).expect("observed journal");
        assert_eq!(
            bare_journal, observed_journal,
            "jobs {jobs}: journal bytes must be identical with the layer attached"
        );
        std::fs::remove_dir_all(&bare_dir).expect("cleanup");
        std::fs::remove_dir_all(&observed_dir).expect("cleanup");
    }
}

fn assert_folded_well_formed(folded: &str, what: &str) {
    assert!(!folded.trim().is_empty(), "{what}: folded output non-empty");
    let mut saw_wave = false;
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("{what}: folded line lacks a weight: {line:?}");
        });
        assert!(!stack.is_empty(), "{what}: empty stack in {line:?}");
        weight
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("{what}: non-integer weight in {line:?}"));
        if stack.contains("wave@") {
            saw_wave = true;
            assert!(
                stack.contains(';'),
                "{what}: wave frames must be rooted: {line:?}"
            );
        }
    }
    assert!(saw_wave, "{what}: folded output carries wave frames");
}

/// Contract 3a: folded stacks from a CLI run's telemetry directory, and
/// a sane diff between two runs.
#[test]
fn folded_stacks_and_diff_work_for_cli_runs() {
    let dir_a = case_dir("folded-a");
    let dir_b = case_dir("folded-b");
    observed_run(&dir_a, 1);
    observed_run(&dir_b, 8);
    let a = inspect_dir(&dir_a).expect("a");
    let b = inspect_dir(&dir_b).expect("b");
    assert_folded_well_formed(&a.folded(), "cli jobs 1");
    assert_folded_well_formed(&b.folded(), "cli jobs 8");
    // Same campaign either way: the diff's trial counts must cancel.
    let diff = serscale_telemetry::inspect::render_diff(&a, &b);
    assert!(
        diff.contains("absorbed trials")
            && diff
                .lines()
                .any(|l| { l.starts_with("absorbed trials") && l.contains("(delta 0)") }),
        "diff reports no absorbed-trial delta between jobs counts:\n{diff}"
    );
    let rendered = a.render();
    assert!(rendered.contains("worker_busy_seconds"), "{rendered}");
    assert!(rendered.contains("wave_critical_path_sum"), "{rendered}");
    std::fs::remove_dir_all(&dir_a).expect("cleanup");
    std::fs::remove_dir_all(&dir_b).expect("cleanup");
}

/// Contract 3b: an HTTP-submitted campaign leaves an inspectable job
/// directory behind, and the offline busy-time attribution matches the
/// service's own `/campaigns/{id}` accounting.
#[test]
fn service_job_directories_are_inspectable_and_match_live_attribution() {
    let state = case_dir("service-state");
    let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent: 1,
        state_dir: Some(state.clone()),
        ..Default::default()
    });
    let server = sink
        .serve_control("127.0.0.1:0", Arc::clone(&control))
        .expect("service binds");
    let addr = server.addr();
    let (status, body) = http_request(
        addr,
        "POST",
        "/campaigns",
        &format!("{{\"tenant\":\"forensics\",\"seed\":{SEED},\"scale\":{SCALE},\"jobs\":2}}"),
    )
    .expect("submit");
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .expect("acceptance parses")
        .get("id")
        .and_then(JsonValue::as_f64)
        .expect("id") as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    let final_doc = loop {
        let (status, body) = http_get(addr, &format!("/campaigns/{id}")).expect("status");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("status parses");
        if doc.get("done") == Some(&JsonValue::Bool(true)) {
            break doc;
        }
        assert!(Instant::now() < deadline, "job {id} stuck: {body}");
        std::thread::sleep(Duration::from_millis(10));
    };
    control.drain();

    let job_dir = state.join(format!("job-{id}"));
    let report = inspect_dir(&job_dir).expect("job dir inspectable");
    assert_folded_well_formed(&report.folded(), "service job");
    assert!(
        report.journal.as_ref().is_some_and(|j| j.trials > 0),
        "service journal carries trials"
    );
    let live_busy = final_doc
        .get("worker_busy_seconds")
        .and_then(JsonValue::as_f64)
        .expect("status attribution present");
    let offline_busy: f64 = report.workers.iter().map(|w| w.busy_seconds()).sum();
    assert_eq!(
        offline_busy, live_busy,
        "offline replay must reproduce the service's busy-second attribution"
    );
    std::fs::remove_dir_all(&state).expect("cleanup");
}

/// A counting-based nearest-rank reference: the smallest sample `v` with
/// `#{x ≤ v} ≥ ⌈q·n⌉` — formulated independently of the index arithmetic
/// the engine uses.
fn naive_nearest_rank(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    for v in &sorted {
        if sorted.iter().filter(|x| x.total_cmp(v).is_le()).count() >= target {
            return *v;
        }
    }
    sorted[n - 1]
}

proptest! {
    /// The exact-quantile engine agrees with the counting reference on
    /// arbitrary populations (duplicates included) and quantiles.
    #[test]
    fn exact_quantiles_match_a_naive_counting_reference(
        values in prop::collection::vec(0.0f64..1e6, 40),
        len in 1usize..40,
        q in 0.0f64..1.0,
    ) {
        let population = &values[..len];
        let mut sorted = population.to_vec();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(
            exact_quantile(&sorted, q),
            naive_nearest_rank(population, q),
            "q={} over {:?}", q, population
        );
    }

    /// Duplicate-heavy populations (small integer grid) exercise the
    /// tie-breaking: both formulations must still agree.
    #[test]
    fn exact_quantiles_agree_on_duplicate_heavy_populations(
        raw in prop::collection::vec(0u32..4, 24),
        len in 1usize..24,
        q in 0.0f64..1.0,
    ) {
        let population: Vec<f64> = raw[..len].iter().map(|&v| f64::from(v)).collect();
        let mut sorted = population.clone();
        sorted.sort_by(f64::total_cmp);
        prop_assert_eq!(
            exact_quantile(&sorted, q),
            naive_nearest_rank(&population, q),
            "q={} over {:?}", q, population
        );
    }
}
