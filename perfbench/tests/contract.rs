//! The benchmark's own checks: its result line and manifest follow the
//! contract, and a wrong report or a failed request fails a run.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::path::Path;
use std::time::Duration;

use serscale_core::campaign::{Campaign, CampaignConfig};
use serscale_core::report::golden_summary;
use serscale_perfbench::check::{same_report, same_text, Tally};
use serscale_perfbench::metrics::{self, parse_result, Metrics, END_TO_END, PER_LAYER};
use serscale_perfbench::service::exchange;
use serscale_perfbench::{run, Context};
use serscale_telemetry::json::{self, JsonValue};

fn filled(defs: &[metrics::MetricDef]) -> Metrics {
    let mut m = Metrics::default();
    for (i, def) in defs.iter().enumerate() {
        m.set(def.name, 0.5 + i as f64);
    }
    m
}

#[test]
fn result_line_parses_and_names_every_metric_with_its_unit() {
    for (defs, trace) in [(&END_TO_END[..], false), (&PER_LAYER[..], true)] {
        let line = filled(defs).render(metrics::expected(trace), true, 7, 0);
        let parsed = parse_result(&line, defs).expect("result line follows the contract");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (7, 0));
        for def in defs {
            let (_, value, unit) = parsed
                .metrics
                .iter()
                .find(|(n, _, _)| n == def.name)
                .expect("metric present");
            assert_eq!(unit, def.unit, "{}", def.name);
            assert!(value.is_finite());
        }
    }
}

#[test]
fn a_missing_metric_or_a_wrong_unit_breaks_the_contract() {
    let line = filled(&END_TO_END).render(&END_TO_END, true, 1, 0);
    assert!(parse_result(
        &line.replace("\"unit\":\"MB\"", "\"unit\":\"GB\""),
        &END_TO_END
    )
    .is_err());
    let short = filled(&END_TO_END[..4]).render(&END_TO_END[..4], true, 1, 0);
    assert!(parse_result(&short, &END_TO_END).is_err());
}

#[test]
fn a_non_finite_value_marks_the_run_incorrect() {
    let mut m = filled(&END_TO_END);
    m.set("campaign_s_p50", f64::NAN);
    let parsed = parse_result(&m.render(&END_TO_END, true, 1, 0), &END_TO_END).expect("parses");
    assert!(!parsed.correct);
}

fn ident(s: &str, max: usize, extra: &str) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

#[test]
fn committed_manifest_is_the_rendered_one_and_within_limits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    assert_eq!(
        committed,
        metrics::manifest(),
        "regenerate with `serscale-perfbench manifest`"
    );
    let doc = json::parse(&committed).expect("manifest parses");
    let JsonValue::Object(map) = &doc else {
        panic!("manifest is an object")
    };
    let keys: Vec<&str> = map.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads = metrics::WORKLOADS.len();
    assert!((2..=8).contains(&workloads));
    for w in metrics::WORKLOADS {
        assert!(ident(w.name, 64, "_.-"), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for def in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(ident(def.name, 64, "_.-"), "{}", def.name);
        assert!(ident(def.unit, 16, "_/%.-"), "{}", def.unit);
    }
    for def in END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", metrics::Better::Lower));
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    assert!((1..=128).contains(&PER_LAYER.len()));
    let before = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), before, "metric names are unique");
    // A full measurement (4 + 22 runs per workload, with set-up and two
    // builds) fits in 3420 s.
    let runs = 4 + 22 * workloads as u64;
    assert!(runs * (metrics::RUN_SECONDS + 12) + 600 <= 3420);
}

fn small_campaign(seed: u64, jobs: usize) -> serscale_core::campaign::CampaignReport {
    let mut config = CampaignConfig::paper_scaled(0.005);
    config.seed = seed;
    Campaign::new(config).run_parallel(jobs)
}

#[test]
fn an_altered_report_fails_the_check_and_raises_error_rate() {
    let reference = small_campaign(7, 1);
    let mut tally = Tally::default();
    tally.record(same_report("parallel", &reference, &small_campaign(7, 2)));
    assert!(tally.ok(), "{:?}", tally.failures);

    let mut altered = reference.clone();
    altered.sessions[0].runs += 1;
    tally.record(same_report("altered", &reference, &altered));
    let mut altered_text = golden_summary(&reference);
    altered_text.push('\n');
    tally.record(same_text(
        "altered text",
        &golden_summary(&reference),
        &altered_text,
    ));
    assert_eq!((tally.attempted, tally.failed), (3, 2));
    assert!(!tally.ok());
    assert!((tally.error_rate() - 2.0 / 3.0).abs() < 1e-12);
}

/// A one-shot HTTP server answering one request with `status`.
fn answer_with(status: &'static str) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let body = "{}";
        let _ = write!(
            stream,
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
    });
    (addr, server)
}

#[test]
fn an_http_500_fails_the_request_and_raises_error_rate() {
    let mut tally = Tally::default();
    let (addr, server) = answer_with("200 OK");
    let ok = exchange(&mut tally, addr, "GET", "/healthz", "");
    server.join().expect("server thread");
    assert_eq!(ok.as_deref(), Ok("{}"));
    let (addr, server) = answer_with("500 Internal Server Error");
    let err = exchange(&mut tally, addr, "GET", "/healthz", "");
    server.join().expect("server thread");
    assert!(err.expect_err("a 500 fails").contains("HTTP 500"));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.error_rate(), 0.5);
}

#[test]
fn a_short_service_mix_run_is_correct_and_reports_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("service-mix-smoke");
    std::fs::create_dir_all(&work).expect("work dir");
    let ctx = Context {
        workload: "service-mix".into(),
        seed: 3,
        seconds: Duration::from_millis(300),
        trace: true,
        jobs: 2,
        root,
        work: work.clone(),
    };
    let outcome = run(&ctx);
    std::fs::remove_dir_all(&work).ok();
    let serscale_perfbench::Outcome {
        metrics,
        tally,
        load,
    } = outcome.expect("run");
    assert!(tally.ok(), "{:?}", tally.failures);
    assert!((0.0..=1.0).contains(&load.steal) && (0.0..=1.0).contains(&load.iowait));
    let line = metrics.render(&PER_LAYER, tally.ok(), tally.attempted, tally.failed);
    let parsed = parse_result(&line, &PER_LAYER).expect("contract");
    assert!(parsed.correct && parsed.failed == 0 && parsed.attempted > 0);
    assert!(metrics.get("turnaround_s_p50").is_some_and(|v| v > 0.0));
    assert_eq!(metrics.get("error_rate"), Some(0.0));
}

#[test]
fn the_first_campaign_seed_is_the_workload_seed() {
    let seeds = serscale_perfbench::campaigns::campaign_seeds(20231028, "paper-campaign", 6);
    assert_eq!(seeds.len(), 6);
    assert_eq!(seeds[0], 20231028);
    assert!(seeds.iter().all(|&s| s <= serscale_perfbench::MAX_SEED));
    let mut distinct = seeds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), 6);
}

/// Writes a `--out` record measured under `host` and `steal`, and
/// returns its path.
fn record(dir: &Path, name: &str, cpu: &str, steal: f64) -> String {
    let line = filled(&END_TO_END).render(&END_TO_END, true, 1, 0);
    let path = dir.join(name);
    std::fs::write(
        &path,
        format!(
            "{{\"host\":{{\"nproc\":2,\"cpu_model\":\"{cpu}\",\"rustc\":\"rustc 1.0\"}},\
             \"load\":{{\"steal\":{steal},\"iowait\":0.0}},\"workload\":\"paper-campaign\",\
             \"seed\":1,\"seconds\":15.0,\"trace\":false}}\n{line}\n"
        ),
    )
    .expect("write record");
    path.display().to_string()
}

fn compare(a: &str, b: &str) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_serscale-perfbench"))
        .args(["compare", a, b])
        .output()
        .expect("run compare");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn compare_refuses_other_host_classes_and_other_host_loads() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare-records");
    std::fs::create_dir_all(&dir).expect("dir");
    let base = record(&dir, "base", "cpu-a", 0.01);
    let (code, _) = compare(&base, &record(&dir, "same", "cpu-a", 0.02));
    assert_eq!(code, Some(0));
    let (code, err) = compare(&base, &record(&dir, "other-cpu", "cpu-b", 0.01));
    assert_eq!(code, Some(2));
    assert!(err.contains("host classes"), "{err}");
    let (code, err) = compare(&base, &record(&dir, "stolen", "cpu-a", 0.2));
    assert_eq!(code, Some(2));
    assert!(err.contains("unresolved") && err.contains("steal"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
