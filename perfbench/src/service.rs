//! The `service-mix` workload: an in-process control plane behind
//! `TelemetrySink::serve_control`, journaling every job into a state
//! directory, driven over HTTP by
//!
//! * one closed-loop client keeping [`IN_FLIGHT`] small campaigns in
//!   flight, alternating two tenants and both platforms, polling the
//!   oldest job's status every [`POLL`] and fetching its report when
//!   done; and
//! * one open-loop scraper requesting `/healthz`, `/metrics`,
//!   `/convergence` and `/campaigns/{id}` every [`SCRAPE_PERIOD`], each
//!   request timed from when it was due.
//!
//! The client submits [`SUBMISSIONS`] campaigns, or fewer if the window
//! ends first. After the window every report is checked byte for byte
//! against the golden summary of the same spec run solo at `jobs = 1`.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serscale_core::campaign::Campaign;
use serscale_core::report::golden_summary;
use serscale_telemetry::control::parse_spec;
use serscale_telemetry::json::{self, JsonValue};
use serscale_telemetry::serve::http_request;
use serscale_telemetry::{ControlPlane, ControlPlaneOptions, TelemetryOptions, TelemetrySink};

use crate::campaigns::campaign_seeds;
use crate::check::{http_ok, same_text, Tally};
use crate::host::{dir_bytes, CpuTicks, HostLoad};
use crate::metrics::Metrics;
use crate::stats::{median, quantile};
use crate::Context;

/// Campaigns the client keeps in flight.
pub const IN_FLIGHT: usize = 2;
/// Session-time scale of each submitted campaign: 30–45 ms of run time
/// per job on the recorded host, several client poll periods, so the
/// poll adds little to a job's turnaround.
pub const SCALE: f64 = 0.1;
/// The scraper's fixed schedule: one request per period, the period the
/// repository's CI monitoring job and `scripts/control_plane_client.py`
/// poll the service at.
pub const SCRAPE_PERIOD: Duration = Duration::from_millis(50);
/// How often the client polls the oldest in-flight job: short against a
/// job's run time, so the job queued behind it starts before the client
/// has noticed, and the runner never waits for the load generator.
pub const POLL: Duration = Duration::from_millis(5);
/// Campaigns submitted per run. The control plane keeps every job's
/// state for its lifetime, so a fixed count keeps the run's memory
/// comparable between versions (a count that grew with the service's
/// speed would read a faster service as a memory regression); at the
/// recorded speed the count takes a third to a half of a 15 s window.
pub const SUBMISSIONS: usize = 160;
/// The scraper's endpoints, in schedule order.
const ENDPOINTS: [&str; 4] = ["healthz", "metrics", "convergence", "status"];

/// One HTTP exchange, counted in the tally: a transport error or a
/// non-2xx status fails it.
///
/// # Errors
///
/// The failure, as recorded.
pub fn exchange(
    tally: &mut Tally,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<String, String> {
    let outcome = http_request(addr, method, path, body)
        .map_err(|e| format!("{method} {path}: {e}"))
        .and_then(|(status, text)| http_ok(path, status).map(|()| text));
    tally.record(outcome.as_ref().map(|_| ()).map_err(Clone::clone));
    outcome
}

/// A job the client submitted.
struct Job {
    id: u64,
    body: String,
    submitted: Instant,
    submit_ms: f64,
}

/// A job that finished, with the client's timings and its resource bill.
struct Finished {
    body: String,
    report: String,
    turnaround_s: f64,
    submit_ms: f64,
    report_ms: f64,
    queue_wait_s: f64,
    run_s: f64,
    trials: f64,
}

#[derive(Default)]
struct ClientLog {
    tally: Tally,
    finished: Vec<Finished>,
}

fn spec_body(n: usize, seeds: &[u64], jobs: usize) -> String {
    let tenant = if n.is_multiple_of(2) {
        "tenant-a"
    } else {
        "tenant-b"
    };
    let platform = if (n / 2).is_multiple_of(2) {
        "xgene2"
    } else {
        "zynq-mpsoc"
    };
    let seed = seeds[n];
    format!(
        "{{\"name\":\"mix-{n}\",\"tenant\":\"{tenant}\",\"seed\":{seed},\"scale\":{SCALE},\
         \"jobs\":{jobs},\"platform\":\"{platform}\"}}"
    )
}

fn number(doc: &JsonValue, key: &str) -> f64 {
    doc.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// The closed-loop client: submits one campaign per seed until the
/// deadline, then drains.
fn client(
    addr: SocketAddr,
    seeds: &[u64],
    jobs: usize,
    deadline: Instant,
    latest: &AtomicU64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut in_flight: VecDeque<Job> = VecDeque::new();
    let mut n = 0;
    loop {
        while in_flight.len() < IN_FLIGHT && Instant::now() < deadline && n < seeds.len() {
            let body = spec_body(n, seeds, jobs);
            n += 1;
            let submitted = Instant::now();
            let Ok(resp) = exchange(&mut log.tally, addr, "POST", "/campaigns", &body) else {
                continue;
            };
            let submit_ms = submitted.elapsed().as_secs_f64() * 1e3;
            match json::parse(&resp)
                .ok()
                .and_then(|d| d.get("id").and_then(JsonValue::as_f64))
            {
                Some(id) => {
                    latest.store(id as u64, Ordering::Relaxed);
                    in_flight.push_back(Job {
                        id: id as u64,
                        body,
                        submitted,
                        submit_ms,
                    });
                }
                None => log
                    .tally
                    .record(Err(format!("submission answer without id: {resp}"))),
            }
        }
        // The control plane runs jobs one at a time in submission order,
        // so only the oldest job in flight can be the next to finish.
        let Some(job) = in_flight.front() else {
            return log;
        };
        std::thread::sleep(POLL);
        let path = format!("/campaigns/{}", job.id);
        let Ok(status) = exchange(&mut log.tally, addr, "GET", &path, "") else {
            in_flight.pop_front();
            continue;
        };
        let Ok(doc) = json::parse(&status) else {
            log.tally.record(Err(format!("{path}: unparseable status")));
            in_flight.pop_front();
            continue;
        };
        if doc.get("done") != Some(&JsonValue::Bool(true)) {
            continue;
        }
        let job = in_flight.pop_front().expect("the job just polled");
        if doc.get("status").and_then(JsonValue::as_str) != Some("done") {
            log.tally
                .record(Err(format!("{path}: job ended as {status}")));
            continue;
        }
        let fetch = Instant::now();
        let Ok(report) = exchange(&mut log.tally, addr, "GET", &format!("{path}/report"), "")
        else {
            continue;
        };
        let now = Instant::now();
        log.finished.push(Finished {
            body: job.body,
            report,
            turnaround_s: now.duration_since(job.submitted).as_secs_f64(),
            submit_ms: job.submit_ms,
            report_ms: now.duration_since(fetch).as_secs_f64() * 1e3,
            queue_wait_s: number(&doc, "queue_wait_seconds"),
            run_s: number(&doc, "wall_seconds"),
            trials: number(&doc, "trials_done"),
        });
    }
}

#[derive(Default)]
struct ScrapeLog {
    tally: Tally,
    /// Latency from due time, per endpoint, in ms.
    latency_ms: [Vec<f64>; 4],
    lateness_ms: Vec<f64>,
}

/// The open-loop scraper: one request per period until the deadline or
/// the client's last report, each timed from when it was due.
fn scraper(
    addr: SocketAddr,
    deadline: Instant,
    latest: &AtomicU64,
    done: &AtomicBool,
) -> ScrapeLog {
    let mut log = ScrapeLog::default();
    while latest.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    for k in 0u32.. {
        let due = start + SCRAPE_PERIOD * k;
        if due >= deadline || done.load(Ordering::Relaxed) {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        log.lateness_ms
            .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let slot = k as usize % ENDPOINTS.len();
        let path = match ENDPOINTS[slot] {
            "status" => format!("/campaigns/{}", latest.load(Ordering::Relaxed)),
            endpoint => format!("/{endpoint}"),
        };
        // A failed scrape still counts in the latency it made callers
        // wait; the tally records the failure.
        let _ = exchange(&mut log.tally, addr, "GET", &path, "");
        log.latency_ms[slot].push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
    }
    log
}

/// Runs the service mix for the window and records its metrics.
/// Returns the host load over the window.
///
/// # Errors
///
/// The server cannot start; failed requests and checks are counted in
/// `tally` instead.
pub fn run(ctx: &Context, metrics: &mut Metrics, tally: &mut Tally) -> Result<HostLoad, String> {
    let state = ctx.work.join("state");
    let control = ControlPlane::start(ControlPlaneOptions {
        max_concurrent: 1,
        default_jobs: ctx.jobs,
        state_dir: Some(state.clone()),
        start_paused: false,
    });
    let sink = Arc::new(TelemetrySink::in_memory(TelemetryOptions::default()));
    let mut server = match sink.serve_control("127.0.0.1:0", Arc::clone(&control)) {
        Ok(server) => server,
        Err(e) => {
            control.drain();
            return Err(format!("serve: {e}"));
        }
    };
    let addr = server.addr();
    let seeds = campaign_seeds(ctx.seed, "service-mix", SUBMISSIONS);
    let latest = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let deadline = start + ctx.seconds;
    let (client, busy_s, load, scrapes) = std::thread::scope(|scope| {
        let scrape = scope.spawn(|| scraper(addr, deadline, &latest, &done));
        let client = client(addr, &seeds, ctx.jobs, deadline, &latest);
        let busy_s = start.elapsed().as_secs_f64();
        let load = ticks.until(CpuTicks::now());
        done.store(true, Ordering::Relaxed);
        (
            client,
            busy_s,
            load,
            scrape.join().expect("scraper thread panicked"),
        )
    });
    control.drain();
    server.shutdown();
    let state_bytes = dir_bytes(&state);
    std::fs::remove_dir_all(&state).ok();
    let non2xx = client.tally.failed + scrapes.tally.failed;
    tally.merge(client.tally);
    tally.merge(scrapes.tally);
    let finished = client.finished;

    // Every report must equal the golden summary of its spec run solo.
    for job in &finished {
        let spec = parse_spec(&job.body).map_err(|e| format!("own spec rejected: {e}"))?;
        let expected = golden_summary(&Campaign::new(spec.config()).run_parallel(1));
        tally.record(same_text("service report", &expected, &job.report));
    }

    let turnaround: Vec<f64> = finished.iter().map(|f| f.turnaround_s).collect();
    let pick = |f: fn(&Finished) -> f64| finished.iter().map(f).collect::<Vec<_>>();
    let trials: f64 = finished.iter().map(|f| f.trials).sum();
    metrics.set("campaign_s_p50", median(&turnaround));
    // Throughput as the client sees it. CPU time would count the load
    // generators' own polling, which grows with every slow job.
    metrics.set("trials_per_s", trials / busy_s);
    metrics.set("turnaround_s_p50", median(&turnaround));
    metrics.set("turnaround_s_p90", quantile(&turnaround, 0.9));
    let all_scrapes: Vec<f64> = scrapes.latency_ms.iter().flatten().copied().collect();
    metrics.set("scrape_ms_p50", median(&all_scrapes));
    metrics.set("scrape_ms_p99", quantile(&all_scrapes, 0.99));
    metrics.set(
        "artifact_mb",
        state_bytes as f64 / finished.len().max(1) as f64 / 1e6,
    );
    for (endpoint, samples) in ENDPOINTS.iter().zip(&scrapes.latency_ms) {
        metrics.set(&format!("serve.{endpoint}_ms_p99"), quantile(samples, 0.99));
    }
    metrics.set("serve.non2xx", non2xx as f64);
    metrics.set("control.submit_ms_p50", median(&pick(|f| f.submit_ms)));
    metrics.set("control.report_ms_p50", median(&pick(|f| f.report_ms)));
    metrics.set(
        "control.queue_wait_s_p50",
        median(&pick(|f| f.queue_wait_s)),
    );
    metrics.set("control.run_s_p50", median(&pick(|f| f.run_s)));
    metrics.set("gen.lateness_ms_p99", quantile(&scrapes.lateness_ms, 0.99));
    // No in-process tracing here: the traced run takes the same
    // client-side timings as the untraced one. The residual is the share
    // of a job's turnaround that neither its queue wait, its run, nor
    // the submit and report requests account for.
    metrics.set("trace.overhead", 1.0);
    metrics.set("trace.samples", turnaround.len() as f64);
    metrics.set("trace.campaign_s_p50", median(&turnaround));
    metrics.set("trace.untraced_campaign_s_p50", median(&turnaround));
    let residual: Vec<f64> = finished
        .iter()
        .map(|f| {
            1.0 - (f.queue_wait_s + f.run_s + (f.submit_ms + f.report_ms) / 1e3) / f.turnaround_s
        })
        .collect();
    metrics.set("trace.residual", median(&residual));
    Ok(load)
}
