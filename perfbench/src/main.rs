//! Command line of the benchmark.
//!
//! ```text
//! serscale-perfbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! serscale-perfbench manifest          write BENCHMARK.json from the metric tables
//! serscale-perfbench compare A B       compare two --out records of one host class and load
//! ```

use std::process::ExitCode;
use std::time::Duration;

use serscale_perfbench::host::{nproc, HostClass, HostLoad};
use serscale_perfbench::metrics::{self, expected, parse_result};
use serscale_perfbench::{run, Context, MAX_SEED};
use serscale_telemetry::json::{self, JsonValue};

/// How far apart, in shares of host CPU time, the steal of two records
/// may be before `compare` refuses them: a host that lends more of its
/// time to other guests slows every metric, whatever the code does.
const STEAL_MARGIN: f64 = 0.02;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let raw = flag(args, name).ok_or_else(|| format!("missing {name}"))?;
    raw.parse()
        .map_err(|_| format!("{name}: cannot parse {raw:?}"))
}

fn measure(args: &[String]) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = root
        .join(".perfbench_work")
        .join(std::process::id().to_string());
    let trace: u8 = parse(args, "--trace")?;
    if trace > 1 {
        return Err("--trace must be 0 or 1".into());
    }
    let seconds: f64 = parse(args, "--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let seed: u64 = parse(args, "--seed")?;
    if seed > MAX_SEED {
        return Err(format!("--seed must be at most {MAX_SEED}"));
    }
    let ctx = Context {
        workload: flag(args, "--workload")
            .ok_or("missing --workload")?
            .to_string(),
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace: trace == 1,
        jobs: nproc(),
        root,
        work: work.clone(),
    };
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let outcome = run(&ctx);
    std::fs::remove_dir_all(&work).ok();
    if let Some(parent) = work.parent() {
        std::fs::remove_dir(parent).ok();
    }
    let outcome = outcome?;
    let tally = &outcome.tally;
    for failure in &tally.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    eprintln!(
        "perfbench: host steal {:.1}%, iowait {:.1}% of CPU time over the window",
        outcome.load.steal * 100.0,
        outcome.load.iowait * 100.0
    );
    let line = outcome.metrics.render(
        expected(ctx.trace),
        tally.ok(),
        tally.attempted,
        tally.failed,
    );
    if let Some(out) = flag(args, "--out") {
        // Two lines: what was measured where and under which host load,
        // then the result line itself.
        let record = format!(
            "{{\"host\":{},\"load\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}\n{line}\n",
            HostClass::detect().to_json(),
            outcome.load.to_json(),
            json::escape(&ctx.workload),
            ctx.seed,
            json::number(seconds),
            ctx.trace,
        );
        std::fs::write(out, record).map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{line}");
    Ok(tally.ok())
}

/// A `--out` record: the host class and load it was measured under,
/// and its result.
struct Record {
    host: HostClass,
    load: HostLoad,
    workload: String,
    trace: bool,
    metrics: Vec<(String, f64, String)>,
}

fn read_record(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (head, line) = text
        .trim()
        .split_once('\n')
        .ok_or_else(|| format!("{path}: not a two-line record"))?;
    let doc = json::parse(head).map_err(|e| format!("{path}: {e}"))?;
    let host = doc
        .get("host")
        .and_then(HostClass::from_json)
        .ok_or_else(|| format!("{path}: no host class"))?;
    let load = doc
        .get("load")
        .and_then(HostLoad::from_json)
        .ok_or_else(|| format!("{path}: no host load"))?;
    let workload = doc
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| format!("{path}: no workload"))?
        .to_string();
    let trace = doc.get("trace") == Some(&JsonValue::Bool(true));
    let result = parse_result(line, expected(trace)).map_err(|e| format!("{path}: {e}"))?;
    Ok(Record {
        host,
        load,
        workload,
        trace,
        metrics: result.metrics,
    })
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two --out records".into());
    };
    let (ra, rb) = (read_record(a)?, read_record(b)?);
    if ra.host != rb.host {
        return Err(format!(
            "refusing to compare across host classes:\n  {a}: {}\n  {b}: {}",
            ra.host.to_json(),
            rb.host.to_json()
        ));
    }
    if (ra.load.steal - rb.load.steal).abs() > STEAL_MARGIN {
        return Err(format!(
            "unresolved: the host's steal share was {:.1}% in {a} and {:.1}% in {b}, \
             more than {:.0} points apart, so the host's load differs as well as the code",
            ra.load.steal * 100.0,
            rb.load.steal * 100.0,
            STEAL_MARGIN * 100.0
        ));
    }
    if (ra.workload.as_str(), ra.trace) != (rb.workload.as_str(), rb.trace) {
        return Err(format!(
            "{a} and {b} measure different workloads or trace modes"
        ));
    }
    let mut within = true;
    for (name, va, unit) in &ra.metrics {
        let vb = rb
            .metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        let change = if *va == 0.0 { 0.0 } else { vb / va - 1.0 };
        let mut verdict = "";
        if let Some(bound) = metrics::find(name).and_then(|d| d.bound.map(|b| (d.better, b))) {
            let worse = match bound.0 {
                metrics::Better::Lower => change,
                metrics::Better::Higher => -change,
            };
            if worse > bound.1 {
                verdict = "  WORSE THAN BOUND";
                within = false;
            }
        }
        println!(
            "{name:<34} {va:>14.6} {vb:>14.6} {unit:<6} {:+7.2}%{verdict}",
            change * 100.0
        );
    }
    Ok(within)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => std::fs::write("BENCHMARK.json", metrics::manifest())
            .map(|()| true)
            .map_err(|e| format!("BENCHMARK.json: {e}")),
        Some("compare") => compare(&args[1..]),
        _ => measure(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
