//! The metrics registry: labeled counters, gauges and log-scale
//! histograms, sharded per thread.
//!
//! ## Design
//!
//! The campaign engine's determinism contract forbids telemetry from
//! introducing cross-thread coupling that could perturb scheduling-visible
//! state, and its throughput goal forbids a global lock on the hot path.
//! The registry therefore hands each thread its own [`Shard`]: series
//! *creation* takes the shard's (uncontended) map lock once, after which
//! the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles update plain
//! atomics — no lock, no contention, no RNG, no feedback into the
//! simulation. [`Registry::snapshot`] walks every shard and merges the
//! series: counters and histograms sum, gauges resolve by a global
//! last-set-wins sequence.
//!
//! Series are identified by a metric name plus a sorted label set, e.g.
//! `edac_events{domain="PMD",voltage="870mV"}` — the Prometheus data
//! model, which [`MetricsSnapshot::render_prometheus`] emits verbatim.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets per histogram: values are clamped into
/// `[2⁻³⁰, 2³³)` seconds (≈ nanoseconds to ≈ 272 years), one bucket per
/// power of two.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The smallest bucket's upper bound, as a power of two.
const BUCKET_MIN_EXP: i32 = -30;

/// A metric series identity: name plus sorted `(key, value)` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesKey {
    /// The metric name, e.g. `edac_events`.
    pub name: String,
    /// Sorted label pairs, e.g. `[("domain", "PMD"), ("voltage", "870mV")]`.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Builds a key, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders the key in Prometheus exposition syntax:
    /// `name{k1="v1",k2="v2"}` (bare `name` when unlabeled). Label values
    /// are escaped per the exposition format ([`escape_label_value`]).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = String::new();
        let _ = write!(out, "{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
        out
    }
}

/// Escapes a label value for the Prometheus text exposition format:
/// backslash, double-quote and newline become `\\`, `\"` and `\n`
/// (in that order — the backslash pass must run first).
pub fn escape_label_value(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escapes `# HELP` text for the exposition format: only backslash and
/// newline are special in help strings (quotes are not).
pub fn escape_help_text(text: &str) -> String {
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

/// The `# HELP` line text for a metric name. Known series get a curated
/// description; anything else gets a generic one so every exposed series
/// still carries HELP/TYPE metadata, as the format requires.
fn help_text(name: &str) -> &'static str {
    match name {
        "edac_events" => "EDAC error-report records harvested, by voltage point, rail and level.",
        "runs_total" => "Completed benchmark trials, by voltage point and benchmark.",
        "run_failures_total" => "Trials ending in SDC or a crash, by failure class.",
        "sessions_total" => "Beam sessions started, by operating point.",
        "recoveries_total" => "Crash recoveries that consumed beam time.",
        "recovery_time_lost" => "Simulated seconds lost to crash recovery.",
        "trial_wall_time" => "Per-trial simulated wall time in seconds.",
        "wave_merge_latency" => "Host seconds to run and merge one batch of trials.",
        "wave_critical_path" => {
            "Longest single-worker adjudication time per batch, in host seconds."
        }
        "wave_trials_planned_total" => "Trials staged by the batch engine's phase 1.",
        "wave_trials_absorbed_total" => "Staged trials absorbed by the canonical merge.",
        "waves_total" => "Batches of trials run and merged.",
        "trial_retries" => "Retry attempts spent on panicking or timed-out trials.",
        "quarantined_trials" => "Trials that exhausted every retry and were quarantined.",
        "worker_busy_seconds" => "Cumulative host seconds each pool worker spent adjudicating.",
        "worker_idle_seconds" => "Cumulative host seconds each pool worker spent off the hot path.",
        "worker_shards_total" => "Adjudications each pool worker pulled off the queue.",
        "telemetry_events_total" => "Observer callbacks captured into the JSONL event stream.",
        "session_sim_seconds" => "Simulated duration of the most recent session at this point.",
        "session_upsets_per_minute" => "Upset-rate estimate of the most recent session.",
        "session_recovery_lost_seconds" => "Recovery time lost in the most recent session.",
        "http_requests_total" => {
            "Control-plane HTTP requests, by method, endpoint template and status class."
        }
        "http_request_duration_seconds" => "Wall seconds to serve one control-plane HTTP request.",
        "http_response_bytes_total" => {
            "Response bytes written by the control plane, by endpoint template."
        }
        "queue_depth" => "Jobs waiting in the fair queue right now.",
        "tenant_jobs_total" => "Per-tenant job lifecycle transitions (queued, started, completed).",
        "tenant_quarantined_trials_total" => "Trials quarantined across a tenant's completed jobs.",
        "queue_wait_seconds" => "Seconds a job waited in the fair queue before it started.",
        "job_run_seconds" => "Wall seconds a job spent running, from dequeue to terminal state.",
        "tenant_completed_share" => "Fraction of all completed jobs attributed to this tenant.",
        "campaigns_submitted_total" => "Campaign specs accepted by POST /campaigns.",
        "campaigns_completed_total" => "Campaigns that reached a terminal state, by outcome.",
        _ => "serscale series (no curated help text).",
    }
}

/// Appends `# HELP` / `# TYPE` metadata for `name` if it has not been
/// emitted yet.
fn write_meta(out: &mut String, seen: &mut Vec<String>, name: &str, kind: &str) {
    if seen.iter().any(|s| s == name) {
        return;
    }
    seen.push(name.to_string());
    let _ = writeln!(out, "# HELP {name} {}", escape_help_text(help_text(name)));
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value (snapshot-consistency is the registry's job;
    /// this is a point read).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge cell: an `f64` (stored as bits) plus the global set-sequence
/// used to resolve "latest wins" across shards at snapshot time.
#[derive(Debug, Default)]
struct GaugeCell {
    seq: AtomicU64,
    bits: AtomicU64,
}

/// A last-set-wins gauge handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<GaugeCell>,
    clock: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge. Across shards the set with the highest global
    /// sequence number wins the merged snapshot.
    pub fn set(&self, value: f64) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        self.cell.bits.store(value.to_bits(), Ordering::Relaxed);
        self.cell.seq.store(stamp, Ordering::Release);
    }

    /// The current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Relaxed))
    }
}

/// A log₂-bucketed histogram handle for nonnegative values (durations in
/// seconds, latencies, sizes). Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCell>);

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    /// Sum of observed values, accumulated as f64 bits via CAS (the shard
    /// is per-thread, so the loop virtually never retries).
    sum_bits: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }
}

/// The bucket index a value falls into.
fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= 0.0 {
        return 0;
    }
    // Stay in f64 so +inf clamps into the top bucket instead of
    // overflowing integer arithmetic.
    let idx = value.log2().ceil() - f64::from(BUCKET_MIN_EXP);
    idx.clamp(0.0, (HISTOGRAM_BUCKETS - 1) as f64) as usize
}

/// The inclusive upper bound of bucket `i`, in the observed unit.
pub fn bucket_upper_bound(i: usize) -> f64 {
    (2.0f64).powi(BUCKET_MIN_EXP + i as i32)
}

impl Histogram {
    /// Records one observation. Negative and NaN values clamp into the
    /// lowest bucket and contribute zero to the sum.
    pub fn observe(&self, value: f64) {
        let cell = &*self.0;
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        let add = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        let mut current = cell.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + add).to_bits();
            match cell.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }
}

/// One thread's private slice of the registry. Obtain via
/// [`Registry::shard`]; handles returned by the accessors stay valid for
/// the registry's lifetime and update lock-free.
#[derive(Debug, Default)]
pub struct Shard {
    counters: Mutex<BTreeMap<SeriesKey, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<SeriesKey, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<SeriesKey, Arc<HistogramCell>>>,
}

impl Shard {
    /// The counter for `name{labels}`, created on first touch.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = SeriesKey::new(name, labels);
        let mut map = self.counters.lock().expect("counter map poisoned");
        Counter(Arc::clone(map.entry(key).or_default()))
    }

    /// The histogram for `name{labels}`, created on first touch.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = SeriesKey::new(name, labels);
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        Histogram(Arc::clone(map.entry(key).or_default()))
    }
}

/// The process-wide registry: a list of shards plus the global gauge
/// sequence clock. Cheap to clone (it is an `Arc` internally).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    shards: Mutex<Vec<Arc<Shard>>>,
    gauge_clock: Arc<AtomicU64>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers and returns a new shard. Call once per thread (or per
    /// observer) and cache the handles it hands out; creating a shard
    /// takes the registry lock, using one never does.
    pub fn shard(&self) -> Arc<Shard> {
        let shard = Arc::new(Shard::default());
        self.inner
            .shards
            .lock()
            .expect("shard list poisoned")
            .push(Arc::clone(&shard));
        shard
    }

    /// The gauge for `name{labels}` on a given shard. Gauges carry the
    /// registry's global sequence clock so concurrent sets merge
    /// last-write-wins; they are therefore created through the registry,
    /// not the shard.
    pub fn gauge(&self, shard: &Shard, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = SeriesKey::new(name, labels);
        let mut map = shard.gauges.lock().expect("gauge map poisoned");
        Gauge {
            cell: Arc::clone(map.entry(key).or_default()),
            clock: Arc::clone(&self.inner.gauge_clock),
        }
    }

    /// Merges every shard into one consistent view: counters and
    /// histograms sum across shards, gauges take the most recent set.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let shards = self.inner.shards.lock().expect("shard list poisoned");
        let mut counters: BTreeMap<SeriesKey, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<SeriesKey, (u64, f64)> = BTreeMap::new();
        let mut histograms: BTreeMap<SeriesKey, HistogramSnapshot> = BTreeMap::new();
        for shard in shards.iter() {
            for (key, cell) in shard.counters.lock().expect("counter map poisoned").iter() {
                *counters.entry(key.clone()).or_insert(0) += cell.load(Ordering::Relaxed);
            }
            for (key, cell) in shard.gauges.lock().expect("gauge map poisoned").iter() {
                let seq = cell.seq.load(Ordering::Acquire);
                let value = f64::from_bits(cell.bits.load(Ordering::Relaxed));
                let entry = gauges.entry(key.clone()).or_insert((0, 0.0));
                if seq >= entry.0 {
                    *entry = (seq, value);
                }
            }
            for (key, cell) in shard
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
            {
                let merged = histograms.entry(key.clone()).or_default();
                for (i, bucket) in cell.buckets.iter().enumerate() {
                    merged.buckets[i] += bucket.load(Ordering::Relaxed);
                }
                merged.count += cell.count.load(Ordering::Relaxed);
                merged.sum += f64::from_bits(cell.sum_bits.load(Ordering::Relaxed));
            }
        }
        MetricsSnapshot {
            counters,
            gauges: gauges.into_iter().map(|(k, (_, v))| (k, v)).collect(),
            histograms,
        }
    }
}

/// A merged histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (`bucket_upper_bound(i)` gives bucket `i`'s `le`).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
        }
    }
}

impl HistogramSnapshot {
    /// The mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (the bucket boundary the
    /// quantile falls under) — log₂-coarse but monotone and merge-exact.
    pub fn quantile_upper_bound(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// A merged, immutable view of every series — what the exporters render.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter totals.
    pub counters: BTreeMap<SeriesKey, u64>,
    /// Gauge values (last set wins).
    pub gauges: BTreeMap<SeriesKey, f64>,
    /// Merged histograms.
    pub histograms: BTreeMap<SeriesKey, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sums every counter named `name` whose labels include `matches`
    /// (pass `&[]` for all label sets).
    pub fn counter_total(&self, name: &str, matches: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|(key, _)| {
                key.name == name
                    && matches
                        .iter()
                        .all(|(mk, mv)| key.labels.iter().any(|(k, v)| k == mk && v == mv))
            })
            .map(|(_, v)| *v)
            .sum()
    }

    /// The gauge value for an exact series, if set.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.gauges.get(&SeriesKey::new(name, labels)).copied()
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (sorted, so two snapshots of identical series diff cleanly). Every
    /// metric name carries `# HELP` and `# TYPE` lines, and label values
    /// are escaped per the format — both the `metrics.prom` file exporter
    /// and the live `/metrics` endpoint render through here.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut seen: Vec<String> = Vec::new();
        for (key, value) in &self.counters {
            write_meta(&mut out, &mut seen, &key.name, "counter");
            let _ = writeln!(out, "{} {value}", key.render());
        }
        for (key, value) in &self.gauges {
            write_meta(&mut out, &mut seen, &key.name, "gauge");
            let _ = writeln!(out, "{} {value}", key.render());
        }
        for (key, hist) in &self.histograms {
            write_meta(&mut out, &mut seen, &key.name, "histogram");
            // Standard cumulative exposition: a contiguous bucket prefix
            // from the smallest bound through the highest occupied bucket
            // (empty boundaries included, so scrapers can interpolate),
            // closed by the mandatory `le="+Inf"` bucket equal to _count.
            let occupied = hist.buckets.iter().rposition(|&n| n != 0);
            let mut cumulative = 0u64;
            for (i, &n) in hist
                .buckets
                .iter()
                .enumerate()
                .take(occupied.map_or(0, |last| last + 1))
            {
                cumulative += n;
                let mut labeled = key.clone();
                labeled.name = format!("{}_bucket", key.name);
                labeled
                    .labels
                    .push(("le".to_string(), format!("{:e}", bucket_upper_bound(i))));
                let _ = writeln!(out, "{} {cumulative}", labeled.render());
            }
            let mut inf = key.clone();
            inf.name = format!("{}_bucket", key.name);
            inf.labels.push(("le".to_string(), "+Inf".to_string()));
            let _ = writeln!(out, "{} {}", inf.render(), hist.count);
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                key.name,
                render_label_suffix(key),
                hist.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                key.name,
                render_label_suffix(key),
                hist.count
            );
        }
        out
    }
}

/// Just the `{...}` part of a key (empty for unlabeled series).
fn render_label_suffix(key: &SeriesKey) -> String {
    let rendered = key.render();
    rendered[key.name.len()..].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_sum_across_shards() {
        let registry = Registry::new();
        let shards: Vec<_> = (0..4).map(|_| registry.shard()).collect();
        thread::scope(|scope| {
            for (i, shard) in shards.iter().enumerate() {
                scope.spawn(move || {
                    let c = shard.counter("edac_events", &[("domain", "PMD")]);
                    for _ in 0..=i {
                        c.inc();
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter_total("edac_events", &[("domain", "PMD")]), 10);
        assert_eq!(snap.counter_total("edac_events", &[]), 10);
        assert_eq!(snap.counter_total("edac_events", &[("domain", "SoC")]), 0);
    }

    #[test]
    fn gauges_resolve_last_set_wins() {
        let registry = Registry::new();
        let a = registry.shard();
        let b = registry.shard();
        let ga = registry.gauge(&a, "upset_rate", &[]);
        let gb = registry.gauge(&b, "upset_rate", &[]);
        ga.set(1.0);
        gb.set(2.0);
        ga.set(3.5);
        assert_eq!(
            registry.snapshot().gauge_value("upset_rate", &[]),
            Some(3.5)
        );
        assert_eq!(ga.get(), 3.5);
    }

    #[test]
    fn histogram_buckets_are_log_scale_and_merge() {
        let registry = Registry::new();
        let a = registry.shard();
        let b = registry.shard();
        let ha = a.histogram("trial_wall_time", &[]);
        let hb = b.histogram("trial_wall_time", &[]);
        for v in [0.001, 0.5, 0.5, 4.0] {
            ha.observe(v);
        }
        hb.observe(1000.0);
        let snap = registry.snapshot();
        let hist = &snap.histograms[&SeriesKey::new("trial_wall_time", &[])];
        assert_eq!(hist.count, 5);
        assert!((hist.sum - 1005.001).abs() < 1e-9);
        assert!((hist.mean() - 201.0002).abs() < 1e-3);
        // Median of {0.001, 0.5, 0.5, 4.0, 1000.0} is 0.5, whose log2
        // bucket upper bound is exactly 0.5.
        assert_eq!(hist.quantile_upper_bound(0.5), 0.5);
        assert!(hist.quantile_upper_bound(1.0) >= 1000.0);
    }

    #[test]
    fn pathological_observations_stay_finite() {
        let registry = Registry::new();
        let shard = registry.shard();
        let h = shard.histogram("h", &[]);
        h.observe(f64::NAN);
        h.observe(-1.0);
        h.observe(0.0);
        h.observe(f64::INFINITY);
        let snap = registry.snapshot();
        let hist = &snap.histograms[&SeriesKey::new("h", &[])];
        assert_eq!(hist.count, 4);
        assert!(hist.sum.is_finite());
    }

    #[test]
    fn series_keys_canonicalize_label_order() {
        let a = SeriesKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = SeriesKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "m{a=\"1\",b=\"2\"}");
        assert_eq!(SeriesKey::new("bare", &[]).render(), "bare");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_parseable_shaped() {
        let registry = Registry::new();
        let shard = registry.shard();
        shard.counter("zz_total", &[]).add(3);
        shard.counter("aa_total", &[("k", "v")]).add(1);
        registry.gauge(&shard, "gg", &[]).set(0.25);
        shard.histogram("hh", &[]).observe(1.0);
        let text = registry.snapshot().render_prometheus();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"aa_total{k=\"v\"} 1"));
        assert!(lines.contains(&"zz_total 3"));
        assert!(lines.contains(&"gg 0.25"));
        assert!(lines.iter().any(|l| l.starts_with("hh_bucket{le=\"")));
        assert!(lines.contains(&"hh_sum 1"));
        assert!(lines.contains(&"hh_count 1"));
        // Counters render before gauges, sorted within each kind.
        let aa = lines
            .iter()
            .position(|l| l.starts_with("aa_total"))
            .unwrap();
        let zz = lines
            .iter()
            .position(|l| l.starts_with("zz_total"))
            .unwrap();
        assert!(aa < zz);
    }

    #[test]
    fn histogram_buckets_render_cumulative_with_inf_terminator() {
        let registry = Registry::new();
        let shard = registry.shard();
        let h = shard.histogram("hh", &[("k", "v")]);
        // Two occupied buckets with an empty gap between them.
        h.observe(0.4); // le = 0.5
        h.observe(0.5); // le = 0.5
        h.observe(3.0); // le = 4
        let text = registry.snapshot().render_prometheus();
        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter(|l| l.starts_with("hh_bucket{"))
            .map(|l| {
                let (series, value) = l.rsplit_once(' ').unwrap();
                let le = series
                    .split("le=\"")
                    .nth(1)
                    .unwrap()
                    .trim_end_matches("\"}");
                (le.parse::<f64>().unwrap(), value.parse::<u64>().unwrap())
            })
            .collect();
        // Contiguous prefix from the smallest bound through le=4, then +Inf.
        assert_eq!(buckets.last(), Some(&(f64::INFINITY, 3)));
        let finite = &buckets[..buckets.len() - 1];
        assert_eq!(finite.first().unwrap().0, bucket_upper_bound(0));
        assert_eq!(finite.last().unwrap(), &(4.0, 3));
        // Cumulative counts never decrease and bounds strictly increase.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds not increasing: {buckets:?}");
            assert!(pair[0].1 <= pair[1].1, "counts not cumulative: {buckets:?}");
        }
        // The empty boundary between 0.5 and 4 is present with the running
        // cumulative value, so interpolating scrapers see every edge.
        let at_one = finite.iter().find(|(le, _)| *le == 1.0).unwrap();
        assert_eq!(at_one.1, 2);
        assert!(text.contains("hh_count{k=\"v\"} 3"), "{text}");
        // An empty histogram still renders the +Inf bucket.
        let empty = Registry::new();
        let shard = empty.shard();
        let _ = shard.histogram("ee", &[]);
        let text = empty.snapshot().render_prometheus();
        assert!(text.contains("ee_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(!text.contains("ee_bucket{le=\"1"), "{text}");
    }

    #[test]
    fn adversarial_label_values_escape_per_exposition_format() {
        // Raw value mixing every character the format makes special, plus
        // the realistic operating-point label that motivated the fix.
        let evil = "870mV@2.4 GHz\\path\"quoted\"\nnext";
        let key = SeriesKey::new("edac_events", &[("voltage", evil)]);
        let rendered = key.render();
        assert_eq!(
            rendered,
            "edac_events{voltage=\"870mV@2.4 GHz\\\\path\\\"quoted\\\"\\nnext\"}"
        );
        assert!(
            !rendered.contains('\n'),
            "a raw newline splits the exposition line: {rendered}"
        );
        // The same escaping reaches the full snapshot render (shared by
        // the file exporter and the /metrics endpoint).
        let registry = Registry::new();
        let shard = registry.shard();
        shard.counter("edac_events", &[("voltage", evil)]).add(2);
        registry
            .gauge(&shard, "session_sim_seconds", &[("voltage", evil)])
            .set(1.5);
        shard
            .histogram("trial_wall_time", &[("voltage", evil)])
            .observe(0.25);
        let text = registry.snapshot().render_prometheus();
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "unparseable exposition line: {line:?}"
            );
        }
        assert!(text.contains("\\\"quoted\\\"\\nnext"), "{text}");
    }

    #[test]
    fn every_series_carries_help_and_type_lines() {
        let registry = Registry::new();
        let shard = registry.shard();
        shard.counter("runs_total", &[("voltage", "v")]).inc();
        shard.counter("made_up_metric", &[]).inc();
        registry.gauge(&shard, "session_sim_seconds", &[]).set(9.0);
        shard.histogram("wave_merge_latency", &[]).observe(0.5);
        let text = registry.snapshot().render_prometheus();
        for (name, kind) in [
            ("runs_total", "counter"),
            ("made_up_metric", "counter"),
            ("session_sim_seconds", "gauge"),
            ("wave_merge_latency", "histogram"),
        ] {
            assert!(text.contains(&format!("# TYPE {name} {kind}\n")), "{text}");
            let help = format!("# HELP {name} ");
            assert!(text.contains(&help), "missing {help:?} in:\n{text}");
        }
        // Metadata precedes the series and is emitted once per name.
        let type_lines = text
            .lines()
            .filter(|l| l.starts_with("# TYPE runs_total"))
            .count();
        assert_eq!(type_lines, 1);
        let meta = text.lines().position(|l| l == "# TYPE runs_total counter");
        let series = text.lines().position(|l| l.starts_with("runs_total{"));
        assert!(meta < series, "{meta:?} vs {series:?}");
    }

    #[test]
    fn help_text_escapes_backslash_and_newline() {
        assert_eq!(escape_help_text("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn bucket_bounds_are_monotone() {
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
        assert_eq!(bucket_index(0.5), bucket_index(0.3));
        assert!(bucket_index(2.0) < bucket_index(1e6));
    }
}
