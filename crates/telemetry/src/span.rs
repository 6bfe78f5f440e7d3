//! Structured tracing spans for the campaign hierarchy.
//!
//! A run decomposes as campaign → sweep → session → wave → trial; the
//! [`Tracer`] records one [`SpanRecord`] per completed level with host
//! enter/exit timestamps (nanoseconds since the tracer was built, so a
//! stream is self-relative and machine-comparable) plus structured
//! attributes — the voltage point for a session, speculation efficiency
//! for a wave, the verdict for a trial. Records export as JSONL through
//! [`Tracer::to_jsonl`].
//!
//! Spans are *host* telemetry: their timestamps come from the wall clock
//! and differ run to run. They live in a separate stream from the
//! simulation's [`Logbook`](serscale_core::trace::Logbook) trace, whose
//! bit-stability CI enforces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serscale_core::json;

/// The level of a span in the campaign hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanLevel {
    /// One whole campaign invocation.
    Campaign,
    /// A voltage sweep or other cross-session analysis.
    Sweep,
    /// One beam session at a fixed operating point.
    Session,
    /// One speculative wave of the parallel engine.
    Wave,
    /// One benchmark trial.
    Trial,
}

impl SpanLevel {
    /// The level's lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanLevel::Campaign => "campaign",
            SpanLevel::Sweep => "sweep",
            SpanLevel::Session => "session",
            SpanLevel::Wave => "wave",
            SpanLevel::Trial => "trial",
        }
    }
}

/// An opaque span handle returned by [`Tracer::enter`]. Id 0 means "no
/// parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The root sentinel: a span with this parent is top-level.
    pub const ROOT: SpanId = SpanId(0);
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// This span's id (unique within the tracer).
    pub id: u64,
    /// The enclosing span's id (0 = top-level).
    pub parent: u64,
    /// Hierarchy level.
    pub level: SpanLevel,
    /// Human name, e.g. `"session 920mV@2.4 GHz"`.
    pub name: String,
    /// Host nanoseconds from tracer construction to span entry.
    pub enter_ns: u64,
    /// Host nanoseconds from tracer construction to span exit.
    pub exit_ns: u64,
    /// Structured attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// The span's host duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.exit_ns.saturating_sub(self.enter_ns)
    }

    /// One JSON object describing the span.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"name\":{},\"enter_ns\":{},\
             \"exit_ns\":{}",
            self.level.as_str(),
            self.id,
            self.parent,
            json::escape(&self.name),
            self.enter_ns,
            self.exit_ns
        );
        for (key, value) in &self.attrs {
            out.push_str(&format!(",{}:{}", json::escape(key), json::escape(value)));
        }
        out.push('}');
        out
    }
}

/// An open span awaiting exit.
#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: u64,
    level: SpanLevel,
    name: String,
    enter_ns: u64,
    attrs: Vec<(String, String)>,
}

/// Collects spans. Thread-safe and cheap to share behind a reference; the
/// single mutex is uncontended in the engine because all observer
/// callbacks arrive from the single-threaded merge.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    inner: Mutex<TracerInner>,
}

#[derive(Debug, Default)]
struct TracerInner {
    open: Vec<OpenSpan>,
    closed: Vec<SpanRecord>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(TracerInner::default()),
        }
    }

    /// Host nanoseconds since the tracer was built.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span. `parent` is usually the enclosing span's handle
    /// ([`SpanId::ROOT`] for top-level).
    pub fn enter(
        &self,
        level: SpanLevel,
        name: &str,
        parent: SpanId,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let span = OpenSpan {
            id,
            parent: parent.0,
            level,
            name: name.to_string(),
            enter_ns: self.now_ns(),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        self.inner.lock().expect("tracer poisoned").open.push(span);
        SpanId(id)
    }

    /// Appends attributes to an open span (no-op if already closed).
    pub fn annotate(&self, span: SpanId, attrs: &[(&str, &str)]) {
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if let Some(open) = inner.open.iter_mut().find(|s| s.id == span.0) {
            open.attrs
                .extend(attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        }
    }

    /// Closes a span, recording its exit timestamp. Closing an unknown or
    /// already-closed span is a no-op (the stream must never panic the
    /// experiment it observes).
    pub fn exit(&self, span: SpanId) {
        let exit_ns = self.now_ns();
        let mut inner = self.inner.lock().expect("tracer poisoned");
        if let Some(pos) = inner.open.iter().position(|s| s.id == span.0) {
            let open = inner.open.swap_remove(pos);
            inner.closed.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                level: open.level,
                name: open.name,
                enter_ns: open.enter_ns,
                exit_ns,
                attrs: open.attrs,
            });
        }
    }

    /// Records a span that already finished, with caller-supplied
    /// timestamps. The wave observer uses this: the engine reports a
    /// wave's host duration *after* the merge, so the span is
    /// reconstructed rather than bracketed live.
    pub fn record_complete(
        &self,
        level: SpanLevel,
        name: &str,
        parent: SpanId,
        enter_ns: u64,
        exit_ns: u64,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = SpanRecord {
            id,
            parent: parent.0,
            level,
            name: name.to_string(),
            enter_ns,
            exit_ns: exit_ns.max(enter_ns),
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        };
        self.inner
            .lock()
            .expect("tracer poisoned")
            .closed
            .push(record);
        SpanId(id)
    }

    /// Convenience: run `body` inside a span.
    pub fn in_span<T>(
        &self,
        level: SpanLevel,
        name: &str,
        parent: SpanId,
        body: impl FnOnce() -> T,
    ) -> T {
        let span = self.enter(level, name, parent, &[]);
        let out = body();
        self.exit(span);
        out
    }

    /// Snapshot of all *closed* spans, in close order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.lock().expect("tracer poisoned").closed.clone()
    }

    /// Number of spans still open (0 after a well-nested run).
    pub fn open_count(&self) -> usize {
        self.inner.lock().expect("tracer poisoned").open.len()
    }

    /// Serializes every closed span as JSONL, sorted by enter time so the
    /// stream reads chronologically.
    pub fn to_jsonl(&self) -> String {
        let mut records = self.records();
        records.sort_by_key(|r| (r.enter_ns, r.id));
        let mut out = String::new();
        for record in &records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_core::json::{self, JsonValue};

    #[test]
    fn spans_nest_and_close() {
        let tracer = Tracer::new();
        let campaign = tracer.enter(SpanLevel::Campaign, "campaign", SpanId::ROOT, &[]);
        let session = tracer.enter(
            SpanLevel::Session,
            "session 920mV",
            campaign,
            &[("pmd_mv", "920")],
        );
        tracer.annotate(session, &[("stop", "BeamTime")]);
        tracer.exit(session);
        tracer.exit(campaign);
        assert_eq!(tracer.open_count(), 0);
        let records = tracer.records();
        assert_eq!(records.len(), 2);
        let session = &records[0];
        let campaign = &records[1];
        assert_eq!(session.level, SpanLevel::Session);
        assert_eq!(session.parent, campaign.id);
        assert!(session.enter_ns >= campaign.enter_ns);
        assert!(session.exit_ns <= campaign.exit_ns);
        assert!(session
            .attrs
            .iter()
            .any(|(k, v)| k == "stop" && v == "BeamTime"));
    }

    #[test]
    fn double_exit_and_unknown_exit_are_noops() {
        let tracer = Tracer::new();
        let span = tracer.enter(SpanLevel::Trial, "t", SpanId::ROOT, &[]);
        tracer.exit(span);
        tracer.exit(span);
        tracer.exit(SpanId::ROOT);
        assert_eq!(tracer.records().len(), 1);
    }

    #[test]
    fn jsonl_is_parseable_and_chronological() {
        let tracer = Tracer::new();
        tracer.in_span(SpanLevel::Sweep, "sweep", SpanId::ROOT, || {
            tracer.in_span(SpanLevel::Session, "inner \"quoted\"", SpanId::ROOT, || {})
        });
        let jsonl = tracer.to_jsonl();
        let docs = json::parse_lines(&jsonl).expect("spans parse");
        assert_eq!(docs.len(), 2);
        assert_eq!(
            docs[0].get("span").and_then(JsonValue::as_str),
            Some("sweep"),
            "outer span entered first"
        );
        let enters: Vec<f64> = docs
            .iter()
            .map(|d| d.get("enter_ns").and_then(JsonValue::as_f64).unwrap())
            .collect();
        assert!(enters.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn in_span_returns_the_body_value() {
        let tracer = Tracer::new();
        let out = tracer.in_span(SpanLevel::Wave, "w", SpanId::ROOT, || 41 + 1);
        assert_eq!(out, 42);
        assert_eq!(tracer.records()[0].level, SpanLevel::Wave);
    }
}
