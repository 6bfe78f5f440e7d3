//! Plain-text campaign summaries.
//!
//! `serscale-bench` renders tables *against the paper's numbers*; this
//! module is the neutral, library-level renderer for users running their
//! own campaigns: one Table-2-shaped line per session plus the FIT
//! breakdown, with 95 % intervals.

use std::fmt::Write as _;

use crate::campaign::CampaignReport;
use crate::classify::FailureClass;
use crate::fit::{fit_breakdown, total_fit};
use crate::session::SessionReport;

/// Renders a campaign report as a line-oriented, bit-stable summary — the
/// format of the checked-in golden file that CI diffs a fresh scaled run
/// against, and of the control plane's `/campaigns/{id}/report` endpoint.
/// Every number here is exact (counts) or a full-precision deterministic
/// float, so any physics or determinism regression shows up as a diff.
///
/// (Historically this lived in `serscale-bench`, which still re-exports
/// it; it moved here so the server side can render byte-comparable
/// reports without depending on the reproduction harness.)
pub fn golden_summary(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "flux_per_cm2_s {:.6e}", report.flux.as_per_cm2_s());
    for (freq, vmin) in &report.vmins {
        let _ = writeln!(out, "vmin {}MHz {}mV", freq.get(), vmin.get());
    }
    for session in &report.sessions {
        let point = session.operating_point;
        let _ = writeln!(
            out,
            "session {} stop={:?} runs={} upsets={} sdc_notified={} \
             duration_s={:.6} fluence_per_cm2={:.6e}",
            point.label(),
            session.stop_reason,
            session.runs,
            session.memory_upsets,
            session.sdc_with_notification,
            session.duration.as_secs(),
            session.fluence.as_per_cm2(),
        );
        for class in FailureClass::ALL {
            let _ = writeln!(
                out,
                "  failures {:?} {}",
                class,
                session.failure_count(class)
            );
        }
        for ((level, severity), count) in session.edac_per_level.iter() {
            let _ = writeln!(out, "  edac {level:?} {severity:?} {count}");
        }
        for (benchmark, stats) in &session.per_benchmark {
            let _ = writeln!(
                out,
                "  benchmark {benchmark} runs={} upsets={} sdcs={}",
                stats.runs, stats.memory_upsets, stats.sdcs
            );
        }
        // Robustness accounting appears only when something actually went
        // wrong, so healthy runs keep producing the historical golden
        // byte-for-byte.
        if session.trial_retries > 0 {
            let _ = writeln!(out, "  trial_retries {}", session.trial_retries);
        }
        if !session.quarantined_trials.is_empty() {
            let trials: Vec<String> = session
                .quarantined_trials
                .iter()
                .map(u64::to_string)
                .collect();
            let _ = writeln!(out, "  quarantined {}", trials.join(","));
        }
    }
    out
}

/// One-line summary of a session: voltage, exposure, events, rates.
pub fn session_line(session: &SessionReport) -> String {
    let rate = session.upset_rate();
    format!(
        "{label:<16} {dur:>8.0} min  {fluence:>9.2e} n/cm2  {events:>5} events  \
         {upsets:>6} upsets ({lo:.2}-{hi:.2}/min 95%)",
        label = session.operating_point.label(),
        dur = session.duration.as_minutes(),
        fluence = session.fluence.as_per_cm2(),
        events = session.error_events(),
        upsets = session.memory_upsets,
        lo = rate.lower_per_minute(),
        hi = rate.upper_per_minute(),
    )
}

/// The full campaign summary: session lines, failure mixes and FIT
/// breakdowns with intervals.
pub fn campaign_summary(report: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "campaign: {} sessions, {:.1} beam hours at {}",
        report.sessions.len(),
        report.total_beam_time().as_hours(),
        report.flux,
    );
    for session in &report.sessions {
        let _ = writeln!(out, "  {}", session_line(session));
        let shares = session.failure_shares();
        let _ = writeln!(
            out,
            "    failure mix: AppCrash {:.0}%, SysCrash {:.0}%, SDC {:.0}%",
            100.0 * shares[&FailureClass::AppCrash],
            100.0 * shares[&FailureClass::SysCrash],
            100.0 * shares[&FailureClass::Sdc],
        );
        let b = fit_breakdown(session);
        let _ = writeln!(
            out,
            "    FIT at NYC: total {:.1} [{:.1}, {:.1}], SDC {:.1} [{:.1}, {:.1}]",
            b.total.point.get(),
            b.total.lower.get(),
            b.total.upper.get(),
            b.sdc.point.get(),
            b.sdc.lower.get(),
            b.sdc.upper.get(),
        );
    }
    if let Some(baseline) = report.baseline() {
        let base_fit = total_fit(baseline).point.get();
        if base_fit > 0.0 {
            for session in &report.sessions {
                if session.operating_point != baseline.operating_point {
                    let ratio = total_fit(session).point.get() / base_fit;
                    let _ = writeln!(
                        out,
                        "  {} total FIT = {ratio:.1}x nominal",
                        session.operating_point.label()
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};

    fn report() -> CampaignReport {
        let mut config = CampaignConfig::paper_scaled(0.03);
        config.seed = 77;
        Campaign::new(config).run_parallel(1)
    }

    #[test]
    fn summary_covers_every_session() {
        let r = report();
        let text = campaign_summary(&r);
        for session in &r.sessions {
            assert!(
                text.contains(&session.operating_point.label()),
                "missing {}:\n{text}",
                session.operating_point.label()
            );
        }
        assert!(text.contains("FIT at NYC"));
        assert!(text.contains("failure mix"));
    }

    #[test]
    fn session_line_shape() {
        let r = report();
        let line = session_line(&r.sessions[0]);
        assert!(line.contains("980mV"), "{line}");
        assert!(line.contains("n/cm2"), "{line}");
        assert!(line.contains("95%"), "{line}");
    }

    #[test]
    fn ratios_printed_for_scaled_points() {
        let text = campaign_summary(&report());
        assert!(text.contains("x nominal"), "{text}");
    }
}
