//! The release self-check: every shape claim EXPERIMENTS.md makes,
//! asserted programmatically against a fresh campaign.
//!
//! `repro --selfcheck` is the "does my build reproduce the paper?" button:
//! it runs a campaign and evaluates each claim, printing PASS/FAIL with
//! the measured values. The integration suite covers the same ground with
//! fixed seeds; the self-check is for users on their own seeds/scales.

use serscale_core::campaign::CampaignReport;
use serscale_core::classify::FailureClass;
use serscale_core::fit::{class_fit, sdc_notification_split, total_fit};
use serscale_core::tradeoff::savings_vs_susceptibility;
use serscale_soc::edac::EdacSeverity;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PowerModel;
use serscale_types::CacheLevel;

/// One evaluated claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is being claimed.
    pub claim: &'static str,
    /// Whether the campaign satisfied it.
    pub passed: bool,
    /// The measured values behind the verdict.
    pub detail: String,
}

/// Evaluates the full claim list against a campaign report.
///
/// The thresholds are deliberately loose (they must hold at modest session
/// lengths across seeds); the EXPERIMENTS.md tables carry the precise
/// full-scale numbers.
pub fn run_checks(report: &CampaignReport) -> Vec<Check> {
    let mut checks = Vec::new();
    let nominal = report
        .baseline()
        .expect("campaign must include the nominal session");
    let safe = report.session_at(OperatingPoint::safe());
    let vmin = report.session_at(OperatingPoint::vmin_2400());
    let vmin900 = report.session_at(OperatingPoint::vmin_900());

    // --- Observation #1 / Table 2: upset rate rises toward Vmin.
    if let Some(vmin) = vmin {
        let r0 = nominal.upset_rate().per_minute();
        let r1 = vmin.upset_rate().per_minute();
        checks.push(Check {
            claim: "upset rate rises from nominal to Vmin (Obs. #1)",
            passed: r1 > r0,
            detail: format!("{r0:.3} -> {r1:.3} per minute"),
        });
    }

    // --- Observation #2: larger arrays upset more.
    let ce = |s: &serscale_core::session::SessionReport, level| {
        s.level_rate_per_minute(level, EdacSeverity::Corrected)
    };
    checks.push(Check {
        claim: "larger arrays upset more: L3 > L2 > L1 (Obs. #2)",
        passed: ce(nominal, CacheLevel::L3) > ce(nominal, CacheLevel::L2)
            && ce(nominal, CacheLevel::L2) > ce(nominal, CacheLevel::L1),
        detail: format!(
            "L3 {:.3}, L2 {:.3}, L1 {:.3} per minute",
            ce(nominal, CacheLevel::L3),
            ce(nominal, CacheLevel::L2),
            ce(nominal, CacheLevel::L1)
        ),
    });

    // --- Figure 6: uncorrectable errors only in the L3.
    let ue_outside_l3: u64 = nominal
        .edac_per_level
        .iter()
        .filter(|((level, sev), _)| *sev == EdacSeverity::Uncorrected && *level != CacheLevel::L3)
        .map(|(_, c)| *c)
        .sum();
    checks.push(Check {
        claim: "uncorrectable errors exclusive to the un-interleaved L3 (Fig. 6)",
        passed: ue_outside_l3 == 0,
        detail: format!("{ue_outside_l3} UEs outside the L3"),
    });

    // --- Observation #4 / Figure 8: the SDC share explodes at Vmin.
    if let Some(vmin) = vmin {
        let s0 = nominal.failure_shares()[&FailureClass::Sdc];
        let s1 = vmin.failure_shares()[&FailureClass::Sdc];
        checks.push(Check {
            claim: "SDC share explodes at Vmin (Obs. #4, Fig. 8)",
            passed: s1 > s0 && s1 > 0.6,
            detail: format!("{:.1}% -> {:.1}%", 100.0 * s0, 100.0 * s1),
        });
    }

    // --- Figure 11: total and SDC FIT ratios.
    if let Some(vmin) = vmin {
        let total_ratio = total_fit(vmin).point.get() / total_fit(nominal).point.get();
        checks.push(Check {
            claim: "total FIT grows several-fold at Vmin (Fig. 11, paper 6.6x)",
            passed: (2.5..20.0).contains(&total_ratio),
            detail: format!("{total_ratio:.1}x"),
        });
        let sdc0 = class_fit(nominal, FailureClass::Sdc).point.get();
        if sdc0 > 0.0 {
            let sdc_ratio = class_fit(vmin, FailureClass::Sdc).point.get() / sdc0;
            checks.push(Check {
                claim: "SDC FIT grows an order of magnitude at Vmin (paper 16x)",
                passed: (5.0..60.0).contains(&sdc_ratio),
                detail: format!("{sdc_ratio:.1}x"),
            });
        }
    }

    // --- Observation #6: frequency does not drive the SER.
    if let Some(v900) = vmin900 {
        let ratio = v900.upset_rate().per_minute() / nominal.upset_rate().per_minute();
        checks.push(Check {
            claim: "790 mV / 900 MHz upset rate is voltage-driven, modest (Obs. #6)",
            passed: (1.0..1.5).contains(&ratio),
            detail: format!("{ratio:.2}x over nominal"),
        });
    }

    // --- Figures 9/10: the power model and trade-off.
    let power_model = PowerModel::xgene2();
    let p = power_model.total_power(OperatingPoint::nominal()).get();
    checks.push(Check {
        claim: "nominal package power matches Fig. 9 (20.40 W)",
        passed: (p - 20.40).abs() < 0.05,
        detail: format!("{p:.2} W"),
    });
    if report.sessions.len() >= 2 {
        let rows = savings_vs_susceptibility(report, &power_model);
        let all_positive = rows.iter().all(|r| r.power_savings > 0.0);
        checks.push(Check {
            claim: "every scaled point saves power (Fig. 10)",
            passed: all_positive,
            detail: rows
                .iter()
                .map(|r| format!("{} {:.1}%", r.point.label(), 100.0 * r.power_savings))
                .collect::<Vec<_>>()
                .join(", "),
        });
    }

    // --- Figure 12: un-notified SDCs dominate notified ones.
    let mut notified_ok = true;
    let mut detail = Vec::new();
    for session in &report.sessions {
        let split = sdc_notification_split(session);
        let wo = split.without_notification.point.get();
        let w = split.with_notification.point.get();
        if w > wo {
            notified_ok = false;
        }
        detail.push(format!(
            "{}: {wo:.1}/{w:.1}",
            session.operating_point.label()
        ));
    }
    checks.push(Check {
        claim: "un-notified SDC FIT dominates notified (Fig. 12/13)",
        passed: notified_ok,
        detail: detail.join(", "),
    });

    // --- Table 2 row 10: SER in the published band.
    let mbit = serscale_soc::platform::Platform::from_spec(&serscale_soc::PlatformSpec::xgene2())
        .total_sram()
        .as_mbit();
    let mut ser_ok = true;
    let mut ser_detail = Vec::new();
    for session in &report.sessions {
        let ser = session.memory_ser_fit_per_mbit(mbit);
        if !(1.2..4.0).contains(&ser) {
            ser_ok = false;
        }
        ser_detail.push(format!("{ser:.2}"));
    }
    checks.push(Check {
        claim: "memory SER in the 2.0-2.5 FIT/Mbit band (Table 2, loose)",
        passed: ser_ok,
        detail: format!("{} FIT/Mbit", ser_detail.join(", ")),
    });

    let _ = safe;
    checks
}

/// Renders the checklist.
pub fn render(checks: &[Check]) -> String {
    let mut out = String::from("Self-check — EXPERIMENTS.md claims against this run\n");
    for c in checks {
        out.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.passed { "PASS" } else { "FAIL" },
            c.claim,
            c.detail
        ));
    }
    let failed = checks.iter().filter(|c| !c.passed).count();
    out.push_str(&format!(
        "  {} of {} claims hold\n",
        checks.len() - failed,
        checks.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign_config;
    use serscale_core::campaign::Campaign;
    use serscale_soc::PlatformSpec;

    #[test]
    fn selfcheck_passes_on_a_decent_campaign() {
        // Seed-robust: the loose claims must hold on every one of three
        // independent seeds — a claim that fails on any seed at this
        // session length indicates a mechanism regression, not noise
        // (the thresholds are sized for exactly this budget).
        let mut majority: std::collections::BTreeMap<&'static str, u32> =
            std::collections::BTreeMap::new();
        let seeds = [1234u64, 5678, 24680];
        for seed in seeds {
            // Equal 200-minute sessions: enough counts for every claim.
            let mut config = serscale_core::campaign::CampaignConfig::paper();
            config.seed = seed;
            for (_, limits) in &mut config.sessions {
                *limits = serscale_core::session::SessionLimits::time_boxed(
                    serscale_types::SimDuration::from_minutes(200.0),
                );
            }
            let report = Campaign::new(config).run_parallel(1);
            let checks = run_checks(&report);
            assert!(
                checks.len() >= 9,
                "expected a full checklist, got {}",
                checks.len()
            );
            for check in &checks {
                *majority.entry(check.claim).or_default() += u32::from(check.passed);
            }
            let text = render(&checks);
            assert!(text.contains("PASS"));
        }
        // Every claim passes on a majority of seeds; a systematic break
        // fails everywhere, a marginal seed cannot flake the suite.
        let quorum = (seeds.len() as u32).div_ceil(2);
        for (claim, passes) in &majority {
            assert!(
                *passes >= quorum,
                "claim {claim:?} held on only {passes}/{} seeds",
                seeds.len()
            );
        }
    }

    #[test]
    fn selfcheck_runs_even_on_tiny_campaigns() {
        // Short campaigns may fail noisy claims but must not panic.
        let report =
            Campaign::new(campaign_config(&PlatformSpec::xgene2(), 0.003, 9)).run_parallel(1);
        let checks = run_checks(&report);
        assert!(!checks.is_empty());
        let _ = render(&checks);
    }
}
