//! The power/susceptibility trade-off analyses of §5 (Figures 9 and 10).

use serde::{Deserialize, Serialize};

use serscale_soc::platform::OperatingPoint;
use serscale_soc::PowerModel;
use serscale_types::Watts;

use crate::campaign::CampaignReport;
use crate::session::SessionReport;

/// One operating point of Figure 9: power draw against cache upset rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TradeoffRow {
    /// The operating point.
    pub point: OperatingPoint,
    /// Modelled package power (suite average).
    pub power: Watts,
    /// Measured cache upsets per minute in this session.
    pub upsets_per_minute: f64,
}

/// One scaled operating point of Figure 10: what you save vs what it
/// costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SavingsRow {
    /// The operating point.
    pub point: OperatingPoint,
    /// Fractional power savings relative to nominal.
    pub power_savings: f64,
    /// Fractional increase in the cache upset rate relative to nominal.
    pub susceptibility_increase: f64,
}

/// Builds Figure 9's rows from a campaign report.
pub fn power_vs_upsets(report: &CampaignReport, power: &PowerModel) -> Vec<TradeoffRow> {
    report
        .sessions
        .iter()
        .map(|s| TradeoffRow {
            point: s.operating_point,
            power: power.total_power(s.operating_point),
            upsets_per_minute: s.upset_rate().per_minute(),
        })
        .collect()
}

/// Builds Figure 10's rows (scaled points only, relative to the campaign's
/// nominal session).
///
/// # Panics
///
/// Panics if the campaign has no nominal-voltage baseline session.
pub fn savings_vs_susceptibility(report: &CampaignReport, power: &PowerModel) -> Vec<SavingsRow> {
    let baseline = report
        .baseline()
        .expect("campaign must include a nominal session");
    let base_power = power.total_power(baseline.operating_point);
    let base_rate = baseline.upset_rate().per_minute();
    report
        .sessions
        .iter()
        .filter(|s| s.operating_point != baseline.operating_point)
        .map(|s| SavingsRow {
            point: s.operating_point,
            power_savings: power.total_power(s.operating_point).savings_vs(base_power),
            susceptibility_increase: s.upset_rate().per_minute() / base_rate - 1.0,
        })
        .collect()
}

/// The marginal exchange rate at one scaled point: percentage points of
/// susceptibility increase per percentage point of power savings. Above
/// 1.0, reliability deteriorates faster than power improves (the paper's
/// Observation #7 at 2.4 GHz).
pub fn susceptibility_per_savings(row: &SavingsRow) -> f64 {
    row.susceptibility_increase / row.power_savings
}

/// Convenience: the upset-rate ratio of one session against a baseline
/// session.
pub fn susceptibility_ratio(session: &SessionReport, baseline: &SessionReport) -> f64 {
    session.upset_rate().per_minute() / baseline.upset_rate().per_minute()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};

    fn quick_report() -> &'static CampaignReport {
        // Equal-length sixteen-hour sessions, computed once and shared by
        // every test in this module: the rate gap between the two most
        // susceptible sessions is only ~5%, so short sessions leave the
        // "highest rate" ranking at the mercy of Poisson noise.
        static REPORT: std::sync::OnceLock<CampaignReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| {
            let mut c = CampaignConfig::paper();
            c.seed = 99;
            for (_, limits) in &mut c.sessions {
                *limits = crate::session::SessionLimits::time_boxed(
                    serscale_types::SimDuration::from_minutes(960.0),
                );
            }
            Campaign::new(c).run_parallel(1)
        })
    }

    #[test]
    fn figure9_rows_shape() {
        let report = quick_report();
        let rows = power_vs_upsets(report, &PowerModel::xgene2());
        assert_eq!(rows.len(), 4);
        // Power decreases monotonically down Table 3's column order.
        for pair in rows.windows(2) {
            assert!(pair[1].power < pair[0].power);
        }
        // The 790 mV / 900 MHz point nearly halves the power…
        assert!(rows[3].power.get() < 11.5);
        // …while the upset rate is the campaign's highest.
        let max_rate = rows
            .iter()
            .map(|r| r.upsets_per_minute)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((rows[3].upsets_per_minute - max_rate).abs() < 1e-12);
    }

    #[test]
    fn figure10_rows_shape() {
        let report = quick_report();
        let rows = savings_vs_susceptibility(report, &PowerModel::xgene2());
        assert_eq!(rows.len(), 3);
        // Paper: savings 8.7% → 11.0% → 48.1%.
        assert!(rows[0].power_savings > 0.06 && rows[0].power_savings < 0.11);
        assert!(rows[1].power_savings > rows[0].power_savings);
        assert!(rows[2].power_savings > 0.4);
        // Susceptibility increases everywhere.
        for r in &rows {
            assert!(r.susceptibility_increase > -0.05, "{:?}", r.point);
        }
    }

    #[test]
    fn exchange_rate_above_one_at_2400mhz_vmin() {
        // Observation #7: at 2.4 GHz susceptibility rises faster than
        // savings; at 900 MHz the frequency cut buys savings "for free".
        let report = quick_report();
        let rows = savings_vs_susceptibility(report, &PowerModel::xgene2());
        let at_900 = rows
            .iter()
            .find(|r| r.point.frequency.get() == 900)
            .unwrap();
        assert!(
            susceptibility_per_savings(at_900) < 1.0,
            "900 MHz exchange rate = {}",
            susceptibility_per_savings(at_900)
        );
    }

    #[test]
    fn susceptibility_ratio_vs_baseline() {
        let report = quick_report();
        let base = report.baseline().unwrap();
        let vmin900 = report
            .session_at(serscale_soc::platform::OperatingPoint::vmin_900())
            .unwrap();
        let ratio = susceptibility_ratio(vmin900, base);
        // Table 2: 1.182/1.011 ≈ 1.17.
        assert!(ratio > 1.05 && ratio < 1.35, "ratio = {ratio}");
    }
}
