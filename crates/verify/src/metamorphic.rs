//! Metamorphic oracles: transform the campaign input, predict the output
//! shift from the paper's mechanism, and accept only if the simulator
//! agrees within confidence bounds.
//!
//! Every statistical check here normalizes counts by *live execution
//! time* (the per-benchmark beam-on run time, excluding crash recovery)
//! rather than wall-clock session time. Crash recovery is dead time for
//! the EDAC harvest, so wall-clock rates carry a few-percent systematic
//! that shifts when flux or duration changes; per-live-second counts are
//! exactly Poisson and make the metamorphic predictions sharp.

use serscale_beam::{BeamFacility, BeamPosition, NeutronSpectrum, WeibullResponse};
use serscale_core::campaign::CampaignRunOptions;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, SessionReport, TestSession};
use serscale_core::trace::NoopObserver;
use serscale_soc::platform::OperatingPoint;
use serscale_sram::SoftErrorModel;
use serscale_stats::{poisson_rate_test, SimRng};
use serscale_types::{CrossSection, Flux, Millivolts, SimDuration, VoltageDomain};

use crate::oracle::{CheckResult, OracleContext, OracleFamily, OracleReport, StatOracle};

/// Statistical rate checks accept while the two-sided equality p-value
/// stays above this. 10⁻³ is far below any plausible sampling fluctuation
/// at our budgets, yet a mechanism defect (a factor-2 rate error) drives
/// the p-value to ~0 immediately.
pub const RATE_P_FLOOR: f64 = 1e-3;

/// How a model's per-bit cross-section responds to supply voltage,
/// relative to its nominal calibration point.
///
/// [`SoftErrorModel`] implements this by delegating to its Qcrit∝V law;
/// the trait exists so the monotonicity oracle can also run against test
/// doubles — the suite's own meta-test feeds it a deliberately *inverted*
/// response and asserts the oracle rejects it (see this module's tests).
pub trait VoltageResponse {
    /// σ(v) / σ(v_nominal).
    fn sigma_ratio(&self, voltage: Millivolts) -> f64;
}

impl VoltageResponse for SoftErrorModel {
    fn sigma_ratio(&self, voltage: Millivolts) -> f64 {
        SoftErrorModel::sigma_ratio(self, voltage)
    }
}

/// Checks that lowering Vdd never lowers the per-bit cross-section over
/// an exhaustive 5 mV sweep of the plausible supply range.
///
/// Exposed as a free function (rather than buried in the oracle) so the
/// meta-test can aim it at a defective [`VoltageResponse`].
pub fn check_sigma_monotonic(model: &dyn VoltageResponse, label: &str) -> CheckResult {
    let mut last: Option<(u32, f64)> = None;
    for mv in (0..=90).map(|i| 1050 - 5 * i) {
        let ratio = model.sigma_ratio(Millivolts::new(mv));
        if !(ratio.is_finite() && ratio > 0.0) {
            return CheckResult::new(
                format!("sigma-monotonic-{label}"),
                false,
                format!("σ-ratio at {mv} mV is {ratio}, not a positive finite number"),
            );
        }
        if let Some((prev_mv, prev_ratio)) = last {
            // Sweeping downward in voltage: σ must not decrease.
            if ratio < prev_ratio * (1.0 - 1e-12) {
                return CheckResult::new(
                    format!("sigma-monotonic-{label}"),
                    false,
                    format!(
                        "σ-ratio fell from {prev_ratio:.6} at {prev_mv} mV to \
                         {ratio:.6} at {mv} mV — lowering Vdd lowered the cross-section"
                    ),
                );
            }
        }
        last = Some((mv, ratio));
    }
    CheckResult::new(
        format!("sigma-monotonic-{label}"),
        true,
        "σ(v)/σ(v₀) non-increasing in v over 600–1050 mV in 5 mV steps".to_string(),
    )
}

/// The TNF halo working flux, as the campaign computes it.
fn working_flux() -> Flux {
    BeamFacility::tnf().flux_at(BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION))
}

/// Runs one probe session and returns its report.
fn probe_session(point: OperatingPoint, flux_scale: f64, minutes: f64, seed: u64) -> SessionReport {
    let base = working_flux();
    let flux = Flux::per_cm2_s(base.as_per_cm2_s() * flux_scale);
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    let limits = SessionLimits::time_boxed(SimDuration::from_minutes(minutes));
    let mut session = TestSession::new(dut, flux, limits);
    let mut rng = SimRng::seed_from(seed);
    session
        .run(
            &mut rng,
            0,
            &mut CampaignRunOptions::with_jobs(1),
            &mut NoopObserver,
        )
        .expect("no cancel token")
}

/// Live (beam-on, non-recovery) execution minutes of a session.
fn live_minutes(report: &SessionReport) -> f64 {
    report
        .per_benchmark
        .values()
        .map(|s| s.execution_time.as_minutes())
        .sum()
}

/// Pools memory-upset counts and live exposure across seeds.
fn pooled_upsets(reports: &[SessionReport]) -> (u64, f64) {
    let n = reports.iter().map(|r| r.memory_upsets).sum();
    let t = reports.iter().map(live_minutes).sum();
    (n, t)
}

/// A two-sided Poisson rate-equality check between two pooled arms, with
/// `scale` multiplying the first arm's exposure (so "arm 1 at double flux"
/// is tested by doubling its exposure).
fn rate_equality_check(
    name: &str,
    n1: u64,
    t1_minutes: f64,
    scale1: f64,
    n2: u64,
    t2_minutes: f64,
) -> CheckResult {
    if n1 + n2 == 0 {
        return CheckResult::new(
            name.to_string(),
            false,
            "no upsets observed in either arm — budget too small to decide".to_string(),
        );
    }
    let cmp = poisson_rate_test(
        n1,
        SimDuration::from_minutes(t1_minutes * scale1),
        n2,
        SimDuration::from_minutes(t2_minutes),
    );
    CheckResult::new(
        name.to_string(),
        cmp.p_value >= RATE_P_FLOOR,
        format!(
            "{n1} upsets / {:.1} scaled live min vs {n2} / {:.1} live min: \
             rate ratio {:.3}, p = {:.2e} (floor {RATE_P_FLOOR:.0e})",
            t1_minutes * scale1,
            t2_minutes,
            cmp.rate_ratio,
            cmp.p_value,
        ),
    )
}

/// Doubling the flux (hence the fluence) doubles the expected upset
/// count; per-live-minute rates normalized by the flux ratio agree.
pub struct FluenceDoubling;

impl StatOracle for FluenceDoubling {
    fn name(&self) -> &'static str {
        "fluence-doubling"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Metamorphic
    }

    fn claim(&self) -> &'static str {
        "Doubling fluence doubles expected upsets within CI bounds"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let b = ctx.budget;
        let mut base = Vec::new();
        let mut doubled_flux = Vec::new();
        let mut doubled_time = Vec::new();
        for i in 0..b.seeds {
            let point = OperatingPoint::nominal();
            base.push(probe_session(
                point,
                1.0,
                b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i),
            ));
            doubled_flux.push(probe_session(
                point,
                2.0,
                b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i + 1),
            ));
            doubled_time.push(probe_session(
                point,
                1.0,
                2.0 * b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i + 2),
            ));
        }
        let (n0, t0) = pooled_upsets(&base);
        let (nf, tf) = pooled_upsets(&doubled_flux);
        let (nt, tt) = pooled_upsets(&doubled_time);
        let checks = vec![
            // The double-flux arm per (flux × live-minute) ≡ the base arm
            // per live-minute: its exposure counts double.
            rate_equality_check("double-flux-doubles-upsets", nf, tf, 2.0, n0, t0),
            // Doubling duration leaves the per-live-minute rate unchanged.
            rate_equality_check("double-duration-same-rate", n0, t0, 1.0, nt, tt),
        ];
        self.report(checks)
    }
}

/// Lowering Vdd never lowers the per-bit cross-section — at the model
/// level (exhaustive sweep) and at the DUT level (every array instance).
pub struct VoltageMonotonicity;

impl StatOracle for VoltageMonotonicity {
    fn name(&self) -> &'static str {
        "voltage-monotonicity"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Metamorphic
    }

    fn claim(&self) -> &'static str {
        "Lowering Vdd never lowers per-bit cross-section"
    }

    fn run(&self, _ctx: &OracleContext) -> OracleReport {
        let mut checks = vec![check_sigma_monotonic(&SoftErrorModel::tech_28nm(), "28nm")];

        // DUT level: stepping nominal → vmin_2400 → vmin_900 must never
        // shrink any array's observable cross-section once its own domain
        // voltage drops, and must leave it exactly alone otherwise.
        let points = [
            OperatingPoint::nominal(),
            OperatingPoint::safe(),
            OperatingPoint::vmin_2400(),
        ];
        let mut ok = true;
        let mut detail = String::new();
        for pair in points.windows(2) {
            let (hi, lo) = (pair[0], pair[1]);
            let dut_hi = DeviceUnderTest::xgene2(hi, DeviceUnderTest::paper_vmin(hi.frequency));
            let dut_lo = DeviceUnderTest::xgene2(lo, DeviceUnderTest::paper_vmin(lo.frequency));
            for (a, b) in dut_hi.soc().arrays().zip(dut_lo.soc().arrays()) {
                let s_hi = dut_hi.observable_sigma(a, 1.0).as_cm2();
                let s_lo = dut_lo.observable_sigma(b, 1.0).as_cm2();
                if s_lo < s_hi * (1.0 - 1e-12) {
                    ok = false;
                    detail = format!(
                        "{:?} {:?} σ fell {s_hi:.3e} → {s_lo:.3e} cm² going {} → {}",
                        a.kind(),
                        a.owner(),
                        hi.label(),
                        lo.label(),
                    );
                    break;
                }
            }
        }
        if ok {
            detail = "every array instance's observable σ is non-decreasing along \
                      nominal → safe → vmin_2400"
                .to_string();
        }
        checks.push(CheckResult::new("dut-sigma-monotonic", ok, detail));
        self.report(checks)
    }
}

/// Undervolting one domain perturbs only that domain's structures: at
/// vmin_900 the SoC rail holds 950 mV, so L3 must be untouched while
/// every PMD array's cross-section rises.
pub struct DomainIsolation;

impl StatOracle for DomainIsolation {
    fn name(&self) -> &'static str {
        "domain-isolation"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Metamorphic
    }

    fn claim(&self) -> &'static str {
        "Per-domain undervolting perturbs only that domain's structures"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let nominal = OperatingPoint::nominal();
        let v790 = OperatingPoint::vmin_900();
        let dut_nom =
            DeviceUnderTest::xgene2(nominal, DeviceUnderTest::paper_vmin(nominal.frequency));
        let dut_790 = DeviceUnderTest::xgene2(v790, DeviceUnderTest::paper_vmin(v790.frequency));

        // Exact layer: σ per array instance.
        let mut soc_ok = true;
        let mut pmd_ok = true;
        let mut detail = String::new();
        for (a, b) in dut_nom.soc().arrays().zip(dut_790.soc().arrays()) {
            let s_nom = dut_nom.observable_sigma(a, 1.0).as_cm2();
            let s_790 = dut_790.observable_sigma(b, 1.0).as_cm2();
            match a.array().voltage_domain() {
                VoltageDomain::Pmd => {
                    if s_790 <= s_nom {
                        pmd_ok = false;
                        detail = format!(
                            "PMD array {:?} σ did not rise at 790 mV: {s_nom:.3e} → {s_790:.3e}",
                            a.kind()
                        );
                    }
                }
                VoltageDomain::Soc | VoltageDomain::Standby => {
                    if s_790 != s_nom {
                        soc_ok = false;
                        detail = format!(
                            "SoC-domain array {:?} σ moved despite its rail holding: \
                             {s_nom:.3e} → {s_790:.3e}",
                            a.kind()
                        );
                    }
                }
            }
        }
        let mut checks = vec![
            CheckResult::new(
                "soc-arrays-untouched",
                soc_ok,
                if soc_ok {
                    "every SoC-domain array σ identical at vmin_900 and nominal".to_string()
                } else {
                    detail.clone()
                },
            ),
            CheckResult::new(
                "pmd-arrays-perturbed",
                pmd_ok,
                if pmd_ok {
                    "every PMD-domain array σ strictly above nominal at 790 mV".to_string()
                } else {
                    detail.clone()
                },
            ),
        ];

        // Statistical layer: the observed L3 EDAC rate must be flux-
        // consistent between nominal and vmin_900, while PMD-domain
        // structures (TLB + L1 + L2) climb.
        let b = ctx.budget;
        let mut nom_reports = Vec::new();
        let mut v790_reports = Vec::new();
        for i in 0..b.seeds {
            nom_reports.push(probe_session(
                nominal,
                1.0,
                b.session_minutes,
                ctx.probe_seed(self.name(), 2 * i),
            ));
            v790_reports.push(probe_session(
                v790,
                1.0,
                b.session_minutes,
                ctx.probe_seed(self.name(), 2 * i + 1),
            ));
        }
        let level_count = |reports: &[SessionReport], level: serscale_types::CacheLevel| -> u64 {
            reports
                .iter()
                .flat_map(|r| r.edac_per_level.iter())
                .filter(|((l, _), _)| *l == level)
                .map(|(_, n)| *n)
                .sum()
        };
        let t_nom: f64 = nom_reports.iter().map(live_minutes).sum();
        let t_790: f64 = v790_reports.iter().map(live_minutes).sum();
        let l3_nom = level_count(&nom_reports, serscale_types::CacheLevel::L3);
        let l3_790 = level_count(&v790_reports, serscale_types::CacheLevel::L3);
        checks.push(rate_equality_check(
            "l3-rate-unchanged",
            l3_nom,
            t_nom,
            1.0,
            l3_790,
            t_790,
        ));
        let pmd_levels = [
            serscale_types::CacheLevel::Tlb,
            serscale_types::CacheLevel::L1,
            serscale_types::CacheLevel::L2,
        ];
        let pmd_nom: u64 = pmd_levels
            .iter()
            .map(|l| level_count(&nom_reports, *l))
            .sum();
        let pmd_790: u64 = pmd_levels
            .iter()
            .map(|l| level_count(&v790_reports, *l))
            .sum();
        let pmd_rate_nom = pmd_nom as f64 / t_nom;
        let pmd_rate_790 = pmd_790 as f64 / t_790;
        checks.push(CheckResult::new(
            "pmd-rate-rises",
            pmd_rate_790 > pmd_rate_nom,
            format!(
                "PMD-domain EDAC rate {pmd_rate_nom:.4}/min at nominal vs \
                 {pmd_rate_790:.4}/min at 790 mV ({pmd_nom} vs {pmd_790} events)"
            ),
        ));
        self.report(checks)
    }
}

/// Flux-spectrum rescaling commutes with session splitting, and the
/// spectrum fold is linear in the response.
pub struct SpectrumRescaling;

impl StatOracle for SpectrumRescaling {
    fn name(&self) -> &'static str {
        "spectrum-rescaling"
    }

    fn family(&self) -> OracleFamily {
        OracleFamily::Metamorphic
    }

    fn claim(&self) -> &'static str {
        "Flux-spectrum rescaling commutes with session splitting"
    }

    fn run(&self, ctx: &OracleContext) -> OracleReport {
        let b = ctx.budget;
        let point = OperatingPoint::nominal();

        // One long session at base flux vs the same beam time split into
        // two sessions at 1.5× flux: per-(flux × live-minute) rates agree.
        let mut long = Vec::new();
        let mut split = Vec::new();
        for i in 0..b.seeds {
            long.push(probe_session(
                point,
                1.0,
                2.0 * b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i),
            ));
            split.push(probe_session(
                point,
                1.5,
                b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i + 1),
            ));
            split.push(probe_session(
                point,
                1.5,
                b.session_minutes,
                ctx.probe_seed(self.name(), 3 * i + 2),
            ));
        }
        let (n_long, t_long) = pooled_upsets(&long);
        let (n_split, t_split) = pooled_upsets(&split);
        let mut checks = vec![rate_equality_check(
            "rescaled-split-sessions-match",
            n_split,
            t_split,
            1.5,
            n_long,
            t_long,
        )];

        // Fold linearity: scaling the Weibull saturation cross-section by
        // c scales the spectrum-folded σ_eff by exactly c.
        let spectrum = NeutronSpectrum::atmospheric();
        let base = WeibullResponse::tech_28nm();
        let folded = spectrum.fold(&base).as_cm2();
        let scaled = WeibullResponse::new(
            CrossSection::cm2(base.sigma_sat().as_cm2() * 3.0),
            3.0,
            20.0,
            1.5,
        );
        let folded_scaled = spectrum.fold(&scaled).as_cm2();
        let lin_err = (folded_scaled - 3.0 * folded).abs() / (3.0 * folded);
        checks.push(CheckResult::new(
            "fold-linear-in-response",
            lin_err < 1e-9,
            format!("3×σ_sat fold vs 3×fold relative error {lin_err:.2e}"),
        ));

        // Threshold monotonicity: a harder turn-on threshold can only
        // shrink the folded σ_eff.
        let harder = spectrum
            .fold(&WeibullResponse::new(base.sigma_sat(), 30.0, 20.0, 1.5))
            .as_cm2();
        checks.push(CheckResult::new(
            "fold-threshold-monotonic",
            harder < folded,
            format!("σ_eff {folded:.3e} cm² at E₀=3 MeV vs {harder:.3e} at E₀=30 MeV"),
        ));
        self.report(checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::TrialBudget;

    fn ctx() -> OracleContext {
        OracleContext::new(0x5e45_ca1e, TrialBudget::small())
    }

    #[test]
    fn fluence_doubling_holds() {
        let report = FluenceDoubling.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn voltage_monotonicity_holds() {
        let report = VoltageMonotonicity.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn domain_isolation_holds() {
        let report = DomainIsolation.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    #[test]
    fn spectrum_rescaling_holds() {
        let report = SpectrumRescaling.run(&ctx());
        assert!(report.passed(), "{:#?}", report.checks);
    }

    /// The suite's own meta-test: a deliberately inverted Qcrit∝V law —
    /// σ *falling* as Vdd drops — must be caught by the monotonicity
    /// oracle. This is the proof that the oracles detect injected
    /// defects rather than vacuously passing.
    #[test]
    fn flipped_qcrit_sign_is_caught() {
        struct FlippedQcrit;
        impl VoltageResponse for FlippedQcrit {
            fn sigma_ratio(&self, voltage: Millivolts) -> f64 {
                // The 28 nm law with the exponent's sign flipped.
                let v0 = 980.0;
                (3.2 * (f64::from(voltage.get()) / v0 - 1.0)).exp()
            }
        }
        let verdict = check_sigma_monotonic(&FlippedQcrit, "flipped");
        assert!(
            !verdict.passed,
            "inverted voltage law slipped past the oracle: {}",
            verdict.detail
        );
        assert!(verdict.detail.contains("lowering Vdd lowered"));

        // And the genuine law passes the very same check.
        assert!(check_sigma_monotonic(&SoftErrorModel::tech_28nm(), "real").passed);
    }
}
