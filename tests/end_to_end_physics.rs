//! Integration: physics invariants that span crates — the mechanisms the
//! paper identifies, checked through the assembled stack rather than in
//! isolation.

use serscale_core::campaign::CampaignRunOptions;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::NoopObserver;
use serscale_soc::edac::EdacSeverity;
use serscale_soc::platform::OperatingPoint;
use serscale_stats::SimRng;
use serscale_types::{CacheLevel, Flux, Megahertz, Millivolts, SimDuration};

const WORKING_FLUX: f64 = 1.5e6;

fn run_session(
    point: OperatingPoint,
    minutes: f64,
    seed: u64,
) -> serscale_core::session::SessionReport {
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    let mut session = TestSession::new(
        dut,
        Flux::per_cm2_s(WORKING_FLUX),
        SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
    );
    session
        .run(
            &mut SimRng::seed_from(seed),
            0,
            &mut CampaignRunOptions::with_jobs(1),
            &mut NoopObserver,
        )
        .expect("no cancel token")
}

#[test]
fn observation2_larger_arrays_upset_more() {
    // Fig. 6: rate(L3) > rate(L2) > rate(L1); TLBs smallest structures.
    let report = run_session(OperatingPoint::nominal(), 400.0, 1);
    let rate = |level| report.level_rate_per_minute(level, EdacSeverity::Corrected);
    assert!(rate(CacheLevel::L3) > rate(CacheLevel::L2));
    assert!(rate(CacheLevel::L2) > rate(CacheLevel::L1));
    assert!(rate(CacheLevel::L2) > rate(CacheLevel::Tlb));
}

#[test]
fn uncorrectable_errors_appear_only_in_the_uninterleaved_l3() {
    // Fig. 6/7: UEs are exclusive to the L3 because it alone lacks bit
    // interleaving — multi-cell clusters land in one SECDED word there.
    let report = run_session(OperatingPoint::vmin_2400(), 600.0, 2);
    let ue = |level| {
        report
            .edac_per_level
            .get(&(level, EdacSeverity::Uncorrected))
            .copied()
            .unwrap_or(0)
    };
    assert!(
        ue(CacheLevel::L3) > 0,
        "expected L3 UEs in a 10-hour Vmin session"
    );
    assert_eq!(ue(CacheLevel::L2), 0, "interleaved L2 must not see UEs");
    assert_eq!(ue(CacheLevel::L1), 0);
    assert_eq!(ue(CacheLevel::Tlb), 0);
}

#[test]
fn observation6_frequency_alone_leaves_sram_ser_unchanged() {
    // Same voltages, different frequency: the SRAM cross-section is
    // identical by construction, and the measured rates agree within
    // Poisson noise.
    let at_2400 = OperatingPoint::nominal();
    let at_1200 = OperatingPoint {
        pmd: Millivolts::new(980),
        soc: Millivolts::new(950),
        frequency: Megahertz::new(1200),
    };
    let dut_a = DeviceUnderTest::xgene2(at_2400, DeviceUnderTest::paper_vmin(at_2400.frequency));
    let dut_b = DeviceUnderTest::xgene2(at_1200, DeviceUnderTest::paper_vmin(at_1200.frequency));
    let sigma_a = dut_a.total_observable_sram_sigma(1.0).as_cm2();
    let sigma_b = dut_b.total_observable_sram_sigma(1.0).as_cm2();
    assert!(
        (sigma_a - sigma_b).abs() < 1e-20,
        "SRAM σ must be frequency-free"
    );

    let ra = run_session(at_2400, 300.0, 3).upset_rate().per_minute();
    let rb = run_session(at_1200, 300.0, 3).upset_rate().per_minute();
    assert!((ra - rb).abs() / ra < 0.25, "measured rates {ra} vs {rb}");
}

#[test]
fn l3_rate_immune_to_pmd_only_undervolting() {
    // Fig. 7's asymmetry: at 790 mV only the PMD domain drops; the L3
    // (SoC domain) keeps its nominal-voltage rate while L1/L2 rise.
    let nominal = run_session(OperatingPoint::nominal(), 500.0, 4);
    let v790 = run_session(OperatingPoint::vmin_900(), 500.0, 4);
    let ce = |r: &serscale_core::session::SessionReport, level| {
        r.level_rate_per_minute(level, EdacSeverity::Corrected)
    };
    // L2 (PMD domain) rises markedly (paper: 0.157 → 0.29, ×1.85).
    let l2_ratio = ce(&v790, CacheLevel::L2) / ce(&nominal, CacheLevel::L2);
    assert!(l2_ratio > 1.3, "L2 ratio = {l2_ratio}");
    // L3 (SoC domain, unchanged voltage) stays put within noise.
    let l3_ratio = ce(&v790, CacheLevel::L3) / ce(&nominal, CacheLevel::L3);
    assert!((0.8..1.2).contains(&l3_ratio), "L3 ratio = {l3_ratio}");
}

#[test]
fn edac_severity_accounting_is_consistent() {
    // Total EDAC records = Σ per-level counts; UEs are a small minority
    // (Fig. 6: ~4% of L3 events at nominal).
    let report = run_session(OperatingPoint::nominal(), 400.0, 5);
    let per_level_total: u64 = report.edac_per_level.values().sum();
    assert_eq!(per_level_total, report.memory_upsets);
    let ue: u64 = report
        .edac_per_level
        .iter()
        .filter(|((_, sev), _)| *sev == EdacSeverity::Uncorrected)
        .map(|(_, c)| *c)
        .sum();
    let share = ue as f64 / report.memory_upsets as f64;
    assert!(share < 0.10, "UE share = {share}");
    assert!(ue > 0, "a 6.7-hour session should see some L3 MBUs");
}

#[test]
fn crash_recovery_consumes_wall_clock() {
    // Sessions with crashes must book more wall time than pure benchmark
    // execution — the dead time the Control-PC model charges.
    let report = run_session(OperatingPoint::nominal(), 300.0, 6);
    let execution: SimDuration = report
        .per_benchmark
        .values()
        .map(|s| s.execution_time)
        .sum();
    let crashes = report.failure_count(serscale_core::classify::FailureClass::AppCrash)
        + report.failure_count(serscale_core::classify::FailureClass::SysCrash);
    if crashes > 0 {
        assert!(
            report.duration > execution,
            "wall {} must exceed execution {}",
            report.duration,
            execution
        );
    }
}

#[test]
fn per_benchmark_detection_ordering_survives_the_full_stack() {
    // Fig. 5 @ 980 mV: LU observes the most upsets per minute, CG the
    // fewest. A long session separates the calibrated factors cleanly.
    let report = run_session(OperatingPoint::nominal(), 1600.0, 7);
    let rate = |b: serscale_workload::Benchmark| report.per_benchmark[&b].upsets_per_minute();
    use serscale_workload::Benchmark::*;
    assert!(rate(Lu) > rate(Cg), "LU {} !> CG {}", rate(Lu), rate(Cg));
    assert!(rate(Ft) > rate(Cg));
}
