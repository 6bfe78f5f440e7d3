//! The voltage advisor: everything the paper implies an operator should
//! do, in one pass.
//!
//! 1. Sweep the full 5 mV regulator grid from nominal to Vmin and chart
//!    power vs upset rate vs predicted SDC FIT (a fine-grained Figure
//!    9/10 the beam campaign could only sample at four points).
//! 2. Measure per-benchmark AVFs by fault injection (Design implication
//!    #3) and fold them into the FIT prediction.
//! 3. Price checkpoint/restart recovery into the energy bill (the
//!    introduction's open question) and recommend an operating point
//!    (Design implication #2).
//!
//! ```text
//! cargo run --release -p serscale-bench --example voltage_advisor
//! ```

use serscale_core::avf::FaultInjector;
use serscale_core::campaign::{Campaign, CampaignConfig};
use serscale_core::checkpoint::{compare_to_nominal, ledger, CheckpointScheme};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::explore::{recommend, sweep_voltage};
use serscale_core::fit::total_fit;
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PowerModel;
use serscale_stats::SimRng;
use serscale_types::{Flux, Millivolts};

fn main() {
    let power_model = PowerModel::xgene2();
    let nominal = OperatingPoint::nominal();
    let template = DeviceUnderTest::xgene2(nominal, DeviceUnderTest::paper_vmin(nominal.frequency));

    // --- 1. the fine-grained sweep --------------------------------------
    println!("== voltage sweep (2.4 GHz, 5 mV grid) ==");
    println!("  PMD mV   power      upsets/min   predicted SDC FIT");
    let sweep = sweep_voltage(
        Millivolts::new(980),
        Millivolts::new(920),
        &template,
        &power_model,
        Flux::per_cm2_s(1.5e6),
    );
    for p in &sweep {
        println!(
            "   {:>4}   {:>6.2} W   {:>7.3}      {:>8.2}",
            p.pmd.get(),
            p.power.get(),
            p.upsets_per_minute,
            p.sdc_fit.get()
        );
    }
    let pick = recommend(&sweep, 3.0).expect("baseline always admissible");
    println!(
        "  advisor (≤3x nominal SDC): {} at {:.2} W — {} mV above Vmin\n",
        pick.pmd,
        pick.power.get(),
        pick.pmd - Millivolts::new(920)
    );

    // --- 2. measured AVFs -------------------------------------------------
    println!("== per-benchmark AVF by fault injection (120 injections each) ==");
    let mut rng = SimRng::seed_from(99);
    let avfs = FaultInjector::new(120).estimate_suite(&mut rng);
    for est in &avfs {
        println!(
            "  {:<3} AVF {:.2}  (95% CI [{:.2}, {:.2}], {}/{} corrupted)",
            est.benchmark.name(),
            est.avf(),
            est.lower,
            est.upper,
            est.corruptions,
            est.injections
        );
    }
    println!();

    // --- 3. recovery economics -------------------------------------------
    println!("== checkpoint/restart economics (harsh environment: 1e6 x NYC) ==");
    println!("   running a short beam campaign to measure per-point FIT…");
    let mut config = CampaignConfig::paper_scaled(0.2);
    config.seed = 4242;
    let report = Campaign::new(config).run_parallel(1);
    let scheme = CheckpointScheme::typical();
    let scale = 1.0e6; // avionics/space-adjacent flux, where recovery bites
    let ledgers: Vec<_> = report
        .sessions
        .iter()
        .map(|s| {
            let fit = serscale_types::Fit::new(total_fit(s).point.get() * scale);
            ledger(s.operating_point, fit, &scheme, &power_model)
        })
        .collect();
    println!("   point              MTBF        ckpt-interval  inflation  energy/work");
    for l in &ledgers {
        println!(
            "   {:<16} {:>9.1} h   {:>9.1} min   {:>6.3}x   {:>8.1}",
            l.point.label(),
            l.mtbf.as_hours(),
            l.checkpoint_interval.as_minutes(),
            l.inflation,
            l.energy_per_work
        );
    }
    for (point, ratio) in compare_to_nominal(&ledgers) {
        let verdict = if ratio < 1.0 {
            "pays off"
        } else {
            "does NOT pay off"
        };
        println!(
            "   {:<16} net energy ratio {:.3} → undervolting {}",
            point.label(),
            ratio,
            verdict
        );
    }
    println!(
        "\n(In the benign NYC ground-level environment the inflation is \
         negligible at every point, so the power savings win outright — \
         the SDC risk, not the energy bill, is what prices the last 10 mV.)"
    );
}
