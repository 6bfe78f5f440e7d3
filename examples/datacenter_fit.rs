//! Datacenter what-if: the paper's Design implication #2, quantified.
//!
//! A fleet operator considers undervolting 10,000 X-Gene-2-class servers at
//! NYC sea level. For each candidate operating point this example runs a
//! (scaled) beam campaign, extrapolates the per-node FIT, and prints the
//! fleet-level failure and energy ledger — showing why "10 mV above Vmin"
//! (930 mV) is the sweet spot the paper recommends, while Vmin itself buys
//! 2% more power for a ~6× total-failure-rate increase dominated by SDCs.
//!
//! ```text
//! cargo run --release -p serscale-bench --example datacenter_fit
//! ```

use serscale_core::campaign::{Campaign, CampaignConfig};
use serscale_core::classify::FailureClass;
use serscale_core::fit::{class_fit, total_fit};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PowerModel;

const FLEET: f64 = 10_000.0;
const HOURS_PER_YEAR: f64 = 24.0 * 365.25;

fn main() {
    println!("simulating beam campaign (4 sessions, scaled)…");
    let mut config = CampaignConfig::paper_scaled(0.25);
    config.seed = 7;
    let report = Campaign::new(config).run_parallel(1);
    let power_model = PowerModel::xgene2();
    let baseline_power = power_model.total_power(OperatingPoint::nominal());

    println!("\nfleet: {FLEET:.0} servers, NYC sea level, {HOURS_PER_YEAR:.0} h/year each\n");
    println!(
        "{:<18} {:>9} {:>13} {:>13} {:>13} {:>14}",
        "operating point", "node W", "fleet MWh/yr", "fail/yr", "SDC/yr", "energy saved"
    );

    for session in &report.sessions {
        let point = session.operating_point;
        let node_power = power_model.total_power(point);
        let fleet_mwh = node_power.get() * FLEET * HOURS_PER_YEAR / 1.0e6;

        // FIT = failures per 1e9 device-hours; fleet failures per year:
        let device_hours_per_year = FLEET * HOURS_PER_YEAR;
        let failures_per_year = total_fit(session).point.get() * device_hours_per_year / 1.0e9;
        let sdc_per_year =
            class_fit(session, FailureClass::Sdc).point.get() * device_hours_per_year / 1.0e9;
        let saved_mwh = (baseline_power.get() - node_power.get()) * FLEET * HOURS_PER_YEAR / 1.0e6;

        println!(
            "{:<18} {:>9.2} {:>13.0} {:>13.2} {:>13.2} {:>11.0} MWh",
            point.label(),
            node_power.get(),
            fleet_mwh,
            failures_per_year,
            sdc_per_year,
            saved_mwh,
        );
    }

    let nominal = report.baseline().expect("nominal session");
    let safe = report
        .session_at(OperatingPoint::safe())
        .expect("930 mV session");
    let vmin = report
        .session_at(OperatingPoint::vmin_2400())
        .expect("920 mV session");

    let safe_fail_ratio = total_fit(safe).point.get() / total_fit(nominal).point.get();
    let vmin_fail_ratio = total_fit(vmin).point.get() / total_fit(nominal).point.get();

    println!(
        "\nthe last 10 mV: 930 mV → 920 mV adds ~2% more power savings but \
         multiplies the failure rate {:.1}× → {:.1}× over nominal.",
        safe_fail_ratio, vmin_fail_ratio
    );
    println!(
        "design implication #2 (paper): operate slightly ABOVE the lowest \
         safe Vmin — the guardband is real, but its last step is priced in \
         silent data corruptions."
    );
}
