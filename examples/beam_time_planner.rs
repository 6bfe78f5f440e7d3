//! Beam-time planning: how many hours at the facility does a target
//! precision cost?
//!
//! Accelerated beam time is the scarcest resource in this methodology —
//! the paper got three days at TRIUMF (one via the RADNEXT programme) and
//! its session 4 simply ran out. Before requesting hours, a team pilots
//! the setup and extrapolates: this example runs a short simulated pilot
//! at each operating point, measures the event rates, and inverts the
//! Poisson 95 % interval to answer "how long until each rate is known to
//! ±X %?".
//!
//! ```text
//! cargo run --release -p serscale-bench --example beam_time_planner
//! ```

use serscale_core::campaign::CampaignRunOptions;
use serscale_core::classify::FailureClass;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, TestSession};
use serscale_core::trace::NoopObserver;
use serscale_soc::platform::OperatingPoint;
use serscale_stats::ci::poisson_relative_uncertainty;
use serscale_stats::SimRng;
use serscale_types::{Flux, SimDuration};

/// The precision targets to price.
const TARGETS: [f64; 3] = [0.30, 0.20, 0.10];

/// Smallest event count whose Poisson 95 % interval is within ±target.
fn events_needed(target: f64) -> u64 {
    let mut n = 1u64;
    while poisson_relative_uncertainty(n) > target {
        n += 1;
    }
    n
}

fn main() {
    let flux = Flux::per_cm2_s(1.5e6);
    println!("pilot: 90 simulated beam minutes per operating point\n");
    println!(
        "{:<16} {:>10} {:>10} | beam hours to ±30% / ±20% / ±10% (events needed: {} / {} / {})",
        "point",
        "upsets/min",
        "events/h",
        events_needed(TARGETS[0]),
        events_needed(TARGETS[1]),
        events_needed(TARGETS[2]),
    );

    for point in OperatingPoint::CAMPAIGN {
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut pilot = TestSession::new(
            dut,
            flux,
            SessionLimits::time_boxed(SimDuration::from_minutes(90.0)),
        );
        let report = pilot
            .run(
                &mut SimRng::seed_from(31_415),
                0,
                &mut CampaignRunOptions::with_jobs(1),
                &mut NoopObserver,
            )
            .expect("no cancel token");
        let event_rate_per_hour = report.error_events() as f64 / report.duration.as_hours();
        let costs: Vec<String> = TARGETS
            .iter()
            .map(|&t| {
                if event_rate_per_hour > 0.0 {
                    format!("{:.0}", events_needed(t) as f64 / event_rate_per_hour)
                } else {
                    "∞".to_owned()
                }
            })
            .collect();
        println!(
            "{:<16} {:>10.2} {:>10.1} | {}",
            point.label(),
            report.upset_rate().per_minute(),
            event_rate_per_hour,
            costs.join(" / ")
        );

        // The per-class pain point: SDCs at nominal are the rarest class.
        let sdc_per_hour =
            report.failure_count(FailureClass::Sdc) as f64 / report.duration.as_hours();
        if sdc_per_hour > 0.0 {
            println!(
                "{:<16} {:>10} {:>10.1} |   (SDC-only ±20%: {:.0} h)",
                "",
                "",
                sdc_per_hour,
                events_needed(0.20) as f64 / sdc_per_hour
            );
        }
    }

    println!(
        "\nreading: the paper's 27-hour sessions bought ±20% on total events at \
         nominal; the 920 mV session needed only ~5 h for the same precision \
         because its (SDC-dominated) event rate is ~6x higher. Pricing ±10% on \
         *nominal-voltage SDCs alone* is what blows the beam budget — exactly \
         why Fig. 11's nominal SDC bar carries the widest error bar."
    );
}
