//! Property: observer callbacks arrive in nondecreasing simulated-time
//! order, from both the batch engine (any worker count) and the reference
//! executor — and the two engines deliver the *same* callback stream.
//!
//! This is the ordering contract telemetry consumers lean on: a
//! downstream JSONL reader may assume `t_s` never goes backwards, and the
//! trial-wall-time cadence trick (consecutive run starts differ by
//! exactly one trial) only works if runs arrive in session order.

use proptest::prelude::*;

use serscale_core::campaign::CampaignRunOptions;
use serscale_core::classify::RunVerdict;
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, StopReason, TestSession};
use serscale_core::trace::{SessionObserver, WaveStats};
use serscale_soc::edac::EdacRecord;
use serscale_soc::platform::OperatingPoint;
use serscale_stats::SimRng;
use serscale_types::{Flux, SimDuration, SimInstant};
use serscale_workload::Benchmark;

/// Records every callback as a `(kind, sim_seconds)` pair, in arrival
/// order. Wave callbacks carry host time, not sim time, so they are
/// counted but not stamped.
#[derive(Default)]
struct StampRecorder {
    stamps: Vec<(&'static str, f64)>,
    waves: usize,
}

impl SessionObserver for StampRecorder {
    fn on_session_start(&mut self, at: SimInstant, _point: OperatingPoint) {
        self.stamps.push(("session_start", at.as_secs()));
    }
    fn on_run(&mut self, start: SimInstant, _benchmark: Benchmark, _verdict: RunVerdict) {
        self.stamps.push(("run", start.as_secs()));
    }
    fn on_edac(&mut self, record: EdacRecord) {
        self.stamps.push(("edac", record.time.as_secs()));
    }
    fn on_recovery(&mut self, start: SimInstant, _duration: SimDuration) {
        self.stamps.push(("recovery", start.as_secs()));
    }
    fn on_session_end(&mut self, at: SimInstant, _reason: StopReason) {
        self.stamps.push(("session_end", at.as_secs()));
    }
    fn on_wave(&mut self, _stats: WaveStats) {
        self.waves += 1;
    }
}

fn session(point: OperatingPoint, minutes: f64) -> TestSession {
    let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
    TestSession::new(
        dut,
        Flux::per_cm2_s(1.5e6),
        SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
    )
}

fn assert_well_ordered(stamps: &[(&'static str, f64)]) {
    assert!(stamps.len() >= 2, "at least start + end");
    assert_eq!(stamps.first().unwrap(), &("session_start", 0.0));
    assert_eq!(stamps.last().unwrap().0, "session_end");
    for window in stamps.windows(2) {
        assert!(
            window[0].1 <= window[1].1,
            "timestamp went backwards: {:?} then {:?}",
            window[0],
            window[1]
        );
    }
}

proptest! {
    /// Both engines deliver nondecreasing timestamps, and identical
    /// streams to each other, for arbitrary seeds, durations, operating
    /// points and worker counts.
    #[test]
    fn callbacks_arrive_in_nondecreasing_sim_time(
        seed in 0u64..200,
        minutes in 2.0f64..8.0,
        jobs in prop::sample::select(vec![1usize, 2, 8]),
        point_idx in prop::sample::select(vec![0usize, 1, 2, 3]),
    ) {
        let point = OperatingPoint::CAMPAIGN[point_idx];

        let mut waved = StampRecorder::default();
        session(point, minutes)
            .run(
                &mut SimRng::seed_from(seed),
                0,
                &mut CampaignRunOptions::with_jobs(jobs),
                &mut waved,
            )
            .expect("no cancel token");
        assert_well_ordered(&waved.stamps);
        prop_assert!(waved.waves >= 1, "the wave engine reports its waves");

        let mut reference = StampRecorder::default();
        session(point, minutes).run_reference(
            &mut SimRng::seed_from(seed),
            &mut reference,
        );
        assert_well_ordered(&reference.stamps);
        prop_assert_eq!(
            reference.waves, 0,
            "the reference executor has no waves to report"
        );

        // The two engines agree event for event, timestamp for timestamp.
        prop_assert_eq!(&waved.stamps, &reference.stamps);
    }
}
