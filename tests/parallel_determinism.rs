//! The determinism contract of the parallel campaign engine: the same
//! seed yields the same bits at any worker count, and the per-trial RNG
//! stream derivation that guarantees it never collides.

use proptest::prelude::*;

use serscale_core::campaign::{Campaign, CampaignConfig, CampaignRunOptions};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::session::{SessionLimits, SessionReport, TestSession};
use serscale_core::trace::{Logbook, NoopObserver, SessionObserver};
use serscale_soc::platform::OperatingPoint;
use serscale_stats::SimRng;
use serscale_types::{Flux, SimDuration};

/// Runs `session` off `rng` on `jobs` workers, reporting to `observer`.
fn run(
    session: &mut TestSession,
    rng: &mut SimRng,
    jobs: usize,
    observer: &mut dyn SessionObserver,
) -> SessionReport {
    let options = &mut CampaignRunOptions::with_jobs(jobs);
    session
        .run(rng, 0, options, observer)
        .expect("no cancel token")
}

fn scaled_campaign(seed: u64) -> CampaignConfig {
    let mut config = CampaignConfig::paper_scaled(0.01);
    config.seed = seed;
    config
}

#[test]
fn campaign_is_bit_identical_across_worker_counts() {
    let reference = Campaign::new(scaled_campaign(0xD00D)).run_parallel(1);
    for jobs in [1, 2, 4, 8] {
        let parallel = Campaign::new(scaled_campaign(0xD00D)).run_parallel(jobs);
        assert_eq!(parallel, reference, "jobs = {jobs}");
    }
}

#[test]
fn session_parallel_matches_sequential_for_every_stop_rule() {
    let session = |limits: SessionLimits, jobs: usize| {
        let point = OperatingPoint::vmin_2400();
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut s = TestSession::new(dut, Flux::per_cm2_s(1.5e6), limits);
        run(
            &mut s,
            &mut SimRng::seed_from(0xF00),
            jobs,
            &mut NoopObserver,
        )
    };
    let rules = [
        SessionLimits::time_boxed(SimDuration::from_minutes(30.0)),
        SessionLimits {
            max_error_events: 25,
            max_fluence: serscale_types::Fluence::per_cm2(1e30),
            max_duration: None,
        },
        SessionLimits {
            max_error_events: u64::MAX,
            max_fluence: serscale_types::Fluence::per_cm2(2.0e9),
            max_duration: None,
        },
    ];
    for limits in rules {
        let reference = session(limits, 1);
        for jobs in [2, 3, 8] {
            let got = session(limits, jobs);
            assert_eq!(got, reference, "jobs = {jobs}, limits = {limits:?}");
            assert_eq!(got.stop_reason, reference.stop_reason);
        }
    }
}

#[test]
fn observer_trace_is_identical_across_worker_counts() {
    let trace = |jobs: usize| {
        let point = OperatingPoint::safe();
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let mut s = TestSession::new(
            dut,
            Flux::per_cm2_s(1.5e6),
            SessionLimits::time_boxed(SimDuration::from_minutes(25.0)),
        );
        let mut logbook = Logbook::new();
        let report = run(&mut s, &mut SimRng::seed_from(0xCAFE), jobs, &mut logbook);
        (report, logbook)
    };
    let (ref_report, ref_logbook) = trace(1);
    for jobs in [2, 8] {
        let (report, logbook) = trace(jobs);
        assert_eq!(report, ref_report, "jobs = {jobs}");
        assert_eq!(
            logbook, ref_logbook,
            "jobs = {jobs}: traces must match event-for-event"
        );
    }
}

#[test]
fn worker_count_does_not_leak_into_successive_sessions() {
    // Two sessions run off one generator must stay distinct AND be
    // reproducible: the engine draws exactly one seed from the caller's
    // rng regardless of jobs.
    let pair = |jobs: usize| {
        let point = OperatingPoint::nominal();
        let dut = DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency));
        let limits = SessionLimits::time_boxed(SimDuration::from_minutes(10.0));
        let mut rng = SimRng::seed_from(42);
        let mut first = TestSession::new(dut.clone(), Flux::per_cm2_s(1.5e6), limits);
        let mut second = TestSession::new(dut, Flux::per_cm2_s(1.5e6), limits);
        (
            run(&mut first, &mut rng, jobs, &mut NoopObserver),
            run(&mut second, &mut rng, jobs, &mut NoopObserver),
        )
    };
    let (a1, a2) = pair(1);
    assert_ne!(a1, a2, "sessions sharing a generator must differ");
    let (b1, b2) = pair(4);
    assert_eq!(a1, b1);
    assert_eq!(a2, b2);
}

proptest! {
    /// Counter-based stream derivation never collides across (shard,
    /// trial) pairs: any two distinct coordinates in a campaign-sized grid
    /// get generators whose leading draws differ.
    #[test]
    fn trial_streams_never_collide(
        seed in any::<u64>(),
        shards in 1u64..16,
        trials in 1u64..512,
    ) {
        let root = SimRng::seed_from(seed);
        let mut seen = std::collections::HashMap::new();
        for shard in 0..shards {
            for trial in 0..trials {
                let fingerprint = root.stream("trial", &[shard, trial]).take_u64s(2);
                if let Some(previous) = seen.insert(fingerprint, (shard, trial)) {
                    prop_assert!(
                        false,
                        "stream collision: {previous:?} vs ({shard}, {trial})"
                    );
                }
            }
        }
    }

    /// Derivation is position-independent: draining the parent any number
    /// of draws never changes a trial's stream.
    #[test]
    fn trial_streams_ignore_parent_position(
        seed in any::<u64>(),
        drains in 0usize..64,
        trial in 0u64..10_000,
    ) {
        let fresh = SimRng::seed_from(seed).stream("trial", &[trial]).take_u64s(2);
        let mut drained = SimRng::seed_from(seed);
        for _ in 0..drains {
            drained.uniform();
        }
        prop_assert_eq!(fresh, drained.stream("trial", &[trial]).take_u64s(2));
    }
}
