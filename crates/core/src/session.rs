//! A beam test session: one voltage setting, benchmarks cycling under
//! beam until the stopping rules fire — one column of Table 2.
//!
//! ## Execution model
//!
//! A session is a sequence of *trials*: trial `t` runs benchmark
//! `Benchmark::ALL[t % 6]` on its own RNG stream
//! (`session_rng.stream("trial", &[t])`), so every trial's physics is a
//! pure function of the session seed and the trial index — never of which
//! thread ran it or in what order.
//!
//! The driver runs trials in batches, each in two phases (see
//! [`crate::runner`]):
//!
//! 1. **Physics, in trial order, on the calling thread.** Arrivals,
//!    strikes, ECC, the crash decision and the corruption draw, well under
//!    a microsecond per trial. A batch ends at the first trial where a
//!    stop rule could fire, or after 4,096 trials. The verdict never
//!    moves the clock or the fluence, so the beam-time and fluence rules
//!    are known exactly; the event rule counts every pending adjudication
//!    as a possible event, so it can only end a batch early, never late.
//! 2. **Adjudication, on the [`crate::parallel`] pool.** Each pending
//!    corrupted-kernel run is one task, dispatched longest expected first
//!    (MG, LU, FT, IS, EP, CG); fewer than two run inline.
//!
//! The single-threaded merge then *absorbs* the batch strictly in trial
//! order: the simulated clock, the fluence ledger, the stopping rules, the
//! journal and every observer callback are applied exactly as the
//! sequential loop would, and it alone decides the stop. A failed attempt
//! is retried on its own attempt stream (see [`RetryPolicy`]). A retried
//! trial's new physics can bring the stop inside the batch, and outcomes
//! past the stop are discarded; it can also resolve events the batch
//! counted as pending, and the next batch goes on from there. The report
//! is therefore bit-identical for any `jobs`.
//!
//! [`TestSession::run`] is the one way to execute a session: worker
//! count, retry policy, journal, recovered prefix and cancellation all
//! come from one [`CampaignRunOptions`]. [`TestSession::run_reference`]
//! is its naive one-trial-at-a-time twin, kept as the differential oracle.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use serscale_beam::FluenceLedger;
use serscale_soc::edac::{EdacSeverity, LevelCounts};
use serscale_soc::platform::OperatingPoint;
use serscale_stats::{RateEstimate, SimRng};
use serscale_types::{Fluence, Flux, SimDuration, SimInstant, NYC_SEA_LEVEL_FLUX};
use serscale_workload::Benchmark;

use crate::campaign::CampaignRunOptions;
use crate::classify::{FailureClass, RunVerdict};
use crate::dut::DeviceUnderTest;
use crate::journal::Record;
use crate::parallel::{
    backoff_delay, call_caught, call_with_deadline, par_map_with_profile, AttemptFailure,
    PoolProfile,
};
use crate::runner::{Adjudication, BenchmarkRunner, RunOutcome};
use crate::scheduler::Cancelled;

/// When a session ends.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionLimits {
    /// Stop once this many error events (SDCs + crashes) accumulated —
    /// the "100 events" significance rule of §3.5.
    pub max_error_events: u64,
    /// Stop once this fluence is reached (the 10¹¹ n/cm² ESCC rule).
    pub max_fluence: Fluence,
    /// Stop after this much beam time (reserved-beam-window exhaustion,
    /// the fate of the paper's session 4).
    pub max_duration: Option<SimDuration>,
}

impl SessionLimits {
    /// The textbook §3.5 rules: 100 events or 10¹¹ n/cm², no time cap.
    pub fn standard() -> Self {
        SessionLimits {
            max_error_events: 100,
            max_fluence: Fluence::SIGNIFICANCE_THRESHOLD,
            max_duration: None,
        }
    }

    /// A pure time-boxed session: reproduce a realized exposure (how the
    /// paper's Table 2 durations are replayed — the operators chose to run
    /// sessions 1 and 2 well past the fluence rule).
    pub fn time_boxed(duration: SimDuration) -> Self {
        SessionLimits {
            max_error_events: u64::MAX,
            max_fluence: Fluence::per_cm2(f64::MAX / 1e10),
            max_duration: Some(duration),
        }
    }
}

impl SessionLimits {
    /// The rule that fires at these totals, in the canonical order.
    fn reached(&self, events: u64, fluence: Fluence, duration: SimDuration) -> Option<StopReason> {
        [
            (events >= self.max_error_events, StopReason::ErrorEvents),
            (fluence >= self.max_fluence, StopReason::Fluence),
            (
                self.max_duration.is_some_and(|max| duration >= max),
                StopReason::BeamTime,
            ),
        ]
        .into_iter()
        .find_map(|(fired, reason)| fired.then_some(reason))
    }
}

impl Default for SessionLimits {
    fn default() -> Self {
        Self::standard()
    }
}

/// How the engine handles a trial whose attempt panics or times out:
/// bounded retries on counter-derived streams, then quarantine.
///
/// Attempt 0 runs on the canonical per-trial stream — with no failures
/// the robust path is bit-identical to the plain one. Attempt `a ≥ 1`
/// re-runs on `stream("trial", &[trial, a])`, a pure function of the
/// session seed, so retried physics is deterministic and independent of
/// scheduling. Backoff between attempts is *host* time (exponential,
/// capped) and never touches the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retry attempts after the first failure before quarantining.
    pub max_retries: u32,
    /// Base host-time backoff before a retry (doubled per attempt,
    /// capped at one second).
    pub backoff: std::time::Duration,
    /// Host-time budget per attempt; a trial exceeding it is treated as
    /// failed. `None` (the default) disables the watchdog — timeouts
    /// depend on host scheduling, so enabling one trades determinism of
    /// the *retry counters* (never of a completed run's physics) for
    /// hang protection.
    pub timeout: Option<std::time::Duration>,
}

impl RetryPolicy {
    /// The default policy: 2 retries, 10 ms base backoff, no watchdog.
    pub fn standard() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff: std::time::Duration::from_millis(10),
            timeout: None,
        }
    }

    /// The standard policy with a per-attempt watchdog.
    pub fn with_timeout(timeout: std::time::Duration) -> Self {
        RetryPolicy {
            timeout: Some(timeout),
            ..Self::standard()
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// One executed trial as the canonical merge absorbs it: the outcome
/// plus the robustness bookkeeping the journal and the report carry.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialExecution {
    /// Trial index within the session.
    pub trial: u64,
    /// What the (final) attempt produced — or the synthetic placeholder
    /// if the trial was quarantined.
    pub outcome: RunOutcome,
    /// Failed attempts that preceded the final one.
    pub retries: u32,
    /// Whether every attempt failed; a quarantined outcome advances the
    /// clock and the fluence ledger but contributes no runs or events.
    pub quarantined: bool,
}

/// Why the session stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StopReason {
    /// Enough error events accumulated.
    ErrorEvents,
    /// The fluence target was reached.
    Fluence,
    /// The reserved beam time ran out.
    BeamTime,
}

/// Per-benchmark telemetry within a session (the data behind Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct BenchmarkStats {
    /// Completed runs.
    pub runs: u64,
    /// EDAC records observed while this benchmark ran.
    pub memory_upsets: u64,
    /// Beam-on execution time attributed to this benchmark (excluding
    /// crash recovery).
    pub execution_time: SimDuration,
    /// SDCs attributed to this benchmark.
    pub sdcs: u64,
}

impl BenchmarkStats {
    /// Upsets per minute of execution — a Figure 5 bar.
    pub fn upsets_per_minute(&self) -> f64 {
        if self.execution_time.is_zero() {
            0.0
        } else {
            self.memory_upsets as f64 / self.execution_time.as_minutes()
        }
    }
}

/// The full outcome of one session — one Table 2 column plus the data
/// behind Figures 5, 6/7 and 8 at this voltage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionReport {
    /// The tested operating point.
    pub operating_point: OperatingPoint,
    /// Why the session ended.
    pub stop_reason: StopReason,
    /// Total beam-on time (runs + crash recoveries).
    pub duration: SimDuration,
    /// Accumulated fluence.
    pub fluence: Fluence,
    /// Completed benchmark runs.
    pub runs: u64,
    /// Error events per failure class.
    pub failures: BTreeMap<FailureClass, u64>,
    /// SDCs that coincided with a corrected-error notification (Fig. 12's
    /// rare deceptive case).
    pub sdc_with_notification: u64,
    /// Total EDAC records (Table 2's "memory upsets").
    pub memory_upsets: u64,
    /// EDAC records per (cache level, severity) — Figures 6/7.
    pub edac_per_level: LevelCounts,
    /// Per-benchmark stats — Figure 5.
    pub per_benchmark: BTreeMap<Benchmark, BenchmarkStats>,
    /// Retry attempts consumed by panicking or timed-out trials (zero in
    /// a healthy run). See [`RetryPolicy`].
    pub trial_retries: u64,
    /// Trial indices quarantined after exhausting every retry: their
    /// beam time is on the clock and the fluence ledger, but they
    /// contributed no runs, upsets or error events.
    pub quarantined_trials: Vec<u64>,
}

impl SessionReport {
    /// Total error events (SDCs + crashes) — Table 2 row 6.
    pub fn error_events(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Error events per minute — Table 2 row 7.
    pub fn error_rate(&self) -> RateEstimate {
        RateEstimate::from_count(self.error_events(), self.duration)
    }

    /// Memory upsets per minute — Table 2 row 9.
    pub fn upset_rate(&self) -> RateEstimate {
        RateEstimate::from_count(self.memory_upsets, self.duration)
    }

    /// Count for one failure class.
    pub fn failure_count(&self, class: FailureClass) -> u64 {
        self.failures.get(&class).copied().unwrap_or(0)
    }

    /// The share of each failure class among all error events — one panel
    /// of Figure 8. Returns zeros when no events occurred.
    pub fn failure_shares(&self) -> BTreeMap<FailureClass, f64> {
        let total = self.error_events() as f64;
        FailureClass::ALL
            .into_iter()
            .map(|c| {
                let share = if total > 0.0 {
                    self.failure_count(c) as f64 / total
                } else {
                    0.0
                };
                (c, share)
            })
            .collect()
    }

    /// Years of natural NYC sea-level exposure equivalent to this
    /// session's fluence — Table 2 row 5.
    pub fn nyc_equivalent_years(&self) -> f64 {
        self.fluence
            .natural_equivalent(NYC_SEA_LEVEL_FLUX)
            .as_years()
    }

    /// The memory SER in FIT per Mbit at NYC — Table 2 row 10.
    ///
    /// # Panics
    ///
    /// Panics if `sram_mbit` is not positive.
    pub fn memory_ser_fit_per_mbit(&self, sram_mbit: f64) -> f64 {
        assert!(sram_mbit > 0.0, "memory size must be positive");
        let dcs =
            serscale_types::CrossSection::from_events(self.memory_upsets as f64, self.fluence);
        dcs.fit_at(NYC_SEA_LEVEL_FLUX).per_mbit(sram_mbit).get()
    }

    /// Corrected/uncorrected EDAC rate per minute for one cache level —
    /// a Figure 6/7 bar.
    pub fn level_rate_per_minute(
        &self,
        level: serscale_types::CacheLevel,
        severity: EdacSeverity,
    ) -> f64 {
        let count = self
            .edac_per_level
            .get(&(level, severity))
            .copied()
            .unwrap_or(0);
        count as f64 / self.duration.as_minutes()
    }
}

/// Drives one session to completion.
#[derive(Debug)]
pub struct TestSession {
    runner: BenchmarkRunner,
    limits: SessionLimits,
    /// `(trial, attempt)` whose adjudication panics, to exercise retries.
    #[cfg(test)]
    poison: Option<(u64, u32)>,
}

impl TestSession {
    /// Creates a session for a DUT under beam flux with the given limits.
    ///
    /// # Panics
    ///
    /// Panics when the beam is off (`flux == 0`) and no beam-time limit is
    /// set: neither the event rule nor the fluence rule could ever fire,
    /// so the session would spin forever.
    pub fn new(dut: DeviceUnderTest, flux: Flux, limits: SessionLimits) -> Self {
        assert!(
            flux.as_per_cm2_s() > 0.0 || limits.max_duration.is_some(),
            "a beam-off session needs a max_duration to terminate"
        );
        TestSession {
            runner: BenchmarkRunner::new(dut, flux),
            limits,
            #[cfg(test)]
            poison: None,
        }
    }

    /// Runs the session to a stopping rule on `options.jobs` workers,
    /// reporting every event through `observer` — the one entry point of
    /// the batch engine (see the module docs for its two phases).
    ///
    /// The merge that drives the observer is single-threaded and in trial
    /// order, so observers need no synchronization and see the same trace
    /// at any `jobs`; observation never perturbs the simulation. Failing
    /// trials are retried or quarantined under `options.retry`; with a
    /// watchdog, phase 1 runs inline and is charged to the attempt's
    /// budget, and only the adjudication runs on a helper thread under the
    /// rest. Every absorbed trial is appended to `options.journal`, tagged
    /// with `session_index`, and the journal is fsync'd once per batch.
    /// Each batch is reported through
    /// [`on_wave`](crate::trace::SessionObserver::on_wave).
    ///
    /// When `options.recovered` holds a journaled prefix of this session,
    /// its trials are folded through the exact accumulator the live path
    /// uses (no physics re-run) and every RNG stream re-derives from the
    /// caller's generator, so an interrupted-and-resumed session produces
    /// a report and observer trace bit-identical to an uninterrupted one
    /// at any `jobs` count (batch boundaries restart on resume, but
    /// [`WaveStats`](crate::trace::WaveStats) is engine telemetry that
    /// trace observers ignore).
    ///
    /// When `options.cancel` fires, the run stops cleanly at the next
    /// batch boundary. Every trial absorbed before the boundary has been
    /// journaled and fsync'd, no `SessionEnd` record is written and no
    /// `on_session_end` callback fires, so the journal reads exactly like
    /// a crash at a record boundary and resumes bit-identically through
    /// [`crate::journal::start_or_resume`].
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token fired before a stopping rule.
    ///
    /// # Panics
    ///
    /// Panics if `options.jobs == 0`, if the journal cannot be synced to
    /// stable storage (crash safety would silently be lost), or if the
    /// recovered history is inconsistent with this session's
    /// configuration (wrong trial order, or a journaled stop reason the
    /// replay cannot reproduce).
    pub fn run(
        &mut self,
        rng: &mut SimRng,
        session_index: u64,
        options: &mut CampaignRunOptions<'_>,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> Result<SessionReport, Cancelled> {
        assert!(options.jobs > 0, "a session needs at least one worker");
        let recovered = options.recovered.and_then(|r| r.session(session_index));
        let flux = self.runner.flux();
        let point = self.runner.dut().operating_point();
        observer.on_session_start(SimInstant::EPOCH, point);
        // One draw keeps the caller's generator advancing (two back-to-back
        // sessions off one rng stay distinct); every trial stream derives
        // from this root alone, independent of scheduling.
        let session_rng = SimRng::seed_from(rng.next_seed());

        if recovered.is_none() {
            if let Some(journal) = options.journal.as_deref_mut() {
                journal.append(&Record::SessionStart {
                    session: session_index,
                    point,
                });
                journal.sync().expect("run journal sync failed");
            }
        }

        let mut acc = Accumulator::new(flux, self.limits);
        let mut next_trial = 0u64;
        let mut replayed_stop = None;

        // Fast-forward: fold the journaled trials through the same
        // accumulator and observer the live path drives. No physics
        // re-runs; the stream is exactly what the interrupted run saw.
        if let Some(recovered) = recovered {
            for execution in &recovered.trials {
                assert_eq!(execution.trial, next_trial, "journal trials out of order");
                let run_only = self.runner.run_duration(execution.outcome.benchmark);
                let reason = acc.absorb_execution(execution.clone(), run_only, observer);
                next_trial += 1;
                if let Some(reason) = reason {
                    assert_eq!(
                        next_trial,
                        recovered.trials.len() as u64,
                        "journal holds trials past the stopping rule"
                    );
                    if let Some(journaled) = recovered.ended {
                        assert_eq!(
                            journaled, reason,
                            "journaled stop reason disagrees with replay"
                        );
                    }
                    replayed_stop = Some(reason);
                    break;
                }
            }
            if replayed_stop.is_none() {
                assert_eq!(
                    recovered.ended, None,
                    "journal says the session ended but replay finds no stopping rule"
                );
            }
        }

        let stop_reason = match replayed_stop {
            Some(reason) => reason,
            None => loop {
                // Batch boundary: the only place a cancel can land. The
                // previous batch's trials are journaled and synced, so
                // bailing here leaves the journal resumable.
                if options.cancelled() {
                    return Err(Cancelled);
                }
                let batch_clock = Instant::now();
                let mut trials = Trials {
                    runner: &mut self.runner,
                    root: &session_rng,
                    policy: options.retry,
                    #[cfg(test)]
                    poison: self.poison,
                };
                let batch = trials.stage_batch(next_trial, &acc);
                let planned = batch.len();
                let (verdicts, pool) = adjudicate_batch(&batch, options.jobs);
                // Canonical merge: trial order, stop rules exact. A failed
                // adjudication retries its whole trial here, so trials past
                // the stop never pay for a retry. Absorbed trials are
                // journaled (buffered) and the journal is fsync'd once per
                // batch below.
                let (retries, quarantined) = (acc.trial_retries, acc.quarantined.len());
                let mut absorbed = 0usize;
                let mut stopped = None;
                for (staged, verdict) in batch.into_iter().zip(verdicts) {
                    let execution = match verdict {
                        Some(verdict) => trials.settle(staged, verdict),
                        None => staged.execution,
                    };
                    let run_only = trials.runner.run_duration(execution.outcome.benchmark);
                    absorbed += 1;
                    if let Some(journal) = options.journal.as_deref_mut() {
                        journal.append(&Record::Trial {
                            session: session_index,
                            execution: execution.clone(),
                        });
                    }
                    if let Some(reason) = acc.absorb_execution(execution, run_only, observer) {
                        stopped = Some(reason);
                        break;
                    }
                }
                if let Some(journal) = options.journal.as_deref_mut() {
                    journal.sync().expect("run journal sync failed");
                }
                // Engine telemetry only — the host clock has no business in
                // the simulation, and trace observers ignore this callback.
                observer.on_wave(crate::trace::WaveStats {
                    first_trial: next_trial,
                    planned,
                    absorbed,
                    host_nanos: u64::try_from(batch_clock.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    retries: acc.trial_retries - retries,
                    quarantined: (acc.quarantined.len() - quarantined) as u64,
                    pool,
                });
                if let Some(reason) = stopped {
                    break reason;
                }
                next_trial += planned as u64;
            },
        };

        if let Some(journal) = options.journal.as_deref_mut() {
            // A session the journal already closed needs no second end
            // record; everything else (fresh, or recovered mid-flight)
            // gets one now.
            if recovered.is_none_or(|r| r.ended.is_none()) {
                journal.append(&Record::SessionEnd {
                    session: session_index,
                    reason: stop_reason,
                });
            }
            journal.sync().expect("run journal sync failed");
        }

        observer.on_session_end(acc.clock, stop_reason);
        Ok(acc.into_report(point, stop_reason))
    }

    /// Runs the session through the *naive reference executor*: one trial
    /// at a time, both phases inline, absorbed immediately — the textbook
    /// transcription of the execution model in the module docs. Every
    /// event is reported through `observer`, exactly as the batch engine
    /// would report it.
    ///
    /// This path exists for differential verification (see the
    /// `serscale-verify` crate): the batch engine's projected batch ends,
    /// out-of-order adjudication and canonical merge must be
    /// observationally equivalent to this loop, bit for bit, at any `jobs`
    /// count. It is deliberately kept free of the throughput machinery at
    /// *both* layers: no batches or worker pool here ([`Self::run`]
    /// batches even at `jobs == 1`), and each trial's physics runs through
    /// [`BenchmarkRunner::run_once_reference`] — the per-event,
    /// envelope-rebuilt, codec-decoded twin of the batched hot path.
    pub fn run_reference(
        &mut self,
        rng: &mut SimRng,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> SessionReport {
        let flux = self.runner.flux();
        let point = self.runner.dut().operating_point();
        observer.on_session_start(SimInstant::EPOCH, point);
        // Identical seed derivation to the batch engine: one draw from the
        // caller's generator roots every trial stream.
        let session_rng = SimRng::seed_from(rng.next_seed());

        let mut acc = Accumulator::new(flux, self.limits);
        let mut trial = 0u64;
        let stop_reason = loop {
            // The canonical trial recipe, transcribed: benchmark t % 6 on
            // the counter-derived stream for t — but through the naive
            // per-event physics instead of the batched hot path.
            let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
            let mut trial_rng = session_rng.stream("trial", &[trial]);
            let outcome =
                self.runner
                    .run_once_reference(&mut trial_rng, benchmark, SimInstant::EPOCH);
            let execution = TrialExecution {
                trial,
                outcome,
                retries: 0,
                quarantined: false,
            };
            let run_only = self.runner.run_duration(execution.outcome.benchmark);
            if let Some(reason) = acc.absorb_execution(execution, run_only, observer) {
                break reason;
            }
            trial += 1;
        };

        observer.on_session_end(acc.clock, stop_reason);
        acc.into_report(point, stop_reason)
    }
}

/// The most trials one batch stages before its merge: it bounds the
/// outcomes held in memory and how long a cancel waits.
const MAX_BATCH: usize = 4096;

/// The benchmarks by expected adjudication cost, longest first. Phase 2
/// dispatches in this order so that no long kernel starts last.
const LONGEST_FIRST: [Benchmark; 6] = [
    Benchmark::Mg,
    Benchmark::Lu,
    Benchmark::Ft,
    Benchmark::Is,
    Benchmark::Ep,
    Benchmark::Cg,
];

/// One adjudication attempt's result.
type Verdict = Result<RunVerdict, AttemptFailure>;

/// One trial between the phases: its execution, final except for the
/// verdict of a pending adjudication.
struct Staged {
    execution: TrialExecution,
    pending: Option<Adjudication>,
    /// What phase 1 left of the attempt's host-time budget (`None`: no
    /// watchdog).
    budget: Option<Duration>,
}

/// What trial execution shares across a session: its runner, the root
/// of its trial streams and its [`RetryPolicy`]. Trial `t` runs benchmark
/// `ALL[t % 6]`, timestamped from the epoch (the merge re-bases
/// timestamps onto the session clock).
struct Trials<'a> {
    runner: &'a mut BenchmarkRunner,
    root: &'a SimRng,
    policy: RetryPolicy,
    /// `(trial, attempt)` whose adjudication panics, to exercise retries.
    #[cfg(test)]
    poison: Option<(u64, u32)>,
}

impl Trials<'_> {
    /// Phase 1 of trials `first..`, in trial order. The batch ends at the
    /// first trial where a stop rule could fire, counting each pending
    /// adjudication as an event, or after [`MAX_BATCH`] trials. Verdicts
    /// never move the clock or the fluence, so with no failed attempt the
    /// batch never runs past the stop.
    fn stage_batch(&mut self, first: u64, acc: &Accumulator) -> Vec<Staged> {
        let mut events = acc.error_events();
        let mut fluence = acc.ledger.total_fluence();
        let mut duration = acc.ledger.total_duration();
        let mut batch = Vec::new();
        for trial in first.. {
            let staged = self.stage(trial, 0);
            let outcome = &staged.execution.outcome;
            events +=
                u64::from(staged.pending.is_some() || outcome.verdict.failure_class().is_some());
            fluence += acc.flux * outcome.wall_time;
            duration += outcome.wall_time;
            batch.push(staged);
            if batch.len() == MAX_BATCH || acc.limits.reached(events, fluence, duration).is_some() {
                break;
            }
        }
        batch
    }

    /// Phase 1 of one trial from attempt `first_attempt` on, retrying
    /// failed attempts. Phase 1 runs inline and is charged to the attempt's
    /// budget; a zero budget fails without running anything.
    fn stage(&mut self, trial: u64, first_attempt: u32) -> Staged {
        let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
        for attempt in first_attempt..=self.policy.max_retries {
            let mut rng = if attempt == 0 {
                self.root.stream("trial", &[trial])
            } else {
                self.root.stream("trial", &[trial, u64::from(attempt)])
            };
            let started = self.policy.timeout.map(|limit| (limit, Instant::now()));
            let runner = &mut *self.runner;
            let result = match self.policy.timeout {
                Some(limit) if limit.is_zero() => Err(AttemptFailure::TimedOut),
                _ => call_caught(|| runner.simulate(&mut rng, benchmark, SimInstant::EPOCH)),
            };
            let budget = started.map(|(limit, at)| limit.saturating_sub(at.elapsed()));
            match result {
                Ok(physics) if budget != Some(Duration::ZERO) => {
                    #[cfg(test)]
                    let physics = self.poisoned(physics, trial, attempt);
                    return Staged {
                        execution: TrialExecution {
                            trial,
                            outcome: physics.outcome,
                            retries: attempt,
                            quarantined: false,
                        },
                        pending: physics.pending,
                        budget,
                    };
                }
                _ if attempt < self.policy.max_retries => {
                    std::thread::sleep(backoff_delay(self.policy.backoff, attempt));
                }
                _ => {}
            }
        }
        Staged {
            execution: self.quarantined(trial),
            pending: None,
            budget: None,
        }
    }

    /// Completes a staged trial with its adjudication's result. A failed
    /// adjudication retries the whole trial inline from the next attempt
    /// stream, until an attempt succeeds or the trial is quarantined.
    fn settle(&mut self, mut staged: Staged, mut verdict: Verdict) -> TrialExecution {
        loop {
            let attempt = staged.execution.retries;
            match verdict {
                Ok(verdict) => {
                    staged.execution.outcome.verdict = verdict;
                    return staged.execution;
                }
                Err(_) if attempt >= self.policy.max_retries => {
                    return self.quarantined(staged.execution.trial);
                }
                Err(_) => {
                    std::thread::sleep(backoff_delay(self.policy.backoff, attempt));
                    staged = self.stage(staged.execution.trial, attempt + 1);
                    match staged.pending {
                        Some(pending) => verdict = adjudicate(pending, staged.budget),
                        None => return staged.execution,
                    }
                }
            }
        }
    }

    /// The placeholder of a trial whose every attempt failed: a correct
    /// verdict, no events, the benchmark's nominal beam time.
    fn quarantined(&self, trial: u64) -> TrialExecution {
        let benchmark = Benchmark::ALL[(trial % Benchmark::ALL.len() as u64) as usize];
        TrialExecution {
            trial,
            outcome: RunOutcome {
                benchmark,
                verdict: RunVerdict::Correct,
                edac: Vec::new(),
                wall_time: self.runner.run_duration(benchmark),
                sram_strikes: 0,
            },
            retries: self.policy.max_retries,
            quarantined: true,
        }
    }

    #[cfg(test)]
    fn poisoned(
        &self,
        mut physics: crate::runner::TrialPhysics,
        trial: u64,
        attempt: u32,
    ) -> crate::runner::TrialPhysics {
        if let Some(pending) = &mut physics.pending {
            pending.poisoned = self.poison == Some((trial, attempt));
        }
        physics
    }
}

/// Phase 2 of a batch: every pending adjudication as one pool task,
/// longest expected first. Returns each trial's result in batch order
/// (`None` where nothing was pending) and the pool's profile.
fn adjudicate_batch(batch: &[Staged], jobs: usize) -> (Vec<Option<Verdict>>, PoolProfile) {
    let mut tasks: Vec<(usize, Adjudication, Option<Duration>)> = batch
        .iter()
        .enumerate()
        .filter_map(|(slot, staged)| staged.pending.map(|a| (slot, a, staged.budget)))
        .collect();
    tasks.sort_by_key(|(_, a, _)| LONGEST_FIRST.iter().position(|&b| b == a.benchmark));
    let (results, pool) = par_map_with_profile(jobs, tasks, |(slot, a, budget)| {
        (slot, adjudicate(a, budget))
    });
    let mut verdicts: Vec<_> = batch.iter().map(|_| None).collect();
    for (slot, result) in results {
        verdicts[slot] = Some(result);
    }
    (verdicts, pool)
}

/// One adjudication attempt: caught if it panics, and on a helper thread
/// under the rest of its attempt's budget when a watchdog is set.
fn adjudicate(adjudication: Adjudication, budget: Option<Duration>) -> Verdict {
    match budget {
        None => call_caught(|| adjudication.verdict()),
        Some(left) => call_with_deadline(left, move || adjudication.verdict()),
    }
}

/// The shard-merge state: everything the sequential loop used to carry,
/// folded over outcomes in canonical (trial) order.
struct Accumulator {
    flux: Flux,
    limits: SessionLimits,
    ledger: FluenceLedger,
    clock: SimInstant,
    failures: BTreeMap<FailureClass, u64>,
    per_benchmark: BTreeMap<Benchmark, BenchmarkStats>,
    edac_per_level: LevelCounts,
    memory_upsets: u64,
    sdc_with_notification: u64,
    runs: u64,
    trial_retries: u64,
    quarantined: Vec<u64>,
}

impl Accumulator {
    fn new(flux: Flux, limits: SessionLimits) -> Self {
        Accumulator {
            flux,
            limits,
            ledger: FluenceLedger::new(),
            clock: SimInstant::EPOCH,
            failures: BTreeMap::new(),
            per_benchmark: BTreeMap::new(),
            edac_per_level: LevelCounts::new(),
            memory_upsets: 0,
            sdc_with_notification: 0,
            runs: 0,
            trial_retries: 0,
            quarantined: Vec::new(),
        }
    }

    fn error_events(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Folds one [`TrialExecution`] in — the unit the journal records and
    /// the replay path re-absorbs. A quarantined execution advances the
    /// clock and the fluence ledger (beam time passed even though the
    /// trial produced no verdict) and is surfaced via
    /// [`SessionReport::quarantined_trials`], but drives no observer
    /// callbacks and contributes no runs, upsets or events.
    fn absorb_execution(
        &mut self,
        execution: TrialExecution,
        run_only: SimDuration,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> Option<StopReason> {
        self.trial_retries += u64::from(execution.retries);
        if execution.quarantined {
            self.clock += execution.outcome.wall_time;
            self.ledger.record(self.flux, execution.outcome.wall_time);
            self.quarantined.push(execution.trial);
            return self.check_stop_rules();
        }
        self.absorb(execution.outcome, run_only, observer)
    }

    /// Folds one trial outcome in, drives the observer, and evaluates the
    /// stopping rules — the exact body of the old sequential loop.
    fn absorb(
        &mut self,
        outcome: crate::runner::RunOutcome,
        run_only: SimDuration,
        observer: &mut dyn crate::trace::SessionObserver,
    ) -> Option<StopReason> {
        let benchmark = outcome.benchmark;
        let run_start = self.clock;
        self.clock += outcome.wall_time;
        self.ledger.record(self.flux, outcome.wall_time);
        self.runs += 1;

        observer.on_run(run_start, benchmark, outcome.verdict);
        for record in &outcome.edac {
            // Trials run at the epoch; re-base onto the session clock.
            let mut rebased = *record;
            rebased.time = run_start + record.time.elapsed_since(SimInstant::EPOCH);
            observer.on_edac(rebased);
        }
        if outcome.wall_time > run_only {
            observer.on_recovery(run_start + run_only, outcome.wall_time - run_only);
        }

        let stats = self.per_benchmark.entry(benchmark).or_default();
        stats.runs += 1;
        stats.memory_upsets += outcome.edac.len() as u64;
        stats.execution_time += run_only;

        self.memory_upsets += outcome.edac.len() as u64;
        for record in &outcome.edac {
            *self
                .edac_per_level
                .entry((record.cache_level(), record.severity))
                .or_insert(0) += 1;
        }
        if let Some(class) = outcome.verdict.failure_class() {
            *self.failures.entry(class).or_insert(0) += 1;
            if class == FailureClass::Sdc {
                stats.sdcs += 1;
                if outcome.verdict
                    == (RunVerdict::Sdc {
                        with_hw_notification: true,
                    })
                {
                    self.sdc_with_notification += 1;
                }
            }
        }

        self.check_stop_rules()
    }

    /// Evaluates the stopping rules in their canonical order.
    fn check_stop_rules(&self) -> Option<StopReason> {
        self.limits.reached(
            self.error_events(),
            self.ledger.total_fluence(),
            self.ledger.total_duration(),
        )
    }

    fn into_report(self, point: OperatingPoint, stop_reason: StopReason) -> SessionReport {
        SessionReport {
            operating_point: point,
            stop_reason,
            duration: self.ledger.total_duration(),
            fluence: self.ledger.total_fluence(),
            runs: self.runs,
            failures: self.failures,
            sdc_with_notification: self.sdc_with_notification,
            memory_upsets: self.memory_upsets,
            edac_per_level: self.edac_per_level,
            per_benchmark: self.per_benchmark,
            trial_retries: self.trial_retries,
            quarantined_trials: self.quarantined,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serscale_types::Millivolts;

    const WORKING_FLUX: f64 = 1.5e6;

    fn dut(point: OperatingPoint) -> DeviceUnderTest {
        DeviceUnderTest::xgene2(point, DeviceUnderTest::paper_vmin(point.frequency))
    }

    /// Runs `session` through the batch engine on `jobs` workers, unobserved.
    fn engine(session: &mut TestSession, rng: &mut SimRng, jobs: usize) -> SessionReport {
        session
            .run(
                rng,
                0,
                &mut CampaignRunOptions::with_jobs(jobs),
                &mut crate::trace::NoopObserver,
            )
            .expect("no cancel token")
    }

    fn short_session(point: OperatingPoint, minutes: f64, seed: u64) -> SessionReport {
        let mut session = TestSession::new(
            dut(point),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits::time_boxed(SimDuration::from_minutes(minutes)),
        );
        engine(&mut session, &mut SimRng::seed_from(seed), 1)
    }

    #[test]
    fn time_boxed_session_stops_on_beam_time() {
        let report = short_session(OperatingPoint::nominal(), 20.0, 1);
        assert_eq!(report.stop_reason, StopReason::BeamTime);
        assert!(report.duration.as_minutes() >= 20.0);
        // One extra run can overshoot, but only by a run + recovery.
        assert!(report.duration.as_minutes() < 23.0);
        assert!(report.runs > 200);
    }

    #[test]
    fn event_limit_stops_session() {
        let mut session = TestSession::new(
            dut(OperatingPoint::vmin_2400()),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits {
                max_error_events: 5,
                max_fluence: Fluence::per_cm2(1e30),
                max_duration: None,
            },
        );
        let mut rng = SimRng::seed_from(2);
        let report = engine(&mut session, &mut rng, 1);
        assert_eq!(report.stop_reason, StopReason::ErrorEvents);
        assert_eq!(report.error_events(), 5);
    }

    #[test]
    fn fluence_limit_stops_session() {
        let mut session = TestSession::new(
            dut(OperatingPoint::nominal()),
            Flux::per_cm2_s(WORKING_FLUX),
            SessionLimits {
                max_error_events: u64::MAX,
                max_fluence: Fluence::per_cm2(1.0e9),
                max_duration: None,
            },
        );
        let mut rng = SimRng::seed_from(3);
        let report = engine(&mut session, &mut rng, 1);
        assert_eq!(report.stop_reason, StopReason::Fluence);
        assert!(report.fluence >= Fluence::per_cm2(1.0e9));
    }

    #[test]
    fn upset_rate_tracks_table2_at_nominal() {
        // Multi-seed, CI-bound: pool upset counts over independent seeds
        // and accept iff the pooled count is Poisson-consistent with the
        // Table 2 rate (1.01/min) within a 5% calibration tolerance —
        // robust to the seed, sharp against a rate regression.
        let mut upsets = 0u64;
        let mut minutes = 0.0;
        for seed in 40..45 {
            let report = short_session(OperatingPoint::nominal(), 120.0, seed);
            upsets += report.memory_upsets;
            minutes += report.duration.as_minutes();
        }
        let expected = 1.01 * minutes;
        assert!(
            serscale_stats::count_consistent_with_tolerance(upsets, expected, 0.99, 0.05),
            "{upsets} pooled upsets in {minutes:.0} min vs expected {expected:.0}"
        );
    }

    #[test]
    fn fluence_accounting_consistent() {
        let report = short_session(OperatingPoint::nominal(), 30.0, 5);
        let expected = WORKING_FLUX * report.duration.as_secs();
        assert!((report.fluence.as_per_cm2() - expected).abs() / expected < 1e-9);
        assert!(report.nyc_equivalent_years() > 0.0);
    }

    #[test]
    fn per_benchmark_stats_cover_all_six() {
        let report = short_session(OperatingPoint::nominal(), 10.0, 6);
        assert_eq!(report.per_benchmark.len(), 6);
        for (b, stats) in &report.per_benchmark {
            assert!(stats.runs > 0, "{b}");
            assert!(!stats.execution_time.is_zero(), "{b}");
        }
    }

    #[test]
    fn session_is_deterministic() {
        let a = short_session(OperatingPoint::safe(), 15.0, 7);
        let b = short_session(OperatingPoint::safe(), 15.0, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn reference_executor_matches_wave_engine() {
        let make = || {
            TestSession::new(
                dut(OperatingPoint::vmin_2400()),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(30.0)),
            )
        };
        let batched = engine(&mut make(), &mut SimRng::seed_from(12), 1);
        let reference =
            make().run_reference(&mut SimRng::seed_from(12), &mut crate::trace::NoopObserver);
        assert_eq!(batched, reference);
    }

    #[test]
    fn reference_executor_matches_on_event_limited_sessions() {
        // The event rule is where a batch's projection is inexact: pending
        // adjudications may come back masked, and the merge must land
        // exactly where the naive loop does.
        let make = || {
            TestSession::new(
                dut(OperatingPoint::vmin_2400()),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits {
                    max_error_events: 7,
                    max_fluence: Fluence::per_cm2(1e30),
                    max_duration: None,
                },
            )
        };
        let batched = engine(&mut make(), &mut SimRng::seed_from(13), 4);
        let reference =
            make().run_reference(&mut SimRng::seed_from(13), &mut crate::trace::NoopObserver);
        assert_eq!(batched, reference);
        assert_eq!(reference.stop_reason, StopReason::ErrorEvents);
    }

    #[test]
    fn failure_shares_sum_to_one_when_events_exist() {
        // Shares summing to one is exact per report; the SDC dominance
        // claim (Fig. 8 rightmost panel: 92%) is statistical, so pool
        // events over seeds and put a Wilson lower bound on the share.
        let mut sdcs = 0u64;
        let mut events = 0u64;
        for seed in 80..83 {
            let report = short_session(OperatingPoint::vmin_2400(), 400.0, seed);
            let shares = report.failure_shares();
            let total: f64 = shares.values().sum();
            assert!((total - 1.0).abs() < 1e-9);
            sdcs += report.failure_count(FailureClass::Sdc);
            events += report.error_events();
        }
        assert!(events > 50, "events = {events}");
        let (lo, _) = serscale_stats::ci::wilson_ci(sdcs, events, 0.99);
        assert!(
            lo > 0.6,
            "SDC share 99% lower bound {lo:.3} ({sdcs}/{events})"
        );
    }

    #[test]
    fn memory_ser_in_table2_band() {
        // Table 2 row 10 reports 2.08–2.45 FIT/Mbit over the four
        // sessions; the modelled chip has ~79.7 Mbit of SRAM and its
        // nominal session sits at the low end, so the claim is the loose
        // 1.5–3.0 band. SER is linear in the upset count at fixed
        // fluence, so the band check becomes a pooled Poisson consistency
        // test against the band's center with its half-width as the
        // tolerance.
        let mbit = 79.7;
        let center = 0.5 * (1.5 + 3.0);
        let mut upsets = 0u64;
        let mut expected = 0.0;
        for seed in 90..95 {
            let report = short_session(OperatingPoint::nominal(), 60.0, seed);
            assert!(report.memory_upsets > 0, "seed {seed} saw no upsets");
            // FIT per observed count at this session's fluence.
            let per_count = report.memory_ser_fit_per_mbit(mbit) / report.memory_upsets as f64;
            upsets += report.memory_upsets;
            expected += center / per_count;
        }
        assert!(
            serscale_stats::count_consistent_with_tolerance(upsets, expected, 0.99, 1.0 / 3.0),
            "{upsets} pooled upsets vs {expected:.0} expected for {center:.2} FIT/Mbit"
        );
    }

    #[test]
    #[should_panic(expected = "beam-off session")]
    fn beam_off_without_time_limit_is_rejected() {
        let _ = TestSession::new(
            dut(OperatingPoint::nominal()),
            Flux::per_cm2_s(0.0),
            SessionLimits::standard(),
        );
    }

    #[test]
    fn beam_off_time_boxed_session_sees_nothing() {
        let mut session = TestSession::new(
            dut(OperatingPoint::nominal()),
            Flux::per_cm2_s(0.0),
            SessionLimits::time_boxed(SimDuration::from_minutes(5.0)),
        );
        let report = engine(&mut session, &mut SimRng::seed_from(1), 1);
        assert_eq!(report.memory_upsets, 0);
        assert_eq!(report.error_events(), 0);
        assert_eq!(report.fluence, Fluence::ZERO);
    }

    #[test]
    fn soc_vmin_lookup_unused_at_900mhz_left_intact() {
        // Smoke: a 900 MHz session runs and the L3 keeps its SoC-domain
        // rate (checked in detail in dut tests).
        let report = short_session(OperatingPoint::vmin_900(), 20.0, 10);
        assert!(report.memory_upsets > 0);
        assert_eq!(report.operating_point.pmd, Millivolts::new(790));
    }

    /// Builds a synthetic trial outcome: a scripted verdict plus `ce`
    /// corrected and `ue` uncorrected EDAC records.
    fn scripted(verdict: RunVerdict, ce: u64, ue: u64) -> crate::runner::RunOutcome {
        use serscale_soc::edac::EdacRecord;
        use serscale_types::ArrayKind;
        let mut edac = Vec::new();
        for _ in 0..ce {
            edac.push(EdacRecord {
                time: SimInstant::EPOCH,
                array: ArrayKind::L2Unified,
                severity: EdacSeverity::Corrected,
            });
        }
        for _ in 0..ue {
            edac.push(EdacRecord {
                time: SimInstant::EPOCH,
                array: ArrayKind::L3Shared,
                severity: EdacSeverity::Uncorrected,
            });
        }
        crate::runner::RunOutcome {
            benchmark: Benchmark::Cg,
            verdict,
            edac,
            wall_time: SimDuration::from_secs(3.0),
            sram_strikes: ce + ue,
        }
    }

    /// Table-driven classification edge cases at the session-tally level:
    /// scripted verdict sequences are folded through the accumulator and
    /// the report's failure bookkeeping is checked exactly.
    #[test]
    fn classification_edge_case_table() {
        struct Case {
            name: &'static str,
            script: Vec<(RunVerdict, u64, u64)>,
            sdc: u64,
            app: u64,
            sys: u64,
            memory_upsets: u64,
            sdc_with_notification: u64,
        }
        let sdc = RunVerdict::Sdc {
            with_hw_notification: false,
        };
        let deceptive_sdc = RunVerdict::Sdc {
            with_hw_notification: true,
        };
        let cases = vec![
            Case {
                // The paper's worst beam minute: the same session takes an
                // SDC, a system crash and an application crash — each run
                // keeps its own verdict and all three classes must tally.
                name: "simultaneous-sdc-and-crashes",
                script: vec![
                    (sdc, 1, 0),
                    (RunVerdict::SysCrash, 0, 1),
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::AppCrash, 0, 1),
                ],
                sdc: 1,
                app: 1,
                sys: 1,
                memory_upsets: 3,
                sdc_with_notification: 0,
            },
            Case {
                // A quiet session: no upsets, no failures, and the report
                // must come out all-zero without dividing by anything.
                name: "zero-upset-session",
                script: vec![
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::Correct, 0, 0),
                    (RunVerdict::Correct, 0, 0),
                ],
                sdc: 0,
                app: 0,
                sys: 0,
                memory_upsets: 0,
                sdc_with_notification: 0,
            },
            Case {
                // EDAC-masked events: the hardware logs plenty of corrected
                // (and even uncorrected-but-architecturally-masked) errors,
                // yet every run completes correctly — upsets are counted,
                // error events stay zero.
                name: "edac-masked-events",
                script: vec![
                    (RunVerdict::Correct, 4, 0),
                    (RunVerdict::Correct, 2, 1),
                    (RunVerdict::Correct, 0, 0),
                ],
                sdc: 0,
                app: 0,
                sys: 0,
                memory_upsets: 7,
                sdc_with_notification: 0,
            },
            Case {
                // Figure 12's deceptive case: only the notified flavour
                // increments sdc_with_notification, both flavours count as
                // SDC failures.
                name: "deceptive-sdc-flavours",
                script: vec![(deceptive_sdc, 1, 0), (sdc, 0, 0)],
                sdc: 2,
                app: 0,
                sys: 0,
                memory_upsets: 1,
                sdc_with_notification: 1,
            },
        ];

        for case in cases {
            let flux = Flux::per_cm2_s(WORKING_FLUX);
            let mut acc = Accumulator::new(flux, SessionLimits::standard());
            let mut observer = crate::trace::NoopObserver;
            for &(verdict, ce, ue) in &case.script {
                let outcome = scripted(verdict, ce, ue);
                let run_only = outcome.wall_time;
                assert_eq!(
                    acc.absorb(outcome, run_only, &mut observer),
                    None,
                    "{}: stopped early",
                    case.name
                );
            }
            let runs = case.script.len() as u64;
            let report = acc.into_report(OperatingPoint::nominal(), StopReason::BeamTime);
            let count = |class| report.failures.get(&class).copied().unwrap_or(0);
            assert_eq!(count(FailureClass::Sdc), case.sdc, "{}", case.name);
            assert_eq!(count(FailureClass::AppCrash), case.app, "{}", case.name);
            assert_eq!(count(FailureClass::SysCrash), case.sys, "{}", case.name);
            assert_eq!(
                report.error_events(),
                case.sdc + case.app + case.sys,
                "{}",
                case.name
            );
            assert_eq!(report.memory_upsets, case.memory_upsets, "{}", case.name);
            assert_eq!(
                report.sdc_with_notification, case.sdc_with_notification,
                "{}",
                case.name
            );
            assert_eq!(report.runs, runs, "{}", case.name);
            let stats = report.per_benchmark[&Benchmark::Cg];
            assert_eq!(stats.runs, runs, "{}", case.name);
            assert!(
                stats.upsets_per_minute().is_finite(),
                "{}: rate must stay finite",
                case.name
            );
        }
    }

    /// The §3.5 event-limit rule counts SDCs and crashes together: a
    /// session whose events arrive as a mix trips the limit exactly on the
    /// run that reaches it, whatever the mix.
    #[test]
    fn event_limit_counts_all_failure_classes_together() {
        let sdc = RunVerdict::Sdc {
            with_hw_notification: false,
        };
        let limits = SessionLimits {
            max_error_events: 3,
            max_fluence: Fluence::per_cm2(1e30),
            max_duration: None,
        };
        let mut acc = Accumulator::new(Flux::per_cm2_s(WORKING_FLUX), limits);
        let mut observer = crate::trace::NoopObserver;
        let script = [
            (sdc, None),
            (RunVerdict::Correct, None),
            (RunVerdict::AppCrash, None),
            (RunVerdict::Correct, None),
            (RunVerdict::SysCrash, Some(StopReason::ErrorEvents)),
        ];
        for (i, &(verdict, expect)) in script.iter().enumerate() {
            let outcome = scripted(verdict, 0, 0);
            let run_only = outcome.wall_time;
            assert_eq!(
                acc.absorb(outcome, run_only, &mut observer),
                expect,
                "run {i}"
            );
        }
    }

    /// A zero per-attempt budget fails every attempt without launching
    /// it, so every trial exhausts its retries and is quarantined: the
    /// session still terminates on beam time (placeholders keep the
    /// clock honest), tallies nothing, surfaces every index — and stays
    /// bit-identical across `jobs` (placeholders carry no randomness).
    #[test]
    fn zero_timeout_quarantines_every_trial_deterministically() {
        let run = |jobs: usize| {
            let mut session = TestSession::new(
                dut(OperatingPoint::nominal()),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(5.0)),
            );
            let mut options = CampaignRunOptions {
                retry: RetryPolicy {
                    max_retries: 1,
                    backoff: std::time::Duration::ZERO,
                    timeout: Some(std::time::Duration::ZERO),
                },
                ..CampaignRunOptions::with_jobs(jobs)
            };
            session
                .run(
                    &mut SimRng::seed_from(31),
                    0,
                    &mut options,
                    &mut crate::trace::NoopObserver,
                )
                .expect("no cancel token")
        };
        let report = run(1);
        assert_eq!(report.stop_reason, StopReason::BeamTime);
        assert_eq!(report.runs, 0, "every trial quarantined");
        assert_eq!(report.memory_upsets, 0);
        assert_eq!(report.error_events(), 0);
        let n = report.quarantined_trials.len() as u64;
        assert!(n > 0);
        assert_eq!(report.quarantined_trials, (0..n).collect::<Vec<_>>());
        assert_eq!(report.trial_retries, n, "one retry per quarantined trial");
        assert_eq!(run(4), report, "quarantine path must stay deterministic");
    }

    /// The zero-upset short-circuit in the batched runner must be
    /// invisible to everything downstream: a trial whose Poisson count
    /// comes up zero still gets its `on_run` callback, its journal row
    /// and its report bookkeeping, identical to the naive per-event
    /// executor. A quiet-beam session (≈every trial short-circuits) is
    /// run through the batch engine with a journal and a [`Logbook`] and
    /// diffed against the reference executor.
    ///
    /// [`Logbook`]: crate::trace::Logbook
    #[test]
    fn zero_upset_fast_path_reports_and_journals_identically() {
        use crate::journal::start_or_resume;
        // Flux low enough that essentially every trial draws zero events
        // (the short-circuit path) while the session still spans hundreds
        // of trials.
        let quiet_flux = Flux::per_cm2_s(WORKING_FLUX * 1e-3);
        let limits = SessionLimits::time_boxed(SimDuration::from_minutes(10.0));
        let make = || TestSession::new(dut(OperatingPoint::nominal()), quiet_flux, limits);

        let mut reference_log = crate::trace::Logbook::new();
        let reference = make().run_reference(&mut SimRng::seed_from(23), &mut reference_log);

        let dir = std::env::temp_dir().join(format!(
            "serscale-zero-upset-journal-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = crate::campaign::CampaignConfig::paper_scaled(0.01);
        let (mut journal, recovered) = start_or_resume(&dir, &config).unwrap();
        assert!(recovered.is_none());
        let mut batch_log = crate::trace::Logbook::new();
        let report = make()
            .run(
                &mut SimRng::seed_from(23),
                0,
                &mut CampaignRunOptions {
                    journal: Some(&mut journal),
                    ..CampaignRunOptions::with_jobs(8)
                },
                &mut batch_log,
            )
            .expect("no cancel token");
        drop(journal);

        assert_eq!(report, reference);
        assert_eq!(batch_log, reference_log);
        // The short-circuit really was exercised: plenty of trials, almost
        // none of them with an upset.
        assert!(report.runs > 100, "runs = {}", report.runs);
        assert!(
            report.memory_upsets < report.runs / 10,
            "{} upsets in {} runs — beam not quiet enough to exercise the fast path",
            report.memory_upsets,
            report.runs
        );
        // Every trial has its Run event in the trace…
        let run_events = batch_log
            .events()
            .iter()
            .filter(|e| matches!(e, crate::trace::LogEvent::Run { .. }))
            .count() as u64;
        assert_eq!(run_events, report.runs);
        // …and its row in the journal, in trial order, none quarantined.
        let (_, recovered) = start_or_resume(&dir, &config).unwrap();
        let recovered = recovered.unwrap();
        let journaled = recovered.session(0).expect("session 0 journaled");
        assert_eq!(journaled.trials.len() as u64, report.runs);
        for (i, t) in journaled.trials.iter().enumerate() {
            assert_eq!(t.trial, i as u64, "journal rows out of order");
            assert!(!t.quarantined);
        }
        assert_eq!(journaled.ended, Some(StopReason::BeamTime));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Records the engine's batch telemetry.
    #[derive(Default)]
    struct Batches(Vec<crate::trace::WaveStats>);

    impl crate::trace::SessionObserver for Batches {
        fn on_wave(&mut self, stats: crate::trace::WaveStats) {
            self.0.push(stats);
        }
    }

    /// The root of a session's trial streams, derived as `run` derives it.
    fn trial_root(seed: u64) -> SimRng {
        SimRng::seed_from(SimRng::seed_from(seed).next_seed())
    }

    /// The event rule counts pending adjudications as events, so the first
    /// batch ends where events plus pending first reach the limit. Here
    /// two or more adjudications are still open at that trial; whatever
    /// they resolve to, the engine must land where the naive loop does.
    #[test]
    fn event_limit_crossed_with_adjudications_pending_matches_reference() {
        let limits = SessionLimits {
            max_error_events: 6,
            max_fluence: Fluence::per_cm2(1e30),
            max_duration: None,
        };
        let point = OperatingPoint::vmin_2400();
        let flux = Flux::per_cm2_s(WORKING_FLUX);
        let make = || TestSession::new(dut(point), flux, limits);
        let seed = 29;

        // Replay phase 1 up to the first batch's end.
        let root = trial_root(seed);
        let mut runner = BenchmarkRunner::new(dut(point), flux);
        let (mut events, mut pending, mut trials) = (0u64, 0u64, 0u64);
        while events + pending < limits.max_error_events {
            let mut rng = root.stream("trial", &[trials]);
            let benchmark = Benchmark::ALL[(trials % 6) as usize];
            let physics = runner.simulate(&mut rng, benchmark, SimInstant::EPOCH);
            if physics.pending.is_some() {
                pending += 1;
            } else if physics.outcome.verdict.failure_class().is_some() {
                events += 1;
            }
            trials += 1;
        }
        assert!(pending >= 2, "only {pending} adjudications pending");

        let mut reference_log = crate::trace::Logbook::new();
        let reference = make().run_reference(&mut SimRng::seed_from(seed), &mut reference_log);
        assert_eq!(reference.stop_reason, StopReason::ErrorEvents);
        for jobs in [1, 2, 4, 8] {
            let mut log = crate::trace::Logbook::new();
            let mut batches = Batches::default();
            let report = make()
                .run(
                    &mut SimRng::seed_from(seed),
                    0,
                    &mut CampaignRunOptions::with_jobs(jobs),
                    &mut crate::trace::tee(&mut log, &mut batches),
                )
                .expect("no cancel token");
            assert_eq!(report, reference, "jobs = {jobs}");
            assert_eq!(log, reference_log, "jobs = {jobs}");
            assert_eq!(batches.0[0].planned as u64, trials, "jobs = {jobs}");
        }
    }

    /// Verdicts never move the clock or the fluence, so a time-boxed
    /// session stages exactly the trials it absorbs: no batch runs past
    /// the stop.
    #[test]
    fn time_boxed_batches_run_nothing_past_the_stop() {
        for jobs in [1, 4] {
            let mut session = TestSession::new(
                dut(OperatingPoint::vmin_2400()),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(400.0)),
            );
            let mut batches = Batches::default();
            let report = session
                .run(
                    &mut SimRng::seed_from(19),
                    0,
                    &mut CampaignRunOptions::with_jobs(jobs),
                    &mut batches,
                )
                .expect("no cancel token");
            assert!(batches.0.len() >= 2, "jobs = {jobs}: one batch only");
            for batch in &batches.0 {
                assert_eq!(batch.planned, batch.absorbed, "jobs = {jobs}: {batch:?}");
            }
            let absorbed: usize = batches.0.iter().map(|b| b.absorbed).sum();
            assert_eq!(absorbed as u64, report.runs, "jobs = {jobs}");
            assert!(report.error_events() > 0, "jobs = {jobs}: no adjudication");
        }
    }

    /// A panicking adjudication retries its whole trial on attempt stream
    /// 1, through the pool, the inline path and the watchdog alike.
    #[test]
    fn failed_adjudication_retries_the_trial_on_attempt_stream_one() {
        use crate::journal::{journal_path, read_journal, start_or_resume};
        let point = OperatingPoint::vmin_2400();
        let flux = Flux::per_cm2_s(WORKING_FLUX);
        let seed = 37;
        let root = trial_root(seed);
        let mut runner = BenchmarkRunner::new(dut(point), flux);
        let benchmark = |t: u64| Benchmark::ALL[(t % 6) as usize];
        let poisoned = (0u64..)
            .find(|&t| {
                let mut rng = root.stream("trial", &[t]);
                let physics = runner.simulate(&mut rng, benchmark(t), SimInstant::EPOCH);
                physics.pending.is_some()
            })
            .expect("trial indices are unbounded");
        let mut rng = root.stream("trial", &[poisoned, 1]);
        let retried = runner.run_once(&mut rng, benchmark(poisoned), SimInstant::EPOCH);

        let dir =
            std::env::temp_dir().join(format!("serscale-poisoned-trial-{}", std::process::id()));
        let config = crate::campaign::CampaignConfig::paper_scaled(0.01);
        for (jobs, timeout) in [
            (1, None),
            (2, None),
            (2, Some(std::time::Duration::from_secs(30))),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let (mut journal, _) = start_or_resume(&dir, &config).unwrap();
            let mut session = TestSession::new(
                dut(point),
                flux,
                SessionLimits::time_boxed(SimDuration::from_minutes(120.0)),
            );
            session.poison = Some((poisoned, 0));
            let report = session
                .run(
                    &mut SimRng::seed_from(seed),
                    0,
                    &mut CampaignRunOptions {
                        retry: RetryPolicy {
                            max_retries: 2,
                            backoff: std::time::Duration::ZERO,
                            timeout,
                        },
                        journal: Some(&mut journal),
                        ..CampaignRunOptions::with_jobs(jobs)
                    },
                    &mut crate::trace::NoopObserver,
                )
                .expect("no cancel token");
            drop(journal);
            assert_eq!(report.trial_retries, 1, "jobs = {jobs}");
            assert!(report.quarantined_trials.is_empty(), "jobs = {jobs}");
            let records = read_journal(&journal_path(&dir)).unwrap();
            let trials = records.iter().filter_map(|r| match r {
                Record::Trial { execution, .. } => Some(execution),
                _ => None,
            });
            let mut seen = false;
            for t in trials {
                if t.trial == poisoned {
                    assert_eq!((t.retries, &t.outcome), (1, &retried), "jobs = {jobs}");
                    seen = true;
                } else {
                    assert_eq!(t.retries, 0, "trial {}, jobs = {jobs}", t.trial);
                }
            }
            assert!(seen, "jobs = {jobs}: the poisoned trial was not journaled");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The robust path at the default policy is bit-identical to the
    /// engine's historical behavior: attempt 0 uses the unchanged
    /// canonical trial stream.
    #[test]
    fn robust_path_matches_plain_run_when_nothing_fails() {
        let make = || {
            TestSession::new(
                dut(OperatingPoint::vmin_2400()),
                Flux::per_cm2_s(WORKING_FLUX),
                SessionLimits::time_boxed(SimDuration::from_minutes(20.0)),
            )
        };
        let plain = engine(&mut make(), &mut SimRng::seed_from(17), 1);
        let report = make()
            .run(
                &mut SimRng::seed_from(17),
                0,
                &mut CampaignRunOptions {
                    retry: RetryPolicy::with_timeout(std::time::Duration::from_secs(30)),
                    ..CampaignRunOptions::with_jobs(2)
                },
                &mut crate::trace::NoopObserver,
            )
            .expect("no cancel token");
        assert_eq!(report, plain);
        assert_eq!(report.trial_retries, 0);
        assert!(report.quarantined_trials.is_empty());
    }
}
