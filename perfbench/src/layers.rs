//! Per-layer measurements, all taken from outside the program: a
//! forwarding observer around the engine's observer seam, a replay of
//! a campaign's trials through `BenchmarkRunner::run_once`, direct
//! timings of the SRAM, ECC and kernel calls a strike makes, and a
//! replay of a run's journal records through a fresh `JournalWriter`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use serscale_core::campaign::{CampaignConfig, CampaignReport};
use serscale_core::classify::{FailureClass, RunVerdict};
use serscale_core::dut::DeviceUnderTest;
use serscale_core::journal::{journal_path, read_journal, start_or_resume, Record};
use serscale_core::runner::{BenchmarkRunner, RunOutcome};
use serscale_core::session::StopReason;
use serscale_core::trace::{SessionObserver, WaveStats};
use serscale_ecc::secded::{Codeword, DecodeOutcome};
use serscale_soc::edac::EdacRecord;
use serscale_soc::platform::OperatingPoint;
use serscale_sram::StrikeScratch;
use serscale_stats::SimRng;
use serscale_types::{SimDuration, SimInstant};
use serscale_workload::kernel::Corruption;
use serscale_workload::Benchmark;

use crate::stats::median;

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What a forwarding observer saw, summed over the campaigns it wrapped.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineTotals {
    /// Waves merged.
    pub waves: u64,
    /// Trials launched speculatively.
    pub planned: u64,
    /// Trials the canonical merge absorbed.
    pub absorbed: u64,
    /// Host time of the waves (execution and merge).
    pub wave_ns: u64,
    /// Pool critical path of the waves.
    pub critical_path_ns: u64,
    /// Worker busy time.
    pub busy_ns: u64,
    /// Worker idle time.
    pub idle_ns: u64,
    /// Observer callbacks forwarded.
    pub observer_calls: u64,
    /// Time in callbacks made inside a wave's merge.
    pub observer_in_wave_ns: u64,
    /// Time in callbacks made between waves.
    pub observer_between_waves_ns: u64,
}

impl EngineTotals {
    /// Merge time: wave host time minus the pool's critical path minus
    /// the observer time spent inside the merge.
    pub fn merge_ns(&self) -> u64 {
        self.wave_ns
            .saturating_sub(self.critical_path_ns)
            .saturating_sub(self.observer_in_wave_ns)
    }

    /// Host time these totals account for: the waves plus the observer
    /// callbacks made between them.
    pub fn accounted_ns(&self) -> u64 {
        self.wave_ns + self.observer_between_waves_ns
    }

    /// Adds another campaign's totals.
    pub fn add(&mut self, o: &EngineTotals) {
        self.waves += o.waves;
        self.planned += o.planned;
        self.absorbed += o.absorbed;
        self.wave_ns += o.wave_ns;
        self.critical_path_ns += o.critical_path_ns;
        self.busy_ns += o.busy_ns;
        self.idle_ns += o.idle_ns;
        self.observer_calls += o.observer_calls;
        self.observer_in_wave_ns += o.observer_in_wave_ns;
        self.observer_between_waves_ns += o.observer_between_waves_ns;
    }
}

/// A forwarding decorator on the observer seam: times every callback it
/// forwards to `inner` and keeps the engine's `WaveStats`.
pub struct Probe<O> {
    /// The observer being decorated.
    pub inner: O,
    /// What has been seen so far.
    pub totals: EngineTotals,
}

impl<O: SessionObserver> Probe<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        Probe {
            inner,
            totals: EngineTotals::default(),
        }
    }

    fn in_wave(&mut self, f: impl FnOnce(&mut O)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.totals.observer_in_wave_ns += nanos(t);
        self.totals.observer_calls += 1;
    }

    fn between_waves(&mut self, f: impl FnOnce(&mut O)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.totals.observer_between_waves_ns += nanos(t);
        self.totals.observer_calls += 1;
    }
}

impl<O: SessionObserver> SessionObserver for Probe<O> {
    fn on_session_start(&mut self, at: SimInstant, point: OperatingPoint) {
        self.between_waves(|o| o.on_session_start(at, point));
    }
    fn on_run(&mut self, start: SimInstant, benchmark: Benchmark, verdict: RunVerdict) {
        self.in_wave(|o| o.on_run(start, benchmark, verdict));
    }
    fn on_edac(&mut self, record: EdacRecord) {
        self.in_wave(|o| o.on_edac(record));
    }
    fn on_recovery(&mut self, start: SimInstant, duration: SimDuration) {
        self.in_wave(|o| o.on_recovery(start, duration));
    }
    fn on_session_end(&mut self, at: SimInstant, reason: StopReason) {
        self.between_waves(|o| o.on_session_end(at, reason));
    }
    fn on_wave(&mut self, stats: WaveStats) {
        let t = &mut self.totals;
        t.waves += 1;
        t.planned += stats.planned as u64;
        t.absorbed += stats.absorbed as u64;
        t.wave_ns += stats.host_nanos;
        t.critical_path_ns += stats.pool.critical_path_nanos();
        t.busy_ns += stats.pool.busy_nanos();
        t.idle_ns += stats.pool.idle_nanos();
        self.between_waves(|o| o.on_wave(stats));
    }
}

/// The three trial classes of the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialClass {
    /// No strike, no EDAC record, correct output.
    ZeroUpset,
    /// Strikes or logic events classified without a kernel verdict.
    StrikeClassify,
    /// A corrupted kernel ran and its output differed from the golden.
    CorruptedKernel,
}

impl TrialClass {
    /// Classifies a trial from what its outcome (and so the journal)
    /// shows.
    pub fn of(outcome: &RunOutcome) -> Self {
        match outcome.verdict {
            RunVerdict::Sdc { .. } => TrialClass::CorruptedKernel,
            RunVerdict::Correct if outcome.sram_strikes == 0 && outcome.edac.is_empty() => {
                TrialClass::ZeroUpset
            }
            _ => TrialClass::StrikeClassify,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Exact trial counts per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Zero-upset trials.
    pub zero_upset: u64,
    /// Strike-and-classify trials.
    pub strike_classify: u64,
    /// Corrupted-kernel trials.
    pub corrupted_kernel: u64,
}

impl Census {
    /// Counts one trial.
    pub fn count(&mut self, outcome: &RunOutcome) {
        match TrialClass::of(outcome) {
            TrialClass::ZeroUpset => self.zero_upset += 1,
            TrialClass::StrikeClassify => self.strike_classify += 1,
            TrialClass::CorruptedKernel => self.corrupted_kernel += 1,
        }
    }

    /// Adds another census.
    pub fn add(&mut self, o: &Census) {
        self.zero_upset += o.zero_upset;
        self.strike_classify += o.strike_classify;
        self.corrupted_kernel += o.corrupted_kernel;
    }

    /// The census of a journal's trial records.
    ///
    /// # Errors
    ///
    /// The journal cannot be read.
    pub fn of_journal(dir: &Path) -> Result<Census, String> {
        let records = read_journal(&journal_path(dir)).map_err(|e| format!("journal: {e}"))?;
        let mut census = Census::default();
        for record in &records {
            if let Record::Trial { execution, .. } = record {
                census.count(&execution.outcome);
            }
        }
        Ok(census)
    }
}

/// Hot-path cost per trial class, from a replay of campaigns' trials.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunnerCost {
    /// Trials timed per class.
    pub trials: [u64; 3],
    /// Host nanoseconds per class.
    pub ns: [u64; 3],
}

impl RunnerCost {
    /// Adds another replay's cost.
    pub fn add(&mut self, o: &RunnerCost) {
        for k in 0..3 {
            self.trials[k] += o.trials[k];
            self.ns[k] += o.ns[k];
        }
    }

    /// Mean nanoseconds per trial of a class (0 when none ran).
    pub fn mean_ns(&self, class: TrialClass) -> f64 {
        let i = class.index();
        if self.trials[i] == 0 {
            0.0
        } else {
            self.ns[i] as f64 / self.trials[i] as f64
        }
    }

    /// The class's share of the hot path's host time.
    pub fn share(&self, class: TrialClass) -> f64 {
        let total: u64 = self.ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.ns[class.index()] as f64 / total as f64
        }
    }
}

/// The per-session trial streams of a campaign, derived exactly as the
/// engine derives them: one fork per session from the master seed, one
/// draw of it seeding the session root, one counter-derived stream per
/// trial.
fn session_stream(config: &CampaignConfig, index: usize) -> SimRng {
    let mut rng = SimRng::seed_from(config.seed).fork_indexed("session", index as u64);
    SimRng::seed_from(rng.next_seed())
}

fn trial(runner: &mut BenchmarkRunner, session: &SimRng, t: u64) -> RunOutcome {
    let benchmark = Benchmark::ALL[(t % Benchmark::ALL.len() as u64) as usize];
    let mut rng = session.stream("trial", &[t]);
    runner.run_once(&mut rng, benchmark, SimInstant::EPOCH)
}

/// Replays every trial of a finished campaign through
/// `BenchmarkRunner::run_once` on each session's DUT, checks the replay
/// against the report, and times each class in one batch per session so
/// the clock's own cost stays out of the per-trial figures.
///
/// A trial without an SDC can still have run a kernel whose output
/// matched the golden (a masked fault). Such a trial is slower than any
/// kernel's shortest run on every call, so it is timed with the
/// corrupted kernels, while the census keeps the class its outcome shows.
///
/// # Errors
///
/// The replay disagrees with the report (trial count, upsets, SDCs).
pub fn replay_runner(
    config: &CampaignConfig,
    report: &CampaignReport,
) -> Result<(Census, RunnerCost), String> {
    /// A trial slower than this on two calls ran a kernel: the fastest
    /// corrupted kernel (CG) takes over 200 µs, a strike a few µs.
    const KERNEL_NS: u64 = 100_000;
    let flux = config.facility.flux_at(config.position);
    let mut census = Census::default();
    let mut cost = RunnerCost::default();
    for (index, ((point, _), session)) in config.sessions.iter().zip(&report.sessions).enumerate() {
        let vmin = config.platform.vmin_at(point.frequency);
        let dut = DeviceUnderTest::for_platform(&config.platform, *point, vmin);
        let mut runner = BenchmarkRunner::new(dut, flux);
        let root = session_stream(config, index);
        let mut timing_class: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let (mut upsets, mut sdcs) = (0u64, 0u64);
        for t in 0..session.runs {
            let clock = Instant::now();
            let outcome = trial(&mut runner, &root, t);
            let first = nanos(clock);
            census.count(&outcome);
            upsets += outcome.edac.len() as u64;
            sdcs += u64::from(matches!(outcome.verdict, RunVerdict::Sdc { .. }));
            let mut class = TrialClass::of(&outcome);
            if class != TrialClass::CorruptedKernel && first > KERNEL_NS {
                let clock = Instant::now();
                black_box(trial(&mut runner, &root, t));
                if nanos(clock) > KERNEL_NS {
                    class = TrialClass::CorruptedKernel;
                }
            }
            timing_class[class.index()].push(t);
        }
        if upsets != session.memory_upsets || sdcs != session.failure_count(FailureClass::Sdc) {
            return Err(format!(
                "runner replay of session {index}: {upsets} upsets / {sdcs} SDCs, report says {} / {}",
                session.memory_upsets,
                session.failure_count(FailureClass::Sdc)
            ));
        }
        for (i, trials) in timing_class.iter().enumerate() {
            // The cheap classes take well under a millisecond per
            // session, so one preemption would dominate a single pass:
            // take the median of three.
            let passes = if i == TrialClass::CorruptedKernel.index() {
                1
            } else {
                3
            };
            let mut samples = Vec::with_capacity(passes);
            for _ in 0..passes {
                let clock = Instant::now();
                for &t in trials {
                    black_box(trial(&mut runner, &root, t));
                }
                samples.push(nanos(clock) as f64);
            }
            cost.ns[i] += median(&samples) as u64;
            cost.trials[i] += trials.len() as u64;
        }
    }
    Ok((census, cost))
}

/// Mean host nanoseconds of one `SramArray::strike_into` over every
/// array of the platform's nominal DUT, clusters of 1 to 4 bits.
pub fn time_sram_strikes(config: &CampaignConfig, strikes_per_array: usize) -> f64 {
    let point = config.platform.nominal_point();
    let dut = DeviceUnderTest::for_platform(
        &config.platform,
        point,
        config.platform.vmin_at(point.frequency),
    );
    let mut rng = SimRng::seed_from(config.seed).fork("perfbench-sram");
    let mut scratch = StrikeScratch::new();
    let mut total = 0u64;
    let mut count = 0u64;
    for instance in dut.soc().arrays() {
        let array = instance.array();
        let clock = Instant::now();
        for i in 0..strikes_per_array {
            array.strike_into(&mut rng, 1 + (i % 4) as u32, &mut scratch);
            black_box(scratch.outcomes());
        }
        total += nanos(clock);
        count += strikes_per_array as u64;
    }
    total as f64 / count.max(1) as f64
}

/// Mean host nanoseconds of one SECDED decode over codewords holding one
/// or two flipped bits.
///
/// # Errors
///
/// A decode that does not correct a single flip or detect a double.
pub fn time_secded_decode(seed: u64, words: usize) -> Result<f64, String> {
    let mut rng = SimRng::seed_from(seed).fork("perfbench-secded");
    let mut cases = Vec::with_capacity(words);
    for i in 0..words {
        let data = rng.next_seed();
        let mut word = Codeword::encode(data);
        let first = rng.below(72) as u32;
        word.flip(first);
        let double = i % 2 == 1;
        if double {
            word.flip((first + 1 + rng.below(71) as u32) % 72);
        }
        cases.push((data, word, double));
    }
    let clock = Instant::now();
    let outcomes: Vec<DecodeOutcome> = cases
        .iter()
        .map(|(_, w, _)| black_box(w).decode())
        .collect();
    let ns = nanos(clock);
    for ((data, _, double), outcome) in cases.iter().zip(&outcomes) {
        let ok = match outcome {
            DecodeOutcome::Corrected { data: d, .. } => !double && d == data,
            DecodeOutcome::DetectedUncorrectable => *double,
            DecodeOutcome::Clean { .. } => false,
        };
        if !ok {
            return Err(format!(
                "SECDED decode of a {} flip gave {outcome:?}",
                if *double { "double" } else { "single" }
            ));
        }
    }
    Ok(ns as f64 / words.max(1) as f64)
}

/// Median host nanoseconds of one `run_corrupted` per benchmark, in
/// `Benchmark::ALL` order.
pub fn time_kernels(seed: u64, runs: usize) -> [f64; 6] {
    let mut rng = SimRng::seed_from(seed).fork("perfbench-kernels");
    let mut out = [0.0; 6];
    for (slot, benchmark) in out.iter_mut().zip(Benchmark::ALL) {
        let kernel = benchmark.shared_kernel();
        let samples: Vec<f64> = (0..runs)
            .map(|_| {
                let corruption = Corruption::new(
                    rng.uniform_in(0.0, 0.999),
                    rng.below(1 << 20) as usize,
                    rng.below(64) as u8,
                );
                let clock = Instant::now();
                black_box(kernel.run_corrupted(corruption));
                nanos(clock) as f64
            })
            .collect();
        *slot = median(&samples);
    }
    out
}

/// What replaying a journal through a fresh writer cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalCost {
    /// Records replayed (header excluded).
    pub records: u64,
    /// Bytes of the rewritten journal.
    pub bytes: u64,
    /// Mean nanoseconds per `JournalWriter::append`.
    pub append_ns: f64,
    /// The final durable sync.
    pub sync_s: f64,
    /// Reading the rewritten journal back.
    pub read_s: f64,
}

/// Replays the records of the journal in `source` into a fresh journal
/// in `scratch` for `config`, then reads it back with `read_journal`.
///
/// # Errors
///
/// I/O failures, or a read-back that differs from what was written.
pub fn replay_journal(
    source: &Path,
    scratch: &Path,
    config: &CampaignConfig,
) -> Result<JournalCost, String> {
    let records = read_journal(&journal_path(source)).map_err(|e| format!("journal: {e}"))?;
    let body = records.get(1..).unwrap_or_default();
    let (mut writer, recovered) =
        start_or_resume(scratch, config).map_err(|e| format!("fresh journal: {e}"))?;
    if recovered.is_some() {
        return Err("fresh journal directory already held a journal".into());
    }
    let clock = Instant::now();
    for record in body {
        writer.append(record);
    }
    let append_ns = nanos(clock) as f64 / body.len().max(1) as f64;
    let clock = Instant::now();
    writer
        .sync_durable()
        .map_err(|e| format!("journal sync: {e}"))?;
    let sync_s = clock.elapsed().as_secs_f64();
    drop(writer);
    let path = journal_path(scratch);
    let clock = Instant::now();
    let back = read_journal(&path).map_err(|e| format!("journal read: {e}"))?;
    let read_s = clock.elapsed().as_secs_f64();
    if back != records {
        return Err("journal read back differs from the records written".into());
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(JournalCost {
        records: body.len() as u64,
        bytes,
        append_ns,
        sync_s,
        read_s,
    })
}
