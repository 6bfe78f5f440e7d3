//! The full beam campaign: Vmin anchoring, sessions in sequence, one
//! consolidated report — the whole of Table 2 in one call.

use std::convert::Infallible;

use serde::{Deserialize, Serialize};

use serscale_beam::facility::{BeamFacility, BeamPosition};
use serscale_soc::platform::OperatingPoint;
use serscale_soc::PlatformSpec;
use serscale_stats::SimRng;
use serscale_types::{Flux, Megahertz, Millivolts, SimDuration};
use serscale_undervolt::{characterize::Characterizer, timing::TimingFailureModel};

use crate::dut::DeviceUnderTest;
use crate::journal::{JournalWriter, RecoveredCampaign};
use crate::scheduler::{CancelToken, Cancelled};
use crate::session::{RetryPolicy, SessionLimits, SessionReport, TestSession};
use crate::trace::{NoopObserver, SessionObserver};

/// Where the per-frequency safe Vmin anchoring the logic amplification
/// comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VminSource {
    /// Use the paper's characterized values (920 mV @ 2.4 GHz, 790 mV @
    /// 900 MHz, interpolated elsewhere). Deterministic.
    Paper,
    /// Run the offline undervolting characterization of §4.1 first and use
    /// its sweep result (`trials` executions per benchmark per 5 mV step).
    Characterized {
        /// Trials per benchmark per voltage step.
        trials: u32,
    },
}

/// Campaign configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Master seed; everything downstream forks from it.
    pub seed: u64,
    /// The irradiation facility.
    pub facility: BeamFacility,
    /// Where the DUT sits in the beam.
    pub position: BeamPosition,
    /// The sessions to run, in order.
    pub sessions: Vec<(OperatingPoint, SessionLimits)>,
    /// How the safe Vmin is obtained.
    pub vmin_source: VminSource,
    /// The platform under test: arrays, rails, Vmin anchors and physics
    /// all come off this spec, and it is folded into the journal's
    /// configuration fingerprint so a resume on the wrong platform fails
    /// cleanly.
    pub platform: PlatformSpec,
}

impl CampaignConfig {
    /// The paper's campaign: TNF beam, halo position, and the four
    /// sessions of Table 2 replayed as their realized beam-time exposures
    /// (1651 / 1618 / 453 / 165 minutes at 980 / 930 / 920 / 790 mV).
    pub fn paper() -> Self {
        Self::for_platform(&PlatformSpec::xgene2())
    }

    /// A campaign on an arbitrary platform: the spec's own declared
    /// session schedule under the paper's beam setup. For
    /// [`PlatformSpec::xgene2`] this is exactly
    /// [`CampaignConfig::paper`].
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        let sessions = spec
            .campaign
            .iter()
            .map(|c| {
                (
                    c.point,
                    SessionLimits::time_boxed(SimDuration::from_minutes(c.minutes)),
                )
            })
            .collect();
        CampaignConfig {
            seed: 0x005e_5510_2023,
            facility: BeamFacility::tnf(),
            position: BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION),
            sessions,
            vmin_source: VminSource::Paper,
            platform: spec.clone(),
        }
    }

    /// A scaled-down campaign (each session `fraction` of the paper's
    /// duration) for fast exploration and CI.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    pub fn paper_scaled(fraction: f64) -> Self {
        Self::for_platform_scaled(&PlatformSpec::xgene2(), fraction)
    }

    /// [`CampaignConfig::for_platform`] with every session time box
    /// scaled by `fraction`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction ≤ 1`.
    pub fn for_platform_scaled(spec: &PlatformSpec, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        let mut config = Self::for_platform(spec);
        for (_, limits) in &mut config.sessions {
            if let Some(d) = limits.max_duration {
                limits.max_duration = Some(d * fraction);
            }
        }
        config
    }
}

/// The consolidated campaign outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// The working flux the DUT saw.
    pub flux: Flux,
    /// The Vmin used per session frequency (anchors the logic model).
    pub vmins: Vec<(Megahertz, Millivolts)>,
    /// Per-session reports, in configuration order.
    pub sessions: Vec<SessionReport>,
    /// The platform the campaign ran on (its spec name).
    pub platform: String,
    /// The platform's nominal operating point — the baseline of every
    /// relative figure.
    pub nominal: OperatingPoint,
}

impl CampaignReport {
    /// Finds the session run at a given operating point.
    pub fn session_at(&self, point: OperatingPoint) -> Option<&SessionReport> {
        self.sessions.iter().find(|s| s.operating_point == point)
    }

    /// Total beam-on time of the campaign (the paper's "more than 64 beam
    /// hours").
    pub fn total_beam_time(&self) -> SimDuration {
        self.sessions.iter().map(|s| s.duration).sum()
    }

    /// The nominal-voltage session (the baseline of every relative
    /// figure), if the campaign ran one.
    pub fn baseline(&self) -> Option<&SessionReport> {
        self.session_at(self.nominal)
    }
}

/// Drives a configured campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// The configuration.
    pub const fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// The safe Vmin for a frequency per the configured source.
    fn vmin_for(&self, root: &SimRng, frequency: Megahertz) -> Millivolts {
        let platform = &self.config.platform;
        match self.config.vmin_source {
            VminSource::Paper => platform.vmin_at(frequency),
            VminSource::Characterized { trials } => {
                let mut rng = root.fork_indexed("vmin", u64::from(frequency.get()));
                let harness =
                    Characterizer::new(TimingFailureModel::for_platform(platform), trials);
                harness
                    .sweep_platform(&mut rng, platform, frequency)
                    .safe_vmin()
                    // A sweep that fails immediately at nominal would leave
                    // no safe level; fall back to the spec's anchor rule.
                    .unwrap_or_else(|| platform.vmin_at(frequency))
            }
        }
    }

    /// Runs the whole campaign through the naive reference executor
    /// ([`TestSession::run_reference`]): no batches, no out-of-order
    /// adjudication, no worker pool. Exists for differential verification — its report must
    /// be bit-identical to [`try_run_recoverable`](Self::try_run_recoverable)
    /// at any `jobs`.
    pub fn run_reference(&self) -> CampaignReport {
        let Ok(report) = self.run_sessions::<Infallible>(|_, session, rng| {
            Ok(session.run_reference(rng, &mut NoopObserver))
        });
        report
    }

    /// Builds every session in configuration order (Vmin anchoring, DUT,
    /// forked RNG) and hands each to `run_session`.
    fn run_sessions<E>(
        &self,
        mut run_session: impl FnMut(u64, &mut TestSession, &mut SimRng) -> Result<SessionReport, E>,
    ) -> Result<CampaignReport, E> {
        let root = SimRng::seed_from(self.config.seed);
        let flux = self.config.facility.flux_at(self.config.position);

        let mut vmins: Vec<(Megahertz, Millivolts)> = Vec::new();
        let mut sessions = Vec::with_capacity(self.config.sessions.len());
        for (index, (point, limits)) in self.config.sessions.iter().enumerate() {
            let frequency = point.frequency;
            let vmin = match vmins.iter().find(|(f, _)| *f == frequency) {
                Some((_, v)) => *v,
                None => {
                    let v = self.vmin_for(&root, frequency);
                    vmins.push((frequency, v));
                    v
                }
            };
            let dut = DeviceUnderTest::for_platform(&self.config.platform, *point, vmin);
            let mut session = TestSession::new(dut, flux, *limits);
            let mut rng = root.fork_indexed("session", index as u64);
            sessions.push(run_session(index as u64, &mut session, &mut rng)?);
        }
        Ok(CampaignReport {
            flux,
            vmins,
            sessions,
            platform: self.config.platform.name.clone(),
            nominal: self.config.platform.nominal_point(),
        })
    }

    /// Runs the campaign — the one general entry point. Sessions execute
    /// in configuration order through [`TestSession::run`], each on
    /// `options.jobs` workers, every event reported through `observer`.
    ///
    /// Sessions are announced via [`SessionObserver::on_session_start`]
    /// in configuration order, so a single observer can attribute the
    /// merged stream. Every trial draws from a counter-derived stream, so
    /// the report is bit-identical for any `jobs` — the determinism
    /// contract the regression suite enforces — and observation, the
    /// journal and the retry policy (with nothing failing) never change a
    /// byte of it. With a recovered prefix (see
    /// [`crate::journal::start_or_resume`]), the replayed trials drive the
    /// observer exactly as the original run did, so report *and* trace
    /// stay bit-identical to an uninterrupted run at any `jobs`.
    ///
    /// When `options.cancel` fires, execution stops cleanly at the next
    /// batch boundary (or between sessions). The journal, if any, is left
    /// exactly as a crash at a record boundary would leave it: completed
    /// sessions closed by their `SessionEnd` records, the in-flight
    /// session holding every absorbed trial and no end record. Re-opening
    /// it through [`crate::journal::start_or_resume`] and re-running the
    /// same configuration reproduces the uninterrupted report and trace
    /// bit for bit at any `jobs` — cancellation rides the crash recovery
    /// path rather than inventing a second lifecycle.
    ///
    /// [`SessionObserver::on_session_start`]:
    /// crate::trace::SessionObserver::on_session_start
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if the token fired before the campaign
    /// completed.
    ///
    /// # Panics
    ///
    /// Panics if `options.jobs == 0`, if the recovered prefix is
    /// inconsistent with this configuration, or if a journal write cannot
    /// be made durable (a crash-safety layer that silently drops records
    /// would be worse than none).
    pub fn try_run_recoverable(
        &self,
        mut options: CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> Result<CampaignReport, Cancelled> {
        self.run_sessions(|index, session, rng| {
            if options.cancelled() {
                return Err(Cancelled);
            }
            session.run(rng, index, &mut options, &mut *observer)
        })
    }

    /// [`try_run_recoverable`](Self::try_run_recoverable) with options
    /// that carry no cancel token. Kept because the benchmark under
    /// `perfbench/` calls it.
    ///
    /// # Panics
    ///
    /// As [`try_run_recoverable`](Self::try_run_recoverable), and if
    /// `options.cancel` fires.
    pub fn run_recoverable(
        &self,
        options: CampaignRunOptions<'_>,
        observer: &mut dyn SessionObserver,
    ) -> CampaignReport {
        self.try_run_recoverable(options, observer)
            .expect("campaign cancelled; use try_run_recoverable to observe cancellation")
    }

    /// [`run_recoverable`](Self::run_recoverable) on `jobs` workers with
    /// no journal. Kept because the benchmark under `perfbench/` calls it.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    pub fn run_observed(&self, jobs: usize, observer: &mut dyn SessionObserver) -> CampaignReport {
        self.run_recoverable(CampaignRunOptions::with_jobs(jobs), observer)
    }

    /// [`run_observed`](Self::run_observed) with nothing observing. Kept
    /// because the benchmark under `perfbench/` calls it.
    ///
    /// # Panics
    ///
    /// Panics if `jobs == 0`.
    pub fn run_parallel(&self, jobs: usize) -> CampaignReport {
        self.run_observed(jobs, &mut NoopObserver)
    }
}

/// How to run a campaign or one of its sessions
/// ([`Campaign::try_run_recoverable`], [`TestSession::run`]): worker
/// count, retry policy, the crash-safety hooks (journal to append to,
/// recovered prefix to replay) and cancellation.
#[derive(Debug)]
pub struct CampaignRunOptions<'a> {
    /// Worker threads per session (must be ≥ 1).
    pub jobs: usize,
    /// Retry/quarantine policy for panicking or hung trials.
    pub retry: RetryPolicy,
    /// Journal to append absorbed trials to, if any.
    pub journal: Option<&'a mut JournalWriter>,
    /// Recovered journal prefix to replay before running live, if any.
    pub recovered: Option<&'a RecoveredCampaign>,
    /// Cooperative cancellation flag, polled at batch boundaries (see
    /// [`Campaign::try_run_recoverable`]).
    pub cancel: Option<CancelToken>,
}

impl CampaignRunOptions<'_> {
    /// Options for a plain (journal-less) run at `jobs` workers with the
    /// standard retry policy.
    pub fn with_jobs(jobs: usize) -> CampaignRunOptions<'static> {
        CampaignRunOptions {
            jobs,
            retry: RetryPolicy::standard(),
            journal: None,
            recovered: None,
            cancel: None,
        }
    }

    /// Whether the cancel token, if any, has fired.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::FailureClass;

    fn quick_config(seed: u64, fraction: f64) -> CampaignConfig {
        let mut c = CampaignConfig::paper_scaled(fraction);
        c.seed = seed;
        c
    }

    #[test]
    fn paper_config_shape() {
        let c = CampaignConfig::paper();
        assert_eq!(c.sessions.len(), 4);
        assert_eq!(c.sessions[0].0, OperatingPoint::nominal());
        assert_eq!(c.sessions[3].0, OperatingPoint::vmin_900());
        let total: f64 = c
            .sessions
            .iter()
            .filter_map(|(_, l)| l.max_duration)
            .map(|d| d.as_hours())
            .sum();
        // Table 2 durations sum to ~64.8 beam hours.
        assert!((total - 64.78).abs() < 0.1, "total = {total} h");
    }

    #[test]
    fn paper_config_is_the_xgene2_platform_config() {
        assert_eq!(
            CampaignConfig::paper(),
            CampaignConfig::for_platform(&PlatformSpec::xgene2())
        );
        assert_eq!(CampaignConfig::paper().platform.name, "xgene2");
    }

    #[test]
    fn zynq_campaign_runs_end_to_end() {
        let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.01);
        config.seed = 21;
        let campaign = Campaign::new(config);
        let report = campaign.run_parallel(1);
        assert_eq!(report.platform, "zynq-mpsoc");
        assert_eq!(report.sessions.len(), 4);
        assert!(report.baseline().is_some(), "850 mV baseline resolves");
        let vmin_1500 = report
            .vmins
            .iter()
            .find(|(f, _)| f.get() == 1500)
            .map(|(_, v)| *v)
            .expect("1.5 GHz characterized");
        assert_eq!(vmin_1500, Millivolts::new(750));
        // The determinism contract holds off the X-Gene too.
        assert_eq!(report, campaign.run_parallel(8));
    }

    #[test]
    fn zynq_characterized_vmin_stays_on_its_own_rails() {
        let mut config = CampaignConfig::for_platform_scaled(&PlatformSpec::zynq_mpsoc(), 0.005);
        config.seed = 22;
        config.vmin_source = VminSource::Characterized { trials: 50 };
        let report = Campaign::new(config.clone()).run_parallel(1);
        for (f, v) in &report.vmins {
            let anchor = config.platform.vmin_at(*f);
            assert!(v.get().abs_diff(anchor.get()) <= 5, "{f}: {v} vs {anchor}");
            assert!(*v >= config.platform.sweep_floor);
        }
    }

    #[test]
    fn campaign_flux_is_the_paper_working_flux() {
        let report = Campaign::new(quick_config(1, 0.01)).run_parallel(1);
        assert!((report.flux.as_per_cm2_s() - 1.5e6).abs() < 1e-3);
    }

    #[test]
    fn scaled_campaign_runs_all_sessions() {
        let report = Campaign::new(quick_config(2, 0.02)).run_parallel(1);
        assert_eq!(report.sessions.len(), 4);
        assert!(report.baseline().is_some());
        assert!(report.session_at(OperatingPoint::vmin_900()).is_some());
        assert!(report.total_beam_time().as_hours() > 1.0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = Campaign::new(quick_config(3, 0.01)).run_parallel(1);
        let b = Campaign::new(quick_config(3, 0.01)).run_parallel(1);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Campaign::new(quick_config(4, 0.01)).run_parallel(1);
        let b = Campaign::new(quick_config(5, 0.01)).run_parallel(1);
        assert_ne!(a, b);
    }

    #[test]
    fn reference_executor_matches_engine_paths() {
        let campaign = Campaign::new(quick_config(11, 0.01));
        let reference = campaign.run_reference();
        assert_eq!(reference, campaign.run_parallel(1));
        assert_eq!(reference, campaign.run_parallel(3));
    }

    #[test]
    fn observed_campaign_matches_and_announces_every_session() {
        use crate::trace::{LogEvent, Logbook};
        let campaign = Campaign::new(quick_config(12, 0.01));
        let mut logbook = Logbook::new();
        let observed = campaign.run_observed(2, &mut logbook);
        assert_eq!(
            observed,
            campaign.run_parallel(1),
            "observation perturbed the run"
        );
        let starts: Vec<_> = logbook
            .events()
            .iter()
            .filter_map(|e| match e {
                LogEvent::SessionStarted { point, .. } => Some(*point),
                _ => None,
            })
            .collect();
        let configured: Vec<_> = campaign.config().sessions.iter().map(|(p, _)| *p).collect();
        assert_eq!(starts, configured, "one header per session, in order");
    }

    #[test]
    fn journaled_run_resumes_bit_identically() {
        use crate::journal::{journal_path, start_or_resume};
        use crate::trace::Logbook;

        let dir =
            std::env::temp_dir().join(format!("serscale-campaign-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let campaign = Campaign::new(quick_config(13, 0.01));

        // Uninterrupted golden (journal-less observed run).
        let mut golden_log = Logbook::new();
        let golden = campaign.run_observed(2, &mut golden_log);

        // Retry/quarantine supervision alone, journal-less, changes nothing.
        let mut robust_log = Logbook::new();
        let robust = campaign.run_recoverable(CampaignRunOptions::with_jobs(8), &mut robust_log);
        assert_eq!(robust, golden, "supervision perturbed the report");
        assert_eq!(robust_log, golden_log, "supervision perturbed the trace");

        // A fresh journaled run must change nothing.
        let (mut writer, recovered) =
            start_or_resume(&dir, campaign.config()).expect("journal opens");
        assert!(recovered.is_none(), "fresh directory must not recover");
        let mut log = Logbook::new();
        let report = campaign.run_recoverable(
            CampaignRunOptions {
                journal: Some(&mut writer),
                ..CampaignRunOptions::with_jobs(2)
            },
            &mut log,
        );
        drop(writer);
        assert_eq!(report, golden, "journaling perturbed the report");
        assert_eq!(log, golden_log, "journaling perturbed the trace");

        // Simulate a crash: drop the tail third of the journal.
        let path = journal_path(&dir);
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        let keep = (lines.len() * 2 / 3).max(1);
        let mut truncated: String = lines[..keep].join("\n");
        truncated.push('\n');
        std::fs::write(&path, truncated).expect("truncate journal");

        // Resume at a different worker count; report and trace must still
        // match the uninterrupted golden bit for bit.
        let (mut writer, recovered) =
            start_or_resume(&dir, campaign.config()).expect("journal reopens");
        let recovered = recovered.expect("truncated journal recovers a prefix");
        assert!(recovered.trials_recovered() > 0);
        let mut resumed_log = Logbook::new();
        let resumed = campaign.run_recoverable(
            CampaignRunOptions {
                journal: Some(&mut writer),
                recovered: Some(&recovered),
                ..CampaignRunOptions::with_jobs(8)
            },
            &mut resumed_log,
        );
        drop(writer);
        assert_eq!(resumed, golden, "resumed report diverged");
        assert_eq!(resumed_log, golden_log, "resumed trace diverged");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fires a cloned cancel token on its `fire_at`-th `on_run`, counting
    /// the runs it sees and the batches that close after the token fired.
    struct CancelOnRun {
        token: CancelToken,
        fire_at: u64,
        runs: u64,
        waves_after_fire: u64,
    }

    impl SessionObserver for CancelOnRun {
        fn on_run(
            &mut self,
            _start: serscale_types::SimInstant,
            _benchmark: serscale_workload::Benchmark,
            _verdict: crate::classify::RunVerdict,
        ) {
            self.runs += 1;
            if self.runs == self.fire_at {
                self.token.cancel();
            }
        }
        fn on_wave(&mut self, _stats: crate::trace::WaveStats) {
            self.waves_after_fire += u64::from(self.token.is_cancelled());
        }
    }

    #[test]
    fn cancelled_run_leaves_a_journal_that_resumes_bit_identically() {
        use crate::journal::{journal_path, read_journal, start_or_resume, Record};
        use crate::trace::Logbook;

        let dir =
            std::env::temp_dir().join(format!("serscale-campaign-cancel-{}", std::process::id()));
        // A session longer than the largest batch (4096 trials), so the
        // firing run lands with batches still to come; a thin beam keeps its
        // trials cheap. A cancelled run never starts the second session.
        let mut config = quick_config(14, 0.01);
        config.position = BeamPosition::halo(BeamPosition::PAPER_HALO_TRANSMISSION * 1e-2);
        config.sessions[0].1 = SessionLimits::time_boxed(SimDuration::from_minutes(300.0));
        config.sessions.truncate(2);
        let campaign = Campaign::new(config);
        let mut golden_log = Logbook::new();
        let golden = campaign.run_observed(1, &mut golden_log);

        // `fire_at == 0`: the token fired before the run started.
        for (jobs, fire_at) in [(1, 0), (1, 40), (4, 40)] {
            let _ = std::fs::remove_dir_all(&dir);
            let (mut writer, _) = start_or_resume(&dir, campaign.config()).expect("journal opens");
            let token = CancelToken::new();
            if fire_at == 0 {
                token.cancel();
            }
            let mut canceller = CancelOnRun {
                token: token.clone(),
                fire_at,
                runs: 0,
                waves_after_fire: 0,
            };
            let options = CampaignRunOptions {
                journal: Some(&mut writer),
                cancel: Some(token),
                ..CampaignRunOptions::with_jobs(jobs)
            };
            let result = campaign.try_run_recoverable(options, &mut canceller);
            drop(writer);
            let case = format!("jobs {jobs}, fire at run {fire_at}");
            assert_eq!(result, Err(Cancelled), "{case}");
            if fire_at == 0 {
                assert_eq!(canceller.runs, 0, "{case}");
                let journal = read_journal(&journal_path(&dir)).expect("journal readable");
                assert_eq!(journal, vec![Record::campaign_header(campaign.config())]);
            } else {
                // The batch holding the firing run closed, and no other did.
                assert_eq!(canceller.waves_after_fire, 1, "{case}");
            }

            // Every absorbed trial is journaled, and resuming reproduces
            // the uninterrupted report and trace.
            let (mut writer, recovered) =
                start_or_resume(&dir, campaign.config()).expect("journal reopens");
            let recovered = recovered.expect("a cancelled journal recovers");
            assert_eq!(recovered.trials_recovered(), canceller.runs, "{case}");
            let options = CampaignRunOptions {
                journal: Some(&mut writer),
                recovered: Some(&recovered),
                ..CampaignRunOptions::with_jobs(jobs)
            };
            let mut resumed_log = Logbook::new();
            let resumed = campaign.try_run_recoverable(options, &mut resumed_log);
            drop(writer);
            assert_eq!(resumed, Ok(golden.clone()), "{case}: report diverged");
            assert_eq!(resumed_log, golden_log, "{case}: trace diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn vmin_anchors_match_paper_defaults() {
        let report = Campaign::new(quick_config(6, 0.01)).run_parallel(1);
        let lookup = |f: u32| {
            report
                .vmins
                .iter()
                .find(|(freq, _)| freq.get() == f)
                .map(|(_, v)| *v)
                .expect("frequency characterized")
        };
        assert_eq!(lookup(2400), Millivolts::new(920));
        assert_eq!(lookup(900), Millivolts::new(790));
    }

    #[test]
    fn characterized_vmin_source_works() {
        let mut c = quick_config(7, 0.005);
        c.vmin_source = VminSource::Characterized { trials: 50 };
        let report = Campaign::new(c).run_parallel(1);
        // The characterization lands on (or within a step of) the paper's
        // anchors.
        for (f, v) in &report.vmins {
            let paper = DeviceUnderTest::paper_vmin(*f);
            let delta = v.get().abs_diff(paper.get());
            assert!(delta <= 5, "{f:?}: {v} vs {paper}");
        }
    }

    #[test]
    fn upset_rates_rise_across_sessions() {
        // Even an 8%-length campaign shows Table 2's rate ordering between
        // the extremes.
        let report = Campaign::new(quick_config(8, 0.08)).run_parallel(1);
        let nominal = report.baseline().unwrap().upset_rate().per_minute();
        let v790 = report
            .session_at(OperatingPoint::vmin_900())
            .unwrap()
            .upset_rate()
            .per_minute();
        assert!(v790 > nominal, "{v790} !> {nominal}");
    }

    #[test]
    fn sdc_share_explodes_at_vmin_2400() {
        let report = Campaign::new(quick_config(9, 0.1)).run_parallel(1);
        let nominal_share = report.baseline().unwrap().failure_shares()[&FailureClass::Sdc];
        let vmin_share = report
            .session_at(OperatingPoint::vmin_2400())
            .unwrap()
            .failure_shares()[&FailureClass::Sdc];
        assert!(
            vmin_share > nominal_share,
            "{vmin_share} !> {nominal_share}"
        );
        assert!(vmin_share > 0.6, "vmin SDC share = {vmin_share}");
    }
}
