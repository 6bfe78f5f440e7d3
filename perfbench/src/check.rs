//! Correctness accounting: every operation a run attempts is tallied,
//! and every failed check or refused request counts against
//! `error_rate`.

use serscale_core::campaign::CampaignReport;
use serscale_core::report::golden_summary;

/// Attempted and failed operations of one run, with the first failures
/// kept for the error log.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted (campaigns, checks, requests).
    pub attempted: u64,
    /// Operations that failed, were refused or did not check out.
    pub failed: u64,
    /// Descriptions of the first few failures.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(reason);
            }
        }
    }

    /// Folds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 16 {
                self.failures.push(f);
            }
        }
    }

    /// Whether every operation succeeded.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }

    /// Failed share of attempted operations.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Two texts must be byte-identical; the error names the first line
/// that differs.
pub fn same_text(what: &str, expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let line = expected
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.lines().count().min(got.lines().count()));
    Err(format!(
        "{what}: differs from the reference at line {}",
        line + 1
    ))
}

/// Two campaign reports must be bit-identical, value for value and in
/// their golden rendering.
pub fn same_report(
    what: &str,
    expected: &CampaignReport,
    got: &CampaignReport,
) -> Result<(), String> {
    same_text(what, &golden_summary(expected), &golden_summary(got))?;
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: report values differ from the reference"))
    }
}

/// An HTTP exchange must have answered 2xx.
pub fn http_ok(path: &str, status: u16) -> Result<(), String> {
    if (200..300).contains(&status) {
        Ok(())
    } else {
        Err(format!("{path}: HTTP {status}"))
    }
}
