//! LU — the SSOR-style regular-sparse solver kernel.
//!
//! NPB LU is a CFD application that solves a regular-sparse block system
//! with Symmetric Successive Over-Relaxation. This miniature keeps the
//! numerical heart: SSOR sweeps (forward then backward Gauss–Seidel with an
//! over-relaxation factor) over a 2-D Poisson problem, reporting the
//! residual norm trajectory like LU's verification stage.

use std::ops::Range;

use crate::kernel::{Corruption, Kernel, KernelOutput};
use crate::resume::{self, MainLoop, Snapshots};

/// The LU kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    /// Grid side; the system has `side²` unknowns.
    side: usize,
    /// SSOR sweeps.
    sweeps: usize,
    /// The forcing term per grid point (a pure function of `side`):
    /// tabulated once at construction so no sweep pays two
    /// transcendentals per point.
    forcing: Vec<f64>,
}

/// The live state of the SSOR loop at the start of a sweep.
#[derive(Debug, Clone)]
pub(crate) struct LuState {
    /// The solution grid.
    u: Vec<f64>,
    /// The residual norm after each sweep so far.
    residuals: Vec<f64>,
}

/// The over-relaxation factor (NPB LU uses ω = 1.2).
const OMEGA: f64 = 1.2;

impl Lu {
    /// A miniature class-A-shaped instance (64×64 grid, 30 sweeps).
    pub fn class_a() -> Self {
        Lu::new(64, 30)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Lu::new(12, 8)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `side < 3` or `sweeps == 0`.
    pub fn new(side: usize, sweeps: usize) -> Self {
        assert!(side >= 3, "grid side must be at least 3");
        assert!(sweeps > 0, "need at least one sweep");
        Lu {
            side,
            sweeps,
            forcing: (0..side * side)
                .map(|idx| Lu::rhs(side, idx / side, idx % side))
                .collect(),
        }
    }

    fn rhs(side: usize, i: usize, j: usize) -> f64 {
        // A smooth deterministic forcing term.
        let n = side as f64;
        let x = i as f64 / n;
        let y = j as f64 / n;
        (std::f64::consts::PI * x).sin() * (std::f64::consts::PI * y).sin()
    }

    fn residual_norm(&self, u: &[f64]) -> f64 {
        let n = self.side;
        let rhs = &self.forcing[..];
        let mut sum = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let idx = i * n + j;
                let lap = 4.0 * u[idx] - u[idx - n] - u[idx + n] - u[idx - 1] - u[idx + 1];
                let r = rhs[idx] - lap;
                sum += r * r;
            }
        }
        sum.sqrt()
    }
}

impl MainLoop for Lu {
    type State = LuState;
    type Table = Snapshots<LuState>;

    fn iterations(&self) -> usize {
        self.sweeps
    }

    fn start(&self) -> LuState {
        LuState {
            u: vec![0.0f64; self.side * self.side],
            residuals: Vec::with_capacity(self.sweeps),
        }
    }

    fn steps(&self, state: &mut LuState, iterations: Range<usize>) -> bool {
        let n = self.side;
        let rhs = &self.forcing[..];
        let u = &mut state.u[..];
        for _ in iterations {
            // Forward Gauss–Seidel with over-relaxation.
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let idx = i * n + j;
                    let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                    u[idx] += OMEGA * (gs - u[idx]);
                }
            }
            // Backward sweep (the "symmetric" in SSOR).
            for i in (1..n - 1).rev() {
                for j in (1..n - 1).rev() {
                    let idx = i * n + j;
                    let gs = (rhs[idx] + u[idx - n] + u[idx + n] + u[idx - 1] + u[idx + 1]) / 4.0;
                    u[idx] += OMEGA * (gs - u[idx]);
                }
            }
            state.residuals.push(self.residual_norm(u));
        }
        true
    }

    fn inject(&self, state: &mut LuState, corruption: Corruption) {
        corruption.apply(&mut state.u);
    }

    fn finish(&self, state: LuState) -> KernelOutput {
        let LuState { u, residuals } = state;
        let final_residual = *residuals.last().expect("at least one sweep");
        let usum: f64 = u.iter().sum();
        let mut values = vec![final_residual, usum];
        values.extend(residuals.iter().copied());
        KernelOutput::new(values, u)
    }

    /// Snapshots at two evenly spaced sweeps.
    fn record(&self) -> Snapshots<LuState> {
        let stride = (self.sweeps / 3).max(1);
        Snapshots::record(self, stride, stride)
    }

    fn resume(&self, table: &Snapshots<LuState>, at: usize) -> (usize, LuState) {
        table.resume(self, at)
    }
}

impl Kernel for Lu {
    fn name(&self) -> &'static str {
        "LU"
    }

    fn run(&self) -> KernelOutput {
        resume::run_clean(self)
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        resume::run_corrupted(self, corruption)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resume::tests::{assert_resume_exact, Footprint};

    impl Footprint for LuState {
        fn bytes(&self) -> usize {
            self.u.bytes() + self.residuals.bytes()
        }
    }

    #[test]
    fn deterministic() {
        let lu = Lu::class_a();
        assert_eq!(lu.run(), lu.run());
    }

    #[test]
    fn residual_decreases_monotonically() {
        let out = Lu::class_a().run();
        // values[2..] is the residual trajectory.
        let residuals = &out.values[2..];
        for pair in residuals.windows(2) {
            assert!(pair[1] <= pair[0] * 1.0001, "{} -> {}", pair[0], pair[1]);
        }
        // SSOR on a 64×64 grid converges slowly (spectral radius near 1);
        // 30 sweeps buy a solid but not dramatic reduction.
        assert!(residuals.last().unwrap() < &(residuals[0] * 0.9));
    }

    #[test]
    fn solution_is_positive_bump() {
        // -∇²u = sin·sin forcing with zero boundary ⇒ positive interior.
        let out = Lu::class_a().run();
        assert!(out.values[1] > 0.0, "sum(u) = {}", out.values[1]);
    }

    #[test]
    fn corruption_mid_solve_changes_state() {
        let lu = Lu::class_a();
        let golden = lu.golden();
        let corrupted = lu.run_corrupted(Corruption::new(0.9, 2000, 55));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn ssor_tolerates_and_repairs_small_early_upsets() {
        // Relaxation smooths early perturbations away: final residual stays
        // close to golden even though bit-exact state differs.
        let lu = Lu::class_a();
        let golden = lu.golden();
        let corrupted = lu.run_corrupted(Corruption::new(0.1, 2000, 30));
        let rel = (corrupted.values[0] - golden.values[0]).abs() / golden.values[0].max(1e-30);
        assert!(
            rel < 0.5,
            "early small upset should not derail convergence (rel = {rel})"
        );
    }

    #[test]
    fn resume_matches_a_run_from_the_start() {
        let tiny = Lu::tiny();
        let points = tiny.record().iterations();
        assert_resume_exact(tiny, &points, 200);
        let lu = Lu::class_a();
        let points = lu.record().iterations();
        assert_resume_exact(lu, &points, 2);
    }

    #[test]
    fn boundary_stays_zero() {
        let lu = Lu::tiny();
        let out = lu.run();
        // usum of a 12×12 grid with zero boundary: reconstruct by re-running
        // and checking the checksum is stable (boundary handled inside).
        assert_eq!(out, lu.run());
    }
}
