//! Clean-prefix resume: corrupted runs that start where the flip lands.
//!
//! Everything a corrupted run computes before its injection iteration is,
//! bit for bit, the clean run. Each kernel that can resume exposes its
//! main loop as a [`MainLoop`] — a start state, a loop body over a range
//! of iterations, an injection and a finish — plus a table one clean run
//! records (snapshots of the live state, or whatever else restores an
//! iteration). A bare kernel's corrupted run goes through the loop from
//! iteration 0; a [`Resumed`] kernel records the table on its first
//! corrupted run and resumes every corrupted run from the latest restorable
//! iteration at or before [`Corruption::iteration`], through the same loop
//! body. `run` and `golden` never record anything.

use std::ops::Range;
use std::sync::OnceLock;

use crate::kernel::{Corruption, Kernel, KernelOutput};

/// A kernel's main loop, cut so that a run can start at any iteration from
/// a saved live state.
pub(crate) trait MainLoop {
    /// Everything the loop carries from one iteration into the next.
    type State;

    /// What one clean run records to restore later iterations.
    type Table;

    /// Iterations of a complete run: the range [`Corruption::iteration`]
    /// maps onto.
    fn iterations(&self) -> usize;

    /// The clean live state at the start of iteration 0.
    fn start(&self) -> Self::State;

    /// Runs the loop body over `iterations`. Returns `false` when the loop
    /// ended early (CG's breakdown guard), after which nothing changes the
    /// state any more.
    fn steps(&self, state: &mut Self::State, iterations: Range<usize>) -> bool;

    /// Flips the corruption's bit in the live state.
    fn inject(&self, state: &mut Self::State, corruption: Corruption);

    /// The output of a finished loop.
    fn finish(&self, state: Self::State) -> KernelOutput;

    /// Records the table with one clean run.
    fn record(&self) -> Self::Table;

    /// The clean live state at the latest iteration at or before `at` that
    /// `table` restores, with that iteration.
    fn resume(&self, table: &Self::Table, at: usize) -> (usize, Self::State);
}

/// A fault-free run: the whole loop from the start state.
pub(crate) fn run_clean<K: MainLoop>(kernel: &K) -> KernelOutput {
    let mut state = kernel.start();
    kernel.steps(&mut state, 0..kernel.iterations());
    kernel.finish(state)
}

/// A corrupted run through the whole loop from iteration 0.
pub(crate) fn run_corrupted<K: MainLoop>(kernel: &K, corruption: Corruption) -> KernelOutput {
    run_corrupted_from(kernel, corruption, (0, kernel.start()))
}

/// A corrupted run from the clean live state `state` at iteration `from`
/// (at or before the injection iteration).
fn run_corrupted_from<K: MainLoop>(
    kernel: &K,
    corruption: Corruption,
    (from, mut state): (usize, K::State),
) -> KernelOutput {
    let total = kernel.iterations();
    let at = corruption.iteration(total);
    // A loop that ends before `at` never sees the flip.
    if kernel.steps(&mut state, from..at) {
        kernel.inject(&mut state, corruption);
        kernel.steps(&mut state, at..total);
    }
    kernel.finish(state)
}

/// A kernel whose corrupted runs resume from its clean-run table, which
/// the first corrupted run records.
pub(crate) struct Resumed<K: MainLoop> {
    kernel: K,
    table: OnceLock<K::Table>,
}

impl<K: MainLoop> Resumed<K> {
    /// Wraps `kernel`; nothing is recorded yet.
    pub(crate) fn new(kernel: K) -> Self {
        Resumed {
            kernel,
            table: OnceLock::new(),
        }
    }
}

impl<K: MainLoop + Kernel> Kernel for Resumed<K> {
    fn name(&self) -> &'static str {
        self.kernel.name()
    }

    fn run(&self) -> KernelOutput {
        self.kernel.run()
    }

    fn run_corrupted(&self, corruption: Corruption) -> KernelOutput {
        let table = self.table.get_or_init(|| self.kernel.record());
        let at = corruption.iteration(self.kernel.iterations());
        run_corrupted_from(&self.kernel, corruption, self.kernel.resume(table, at))
    }
}

/// Clean live states at iterations `first`, `first + stride`, … below the
/// kernel's total.
pub(crate) struct Snapshots<S> {
    first: usize,
    stride: usize,
    states: Vec<S>,
}

impl<S: Clone> Snapshots<S> {
    /// One clean run of `kernel`, cut at every snapshot iteration. The loop
    /// runs in chunks between snapshots, so the loop body never tests
    /// whether to record.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub(crate) fn record<K: MainLoop<State = S>>(kernel: &K, first: usize, stride: usize) -> Self {
        let mut state = kernel.start();
        let mut states = Vec::new();
        let mut done = 0;
        for next in (first..kernel.iterations()).step_by(stride) {
            if !kernel.steps(&mut state, done..next) {
                break;
            }
            states.push(state.clone());
            done = next;
        }
        Snapshots {
            first,
            stride,
            states,
        }
    }

    /// [`MainLoop::resume`] from these snapshots.
    pub(crate) fn resume<K: MainLoop<State = S>>(&self, kernel: &K, at: usize) -> (usize, S) {
        match at.checked_sub(self.first) {
            Some(past) if !self.states.is_empty() => {
                let k = (past / self.stride).min(self.states.len() - 1);
                (self.first + k * self.stride, self.states[k].clone())
            }
            _ => (0, kernel.start()),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cg::Cg;
    use crate::ep::Ep;
    use crate::ft::Ft;
    use crate::is::Is;
    use crate::kernel::NpbRandom;
    use crate::lu::Lu;

    /// Bytes a recorded table holds, inline and on the heap.
    pub(crate) trait Footprint {
        fn bytes(&self) -> usize;
    }

    impl Footprint for Vec<f64> {
        fn bytes(&self) -> usize {
            std::mem::size_of_val(self.as_slice())
        }
    }

    impl<S: Footprint> Footprint for Snapshots<S> {
        fn bytes(&self) -> usize {
            self.states.iter().map(Footprint::bytes).sum()
        }
    }

    impl<S> Snapshots<S> {
        /// The iterations the snapshots were taken at.
        pub(crate) fn iterations(&self) -> Vec<usize> {
            (0..self.states.len())
                .map(|k| self.first + k * self.stride)
                .collect()
        }
    }

    impl<K: MainLoop> Resumed<K>
    where
        K::Table: Footprint,
    {
        fn table_bytes(&self) -> Option<usize> {
            self.table.get().map(Footprint::bytes)
        }
    }

    /// Checks that the resumed corrupted runs of `kernel` equal its corrupted
    /// runs from iteration 0: at fractions 0.0 and 0.999, exactly on and one
    /// iteration before each of `resume_points`, and at `seeded` random
    /// coordinates.
    pub(crate) fn assert_resume_exact<K: MainLoop + Kernel + Clone>(
        kernel: K,
        resume_points: &[usize],
        seeded: usize,
    ) {
        let total = kernel.iterations();
        let on = |it: usize| (it as f64 + 0.5) / total as f64;
        let mut fractions = vec![0.0, 0.999];
        for &it in resume_points {
            fractions.push(on(it));
            if it > 0 {
                fractions.push(on(it - 1));
            }
        }
        let mut rng = NpbRandom::new(resume_points.len() as u64 ^ total as u64);
        let mut corruptions: Vec<Corruption> = fractions
            .into_iter()
            .map(|f| Corruption::new(f, rng.next_u64() as usize % (1 << 20), 62))
            .collect();
        corruptions.extend((0..seeded).map(|_| {
            Corruption::new(
                rng.next_f64() * 0.999,
                rng.next_u64() as usize % (1 << 20),
                (rng.next_u64() % 64) as u8,
            )
        }));
        // Bit patterns, not `==`: a flipped exponent can make values NaN.
        let bits = |out: KernelOutput| {
            let values: Vec<u64> = out.values.iter().map(|v| v.to_bits()).collect();
            (values, out.checksum)
        };
        let resumed = Resumed::new(kernel.clone());
        for c in corruptions {
            assert_eq!(
                bits(resumed.run_corrupted(c)),
                bits(kernel.run_corrupted(c)),
                "{} {c:?}",
                kernel.name()
            );
        }
    }

    #[test]
    #[ignore = "release-mode soak: cargo test --release -p serscale-workload -- --ignored"]
    fn class_a_resume_is_exact_over_thousands_of_corruptions() {
        let cg = Cg::class_a();
        assert_resume_exact(cg, &cg.record().iterations(), 2_000);
        let ep = Ep::class_a();
        assert_resume_exact(ep, &ep.record().iterations(), 2_000);
        let ft = Ft::class_a();
        assert_resume_exact(ft, &ft.record().iterations(), 2_000);
        let is = Is::class_a();
        let points: Vec<usize> = (0..is.iterations()).collect();
        assert_resume_exact(is, &points, 2_000);
        let lu = Lu::class_a();
        let points = lu.record().iterations();
        assert_resume_exact(lu, &points, 2_000);
    }

    /// The class-A kernels that resume, wrapped the way the shared kernels
    /// are. MG keeps no table: its one 256 KiB state would not fit the
    /// budget.
    struct ClassA {
        cg: Resumed<Cg>,
        ep: Resumed<Ep>,
        ft: Resumed<Ft>,
        is: Resumed<Is>,
        lu: Resumed<Lu>,
    }

    impl ClassA {
        fn new() -> Self {
            ClassA {
                cg: Resumed::new(Cg::class_a()),
                ep: Resumed::new(Ep::class_a()),
                ft: Resumed::new(Ft::class_a()),
                is: Resumed::new(Is::class_a()),
                lu: Resumed::new(Lu::class_a()),
            }
        }

        fn kernels(&self) -> [&dyn Kernel; 5] {
            [&self.cg, &self.ep, &self.ft, &self.is, &self.lu]
        }

        fn tables(&self) -> [Option<usize>; 5] {
            [
                self.cg.table_bytes(),
                self.ep.table_bytes(),
                self.ft.table_bytes(),
                self.is.table_bytes(),
                self.lu.table_bytes(),
            ]
        }
    }

    #[test]
    fn clean_runs_record_no_table() {
        let class_a = ClassA::new();
        for kernel in class_a.kernels() {
            kernel.golden();
            kernel.run();
        }
        assert_eq!(class_a.tables(), [None; 5]);
    }

    #[test]
    fn class_a_tables_fit_in_512_kib() {
        let class_a = ClassA::new();
        for kernel in class_a.kernels() {
            kernel.run_corrupted(Corruption::new(0.5, 1, 1));
        }
        let total: usize = class_a
            .tables()
            .into_iter()
            .map(|bytes| bytes.expect("recorded by the corrupted run"))
            .sum();
        assert!(total <= 512 * 1024, "tables hold {total} bytes");
    }
}
