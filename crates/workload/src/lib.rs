//! # serscale-workload
//!
//! The workload substrate: executable miniature versions of the six NAS
//! Parallel Benchmarks the paper ran (CG, EP, FT, IS, LU, MG — §3.3), plus
//! the per-benchmark sensitivity profiles that drive the fault-propagation
//! model.
//!
//! ## Why real kernels?
//!
//! The paper's SDC detector is "compare the application output against a
//! golden reference". To exercise that code path honestly, the simulator
//! needs applications that *compute something*: each kernel here is a
//! scaled-down but algorithmically faithful implementation of its NPB
//! namesake (a conjugate-gradient solve, a Gaussian-pair Monte Carlo, a 3-D
//! FFT, a bucket sort, an SSOR sweep, a multigrid V-cycle), deterministic
//! down to the bit, with a checksum-comparable output. Corruption injection
//! ([`kernel::Corruption`]) flips a bit of the working state mid-run, and
//! the output either changes (an SDC the harness catches by golden
//! comparison) or doesn't (logical masking — which is why SER studies need
//! per-workload AVFs at all).
//!
//! ## Clean-prefix resume
//!
//! Everything a corrupted run computes before the flip is the clean run,
//! bit for bit. So the shared kernels of [`Benchmark::shared_kernel`]
//! record, in one clean run on their first `run_corrupted`, the clean
//! live state at a few main-loop iterations, and every corrupted run
//! resumes from the last of them at or before its injection iteration,
//! through the same loop body the clean run uses. The tables (CG every 12
//! iterations, LU every 10 sweeps, FT after the forward FFT and after each
//! step, EP every 1,024 pairs; about 420 KiB in all) are built once per
//! process. IS keeps no snapshot: its clean prefix only perturbs two keys
//! per iteration, which it replays on its initial keys. MG keeps none
//! either, since its one 256 KiB state would not fit that budget. `run`
//! and `golden` record nothing, and the kernels of [`Benchmark::kernel`]
//! run every corrupted run from iteration 0.
//!
//! ## Profiles
//!
//! [`profile::WorkloadProfile`] carries the measurable per-benchmark
//! characteristics the campaign model needs: class-A runtime, the
//! detection-efficiency factor (how much of the raw cache upset rate this
//! benchmark's access pattern surfaces — calibrated against Figure 5), the
//! probability that consumed corrupt data escapes masking, and relative
//! power draw.
//!
//! ## Example
//!
//! ```
//! use serscale_workload::{Benchmark, kernel::Kernel};
//!
//! let cg = Benchmark::Cg.kernel();
//! let golden = cg.run();
//! // Deterministic: a healthy re-run reproduces the golden output.
//! assert_eq!(cg.run(), golden);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cg;
pub mod ep;
pub mod ft;
pub mod is;
pub mod kernel;
pub mod lu;
pub mod mg;
pub mod parallel;
pub mod profile;
mod resume;
pub mod virus;

pub use kernel::{Corruption, Kernel, KernelOutput};
pub use parallel::{run_suite_parallel, EpParallel};
pub use profile::{Benchmark, WorkloadProfile};
pub use virus::MicroVirus;
