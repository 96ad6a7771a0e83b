//! Figure-grid benchmark for the COSMOS simulator.
//!
//! One process runs one figure grid: it generates the workload's traces
//! from a seed, fans the grid's jobs over the experiment runner, checks
//! every job's statistics against committed digests, and emits a result
//! document. The untraced run reports end-to-end metrics; the traced run
//! recomposes each simulation from the layer calls ([`recompose`]) and
//! reports per-layer metrics. See `README.md` beside this crate.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process usage through the 64-bit Linux rusage ABI");

pub mod bench;
pub mod digest;
pub mod grid;
pub mod host;
pub mod metrics;
pub mod recompose;
