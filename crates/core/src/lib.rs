//! The COSMOS secure-memory simulator.
//!
//! This crate wires the substrates together into a trace-driven,
//! latency-composed timing model of the paper's system:
//!
//! - a multi-core cache hierarchy (per-core L1/L2, shared LLC) over the
//!   [`cosmos_cache`] substrate,
//! - the memory-controller secure path: CTR cache (LRU or LCR), Merkle-tree
//!   metadata cache, MAC traffic, counter increments with MorphCtr
//!   re-encryption, over [`cosmos_secure`] and [`cosmos_dram`],
//! - the two RL predictors from [`cosmos_rl`],
//! - six **designs** ([`Design`]): non-protected (NP), the MorphCtr
//!   baseline, an EMCC-like early-CTR variant, COSMOS-DP, COSMOS-CP, and
//!   full COSMOS (paper Table 4),
//! - statistics ([`SimStats`]): IPC, traffic breakdown, CTR cache miss
//!   rate, SMAT (paper Eq. 1–2), predictor quality, and convergence
//!   timelines,
//! - the Table-2 storage-overhead model ([`overhead`]).
//!
//! # Examples
//!
//! ```no_run
//! use cosmos_core::{Design, SimConfig, Simulator};
//! use cosmos_workloads::{TraceSpec, Workload, graph::GraphKernel};
//!
//! let trace = Workload::Graph(GraphKernel::Dfs).generate(&TraceSpec::small_test(1));
//! let config = SimConfig::paper_default(Design::Cosmos);
//! let stats = Simulator::new(config).run(&trace);
//! println!("IPC = {:.3}", stats.ipc());
//! ```

pub mod check;
pub mod config;
pub mod estimate;
pub mod front_end;
pub mod hierarchy;
pub mod overhead;
pub mod secure_path;
pub mod simulator;
pub mod smat;
pub mod stats;
pub mod timing;

pub use check::SecureObserver;
pub use config::{Design, SimConfig};
pub use estimate::StatsEstimate;
pub use front_end::{FrontEndStream, HierarchyKey};
pub use simulator::Simulator;
pub use stats::{SimStats, TimelinePoint, TrafficBreakdown};
