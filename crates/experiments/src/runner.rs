//! Parallel job-grid executor for the experiment sweeps.
//!
//! Every figure harness runs a grid of *independent* simulations
//! (design × kernel × sweep point). This module turns that grid into a
//! [`Job`] list and fans it out over a worker pool:
//!
//! - workers are plain [`std::thread::scope`] threads (no external
//!   crates), sized by [`Args::jobs`](crate::Args) — i.e. `--jobs N`,
//!   `COSMOS_JOBS`, or the machine's available parallelism,
//! - traces are shared **by reference** into the scope: a multi-million
//!   access `Trace` is generated once and never cloned,
//! - work the jobs would repeat is done once per grid: designs over one
//!   trace and cache hierarchy replay one recorded L1/L2/LLC front end,
//!   and sampled jobs over one trace share one sampling plan,
//! - results come back in **job order**, no matter which worker finished
//!   when, so serial and parallel runs produce byte-identical reports.
//!
//! Each simulation is itself single-threaded and deterministic (seeded
//! [`SplitMix64`](cosmos_common::SplitMix64) streams), so the only source
//! of nondeterminism a pool could introduce is result ordering — which the
//! index-tagged merge below removes.
//!
//! # Examples
//!
//! ```
//! use cosmos_experiments::runner::{run_jobs, Job};
//! use cosmos_core::Design;
//! use cosmos_workloads::{TraceSpec, Workload};
//!
//! let spec = TraceSpec::small_test(7).with_accesses(2000);
//! let trace = Workload::Spec(cosmos_workloads::spec::SpecKind::Mcf).generate(&spec);
//! let jobs = vec![
//!     Job::new("np", Design::Np, &trace, 1),
//!     Job::new("morph", Design::MorphCtr, &trace, 1)
//!         .with_tweak(|c| c.ctr_cache.size_bytes = 64 * 1024),
//! ];
//! let results = run_jobs(jobs, 2);
//! assert_eq!(results[0].label, "np");
//! assert_eq!(results[1].label, "morph");
//! ```

use cosmos_common::Trace;
use cosmos_core::{Design, FrontEndStream, HierarchyKey, SimConfig, SimStats, Simulator};
use cosmos_sampling::{run_sampled, SamplingConfig, SamplingPlan};
use cosmos_telemetry::Telemetry;
use cosmos_verify::CheckReport;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A configuration tweak applied on top of [`SimConfig::paper_default`].
///
/// `Send + Sync` because workers apply tweaks from pool threads; the
/// lifetime lets closures capture locals of the harness (sweep values).
pub type Tweak<'a> = Box<dyn Fn(&mut SimConfig) + Send + Sync + 'a>;

/// One independent simulation point in a grid.
pub struct Job<'a> {
    /// Label carried through to the result (kernel name, sweep value, …).
    pub label: String,
    /// Design variant to simulate.
    pub design: Design,
    /// The input trace, shared by reference — never cloned.
    pub trace: &'a Trace,
    /// Predictor/exploration seed.
    pub seed: u64,
    /// Optional configuration tweak (sweep parameter overrides).
    pub tweak: Option<Tweak<'a>>,
    /// Sampled mode: simulate representative intervals under this
    /// configuration instead of the full trace.
    pub sample: Option<SamplingConfig>,
    /// Checked mode (`--check`): run the `cosmos-verify` oracles in
    /// lockstep. Statistics stay byte-identical; violations go to stderr.
    pub check: bool,
    /// Telemetry handle threaded into the simulation (`--telemetry`);
    /// disabled by default. Observational only.
    pub telemetry: Telemetry,
}

impl<'a> Job<'a> {
    /// A job running `design` with the paper-default configuration.
    pub fn new(label: impl Into<String>, design: Design, trace: &'a Trace, seed: u64) -> Self {
        Self {
            label: label.into(),
            design,
            trace,
            seed,
            tweak: None,
            sample: None,
            check: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Adds a configuration tweak, applied after `seed` is set.
    #[must_use]
    pub fn with_tweak(mut self, tweak: impl Fn(&mut SimConfig) + Send + Sync + 'a) -> Self {
        self.tweak = Some(Box::new(tweak));
        self
    }

    /// Switches the job to sampled mode (`None` keeps the full run) —
    /// thread [`Args::sampling`](crate::Args::sampling) through here.
    #[must_use]
    pub fn with_sample(mut self, sample: Option<SamplingConfig>) -> Self {
        self.sample = sample;
        self
    }

    /// Switches the job to checked mode — thread
    /// [`Args::check`](crate::Args) through here. The oracles observe,
    /// never perturb: statistics (and therefore result artifacts) are
    /// byte-identical with and without checking.
    #[must_use]
    pub fn with_check(mut self, check: bool) -> Self {
        self.check = check;
        self
    }

    /// Attaches a telemetry handle — thread
    /// [`Args::telemetry`](crate::Args) (scoped per job) through here.
    /// Hooks observe only; results stay byte-identical.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The configuration the job simulates under: the paper default for
    /// its design, its seed, its tweak, then its telemetry handle.
    fn config(&self) -> SimConfig {
        let mut config = SimConfig::paper_default(self.design);
        config.seed = self.seed;
        if let Some(tweak) = &self.tweak {
            tweak(&mut config);
        }
        config.telemetry = self.telemetry.clone();
        config
    }

    /// What this job can share with other jobs of its grid, given its
    /// `config`: a sampled job shares its plan with every job sampling the
    /// same trace the same way; a full run that is neither checked nor
    /// observed shares its front end with every such job over the same
    /// trace and hierarchy. Checked and telemetry jobs run the whole
    /// simulator live, so the oracles and hooks see every cache level.
    fn share_key(&self, config: &SimConfig) -> Option<ShareKey> {
        let trace = std::ptr::from_ref(self.trace).addr();
        match self.sample {
            Some(sampling) => Some(ShareKey::Plan(trace, sampling)),
            None if !self.check && !self.telemetry.is_enabled() => {
                Some(ShareKey::FrontEnd(trace, HierarchyKey::of(config)))
            }
            None => None,
        }
    }

    /// Builds the input shared under `key`, for every job of its group.
    fn prepare(&self, config: &SimConfig, key: ShareKey) -> Shared {
        match key {
            ShareKey::FrontEnd(..) => {
                Shared::FrontEnd(Arc::new(FrontEndStream::record(config, self.trace)))
            }
            ShareKey::Plan(_, sampling) => Shared::Plan(SamplingPlan::build(self.trace, &sampling)),
        }
    }

    fn execute(&self, config: &SimConfig, shared: Option<&Shared>) -> JobResult {
        let config = config.clone();
        let _sim_phase = self.telemetry.phase("sim");
        let (stats, simulated_accesses) = match (shared, self.check) {
            (Some(Shared::Plan(plan)), false) => {
                let run = run_sampled(&config, self.trace, plan);
                (run.stats, run.simulated_accesses)
            }
            (Some(Shared::Plan(plan)), true) => {
                let (run, report) = cosmos_verify::run_checked_sampled(&config, self.trace, plan);
                self.report_check(&report);
                (run.stats, run.simulated_accesses)
            }
            (Some(Shared::FrontEnd(stream)), _) => {
                let stats = Simulator::replaying(config, Arc::clone(stream)).run(self.trace);
                let simulated = stats.accesses;
                (stats, simulated)
            }
            (None, false) => {
                let stats = Simulator::new(config).run(self.trace);
                let simulated = stats.accesses;
                (stats, simulated)
            }
            (None, true) => {
                let (stats, report) = cosmos_verify::run_checked(&config, self.trace);
                self.report_check(&report);
                let simulated = stats.accesses;
                (stats, simulated)
            }
        };
        JobResult {
            label: self.label.clone(),
            design: self.design,
            stats,
            simulated_accesses,
        }
    }

    /// Surfaces oracle findings on stderr, away from the result tables
    /// and JSON on stdout/disk (which must not change under `--check`).
    fn report_check(&self, report: &CheckReport) {
        if report.is_clean() {
            return;
        }
        eprintln!("verify[{}]: {}", self.label, report.summary());
        for v in report.violations.iter().take(16) {
            eprintln!("verify[{}]:   {v}", self.label);
        }
    }
}

/// The outcome of one [`Job`].
#[derive(Clone, Debug, PartialEq)]
pub struct JobResult {
    /// The job's label, verbatim.
    pub label: String,
    /// The design that ran.
    pub design: Design,
    /// Everything the simulation measured (in sampled mode: the
    /// reconstructed full-trace estimate).
    pub stats: SimStats,
    /// Accesses actually simulated — equals `stats.accesses` for full
    /// runs, fewer in sampled mode.
    pub simulated_accesses: u64,
}

/// Which jobs of a grid share one prepared input: the trace (by address)
/// and what the input depends on besides it.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ShareKey {
    /// A recorded front end: the hierarchy it was recorded under.
    FrontEnd(usize, HierarchyKey),
    /// A sampling plan: the configuration it was built under.
    Plan(usize, SamplingConfig),
}

/// An input prepared once and used by every job of its group.
enum Shared {
    FrontEnd(Arc<FrontEndStream>),
    Plan(SamplingPlan),
}

/// Each job's share key. A front end only one job would replay is
/// cheaper to simulate live, so such a job gets none.
fn share_keys(jobs: &[Job<'_>], configs: &[SimConfig]) -> Vec<Option<ShareKey>> {
    let keys: Vec<Option<ShareKey>> = jobs
        .iter()
        .zip(configs)
        .map(|(job, config)| job.share_key(config))
        .collect();
    keys.iter()
        .map(|&key| match key {
            Some(ShareKey::FrontEnd(..)) if keys.iter().filter(|k| **k == key).count() < 2 => None,
            key => key,
        })
        .collect()
}

/// Runs `jobs` on up to `workers` threads, returning results **in job
/// order**.
///
/// Work that jobs of one grid would repeat is done once, on the pool,
/// before the jobs fan out:
///
/// - full runs that are neither checked nor observed by telemetry share
///   one recorded front end per (trace, L1/L2/LLC geometry after tweaks)
///   and replay it ([`Simulator::replaying`]), when at least two of them
///   share it;
/// - sampled jobs share one [`SamplingPlan`] per (trace,
///   [`SamplingConfig`]).
///
/// Both inputs are pure functions of what their group shares, so every
/// result is byte-identical to running its job alone, for any `workers`.
///
/// `workers` is clamped to `1..=jobs.len()`; with one worker (or one job)
/// the pool is skipped entirely and the grid runs inline on the calling
/// thread. Workers pull the next unstarted job from a shared atomic
/// cursor, so long jobs don't serialize behind short ones.
///
/// # Panics
///
/// Propagates a panic from any job (the remaining jobs may or may not have
/// run).
pub fn run_jobs(jobs: Vec<Job<'_>>, workers: usize) -> Vec<JobResult> {
    let configs: Vec<SimConfig> = jobs.iter().map(Job::config).collect();
    let keys = share_keys(&jobs, &configs);

    // Distinct keys in first-appearance order, each prepared by its first
    // job; `group[i]` indexes job i's.
    let mut distinct: Vec<(ShareKey, usize)> = Vec::new();
    let group: Vec<Option<usize>> = keys
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let key = (*key)?;
            Some(
                distinct
                    .iter()
                    .position(|(k, _)| *k == key)
                    .unwrap_or_else(|| {
                        distinct.push((key, i));
                        distinct.len() - 1
                    }),
            )
        })
        .collect();
    let prepare: Vec<Task<'_, Shared>> = distinct
        .iter()
        .map(|&(key, i)| {
            let (job, config) = (&jobs[i], &configs[i]);
            Box::new(move || job.prepare(config, key)) as Task<'_, Shared>
        })
        .collect();
    let shared = run_tasks(prepare, workers);

    let tasks: Vec<Task<'_, JobResult>> = jobs
        .iter()
        .zip(&configs)
        .zip(group)
        .map(|((job, config), group)| {
            let shared = group.map(|g| &shared[g]);
            Box::new(move || job.execute(config, shared)) as Task<'_, JobResult>
        })
        .collect();
    run_tasks(tasks, workers)
}

/// An arbitrary independent unit of work for [`run_tasks`]. `Fn` (not
/// `FnOnce`) so workers can share the list by reference; capture inputs by
/// reference and return owned results.
pub type Task<'a, T> = Box<dyn Fn() -> T + Send + Sync + 'a>;

/// Runs independent closures on up to `workers` threads, returning results
/// **in task order** — the closure-shaped sibling of [`run_jobs`] for
/// grids that aren't plain design×trace simulations (e.g. the
/// occupancy-channel sweep, whose cells build their own epoch traces).
/// Same pool shape: an atomic cursor hands out the next unstarted task, a
/// final index-tagged sort restores submission order, and with one worker
/// (or one task) everything runs inline on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any task (the remaining tasks may or may not
/// have run).
pub fn run_tasks<T: Send>(tasks: Vec<Task<'_, T>>, workers: usize) -> Vec<T> {
    let workers = workers.clamp(1, tasks.len().max(1));
    if workers == 1 {
        return tasks.iter().map(|t| t()).collect();
    }

    let cursor = AtomicUsize::new(0);
    let tasks = &tasks;
    let mut tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        out.push((i, task()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    tagged.sort_unstable_by_key(|(i, _)| *i);
    debug_assert!(tagged.iter().enumerate().all(|(k, (i, _))| k == *i));
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphSet;
    use cosmos_workloads::graph::GraphKernel;
    use cosmos_workloads::{TraceSpec, Workload};

    fn build_grid<'a>(traces: &'a [(String, Trace)]) -> Vec<Job<'a>> {
        let designs = [Design::Np, Design::MorphCtr, Design::Cosmos];
        let mut jobs = Vec::new();
        for (name, trace) in traces {
            for design in designs {
                jobs.push(Job::new(format!("{name}/{design}"), design, trace, 42));
            }
        }
        // A tweaked job, to cover the sweep-override path.
        jobs.push(
            Job::new("tweaked", Design::MorphCtr, &traces[0].1, 42)
                .with_tweak(|c| c.ctr_cache.size_bytes = 64 * 1024),
        );
        jobs
    }

    fn test_traces() -> Vec<(String, Trace)> {
        let set = GraphSet::new(TraceSpec::small_test(7).with_accesses(2500));
        vec![
            ("bfs".to_string(), set.trace(GraphKernel::Bfs)),
            (
                "chase".to_string(),
                Workload::Spec(cosmos_workloads::spec::SpecKind::Mcf)
                    .generate(&TraceSpec::small_test(9).with_accesses(2500)),
            ),
        ]
    }

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let traces = test_traces();
        let serial = run_jobs(build_grid(&traces), 1);
        let parallel = run_jobs(build_grid(&traces), 4);
        assert_eq!(serial.len(), parallel.len());
        // Identical SimStats, not just identical summaries.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn results_come_back_in_job_order() {
        let traces = test_traces();
        for workers in [1, 2, 8] {
            let results = run_jobs(build_grid(&traces), workers);
            let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
            assert_eq!(
                labels,
                [
                    "bfs/NP",
                    "bfs/MorphCtr",
                    "bfs/COSMOS",
                    "chase/NP",
                    "chase/MorphCtr",
                    "chase/COSMOS",
                    "tweaked",
                ],
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn oversized_pool_is_clamped() {
        let traces = test_traces();
        let jobs = vec![Job::new("only", Design::Np, &traces[0].1, 1)];
        let results = run_jobs(jobs, 64);
        assert_eq!(results.len(), 1);
        assert!(results[0].stats.accesses > 0);
    }

    #[test]
    fn empty_grid_is_fine() {
        assert!(run_jobs(Vec::new(), 8).is_empty());
    }

    #[test]
    fn tasks_come_back_in_order_for_any_pool_size() {
        let inputs: Vec<usize> = (0..23).collect();
        for workers in [1, 2, 8, 64] {
            let tasks: Vec<Task<'_, usize>> = inputs
                .iter()
                .map(|&i| Box::new(move || i * i) as Task<'_, usize>)
                .collect();
            let results = run_tasks(tasks, workers);
            let expected: Vec<usize> = inputs.iter().map(|&i| i * i).collect();
            assert_eq!(results, expected, "workers = {workers}");
        }
        assert!(run_tasks(Vec::<Task<'_, ()>>::new(), 4).is_empty());
    }

    #[test]
    fn sampled_jobs_simulate_less_and_stay_deterministic() {
        let set = GraphSet::new(TraceSpec::small_test(7).with_accesses(40_000));
        let trace = set.trace(GraphKernel::Bfs);
        let sampling = Some(SamplingConfig {
            interval_len: 4_096,
            clusters: 3,
            warmup_len: 1_024,
            prime_len: 0,
            kmeans_iters: 32,
            seed: 9,
        });
        let grid = |workers| {
            run_jobs(
                vec![
                    Job::new("full", Design::MorphCtr, &trace, 42),
                    Job::new("sampled", Design::MorphCtr, &trace, 42).with_sample(sampling),
                ],
                workers,
            )
        };
        let serial = grid(1);
        assert_eq!(serial[0].simulated_accesses, serial[0].stats.accesses);
        assert!(serial[1].simulated_accesses < serial[0].simulated_accesses);
        // The estimate still spans the whole trace (up to rounding).
        assert!(serial[1].stats.accesses.abs_diff(trace.len() as u64) <= 8);
        // Byte-identical for any worker count.
        assert_eq!(serial, grid(4));
    }

    #[test]
    fn checked_jobs_produce_byte_identical_results() {
        let traces = test_traces();
        let trace = &traces[0].1;
        for design in [Design::Np, Design::MorphCtr, Design::Cosmos] {
            let plain = run_jobs(vec![Job::new("x", design, trace, 42)], 1);
            let checked = run_jobs(vec![Job::new("x", design, trace, 42).with_check(true)], 1);
            assert_eq!(plain, checked, "{design}: --check perturbed the results");
        }
        // Sampled + checked as well.
        let sampling = Some(SamplingConfig {
            interval_len: 1_024,
            clusters: 2,
            warmup_len: 512,
            prime_len: 0,
            kmeans_iters: 16,
            seed: 9,
        });
        let plain = run_jobs(
            vec![Job::new("s", Design::MorphCtr, trace, 42).with_sample(sampling)],
            1,
        );
        let checked = run_jobs(
            vec![Job::new("s", Design::MorphCtr, trace, 42)
                .with_sample(sampling)
                .with_check(true)],
            1,
        );
        assert_eq!(plain, checked, "--check perturbed the sampled results");
    }

    #[test]
    fn telemetry_jobs_produce_byte_identical_results() {
        let traces = test_traces();
        let trace = &traces[0].1;
        let plain = run_jobs(vec![Job::new("x", Design::Cosmos, trace, 42)], 1);
        let tele = Telemetry::in_memory();
        let observed = run_jobs(
            vec![Job::new("x", Design::Cosmos, trace, 42).with_telemetry(tele.scope("x"))],
            1,
        );
        assert_eq!(plain, observed, "telemetry perturbed the results");
        let text = tele.metrics_text();
        assert!(text.contains("phase sim"), "sim phase missing:\n{text}");
        assert!(text.contains("counter cache.ctr."), "CTR counters missing");
    }

    fn small_sampling() -> SamplingConfig {
        SamplingConfig {
            interval_len: 1_024,
            clusters: 2,
            warmup_len: 512,
            prime_len: 0,
            kmeans_iters: 16,
            seed: 9,
        }
    }

    /// Two traces; a front-end group with a CTR-only tweak, a second
    /// group under a smaller LLC, a lone full run, a checked job, a
    /// telemetry job, and two sampled jobs sharing a plan.
    fn mixed_grid<'a>(traces: &'a [(String, Trace)], telemetry: &Telemetry) -> Vec<Job<'a>> {
        let (a, b) = (&traces[0].1, &traces[1].1);
        let sampled = Some(small_sampling());
        vec![
            Job::new("a/np", Design::Np, a, 42),
            Job::new("a/morph", Design::MorphCtr, a, 42),
            Job::new("a/cosmos-ctr64k", Design::Cosmos, a, 42)
                .with_tweak(|c| c.ctr_cache.size_bytes = 64 * 1024),
            Job::new("a/morph-llc2m", Design::MorphCtr, a, 42)
                .with_tweak(|c| c.llc.size_bytes = 2 << 20),
            Job::new("a/cosmos-llc2m", Design::Cosmos, a, 42)
                .with_tweak(|c| c.llc.size_bytes = 2 << 20),
            Job::new("b/cosmos", Design::Cosmos, b, 42),
            Job::new("b/morph-checked", Design::MorphCtr, b, 42).with_check(true),
            Job::new("b/emcc-observed", Design::Emcc, b, 42)
                .with_telemetry(telemetry.scope("b/emcc-observed")),
            Job::new("b/morph-sampled", Design::MorphCtr, b, 42).with_sample(sampled),
            Job::new("b/cosmos-sampled", Design::Cosmos, b, 42).with_sample(sampled),
        ]
    }

    #[test]
    fn shared_inputs_leave_every_result_as_a_lone_run_would() {
        let traces = test_traces();
        let telemetry = Telemetry::in_memory();
        let expected: Vec<SimStats> = mixed_grid(&traces, &telemetry)
            .iter()
            .map(|job| {
                let config = job.config();
                match &job.sample {
                    Some(s) => {
                        run_sampled(&config, job.trace, &SamplingPlan::build(job.trace, s)).stats
                    }
                    None => Simulator::new(config).run(job.trace),
                }
            })
            .collect();
        for workers in [1, 4] {
            let results = run_jobs(mixed_grid(&traces, &telemetry), workers);
            let stats: Vec<SimStats> = results.into_iter().map(|r| r.stats).collect();
            assert_eq!(stats, expected, "workers = {workers}");
        }
    }

    #[test]
    fn only_shared_unchecked_unobserved_full_runs_replay() {
        let traces = test_traces();
        let telemetry = Telemetry::in_memory();
        let jobs = mixed_grid(&traces, &telemetry);
        let configs: Vec<SimConfig> = jobs.iter().map(Job::config).collect();
        let keys = share_keys(&jobs, &configs);
        let replays: Vec<&str> = jobs
            .iter()
            .zip(&keys)
            .filter(|(_, k)| matches!(k, Some(ShareKey::FrontEnd(..))))
            .map(|(j, _)| j.label.as_str())
            .collect();
        assert_eq!(
            replays,
            [
                "a/np",
                "a/morph",
                "a/cosmos-ctr64k",
                "a/morph-llc2m",
                "a/cosmos-llc2m"
            ]
        );
        // Two front-end groups (default and 2 MiB LLC) and one plan.
        let plans = keys
            .iter()
            .filter(|k| matches!(k, Some(ShareKey::Plan(..))))
            .count();
        assert_eq!(plans, 2);
        assert_ne!(keys[0], keys[3], "the LLC tweak must split the group");
        assert_eq!(keys[8], keys[9], "same trace and sampling share a plan");
    }

    #[test]
    fn figure_grids_replay_every_job_unless_sampled_or_observed() {
        let traces = test_traces();
        let designs = [
            Design::Np,
            Design::MorphCtr,
            Design::CosmosCp,
            Design::CosmosDp,
            Design::Cosmos,
        ];
        let replayed = |sample: Option<SamplingConfig>, telemetry: Telemetry| {
            let jobs: Vec<Job<'_>> = traces
                .iter()
                .flat_map(|(name, trace)| designs.map(|d| (name, trace, d)))
                .map(|(name, trace, d)| {
                    let label = format!("{name}/{d}");
                    Job::new(label.clone(), d, trace, 42)
                        .with_sample(sample)
                        .with_telemetry(telemetry.scope(&label))
                })
                .collect();
            let configs: Vec<SimConfig> = jobs.iter().map(Job::config).collect();
            share_keys(&jobs, &configs)
                .iter()
                .filter(|k| matches!(k, Some(ShareKey::FrontEnd(..))))
                .count()
        };
        assert_eq!(replayed(None, Telemetry::disabled()), 10);
        assert_eq!(replayed(Some(small_sampling()), Telemetry::disabled()), 0);
        assert_eq!(replayed(None, Telemetry::in_memory()), 0);
    }

    #[test]
    fn tweaks_actually_apply() {
        let traces = test_traces();
        let trace = &traces[0].1;
        let base = run_jobs(vec![Job::new("base", Design::MorphCtr, trace, 42)], 1);
        let slow = run_jobs(
            vec![Job::new("slow", Design::MorphCtr, trace, 42).with_tweak(|c| c.aes_latency = 400)],
            1,
        );
        // A 10× AES latency must cost cycles.
        assert!(
            slow[0].stats.cycles > base[0].stats.cycles,
            "slow {} vs base {}",
            slow[0].stats.cycles,
            base[0].stats.cycles
        );
    }
}
