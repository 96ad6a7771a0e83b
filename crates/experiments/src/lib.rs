//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every paper figure/table has a binary in `src/bin/` (see DESIGN.md §3
//! for the index). Binaries share:
//!
//! - [`Args`]: a tiny CLI (`--accesses N`, `--large`, `--seed N`,
//!   `--json PATH`, `--jobs N`),
//! - [`GraphSet`]: generates the synthetic graph **once** and produces
//!   per-kernel traces from it (graph generation dominates setup time),
//! - [`run`] / [`run_with`]: run one design over a trace,
//! - [`runner`]: the parallel job-grid executor the figure sweeps fan out
//!   over,
//! - table formatting and JSON result emission (results land in
//!   `results/` for EXPERIMENTS.md).

pub mod explain;
pub mod figures;
pub mod runner;
pub mod throughput;

use cosmos_common::json::Value;
use cosmos_common::Trace;
use cosmos_core::{Design, SimConfig, SimStats, Simulator};
use cosmos_sampling::SamplingConfig;
use cosmos_telemetry::Telemetry;
use cosmos_workloads::graph::{Graph, GraphKernel, GraphLayout};
use cosmos_workloads::{TraceSpec, Workload};
use std::path::PathBuf;

/// Flag reference printed by `--help` and on argument errors.
pub const USAGE: &str = "usage: <experiment> [OPTIONS]

options:
  --accesses N   access budget per trace (positive; figure-specific default)
  --seed N       trace/predictor seed (default 42)
  --large        paper-scale run: 4x the access budget
  --sample       representative-interval sampling instead of full traces
                 (phase clustering + warmup; see DESIGN.md \"Sampling\")
  --check        run the cosmos-verify oracles in lockstep: shadow
                 reference models + conservation-law invariants. Results
                 are byte-identical; violations print to stderr
  --jobs N       worker threads for grid sweeps (default: COSMOS_JOBS or
                 the machine's available parallelism)
  --json PATH    write the JSON result document to PATH instead of
                 the default results/<name>.json
  --telemetry DIR
                 record run telemetry (metrics, flight-recorder events,
                 phase timers) and export a Chrome trace, a per-set CTR
                 cache heatmap, and a metrics dump into DIR. Purely
                 observational: results are byte-identical either way
  --help         print this help and exit";

/// Command-line arguments shared by all experiment binaries.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    /// Access budget per trace.
    pub accesses: usize,
    /// Trace/predictor seed.
    pub seed: u64,
    /// Paper-scale run (`--large`): 4× the default budget.
    pub large: bool,
    /// Sampled mode (`--sample`): simulate representative intervals only.
    pub sample: bool,
    /// Checked mode (`--check`): run every simulation with the
    /// `cosmos-verify` oracles attached (see DESIGN.md "Verification").
    pub check: bool,
    /// Where to write the machine-readable results.
    pub json: Option<PathBuf>,
    /// Worker threads for grid sweeps (`--jobs N`, `COSMOS_JOBS`, or the
    /// machine's available parallelism, in that precedence order).
    pub jobs: usize,
    /// Telemetry handle (`--telemetry DIR`); disabled by default. Hooks
    /// observe only — results are byte-identical with and without it.
    pub telemetry: Telemetry,
}

impl Args {
    /// Parses `std::env::args`, with a figure-specific default budget.
    ///
    /// Prints [`USAGE`] and exits on `--help` (status 0) or on an unknown
    /// or malformed argument (status 2).
    pub fn parse(default_accesses: usize) -> Args {
        match Self::try_parse(std::env::args().skip(1), default_accesses) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(err) => {
                eprintln!("error: {err}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    /// The testable parse core. `Ok(None)` means `--help` was requested.
    pub fn try_parse(
        argv: impl IntoIterator<Item = String>,
        default_accesses: usize,
    ) -> Result<Option<Args>, String> {
        let mut args = Args {
            accesses: default_accesses,
            seed: 42,
            large: false,
            sample: false,
            check: false,
            json: None,
            jobs: default_jobs(),
            telemetry: Telemetry::disabled(),
        };
        let mut it = argv.into_iter();
        while let Some(a) = it.next() {
            let mut number = |flag: &str| -> Result<u64, String> {
                let v = it.next().ok_or_else(|| format!("{flag} needs a number"))?;
                v.parse()
                    .map_err(|_| format!("{flag} needs a number, got {v:?}"))
            };
            match a.as_str() {
                "--help" | "-h" => return Ok(None),
                "--accesses" => {
                    let n = number("--accesses")?;
                    if n == 0 {
                        return Err("--accesses must be positive".into());
                    }
                    args.accesses = n as usize;
                }
                "--seed" => args.seed = number("--seed")?,
                "--large" => args.large = true,
                "--sample" => args.sample = true,
                "--check" => args.check = true,
                "--json" => {
                    let path = it.next().ok_or("--json needs a path")?;
                    args.json = Some(PathBuf::from(path));
                }
                "--jobs" => {
                    let n = number("--jobs")?;
                    if n == 0 {
                        return Err("--jobs must be positive".into());
                    }
                    args.jobs = n as usize;
                }
                "--telemetry" => {
                    let dir = it.next().ok_or("--telemetry needs a directory")?;
                    args.telemetry =
                        Telemetry::to_dir(&dir).map_err(|e| format!("--telemetry {dir}: {e}"))?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        if args.large {
            args.accesses *= 4;
        }
        Ok(Some(args))
    }

    /// The trace spec for this run.
    pub fn spec(&self) -> TraceSpec {
        TraceSpec::paper_default(self.accesses, self.seed)
    }

    /// The sampling configuration for this run's budget — `Some` exactly
    /// when `--sample` was passed. Feed it to
    /// [`Job::with_sample`](runner::Job::with_sample).
    pub fn sampling(&self) -> Option<SamplingConfig> {
        self.sample
            .then(|| SamplingConfig::for_trace(self.accesses))
    }

    /// A [`GraphSet`] for this run's spec, with graph generation timed
    /// under the `graph_gen` telemetry phase and trace generation under
    /// `trace_gen`.
    pub fn graph_set(&self) -> GraphSet {
        GraphSet::with_telemetry(self.spec(), self.telemetry.clone())
    }
}

/// Runs a job grid under `args`: applies `--sample` and `--check` to every
/// job and fans out over `--jobs` workers. The figure binaries call this
/// instead of [`runner::run_jobs`] directly so every grid honors both
/// modes.
pub fn run_grid<'a>(jobs: Vec<runner::Job<'a>>, args: &Args) -> Vec<runner::JobResult> {
    let sampling = args.sampling();
    let jobs = jobs
        .into_iter()
        .map(|j| {
            let telemetry = args.telemetry.scope(&j.label);
            j.with_sample(sampling)
                .with_check(args.check)
                .with_telemetry(telemetry)
        })
        .collect();
    runner::run_jobs(jobs, args.jobs)
}

/// The default worker count: `COSMOS_JOBS` when set and positive, otherwise
/// the machine's available parallelism.
pub fn default_jobs() -> usize {
    if let Some(n) = std::env::var("COSMOS_JOBS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A generated graph shared across kernels (graph generation is the
/// dominant setup cost, so figures that sweep kernels reuse one graph).
pub struct GraphSet {
    graph: Graph,
    layout: GraphLayout,
    spec: TraceSpec,
    telemetry: Telemetry,
}

impl GraphSet {
    /// Generates the graph described by `spec`.
    pub fn new(spec: TraceSpec) -> Self {
        Self::with_telemetry(spec, Telemetry::disabled())
    }

    /// Generates the graph described by `spec`, timing graph and layout
    /// construction under the `graph_gen` telemetry phase and every later
    /// [`trace`](Self::trace) call under `trace_gen`. Prefer
    /// [`Args::graph_set`].
    pub fn with_telemetry(spec: TraceSpec, telemetry: Telemetry) -> Self {
        let (graph, layout) = {
            let _p = telemetry.phase("graph_gen");
            spec.build_graph()
        };
        Self {
            graph,
            layout,
            spec,
            telemetry,
        }
    }

    /// Generates one kernel's trace at the spec's budget.
    pub fn trace(&self, kernel: GraphKernel) -> Trace {
        self.trace_sized(kernel, self.spec.accesses)
    }

    /// Generates one kernel's trace with an explicit budget.
    pub fn trace_sized(&self, kernel: GraphKernel, accesses: usize) -> Trace {
        let _p = self.telemetry.phase("trace_gen");
        kernel.generate(
            &self.graph,
            &self.layout,
            self.spec.cores,
            accesses,
            self.spec.seed,
        )
    }

    /// The underlying spec.
    pub fn spec(&self) -> &TraceSpec {
        &self.spec
    }
}

/// Generates the trace of any workload (non-graph workloads are cheap; for
/// graph sweeps prefer [`GraphSet`]).
pub fn trace_of(workload: Workload, spec: &TraceSpec) -> Trace {
    workload.generate(spec)
}

/// Runs `design` with the paper-default configuration over `trace`.
pub fn run(design: Design, trace: &Trace, seed: u64) -> SimStats {
    run_with(design, trace, seed, |_| {})
}

/// Runs `design` with a configuration tweak applied.
pub fn run_with(
    design: Design,
    trace: &Trace,
    seed: u64,
    tweak: impl FnOnce(&mut SimConfig),
) -> SimStats {
    let mut config = SimConfig::paper_default(design);
    config.seed = seed;
    tweak(&mut config);
    Simulator::new(config).run(trace)
}

/// Formats a markdown table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Formats a markdown table as a string (one trailing newline).
pub fn table_string(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!(
        "|{}|\n",
        headers.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    ));
    for r in rows {
        out.push_str(&row(r));
        out.push('\n');
    }
    out
}

/// Prints a markdown table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table_string(headers, rows));
}

/// Writes the JSON result document to `--json` when passed, otherwise to
/// `results/<name>.json` — an explicit path *redirects* the document, so
/// off-budget runs (CI smoke tests, scratch sweeps) don't clobber the
/// committed default-budget artifacts.
pub fn emit_json(args: &Args, name: &str, value: &Value) {
    let emit = args.telemetry.phase("emit");
    let pretty = value.pretty();
    if let Some(path) = &args.json {
        std::fs::write(path, &pretty).expect("write json");
    } else {
        let results = std::path::Path::new("results");
        if results.is_dir() || std::fs::create_dir_all(results).is_ok() {
            let _ = std::fs::write(results.join(format!("{name}.json")), &pretty);
        }
    }
    // Close the emit span before exporting, so it appears in the trace.
    drop(emit);
    if let Err(err) = args.telemetry.export(name) {
        eprintln!("warning: telemetry export for {name} failed: {err}");
    }
}

/// Convenience: `f64` with 3 decimals as a table cell.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Convenience: percentage with 1 decimal as a table cell.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graphset_produces_budgeted_traces() {
        let spec = TraceSpec::small_test(7).with_accesses(4000);
        let set = GraphSet::new(spec);
        let t = set.trace(GraphKernel::Bfs);
        assert!(t.len() >= 3900 && t.len() <= 4100);
    }

    #[test]
    fn graphset_times_graph_and_traces_as_separate_phases() {
        let telemetry = Telemetry::in_memory();
        let spec = TraceSpec::small_test(7).with_accesses(2000);
        let set = GraphSet::with_telemetry(spec, telemetry.clone());
        set.trace(GraphKernel::Bfs);
        set.trace(GraphKernel::Pr);
        let calls = |name| {
            telemetry
                .phase_summary()
                .iter()
                .find(|p| p.0 == name)
                .map(|p| p.1)
        };
        assert_eq!(calls("graph_gen"), Some(1));
        assert_eq!(calls("trace_gen"), Some(2));
    }

    #[test]
    fn run_produces_stats() {
        let spec = TraceSpec::small_test(7).with_accesses(3000);
        let set = GraphSet::new(spec);
        let t = set.trace(GraphKernel::Dfs);
        let s = run(Design::MorphCtr, &t, 1);
        assert_eq!(s.accesses, t.len() as u64);
        assert!(s.ipc() > 0.0);
    }

    #[test]
    fn table_formatting() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.256), "25.6%");
    }

    fn parse(argv: &[&str]) -> Result<Option<Args>, String> {
        Args::try_parse(argv.iter().map(|s| s.to_string()), 1_000)
    }

    #[test]
    fn args_parse_all_flags() {
        let args = parse(&[
            "--accesses",
            "500",
            "--seed",
            "7",
            "--large",
            "--sample",
            "--check",
            "--jobs",
            "3",
            "--json",
            "out.json",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.accesses, 2_000); // 500 × 4 (--large)
        assert_eq!(args.seed, 7);
        assert!(args.large);
        assert!(args.sample);
        assert!(args.check);
        assert_eq!(args.jobs, 3);
        assert_eq!(args.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(args.sampling(), Some(SamplingConfig::for_trace(2_000)));
    }

    #[test]
    fn args_defaults_without_flags() {
        let args = parse(&[]).unwrap().unwrap();
        assert_eq!(args.accesses, 1_000);
        assert_eq!(args.seed, 42);
        assert!(!args.sample);
        assert!(!args.check);
        assert_eq!(args.sampling(), None);
    }

    #[test]
    fn args_help_and_errors() {
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert_eq!(parse(&["-h"]).unwrap(), None);
        for bad in [
            &["--accesses", "0"][..],
            &["--accesses"],
            &["--accesses", "lots"],
            &["--jobs", "0"],
            &["--seed", "-1"],
            &["--json"],
            &["--frobnicate"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?}");
        }
        // Every flag the parser knows is documented in the usage text.
        for flag in [
            "--accesses",
            "--seed",
            "--large",
            "--sample",
            "--check",
            "--jobs",
            "--json",
            "--telemetry",
            "--help",
        ] {
            assert!(USAGE.contains(flag), "{flag} missing from USAGE");
        }
    }

    #[test]
    fn args_telemetry_flag_enables_telemetry() {
        let dir = std::env::temp_dir().join("cosmos-args-telemetry-test");
        let args = parse(&["--telemetry", dir.to_str().unwrap()])
            .unwrap()
            .unwrap();
        assert!(args.telemetry.is_enabled());
        assert_eq!(args.telemetry.dir(), Some(dir.as_path()));
        // Default stays off.
        assert!(!parse(&[]).unwrap().unwrap().telemetry.is_enabled());
    }

    #[test]
    fn args_telemetry_unwritable_dir_is_a_parse_error() {
        // /dev/null is a file, so it can't be a parent directory — the
        // flag must fail up front with a clear message, not panic mid-run.
        let err = parse(&["--telemetry", "/dev/null/nested"]).unwrap_err();
        assert!(err.contains("--telemetry"), "unhelpful error: {err}");
        assert!(parse(&["--telemetry"]).is_err(), "missing operand");
    }
}
