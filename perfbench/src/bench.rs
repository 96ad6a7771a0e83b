//! One benchmark process: the untraced run behind the end-to-end metrics
//! and the traced run behind the per-layer metrics.

use crate::digest::{self, Expected};
use crate::grid::{Grid, Inputs, Workload};
use crate::host;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::recompose::{empty_span_ns, Spans, TracedSim};
use cosmos_common::json::{json, Map, Value};
use cosmos_core::{Design, SimStats, Simulator};
use cosmos_experiments::runner::{run_jobs, run_tasks, Task};
use cosmos_sampling::{run_sampled, SamplingPlan};
use cosmos_telemetry::Telemetry;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One access in this many is timed by the traced run.
pub const SAMPLE_EVERY: u64 = 32;

/// What one process reports.
pub struct Report {
    /// Jobs run.
    pub attempted: u64,
    /// Jobs that panicked, failed the digest gate, or (traced) whose
    /// recomposed statistics differ from the runner's.
    pub failed: u64,
    /// SHA-256 over every job's digest, for cross-process agreement.
    pub grid_digest: String,
    /// Worker threads the grid ran on.
    pub workers: usize,
    /// The end-to-end or per-layer metrics.
    pub metrics: Metrics,
    /// Untraced: each per-pass metric's value in every pass, in order.
    pub passes: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Value {
        json!({
            "attempted": (self.attempted),
            "failed": (self.failed),
            "grid_digest": (self.grid_digest.clone()),
            "workers": (self.workers),
            "metrics": (self.metrics.to_json()),
            "passes": (self
                .passes
                .iter()
                .map(|(name, values)| (name.to_string(), Value::from(values.clone())))
                .collect::<Map>()),
        })
    }
}

/// Worker threads the grid runs on by default: one. The figure binaries
/// default to every core, but on the 2-vCPU host this was tuned on two
/// workers made a pass's throughput swing by ±15% from one pass to the
/// next and drift by 30% over a few minutes; one worker held within ±8%.
pub const WORKERS: usize = 1;

/// The telemetry pipeline for `workload`: exporting into a directory
/// under `out` for the telemetry workload, disabled otherwise.
fn telemetry(workload: Workload, out: &Path) -> (Telemetry, Option<PathBuf>) {
    if !workload.telemetry() {
        return (Telemetry::disabled(), None);
    }
    let dir = out.join(format!("telemetry-{}", std::process::id()));
    let t = Telemetry::to_dir(&dir)
        .unwrap_or_else(|e| panic!("telemetry directory {}: {e}", dir.display()));
    (t, Some(dir))
}

/// Checks each job's statistics: a job fails when it has none (it
/// panicked), when a full run did not cover its whole trace, or when its
/// digest differs from the committed one. Returns `(label, digest)` and
/// whether it failed, per job.
fn gate(grid: &Grid<'_>, stats: &[Option<&SimStats>]) -> (Vec<(String, String)>, Vec<bool>) {
    let jobs: Vec<(String, Option<String>)> = grid
        .cells
        .iter()
        .zip(stats)
        .map(|(cell, s)| {
            let covered = |s: &&SimStats| {
                grid.workload.sampled() || s.accesses == grid.trace(cell).len() as u64
            };
            (cell.label.clone(), s.filter(covered).map(digest::of))
        })
        .collect();
    let expected = digest::expected(grid.workload.name(), grid.workload.accesses(), grid.seed);
    if expected == Expected::StaleBudget {
        eprintln!(
            "perfbench: digests.json holds {} at another budget; rebuild it",
            grid.workload.name()
        );
    }
    let failures = digest::failures(&jobs, &expected);
    for ((label, _), failed) in jobs.iter().zip(&failures) {
        if *failed {
            eprintln!("perfbench: job {label} failed the correctness gate");
        }
    }
    let digests = jobs
        .into_iter()
        .map(|(label, d)| (label, d.unwrap_or_default()))
        .collect();
    (digests, failures)
}

/// Writes the result document and exports telemetry. Returns the
/// seconds spent in each.
fn emit(
    grid: &Grid<'_>,
    stats: &[Option<&SimStats>],
    digests: &[(String, String)],
    telemetry: &Telemetry,
    out: &Path,
) -> (f64, f64) {
    let t = Instant::now();
    let rows: Vec<Value> = digests
        .iter()
        .zip(stats)
        .map(|((label, d), s)| {
            let (ipc, ctr_miss) = s.map_or((0.0, 0.0), |s| (s.ipc(), s.ctr_miss_rate()));
            json!({"job": (label.clone()), "ipc": ipc, "ctr_miss_rate": ctr_miss, "digest": (d.clone())})
        })
        .collect();
    let doc = json!({
        "workload": (grid.workload.name()),
        "seed": (grid.seed),
        "accesses": (grid.workload.accesses()),
        "jobs": (Value::Array(rows)),
    });
    let path = out.join(format!("{}-{}.json", grid.workload.name(), grid.seed));
    std::fs::write(&path, doc.pretty())
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    let emit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    telemetry
        .export(grid.workload.name())
        .unwrap_or_else(|e| panic!("telemetry export: {e}"));
    (emit_s, t.elapsed().as_secs_f64())
}

/// What one pass of the untraced grid phase measured.
struct Pass {
    /// Full-trace accesses covered per host second of the runner's grid.
    sim_accesses_per_s: f64,
    /// Host seconds of the whole pass: the grid, the gate and emit.
    pass_s: f64,
    /// CPU seconds the process spent in the pass.
    cpu_s: f64,
    /// `(label, digest)` per job.
    digests: Vec<(String, String)>,
    /// Jobs that failed the gate.
    failed: u64,
}

/// One pass of the grid phase over generated inputs: the runner's grid,
/// the gate, and emit, with a telemetry pipeline of its own.
fn pass(workload: Workload, seed: u64, inputs: &Inputs, out: &Path) -> Pass {
    let t = Instant::now();
    let cpu = host::usage().cpu_s;
    let (telemetry, tel_dir) = telemetry(workload, out);
    let grid = Grid::new(workload, seed, inputs, telemetry.clone());
    let tg = Instant::now();
    let results = catch_unwind(AssertUnwindSafe(|| run_jobs(grid.jobs(), WORKERS))).ok();
    let grid_s = tg.elapsed().as_secs_f64();
    let stats: Vec<Option<&SimStats>> = match &results {
        Some(r) => r.iter().map(|r| Some(&r.stats)).collect(),
        None => vec![None; grid.cells.len()],
    };
    let (digests, failures) = gate(&grid, &stats);
    emit(&grid, &stats, &digests, &telemetry, out);
    let pass_s = t.elapsed().as_secs_f64();
    let cpu_s = host::usage().cpu_s - cpu;
    let sim_accesses_per_s = grid.accesses() as f64 / grid_s;
    drop(grid);
    drop(telemetry);
    if let Some(dir) = tel_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Pass {
        sim_accesses_per_s,
        pass_s,
        cpu_s,
        digests,
        failed: failures.iter().filter(|f| **f).count() as u64,
    }
}

/// The untraced run: setup once, then passes of the grid phase while
/// another one still fits in `budget_s` seconds from the start (at least
/// one). Per-pass figures are reported as their median over the passes:
/// `wall_s` and `cpu_s` are setup plus the median pass.
pub fn untraced(workload: Workload, seed: u64, out: &Path, budget_s: f64) -> Report {
    let t0 = Instant::now();
    let inputs = Inputs::generate(workload, seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let setup_cpu_s = host::usage().cpu_s;
    let mut passes = vec![pass(workload, seed, &inputs, out)];
    // The peak of setup plus one pass: later passes add only allocator
    // fragmentation, which grows with the number of passes that fit.
    let peak_rss_mb = host::usage().peak_rss_mb;
    while t0.elapsed().as_secs_f64() + passes[passes.len() - 1].pass_s <= budget_s {
        passes.push(pass(workload, seed, &inputs, out));
    }

    let jobs = passes[0].digests.len() as u64;
    let attempted = jobs * passes.len() as u64;
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    if passes.iter().any(|p| p.digests != passes[0].digests) {
        eprintln!("perfbench: passes disagree on the grid's statistics");
        failed = attempted;
    }
    let per_pass = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let wall: Vec<f64> = per_pass(&|p| setup_s + p.pass_s);
    let rate: Vec<f64> = per_pass(&|p| p.sim_accesses_per_s);
    let cpu: Vec<f64> = per_pass(&|p| setup_cpu_s + p.cpu_s);

    let mut m = Metrics::new(END_TO_END);
    m.set("wall_s", median(wall.clone()));
    m.set("setup_s", setup_s);
    m.set("sim_accesses_per_s", median(rate.clone()));
    m.set("cpu_s", median(cpu.clone()));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set(
        "jobs_ok_frac",
        (attempted - failed) as f64 / attempted as f64,
    );
    Report {
        attempted,
        failed,
        grid_digest: digest::of_grid(&passes[0].digests),
        workers: WORKERS,
        metrics: m,
        passes: vec![
            ("wall_s", wall),
            ("sim_accesses_per_s", rate),
            ("cpu_s", cpu),
        ],
    }
}

/// What the traced pass measured for one job.
#[derive(Default)]
struct JobTrace {
    /// Host seconds of the traced pass: the recomposed simulation, plus
    /// the plan build for sampled jobs.
    traced_s: f64,
    /// Host seconds of the recomposed simulation alone.
    sim_s: f64,
    /// Host seconds of `Simulator::new` for the job's configuration.
    sim_new_s: f64,
    /// The recomposed step's spans.
    spans: Spans,
    /// Sampled jobs: plan build and `run_sampled` seconds, accesses
    /// simulated.
    plan_s: f64,
    run_s: f64,
    simulated: u64,
    /// Whether the traced statistics equal the runner's.
    matches: bool,
}

/// One job of the traced run: the runner's result and seconds, then the
/// traced pass, and the seconds of both.
struct JobRun {
    stats: Option<SimStats>,
    job_s: f64,
    traced: JobTrace,
    task_s: f64,
}

/// The telemetry a traced job records into: in memory, so the hooks cost
/// what they cost in the runner's job without exporting twice.
fn traced_telemetry(workload: Workload, label: &str) -> Telemetry {
    if workload.telemetry() {
        Telemetry::in_memory().scope(label)
    } else {
        Telemetry::disabled()
    }
}

fn trace_job(grid: &Grid<'_>, i: usize, reference: Option<&SimStats>) -> JobTrace {
    let cell = &grid.cells[i];
    let trace = grid.trace(cell);
    let probe = grid.config(i, traced_telemetry(grid.workload, &cell.label));
    let t = Instant::now();
    drop(Simulator::new(probe));
    let sim_new_s = t.elapsed().as_secs_f64();
    let config = grid.config(i, traced_telemetry(grid.workload, &cell.label));

    let sample_seed = grid.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let traced = TracedSim::new(config.clone(), sample_seed, SAMPLE_EVERY);
    if let Some(sampling) = grid.sampling() {
        let t = Instant::now();
        let plan = SamplingPlan::build(trace, &sampling);
        let plan_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let run = run_sampled(&config, trace, &plan);
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (recomposed, spans) = traced.run_sampled(trace, &plan);
        let sim_s = t.elapsed().as_secs_f64();
        return JobTrace {
            traced_s: plan_s + sim_s,
            sim_s,
            sim_new_s,
            spans,
            plan_s,
            run_s,
            simulated: run.simulated_accesses,
            matches: reference == Some(&run.stats) && recomposed == run,
        };
    }
    let t = Instant::now();
    let (stats, spans) = traced.run(trace);
    let sim_s = t.elapsed().as_secs_f64();
    JobTrace {
        traced_s: sim_s,
        sim_s,
        sim_new_s,
        spans,
        matches: reference == Some(&stats),
        ..JobTrace::default()
    }
}

/// Recorded and overwritten flight-recorder events, from the metrics dump
/// line `recorder candidates C sampled R overwritten O …`.
fn recorder_counts(metrics_text: &str) -> (u64, u64) {
    let Some(line) = metrics_text.lines().find(|l| l.starts_with("recorder ")) else {
        return (0, 0);
    };
    let fields: Vec<&str> = line.split_whitespace().collect();
    let field = |key: &str| {
        fields
            .windows(2)
            .find(|w| w[0] == key)
            .and_then(|w| w[1].parse().ok())
            .unwrap_or(0)
    };
    (field("sampled"), field("overwritten"))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The traced run: setup timed per phase; per job, the runner's run
/// (timed) followed by its traced pass; then the gate and emit.
pub fn traced(workload: Workload, seed: u64, out: &Path) -> Report {
    let inputs = Inputs::generate(workload, seed);
    let (telemetry, tel_dir) = telemetry(workload, out);
    let grid = Grid::new(workload, seed, &inputs, telemetry.clone());
    let n = grid.cells.len();

    // Each task runs one job through the runner, timed, then its traced
    // pass right after, so the two see the same allocator and host state.
    let empty = empty_span_ns();
    let grid_ref = &grid;
    let tasks: Vec<Task<'_, JobRun>> = (0..n)
        .map(|i| {
            Box::new(move || {
                let t = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| run_jobs(vec![grid_ref.job(i)], 1)));
                let stats = r.ok().and_then(|mut v| v.pop()).map(|r| r.stats);
                let job_s = t.elapsed().as_secs_f64();
                let traced =
                    catch_unwind(AssertUnwindSafe(|| trace_job(grid_ref, i, stats.as_ref())))
                        .unwrap_or_default();
                JobRun {
                    stats,
                    job_s,
                    traced,
                    task_s: t.elapsed().as_secs_f64(),
                }
            }) as Task<'_, _>
        })
        .collect();
    let t = Instant::now();
    let done = run_tasks(tasks, WORKERS);
    let grid_s = t.elapsed().as_secs_f64();
    let stats: Vec<Option<&SimStats>> = done.iter().map(|d| d.stats.as_ref()).collect();
    let job_s: Vec<f64> = done.iter().map(|d| d.job_s).collect();
    let traces: Vec<&JobTrace> = done.iter().map(|d| &d.traced).collect();
    let task_total: f64 = done.iter().map(|d| d.task_s).sum();
    let (digests, gate_failures) = gate(&grid, &stats);
    let (emit_s, export_s) = emit(&grid, &stats, &digests, &telemetry, out);
    let (events, overwritten) = recorder_counts(&telemetry.metrics_text());
    drop(telemetry);
    if let Some(dir) = tel_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut failed = 0;
    for ((t, cell), gate_failed) in traces.iter().zip(&grid.cells).zip(gate_failures) {
        if !t.matches {
            eprintln!(
                "perfbench: traced {} differs from the runner's statistics",
                cell.label
            );
        }
        failed += u64::from(gate_failed || !t.matches);
    }

    let mut m = Metrics::new(PER_LAYER);
    m.set("workloads.graph_gen_s", inputs.graph_gen_s);
    m.set("workloads.trace_gen_s", inputs.trace_gen_s);

    // Spans, merged over every job and per design.
    let mut spans = Spans::default();
    let mut by_design: Vec<(Design, Spans)> = Vec::new();
    for (t, cell) in traces.iter().zip(&grid.cells) {
        spans.merge(&t.spans);
        match by_design.iter_mut().find(|(d, _)| *d == cell.design) {
            Some((_, acc)) => acc.merge(&t.spans),
            None => by_design.push((cell.design, t.spans)),
        }
    }
    let sim_ns: f64 = traces.iter().map(|t| t.sim_s * 1e9).sum();
    let distinct: u64 = inputs.traces.iter().map(|(_, t)| t.len() as u64).sum();

    // Statistics, summed over every job's reference run.
    let all: Vec<&SimStats> = stats.iter().flatten().copied().collect();
    let sum = |f: &dyn Fn(&SimStats) -> u64| all.iter().map(|s| f(s)).sum::<u64>() as f64;

    m.set("front_end.ns_per_call", spans.front_end.ns_per_call(empty));
    m.set("front_end.calls", spans.front_end.calls as f64);
    m.set(
        "front_end.repeat_factor",
        ratio(spans.front_end.calls as f64, distinct as f64),
    );
    m.set(
        "front_end.l1_hit_rate",
        ratio(sum(&|s| s.l1.hits()), sum(&|s| s.l1.total())),
    );
    m.set(
        "front_end.llc_miss_rate",
        ratio(sum(&|s| s.llc.misses()), sum(&|s| s.llc.total())),
    );
    m.set(
        "front_end.writebacks_per_call",
        ratio(spans.writebacks as f64, spans.front_end.calls as f64),
    );
    m.set(
        "front_end.share",
        ratio(spans.front_end.total_ns(empty), sim_ns),
    );

    let ctr_misses = sum(&|s| s.ctr_cache.demand.misses());
    m.set("secure.ctr_read_ns", spans.ctr_read.ns_per_call(empty));
    m.set("secure.ctr_write_ns", spans.ctr_write.ns_per_call(empty));
    m.set("secure.calls", spans.secure_calls() as f64);
    m.set(
        "secure.ctr_miss_rate",
        ratio(ctr_misses, sum(&|s| s.ctr_cache.demand.total())),
    );
    m.set(
        "secure.mt_reads_per_ctr_miss",
        ratio(sum(&|s| s.traffic.mt_reads), ctr_misses),
    );
    m.set("secure.reencrypts", sum(&|s| s.ctr_overflows));
    let ctr_read_ns = |design: Design| {
        by_design
            .iter()
            .find(|(d, _)| *d == design)
            .map(|(_, s)| s.ctr_read.ns_per_call(empty))
    };
    let lcr = ctr_read_ns(Design::CosmosCp);
    m.set(
        "secure.lcr_ns_per_ctr_read",
        match (lcr, ctr_read_ns(Design::MorphCtr)) {
            (Some(lcr), Some(base)) => lcr - base,
            _ => 0.0,
        },
    );
    m.set("secure.share", ratio(spans.secure_ns(empty), sim_ns));

    m.set("data_pred.ns_per_call", spans.data_pred.ns_per_call(empty));
    m.set("data_pred.calls", spans.data_pred.calls as f64);
    m.set(
        "data_pred.accuracy",
        ratio(
            sum(&|s| s.data_pred.correct_onchip + s.data_pred.correct_offchip),
            sum(&|s| s.data_pred.total()),
        ),
    );
    let killed = sum(&|s| s.traffic.killed_speculative);
    m.set(
        "data_pred.killed_frac",
        ratio(killed, killed + sum(&|s| s.early_offchip_reads)),
    );

    let requests = sum(&|s| s.dram.requests());
    m.set("dram.ns_per_call", spans.dram.ns_per_call(empty));
    m.set("dram.calls", requests);
    m.set(
        "dram.row_hit_rate",
        ratio(sum(&|s| s.dram.row_hits), requests),
    );
    m.set(
        "dram.queue_cycles_per_request",
        ratio(sum(&|s| s.dram.queue_cycles), requests),
    );
    m.set("core.glue_ns_per_access", spans.glue_ns_per_access(empty));

    for design in [
        Design::Np,
        Design::MorphCtr,
        Design::CosmosCp,
        Design::CosmosDp,
        Design::Cosmos,
    ] {
        let (mut s, mut accesses) = (0.0, 0u64);
        for (cell, js) in grid.cells.iter().zip(&job_s) {
            if cell.design == design {
                s += js;
                accesses += grid.trace(cell).len() as u64;
            }
        }
        let name = format!("design.{}.ns_per_access", design.name());
        m.set(&name, ratio(s * 1e9, accesses as f64));
    }

    m.set("runner.job_s_p50", median(job_s.clone()));
    m.set(
        "runner.job_s_max",
        job_s.iter().copied().fold(0.0, f64::max),
    );
    m.set(
        "runner.parallel_efficiency",
        ratio(task_total, grid_s * WORKERS.min(n) as f64),
    );
    m.set("runner.sim_new_s", traces.iter().map(|t| t.sim_new_s).sum());

    let sampled = grid.workload.sampled();
    let plans = if sampled { n as f64 } else { 0.0 };
    m.set(
        "sampling.plan_build_s",
        traces.iter().map(|t| t.plan_s).sum(),
    );
    m.set(
        "sampling.plan_builds_per_trace",
        ratio(plans, inputs.traces.len() as f64),
    );
    m.set("sampling.run_s", traces.iter().map(|t| t.run_s).sum());
    m.set(
        "sampling.simulated_frac",
        if sampled {
            ratio(
                traces.iter().map(|t| t.simulated).sum::<u64>() as f64,
                grid.accesses() as f64,
            )
        } else {
            0.0
        },
    );

    m.set("telemetry.events", events as f64);
    m.set(
        "telemetry.overwritten_frac",
        ratio(overwritten as f64, events as f64),
    );
    m.set("telemetry.export_s", export_s);
    m.set("emit.s", emit_s);

    let traced_total: f64 = traces.iter().map(|t| t.traced_s).sum();
    m.set(
        "trace.overhead_frac",
        ratio(traced_total, job_s.iter().sum()) - 1.0,
    );
    let accounted =
        spans.step_total_ns(empty) * 1e-9 + traces.iter().map(|t| t.plan_s).sum::<f64>();
    m.set(
        "trace.unaccounted_frac",
        1.0 - ratio(accounted, traced_total),
    );

    Report {
        attempted: n as u64,
        failed,
        grid_digest: digest::of_grid(&digests),
        workers: WORKERS,
        metrics: m,
        passes: Vec::new(),
    }
}

/// `{label: digest}` for the workload's grid at `seed`: the table
/// `digests.json` commits.
pub fn digests(workload: Workload, seed: u64) -> Value {
    let inputs = Inputs::generate(workload, seed);
    let grid = Grid::new(workload, seed, &inputs, Telemetry::disabled());
    let results = run_jobs(grid.jobs(), WORKERS);
    let mut map = cosmos_common::json::Map::new();
    for r in results {
        map.insert(r.label, json!(digest::of(&r.stats)));
    }
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_line_parses() {
        let text = "counter x 1\nrecorder candidates 10 sampled 7 overwritten 3 sample_every 64\n";
        assert_eq!(recorder_counts(text), (7, 3));
        assert_eq!(recorder_counts("counter x 1\n"), (0, 0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(Vec::new()), 0.0);
    }
}
