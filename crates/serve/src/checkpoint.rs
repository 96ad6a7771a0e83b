//! Checkpointed execution of one simulation: run a trace with periodic
//! snapshots, resume from an existing snapshot, preempt on a cancel
//! flag, and optionally run the resumed tail under the `cosmos-verify`
//! oracles.
//!
//! The loop is exactly [`Simulator::run`]'s step loop with snapshot
//! points spliced between accesses, so a completed checkpointed run's
//! statistics are byte-identical to an uninterrupted one — the
//! snapshot-identity smoke in `scripts/check.sh` `cmp`s the artifacts.

use crate::snapshot::SimSnapshot;
use cosmos_common::Trace;
use cosmos_core::{Design, SimConfig, SimStats, Simulator};
use cosmos_experiments::GraphSet;
use cosmos_telemetry::Telemetry;
use cosmos_verify::CheckReport;
use cosmos_workloads::{TraceSpec, Workload};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// How often the run loop polls the cancel flag, in accesses.
const CANCEL_POLL: usize = 1024;

/// Every design the command line can name.
pub const ALL_DESIGNS: [Design; 7] = [
    Design::Np,
    Design::MorphCtr,
    Design::Emcc,
    Design::Rmcc,
    Design::CosmosDp,
    Design::CosmosCp,
    Design::Cosmos,
];

/// Resolves a design by its display name, case-insensitively.
pub fn design_by_name(name: &str) -> Result<Design, String> {
    ALL_DESIGNS
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<_> = ALL_DESIGNS.iter().map(|d| d.name()).collect();
            format!("unknown design {name:?} (known: {})", known.join(", "))
        })
}

/// Resolves a workload by name, case-insensitively, across the irregular
/// and ML suites.
pub fn workload_by_name(name: &str) -> Result<Workload, String> {
    let all: Vec<Workload> = Workload::irregular_suite()
        .into_iter()
        .chain(Workload::ml_suite())
        .collect();
    all.iter()
        .copied()
        .find(|w| w.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let known: Vec<_> = all.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })
}

/// One checkpointed simulation request.
pub struct CheckpointRun<'a> {
    /// Simulation configuration (fingerprinted into every snapshot).
    pub config: &'a SimConfig,
    /// The full trace; a resumed run skips the first `accesses_done`.
    pub trace: &'a Trace,
    /// Snapshot file. If it exists, the run resumes from it; checkpoints
    /// and preemption snapshots are written back to it atomically.
    pub snapshot_path: &'a Path,
    /// Checkpoint every this many accesses (0 = only on preemption).
    pub snapshot_every: usize,
    /// Stop (with a snapshot) once this many total accesses have been
    /// simulated — the "interrupted" leg of the identity smoke.
    pub stop_after: Option<u64>,
    /// Run the simulated portion under the `cosmos-verify` oracles, with
    /// shadow models primed from the restored state on resume.
    pub check: bool,
}

/// How a checkpointed run ended.
pub enum CkptOutcome {
    /// Ran to the end of the trace.
    Completed {
        /// Final cumulative statistics (identical to an uninterrupted run).
        /// Boxed: `SimStats` is large and the other variant is two words.
        stats: Box<SimStats>,
        /// Oracle report, when [`CheckpointRun::check`] was set.
        report: Option<CheckReport>,
    },
    /// Stopped early (cancel flag or `stop_after`); a snapshot at the
    /// stop point is on disk.
    Preempted {
        /// Accesses simulated so far, across all sessions of this run.
        accesses_done: u64,
    },
}

/// Executes one checkpointed run. See [`CheckpointRun`] for the knobs.
pub fn run_checkpointed(
    run: &CheckpointRun<'_>,
    cancel: &AtomicBool,
) -> Result<CkptOutcome, String> {
    let mut sim = Simulator::new(run.config.clone());
    let mut done: u64 = 0;
    if run.snapshot_path.exists() {
        let snap = SimSnapshot::read(run.snapshot_path)?;
        snap.restore_into(&mut sim)?;
        done = snap.accesses_done;
    }
    let total = run.trace.len() as u64;
    if done > total {
        return Err(format!(
            "snapshot is {done} accesses in, but the trace has only {total}; \
             wrong trace for this snapshot?"
        ));
    }
    let tail = &run.trace.as_slice()[done as usize..];
    let target = run.stop_after.map_or(total, |n| n.min(total));

    if run.check {
        // Checked tails run under the oracles in one uninterruptible
        // stretch (the oracles own the step loop); `stop_after` still
        // works by truncating the tail and snapshotting at the cut.
        let budget = (target - done) as usize;
        let (head, _) = tail.split_at(budget.min(tail.len()));
        if target < total {
            // No oracle pass for a partial checked leg — the final leg
            // covers the whole resumed half.
            for a in head {
                sim.step(a);
            }
            let snap = SimSnapshot::capture(&sim, target)?;
            snap.write_atomic(run.snapshot_path)
                .map_err(|e| format!("write snapshot: {e}"))?;
            return Ok(CkptOutcome::Preempted {
                accesses_done: target,
            });
        }
        let (stats, report) = cosmos_verify::run_checked_resumed(run.config, sim, head)?;
        if !report.is_clean() {
            return Err(format!("oracle violations:\n{}", report.summary()));
        }
        return Ok(CkptOutcome::Completed {
            stats: Box::new(stats),
            report: Some(report),
        });
    }

    let mut since_snapshot = 0usize;
    for (i, access) in tail.iter().enumerate() {
        sim.step(access);
        done += 1;
        since_snapshot += 1;
        if done >= target {
            break;
        }
        if run.snapshot_every > 0 && since_snapshot >= run.snapshot_every {
            SimSnapshot::capture(&sim, done)?
                .write_atomic(run.snapshot_path)
                .map_err(|e| format!("write snapshot: {e}"))?;
            since_snapshot = 0;
        }
        if (i + 1) % CANCEL_POLL == 0 && cancel.load(Ordering::Relaxed) {
            SimSnapshot::capture(&sim, done)?
                .write_atomic(run.snapshot_path)
                .map_err(|e| format!("write snapshot: {e}"))?;
            return Ok(CkptOutcome::Preempted {
                accesses_done: done,
            });
        }
    }
    if done < total {
        // stop_after cut the run short: leave a snapshot at the cut.
        SimSnapshot::capture(&sim, done)?
            .write_atomic(run.snapshot_path)
            .map_err(|e| format!("write snapshot: {e}"))?;
        return Ok(CkptOutcome::Preempted {
            accesses_done: done,
        });
    }
    Ok(CkptOutcome::Completed {
        stats: Box::new(sim.finalize()),
        report: None,
    })
}

/// Builds the trace for a named sim job: `workload` at `accesses` under
/// the paper-default spec with `seed`. Graph construction is timed under
/// `telemetry`'s `graph_gen` phase and trace generation under
/// `trace_gen`, as [`GraphSet::with_telemetry`] times them for the figure
/// binaries.
pub fn build_trace(workload: Workload, accesses: usize, seed: u64, telemetry: &Telemetry) -> Trace {
    let spec = TraceSpec::paper_default(accesses, seed);
    match workload {
        Workload::Graph(kernel) => GraphSet::with_telemetry(spec, telemetry.clone()).trace(kernel),
        _ => {
            let _p = telemetry.phase("trace_gen");
            workload.generate(&spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cosmos_ckpt_test_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn stats_doc(stats: &SimStats) -> String {
        stats.to_json().to_string()
    }

    #[test]
    fn names_resolve() {
        assert_eq!(design_by_name("COSMOS").unwrap(), Design::Cosmos);
        assert_eq!(design_by_name("morphctr").unwrap(), Design::MorphCtr);
        assert!(design_by_name("nope").unwrap_err().contains("known:"));
        assert_eq!(workload_by_name("bfs").unwrap().name(), "BFS");
        assert!(workload_by_name("nope").unwrap_err().contains("known:"));
    }

    #[test]
    fn stop_and_resume_matches_uninterrupted() {
        let dir = tmpdir("stop_resume");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::Cosmos);
        let trace = build_trace(
            workload_by_name("bfs").unwrap(),
            8_000,
            11,
            &Telemetry::disabled(),
        );
        let cancel = AtomicBool::new(false);

        // Uninterrupted reference (no snapshot file → fresh run).
        let reference = {
            let other = dir.join("ref.snap.json");
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &other,
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                CkptOutcome::Preempted { .. } => panic!("reference preempted"),
            }
        };

        // Interrupted leg: stop at half, then resume to the end.
        let half = trace.len() as u64 / 2;
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: Some(half),
            check: false,
        };
        match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Preempted { accesses_done } => assert_eq!(accesses_done, half),
            CkptOutcome::Completed { .. } => panic!("leg1 should have stopped"),
        }
        let leg2 = CheckpointRun {
            stop_after: None,
            ..leg1
        };
        let resumed = match run_checkpointed(&leg2, &cancel).unwrap() {
            CkptOutcome::Completed { stats, .. } => stats,
            CkptOutcome::Preempted { .. } => panic!("leg2 should have finished"),
        };
        assert_eq!(stats_doc(&resumed), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checked_resume_is_clean_and_identical() {
        let dir = tmpdir("checked_resume");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace(
            workload_by_name("pr").unwrap(),
            6_000,
            3,
            &Telemetry::disabled(),
        );
        let cancel = AtomicBool::new(false);

        let reference = {
            let other = dir.join("ref.snap.json");
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &other,
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                _ => panic!(),
            }
        };

        let half = trace.len() as u64 / 2;
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: Some(half),
            check: false,
        };
        assert!(matches!(
            run_checkpointed(&leg1, &cancel).unwrap(),
            CkptOutcome::Preempted { .. }
        ));
        let leg2 = CheckpointRun {
            stop_after: None,
            check: true,
            ..leg1
        };
        let (stats, report) = match run_checkpointed(&leg2, &cancel).unwrap() {
            CkptOutcome::Completed { stats, report } => (stats, report.unwrap()),
            _ => panic!("checked leg should complete"),
        };
        assert!(report.is_clean(), "{}", report.summary());
        assert_eq!(stats_doc(&stats), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_flag_preempts_with_resumable_snapshot() {
        let dir = tmpdir("cancel");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace(
            workload_by_name("dfs").unwrap(),
            9_000,
            5,
            &Telemetry::disabled(),
        );

        let reference = {
            let cancel = AtomicBool::new(false);
            let run = CheckpointRun {
                config: &config,
                trace: &trace,
                snapshot_path: &dir.join("ref.snap.json"),
                snapshot_every: 0,
                stop_after: None,
                check: false,
            };
            match run_checkpointed(&run, &cancel).unwrap() {
                CkptOutcome::Completed { stats, .. } => stats,
                _ => panic!(),
            }
        };

        // Cancel pre-set: the run preempts at the first poll point.
        let cancel = AtomicBool::new(true);
        let leg1 = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 0,
            stop_after: None,
            check: false,
        };
        let at = match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Preempted { accesses_done } => accesses_done,
            _ => panic!("should preempt"),
        };
        assert!(at > 0 && at < trace.len() as u64);

        let cancel = AtomicBool::new(false);
        let resumed = match run_checkpointed(&leg1, &cancel).unwrap() {
            CkptOutcome::Completed { stats, .. } => stats,
            _ => panic!("resume should complete"),
        };
        assert_eq!(stats_doc(&resumed), stats_doc(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_snapshots_leave_latest_resume_point() {
        let dir = tmpdir("periodic");
        let snap = dir.join("run.snap.json");
        let config = SimConfig::paper_default(Design::MorphCtr);
        let trace = build_trace(
            workload_by_name("bfs").unwrap(),
            5_000,
            9,
            &Telemetry::disabled(),
        );
        let cancel = AtomicBool::new(false);
        let run = CheckpointRun {
            config: &config,
            trace: &trace,
            snapshot_path: &snap,
            snapshot_every: 1_000,
            stop_after: None,
            check: false,
        };
        match run_checkpointed(&run, &cancel).unwrap() {
            CkptOutcome::Completed { .. } => {}
            _ => panic!(),
        }
        // The last periodic checkpoint is on disk and resumable.
        let on_disk = SimSnapshot::read(&snap).unwrap();
        assert!(on_disk.accesses_done >= 1_000);
        assert!(on_disk.restore(&config).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
