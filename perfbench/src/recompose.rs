//! `Simulator::step` recomposed from the public layer calls, with host-time
//! spans around each call into a layer.
//!
//! [`TracedSim`] builds the same components `Simulator::new` builds and
//! calls them in the same order with the same arguments, so its
//! statistics must equal `Simulator::run`'s exactly; the benchmark checks
//! that on every traced job. A seeded sample of accesses is timed: a
//! timed access is wrapped in two `Instant::now` reads, and so is every
//! call it makes into one layer, the layers taking turns from one timed
//! access to the next. Timing one layer per access keeps the clock reads,
//! which stall the pipeline, from piling up inside a step. Untimed
//! accesses only count calls.
//!
//! The secure path issues its own counter and tree fetches to DRAM; those
//! stay inside the secure spans. The `dram` span times the data-path
//! calls the simulator makes directly.

use cosmos_common::rng::streams;
use cosmos_common::{Cycle, LineAddr, MemAccess, SplitMix64, Trace};
use cosmos_core::hierarchy::{CacheHierarchy, DataHit};
use cosmos_core::secure_path::SecurePath;
use cosmos_core::timing::CoreTimeline;
use cosmos_core::{Design, SimConfig, SimStats, StatsEstimate};
use cosmos_dram::Dram;
use cosmos_rl::{DataLocation, DataLocationPredictor};
use cosmos_sampling::{SampledRun, SamplingPlan};
use std::time::Instant;

/// Calls into one layer and the host time of the timed ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    /// Every call.
    pub calls: u64,
    /// Calls made on timed accesses.
    pub timed: u64,
    /// Summed measured nanoseconds of the timed calls.
    pub ns: f64,
}

impl Span {
    /// Adds `other`'s counts and time.
    pub fn merge(&mut self, other: &Span) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }

    /// Mean nanoseconds per call with the empty-span cost `empty_ns`
    /// removed; 0 when nothing was timed.
    pub fn ns_per_call(&self, empty_ns: f64) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.ns / self.timed as f64 - empty_ns).max(0.0)
        }
    }

    /// Estimated host nanoseconds of every call, timed or not.
    pub fn total_ns(&self, empty_ns: f64) -> f64 {
        self.ns_per_call(empty_ns) * self.calls as f64
    }
}

/// The spans of one traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Spans {
    /// `CacheHierarchy::access`.
    pub front_end: Span,
    /// `SecurePath::ctr_read` and `ctr_read_after_kill`.
    pub ctr_read: Span,
    /// `SecurePath::ctr_write`.
    pub ctr_write: Span,
    /// `SecurePath::mac_read`.
    pub mac_read: Span,
    /// `DataLocationPredictor::predict_with_state` plus `learn_at`.
    pub data_pred: Span,
    /// Data-path `Dram::access`.
    pub dram: Span,
    /// The whole step.
    pub step: Span,
    /// Writeback lines the front end returned.
    pub writebacks: u64,
}

impl Spans {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.layers_mut().into_iter().zip(other.layers()) {
            a.merge(&b);
        }
        self.step.merge(&other.step);
        self.writebacks += other.writebacks;
    }

    fn layers(&self) -> [Span; 6] {
        [
            self.front_end,
            self.ctr_read,
            self.ctr_write,
            self.mac_read,
            self.data_pred,
            self.dram,
        ]
    }

    fn layers_mut(&mut self) -> [&mut Span; 6] {
        [
            &mut self.front_end,
            &mut self.ctr_read,
            &mut self.ctr_write,
            &mut self.mac_read,
            &mut self.data_pred,
            &mut self.dram,
        ]
    }

    /// Secure-path calls of every kind.
    pub fn secure_calls(&self) -> u64 {
        self.ctr_read.calls + self.ctr_write.calls + self.mac_read.calls
    }

    /// Estimated host nanoseconds in the secure path.
    pub fn secure_ns(&self, empty_ns: f64) -> f64 {
        [self.ctr_read, self.ctr_write, self.mac_read]
            .iter()
            .map(|s| s.total_ns(empty_ns))
            .sum()
    }

    /// Host nanoseconds of the timed steps with every timer's cost
    /// removed. A step's measured time carries its own empty-span cost
    /// plus two clock reads per child span, each costing about one
    /// empty span.
    fn timed_step_ns(&self, empty_ns: f64) -> f64 {
        let children: u64 = self.layers().iter().map(|s| s.timed).sum();
        self.step.ns - (self.step.timed + 2 * children) as f64 * empty_ns
    }

    /// Mean host nanoseconds of a step, every timer's cost removed.
    pub fn step_ns(&self, empty_ns: f64) -> f64 {
        if self.step.timed == 0 {
            0.0
        } else {
            self.timed_step_ns(empty_ns) / self.step.timed as f64
        }
    }

    /// Host time per access spent in the step itself rather than in any
    /// layer — core timeline, dispatch, statistics: the mean step less
    /// each layer's mean cost times its calls per access.
    pub fn glue_ns_per_access(&self, empty_ns: f64) -> f64 {
        if self.step.calls == 0 {
            return 0.0;
        }
        let layers_ns: f64 = self.layers().iter().map(|s| s.total_ns(empty_ns)).sum();
        self.step_ns(empty_ns) - layers_ns / self.step.calls as f64
    }

    /// Estimated host nanoseconds of every step, timed or not.
    pub fn step_total_ns(&self, empty_ns: f64) -> f64 {
        self.step_ns(empty_ns) * self.step.calls as f64
    }
}

/// Mean cost of an empty span — two back-to-back `Instant::now` reads —
/// in nanoseconds: the median over batches, so a preempted batch does not
/// skew it.
pub fn empty_span_ns() -> f64 {
    const BATCH: u32 = 4096;
    let mut batches: Vec<f64> = (0..31)
        .map(|_| {
            let mut ns = 0u128;
            for _ in 0..BATCH {
                let t0 = Instant::now();
                ns += t0.elapsed().as_nanos();
            }
            ns as f64 / f64::from(BATCH)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// The layer a timed access times, as `TracedSim::focus` holds it; 0 on
/// untimed accesses.
const FRONT_END: usize = 1;
const CTR_READ: usize = 2;
const CTR_WRITE: usize = 3;
const MAC_READ: usize = 4;
const DATA_PRED: usize = 5;
const DRAM: usize = 6;
const LAYERS: usize = 6;

/// Runs `f` as one call into the layer `span`, timing it when `on`.
#[inline(always)]
fn span<T>(on: bool, span: &mut Span, f: impl FnOnce() -> T) -> T {
    span.calls += 1;
    if !on {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    span.ns += t0.elapsed().as_nanos() as f64;
    span.timed += 1;
    out
}

/// A simulator assembled from the layer components, timing a sample of
/// its steps.
pub struct TracedSim {
    config: SimConfig,
    hierarchy: CacheHierarchy,
    secure: Option<SecurePath>,
    data_pred: Option<DataLocationPredictor>,
    dram: Dram,
    timeline: CoreTimeline,
    wb_scratch: Vec<LineAddr>,
    stats: SimStats,
    spans: Spans,
    sampler: SplitMix64,
    sample_every: u64,
    focus: usize,
}

impl TracedSim {
    /// Builds the components `Simulator::new(config)` builds. One access
    /// in `sample_every` (chosen by a generator seeded with `sample_seed`)
    /// is timed; 0 times none.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid or samples a convergence timeline
    /// (`sample_interval != 0`), which the recomposition does not model.
    pub fn new(config: SimConfig, sample_seed: u64, sample_every: u64) -> Self {
        config.validate();
        assert_eq!(
            config.sample_interval, 0,
            "the traced step does not record convergence timelines"
        );
        let secure = config.design.is_secure().then(|| SecurePath::new(&config));
        let data_pred = config.design.has_data_predictor().then(|| {
            let mut dp = DataLocationPredictor::with_rewards(
                config.data_rl,
                config.rewards.data,
                streams::DATA_PREDICTOR.derive_seed(config.seed),
            );
            dp.set_telemetry(config.telemetry.clone());
            dp
        });
        let mut dram = Dram::new(config.dram);
        dram.set_telemetry(config.telemetry.clone());
        Self {
            hierarchy: CacheHierarchy::new(&config),
            secure,
            data_pred,
            dram,
            timeline: CoreTimeline::new(config.cores),
            wb_scratch: Vec::new(),
            stats: SimStats::default(),
            spans: Spans::default(),
            sampler: SplitMix64::new(sample_seed),
            sample_every,
            focus: 0,
            config,
        }
    }

    /// Runs the whole trace; returns the statistics `Simulator::run` would
    /// and the spans.
    pub fn run(mut self, trace: &Trace) -> (SimStats, Spans) {
        self.run_slice(trace.as_slice());
        (self.snapshot(), self.spans)
    }

    /// `cosmos_sampling::run_sampled` over the same plan: each
    /// representative's warmup, then its interval measured against the
    /// statistics the warmup ended at, merged by cluster weight.
    pub fn run_sampled(mut self, trace: &Trace, plan: &SamplingPlan) -> (SampledRun, Spans) {
        let accesses = trace.as_slice();
        let mut estimate = StatsEstimate::new();
        let mut simulated = 0u64;
        let mut cursor = 0usize;
        for rep in &plan.representatives {
            let warm_from = rep.warmup_start.max(cursor);
            self.run_slice(&accesses[warm_from..rep.interval.start]);
            let baseline = self.snapshot();
            self.run_slice(&accesses[rep.interval.range()]);
            estimate.add_weighted(&self.snapshot().since(&baseline), rep.scale());
            simulated += (rep.interval.start - warm_from + rep.interval.len) as u64;
            cursor = rep.interval.start + rep.interval.len;
        }
        let run = SampledRun {
            stats: estimate.reconstruct(),
            simulated_accesses: simulated,
        };
        (run, self.spans)
    }

    fn run_slice(&mut self, accesses: &[MemAccess]) {
        for access in accesses {
            self.step(access);
        }
    }

    fn step(&mut self, access: &MemAccess) {
        let on = self.sample_every != 0 && self.sampler.next_below(self.sample_every) == 0;
        self.focus = if on {
            1 + self.spans.step.timed as usize % LAYERS
        } else {
            0
        };
        let t0 = on.then(Instant::now);
        let core = access.core as usize % self.config.cores;
        let line = access.addr.line();
        let issue = self.timeline.issue(core, access.inst_gap as u64);
        self.stats.instructions += access.inst_gap as u64 + 1;
        self.stats.accesses += 1;
        if let Some(sp) = self.secure.as_mut() {
            sp.set_tenant(access.tenant);
        }
        if access.kind.is_write() {
            self.stats.writes += 1;
            self.process_write(core, line, issue);
        } else {
            self.stats.reads += 1;
            let done = self.process_read(core, access, line, issue);
            self.stats.total_read_latency += (done - issue).value();
            self.timeline.retire(core, done);
        }
        self.spans.step.calls += 1;
        if let Some(t0) = t0 {
            self.spans.step.ns += t0.elapsed().as_nanos() as f64;
            self.spans.step.timed += 1;
        }
    }

    fn on_chip_latency(&self, hit: DataHit) -> u64 {
        let c = &self.config;
        match hit {
            DataHit::L1 => c.l1.latency,
            DataHit::L2 => c.l1.latency + c.l2.latency,
            DataHit::Llc | DataHit::Dram => c.l1.latency + c.l2.latency + c.llc.latency,
        }
    }

    fn process_read(
        &mut self,
        core: usize,
        access: &MemAccess,
        line: LineAddr,
        issue: Cycle,
    ) -> Cycle {
        let mut writebacks = std::mem::take(&mut self.wb_scratch);
        let hit = span(self.focus == FRONT_END, &mut self.spans.front_end, || {
            self.hierarchy.access(core, line, false, &mut writebacks)
        });
        self.spans.writebacks += writebacks.len() as u64;
        self.drain_writebacks(&writebacks, issue);
        self.wb_scratch = writebacks;

        if hit == DataHit::L1 {
            return issue + self.config.l1.latency;
        }
        let t_l1_miss = issue + self.config.l1.latency;
        let design = self.config.design;

        let early_ctr = if design == Design::Emcc {
            let sp = self.secure.as_mut().expect("EMCC is secure");
            Some(span(
                self.focus == CTR_READ,
                &mut self.spans.ctr_read,
                || sp.ctr_read(line, t_l1_miss, &mut self.dram, &mut self.stats.traffic),
            ))
        } else {
            None
        };

        if let Some(dp) = self.data_pred.as_mut() {
            let actual = if hit.on_chip() {
                DataLocation::OnChip
            } else {
                DataLocation::OffChip
            };
            let predicted = span(self.focus == DATA_PRED, &mut self.spans.data_pred, || {
                let (predicted, s) = dp.predict_with_state(access.addr);
                dp.learn_at(s, predicted, actual);
                predicted
            });
            return match (predicted, actual) {
                (DataLocation::OffChip, DataLocation::OffChip) => {
                    let sp = self.secure.as_mut().expect("COSMOS is secure");
                    let ctr = span(self.focus == CTR_READ, &mut self.spans.ctr_read, || {
                        sp.ctr_read(line, t_l1_miss, &mut self.dram, &mut self.stats.traffic)
                    });
                    let data_done = span(self.focus == DRAM, &mut self.spans.dram, || {
                        self.dram.access(line, t_l1_miss, false)
                    });
                    self.stats.traffic.data_reads += 1;
                    span(self.focus == MAC_READ, &mut self.spans.mac_read, || {
                        sp.mac_read(&mut self.stats.traffic)
                    });
                    self.stats.early_offchip_reads += 1;
                    self.config.telemetry.spec_issue();
                    data_done.max(ctr.otp_ready) + self.config.auth_latency
                }
                (DataLocation::OffChip, DataLocation::OnChip) => {
                    let sp = self.secure.as_mut().expect("COSMOS is secure");
                    span(self.focus == CTR_READ, &mut self.spans.ctr_read, || {
                        sp.ctr_read_after_kill(
                            line,
                            t_l1_miss,
                            &mut self.dram,
                            &mut self.stats.traffic,
                        )
                    });
                    self.stats.traffic.killed_speculative += 1;
                    self.config.telemetry.spec_kill();
                    issue + self.on_chip_latency(hit)
                }
                (DataLocation::OnChip, DataLocation::OnChip) => issue + self.on_chip_latency(hit),
                (DataLocation::OnChip, DataLocation::OffChip) => {
                    self.serialized_dram_read(line, issue)
                }
            };
        }

        if hit.on_chip() {
            return issue + self.on_chip_latency(hit);
        }
        match design {
            Design::Np => {
                let t3 = issue + self.on_chip_latency(DataHit::Dram);
                self.stats.traffic.data_reads += 1;
                span(self.focus == DRAM, &mut self.spans.dram, || {
                    self.dram.access(line, t3, false)
                })
            }
            Design::Emcc => {
                let t3 = issue + self.on_chip_latency(DataHit::Dram);
                let data_done = span(self.focus == DRAM, &mut self.spans.dram, || {
                    self.dram.access(line, t3, false)
                });
                self.stats.traffic.data_reads += 1;
                let ctr = early_ctr.expect("EMCC issued the CTR at L1 miss");
                let sp = self.secure.as_mut().expect("EMCC is secure");
                span(self.focus == MAC_READ, &mut self.spans.mac_read, || {
                    sp.mac_read(&mut self.stats.traffic)
                });
                data_done.max(ctr.otp_ready) + self.config.auth_latency
            }
            _ => self.serialized_dram_read(line, issue),
        }
    }

    fn serialized_dram_read(&mut self, line: LineAddr, issue: Cycle) -> Cycle {
        let t3 = issue + self.on_chip_latency(DataHit::Dram);
        let data_done = span(self.focus == DRAM, &mut self.spans.dram, || {
            self.dram.access(line, t3, false)
        });
        self.stats.traffic.data_reads += 1;
        match self.secure.as_mut() {
            Some(sp) => {
                let ctr = span(self.focus == CTR_READ, &mut self.spans.ctr_read, || {
                    sp.ctr_read(line, t3, &mut self.dram, &mut self.stats.traffic)
                });
                span(self.focus == MAC_READ, &mut self.spans.mac_read, || {
                    sp.mac_read(&mut self.stats.traffic)
                });
                data_done.max(ctr.otp_ready) + self.config.auth_latency
            }
            None => data_done,
        }
    }

    fn process_write(&mut self, core: usize, line: LineAddr, issue: Cycle) {
        let mut writebacks = std::mem::take(&mut self.wb_scratch);
        let hit = span(self.focus == FRONT_END, &mut self.spans.front_end, || {
            self.hierarchy.access(core, line, true, &mut writebacks)
        });
        self.spans.writebacks += writebacks.len() as u64;
        self.timeline.retire(core, issue + self.config.l1.latency);
        if hit == DataHit::Dram {
            self.stats.traffic.data_reads += 1;
            span(self.focus == DRAM, &mut self.spans.dram, || {
                self.dram.access(line, issue, false)
            });
            if let Some(sp) = self.secure.as_mut() {
                span(self.focus == CTR_READ, &mut self.spans.ctr_read, || {
                    sp.ctr_read(line, issue, &mut self.dram, &mut self.stats.traffic)
                });
                span(self.focus == MAC_READ, &mut self.spans.mac_read, || {
                    sp.mac_read(&mut self.stats.traffic)
                });
            }
        }
        self.drain_writebacks(&writebacks, issue);
        self.wb_scratch = writebacks;
    }

    fn drain_writebacks(&mut self, writebacks: &[LineAddr], now: Cycle) {
        for &wb in writebacks {
            self.stats.traffic.data_writes += 1;
            span(self.focus == DRAM, &mut self.spans.dram, || {
                self.dram.access(wb, now, true)
            });
            if let Some(sp) = self.secure.as_mut() {
                span(self.focus == CTR_WRITE, &mut self.spans.ctr_write, || {
                    sp.ctr_write(wb, now, &mut self.dram, &mut self.stats.traffic)
                });
            }
        }
    }

    /// The statistics as `Simulator::snapshot` assembles them.
    fn snapshot(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.cycles = self.timeline.horizon();
        stats.l1 = self.hierarchy.l1_stats();
        stats.l2 = self.hierarchy.l2_stats();
        stats.llc = self.hierarchy.llc_stats();
        if let Some(sp) = &self.secure {
            stats.ctr_cache = *sp.ctr_cache().stats();
            stats.mt_cache = *sp.mt_cache().stats();
            stats.ctr_overflows = sp.overflows();
            stats.tenant_ctr = *sp.tenant_stats();
            if let Some(loc) = sp.locality() {
                stats.ctr_pred = *loc.stats();
            }
        }
        if let Some(dp) = &self.data_pred {
            stats.data_pred = *dp.stats();
        }
        stats.dram = *self.dram.stats();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_core::Simulator;
    use cosmos_experiments::GraphSet;
    use cosmos_sampling::{run_sampled, SamplingConfig};
    use cosmos_workloads::graph::GraphKernel;
    use cosmos_workloads::ml::MlModel;
    use cosmos_workloads::{TraceSpec, Workload};

    const ALL_DESIGNS: [Design; 7] = [
        Design::Np,
        Design::MorphCtr,
        Design::Emcc,
        Design::Rmcc,
        Design::CosmosDp,
        Design::CosmosCp,
        Design::Cosmos,
    ];

    fn config(design: Design) -> SimConfig {
        let mut c = SimConfig::paper_default(design);
        c.seed = 11;
        c
    }

    fn assert_recomposes(trace: &Trace, what: &str) {
        for design in ALL_DESIGNS {
            let expected = Simulator::new(config(design)).run(trace);
            for every in [0, 1, 7] {
                let (stats, spans) = TracedSim::new(config(design), 3, every).run(trace);
                assert_eq!(stats, expected, "{what}/{design} sampling 1 in {every}");
                assert_eq!(spans.step.calls, trace.len() as u64);
                assert_eq!(spans.front_end.calls, trace.len() as u64);
                if every == 1 {
                    // Every access is timed; the layers take turns.
                    assert_eq!(spans.step.timed, spans.step.calls);
                    let n = trace.len() as u64;
                    assert_eq!(spans.front_end.timed, n.div_ceil(LAYERS as u64));
                }
            }
        }
    }

    #[test]
    fn recomposed_step_equals_simulator_run_on_a_graph_trace() {
        let set = GraphSet::new(TraceSpec::small_test(5).with_accesses(30_000));
        assert_recomposes(&set.trace(GraphKernel::Bfs), "bfs");
    }

    #[test]
    fn recomposed_step_equals_simulator_run_on_an_ml_trace() {
        let spec = TraceSpec::small_test(5).with_accesses(30_000);
        let trace = Workload::Ml(MlModel::figure17()[0]).generate(&spec);
        assert!(
            trace.iter().any(|a| a.kind.is_write()),
            "ML trace has writes"
        );
        assert_recomposes(&trace, "ml");
    }

    #[test]
    fn recomposed_sampling_equals_run_sampled() {
        let set = GraphSet::new(TraceSpec::small_test(5).with_accesses(60_000));
        let trace = set.trace(GraphKernel::Pr);
        let plan = SamplingPlan::build(&trace, &SamplingConfig::for_trace(trace.len()));
        assert!(plan.representatives.len() > 1);
        for design in [Design::Np, Design::MorphCtr, Design::Cosmos] {
            let expected = run_sampled(&config(design), &trace, &plan);
            let (run, spans) = TracedSim::new(config(design), 3, 7).run_sampled(&trace, &plan);
            assert_eq!(run, expected, "{design}");
            assert_eq!(spans.step.calls, expected.simulated_accesses);
        }
    }

    #[test]
    fn glue_accounting_removes_timer_cost() {
        let child = Span {
            calls: 4,
            timed: 2,
            ns: 2.0 * (100.0 + 50.0),
        };
        let spans = Spans {
            front_end: child,
            step: Span {
                calls: 4,
                timed: 2,
                // Two steps: 100 ns of child work + 30 ns of glue each, one
                // child span (2 reads) and the step's own empty cost each.
                ns: 2.0 * (100.0 + 30.0 + 3.0 * 50.0),
            },
            ..Spans::default()
        };
        assert!((spans.glue_ns_per_access(50.0) - 30.0).abs() < 1e-9);
        assert!((spans.timed_step_ns(50.0) - 2.0 * 130.0).abs() < 1e-9);
        assert!((spans.step_total_ns(50.0) - 4.0 * 130.0).abs() < 1e-9);
        assert!((child.ns_per_call(50.0) - 100.0).abs() < 1e-9);
    }
}
