//! The trace-driven simulator: per-core timelines, the design-specific
//! data/CTR datapaths, and statistics collection.

use crate::config::{Design, SimConfig};
use crate::front_end::{FrontEnd, FrontEndStream, HierarchyKey};
use crate::hierarchy::{CacheHierarchy, DataHit};
use crate::secure_path::SecurePath;
use crate::stats::{SimStats, TimelinePoint};
use crate::timing::CoreTimeline;
use cosmos_common::{Cycle, LineAddr, MemAccess, Trace};
use cosmos_dram::Dram;
use cosmos_rl::{DataLocation, DataLocationPredictor};
use std::sync::Arc;

const REPLAY_HAS_NO_STATE: &str =
    "a replaying simulator has no cache hierarchy to snapshot; run it live";

/// The COSMOS simulator.
///
/// Consumes a trace and produces [`SimStats`]. Cores execute one
/// instruction per cycle between memory accesses; loads block their core
/// until completion, stores retire through a store buffer at L1 latency
/// (their cache fills, writebacks, and secure-path work still happen and
/// are charged as traffic).
pub struct Simulator {
    config: SimConfig,
    front: FrontEnd,
    secure: Option<SecurePath>,
    data_pred: Option<DataLocationPredictor>,
    dram: Dram,
    timeline: CoreTimeline,
    // Reusable writeback buffer (capacity persists across accesses so the
    // hot path never allocates).
    wb_scratch: Vec<LineAddr>,
    stats: SimStats,
    // Statistics snapshot taken at the end of warmup; `finalize` reports
    // only what accumulated after it (boxed: it is absent on the hot path).
    baseline: Option<Box<SimStats>>,
    // Timeline window state.
    window_ctr_total: u64,
    window_ctr_miss: u64,
}

impl Simulator {
    /// Builds a simulator for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    pub fn new(config: SimConfig) -> Self {
        let front = FrontEnd::Live(Box::new(CacheHierarchy::new(&config)));
        Self::with_front_end(config, front)
    }

    /// Builds a simulator for `config` whose L1/L2/LLC outcomes are read
    /// from `stream` instead of simulated (see [`crate::front_end`]). It
    /// allocates no cache hierarchy and produces the same statistics as
    /// [`Simulator::new`] over the trace the stream was recorded from.
    /// [`Simulator::save_state`] and [`Simulator::load_state`] fail on it.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid, if `stream` was recorded under a
    /// different hierarchy than `config` describes, and — while running —
    /// when the trace outlasts the stream.
    pub fn replaying(config: SimConfig, stream: Arc<FrontEndStream>) -> Self {
        assert_eq!(
            stream.key(),
            HierarchyKey::of(&config),
            "front-end replay: stream recorded under a different cache hierarchy"
        );
        Self::with_front_end(config, FrontEnd::replay(stream))
    }

    fn with_front_end(config: SimConfig, front: FrontEnd) -> Self {
        config.validate();
        let secure = config.design.is_secure().then(|| SecurePath::new(&config));
        let data_pred = config.design.has_data_predictor().then(|| {
            let mut dp = DataLocationPredictor::with_rewards(
                config.data_rl,
                config.rewards.data,
                cosmos_common::rng::streams::DATA_PREDICTOR.derive_seed(config.seed),
            );
            dp.set_telemetry(config.telemetry.clone());
            dp
        });
        let mut dram = Dram::new(config.dram);
        dram.set_telemetry(config.telemetry.clone());
        Self {
            front,
            secure,
            data_pred,
            dram,
            timeline: CoreTimeline::new(config.cores),
            wb_scratch: Vec::new(),
            stats: SimStats::default(),
            baseline: None,
            window_ctr_total: 0,
            window_ctr_miss: 0,
            config,
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The secure path, when the design has one (checker access).
    pub fn secure(&self) -> Option<&SecurePath> {
        self.secure.as_ref()
    }

    /// Per-core completion cycles so far (checker access: each core's
    /// timeline must only move forward).
    pub fn core_ready(&self) -> &[Cycle] {
        self.timeline.ready()
    }

    /// Attaches a correctness observer to the secure path (see
    /// [`crate::check`]). Returns `false` when the design has no secure
    /// path to observe (NP).
    pub fn set_secure_observer(&mut self, observer: Box<dyn crate::check::SecureObserver>) -> bool {
        match self.secure.as_mut() {
            Some(sp) => {
                sp.set_observer(observer);
                true
            }
            None => false,
        }
    }

    /// Runs the whole trace and returns the statistics.
    pub fn run(mut self, trace: &Trace) -> SimStats {
        for access in trace.iter() {
            self.step(access);
        }
        self.finalize()
    }

    /// Runs a streaming [`cosmos_common::TraceSource`] to exhaustion —
    /// useful for workloads too large to materialize.
    pub fn run_source(mut self, source: &mut dyn cosmos_common::TraceSource) -> SimStats {
        while let Some(access) = source.next_access() {
            self.step(&access);
        }
        self.finalize()
    }

    /// Processes a single access: issue (skipping the instruction gap in
    /// one step), resolve the completion time through the component chain,
    /// retire.
    // cosmos-lint: hot
    pub fn step(&mut self, access: &MemAccess) {
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
            let latency = (done - issue).value();
            self.stats.total_read_latency += latency;
            self.timeline.retire(core, done);
        }

        // Timeline sampling is off (interval 0) for every figure run except
        // fig13; skip the call entirely on the common path.
        if self.config.sample_interval != 0 {
            self.maybe_sample();
        }
    }

    /// Runs `accesses` as a warmup prefix: caches, predictors, and DRAM
    /// state all evolve exactly as in a normal run, but the statistics
    /// accumulated so far are excluded from [`Simulator::finalize`]'s
    /// report. Used by interval sampling to prime microarchitectural state
    /// before a measured representative interval.
    ///
    /// Calling it again replaces the previous measurement baseline.
    pub fn warmup<'a>(&mut self, accesses: impl IntoIterator<Item = &'a MemAccess>) {
        for access in accesses {
            self.step(access);
        }
        self.freeze_stats();
    }

    /// Marks the current statistics as the measurement baseline:
    /// [`Simulator::finalize`] will report only what accumulates from here
    /// on. State (cache contents, predictor tables, core timelines) is
    /// untouched.
    pub fn freeze_stats(&mut self) {
        self.baseline = Some(Box::new(self.snapshot()));
    }

    /// A non-destructive snapshot of the *cumulative* statistics (warmup
    /// included), as of the accesses processed so far.
    pub fn snapshot(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.cycles = self.timeline.horizon();
        [stats.l1, stats.l2, stats.llc] = self.front.level_stats();
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

    /// Serializes the complete microarchitectural and statistical state of
    /// the simulator: caches, counters, predictors (tables, CET, RNG
    /// positions), DRAM banks, core timelines, cumulative statistics, and
    /// any frozen measurement baseline. A simulator built from the *same*
    /// config and fed this state via [`Simulator::load_state`] continues
    /// byte-identically to one that never stopped.
    ///
    /// The writeback scratch buffer is not stored — it is empty between
    /// accesses (capacity-only). Configuration is not stored either; the
    /// caller pairs the state with its config (the serve layer adds a
    /// config fingerprint to its snapshot envelope).
    ///
    /// Fails for state that cannot round-trip: boxed replacement policies,
    /// attached CTR prefetchers, and a replayed front end.
    pub fn save_state(&self) -> Result<cosmos_common::json::Value, String> {
        use cosmos_common::json::Value;
        let hierarchy = match &self.front {
            FrontEnd::Live(h) => h.save_state()?,
            FrontEnd::Replay(_) => return Err(REPLAY_HAS_NO_STATE.into()),
        };
        let secure = match &self.secure {
            Some(sp) => sp.save_state()?,
            None => Value::Null,
        };
        let data_pred = match &self.data_pred {
            Some(dp) => dp.save_state(),
            None => Value::Null,
        };
        let baseline = match &self.baseline {
            Some(b) => b.to_json(),
            None => Value::Null,
        };
        Ok(cosmos_common::json!({
            "hierarchy": (hierarchy),
            "secure": (secure),
            "data_pred": (data_pred),
            "dram": (self.dram.save_state()),
            "timeline": (self.timeline.save_state()),
            "stats": (self.stats.to_json()),
            "baseline": (baseline),
            "window_ctr_total": (self.window_ctr_total),
            "window_ctr_miss": (self.window_ctr_miss),
        }))
    }

    /// Restores state produced by [`Simulator::save_state`] into a
    /// simulator built from the same configuration. Every mismatch —
    /// missing field, wrong geometry, design with/without a predictor the
    /// snapshot lacks/carries — is rejected with an error naming the
    /// offending field.
    pub fn load_state(&mut self, v: &cosmos_common::json::Value) -> Result<(), String> {
        use cosmos_common::json::{codec, Value};
        match &mut self.front {
            FrontEnd::Live(h) => h.load_state(codec::field(v, "hierarchy")?)?,
            FrontEnd::Replay(_) => return Err(REPLAY_HAS_NO_STATE.into()),
        }
        let secure = codec::field(v, "secure")?;
        match (self.secure.as_mut(), matches!(secure, Value::Null)) {
            (Some(sp), false) => sp.load_state(secure)?,
            (None, true) => {}
            (Some(_), true) => {
                return Err("snapshot has no secure path but this design expects one".into())
            }
            (None, false) => {
                return Err("snapshot carries a secure path but this design has none".into())
            }
        }
        let data_pred = codec::field(v, "data_pred")?;
        match (self.data_pred.as_mut(), matches!(data_pred, Value::Null)) {
            (Some(dp), false) => dp.load_state(data_pred)?,
            (None, true) => {}
            (Some(_), true) => {
                return Err(
                    "snapshot has no data-location predictor but this design expects one".into(),
                )
            }
            (None, false) => {
                return Err(
                    "snapshot carries a data-location predictor but this design has none".into(),
                )
            }
        }
        self.dram.load_state(codec::field(v, "dram")?)?;
        self.timeline.load_state(codec::field(v, "timeline")?)?;
        self.stats = SimStats::from_json(codec::field(v, "stats")?)?;
        let baseline = codec::field(v, "baseline")?;
        self.baseline = match baseline {
            Value::Null => None,
            other => Some(Box::new(SimStats::from_json(other)?)),
        };
        self.window_ctr_total = codec::u64_field(v, "window_ctr_total")?;
        self.window_ctr_miss = codec::u64_field(v, "window_ctr_miss")?;
        Ok(())
    }

    /// The baseline frozen by the last [`Simulator::warmup`] /
    /// [`Simulator::freeze_stats`] call, or zeroed statistics if none was
    /// frozen — `snapshot().since(&frozen_baseline())` is the current
    /// measurement window either way. Lets one simulator measure several
    /// windows without being consumed by [`Simulator::finalize`].
    pub fn frozen_baseline(&self) -> SimStats {
        match &self.baseline {
            Some(baseline) => (**baseline).clone(),
            None => SimStats::default(),
        }
    }

    /// Finishes the run and extracts statistics. With a warmup baseline
    /// ([`Simulator::warmup`] / [`Simulator::freeze_stats`]), reports only
    /// the measurement window after it.
    pub fn finalize(self) -> SimStats {
        let stats = self.snapshot();
        match &self.baseline {
            Some(baseline) => stats.since(baseline),
            None => stats,
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
        // Take/restore keeps the buffer's capacity across accesses.
        let mut writebacks = std::mem::take(&mut self.wb_scratch);
        let hit = self.front.access(core, line, false, &mut writebacks);
        self.drain_writebacks(&writebacks, issue);
        self.wb_scratch = writebacks;

        if hit == DataHit::L1 {
            return issue + self.config.l1.latency;
        }
        let t_l1_miss = issue + self.config.l1.latency;
        let design = self.config.design;

        // EMCC taps the CTR path at every L1 miss, unconditionally.
        let early_ctr = if design == Design::Emcc {
            let sp = self.secure.as_mut().expect("EMCC is secure");
            Some(sp.ctr_read(line, t_l1_miss, &mut self.dram, &mut self.stats.traffic))
        } else {
            None
        };

        // COSMOS data-location prediction at the L1 miss point: one state
        // hash shared between the prediction and the TD update.
        if let Some(dp) = self.data_pred.as_mut() {
            let (predicted, s) = dp.predict_with_state(access.addr);
            let actual = if hit.on_chip() {
                DataLocation::OnChip
            } else {
                DataLocation::OffChip
            };
            dp.learn_at(s, predicted, actual);

            let done = match (predicted, actual) {
                (DataLocation::OffChip, DataLocation::OffChip) => {
                    // Correct off-chip: speculative DRAM fetch + early CTR,
                    // both starting right after the L1 miss — L2/LLC lookup
                    // happens in parallel and is off the critical path.
                    let sp = self.secure.as_mut().expect("COSMOS is secure");
                    let ctr = sp.ctr_read(line, t_l1_miss, &mut self.dram, &mut self.stats.traffic);
                    let data_done = self.dram.access(line, t_l1_miss, false);
                    self.stats.traffic.data_reads += 1;
                    sp.mac_read(&mut self.stats.traffic);
                    self.stats.early_offchip_reads += 1;
                    self.config.telemetry.spec_issue();
                    data_done.max(ctr.otp_ready) + self.config.auth_latency
                }
                (DataLocation::OffChip, DataLocation::OnChip) => {
                    // Wrong off-chip: the speculative DRAM fetch is killed,
                    // but the CTR access proceeds (beneficial side effect,
                    // paper §6.1.2). The kill-flavoured read flags the
                    // sampled event so explain can attribute any miss here
                    // to misspeculation.
                    let sp = self.secure.as_mut().expect("COSMOS is secure");
                    sp.ctr_read_after_kill(
                        line,
                        t_l1_miss,
                        &mut self.dram,
                        &mut self.stats.traffic,
                    );
                    self.stats.traffic.killed_speculative += 1;
                    self.config.telemetry.spec_kill();
                    issue + self.on_chip_latency(hit)
                }
                (DataLocation::OnChip, DataLocation::OnChip) => issue + self.on_chip_latency(hit),
                (DataLocation::OnChip, DataLocation::OffChip) => {
                    // Wrong on-chip: fall back to the baseline serialized
                    // path — CTR and DRAM start only after the LLC miss.
                    self.serialized_dram_read(line, issue)
                }
            };
            return done;
        }

        // Non-predicting designs.
        if hit.on_chip() {
            return issue + self.on_chip_latency(hit);
        }
        match design {
            Design::Np => {
                let t3 = issue + self.on_chip_latency(DataHit::Dram);
                self.stats.traffic.data_reads += 1;
                self.dram.access(line, t3, false)
            }
            Design::Emcc => {
                let t3 = issue + self.on_chip_latency(DataHit::Dram);
                let data_done = self.dram.access(line, t3, false);
                self.stats.traffic.data_reads += 1;
                let ctr = early_ctr.expect("EMCC issued the CTR at L1 miss");
                let sp = self.secure.as_mut().expect("EMCC is secure");
                sp.mac_read(&mut self.stats.traffic);
                data_done.max(ctr.otp_ready) + self.config.auth_latency
            }
            _ => self.serialized_dram_read(line, issue),
        }
    }

    /// The baseline secure read path: L1+L2+LLC lookups, then DRAM data and
    /// CTR accesses in parallel, then authentication.
    fn serialized_dram_read(&mut self, line: LineAddr, issue: Cycle) -> Cycle {
        let t3 = issue + self.on_chip_latency(DataHit::Dram);
        let data_done = self.dram.access(line, t3, false);
        self.stats.traffic.data_reads += 1;
        match self.secure.as_mut() {
            Some(sp) => {
                let ctr = sp.ctr_read(line, t3, &mut self.dram, &mut self.stats.traffic);
                sp.mac_read(&mut self.stats.traffic);
                data_done.max(ctr.otp_ready) + self.config.auth_latency
            }
            None => data_done,
        }
    }

    fn process_write(&mut self, core: usize, line: LineAddr, issue: Cycle) {
        let mut writebacks = std::mem::take(&mut self.wb_scratch);
        let hit = self.front.access(core, line, true, &mut writebacks);
        // Store-buffer retirement: the core only pays the L1 latency.
        self.timeline.retire(core, issue + self.config.l1.latency);
        // A store miss that reaches DRAM still fetches (and decrypts) the
        // line — off the critical path, but real traffic.
        if hit == DataHit::Dram {
            self.stats.traffic.data_reads += 1;
            self.dram.access(line, issue, false);
            if let Some(sp) = self.secure.as_mut() {
                sp.ctr_read(line, issue, &mut self.dram, &mut self.stats.traffic);
                sp.mac_read(&mut self.stats.traffic);
            }
        }
        self.drain_writebacks(&writebacks, issue);
        self.wb_scratch = writebacks;
    }

    fn drain_writebacks(&mut self, writebacks: &[LineAddr], now: Cycle) {
        for &wb in writebacks {
            self.stats.traffic.data_writes += 1;
            self.dram.access(wb, now, true);
            if let Some(sp) = self.secure.as_mut() {
                sp.ctr_write(wb, now, &mut self.dram, &mut self.stats.traffic);
            }
        }
    }

    #[cold]
    fn maybe_sample(&mut self) {
        let interval = self.config.sample_interval;
        if interval == 0 || !self.stats.accesses.is_multiple_of(interval as u64) {
            return;
        }
        let (ctr_total, ctr_miss) = match &self.secure {
            Some(sp) => (
                sp.ctr_cache().stats().demand.total(),
                sp.ctr_cache().stats().demand.misses(),
            ),
            None => (0, 0),
        };
        let window_total = ctr_total - self.window_ctr_total;
        let window_miss = ctr_miss - self.window_ctr_miss;
        self.window_ctr_total = ctr_total;
        self.window_ctr_miss = ctr_miss;
        let (dp_accuracy, dp_correct, dp_total) = self
            .data_pred
            .as_ref()
            .map(|p| {
                let s = p.stats();
                let correct = s.correct_onchip + s.correct_offchip;
                (s.accuracy(), correct, s.total())
            })
            .unwrap_or((0.0, 0, 0));
        self.stats.timeline.push(TimelinePoint {
            accesses: self.stats.accesses,
            dp_accuracy,
            dp_correct,
            dp_total,
            ctr_miss_rate_window: cosmos_common::stats::ratio(window_miss, window_total),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_common::PhysAddr;

    fn tiny_config(design: Design) -> SimConfig {
        let mut c = SimConfig::paper_default(design);
        c.cores = 2;
        c.l1.size_bytes = 4096;
        c.l2.size_bytes = 16 * 1024;
        c.llc.size_bytes = 64 * 1024;
        c.ctr_cache.size_bytes = 8192;
        c.mt_cache.size_bytes = 8192;
        c.protected_bytes = 1 << 30;
        c
    }

    fn random_trace(n: usize, lines: u64, write_frac: f64, seed: u64) -> Trace {
        let mut rng = cosmos_common::SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(lines) * 64);
                let core = (rng.next_u32() % 2) as u8;
                if rng.chance(write_frac) {
                    MemAccess::write(core, addr, 3)
                } else {
                    MemAccess::read(core, addr, 3)
                }
            })
            .collect()
    }

    #[test]
    fn np_runs_and_counts() {
        let t = random_trace(5_000, 10_000, 0.2, 1);
        let stats = Simulator::new(tiny_config(Design::Np)).run(&t);
        assert_eq!(stats.accesses, 5_000);
        assert!(stats.cycles > 0);
        assert!(stats.ipc() > 0.0);
        assert_eq!(stats.traffic.ctr_reads, 0, "NP has no counters");
        assert_eq!(stats.traffic.mt_reads, 0);
    }

    #[test]
    fn secure_designs_add_metadata_traffic() {
        let t = random_trace(5_000, 100_000, 0.2, 2);
        let np = Simulator::new(tiny_config(Design::Np)).run(&t);
        let mc = Simulator::new(tiny_config(Design::MorphCtr)).run(&t);
        assert!(mc.traffic.ctr_reads > 0);
        assert!(mc.traffic.mt_reads > 0);
        assert!(mc.traffic.total() > np.traffic.total());
        assert!(mc.ipc() < np.ipc(), "security must cost performance");
    }

    #[test]
    fn all_designs_complete() {
        let t = random_trace(3_000, 50_000, 0.25, 3);
        for d in [
            Design::Np,
            Design::MorphCtr,
            Design::Emcc,
            Design::CosmosDp,
            Design::CosmosCp,
            Design::Cosmos,
        ] {
            let stats = Simulator::new(tiny_config(d)).run(&t);
            assert_eq!(stats.accesses, 3_000, "{d}");
            assert!(stats.cycles > 0, "{d}");
        }
    }

    #[test]
    fn predictor_only_on_dp_designs() {
        let t = random_trace(2_000, 50_000, 0.2, 4);
        let dp = Simulator::new(tiny_config(Design::CosmosDp)).run(&t);
        assert!(dp.data_pred.total() > 0);
        let cp = Simulator::new(tiny_config(Design::CosmosCp)).run(&t);
        assert_eq!(cp.data_pred.total(), 0);
    }

    #[test]
    fn locality_stats_only_on_cp_designs() {
        let t = random_trace(2_000, 50_000, 0.2, 5);
        let cp = Simulator::new(tiny_config(Design::CosmosCp)).run(&t);
        assert!(cp.ctr_pred.predictions > 0);
        let dp = Simulator::new(tiny_config(Design::CosmosDp)).run(&t);
        assert_eq!(dp.ctr_pred.predictions, 0);
    }

    #[test]
    fn tenant_attribution_splits_and_conserves() {
        let base = random_trace(6_000, 100_000, 0.2, 11);
        let tagged: Trace = base
            .iter()
            .enumerate()
            .map(|(i, a)| a.with_tenant((i % 2) as u8))
            .collect();

        let plain = Simulator::new(tiny_config(Design::MorphCtr)).run(&base);
        let split = Simulator::new(tiny_config(Design::MorphCtr)).run(&tagged);

        // Tenant tags are pure attribution: every other statistic is
        // untouched.
        let mut split_zeroed = split.clone();
        split_zeroed.tenant_ctr = plain.tenant_ctr;
        assert_eq!(split_zeroed, plain, "tenant tags perturbed results");

        // Untagged traces land entirely in bucket 0; the tagged run
        // splits across buckets 0 and 1 and conserves the demand total.
        let demand = plain.ctr_cache.demand.total();
        assert_eq!(plain.tenant_ctr[0].total(), demand);
        assert_eq!(plain.tenant_ctr[1].total(), 0);
        assert!(split.tenant_ctr[0].total() > 0);
        assert!(split.tenant_ctr[1].total() > 0);
        let split_sum: u64 = split.tenant_ctr.iter().map(|b| b.total()).sum();
        assert_eq!(split_sum, demand, "tenant buckets must partition lookups");
        assert!(
            split.tenant_ctr.iter().any(|b| b.miss_latency > 0),
            "read misses must accumulate latency"
        );
        // Large tenant ids fold into the bucket array instead of panicking.
        let folded: Trace = base.iter().map(|a| a.with_tenant(250)).collect();
        let f = Simulator::new(tiny_config(Design::MorphCtr)).run(&folded);
        assert_eq!(
            f.tenant_ctr[250 % crate::stats::MAX_TENANTS].total(),
            demand
        );
    }

    #[test]
    fn keyed_index_variants_run_and_differ() {
        let t = random_trace(8_000, 400_000, 0.2, 12);
        let run = |index| {
            let mut c = tiny_config(Design::MorphCtr);
            c.ctr_index = index;
            Simulator::new(c).run(&t)
        };
        use crate::config::CtrIndex;
        let modulo = run(CtrIndex::Modulo);
        let random = run(CtrIndex::Random);
        let skewed = run(CtrIndex::Skewed);
        for (name, s) in [("random", &random), ("skewed", &skewed)] {
            assert_eq!(s.accesses, modulo.accesses, "{name}");
            assert!(s.ctr_cache.demand.total() > 0, "{name}");
        }
        // The keyed mappings place lines differently, so the conflict
        // pattern (and thus the exact miss count) diverges from modulo.
        assert!(
            random.ctr_cache.demand.misses() != modulo.ctr_cache.demand.misses()
                || skewed.ctr_cache.demand.misses() != modulo.ctr_cache.demand.misses(),
            "keyed index variants never changed placement"
        );
    }

    #[test]
    fn deterministic_runs() {
        let t = random_trace(2_000, 20_000, 0.3, 6);
        let a = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        let b = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    fn timeline_sampling() {
        let t = random_trace(5_000, 20_000, 0.2, 7);
        let mut cfg = tiny_config(Design::Cosmos);
        cfg.sample_interval = 1000;
        let stats = Simulator::new(cfg).run(&t);
        assert_eq!(stats.timeline.len(), 5);
        assert!(stats
            .timeline
            .windows(2)
            .all(|w| w[0].accesses < w[1].accesses));
    }

    #[test]
    fn l1_hits_are_cheap() {
        // Single line hammered: everything hits L1 after the first access.
        let t: Trace = (0..1000)
            .map(|_| MemAccess::read(0, PhysAddr::new(0x40), 0))
            .collect();
        let stats = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        assert!(stats.l1.hit_rate() > 0.99);
        // 2 cycles L1 per access; the single cold miss (full secure DRAM
        // path) amortizes to a small constant over 1000 accesses.
        assert!(stats.avg_read_latency() <= 5.0);
    }

    #[test]
    fn empty_trace_is_fine() {
        let stats = Simulator::new(tiny_config(Design::Cosmos)).run(&Trace::new());
        assert_eq!(stats.accesses, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.ipc(), 0.0);
    }

    #[test]
    fn out_of_range_core_ids_wrap() {
        let t: Trace = (0..100u64)
            .map(|i| MemAccess::read(200 + (i % 4) as u8, PhysAddr::new(i * 64), 1))
            .collect();
        // tiny_config has 2 cores; core ids 200..204 must wrap, not panic.
        let stats = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        assert_eq!(stats.accesses, 100);
    }

    #[test]
    fn write_only_trace_runs_and_writes_back() {
        let t: Trace = (0..5000u64)
            .map(|i| MemAccess::write(0, PhysAddr::new((i % 4096) * 64 * 7), 1))
            .collect();
        let stats = Simulator::new(tiny_config(Design::MorphCtr)).run(&t);
        assert_eq!(stats.writes, 5000);
        assert_eq!(stats.reads, 0);
        assert!(stats.traffic.data_writes > 0, "dirty lines must write back");
        assert!(stats.ctr_overflows == 0 || stats.traffic.reencrypt_writes > 0);
    }

    #[test]
    fn single_access_latency_is_full_cold_path() {
        let t: Trace = std::iter::once(MemAccess::read(0, PhysAddr::new(0x40), 0)).collect();
        let np = Simulator::new(tiny_config(Design::Np)).run(&t);
        let mc = Simulator::new(tiny_config(Design::MorphCtr)).run(&t);
        // Secure cold read pays CTR DRAM + Merkle + AES + auth on top of NP.
        assert!(mc.total_read_latency > np.total_read_latency + 100);
    }

    #[test]
    fn warmup_excludes_prefix_from_stats() {
        let t = random_trace(6_000, 20_000, 0.2, 9);
        let half = t.len() / 2;
        let (prefix, suffix) = t.as_slice().split_at(half);

        let mut sim = Simulator::new(tiny_config(Design::Cosmos));
        sim.warmup(prefix.iter());
        for a in suffix {
            sim.step(a);
        }
        let window = sim.finalize();
        assert_eq!(window.accesses, suffix.len() as u64);

        // The warmup path must agree exactly with an explicit
        // snapshot-and-subtract over the same access stream.
        let mut manual = Simulator::new(tiny_config(Design::Cosmos));
        for a in prefix {
            manual.step(a);
        }
        let base = manual.snapshot();
        for a in suffix {
            manual.step(a);
        }
        let expected = manual.finalize().since(&base);
        assert_eq!(window, expected);

        // And the window is a strict subset of the full run.
        let full = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        assert!(window.cycles < full.cycles);
        assert!(window.l1.total() < full.l1.total());
        assert!(window.traffic.total() <= full.traffic.total());
    }

    #[test]
    fn freeze_stats_without_warmup_reports_everything_after() {
        let t = random_trace(2_000, 10_000, 0.2, 10);
        let mut sim = Simulator::new(tiny_config(Design::MorphCtr));
        sim.freeze_stats();
        for a in t.iter() {
            sim.step(a);
        }
        let stats = sim.finalize();
        assert_eq!(stats.accesses, t.len() as u64);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn early_offchip_reads_happen_in_cosmos() {
        // DRAM-resident working set with revisits: the predictor should
        // learn off-chip and trigger early accesses.
        let t = random_trace(20_000, 1_000_000, 0.0, 8);
        let stats = Simulator::new(tiny_config(Design::Cosmos)).run(&t);
        assert!(
            stats.early_offchip_reads > 0,
            "no early off-chip reads despite DRAM-heavy workload"
        );
    }

    const ALL_DESIGNS: [Design; 7] = [
        Design::Np,
        Design::MorphCtr,
        Design::Emcc,
        Design::Rmcc,
        Design::CosmosDp,
        Design::CosmosCp,
        Design::Cosmos,
    ];

    /// Runs `trace` live and replayed from one recorded stream; returns
    /// both results.
    fn live_and_replayed(config: &SimConfig, trace: &Trace) -> (SimStats, SimStats) {
        let stream = Arc::new(FrontEndStream::record(config, trace));
        let live = Simulator::new(config.clone()).run(trace);
        let replayed = Simulator::replaying(config.clone(), stream).run(trace);
        (live, replayed)
    }

    #[test]
    fn replay_matches_live_for_every_design() {
        let t = random_trace(12_000, 60_000, 0.6, 31);
        // One stream serves every design: the hierarchy key is shared.
        let stream = Arc::new(FrontEndStream::record(&tiny_config(Design::Np), &t));
        for d in ALL_DESIGNS {
            let live = Simulator::new(tiny_config(d)).run(&t);
            let replayed = Simulator::replaying(tiny_config(d), Arc::clone(&stream)).run(&t);
            assert_eq!(replayed, live, "{d}: replay diverged from the live run");
        }
    }

    #[test]
    fn replay_matches_live_on_graph_and_ml_traces() {
        use cosmos_workloads::{graph::GraphKernel, ml::MlModel, TraceSpec, Workload};
        let spec = TraceSpec::small_test(5).with_accesses(15_000);
        for w in [
            Workload::Graph(GraphKernel::Bfs),
            Workload::Ml(MlModel::Bert),
        ] {
            let t = w.generate(&spec);
            for d in [Design::MorphCtr, Design::Cosmos] {
                let mut config = tiny_config(d);
                config.cores = spec.cores;
                let (live, replayed) = live_and_replayed(&config, &t);
                assert_eq!(replayed, live, "{w}/{d}: replay diverged");
            }
        }
    }

    #[test]
    fn replay_matches_live_with_timeline_and_tenants() {
        let mut config = tiny_config(Design::Cosmos);
        config.sample_interval = 1_000;
        let t = random_trace(6_000, 40_000, 0.3, 32);
        let (live, replayed) = live_and_replayed(&config, &t);
        assert_eq!(live.timeline.len(), 6);
        assert_eq!(replayed, live, "timeline run diverged");

        let tagged: Trace = t
            .iter()
            .enumerate()
            .map(|(i, a)| a.with_tenant((i % 3) as u8))
            .collect();
        let (live, replayed) = live_and_replayed(&tiny_config(Design::MorphCtr), &tagged);
        assert!(live.tenant_ctr[2].total() > 0);
        assert_eq!(replayed, live, "tenant-tagged run diverged");
    }

    #[test]
    #[should_panic(
        expected = "front-end replay: stream recorded under a different cache hierarchy"
    )]
    fn replay_rejects_a_stream_of_another_core_count() {
        let t = random_trace(100, 1_000, 0.2, 33);
        let stream = Arc::new(FrontEndStream::record(&tiny_config(Design::Np), &t));
        let mut config = tiny_config(Design::Np);
        config.cores = 4;
        Simulator::replaying(config, stream);
    }

    #[test]
    #[should_panic(
        expected = "front-end replay: stream recorded under a different cache hierarchy"
    )]
    fn replay_rejects_a_stream_of_another_llc_size() {
        let t = random_trace(100, 1_000, 0.2, 34);
        let stream = Arc::new(FrontEndStream::record(&tiny_config(Design::Np), &t));
        let mut config = tiny_config(Design::Cosmos);
        config.llc.size_bytes *= 2;
        Simulator::replaying(config, stream);
    }

    #[test]
    #[should_panic(expected = "front-end replay: stream exhausted")]
    fn replay_panics_when_the_trace_outlasts_the_stream() {
        let t = random_trace(1_000, 10_000, 0.2, 35);
        let short: Trace = t.iter().take(999).copied().collect();
        let stream = Arc::new(FrontEndStream::record(&tiny_config(Design::Np), &short));
        Simulator::replaying(tiny_config(Design::MorphCtr), stream).run(&t);
    }

    #[test]
    fn replaying_simulator_cannot_snapshot() {
        let t = random_trace(500, 10_000, 0.2, 36);
        let config = tiny_config(Design::Cosmos);
        let state = {
            let mut live = Simulator::new(config.clone());
            for a in t.iter() {
                live.step(a);
            }
            live.save_state().expect("a live simulator saves")
        };
        let stream = Arc::new(FrontEndStream::record(&config, &t));
        let mut sim = Simulator::replaying(config, stream);
        for a in t.iter() {
            sim.step(a);
        }
        let err = sim
            .save_state()
            .expect_err("replay has no hierarchy to save");
        assert!(err.contains("replaying"), "unhelpful error: {err}");
        assert!(sim.load_state(&state).is_err());
    }

    fn counter(tele: &cosmos_telemetry::Telemetry, name: &str) -> u64 {
        let snap = tele.registry().expect("telemetry enabled").snapshot();
        match snap.iter().find(|(n, _)| n == name) {
            Some((_, cosmos_telemetry::metrics::MetricSnapshot::Counter(v))) => *v,
            other => panic!("no counter {name:?}: {other:?}"),
        }
    }

    #[test]
    fn telemetry_hooks_observe_without_changing_results() {
        let t = random_trace(8_000, 500_000, 0.25, 9);
        let baseline = Simulator::new(tiny_config(Design::Cosmos)).run(&t);

        let mut cfg = tiny_config(Design::Cosmos);
        cfg.telemetry = cosmos_telemetry::Telemetry::in_memory();
        let tele = cfg.telemetry.clone();
        let observed = Simulator::new(cfg).run(&t);

        assert_eq!(baseline, observed, "telemetry must not perturb results");

        // Hooks populated: caches, DRAM, RL, Merkle, speculation.
        let ctr = counter(&tele, "cache.ctr.hits") + counter(&tele, "cache.ctr.misses");
        assert_eq!(
            ctr,
            observed.ctr_cache.demand.total(),
            "CTR telemetry mirrors stats"
        );
        assert!(counter(&tele, "cache.l1.hits") > 0);
        assert!(counter(&tele, "dram.accesses") > 0);
        assert!(counter(&tele, "secure.merkle.walks") > 0);
        assert!(
            counter(&tele, "rl.ctr.actions.good") + counter(&tele, "rl.ctr.actions.bad") > 0,
            "CTR RL actions recorded"
        );
        assert_eq!(
            counter(&tele, "sim.spec.issued"),
            observed.early_offchip_reads,
            "speculative issues mirror early off-chip reads"
        );
        assert_eq!(
            counter(&tele, "sim.spec.killed"),
            observed.traffic.killed_speculative,
            "speculative kills mirror killed_speculative"
        );
    }

    #[test]
    fn snapshot_resume_matches_uninterrupted_run() {
        // The tentpole identity: save at N/2, serialize to text, parse,
        // restore into a *fresh* simulator, run the tail — final statistics
        // equal the uninterrupted run exactly, for every design.
        for d in [Design::Np, Design::MorphCtr, Design::Emcc, Design::Cosmos] {
            let t = random_trace(8_000, 80_000, 0.25, 21);
            let half = t.len() / 2;

            let full = Simulator::new(tiny_config(d)).run(&t);

            let mut first = Simulator::new(tiny_config(d));
            for a in &t.as_slice()[..half] {
                first.step(a);
            }
            let text = first.save_state().expect("save").to_string();
            drop(first);

            let parsed = cosmos_common::json::parse(&text).expect("parse");
            let mut resumed = Simulator::new(tiny_config(d));
            resumed.load_state(&parsed).expect("load");
            for a in &t.as_slice()[half..] {
                resumed.step(a);
            }
            assert_eq!(resumed.finalize(), full, "{d}: resumed run diverged");
        }
    }

    #[test]
    fn snapshot_resume_preserves_warmup_baseline() {
        let t = random_trace(4_000, 30_000, 0.2, 22);
        let half = t.len() / 2;

        let mut direct = Simulator::new(tiny_config(Design::Cosmos));
        direct.warmup(t.as_slice()[..half].iter());
        let mut saved = Simulator::new(tiny_config(Design::Cosmos));
        saved.warmup(t.as_slice()[..half].iter());
        let state = saved.save_state().expect("save");

        let mut resumed = Simulator::new(tiny_config(Design::Cosmos));
        resumed.load_state(&state).expect("load");
        for a in &t.as_slice()[half..] {
            direct.step(a);
            resumed.step(a);
        }
        assert_eq!(
            resumed.finalize(),
            direct.finalize(),
            "frozen baseline lost across snapshot"
        );
    }

    #[test]
    fn snapshot_rejects_design_mismatch() {
        let t = random_trace(500, 10_000, 0.2, 23);
        let mut sim = Simulator::new(tiny_config(Design::Cosmos));
        for a in t.iter() {
            sim.step(a);
        }
        let state = sim.save_state().expect("save");

        // NP has no secure path or predictor: both directions must fail
        // loudly rather than silently dropping learned state.
        let err = Simulator::new(tiny_config(Design::Np))
            .load_state(&state)
            .expect_err("NP must reject a Cosmos snapshot");
        assert!(err.contains("secure path"), "unhelpful error: {err}");

        let np_state = {
            let mut np = Simulator::new(tiny_config(Design::Np));
            for a in t.iter() {
                np.step(a);
            }
            np.save_state().expect("save")
        };
        let err = Simulator::new(tiny_config(Design::Cosmos))
            .load_state(&np_state)
            .expect_err("Cosmos must reject an NP snapshot");
        assert!(err.contains("secure path"), "unhelpful error: {err}");
    }

    #[test]
    fn snapshot_serialization_is_stable() {
        // Equal logical states serialize to equal bytes — the property the
        // serve layer's byte-identity smoke rests on.
        let t = random_trace(2_000, 20_000, 0.25, 24);
        let mk = || {
            let mut sim = Simulator::new(tiny_config(Design::Cosmos));
            for a in t.iter() {
                sim.step(a);
            }
            sim.save_state().expect("save").to_string()
        };
        assert_eq!(mk(), mk());

        // And a restored simulator re-saves to the same bytes.
        let text = mk();
        let parsed = cosmos_common::json::parse(&text).expect("parse");
        let mut resumed = Simulator::new(tiny_config(Design::Cosmos));
        resumed.load_state(&parsed).expect("load");
        assert_eq!(resumed.save_state().expect("save").to_string(), text);
    }

    #[test]
    fn telemetry_heatmap_tracks_ctr_sets() {
        let t = random_trace(6_000, 200_000, 0.2, 10);
        let mut cfg = tiny_config(Design::Cosmos);
        cfg.telemetry = cosmos_telemetry::Telemetry::in_memory();
        let tele = cfg.telemetry.clone();
        Simulator::new(cfg).run(&t);

        let heat = tele.heatmap_value().to_string();
        assert!(
            heat.contains("\"windows\""),
            "heatmap export has windows: {heat}"
        );
        assert!(heat.contains("\"sets\""), "heatmap export has set count");
    }
}
