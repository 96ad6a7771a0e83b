//! The L1/L2/LLC front end, live or replayed from a recorded stream.
//!
//! Every design differs only below the L1-miss point: the data-location
//! predictor decides after the hierarchy lookup, and the CTR cache, Merkle
//! walk and MAC sit on the memory side. The hierarchy itself is built from
//! `cores`/`l1`/`l2`/`llc` alone and is driven by nothing but the access
//! sequence, so its per-access outcome — the level that served the access
//! and the dirty lines written back — is a pure function of (trace,
//! [`HierarchyKey`]). A [`FrontEndStream`] records that outcome once; a
//! simulator built with [`Simulator::replaying`](crate::Simulator::replaying)
//! reads it back instead of simulating the caches again, with identical
//! statistics.

use crate::config::SimConfig;
use crate::hierarchy::{CacheHierarchy, DataHit};
use cosmos_common::stats::HitMiss;
use cosmos_common::{LineAddr, Trace};
use std::sync::Arc;

/// The configuration fields the front end's outcome depends on: core count
/// and the size/associativity of each level. Latencies only shape timing,
/// which the back end computes, so they are not part of the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyKey {
    cores: usize,
    levels: [(usize, usize); 3],
}

impl HierarchyKey {
    /// The key of the hierarchy `config` builds.
    pub fn of(config: &SimConfig) -> Self {
        let geometry = |l: &crate::config::CacheLevelConfig| (l.size_bytes, l.ways);
        Self {
            cores: config.cores,
            levels: [
                geometry(&config.l1),
                geometry(&config.l2),
                geometry(&config.llc),
            ],
        }
    }
}

/// One trace's recorded front end: per access, one byte holding the hit
/// level (bits 0–1: L1, L2, LLC, DRAM) and the number of writebacks (bits
/// 2–3; an access causes at most three: the L1→L2 spill, the L2→LLC spill
/// and the LLC eviction), plus every writeback line in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontEndStream {
    key: HierarchyKey,
    ops: Vec<u8>,
    writebacks: Vec<LineAddr>,
}

impl FrontEndStream {
    /// Runs `trace` through the hierarchy `config` describes, once, and
    /// records each access's outcome.
    pub fn record(config: &SimConfig, trace: &Trace) -> Self {
        let mut hierarchy = CacheHierarchy::new(config);
        let mut ops = Vec::with_capacity(trace.len());
        let mut writebacks = Vec::new();
        let mut scratch = Vec::new();
        for access in trace.iter() {
            let core = access.core as usize % config.cores;
            let write = access.kind.is_write();
            let hit = hierarchy.access(core, access.addr.line(), write, &mut scratch);
            // At most three by construction (see the type docs), so the
            // count fits its two bits.
            assert!(scratch.len() <= 3, "front end wrote back more than 3 lines");
            ops.push(level_of(hit) | ((scratch.len() as u8) << 2));
            writebacks.extend_from_slice(&scratch);
        }
        Self {
            key: HierarchyKey::of(config),
            ops,
            writebacks,
        }
    }

    /// The hierarchy the stream was recorded under.
    pub fn key(&self) -> HierarchyKey {
        self.key
    }
}

fn level_of(hit: DataHit) -> u8 {
    match hit {
        DataHit::L1 => 0,
        DataHit::L2 => 1,
        DataHit::Llc => 2,
        DataHit::Dram => 3,
    }
}

const HITS: [DataHit; 4] = [DataHit::L1, DataHit::L2, DataHit::Llc, DataHit::Dram];

/// A simulator's front end: the cache hierarchy itself, or a cursor over a
/// recorded stream.
pub(crate) enum FrontEnd {
    Live(Box<CacheHierarchy>),
    Replay(Replay),
}

/// A read position in a shared stream, plus how many replayed accesses
/// each level served — all the per-level hit/miss counts derive from them.
pub(crate) struct Replay {
    stream: Arc<FrontEndStream>,
    cursor: usize,
    wb_cursor: usize,
    served: [u64; 4],
}

impl FrontEnd {
    /// A cursor at the start of `stream`.
    pub(crate) fn replay(stream: Arc<FrontEndStream>) -> Self {
        FrontEnd::Replay(Replay {
            stream,
            cursor: 0,
            wb_cursor: 0,
            served: [0; 4],
        })
    }

    /// [`CacheHierarchy::access`], live or replayed: the level that served
    /// the access, with its writebacks in `writebacks` (cleared first).
    ///
    /// # Panics
    ///
    /// Panics when a replay reads past the end of its stream.
    // cosmos-lint: hot
    pub(crate) fn access(
        &mut self,
        core: usize,
        line: LineAddr,
        write: bool,
        writebacks: &mut Vec<LineAddr>,
    ) -> DataHit {
        let r = match self {
            FrontEnd::Live(h) => return h.access(core, line, write, writebacks),
            FrontEnd::Replay(r) => r,
        };
        let op = *r.stream.ops.get(r.cursor).expect(
            "front-end replay: stream exhausted; it was recorded from a shorter trace than \
             the one being simulated",
        );
        r.cursor += 1;
        let end = r.wb_cursor + usize::from(op >> 2);
        writebacks.clear();
        writebacks.extend_from_slice(&r.stream.writebacks[r.wb_cursor..end]);
        r.wb_cursor = end;
        let level = usize::from(op & 3);
        r.served[level] += 1;
        HITS[level]
    }

    /// Aggregated L1, L2 and LLC hit/miss counts, in that order.
    pub(crate) fn level_stats(&self) -> [HitMiss; 3] {
        match self {
            FrontEnd::Live(h) => [h.l1_stats(), h.l2_stats(), h.llc_stats()],
            FrontEnd::Replay(r) => {
                let [l1, l2, llc, dram] = r.served;
                [
                    HitMiss::from_counts(l1, l2 + llc + dram),
                    HitMiss::from_counts(l2, llc + dram),
                    HitMiss::from_counts(llc, dram),
                ]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use cosmos_common::{MemAccess, PhysAddr};

    fn tiny_config() -> SimConfig {
        let mut c = SimConfig::paper_default(Design::Np);
        c.cores = 2;
        c.l1.size_bytes = 512;
        c.l2.size_bytes = 2048;
        c.llc.size_bytes = 4096;
        c
    }

    fn write_heavy(n: usize) -> Trace {
        let mut rng = cosmos_common::SplitMix64::new(3);
        (0..n)
            .map(|_| {
                let addr = PhysAddr::new(rng.next_below(1_024) * 64);
                MemAccess::write((rng.next_u32() % 3) as u8, addr, 1)
            })
            .collect()
    }

    #[test]
    fn replay_reproduces_the_live_hierarchy() {
        let config = tiny_config();
        let trace = write_heavy(20_000);
        let stream = Arc::new(FrontEndStream::record(&config, &trace));
        assert_eq!(stream.ops.len(), trace.len());
        assert!(
            stream.ops.iter().any(|op| op >> 2 > 1),
            "the trace must cover accesses with several writebacks"
        );

        let mut live = FrontEnd::Live(Box::new(CacheHierarchy::new(&config)));
        let mut replay = FrontEnd::replay(stream);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for access in trace.iter() {
            let core = access.core as usize % config.cores;
            let line = access.addr.line();
            let hit = live.access(core, line, true, &mut a);
            assert_eq!(replay.access(core, line, true, &mut b), hit);
            assert_eq!(a, b);
        }
        assert_eq!(live.level_stats(), replay.level_stats());
    }

    #[test]
    fn key_ignores_latencies_but_not_geometry() {
        let base = tiny_config();
        let mut slower = base.clone();
        slower.llc.latency += 10;
        assert_eq!(HierarchyKey::of(&base), HierarchyKey::of(&slower));
        let mut wider = base.clone();
        wider.l2.ways *= 2;
        assert_ne!(HierarchyKey::of(&base), HierarchyKey::of(&wider));
    }
}
