//! `store_churn`: one generator thread drives a content-addressed store
//! with interleaved writes, reads, snapshot traffic and garbage
//! collection.
//!
//! Why: the store does all of the work and the VM none. Writes, reads and
//! `gc` interleave, which is the traffic a put/gc locking change alters.

use crate::layers::Layers;
use crate::stats::Rng;
use crate::{Ctx, Phase};
use elfie::pinball::{PageRecord, PageSource, Pinball, RegionTrigger, Snapshot};
use elfie::pinplay::{Logger, LoggerConfig};
use elfie::sim::{simulate_pinball_sharded, CoreParams, ShardConfig, Simulator};
use elfie::store::{ObjectId, Store};
use elfie::workloads::{find_workload, InputScale};
use std::collections::VecDeque;

const WORKLOADS: [&str; 6] = [
    "gcc_like",
    "mcf_like",
    "xz_like",
    "lbm_like",
    "x264_like",
    "lbm_s_like",
];
const STARTS: usize = 4;
const REGION: u64 = 50_000;
const FUEL: u64 = 2_000_000_000;
/// Pinball and snapshot names written by the phase that survive each
/// `remove + gc` operation; older ones are removed first.
const KEEP_PINBALLS: usize = 12;
const KEEP_SNAPSHOTS: usize = 2;

const POOL_STREAM: u64 = 1;
const ORDER_STREAM: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Put,
    Get,
    GetLazy,
    SnapshotPut,
    SnapshotGet,
    RemoveGc,
}

/// The op mix of one round of 20: 30% put, 35% get, 15% lazy get, 10%
/// snapshot put/get, 10% remove + gc.
const MIX: [(Op, usize); 6] = [
    (Op::Put, 6),
    (Op::Get, 7),
    (Op::GetLazy, 3),
    (Op::SnapshotPut, 1),
    (Op::SnapshotGet, 1),
    (Op::RemoveGc, 2),
];

/// One round: the mix in seeded order, each op with a seeded pick.
pub fn round(rng: &mut Rng) -> Vec<(Op, u64)> {
    let mut ops: Vec<Op> = MIX
        .iter()
        .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
        .collect();
    rng.shuffle(&mut ops);
    ops.into_iter().map(|op| (op, rng.next_u64())).collect()
}

struct Setup {
    store: Store,
    pool: Vec<Pinball>,
    pool_bytes: Vec<Vec<u8>>,
    chain: Vec<Snapshot>,
    chain_ids: Vec<ObjectId>,
    /// Live names the phase may read, oldest first, with what they hold.
    pinballs: VecDeque<(String, usize)>,
    snapshots: VecDeque<(String, usize)>,
    next_name: u64,
}

impl Setup {
    fn fresh_name(&mut self, prefix: &str) -> String {
        self.next_name += 1;
        format!("{prefix}-{}", self.next_name)
    }
}

fn set_up(ctx: &Ctx, rep: usize) -> Result<Setup, String> {
    let mut rng = Rng::new(ctx.seed, POOL_STREAM);
    let mut pool = Vec::new();
    for name in WORKLOADS {
        let w =
            find_workload(name, InputScale::Test).ok_or_else(|| format!("no workload {name}"))?;
        let room = elfie::perf::measure_program(&w, 1, FUEL)
            .insns
            .saturating_sub(REGION);
        // One start in each quarter of the program, so the set-up's
        // capture work does not depend on the seed.
        let quarter = (room / STARTS as u64).max(2);
        for k in 0..STARTS as u64 {
            let start = k * quarter + rng.range(1, quarter);
            let pb = Logger::new(LoggerConfig::fat(
                name,
                RegionTrigger::GlobalIcount(start),
                REGION,
            ))
            .capture(&w.program, |m| w.setup(m))
            .map_err(|e| format!("{name}: capture at {start}: {e}"))?;
            pool.push(pb);
        }
    }
    let pool_bytes = pool.iter().map(Pinball::to_bytes).collect();
    let chain = simulate_pinball_sharded(
        &pool[0],
        &Simulator::new(CoreParams::haswell_like()),
        &ShardConfig {
            shards: 1,
            interval: REGION / 4,
        },
    )
    .snapshots;

    let dir = ctx.scratch.join(format!("store-{rep}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).map_err(|e| format!("open store: {e}"))?;
    let mut chain_ids = Vec::new();
    for (k, snap) in chain.iter().enumerate() {
        let id = store
            .put_snapshot(&format!("chain-{k}"), snap, chain_ids.last().copied())
            .map_err(|e| format!("put chain-{k}: {e}"))?;
        chain_ids.push(id);
    }
    let mut s = Setup {
        store,
        pool,
        pool_bytes,
        chain,
        chain_ids,
        pinballs: VecDeque::new(),
        snapshots: VecDeque::new(),
        next_name: 0,
    };
    for _ in 0..KEEP_PINBALLS {
        let i = rng.below(s.pool.len());
        let name = s.fresh_name("pb");
        s.store
            .put_pinball(&name, &s.pool[i])
            .map_err(|e| format!("put {name}: {e}"))?;
        s.pinballs.push_back((name, i));
    }
    Ok(s)
}

/// Every page address a pinball holds.
fn page_addrs(pb: &Pinball) -> impl Iterator<Item = u64> + '_ {
    pb.image.pages.keys().chain(pb.lazy_pages.keys()).copied()
}

/// Blob references a put of `pb` makes: one per page plus the skeleton.
fn blob_refs(pb: &Pinball) -> u64 {
    page_addrs(pb).count() as u64 + 1
}

pub fn run(ctx: &Ctx) -> Result<(Phase, Vec<f64>), String> {
    ctx.measure(|rep| set_up(ctx, rep), |s| churn(ctx, s))
}

fn churn(ctx: &Ctx, s: &mut Setup) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut lay = Layers::new(ctx.tracer.clone());
    let stats_before = if lay.enabled() {
        Some(s.store.stats().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut refs_put = 0u64;
    let mut blobs_removed = 0u64;
    let mut rng = Rng::new(ctx.seed, ORDER_STREAM);
    let deadline = ctx.deadline();
    while deadline.more(phase.latencies_ms.len()) {
        for (op, pick) in round(&mut rng) {
            let pick = pick as usize;
            match op {
                Op::Put => {
                    let i = pick % s.pool.len();
                    let name = s.fresh_name("pb");
                    let (r, wall) = lay.op("put", |lay| {
                        lay.time("store.put_ms", || s.store.put_pinball(&name, &s.pool[i]))
                            .0
                    });
                    phase.record(wall);
                    match r {
                        Ok(_) => {
                            refs_put += blob_refs(&s.pool[i]);
                            s.pinballs.push_back((name, i));
                        }
                        Err(e) => phase.fail(format_args!("store_churn: put {name}: {e}")),
                    }
                }
                Op::Get => {
                    let (name, i) = s.pinballs[pick % s.pinballs.len()].clone();
                    let (r, wall) = lay.op("get", |lay| {
                        lay.time("store.get_ms", || s.store.get_pinball(&name)).0
                    });
                    phase.record(wall);
                    match r {
                        Ok(pb) if pb.to_bytes() == s.pool_bytes[i] => {}
                        Ok(_) => {
                            phase.fail(format_args!("store_churn: get {name} returned other bytes"))
                        }
                        Err(e) => phase.fail(format_args!("store_churn: get {name}: {e}")),
                    }
                }
                Op::GetLazy => {
                    let (name, i) = s.pinballs[pick % s.pinballs.len()].clone();
                    let expected = &s.pool[i];
                    let (r, wall) = lay.op("get_lazy", |lay| {
                        lay.time("store.get_lazy_ms", || {
                            let lazy = s.store.get_pinball_lazy(&name)?;
                            let pages: Vec<Option<PageRecord>> =
                                page_addrs(expected).map(|a| lazy.fetch_page(a)).collect();
                            Ok::<_, elfie::store::StoreError>((lazy.page_count(), pages))
                        })
                        .0
                    });
                    phase.record(wall);
                    let same = |pages: &[Option<PageRecord>]| {
                        page_addrs(expected).zip(pages).all(|(a, got)| {
                            let want = expected.image.pages.get(&a).or(expected.lazy_pages.get(&a));
                            got.as_ref() == want
                        })
                    };
                    match r {
                        Ok((n, pages)) if n == pages.len() && same(&pages) => {}
                        Ok(_) => phase.fail(format_args!(
                            "store_churn: lazy get {name} returned other pages"
                        )),
                        Err(e) => phase.fail(format_args!("store_churn: lazy get {name}: {e}")),
                    }
                }
                Op::SnapshotPut => {
                    let k = pick % s.chain.len();
                    let name = s.fresh_name("snap");
                    let parent = k.checked_sub(1).map(|p| s.chain_ids[p]);
                    let (r, wall) = lay.op("snapshot_put", |lay| {
                        lay.time("store.snapshot_put_ms", || {
                            s.store.put_snapshot(&name, &s.chain[k], parent)
                        })
                        .0
                    });
                    phase.record(wall);
                    match r {
                        Ok(_) => {
                            refs_put += s.chain[k].delta.len() as u64 + 1;
                            s.snapshots.push_back((name, k));
                        }
                        Err(e) => phase.fail(format_args!("store_churn: put {name}: {e}")),
                    }
                }
                Op::SnapshotGet => {
                    let n = s.chain.len() + s.snapshots.len();
                    let (name, k) = match pick % n {
                        k if k < s.chain.len() => (format!("chain-{k}"), k),
                        j => s.snapshots[j - s.chain.len()].clone(),
                    };
                    let (r, wall) = lay.op("snapshot_get", |lay| {
                        lay.time("store.snapshot_get_ms", || s.store.get_snapshot(&name))
                            .0
                    });
                    phase.record(wall);
                    let parent = k.checked_sub(1).map(|p| s.chain_ids[p]);
                    match r {
                        Ok((snap, p)) if snap == s.chain[k] && p == parent => {}
                        Ok(_) => phase.fail(format_args!(
                            "store_churn: get {name} returned another snapshot"
                        )),
                        Err(e) => phase.fail(format_args!("store_churn: get {name}: {e}")),
                    }
                }
                Op::RemoveGc => {
                    let mut doomed = Vec::new();
                    while s.pinballs.len() > KEEP_PINBALLS {
                        doomed.push(s.pinballs.pop_front().expect("non-empty").0);
                    }
                    while s.snapshots.len() > KEEP_SNAPSHOTS {
                        doomed.push(s.snapshots.pop_front().expect("non-empty").0);
                    }
                    let (r, wall) = lay.op("remove_gc", |lay| {
                        lay.time("store.gc_ms", || {
                            let mut removed = 0;
                            for name in &doomed {
                                removed += usize::from(s.store.remove(name)?);
                            }
                            Ok::<_, elfie::store::StoreError>((removed, s.store.gc()?))
                        })
                        .0
                    });
                    phase.record(wall);
                    match r {
                        Ok((removed, gc)) if removed == doomed.len() => {
                            blobs_removed += gc.blobs_removed as u64;
                        }
                        Ok((removed, _)) => phase.fail(format_args!(
                            "store_churn: removed {removed} of {} names",
                            doomed.len()
                        )),
                        Err(e) => phase.fail(format_args!("store_churn: remove + gc: {e}")),
                    }
                }
            }
        }
    }
    match s.store.verify() {
        Ok(report) if report.is_ok() => {}
        Ok(report) => phase.fail(format_args!("store_churn: verify: {report}")),
        Err(e) => phase.fail(format_args!("store_churn: verify: {e}")),
    }
    if let Some(before) = stats_before {
        let after = s.store.stats().map_err(|e| e.to_string())?;
        // Blobs written = net growth + blobs gc swept in between.
        let written = (after.blobs as u64 + blobs_removed).saturating_sub(before.blobs as u64);
        lay.set(
            "store.new_blob_frac",
            written as f64 / refs_put.max(1) as f64,
        );
        lay.set("store.dedup_ratio", after.dedup_ratio());
        lay.set("store.disk_mb", after.physical_bytes as f64 / 1e6);
    }
    phase.layers = lay.finish(deadline.elapsed());
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<Vec<(Op, u64)>> {
        let mut rng = Rng::new(seed, ORDER_STREAM);
        (0..3).map(|_| round(&mut rng)).collect()
    }

    #[test]
    fn the_seed_fixes_the_op_sequence_and_every_round_has_the_mix() {
        assert_eq!(plan(1), plan(1));
        assert_ne!(plan(1), plan(2));
        for r in plan(5) {
            assert_eq!(r.len(), 20);
            for (op, n) in MIX {
                assert_eq!(r.iter().filter(|(o, _)| *o == op).count(), n, "{op:?}");
            }
        }
    }
}
