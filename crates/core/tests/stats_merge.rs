//! Property tests of the stats-merge algebra.
//!
//! The parallel validation engine produces one stats shard per worker and
//! folds them with `merge`/`accumulate`. For the report to be independent
//! of scheduling, every fold must be commutative and associative, and the
//! JSON round-trip must preserve each struct exactly (that is what makes
//! `elfie trace summarize stats.json` bit-identical to `--stats` text).
//! These properties exercise all three merged structs — [`PipelineStats`],
//! [`FastPathStats`] and [`MaterializeStats`] — including the saturating
//! edge at `u64::MAX`, and pin the live [`StatsCollector`] to the same
//! fold rules as `merge`.

use elfie::cache::CacheStats;
use elfie::pinball::ArenaStats;
use elfie::render;
use elfie::stats::{PipelineStats, Stage, StatsCollector};
use elfie::vm::{FastPathStats, MaterializeStats};
use proptest::prelude::*;
use std::time::Duration;

/// Counter values biased toward the interesting edges: zero, small, and
/// the saturation boundary.
fn counter() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        0u64..1_000_000,
        any::<u64>(),
        Just(u64::MAX),
        Just(u64::MAX - 1),
    ]
}

fn mat_stats() -> impl Strategy<Value = MaterializeStats> {
    (
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
    )
        .prop_map(
            |(
                pages_mapped,
                shared_pages,
                cow_breaks,
                lazy_faults,
                owned_bytes,
                peak_owned_bytes,
            )| {
                MaterializeStats {
                    pages_mapped,
                    shared_pages,
                    cow_breaks,
                    lazy_faults,
                    owned_bytes,
                    peak_owned_bytes,
                }
            },
        )
}

fn fastpath_stats() -> impl Strategy<Value = FastPathStats> {
    (
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        counter(),
        mat_stats(),
    )
        .prop_map(
            |(
                block_hits,
                block_misses,
                block_evictions,
                block_flushes,
                tlb_hits,
                tlb_misses,
                insns,
                mat,
            )| {
                FastPathStats {
                    block_hits,
                    block_misses,
                    block_evictions,
                    block_flushes,
                    tlb_hits,
                    tlb_misses,
                    insns,
                    mat,
                }
            },
        )
}

fn arena_stats() -> impl Strategy<Value = ArenaStats> {
    (counter(), counter(), counter()).prop_map(|(live_pages, interned, dedup_hits)| ArenaStats {
        live_pages,
        interned,
        dedup_hits,
    })
}

fn cache_stats() -> impl Strategy<Value = CacheStats> {
    (
        (counter(), counter(), counter(), counter(), counter()),
        (counter(), counter(), counter(), counter(), counter()),
    )
        .prop_map(
            |(
                (profile_hits, profile_misses, pinball_hits, pinball_misses, whole_hits),
                (whole_misses, measure_hits, measure_misses, store_hits, store_puts),
            )| {
                CacheStats {
                    profile_hits,
                    profile_misses,
                    pinball_hits,
                    pinball_misses,
                    whole_hits,
                    whole_misses,
                    measure_hits,
                    measure_misses,
                    store_hits,
                    store_puts,
                }
            },
        )
}

fn pipeline_stats() -> impl Strategy<Value = PipelineStats> {
    (
        (
            0usize..64,
            counter(),
            counter(),
            counter(),
            counter(),
            counter(),
        ),
        (counter(), counter(), counter()),
        fastpath_stats(),
        arena_stats(),
        cache_stats(),
    )
        .prop_map(
            |(
                (workers, total, profile, capture, convert, measure),
                (regions_attempted, regions_failed, guest_ns),
                vm,
                arena,
                cache,
            )| {
                PipelineStats {
                    workers,
                    total: Duration::from_nanos(total),
                    profile_time: Duration::from_nanos(profile),
                    capture_time: Duration::from_nanos(capture),
                    convert_time: Duration::from_nanos(convert),
                    measure_time: Duration::from_nanos(measure),
                    regions_attempted,
                    regions_failed,
                    vm,
                    guest_ns,
                    arena,
                    cache,
                }
            },
        )
}

/// Folds `shards` left-to-right from an explicit zero with `merge`.
fn fold_with<T: Clone>(zero: &T, shards: &[T], merge: impl Fn(&mut T, &T)) -> T {
    let mut acc = zero.clone();
    for s in shards {
        merge(&mut acc, s);
    }
    acc
}

/// Pairwise tree reduction — a maximally different association order
/// from the serial left fold.
fn tree_with<T: Clone>(zero: &T, shards: &[T], merge: &impl Fn(&mut T, &T)) -> T {
    match shards {
        [] => zero.clone(),
        [one] => one.clone(),
        _ => {
            let (a, b) = shards.split_at(shards.len() / 2);
            let mut left = tree_with(zero, a, merge);
            let right = tree_with(zero, b, merge);
            merge(&mut left, &right);
            left
        }
    }
}

/// Asserts that merging in serial order, reversed order, rotated order
/// and tree order all agree — which (together with the zero identity)
/// pins the fold as commutative and associative over the generated set.
fn assert_order_independent<T: Clone + PartialEq + std::fmt::Debug>(
    zero: T,
    shards: Vec<T>,
    merge: impl Fn(&mut T, &T),
) -> Result<(), TestCaseError> {
    let serial = fold_with(&zero, &shards, &merge);
    let mut reversed = shards.clone();
    reversed.reverse();
    let mut rotated = shards.clone();
    let len = rotated.len();
    if len > 0 {
        rotated.rotate_left((len / 2 + 1) % len);
    }
    prop_assert_eq!(
        &fold_with(&zero, &reversed, &merge),
        &serial,
        "reverse order"
    );
    prop_assert_eq!(
        &fold_with(&zero, &rotated, &merge),
        &serial,
        "rotated order"
    );
    prop_assert_eq!(&tree_with(&zero, &shards, &merge), &serial, "tree order");
    // The zero shard is an identity: folding it in anywhere changes nothing.
    let mut with_zero = shards;
    with_zero.insert(with_zero.len() / 2, zero.clone());
    prop_assert_eq!(
        &fold_with(&zero, &with_zero, &merge),
        &serial,
        "zero identity"
    );
    Ok(())
}

fn stage() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::Profile),
        Just(Stage::Capture),
        Just(Stage::Convert),
        Just(Stage::Measure),
    ]
}

/// One guest run as the engine reports it: fast-path counters, the run's
/// wall time, and a stage time charged alongside.
fn vm_run() -> impl Strategy<Value = (FastPathStats, u64, Stage, u64)> {
    (fastpath_stats(), counter(), stage(), counter())
}

/// Feeds `runs` into one collector and freezes it. The arena snapshot is
/// process-global, not collected, so it is zeroed for comparison.
fn collect(runs: &[(FastPathStats, u64, Stage, u64)]) -> PipelineStats {
    let c = StatsCollector::new();
    for &(fp, wall_ns, stage, stage_ns) in runs {
        c.add_time(stage, Duration::from_nanos(stage_ns));
        c.record_vm(fp, Duration::from_nanos(wall_ns));
    }
    let mut s = c.finish(Duration::ZERO, 0, CacheStats::default());
    s.arena = ArenaStats::default();
    s
}

proptest! {
    /// One collector fed N runs reports exactly the `merge` fold of N
    /// single-run collectors: the collector and `merge` share one set of
    /// fold rules, saturation at `u64::MAX` included.
    #[test]
    fn collector_equals_merge_of_single_run_collectors(
        runs in proptest::collection::vec(vm_run(), 0..8)
    ) {
        let collected = collect(&runs);
        let mut folded = PipelineStats::default();
        for run in &runs {
            folded.merge(&collect(std::slice::from_ref(run)));
        }
        prop_assert_eq!(&collected, &folded);
        let peaks = runs
            .iter()
            .fold(0u64, |acc, (fp, ..)| acc.saturating_add(fp.mat.peak_owned_bytes));
        prop_assert_eq!(collected.vm.mat.peak_owned_bytes, peaks, "per-machine peaks sum");
        prop_assert_eq!(collected.vm.mat.owned_bytes, 0, "the pipeline carries no owned bytes");
    }

    #[test]
    fn materialize_stats_merge_is_order_independent(
        shards in proptest::collection::vec(mat_stats(), 0..8)
    ) {
        assert_order_independent(MaterializeStats::default(), shards, |a, b| a.accumulate(b))?;
    }

    #[test]
    fn fastpath_stats_merge_is_order_independent(
        shards in proptest::collection::vec(fastpath_stats(), 0..8)
    ) {
        assert_order_independent(FastPathStats::default(), shards, |a, b| a.accumulate(*b))?;
    }

    #[test]
    fn pipeline_stats_merge_is_order_independent(
        shards in proptest::collection::vec(pipeline_stats(), 0..8)
    ) {
        let zero = PipelineStats {
            workers: 0,
            total: Duration::ZERO,
            profile_time: Duration::ZERO,
            capture_time: Duration::ZERO,
            convert_time: Duration::ZERO,
            measure_time: Duration::ZERO,
            regions_attempted: 0,
            regions_failed: 0,
            vm: FastPathStats::default(),
            guest_ns: 0,
            arena: ArenaStats::default(),
            cache: CacheStats::default(),
        };
        assert_order_independent(zero, shards, |a, b| a.merge(b))?;
    }

    /// Merged totals never lose work: each summed counter is at least the
    /// max of its inputs (saturating adds can clamp, never drop below).
    #[test]
    fn fastpath_merge_never_undercounts(a in fastpath_stats(), b in fastpath_stats()) {
        let mut m = a;
        m.accumulate(b);
        prop_assert!(m.insns >= a.insns.max(b.insns));
        prop_assert!(m.block_hits >= a.block_hits.max(b.block_hits));
        prop_assert!(m.tlb_misses >= a.tlb_misses.max(b.tlb_misses));
        prop_assert!(m.mat.peak_owned_bytes >= a.mat.peak_owned_bytes.max(b.mat.peak_owned_bytes));
        let rate = m.block_hit_rate();
        prop_assert!((0.0..=1.0).contains(&rate), "hit rate {rate} out of range");
    }

    /// The versioned JSON schema preserves every counter exactly, so the
    /// `--stats-json` → `trace summarize` path cannot drift from the
    /// `--stats` text (both render the same struct).
    #[test]
    fn stats_json_roundtrip_is_exact(s in pipeline_stats()) {
        let doc = render::stats_to_json(&s);
        let back = render::stats_from_json(&doc).expect("well-formed document");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.to_string(), s.to_string());
        // And through actual text, as the CLI writes and reads it.
        let reparsed = elfie::trace::json::Json::parse(&doc.render_pretty()).expect("parses");
        prop_assert_eq!(&render::stats_from_json(&reparsed).expect("reparses"), &s);
    }

    #[test]
    fn sim_stats_json_roundtrip_is_exact(fp in fastpath_stats()) {
        let doc = render::sim_stats_to_json(&fp);
        let back = render::sim_stats_from_json(&doc).expect("well-formed document");
        prop_assert_eq!(&back, &fp);
        prop_assert_eq!(render::summarize_stats_document(&doc).expect("summarizes"),
                        render::vm_lines(&fp));
    }
}
