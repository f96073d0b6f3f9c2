//! One home for every rendering of pipeline statistics.
//!
//! The `--stats` text (both `validate`'s pipeline block and `simulate`'s
//! `vm ...` lines), the versioned `stats.json` document, and the
//! `elfie trace summarize` re-rendering all live here and are all backed
//! by the same structs ([`PipelineStats`], [`FastPathStats`]), so the
//! text and JSON views cannot drift: the JSON stores only raw integer
//! counters (durations as nanoseconds), derived figures (MIPS, hit
//! rates) are recomputed from them, and re-rendering a parsed document
//! therefore reproduces the original text bit for bit — which the CLI
//! round-trip tests assert.
//!
//! The reports that both the CLI and an `elfie serve` daemon print (the
//! validation report, the capture and replay summary lines) live here
//! too, so served and offline output are one rendering.
//!
//! Schema stability: documents carry `schema` ([`STATS_SCHEMA`] or
//! [`SIM_STATS_SCHEMA`]) and `version` ([`STATS_VERSION`]). Readers
//! reject unknown schemas and newer majors rather than misparse.

use crate::cache::CacheStats;
use crate::stats::PipelineStats;
use elfie_pinball::{ArenaStats, Pinball};
use elfie_pinplay::ReplaySummary;
use elfie_trace::json::Json;
use elfie_vm::{FastPathStats, MaterializeStats};
use std::fmt;
use std::time::Duration;

/// `schema` tag of a pipeline-stats document (`elfie validate --stats-json`).
pub const STATS_SCHEMA: &str = "elfie-stats";
/// `schema` tag of a simulation-stats document (`elfie simulate --stats-json`).
pub const SIM_STATS_SCHEMA: &str = "elfie-sim-stats";
/// Current version of both stats schemas. Bump on breaking changes;
/// readers reject documents from a newer version.
pub const STATS_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Text renderings
// ---------------------------------------------------------------------------

/// Writes the `pipeline:` block — the body of `PipelineStats`'s `Display`.
pub(crate) fn write_pipeline(f: &mut fmt::Formatter<'_>, s: &PipelineStats) -> fmt::Result {
    writeln!(
        f,
        "pipeline: {:.3}s wall on {} worker{}",
        s.total.as_secs_f64(),
        s.workers,
        if s.workers == 1 { "" } else { "s" }
    )?;
    writeln!(
        f,
        "  stages: profile {:.3}s, capture {:.3}s, convert {:.3}s, measure {:.3}s",
        s.profile_time.as_secs_f64(),
        s.capture_time.as_secs_f64(),
        s.convert_time.as_secs_f64(),
        s.measure_time.as_secs_f64(),
    )?;
    writeln!(
        f,
        "  regions: {} attempted, {} failed",
        s.regions_attempted, s.regions_failed
    )?;
    writeln!(
        f,
        "  vm: {} guest insns at {:.1} MIPS, block cache {:.1}% hit, tlb {:.1}% hit",
        s.guest_insns(),
        s.guest_mips(),
        s.block_cache_hit_rate() * 100.0,
        s.tlb_hit_rate() * 100.0,
    )?;
    writeln!(
        f,
        "  mem: {} pages mapped ({} shared, {} cow breaks, {} lazy faults), \
         arena {} live pages / {} dedup hits, peak resident {} bytes",
        s.vm.mat.pages_mapped,
        s.vm.mat.shared_pages,
        s.vm.mat.cow_breaks,
        s.vm.mat.lazy_faults,
        s.arena.live_pages,
        s.arena.dedup_hits,
        s.vm.mat.peak_owned_bytes,
    )?;
    write!(f, "  cache: {}", s.cache)
}

/// Writes the cache summary — the body of `CacheStats`'s `Display`.
pub(crate) fn write_cache(f: &mut fmt::Formatter<'_>, c: &CacheStats) -> fmt::Result {
    write!(
        f,
        "profiles {}/{} hit, whole runs {}/{} hit, pinballs {}/{} hit",
        c.profile_hits,
        c.profile_lookups(),
        c.whole_hits,
        c.whole_lookups(),
        c.pinball_hits,
        c.pinball_lookups(),
    )?;
    if c.store_hits.saturating_add(c.store_puts) > 0 {
        write!(f, " (store: {} hit, {} put)", c.store_hits, c.store_puts)?;
    }
    Ok(())
}

/// The canonical text of a validation report — the body `elfie
/// validate` prints and the exact bytes an `elfie serve` daemon returns
/// for a validate job, so the two can be diffed bit-for-bit (the
/// serve-smoke CI job and the `daemon_serve` determinism gate both rely
/// on this being the single rendering).
pub fn validation_report(name: &str, report: &crate::pipeline::ValidationReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{}: {} phases, coverage {:.1}%\n\
         true CPI {:.4}  predicted CPI {:.4}  error {:+.2}%\n",
        name,
        report.k,
        100.0 * report.coverage,
        report.true_cpi,
        report.predicted_cpi,
        100.0 * report.error
    );
    for r in &report.regions {
        let _ = write!(
            out,
            "cluster {} rank {}: slice {} weight {:.4} — ",
            r.cluster, r.rank, r.slice_index, r.weight
        );
        match &r.measurement {
            Some(m) if m.completed && m.insns > 0 => {
                let _ = writeln!(out, "CPI {:.4} ({} insns)", m.cpi, m.insns);
            }
            Some(m) => {
                let _ = writeln!(out, "incomplete ({:?})", m.exit);
            }
            None => {
                let _ = writeln!(out, "failed");
            }
        }
    }
    out
}

/// The summary line of a captured region, newline-terminated — the
/// exact report of a served `record` job, and what `elfie record`
/// prints before ` -> DIR`.
pub fn capture_line(pb: &Pinball) -> String {
    format!(
        "captured {} ({} pages, {} thread(s), {} instructions)\n",
        pb.region.name,
        pb.image.page_count(),
        pb.threads.len(),
        pb.region.length
    )
}

/// The summary line of a replay of region `name`, newline-terminated —
/// the exact report of a served `replay` job and the first line `elfie
/// replay` prints.
pub fn replay_line(name: &str, s: &ReplaySummary) -> String {
    format!(
        "replay {name}: completed={} injected={} lazy_pages={} instructions={}\n",
        s.completed, s.injected_syscalls, s.lazy_pages_injected, s.global_icount
    )
}

/// The two `vm ...` lines `elfie simulate --stats` prints (no trailing
/// newline).
pub fn vm_lines(fp: &FastPathStats) -> String {
    format!(
        "vm fast path: block cache {:.1}% hit, soft-tlb {:.1}% hit\n\
         vm memory: {} pages mapped ({} shared, {} cow breaks, {} lazy faults), \
         peak resident {} bytes",
        fp.block_hit_rate() * 100.0,
        fp.tlb_hit_rate() * 100.0,
        fp.mat.pages_mapped,
        fp.mat.shared_pages,
        fp.mat.cow_breaks,
        fp.mat.lazy_faults,
        fp.mat.peak_owned_bytes,
    )
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn dur_ns(d: Duration) -> Json {
    Json::U64(d.as_nanos() as u64)
}

fn vm_json(fp: &FastPathStats) -> Json {
    obj(vec![
        ("block_hits", Json::U64(fp.block_hits)),
        ("block_misses", Json::U64(fp.block_misses)),
        ("block_evictions", Json::U64(fp.block_evictions)),
        ("block_flushes", Json::U64(fp.block_flushes)),
        ("tlb_hits", Json::U64(fp.tlb_hits)),
        ("tlb_misses", Json::U64(fp.tlb_misses)),
        ("insns", Json::U64(fp.insns)),
    ])
}

fn mem_json(mat: &MaterializeStats) -> Json {
    obj(vec![
        ("pages_mapped", Json::U64(mat.pages_mapped)),
        ("shared_pages", Json::U64(mat.shared_pages)),
        ("cow_breaks", Json::U64(mat.cow_breaks)),
        ("lazy_faults", Json::U64(mat.lazy_faults)),
        ("owned_bytes", Json::U64(mat.owned_bytes)),
        ("peak_owned_bytes", Json::U64(mat.peak_owned_bytes)),
    ])
}

/// Serialises a [`PipelineStats`] into a complete, versioned
/// `elfie-stats` document. Only raw counters are stored (durations as
/// nanoseconds); the `derived` section repeats MIPS/hit-rates for human
/// readers but is ignored on parse.
pub fn stats_to_json(s: &PipelineStats) -> Json {
    obj(vec![
        ("schema", Json::Str(STATS_SCHEMA.to_string())),
        ("version", Json::U64(STATS_VERSION)),
        ("workers", Json::U64(s.workers as u64)),
        ("total_ns", dur_ns(s.total)),
        (
            "stages",
            obj(vec![
                ("profile_ns", dur_ns(s.profile_time)),
                ("capture_ns", dur_ns(s.capture_time)),
                ("convert_ns", dur_ns(s.convert_time)),
                ("measure_ns", dur_ns(s.measure_time)),
            ]),
        ),
        (
            "regions",
            obj(vec![
                ("attempted", Json::U64(s.regions_attempted)),
                ("failed", Json::U64(s.regions_failed)),
            ]),
        ),
        ("vm", vm_json(&s.vm)),
        ("guest_ns", Json::U64(s.guest_ns)),
        ("mem", mem_json(&s.vm.mat)),
        (
            "arena",
            obj(vec![
                ("live_pages", Json::U64(s.arena.live_pages)),
                ("interned", Json::U64(s.arena.interned)),
                ("dedup_hits", Json::U64(s.arena.dedup_hits)),
            ]),
        ),
        (
            "cache",
            obj(vec![
                ("profile_hits", Json::U64(s.cache.profile_hits)),
                ("profile_misses", Json::U64(s.cache.profile_misses)),
                ("pinball_hits", Json::U64(s.cache.pinball_hits)),
                ("pinball_misses", Json::U64(s.cache.pinball_misses)),
                ("whole_hits", Json::U64(s.cache.whole_hits)),
                ("whole_misses", Json::U64(s.cache.whole_misses)),
                ("store_hits", Json::U64(s.cache.store_hits)),
                ("store_puts", Json::U64(s.cache.store_puts)),
            ]),
        ),
        (
            "derived",
            obj(vec![
                ("guest_mips", Json::F64(s.guest_mips())),
                ("block_cache_hit_rate", Json::F64(s.block_cache_hit_rate())),
                ("tlb_hit_rate", Json::F64(s.tlb_hit_rate())),
                ("cache_hit_rate", Json::F64(s.cache.hit_rate())),
            ]),
        ),
    ])
}

/// Serialises a simulation run's VM counters into a versioned
/// `elfie-sim-stats` document.
pub fn sim_stats_to_json(fp: &FastPathStats) -> Json {
    obj(vec![
        ("schema", Json::Str(SIM_STATS_SCHEMA.to_string())),
        ("version", Json::U64(STATS_VERSION)),
        ("vm", vm_json(fp)),
        ("mem", mem_json(&fp.mat)),
        (
            "derived",
            obj(vec![
                ("block_cache_hit_rate", Json::F64(fp.block_hit_rate())),
                ("tlb_hit_rate", Json::F64(fp.tlb_hit_rate())),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// JSON decoding
// ---------------------------------------------------------------------------

fn u64_field(j: &Json, key: &str) -> Result<u64, String> {
    j.field(key)?
        .as_u64()
        .ok_or_else(|| format!("field `{key}` is not a non-negative integer"))
}

/// Like [`u64_field`], but an absent field reads as 0.
fn u64_field_or_zero(j: &Json, key: &str) -> Result<u64, String> {
    match j.get(key) {
        Some(_) => u64_field(j, key),
        None => Ok(0),
    }
}

/// Validates the `schema`/`version` header. Returns the schema name.
///
/// # Errors
/// Rejects missing headers, unknown schemas, and newer versions.
pub fn check_schema(doc: &Json) -> Result<&str, String> {
    let schema = doc
        .field("schema")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != STATS_SCHEMA && schema != SIM_STATS_SCHEMA {
        return Err(format!("unknown schema `{schema}`"));
    }
    let version = u64_field(doc, "version")?;
    if version > STATS_VERSION {
        return Err(format!(
            "document version {version} is newer than supported {STATS_VERSION}"
        ));
    }
    Ok(schema)
}

fn vm_from_json(doc: &Json) -> Result<FastPathStats, String> {
    let vm = doc.field("vm")?;
    let mem = doc.field("mem")?;
    Ok(FastPathStats {
        block_hits: u64_field(vm, "block_hits")?,
        block_misses: u64_field(vm, "block_misses")?,
        block_evictions: u64_field(vm, "block_evictions")?,
        block_flushes: u64_field(vm, "block_flushes")?,
        tlb_hits: u64_field(vm, "tlb_hits")?,
        tlb_misses: u64_field(vm, "tlb_misses")?,
        insns: u64_field(vm, "insns")?,
        mat: MaterializeStats {
            pages_mapped: u64_field(mem, "pages_mapped")?,
            shared_pages: u64_field(mem, "shared_pages")?,
            cow_breaks: u64_field(mem, "cow_breaks")?,
            lazy_faults: u64_field(mem, "lazy_faults")?,
            owned_bytes: u64_field(mem, "owned_bytes")?,
            peak_owned_bytes: u64_field(mem, "peak_owned_bytes")?,
        },
    })
}

/// Parses an `elfie-stats` document back into a [`PipelineStats`].
///
/// # Errors
/// Rejects wrong schemas and missing or mistyped fields.
pub fn stats_from_json(doc: &Json) -> Result<PipelineStats, String> {
    if check_schema(doc)? != STATS_SCHEMA {
        return Err(format!("expected schema `{STATS_SCHEMA}`"));
    }
    let stages = doc.field("stages")?;
    let regions = doc.field("regions")?;
    let arena = doc.field("arena")?;
    let cache = doc.field("cache")?;
    Ok(PipelineStats {
        workers: u64_field(doc, "workers")? as usize,
        total: Duration::from_nanos(u64_field(doc, "total_ns")?),
        profile_time: Duration::from_nanos(u64_field(stages, "profile_ns")?),
        capture_time: Duration::from_nanos(u64_field(stages, "capture_ns")?),
        convert_time: Duration::from_nanos(u64_field(stages, "convert_ns")?),
        measure_time: Duration::from_nanos(u64_field(stages, "measure_ns")?),
        regions_attempted: u64_field(regions, "attempted")?,
        regions_failed: u64_field(regions, "failed")?,
        vm: vm_from_json(doc)?,
        guest_ns: u64_field(doc, "guest_ns")?,
        arena: ArenaStats {
            live_pages: u64_field(arena, "live_pages")?,
            interned: u64_field(arena, "interned")?,
            dedup_hits: u64_field(arena, "dedup_hits")?,
        },
        cache: CacheStats {
            profile_hits: u64_field(cache, "profile_hits")?,
            profile_misses: u64_field(cache, "profile_misses")?,
            pinball_hits: u64_field(cache, "pinball_hits")?,
            pinball_misses: u64_field(cache, "pinball_misses")?,
            // Documents written before whole runs were cached lack them.
            whole_hits: u64_field_or_zero(cache, "whole_hits")?,
            whole_misses: u64_field_or_zero(cache, "whole_misses")?,
            store_hits: u64_field(cache, "store_hits")?,
            store_puts: u64_field(cache, "store_puts")?,
        },
    })
}

/// Parses an `elfie-sim-stats` document back into a [`FastPathStats`].
///
/// # Errors
/// Rejects wrong schemas and missing or mistyped fields.
pub fn sim_stats_from_json(doc: &Json) -> Result<FastPathStats, String> {
    if check_schema(doc)? != SIM_STATS_SCHEMA {
        return Err(format!("expected schema `{SIM_STATS_SCHEMA}`"));
    }
    vm_from_json(doc)
}

/// Re-renders a parsed stats document as its `--stats` text form:
/// the `pipeline:` block for `elfie-stats`, the `vm ...` lines for
/// `elfie-sim-stats`. Because the document stores only raw counters,
/// this reproduces the original CLI output bit for bit.
///
/// # Errors
/// Propagates schema/field errors from parsing.
pub fn summarize_stats_document(doc: &Json) -> Result<String, String> {
    match check_schema(doc)? {
        STATS_SCHEMA => Ok(stats_from_json(doc)?.to_string()),
        _ => Ok(vm_lines(&sim_stats_from_json(doc)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::StatsCollector;
    use std::time::Duration;

    fn sample_stats() -> PipelineStats {
        let mut s = StatsCollector::new().finish(
            Duration::from_millis(1234),
            4,
            CacheStats {
                profile_hits: 1,
                profile_misses: 2,
                pinball_hits: 3,
                pinball_misses: 4,
                whole_hits: 7,
                whole_misses: 8,
                store_hits: 5,
                store_puts: 6,
            },
        );
        s.profile_time = Duration::from_nanos(111_222_333);
        s.measure_time = Duration::from_nanos(999_000_001);
        s.regions_attempted = 7;
        s.regions_failed = 1;
        s.vm.block_hits = 900;
        s.vm.block_misses = 100;
        s.vm.tlb_hits = 75;
        s.vm.tlb_misses = 25;
        s.vm.insns = 123_456_789;
        s.vm.mat.pages_mapped = 50;
        s.vm.mat.shared_pages = 40;
        s.vm.mat.cow_breaks = 3;
        s.vm.mat.lazy_faults = 2;
        s.vm.mat.peak_owned_bytes = 65536;
        s.guest_ns = 41_152_263; // ~3000 MIPS
        s.arena = ArenaStats {
            live_pages: 12,
            interned: 100,
            dedup_hits: 88,
        };
        s
    }

    #[test]
    fn stats_json_roundtrips_to_identical_struct_and_text() {
        let s = sample_stats();
        let doc = stats_to_json(&s);
        let text = doc.render_pretty();
        let parsed = Json::parse(&text).unwrap();
        let back = stats_from_json(&parsed).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_string(), s.to_string(), "text renderings agree");
        assert_eq!(summarize_stats_document(&parsed).unwrap(), s.to_string());
    }

    #[test]
    fn a_document_written_before_whole_runs_were_cached_still_parses() {
        let s = sample_stats();
        let text = stats_to_json(&s).render_pretty();
        let old: String = text
            .lines()
            .filter(|line| !line.contains("\"whole_"))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_ne!(old, text);
        let back = stats_from_json(&Json::parse(&old).unwrap()).unwrap();
        assert_eq!((back.cache.whole_hits, back.cache.whole_misses), (0, 0));
        assert_eq!(back.cache.store_puts, s.cache.store_puts);
    }

    #[test]
    fn sim_stats_json_roundtrips() {
        let fp = sample_stats().vm;
        let doc = sim_stats_to_json(&fp);
        let parsed = Json::parse(&doc.render()).unwrap();
        let back = sim_stats_from_json(&parsed).unwrap();
        assert_eq!(back, fp);
        assert_eq!(summarize_stats_document(&parsed).unwrap(), vm_lines(&fp));
        assert!(vm_lines(&fp).starts_with("vm fast path: block cache 90.0% hit"));
    }

    #[test]
    fn schema_checks_reject_foreign_documents() {
        assert!(check_schema(&Json::Null).is_err());
        let doc = Json::parse(r#"{"schema":"not-elfie","version":1}"#).unwrap();
        assert!(check_schema(&doc).is_err());
        let doc = Json::parse(r#"{"schema":"elfie-stats","version":999}"#).unwrap();
        assert!(check_schema(&doc).is_err(), "newer versions are rejected");
        let doc = Json::parse(r#"{"schema":"elfie-stats","version":1}"#).unwrap();
        assert_eq!(check_schema(&doc), Ok(STATS_SCHEMA));
        assert!(stats_from_json(&doc).is_err(), "missing fields rejected");
    }

    #[test]
    fn wrong_schema_for_parser_is_rejected() {
        let sim = sim_stats_to_json(&FastPathStats::default());
        assert!(stats_from_json(&sim).is_err());
        let pipe = stats_to_json(&sample_stats());
        assert!(sim_stats_from_json(&pipe).is_err());
    }

    #[test]
    fn document_has_required_sections() {
        let doc = stats_to_json(&sample_stats());
        for key in [
            "schema", "version", "workers", "total_ns", "stages", "regions", "vm", "guest_ns",
            "mem", "arena", "cache", "derived",
        ] {
            assert!(doc.get(key).is_some(), "missing `{key}`");
        }
        assert_eq!(doc.get("schema").unwrap().as_str(), Some("elfie-stats"));
    }
}
