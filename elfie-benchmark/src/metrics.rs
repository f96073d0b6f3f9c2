//! The metric declarations, the result line, and the `BENCHMARK.json`
//! they must agree with.

use elfie_trace::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn parse(text: &str) -> Result<Better, String> {
        match text {
            "lower" => Ok(Better::Lower),
            "higher" => Ok(Better::Higher),
            other => Err(format!("`better` must be lower|higher, got `{other}`")),
        }
    }
}

/// A metric the binary emits: name and unit. Its direction and bound
/// are declared in `BENCHMARK.json` alone.
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit }
}

/// What a user of the system sees, on every workload, from untraced runs.
pub const END_TO_END: &[Decl] = &[
    m("setup_s", "s"),
    m("ops_per_s", "1/s"),
    m("p50_ms", "ms"),
    m("p95_ms", "ms"),
    m("peak_rss_mb", "MB"),
];

/// One layer each (named after its crate), from traced runs. A `_ms`
/// metric is the median, over the operations that call the layer, of the
/// layer's busy time inside one operation. A layer a workload never calls
/// reads 0 on that workload.
pub const PER_LAYER: &[Decl] = &[
    m("vm.mips", "Minsn/s"),
    m("vm.block_hit_rate", "frac"),
    m("vm.tlb_hit_rate", "frac"),
    m("vm.guest_minsns_per_op", "Minsn"),
    m("simpoint.profile_ms", "ms"),
    m("simpoint.pick_ms", "ms"),
    m("pinplay.capture_ms", "ms"),
    m("pinplay.replay_ms", "ms"),
    m("sysstate.extract_ms", "ms"),
    m("pinball2elf.convert_ms", "ms"),
    m("core.measure_whole_ms", "ms"),
    m("core.measure_region_ms", "ms"),
    m("core.regions_failed_frac", "frac"),
    m("sim.timing_model_ms", "ms"),
    m("sim.serial_mips", "Minsn/s"),
    m("sim.sharded_mips", "Minsn/s"),
    m("sim.cpi_error_pct", "%"),
    m("sim.shard.profile_ms", "ms"),
    m("sim.shard.slice_sum_ms", "ms"),
    m("sim.shard.slice_max_ms", "ms"),
    m("sim.shard.stitch_ms", "ms"),
    m("sim.shard.overhead_frac", "frac"),
    m("sim.shard.snapshot_kb", "KiB"),
    m("store.put_ms", "ms"),
    m("store.get_ms", "ms"),
    m("store.get_lazy_ms", "ms"),
    m("store.snapshot_put_ms", "ms"),
    m("store.snapshot_get_ms", "ms"),
    m("store.gc_ms", "ms"),
    m("store.new_blob_frac", "frac"),
    m("store.dedup_ratio", "x"),
    m("store.disk_mb", "MB"),
    m("serve.queue_ms_p50", "ms"),
    m("serve.queue_ms_p95", "ms"),
    m("serve.run_ms_p50", "ms"),
    m("serve.run_ms_p95", "ms"),
    m("serve.residual_ms_p50", "ms"),
    m("serve.residual_ms_p95", "ms"),
    m("serve.ping_ms", "ms"),
    m("serve.busy_frac", "frac"),
    m("serve.store_puts", "count"),
    m("unattributed_frac", "frac"),
    m("trace_overhead_frac", "frac"),
];

/// Renders the result line: exactly the declared metrics, each with its
/// unit, every value as measured.
///
/// # Errors
/// A declared metric is missing, an undeclared one is present, or a value
/// is not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    decls: &[Decl],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !decls.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut metrics = Vec::with_capacity(decls.len());
    for d in decls {
        let value = *values
            .get(d.name)
            .ok_or_else(|| format!("metric `{}` was not measured", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", d.name));
        }
        metrics.push((
            d.name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::F64(value)),
                ("unit".to_string(), Json::Str(d.unit.to_string())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::U64(attempted)),
        ("failed".to_string(), Json::U64(failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
    .render())
}

/// The benchmark declaration this binary was built with.
pub const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct SpecMetric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the base median a metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<SpecMetric>,
}

fn text(item: &Json, key: &str) -> Result<String, String> {
    item.field(key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn array<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.field(key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))
}

/// The metric list `key` (`end_to_end` or `per_layer`) of a declaration.
fn spec_metrics(doc: &Json, key: &str) -> Result<Vec<SpecMetric>, String> {
    array(doc, key)?
        .iter()
        .map(|m| {
            Ok(SpecMetric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                better: Better::parse(&text(m, "better")?)?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// Parses [`SPEC_TEXT`].
///
/// # Errors
/// Describes the first field that is missing or of the wrong type.
pub fn spec() -> Result<Spec, String> {
    let doc = Json::parse(SPEC_TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Spec {
        run_seconds: doc
            .field("run_seconds")?
            .as_u64()
            .ok_or("BENCHMARK.json: `run_seconds` is not a whole number")?,
        workloads: array(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: spec_metrics(&doc, "end_to_end")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn same(declared: &[Decl], spec: &[SpecMetric]) {
        let names = |v: Vec<String>| v.join(", ");
        assert_eq!(
            names(declared.iter().map(|d| d.name.to_string()).collect()),
            names(spec.iter().map(|m| m.name.clone()).collect()),
            "the binary and BENCHMARK.json declare different metrics"
        );
        for (d, m) in declared.iter().zip(spec) {
            assert_eq!(d.unit, m.unit, "{}: unit", d.name);
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_emits() {
        let spec = spec().expect("BENCHMARK.json parses");
        let doc = Json::parse(SPEC_TEXT).unwrap();
        let per_layer = spec_metrics(&doc, "per_layer").expect("per_layer parses");
        same(END_TO_END, &spec.end_to_end);
        same(PER_LAYER, &per_layer);
        assert_eq!(spec.workloads, crate::WORKLOADS);
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name `{}`", d.name);
            assert!(seen.insert(d.name), "metric `{}` declared twice", d.name);
        }
        for w in crate::WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name `{w}`");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&spec.run_seconds));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_and_setup_has_the_largest() {
        let spec = spec().expect("BENCHMARK.json parses");
        let bound = |m: &SpecMetric| m.bound.unwrap_or_else(|| panic!("{}: no bound", m.name));
        for m in &spec.end_to_end {
            assert!(bound(m) > 0.0 && bound(m) <= 0.25, "{}: bound", m.name);
        }
        let doc = Json::parse(SPEC_TEXT).unwrap();
        for m in spec_metrics(&doc, "per_layer").unwrap() {
            assert!(
                m.bound.is_none(),
                "{}: per-layer metrics have no bound",
                m.name
            );
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let setup = bound(setup.expect("setup_s is declared"));
        assert!(spec.end_to_end.iter().all(|m| bound(m) <= setup));
    }

    #[test]
    fn result_line_emits_every_declared_metric_and_nothing_else() {
        let all: BTreeMap<&'static str, f64> = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(true, 3, 0, END_TO_END, &all).expect("complete");
        let doc = Json::parse(&line).expect("the line is JSON");
        let metrics = doc.field("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(doc.field("attempted").unwrap().as_u64(), Some(3));
        assert_eq!(
            metrics[0].1.field("unit").unwrap().as_str(),
            Some(END_TO_END[0].unit)
        );

        let mut missing = all.clone();
        missing.remove("p95_ms");
        assert!(result_line(true, 1, 0, END_TO_END, &missing).is_err());
        let mut extra = all.clone();
        extra.insert("sim.cpi_error_pct", 1.0);
        assert!(result_line(true, 1, 0, END_TO_END, &extra).is_err());
        let mut nan = all;
        nan.insert("p50_ms", f64::NAN);
        assert!(result_line(true, 1, 0, END_TO_END, &nan).is_err());
    }
}
