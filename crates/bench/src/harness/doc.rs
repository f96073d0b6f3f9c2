//! The versioned `elfie-bench` v1 stats document.
//!
//! Every measured scenario emits one [`ScenarioResult`]; a [`BenchDoc`]
//! bundles scenario results with the machine-calibration probe that was
//! measured alongside them, so a later comparison can tell "this box is
//! slower" apart from "this code is slower". The document follows the
//! same rules as the PR 5 `elfie-stats` schemas (`elfie::render`): a
//! `schema`/`version` header that readers check before parsing, raw
//! values only (no derived figures that could drift), and bit-exact JSON
//! round-trips — `f64` values are rendered with the shortest
//! representation that parses back to the same bits, which
//! `tests/bench_gate.rs` proptests end to end.

use elfie::trace::json::Json;
use std::fmt::Write as _;

/// `schema` tag of a bench document (`elfie bench run --out`).
pub const BENCH_SCHEMA: &str = "elfie-bench";
/// Current version of the bench schema. Bump on breaking changes;
/// readers reject documents from a newer version.
pub const BENCH_VERSION: u64 = 1;

/// Which way a metric is allowed to move without tripping the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-shaped: MIPS, speedups, hit rates, dedup ratios.
    HigherIsBetter,
    /// Cost-shaped: wall times, latencies, resident bytes, overhead
    /// ratios.
    LowerIsBetter,
}

impl Direction {
    /// The stable name stored in JSON.
    pub fn name(self) -> &'static str {
        match self {
            Direction::HigherIsBetter => "higher",
            Direction::LowerIsBetter => "lower",
        }
    }

    /// Parses the stable name.
    pub fn parse(text: &str) -> Result<Direction, String> {
        match text {
            "higher" => Ok(Direction::HigherIsBetter),
            "lower" => Ok(Direction::LowerIsBetter),
            other => Err(format!("unknown direction `{other}` (higher|lower)")),
        }
    }
}

/// One measured figure with its acceptance band.
///
/// `tolerance` is the fractional band around the (possibly
/// probe-normalised) baseline value inside which a later measurement
/// still passes: `0.25` allows a 25% regression before the gate fails.
/// Improvements never fail, whatever the band. `calibrated` marks
/// machine-speed-dependent metrics (wall times, MIPS, latencies): the
/// comparator rescales their expectation by the ratio of the two
/// documents' calibration probes, so a slower CI box is not mistaken
/// for a slower tree. Deterministic counts and pure ratios should be
/// uncalibrated, usually with a tight or zero tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name, unique within its scenario.
    pub name: String,
    /// The measured value (min-of-runs for noisy figures).
    pub value: f64,
    /// Human unit label (`mips`, `ms`, `ratio`, `bytes`, ...).
    pub unit: String,
    /// Which way the metric may move freely.
    pub direction: Direction,
    /// Fractional regression band (see type docs).
    pub tolerance: f64,
    /// Whether the expectation scales with the machine probe.
    pub calibrated: bool,
}

impl Metric {
    /// A throughput-shaped, machine-dependent metric (MIPS, jobs/s).
    pub fn higher(name: &str, value: f64, unit: &str, tolerance: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            direction: Direction::HigherIsBetter,
            tolerance,
            calibrated: true,
        }
    }

    /// A cost-shaped, machine-dependent metric (wall ms, latency).
    pub fn lower(name: &str, value: f64, unit: &str, tolerance: f64) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            direction: Direction::LowerIsBetter,
            tolerance,
            calibrated: true,
        }
    }

    /// Marks the metric machine-independent (ratios, counts, rates):
    /// the comparator will not rescale it by the probe.
    pub fn uncalibrated(mut self) -> Metric {
        self.calibrated = false;
        self
    }
}

/// One scenario's measured metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario name as registered in `scenarios::SCENARIOS`.
    pub name: String,
    /// Interleaved repetitions behind the min-of-runs figures.
    pub runs: u64,
    /// Free-form context (workload, knobs) for human readers.
    pub notes: String,
    /// The gated metrics.
    pub metrics: Vec<Metric>,
}

impl ScenarioResult {
    /// Looks a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A complete bench document: calibration probe + scenario results.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Scenario sizing the document was measured with (`smoke`|`full`).
    pub profile: String,
    /// Machine-calibration probe: guest MIPS of a fixed counted loop on
    /// the box that produced this document. `0.0` disables calibration.
    pub probe_mips: f64,
    /// ISO date the snapshot was taken (informational).
    pub date: String,
    /// Free-form provenance notes (informational).
    pub notes: String,
    /// Scenario results in run order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchDoc {
    /// Looks a scenario up by name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioResult> {
        self.scenarios.iter().find(|s| s.name == name)
    }

    /// The scenario names recorded in this document, in order.
    pub fn scenario_names(&self) -> Vec<&str> {
        self.scenarios.iter().map(|s| s.name.as_str()).collect()
    }

    /// The human-readable rendering `elfie bench run` prints and
    /// `paper_tables` reports experiments with: a header line, then one
    /// line per scenario followed by one aligned line per metric.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "elfie-bench v1: profile {}, probe {:.1} mips, {}\n",
            self.profile, self.probe_mips, self.date
        );
        for s in &self.scenarios {
            let _ = writeln!(out, "scenario {} ({} run(s)): {}", s.name, s.runs, s.notes);
            for m in &s.metrics {
                let _ = writeln!(
                    out,
                    "  {:<24} {:>14.4} {:<6} ({}, band ±{:.0}%{})",
                    m.name,
                    m.value,
                    m.unit,
                    m.direction.name(),
                    m.tolerance * 100.0,
                    if m.calibrated { ", calibrated" } else { "" },
                );
            }
        }
        out
    }

    /// Serialises the document. Only raw values are stored; everything
    /// the comparator derives (bands, expectations) is recomputed.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("schema", Json::Str(BENCH_SCHEMA.to_string())),
            ("version", Json::U64(BENCH_VERSION)),
            ("profile", Json::Str(self.profile.clone())),
            ("probe_mips", Json::F64(self.probe_mips)),
            ("date", Json::Str(self.date.clone())),
            ("notes", Json::Str(self.notes.clone())),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(scenario_to_json).collect()),
            ),
        ])
    }

    /// Parses a document, rejecting wrong schemas and newer versions.
    ///
    /// # Errors
    /// Returns a description of the first structural problem.
    pub fn from_json(doc: &Json) -> Result<BenchDoc, String> {
        check_schema(doc)?;
        let scenarios = doc
            .field("scenarios")?
            .as_arr()
            .ok_or("`scenarios` is not an array")?
            .iter()
            .map(scenario_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(BenchDoc {
            profile: str_field(doc, "profile")?,
            probe_mips: f64_field(doc, "probe_mips")?,
            date: str_field(doc, "date")?,
            notes: str_field(doc, "notes")?,
            scenarios,
        })
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn scenario_to_json(s: &ScenarioResult) -> Json {
    obj(vec![
        ("name", Json::Str(s.name.clone())),
        ("runs", Json::U64(s.runs)),
        ("notes", Json::Str(s.notes.clone())),
        (
            "metrics",
            Json::Arr(s.metrics.iter().map(metric_to_json).collect()),
        ),
    ])
}

fn metric_to_json(m: &Metric) -> Json {
    obj(vec![
        ("name", Json::Str(m.name.clone())),
        ("value", Json::F64(m.value)),
        ("unit", Json::Str(m.unit.clone())),
        ("direction", Json::Str(m.direction.name().to_string())),
        ("tolerance", Json::F64(m.tolerance)),
        ("calibrated", Json::Bool(m.calibrated)),
    ])
}

fn str_field(j: &Json, key: &str) -> Result<String, String> {
    Ok(j.field(key)?
        .as_str()
        .ok_or_else(|| format!("field `{key}` is not a string"))?
        .to_string())
}

/// Numbers land as `U64`/`I64` when they have no fractional part, so a
/// float field accepts any numeric form.
fn f64_field(j: &Json, key: &str) -> Result<f64, String> {
    j.field(key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` is not a number"))
}

fn scenario_from_json(j: &Json) -> Result<ScenarioResult, String> {
    let metrics = j
        .field("metrics")?
        .as_arr()
        .ok_or("`metrics` is not an array")?
        .iter()
        .map(metric_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScenarioResult {
        name: str_field(j, "name")?,
        runs: j
            .field("runs")?
            .as_u64()
            .ok_or("`runs` is not a non-negative integer")?,
        notes: str_field(j, "notes")?,
        metrics,
    })
}

fn metric_from_json(j: &Json) -> Result<Metric, String> {
    Ok(Metric {
        name: str_field(j, "name")?,
        value: f64_field(j, "value")?,
        unit: str_field(j, "unit")?,
        direction: Direction::parse(&str_field(j, "direction")?)?,
        tolerance: f64_field(j, "tolerance")?,
        calibrated: j
            .field("calibrated")?
            .as_bool()
            .ok_or("`calibrated` is not a bool")?,
    })
}

/// Validates the `schema`/`version` header of a bench document.
///
/// # Errors
/// Rejects missing headers, foreign schemas, and newer versions.
pub fn check_schema(doc: &Json) -> Result<(), String> {
    let schema = doc
        .field("schema")?
        .as_str()
        .ok_or("`schema` is not a string")?;
    if schema != BENCH_SCHEMA {
        return Err(format!("unknown schema `{schema}` (want `{BENCH_SCHEMA}`)"));
    }
    let version = doc
        .field("version")?
        .as_u64()
        .ok_or("`version` is not a non-negative integer")?;
    if version > BENCH_VERSION {
        return Err(format!(
            "document version {version} is newer than supported {BENCH_VERSION}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_doc() -> BenchDoc {
        BenchDoc {
            profile: "smoke".to_string(),
            probe_mips: 104.25,
            date: "2026-08-08".to_string(),
            notes: "unit fixture".to_string(),
            scenarios: vec![ScenarioResult {
                name: "vm_fastpath".to_string(),
                runs: 3,
                notes: "counted loop".to_string(),
                metrics: vec![
                    Metric::higher("warm_mips", 109.9, "mips", 0.35),
                    Metric::lower("interp_wall_ms", 15.625, "ms", 0.5),
                    Metric::higher("block_hit_rate", 0.999, "rate", 0.02).uncalibrated(),
                ],
            }],
        }
    }

    #[test]
    fn document_roundtrips_exactly() {
        let doc = sample_doc();
        let text = doc.to_json().render_pretty();
        let back = BenchDoc::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, doc);
        // Render → parse → render is a fixed point.
        assert_eq!(back.to_json().render_pretty(), text);
    }

    #[test]
    fn text_rendering_is_pinned() {
        let lines: Vec<String> = sample_doc()
            .render_text()
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(
            lines,
            [
                "elfie-bench v1: profile smoke, probe 104.2 mips, 2026-08-08",
                "scenario vm_fastpath (3 run(s)): counted loop",
                "  warm_mips                      109.9000 mips   (higher, band ±35%, calibrated)",
                "  interp_wall_ms                  15.6250 ms     (lower, band ±50%, calibrated)",
                "  block_hit_rate                   0.9990 rate   (higher, band ±2%)",
            ]
        );
    }

    #[test]
    fn schema_header_is_enforced() {
        assert!(check_schema(&Json::Null).is_err());
        let foreign = Json::parse(r#"{"schema":"elfie-stats","version":1}"#).unwrap();
        assert!(check_schema(&foreign).is_err());
        let newer = Json::parse(r#"{"schema":"elfie-bench","version":99}"#).unwrap();
        assert!(check_schema(&newer).is_err(), "newer versions rejected");
        let ok = Json::parse(r#"{"schema":"elfie-bench","version":1}"#).unwrap();
        assert!(check_schema(&ok).is_ok());
        assert!(
            BenchDoc::from_json(&ok).is_err(),
            "header alone is not a document"
        );
    }

    #[test]
    fn direction_names_roundtrip() {
        for d in [Direction::HigherIsBetter, Direction::LowerIsBetter] {
            assert_eq!(Direction::parse(d.name()), Ok(d));
        }
        assert!(Direction::parse("sideways").is_err());
    }

    #[test]
    fn integral_floats_parse_back() {
        // `2.0` renders as `2.0` and stays F64, but a hand-edited
        // baseline may write `2`; the reader must accept both.
        let j = Json::parse(r#"{"value": 2}"#).unwrap();
        assert_eq!(f64_field(&j, "value").unwrap(), 2.0);
    }
}
