//! `compare --base F... --change F...`: judges a change against a base,
//! row by row, from `run --out` documents.
//!
//! A row is improved when the change wins at least nine tenths of the
//! paired runs (ties count for neither) and the medians differ by more
//! than the base's interquartile range. Otherwise it is worse when the
//! change's median is worse than the base's by more than the metric's
//! bound in `BENCHMARK.json`, and unchanged when not — unless the base's
//! own spread is wider than the bound, which leaves the row unresolved
//! unless every change run beats every base run.

use crate::metrics::{self, Better};
use crate::stats::{median, quartiles};
use elfie_trace::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

/// Judges one row; `base[i]` and `change[i]` form pair `i`. Returns the
/// verdict and the change's pair-win fraction.
pub fn judge(base: &[f64], change: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    // How much better `to` is than `from`, in the metric's direction.
    let gain = |from: f64, to: f64| match better {
        Better::Lower => from - to,
        Better::Higher => to - from,
    };
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| gain(**b, **c) > 0.0)
        .count();
    let win_frac = wins as f64 / pairs.max(1) as f64;
    let (bm, cm) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let scale = bm.abs().max(f64::MIN_POSITIVE);
    let verdict = if win_frac >= 0.9 && gain(bm, cm) > q3 - q1 {
        Verdict::Improved
    } else if (q3 - q1) / scale > bound {
        let all_better = change
            .iter()
            .all(|c| base.iter().all(|b| gain(*b, *c) > 0.0));
        if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        }
    } else if -gain(bm, cm) / scale > bound {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    };
    (verdict, win_frac)
}

/// The untraced value of `metric` on `workload` in each document.
fn values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("results")?.as_arr())
        .flatten()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_bool) == Some(false)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn load(paths: &[String]) -> Result<Vec<Json>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

pub fn cmd(args: &[String]) -> Result<(), String> {
    let opts = crate::Opts::parse(args)?;
    opts.check(&["base", "change"])?;
    let (base, change) = (load(opts.many("base"))?, load(opts.many("change"))?);
    if base.is_empty() || change.is_empty() {
        return Err("compare needs --base F... and --change F...".into());
    }
    let spec = metrics::spec()?;
    println!(
        "{:<16} {:<20} {:>30} {:>30} {:>6}  verdict (bound)",
        "workload", "metric (unit)", "base median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let side = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
    };
    for w in &spec.workloads {
        for m in &spec.end_to_end {
            let (b, c) = (values(&base, w, &m.name), values(&change, w, &m.name));
            if b.is_empty() || c.is_empty() {
                continue;
            }
            let bound = m.bound.ok_or_else(|| format!("{}: no bound", m.name))?;
            let (verdict, win_frac) = judge(&b, &c, m.better, bound);
            println!(
                "{w:<16} {:<20} {:>30} {:>30} {:>6.2}  {verdict:?} ({bound})",
                format!("{} ({})", m.name, m.unit),
                side(&b),
                side(&c),
                win_frac
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: [f64; 10] = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3,
    ];

    fn shifted(by: f64) -> Vec<f64> {
        BASE.iter().map(|x| x * by).collect()
    }

    #[test]
    fn a_clear_win_on_nine_tenths_of_pairs_is_improved() {
        assert_eq!(
            judge(&BASE, &shifted(0.9), Better::Lower, 0.05).0,
            Verdict::Improved
        );
        assert_eq!(
            judge(&BASE, &shifted(1.1), Better::Higher, 0.05).0,
            Verdict::Improved
        );
        assert_eq!(judge(&BASE, &shifted(0.9), Better::Lower, 0.05).1, 1.0);
    }

    #[test]
    fn a_shift_within_the_bound_is_unchanged_and_beyond_it_is_worse() {
        assert_eq!(
            judge(&BASE, &shifted(1.02), Better::Lower, 0.05).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&BASE, &BASE, Better::Lower, 0.05).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&BASE, &shifted(1.1), Better::Lower, 0.05).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&BASE, &shifted(0.9), Better::Higher, 0.05).0,
            Verdict::Worse
        );
    }

    #[test]
    fn a_base_noisier_than_the_bound_leaves_the_row_unresolved() {
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(
            judge(&noisy, &shifted(1.0), Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
        // ... unless every change run beats every base run.
        let skewed = [
            99.0, 100.0, 100.0, 100.0, 100.0, 100.0, 300.0, 300.0, 300.0, 300.0,
        ];
        assert_eq!(
            judge(&skewed, &[98.0; 10], Better::Lower, 0.05).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&skewed, &[101.0; 10], Better::Lower, 0.05).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let (verdict, wins) = judge(&BASE, &BASE, Better::Higher, 0.05);
        assert_eq!((verdict, wins), (Verdict::Unchanged, 0.0));
    }
}
