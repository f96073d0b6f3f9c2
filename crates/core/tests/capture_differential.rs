//! One logging pass per workload against one capture per region, over
//! the whole suite: for every workload at test scale and every max K in
//! 1..=3, capturing all selected regions — alternates included — with
//! `capture_pinpoints` must yield, region for region, the very bytes
//! `capture_pinpoint` yields for that region alone.

use elfie::pipeline::{capture_pinpoint, capture_pinpoints};
use elfie_simpoint::{pick, profile_program, PinPoint, PinPointsConfig};
use elfie_vm::MachineConfig;
use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};

const SLICE: u64 = 5_000;
const FUEL: u64 = 2_000_000_000;

/// Compares both captures of every selected region of every workload.
fn assert_one_pass_matches(suite: &[Workload]) {
    let mut regions = 0;
    for w in suite {
        let profile = profile_program(&w.program, MachineConfig::default(), SLICE, FUEL, |m| {
            w.setup(m)
        });
        for max_k in 1..=3 {
            let cfg = PinPointsConfig {
                slice_size: SLICE,
                warmup: 2_000,
                max_k,
                ..PinPointsConfig::default()
            };
            let selection = pick(&profile, &cfg);
            let points: Vec<&PinPoint> = selection.points.iter().collect();
            let together = capture_pinpoints(w, &points);
            assert_eq!(together.len(), points.len());
            for (point, got) in points.iter().zip(together) {
                let got = got.map(|pb| pb.to_bytes()).map_err(|e| e.to_string());
                let alone = capture_pinpoint(w, point)
                    .map(|pb| pb.to_bytes())
                    .map_err(|e| e.to_string());
                assert!(
                    got == alone,
                    "{} max_k {max_k}: slice {} (rank {}) differs",
                    w.name,
                    point.slice_index,
                    point.rank
                );
                regions += 1;
            }
        }
    }
    assert!(regions >= 3 * suite.len(), "{regions} regions compared");
}

#[test]
fn int_suite_one_pass_matches_per_region_capture() {
    assert_one_pass_matches(&suite_int(InputScale::Test));
}

#[test]
fn fp_suite_one_pass_matches_per_region_capture() {
    assert_one_pass_matches(&suite_fp(InputScale::Test));
}

#[test]
fn multi_threaded_suite_one_pass_matches_per_region_capture() {
    assert_one_pass_matches(&suite_speed_mt(InputScale::Test, 4));
}
