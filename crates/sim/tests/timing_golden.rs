//! Golden digests of the timing model's and the BBV collector's outputs.
//!
//! The differential suites compare two ways of computing one result
//! (serial vs sharded, block cache vs interpreter); nothing else pins the
//! *numbers*. This test does: every recorded digest below covers a full
//! simulation outcome — cycles, CPI bits and every [`SimStats`] field —
//! or a [`BbvProfile::fingerprint`], so any change to the timing model,
//! the cache/TLB models or the BBV collector that moves a single counter
//! or a single f64 addition fails here.
//!
//! Covered per test-scale workload (int, fp and the 4-thread speed suite):
//!
//! * one captured region under `gem5_se(haswell_like)`,
//!   `gem5_se(nehalem_like)`, `sniper()` (8 cores) and `coresim_simics()`
//!   (full system: kernel footprint), each serial and with 2 shards at an
//!   interval of region/8 (the sharded digest also folds in the snapshot
//!   chain: its length, its encoded bytes and each snapshot's global
//!   instruction count);
//! * `profile_program` at two slice sizes.
//!
//! A deliberate change to the model re-records the tables from the
//! `actual:` rows a failing run prints.

use elfie_isa::Fnv64;
use elfie_pinball::{Pinball, RegionTrigger};
use elfie_pinplay::{Logger, LoggerConfig};
use elfie_sim::{
    simulate_pinball, simulate_pinball_sharded, CoreParams, RoiMode, ShardConfig, SimOutcome,
    SimStats, Simulator,
};
use elfie_simpoint::profile_program;
use elfie_vm::MachineConfig;
use elfie_workloads::{suite_fp, suite_int, suite_speed_mt, InputScale, Workload};

const TRIGGER: u64 = 2_000;
const REGION: u64 = 40_000;
const BBV_SLICES: [u64; 2] = [1_000, 5_000];
const BBV_FUEL: u64 = 2_000_000;

fn personalities() -> [(&'static str, Simulator); 4] {
    [
        (
            "gem5-haswell",
            Simulator::gem5_se(CoreParams::haswell_like()),
        ),
        (
            "gem5-nehalem",
            Simulator::gem5_se(CoreParams::nehalem_like()),
        ),
        ("sniper", Simulator::sniper()),
        ("simics", Simulator::coresim_simics()),
    ]
    .map(|(name, sim)| {
        // Raw pinballs carry no ROI markers.
        let sim = Simulator {
            roi: RoiMode::Always,
            ..sim
        };
        (name, sim)
    })
}

fn stats_digest(h: Fnv64, s: &SimStats) -> Fnv64 {
    let mut h = h
        .u64(s.user_insns)
        .u64(s.kernel_insns)
        .u64(s.per_thread.len() as u64);
    for (&tid, &n) in &s.per_thread {
        h = h.u64(u64::from(tid)).u64(n);
    }
    h.u64(s.mispredicts)
        .u64(s.l1d_misses)
        .u64(s.l2_misses)
        .u64(s.l3_misses)
        .u64(s.dtlb_misses)
        .u64(s.prefetches)
        .u64(s.footprint_lines)
        .u64(s.kernel_footprint_lines)
}

fn outcome_digest(o: &SimOutcome) -> Fnv64 {
    stats_digest(Fnv64::new().u64(o.cycles).u64(o.cpi.to_bits()), &o.stats)
}

fn capture(w: &Workload) -> Pinball {
    let pb = Logger::new(LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(TRIGGER),
        REGION,
    ))
    .capture(&w.program, |m| w.setup(m))
    .unwrap_or_else(|e| panic!("{}: capture failed: {e:?}", w.name));
    assert_eq!(pb.region.length, REGION, "{}: region length", w.name);
    pb
}

/// `(workload, personality, serial digest, 2-shard digest)` rows.
fn sim_rows(suite: &[Workload]) -> Vec<(String, &'static str, u64, u64)> {
    let shard_cfg = ShardConfig {
        shards: 2,
        interval: REGION / 8,
    };
    let mut rows = Vec::new();
    for w in suite {
        let pb = capture(w);
        for (name, sim) in personalities() {
            let serial = simulate_pinball(&pb, &sim);
            assert!(serial.stats.user_insns > 0, "{} {name}: ROI armed", w.name);
            let sharded = simulate_pinball_sharded(&pb, &sim, &shard_cfg);
            let mut sharded_digest = outcome_digest(&sharded.outcome)
                .u64(sharded.snapshots.len() as u64)
                .u64(sharded.snapshot_bytes);
            for snap in &sharded.snapshots {
                sharded_digest = sharded_digest.u64(snap.meta.global_icount);
            }
            let sharded_digest = sharded_digest.finish();
            rows.push((
                w.name.clone(),
                name,
                outcome_digest(&serial).finish(),
                sharded_digest,
            ));
        }
    }
    rows
}

fn check_sim(suite: &[Workload], golden: &[(&str, &str, u64, u64)]) {
    let actual = sim_rows(suite);
    let expected: Vec<_> = golden
        .iter()
        .map(|&(w, p, s, k)| (w.to_string(), p, s, k))
        .collect();
    if actual != expected {
        for (w, p, s, k) in &actual {
            println!("actual: (\"{w}\", \"{p}\", {s:#018x}, {k:#018x}),");
        }
    }
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "timing outcome digest");
    }
    assert_eq!(actual.len(), expected.len(), "row count");
}

#[test]
fn int_suite_timing_outcomes_are_pinned() {
    check_sim(&suite_int(InputScale::Test), INT_GOLDEN);
}

#[test]
fn fp_suite_timing_outcomes_are_pinned() {
    check_sim(&suite_fp(InputScale::Test), FP_GOLDEN);
}

#[test]
fn mt_suite_timing_outcomes_are_pinned() {
    check_sim(&suite_speed_mt(InputScale::Test, 4), MT_GOLDEN);
}

#[test]
fn bbv_profiles_are_pinned() {
    let mut all = suite_int(InputScale::Test);
    all.extend(suite_fp(InputScale::Test));
    all.extend(suite_speed_mt(InputScale::Test, 4));
    let actual: Vec<(String, u64, u64)> = all
        .iter()
        .map(|w| {
            let [a, b] = BBV_SLICES.map(|slice| {
                profile_program(&w.program, MachineConfig::default(), slice, BBV_FUEL, |m| {
                    w.setup(m)
                })
                .fingerprint()
            });
            (w.name.clone(), a, b)
        })
        .collect();
    let expected: Vec<_> = BBV_GOLDEN
        .iter()
        .map(|&(w, a, b)| (w.to_string(), a, b))
        .collect();
    if actual != expected {
        for (w, a, b) in &actual {
            println!("actual: (\"{w}\", {a:#018x}, {b:#018x}),");
        }
    }
    assert_eq!(actual, expected, "BBV fingerprints");
}

#[rustfmt::skip]
const INT_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("perlbench_like", "gem5-haswell", 0xd586c4fb7c032c67, 0x9a5f1715b46ba6ed),
    ("perlbench_like", "gem5-nehalem", 0xda7a58daa229b975, 0x650c5424f5cb763a),
    ("perlbench_like", "sniper", 0xda7a58daa229b975, 0x650c5424f5cb763a),
    ("perlbench_like", "simics", 0x209b38e2d330c646, 0xbe752f5c45e7579e),
    ("gcc_like", "gem5-haswell", 0x2e381c24e0aa2ae4, 0x2038e4b40ed1a8c4),
    ("gcc_like", "gem5-nehalem", 0x22a649ad6f3898a3, 0x70a0533fb4c27ffd),
    ("gcc_like", "sniper", 0x22a649ad6f3898a3, 0x70a0533fb4c27ffd),
    ("gcc_like", "simics", 0x40dbc886c649aedf, 0x439fc2f9b30b07c9),
    ("mcf_like", "gem5-haswell", 0x99b7ae804efaf03f, 0x4ce3d5ad30e742d4),
    ("mcf_like", "gem5-nehalem", 0x5c58149e50e98683, 0x92766f5bcce3a547),
    ("mcf_like", "sniper", 0x5c58149e50e98683, 0x92766f5bcce3a547),
    ("mcf_like", "simics", 0xd63cb793933b94ed, 0x7dc7924345dce465),
    ("omnetpp_like", "gem5-haswell", 0xd072b2632b2d73ae, 0xed97365570ee0680),
    ("omnetpp_like", "gem5-nehalem", 0x55f02cd68dc62e47, 0xd0494bc4cb96e0f0),
    ("omnetpp_like", "sniper", 0x55f02cd68dc62e47, 0xd0494bc4cb96e0f0),
    ("omnetpp_like", "simics", 0x24917d2f4cceea76, 0xc34a77b665accb5d),
    ("xalancbmk_like", "gem5-haswell", 0xc8e4acf92201e068, 0x41d1babb93d31bab),
    ("xalancbmk_like", "gem5-nehalem", 0x7f55de048360b42a, 0x54f02302b804e3d9),
    ("xalancbmk_like", "sniper", 0x7f55de048360b42a, 0x54f02302b804e3d9),
    ("xalancbmk_like", "simics", 0x6405ce175ccd2114, 0xe813d84f9192dd2c),
    ("x264_like", "gem5-haswell", 0x114eb0ff3a15c82b, 0x026c8b19eeb2668c),
    ("x264_like", "gem5-nehalem", 0xfaf2d399b51c9f3b, 0x75472381c9c8efd3),
    ("x264_like", "sniper", 0xfaf2d399b51c9f3b, 0x75472381c9c8efd3),
    ("x264_like", "simics", 0xae7e8fc9ef1fc17a, 0x504b41ce11df2850),
    ("deepsjeng_like", "gem5-haswell", 0x96f75deda72163b6, 0x421950275548fe30),
    ("deepsjeng_like", "gem5-nehalem", 0xcea34f5274e85f66, 0x007f97201f3d2eba),
    ("deepsjeng_like", "sniper", 0xcea34f5274e85f66, 0x007f97201f3d2eba),
    ("deepsjeng_like", "simics", 0x78e83955d5e228eb, 0x01712657d63ef044),
    ("leela_like", "gem5-haswell", 0x651569f3411ea0d5, 0x8f681006accf158b),
    ("leela_like", "gem5-nehalem", 0xa1a36f1d24e1a921, 0x005723f44618e0f6),
    ("leela_like", "sniper", 0xa1a36f1d24e1a921, 0x005723f44618e0f6),
    ("leela_like", "simics", 0x4af6ea3e4fc091d7, 0x55c015d219ba533c),
    ("exchange2_like", "gem5-haswell", 0x0628fcdc5cffc292, 0x5d393bde45ecc519),
    ("exchange2_like", "gem5-nehalem", 0xb670e15ebd326ca8, 0xd7070b7690c6a6f4),
    ("exchange2_like", "sniper", 0xb670e15ebd326ca8, 0xd7070b7690c6a6f4),
    ("exchange2_like", "simics", 0xa85af8fc6eb2673e, 0x388c5be77d7bbe99),
    ("xz_like", "gem5-haswell", 0xefda1aceb2226062, 0x29243e4ed87f3241),
    ("xz_like", "gem5-nehalem", 0x3f78039212e4b144, 0x92a169cefa2691b3),
    ("xz_like", "sniper", 0x3f78039212e4b144, 0x92a169cefa2691b3),
    ("xz_like", "simics", 0x253f3449a3d43eec, 0x370ea050b63a8f3a),
];

#[rustfmt::skip]
const FP_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("lbm_like", "gem5-haswell", 0x718fcfc5a2a0ecb2, 0x00720c6fb243e8fe),
    ("lbm_like", "gem5-nehalem", 0xb570516fc39c3aa1, 0x9e08bdf01081f660),
    ("lbm_like", "sniper", 0xb570516fc39c3aa1, 0x9e08bdf01081f660),
    ("lbm_like", "simics", 0xa5506f4c8d196c22, 0xbfb22e04952c87c0),
    ("nab_like", "gem5-haswell", 0x6cf57a384c5c5192, 0x23e2e34abc309cff),
    ("nab_like", "gem5-nehalem", 0x2bb018023be381c1, 0xa3896b2980823f4f),
    ("nab_like", "sniper", 0x2bb018023be381c1, 0xa3896b2980823f4f),
    ("nab_like", "simics", 0xf31a36a42b569d45, 0x9405829a7c3419d0),
    ("cam4_like", "gem5-haswell", 0xa4e1063907d3b9ee, 0x1d79432887e640be),
    ("cam4_like", "gem5-nehalem", 0xe4483153dfdbfcf0, 0x616f7aa0e5cceb7a),
    ("cam4_like", "sniper", 0xe4483153dfdbfcf0, 0x616f7aa0e5cceb7a),
    ("cam4_like", "simics", 0x1d1762b6bbb9ea72, 0xdeb9c9ab9316e362),
];

#[rustfmt::skip]
const MT_GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("lbm_s_like", "gem5-haswell", 0xf1ef88f742c68f4f, 0x979b065ce3076ad8),
    ("lbm_s_like", "gem5-nehalem", 0x4fdd21ce234e3338, 0x3d6b327c30e04a85),
    ("lbm_s_like", "sniper", 0x20ac156b3800039c, 0xdd98cb0bd3eaa42c),
    ("lbm_s_like", "simics", 0xe98603f4bdde52d9, 0x724d44a78a398541),
    ("bwaves_s_like", "gem5-haswell", 0x553fb02daf24e08d, 0x1b78319edb57730c),
    ("bwaves_s_like", "gem5-nehalem", 0x9b67a45cc0ae0998, 0x48ae599391252509),
    ("bwaves_s_like", "sniper", 0x029c33e473843184, 0x63e569e2025245e9),
    ("bwaves_s_like", "simics", 0x787fc939763eca58, 0x5dc9101f83bb03ef),
    ("imagick_s_like", "gem5-haswell", 0x0809966d37fbe20f, 0x1fa355a2d3428187),
    ("imagick_s_like", "gem5-nehalem", 0x36c0cf13eb36994b, 0xab571d88e066b584),
    ("imagick_s_like", "sniper", 0x2f35868cc14ff761, 0xa2d065ef3ac160bb),
    ("imagick_s_like", "simics", 0x62dd16156909bbf2, 0x9ddfafbaf2144b6d),
    ("sweep3d_s_like", "gem5-haswell", 0xd4c147cef0db8ffc, 0xbd1ca56b8df8dcc3),
    ("sweep3d_s_like", "gem5-nehalem", 0x9c3fb59634d8eed1, 0xcc13707c3ca3d551),
    ("sweep3d_s_like", "sniper", 0x9ac06f38cc450d2c, 0xe079f077a4b6068b),
    ("sweep3d_s_like", "simics", 0xbf2d1f1b93113cf2, 0x4a32c4277e777d0f),
    ("xz_s_like", "gem5-haswell", 0xefda1aceb2226062, 0x29243e4ed87f3241),
    ("xz_s_like", "gem5-nehalem", 0x3f78039212e4b144, 0x92a169cefa2691b3),
    ("xz_s_like", "sniper", 0x3f78039212e4b144, 0x92a169cefa2691b3),
    ("xz_s_like", "simics", 0x253f3449a3d43eec, 0x370ea050b63a8f3a),
];

#[rustfmt::skip]
const BBV_GOLDEN: &[(&str, u64, u64)] = &[
    ("perlbench_like", 0x8f26c995efc8b4c8, 0xb43ede648081c51c),
    ("gcc_like", 0xf42649d83891bd38, 0x7638f3c48c85ea3f),
    ("mcf_like", 0x47d283c7d246a464, 0x798d591024f94805),
    ("omnetpp_like", 0x8fe2326e7cc6cc8a, 0x83765f02055a54ac),
    ("xalancbmk_like", 0xc87164e926a8bb8a, 0xcdc8c9c97b6453fe),
    ("x264_like", 0x2bab5d3980896812, 0x91072f3319c0e3db),
    ("deepsjeng_like", 0xeba2557bdbc05ddf, 0x8a58af4705baa024),
    ("leela_like", 0x30d152d3e7ce052d, 0x8a272c6d373d0ce0),
    ("exchange2_like", 0x13bde84c0f03d4fa, 0x92af2a4a01aa6e6b),
    ("xz_like", 0x67a78d78cfbcc89c, 0x2da60cfc5740b44a),
    ("lbm_like", 0xb42f36ef65aede17, 0x2f00c30331558132),
    ("nab_like", 0x68f4826dd2bf5362, 0x1148ed43779377b2),
    ("cam4_like", 0xfcdce1f6e47c0371, 0x86ca799d58c781da),
    ("lbm_s_like", 0xfd12b96b8ae60e6c, 0x706000069dbe1a88),
    ("bwaves_s_like", 0x65d66a441f51fd38, 0x0659f2c648c9e6a7),
    ("imagick_s_like", 0xd045318218e950ae, 0x6455b9eb579b6b53),
    ("sweep3d_s_like", 0x6a3f2cf63be8daba, 0x536626710b522d5c),
    ("xz_s_like", 0x67a78d78cfbcc89c, 0x2da60cfc5740b44a),
];
