//! Regenerates every table and figure of the paper's evaluation.
//!
//! Runs as a plain `cargo bench` target (`harness = false`): each
//! experiment prints the rows/series the paper reports. Select a subset
//! with e.g. `cargo bench --bench paper_tables -- fig9 table4`.
//! `vm_fastpath`, `store_dedup` and `parallel_scaling` print the result
//! of the same-named `elfie bench` scenario at the full profile.

use elfie_bench::experiments::scenario;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    type Experiment = (&'static str, fn() -> String);
    let experiments: Vec<Experiment> = vec![
        ("table1", elfie_bench::experiments::overhead::table1),
        ("fig9", elfie_bench::experiments::selection::fig9),
        ("table2", elfie_bench::experiments::selection::table2),
        ("table3", elfie_bench::experiments::selection::table3),
        ("fig10", elfie_bench::experiments::selection::fig10),
        ("fig11", elfie_bench::experiments::mt::fig11),
        ("table4", elfie_bench::experiments::fullsys::table4),
        ("table5", elfie_bench::experiments::gem5::table5),
        (
            "ablation_fat",
            elfie_bench::experiments::ablations::fat_pinball,
        ),
        (
            "ablation_remap",
            elfie_bench::experiments::ablations::stack_remap,
        ),
        (
            "ablation_graceful",
            elfie_bench::experiments::ablations::graceful_exit,
        ),
        ("parallel_scaling", || scenario("parallel_scaling")),
        (
            "cache_effect",
            elfie_bench::experiments::ablations::cache_effect,
        ),
        ("store_dedup", || scenario("store_dedup")),
        ("vm_fastpath", || scenario("vm_fastpath")),
    ];

    for (name, f) in experiments {
        if !want(name) {
            continue;
        }
        println!("==============================================================");
        println!("experiment: {name}");
        println!("==============================================================");
        let t0 = Instant::now();
        let report = f();
        println!("{report}");
        println!("[{name} completed in {:.1}s]\n", t0.elapsed().as_secs_f64());
    }
}
