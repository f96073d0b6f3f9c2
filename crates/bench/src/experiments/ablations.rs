//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! Only the ablations without a measured `elfie bench` scenario live
//! here; `paper_tables` prints `vm_fastpath`, `store_dedup` and
//! `parallel_scaling` straight from their scenario results
//! ([`crate::experiments::scenario`]).

use crate::Table;
use elfie::prelude::*;

/// **Fat vs regular pinballs**: fat pinballs are larger on disk but are
/// the only kind an ELFie can be generated from — ELFies forced out of
/// regular pinballs die on the first un-captured page.
pub fn fat_pinball() -> String {
    let w = elfie::workloads::gcc_like(4);
    let capture = |fat: bool| {
        let cfg = if fat {
            elfie::pinplay::LoggerConfig::fat(&w.name, RegionTrigger::GlobalIcount(60_000), 40_000)
        } else {
            elfie::pinplay::LoggerConfig::regular(
                &w.name,
                RegionTrigger::GlobalIcount(60_000),
                40_000,
            )
        };
        elfie::pinplay::Logger::new(cfg)
            .capture(&w.program, |m| w.setup(m))
            .expect("captures")
    };
    let fat = capture(true);
    let regular = capture(false);

    let run_elfie = |pb: &elfie::pinball::Pinball, force: bool| -> String {
        let opts = ConvertOptions {
            force_regular: force,
            ..ConvertOptions::default()
        };
        match convert(pb, &opts) {
            Ok(elfie) => {
                let mut m = Machine::new(MachineConfig::default());
                elfie_load_and_run(&mut m, &elfie.bytes)
            }
            Err(e) => format!("refused: {e}"),
        }
    };

    let mut t = Table::new(&[
        "pinball",
        "bundle bytes",
        "image pages",
        "lazy pages",
        "ELFie outcome",
    ]);
    t.row(&[
        "fat (-log:fat)".into(),
        fat.byte_size().to_string(),
        fat.image.page_count().to_string(),
        fat.lazy_pages.len().to_string(),
        run_elfie(&fat, false),
    ]);
    t.row(&[
        "regular".into(),
        regular.byte_size().to_string(),
        regular.image.page_count().to_string(),
        regular.lazy_pages.len().to_string(),
        run_elfie(&regular, true),
    ]);
    format!(
        "Ablation: fat vs regular pinballs for ELFie generation\n\n{}",
        t.render()
    )
}

fn elfie_load_and_run(m: &mut Machine, bytes: &[u8]) -> String {
    match elfie::elf::load(m, bytes, &elfie::elf::LoaderConfig::default()) {
        Ok(_) => match m.run(200_000_000).reason {
            ExitReason::AllExited(c) => format!("graceful exit ({c})"),
            ExitReason::Fault { fault, .. } => format!("ungraceful: {fault}"),
            other => format!("{other:?}"),
        },
        Err(e) => format!("load failed: {e}"),
    }
}

/// **Stack-remap strategy**: remapping every pinball page (the portable
/// default) vs only the stack pages — startup size and copy work differ.
pub fn stack_remap() -> String {
    let w = elfie::workloads::mcf_like(4);
    let logger = elfie::pinplay::Logger::new(elfie::pinplay::LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(100_000),
        50_000,
    ));
    let pinball = logger
        .capture(&w.program, |m| w.setup(m))
        .expect("captures");
    let mut t = Table::new(&[
        "remap mode",
        "remapped runs",
        "startup bytes",
        "startup instructions",
        "outcome",
    ]);
    for (mode, label) in [
        (RemapMode::AllPages, "all pages (portable)"),
        (RemapMode::StackOnly, "stack only"),
    ] {
        let opts = ConvertOptions {
            remap: mode,
            ..ConvertOptions::default()
        };
        let elfie = convert(&pinball, &opts).expect("converts");
        let mut m = Machine::new(MachineConfig::default());
        let outcome = elfie_load_and_run(&mut m, &elfie.bytes);
        // Startup instructions = functional total minus the armed region
        // span (which equals the recorded region for this workload).
        let total: u64 = m.threads.iter().map(|t| t.icount).sum();
        let region: u64 = pinball.region.thread_icounts.values().sum();
        t.row(&[
            label.to_string(),
            elfie.stats.remapped_runs.to_string(),
            elfie.stats.startup_bytes.to_string(),
            total.saturating_sub(region).to_string(),
            outcome,
        ]);
    }
    format!("Ablation: startup remap strategy\n\n{}", t.render())
}

/// **Graceful-exit mechanism**: armed retired-instruction counters vs
/// nothing — without the counter the ELFie overruns the region (or dies on
/// an un-captured page).
pub fn graceful_exit() -> String {
    let w = elfie::workloads::perlbench_like(6);
    let region = 50_000u64;
    let logger = elfie::pinplay::Logger::new(elfie::pinplay::LoggerConfig::fat(
        &w.name,
        RegionTrigger::GlobalIcount(40_000),
        region,
    ));
    let pinball = logger
        .capture(&w.program, |m| w.setup(m))
        .expect("captures");
    let mut t = Table::new(&["mechanism", "app instructions run", "overrun", "outcome"]);
    // Baseline startup cost (page-remap copy loops etc.) measured from the
    // counter-armed run, which executes exactly `region` app instructions.
    let mut startup = 0u64;
    for (graceful, label) in [(true, "hw counter (paper)"), (false, "none")] {
        let opts = ConvertOptions {
            graceful_exit: graceful,
            ..ConvertOptions::default()
        };
        let elfie = convert(&pinball, &opts).expect("converts");
        let mut m = Machine::new(MachineConfig::default());
        let outcome = elfie_load_and_run(&mut m, &elfie.bytes);
        let total: u64 = m.threads.iter().map(|t| t.icount).sum();
        if graceful {
            startup = total.saturating_sub(region);
        }
        let app = total.saturating_sub(startup);
        t.row(&[
            label.to_string(),
            app.to_string(),
            format!("{:.2}x", app as f64 / region as f64),
            outcome,
        ]);
    }
    format!(
        "Ablation: graceful-exit mechanism (region = {region} instructions)\n\n{}",
        t.render()
    )
}

/// **Pipeline cache**: the identical validation run twice on one engine.
/// The second run must serve every BBV profile from the cache (zero
/// profile misses) and reuse every successfully captured pinball — both
/// asserted from the run-windowed [`PipelineStats`] counters.
pub fn cache_effect() -> String {
    let f = InputScale::Train.factor();
    let workloads = vec![
        elfie::workloads::gcc_like(f),
        elfie::workloads::mcf_like(f),
        elfie::workloads::xalancbmk_like(f),
        elfie::workloads::x264_like(f),
    ];
    let cfg = PinPointsConfig {
        slice_size: 25_000,
        warmup: 50_000,
        max_k: 8,
        alternates: 2,
        ..PinPointsConfig::default()
    };
    const FUEL: u64 = 1_000_000_000;
    let engine = BatchValidator::new();
    let mut t = Table::new(&["run", "wall clock", "profile hits", "pinball hits"]);
    let mut first: Option<(Vec<ValidationReport>, PipelineStats)> = None;
    for run in 1..=2 {
        let (reports, stats) = engine
            .validate_batch(&workloads, &cfg, 17, FUEL)
            .expect("pipeline");
        t.row(&[
            format!("#{run}"),
            format!("{:.2}s", stats.total.as_secs_f64()),
            format!(
                "{}/{}",
                stats.cache.profile_hits,
                stats.cache.profile_hits + stats.cache.profile_misses
            ),
            format!(
                "{}/{}",
                stats.cache.pinball_hits,
                stats.cache.pinball_hits + stats.cache.pinball_misses
            ),
        ]);
        match &first {
            None => first = Some((reports, stats)),
            Some((ref_reports, ref_stats)) => {
                assert_eq!(*ref_reports, reports, "cached run changed the reports");
                assert_eq!(stats.cache.profile_misses, 0, "second run re-profiled");
                assert!(stats.cache.profile_hits > 0 && stats.cache.pinball_hits > 0);
                // Only captures that *failed* the first time (and were
                // therefore not cached) may capture again.
                assert!(stats.cache.pinball_misses <= ref_stats.cache.pinball_misses);
            }
        }
    }
    format!(
        "Ablation: content-addressed artifact cache (identical run twice)\n\n{}",
        t.render()
    )
}
