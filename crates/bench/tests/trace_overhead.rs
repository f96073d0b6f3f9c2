//! Enforces the observability layer's headline promise: with tracing
//! disabled, the VM fast path runs at full speed (≤2% overhead).
//!
//! The VM hot loop never consults the tracer — fast-path counters fold
//! into `FastPathStats` and only surface per run — so a disabled tracer's
//! cost is a handful of per-run `maybe_span` pointer checks. This test
//! pins that down against timer noise by interleaving baseline and traced
//! runs, comparing minima (the noise-free estimate of each arm), and
//! retrying before declaring a regression.

use elfie::isa::Program;
use elfie::prelude::*;
use elfie::sim::{simulate_program, Simulator};
use elfie::vm::ExitReason;
use elfie_bench::harness::{counted_loop, interleaved_min};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn timed_run(prog: &Program, tracer: Option<Arc<Tracer>>) -> Duration {
    let mut sim = Simulator::new(elfie::sim::CoreParams::haswell_like());
    if let Some(tracer) = tracer {
        sim = sim.with_tracer(tracer);
    }
    let start = Instant::now();
    let out = simulate_program(prog, &sim, |_| {});
    let wall = start.elapsed();
    assert_eq!(out.exit, ExitReason::AllExited(0));
    assert!(out.fastpath.insns > 0, "loop must retire instructions");
    wall
}

#[test]
fn disabled_tracing_adds_at_most_two_percent() {
    let prog = counted_loop(200_000);
    // Warm both paths (page-ins, lazy statics, branch predictors).
    timed_run(&prog, None);
    timed_run(&prog, Some(Arc::new(Tracer::new(TraceMode::Disabled))));

    let mut last_ratio = f64::NAN;
    for attempt in 0..5 {
        // Interleave so load spikes hit both arms equally; min-of-runs
        // discards the spikes entirely.
        let mut base = || timed_run(&prog, None);
        let mut traced = || timed_run(&prog, Some(Arc::new(Tracer::new(TraceMode::Disabled))));
        let minima = interleaved_min(7, &mut [&mut base, &mut traced]);
        last_ratio = minima[1].as_secs_f64() / minima[0].as_secs_f64();
        if last_ratio <= 1.02 {
            return;
        }
        eprintln!("attempt {attempt}: disabled-tracing overhead ratio {last_ratio:.4}, retrying");
    }
    panic!(
        "disabled tracing slowed the VM fast path by more than 2% \
         (best ratio over 5 attempts: {last_ratio:.4})"
    );
}

/// Full-mode tracing must not change any functional result — same guest
/// instruction count, same fast-path counters — only record them.
#[test]
fn full_tracing_does_not_change_results() {
    let prog = counted_loop(50_000);
    let plain = simulate_program(
        &prog,
        &Simulator::new(elfie::sim::CoreParams::haswell_like()),
        |_| {},
    );
    let tracer = Arc::new(Tracer::new(TraceMode::Full));
    let traced = simulate_program(
        &prog,
        &Simulator::new(elfie::sim::CoreParams::haswell_like()).with_tracer(Arc::clone(&tracer)),
        |_| {},
    );
    assert_eq!(plain.exit, traced.exit);
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.fastpath, traced.fastpath);
    assert!(tracer.collect().event_count() > 0, "run must leave a span");
}
