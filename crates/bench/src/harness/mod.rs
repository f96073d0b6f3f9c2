//! `elfie bench` — the perf-regression gate and fleet benchmark harness.
//!
//! The harness runs the repo's ablations as in-process *measured
//! scenarios* ([`scenarios::SCENARIOS`]), emits a versioned
//! [`doc::BenchDoc`] (`elfie-bench` v1, built on the same `Json`
//! machinery as the PR 5 stats schemas), and compares fresh measurements
//! against checked-in `BENCH_*.json` baselines with noise-aware
//! thresholds ([`compare`]):
//!
//! * every timed figure is the **minimum over interleaved runs**
//!   ([`interleaved_min`]) — load spikes hit all arms equally and the
//!   min discards them, the same discipline as the PR 5 trace-overhead
//!   guard;
//! * every document records a **machine-calibration probe**
//!   ([`calibration_probe`]): the guest MIPS of a fixed counted loop.
//!   The comparator rescales machine-dependent expectations by the
//!   ratio of the two probes, so a slower CI box moves the goalposts
//!   instead of tripping the gate;
//! * each metric carries its own tolerance band and direction, and the
//!   gate is monotone: improvements never fail, regressions beyond the
//!   band always fail (`tests/bench_gate.rs` proptests this).

pub mod compare;
pub mod doc;
pub mod fleet;
pub mod scenarios;
pub mod serve;

use doc::BenchDoc;
use elfie::prelude::*;
use std::time::{Duration, Instant, SystemTime};

/// Scenario sizing: `Smoke` keeps a full `elfie bench` run within a CI
/// budget (~minutes); `Full` uses the paper-scale knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized scenarios (the checked-in baselines use this).
    Smoke,
    /// Paper-scale scenarios for local deep dives.
    Full,
}

impl Profile {
    /// The stable name stored in documents.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }

    /// Parses the stable name.
    pub fn parse(text: &str) -> Result<Profile, String> {
        match text {
            "smoke" => Ok(Profile::Smoke),
            "full" => Ok(Profile::Full),
            other => Err(format!("unknown profile `{other}` (smoke|full)")),
        }
    }

    /// Picks the profile-appropriate value.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Profile::Smoke => smoke,
            Profile::Full => full,
        }
    }
}

/// Everything a scenario needs to size itself.
#[derive(Debug, Clone, Copy)]
pub struct BenchKnobs {
    /// Scenario sizing.
    pub profile: Profile,
    /// Interleaved repetitions behind each min-of-runs figure.
    pub runs: usize,
}

impl BenchKnobs {
    /// CI-sized knobs: smoke profile, 3 interleaved runs.
    pub fn smoke() -> BenchKnobs {
        BenchKnobs {
            profile: Profile::Smoke,
            runs: 3,
        }
    }

    /// Paper-scale knobs: full profile, 5 interleaved runs.
    pub fn full() -> BenchKnobs {
        BenchKnobs {
            profile: Profile::Full,
            runs: 5,
        }
    }
}

/// Runs every arm `runs` times in round-robin order and returns each
/// arm's minimum. Interleaving means a load spike degrades all arms in
/// the same round instead of biasing whichever arm ran during it, and
/// the min discards the spike entirely — the noise-free estimate of
/// each arm (`crates/bench/tests/trace_overhead.rs` pioneered this).
pub fn interleaved_min(runs: usize, arms: &mut [&mut dyn FnMut() -> Duration]) -> Vec<Duration> {
    let mut minima = vec![Duration::MAX; arms.len()];
    for _ in 0..runs.max(1) {
        for (arm, min) in arms.iter_mut().zip(minima.iter_mut()) {
            *min = (*min).min(arm());
        }
    }
    minima
}

/// Milliseconds as an `f64` metric value.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The counted memory-touching loop every throughput figure in this
/// harness runs. Data lives on its own page so the stores never dirty
/// the executed (and therefore watched) code page.
pub fn counted_loop(iters: u64) -> Program {
    assemble(&format!(
        r#"
        .org 0x400000
        start:
            mov rcx, {iters}
            mov r15, buf
            mov rax, 0
        loop:
            mov [r15], rax
            add rax, 3
            mov rbx, [r15 + 8]
            add rbx, rax
            sub rcx, 1
            cmp rcx, 0
            jne loop
            mov rax, 60
            mov rdi, 0
            syscall
        .org 0x402000
        buf:
            .byte 0, 0, 0, 0, 0, 0, 0, 0
            .byte 0, 0, 0, 0, 0, 0, 0, 0
        "#
    ))
    .expect("assembles")
}

/// The machine-calibration probe: warm guest MIPS of a fixed 700k-insn
/// counted loop on the full fast path (block cache + TLB), min-of-3.
/// Recorded in every document; the comparator divides candidate probe
/// by baseline probe to normalise machine-dependent metrics.
pub fn calibration_probe() -> f64 {
    let prog = counted_loop(100_000);
    let run = || {
        let mut m = Machine::new(MachineConfig::default());
        m.load_program(&prog);
        let t0 = Instant::now();
        let summary = m.run(100_000_000);
        let wall = t0.elapsed();
        assert_eq!(summary.reason, ExitReason::AllExited(0), "probe must exit");
        (m.fastpath_stats().insns, wall)
    };
    run(); // warm page-ins and lazy statics
    let mut best_mips = 0.0f64;
    for _ in 0..3 {
        let (insns, wall) = run();
        best_mips = best_mips.max(insns as f64 / 1e6 / wall.as_secs_f64());
    }
    best_mips
}

/// Today's UTC date as `YYYY-MM-DD` (no external time crates: civil
/// conversion from days since the Unix epoch).
pub fn today_utc() -> String {
    let secs = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let days = (secs / 86_400) as i64;
    // Howard Hinnant's civil_from_days.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Runs the named scenarios (all of them for an empty list) and bundles
/// the results, the calibration probe, and provenance into a document.
///
/// # Errors
/// Rejects unknown scenario names before running anything.
pub fn run_scenarios(names: &[String], knobs: &BenchKnobs) -> Result<BenchDoc, String> {
    let selected: Vec<&str> = if names.is_empty() {
        scenarios::SCENARIOS.iter().map(|(n, _)| *n).collect()
    } else {
        names.iter().map(|n| n.as_str()).collect()
    };
    let mut runners = Vec::with_capacity(selected.len());
    for name in &selected {
        let (_, f) = scenarios::SCENARIOS
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| {
                format!(
                    "unknown scenario `{name}` (available: {})",
                    scenarios::SCENARIOS
                        .iter()
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
        runners.push(*f);
    }
    let probe_mips = calibration_probe();
    let results = runners.iter().map(|f| f(knobs)).collect();
    Ok(BenchDoc {
        profile: knobs.profile.name().to_string(),
        probe_mips,
        date: today_utc(),
        notes: format!(
            "generated by `elfie bench run` ({} core(s) available)",
            std::thread::available_parallelism().map_or(1, usize::from)
        ),
        scenarios: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_min_takes_per_arm_minimum() {
        let mut a_calls = 0u32;
        let mut b_calls = 0u32;
        let mut a = || {
            a_calls += 1;
            Duration::from_millis(10 + a_calls as u64)
        };
        let mut b = || {
            b_calls += 1;
            Duration::from_millis(30 - b_calls as u64)
        };
        let minima = interleaved_min(4, &mut [&mut a, &mut b]);
        assert_eq!(
            minima,
            vec![Duration::from_millis(11), Duration::from_millis(26)]
        );
        assert_eq!((a_calls, b_calls), (4, 4));
    }

    #[test]
    fn interleaved_min_runs_at_least_once() {
        let mut arm = || Duration::from_millis(5);
        assert_eq!(
            interleaved_min(0, &mut [&mut arm]),
            vec![Duration::from_millis(5)]
        );
    }

    #[test]
    fn calibration_probe_measures_positive_mips() {
        let mips = calibration_probe();
        assert!(mips > 0.0, "probe measured {mips}");
    }

    #[test]
    fn today_is_plausible_iso_date() {
        let d = today_utc();
        assert_eq!(d.len(), 10, "{d}");
        assert!(d.starts_with("20"), "{d}");
        assert_eq!(d.as_bytes()[4], b'-');
        assert_eq!(d.as_bytes()[7], b'-');
    }

    #[test]
    fn unknown_scenario_is_rejected_before_running() {
        let err = run_scenarios(&["warp_drive".to_string()], &BenchKnobs::smoke()).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("vm_fastpath"), "lists available: {err}");
    }

    #[test]
    fn profile_names_roundtrip() {
        for p in [Profile::Smoke, Profile::Full] {
            assert_eq!(Profile::parse(p.name()), Ok(p));
        }
        assert!(Profile::parse("turbo").is_err());
    }
}
