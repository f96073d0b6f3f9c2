//! Seeded randomness, order statistics and the process memory probe.

/// SplitMix64: a tiny, fast, well-mixed generator. The benchmark derives
/// every input from it, so one `--seed` fixes all of them.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) under the run's seed, so
    /// adding a draw in one place does not shift the inputs of another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A tail percentile is reported only when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank `q`-quantile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie above its rank.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    (rank >= 1 && sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Samples needed for [`tail_percentile`] at `q` to be reported.
pub fn min_samples_for(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q)).round() as usize
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match ones computed from the printed values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Steps in one timing of [`clock_ghz`]'s chain (about 0.3 ms at 3 GHz).
const CLOCK_STEPS: u64 = 200_000;
/// Cycles one step takes: an `xor` (1 cycle) feeding a 64-bit multiply
/// (3 cycles), each waiting on the one before, on x86-64 cores.
const CYCLES_PER_STEP: f64 = 4.0;

/// The core clock rate in GHz: a chain of dependent steps of known cycle
/// count over its time, the fastest of five timings so that a preemption
/// during one does not count. Co-tenants on the core barely slow a chain
/// that waits on each step, so the reading follows the clock alone.
pub fn clock_ghz() -> f64 {
    let mut fastest = f64::INFINITY;
    for _ in 0..5 {
        let t0 = std::time::Instant::now();
        let mut x = std::hint::black_box(0x1234_5678_u64);
        for i in 0..CLOCK_STEPS {
            x = (x ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        std::hint::black_box(x);
        fastest = fastest.min(t0.elapsed().as_secs_f64());
    }
    CYCLES_PER_STEP * CLOCK_STEPS as f64 / fastest / 1e9
}

/// Each of `values` replaced by the smallest value of the same kind
/// (`kinds[i]` is the kind of `values[i]`).
pub fn fastest_of_kind(kinds: &[usize], values: &[f64]) -> Vec<f64> {
    assert_eq!(kinds.len(), values.len(), "one kind per value");
    let mut best = std::collections::BTreeMap::new();
    for (&k, &v) in kinds.iter().zip(values) {
        let b = best.entry(k).or_insert(v);
        *b = f64::min(*b, v);
    }
    kinds.iter().map(|k| best[k]).collect()
}

/// `VmHWM` (peak resident set size) in kB from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// This process's peak resident set size in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
        assert_eq!(tail_percentile(&v[..199], 0.95), None);
        assert_eq!(min_samples_for(0.95), 200);
        assert_eq!(min_samples_for(0.99), 1000);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v[..999], 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn each_value_becomes_the_fastest_of_its_kind() {
        let kinds = [0, 1, 0, 2, 1, 0];
        let values = [5.0, 9.0, 3.0, 7.0, 8.0, 4.0];
        assert_eq!(
            fastest_of_kind(&kinds, &values),
            [3.0, 8.0, 3.0, 7.0, 8.0, 3.0]
        );
        assert!(fastest_of_kind(&[], &[]).is_empty());
    }

    #[test]
    fn the_clock_reading_is_a_plausible_core_clock() {
        let ghz = clock_ghz();
        assert!((0.5..8.0).contains(&ghz), "{ghz} GHz");
        assert_eq!(mean(&[2.0, 3.0, 4.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn vm_hwm_parses_the_proc_status_line() {
        let fixture = "Name:\telfie-benchmark\nVmPeak:\t  812344 kB\n\
                       VmHWM:\t   95312 kB\nVmRSS:\t   90120 kB\n";
        assert_eq!(parse_vm_hwm_kb(fixture), Some(95_312));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t twelve kB\n"), None);
        assert!(peak_rss_mb().expect("linux exposes VmHWM") > 0.0);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..18).collect();
            Rng::new(seed, 1).shuffle(&mut v);
            v
        };
        let mut sorted = shuffled(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
    }
}
