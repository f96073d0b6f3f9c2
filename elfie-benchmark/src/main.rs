//! `elfie-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! elfie-benchmark --workload W --seed N --seconds S --trace 0|1 [--trace-dir DIR]
//! elfie-benchmark run [--workload W] [--seed N] [--trace DIR] [--out F]
//! elfie-benchmark compare --base F... --change F...
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON result line last. `run` measures each workload in a child process
//! of its own, so each peak-RSS figure belongs to one workload. `compare`
//! judges two sets of `run --out` documents against the bounds in
//! `BENCHMARK.json`. See README.md for the workloads and metrics.

mod compare;
mod layers;
mod metrics;
mod serve_mixed;
mod simulate_region;
mod stats;
mod store_churn;
mod validate_cold;

use elfie_trace::json::Json;
use elfie_trace::{TraceMode, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 4] = [
    "validate_cold",
    "simulate_region",
    "serve_mixed",
    "store_churn",
];

/// Untraced runs set up this many times and report the median.
const SETUP_REPS: usize = 3;

/// The tail percentile every workload reports.
const TAIL_Q: f64 = 0.95;

/// The core clock, in GHz, that end-to-end timings are scaled to.
///
/// A shared host moves the core clock between turbo steps for minutes at
/// a time (2.7 to 3.1 GHz on the 2-vCPU VM the bounds were set on), and
/// every timing moves with it. So each run reads the clock as it goes and
/// reports each time as it would be at this clock: measured time × mean
/// reading / `REF_CLOCK_GHZ`. That VM reads 3.0 GHz when it is steady.
const REF_CLOCK_GHZ: f64 = 3.0;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Option<Arc<Tracer>>,
    /// A directory inside the checkout for the run's stores.
    pub scratch: PathBuf,
    /// Core clock readings taken through the run, in GHz.
    clock: Mutex<Vec<f64>>,
}

impl Ctx {
    /// Sets up once, runs the measured `phase` on that state and reads the
    /// peak RSS; untraced, then sets up [`SETUP_REPS`] − 1 more times for
    /// the set-up times alone. Returns the phase and every set-up's
    /// duration in seconds, every time scaled to [`REF_CLOCK_GHZ`].
    ///
    /// The extra set-ups come after the reading, so the peak belongs to one
    /// set-up and the phase, as in one use of the system: memory the
    /// allocator keeps from earlier set-ups would otherwise add to it. Each
    /// state is dropped, untimed, before the next set-up starts.
    pub fn measure<S>(
        &self,
        mut setup: impl FnMut(usize) -> Result<S, String>,
        phase: impl FnOnce(&mut S) -> Result<Phase, String>,
    ) -> Result<(Phase, Vec<f64>), String> {
        let reps = if self.tracer.is_some() { 1 } else { SETUP_REPS };
        let mut times = Vec::with_capacity(reps);
        let mut timed = |rep| {
            self.read_clock();
            let t0 = Instant::now();
            let state = setup(rep)?;
            times.push(t0.elapsed().as_secs_f64());
            Ok::<S, String>(state)
        };
        let mut state = timed(0)?;
        let mut measured = phase(&mut state)?;
        drop(state);
        measured.peak_rss_mb = stats::peak_rss_mb()?;
        for rep in 1..reps {
            drop(timed(rep)?);
        }
        self.read_clock();
        measured.clock_ghz = stats::mean(&self.clock.lock().expect("no panics while held"));
        let scale = measured.clock_ghz / REF_CLOCK_GHZ;
        measured.scale_times(scale);
        Ok((measured, times.iter().map(|t| t * scale).collect()))
    }

    pub fn deadline(&self) -> Deadline<'_> {
        Deadline {
            ctx: self,
            start: Instant::now(),
            seconds: self.seconds,
        }
    }

    fn read_clock(&self) {
        let ghz = stats::clock_ghz();
        self.clock.lock().expect("no panics while held").push(ghz);
    }
}

/// When a measured phase stops: at the first round boundary after
/// `seconds`, or later if the tail percentile still lacks samples (up to
/// four times `seconds`). Each check between rounds also reads the clock.
pub struct Deadline<'a> {
    ctx: &'a Ctx,
    start: Instant,
    seconds: f64,
}

impl Deadline<'_> {
    pub fn more(&self, samples: usize) -> bool {
        self.ctx.read_clock();
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed < self.seconds
            || (samples < stats::min_samples_for(TAIL_Q) && elapsed < 4.0 * self.seconds)
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

/// What a workload's measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Wall time of every operation.
    pub latencies_ms: Vec<f64>,
    /// The time the operations ran for (the `ops_per_s` denominator).
    pub busy: Duration,
    pub failed: u64,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// VmHWM after one set-up and the phase (set by [`Ctx::measure`]).
    pub peak_rss_mb: f64,
    /// The mean core clock reading of the run (set by [`Ctx::measure`]).
    pub clock_ghz: f64,
}

impl Phase {
    pub fn record(&mut self, wall: Duration) {
        self.latencies_ms.push(layers::ms(wall));
        self.busy += wall;
    }

    /// Replaces each operation's time by the fastest time of its kind
    /// (`kinds[i]` is operation `i`'s) in this run, and the busy time by
    /// their sum.
    ///
    /// For workloads whose every operation is a fixed computation that
    /// each round repeats. There, how long one kind takes varies only with
    /// the host: on a shared 2-vCPU VM a co-tenant on the core took one
    /// 500k-instruction simulation from 35 to 70 ms, from one call to the
    /// next and for seconds at a time, while the core clock stayed put. The
    /// fastest of a kind's repetitions is what the code costs; percentiles
    /// over operations still weigh the kinds as the mix does.
    pub fn fastest_of_kind(&mut self, kinds: &[usize]) {
        self.latencies_ms = stats::fastest_of_kind(kinds, &self.latencies_ms);
        self.busy = Duration::from_secs_f64(self.latencies_ms.iter().sum::<f64>() / 1e3);
    }

    fn scale_times(&mut self, factor: f64) {
        for ms in &mut self.latencies_ms {
            *ms *= factor;
        }
        self.busy = self.busy.mul_f64(factor);
    }

    /// Counts a failed operation and names it on stderr.
    pub fn fail(&mut self, what: std::fmt::Arguments<'_>) {
        eprintln!("elfie-benchmark: FAILED {what}");
        self.failed += 1;
    }
}

struct Opts {
    values: BTreeMap<String, Vec<String>>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut key = None;
        for arg in args {
            if let Some(k) = arg.strip_prefix("--") {
                values.entry(k.to_string()).or_default();
                key = Some(k.to_string());
            } else {
                let k = key
                    .as_ref()
                    .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
                values.get_mut(k).expect("key inserted").push(arg.clone());
            }
        }
        Ok(Opts { values })
    }

    fn one(&self, key: &str) -> Result<Option<&str>, String> {
        match self.values.get(key).map(Vec::as_slice) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("--{key} takes exactly one value")),
        }
    }

    fn many(&self, key: &str) -> &[String] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        self.one(key)?.map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{key}: `{v}` is not a number"))
        })
    }

    fn check(&self, allowed: &[&str]) -> Result<(), String> {
        match self.values.keys().find(|k| !allowed.contains(&k.as_str())) {
            Some(k) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => measure(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("elfie-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Measures one workload in this process and prints the result line.
fn measure(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args)?;
    opts.check(&["workload", "seed", "seconds", "trace", "trace-dir"])?;
    let workload = opts.one("workload")?.ok_or("--workload is required")?;
    let traced = match opts.one("trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
    };
    let seconds: f64 = opts.num("seconds", metrics::spec()?.run_seconds as f64)?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let scratch = PathBuf::from(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
    let ctx = Ctx {
        seed: opts.num("seed", 1)?,
        seconds,
        tracer: traced.then(|| Arc::new(Tracer::with_capacity(TraceMode::Full, 1 << 16))),
        scratch: scratch.clone(),
        clock: Mutex::new(Vec::new()),
    };
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let outcome = match workload {
        "validate_cold" => validate_cold::run(&ctx),
        "simulate_region" => simulate_region::run(&ctx),
        "serve_mixed" => serve_mixed::run(&ctx),
        "store_churn" => store_churn::run(&ctx),
        other => Err(format!(
            "unknown workload `{other}` ({})",
            WORKLOADS.join("|")
        )),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp"); // only when no other run uses it
    let (phase, setup_s) = outcome?;

    let attempted = phase.latencies_ms.len() as u64;
    if attempted == 0 {
        return Err("the measured phase ran no operations".into());
    }
    let lat = stats::sorted(&phase.latencies_ms);
    let tail = stats::tail_percentile(&lat, TAIL_Q);
    eprintln!(
        "elfie-benchmark: {workload} seed {}: {attempted} ops, {} failed, clock {:.3} GHz",
        ctx.seed, phase.failed, phase.clock_ghz
    );
    if tail.is_none() {
        eprintln!(
            "elfie-benchmark: FAILED {attempted} ops are too few for p95 (need 10 beyond it)"
        );
    }
    let correct = phase.failed == 0 && tail.is_some();
    let line = if let Some(tracer) = &ctx.tracer {
        if let Some(dir) = opts.one("trace-dir")? {
            write_trace(tracer, &PathBuf::from(dir).join(format!("{workload}.json")))?;
        }
        metrics::result_line(
            correct,
            attempted,
            phase.failed,
            metrics::PER_LAYER,
            &phase.layers,
        )?
    } else {
        let values = BTreeMap::from([
            ("setup_s", stats::median(&setup_s)),
            ("ops_per_s", attempted as f64 / phase.busy.as_secs_f64()),
            ("p50_ms", stats::percentile(&lat, 0.5)),
            ("p95_ms", tail.unwrap_or(lat[lat.len() - 1])),
            ("peak_rss_mb", phase.peak_rss_mb),
        ]);
        metrics::result_line(
            correct,
            attempted,
            phase.failed,
            metrics::END_TO_END,
            &values,
        )?
    };
    println!("{line}");
    Ok(())
}

fn write_trace(tracer: &Tracer, path: &std::path::Path) -> Result<(), String> {
    let doc = elfie_trace::chrome_trace(&tracer.collect());
    elfie_trace::check_chrome_trace(&doc).map_err(|e| format!("trace: {e}"))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.render()).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Measures each workload in a child process and prints one
/// `workload metric value unit` line per metric.
fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args)?;
    opts.check(&["workload", "seed", "trace", "out"])?;
    let spec = metrics::spec()?;
    let workloads: Vec<String> = match opts.one("workload")? {
        Some(w) => vec![w.to_string()],
        None => spec.workloads.clone(),
    };
    let seed: u64 = opts.num("seed", 1)?;
    let seconds = spec.run_seconds;
    let trace_dir = opts.one("trace")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for w in &workloads {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace_dir.is_some() { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit());
        if let Some(dir) = trace_dir {
            cmd.args(["--trace-dir", dir]);
        }
        let out = cmd
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        if !out.status.success() {
            return Err(format!("workload {w} exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout
            .lines()
            .last()
            .ok_or_else(|| format!("workload {w} printed nothing"))?;
        let doc = Json::parse(last).map_err(|e| format!("workload {w}: {e}"))?;
        for (name, m) in doc
            .field("metrics")?
            .as_obj()
            .ok_or("`metrics` is not an object")?
        {
            let value = m
                .field("value")?
                .as_f64()
                .ok_or("metric value is not a number")?;
            let unit = m.field("unit")?.as_str().unwrap_or("");
            println!("{w} {name} {value} {unit}");
        }
        let mut fields = vec![
            ("workload".to_string(), Json::Str(w.clone())),
            ("trace".to_string(), Json::Bool(trace_dir.is_some())),
        ];
        fields.extend(
            doc.as_obj()
                .ok_or("result is not an object")?
                .iter()
                .cloned(),
        );
        results.push(Json::Obj(fields));
    }
    if let Some(path) = opts.one("out")? {
        let doc = Json::Obj(vec![
            ("seed".to_string(), Json::U64(seed)),
            ("seconds".to_string(), Json::U64(seconds)),
            ("results".to_string(), Json::Arr(results)),
        ]);
        std::fs::write(path, doc.render_pretty() + "\n")
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(())
}
