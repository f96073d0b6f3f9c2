//! # elfie-cli
//!
//! The command-line face of the tool-chain, mirroring how the paper's
//! tools are driven:
//!
//! ```text
//! elfie workloads                                  # list benchmarks
//! elfie record gcc_like --start 50000 --length 20000 --out pb/
//! elfie sysstate pb/ gcc_like --out sysstate/
//! elfie pinball2elf pb/ gcc_like --out gcc.elfie --roi ssc:1
//! elfie run gcc.elfie --sysstate sysstate/
//! elfie replay pb/ gcc_like [--injection 0]
//! elfie simpoint gcc_like --slice 50000 --maxk 20
//! elfie simulate gcc.elfie --sim gem5-haswell
//! elfie disasm gcc.elfie
//! ```
//!
//! Argument parsing is hand-rolled (no extra dependencies); every command
//! is a library function returning its report as a `String`, so the whole
//! surface is unit-testable without spawning processes.

use elfie::prelude::*;
use elfie::trace::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A CLI failure: message for stderr, non-zero exit.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Simple option scanner: `--name value` pairs plus positionals.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `--opt value` becomes an option unless the
    /// name is in `flag_names` (then it is a bare flag).
    pub fn parse(raw: &[String], flag_names: &[&str]) -> Args {
        let mut a = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if flag_names.contains(&name) {
                    a.flags.push(name.to_string());
                } else if let Some(v) = it.next() {
                    a.options.push((name.to_string(), v.clone()));
                } else {
                    a.flags.push(name.to_string());
                }
            } else {
                a.positional.push(tok.clone());
            }
        }
        a
    }

    fn pos(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| err(format!("missing <{what}> argument")))
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn opt_u64(&self, name: &str, default: u64) -> Result<u64, CliError> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name} expects an integer"))),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Every value of a repeatable option, with comma-lists split
    /// (`--scenario a --scenario b,c` → `[a, b, c]`).
    fn opt_all(&self, name: &str) -> Vec<String> {
        self.options
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, v)| v.split(','))
            .filter(|s| !s.is_empty())
            .map(|s| s.to_string())
            .collect()
    }
}

/// The shared `--trace FILE [--trace-mode off|sampled[:N]|full]`
/// `--stats-json FILE` surface of `validate` and `simulate`.
struct TraceOpts {
    trace_out: Option<PathBuf>,
    stats_json_out: Option<PathBuf>,
    tracer: Option<Arc<Tracer>>,
}

fn parse_trace_opts(args: &Args) -> Result<TraceOpts, CliError> {
    let trace_out = args.opt("trace").map(PathBuf::from);
    let tracer = match &trace_out {
        None => None,
        Some(_) => {
            let mode = match args.opt("trace-mode") {
                None => TraceMode::Full,
                Some(text) => TraceMode::parse(text).map_err(err)?,
            };
            Some(Arc::new(Tracer::new(mode)))
        }
    };
    Ok(TraceOpts {
        trace_out,
        stats_json_out: args.opt("stats-json").map(PathBuf::from),
        tracer,
    })
}

fn write_json_file(path: &Path, doc: &Json) -> Result<(), CliError> {
    let mut text = doc.render_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| err(format!("write {}: {e}", path.display())))
}

impl TraceOpts {
    /// Writes the Chrome timeline (`--trace`) and the stats document
    /// (`--stats-json`), appending a one-line note per file to `report`.
    fn finish(&self, report: &mut String, stats_doc: &Json) -> Result<(), CliError> {
        if self.trace_out.is_none() && self.stats_json_out.is_none() {
            return Ok(());
        }
        if !report.ends_with('\n') {
            report.push('\n');
        }
        if let Some(path) = &self.trace_out {
            let tracer = self
                .tracer
                .as_ref()
                .expect("tracer exists when --trace is set");
            let data = tracer.collect();
            write_json_file(path, &elfie::trace::chrome_trace(&data))?;
            let _ = writeln!(
                report,
                "trace: {} event(s), {} dropped -> {}",
                data.event_count(),
                data.dropped,
                path.display()
            );
        }
        if let Some(path) = &self.stats_json_out {
            write_json_file(path, stats_doc)?;
            let _ = writeln!(report, "stats-json -> {}", path.display());
        }
        Ok(())
    }
}

fn find_workload(name: &str, scale: InputScale) -> Result<Workload, CliError> {
    elfie::workloads::find_workload(name, scale)
        .ok_or_else(|| err(format!("unknown workload `{name}` (try `elfie workloads`)")))
}

fn parse_scale(s: Option<&str>) -> Result<InputScale, CliError> {
    InputScale::parse(s.unwrap_or("train")).map_err(err)
}

/// `elfie workloads` — lists the benchmark suite.
pub fn cmd_workloads() -> String {
    let mut out = String::from("single-threaded int:\n");
    for w in suite_int(InputScale::Test) {
        let _ = writeln!(out, "  {}", w.name);
    }
    out.push_str("single-threaded fp:\n");
    for w in suite_fp(InputScale::Test) {
        let _ = writeln!(out, "  {}", w.name);
    }
    out.push_str("multi-threaded speed (4 threads by default):\n");
    for w in suite_speed_mt(InputScale::Test, 4) {
        let _ = writeln!(out, "  {}", w.name);
    }
    out
}

/// `elfie record <workload> --start N --length N --out DIR [--scale S] [--regular]`
pub fn cmd_record(args: &Args) -> Result<String, CliError> {
    let name = args.pos(0, "workload")?;
    let scale = parse_scale(args.opt("scale"))?;
    let w = find_workload(name, scale)?;
    let start = args.opt_u64("start", 0)?;
    let length = args.opt_u64("length", 100_000)?;
    let out = PathBuf::from(args.opt("out").unwrap_or("."));
    let trigger = if start == 0 {
        RegionTrigger::ProgramStart
    } else {
        RegionTrigger::GlobalIcount(start)
    };
    let cfg = if args.flag("regular") {
        LoggerConfig::regular(&w.name, trigger, length)
    } else {
        LoggerConfig::fat(&w.name, trigger, length)
    };
    let pb = Logger::new(cfg)
        .capture(&w.program, |m| w.setup(m))
        .map_err(|e| err(format!("capture failed: {e}")))?;
    pb.save_dir(&out)
        .map_err(|e| err(format!("save failed: {e}")))?;
    let mut report = format!(
        "captured {} ({} pages, {} thread(s), {} instructions) -> {}",
        pb.region.name,
        pb.image.page_count(),
        pb.threads.len(),
        pb.region.length,
        out.display()
    );
    if let Some(dir) = args.opt("store") {
        let store = open_store(Some(dir))?;
        store
            .put_pinball(&pb.region.name, &pb)
            .map_err(|e| err(format!("store put: {e}")))?;
        let _ = write!(report, "\nstored as `{}` in {dir}", pb.region.name);
    }
    Ok(report)
}

fn load_pinball(dir: &str, name: &str) -> Result<Pinball, CliError> {
    Pinball::load_dir(Path::new(dir), name).map_err(|e| err(format!("load pinball: {e}")))
}

/// `elfie sysstate <pinball-dir> <name> --out DIR`
pub fn cmd_sysstate(args: &Args) -> Result<String, CliError> {
    let pb = load_pinball(args.pos(0, "pinball-dir")?, args.pos(1, "name")?)?;
    let st = SysState::extract(&pb);
    let out = PathBuf::from(args.opt("out").unwrap_or("sysstate"));
    st.save_dir(&out)
        .map_err(|e| err(format!("save failed: {e}")))?;
    Ok(format!(
        "sysstate: {} named proxies, {} FD_n proxies, brk first={:?} last={:?} -> {}",
        st.files.len(),
        st.fd_files.len(),
        st.brk_first,
        st.brk_last,
        out.display()
    ))
}

/// `elfie pinball2elf <pinball-dir> <name> --out FILE [--roi kind:tag]
/// [--no-graceful] [--no-callbacks] [--monitor] [--object] [--force]
/// [--sysstate DIR] [--stack-only]`
pub fn cmd_pinball2elf(args: &Args) -> Result<String, CliError> {
    let pb = load_pinball(args.pos(0, "pinball-dir")?, args.pos(1, "name")?)?;
    let out = PathBuf::from(args.opt("out").unwrap_or("a.elfie"));
    let mut opts = ConvertOptions {
        graceful_exit: !args.flag("no-graceful"),
        callbacks: !args.flag("no-callbacks"),
        monitor_thread: args.flag("monitor"),
        object_only: args.flag("object"),
        force_regular: args.flag("force"),
        ..ConvertOptions::default()
    };
    if args.flag("stack-only") {
        opts.remap = RemapMode::StackOnly;
    }
    if let Some(spec) = args.opt("roi") {
        let (kind, tag) = spec
            .split_once(':')
            .ok_or_else(|| err("--roi expects TYPE:TAG (e.g. ssc:1)"))?;
        let kind = MarkerKind::parse(kind)
            .ok_or_else(|| err(format!("unknown marker type `{kind}` (sniper|ssc|simics)")))?;
        let tag: u32 = tag
            .parse()
            .map_err(|_| err("--roi tag must be an integer"))?;
        opts.roi_marker = Some((kind, tag));
    }
    if let Some(dir) = args.opt("sysstate") {
        let st =
            SysState::load_dir(Path::new(dir)).map_err(|e| err(format!("load sysstate: {e}")))?;
        opts.sysstate = Some(st);
    }
    let elfie = convert(&pb, &opts).map_err(|e| err(format!("conversion failed: {e}")))?;
    std::fs::write(&out, &elfie.bytes).map_err(|e| err(format!("write failed: {e}")))?;
    if let Some(ld) = args.opt("linker-script") {
        std::fs::write(ld, &elfie.linker_script).map_err(|e| err(e.to_string()))?;
    }
    if let Some(asm) = args.opt("startup-asm") {
        std::fs::write(asm, &elfie.startup_asm).map_err(|e| err(e.to_string()))?;
    }
    Ok(format!(
        "wrote {} ({} bytes, {} threads, {} sections remapped, startup {} bytes)",
        out.display(),
        elfie.stats.elf_bytes,
        elfie.stats.threads,
        elfie.stats.remapped_runs,
        elfie.stats.startup_bytes
    ))
}

/// `elfie pinball2pe <pinball-dir> <name> --out FILE`
pub fn cmd_pinball2pe(args: &Args) -> Result<String, CliError> {
    let pb = load_pinball(args.pos(0, "pinball-dir")?, args.pos(1, "name")?)?;
    let out = PathBuf::from(args.opt("out").unwrap_or("a.pe"));
    let bytes = elfie::pinball2elf::pe::convert_pe(&pb).map_err(err)?;
    std::fs::write(&out, &bytes).map_err(|e| err(format!("write failed: {e}")))?;
    Ok(format!(
        "wrote {} ({} bytes, PE32+ container)",
        out.display(),
        bytes.len()
    ))
}

/// `elfie run <elfie-file> [--sysstate DIR] [--seed N] [--fuel N]`
pub fn cmd_run(args: &Args) -> Result<String, CliError> {
    let path = args.pos(0, "elfie-file")?;
    let bytes = std::fs::read(path).map_err(|e| err(format!("read {path}: {e}")))?;
    let seed = args.opt_u64("seed", 42)?;
    let fuel = args.opt_u64("fuel", 2_000_000_000)?;
    let mut m = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    if let Some(dir) = args.opt("sysstate") {
        let st =
            SysState::load_dir(Path::new(dir)).map_err(|e| err(format!("load sysstate: {e}")))?;
        st.stage_files(&mut m);
    }
    elfie::elf::load(
        &mut m,
        &bytes,
        &elfie::elf::LoaderConfig {
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| err(format!("load failed: {e}")))?;
    let s = m.run(fuel);
    let mut out = format!("exit: {:?}\n", s.reason);
    for t in &m.threads {
        let _ = writeln!(
            out,
            "thread {}: {} instructions, {} cycles, CPI {:.3}",
            t.tid,
            t.icount,
            t.cycles,
            t.cycles as f64 / t.icount.max(1) as f64
        );
    }
    if !m.kernel.stdout.is_empty() {
        let _ = writeln!(out, "stdout: {}", String::from_utf8_lossy(&m.kernel.stdout));
    }
    Ok(out)
}

/// `elfie replay <pinball-dir> <name> [--injection 0|1]`
pub fn cmd_replay(args: &Args) -> Result<String, CliError> {
    let pb = load_pinball(args.pos(0, "pinball-dir")?, args.pos(1, "name")?)?;
    let injection = args.opt_u64("injection", 1)? != 0;
    let cfg = if injection {
        ReplayConfig::default()
    } else {
        ReplayConfig::injectionless()
    };
    let s = Replayer::new(cfg).replay(&pb, |_| {});
    let mut out = format!(
        "replay {}: completed={} injected={} lazy_pages={} instructions={}\n",
        pb.region.name, s.completed, s.injected_syscalls, s.lazy_pages_injected, s.global_icount
    );
    if let Some(d) = &s.divergence {
        let _ = writeln!(out, "divergence: {d}");
    }
    for (tid, n) in &s.per_thread {
        let _ = writeln!(out, "thread {tid}: {n} instructions");
    }
    Ok(out)
}

/// `elfie simpoint <workload> [--scale S] [--slice N] [--warmup N] [--maxk N]`
pub fn cmd_simpoint(args: &Args) -> Result<String, CliError> {
    let name = args.pos(0, "workload")?;
    let scale = parse_scale(args.opt("scale"))?;
    let w = find_workload(name, scale)?;
    let cfg = PinPointsConfig {
        slice_size: args.opt_u64("slice", 100_000)?,
        warmup: args.opt_u64("warmup", 200_000)?,
        max_k: args.opt_u64("maxk", 50)? as usize,
        ..PinPointsConfig::default()
    };
    let points = elfie::pipeline::select_regions(&w, &cfg, 10_000_000_000);
    let mut out = format!(
        "{}: {} instructions, {} slices, {} phases\n",
        w.name, points.total_insns, points.slices, points.k
    );
    for p in &points.points {
        let _ = writeln!(
            out,
            "cluster {} rank {}: slice {} (start {}, length {}, warmup {}) weight {:.4}",
            p.cluster, p.rank, p.slice_index, p.start_icount, p.length, p.warmup, p.weight
        );
    }
    Ok(out)
}

/// `elfie validate <workload> [--scale S] [--slice N] [--warmup N]
/// [--maxk N] [--seed N] [--fuel N] [--workers N] [--serial] [--stats]
/// [--store DIR] [--trace FILE] [--trace-mode M] [--stats-json FILE]`
///
/// Runs the full ELFie-based validation flow (select → capture → convert
/// → measure → compare against the whole-program run) on the parallel
/// batch engine. `--workers 0` (default) uses every available core,
/// `--serial` pins one worker; both produce the identical report.
/// `--store DIR` backs the artifact cache with a persistent store so a
/// repeated run warm-starts (visible as store hits under `--stats`).
/// `--trace FILE` writes a Chrome/Perfetto timeline of the whole run
/// (per-worker task spans, cache/store counter tracks); `--stats-json
/// FILE` writes the same numbers `--stats` prints as a versioned JSON
/// document (`elfie trace summarize` turns it back into the text form).
pub fn cmd_validate(args: &Args) -> Result<String, CliError> {
    let name = args.pos(0, "workload")?;
    let scale = parse_scale(args.opt("scale"))?;
    let w = find_workload(name, scale)?;
    let cfg = PinPointsConfig {
        slice_size: args.opt_u64("slice", 100_000)?,
        warmup: args.opt_u64("warmup", 200_000)?,
        max_k: args.opt_u64("maxk", 10)? as usize,
        ..PinPointsConfig::default()
    };
    let seed = args.opt_u64("seed", 42)?;
    let fuel = args.opt_u64("fuel", 2_000_000_000)?;
    let workers = if args.flag("serial") {
        1
    } else {
        args.opt_u64("workers", 0)? as usize
    };
    let topts = parse_trace_opts(args)?;
    let mut engine = BatchValidator::new().with_workers(workers);
    if let Some(dir) = args.opt("store") {
        // The store must get the tracer before the cache takes ownership
        // of it, so lazy fetches and puts land on the timeline too.
        let mut store = Store::open(dir).map_err(|e| err(format!("open store: {e}")))?;
        if let Some(tracer) = &topts.tracer {
            store = store.with_tracer(Arc::clone(tracer));
        }
        engine = engine.with_cache(Arc::new(PipelineCache::new().with_store(store)));
    }
    if let Some(tracer) = &topts.tracer {
        engine = engine.with_tracer(Arc::clone(tracer));
    }
    let (report, stats) = engine
        .validate(&w, &cfg, seed, fuel)
        .map_err(|e| err(format!("validation failed: {e}")))?;

    // The report body is the shared canonical rendering: a serve daemon
    // returns these exact bytes for a validate job.
    let mut out = elfie::render::validation_report(&w.name, &report);
    if args.flag("stats") {
        let _ = writeln!(out, "{stats}");
    }
    topts.finish(&mut out, &elfie::render::stats_to_json(&stats))?;
    Ok(out)
}

/// The headline block every simulation report starts with.
fn render_sim_outcome(sim: &Simulator, out: &elfie::sim::SimOutcome) -> String {
    format!(
        "sim {}: exit {:?}\nuser insns {}  kernel insns {}  cycles {}  IPC {:.3}  runtime {} ns\n\
         L1D miss {}  L2 miss {}  L3 miss {}  dTLB miss {}  mispredicts {}  footprint {} lines\n{}",
        sim.params.name,
        out.exit,
        out.stats.user_insns,
        out.stats.kernel_insns,
        out.cycles,
        out.ipc,
        out.runtime_ns,
        out.stats.l1d_misses,
        out.stats.l2_misses,
        out.stats.l3_misses,
        out.stats.dtlb_misses,
        out.stats.mispredicts,
        out.stats.footprint_lines,
        elfie::render::vm_lines(&out.fastpath),
    )
}

/// The pinball branch of `elfie simulate`: constrained replay, serial by
/// default, sharded over interval snapshots when `--shards` or
/// `--snapshot-interval` asks for it. `--snapshot-store DIR` persists the
/// interval chain as parent-linked snapshot objects.
fn simulate_pinball_report(args: &Args, pb: &Pinball, sim: &Simulator) -> Result<String, CliError> {
    let shards = args.opt_u64("shards", 1)?.max(1) as usize;
    let interval = args.opt_u64("snapshot-interval", 0)?;
    let snapshot_store = args.opt("snapshot-store");
    if shards <= 1 && interval == 0 && snapshot_store.is_none() {
        let out = elfie::sim::simulate_pinball(pb, sim);
        let mut report = render_sim_outcome(sim, &out);
        report.push('\n');
        let _ = writeln!(report, "replay: {} (serial)", pb.region.name);
        return Ok(report);
    }
    let cfg = elfie::sim::ShardConfig {
        shards,
        interval: if interval == 0 {
            elfie::sim::ShardConfig::default().interval
        } else {
            interval
        },
    };
    let out = elfie::sim::simulate_pinball_sharded(pb, sim, &cfg);
    let mut report = render_sim_outcome(sim, &out.outcome);
    report.push('\n');
    let _ = writeln!(
        report,
        "sharded: {} worker(s), {} slice(s), {} snapshot(s) ({} KB), interval {}",
        out.workers,
        out.slices.len(),
        out.snapshots.len(),
        out.snapshot_bytes / 1024,
        cfg.interval,
    );
    let _ = writeln!(
        report,
        "wall: profile {} ms  simulate {} ms  stitch {} us  bbv slices {}",
        out.profile_wall_ns / 1_000_000,
        out.simulate_wall_ns / 1_000_000,
        out.stitch_wall_ns / 1_000,
        out.bbv.slice_count(),
    );
    if !out.summary.completed {
        let _ = writeln!(report, "divergence: {:?}", out.summary.divergence);
    }
    if let Some(dir) = snapshot_store {
        let store = open_store(Some(dir))?;
        let mut parent = None;
        for (k, s) in out.snapshots.iter().enumerate() {
            let name = format!("snap.{}.{}", pb.region.name, k + 1);
            parent = Some(
                store
                    .put_snapshot(&name, s, parent)
                    .map_err(|e| err(format!("store snapshot: {e}")))?,
            );
        }
        let _ = writeln!(
            report,
            "stored {} snapshot(s) as `snap.{}.*` in {dir}",
            out.snapshots.len(),
            pb.region.name
        );
    }
    Ok(report)
}

/// `elfie simulate <elfie-file | pinball-dir name | pinball-bundle>
/// [--sim NAME] [--sysstate DIR] [--shards N] [--snapshot-interval N]
/// [--snapshot-store DIR] [--trace FILE] [--trace-mode M]
/// [--stats-json FILE]`
///
/// ELFie images go through the unconstrained program path. Pinball input
/// — a pinball directory plus name, or a single `PBAL` bundle file — is
/// simulated via constrained replay, where `--shards`/`--snapshot-interval`
/// switch on sharded intra-region simulation (see `elfie-sim::shard`).
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let path = args.pos(0, "elfie-file")?;
    let topts = parse_trace_opts(args)?;
    let mut sim = match args.opt("sim").unwrap_or("coresim") {
        "sniper" => Simulator::sniper(),
        "coresim" => Simulator::coresim_sde(),
        "coresim-fs" => Simulator::coresim_simics(),
        "gem5-nehalem" => Simulator::gem5_se(elfie::sim::CoreParams::nehalem_like()),
        "gem5-haswell" => Simulator::gem5_se(elfie::sim::CoreParams::haswell_like()),
        other => {
            return Err(err(format!(
                "unknown simulator `{other}` (sniper|coresim|coresim-fs|gem5-nehalem|gem5-haswell)"
            )))
        }
    };
    if let Some(tracer) = &topts.tracer {
        sim = sim.with_tracer(Arc::clone(tracer));
    }

    // Pinball input: a directory (with the pinball name as the second
    // positional, like `replay`) or a serialized `PBAL` bundle file.
    let pinball = if Path::new(path).is_dir() {
        Some(load_pinball(path, args.pos(1, "pinball name")?)?)
    } else {
        let bytes = std::fs::read(path).map_err(|e| err(format!("read {path}: {e}")))?;
        if bytes.starts_with(b"PBAL") {
            Some(Pinball::from_bytes(&bytes).map_err(|e| err(format!("load pinball: {e}")))?)
        } else {
            let sysstate = match args.opt("sysstate") {
                Some(dir) => Some(
                    SysState::load_dir(Path::new(dir))
                        .map_err(|e| err(format!("load sysstate: {e}")))?,
                ),
                None => None,
            };
            let out = simulate_elfie(&bytes, &sim, vec![], |m| {
                if let Some(st) = &sysstate {
                    st.stage_files(m);
                }
            })
            .map_err(|e| err(format!("load failed: {e}")))?;
            let mut report = render_sim_outcome(&sim, &out);
            topts.finish(
                &mut report,
                &elfie::render::sim_stats_to_json(&out.fastpath),
            )?;
            return Ok(report);
        }
    };

    let pb = pinball.expect("pinball branch");
    // A raw pinball carries no ROI markers — the captured region *is* the
    // region of interest, so marker-armed simulators would model nothing.
    sim.roi = elfie::sim::RoiMode::Always;
    let mut report = simulate_pinball_report(args, &pb, &sim)?;
    topts.finish(&mut report, &Json::Null)?;
    Ok(report)
}

/// `elfie snapshot <ls|rm> [...] [--store DIR]`
///
/// Inspects the interval-snapshot chains `simulate --snapshot-store`
/// persists. `ls` lists every snapshot object with its position in the
/// region, delta size, and parent link — without materialising any delta
/// pages. `rm` drops a snapshot ref (and refuses non-snapshot objects, so
/// it cannot silently take a pinball down); blobs and parent manifests are
/// reclaimed by `store gc` only once nothing downstream chains to them.
pub fn cmd_snapshot(args: &Args) -> Result<String, CliError> {
    let store = open_store(args.opt("store"))?;
    match args.pos(0, "snapshot subcommand")? {
        "ls" => {
            let entries = store.list().map_err(|e| err(format!("snapshot ls: {e}")))?;
            let mut out = String::new();
            let mut n = 0usize;
            for e in &entries {
                if e.kind != elfie::store::ObjectKind::Snapshot {
                    continue;
                }
                let (meta, parent, delta_pages) = store
                    .snapshot_info(&e.name)
                    .map_err(|e2| err(format!("snapshot ls `{}`: {e2}", e.name)))?;
                let _ = writeln!(
                    out,
                    "{} slice {:>3} @ {:>10} insns  {:>4} delta page(s)  parent {:<16}  {}",
                    e.id,
                    meta.slice_index,
                    meta.global_icount,
                    delta_pages,
                    parent.map(|p| p.to_string()).unwrap_or_else(|| "-".into()),
                    e.name
                );
                n += 1;
            }
            let _ = write!(out, "{n} snapshot(s)");
            Ok(out)
        }
        "rm" => {
            let name = args.pos(1, "name")?;
            // Type-check first: `snapshot rm` must only ever drop
            // snapshot refs.
            store
                .snapshot_info(name)
                .map_err(|e| err(format!("snapshot rm: {e}")))?;
            store
                .remove(name)
                .map_err(|e| err(format!("snapshot rm: {e}")))?;
            Ok(format!(
                "removed snapshot `{name}` (run `elfie store gc` to reclaim)"
            ))
        }
        other => Err(err(format!(
            "unknown snapshot subcommand `{other}` (ls|rm)"
        ))),
    }
}

/// The `trace summarize --request ID <file>...` branch: merges the
/// spans tagged `request_id == ID` from every given Chrome trace (one
/// file per process end — e.g. a client trace plus the daemon's) into a
/// single time-ordered causal chain.
fn summarize_request(args: &Args, rid_text: &str) -> Result<String, CliError> {
    let rid: u64 = rid_text
        .parse()
        .map_err(|_| err("--request expects the integer id a client printed"))?;
    let files = &args.positional[1..];
    if files.is_empty() {
        return Err(err("missing <file> argument"));
    }
    let mut spans = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| err(format!("read {path}: {e}")))?;
        let doc = Json::parse(&text).map_err(|e| err(format!("parse {path}: {e}")))?;
        if doc.get("traceEvents").is_none() {
            return Err(err(format!("{path}: --request needs a chrome trace file")));
        }
        spans.extend(elfie::trace::request_chain(&doc, rid).map_err(err)?);
    }
    if spans.is_empty() {
        return Err(err(format!(
            "no spans tagged with request id {rid} in {} file(s)",
            files.len()
        )));
    }
    spans.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });
    let base = spans[0].ts_us;
    let mut out = format!(
        "request {rid}: {} span(s) across {} file(s)\n",
        spans.len(),
        files.len()
    );
    for s in &spans {
        let _ = writeln!(
            out,
            "  +{:>10.3}us {:>12.3}us  {:<14} {} [{}]",
            s.ts_us - base,
            s.dur_us,
            s.thread,
            s.name,
            s.cat
        );
    }
    Ok(out)
}

/// `elfie trace <summarize|check> <file>` — inspects a `--trace` timeline
/// or a `--stats-json` document without loading it into a browser.
///
/// `summarize` rolls a Chrome timeline up into per-thread, per-span
/// aggregates (including ring occupancy and dropped-event warnings),
/// and renders a stats document back into the exact text the producing
/// command prints under `--stats`. `summarize --request ID <file>...`
/// instead filters one or more Chrome traces down to the causal chain
/// of a single correlated request. `check` validates structure (schema
/// header, field presence, event shape) and says what it found.
pub fn cmd_trace(args: &Args) -> Result<String, CliError> {
    let sub = args.pos(0, "trace subcommand")?;
    if sub == "summarize" {
        if let Some(rid_text) = args.opt("request") {
            return summarize_request(args, rid_text);
        }
    }
    let path = args.pos(1, "file")?;
    let text = std::fs::read_to_string(path).map_err(|e| err(format!("read {path}: {e}")))?;
    let doc = Json::parse(&text).map_err(|e| err(format!("parse {path}: {e}")))?;
    let is_chrome = doc.get("traceEvents").is_some();
    match sub {
        "summarize" => {
            if is_chrome {
                let summary = TraceSummary::from_chrome_json(&doc).map_err(err)?;
                Ok(summary.to_string())
            } else {
                elfie::render::summarize_stats_document(&doc).map_err(err)
            }
        }
        "check" => {
            if is_chrome {
                let n = elfie::trace::check_chrome_trace(&doc).map_err(err)?;
                Ok(format!("ok: chrome trace, {n} event(s)"))
            } else {
                let schema = elfie::render::check_schema(&doc).map_err(err)?.to_string();
                // A schema header alone is not enough: make sure every
                // counter field is present and well-typed.
                elfie::render::summarize_stats_document(&doc).map_err(err)?;
                Ok(format!("ok: {schema} v{}", elfie::render::STATS_VERSION))
            }
        }
        other => Err(err(format!(
            "unknown trace subcommand `{other}` (summarize|check)"
        ))),
    }
}

/// `elfie disasm <elfie-file> [--section NAME]`
pub fn cmd_disasm(args: &Args) -> Result<String, CliError> {
    let path = args.pos(0, "elfie-file")?;
    let bytes = std::fs::read(path).map_err(|e| err(format!("read {path}: {e}")))?;
    let file = elfie::elf::ElfFile::parse(&bytes).map_err(|e| err(format!("parse: {e}")))?;
    let name = args.opt("section").unwrap_or(".text.startup");
    let sec = file
        .section(name)
        .ok_or_else(|| err(format!("no section `{name}`")))?;
    Ok(format!(
        "{name} at {:#x} ({} bytes):\n{}",
        sec.addr,
        sec.data.len(),
        elfie::isa::listing(&sec.data, sec.addr)
    ))
}

/// `elfie bench <list|run|check>` — the perf-regression harness.
///
/// * `bench list` names every measured scenario.
/// * `bench run [--scenario A[,B]] [--profile smoke|full] [--runs N]
///   [--out FILE]` measures the selected scenarios (all by default) and
///   writes/prints an `elfie-bench` v1 document.
/// * `bench check --baseline FILE [--update-baseline] [--runs N]
///   [--out FILE]` re-measures exactly the scenarios recorded in the
///   baseline and gates on noise-aware per-metric tolerance bands; a
///   calibration probe in both documents normalises machine speed. A
///   failed gate is a `CliError` (non-zero exit) unless
///   `--update-baseline` is given, which instead rewrites the baseline
///   file with the fresh measurements — the one legitimate way to move
///   a perf baseline, and an explicit diff in review.
pub fn cmd_bench(args: &Args) -> Result<String, CliError> {
    use elfie_bench::harness::{self, compare, doc::BenchDoc, BenchKnobs, Profile};

    let knobs = |args: &Args, default_profile: Profile| -> Result<BenchKnobs, CliError> {
        let profile = match args.opt("profile") {
            None => default_profile,
            Some(text) => Profile::parse(text).map_err(err)?,
        };
        let base = match profile {
            Profile::Smoke => BenchKnobs::smoke(),
            Profile::Full => BenchKnobs::full(),
        };
        Ok(BenchKnobs {
            runs: args.opt_u64("runs", base.runs as u64)? as usize,
            ..base
        })
    };

    match args.pos(0, "bench subcommand")? {
        "list" => {
            let mut out = String::from("measured scenarios (elfie bench run --scenario NAME):\n");
            for (name, _) in harness::scenarios::SCENARIOS {
                let _ = writeln!(out, "  {name}");
            }
            Ok(out)
        }
        "run" => {
            let knobs = knobs(args, Profile::Smoke)?;
            let doc = harness::run_scenarios(&args.opt_all("scenario"), &knobs).map_err(err)?;
            let mut out = doc.render_text();
            if let Some(path) = args.opt("out") {
                write_json_file(Path::new(path), &doc.to_json())?;
                let _ = writeln!(out, "bench document -> {path}");
            }
            Ok(out)
        }
        "check" => {
            let path = args
                .opt("baseline")
                .ok_or_else(|| err("bench check requires --baseline FILE"))?;
            let text =
                std::fs::read_to_string(path).map_err(|e| err(format!("read {path}: {e}")))?;
            let json = Json::parse(&text).map_err(|e| err(format!("parse {path}: {e}")))?;
            let baseline = BenchDoc::from_json(&json).map_err(|e| err(format!("{path}: {e}")))?;

            let default_profile = Profile::parse(&baseline.profile).map_err(err)?;
            let knobs = knobs(args, default_profile)?;
            let names: Vec<String> = baseline
                .scenario_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            let candidate = harness::run_scenarios(&names, &knobs).map_err(err)?;
            if let Some(out_path) = args.opt("out") {
                write_json_file(Path::new(out_path), &candidate.to_json())?;
            }

            let report = compare::compare(&baseline, &candidate);
            let mut out = format!("baseline {path} ({} scenarios)\n{report}", names.len());
            if args.flag("update-baseline") {
                write_json_file(Path::new(path), &candidate.to_json())?;
                let _ = write!(out, "\nbaseline refreshed -> {path}");
                Ok(out)
            } else if report.passed() {
                Ok(out)
            } else {
                Err(err(out))
            }
        }
        other => Err(err(format!(
            "unknown bench subcommand `{other}` (list|run|check)"
        ))),
    }
}

/// `elfie version` (also `--version`/`-V`) — prints the workspace version.
pub fn cmd_version(_args: &Args) -> Result<String, CliError> {
    Ok(format!(
        "elfie {} — ELFies tool-chain (CGO'21 reproduction)",
        env!("CARGO_PKG_VERSION")
    ))
}

fn open_store(dir: Option<&str>) -> Result<Store, CliError> {
    Store::open(dir.unwrap_or("store")).map_err(|e| err(format!("open store: {e}")))
}

/// `elfie store <put|get|ls|rm|verify|gc|stats> [...] [--store DIR]`
///
/// The content-addressed checkpoint repository. `put` adds a pinball
/// directory (`store put <dir> <name>`) or a plain file such as an ELFie
/// (`store put <file> [<name>]`); `get` materialises an object back out
/// (`--out PATH`); `ls`/`stats` report contents and dedup/compression
/// ratios; `verify` checks every byte; `rm` drops a name and `gc` sweeps
/// whatever became unreachable.
pub fn cmd_store(args: &Args) -> Result<String, CliError> {
    let store = open_store(args.opt("store"))?;
    match args.pos(0, "store subcommand")? {
        "put" => {
            let path = Path::new(args.pos(1, "path")?);
            if path.is_dir() {
                let name = args.pos(2, "name")?;
                let pb = load_pinball(&path.to_string_lossy(), name)?;
                let id = store
                    .put_pinball(name, &pb)
                    .map_err(|e| err(format!("store put: {e}")))?;
                Ok(format!("stored pinball `{name}` ({id})"))
            } else {
                let default = path
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let name = args.positional.get(2).cloned().unwrap_or(default);
                let bytes = std::fs::read(path)
                    .map_err(|e| err(format!("read {}: {e}", path.display())))?;
                let id = store
                    .put_elfie(&name, &bytes)
                    .map_err(|e| err(format!("store put: {e}")))?;
                Ok(format!("stored `{name}` ({} bytes, {id})", bytes.len()))
            }
        }
        "get" => {
            let name = args.pos(1, "name")?;
            let entry = store
                .list()
                .map_err(|e| err(format!("store ls: {e}")))?
                .into_iter()
                .find(|e| e.name == name)
                .ok_or_else(|| err(format!("no such object: {name}")))?;
            match entry.kind {
                elfie::store::ObjectKind::Pinball => {
                    let out = PathBuf::from(args.opt("out").unwrap_or("."));
                    let pb = store
                        .get_pinball(name)
                        .map_err(|e| err(format!("store get: {e}")))?;
                    pb.save_dir(&out)
                        .map_err(|e| err(format!("save failed: {e}")))?;
                    Ok(format!(
                        "restored pinball `{name}` ({} pages) -> {}",
                        pb.image.page_count(),
                        out.display()
                    ))
                }
                _ => {
                    let out = PathBuf::from(args.opt("out").unwrap_or(name));
                    let bytes = store
                        .get_raw(name)
                        .map_err(|e| err(format!("store get: {e}")))?;
                    std::fs::write(&out, &bytes).map_err(|e| err(format!("write failed: {e}")))?;
                    Ok(format!(
                        "restored `{name}` ({} bytes) -> {}",
                        bytes.len(),
                        out.display()
                    ))
                }
            }
        }
        "ls" => {
            let entries = store.list().map_err(|e| err(format!("store ls: {e}")))?;
            let mut out = String::new();
            for e in &entries {
                let _ = writeln!(
                    out,
                    "{:7} {} {:>12} B  {}",
                    e.kind.to_string(),
                    e.id,
                    e.logical_bytes,
                    e.name
                );
            }
            let _ = write!(out, "{} object(s)", entries.len());
            Ok(out)
        }
        "rm" => {
            let name = args.pos(1, "name")?;
            if store
                .remove(name)
                .map_err(|e| err(format!("store rm: {e}")))?
            {
                Ok(format!("removed `{name}` (run `store gc` to reclaim)"))
            } else {
                Err(err(format!("no such object: {name}")))
            }
        }
        "verify" => {
            let report = store
                .verify()
                .map_err(|e| err(format!("store verify: {e}")))?;
            let text = report.to_string();
            if report.is_ok() {
                Ok(text)
            } else {
                Err(err(text))
            }
        }
        "gc" => {
            let report = store.gc().map_err(|e| err(format!("store gc: {e}")))?;
            Ok(report.to_string())
        }
        "stats" => {
            let stats = store
                .stats()
                .map_err(|e| err(format!("store stats: {e}")))?;
            Ok(stats.to_string())
        }
        other => Err(err(format!(
            "unknown store subcommand `{other}` (put|get|ls|rm|verify|gc|stats)"
        ))),
    }
}

/// Where serve clients dial (and the daemon listens) unless told
/// otherwise. 4254 ≈ "ELF" on a phone keypad with room for neighbours.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:4254";

fn connect_addr(args: &Args) -> String {
    args.opt("connect")
        .unwrap_or(DEFAULT_SERVE_ADDR)
        .to_string()
}

fn serve_client(args: &Args) -> Result<elfie_serve::Client, CliError> {
    elfie_serve::Client::connect(&connect_addr(args)).map_err(|e| err(e.to_string()))
}

/// `elfie serve --store DIR [--listen ADDR] [--shards N] [--queue N]
/// [--no-telemetry]`
///
/// Blocks until a client sends `shutdown`, then drains gracefully and
/// returns the lifetime summary. The readiness line is printed *before*
/// blocking so wrappers (CI, scripts) can wait for it; startup failures
/// (unbindable address, unusable store path) come back as one-line
/// [`CliError`]s — never a panic or backtrace. Telemetry (the registry
/// behind `elfie metrics`) is on unless `--no-telemetry` turns the
/// whole layer off.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let store = PathBuf::from(
        args.opt("store")
            .ok_or_else(|| err("serve requires --store DIR"))?,
    );
    let listen = args.opt("listen").unwrap_or(DEFAULT_SERVE_ADDR);
    let cfg = elfie_serve::ServeConfig {
        shards: args.opt_u64("shards", 4)?.max(1) as usize,
        queue_depth: args.opt_u64("queue", 64)?.max(1) as usize,
        telemetry: !args.flag("no-telemetry"),
    };
    let topts = parse_trace_opts(args)?;
    let daemon = elfie_serve::Daemon::bind(listen, &store, cfg, topts.tracer.clone())
        .map_err(|e| err(e.to_string()))?;
    println!(
        "elfie serve: listening on {} (store {}, {} shard(s) x queue {})",
        daemon.local_addr(),
        store.display(),
        cfg.shards,
        cfg.queue_depth
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = daemon.run();
    let mut out = format!("{report}\n");
    topts.finish(&mut out, &Json::Null)?;
    Ok(out)
}

fn parse_job_spec(args: &Args) -> Result<elfie_serve::JobSpec, CliError> {
    let kind = elfie_serve::JobKind::parse(args.pos(0, "kind")?).map_err(err)?;
    let defaults = elfie_serve::JobSpec::default();
    Ok(elfie_serve::JobSpec {
        kind,
        workload: args.pos(1, "workload")?.to_string(),
        scale: args.opt("scale").unwrap_or(&defaults.scale).to_string(),
        slice: args.opt_u64("slice", defaults.slice)?,
        warmup: args.opt_u64("warmup", defaults.warmup)?,
        maxk: args.opt_u64("maxk", defaults.maxk)?,
        seed: args.opt_u64("seed", defaults.seed)?,
        fuel: args.opt_u64("fuel", defaults.fuel)?,
        start: args.opt_u64("start", defaults.start)?,
        length: args.opt_u64("length", defaults.length)?,
        sim: args.opt("sim").unwrap_or(&defaults.sim).to_string(),
        shards: args.opt_u64("shards", defaults.shards)?,
        interval: args.opt_u64("interval", defaults.interval)?,
    })
}

/// Prints one streamed `progress` frame immediately (followers watch
/// these lines live, so they cannot wait for the final report string).
fn print_progress(id: u64, shard: u64, phase: elfie_serve::JobPhase) {
    println!("progress: job #{id} shard {shard} {}", phase.label());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
}

/// `elfie submit <kind> <workload> [--connect ADDR] [--tenant NAME]
/// [--follow] ...`
///
/// Prints the job's report verbatim — for `validate` those are the
/// exact bytes offline `elfie validate` prints with the same knobs, so
/// `diff` closes the loop in CI. `busy` and daemon-side failures are
/// one-line errors with a non-zero exit. `--follow` streams one
/// `progress:` line per phase change (queued → profile → slice k/K →
/// stitch → render) before the final report.
pub fn cmd_submit(args: &Args) -> Result<String, CliError> {
    let spec = parse_job_spec(args)?;
    let tenant = args.opt("tenant").unwrap_or("default");
    let mut client = serve_client(args)?;
    let response = if args.flag("follow") {
        client.submit_follow(tenant, spec, print_progress)
    } else {
        client.submit(tenant, spec)
    }
    .map_err(|e| err(e.to_string()))?;
    match response {
        elfie_serve::Response::Done { report, .. } => Ok(report),
        elfie_serve::Response::Busy { shard, capacity } => Err(err(format!(
            "busy: shard {shard} queue is full ({capacity} deep) — retry later"
        ))),
        elfie_serve::Response::Error { message } => Err(err(message)),
        other => Err(err(format!("unexpected response {other:?}"))),
    }
}

/// `elfie jobs [--connect ADDR] [--watch MS]` — lists the daemon's
/// retained jobs; `--watch MS` first streams every phase change seen in
/// an MS-millisecond window as `progress:` lines, then prints the final
/// listing.
pub fn cmd_jobs(args: &Args) -> Result<String, CliError> {
    let watch_ms = args.opt_u64("watch", 0)?;
    let mut client = serve_client(args)?;
    let jobs = if watch_ms > 0 {
        client.jobs_watch(watch_ms, print_progress)
    } else {
        client.jobs()
    }
    .map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    for j in &jobs {
        let _ = writeln!(
            out,
            "#{:<6} {:<8} {:<10} {:<20} shard {}  {:<12} {}",
            j.id,
            j.state,
            j.kind.name(),
            j.workload,
            j.shard,
            j.phase,
            j.tenant
        );
    }
    let _ = writeln!(out, "{} job(s)", jobs.len());
    Ok(out)
}

/// `elfie metrics [--connect ADDR] [--watch N]` — scrapes a serve
/// daemon's metrics registry and renders it in the Prometheus text
/// exposition format. `--watch N` re-scrapes every N seconds forever
/// (Ctrl-C to stop), printing each snapshot as it lands; without it one
/// snapshot is printed and the command exits.
pub fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let watch = args.opt_u64("watch", 0)?;
    let mut client = serve_client(args)?;
    loop {
        let snap = client.metrics().map_err(|e| err(e.to_string()))?;
        let text = if snap == elfie::trace::MetricsSnapshot::default() {
            String::from("# telemetry disabled on this daemon (--no-telemetry)\n")
        } else {
            elfie::trace::render_exposition(&snap)
        };
        if watch == 0 {
            return Ok(text);
        }
        println!("{text}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs(watch.max(1)));
    }
}

/// `elfie ping [--connect ADDR]` — liveness + version/protocol probe.
pub fn cmd_ping(args: &Args) -> Result<String, CliError> {
    let (version, protocol) = serve_client(args)?.ping().map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "pong: elfie-serve {version} (protocol {protocol}) at {}\n",
        connect_addr(args)
    ))
}

/// `elfie shutdown [--connect ADDR]` — asks the daemon to drain + exit.
pub fn cmd_shutdown(args: &Args) -> Result<String, CliError> {
    let drained = serve_client(args)?
        .shutdown()
        .map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "daemon at {} draining ({drained} job(s) completed)\n",
        connect_addr(args)
    ))
}

/// Top-level usage text.
pub const USAGE: &str = "\
elfie — ELFies tool-chain (CGO'21 reproduction)

USAGE: elfie <command> [args]

COMMANDS:
  workloads                              list available benchmarks
  record <workload> [--scale test|train|ref] [--start N] [--length N]
         [--out DIR] [--regular] [--store DIR]
                                         capture a region as a pinball
  sysstate <dir> <name> [--out DIR]      extract SYSSTATE from a pinball
  pinball2elf <dir> <name> [--out FILE] [--roi TYPE:TAG] [--no-graceful]
         [--no-callbacks] [--monitor] [--object] [--force] [--stack-only]
         [--sysstate DIR] [--linker-script FILE] [--startup-asm FILE]
                                         convert a pinball to an ELFie
  pinball2pe <dir> <name> [--out FILE]   convert a pinball to a PE32+ container
  run <file> [--sysstate DIR] [--seed N] [--fuel N]
                                         run an ELFie natively
  replay <dir> <name> [--injection 0|1]  constrained replay of a pinball
  simpoint <workload> [--slice N] [--warmup N] [--maxk N] [--scale S]
                                         PinPoints region selection
  validate <workload> [--slice N] [--warmup N] [--maxk N] [--scale S]
         [--seed N] [--fuel N] [--workers N] [--serial] [--stats]
         [--store DIR] [--trace FILE] [--trace-mode off|sampled[:N]|full]
         [--stats-json FILE]             ELFie-based validation (parallel);
                                         --store warm-starts across runs,
                                         --trace writes a Perfetto timeline
  simulate <file> [--sim sniper|coresim|coresim-fs|gem5-nehalem|gem5-haswell]
         [--sysstate DIR] [--trace FILE] [--stats-json FILE]
                                         simulate an ELFie
  simulate <pinball-dir> <name> | <bundle-file> [--sim NAME] [--shards N]
         [--snapshot-interval N] [--snapshot-store DIR]
                                         simulate a pinball (constrained
                                         replay); --shards fans interval
                                         slices over a worker pool and
                                         stitches a deterministic result
  snapshot ls [--store DIR]              list stored interval snapshots
                                         with their parent chain links
  snapshot rm <name> [--store DIR]       drop a snapshot ref (store gc
                                         reclaims unreachable deltas)
  trace summarize <file>                 roll up a --trace timeline (incl.
                                         ring occupancy / dropped events),
                                         or render --stats-json to text
  trace summarize --request ID <file>... filter one or more chrome traces
                                         (client + daemon) down to one
                                         correlated request's causal chain
  trace check <file>                     validate a trace/stats document
  disasm <file> [--section NAME]         disassemble an ELFie section
  store put <path> [<name>] [--store DIR]
                                         add a pinball dir or file to the
                                         content-addressed store
  store get <name> [--out PATH] [--store DIR]
                                         materialise a stored object
  store ls|verify|gc|stats [--store DIR] list / check / sweep / measure
  store rm <name> [--store DIR]          drop a name (gc reclaims blobs)
  bench list                             name the measured perf scenarios
  bench run [--scenario A[,B]] [--profile smoke|full] [--runs N] [--out FILE]
                                         measure scenarios into an
                                         elfie-bench v1 document
  bench check --baseline FILE [--update-baseline] [--runs N] [--out FILE]
                                         gate fresh measurements against a
                                         checked-in baseline (probe-
                                         calibrated tolerance bands)
  serve --store DIR [--listen ADDR] [--shards N] [--queue N]
         [--no-telemetry] [--trace FILE]
         [--trace-mode off|sampled[:N]|full]
                                         run the checkpoint-serving daemon
                                         (default listen 127.0.0.1:4254)
  submit <kind> <workload> [--connect ADDR] [--tenant NAME] [--follow]
         [--scale S] [--slice N] [--warmup N] [--maxk N] [--seed N]
         [--fuel N] [--start N] [--length N] [--sim NAME] [--shards N]
         [--interval N]
                                         run one job on a serve daemon and
                                         print its report (kind is one of
                                         record|validate|replay|simulate);
                                         --follow streams progress lines
  jobs [--connect ADDR] [--watch MS]     list a serve daemon's jobs;
                                         --watch streams phase changes
                                         for MS milliseconds first
  metrics [--connect ADDR] [--watch N]   scrape a serve daemon's metrics
                                         as Prometheus text exposition
                                         (--watch N re-scrapes every N s)
  ping [--connect ADDR]                  probe a serve daemon's liveness
  shutdown [--connect ADDR]              drain and stop a serve daemon
  version                                print the tool-chain version
";

/// The signature every command handler shares.
pub type Handler = fn(&Args) -> Result<String, CliError>;

/// The command table driving [`dispatch`]. Kept as data — not a bare
/// `match` — so a unit test can assert every command is documented in
/// [`USAGE`] and new commands cannot silently drift out of the help text.
pub const COMMANDS: &[(&str, Handler)] = &[
    ("workloads", |_| Ok(cmd_workloads())),
    ("record", cmd_record),
    ("sysstate", cmd_sysstate),
    ("pinball2elf", cmd_pinball2elf),
    ("pinball2pe", cmd_pinball2pe),
    ("run", cmd_run),
    ("replay", cmd_replay),
    ("simpoint", cmd_simpoint),
    ("validate", cmd_validate),
    ("simulate", cmd_simulate),
    ("disasm", cmd_disasm),
    ("store", cmd_store),
    ("snapshot", cmd_snapshot),
    ("trace", cmd_trace),
    ("bench", cmd_bench),
    ("serve", cmd_serve),
    ("submit", cmd_submit),
    ("jobs", cmd_jobs),
    ("metrics", cmd_metrics),
    ("ping", cmd_ping),
    ("shutdown", cmd_shutdown),
    ("version", cmd_version),
];

/// Dispatches a parsed command line. Returns the report to print.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let Some(cmd) = argv.first() else {
        return Err(err(USAGE));
    };
    let rest = &argv[1..];
    let flags = &[
        "regular",
        "no-graceful",
        "no-callbacks",
        "monitor",
        "object",
        "force",
        "stack-only",
        "serial",
        "stats",
        "update-baseline",
        "follow",
        "no-telemetry",
    ][..];
    let args = Args::parse(rest, flags);
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "--version" | "-V" => cmd_version(&args),
        other => match COMMANDS.iter().find(|(name, _)| *name == other) {
            Some((_, handler)) => handler(&args),
            None => Err(err(format!("unknown command `{other}`\n\n{USAGE}"))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(|t| t.to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("elfie-cli-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn workloads_lists_suites() {
        let out = cmd_workloads();
        assert!(out.contains("gcc_like"));
        assert!(out.contains("lbm_like"));
        assert!(out.contains("xz_s_like"));
    }

    #[test]
    fn full_cli_roundtrip_record_convert_run() {
        let dir = tmp("roundtrip");
        let pbdir = dir.join("pb");
        let out = dispatch(&argv(&format!(
            "record mcf_like --scale test --start 20000 --length 5000 --out {}",
            pbdir.display()
        )))
        .expect("record");
        assert!(out.contains("captured"), "{out}");

        let ssdir = dir.join("ss");
        let out = dispatch(&argv(&format!(
            "sysstate {} mcf_like --out {}",
            pbdir.display(),
            ssdir.display()
        )))
        .expect("sysstate");
        assert!(out.contains("sysstate"), "{out}");

        let elfie = dir.join("mcf.elfie");
        let out = dispatch(&argv(&format!(
            "pinball2elf {} mcf_like --out {} --roi ssc:7 --sysstate {}",
            pbdir.display(),
            elfie.display(),
            ssdir.display()
        )))
        .expect("convert");
        assert!(out.contains("wrote"), "{out}");
        assert!(elfie.exists());

        let out = dispatch(&argv(&format!(
            "run {} --sysstate {} --seed 3",
            elfie.display(),
            ssdir.display()
        )))
        .expect("run");
        assert!(out.contains("AllExited(0)"), "{out}");
        assert!(out.contains("thread 0"), "{out}");

        let out = dispatch(&argv(&format!("disasm {}", elfie.display()))).expect("disasm");
        assert!(out.contains("repmovs") || out.contains("mov"), "{out}");

        let out = dispatch(&argv(&format!(
            "simulate {} --sim gem5-haswell --sysstate {}",
            elfie.display(),
            ssdir.display()
        )))
        .expect("simulate");
        assert!(out.contains("IPC"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_command_reports_completion() {
        let dir = tmp("replay");
        dispatch(&argv(&format!(
            "record exchange2_like --scale test --start 5000 --length 2000 --out {}",
            dir.display()
        )))
        .expect("record");
        let out =
            dispatch(&argv(&format!("replay {} exchange2_like", dir.display()))).expect("replay");
        assert!(out.contains("completed=true"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pinball2pe_writes_mz_file() {
        let dir = tmp("pe");
        dispatch(&argv(&format!(
            "record xz_like --scale test --start 10000 --length 3000 --out {}",
            dir.display()
        )))
        .expect("record");
        let pe = dir.join("xz.pe");
        let out = dispatch(&argv(&format!(
            "pinball2pe {} xz_like --out {}",
            dir.display(),
            pe.display()
        )))
        .expect("convert");
        assert!(out.contains("PE32+"), "{out}");
        let bytes = std::fs::read(&pe).unwrap();
        assert_eq!(&bytes[..2], b"MZ");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simpoint_command_prints_points() {
        let out = dispatch(&argv(
            "simpoint gcc_like --scale test --slice 5000 --maxk 8",
        ))
        .expect("ok");
        assert!(out.contains("phases"), "{out}");
        assert!(out.contains("cluster 0 rank 0"), "{out}");
    }

    #[test]
    fn validate_command_reports_prediction_and_stats() {
        let out = dispatch(&argv(
            "validate gcc_like --scale test --slice 5000 --warmup 2000 --maxk 6 \
             --fuel 50000000 --workers 2 --stats",
        ))
        .expect("validates");
        assert!(out.contains("true CPI"), "{out}");
        assert!(out.contains("cluster 0 rank 0"), "{out}");
        assert!(out.contains("pipeline:"), "{out}");
        assert!(out.contains("regions:"), "{out}");
        assert!(out.contains("MIPS"), "{out}");
        assert!(out.contains("block cache"), "{out}");
        assert!(out.contains("mem:"), "{out}");
        assert!(out.contains("peak resident"), "{out}");
        assert!(out.contains("shared"), "{out}");
    }

    #[test]
    fn validate_serial_flag_pins_one_worker() {
        let out = dispatch(&argv(
            "validate mcf_like --scale test --slice 5000 --warmup 2000 --maxk 4 \
             --fuel 50000000 --serial --stats",
        ))
        .expect("validates");
        assert!(
            out.contains("1 worker\n") || out.contains("1 worker "),
            "{out}"
        );
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(dispatch(&argv("record nonexistent_workload")).is_err());
        assert!(dispatch(&argv("bogus_command")).is_err());
        assert!(dispatch(&argv("run /no/such/file")).is_err());
        assert!(dispatch(&argv("pinball2elf /no/such dir")).is_err());
        assert!(dispatch(&[]).is_err());
        assert!(dispatch(&argv("simulate x --sim warp-drive")).is_err());
    }

    #[test]
    fn serve_startup_failures_are_one_line_errors() {
        let dir = tmp("serve-bad");

        // No --store at all.
        let e = dispatch(&argv("serve")).unwrap_err();
        assert!(e.0.contains("--store"), "{e}");

        // Store path exists but is a file, not a directory.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let e = dispatch(&argv(&format!(
            "serve --store {} --listen 127.0.0.1:0",
            file.display()
        )))
        .unwrap_err();
        assert!(e.0.starts_with("open store"), "{e}");
        assert!(!e.0.contains('\n'), "one-line diagnostic, got: {e}");

        // Listen address already in use.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let e = dispatch(&argv(&format!(
            "serve --store {} --listen {addr}",
            dir.join("store").display()
        )))
        .unwrap_err();
        assert!(e.0.starts_with("bind"), "{e}");
        assert!(!e.0.contains('\n'), "one-line diagnostic, got: {e}");
    }

    #[test]
    fn client_verbs_report_unreachable_daemons_as_errors() {
        // Port 1 is reserved and never listening in the test environment.
        for verb in [
            "ping",
            "jobs",
            "metrics",
            "shutdown",
            "submit validate gcc_like",
        ] {
            let e = dispatch(&argv(&format!("{verb} --connect 127.0.0.1:1"))).unwrap_err();
            assert!(e.0.contains("connect"), "`{verb}` gave {e}");
        }
    }

    #[test]
    fn every_dispatched_command_is_documented_in_usage() {
        for (name, _) in COMMANDS {
            assert!(
                USAGE.lines().any(|l| {
                    l.trim_start().starts_with(&format!("{name} "))
                        || l.trim_start() == *name
                        || l.trim_start().starts_with(&format!("{name}|"))
                }),
                "command `{name}` is dispatched but missing from USAGE"
            );
        }
    }

    #[test]
    fn every_usage_command_row_names_a_dispatched_command() {
        for line in USAGE.lines() {
            let Some(rest) = line.strip_prefix("  ") else {
                continue;
            };
            if rest.starts_with(' ') {
                continue; // continuation / description column
            }
            let word = rest.split([' ', '|']).next().unwrap();
            assert!(
                COMMANDS.iter().any(|(name, _)| *name == word),
                "USAGE row `{word}` is not a dispatched command"
            );
        }
    }

    #[test]
    fn version_command_prints_workspace_version() {
        for argv_str in ["version", "--version", "-V"] {
            let out = dispatch(&argv(argv_str)).expect("version");
            assert!(
                out.contains(env!("CARGO_PKG_VERSION")),
                "`{argv_str}` gave {out}"
            );
            assert!(out.starts_with("elfie "), "{out}");
        }
    }

    #[test]
    fn store_commands_roundtrip_a_pinball() {
        let dir = tmp("store");
        let pbdir = dir.join("pb");
        let storedir = dir.join("repo");
        dispatch(&argv(&format!(
            "record gcc_like --scale test --start 20000 --length 5000 --out {} --store {}",
            pbdir.display(),
            storedir.display()
        )))
        .expect("record --store");

        let out =
            dispatch(&argv(&format!("store ls --store {}", storedir.display()))).expect("store ls");
        assert!(out.contains("pinball"), "{out}");
        assert!(out.contains("1 object(s)"), "{out}");

        let out = dispatch(&argv(&format!(
            "store verify --store {}",
            storedir.display()
        )))
        .expect("store verify");
        assert!(out.contains("clean"), "{out}");

        let out = dispatch(&argv(&format!(
            "store stats --store {}",
            storedir.display()
        )))
        .expect("store stats");
        assert!(out.contains("dedup"), "{out}");

        // Materialise the pinball back out and compare the directories.
        // `record` stores under the region name `<workload>.<slice>`; the
        // on-disk file set uses the pinball (meta) name.
        let outdir = dir.join("restored");
        let out = dispatch(&argv(&format!(
            "store get gcc_like.0 --out {} --store {}",
            outdir.display(),
            storedir.display()
        )))
        .expect("store get");
        assert!(out.contains("restored pinball"), "{out}");
        let a = Pinball::load_dir(&pbdir, "gcc_like").expect("original");
        let b = Pinball::load_dir(&outdir, "gcc_like").expect("restored");
        assert_eq!(a.to_bytes(), b.to_bytes(), "bit-identical round-trip");

        // rm + gc reclaims everything.
        dispatch(&argv(&format!(
            "store rm gcc_like.0 --store {}",
            storedir.display()
        )))
        .expect("store rm");
        let out =
            dispatch(&argv(&format!("store gc --store {}", storedir.display()))).expect("store gc");
        assert!(out.contains("removed 1 manifest(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_put_get_file_roundtrip() {
        let dir = tmp("store-file");
        let storedir = dir.join("repo");
        let file = dir.join("image.bin");
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 7) as u8).collect();
        std::fs::write(&file, &data).unwrap();

        let out = dispatch(&argv(&format!(
            "store put {} img --store {}",
            file.display(),
            storedir.display()
        )))
        .expect("store put");
        assert!(out.contains("stored `img`"), "{out}");

        let back = dir.join("back.bin");
        dispatch(&argv(&format!(
            "store get img --out {} --store {}",
            back.display(),
            storedir.display()
        )))
        .expect("store get");
        assert_eq!(std::fs::read(&back).unwrap(), data);

        assert!(dispatch(&argv(&format!(
            "store get missing --store {}",
            storedir.display()
        )))
        .is_err());
        assert!(dispatch(&argv(&format!(
            "store frobnicate --store {}",
            storedir.display()
        )))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_with_store_warm_starts_second_run() {
        let dir = tmp("validate-store");
        let line = format!(
            "validate gcc_like --scale test --slice 5000 --warmup 2000 --maxk 4 \
             --fuel 50000000 --workers 2 --stats --store {}",
            dir.display()
        );
        let cold = dispatch(&argv(&line)).expect("cold validate");
        let warm = dispatch(&argv(&line)).expect("warm validate");
        // Same report prefix (everything before the stats section).
        assert_eq!(
            cold.lines().next().unwrap(),
            warm.lines().next().unwrap(),
            "reports differ"
        );
        assert!(
            cold.contains("store: 0 hit"),
            "cold run must only put: {cold}"
        );
        assert!(
            warm.contains("store:") && !warm.contains("store: 0 hit"),
            "warm run must report store hits: {warm}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_trace_and_stats_json_roundtrip() {
        let dir = tmp("trace");
        let tracefile = dir.join("t.json");
        let statsfile = dir.join("s.json");
        let out = dispatch(&argv(&format!(
            "validate gcc_like --scale test --slice 5000 --warmup 2000 --maxk 4 \
             --fuel 50000000 --workers 2 --stats --trace {} --stats-json {}",
            tracefile.display(),
            statsfile.display()
        )))
        .expect("validates");
        assert!(out.contains("trace: "), "{out}");
        assert!(out.contains("stats-json -> "), "{out}");

        // The timeline is a valid Chrome document with per-worker lanes.
        let check =
            dispatch(&argv(&format!("trace check {}", tracefile.display()))).expect("check");
        assert!(check.contains("chrome trace"), "{check}");
        let summary = dispatch(&argv(&format!("trace summarize {}", tracefile.display())))
            .expect("summarize");
        assert!(summary.contains("worker-0"), "{summary}");
        assert!(summary.contains("validate_batch"), "{summary}");

        // `trace summarize` of the stats document reproduces the exact
        // text block `--stats` printed.
        let check =
            dispatch(&argv(&format!("trace check {}", statsfile.display()))).expect("check stats");
        assert!(check.contains("elfie-stats"), "{check}");
        let rendered = dispatch(&argv(&format!("trace summarize {}", statsfile.display())))
            .expect("summarize stats");
        let expected: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("pipeline:"))
            .take_while(|l| !l.starts_with("trace:"))
            .collect();
        assert_eq!(
            rendered,
            expected.join("\n"),
            "stats-json must round-trip bit-identically to --stats text"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_trace_outputs_and_sim_stats_roundtrip() {
        let dir = tmp("sim-trace");
        let pbdir = dir.join("pb");
        dispatch(&argv(&format!(
            "record mcf_like --scale test --start 20000 --length 5000 --out {}",
            pbdir.display()
        )))
        .expect("record");
        let elfie = dir.join("mcf.elfie");
        dispatch(&argv(&format!(
            "pinball2elf {} mcf_like --out {} --roi ssc:7",
            pbdir.display(),
            elfie.display()
        )))
        .expect("convert");

        let tracefile = dir.join("t.json");
        let statsfile = dir.join("s.json");
        let out = dispatch(&argv(&format!(
            "simulate {} --sim gem5-haswell --trace {} --stats-json {}",
            elfie.display(),
            tracefile.display(),
            statsfile.display()
        )))
        .expect("simulate");
        assert!(out.contains("vm fast path"), "{out}");

        let check =
            dispatch(&argv(&format!("trace check {}", tracefile.display()))).expect("check");
        assert!(check.contains("chrome trace"), "{check}");
        let check =
            dispatch(&argv(&format!("trace check {}", statsfile.display()))).expect("check stats");
        assert!(check.contains("elfie-sim-stats"), "{check}");

        // Summarising the sim-stats document reproduces the `vm ...`
        // lines of the simulate report bit-identically.
        let rendered = dispatch(&argv(&format!("trace summarize {}", statsfile.display())))
            .expect("summarize stats");
        let vm_block: Vec<&str> = out.lines().filter(|l| l.starts_with("vm ")).collect();
        assert_eq!(rendered, vm_block.join("\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_pinball_serial_sharded_and_snapshot_verbs() {
        let dir = tmp("sim-pinball");
        let pbdir = dir.join("pb");
        dispatch(&argv(&format!(
            "record mcf_like --scale test --start 20000 --length 6000 --out {}",
            pbdir.display()
        )))
        .expect("record");

        // Serial pinball simulation straight from the directory.
        let out = dispatch(&argv(&format!(
            "simulate {} mcf_like --sim gem5-haswell",
            pbdir.display()
        )))
        .expect("simulate pinball dir");
        assert!(out.contains("IPC"), "{out}");
        assert!(out.contains("(serial)"), "{out}");
        // Raw pinballs carry no ROI markers; the CLI must arm the timing
        // model anyway or every figure renders as zero.
        assert!(
            !out.contains("user insns 0 "),
            "pinball sim must model the region: {out}"
        );

        // Sharded simulation from a PBAL bundle file, persisting the
        // snapshot chain into a store.
        let pb = Pinball::load_dir(&pbdir, "mcf_like").expect("load");
        let bundle = dir.join("mcf.pball");
        std::fs::write(&bundle, pb.to_bytes()).unwrap();
        let storedir = dir.join("repo");
        let out = dispatch(&argv(&format!(
            "simulate {} --sim gem5-haswell --shards 4 --snapshot-interval 1000 \
             --snapshot-store {}",
            bundle.display(),
            storedir.display()
        )))
        .expect("simulate sharded");
        assert!(out.contains("sharded:"), "{out}");
        assert!(out.contains("stored"), "{out}");

        // The chain is visible, parent-linked, and type-safe to remove.
        let ls = dispatch(&argv(&format!(
            "snapshot ls --store {}",
            storedir.display()
        )))
        .expect("snapshot ls");
        assert!(ls.contains("snap.mcf_like.0.1"), "{ls}");
        assert!(ls.contains("snap.mcf_like.0.2"), "{ls}");
        assert!(!ls.contains("0 snapshot(s)"), "{ls}");
        assert!(dispatch(&argv(&format!(
            "snapshot rm nothere --store {}",
            storedir.display()
        )))
        .is_err());

        // Dropping the first link must not let gc sweep it: later
        // snapshots still chain to it through parent manifests.
        dispatch(&argv(&format!(
            "snapshot rm snap.mcf_like.0.1 --store {}",
            storedir.display()
        )))
        .expect("snapshot rm");
        let out =
            dispatch(&argv(&format!("store gc --store {}", storedir.display()))).expect("store gc");
        assert!(
            out.contains("removed 0 manifest(s)"),
            "chain keeps parents alive: {out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_command_rejects_bad_input() {
        assert!(dispatch(&argv("validate gcc_like --trace x --trace-mode warp")).is_err());
        assert!(dispatch(&argv("trace summarize /no/such/file.json")).is_err());
        assert!(dispatch(&argv("trace frobnicate /no/such/file.json")).is_err());
        let bogus =
            std::env::temp_dir().join(format!("elfie-cli-bogus-{}.json", std::process::id()));
        std::fs::write(&bogus, "{\"schema\": \"wrong\"}").unwrap();
        assert!(dispatch(&argv(&format!("trace check {}", bogus.display()))).is_err());
        // --request wants an integer id, at least one file, and only
        // accepts Chrome traces (a stats document has no span events).
        assert!(dispatch(&argv("trace summarize --request banana x.json")).is_err());
        assert!(dispatch(&argv("trace summarize --request 7")).is_err());
        let e = dispatch(&argv(&format!(
            "trace summarize --request 7 {}",
            bogus.display()
        )))
        .unwrap_err();
        assert!(e.0.contains("chrome trace"), "{e}");
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn trace_summarize_reports_ring_occupancy_and_drops() {
        let dir = tmp("trace-occupancy");
        let tracefile = dir.join("t.json");
        dispatch(&argv(&format!(
            "validate gcc_like --scale test --slice 5000 --warmup 2000 --maxk 4 \
             --fuel 50000000 --workers 2 --trace {}",
            tracefile.display()
        )))
        .expect("validates");
        let summary = dispatch(&argv(&format!("trace summarize {}", tracefile.display())))
            .expect("summarize");
        // Every per-thread line shows its ring occupancy against the
        // recorded capacity, and the header counts dropped events.
        assert!(summary.contains("dropped"), "{summary}");
        assert!(summary.contains("ring "), "{summary}");
        assert!(summary.contains("% full)"), "{summary}");

        // A request id that tagged nothing is an explicit error, not an
        // empty chain.
        let e = dispatch(&argv(&format!(
            "trace summarize --request 12345 {}",
            tracefile.display()
        )))
        .unwrap_err();
        assert!(e.0.contains("no spans tagged"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_list_names_every_scenario() {
        let out = dispatch(&argv("bench list")).expect("bench list");
        for (name, _) in elfie_bench::harness::scenarios::SCENARIOS {
            assert!(out.contains(name), "missing {name}: {out}");
        }
    }

    #[test]
    fn bench_run_check_and_update_baseline_flow() {
        let dir = tmp("bench");
        let baseline = dir.join("BENCH_test.json");
        // Record a baseline from the one scenario cheap enough for a
        // debug-build unit test (store_dedup is fully deterministic).
        let out = dispatch(&argv(&format!(
            "bench run --scenario store_dedup --out {}",
            baseline.display()
        )))
        .expect("bench run");
        assert!(out.contains("scenario store_dedup"), "{out}");
        assert!(out.contains("dedup_ratio"), "{out}");

        // A fresh run against that baseline passes the gate.
        let out = dispatch(&argv(&format!(
            "bench check --baseline {}",
            baseline.display()
        )))
        .expect("bench check");
        assert!(out.contains("gate: PASS"), "{out}");

        // Sabotage the baseline: pretend the store used to need far
        // fewer physical bytes. The gate must fail with an actionable
        // per-metric diff and a non-zero exit.
        let text = std::fs::read_to_string(&baseline).unwrap();
        let json = Json::parse(&text).unwrap();
        let mut doc = elfie_bench::harness::doc::BenchDoc::from_json(&json).unwrap();
        let m = doc.scenarios[0]
            .metrics
            .iter_mut()
            .find(|m| m.name == "physical_bytes")
            .unwrap();
        m.value /= 2.5;
        std::fs::write(&baseline, doc.to_json().render_pretty()).unwrap();
        let e = dispatch(&argv(&format!(
            "bench check --baseline {}",
            baseline.display()
        )))
        .expect_err("gate must fail");
        assert!(e.0.contains("FAIL store_dedup/physical_bytes"), "{e}");
        assert!(e.0.contains("--update-baseline"), "{e}");

        // The explicit refresh flow rewrites the file and the next
        // check passes again.
        let out = dispatch(&argv(&format!(
            "bench check --baseline {} --update-baseline",
            baseline.display()
        )))
        .expect("update baseline");
        assert!(out.contains("baseline refreshed"), "{out}");
        let out = dispatch(&argv(&format!(
            "bench check --baseline {}",
            baseline.display()
        )))
        .expect("bench check after refresh");
        assert!(out.contains("gate: PASS"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_rejects_bad_input() {
        assert!(dispatch(&argv("bench")).is_err());
        assert!(dispatch(&argv("bench frobnicate")).is_err());
        assert!(dispatch(&argv("bench check")).is_err(), "needs --baseline");
        assert!(dispatch(&argv("bench check --baseline /no/such/file.json")).is_err());
        assert!(dispatch(&argv("bench run --scenario warp_drive")).is_err());
        assert!(dispatch(&argv("bench run --profile turbo")).is_err());
    }

    #[test]
    fn args_parser_handles_options_and_flags() {
        let a = Args::parse(&argv("pos1 --num 5 --flag pos2 --name value"), &["flag"]);
        assert_eq!(a.pos(0, "x").unwrap(), "pos1");
        assert_eq!(a.pos(1, "x").unwrap(), "pos2");
        assert_eq!(a.opt_u64("num", 0).unwrap(), 5);
        assert!(a.flag("flag"));
        assert_eq!(a.opt("name"), Some("value"));
        assert!(a.pos(2, "x").is_err());
        assert!(a.opt_u64("name", 0).is_err(), "non-integer option");
    }
}
