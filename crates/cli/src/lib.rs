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
//! Argument parsing is hand-rolled (no extra dependencies). Each command
//! is one [`COMMANDS`] entry: its usage rows, its option table and a
//! library function returning its report as a `String`, so the whole
//! surface is unit-testable without spawning processes. A command line
//! with an option its table does not declare is an error.

use elfie::prelude::*;
use elfie::trace::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use OptKind::{Flag, Repeated, Value};

/// A CLI failure: a message for stderr and a non-zero exit.
#[derive(Debug)]
pub struct CliError {
    pub message: String,
    /// What the command still reports on stdout; empty unless the command
    /// ran to its end and only its outcome failed (a guest that did not
    /// exit 0, a replay that did not complete, a store with corrupt
    /// objects, a failed bench gate).
    pub report: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    failed(msg, String::new())
}

/// A command that ran to its end with a failed outcome: a one-line
/// `message` for stderr, and its `report` still printed on stdout.
fn failed(message: impl Into<String>, report: String) -> CliError {
    CliError {
        message: message.into(),
        report,
    }
}

/// How an option takes its argument. The string is the option's
/// placeholder in the usage text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptKind {
    /// A bare switch: `--serial`.
    Flag,
    /// One value; when the option is given twice, the last one wins.
    Value(&'static str),
    /// Any number of values, each also a comma list: `--scenario a,b`.
    Repeated(&'static str),
}

/// The signature every command handler shares.
pub type Handler = fn(&Args) -> Result<String, CliError>;

/// One `elfie` command: its usage rows, its options and its handler.
/// [`dispatch`] parses a command line against `opts` and rejects any
/// option they do not declare, and [`usage`] renders the help text from
/// the same entry, so the two cannot drift apart.
pub struct Command {
    pub name: &'static str,
    /// One form per usage row: the positionals or subcommand that
    /// follow the command name. All forms share the one option table.
    pub synopsis: &'static [&'static str],
    /// The help column, one entry per form; `\n` breaks lines.
    pub help: &'static [&'static str],
    pub opts: &'static [(&'static str, OptKind)],
    pub run: Handler,
}

/// Where the help column starts, and how wide a usage line may grow.
const HELP_COLUMN: usize = 41;
const LINE_WIDTH: usize = 79;

/// Wraps `words` into lines no wider than [`LINE_WIDTH`]: the first
/// starts with `indent`, the others with nine spaces.
fn wrap<'a>(indent: &str, words: impl IntoIterator<Item = &'a str>) -> Vec<String> {
    let mut lines = vec![indent.to_string()];
    for word in words {
        let line = lines.last_mut().expect("one line at least");
        if line.trim().is_empty() {
            line.push_str(word);
        } else if line.len() + 1 + word.len() > LINE_WIDTH {
            lines.push(format!("         {word}"));
        } else {
            line.push(' ');
            line.push_str(word);
        }
    }
    lines
}

impl Command {
    /// This command's rows of the usage text. A single form lists the
    /// options inline; several forms share one `options:` row after them.
    pub fn usage(&self) -> String {
        let opts: Vec<String> = self
            .opts
            .iter()
            .map(|(name, kind)| match kind {
                Flag => format!("[--{name}]"),
                Value(p) | Repeated(p) => format!("[--{name} {p}]"),
            })
            .collect();
        let opts = opts.iter().map(String::as_str);
        let inline = self.synopsis.len() == 1;
        let mut rows = Vec::new();
        for (form, help) in self.synopsis.iter().zip(self.help) {
            let words = form
                .split_whitespace()
                .chain(opts.clone().filter(|_| inline));
            let mut form_rows = wrap("  ", std::iter::once(self.name).chain(words));
            if form_rows[form_rows.len() - 1].len() >= HELP_COLUMN {
                form_rows.push(String::new());
            }
            for (i, text) in help.lines().enumerate() {
                if i > 0 {
                    form_rows.push(String::new());
                }
                let row = form_rows.last_mut().expect("one row at least");
                *row = format!("{row:HELP_COLUMN$}{text}");
            }
            rows.extend(form_rows);
        }
        if !inline && !self.opts.is_empty() {
            rows.extend(wrap("         ", std::iter::once("options:").chain(opts)));
        }
        rows.join("\n") + "\n"
    }
}

/// The top-level usage text, rendered from [`COMMANDS`].
pub fn usage() -> String {
    let rows: String = COMMANDS.iter().map(Command::usage).collect();
    format!(
        "elfie — ELFies tool-chain (CGO'21 reproduction)\n\n\
         USAGE: elfie <command> [args]\n\nCOMMANDS:\n{rows}"
    )
}

/// A command line parsed against its command's option table.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    /// Each option given, in order; a flag's value is empty.
    given: Vec<(&'static str, String)>,
    declared: &'static [(&'static str, OptKind)],
}

impl Args {
    /// Parses raw arguments against `cmd`'s option table. An option the
    /// table does not declare, or a value option without a value, is an
    /// error that names the option and shows the command's usage rows.
    pub fn parse(raw: &[String], cmd: &Command) -> Result<Args, CliError> {
        let fail = |what: String| err(format!("{what}\n\n{}", cmd.usage().trim_end()));
        let mut a = Args {
            declared: cmd.opts,
            ..Args::default()
        };
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                a.positional.push(tok.clone());
                continue;
            };
            let Some(&(name, kind)) = cmd.opts.iter().find(|(n, _)| *n == name) else {
                return Err(fail(format!("unknown option `{tok}` for `{}`", cmd.name)));
            };
            let value = match kind {
                Flag => String::new(),
                Value(p) | Repeated(p) => match it.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(fail(format!("option `{tok}` expects a value ({p})"))),
                },
            };
            a.given.push((name, value));
        }
        Ok(a)
    }

    /// How the command declares `name`. Reading an option the table does
    /// not declare, or as another kind, is a bug in the table.
    fn kind(&self, name: &str) -> Option<OptKind> {
        self.declared
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, kind)| kind)
    }

    fn pos(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| err(format!("missing <{what}> argument")))
    }

    fn opt(&self, name: &str) -> Option<&str> {
        debug_assert!(
            matches!(self.kind(name), Some(Value(_))),
            "`--{name}` is not a declared value option"
        );
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
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
        debug_assert!(
            self.kind(name) == Some(Flag),
            "`--{name}` is not a declared flag"
        );
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// Every value of a repeatable option, with comma-lists split
    /// (`--scenario a --scenario b,c` → `[a, b, c]`).
    fn opt_all(&self, name: &str) -> Vec<String> {
        debug_assert!(
            matches!(self.kind(name), Some(Repeated(_))),
            "`--{name}` is not a declared repeated option"
        );
        self.given
            .iter()
            .filter(|(n, _)| *n == name)
            .flat_map(|(_, v)| v.split(','))
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect()
    }
}

/// The `--trace FILE` surface of `validate`, `simulate` and `serve`, and
/// the `--stats-json FILE` one of the first two. A trace always records
/// every event.
struct TraceOpts {
    trace: Option<(PathBuf, Arc<Tracer>)>,
    stats_json_out: Option<PathBuf>,
}

fn write_json_file(path: &Path, doc: &Json) -> Result<(), CliError> {
    let mut text = doc.render_pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| err(format!("write {}: {e}", path.display())))
}

/// Prints `line` on stdout at once: streamed lines (the daemon's
/// readiness line, progress frames, watched snapshots) cannot wait for
/// the final report.
fn print_now(line: &str) {
    use std::io::Write as _;
    println!("{line}");
    let _ = std::io::stdout().flush();
}

/// Appends a one-line note to `report`, on a line of its own.
fn push_note(report: &mut String, note: &str) {
    if !report.ends_with('\n') {
        report.push('\n');
    }
    report.push_str(note);
}

impl TraceOpts {
    /// `--trace` alone: a daemon has no stats document to write.
    fn trace_only(args: &Args) -> TraceOpts {
        let trace = args.opt("trace").map(|path| {
            let tracer = Arc::new(Tracer::new(TraceMode::Full));
            tracer.set_thread_name("main");
            (PathBuf::from(path), tracer)
        });
        TraceOpts {
            trace,
            stats_json_out: None,
        }
    }

    /// `--trace` and `--stats-json`.
    fn parse(args: &Args) -> TraceOpts {
        TraceOpts {
            stats_json_out: args.opt("stats-json").map(PathBuf::from),
            ..TraceOpts::trace_only(args)
        }
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.trace.as_ref().map(|(_, tracer)| tracer)
    }

    /// Writes the Chrome timeline (`--trace`), appending a note to `report`.
    fn write_trace(&self, report: &mut String) -> Result<(), CliError> {
        if let Some((path, tracer)) = &self.trace {
            let data = tracer.collect();
            write_json_file(path, &elfie::trace::chrome_trace(&data))?;
            push_note(
                report,
                &format!(
                    "trace: {} event(s), {} dropped -> {}",
                    data.event_count(),
                    data.dropped,
                    path.display()
                ),
            );
        }
        Ok(())
    }

    /// Writes the timeline and the stats document (`--stats-json`),
    /// appending a one-line note per file to `report`.
    fn finish(&self, report: &mut String, stats_doc: &Json) -> Result<(), CliError> {
        self.write_trace(report)?;
        if let Some(path) = &self.stats_json_out {
            write_json_file(path, stats_doc)?;
            push_note(report, &format!("stats-json -> {}", path.display()));
        }
        Ok(())
    }
}

/// The `<workload>` argument at its `--scale` input size (train by default).
fn workload_arg(args: &Args) -> Result<Workload, CliError> {
    let name = args.pos(0, "workload")?;
    let scale = InputScale::parse(args.opt("scale").unwrap_or("train")).map_err(err)?;
    elfie::workloads::find_workload(name, scale)
        .ok_or_else(|| err(format!("unknown workload `{name}` (try `elfie workloads`)")))
}

/// The `--sysstate DIR` argument, if given.
fn sysstate_arg(args: &Args) -> Result<Option<SysState>, CliError> {
    args.opt("sysstate")
        .map(|dir| SysState::load_dir(Path::new(dir)))
        .transpose()
        .map_err(|e| err(format!("load sysstate: {e}")))
}

/// `elfie workloads` — lists the benchmark suite.
pub fn cmd_workloads(_args: &Args) -> Result<String, CliError> {
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
    Ok(out)
}

/// `elfie record <workload>` — captures a region as a pinball.
pub fn cmd_record(args: &Args) -> Result<String, CliError> {
    let w = workload_arg(args)?;
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
        "{} -> {}",
        elfie::render::capture_line(&pb).trim_end(),
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

/// `elfie sysstate <pinball-dir> <name>` — extracts a pinball's SYSSTATE.
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

/// `elfie pinball2elf <pinball-dir> <name>` — converts a pinball to an ELFie.
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
    opts.sysstate = sysstate_arg(args)?;
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

/// `elfie run <elfie-file>` — runs an ELFie natively.
pub fn cmd_run(args: &Args) -> Result<String, CliError> {
    let path = args.pos(0, "elfie-file")?;
    let bytes = std::fs::read(path).map_err(|e| err(format!("read {path}: {e}")))?;
    let seed = args.opt_u64("seed", 42)?;
    let fuel = args.opt_u64("fuel", 2_000_000_000)?;
    let mut m = Machine::new(MachineConfig {
        seed,
        ..MachineConfig::default()
    });
    if let Some(st) = sysstate_arg(args)? {
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
    match s.reason {
        ExitReason::AllExited(0) => Ok(out),
        reason => Err(failed(format!("the ELFie did not exit 0: {reason:?}"), out)),
    }
}

/// `elfie replay <pinball-dir> <name>` — constrained replay; `--injection 0`
/// replays without injection, as an ELFie runs.
pub fn cmd_replay(args: &Args) -> Result<String, CliError> {
    let pb = load_pinball(args.pos(0, "pinball-dir")?, args.pos(1, "name")?)?;
    let injection = args.opt_u64("injection", 1)? != 0;
    let cfg = if injection {
        ReplayConfig::default()
    } else {
        ReplayConfig::injectionless()
    };
    let s = Replayer::new(cfg).replay(&pb, |_| {});
    let mut out = elfie::render::replay_line(&pb.region.name, &s);
    if let Some(d) = &s.divergence {
        let _ = writeln!(out, "divergence: {d}");
    }
    for (tid, n) in &s.per_thread {
        let _ = writeln!(out, "thread {tid}: {n} instructions");
    }
    match (s.completed, &s.divergence) {
        (true, _) => Ok(out),
        (false, Some(d)) => Err(failed(format!("replay did not complete: {d}"), out)),
        (false, None) => Err(failed("replay did not complete", out)),
    }
}

/// `elfie simpoint <workload>` — PinPoints region selection.
pub fn cmd_simpoint(args: &Args) -> Result<String, CliError> {
    let w = workload_arg(args)?;
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

/// `elfie validate <workload>`
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
    let w = workload_arg(args)?;
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
    let topts = TraceOpts::parse(args);
    let mut engine = BatchValidator::new().with_workers(workers);
    if let Some(dir) = args.opt("store") {
        // The store must get the tracer before the cache takes ownership
        // of it, so lazy fetches and puts land on the timeline too.
        let mut store = Store::open(dir).map_err(|e| err(format!("open store: {e}")))?;
        if let Some(tracer) = topts.tracer() {
            store = store.with_tracer(Arc::clone(tracer));
        }
        engine = engine.with_cache(Arc::new(PipelineCache::new().with_store(store)));
    }
    if let Some(tracer) = topts.tracer() {
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
         L1D miss {}  L2 miss {}  L3 miss {}  dTLB miss {}  mispredicts {}  footprint {} lines\n{}\n",
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
/// interval chain as parent-linked snapshot objects. Returns the report
/// and the run's `--stats-json` document.
fn simulate_pinball_report(
    args: &Args,
    pb: &Pinball,
    sim: &Simulator,
) -> Result<(String, Json), CliError> {
    let shards = args.opt_u64("shards", 1)?.max(1) as usize;
    let interval = args.opt_u64("snapshot-interval", 0)?;
    let snapshot_store = args.opt("snapshot-store");
    if shards <= 1 && interval == 0 && snapshot_store.is_none() {
        let out = elfie::sim::simulate_pinball(pb, sim);
        let mut report = render_sim_outcome(sim, &out);
        let _ = writeln!(report, "replay: {} (serial)", pb.region.name);
        return Ok((report, elfie::render::sim_stats_to_json(&out.fastpath)));
    }
    let cfg = elfie::sim::ShardConfig { shards, interval };
    let out = elfie::sim::simulate_pinball_sharded(pb, sim, &cfg);
    let mut report = render_sim_outcome(sim, &out.outcome);
    let _ = writeln!(
        report,
        "sharded: {} worker(s), {} slice(s), {} snapshot(s) ({} KB), interval {}",
        out.workers,
        out.slices.len(),
        out.snapshots.len(),
        out.snapshot_bytes / 1024,
        cfg.interval_for(pb.region.length),
    );
    let _ = writeln!(
        report,
        "wall: profile {} ms  simulate {} ms (overlaps profile)  stitch {} us",
        out.profile_wall_ns / 1_000_000,
        out.simulate_wall_ns / 1_000_000,
        out.stitch_wall_ns / 1_000,
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
    Ok((
        report,
        elfie::render::sim_stats_to_json(&out.outcome.fastpath),
    ))
}

/// `elfie simulate <elfie-file | pinball-dir name | pinball-bundle>`
///
/// ELFie images go through the unconstrained program path. Pinball input
/// — a pinball directory plus name, or a single `PBAL` bundle file — is
/// simulated via constrained replay, where `--shards`/`--snapshot-interval`
/// switch on sharded intra-region simulation (see `elfie-sim::shard`).
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let path = args.pos(0, "elfie-file")?;
    let topts = TraceOpts::parse(args);
    let mut sim = Simulator::by_name(args.opt("sim").unwrap_or("coresim")).map_err(err)?;
    if let Some(tracer) = topts.tracer() {
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
            let sysstate = sysstate_arg(args)?;
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
    let (mut report, stats_doc) = simulate_pinball_report(args, &pb, &sim)?;
    topts.finish(&mut report, &stats_doc)?;
    Ok(report)
}

/// `elfie snapshot <ls|rm> [...]`
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
        let _ = write!(
            out,
            "  +{:>10.3}us {:>12.3}us  {:<14} {} [{}]",
            s.ts_us - base,
            s.dur_us,
            s.thread,
            s.name,
            s.cat
        );
        if let Some(queue_ns) = s.queue_ns {
            let _ = write!(out, " queue_ns={queue_ns}");
        }
        out.push('\n');
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

/// `elfie disasm <elfie-file>` — disassembles one ELFie section.
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
        elfie::isa::listing(sec.data, sec.addr)
    ))
}

/// `elfie bench <list|run|check>` — the perf-regression harness.
///
/// * `bench list` names every measured scenario.
/// * `bench run` measures the selected scenarios (all by default) and
///   writes/prints an `elfie-bench` v1 document.
/// * `bench check --baseline FILE` re-measures exactly the scenarios
///   recorded in the baseline and gates on noise-aware per-metric
///   tolerance bands; a calibration probe in both documents normalises
///   machine speed. A failed gate is a `CliError` (non-zero exit) unless
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
            } else if !report.passed() {
                return Err(failed("bench check: gate failed", out));
            }
            Ok(out)
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

/// `elfie store <put|get|ls|rm|verify|gc|stats> [...]`
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
            match report.errors.len() {
                0 => Ok(text),
                n => Err(failed(format!("store verify: {n} error(s)"), text)),
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

fn connect_addr(args: &Args) -> &str {
    args.opt("connect").unwrap_or(DEFAULT_SERVE_ADDR)
}

fn serve_client(args: &Args) -> Result<elfie_serve::Client, CliError> {
    elfie_serve::Client::connect(connect_addr(args)).map_err(|e| err(e.to_string()))
}

/// `elfie serve --store DIR`
///
/// Blocks until a client sends `shutdown`, then drains gracefully and
/// returns the lifetime summary. The readiness line is printed *before*
/// blocking so wrappers (CI, scripts) can wait for it; startup failures
/// (unbindable address, unusable store path) come back as one-line
/// [`CliError`]s — never a panic or backtrace. The daemon always
/// records the registry behind `elfie metrics`.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let store = PathBuf::from(
        args.opt("store")
            .ok_or_else(|| err("serve requires --store DIR"))?,
    );
    let listen = args.opt("listen").unwrap_or(DEFAULT_SERVE_ADDR);
    let cfg = elfie_serve::ServeConfig {
        shards: args.opt_u64("shards", 4)?.max(1) as usize,
        queue_depth: args.opt_u64("queue", 64)?.max(1) as usize,
    };
    let topts = TraceOpts::trace_only(args);
    let daemon = elfie_serve::Daemon::bind(listen, &store, cfg, topts.tracer().cloned())
        .map_err(|e| err(e.to_string()))?;
    print_now(&format!(
        "elfie serve: listening on {} (store {}, {} shard(s) x queue {})",
        daemon.local_addr(),
        store.display(),
        cfg.shards,
        cfg.queue_depth
    ));
    let stats = daemon.run();
    let mut out = format!(
        "drained: {} connection(s), {} job(s) done, {} failed, {} shed busy",
        stats.connections, stats.completed, stats.failed, stats.rejected_busy
    );
    topts.write_trace(&mut out)?;
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
    let label = phase.label();
    print_now(&format!("progress: job #{id} shard {shard} {label}"));
}

/// `elfie submit <kind> <workload>`
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

/// `elfie jobs` — lists the daemon's retained jobs; `--watch MS` first
/// streams every phase change seen in an MS-millisecond window as
/// `progress:` lines, then prints the final listing.
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

/// `elfie metrics` — scrapes a serve daemon's metrics registry and
/// renders it in the Prometheus text exposition format. `--watch N` re-scrapes every N seconds forever
/// (Ctrl-C to stop), printing each snapshot as it lands; without it one
/// snapshot is printed and the command exits.
pub fn cmd_metrics(args: &Args) -> Result<String, CliError> {
    let watch = args.opt_u64("watch", 0)?;
    let mut client = serve_client(args)?;
    loop {
        let snap = client.metrics().map_err(|e| err(e.to_string()))?;
        let text = elfie::trace::render_exposition(&snap);
        if watch == 0 {
            return Ok(text);
        }
        print_now(&text);
        std::thread::sleep(std::time::Duration::from_secs(watch.max(1)));
    }
}

/// `elfie ping` — liveness + version/protocol probe.
pub fn cmd_ping(args: &Args) -> Result<String, CliError> {
    let (version, protocol) = serve_client(args)?.ping().map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "pong: elfie-serve {version} (protocol {protocol}) at {}",
        connect_addr(args)
    ))
}

/// `elfie shutdown` — asks the daemon to drain + exit.
pub fn cmd_shutdown(args: &Args) -> Result<String, CliError> {
    let drained = serve_client(args)?
        .shutdown()
        .map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "daemon at {} draining ({drained} job(s) completed)",
        connect_addr(args)
    ))
}

/// Every `elfie` command, in usage order. Each option is declared once,
/// in its command's entry; [`dispatch`] rejects the rest and [`usage`]
/// renders the help text from these entries.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "workloads", synopsis: &[""], run: cmd_workloads,
              help: &["list available benchmarks"],
              opts: &[] },
    Command { name: "record", synopsis: &["<workload>"], run: cmd_record,
              help: &["capture a region as a pinball"],
              opts: &[("scale", Value("test|train|ref")), ("start", Value("N")), ("length", Value("N")),
                      ("out", Value("DIR")), ("regular", Flag), ("store", Value("DIR"))] },
    Command { name: "sysstate", synopsis: &["<dir> <name>"], run: cmd_sysstate,
              help: &["extract SYSSTATE from a pinball"],
              opts: &[("out", Value("DIR"))] },
    Command { name: "pinball2elf", synopsis: &["<dir> <name>"], run: cmd_pinball2elf,
              help: &["convert a pinball to an ELFie"],
              opts: &[("out", Value("FILE")), ("roi", Value("TYPE:TAG")), ("no-graceful", Flag),
                      ("no-callbacks", Flag), ("monitor", Flag), ("object", Flag), ("force", Flag),
                      ("stack-only", Flag), ("sysstate", Value("DIR")),
                      ("linker-script", Value("FILE")), ("startup-asm", Value("FILE"))] },
    Command { name: "run", synopsis: &["<file>"], run: cmd_run,
              help: &["run an ELFie natively"],
              opts: &[("sysstate", Value("DIR")), ("seed", Value("N")), ("fuel", Value("N"))] },
    Command { name: "replay", synopsis: &["<dir> <name>"], run: cmd_replay,
              help: &["constrained replay of a pinball"],
              opts: &[("injection", Value("0|1"))] },
    Command { name: "simpoint", synopsis: &["<workload>"], run: cmd_simpoint,
              help: &["PinPoints region selection"],
              opts: &[("slice", Value("N")), ("warmup", Value("N")), ("maxk", Value("N")),
                      ("scale", Value("S"))] },
    Command { name: "validate", synopsis: &["<workload>"], run: cmd_validate,
              help: &["ELFie-based validation (parallel);\n\
                       --store warm-starts across runs,\n\
                       --trace writes a Perfetto timeline"],
              opts: &[("slice", Value("N")), ("warmup", Value("N")), ("maxk", Value("N")),
                      ("scale", Value("S")), ("seed", Value("N")), ("fuel", Value("N")),
                      ("workers", Value("N")), ("serial", Flag), ("stats", Flag),
                      ("store", Value("DIR")), ("trace", Value("FILE")),
                      ("stats-json", Value("FILE"))] },
    Command { name: "simulate", synopsis: &["<file>", "<pinball-dir> <name> | <bundle-file>"],
              run: cmd_simulate,
              help: &["simulate an ELFie",
                      "simulate a pinball (constrained\n\
                       replay); --shards fans interval\n\
                       slices over a worker pool and\n\
                       stitches a deterministic result"],
              opts: &[("sim", Value("sniper|coresim|coresim-fs|gem5-nehalem|gem5-haswell")),
                      ("sysstate", Value("DIR")), ("shards", Value("N")),
                      ("snapshot-interval", Value("N")), ("snapshot-store", Value("DIR")),
                      ("trace", Value("FILE")), ("stats-json", Value("FILE"))] },
    Command { name: "snapshot", synopsis: &["ls", "rm <name>"], run: cmd_snapshot,
              help: &["list stored interval snapshots\n\
                       with their parent chain links",
                      "drop a snapshot ref (store gc\n\
                       reclaims unreachable deltas)"],
              opts: &[("store", Value("DIR"))] },
    Command { name: "trace", synopsis: &["summarize <file>", "summarize <file>...", "check <file>"],
              run: cmd_trace,
              help: &["roll up a --trace timeline (incl.\n\
                       ring occupancy / dropped events),\n\
                       or render --stats-json to text",
                      "with --request ID: filter one or\n\
                       more chrome traces (client +\n\
                       daemon) down to one correlated\n\
                       request's causal chain",
                      "validate a trace/stats document"],
              opts: &[("request", Value("ID"))] },
    Command { name: "disasm", synopsis: &["<file>"], run: cmd_disasm,
              help: &["disassemble an ELFie section"],
              opts: &[("section", Value("NAME"))] },
    Command { name: "store", synopsis: &["put <path> [<name>]", "get <name>", "ls|verify|gc|stats",
                                         "rm <name>"],
              run: cmd_store,
              help: &["add a pinball dir or file to the\n\
                       content-addressed store",
                      "materialise a stored object",
                      "list / check / sweep / measure",
                      "drop a name (gc reclaims blobs)"],
              opts: &[("store", Value("DIR")), ("out", Value("PATH"))] },
    Command { name: "bench", synopsis: &["list", "run", "check"], run: cmd_bench,
              help: &["name the measured perf scenarios",
                      "measure scenarios into an\n\
                       elfie-bench v1 document",
                      "gate fresh measurements against a\n\
                       checked-in baseline (probe-\n\
                       calibrated tolerance bands);\n\
                       needs --baseline FILE"],
              opts: &[("scenario", Repeated("A[,B]")), ("profile", Value("smoke|full")),
                      ("baseline", Value("FILE")), ("update-baseline", Flag), ("runs", Value("N")),
                      ("out", Value("FILE"))] },
    Command { name: "serve", synopsis: &[""], run: cmd_serve,
              help: &["run the checkpoint-serving daemon\n\
                       (needs --store DIR; default\n\
                       listen 127.0.0.1:4254)"],
              opts: &[("store", Value("DIR")), ("listen", Value("ADDR")), ("shards", Value("N")),
                      ("queue", Value("N")), ("trace", Value("FILE"))] },
    Command { name: "submit", synopsis: &["<kind> <workload>"], run: cmd_submit,
              help: &["run one job on a serve daemon and\n\
                       print its report (kind is one of\n\
                       record|validate|replay|simulate);\n\
                       --follow streams progress lines"],
              opts: &[("connect", Value("ADDR")), ("tenant", Value("NAME")), ("follow", Flag),
                      ("scale", Value("S")), ("slice", Value("N")), ("warmup", Value("N")),
                      ("maxk", Value("N")), ("seed", Value("N")), ("fuel", Value("N")),
                      ("start", Value("N")), ("length", Value("N")), ("sim", Value("NAME")),
                      ("shards", Value("N")), ("interval", Value("N"))] },
    Command { name: "jobs", synopsis: &[""], run: cmd_jobs,
              help: &["list a serve daemon's jobs;\n\
                       --watch streams phase changes\n\
                       for MS milliseconds first"],
              opts: &[("connect", Value("ADDR")), ("watch", Value("MS"))] },
    Command { name: "metrics", synopsis: &[""], run: cmd_metrics,
              help: &["scrape a serve daemon's metrics\n\
                       as Prometheus text exposition\n\
                       (--watch N re-scrapes every N s)"],
              opts: &[("connect", Value("ADDR")), ("watch", Value("N"))] },
    Command { name: "ping", synopsis: &[""], run: cmd_ping,
              help: &["probe a serve daemon's liveness"],
              opts: &[("connect", Value("ADDR"))] },
    Command { name: "shutdown", synopsis: &[""], run: cmd_shutdown,
              help: &["drain and stop a serve daemon"],
              opts: &[("connect", Value("ADDR"))] },
    Command { name: "version", synopsis: &[""], run: cmd_version,
              help: &["print the tool-chain version"],
              opts: &[] },
];

/// Dispatches a command line. Returns the report to print on stdout; a
/// failure's [`CliError::report`] is printed there too. Either report,
/// when not empty, ends in exactly one newline, whatever its handler
/// left at its end, so a script's next line starts on a line of its own.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let frame = |report: String| match report.trim_end_matches('\n') {
        "" => String::new(),
        body => format!("{body}\n"),
    };
    let outcome = match argv.first().map(String::as_str) {
        None => Err(err(usage())),
        Some("help" | "--help" | "-h") => Ok(usage()),
        Some("--version" | "-V") => cmd_version(&Args::default()),
        Some(other) => match COMMANDS.iter().find(|cmd| cmd.name == other) {
            Some(cmd) => Args::parse(&argv[1..], cmd).and_then(|args| (cmd.run)(&args)),
            None => Err(err(format!("unknown command `{other}`\n\n{}", usage()))),
        },
    };
    outcome
        .map(frame)
        .map_err(|e| failed(e.message, frame(e.report)))
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
        let out = cmd_workloads(&Args::default()).unwrap();
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

        // A guest that does not exit 0 fails the command, report intact.
        let e = dispatch(&argv(&format!(
            "run {} --sysstate {} --seed 3 --fuel 1000",
            elfie.display(),
            ssdir.display()
        )))
        .unwrap_err();
        assert!(e.message.contains("did not exit 0"), "{e}");
        assert!(e.report.starts_with("exit: "), "{}", e.report);
        assert!(!e.report.contains("AllExited(0)"), "{}", e.report);
        assert!(e.report.contains("thread 0"), "{}", e.report);

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

    /// True when `report` ends in exactly one newline.
    fn ends_in_one_newline(report: &str) -> bool {
        report.ends_with('\n') && !report.ends_with("\n\n")
    }

    /// A pinball copy of `pb_dir`'s `name` that cannot replay: the page
    /// its first thread starts on is gone from the image.
    fn drop_start_page(pb_dir: &Path, name: &str, out: &Path) {
        let mut pb = Pinball::load_dir(pb_dir, name).expect("load pinball");
        let base = pb.threads[0].regs.rip & !0xfff;
        assert!(
            pb.image.pages.remove(&base).is_some(),
            "no page at {base:#x}"
        );
        pb.save_dir(out).expect("save pinball");
    }

    /// Flips the last byte of one of the store's blobs.
    fn corrupt_one_blob(store: &Path) {
        let mut dirs = vec![store.join("blobs")];
        while let Some(d) = dirs.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let mut bytes = std::fs::read(&path).unwrap();
                    *bytes.last_mut().unwrap() ^= 0xff;
                    std::fs::write(&path, bytes).unwrap();
                    return;
                }
            }
        }
        panic!("no blob under {}", store.display());
    }

    /// The `store_dedup` scenario works in one temp dir per process, so
    /// the tests that run it through `bench` take turns.
    static STORE_DEDUP: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn every_command_report_ends_in_one_newline() {
        let _turn = STORE_DEDUP.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp("contract");
        let p = |name: &str| dir.join(name).display().to_string();
        let (pb, ss, elfie, st, empty) = (p("pb"), p("ss"), p("a.elfie"), p("st"), p("empty"));
        let mut ran = std::collections::BTreeSet::new();
        let mut run = |line: &str| {
            ran.insert(line.split_whitespace().next().unwrap().to_string());
            dispatch(&argv(line))
        };
        let mut lines = vec![
            "workloads".to_string(),
            "version".to_string(),
            "simpoint mcf_like --scale test --slice 5000 --maxk 2".to_string(),
            "validate mcf_like --scale test --slice 5000 --warmup 2000 --maxk 2 \
             --fuel 50000000"
                .to_string(),
            format!(
                "record mcf_like --scale test --start 20000 --length 3000 --out {pb} \
                 --store {}",
                p("rs")
            ),
            format!("sysstate {pb} mcf_like --out {ss}"),
            format!("pinball2elf {pb} mcf_like --out {elfie}"),
            format!(
                "pinball2elf {pb} mcf_like --out {} --object --sysstate {ss}",
                p("a.o")
            ),
            format!("run {elfie} --sysstate {ss}"),
            format!("replay {pb} mcf_like"),
            format!("disasm {elfie}"),
            format!(
                "simulate {elfie} --sim gem5-haswell --sysstate {ss} --trace {} --stats-json {}",
                p("t.json"),
                p("s.json")
            ),
            format!(
                "simulate {pb} mcf_like --shards 2 --snapshot-interval 1000 \
                 --snapshot-store {}",
                p("snaps")
            ),
            format!("simulate {} --sim gem5-haswell", p("pb.pbal")),
            format!("snapshot ls --store {}", p("snaps")),
            format!("snapshot rm snap.mcf_like.0.1 --store {}", p("snaps")),
            format!("snapshot ls --store {empty}"),
            format!("trace summarize {}", p("t.json")),
            format!("trace summarize {}", p("s.json")),
            format!("trace summarize --request 41 {}", p("req.json")),
            format!("trace check {}", p("t.json")),
            format!("trace check {}", p("s.json")),
            format!("store put {pb} mcf_like --store {st}"),
            format!("store put {elfie} --store {st}"),
            format!("store get mcf_like --out {} --store {st}", p("restored")),
            format!("store get a.elfie --out {} --store {st}", p("back.elfie")),
            format!("store rm a.elfie --store {st}"),
            "bench list".to_string(),
            format!(
                "bench run --scenario store_dedup --runs 1 --out {}",
                p("b.json")
            ),
            format!("bench check --baseline {} --runs 1", p("b.json")),
            format!(
                "bench check --baseline {} --runs 1 --update-baseline",
                p("b.json")
            ),
        ];
        for store in [&st, &empty] {
            for sub in ["ls", "verify", "gc", "stats"] {
                lines.push(format!("store {sub} --store {store}"));
            }
        }

        // The region every later line reads, also as a bundle file, and
        // a trace with a tagged span for `trace summarize --request`.
        assert_ok(
            &mut run,
            &format!("record mcf_like --scale test --start 20000 --length 3000 --out {pb}"),
        );
        let pinball = Pinball::load_dir(Path::new(&pb), "mcf_like").unwrap();
        std::fs::write(p("pb.pbal"), pinball.to_bytes()).unwrap();
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        tracer.span("serve", "request").arg("request_id", 41);
        let doc = elfie::trace::chrome_trace(&tracer.collect());
        std::fs::write(p("req.json"), doc.render()).unwrap();
        for line in &lines {
            assert_ok(&mut run, line);
        }

        // The daemon and its client verbs, on a free loopback port.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let serve_line = format!("serve --store {} --listen {addr}", p("served"));
        let serve = std::thread::spawn(move || dispatch(&argv(&serve_line)));
        let ping = format!("ping --connect {addr}");
        let mut tries = 0;
        while dispatch(&argv(&ping)).is_err() {
            tries += 1;
            assert!(tries < 200, "the daemon at {addr} never answered");
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        for line in [
            format!(
                "submit record mcf_like --scale test --start 20000 --length 3000 \
                 --connect {addr}"
            ),
            format!("jobs --connect {addr}"),
            format!("metrics --connect {addr}"),
            ping,
            format!("shutdown --connect {addr}"),
        ] {
            assert_ok(&mut run, &line);
        }
        let drained = serve.join().expect("serve thread").expect("serve");
        assert!(ends_in_one_newline(&drained), "serve: {drained:?}");

        // A failed outcome keeps its report, framed the same way, and
        // says why in one line.
        drop_start_page(Path::new(&pb), "mcf_like", &dir.join("broken"));
        corrupt_one_blob(Path::new(&st));
        for line in [
            format!("run {elfie} --sysstate {ss} --fuel 1000"),
            format!("store verify --store {st}"),
            format!("replay {} mcf_like", p("broken")),
        ] {
            let e = run(&line).expect_err(&line);
            assert!(!e.message.contains('\n'), "{line}: {e}");
            assert!(ends_in_one_newline(&e.report), "{line}: {:?}", e.report);
        }

        // `serve` ran on its own thread, checked when it drained.
        ran.insert("serve".to_string());
        let names: std::collections::BTreeSet<String> =
            COMMANDS.iter().map(|c| c.name.to_string()).collect();
        assert_eq!(ran, names, "every command runs through the contract");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Runs `line` through `run`: it must succeed with a framed report.
    fn assert_ok(run: &mut impl FnMut(&str) -> Result<String, CliError>, line: &str) {
        let out = run(line).unwrap_or_else(|e| panic!("{line}: {e}\n{}", e.report));
        assert!(ends_in_one_newline(&out), "{line}: {out:?}");
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
        // A mistyped `--injection` must not run the constrained replay.
        let e = dispatch(&argv(&format!(
            "replay {} exchange2_like --injecton 0",
            dir.display()
        )))
        .unwrap_err();
        assert!(e.message.contains("unknown option `--injecton`"), "{e}");
        assert!(e.message.contains("[--injection 0|1]"), "{e}");
        // A replay that diverges fails the command, report intact.
        let broken = dir.join("broken");
        drop_start_page(&dir, "exchange2_like", &broken);
        let e = dispatch(&argv(&format!(
            "replay {} exchange2_like",
            broken.display()
        )))
        .unwrap_err();
        assert!(e.message.starts_with("replay did not complete: "), "{e}");
        assert!(
            e.report
                .starts_with("replay exchange2_like.0: completed=false "),
            "{}",
            e.report
        );
        assert!(e.report.contains("\ndivergence: "), "{}", e.report);
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
        assert!(e.message.contains("--store"), "{e}");

        // Store path exists but is a file, not a directory.
        let file = dir.join("not-a-dir");
        std::fs::write(&file, b"x").unwrap();
        let e = dispatch(&argv(&format!(
            "serve --store {} --listen 127.0.0.1:0",
            file.display()
        )))
        .unwrap_err();
        assert!(e.message.starts_with("open store"), "{e}");
        assert!(!e.message.contains('\n'), "one-line diagnostic, got: {e}");

        // Listen address already in use.
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap();
        let e = dispatch(&argv(&format!(
            "serve --store {} --listen {addr}",
            dir.join("store").display()
        )))
        .unwrap_err();
        assert!(e.message.starts_with("bind"), "{e}");
        assert!(!e.message.contains('\n'), "one-line diagnostic, got: {e}");
        std::fs::remove_dir_all(&dir).ok();
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
            assert!(e.message.contains("connect"), "`{verb}` gave {e}");
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
            expected.join("\n") + "\n",
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
        assert_eq!(rendered, vm_block.join("\n") + "\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn simulate_shards_without_an_interval_runs_one_slice_per_shard() {
        let dir = tmp("sim-default-interval");
        let pbdir = dir.join("pb");
        dispatch(&argv(&format!(
            "record gcc_like --scale test --start 20000 --length 6000 --out {}",
            pbdir.display()
        )))
        .expect("record");
        let out = dispatch(&argv(&format!(
            "simulate {} gcc_like --sim gem5-haswell --shards 4",
            pbdir.display()
        )))
        .expect("simulate sharded");
        assert!(
            out.contains("4 worker(s), 4 slice(s), 3 snapshot(s)"),
            "{out}"
        );
        assert!(out.contains("interval 1500\n"), "{out}");
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
        let serial_stats = dir.join("serial.json");
        let out = dispatch(&argv(&format!(
            "simulate {} mcf_like --sim gem5-haswell --stats-json {}",
            pbdir.display(),
            serial_stats.display()
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
        let sharded_stats = dir.join("sharded.json");
        let out = dispatch(&argv(&format!(
            "simulate {} --sim gem5-haswell --shards 4 --snapshot-interval 1000 \
             --snapshot-store {} --stats-json {}",
            bundle.display(),
            storedir.display(),
            sharded_stats.display()
        )))
        .expect("simulate sharded");
        assert!(out.contains("sharded:"), "{out}");
        assert!(out.contains("stored"), "{out}");

        // Both runs write a sim-stats document, not `null`.
        for stats in [&serial_stats, &sharded_stats] {
            let check = dispatch(&argv(&format!("trace check {}", stats.display())))
                .expect("check pinball sim stats");
            assert!(check.contains("elfie-sim-stats"), "{check}");
        }

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
        assert!(e.message.contains("chrome trace"), "{e}");
        std::fs::remove_file(&bogus).ok();
    }

    #[test]
    fn trace_summarize_request_prints_the_queue_wait() {
        let dir = tmp("trace-request");
        let tracer = Arc::new(Tracer::new(TraceMode::Full));
        {
            let mut job = tracer.span_labeled("serve", "job", "validate acme:gcc_like#3");
            job.arg("queue_ns", 2_500);
            job.arg("request_id", 41);
        }
        {
            let mut request = tracer.span("serve", "request");
            request.arg("request_id", 41);
        }
        let tracefile = dir.join("daemon.json");
        let doc = elfie::trace::chrome_trace(&tracer.collect());
        std::fs::write(&tracefile, doc.render()).unwrap();
        let out = dispatch(&argv(&format!(
            "trace summarize --request 41 {}",
            tracefile.display()
        )))
        .expect("summarize --request");
        let line = |name: &str| {
            out.lines()
                .find(|l| l.contains(name))
                .unwrap_or_else(|| panic!("no {name} line: {out}"))
        };
        assert!(
            line("job validate acme:gcc_like#3").ends_with("[serve] queue_ns=2500"),
            "{out}"
        );
        assert!(!line(" request [serve]").contains("queue_ns"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
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
        assert!(e.message.contains("no spans tagged"), "{e}");
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
        let _turn = STORE_DEDUP.lock().unwrap_or_else(|e| e.into_inner());
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
        assert!(!e.message.contains('\n'), "{e}");
        assert!(
            e.report.contains("FAIL store_dedup/physical_bytes"),
            "{}",
            e.report
        );
        assert!(e.report.contains("--update-baseline"), "{}", e.report);

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

    /// A command whose table covers every option kind.
    const TEST_CMD: Command = Command {
        name: "t",
        synopsis: &["<a> <b>"],
        help: &["a test command"],
        opts: &[
            ("num", Value("N")),
            ("flag", Flag),
            ("name", Value("S")),
            ("list", Repeated("A[,B]")),
        ],
        run: |_| Ok(String::new()),
    };

    #[test]
    fn args_parser_handles_options_and_flags() {
        let a = Args::parse(
            &argv("pos1 --num 5 --flag pos2 --name value --num 7 --list a,b --list c"),
            &TEST_CMD,
        )
        .unwrap();
        assert_eq!(a.pos(0, "x").unwrap(), "pos1");
        assert_eq!(a.pos(1, "x").unwrap(), "pos2");
        assert_eq!(a.opt_u64("num", 0).unwrap(), 7, "the last value wins");
        assert!(a.flag("flag"));
        assert_eq!(a.opt("name"), Some("value"));
        assert_eq!(a.opt_all("list"), ["a", "b", "c"]);
        assert!(a.pos(2, "x").is_err());
        assert!(a.opt_u64("name", 0).is_err(), "non-integer option");

        // An undeclared option, a trailing value option and a value
        // option followed by another option are errors that name the
        // option and show the command's usage row.
        for (line, named) in [
            ("pos --nmu 5", "unknown option `--nmu` for `t`"),
            ("pos --num", "option `--num` expects a value (N)"),
            ("--name --flag", "option `--name` expects a value (S)"),
        ] {
            let e = Args::parse(&argv(line), &TEST_CMD).unwrap_err();
            assert!(e.message.starts_with(named), "{line}: {e}");
            assert!(
                e.message.ends_with(TEST_CMD.usage().trim_end()),
                "{line}: {e}"
            );
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`--flag` is not a declared value option")]
    fn reading_an_option_as_the_wrong_kind_panics() {
        let a = Args::parse(&argv("--flag"), &TEST_CMD).unwrap();
        let _ = a.opt("flag");
    }

    #[test]
    fn every_command_usage_lists_exactly_its_options() {
        let text = usage();
        assert_eq!(dispatch(&[]).unwrap_err().message, text);
        assert_eq!(dispatch(&argv("help")).unwrap(), text);
        assert!(dispatch(&argv("bogus"))
            .unwrap_err()
            .message
            .ends_with(&text));
        for (i, cmd) in COMMANDS.iter().enumerate() {
            let name = cmd.name;
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != name),
                "`{name}` twice"
            );
            assert_eq!(cmd.synopsis.len(), cmd.help.len(), "`{name}`");
            assert!(
                cmd.synopsis.iter().all(|form| !form.contains("--")),
                "`{name}` names an option outside its table"
            );
            let block = cmd.usage();
            assert!(text.contains(&block), "`{name}` is not in the usage text");
            assert!(
                block.lines().all(|l| l.chars().count() <= LINE_WIDTH),
                "{block}"
            );
            let listed: Vec<&str> = block
                .split("[--")
                .skip(1)
                .map(|rest| rest.split([' ', ']']).next().unwrap())
                .collect();
            let declared: Vec<&str> = cmd.opts.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, declared, "`{name}`:\n{block}");
        }
    }

    #[test]
    fn every_dispatched_command_is_documented_in_usage() {
        let text = usage();
        for cmd in COMMANDS {
            let name = cmd.name;
            assert!(
                text.lines().any(|l| {
                    let l = l.trim_start();
                    l == name || l.starts_with(&format!("{name} "))
                }),
                "command `{name}` is dispatched but missing from the usage text"
            );
        }
    }

    #[test]
    fn every_usage_command_row_names_a_dispatched_command() {
        for line in usage().lines() {
            let Some(rest) = line.strip_prefix("  ") else {
                continue;
            };
            if rest.starts_with(' ') {
                continue; // continuation / help column
            }
            let word = rest.split([' ', '|']).next().unwrap();
            assert!(
                COMMANDS.iter().any(|cmd| cmd.name == word),
                "usage row `{word}` is not a dispatched command"
            );
        }
    }

    #[test]
    fn unknown_and_valueless_options_are_errors() {
        let dir = tmp("reject");
        // An option that belongs to another command.
        let e = dispatch(&argv(&format!(
            "record gcc_like --scale test --out {} --workers 4",
            dir.display()
        )))
        .unwrap_err();
        assert!(e.message.contains("unknown option `--workers`"), "{e}");
        assert!(e.message.contains("  record <workload>"), "{e}");
        // A trailing value option with no value.
        let e = dispatch(&argv(
            "validate gcc_like --scale test --slice 5000 --warmup 2000 --maxk 4 \
             --fuel 50000000 --store",
        ))
        .unwrap_err();
        assert!(
            e.message.contains("option `--store` expects a value"),
            "{e}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_rejects_a_retired_option_before_it_binds() {
        // `--no-telemetry` is gone; it used to swallow `--listen` and
        // leave the daemon on the default port. The command runs on a
        // thread so a daemon that does start fails the test, not hangs it.
        let dir = tmp("serve-retired");
        let store = dir.join("store");
        let line = format!(
            "serve --store {} --no-telemetry --listen 127.0.0.1:4374",
            store.display()
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let serve = std::thread::spawn(move || {
            let _ = tx.send(dispatch(&argv(&line)));
        });
        let e = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("serve must reject the line, not start")
            .unwrap_err();
        serve.join().expect("serve thread");
        assert!(e.message.contains("unknown option `--no-telemetry`"), "{e}");
        assert!(e.message.contains("  serve [--store DIR]"), "{e}");
        assert!(!store.exists(), "the store was opened");
        std::fs::remove_dir_all(&dir).ok();
    }
}
