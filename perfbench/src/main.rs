//! phasefold benchmark: four workloads over the paper's chain (burst
//! extraction, DBSCAN structure detection, folding, piece-wise linear
//! regression) and its three front ends (CLI, `regress-check`, daemon).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --phasefold <bin>
//! ```
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! print the per-layer metrics. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

mod batch;
mod checks;
mod daemon;
mod inputs;
mod layers;
mod mix;
mod stats;
mod stream;

use stats::{median, result_json, tail_percentile, Metric, OpError, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads: the first three in the order `BENCHMARK.json` lists
/// them, then `stream-ingest-wal`, which runs by hand only (its figures
/// move with the host's disk and scheduling by more than any bound the
/// others hold).
const WORKLOADS: [&str; 4] = [
    "analyze-spmd-large",
    "regress-check-fine",
    "serve-analyze-mix",
    "stream-ingest-wal",
];

/// Every per-layer metric a traced run prints, in order.
const PER_LAYER: [&str; 29] = [
    "model.parse_ms",
    "model.extract_ms",
    "model.bursts",
    "cluster.suggest_eps_ms",
    "cluster.dbscan_ms",
    "cluster.clusters",
    "cluster.neighbors_scanned",
    "folding.fold_ms",
    "folding.samples",
    "regress.fit_pwlr_ms",
    "core.build_models_ms",
    "core.build_models_1t_ms",
    "core.pool_speedup",
    "core.render_ms",
    "core.analyze_inproc_ms",
    "core.online_push_ms",
    "fleet.decode_ms",
    "fleet.fingerprint_ms",
    "fleet.compare_ms",
    "serve.healthz_rtt_ms",
    "serve.hit_raw_rtt_ms",
    "serve.hit_canonical_rtt_ms",
    "serve.queue_wait_ms",
    "serve.analyze_time_ms",
    "serve.cache_lookup_ms",
    "serve.hit_ratio",
    "serve.coalesced",
    "serve.wal_append_ms",
    "trace.overhead_ms",
];

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 3;

/// Record lines per streamed batch.
pub const STREAM_BATCH_LINES: usize = 128;

/// What a run was asked to do.
pub struct Ctx {
    workload: String,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// The release `phasefold` binary.
    pub phasefold: PathBuf,
    /// Scratch directory of this run (removed at exit).
    pub dir: PathBuf,
}

/// The measured loop of one run.
#[derive(Default)]
pub struct Measured {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Latency (ms) of every successful operation.
    pub latencies: Vec<f64>,
    /// Seconds the rate is taken over.
    pub window_s: f64,
    /// Spans the traced loop recorded around calls into the program.
    pub spans: Vec<(&'static str, f64)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Latencies by input (batch workloads).
    pub per_input: Vec<Vec<f64>>,
    /// Peak resident set (MiB) of the process running the program, for a
    /// fixed amount of work, so a faster run does not read as more memory.
    pub peak_rss_mib: Option<f64>,
}

impl Measured {
    /// Counts one operation's outcome.
    pub fn record(&mut self, outcome: Result<(), OpError>) {
        self.tally.record(&outcome);
        if let Err(e) = outcome {
            if self.errors.len() < 5 {
                self.errors.push(e.message().to_string());
            }
        }
    }

    /// Folds another client's loop into this one (the window is the
    /// caller's).
    pub fn merge(&mut self, other: Measured) {
        self.tally.merge(&other.tally);
        self.latencies.extend(other.latencies);
        self.spans.extend(other.spans);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn p50(&self) -> f64 {
        median(&self.latencies).unwrap_or(f64::NAN)
    }
}

/// Everything a workload reports.
pub struct Report {
    tally: Tally,
    setup_s: f64,
    metrics: Vec<Metric>,
    detail: Vec<Metric>,
    notes: Vec<String>,
    errors: Vec<String>,
    spans: Vec<(&'static str, f64)>,
}

impl Report {
    /// A report for a run whose median set-up took `setup_s`.
    pub fn new(setup_s: f64) -> Report {
        Report {
            tally: Tally::default(),
            setup_s,
            metrics: Vec::new(),
            detail: Vec::new(),
            notes: Vec::new(),
            errors: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Adds an input-description line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The end-to-end metrics of an untraced loop. `tail` is the
    /// percentile reported (when its tail is long enough) beside the median.
    pub fn end_to_end(&mut self, m: Measured, tail: Option<(&'static str, f64)>) {
        self.metrics = vec![
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("ops_per_s", m.latencies.len() as f64 / m.window_s, "ops/s"),
            Metric::new("latency_p50_ms", m.p50(), "ms"),
            Metric::new("peak_rss_mb", m.peak_rss_mib.unwrap_or(f64::NAN), "MiB"),
        ];
        if let Some((name, q)) = tail {
            match tail_percentile(&m.latencies, q) {
                Some(v) => self.detail.push(Metric::new(name, v, "ms")),
                None => self.notes.push(format!(
                    "{name}: not reported, fewer than 10 of {} samples beyond it",
                    m.latencies.len()
                )),
            }
        }
        self.absorb(m);
    }

    /// The per-layer metrics of a traced run: `layers` from the probes and
    /// the overhead of the traced loop over the untraced one.
    pub fn per_layer(&mut self, untraced: Measured, traced: Measured, layers: Vec<Metric>) {
        let overhead = traced.p50() - untraced.p50();
        self.notes.push(format!(
            "traced loop p50 {:.4} ms vs untraced {:.4} ms ({} and {} operations)",
            traced.p50(),
            untraced.p50(),
            traced.latencies.len(),
            untraced.latencies.len()
        ));
        self.metrics = layers;
        self.metrics
            .push(Metric::new("trace.overhead_ms", overhead, "ms"));
        self.absorb(untraced);
        self.absorb(traced);
    }

    /// Adds a workload-specific metric to the human-readable part.
    pub fn detail(&mut self, name: &'static str, latencies: &[f64]) {
        match median(latencies) {
            Some(v) => self.detail.push(Metric::new(name, v, "ms")),
            None => self.notes.push(format!("{name}: no samples")),
        }
    }

    fn absorb(&mut self, m: Measured) {
        self.tally.merge(&m.tally);
        self.errors.extend(m.errors);
        self.spans.extend(m.spans);
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down all but the last;
/// returns the last state and the median set-up time in seconds.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(S, f64), String> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(s) = state.take() {
            teardown(s);
        }
        let t0 = Instant::now();
        state = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, median(&times).unwrap_or(f64::NAN)))
}

/// The batch workloads' per-layer metrics: the layer probes on the
/// inputs, the analyze path of a daemon started for the probe, and the
/// stream layers on the first input's record lines.
fn batch_layers(ctx: &Ctx, state: &batch::BatchState) -> Result<Vec<Metric>, String> {
    let texts: Vec<&str> = state.inputs.iter().map(|i| i.text.as_str()).collect();
    let baseline = match &state.inputs[0].baseline {
        Some(p) => Some(
            phasefold_fleet::Fingerprint::decode(&std::fs::read(p).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?,
        ),
        None => None,
    };
    let batches = stream::batches(texts[0]);
    layers::layer_metrics(&ctx.dir, &texts, baseline.as_ref(), &batches, |reports| {
        let daemon = daemon::Daemon::start(
            &ctx.phasefold,
            &ctx.dir.join("probe-daemon"),
            &mix::DAEMON_ARGS,
        )?;
        let serve =
            layers::probe_analyze(&daemon, (texts[0], &reports[0]), (texts[1], &reports[1]));
        daemon.stop()?;
        serve
    })
}

fn batch_workload(
    ctx: &Ctx,
    setup: fn(&Ctx) -> Result<batch::BatchState, String>,
) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(|| setup(ctx), drop)?;
    let mut report = Report::new(setup_s);
    let describe = |report: &mut Report, m: &Measured| {
        for (i, input) in state.inputs.iter().enumerate() {
            let p50 = match m.per_input.get(i).and_then(|v| median(v)) {
                Some(ms) => format!("p50 {ms:.2} ms"),
                None => "no answer passed its check".to_string(),
            };
            report.note(format!(
                "input {}: {} bytes, {} records, injected slowdown {:.0}%, {p50}",
                input.path.file_name().unwrap_or_default().to_string_lossy(),
                input.text.len(),
                input.records,
                input.slowdown * 100.0
            ));
        }
    };
    if ctx.traced {
        let untraced = batch::run_batch(&state, ctx.seconds / 2.0, false);
        let traced = batch::run_batch(&state, ctx.seconds / 2.0, true);
        describe(&mut report, &traced);
        let layers = batch_layers(ctx, &state)?;
        report.per_layer(untraced, traced, layers);
    } else {
        let mut m = batch::run_batch(&state, ctx.seconds, false);
        m.peak_rss_mib = Some(batch::peak_rss_round(&state)?);
        describe(&mut report, &m);
        let tail = state.inputs[0]
            .baseline
            .is_some()
            .then_some(("latency_p90_ms", 0.90));
        report.end_to_end(m, tail);
    }
    Ok(report)
}

/// `nproc`, CPU model and the file system holding `dir`.
fn host_shape(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mut fs = ("unknown".to_string(), 0usize);
    for line in std::fs::read_to_string("/proc/self/mountinfo")
        .unwrap_or_default()
        .lines()
    {
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(dash)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        if dir.starts_with(mount) && mount.len() >= fs.1 {
            fs = (
                fields.get(dash + 1).unwrap_or(&"unknown").to_string(),
                mount.len(),
            );
        }
    }
    format!("host: nproc={nproc} cpu=\"{cpu}\" work_dir_fs={}", fs.0)
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let phasefold = PathBuf::from(get("--phasefold")?);
    let dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        traced,
        phasefold,
        dir,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(batch::PEAK_RSS_PROBE) {
        match batch::peak_rss_probe(&args[1..]) {
            Ok(mib) => println!("{mib}"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: create {}: {e}", ctx.dir.display());
        std::process::exit(1);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.traced as u8
    );
    println!("{}", host_shape(&ctx.dir));
    let result = match ctx.workload.as_str() {
        "analyze-spmd-large" => batch_workload(&ctx, batch::setup_spmd),
        "regress-check-fine" => batch_workload(&ctx, batch::setup_fine),
        "serve-analyze-mix" => mix::run(&ctx),
        _ => stream::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);
    let _ = std::fs::remove_dir(".bench_work");
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            std::process::exit(1);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for e in &report.errors {
        println!("failure: {e}");
    }
    if !report.spans.is_empty() {
        let mut names: Vec<&str> = report.spans.iter().map(|s| s.0).collect();
        names.sort_unstable();
        names.dedup();
        println!("traced spans (median ms per call):");
        for name in names {
            let ms: Vec<f64> = report
                .spans
                .iter()
                .filter(|s| s.0 == name)
                .map(|s| s.1)
                .collect();
            println!(
                "  {name:<28} {:>12.4} ms  ({} calls)",
                median(&ms).unwrap_or(f64::NAN),
                ms.len()
            );
        }
    }
    if !report.detail.is_empty() {
        println!("workload detail:");
        print!("{}", stats::render_lines(&report.detail));
    }
    let metrics = if ctx.traced {
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for name in PER_LAYER {
            match report.metrics.iter().find(|m| m.name == name) {
                Some(m) => ordered.push(m.clone()),
                None => {
                    eprintln!("perfbench: per-layer metric {name} was not measured");
                    std::process::exit(1);
                }
            }
        }
        ordered
    } else {
        report.metrics
    };
    println!(
        "{}:",
        if ctx.traced {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", stats::render_lines(&metrics));
    println!(
        "attempted {} failed {}",
        report.tally.attempted, report.tally.failed
    );
    println!("{}", result_json(&report.tally, &metrics));
}
