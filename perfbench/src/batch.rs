//! The batch workloads: one caller in a closed loop, as an analyst running
//! `phasefold analyze` or a CI job running `phasefold regress-check` waits
//! for each answer. Both call the library in-process, the way the CLI does.

use crate::checks::{check_boundaries, check_dbscan, check_verdict, BOUNDARY_TOLERANCE};
use crate::daemon::peak_rss_mib;
use crate::inputs::{default_period, mix, synthetic_params, trace_text};
use crate::stats::OpError;
use crate::{Ctx, Measured};
use phasefold::report::{render_report, suggest_optimization};
use phasefold::{try_analyze_trace, Analysis, AnalysisConfig};
use phasefold_cluster::extract_features;
use phasefold_fleet::{compare_fingerprints, render_verdict, Fingerprint, MatchConfig};
use phasefold_model::{extract_bursts_checked, prv, DurNs, FaultReport, Trace};
use phasefold_simapp::workloads::synthetic;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `analyze-spmd-large`: ranks, iterations and distinct traces.
pub const SPMD_RANKS: usize = 8;
pub const SPMD_ITERATIONS: u64 = 1000;
pub const SPMD_INPUTS: usize = 3;

/// `regress-check-fine`: ranks, iterations, sampling period, and the
/// number of candidates at each slowdown.
pub const FINE_RANKS: usize = 4;
pub const FINE_ITERATIONS: u64 = 200;
pub const FINE_PERIOD_US: u64 = 100;
pub const FINE_CANDIDATES: u64 = 3;
/// Injected slowdown of the middle phase in the slowed candidates.
pub const SLOWDOWN: f64 = 0.3;
/// Seed of the baseline the slowed candidates are checked against, fixed
/// whatever `--seed` is. Its trace forms one cluster, so the matcher pairs
/// its main cluster with the candidate's; the fault below needs a second,
/// start-up cluster in the baseline.
pub const REFERENCE_SEED: u64 = 1;
/// Seed of the reproduction pair, fixed whatever `--seed` is: its baseline
/// holds a 4-burst start-up cluster beside the main one, and the 30%
/// slower candidate is matched to that small cluster, so the check reads
/// the regression as clean (a fault in the fleet cluster matcher).
pub const FAULT_SEED: u64 = 118;

/// One input file with what its answer must satisfy.
pub struct BatchInput {
    /// The `.prv` file.
    pub path: PathBuf,
    /// The `.prv` text (for the traced run's layer probes).
    pub text: String,
    /// Records in the trace.
    pub records: usize,
    /// True interior phase boundaries of the dominant cluster.
    pub truth: Vec<f64>,
    /// Injected slowdown of the middle phase.
    pub slowdown: f64,
    /// The stored baseline fingerprint (`regress-check-fine` only).
    pub baseline: Option<PathBuf>,
    /// The answer is known to be wrong because of a program fault; a wrong
    /// answer counts as failed, not as incorrect.
    pub known_fault: bool,
}

/// A set-up batch workload: its inputs, visited in this order every round.
pub struct BatchState {
    pub inputs: Vec<BatchInput>,
}

fn write_input(
    ctx: &Ctx,
    name: &str,
    params: &synthetic::SyntheticParams,
    ranks: usize,
    seed: u64,
    period: DurNs,
    slowdown: f64,
) -> Result<BatchInput, String> {
    let program = synthetic::build(params);
    let t = trace_text(&program, ranks, seed, period);
    let path = ctx.dir.join(name);
    std::fs::write(&path, &t.text).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(BatchInput {
        path,
        text: t.text,
        records: t.records,
        truth: synthetic::true_boundaries(params),
        slowdown,
        baseline: None,
        known_fault: false,
    })
}

/// Generates the `analyze-spmd-large` traces and runs one untimed warm-up
/// analysis.
pub fn setup_spmd(ctx: &Ctx) -> Result<BatchState, String> {
    let params = synthetic_params(SPMD_ITERATIONS, 0.0);
    let inputs = (0..SPMD_INPUTS)
        .map(|i| {
            let seed = mix(ctx.seed, 10 + i as u64);
            write_input(
                ctx,
                &format!("spmd-{i}.prv"),
                &params,
                SPMD_RANKS,
                seed,
                default_period(),
                0.0,
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    analyze_op(&inputs[0].path, &mut Laps::new(false))?;
    Ok(BatchState { inputs })
}

/// A `regress-check-fine` trace: the synthetic application with the middle
/// phase slowed by `slowdown`. A slowed run has fewer, longer iterations,
/// so every trace spans the same time and costs the same to check.
fn fine_input(ctx: &Ctx, name: &str, seed: u64, slowdown: f64) -> Result<BatchInput, String> {
    let stretch =
        synthetic_params(1, slowdown).burst_duration_s / synthetic_params(1, 0.0).burst_duration_s;
    let params = synthetic_params((FINE_ITERATIONS as f64 / stretch).round() as u64, slowdown);
    write_input(
        ctx,
        name,
        &params,
        FINE_RANKS,
        seed,
        DurNs::from_micros(FINE_PERIOD_US),
        slowdown,
    )
}

/// Analyzes the trace of `base` and stores its fingerprint as `name`.
fn store_baseline(ctx: &Ctx, base: &BatchInput, name: &str) -> Result<PathBuf, String> {
    let trace = prv::parse_trace(&base.text).map_err(|e| e.to_string())?;
    let analysis =
        try_analyze_trace(&trace, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    let frame =
        Fingerprint::from_analysis(&analysis, &trace.registry, "baseline", "default").encode();
    let path = ctx.dir.join(name);
    std::fs::write(&path, frame).map_err(|e| format!("write baseline: {e}"))?;
    Ok(path)
}

/// A `regress-check-fine` candidate checked against the stored `baseline`.
fn candidate(
    ctx: &Ctx,
    name: &str,
    seed: u64,
    slowdown: f64,
    baseline: &Path,
) -> Result<BatchInput, String> {
    let mut c = fine_input(ctx, name, seed, slowdown)?;
    c.baseline = Some(baseline.to_path_buf());
    Ok(c)
}

/// Generates the `regress-check-fine` inputs: candidates without slowdown
/// against a baseline from `--seed`, alternating with 30% slower
/// candidates against the fixed reference baseline, then the fixed
/// reproduction pair of the cluster-matching fault. Runs one untimed
/// warm-up check.
pub fn setup_fine(ctx: &Ctx) -> Result<BatchState, String> {
    let baseline = store_baseline(
        ctx,
        &fine_input(ctx, "baseline.prv", mix(ctx.seed, 20), 0.0)?,
        "baseline.pffp",
    )?;
    let reference = store_baseline(
        ctx,
        &fine_input(ctx, "reference.prv", mix(REFERENCE_SEED, 20), 0.0)?,
        "reference.pffp",
    )?;
    let mut inputs = Vec::new();
    for j in 0..FINE_CANDIDATES {
        let (clean, slow) = (format!("candidate-{j}.prv"), format!("slowed-{j}.prv"));
        inputs.push(candidate(
            ctx,
            &clean,
            mix(ctx.seed, 30 + j),
            0.0,
            &baseline,
        )?);
        inputs.push(candidate(
            ctx,
            &slow,
            mix(ctx.seed, 40 + j),
            SLOWDOWN,
            &reference,
        )?);
    }
    let fault_base = fine_input(ctx, "fault-baseline.prv", mix(FAULT_SEED, 20), 0.0)?;
    let fault_base = store_baseline(ctx, &fault_base, "fault-baseline.pffp")?;
    let mut fault = candidate(
        ctx,
        "fault-candidate.prv",
        mix(FAULT_SEED, 31),
        SLOWDOWN,
        &fault_base,
    )?;
    fault.known_fault = true;
    inputs.push(fault);
    regress_op(&baseline, &inputs[0].path, &mut Laps::new(false))?;
    Ok(BatchState { inputs })
}

/// The answer of one `analyze` operation.
pub struct Analyzed {
    report: String,
    trace: Trace,
    analysis: Analysis,
}

/// Spans around each call into a layer, recorded only in traced runs:
/// `mark(name)` closes the span that began at the previous mark.
pub struct Laps {
    on: bool,
    last: Instant,
    /// Closed spans: call name and milliseconds.
    pub spans: Vec<(&'static str, f64)>,
}

impl Laps {
    /// Starts the first span now.
    pub fn new(on: bool) -> Laps {
        Laps {
            on,
            last: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn mark(&mut self, name: &'static str) {
        if self.on {
            let now = Instant::now();
            self.spans
                .push((name, (now - self.last).as_secs_f64() * 1e3));
            self.last = now;
        }
    }
}

/// `phasefold analyze <file>`: read, parse leniently, analyze, render.
pub fn analyze_op(path: &Path, laps: &mut Laps) -> Result<Analyzed, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read: {e}"))?;
    laps.mark("read");
    let (trace, parse_faults) = prv::parse_trace_lenient(&text).map_err(|e| e.to_string())?;
    laps.mark("prv::parse_trace_lenient");
    let mut analysis =
        try_analyze_trace(&trace, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    let mut faults = parse_faults;
    faults.extend(std::mem::take(&mut analysis.faults));
    analysis.faults = faults;
    laps.mark("try_analyze_trace");
    let mut report = render_report(&analysis, &trace.registry);
    if let Some(hint) = suggest_optimization(&analysis, &trace.registry) {
        let _ = writeln!(report, "\nsuggested optimisation target:\n  {hint}");
    }
    laps.mark("render_report");
    Ok(Analyzed {
        report,
        trace,
        analysis,
    })
}

/// The answer of one `regress-check` operation.
pub struct Checked {
    regressed: bool,
    /// Share of the baseline's time in phases the verdict lists as vanished.
    vanished_share: f64,
    text: String,
    analysis: Analysis,
}

/// `phasefold regress-check <baseline.pffp> <candidate.prv>`: decode,
/// parse, analyze, fingerprint, compare; returns the verdict and its text.
pub fn regress_op(baseline: &Path, candidate: &Path, laps: &mut Laps) -> Result<Checked, String> {
    let bytes = std::fs::read(baseline).map_err(|e| format!("read baseline: {e}"))?;
    let base = Fingerprint::decode(&bytes).map_err(|e| format!("bad fingerprint: {e}"))?;
    laps.mark("Fingerprint::decode");
    let text = std::fs::read_to_string(candidate).map_err(|e| format!("read: {e}"))?;
    let trace = prv::parse_trace(&text).map_err(|e| e.to_string())?;
    laps.mark("prv::parse_trace");
    let analysis =
        try_analyze_trace(&trace, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    laps.mark("try_analyze_trace");
    let cand = Fingerprint::from_analysis(
        &analysis,
        &trace.registry,
        &candidate.to_string_lossy(),
        "default",
    );
    laps.mark("Fingerprint::from_analysis");
    let verdict = compare_fingerprints(&base, &cand, &MatchConfig::default());
    let text = render_verdict(&verdict);
    laps.mark("compare_fingerprints");
    Ok(Checked {
        regressed: verdict.regressed,
        vanished_share: verdict.vanished_phases.iter().map(|p| p.time_share).sum(),
        text,
        analysis,
    })
}

/// The boundaries of the dominant cluster against the simulator's truth.
/// (The first burst of every rank differs from the rest, and these few
/// bursts can form a second small cluster; the dominant one carries the
/// phases.)
fn check_dominant(analysis: &Analysis, truth: &[f64]) -> Result<(), String> {
    let model = analysis.dominant_model().ok_or("no phase model")?;
    check_boundaries(model.breakpoints(), truth, BOUNDARY_TOLERANCE)
}

/// Share of the bursts the largest cluster must hold: the SPMD blob.
const BLOB_SHARE: f64 = 0.99;

/// The full check of an `analyze` answer: one cluster holds the blob, its
/// boundaries match the truth, and the clustering is the one a brute-force
/// DBSCAN over the same bursts gives.
fn check_analyzed(a: &Analyzed, truth: &[f64]) -> Result<(), String> {
    let c = &a.analysis.clustering;
    let mut sizes = vec![0usize; c.num_clusters];
    for label in c.labels.iter().flatten() {
        sizes[*label] += 1;
    }
    let largest = sizes.iter().copied().max().unwrap_or(0);
    if (largest as f64) < BLOB_SHARE * c.labels.len() as f64 {
        return Err(format!(
            "no cluster holds {BLOB_SHARE} of the bursts: sizes {sizes:?} of {}",
            c.labels.len()
        ));
    }
    check_dominant(&a.analysis, truth)?;
    let cfg = AnalysisConfig::default();
    let bursts = extract_bursts_checked(&a.trace, cfg.min_burst_duration, &mut FaultReport::new());
    let features = extract_features(&bursts);
    check_dbscan(&features.points, c.eps, cfg.cluster.min_pts, &c.labels)
}

/// An answer of either batch operation.
enum Answer {
    Report(Analyzed),
    Verdict(Checked),
}

impl Answer {
    /// The text a user sees.
    fn text(&self) -> &str {
        match self {
            Answer::Report(a) => &a.report,
            Answer::Verdict(c) => &c.text,
        }
    }

    /// The verdict is checked on every answer; `full` adds the checks made
    /// on the first answer for each input. Only the known fault's own
    /// symptom on its reproduction pair counts as a known fault.
    fn check(&self, input: &BatchInput, full: bool) -> Result<(), OpError> {
        match self {
            Answer::Report(a) if full => check_analyzed(a, &input.truth).map_err(OpError::Wrong),
            Answer::Report(_) => Ok(()),
            Answer::Verdict(c) => {
                if full {
                    check_dominant(&c.analysis, &input.truth).map_err(OpError::Wrong)?;
                }
                check_verdict(
                    c.regressed,
                    input.slowdown,
                    c.vanished_share,
                    input.known_fault,
                )
            }
        }
    }
}

/// Runs whole rounds over the inputs until `seconds` have passed. The
/// first answer for each input gets the full check; later answers must be
/// identical to it. The rate counts time inside the program only.
pub fn run_batch(state: &BatchState, seconds: f64, traced: bool) -> Measured {
    let mut m = Measured::default();
    let mut references: Vec<Option<String>> = vec![None; state.inputs.len()];
    m.per_input = vec![Vec::new(); state.inputs.len()];
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        for (i, (input, reference)) in state.inputs.iter().zip(references.iter_mut()).enumerate() {
            let mut laps = Laps::new(traced);
            let t0 = Instant::now();
            let answer = match &input.baseline {
                None => analyze_op(&input.path, &mut laps).map(Answer::Report),
                Some(base) => regress_op(base, &input.path, &mut laps).map(Answer::Verdict),
            };
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            m.spans.append(&mut laps.spans);
            let outcome = answer.map_err(OpError::Failed).and_then(|a| {
                let check = match reference.as_deref() {
                    Some(r) if r != a.text() => Err(OpError::Wrong(
                        "answer differs from the first answer for this input".into(),
                    )),
                    r => a.check(input, r.is_none()),
                };
                if check.is_ok() && reference.is_none() {
                    *reference = Some(a.text().to_string());
                }
                check
            });
            if outcome.is_ok() {
                m.latencies.push(ms);
                m.per_input[i].push(ms);
                m.window_s += ms / 1e3;
            }
            m.record(outcome);
        }
    }
    m
}

/// The argument that makes the benchmark binary a peak-RSS probe.
pub const PEAK_RSS_PROBE: &str = "--peak-rss-probe";

/// Peak resident memory (MiB) of one round of the workload's operations,
/// run in a fresh process: the `VmHWM` a caller of `phasefold analyze` or
/// `phasefold regress-check` sees. This process's own peak is set by
/// simulating and tracing the inputs during set-up, not by the program.
pub fn peak_rss_round(state: &BatchState) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("peak-RSS probe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg(PEAK_RSS_PROBE);
    for input in &state.inputs {
        cmd.arg(input.baseline.as_deref().unwrap_or(Path::new("-")))
            .arg(&input.path);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("peak-RSS probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(mib) if out.status.success() => Ok(mib),
        _ => Err(format!("peak-RSS probe failed ({}): {text:?}", out.status)),
    }
}

/// The probe process: answers each (baseline or `-`, input) pair of `args`
/// once, unchecked, and returns its own peak RSS in MiB.
pub fn peak_rss_probe(args: &[String]) -> Result<f64, String> {
    if args.is_empty() || !args.len().is_multiple_of(2) {
        return Err("expected (baseline or -, input) pairs".into());
    }
    for pair in args.chunks(2) {
        let (base, input) = (Path::new(&pair[0]), Path::new(&pair[1]));
        let mut laps = Laps::new(false);
        if pair[0] == "-" {
            analyze_op(input, &mut laps)?;
        } else {
            regress_op(base, input, &mut laps)?;
        }
    }
    peak_rss_mib(std::process::id()).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
