//! The traced run's layer probes. Each layer's public functions are called
//! on the workload's own inputs and timed from outside the layer; counts
//! come from the layer's outputs and the program's existing counters.

use crate::checks::check_report_body;
use crate::daemon::{healthz_rtt_ms, scrape_hist_p50, timed_request, Daemon};
use crate::inputs::reencode;
use crate::stats::{median, Metric, OpError};
use phasefold::report::render_report;
use phasefold::{analyze_trace, AnalysisConfig, OnlineAnalyzer};
use phasefold_cluster::{dbscan, extract_features, suggest_eps, Clustering, DbscanParams};
use phasefold_fleet::{compare_fingerprints, Fingerprint, MatchConfig};
use phasefold_folding::fold_trace;
use phasefold_model::{
    extract_bursts_checked, prv, CounterKind, FaultReport, RankId, Record, Trace,
};
use phasefold_regress::fit_pwlr;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

fn med(xs: &[f64]) -> f64 {
    median(xs).unwrap_or(f64::NAN)
}

/// Runs `analyze_trace` with the program's own instrumentation switched
/// on and returns its `pipeline.build_models` span (ms) and its
/// `dbscan.neighbors_scanned` counter. Model building is ~1% of the
/// analysis of a large SPMD trace, so subtracting the separately timed
/// stages from the whole would leave only noise.
fn instrumented_analyze(trace: &Trace, cfg: &AnalysisConfig) -> (f64, u64) {
    phasefold_obs::reset();
    phasefold_obs::set_enabled(true);
    black_box(analyze_trace(trace, cfg));
    phasefold_obs::set_enabled(false);
    let snap = phasefold_obs::snapshot();
    phasefold_obs::reset();
    let build_ns: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name == "pipeline.build_models")
        .map(|s| s.dur_ns)
        .sum();
    let scanned = snap
        .counters
        .iter()
        .find(|(n, _)| n == "dbscan.neighbors_scanned")
        .map_or(0, |c| c.1);
    (build_ns as f64 / 1e6, scanned)
}

/// Per-layer results of [`probe_pipeline`], plus the in-process report of
/// every input (the reference the serve probes check against).
pub struct PipelineProbe {
    /// `model.*`, `cluster.*`, `folding.*`, `regress.*`, `core.*` (batch
    /// side) and `fleet.*` metrics.
    pub metrics: Vec<Metric>,
    /// `render_report` of each input, in input order.
    pub reports: Vec<String>,
}

/// Times every batch layer on each of `texts` and reports medians per
/// operation. `baseline` is what `fleet.compare` compares against (the
/// first input's fingerprint when `None`).
pub fn probe_pipeline(
    texts: &[&str],
    baseline: Option<&Fingerprint>,
) -> Result<PipelineProbe, String> {
    let cfg = AnalysisConfig::default();
    let cfg_1t = AnalysisConfig {
        threads: Some(1),
        ..AnalysisConfig::default()
    };
    let mut t: [Vec<f64>; 10] = Default::default();
    let [parse, extract, suggest, dbs, fold, fit, render, fingerprint, decode, compare] = &mut t;
    let (mut bursts_n, mut clusters_n, mut scanned_n, mut samples_n) =
        (vec![], vec![], vec![], vec![]);
    let (mut build, mut build_1t, mut inproc) = (vec![], vec![], vec![]);
    let mut reports = Vec::new();
    let mut first_fp: Option<Fingerprint> = None;
    for text in texts {
        let (ms, parsed) = timed(|| prv::parse_trace_lenient(text).map_err(|e| e.to_string()));
        parse.push(ms);
        let (trace, _) = parsed.map_err(|e| format!("probe parse: {e}"))?;
        let mut faults = FaultReport::new();
        let (ms, bursts) =
            timed(|| extract_bursts_checked(&trace, cfg.min_burst_duration, &mut faults));
        extract.push(ms);
        let (ms, (features, eps)) = timed(|| {
            let features = extract_features(&bursts);
            let eps = cfg.cluster.eps.unwrap_or_else(|| {
                suggest_eps(&features.points, cfg.cluster.min_pts, 0.90).max(cfg.cluster.min_eps)
            });
            (features, eps)
        });
        suggest.push(ms);
        let params = DbscanParams {
            eps,
            min_pts: cfg.cluster.min_pts,
        };
        let (ms, result) = timed(|| dbscan(&features.points, &params));
        dbs.push(ms);
        bursts_n.push(bursts.len() as f64);
        clusters_n.push(result.num_clusters as f64);
        let clustering = Clustering {
            labels: result.labels,
            num_clusters: result.num_clusters,
            eps,
            spmd_score: 1.0,
        };
        let (ms, folds) = timed(|| fold_trace(&trace, &bursts, &clustering, &cfg.fold));
        fold.push(ms);
        samples_n.push(folds.iter().map(|f| f.samples).sum::<usize>() as f64);
        let (ms, ()) = timed(|| {
            for f in &folds {
                let profile = f.profile(CounterKind::Instructions);
                if profile.len() >= cfg.min_folded_points {
                    let (xs, ys) = profile.xy();
                    let _ = black_box(fit_pwlr(xs, ys, None, &cfg.pwlr));
                }
            }
        });
        fit.push(ms);
        let (ms, analysis) = timed(|| analyze_trace(&trace, &cfg));
        let (build_ms, scanned) = instrumented_analyze(&trace, &cfg);
        let (build_1t_ms, _) = instrumented_analyze(&trace, &cfg_1t);
        build.push(build_ms);
        build_1t.push(build_1t_ms);
        scanned_n.push(scanned as f64);
        if analysis.clustering.num_clusters != clustering.num_clusters {
            return Err(format!(
                "layer-by-layer clustering found {} clusters, analyze_trace {}",
                clustering.num_clusters, analysis.clustering.num_clusters
            ));
        }
        let (ms_render, report) = timed(|| render_report(&analysis, &trace.registry));
        render.push(ms_render);
        inproc.push(parse.last().unwrap_or(&0.0) + ms + ms_render);
        reports.push(report);
        let (ms, (fp, bytes)) = timed(|| {
            let fp = Fingerprint::from_analysis(&analysis, &trace.registry, "probe", "default");
            let bytes = fp.encode();
            (fp, bytes)
        });
        fingerprint.push(ms);
        let (ms, decoded) = timed(|| Fingerprint::decode(&bytes));
        decode.push(ms);
        decoded.map_err(|e| format!("probe decode: {e}"))?;
        let against = baseline.or(first_fp.as_ref()).unwrap_or(&fp);
        let (ms, _) = timed(|| compare_fingerprints(against, &fp, &MatchConfig::default()));
        compare.push(ms);
        first_fp.get_or_insert(fp);
    }
    let (bm, bm_1t) = (med(&build), med(&build_1t));
    let metrics = vec![
        Metric::new("model.parse_ms", med(parse), "ms"),
        Metric::new("model.extract_ms", med(extract), "ms"),
        Metric::new("model.bursts", med(&bursts_n), "count"),
        Metric::new("cluster.suggest_eps_ms", med(suggest), "ms"),
        Metric::new("cluster.dbscan_ms", med(dbs), "ms"),
        Metric::new("cluster.clusters", med(&clusters_n), "count"),
        Metric::new("cluster.neighbors_scanned", med(&scanned_n), "count"),
        Metric::new("folding.fold_ms", med(fold), "ms"),
        Metric::new("folding.samples", med(&samples_n), "count"),
        Metric::new("regress.fit_pwlr_ms", med(fit), "ms"),
        Metric::new("core.build_models_ms", bm, "ms"),
        Metric::new("core.build_models_1t_ms", bm_1t, "ms"),
        Metric::new("core.pool_speedup", bm_1t / bm, "ratio"),
        Metric::new("core.render_ms", med(render), "ms"),
        Metric::new("core.analyze_inproc_ms", med(&inproc), "ms"),
        Metric::new("fleet.decode_ms", med(decode), "ms"),
        Metric::new("fleet.fingerprint_ms", med(fingerprint), "ms"),
        Metric::new("fleet.compare_ms", med(compare), "ms"),
    ];
    Ok(PipelineProbe { metrics, reports })
}

/// Every layer probe of a traced run: the pipeline probes on `texts`
/// (`baseline` as in [`probe_pipeline`]), then the serve-side metrics that
/// `serve` gives from the in-process report of each text, then the WAL and
/// online layers on `batches` in a scratch file under `dir`.
pub fn layer_metrics(
    dir: &Path,
    texts: &[&str],
    baseline: Option<&Fingerprint>,
    batches: &[String],
    serve: impl FnOnce(&[String]) -> Result<Vec<Metric>, String>,
) -> Result<Vec<Metric>, String> {
    let pipeline = probe_pipeline(texts, baseline)?;
    let serve = serve(&pipeline.reports)?;
    let stream = probe_stream_layers(dir, batches)?;
    Ok(pipeline
        .metrics
        .into_iter()
        .chain(serve)
        .chain(stream)
        .collect())
}

/// Record lines of one batch, grouped into consecutive same-rank runs the
/// way the daemon's stream handler groups them.
fn rank_runs(batch: &str) -> Result<Vec<(RankId, Vec<Record>)>, String> {
    let mut runs: Vec<(RankId, Vec<Record>)> = Vec::new();
    for (i, line) in batch.lines().enumerate() {
        let (rank, record) = prv::parse_record_line(line, i + 1).map_err(|e| e.to_string())?;
        match runs.last_mut() {
            Some((r, v)) if *r == rank => v.push(record),
            _ => runs.push((rank, vec![record])),
        }
    }
    Ok(runs)
}

/// `serve.wal_append_ms` (the fsync floor of the disk under `dir`) and
/// `core.online_push_ms`, both per batch, on the same record batches.
pub fn probe_stream_layers(dir: &Path, batches: &[String]) -> Result<Vec<Metric>, String> {
    let path = dir.join("probe.wal");
    let _ = std::fs::remove_file(&path);
    let mut wal = phasefold_serve::Wal::open(&path, 1).map_err(|e| format!("open wal: {e}"))?;
    let mut appends = Vec::with_capacity(batches.len());
    for b in batches {
        let (ms, r) = timed(|| wal.append(b.as_bytes()));
        r.map_err(|e| format!("wal append: {e}"))?;
        appends.push(ms);
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    let parsed: Vec<_> = batches
        .iter()
        .map(|b| rank_runs(b))
        .collect::<Result<_, _>>()?;
    let mut online = OnlineAnalyzer::new(AnalysisConfig::default(), 64);
    let mut pushes = Vec::with_capacity(batches.len());
    for runs in &parsed {
        let (ms, ()) = timed(|| {
            for (rank, records) in runs {
                online.push_records(*rank, records);
            }
        });
        pushes.push(ms);
    }
    Ok(vec![
        Metric::new("serve.wal_append_ms", med(&appends), "ms"),
        Metric::new("core.online_push_ms", med(&pushes), "ms"),
    ])
}

/// Analyze requests of one probe or mix, by how the daemon answered.
#[derive(Default)]
pub struct AnalyzeTally {
    /// Round trips of byte-identical repeats answered `x-cache: hit`.
    pub raw_hits: Vec<f64>,
    /// Round trips of re-encoded repeats answered `x-cache: hit`.
    pub canonical_hits: Vec<f64>,
    /// Replies answered `x-cache: hit`.
    pub hits: u64,
    /// Replies answered `x-cache: coalesced`.
    pub coalesced: u64,
    /// Replies with status 200.
    pub ok: u64,
}

impl AnalyzeTally {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: AnalyzeTally) {
        self.raw_hits.extend(other.raw_hits);
        self.canonical_hits.extend(other.canonical_hits);
        self.hits += other.hits;
        self.coalesced += other.coalesced;
        self.ok += other.ok;
    }
}

/// The serve-side per-layer metrics from a tally and a `/metrics` scrape.
pub fn serve_metrics(daemon: &Daemon, tally: &AnalyzeTally) -> Vec<Metric> {
    let hists = scrape_hist_p50(
        daemon,
        &[
            "serve.queue_wait",
            "serve.analyze_time",
            "serve.cache_lookup",
        ],
    );
    let ok = tally.ok.max(1) as f64;
    vec![
        Metric::new(
            "serve.healthz_rtt_ms",
            healthz_rtt_ms(daemon, 50).unwrap_or(f64::NAN),
            "ms",
        ),
        Metric::new("serve.hit_raw_rtt_ms", med(&tally.raw_hits), "ms"),
        Metric::new(
            "serve.hit_canonical_rtt_ms",
            med(&tally.canonical_hits),
            "ms",
        ),
        Metric::new("serve.queue_wait_ms", hists[0].unwrap_or(f64::NAN), "ms"),
        Metric::new("serve.analyze_time_ms", hists[1].unwrap_or(f64::NAN), "ms"),
        Metric::new("serve.cache_lookup_ms", hists[2].unwrap_or(f64::NAN), "ms"),
        Metric::new("serve.hit_ratio", tally.hits as f64 / ok, "ratio"),
        Metric::new("serve.coalesced", tally.coalesced as f64 / ok, "ratio"),
    ]
}

/// Drives the analyze path of `daemon` with two bodies the daemon has not
/// seen: a miss, five byte-identical repeats, five re-encoded repeats, and
/// the second body sent by two clients at once. Every reply is checked
/// against the in-process report; the first failed check ends the probe.
pub fn probe_analyze(
    daemon: &Daemon,
    a: (&str, &str),
    b: (&str, &str),
) -> Result<Vec<Metric>, String> {
    let mut seen = AnalyzeTally::default();
    let mut outcomes = Vec::new();
    {
        // Closed before the joint send: at most two connections at a time.
        let mut client = daemon.connect().ok();
        let mut send = |body: &[u8], kind: u8, seen: &mut AnalyzeTally| {
            let (ms, reply) =
                timed_request(&mut client, daemon.addr(), "POST", "/v1/analyze", body);
            classify(reply, a.1, ms, kind, seen)
        };
        outcomes.push(send(a.0.as_bytes(), 0, &mut seen));
        for _ in 0..5 {
            outcomes.push(send(a.0.as_bytes(), 1, &mut seen));
        }
        for v in 0..5 {
            outcomes.push(send(reencode(a.0, 7 + v).as_bytes(), 2, &mut seen));
        }
    }
    let barrier = std::sync::Barrier::new(2);
    let joint: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut c = daemon.connect().ok();
                    barrier.wait();
                    timed_request(&mut c, daemon.addr(), "POST", "/v1/analyze", b.0.as_bytes())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe client panicked"))
            .collect()
    });
    for (ms, reply) in joint {
        outcomes.push(classify(reply, b.1, ms, 0, &mut seen));
    }
    if let Some(Err(e)) = outcomes.into_iter().find(Result::is_err) {
        return Err(format!("analyze probe: {}", e.message()));
    }
    Ok(serve_metrics(daemon, &seen))
}

/// Checks one analyze reply and files it in `seen`. `kind` is 0 for a
/// first send, 1 for a byte-identical repeat, 2 for a re-encoded repeat.
pub fn classify(
    reply: Result<phasefold_serve::Response, String>,
    reference: &str,
    ms: f64,
    kind: u8,
    seen: &mut AnalyzeTally,
) -> Result<(), OpError> {
    let r = reply.map_err(OpError::Failed)?;
    if r.status != 200 {
        return Err(OpError::Failed(format!(
            "status {}: {}",
            r.status,
            r.text().trim()
        )));
    }
    check_report_body(&r.body, reference).map_err(OpError::Wrong)?;
    seen.ok += 1;
    match r.header("x-cache") {
        Some("hit") => {
            seen.hits += 1;
            match kind {
                1 => seen.raw_hits.push(ms),
                2 => seen.canonical_hits.push(ms),
                _ => {}
            }
        }
        Some("coalesced") => seen.coalesced += 1,
        _ => {}
    }
    Ok(())
}
