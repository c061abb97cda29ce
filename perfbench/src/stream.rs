//! `stream-ingest-wal`: two keep-alive clients, each owning one streaming
//! session on a daemon run with `--durability wal`, post fixed-size record
//! batches of a synthetic multi-rank trace; every eighth operation reads
//! the session's phases instead. A round streams the whole trace into a
//! fresh session, reads its final phases and deletes it.

use crate::checks::{check_ack, check_final_phases, json_field};
use crate::daemon::{client_rounds, timed_request, Daemon};
use crate::inputs::{default_period, mix, record_lines, synthetic_params, trace_text};
use crate::layers::{layer_metrics, probe_analyze};
use crate::stats::OpError;
use crate::{repeated_setup, Ctx, Measured, Report, STREAM_BATCH_LINES};
use phasefold_serve::Client;
use phasefold_simapp::workloads::synthetic;

/// Ranks and iterations of the streamed trace.
pub const STREAM_RANKS: usize = 4;
pub const STREAM_ITERATIONS: u64 = 1000;
/// Every `SNAPSHOT_EVERY`-th operation is a `GET …/phases`.
const SNAPSHOT_EVERY: usize = 8;

/// The record lines of `text` in batches of [`STREAM_BATCH_LINES`].
pub fn batches(text: &str) -> Vec<String> {
    record_lines(text)
        .chunks(STREAM_BATCH_LINES)
        .map(|c| c.join("\n") + "\n")
        .collect()
}

struct StreamState {
    daemon: Daemon,
    text: String,
    records: usize,
    batches: Vec<String>,
}

fn stream_text(seed: u64) -> crate::inputs::TraceText {
    let program = synthetic::build(&synthetic_params(STREAM_ITERATIONS, 0.0));
    trace_text(&program, STREAM_RANKS, seed, default_period())
}

fn setup(ctx: &Ctx) -> Result<StreamState, String> {
    let t = stream_text(mix(ctx.seed, 300));
    let batches = batches(&t.text);
    let dir = ctx.dir.join("daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let state_dir = dir.join("state");
    let state_arg = state_dir.to_string_lossy().into_owned();
    let daemon = Daemon::start(
        &ctx.phasefold,
        &dir,
        &["--durability", "wal", "--state-dir", &state_arg],
    )?;
    // Warm-up: one acknowledged batch in a session of its own.
    let reply = phasefold_serve::one_shot(
        daemon.addr(),
        "POST",
        "/v1/streams/warmup/records",
        batches[0].as_bytes(),
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    check_ack(&reply.text(), batches[0].lines().count()).map_err(|e| format!("warm-up: {e}"))?;
    let _ = phasefold_serve::one_shot(daemon.addr(), "DELETE", "/v1/streams/warmup", b"");
    Ok(StreamState {
        daemon,
        text: t.text,
        records: t.records,
        batches,
    })
}

/// One client's share of a loop.
#[derive(Default)]
struct ClientRun {
    m: Measured,
    snapshots: Vec<f64>,
}

/// Checks one reply; `lines` is the batch size for a post, `None` for a
/// snapshot (`final_snapshot` adds the structure check).
fn check(
    reply: Result<phasefold_serve::Response, String>,
    lines: Option<usize>,
    final_snapshot: bool,
) -> Result<(), OpError> {
    let r = reply.map_err(OpError::Failed)?;
    if r.status != 200 {
        return Err(OpError::Failed(format!(
            "status {}: {}",
            r.status,
            r.text().trim()
        )));
    }
    let body = r.text();
    match lines {
        Some(n) => check_ack(&body, n),
        None if final_snapshot => check_final_phases(&body, 1, 3),
        None => json_field(&body, "bursts_seen")
            .map(|_| ())
            .ok_or_else(|| format!("snapshot without bursts_seen: {body:?}")),
    }
    .map_err(OpError::Wrong)
}

/// Rounds before the daemon's peak RSS is read. Its resident memory
/// grows with the sessions it has served, so the peak is read after a
/// fixed number of them, not at the end of a run of unknown throughput.
const FIXED_ROUNDS: usize = 16;

/// Runs whole rounds until `seconds` have passed: in each, each client
/// streams the trace into a fresh session, reads its final phases and
/// deletes it. Returns the merged loop (with the daemon's peak RSS after
/// [`FIXED_ROUNDS`] rounds), the snapshot latencies and the number of the
/// next round.
fn run_loop(
    state: &StreamState,
    seconds: f64,
    traced: bool,
    first_round: usize,
    clients: &mut [Option<Client>; 2],
) -> (Measured, Vec<f64>, usize) {
    let addr = state.daemon.addr();
    let rounds = client_rounds(
        &state.daemon,
        clients,
        seconds,
        first_round,
        FIXED_ROUNDS,
        |c, client, round, run: &mut ClientRun, _| {
            let base = format!("/v1/streams/c{c}r{round}");
            let (records, phases) = (format!("{base}/records"), format!("{base}/phases"));
            let mut next = 0;
            let mut op = 0;
            loop {
                let last = next == state.batches.len();
                let snapshot = last || op % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1;
                let (ms, outcome) = if snapshot {
                    let (ms, reply) = timed_request(client, addr, "GET", &phases, b"");
                    (ms, check(reply, None, last))
                } else {
                    let batch = &state.batches[next];
                    let (ms, reply) =
                        timed_request(client, addr, "POST", &records, batch.as_bytes());
                    next += 1;
                    (ms, check(reply, Some(batch.lines().count()), false))
                };
                if outcome.is_ok() {
                    run.m.latencies.push(ms);
                    if snapshot {
                        run.snapshots.push(ms);
                    }
                    if traced {
                        let span = if snapshot {
                            "GET phases"
                        } else {
                            "POST records"
                        };
                        run.m.spans.push((span, ms));
                    }
                }
                run.m.record(outcome);
                op += 1;
                if last {
                    break;
                }
            }
            let _ = timed_request(client, addr, "DELETE", &base, b"");
        },
    );
    let mut m = Measured {
        window_s: rounds.window_s,
        peak_rss_mib: rounds.peak_rss_mib,
        ..Measured::default()
    };
    let mut snapshots = Vec::new();
    for run in rounds.outputs {
        m.merge(run.m);
        snapshots.extend(run.snapshots);
    }
    (m, snapshots, rounds.next_round)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(
        || setup(ctx),
        |s: StreamState| {
            let _ = s.daemon.stop();
        },
    )?;
    let mut report = Report::new(setup_s);
    report.note(format!(
        "stream: synthetic {STREAM_RANKS} ranks x {STREAM_ITERATIONS} iterations, {} records, {} bytes, \
         {} batches of {STREAM_BATCH_LINES} lines, a snapshot every {SNAPSHOT_EVERY} operations",
        state.records,
        state.text.len(),
        state.batches.len()
    ));
    // One keep-alive connection per client for the whole run, so both
    // halves of a traced run reach the daemon through the same sockets.
    let mut clients = [state.daemon.connect().ok(), state.daemon.connect().ok()];
    let result = if ctx.traced {
        let (untraced, _, rounds) = run_loop(&state, ctx.seconds / 2.0, false, 0, &mut clients);
        let (traced, _, _) = run_loop(&state, ctx.seconds / 2.0, true, rounds, &mut clients);
        // The probes open connections of their own: close the clients'.
        clients = [None, None];
        // A second trace of the same make-up for the probe's coalesced send.
        let second = stream_text(mix(ctx.seed, 301));
        let texts = [state.text.as_str(), second.text.as_str()];
        layer_metrics(&ctx.dir, &texts, None, &state.batches, |reports| {
            probe_analyze(
                &state.daemon,
                (texts[0], &reports[0]),
                (texts[1], &reports[1]),
            )
        })
        .map(|layers| report.per_layer(untraced, traced, layers))
    } else {
        let (m, snapshots, rounds) = run_loop(&state, ctx.seconds, false, 0, &mut clients);
        report.note(format!(
            "{rounds} rounds; peak RSS read after {FIXED_ROUNDS}"
        ));
        report.detail("snapshot_p50_ms", &snapshots);
        report.end_to_end(m, Some(("latency_p99_ms", 0.99)));
        Ok(())
    };
    drop(clients);
    state.daemon.stop()?;
    result?;
    Ok(report)
}
