//! `serve-analyze-mix`: two keep-alive clients in a closed loop post
//! traces to `POST /v1/analyze`. Each client works through its own traces
//! in episodes: a first send (a miss, since the pool is far larger than
//! the cache), byte-identical repeats (answered by the raw-body memo) and a
//! re-encoded repeat (answered by the canonical cache only). Every ninth
//! trace is a joint episode: both clients send it at the same moment, so
//! one request is coalesced onto the other's analysis.

use crate::daemon::{client_rounds, timed_request, Daemon};
use crate::inputs::{
    app_program, default_period, mix, permutation, reencode, synthetic_params, trace_text, APPS,
};
use crate::layers::{classify, layer_metrics, serve_metrics, AnalyzeTally};
use crate::{repeated_setup, Ctx, Measured, Report};
use phasefold::report::render_report;
use phasefold::{analyze_trace, AnalysisConfig};
use phasefold_model::prv;
use phasefold_serve::Client;
use phasefold_simapp::workloads::synthetic;

/// Result-cache size and shard count the daemon is started with: 4
/// entries per shard, against 72 distinct traces.
pub const DAEMON_ARGS: [&str; 4] = ["--cache-entries", "16", "--cache-shards", "4"];
/// Distinct traces: 6 applications × 2–4 ranks × 4 simulator seeds.
pub const POOL: usize = 72;
/// Every `JOINT_EVERY`-th trace is sent by both clients at once.
const JOINT_EVERY: usize = 9;
/// Byte-identical repeats after each first send.
const RAW_REPEATS: usize = 4;
/// Own episodes between two joint ones.
const OWN_PER_JOINT: usize = 4;

struct PoolTrace {
    text: String,
    reference: String,
}

#[derive(Clone, Copy)]
enum Step {
    Own(usize),
    Joint(usize),
}

struct MixState {
    daemon: Daemon,
    pool: Vec<PoolTrace>,
    plans: [Vec<Step>; 2],
}

fn in_process_report(text: &str) -> Result<String, String> {
    let (trace, _) = prv::parse_trace_lenient(text).map_err(|e| e.to_string())?;
    Ok(render_report(
        &analyze_trace(&trace, &AnalysisConfig::default()),
        &trace.registry,
    ))
}

fn setup(ctx: &Ctx) -> Result<MixState, String> {
    let mut pool = Vec::with_capacity(POOL);
    for i in 0..POOL {
        let program = app_program(APPS[i % APPS.len()]);
        let ranks = 2 + (i / APPS.len()) % 3;
        let t = trace_text(
            &program,
            ranks,
            mix(ctx.seed, 100 + i as u64),
            default_period(),
        );
        let reference = in_process_report(&t.text)?;
        pool.push(PoolTrace {
            text: t.text,
            reference,
        });
    }
    let joint: Vec<usize> = (0..POOL).filter(|i| i % JOINT_EVERY == 0).collect();
    let own: Vec<usize> = (0..POOL).filter(|i| i % JOINT_EVERY != 0).collect();
    let plans = [0, 1].map(|c| {
        let mine: Vec<usize> = own.iter().copied().skip(c).step_by(2).collect();
        let order = permutation(mine.len(), mix(ctx.seed, 7 + c as u64));
        let mut plan = Vec::new();
        for (k, &o) in order.iter().enumerate() {
            plan.push(Step::Own(mine[o]));
            if (k + 1) % OWN_PER_JOINT == 0 {
                plan.push(Step::Joint(joint[(k / OWN_PER_JOINT) % joint.len()]));
            }
        }
        plan
    });
    let dir = ctx.dir.join("daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(&ctx.phasefold, &dir, &DAEMON_ARGS)?;
    // Warm-up: one analysis of a trace outside the pool.
    let warm = trace_text(
        &synthetic::build(&synthetic_params(50, 0.0)),
        2,
        mix(ctx.seed, 99),
        default_period(),
    );
    let reply =
        phasefold_serve::one_shot(daemon.addr(), "POST", "/v1/analyze", warm.text.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
    if reply.status != 200 {
        return Err(format!("warm-up answered {}", reply.status));
    }
    Ok(MixState {
        daemon,
        pool,
        plans,
    })
}

/// One client's share of a loop.
#[derive(Default)]
struct ClientRun {
    m: Measured,
    seen: AnalyzeTally,
    miss: Vec<f64>,
    hit: Vec<f64>,
}

/// Rounds before the daemon's peak RSS is read: every trace of the pool
/// has been analyzed and evicted at least once by then.
const FIXED_ROUNDS: usize = 2;

/// Runs whole rounds of both plans until `seconds` have passed; returns
/// the merged loop (with the daemon's peak RSS after [`FIXED_ROUNDS`]
/// rounds) and the number of the next round (re-encodings stay distinct
/// across calls through `first_round`).
fn run_loop(
    state: &MixState,
    seconds: f64,
    traced: bool,
    first_round: usize,
    clients: &mut [Option<Client>; 2],
) -> (ClientRun, usize) {
    let addr = state.daemon.addr();
    let rounds = client_rounds(
        &state.daemon,
        clients,
        seconds,
        first_round,
        FIXED_ROUNDS,
        |c, client, round, run: &mut ClientRun, barrier| {
            let mut send = |run: &mut ClientRun, i: usize, body: &[u8], kind: u8| {
                let (ms, reply) = timed_request(client, addr, "POST", "/v1/analyze", body);
                let x_cache = reply
                    .as_ref()
                    .ok()
                    .and_then(|r| r.header("x-cache"))
                    .map(str::to_string);
                let outcome = classify(reply, &state.pool[i].reference, ms, kind, &mut run.seen);
                if outcome.is_ok() {
                    run.m.latencies.push(ms);
                    match x_cache.as_deref() {
                        Some("miss") => run.miss.push(ms),
                        Some("hit") => run.hit.push(ms),
                        _ => {}
                    }
                    if traced {
                        let span = match x_cache.as_deref() {
                            Some("miss") => "POST /v1/analyze (miss)",
                            Some("hit") => "POST /v1/analyze (hit)",
                            _ => "POST /v1/analyze (coalesced)",
                        };
                        run.m.spans.push((span, ms));
                    }
                }
                run.m.record(outcome);
            };
            let plan = &state.plans[c];
            for (k, step) in plan.iter().enumerate() {
                match *step {
                    Step::Own(i) => {
                        let raw = state.pool[i].text.as_bytes();
                        send(run, i, raw, 0);
                        for _ in 0..RAW_REPEATS {
                            send(run, i, raw, 1);
                        }
                        let variant = (round * 2 + c) * plan.len() + k;
                        send(run, i, reencode(&state.pool[i].text, variant).as_bytes(), 2);
                    }
                    Step::Joint(j) => {
                        barrier.wait();
                        send(run, j, state.pool[j].text.as_bytes(), 0);
                        send(run, j, state.pool[j].text.as_bytes(), 1);
                    }
                }
            }
        },
    );
    let mut total = ClientRun::default();
    for run in rounds.outputs {
        total.m.merge(run.m);
        total.seen.merge(run.seen);
        total.miss.extend(run.miss);
        total.hit.extend(run.hit);
    }
    total.m.window_s = rounds.window_s;
    total.m.peak_rss_mib = rounds.peak_rss_mib;
    (total, rounds.next_round)
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (state, setup_s) = repeated_setup(
        || setup(ctx),
        |s: MixState| {
            let _ = s.daemon.stop();
        },
    )?;
    let mut report = Report::new(setup_s);
    let bytes: Vec<usize> = state.pool.iter().map(|p| p.text.len()).collect();
    report.note(format!(
        "pool: {POOL} traces of {} applications at 2-4 ranks, {}..{} bytes; cache 16 entries in 4 shards; \
         per own episode 1 first send + {RAW_REPEATS} byte-identical + 1 re-encoded repeat; every {JOINT_EVERY}th trace joint",
        APPS.len(),
        bytes.iter().min().unwrap_or(&0),
        bytes.iter().max().unwrap_or(&0)
    ));
    // One keep-alive connection per client for the whole run, so both
    // halves of a traced run reach the daemon through the same sockets.
    let mut clients = [state.daemon.connect().ok(), state.daemon.connect().ok()];
    let result = if ctx.traced {
        let (untraced, rounds) = run_loop(&state, ctx.seconds / 2.0, false, 0, &mut clients);
        let (traced, _) = run_loop(&state, ctx.seconds / 2.0, true, rounds, &mut clients);
        let mut seen = untraced.seen;
        seen.merge(traced.seen);
        // The probes open connections of their own: close the clients'.
        clients = [None, None];
        let serve = serve_metrics(&state.daemon, &seen);
        let texts: Vec<&str> = state.pool[..APPS.len()]
            .iter()
            .map(|p| p.text.as_str())
            .collect();
        let batches = crate::stream::batches(texts[0]);
        layer_metrics(&ctx.dir, &texts, None, &batches, |_| Ok(serve))
            .map(|layers| report.per_layer(untraced.m, traced.m, layers))
    } else {
        let (run, rounds) = run_loop(&state, ctx.seconds, false, 0, &mut clients);
        report.note(format!(
            "{rounds} rounds; peak RSS read after {FIXED_ROUNDS}"
        ));
        report.detail("miss_p50_ms", &run.miss);
        report.detail("hit_p50_ms", &run.hit);
        report.end_to_end(run.m, Some(("latency_p99_ms", 0.99)));
        Ok(())
    };
    drop(clients);
    state.daemon.stop()?;
    result?;
    Ok(report)
}
