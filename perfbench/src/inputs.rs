//! Input generation. Everything the program sees is derived from the
//! workload seed: simulator seeds, tracer jitter seeds and the order of
//! operations. The seed never changes an input's make-up (application,
//! ranks, iterations, sampling period), so runs with different seeds do
//! the same amount of work.

use phasefold_model::{prv, DurNs};
use phasefold_simapp::workloads::{amg, cg, fft, md, stencil, synthetic};
use phasefold_simapp::{simulate, Program, SimConfig};
use phasefold_tracer::{trace_run, TracerConfig};

/// SplitMix64 of `seed` and `salt`: independent, reproducible sub-seeds.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`mix`]).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The synthetic 3-phase application, with the middle phase slowed by
/// `slowdown`: the same instructions over `1 + slowdown` the time, with the
/// burst stretched by the slowed phase's growth so the other phases keep
/// their length.
pub fn synthetic_params(iterations: u64, slowdown: f64) -> synthetic::SyntheticParams {
    let mut params = synthetic::SyntheticParams {
        iterations,
        ..Default::default()
    };
    if slowdown > 0.0 {
        let mid = params.phases.len() / 2;
        let total: f64 = params.phases.iter().map(|p| p.rel_duration).sum();
        let grown = total + params.phases[mid].rel_duration * slowdown;
        params.phases[mid].ipc /= 1.0 + slowdown;
        params.phases[mid].rel_duration *= 1.0 + slowdown;
        params.burst_duration_s *= grown / total;
    }
    params
}

/// A simulated, traced run serialized as `.prv` text.
pub struct TraceText {
    /// The `.prv` text.
    pub text: String,
    /// Records in the trace.
    pub records: usize,
}

/// Simulates `program` on `ranks` ranks and traces it at `period`.
pub fn trace_text(program: &Program, ranks: usize, seed: u64, period: DurNs) -> TraceText {
    let out = simulate(
        program,
        &SimConfig {
            ranks,
            seed: mix(seed, 1),
            ..SimConfig::default()
        },
    );
    let tracer = TracerConfig {
        sampling_period: period,
        seed: mix(seed, 2),
        ..TracerConfig::default()
    };
    let trace = trace_run(&program.registry, &out.timelines, &tracer);
    TraceText {
        text: prv::write_trace(&trace),
        records: trace.total_records(),
    }
}

/// The default sampling period of the tracer.
pub fn default_period() -> DurNs {
    TracerConfig::default().sampling_period
}

/// The simapp library, in a fixed order.
pub const APPS: [&str; 6] = ["cg", "stencil", "md", "amg", "fft", "synthetic"];

/// One library application with its default parameters.
pub fn app_program(name: &str) -> Program {
    match name {
        "cg" => cg::build(&cg::CgParams::default()),
        "stencil" => stencil::build(&stencil::StencilParams::default()),
        "md" => md::build(&md::MdParams::default()),
        "amg" => amg::build(&amg::AmgParams::default()),
        "fft" => fft::build(&fft::FftParams::default()),
        _ => synthetic::build(&synthetic::SyntheticParams::default()),
    }
}

/// The record lines of a `.prv` text (header and comment lines dropped).
pub fn record_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// The same trace in other bytes: CRLF line ends and one trailing space on
/// line `variant % lines`. The parser reads it as the same trace, so only a
/// cache keyed on the canonical form can recognise it.
pub fn reencode(text: &str, variant: usize) -> String {
    let lines = text.lines().count().max(1);
    let marked = variant % lines;
    let mut out = String::with_capacity(text.len() + lines + 2);
    for (i, line) in text.lines().enumerate() {
        out.push_str(line);
        if i == marked {
            out.push(' ');
        }
        out.push_str("\r\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = permutation(32, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_eq!(p, permutation(32, 7));
        assert_ne!(p, permutation(32, 8));
    }

    #[test]
    fn reencoded_text_parses_to_the_same_trace() {
        let program = synthetic::build(&synthetic_params(20, 0.0));
        let t = trace_text(&program, 2, 1, default_period());
        let a = reencode(&t.text, 3);
        let b = reencode(&t.text, 4);
        assert_ne!(a, t.text);
        assert_ne!(a, b);
        let parsed = prv::parse_trace(&a).expect("re-encoded text parses");
        assert_eq!(prv::write_trace(&parsed), t.text);
    }

    #[test]
    fn slowdown_stretches_only_the_middle_phase() {
        let base = synthetic_params(10, 0.0);
        let slow = synthetic_params(10, 0.3);
        let phase_s = |p: &synthetic::SyntheticParams, i: usize| {
            let total: f64 = p.phases.iter().map(|ph| ph.rel_duration).sum();
            p.burst_duration_s * p.phases[i].rel_duration / total
        };
        assert!((phase_s(&slow, 0) - phase_s(&base, 0)).abs() < 1e-12);
        assert!((phase_s(&slow, 1) / phase_s(&base, 1) - 1.3).abs() < 1e-9);
    }
}
