//! LoopLynx-rs serving benchmark.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_decode|shared_prefix|sim_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable lines, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. See
//! README.md for the workloads, clocks and metrics.

mod inputs;
mod layers;
mod probe;
mod run;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Correctness failures; empty when every check passed.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch directory for generated inputs, inside the build directory.
fn data_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-data")
}

fn json_number(v: f64) -> String {
    // `{:?}` prints the shortest string that round-trips, with all digits.
    format!("{v:?}")
}

fn print_result(o: &Outcome) {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.errors.is_empty(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Input generation runs in a child process so its memory never shows
    // in the measured process's peak RSS; set-up is timed in fresh
    // children (see `run::SETUP_REPS`).
    if argv.first().map(String::as_str) == Some(run::GEN_FLAG) {
        return match run::gen_checkpoint(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: checkpoint generation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some(run::SETUP_FLAG) {
        return match run::setup_probe(&argv[1..]) {
            Ok(secs) => {
                println!("{secs:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up probe failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <offline_decode|shared_prefix|sim_serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    println!(
        "host: nproc={cores} avx2={avx2} avx512_vnni={}",
        looplynx_tensor::simd::vnni512_available()
    );
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = match args.workload {
        Workload::SimServe => run::sim_serve(args.seed, args.seconds, args.trace),
        w => run::functional(w, args.seed, args.seconds, args.trace, &data_dir()),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        println!("CHECK FAILED: {e}");
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            return ExitCode::FAILURE;
        }
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    print_result(&outcome);
    ExitCode::SUCCESS
}
