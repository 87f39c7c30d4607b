//! Running the workloads: set-up, timed rounds through
//! `serve_gateway_on`, correctness checks and end-to-end metrics.
//!
//! A run serves the workload's whole request set once per round, on a
//! fresh backend each time, until `--seconds` of host time have passed
//! (at least one round; in a traced run, at least one untraced and one
//! traced round). Every round sees the same requests, so pooling rounds
//! only averages timing noise.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use looplynx_core::backend::{FunctionalBackend, InferenceBackend, SamplerSpec, SimBackend};
use looplynx_core::engine::{DistributedGpt2, LoopLynx};
use looplynx_core::router::RingMode;
use looplynx_model::attention::AttnMode;
use looplynx_model::checkpoint;
use looplynx_model::prefix::PrefixIndexStats;
use looplynx_model::{Autoregressive, Gpt2Model, Sampler};
use looplynx_serve::{serve_gateway_on, GatewayReport, GatewayRequest, Terminal, TimeoutPhase};

use crate::inputs::{self, Serving, Workload};
use crate::layers;
use crate::probe::{Gauges, Probe, Record};
use crate::{metric, Metric, Outcome};

/// First argument of the child process that writes a checkpoint.
pub const GEN_FLAG: &str = "--gen-checkpoint";

/// Set-ups timed per run; `setup_s` is their median. Each functional
/// set-up runs in a fresh child process, as a serving process starts: in
/// one long-lived process the allocator's state after earlier set-ups made
/// the time bimodal (10 ms or 28 ms).
const SETUP_REPS: usize = 9;

/// First argument of the child process that times one set-up.
pub const SETUP_FLAG: &str = "--time-setup";

/// Engine constructions per timed `sim_serve` set-up sample: one takes
/// about 70 ns, too little for a single pair of clock reads to resolve.
const SIM_SETUP_BATCH: u32 = 10000;

/// One served round.
pub struct Round {
    pub report: GatewayReport,
    /// Host wall seconds of the `serve_gateway_on` call.
    pub host_s: f64,
    pub traced: bool,
    pub record: Record,
    /// Prefix-cache counters at the end of the round (the backend is
    /// fresh, so these are the round's own).
    pub prefix: Option<PrefixIndexStats>,
}

fn serve_round<B: InferenceBackend + Gauges>(
    backend: B,
    reqs: &[GatewayRequest],
    cfg: &looplynx_serve::GatewayConfig,
    traced: bool,
) -> (Round, Probe<B>) {
    let mut probe = Probe::new(backend, traced);
    probe.start();
    let t = Instant::now();
    let report = serve_gateway_on(&mut probe, reqs, cfg);
    let host_s = t.elapsed().as_secs_f64();
    let prefix = probe.inner().prefix_stats();
    let record = std::mem::take(&mut probe.record);
    (
        Round {
            report,
            host_s,
            traced,
            record,
            prefix,
        },
        probe,
    )
}

/// Whether the round loop is done: enough time, and in a traced run an
/// untraced/traced pair.
fn enough(rounds: usize, started: Instant, seconds: f64, trace: bool) -> bool {
    let min = if trace { 2 } else { 1 };
    rounds >= min
        && (!trace || rounds.is_multiple_of(2))
        && started.elapsed().as_secs_f64() >= seconds
}

/// Writes the workload's checkpoint in a child process; `Drop` removes it.
struct Checkpoint(PathBuf);

impl Drop for Checkpoint {
    fn drop(&mut self) {
        // Best effort: a leftover file only costs disk in the build directory.
        let _ = std::fs::remove_file(&self.0);
    }
}

fn make_checkpoint(w: Workload, seed: u64, dir: &Path) -> Result<Checkpoint, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-{seed}-{}.llxckpt",
        w.name(),
        std::process::id()
    ));
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let ckpt = Checkpoint(path);
    let status = Command::new(exe)
        .arg(GEN_FLAG)
        .arg(&ckpt.0)
        .arg(w.name())
        .arg(seed.to_string())
        .status()
        .map_err(|e| format!("starting checkpoint generation: {e}"))?;
    if !status.success() {
        return Err(format!("checkpoint generation exited with {status}"));
    }
    Ok(ckpt)
}

/// Child-process entry: synthesizes the seeded weights and saves them as
/// an `LLXCKPT1` file. Arguments: `<path> <workload> <seed>`.
pub fn gen_checkpoint(args: &[String]) -> Result<(), String> {
    let [path, workload, seed] = args else {
        return Err(format!("usage: {GEN_FLAG} <path> <workload> <seed>"));
    };
    let w = Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
    let cfg = Serving::of(w).model;
    let model = Gpt2Model::synthetic(&cfg, inputs::weight_seed(seed));
    let path = PathBuf::from(path);
    let tmp = path.with_extension("tmp");
    checkpoint::save(&cfg, model.weights(), &tmp)
        .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

/// Load-to-ready: open the checkpoint, build the paged engine with the
/// prefix cache on, and wrap it as a backend. Returns the backend and the
/// seconds it took.
///
/// The engine runs on the calling thread: on a 2-vCPU guest, keeping both
/// vCPUs busy draws several times more hypervisor steal and made host
/// times swing 2-3x between runs (README.md, "Threading").
fn setup(ckpt: &Path, s: &Serving) -> Result<(FunctionalBackend, f64), String> {
    let t = Instant::now();
    let model = checkpoint::load_model(ckpt).map_err(|e| format!("loading checkpoint: {e}"))?;
    let mut engine = DistributedGpt2::with_paged_slots(
        &model,
        s.nodes,
        RingMode::Exact,
        s.slots,
        s.capacity,
        s.page_tokens,
        s.pages,
    )
    .map_err(|e| format!("partitioning the model: {e}"))?;
    engine.enable_prefix_cache();
    engine.set_threaded(false);
    let backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
    drop(model);
    Ok((backend, t.elapsed().as_secs_f64()))
}

/// Times one load-to-ready set-up in a fresh child process.
fn time_setup_in_child(w: Workload, ckpt: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .arg(SETUP_FLAG)
        .arg(ckpt)
        .arg(w.name())
        .output()
        .map_err(|e| format!("starting the set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe printed {text:?}: {e}"))
}

/// Child-process entry: times one set-up and prints its seconds.
/// Arguments: `<checkpoint> <workload>`.
pub fn setup_probe(args: &[String]) -> Result<f64, String> {
    let [path, workload] = args else {
        return Err(format!("usage: {SETUP_FLAG} <checkpoint> <workload>"));
    };
    let w = Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let (backend, secs) = setup(Path::new(path), &Serving::of(w))?;
    drop(backend);
    Ok(secs)
}

/// Requests attempted and failed per phase.
#[derive(Debug, Default)]
struct Phases {
    offered: usize,
    admission: usize,
    prefill: usize,
    decode: usize,
}

impl Phases {
    fn add(&mut self, report: &GatewayReport) {
        self.offered += report.offered();
        for t in &report.terminals {
            match &t.terminal {
                Terminal::Completed => {}
                Terminal::Rejected(_)
                | Terminal::Cancelled
                | Terminal::TimedOut(TimeoutPhase::Queued) => self.admission += 1,
                Terminal::TimedOut(TimeoutPhase::FirstToken) => self.prefill += 1,
                Terminal::TimedOut(TimeoutPhase::Decode) => self.decode += 1,
                Terminal::Failed(detail) if detail.contains("decode") => self.decode += 1,
                Terminal::Failed(_) => self.prefill += 1,
            }
        }
    }

    fn failed(&self) -> usize {
        self.admission + self.prefill + self.decode
    }

    fn print(&self) {
        let prefill_attempted = self.offered - self.admission;
        println!(
            "requests: admission {}/{} failed, prefill {}/{} failed, decode {}/{} failed",
            self.admission,
            self.offered,
            self.prefill,
            prefill_attempted,
            self.decode,
            prefill_attempted - self.prefill
        );
    }
}

/// Checks every round must pass: conservation and exact output lengths;
/// with `vocab`, also the presence and range of every output token.
fn check_round(
    report: &GatewayReport,
    reqs: &[GatewayRequest],
    vocab: Option<usize>,
    errors: &mut Vec<String>,
) {
    if !report.is_conserved(reqs) {
        errors.push("a request did not reach exactly one terminal state".into());
    }
    let asked: BTreeMap<u64, usize> = reqs
        .iter()
        .map(|g| (g.req.id, g.req.decode_tokens))
        .collect();
    let outputs: BTreeMap<u64, &[u32]> = report
        .serving
        .outputs
        .iter()
        .map(|o| (o.id, o.tokens.as_slice()))
        .collect();
    for r in &report.serving.requests {
        let want = asked.get(&r.id).copied();
        if want != Some(r.decode_tokens) {
            errors.push(format!(
                "request {} produced {} tokens, asked {want:?}",
                r.id, r.decode_tokens
            ));
        }
        if let Some(vocab) = vocab {
            match outputs.get(&r.id) {
                Some(toks)
                    if Some(toks.len()) == want && toks.iter().all(|&t| (t as usize) < vocab) => {}
                Some(_) => errors.push(format!(
                    "request {}: wrong output length or token outside vocab",
                    r.id
                )),
                None => errors.push(format!("request {}: completed without output tokens", r.id)),
            }
        }
    }
}

/// Modelled-time bounds on a `SimBackend` round: no request's first
/// token can beat its own prefill, and no output token can beat a lone
/// decode step at the shortest context it decodes at.
fn check_sim_bounds(report: &GatewayReport, engine: &LoopLynx, errors: &mut Vec<String>) {
    let arch = engine.arch();
    let mut prefill_ms = BTreeMap::new();
    let mut decode_ms = BTreeMap::new();
    let tol = 1.0 - 1e-9;
    for r in &report.serving.requests {
        let p = r.prefill_tokens;
        let floor = *prefill_ms
            .entry(p)
            .or_insert_with(|| engine.simulate_prefill(p).to_millis(arch));
        if r.ttft_ms() < floor * tol {
            errors.push(format!(
                "request {}: modelled TTFT {} ms below its prefill {floor} ms",
                r.id,
                r.ttft_ms()
            ));
        }
        if r.decode_tokens > 1 {
            let floor = *decode_ms
                .entry(p)
                .or_insert_with(|| engine.steady_state_decode_ms(p + 1));
            if r.tpot_ms() < floor * tol {
                errors.push(format!(
                    "request {}: modelled TPOT {} ms below a lone decode step {floor} ms",
                    r.id,
                    r.tpot_ms()
                ));
            }
        }
    }
}

/// Compares a sample of round-one outputs with the token-at-a-time
/// reference model under greedy sampling: the first request that missed
/// the prefix cache, the first that hit it, and the first decoded in a
/// full batch. A hit is required on `shared_prefix`, a full batch on
/// `offline_decode`.
fn check_oracle(
    w: Workload,
    ckpt: &Path,
    attn: AttnMode,
    round: &Round,
    reqs: &[GatewayRequest],
    errors: &mut Vec<String>,
) -> Result<usize, String> {
    let need_hit = w == Workload::SharedPrefix;
    let need_full = w == Workload::OfflineDecode;
    let full_batch = Serving::of(w).slots;
    let rec = &round.record;
    let miss = rec.reused.iter().find(|(_, &r)| r == 0).map(|(&id, _)| id);
    let hit = rec.reused.iter().find(|(_, &r)| r > 0).map(|(&id, _)| id);
    let full = rec
        .max_batch
        .iter()
        .find(|(_, &b)| b >= full_batch)
        .map(|(&id, _)| id);
    for (name, id, needed) in [
        ("prefix miss", miss, true),
        ("prefix hit", hit, need_hit),
        ("full-batch", full, need_full),
    ] {
        if id.is_none() && needed {
            errors.push(format!("oracle sample has no {name} request"));
        }
    }
    let mut ids: Vec<u64> = [miss, hit, full].into_iter().flatten().collect();
    ids.sort_unstable();
    ids.dedup();
    let mut model = checkpoint::load_model(ckpt).map_err(|e| format!("loading oracle: {e}"))?;
    model.set_attn_mode(attn);
    for &id in &ids {
        let req = &reqs[id as usize].req;
        let prompt = req
            .prompt
            .as_deref()
            .ok_or("functional request without a prompt")?;
        model.reset();
        let want = model.generate(prompt, req.decode_tokens, &mut Sampler::greedy());
        if round.report.serving.output_tokens(id) != Some(want.as_slice()) {
            errors.push(format!(
                "request {id}: served tokens differ from the reference model"
            ));
        }
    }
    Ok(ids.len())
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Linear-interpolated percentile (`q` in 0..=1); NaN for no samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A tail percentile is reported only when at least ten samples lie beyond it.
fn check_tail(samples: usize, q: f64, what: &str, errors: &mut Vec<String>) {
    if (samples as f64) * (1.0 - q) < 10.0 - 1e-9 {
        errors.push(format!(
            "{what}: {samples} samples are too few for p{}",
            q * 100.0
        ));
    }
}

/// TTFT, TPOT and goodput of one round's completed requests.
struct Latency {
    ttft: Vec<f64>,
    tpot: Vec<f64>,
    goodput: f64,
}

impl Latency {
    fn of(r: &GatewayReport) -> Self {
        let done = &r.serving.requests;
        Latency {
            ttft: done.iter().map(|m| m.ttft_ms()).collect(),
            tpot: done
                .iter()
                .filter(|m| m.decode_tokens > 1)
                .map(|m| m.tpot_ms())
                .collect(),
            goodput: r.goodput_tok_s(),
        }
    }
}

/// The end-to-end metric set, in `BENCHMARK.json` order. Each latency
/// metric is computed per round and reported as the median over rounds,
/// so a burst of host noise that spans one round moves it less.
fn end_to_end(
    setup_s: &[f64],
    rounds: &[Round],
    peak_rss: f64,
    sim: &GatewayReport,
    errors: &mut Vec<String>,
) -> Vec<Metric> {
    let served: Vec<Latency> = rounds.iter().map(|r| Latency::of(&r.report)).collect();
    let per_round =
        |f: &dyn Fn(&Latency) -> f64| median(&served.iter().map(f).collect::<Vec<f64>>());
    let modelled = Latency::of(sim);
    check_tail(modelled.ttft.len(), 0.95, "modelled TTFT", errors);
    let host: Vec<f64> = rounds.iter().map(|r| r.host_s).collect();
    vec![
        metric("setup_s", "s", median(setup_s)),
        metric("goodput_tok_s", "tok/s", per_round(&|l| l.goodput)),
        metric("ttft_p50_ms", "ms", per_round(&|l| median(&l.ttft))),
        metric("host_s", "s", median(&host)),
        metric("peak_rss_mib", "MiB", peak_rss),
        metric("sim_ttft_p50_ms", "ms", median(&modelled.ttft)),
        metric("sim_ttft_p95_ms", "ms", percentile(&modelled.ttft, 0.95)),
        metric("sim_tpot_p50_ms", "ms", median(&modelled.tpot)),
    ]
}

/// `offline_decode` and `shared_prefix`: the functional backend.
pub fn functional(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let s = Serving::of(w);
    let reqs = inputs::requests(w, seed);
    let gw = s.gateway(reqs.len());
    let t = Instant::now();
    let ckpt = make_checkpoint(w, seed, dir)?;
    println!(
        "inputs: checkpoint written in {:.2} s",
        t.elapsed().as_secs_f64()
    );

    let setup_s = (0..SETUP_REPS)
        .map(|_| time_setup_in_child(w, &ckpt.0))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut attn = AttnMode::default();

    let mut rounds = Vec::new();
    let started = Instant::now();
    while !enough(rounds.len(), started, seconds, trace) {
        let (backend, _) = setup(&ckpt.0, &s)?;
        attn = backend.engine().attn_mode();
        let traced = trace && rounds.len() % 2 == 1;
        let (round, probe) = serve_round(backend, &reqs, &gw, traced);
        drop(probe);
        rounds.push(round);
    }
    let peak_rss = peak_rss_mib()?;

    let mut errors = Vec::new();
    let mut phases = Phases::default();
    for r in &rounds {
        check_round(&r.report, &reqs, Some(s.model.vocab), &mut errors);
        phases.add(&r.report);
    }
    phases.print();
    let t = Instant::now();
    let sampled = check_oracle(w, &ckpt.0, attn, &rounds[0], &reqs, &mut errors)?;
    println!(
        "oracle: {sampled} sampled requests compared with the reference model in {:.2} s",
        t.elapsed().as_secs_f64()
    );
    drop(ckpt);

    // The same requests on the modelled accelerator, all queued at t = 0:
    // the timing model has no prefix cache and prefills a token per weight
    // pass, so the open-loop rate of `shared_prefix` would overload it.
    let engine =
        LoopLynx::new(s.model.clone(), s.arch()).map_err(|e| format!("timing engine: {e}"))?;
    let offline: Vec<GatewayRequest> = reqs
        .iter()
        .cloned()
        .map(|mut g| {
            g.req.arrival_ms = 0.0;
            g
        })
        .collect();
    let t = Instant::now();
    let (sim, _) = serve_round(SimBackend::new(&engine), &offline, &gw, trace);
    println!("modelled replay: {:.2} s", t.elapsed().as_secs_f64());
    check_round(&sim.report, &offline, None, &mut errors);
    check_sim_bounds(&sim.report, &engine, &mut errors);
    println!("rounds: {}", rounds.len());

    let metrics = if trace {
        layers::per_layer(&s.model, &rounds, std::slice::from_ref(&sim))
    } else {
        end_to_end(&setup_s, &rounds, peak_rss, &sim.report, &mut errors)
    };
    Ok(Outcome {
        attempted: phases.offered,
        failed: phases.failed(),
        errors,
        metrics,
    })
}

/// `sim_serve`: the gateway over the timing model of GPT-2 medium.
pub fn sim_serve(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let s = Serving::of(Workload::SimServe);
    let reqs = inputs::requests(Workload::SimServe, seed);
    let gw = s.gateway(reqs.len());
    let arch = s.arch();

    let setup_s: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..SIM_SETUP_BATCH {
                let engine = LoopLynx::new(black_box(s.model.clone()), black_box(arch.clone()))
                    .expect("GPT-2 medium partitions over the paper ring");
                black_box(SimBackend::new(&engine).capacity());
            }
            t.elapsed().as_secs_f64() / f64::from(SIM_SETUP_BATCH)
        })
        .collect();
    let engine =
        LoopLynx::new(s.model.clone(), arch).expect("GPT-2 medium partitions over the paper ring");

    let mut rounds = Vec::new();
    let started = Instant::now();
    while !enough(rounds.len(), started, seconds, trace) {
        let traced = trace && rounds.len() % 2 == 1;
        let (round, _) = serve_round(SimBackend::new(&engine), &reqs, &gw, traced);
        rounds.push(round);
    }
    let peak_rss = peak_rss_mib()?;

    let mut errors = Vec::new();
    let mut phases = Phases::default();
    for r in &rounds {
        check_round(&r.report, &reqs, None, &mut errors);
        phases.add(&r.report);
        let modelled = |rep: &GatewayReport| -> Vec<(u64, u64, u64)> {
            rep.serving
                .requests
                .iter()
                .map(|m| (m.id, m.first_token_ms.to_bits(), m.completion_ms.to_bits()))
                .collect()
        };
        if modelled(&r.report) != modelled(&rounds[0].report) {
            errors.push("modelled request times differ between rounds of the same requests".into());
        }
    }
    phases.print();
    check_sim_bounds(&rounds[0].report, &engine, &mut errors);
    println!("rounds: {}", rounds.len());

    let metrics = if trace {
        layers::per_layer(&s.model, &rounds, &rounds)
    } else {
        end_to_end(&setup_s, &rounds, peak_rss, &rounds[0].report, &mut errors)
    };
    Ok(Outcome {
        attempted: phases.offered,
        failed: phases.failed(),
        errors,
        metrics,
    })
}
