//! Seeded input generation.
//!
//! Everything a run feeds the program — model weights, prompts, output
//! lengths and arrival times — derives from `--seed` through the
//! benchmark's own generator, so a change to the program's RNG cannot
//! change the inputs it is measured on.

use looplynx_core::config::ArchConfig;
use looplynx_model::config::ModelConfig;
use looplynx_serve::{GatewayConfig, GatewayRequest, Request};

/// SplitMix64: tiny, fast and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn tokens(&mut self, n: usize, vocab: usize) -> Vec<u32> {
        (0..n)
            .map(|_| (self.next_u64() % vocab as u64) as u32)
            .collect()
    }
}

/// The three workloads; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineDecode,
    SharedPrefix,
    SimServe,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "offline_decode" => Some(Workload::OfflineDecode),
            "shared_prefix" => Some(Workload::SharedPrefix),
            "sim_serve" => Some(Workload::SimServe),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineDecode => "offline_decode",
            Workload::SharedPrefix => "shared_prefix",
            Workload::SimServe => "sim_serve",
        }
    }
}

/// GPT-2 medium block geometry (d_model 1024, 16 heads, d_ff 4096) cut to
/// two layers and a 4096-token vocabulary, so a 2-core host serves a few
/// hundred requests in seconds while every GEMM keeps the paper model's
/// shape.
pub fn functional_model() -> ModelConfig {
    ModelConfig {
        name: "bench-medium2".into(),
        layers: 2,
        d_model: 1024,
        heads: 16,
        d_ff: 4096,
        vocab: 4096,
        max_seq: 256,
    }
}

/// Engine and gateway shape of one workload.
#[derive(Debug, Clone)]
pub struct Serving {
    pub model: ModelConfig,
    pub nodes: usize,
    /// Resident slots, which is also the gateway's decode-batch ceiling.
    pub slots: usize,
    /// Tokens per slot (prompt + output ceiling).
    pub capacity: usize,
    pub page_tokens: usize,
    /// KV pages per layer pool.
    pub pages: usize,
}

impl Serving {
    pub fn of(w: Workload) -> Self {
        match w {
            // Pool = twice the slots' worst case: residents never wait for
            // pages; registered chains fill the rest and are LRU-evicted.
            Workload::OfflineDecode => Serving {
                model: functional_model(),
                nodes: 2,
                slots: 16,
                capacity: OFFLINE_PROMPT.1 + OFFLINE_OUTPUT.1,
                page_tokens: 16,
                pages: 2 * 16 * (OFFLINE_PROMPT.1 + OFFLINE_OUTPUT.1).div_ceil(16),
            },
            // Pool = the slots' worst case: residents never wait for pages,
            // and the cache lives in what they leave free, so cold
            // documents are LRU-evicted between their uses.
            Workload::SharedPrefix => Serving {
                model: functional_model(),
                nodes: 1,
                slots: 8,
                capacity: SHARED_DOC_TOKENS + SHARED_TAIL.1 + SHARED_OUTPUT.1,
                page_tokens: 16,
                pages: 8 * (SHARED_DOC_TOKENS + SHARED_TAIL.1 + SHARED_OUTPUT.1).div_ceil(16),
            },
            Workload::SimServe => Serving {
                model: ModelConfig::gpt2_medium(),
                nodes: 2,
                slots: 16,
                capacity: 1024,
                page_tokens: 16,
                pages: 0,
            },
        }
    }

    pub fn arch(&self) -> ArchConfig {
        ArchConfig::builder()
            .nodes(self.nodes)
            .build()
            .expect("paper architecture at 1 or 2 nodes is valid")
    }

    pub fn gateway(&self, requests: usize) -> GatewayConfig {
        GatewayConfig {
            max_batch: self.slots,
            // Every request fits in the queue: nothing is shed.
            queue_depth: requests.max(1),
            ..GatewayConfig::default()
        }
    }
}

/// `offline_decode`: prompt and output length ranges (inclusive).
pub const OFFLINE_PROMPT: (usize, usize) = (4, 16);
pub const OFFLINE_OUTPUT: (usize, usize) = (16, 48);
pub const OFFLINE_REQUESTS: usize = 200;

/// `shared_prefix`: documents, their lengths, tails, outputs and load.
pub const SHARED_DOCS: usize = 16;
/// Every document is four whole pages, so a hit maps exactly the document.
pub const SHARED_DOC_TOKENS: usize = 64;
pub const SHARED_TAIL: (usize, usize) = (8, 24);
pub const SHARED_OUTPUT: (usize, usize) = (4, 16);
pub const SHARED_REQUESTS: usize = 200;
pub const SHARED_RATE_PER_S: f64 = 4.0;

/// `sim_serve`: chat mix and load on the modelled 2-node ring.
pub const SIM_PROMPT: (usize, usize) = (16, 64);
pub const SIM_OUTPUT: (usize, usize) = (32, 64);
pub const SIM_REQUESTS: usize = 400;
pub const SIM_RATE_PER_S: f64 = 1.0;

/// Open-loop arrivals: `n` Poisson arrivals conditioned on landing in
/// `[0, n / rate)`, i.e. sorted uniform times. The span is fixed, so the
/// offered rate is exactly `rate` on every seed while gaps stay
/// exponential-like.
fn arrivals(rng: &mut Rng, n: usize, rate_per_s: f64) -> Vec<f64> {
    let span_ms = n as f64 / rate_per_s * 1e3;
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * span_ms).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// `n` values spread evenly over `lo..=hi`, in seeded order. Every seed
/// offers the same mix of lengths, so seeds differ in order, pairing and
/// timing rather than in how much work a run holds.
fn stratified(rng: &mut Rng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let span = hi - lo + 1;
    let mut v: Vec<usize> = (0..n).map(|i| lo + i * span / n).collect();
    shuffle(rng, &mut v);
    v
}

fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i));
    }
}

/// Document of each request: Zipf(1) popularity over `SHARED_DOCS`
/// documents, stratified like [`stratified`] so every seed offers each
/// document equally often, in seeded order.
fn documents(rng: &mut Rng, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..SHARED_DOCS).map(|d| 1.0 / (d + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut docs: Vec<usize> = (0..n)
        .map(|i| {
            let mut u = (i as f64 + 0.5) / n as f64 * total;
            let mut doc = 0;
            while doc + 1 < SHARED_DOCS && u >= weights[doc] {
                u -= weights[doc];
                doc += 1;
            }
            doc
        })
        .collect();
    shuffle(rng, &mut docs);
    docs
}

/// Weight seed of a functional workload's checkpoint.
pub fn weight_seed(seed: u64) -> u64 {
    Rng::new(seed, 1).next_u64()
}

/// The request set of one workload for `seed`.
pub fn requests(w: Workload, seed: u64) -> Vec<GatewayRequest> {
    let vocab = Serving::of(w).model.vocab;
    let mut rng = Rng::new(seed, 2);
    let reqs: Vec<Request> = match w {
        Workload::OfflineDecode => {
            let n = OFFLINE_REQUESTS;
            let prompts = stratified(&mut rng, n, OFFLINE_PROMPT);
            let outputs = stratified(&mut rng, n, OFFLINE_OUTPUT);
            (0..n)
                .map(|i| {
                    let prompt = rng.tokens(prompts[i], vocab);
                    Request::new(i as u64, 0.0, prompts[i], outputs[i]).with_prompt(prompt)
                })
                .collect()
        }
        Workload::SharedPrefix => {
            let n = SHARED_REQUESTS;
            let texts: Vec<Vec<u32>> = (0..SHARED_DOCS)
                .map(|_| rng.tokens(SHARED_DOC_TOKENS, vocab))
                .collect();
            let docs = documents(&mut rng, n);
            let tails = stratified(&mut rng, n, SHARED_TAIL);
            let outputs = stratified(&mut rng, n, SHARED_OUTPUT);
            let at = arrivals(&mut rng, n, SHARED_RATE_PER_S);
            (0..n)
                .map(|i| {
                    let mut prompt = texts[docs[i]].clone();
                    prompt.extend(rng.tokens(tails[i], vocab));
                    Request::new(i as u64, at[i], prompt.len(), outputs[i]).with_prompt(prompt)
                })
                .collect()
        }
        Workload::SimServe => {
            let n = SIM_REQUESTS;
            // Prompt lengths are drawn independently: with a stratified
            // mix the median request's modelled TTFT would be the same
            // prefill time on most seeds.
            let outputs = stratified(&mut rng, n, SIM_OUTPUT);
            let at = arrivals(&mut rng, n, SIM_RATE_PER_S);
            (0..n)
                .map(|i| {
                    let p = rng.range(SIM_PROMPT.0, SIM_PROMPT.1);
                    Request::new(i as u64, at[i], p, outputs[i])
                })
                .collect()
        }
    };
    reqs.into_iter().map(GatewayRequest::new).collect()
}
