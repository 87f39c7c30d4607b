//! The benchmark's view into the serving stack: a wrapper implementing
//! `InferenceBackend` that forwards every call to the real backend.
//!
//! Untraced, it only keeps per-request bookkeeping the correctness check
//! needs (which requests hit the prefix cache, the largest decode batch
//! each one was in) — no clock reads. Traced, it also records one
//! [`Span`] per backend call and samples the engine's public page and
//! prefix getters after each call.

use std::collections::BTreeMap;
use std::time::Instant;

use looplynx_core::backend::{
    BackendError, DecodeOutcome, FunctionalBackend, InferenceBackend, PreemptedSeq, PrefillOutcome,
    PrefillProgress, SimBackend,
};
use looplynx_model::prefix::PrefixIndexStats;

/// Engine state the probe can read between calls.
pub trait Gauges {
    fn prefix_stats(&self) -> Option<PrefixIndexStats> {
        None
    }
    /// `(free pages, pages pinned by the prefix cache)`.
    fn pages(&self) -> Option<(usize, usize)> {
        None
    }
}

impl Gauges for FunctionalBackend {
    fn prefix_stats(&self) -> Option<PrefixIndexStats> {
        self.engine().prefix_stats()
    }
    fn pages(&self) -> Option<(usize, usize)> {
        let e = self.engine();
        Some((e.free_pages(), e.cached_prefix_pages()))
    }
}

impl Gauges for SimBackend<'_> {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Prefill,
    Decode,
    Release,
    /// Chunked prefill, preemption and resume: not used by these
    /// workloads' gateway settings, forwarded and counted if they occur.
    Other,
}

/// One backend call.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: Op,
    /// Request id (the gateway seeds each request's sampler with it).
    pub req: Option<u64>,
    /// Rows in a decode batch; 1 for a prefill.
    pub rows: usize,
    /// Prompt tokens actually computed by a prefill (prompt minus the
    /// cached prefix it mapped).
    pub computed: usize,
    /// Sum over rows of the post-append context a decode attends over.
    pub context: usize,
    /// Host seconds since the round started.
    pub start_s: f64,
    pub end_s: f64,
    /// Elapsed time the backend reported, on the serving clock.
    pub serving_ms: f64,
}

impl Span {
    pub fn host_ms(&self) -> f64 {
        (self.end_s - self.start_s) * 1e3
    }
}

/// What a round's probe saw.
#[derive(Debug, Default)]
pub struct Record {
    /// Prefix tokens each request's prefill reused, by request id.
    pub reused: BTreeMap<u64, usize>,
    /// Largest decode batch each request took part in.
    pub max_batch: BTreeMap<u64, usize>,
    pub spans: Vec<Span>,
    pub free_pages_min: Option<usize>,
    pub cached_pages_max: Option<usize>,
}

pub struct Probe<B> {
    inner: B,
    trace: bool,
    origin: Instant,
    /// Request id and context length of each resident slot.
    slots: Vec<Option<(u64, usize)>>,
    pub record: Record,
}

impl<B: InferenceBackend + Gauges> Probe<B> {
    pub fn new(inner: B, trace: bool) -> Self {
        Probe {
            inner,
            trace,
            origin: Instant::now(),
            slots: Vec::new(),
            record: Record::default(),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Starts the span clock; call right before serving.
    pub fn start(&mut self) {
        self.origin = Instant::now();
    }

    fn now(&self) -> f64 {
        if self.trace {
            self.origin.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    fn reused_tokens(&self) -> u64 {
        self.inner.prefix_stats().map_or(0, |s| s.reused_tokens)
    }

    fn set_slot(&mut self, slot: usize, v: Option<(u64, usize)>) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = v;
    }

    fn push(&mut self, span: Span) {
        if !self.trace {
            return;
        }
        if let Some((free, cached)) = self.inner.pages() {
            let r = &mut self.record;
            r.free_pages_min = Some(r.free_pages_min.map_or(free, |m| m.min(free)));
            r.cached_pages_max = Some(r.cached_pages_max.map_or(cached, |m| m.max(cached)));
        }
        self.record.spans.push(span);
    }

    fn other<T>(
        &mut self,
        f: impl FnOnce(&mut B) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let start_s = self.now();
        let out = f(&mut self.inner);
        let end_s = self.now();
        self.push(Span {
            op: Op::Other,
            req: None,
            rows: 0,
            computed: 0,
            context: 0,
            start_s,
            end_s,
            serving_ms: 0.0,
        });
        out
    }
}

impl<B: InferenceBackend + Gauges> InferenceBackend for Probe<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_seq(&self) -> usize {
        self.inner.max_seq()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn prefill(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError> {
        let reused_before = self.reused_tokens();
        let start_s = self.now();
        let out = self.inner.prefill(prompt_len, prompt, sampler_seed);
        let end_s = self.now();
        if let Ok(o) = &out {
            let reused = (self.reused_tokens() - reused_before) as usize;
            self.record.reused.insert(sampler_seed, reused);
            self.set_slot(o.slot, Some((sampler_seed, prompt_len)));
            self.push(Span {
                op: Op::Prefill,
                req: Some(sampler_seed),
                rows: 1,
                computed: prompt_len - reused,
                context: prompt_len,
                start_s,
                end_s,
                serving_ms: o.elapsed_ms,
            });
        }
        out
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError> {
        let start_s = self.now();
        let out = self.inner.decode_batch(slots);
        let end_s = self.now();
        if let Ok(o) = &out {
            let mut context = 0;
            for &s in slots {
                if let Some(Some((id, ctx))) = self.slots.get_mut(s) {
                    *ctx += 1;
                    context += *ctx;
                    let seen = self.record.max_batch.entry(*id).or_insert(0);
                    *seen = (*seen).max(slots.len());
                }
            }
            self.push(Span {
                op: Op::Decode,
                req: None,
                rows: slots.len(),
                computed: 0,
                context,
                start_s,
                end_s,
                serving_ms: o.elapsed_ms,
            });
        }
        out
    }

    fn release(&mut self, slot: usize) -> Result<(), BackendError> {
        let req = self.slots.get(slot).copied().flatten().map(|(id, _)| id);
        let start_s = self.now();
        let out = self.inner.release(slot);
        let end_s = self.now();
        self.set_slot(slot, None);
        self.push(Span {
            op: Op::Release,
            req,
            rows: 0,
            computed: 0,
            context: 0,
            start_s,
            end_s,
            serving_ms: 0.0,
        });
        out
    }

    fn supports_chunked_prefill(&self) -> bool {
        self.inner.supports_chunked_prefill()
    }

    fn prefill_open(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<usize, BackendError> {
        self.other(|b| b.prefill_open(prompt_len, prompt, sampler_seed))
    }

    fn prefill_step(
        &mut self,
        slot: usize,
        max_tokens: usize,
    ) -> Result<PrefillProgress, BackendError> {
        self.other(|b| b.prefill_step(slot, max_tokens))
    }

    fn supports_preemption(&self) -> bool {
        self.inner.supports_preemption()
    }

    fn reclaimable_pages(&self, slot: usize) -> usize {
        self.inner.reclaimable_pages(slot)
    }

    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        let out = self.other(|b| b.preempt(slot));
        if out.is_ok() {
            self.set_slot(slot, None);
        }
        out
    }

    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        self.other(|b| b.resume(seq, context))
    }
}
