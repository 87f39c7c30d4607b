//! Per-layer metrics, derived from the probe's spans of traced rounds.
//!
//! Counts and host times are per round (rounds repeat the same
//! requests); ratios and percentiles pool every traced round. Bytes and
//! multiply-accumulates are computed from `ModelConfig` tensor sizes, not
//! measured, and divided by backend time on the serving clock (measured
//! host time on the functional backend, modelled time on the simulator).

use std::collections::BTreeMap;

use looplynx_model::config::ModelConfig;

use crate::probe::{Op, Span};
use crate::run::{median, percentile, Round};
use crate::{metric, Metric};

fn spans<'a>(rounds: &'a [&'a Round], op: Op) -> impl Iterator<Item = &'a Span> + 'a {
    rounds
        .iter()
        .flat_map(move |r| r.record.spans.iter().filter(move |s| s.op == op))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Multiply-accumulates of a prefill that computed the last `computed`
/// of `prompt` tokens: every block weight once per token, attention over
/// each token's causal context, and the LM head once for the last token.
fn prefill_macs(cfg: &ModelConfig, prompt: usize, computed: usize) -> f64 {
    let per_layer: usize = (prompt - computed..prompt)
        .map(|pos| cfg.block_weight_bytes() + 2 * cfg.d_model * (pos + 1))
        .sum();
    (cfg.layers * per_layer + cfg.lm_head_bytes()) as f64
}

/// Every per-layer metric, in `BENCHMARK.json` order. `rounds` are the
/// workload's own (traced and untraced); `sim` are the `SimBackend`
/// rounds whose traced spans give the `sim.*` metrics.
pub fn per_layer(cfg: &ModelConfig, rounds: &[Round], sim: &[Round]) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let sim: Vec<&Round> = sim.iter().filter(|r| r.traced).collect();
    let n = traced.len().max(1) as f64;
    let per_round = |f: &dyn Fn(&Round) -> f64| traced.iter().map(|r| f(r)).sum::<f64>() / n;

    let host_ms = |op: Op| spans(&traced, op).map(Span::host_ms).sum::<f64>();
    let calls = |op: Op| spans(&traced, op).count() as f64;

    // Queue wait: TTFT minus the request's own prefill call.
    let mut queue_wait = Vec::new();
    for r in &traced {
        let prefill_ms: BTreeMap<u64, f64> = r
            .record
            .spans
            .iter()
            .filter(|s| s.op == Op::Prefill)
            .filter_map(|s| s.req.map(|id| (id, s.serving_ms)))
            .collect();
        for m in &r.report.serving.requests {
            if let Some(p) = prefill_ms.get(&m.id) {
                queue_wait.push(m.ttft_ms() - p);
            }
        }
    }

    let decode_step_ms: Vec<f64> = spans(&traced, Op::Decode).map(Span::host_ms).collect();
    let decode_rows: usize = spans(&traced, Op::Decode).map(|s| s.rows).sum();
    let computed: usize = spans(&traced, Op::Prefill).map(|s| s.computed).sum();
    let decode_serving_s = spans(&traced, Op::Decode)
        .map(|s| s.serving_ms)
        .sum::<f64>()
        / 1e3;
    let prefill_serving_s = spans(&traced, Op::Prefill)
        .map(|s| s.serving_ms)
        .sum::<f64>()
        / 1e3;
    let weight_bytes = calls(Op::Decode) * cfg.weights_bytes_total() as f64;
    let kv_bytes: f64 = spans(&traced, Op::Decode)
        .map(|s| (cfg.layers * cfg.kv_read_bytes(s.context)) as f64)
        .sum();
    let macs: f64 = spans(&traced, Op::Prefill)
        .map(|s| prefill_macs(cfg, s.context, s.computed))
        .sum();

    let prefix = |f: &dyn Fn(&looplynx_model::prefix::PrefixIndexStats) -> u64| {
        per_round(&|r: &Round| r.prefix.as_ref().map_or(0.0, |p| f(p) as f64))
    };
    let prompt_tokens: f64 = spans(&traced, Op::Prefill).map(|s| s.context as f64).sum();
    let reused: f64 = traced
        .iter()
        .map(|r| r.prefix.map_or(0.0, |p| p.reused_tokens as f64))
        .sum();
    let free_min = traced
        .iter()
        .filter_map(|r| r.record.free_pages_min)
        .min()
        .unwrap_or(0);
    let cached_max = traced
        .iter()
        .filter_map(|r| r.record.cached_pages_max)
        .max()
        .unwrap_or(0);

    let sim_prefill_us: f64 = spans(&sim, Op::Prefill).map(Span::host_ms).sum::<f64>() * 1e3;
    let sim_prompt: usize = spans(&sim, Op::Prefill).map(|s| s.context).sum();
    let sim_decode_us: f64 = spans(&sim, Op::Decode).map(Span::host_ms).sum::<f64>() * 1e3;
    let sim_rows: usize = spans(&sim, Op::Decode).map(|s| s.rows).sum();
    let sim_steps: Vec<f64> = spans(&sim, Op::Decode).map(|s| s.serving_ms).collect();

    let traced_host = per_round(&|r: &Round| r.host_s);
    let untraced_host =
        untraced.iter().map(|r| r.host_s).sum::<f64>() / untraced.len().max(1) as f64;

    vec![
        metric(
            "gateway.self_s",
            "s",
            per_round(&|r: &Round| {
                r.host_s - r.record.spans.iter().map(Span::host_ms).sum::<f64>() / 1e3
            }),
        ),
        metric(
            "gateway.decode_iterations",
            "count",
            per_round(&|r: &Round| r.report.serving.decode_iterations as f64),
        ),
        metric(
            "gateway.batch_mean",
            "rows",
            per_round(&|r: &Round| r.report.serving.batch_occupancy.mean()),
        ),
        metric("gateway.queue_wait_p50_ms", "ms", median(&queue_wait)),
        metric(
            "gateway.queue_wait_p95_ms",
            "ms",
            percentile(&queue_wait, 0.95),
        ),
        metric(
            "gateway.retries",
            "count",
            per_round(&|r: &Round| r.report.retries as f64),
        ),
        metric(
            "gateway.preemptions",
            "count",
            per_round(&|r: &Round| r.report.preemptions as f64),
        ),
        metric("backend.prefill.calls", "count", calls(Op::Prefill) / n),
        metric("backend.prefill.host_ms", "ms", host_ms(Op::Prefill) / n),
        metric(
            "backend.prefill.ms_per_computed_token",
            "ms",
            ratio(host_ms(Op::Prefill), computed as f64),
        ),
        metric("backend.decode.calls", "count", calls(Op::Decode) / n),
        metric("backend.decode.host_ms", "ms", host_ms(Op::Decode) / n),
        metric("backend.decode.step_p50_ms", "ms", median(&decode_step_ms)),
        metric(
            "backend.decode.ms_per_row",
            "ms",
            ratio(host_ms(Op::Decode), decode_rows as f64),
        ),
        metric("backend.release.host_ms", "ms", host_ms(Op::Release) / n),
        metric(
            "engine.decode.weight_gb_s",
            "GB/s",
            ratio(weight_bytes, decode_serving_s) / 1e9,
        ),
        metric(
            "engine.decode.kv_gb_s",
            "GB/s",
            ratio(kv_bytes, decode_serving_s) / 1e9,
        ),
        metric(
            "engine.prefill.gmac_s",
            "GMAC/s",
            ratio(macs, prefill_serving_s) / 1e9,
        ),
        metric("prefix.lookups", "count", prefix(&|p| p.lookups)),
        metric("prefix.hits", "count", prefix(&|p| p.hits)),
        metric(
            "prefix.reused_tokens",
            "tokens",
            prefix(&|p| p.reused_tokens),
        ),
        metric(
            "prefix.token_hit_ratio",
            "ratio",
            ratio(reused, prompt_tokens),
        ),
        metric("prefix.inserted", "count", prefix(&|p| p.inserted)),
        metric("prefix.evicted", "count", prefix(&|p| p.evicted)),
        metric("paged.free_pages_min", "pages", free_min as f64),
        metric("paged.cached_pages_max", "pages", cached_max as f64),
        metric(
            "sim.prefill.host_us_per_token",
            "us",
            ratio(sim_prefill_us, sim_prompt as f64),
        ),
        metric(
            "sim.decode.host_us_per_row",
            "us",
            ratio(sim_decode_us, sim_rows as f64),
        ),
        metric("sim.decode.model_step_p50_ms", "ms", median(&sim_steps)),
        metric("trace.host_s", "s", traced_host),
        metric("trace.untraced_host_s", "s", untraced_host),
        metric(
            "trace.overhead_pct",
            "%",
            (ratio(traced_host, untraced_host) - 1.0) * 100.0,
        ),
    ]
}
