//! The per-layer metrics of a traced run, and its self-checks.
//!
//! Every workload reports the same metric names.  A layer a workload's
//! served path bypasses is measured by a probe outside the tick on the
//! same inputs (`Composed::probe`); the prediction for the workload's
//! end-to-end metrics is then "no change" when that layer changes.

use crate::pipeline::Composed;
use crate::stats::{beyond, median, pct, ratio};
use crate::trace::{self, Ledger, Tracer};
use crate::{ms, Report};
use std::collections::BTreeMap;
use std::time::Instant;

/// Two composed pipelines over the same inputs, stepped in lockstep: one
/// traced, one not.  Stepping them together (alternating which goes
/// first) gives both the same heap and cache history, so their
/// difference is the tracing overhead, and their counter deltas must
/// match exactly.
pub struct Twin {
    pub tracer: Tracer,
    pub traced: Composed,
    pub counts: BTreeMap<&'static str, u64>,
    pub repeat_counts: BTreeMap<&'static str, u64>,
    pub untraced_tick_ms: Vec<f64>,
    /// What each untraced tick's `step` returned: the time of the part
    /// the wire pass also times.
    pub untraced_part_ms: Vec<f64>,
}

/// Runs `ticks` ticks of `step` on two pipelines built by `make`; `step`
/// returns the milliseconds of the part comparable to a wire tick.
/// `probe` runs after each tick, outside it (see `Composed::probe`).
pub fn twin(
    ticks: u64,
    make: impl Fn(Tracer) -> Composed,
    step: impl Fn(&mut Composed, &Tracer, u64) -> f64,
    probe: impl Fn(&mut Composed, u64),
) -> Twin {
    let tracer = Tracer::on();
    let off = Tracer::off();
    let (mut traced, mut plain) = (make(tracer.clone()), make(off.clone()));
    tracer.clear();
    let (mut counts, mut repeat_counts) = (BTreeMap::new(), BTreeMap::new());
    let (mut untraced_tick_ms, mut untraced_part_ms) = (Vec::new(), Vec::new());
    let add = |into: &mut BTreeMap<&'static str, u64>, before: &BTreeMap<&'static str, u64>| {
        for (k, v) in trace::delta(before, &trace::counters()) {
            *into.entry(k).or_insert(0) += v;
        }
    };
    for t in 1..=ticks {
        tracer.set_tick(t);
        for traced_first in [t % 2 == 1, t % 2 == 0] {
            let before = trace::counters();
            if traced_first {
                tracer.span("tick", || step(&mut traced, &tracer, t));
                probe(&mut traced, t);
                add(&mut counts, &before);
            } else {
                let t0 = Instant::now();
                untraced_part_ms.push(step(&mut plain, &off, t));
                untraced_tick_ms.push(ms(t0));
                probe(&mut plain, t);
                add(&mut repeat_counts, &before);
            }
        }
    }
    Twin {
        tracer,
        traced,
        counts,
        repeat_counts,
        untraced_tick_ms,
        untraced_part_ms,
    }
}

/// What a traced run measured besides the twin passes.
pub struct Traced {
    pub workload: &'static str,
    pub seed: u64,
    pub ticks: u64,
    pub update_ops: u64,
    pub update_frame_bytes: Vec<f64>,
    /// The same ticks served for real (wire or engine), timed over the
    /// part `Twin::untraced_part_ms` times; empty without a wire.
    pub wire_ms: Vec<f64>,
    /// How late the closed loop sent each tick after the last returned.
    pub lag_ms: Vec<f64>,
}

const LAYERS: &[&str] = &[
    "protocol", "server", "wal", "epoch", "database", "ftl", "index", "hist", "sharded",
];

pub fn report(r: &mut Report, twin: &Twin, t: &Traced) {
    let l = &write_spans(r, &twin.tracer, t.workload, t.seed);
    let c = |name: &str| twin.counts.get(name).copied().unwrap_or(0) as f64;
    let ticks = t.ticks as f64;
    let us = |name: &str, p: f64| pct(&l.durations(name), p) * 1e3;
    let ms = |name: &str| median(&l.durations(name));
    let composed = &twin.traced;

    r.metric(
        "protocol.decode_us_p50",
        us("protocol.decode_update", 0.5),
        "us",
    );
    r.metric(
        "protocol.encode_delta_us_p50",
        us("protocol.encode_delta", 0.5),
        "us",
    );
    r.metric(
        "protocol.update_frame_bytes",
        median(&t.update_frame_bytes),
        "bytes",
    );

    let traced_tick = l.durations("tick");
    let untraced = median(&twin.untraced_tick_ms);
    r.metric("server.fanout_ms_p50", ms("server.fanout"), "ms");
    r.metric(
        "server.deltas_per_tick",
        ratio(composed.deltas.len() as f64, ticks),
        "count",
    );
    // Sockets, thread hand-offs and lock waits: the served tick minus the
    // same work composed on one thread.
    let residual = if t.wire_ms.is_empty() {
        0.0
    } else {
        median(&t.wire_ms) - median(&twin.untraced_part_ms)
    };
    r.metric("server.residual_ms_p50", residual, "ms");

    r.metric("wal.append_us_p50", us("wal.append", 0.5), "us");
    r.metric("wal.append_us_p95", us("wal.append", 0.95), "us");
    r.metric("wal.checkpoint_ms_p50", ms("wal.checkpoint"), "ms");
    r.metric("wal.checkpoints", c("wal.checkpoints"), "count");
    r.metric(
        "wal.bytes_per_op",
        ratio(c("wal.bytes"), t.update_ops as f64),
        "bytes",
    );

    // Publish self time: the swap and the old epoch's drop, without the
    // history observer nested inside it.
    let publish: Vec<f64> = l
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "epoch.publish")
        .map(|(i, _)| l.self_ms(i))
        .collect();
    r.metric("epoch.clone_ms_p50", ms("epoch.clone"), "ms");
    r.metric("epoch.publish_ms_p50", median(&publish), "ms");
    r.metric(
        "epoch.publishes_per_tick",
        ratio(c("epoch.published"), ticks),
        "count",
    );

    let apply = l.durations("database.apply");
    r.metric("database.apply_ms_p50", median(&apply), "ms");
    r.metric(
        "database.apply_us_per_op",
        ratio(apply.iter().sum::<f64>() * 1e3, t.update_ops as f64),
        "us",
    );
    r.metric(
        "refresh.skip_ratio",
        ratio(c("refresh.skipped"), c("refresh.total")),
        "ratio",
    );

    r.metric("ftl.eval_ms_p50", ms("ftl.eval"), "ms");
    r.metric(
        "ftl.candidates_evaluated_per_tick",
        ratio(c("ftl.candidates_evaluated"), ticks),
        "count",
    );
    let plan = c("ftl.plan.cache_hits") + c("ftl.plan.cache_misses");
    r.metric(
        "ftl.plan.cache_hit_ratio",
        ratio(c("ftl.plan.cache_hits"), plan),
        "ratio",
    );

    r.metric("index.roll_ms_p50", ms("index.roll"), "ms");
    let offered = c("ftl.candidates_pruned") + c("ftl.candidates_evaluated");
    r.metric(
        "index.pruned_share",
        ratio(c("ftl.candidates_pruned"), offered),
        "ratio",
    );

    r.metric("hist.fold_ms_p50", ms("hist.fold"), "ms");
    let walked = composed.walked.load(std::sync::atomic::Ordering::Relaxed) as f64;
    r.metric(
        "hist.legs_per_object_walked",
        ratio(c("hist.records"), walked),
        "ratio",
    );
    r.metric("hist.alibi_ms_p50", ms("hist.alibi"), "ms");
    r.metric("hist.aggregate_ms_p50", ms("hist.aggregate"), "ms");

    r.metric("sharded.apply_ms_p50", ms("sharded.apply"), "ms");
    let skew = if composed.skew.is_empty() {
        1.0
    } else {
        median(&composed.skew)
    };
    r.metric("sharded.skew", skew, "ratio");
    r.metric("sharded.scatter_ms_p50", ms("sharded.scatter"), "ms");

    r.metric("loadgen.lag_ms_p95", pct(&t.lag_ms, 0.95), "ms");
    for (name, samples) in [
        ("wal.append", l.durations("wal.append")),
        ("loadgen.lag", t.lag_ms.clone()),
    ] {
        r.note(format!(
            "{name}: {} samples, {} beyond the p95",
            samples.len(),
            beyond(&samples, 0.95)
        ));
    }

    // The cost ledger: each layer's share of the ticks' time (its self
    // time over the tick spans'; a layer off the served path has none).
    let selfs = l.layer_self_ms("tick");
    let tick_total: f64 = traced_tick.iter().sum();
    for layer in LAYERS {
        let total = selfs.get(layer).copied().unwrap_or(0.0);
        r.metric(
            &format!("{layer}.tick_share"),
            ratio(total, tick_total),
            "ratio",
        );
    }

    // Self-checks: the spans account for the tick, and the counts repeat.
    let closure = l.closure("tick");
    let worst = closure.iter().copied().fold(f64::INFINITY, f64::min);
    r.metric(
        "trace.closure_min",
        if worst.is_finite() { worst } else { 0.0 },
        "ratio",
    );
    let overhead = ratio(median(&traced_tick) - untraced, untraced);
    r.metric("trace.overhead_frac", overhead, "ratio");
    r.note(format!(
        "traced tick p50 {:.3} ms, untraced {:.3} ms, wire {:.3} ms over {} ticks",
        median(&traced_tick),
        untraced,
        median(&t.wire_ms),
        t.ticks
    ));
    if !(worst.is_finite() && worst >= 0.9) {
        r.broken.push(format!(
            "layer spans cover only {:.1}% of a tick",
            worst * 100.0
        ));
    }
    if twin.counts != twin.repeat_counts {
        r.broken.push(format!(
            "per-layer counts differ between two same-seed passes: {:?} vs {:?}",
            twin.counts, twin.repeat_counts
        ));
    }
    r.note(format!("counts: {:?}", twin.counts));
    r.note(format!(
        "layer self time per tick (ms): {:?}",
        ledger_shares(l, ticks)
    ));
}

fn ledger_shares(l: &Ledger, ticks: f64) -> Vec<(String, String)> {
    l.layer_self_ms("tick")
        .into_iter()
        .map(|(k, v)| (k.to_owned(), format!("{:.3}", ratio(v, ticks))))
        .collect()
}

/// Writes the spans of a traced run under the benchmark's output
/// directory.
fn write_spans(r: &mut Report, tr: &Tracer, workload: &str, seed: u64) -> Ledger {
    let ledger = Ledger::new(tr.spans());
    let path = crate::out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    match ledger.write(&path) {
        Ok(()) => r.note(format!(
            "{} spans written to {}",
            ledger.spans.len(),
            path.display()
        )),
        Err(e) => r.note(format!("spans not written: {e}")),
    }
    ledger
}
