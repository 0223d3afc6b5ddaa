//! Per-layer figures of a traced run, from its spans, its decorator
//! sums and the public counters of the traced units. README.md maps
//! each figure to the end-to-end metric it should move.

use ace_core::{CoreCacheStats, OverheadKind, OverheadLedger};
use ace_overlay::ServeReport;

use crate::stats::median;
use crate::trace::{Layer, Trace};
use crate::workload::{Pass, Workload};

/// Public counters summed over the traced units of a run, plus the
/// timings the tracing overhead is computed from.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) setups: usize,
    passes: usize,
    rounds: usize,
    trees: usize,
    plans_skipped: usize,
    rewires: usize,
    alive_rounds: usize,
    ledger: OverheadLedger,
    core_cache: CoreCacheStats,
    soft_state_bytes: usize,
    lifecycle_events: u64,
    plane_coord: u64,
    plane_total: u64,
    ace_batches: usize,
    ace_served: u64,
    ace_messages: u64,
    ace_duplicates: u64,
    ace_max_inbox: u64,
    ace_wall_s: f64,
    optimize_traced: Vec<f64>,
    pub(crate) optimize_untraced: Vec<f64>,
    qps_traced: Vec<f64>,
    pub(crate) qps_untraced: Vec<f64>,
}

impl Counters {
    /// Adds a traced optimizing pass (a warm-up on `serve`).
    pub(crate) fn add_pass(&mut self, p: &Pass) {
        self.passes += 1;
        self.rounds += p.round_ms.len();
        self.trees += p.trees;
        self.plans_skipped += p.plans_skipped;
        self.rewires += p.rewires;
        self.alive_rounds += p.alive_rounds;
        self.ledger.merge(&p.ledger);
        self.core_cache = p.core_cache;
        self.soft_state_bytes = p.soft_state_bytes;
        self.lifecycle_events += p.departures + p.joins;
        self.plane_coord += p.plane.coord;
        self.plane_total += p.plane.total();
        self.optimize_traced.push(p.optimize_s);
    }

    /// Adds a traced ACE-forwarding batch.
    pub(crate) fn add_ace_batch(&mut self, r: &ServeReport) {
        self.ace_batches += 1;
        self.ace_served += r.served;
        self.ace_messages += r.messages;
        self.ace_duplicates += r.duplicates;
        self.ace_max_inbox = self.ace_max_inbox.max(r.max_inbox());
        self.ace_wall_s += r.elapsed.as_secs_f64();
        self.qps_traced.push(r.qps());
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer figures `(name, value, unit)` of a traced run.
/// `concurrency` is the worker count of the pool threads.
pub(crate) fn figures(
    workload: Workload,
    trace: &Trace,
    c: &Counters,
    concurrency: usize,
) -> Vec<(String, f64, &'static str)> {
    let spans = trace.span_totals(concurrency);
    let leaves = trace.leaf_totals(concurrency);
    let wall = |name: &str| spans.get(name).map_or(0.0, |s| s.wall_ns);
    let self_ns = |name: &str| spans.get(name).map_or(0.0, |s| s.self_ns);
    let count = |name: &str| spans.get(name).map_or(0.0, |s| s.count as f64);
    let leaf = |layer: Layer, under: &[&str]| {
        under.iter().fold((0.0, 0.0, 0.0), |acc, name| {
            leaves.get(&(layer, *name)).map_or(acc, |l| {
                (acc.0 + l.calls as f64, acc.1 + l.busy_ns, acc.2 + l.wall_ns)
            })
        })
    };
    const OPTIMIZE: [&str; 4] = [
        "engine.new",
        "engine.round",
        "lifecycle.leave",
        "lifecycle.join",
    ];
    // Plane figures cover the timed unit the workload is about: the
    // optimizing pass, or the ACE-forwarding batch on `serve`.
    let (plane_under, plane_units): (&[&str], f64) = match workload {
        Workload::Serve => (&["serve.ace"], c.ace_batches as f64),
        _ => (&OPTIMIZE, c.passes as f64),
    };
    let (plane_calls, plane_busy, plane_wall) = leaf(Layer::Plane, plane_under);
    let (fwd_calls, fwd_busy, fwd_wall) = leaf(Layer::Forward, &["serve.ace"]);
    let lifecycle_wall = wall("lifecycle.leave") + wall("lifecycle.join");
    let passes = c.passes as f64;
    let rounds = c.rounds as f64;
    let batches = c.ace_batches as f64;
    let setups = c.setups as f64;
    let cache = &c.core_cache;
    let optimize_spans: f64 = OPTIMIZE.iter().map(|n| wall(n)).sum();
    let ace_pass_wall = leaf(Layer::Plane, &["serve.ace"]).2 + fwd_wall + self_ns("serve.ace");
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);

    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "world.build_ms".into(),
            ratio(wall("topology.generate") + wall("overlay.network"), setups) / 1e6,
            "ms",
        ),
        (
            "plane.build_ms".into(),
            ratio(wall("topology.hybrid"), setups) / 1e6,
            "ms",
        ),
        (
            "plane.calls".into(),
            ratio(plane_calls, plane_units),
            "count",
        ),
        (
            "plane.ns_per_call".into(),
            ratio(plane_busy, plane_calls),
            "ns",
        ),
        (
            "plane.busy_ms".into(),
            ratio(plane_wall, plane_units) / 1e6,
            "ms",
        ),
        (
            "plane.coord_share".into(),
            ratio(c.plane_coord as f64, c.plane_total as f64),
            "ratio",
        ),
        (
            "engine.round_self_ms".into(),
            ratio(self_ns("engine.round"), count("engine.round")) / 1e6,
            "ms",
        ),
        (
            "engine.trees_per_round".into(),
            ratio(c.trees as f64, rounds),
            "count",
        ),
        (
            "engine.plan_skip_rate".into(),
            ratio(c.plans_skipped as f64, c.trees as f64),
            "ratio",
        ),
        (
            "engine.rewires_per_round".into(),
            ratio(c.rewires as f64, rounds),
            "count",
        ),
        (
            "engine.core_cache.hit_rate".into(),
            ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
            "ratio",
        ),
        ("engine.core_cache.bytes".into(), cache.bytes as f64, "B"),
        (
            "engine.core_cache.purged".into(),
            cache.purged as f64,
            "count",
        ),
        (
            "lifecycle.events".into(),
            ratio(c.lifecycle_events as f64, passes),
            "count",
        ),
        (
            "lifecycle.us_per_event".into(),
            ratio(lifecycle_wall, c.lifecycle_events as f64) / 1e3,
            "us",
        ),
        (
            "lifecycle.busy_ms".into(),
            ratio(lifecycle_wall, passes) / 1e6,
            "ms",
        ),
        (
            "autorate.due_share".into(),
            ratio(c.trees as f64, c.alive_rounds as f64),
            "ratio",
        ),
        (
            "autorate.soft_state_bytes".into(),
            c.soft_state_bytes as f64,
            "B",
        ),
        (
            "audit.ms_per_round".into(),
            ratio(wall("audit"), count("audit")) / 1e6,
            "ms",
        ),
        ("forward.calls".into(), ratio(fwd_calls, batches), "count"),
        (
            "forward.ns_per_call".into(),
            ratio(fwd_busy, fwd_calls),
            "ns",
        ),
        (
            "forward.busy_ms".into(),
            ratio(fwd_wall, batches) / 1e6,
            "ms",
        ),
        (
            "serve.self_ms".into(),
            ratio(self_ns("serve.ace"), batches) / 1e6,
            "ms",
        ),
        (
            "serve.messages_per_query".into(),
            ratio(c.ace_messages as f64, c.ace_served as f64),
            "count",
        ),
        (
            "serve.duplicate_share".into(),
            ratio(c.ace_duplicates as f64, c.ace_messages as f64),
            "ratio",
        ),
        ("serve.max_inbox".into(), c.ace_max_inbox as f64, "count"),
    ];
    // Closure relays (depth >= 2) and retries (fault injection) are never
    // charged in this configuration, so only the charged kinds are kept.
    for (kind, name) in [
        (OverheadKind::Probe, "overhead.probe_per_round"),
        (
            OverheadKind::TableExchange,
            "overhead.table_exchange_per_round",
        ),
        (OverheadKind::Reconnect, "overhead.reconnect_per_round"),
    ] {
        out.push((name.into(), ratio(c.ledger.cost_of(kind), rounds), "cost"));
    }
    out.extend([
        (
            "trace.overhead_optimize_s".into(),
            med(&c.optimize_traced) - med(&c.optimize_untraced),
            "s",
        ),
        (
            "trace.overhead_qps".into(),
            med(&c.qps_traced) - med(&c.qps_untraced),
            "1/s",
        ),
        (
            "trace.optimize_accounted".into(),
            ratio(optimize_spans / 1e9, c.optimize_traced.iter().sum()),
            "ratio",
        ),
        (
            "trace.serve_accounted".into(),
            ratio(ace_pass_wall / 1e9, c.ace_wall_s),
            "ratio",
        ),
    ]);
    out
}
