//! The traced run's plumbing: spans recorded around the benchmark's
//! calls into each layer, and counting/timing decorators around the
//! public trait objects the layers call through ([`DistancePlane`],
//! [`ForwardPolicy`]).
//!
//! Everything stays in memory until the run ends. A span records its
//! name, start, end, parent and thread. Decorator calls are too many to
//! keep one by one (a 5k-peer round makes about a million plane
//! lookups), so each decorator sums calls and busy time per thread
//! class, and the tracer files those sums as *leaves* of the innermost
//! span open on the tracer's thread whenever a span opens or closes.
//!
//! Self time is computed per thread. A child on the parent's own thread
//! blocked the parent for its whole duration. A child on a pool thread
//! ran in parallel with its siblings, so it accounts for
//! `duration / concurrency` of the parent's wall time, where
//! `concurrency` is the pool's worker count (exact when the pool's
//! shards are balanced).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ace_overlay::{ForwardPolicy, Overlay, PeerId};
use ace_topology::{Delay, DistancePlane, Graph, NodeId, PlaneStats};

/// Thread ordinal recorded for work done on any pool thread.
pub const POOL_THREAD: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Layer call the span wraps.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Thread ordinal ([`POOL_THREAD`] for pool threads).
    pub thread: u32,
}

impl Span {
    /// Wall duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Decorator calls summed inside one span on one thread class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Leaf {
    /// Decorated layer.
    pub layer: Layer,
    /// Index of the span the calls ran under.
    pub parent: usize,
    /// Thread ordinal ([`POOL_THREAD`] for pool threads).
    pub thread: u32,
    /// Calls made.
    pub calls: u64,
    /// Time spent inside the calls, ns.
    pub busy_ns: u64,
}

/// The decorated layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `topology.plane`: [`DistancePlane::distance`].
    Plane,
    /// `core.forwarding`: [`ForwardPolicy::forward_targets_into`].
    Forward,
}

const LAYERS: usize = 2;
const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct Cell64 {
    calls: AtomicU64,
    ns: AtomicU64,
}

/// Call counters shared between a tracer and its decorators: one cell
/// for the tracer's own thread and a few sharded cells for pool threads
/// (sharded so two workers rarely contend on one cache line).
#[derive(Default)]
pub struct LeafCounters {
    owner: [Cell64; LAYERS],
    pool: [[Cell64; SHARDS]; LAYERS],
}

thread_local! {
    static THREAD_ORDINAL: Cell<u32> = const { Cell::new(u32::MAX) };
    static OWNS_TRACER: Cell<bool> = const { Cell::new(false) };
}

static NEXT_ORDINAL: AtomicUsize = AtomicUsize::new(0);

/// A small per-thread number, assigned on first use.
fn thread_ordinal() -> u32 {
    THREAD_ORDINAL.with(|c| {
        if c.get() == u32::MAX {
            let n = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed) % (u32::MAX as usize - 1);
            c.set(n as u32);
        }
        c.get()
    })
}

impl LeafCounters {
    fn add(&self, layer: Layer, ns: u64) {
        // Relaxed: statistics only; the tracer reads them after the
        // parallel section joined, which orders the accesses.
        let cell = if OWNS_TRACER.with(Cell::get) {
            &self.owner[layer as usize]
        } else {
            &self.pool[layer as usize][thread_ordinal() as usize % SHARDS]
        };
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// `(calls, ns)` on the owner thread and on pool threads.
    fn snapshot(&self, layer: Layer) -> [(u64, u64); 2] {
        let read = |c: &Cell64| {
            (
                c.calls.load(Ordering::Relaxed),
                c.ns.load(Ordering::Relaxed),
            )
        };
        let owner = read(&self.owner[layer as usize]);
        let pool = self.pool[layer as usize]
            .iter()
            .map(read)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        [owner, pool]
    }
}

/// Records spans on one thread (the tracer's owner) and collects the
/// decorators' sums as leaves.
pub struct Tracer {
    epoch: Instant,
    thread: u32,
    counters: Arc<LeafCounters>,
    spans: RefCell<Vec<Span>>,
    leaves: RefCell<Vec<Leaf>>,
    stack: RefCell<Vec<usize>>,
    last: RefCell<[[(u64, u64); 2]; LAYERS]>,
}

impl Tracer {
    /// A tracer owned by the calling thread.
    pub fn new() -> Self {
        OWNS_TRACER.with(|c| c.set(true));
        Tracer {
            epoch: Instant::now(),
            thread: thread_ordinal(),
            counters: Arc::new(LeafCounters::default()),
            spans: RefCell::new(Vec::new()),
            leaves: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            last: RefCell::new([[(0, 0); 2]; LAYERS]),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Files decorator calls made since the last boundary under the
    /// innermost open span (calls outside every span are dropped).
    fn flush(&self) {
        let top = self.stack.borrow().last().copied();
        let mut last = self.last.borrow_mut();
        for layer in [Layer::Plane, Layer::Forward] {
            let now = self.counters.snapshot(layer);
            for (class, &(calls, ns)) in now.iter().enumerate() {
                let (c0, n0) = last[layer as usize][class];
                let (calls, busy_ns) = (calls - c0, ns - n0);
                if let (Some(parent), true) = (top, calls > 0) {
                    let thread = if class == 0 { self.thread } else { POOL_THREAD };
                    self.leaves.borrow_mut().push(Leaf {
                        layer,
                        parent,
                        thread,
                        calls,
                        busy_ns,
                    });
                }
            }
            last[layer as usize] = now;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.flush();
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.stack.borrow().last().copied(),
                thread: self.thread,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.flush();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        out
    }

    /// A timing decorator around `plane` feeding this tracer.
    pub fn plane<'a>(&self, plane: &'a dyn DistancePlane) -> TracedPlane<'a> {
        TracedPlane {
            inner: plane,
            counters: Arc::clone(&self.counters),
        }
    }

    /// A timing decorator around `policy` feeding this tracer.
    pub fn forward<'a, P: ForwardPolicy + Sync + ?Sized>(
        &self,
        policy: &'a P,
    ) -> TracedForward<'a, P> {
        TracedForward {
            inner: policy,
            counters: Arc::clone(&self.counters),
        }
    }

    /// The recorded spans and leaves.
    pub fn finish(self) -> Trace {
        Trace {
            spans: self.spans.take(),
            leaves: self.leaves.take(),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        OWNS_TRACER.with(|c| c.set(false));
    }
}

/// Runs `f`, inside a span when a tracer is given.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// [`DistancePlane`] decorator: counts and times every lookup.
pub struct TracedPlane<'a> {
    inner: &'a dyn DistancePlane,
    counters: Arc<LeafCounters>,
}

impl DistancePlane for TracedPlane<'_> {
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn distance(&self, a: NodeId, b: NodeId) -> Delay {
        let t = Instant::now();
        let d = self.inner.distance(a, b);
        self.counters
            .add(Layer::Plane, t.elapsed().as_nanos() as u64);
        d
    }

    fn plane_stats(&self) -> PlaneStats {
        self.inner.plane_stats()
    }
}

/// [`ForwardPolicy`] decorator: counts and times every decision.
pub struct TracedForward<'a, P: ?Sized> {
    inner: &'a P,
    counters: Arc<LeafCounters>,
}

impl<P: ForwardPolicy + Sync + ?Sized> ForwardPolicy for TracedForward<'_, P> {
    fn forward_targets(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
    ) -> Vec<PeerId> {
        let mut out = Vec::new();
        self.forward_targets_into(overlay, peer, from, &mut out);
        out
    }

    fn forward_targets_into(
        &self,
        overlay: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        let t = Instant::now();
        self.inner.forward_targets_into(overlay, peer, from, out);
        self.counters
            .add(Layer::Forward, t.elapsed().as_nanos() as u64);
    }
}

/// A finished trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Decorator sums, each under its span.
    pub leaves: Vec<Leaf>,
}

/// Totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans of that name.
    pub count: u64,
    /// Summed wall duration, ns.
    pub wall_ns: f64,
    /// Summed self time, ns (see [`Trace::self_times`]).
    pub self_ns: f64,
}

/// Totals of one decorated layer under spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LeafTotals {
    /// Calls made.
    pub calls: u64,
    /// Busy time summed over threads, ns.
    pub busy_ns: f64,
    /// Share of the enclosing spans' wall time, ns: busy time on the
    /// span's own thread plus pool busy time divided by the pool's
    /// concurrency.
    pub wall_ns: f64,
}

impl Trace {
    /// Wall time a child accounts for within its parent `p`.
    fn blocked_ns(parent: &Span, thread: u32, ns: f64, concurrency: usize) -> f64 {
        if thread == parent.thread {
            ns
        } else {
            ns / concurrency.max(1) as f64
        }
    }

    /// Self time of every span, ns: its duration minus what its child
    /// spans and leaves account for, per thread (see the module doc).
    pub fn self_times(&self, concurrency: usize) -> Vec<f64> {
        let mut out: Vec<f64> = self.spans.iter().map(|s| s.duration_ns() as f64).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                out[p] -= Self::blocked_ns(parent, s.thread, s.duration_ns() as f64, concurrency);
            }
        }
        for l in &self.leaves {
            let parent = &self.spans[l.parent];
            out[l.parent] -= Self::blocked_ns(parent, l.thread, l.busy_ns as f64, concurrency);
        }
        out
    }

    /// Per span name: count, wall and self time.
    pub fn span_totals(&self, concurrency: usize) -> BTreeMap<&'static str, SpanTotals> {
        let selfs = self.self_times(concurrency);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.wall_ns += s.duration_ns() as f64;
            t.self_ns += self_ns;
        }
        out
    }

    /// Per (layer, name of the span the calls ran under): leaf totals.
    pub fn leaf_totals(&self, concurrency: usize) -> BTreeMap<(Layer, &'static str), LeafTotals> {
        let mut out: BTreeMap<(Layer, &'static str), LeafTotals> = BTreeMap::new();
        for l in &self.leaves {
            let parent = &self.spans[l.parent];
            let t = out.entry((l.layer, parent.name)).or_default();
            t.calls += l.calls;
            t.busy_ns += l.busy_ns as f64;
            t.wall_ns += Self::blocked_ns(parent, l.thread, l.busy_ns as f64, concurrency);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            thread,
        }
    }

    #[test]
    fn nested_spans_on_one_thread_subtract_fully() {
        let trace = Trace {
            spans: vec![
                span("round", 0, 100, None, 0),
                span("audit", 10, 40, Some(0), 0),
                span("leave", 50, 60, Some(0), 0),
            ],
            leaves: vec![Leaf {
                layer: Layer::Plane,
                parent: 1,
                thread: 0,
                calls: 3,
                busy_ns: 12,
            }],
        };
        let selfs = trace.self_times(2);
        assert_eq!(selfs, vec![60.0, 18.0, 10.0]);
        let totals = trace.span_totals(2);
        assert_eq!(totals["round"].count, 1);
        assert_eq!(totals["round"].wall_ns, 100.0);
        assert_eq!(totals["audit"].self_ns, 18.0);
        // Self times plus leaf time partition the root's wall time.
        let leaf: f64 = trace.leaf_totals(2).values().map(|l| l.wall_ns).sum();
        assert_eq!(selfs.iter().sum::<f64>() + leaf, 100.0);
    }

    #[test]
    fn parallel_children_count_once_per_concurrency() {
        // A serve span on thread 0 whose two shards ran on threads 1 and
        // 2 for its whole duration: the parent thread only waited.
        let trace = Trace {
            spans: vec![
                span("serve", 0, 100, None, 0),
                span("shard", 0, 100, Some(0), 1),
                span("shard", 0, 100, Some(0), 2),
            ],
            leaves: vec![
                Leaf {
                    layer: Layer::Plane,
                    parent: 1,
                    thread: 1,
                    calls: 10,
                    busy_ns: 30,
                },
                Leaf {
                    layer: Layer::Plane,
                    parent: 2,
                    thread: 2,
                    calls: 10,
                    busy_ns: 50,
                },
            ],
        };
        let selfs = trace.self_times(2);
        assert_eq!(selfs, vec![0.0, 70.0, 50.0]);
        let totals = trace.span_totals(2);
        assert_eq!(totals["shard"].count, 2);
        assert_eq!(totals["shard"].self_ns, 120.0);
    }

    #[test]
    fn pool_leaves_are_weighted_by_concurrency() {
        // A round on thread 0: 20 ns of its own plane calls, then a
        // parallel stage where two pool threads spent 60 ns each.
        let trace = Trace {
            spans: vec![span("round", 0, 100, None, 0)],
            leaves: vec![
                Leaf {
                    layer: Layer::Plane,
                    parent: 0,
                    thread: 0,
                    calls: 2,
                    busy_ns: 20,
                },
                Leaf {
                    layer: Layer::Plane,
                    parent: 0,
                    thread: POOL_THREAD,
                    calls: 12,
                    busy_ns: 120,
                },
            ],
        };
        assert_eq!(trace.self_times(2), vec![20.0]);
        let leaf = trace.leaf_totals(2)[&(Layer::Plane, "round")];
        assert_eq!(leaf.calls, 14);
        assert_eq!(leaf.busy_ns, 140.0);
        assert_eq!(leaf.wall_ns, 80.0);
    }

    #[test]
    fn tracer_files_decorator_calls_under_the_innermost_span() {
        struct Unit(Graph);
        impl DistancePlane for Unit {
            fn graph(&self) -> &Graph {
                &self.0
            }
            fn distance(&self, _: NodeId, _: NodeId) -> Delay {
                1
            }
        }
        let plane = Unit(Graph::new(2));
        let tracer = Tracer::new();
        let traced = tracer.plane(&plane);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        traced.distance(a, b); // outside every span: dropped
        tracer.span("outer", || {
            traced.distance(a, b);
            tracer.span("inner", || {
                traced.distance(a, b);
                traced.distance(a, b);
                std::thread::scope(|s| {
                    s.spawn(|| traced.distance(a, b));
                });
            });
        });
        let trace = tracer.finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        let leaves = trace.leaf_totals(2);
        assert_eq!(leaves[&(Layer::Plane, "outer")].calls, 1);
        assert_eq!(leaves[&(Layer::Plane, "inner")].calls, 3);
        let pool: u64 = trace
            .leaves
            .iter()
            .filter(|l| l.thread == POOL_THREAD)
            .map(|l| l.calls)
            .sum();
        assert_eq!(pool, 1);
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
