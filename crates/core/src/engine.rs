//! The ACE protocol engine: the paper's three phases, executed per peer.
//!
//! * **Phase 1** ([`AceEngine::phase1_probe`]) — probe direct neighbors
//!   and build the neighbor cost table.
//! * **Phase 2** (inside [`AceEngine::optimize_peer`]) — collect the
//!   h-neighbor closure's cost tables (charging exchange/relay overhead),
//!   build the Prim spanning tree, and classify neighbors into *flooding*
//!   and *non-flooding*.
//! * **Phase 3** (inside [`AceEngine::optimize_peer`]) — probe a
//!   candidate `H` drawn from a non-flooding neighbor `B`'s table and
//!   apply the paper's Figure-4 rules: replace `C–B` by `C–H` when
//!   `CH < CB`; keep `H` as an extra neighbor when `CH < BH`; otherwise
//!   leave the topology alone.
//!
//! The engine mutates only the [`Overlay`] and its own per-peer state; it
//! never uses global knowledge — every decision is based on probed costs
//! and exchanged tables, exactly as in the distributed protocol.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ace_engine::pool::{self, plan_parallel_scratch, ScratchPool};

use ace_overlay::{DepartureKind, Message, Overlay, OverlayError, PeerId};
use ace_topology::{Delay, DistancePlane};

use crate::audit::{InvariantViolation, ViolationKind};
use crate::autorate::{AutoRateConfig, ControllerStats, RateController, RateSample};
use crate::closure::Closure;
use crate::core_cache::{CoreCache, CoreCacheStats};
use crate::cost_table::CostTable;
use crate::fault::FaultConfig;
use crate::mst::SlotEdge;
use crate::overhead::{OverheadKind, OverheadLedger};
use crate::plan::{KnownSnap, PlanScratch};
use crate::policy::{self, Figure4Action, LifecycleEvent, WatchVerdict};
use crate::probe::ProbeModel;

/// How phase 3 picks the non-flooding neighbor to improve and the
/// replacement candidate (§6 of the paper; `Random` is what the paper's
/// own simulations use, the others are the alternatives it sketches).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReplacePolicy {
    /// Random non-flooding neighbor, random candidate from its table.
    #[default]
    Random,
    /// Most expensive non-flooding neighbor, random candidate.
    Naive,
    /// Most expensive non-flooding neighbor; probe *all* of its neighbors
    /// and take the closest (more probes, better picks).
    Closest,
}

/// ACE configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct AceConfig {
    /// Closure depth `h` (>= 1); 0 is normalized to 1 by [`AceEngine::new`].
    pub depth: u8,
    /// Phase-3 selection policy.
    pub policy: ReplacePolicy,
    /// Probe measurement model.
    pub probe: ProbeModel,
    /// Minimum number of flooding neighbors a peer keeps: if the spanning
    /// tree would leave fewer, the cheapest non-tree neighbors are kept as
    /// flooding links too. Guards the search scope against forwarding
    /// islands on sparse overlays (the paper's scope-retention claim).
    pub min_flooding: usize,
    /// When true, [`AceEngine::round`] runs the two-stage plan/commit
    /// pipeline: every alive peer *plans* its round concurrently against a
    /// snapshot of the overlay, then the plans are *committed* serially in
    /// peer-id order. The result is bit-identical for any worker count
    /// (including 1) but differs from the serial schedule, which lets each
    /// peer observe earlier peers' rewiring within the same round.
    pub parallel: bool,
    /// Worker threads for the parallel pipeline; `0` means one per
    /// available core. Has no effect on results — only on wall time.
    pub workers: usize,
    /// Deterministic fault injection (probe loss, crashes, mid-round
    /// departures); `None` disables all faults. Fault decisions are pure
    /// hashes, so they preserve the parallel pipeline's bit-identical
    /// worker-count guarantee.
    pub faults: Option<FaultConfig>,
    /// Autonomic per-peer optimization-rate control
    /// ([`crate::autorate`]); `None` keeps the static every-round
    /// schedule (and leaves digests byte-identical to controller-free
    /// builds). When set, each round only peers the controller marks
    /// *due* run phases 1–3; the controller is fed deterministic
    /// observation streams at round end, so the worker-count digest
    /// guarantee still holds.
    pub autorate: Option<AutoRateConfig>,
    /// Byte budget for the pairwise-core probe cache
    /// ([`crate::core_cache`]); `0` selects the 256 MiB default. When
    /// the budget is exceeded, oldest-inserted pairs are evicted and
    /// will be re-probed (and re-charged) if needed again.
    pub core_cache_budget: usize,
}

impl AceConfig {
    /// The paper's base configuration: `h = 1`, random policy, exact
    /// probes, scope guard of 2 flooding links, serial rounds.
    pub fn paper_default() -> Self {
        AceConfig {
            depth: 1,
            policy: ReplacePolicy::Random,
            probe: ProbeModel::default(),
            min_flooding: 2,
            parallel: false,
            workers: 0,
            faults: None,
            autorate: None,
            core_cache_budget: 0,
        }
    }
}

/// What one phase-3 attempt did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaptOutcome {
    /// Cut the link to `far` and connected to `near` instead (`CH < CB`).
    Replaced {
        /// The disconnected non-flooding neighbor.
        far: PeerId,
        /// The newly connected closer peer.
        near: PeerId,
    },
    /// Connected to `near` while keeping the old neighbor (`CH < BH`).
    Added {
        /// The newly connected peer.
        near: PeerId,
    },
    /// No topology change (no candidate, probes unfavorable, or caps hit).
    KeptAll,
}

/// Aggregate outcome of one optimization round over all alive peers.
#[derive(Clone, Debug, Default)]
pub struct RoundStats {
    /// Number of replace operations.
    pub replaced: usize,
    /// Number of keep-both additions.
    pub added: usize,
    /// Number of spanning trees (re)built.
    pub trees_built: usize,
    /// Peers that crashed mid-round (injected faults; no goodbye).
    pub crashed: usize,
    /// Peers that left gracefully mid-round (injected faults).
    pub left: usize,
    /// Dead peers that rejoined mid-round (injected faults).
    pub rejoined: usize,
    /// Control-traffic overhead incurred during the round.
    pub overhead: OverheadLedger,
    /// Always 0: every due peer replans its tree every round, as in
    /// the paper's phase 2. Kept only because the benchmark under
    /// `benchmark/` still reads it; see ROADMAP.
    pub plans_skipped: usize,
    /// Cumulative pairwise-core cache counters as of the end of the
    /// round (hits/misses/evictions are totals since engine
    /// construction, mirroring [`ControllerStats`]' style).
    pub core_cache: CoreCacheStats,
}

impl RoundStats {
    /// True when the round changed no connections — the optimization has
    /// converged.
    pub fn converged(&self) -> bool {
        self.replaced == 0 && self.added == 0
    }
}

#[derive(Clone, Debug)]
struct PeerState {
    table: CostTable,
    /// Neighbors adjacent to this peer in its own closure MST.
    own_tree: Vec<PeerId>,
    /// Peers whose trees attach through us: they sent a forward request
    /// ("I expect queries through you", the paper's Figure-3 narrative),
    /// so we must relay to them even though they are not on our own tree.
    requested: Vec<PeerId>,
    /// Keep-both watches from Figure 4(c): `(far, near)` pairs where we
    /// kept `far` after connecting `near`; once `near` vanishes from
    /// `far`'s table (B dropped B–H), we cut the `far` link (§3.3).
    watches: Vec<(PeerId, PeerId)>,
    tree_built: bool,
}

impl PeerState {
    fn new(owner: PeerId) -> Self {
        PeerState {
            table: CostTable::new(owner),
            own_tree: Vec::new(),
            requested: Vec::new(),
            watches: Vec::new(),
            tree_built: false,
        }
    }

    /// Whether any of this state names `q`.
    fn references(&self, q: PeerId) -> bool {
        self.table.get(q).is_some()
            || self.own_tree.contains(&q)
            || self.requested.contains(&q)
            || self
                .watches
                .iter()
                .any(|&(far, near)| far == q || near == q)
    }
}

/// Per-peer ACE state plus the shared overhead ledger.
///
/// # Examples
///
/// ```
/// use ace_core::{AceConfig, AceEngine};
/// use ace_overlay::{random_overlay, PeerId};
/// use ace_topology::generate::{ba, BaConfig};
/// use ace_topology::DistanceOracle;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let phys = ba(&BaConfig { nodes: 120, ..BaConfig::default() }, &mut rng);
/// let oracle = DistanceOracle::new(phys);
/// let hosts = oracle.graph().nodes().take(40).collect();
/// let mut ov = random_overlay(hosts, 4, None, &mut rng);
///
/// let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
/// let stats = ace.round(&mut ov, &oracle, &mut rng);
/// assert_eq!(stats.trees_built, 40);
/// assert!(ace.tree_built(PeerId::new(0)));
/// assert!(stats.overhead.total_cost() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct AceEngine {
    cfg: AceConfig,
    states: Vec<PeerState>,
    /// Cache of pairwise probe results for the phase-2 neighbor core.
    /// Physical distances are stable, so a measured pair is never
    /// re-probed: once known, the value rides along in the periodic table
    /// exchange instead of costing a fresh round trip. This is what keeps
    /// the steady-state optimization overhead at the paper's level.
    /// Bounded by [`AceConfig::core_cache_budget`], oldest pair first.
    core_cache: CoreCache,
    /// Reverse index for lifecycle purges: `holders[q]` lists a superset
    /// of the peers whose state names `q` (cost table, own tree, forward
    /// requests, watches). Every write of a peer id into a state appends
    /// here, and a purge of `q` visits only `holders[q]` instead of
    /// every peer. `note_holder` keeps the lists bounded.
    holders: Vec<Vec<PeerId>>,
    /// Reusable per-worker plan arenas, shared by the parallel pipeline
    /// and the serial round path.
    scratch: ScratchPool<PlanScratch>,
    ledger: OverheadLedger,
    /// Completed optimization rounds; indexes the fault hash streams so
    /// every round draws fresh (but reproducible) fault decisions.
    rounds_run: u64,
    probe_units: f64,
    probe_req_units: f64,
    connect_units: f64,
    disconnect_units: f64,
    notify_units: f64,
    /// Autonomic `R` controller ([`AceConfig::autorate`]); `None` keeps
    /// the static schedule.
    controller: Option<RateController>,
    /// Query arrivals reported via [`AceEngine::note_queries`] since the
    /// last round — the controller's per-peer load observation stream.
    pending_queries: Vec<f64>,
    /// Latest measured per-query traffic (flood, ace) reported via
    /// [`AceEngine::note_traffic`]; feeds the realized-gain estimate.
    pending_traffic: Option<(f64, f64)>,
}

impl AceEngine {
    /// Creates engine state for `peer_count` peers. A `depth` of 0 is
    /// normalized to 1.
    ///
    /// # Panics
    ///
    /// Panics if [`AceConfig::faults`] is set to an invalid
    /// [`FaultConfig`] (see [`FaultConfig::validate`]) or
    /// [`AceConfig::autorate`] to an invalid [`AutoRateConfig`].
    pub fn new(peer_count: usize, cfg: AceConfig) -> Self {
        let mut cfg = cfg;
        if cfg.depth == 0 {
            cfg.depth = 1;
        }
        if let Some(f) = cfg.faults {
            if let Err(e) = f.validate() {
                panic!("invalid fault config: {e}");
            }
        }
        if let Some(a) = cfg.autorate {
            if let Err(e) = a.validate() {
                panic!("invalid autorate config: {e}");
            }
        }
        let states = (0..peer_count)
            .map(|i| PeerState::new(PeerId::new(i as u32)))
            .collect();
        let mut core_cache = CoreCache::with_budget(cfg.core_cache_budget);
        // Steady-state pair population: each peer's h-closure contributes
        // ~C(degree_cap, 2) non-adjacent pairs shared between endpoints;
        // 48 per peer covers the committed worlds with slack, and the
        // budget clamp keeps tiny-budget configurations tiny.
        core_cache.reserve_pairs(peer_count.saturating_mul(48));
        AceEngine {
            controller: cfg.autorate.map(RateController::new),
            pending_queries: vec![0.0; peer_count],
            pending_traffic: None,
            core_cache,
            holders: vec![Vec::new(); peer_count],
            scratch: ScratchPool::new(),
            cfg,
            states,
            ledger: OverheadLedger::new(),
            rounds_run: 0,
            probe_units: Message::Probe { nonce: 0 }.size_units()
                + Message::ProbeReply { nonce: 0 }.size_units(),
            probe_req_units: Message::Probe { nonce: 0 }.size_units(),
            connect_units: Message::Connect.size_units() + Message::ConnectOk.size_units(),
            disconnect_units: Message::Disconnect.size_units(),
            notify_units: Message::Ping.size_units(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &AceConfig {
        &self.cfg
    }

    /// The accumulated overhead ledger.
    pub fn ledger(&self) -> &OverheadLedger {
        &self.ledger
    }

    /// Zeroes the overhead ledger (e.g. between measurement windows).
    pub fn reset_ledger(&mut self) {
        self.ledger = OverheadLedger::new();
    }

    /// Reports `count` query arrivals observed at `peer` since the last
    /// round — the controller's per-peer load stream (harnesses feed it
    /// from per-peer inbox accounting). No-op without
    /// [`AceConfig::autorate`]; counts are consumed by the next round.
    pub fn note_queries(&mut self, peer: PeerId, count: f64) {
        if self.controller.is_none() {
            return;
        }
        if let Some(q) = self.pending_queries.get_mut(peer.index()) {
            if count.is_finite() && count >= 0.0 {
                *q += count;
            }
        }
    }

    /// Reports the latest measured mean per-query traffic under blind
    /// flooding vs. ACE forwarding; the controller's realized-gain
    /// inputs. Sticky until replaced. No-op without
    /// [`AceConfig::autorate`].
    pub fn note_traffic(&mut self, flood_per_query: f64, ace_per_query: f64) {
        if self.controller.is_some() {
            self.pending_traffic = Some((flood_per_query, ace_per_query));
        }
    }

    /// The autonomic `R` controller, when enabled.
    pub fn controller(&self) -> Option<&RateController> {
        self.controller.as_ref()
    }

    /// Controller bookkeeping counters; all-zero when disabled.
    pub fn controller_stats(&self) -> ControllerStats {
        self.controller
            .as_ref()
            .map(RateController::stats)
            .unwrap_or_default()
    }

    /// Whether `peer` runs its optimization in the upcoming round
    /// (always true without a controller).
    fn peer_due(&self, peer: PeerId) -> bool {
        self.controller
            .as_ref()
            .is_none_or(|c| c.is_due(peer, self.rounds_run))
    }

    /// Feeds the controller one round's observations, in peer-id order
    /// (all inputs are computed serially, preserving the worker-count
    /// digest guarantee), and runs its end-of-period maintenance.
    /// `ran` says which peers actually optimized this round.
    fn feed_controller(&mut self, ov: &Overlay, stats: &RoundStats, ran: &[bool]) {
        let Some(ctrl) = self.controller.as_mut() else {
            return;
        };
        let period = self.rounds_run;
        let churn = (stats.crashed + stats.left + stats.rejoined) as f64;
        let total = stats.overhead.total_cost();
        let retry = stats.overhead.cost_of(OverheadKind::ProbeRetry)
            + stats.overhead.cost_of(OverheadKind::ControlRetry);
        let retry_pressure = if total > 0.0 { retry / total } else { 0.0 };
        let (flood, ace) = self.pending_traffic.unwrap_or((0.0, 0.0));
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        let per_peer_overhead = if alive.is_empty() {
            0.0
        } else {
            total / alive.len() as f64
        };
        for p in alive {
            let queries = self.pending_queries.get(p.index()).copied().unwrap_or(0.0);
            let sample = RateSample {
                queries,
                churn_events: churn,
                flood_traffic: flood,
                ace_traffic: ace,
                overhead: per_peer_overhead,
                retry_pressure,
            };
            // The engine has no incarnation numbers: lifecycle purges
            // already cleared departed entries, so incarnation 0 stands
            // for "the current life of this peer".
            ctrl.observe(
                p,
                0,
                period,
                &sample,
                ran.get(p.index()).copied().unwrap_or(false),
            );
        }
        ctrl.end_period(period);
        for q in &mut self.pending_queries {
            *q = 0.0;
        }
    }

    /// True once `peer` has built a spanning tree.
    pub fn tree_built(&self, peer: PeerId) -> bool {
        self.states[peer.index()].tree_built
    }

    /// Writes `peer`'s flooding neighbors into `out` (cleared first): its
    /// own tree neighbors plus peers that requested forwarding because
    /// their trees attach through `peer`, each once. May contain stale
    /// entries after topology changes; forwarding filters against current
    /// neighbors. Forwarding calls this once per visited peer per query,
    /// so the caller's buffer is reused on the query hot path.
    pub fn flooding_neighbors_into(&self, peer: PeerId, out: &mut Vec<PeerId>) {
        out.clear();
        let s = &self.states[peer.index()];
        out.extend_from_slice(&s.own_tree);
        for &r in &s.requested {
            if !out.contains(&r) {
                out.push(r);
            }
        }
    }

    /// `peer`'s own-tree neighbors only (without symmetrization requests).
    pub fn tree_neighbors_of(&self, peer: PeerId) -> &[PeerId] {
        &self.states[peer.index()].own_tree
    }

    /// `peer`'s probed cost to `neighbor`, if it has one recorded.
    pub fn probed_cost(&self, peer: PeerId, neighbor: PeerId) -> Option<Delay> {
        self.states[peer.index()].table.get(neighbor)
    }

    /// Graceful leave: `peer`'s goodbye reaches every partner, so both
    /// its own state and every reference other peers hold to it (tree
    /// membership, forward requests, watches, cost rows, cached core
    /// probes) are invalidated immediately.
    pub fn on_leave(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::GracefulLeave);
    }

    /// Silent crash: no goodbye is sent, so partners keep their (now
    /// stale) references until phase 1 prunes them; only the crashed
    /// process's own state disappears. [`AceEngine::check_invariants`]
    /// tolerates references to dead peers for exactly this reason.
    pub fn on_crash(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::Crash);
    }

    /// (Re)join: the joiner starts as a plain flooding Gnutella node, and
    /// any references surviving from a previous incarnation (e.g. after a
    /// crash) are purged — an alive peer must never be shadowed by stale
    /// state recorded about its predecessor.
    pub fn on_join(&mut self, peer: PeerId) {
        self.apply_lifecycle(peer, LifecycleEvent::Rejoin);
    }

    /// Applies the shared purge taxonomy ([`LifecycleEvent`]) to `peer`.
    fn apply_lifecycle(&mut self, peer: PeerId, event: LifecycleEvent) {
        if event.purges_survivor_refs() {
            self.purge_peer_refs(peer);
        }
        if event.clears_own_state() {
            self.clear_own_state(peer);
        }
        if let Some(c) = self.controller.as_mut() {
            c.on_lifecycle(peer, event);
        }
        if let Some(q) = self.pending_queries.get_mut(peer.index()) {
            *q = 0.0;
        }
    }

    /// Local churn response: with a controller, each disturbed
    /// neighbor's schedule snaps back to the floor
    /// ([`RateController::snap_to_floor`]) so the next round
    /// re-optimizes the neighborhood instead of coasting through it on
    /// a stretched interval — the static schedule gets exactly that for
    /// free by always running. The sync engine has a single incarnation
    /// (0) per peer; fault injection runs serially in both round paths,
    /// so the snaps are worker-count invariant.
    fn snap_neighbors(&mut self, ov: &Overlay, neighbors: &[PeerId]) {
        let Some(c) = self.controller.as_mut() else {
            return;
        };
        for &n in neighbors {
            if ov.is_alive(n) {
                c.snap_to_floor(n, 0, self.rounds_run);
            }
        }
    }

    /// Core-cache counters, after flushing the purges that lifecycle
    /// events marked since the cache was last read.
    fn core_cache_stats(&mut self) -> CoreCacheStats {
        self.core_cache.flush_purges();
        self.core_cache.stats()
    }

    /// Removes every reference other peers hold to `peer`, and marks the
    /// cached core probes with `peer` as an endpoint for purging; the
    /// marks are flushed in one table pass before the cache is next read
    /// ([`CoreCache::flush_purges`]).
    fn purge_peer_refs(&mut self, peer: PeerId) {
        for h in std::mem::take(&mut self.holders[peer.index()]) {
            let s = &mut self.states[h.index()];
            s.own_tree.retain(|&p| p != peer);
            s.requested.retain(|&p| p != peer);
            s.watches.retain(|&(far, near)| far != peer && near != peer);
            s.table.remove(peer);
        }
        debug_assert!(
            !self.states.iter().any(|s| s.references(peer)),
            "holder index missed a reference to {peer}"
        );
        self.core_cache.purge_endpoint(peer);
    }

    /// Records in `holders[q]` that `holder`'s state names `q`. A list
    /// that reaches a power of two of at least 64 entries is compacted:
    /// sorted, deduplicated and cut to the holders whose state still
    /// names `q` (plus `holder`, whose write may still be pending). Each
    /// list thus stays within about twice its live holder count, at
    /// amortized O(1) per append.
    fn note_holder(&mut self, q: PeerId, holder: PeerId) {
        let list = &mut self.holders[q.index()];
        list.push(holder);
        if list.len() >= 64 && list.len().is_power_of_two() {
            list.sort_unstable();
            list.dedup();
            list.retain(|&h| h == holder || self.states[h.index()].references(q));
        }
    }

    /// Records `peer`'s measured cost to `n` in its cost table.
    fn learn_cost(&mut self, peer: PeerId, n: PeerId, cost: Delay) {
        if self.states[peer.index()].table.set(n, cost) {
            self.note_holder(n, peer);
        }
    }

    /// Figure 4(c) keep-both: `peer` watches `far` until `near` shows up
    /// in `far`'s table (§3.3).
    fn add_watch(&mut self, peer: PeerId, far: PeerId, near: PeerId) {
        self.states[peer.index()].watches.push((far, near));
        self.note_holder(far, peer);
        self.note_holder(near, peer);
    }

    /// Resets `peer`'s own protocol state to the fresh-node default.
    fn clear_own_state(&mut self, peer: PeerId) {
        let s = &mut self.states[peer.index()];
        s.table = CostTable::new(peer);
        s.own_tree.clear();
        s.requested.clear();
        s.watches.clear();
        s.tree_built = false;
    }

    /// Both endpoints of a just-cut link forget it: tree membership,
    /// forward requests and cached cost rows for the partner. Keeps the
    /// tree⊆neighbors and request-symmetry invariants true after
    /// engine-initiated cuts (phase-3 replaces, watch cuts). Watches are
    /// left to expire on their own (§3.3).
    fn note_link_down(&mut self, a: PeerId, b: PeerId) {
        let sa = &mut self.states[a.index()];
        sa.own_tree.retain(|&p| p != b);
        sa.requested.retain(|&p| p != b);
        sa.table.remove(b);
        let sb = &mut self.states[b.index()];
        sb.own_tree.retain(|&p| p != a);
        sb.requested.retain(|&p| p != a);
        sb.table.remove(a);
    }

    /// Measures `a`↔`b`, charging `ledger`. Fault handling is delegated
    /// to [`policy::probe_exchange_survives_faults`], the rule shared
    /// with the async simulator: each attempt can be lost (decided by a
    /// pure hash, so both endpoints and every worker schedule agree), a
    /// lost attempt wastes the request leg — charged as
    /// [`OverheadKind::ProbeRetry`], scaled by the backoff factor to
    /// model the lengthening timeout — and the prober retries up to
    /// [`FaultConfig::max_retries`] times before giving up with `None`.
    /// The successful attempt is charged as a normal probe.
    fn probe_with_faults(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        ledger: &mut OverheadLedger,
        a: PeerId,
        b: PeerId,
    ) -> Option<Delay> {
        let true_cost = ov.link_cost(oracle, a, b);
        if !policy::probe_exchange_survives_faults(
            self.cfg.faults.as_ref(),
            self.rounds_run,
            a,
            b,
            true_cost,
            self.probe_req_units,
            ledger,
        ) {
            return None;
        }
        ledger.charge(OverheadKind::Probe, f64::from(true_cost) * self.probe_units);
        Some(self.cfg.probe.perturb(a, b, true_cost))
    }

    /// Measures `a`↔`b` with the probe model and charges probe overhead
    /// (request + reply, each crossing the physical path). `None` when
    /// fault injection lost every attempt.
    fn probe_and_charge(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        a: PeerId,
        b: PeerId,
    ) -> Option<Delay> {
        let mut ledger = self.ledger;
        let out = self.probe_with_faults(ov, oracle, &mut ledger, a, b);
        self.ledger = ledger;
        out
    }

    /// Phase 1: probe all current neighbors of `peer` and refresh its
    /// neighbor cost table. Stale entries (ex-neighbors) are dropped —
    /// from the cost table and from the forward-request list, which is
    /// where references to crashed partners go to die. A neighbor whose
    /// probe is lost to fault injection on every retry gets no table
    /// entry this round.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline.
    pub fn phase1_probe(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        assert!(ov.is_alive(peer), "cannot probe from an offline peer");
        let nbrs = ov.neighbors(peer);
        {
            let s = &mut self.states[peer.index()];
            s.table.retain_neighbors(nbrs);
            s.requested.retain(|r| nbrs.contains(r));
        }
        for &n in nbrs {
            // Only the lower-id endpoint pays for the shared probe; both
            // ends learn the (symmetric) RTT from the same exchange.
            let measured = if peer < n || self.states[n.index()].table.get(peer).is_none() {
                self.probe_and_charge(ov, oracle, peer, n)
            } else {
                Some(
                    self.cfg
                        .probe
                        .perturb(peer, n, ov.link_cost(oracle, peer, n)),
                )
            };
            match measured {
                Some(m) => self.learn_cost(peer, n, m),
                None => self.states[peer.index()].table.remove(n),
            }
        }
    }

    /// Charges the table-exchange/relay overhead for collecting the
    /// closure in `scratch` into `ledger`: one message of the member's
    /// table size per relay hop, in member (BFS) order — hop-1 members
    /// are plain [`OverheadKind::TableExchange`], deeper members are
    /// [`OverheadKind::ClosureRelay`].
    fn charge_closure_exchange(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        scratch: &PlanScratch,
        ledger: &mut OverheadLedger,
    ) {
        for i in 1..scratch.members.len() {
            let w = scratch.members[i];
            let units = self.states[w.index()].table.message_size_units();
            let kind = if scratch.hops[i] <= 1 {
                OverheadKind::TableExchange
            } else {
                OverheadKind::ClosureRelay
            };
            for (from, to) in scratch.relay_hops(i as u32) {
                let cost = ov.link_cost(oracle, from, to);
                ledger.charge(kind, f64::from(cost) * units);
            }
        }
    }

    /// Phases 2+3 for one peer: build the closure spanning tree, classify
    /// flooding/non-flooding neighbors, then make one adaptive-connection
    /// attempt. Returns what phase 3 did.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline.
    pub fn optimize_peer<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        rng: &mut R,
    ) -> AdaptOutcome {
        self.build_tree(ov, oracle, peer);

        // §3.3 follow-up of the keep-both case: once the watched far
        // neighbor has dropped its link to the peer we adopted, cut the
        // far link too. Safe: the link is non-flooding (not on our fresh
        // MST), so the tree provides an alternate path to `far`.
        self.process_watches(ov, oracle, peer);

        // Phase 3: adaptive connection establishment.
        self.phase3_adapt(ov, oracle, peer, rng)
    }

    /// Phase 2 only: collect the closure tables, build the spanning tree
    /// and reclassify flooding/non-flooding neighbors — without any
    /// phase-3 adaptation. Useful for the trees-only ablation and the
    /// paper's Table 1/2 examples.
    ///
    /// The serial path charges probes and exchanges interleaved into the
    /// engine ledger (fixing the float summation order the committed
    /// digests pin); it shares only the dense closure arenas with the
    /// plan pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is offline.
    pub fn build_tree(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        assert!(ov.is_alive(peer), "cannot optimize an offline peer");
        // The serial round's mid-sweep faults mark purges between trees.
        self.core_cache.flush_purges();
        let mut scratch = self.scratch.take().unwrap_or_default();
        scratch.collect_closure(ov, peer, self.cfg.depth);
        let mut ledger = self.ledger;
        self.charge_closure_exchange(ov, oracle, &scratch, &mut ledger);
        self.ledger = ledger;

        // Phase 2: Prim MST over the closure subgraph. Edge costs come
        // from the members' exchanged tables, falling back to a charged
        // probe when neither endpoint has reported the link yet (`None` —
        // probe lost to fault injection — drops the edge and the MST
        // routes around it).
        scratch.collect_internal_edges(ov, |a, b| {
            self.states[a.index()]
                .table
                .get(b)
                .or_else(|| self.states[b.index()].table.get(a))
                .or_else(|| self.probe_and_charge(ov, oracle, a, b))
        });
        // Besides the logical links, the peer knows the cost between *any
        // pair* of its direct neighbors (§3.3 phase 1): it ships its
        // neighbor list to each neighbor, which probes the others and
        // reports back — the O(m²) pairwise core that lets the tree
        // bypass expensive neighbors even when they share no logical
        // link. Physical distances are stable, so measured pairs come
        // from the bounded core cache.
        let nbrs = ov.neighbors(peer);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, b) = (nbrs[i], nbrs[j]);
                if ov.are_neighbors(a, b) {
                    continue; // already covered by its exchanged table cost
                }
                let cost = match self.core_cache.get(a, b) {
                    Some(c) => Some(c), // stable measurement, refreshed via tables
                    None => {
                        let c = self.probe_and_charge(ov, oracle, a, b);
                        if let Some(c) = c {
                            self.core_cache.insert_if_absent(a, b, c);
                        }
                        c
                    }
                };
                if let Some(cost) = cost {
                    let sa = scratch.slot(a).expect("direct neighbor is a member");
                    let sb = scratch.slot(b).expect("direct neighbor is a member");
                    scratch.edges.push(SlotEdge { a: sa, b: sb, cost });
                }
            }
        }
        {
            let PlanScratch {
                members,
                edges,
                prim,
                extras,
                tree,
                ..
            } = &mut scratch;
            let states = &self.states;
            let cfg = &self.cfg;
            policy::tree_with_scope_guard_scratch(
                peer,
                members,
                edges,
                nbrs,
                cfg.min_flooding,
                |n| {
                    Some(states[peer.index()].table.get(n).unwrap_or_else(|| {
                        cfg.probe.perturb(peer, n, ov.link_cost(oracle, peer, n))
                    }))
                },
                prim,
                extras,
                tree,
            );
        }
        self.apply_tree_diff(ov, oracle, peer, &scratch.tree);
        self.scratch.put(scratch);
    }

    /// Diffs `new_tree` against `peer`'s previous tree and (un)subscribes
    /// forwarding with the affected partners; each notification is one
    /// tiny control message on that logical link. Shared by the serial
    /// path and the pipeline's tree commit, so both charge identically.
    fn apply_tree_diff(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        new_tree: &[PeerId],
    ) {
        let mut old_tree = std::mem::take(&mut self.states[peer.index()].own_tree);
        for &f in new_tree.iter().filter(|f| !old_tree.contains(f)) {
            self.note_holder(f, peer);
            let req = &mut self.states[f.index()].requested;
            if !req.contains(&peer) {
                req.push(peer);
                self.note_holder(peer, f);
            }
            let cost = ov.link_cost(oracle, peer, f);
            self.ledger.charge(
                OverheadKind::TableExchange,
                f64::from(cost) * self.notify_units,
            );
        }
        for &f in old_tree.iter().filter(|f| !new_tree.contains(f)) {
            self.states[f.index()].requested.retain(|&p| p != peer);
            let cost = ov.link_cost(oracle, peer, f);
            self.ledger.charge(
                OverheadKind::TableExchange,
                f64::from(cost) * self.notify_units,
            );
        }
        // Reuse the old tree's allocation for the new one.
        old_tree.clear();
        old_tree.extend_from_slice(new_tree);
        let s = &mut self.states[peer.index()];
        s.own_tree = old_tree;
        s.tree_built = true;
    }

    fn process_watches(&mut self, ov: &mut Overlay, oracle: &dyn DistancePlane, peer: PeerId) {
        let watches = std::mem::take(&mut self.states[peer.index()].watches);
        let own_tree = self.states[peer.index()].own_tree.clone();
        let mut keep = Vec::new();
        for (far, near) in watches {
            // We only see `far`'s table when it is a current neighbor
            // (its table arrived with the closure exchange); the triage
            // keeps watching until fresh information arrives. Triage
            // checks adjacency before reading the table, so the live
            // lookup is equivalent to the historical cloned-table map.
            let verdict = {
                let far_table = (far == peer || ov.are_neighbors(peer, far))
                    .then(|| &self.states[far.index()].table);
                policy::triage_watch(ov, peer, far, near, &own_tree, far_table)
            };
            match verdict {
                WatchVerdict::Expire => {}
                WatchVerdict::Keep => keep.push((far, near)),
                WatchVerdict::Cut => {
                    if ov.disconnect(peer, far).is_ok() {
                        self.charge_disconnect(ov, oracle, peer, far);
                        self.note_link_down(peer, far);
                    }
                }
            }
        }
        self.states[peer.index()].watches = keep;
    }

    fn phase3_adapt<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        rng: &mut R,
    ) -> AdaptOutcome {
        // Non-flooding neighbors = current neighbors not on the tree (and
        // not requested by a partner's tree).
        let mut flooding = Vec::new();
        self.flooding_neighbors_into(peer, &mut flooding);
        let non_flooding: Vec<PeerId> = ov
            .neighbors(peer)
            .iter()
            .copied()
            .filter(|n| !flooding.contains(n))
            .collect();
        if non_flooding.is_empty() {
            return AdaptOutcome::KeptAll;
        }

        // Pick the non-flooding neighbor B to improve.
        let far = match self.cfg.policy {
            ReplacePolicy::Random => non_flooding[rng.gen_range(0..non_flooding.len())],
            ReplacePolicy::Naive | ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId)> = None;
                for &b in &non_flooding {
                    let c = self.states[peer.index()].table.get(b).unwrap_or_else(|| {
                        self.cfg
                            .probe
                            .perturb(peer, b, ov.link_cost(oracle, peer, b))
                    });
                    if best.is_none_or(|(bc, bp)| (c, b) > (bc, bp)) {
                        best = Some((c, b));
                    }
                }
                best.expect("non_flooding is non-empty").1
            }
        };

        // Candidates: B's neighbors (from its table) that we don't already
        // know directly. `far` is a current neighbor, so its live table is
        // exactly what the closure exchange delivered this round.
        let candidates = policy::phase3_candidates(ov, peer, &self.states[far.index()].table);
        if candidates.is_empty() {
            return AdaptOutcome::KeptAll;
        }

        // Probe the candidate(s): CH. Lost probes drop the candidate.
        let (near, near_cost, far_near_cost) = match self.cfg.policy {
            ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId, Delay)> = None;
                for &(h, bh) in &candidates {
                    let Some(ch) = self.probe_and_charge(ov, oracle, peer, h) else {
                        continue;
                    };
                    if best.is_none_or(|(bc, bp, _)| (ch, h) < (bc, bp)) {
                        best = Some((ch, h, bh));
                    }
                }
                let Some((ch, h, bh)) = best else {
                    return AdaptOutcome::KeptAll;
                };
                (h, ch, bh)
            }
            _ => {
                let (h, bh) = candidates[rng.gen_range(0..candidates.len())];
                let Some(ch) = self.probe_and_charge(ov, oracle, peer, h) else {
                    return AdaptOutcome::KeptAll;
                };
                (h, ch, bh)
            }
        };

        let far_cost = self.states[peer.index()].table.get(far).unwrap_or_else(|| {
            self.cfg
                .probe
                .perturb(peer, far, ov.link_cost(oracle, peer, far))
        });

        match policy::figure4_decide(
            near_cost,
            far_cost,
            far_near_cost,
            ov.are_neighbors(far, near),
        ) {
            Figure4Action::Replace => match self.replace_link(ov, oracle, peer, far, near) {
                Ok(()) => {
                    self.note_link_down(peer, far);
                    self.learn_cost(peer, near, near_cost);
                    AdaptOutcome::Replaced { far, near }
                }
                Err(_) => AdaptOutcome::KeptAll,
            },
            Figure4Action::Add => match ov.connect(peer, near) {
                Ok(()) => {
                    self.charge_connect(ov, oracle, peer, near);
                    self.learn_cost(peer, near, near_cost);
                    self.add_watch(peer, far, near);
                    AdaptOutcome::Added { near }
                }
                Err(_) => AdaptOutcome::KeptAll,
            },
            Figure4Action::Keep => AdaptOutcome::KeptAll,
        }
    }

    /// Atomically swap `peer–far` for `peer–near`, tolerating degree caps.
    fn replace_link(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        far: PeerId,
        near: PeerId,
    ) -> Result<(), OverlayError> {
        match ov.connect(peer, near) {
            Ok(()) => {
                self.charge_connect(ov, oracle, peer, near);
                ov.disconnect(peer, far)?;
                self.charge_disconnect(ov, oracle, peer, far);
                Ok(())
            }
            Err(OverlayError::DegreeCapReached(p)) if p == peer => {
                // Free our own slot first, then connect; roll back on failure.
                ov.disconnect(peer, far)?;
                match ov.connect(peer, near) {
                    Ok(()) => {
                        self.charge_disconnect(ov, oracle, peer, far);
                        self.charge_connect(ov, oracle, peer, near);
                        Ok(())
                    }
                    Err(e) => {
                        ov.connect(peer, far).expect("restoring just-removed link");
                        Err(e)
                    }
                }
            }
            Err(e) => Err(e),
        }
    }

    fn charge_connect(&mut self, ov: &Overlay, oracle: &dyn DistancePlane, a: PeerId, b: PeerId) {
        let cost = ov.link_cost(oracle, a, b);
        self.ledger.charge(
            OverheadKind::Reconnect,
            f64::from(cost) * self.connect_units,
        );
    }

    fn charge_disconnect(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        a: PeerId,
        b: PeerId,
    ) {
        let cost = ov.link_cost(oracle, a, b);
        self.ledger.charge(
            OverheadKind::Reconnect,
            f64::from(cost) * self.disconnect_units,
        );
    }

    /// One full optimization round: every alive peer probes (phase 1),
    /// then — in random order — rebuilds its tree and makes one adaptive
    /// attempt (phases 2–3).
    ///
    /// With [`AceConfig::parallel`] set, the round instead runs the
    /// plan/commit pipeline (see [`AceConfig::parallel`]): one `u64` is
    /// drawn from `rng` as the round seed and each peer plans with its own
    /// seed-derived RNG stream, so the outcome is independent of thread
    /// scheduling and worker count.
    pub fn round<R: Rng + ?Sized>(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        rng: &mut R,
    ) -> RoundStats {
        // Lifecycle calls since the last round only marked their core
        // cache purges; clear them before anything reads the cache.
        self.core_cache.flush_purges();
        if self.cfg.parallel {
            let round_seed: u64 = rng.gen();
            return self.round_planned(ov, oracle, round_seed);
        }
        let before = self.ledger;
        let mut stats = RoundStats::default();
        // The controller's due-gating: without one, every alive peer is
        // due and the round is byte-identical to the static schedule.
        let mut due: Vec<PeerId> = ov.alive_peers().filter(|&p| self.peer_due(p)).collect();
        let mut ran = vec![false; self.states.len()];
        for p in &due {
            ran[p.index()] = true;
            self.phase1_probe(ov, oracle, *p);
        }
        // Random execution order models asynchronous, independent peers.
        for i in (1..due.len()).rev() {
            due.swap(i, rng.gen_range(0..=i));
        }
        // Injected departures/rejoins strike once halfway through the
        // optimization sweep — peers that already optimized saw the old
        // population, the rest see the new one, like real churn would.
        if due.is_empty() {
            self.apply_mid_round_faults(ov, &mut stats);
        }
        let fault_point = due.len() / 2;
        for (i, p) in due.into_iter().enumerate() {
            if i == fault_point {
                self.apply_mid_round_faults(ov, &mut stats);
            }
            if !ov.is_alive(p) {
                continue; // departed mid-round
            }
            match self.optimize_peer(ov, oracle, p, rng) {
                AdaptOutcome::Replaced { .. } => stats.replaced += 1,
                AdaptOutcome::Added { .. } => stats.added += 1,
                AdaptOutcome::KeptAll => {}
            }
            stats.trees_built += 1;
        }
        stats.overhead = self.ledger.since(&before);
        stats.core_cache = self.core_cache_stats();
        self.feed_controller(ov, &stats, &ran);
        self.rounds_run += 1;
        debug_assert!(ov.check_invariants().is_ok());
        debug_assert_eq!(self.check_invariants(ov), Ok(()));
        stats
    }

    /// A trees-only round: phase 1 probing and phase 2 tree building for
    /// every alive peer, with no phase-3 rewiring. Quantifies how much of
    /// ACE's gain comes from forwarding trees alone (ablation) and renders
    /// the paper's Table 1/2 examples on an unmodified topology.
    pub fn tree_round(&mut self, ov: &Overlay, oracle: &dyn DistancePlane) -> RoundStats {
        let before = self.ledger;
        let mut stats = RoundStats::default();
        let alive: Vec<PeerId> = ov.alive_peers().collect();
        for p in &alive {
            self.phase1_probe(ov, oracle, *p);
        }
        for p in alive {
            self.build_tree(ov, oracle, p);
            stats.trees_built += 1;
        }
        stats.overhead = self.ledger.since(&before);
        stats.core_cache = self.core_cache_stats();
        self.rounds_run += 1;
        stats
    }

    // ----- parallel plan/commit pipeline ---------------------------------

    /// Worker-thread count for the pipeline (`cfg.workers`, or one per
    /// available core when 0). Never affects results, only wall time.
    fn effective_workers(&self) -> usize {
        pool::effective_workers(self.cfg.workers)
    }

    /// Per-peer RNG stream seed: distinct per `(round_seed, peer)` and
    /// independent of which worker thread runs the plan.
    fn peer_stream_seed(round_seed: u64, peer: PeerId) -> u64 {
        round_seed ^ (peer.index() as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Pure probe: charges `ledger` (a plan-local ledger, merged at commit
    /// in peer-id order) and returns the perturbed measurement, or `None`
    /// when fault injection lost every attempt. Safe to run concurrently —
    /// [`ProbeModel::perturb`] and the fault hashes are pair-deterministic.
    fn plan_probe(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        ledger: &mut OverheadLedger,
        a: PeerId,
        b: PeerId,
    ) -> Option<Delay> {
        self.probe_with_faults(ov, oracle, ledger, a, b)
    }

    /// Stage A: plan one peer's phase 2 against the round-start snapshot,
    /// using the worker's reusable arenas. Read-only on `self`; every
    /// side effect is recorded in the plan. `want_snap` (set when faults
    /// are configured) captures the closure tables for stage B, which
    /// must read what stage A saw.
    fn plan_tree_scratch(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        want_snap: bool,
        scratch: &mut PlanScratch,
    ) -> TreePlan {
        scratch.collect_closure(ov, peer, self.cfg.depth);
        // The plan body touches, per member, four lines scattered
        // across peer-count-sized vecs (state header, table data,
        // neighbor-list header and data). Left to the walk itself those
        // misses serialize behind each pointer chase; two batched
        // opaque-read sweeps — headers first, then the data the headers
        // point at — overlap them across the whole member set instead.
        for &m in &scratch.members {
            std::hint::black_box(self.states[m.index()].table.len());
            ov.prefetch_neighbors(m);
        }
        for &m in &scratch.members {
            std::hint::black_box(ov.neighbors(m).first().copied());
            std::hint::black_box(self.states[m.index()].table.as_slice().first().copied());
        }
        // Same batching for the pairwise-core probes: stage the
        // non-adjacent neighbor pairs (the adjacency tests hit the
        // neighbor lists the sweeps just pulled in) with a prefetch
        // each, so the edge loop below resolves them against lines
        // already in flight.
        scratch.pairs.clear();
        let nbrs = ov.neighbors(peer);
        for i in 0..nbrs.len() {
            for j in (i + 1)..nbrs.len() {
                let (a, b) = (nbrs[i], nbrs[j]);
                if ov.are_neighbors(a, b) {
                    continue;
                }
                self.core_cache.prefetch(a, b);
                scratch.pairs.push((a, b));
            }
        }

        let mut ledger = OverheadLedger::new();
        self.charge_closure_exchange(ov, oracle, scratch, &mut ledger);
        let known = want_snap
            .then(|| KnownSnap::capture(scratch, |w| self.states[w.index()].table.clone()));

        scratch.collect_internal_edges(ov, |a, b| {
            self.states[a.index()]
                .table
                .get(b)
                .or_else(|| self.states[b.index()].table.get(a))
                .or_else(|| self.plan_probe(ov, oracle, &mut ledger, a, b))
        });
        let mut core_probes: Vec<((PeerId, PeerId), Delay)> = Vec::new();
        for pair in 0..scratch.pairs.len() {
            let (a, b) = scratch.pairs[pair];
            let cost = match self.core_cache.get(a, b) {
                Some(c) => Some(c),
                None => {
                    // Concurrent planners may both pay for the same
                    // missing pair (as real concurrent peers would);
                    // commit keeps the first value so the cache stays
                    // deterministic.
                    let c = self.plan_probe(ov, oracle, &mut ledger, a, b);
                    if let Some(c) = c {
                        core_probes.push((if a <= b { (a, b) } else { (b, a) }, c));
                    }
                    c
                }
            };
            if let Some(cost) = cost {
                let sa = scratch.slot(a).expect("direct neighbor is a member");
                let sb = scratch.slot(b).expect("direct neighbor is a member");
                scratch.edges.push(SlotEdge { a: sa, b: sb, cost });
            }
        }
        {
            let PlanScratch {
                members,
                edges,
                prim,
                extras,
                tree,
                ..
            } = &mut *scratch;
            policy::tree_with_scope_guard_scratch(
                peer,
                members,
                edges,
                nbrs,
                self.cfg.min_flooding,
                |n| {
                    Some(self.states[peer.index()].table.get(n).unwrap_or_else(|| {
                        self.cfg
                            .probe
                            .perturb(peer, n, ov.link_cost(oracle, peer, n))
                    }))
                },
                prim,
                extras,
                tree,
            );
        }
        TreePlan {
            peer,
            known,
            new_tree: scratch.tree.clone(),
            core_probes,
            ledger,
        }
    }

    /// Serial commit of stage A: merge plan ledgers, fill the pairwise
    /// core cache (first value wins), and apply each tree diff — all in
    /// plan (peer-id) order, which also fixes float summation order.
    fn commit_trees(
        &mut self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        plans: &[TreePlan],
        stats: &mut RoundStats,
    ) {
        for plan in plans {
            self.ledger.merge(&plan.ledger);
            for &((a, b), c) in &plan.core_probes {
                self.core_cache.insert_if_absent(a, b, c);
            }
            self.apply_tree_diff(ov, oracle, plan.peer, &plan.new_tree);
            stats.trees_built += 1;
        }
    }

    /// Stage B: plan one peer's watch expiry and phase-3 attempt. Reads
    /// the committed trees (post stage A) and the round-start overlay;
    /// randomness comes from the peer's own seed-derived stream.
    fn plan_adapt(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        known: &KnownView<'_>,
        scratch: &mut PlanScratch,
        rng: &mut StdRng,
    ) -> AdaptPlan {
        let mut ledger = OverheadLedger::new();
        let state = &self.states[peer.index()];

        // Watch triage (read-only twin of `process_watches`); cuts are
        // revalidated at commit because earlier commits may rewire links.
        let mut watch_cuts = Vec::new();
        let mut watch_keeps = Vec::new();
        for &(far, near) in &state.watches {
            match policy::triage_watch(ov, peer, far, near, &state.own_tree, known.get(far)) {
                WatchVerdict::Expire => {}
                WatchVerdict::Keep => watch_keeps.push((far, near)),
                WatchVerdict::Cut => watch_cuts.push((far, near)),
            }
        }

        let proposal = self.plan_phase3(ov, oracle, peer, known, scratch, &mut ledger, rng);
        AdaptPlan {
            peer,
            watch_cuts,
            watch_keeps,
            proposal,
            ledger,
        }
    }

    /// Read-only twin of `phase3_adapt`: same Figure-4 decision rules, but
    /// probes charge the plan ledger and the chosen action is returned as
    /// a proposal instead of being applied. Selection buffers live in the
    /// worker's reusable arenas.
    #[allow(clippy::too_many_arguments)]
    fn plan_phase3(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
        known: &KnownView<'_>,
        scratch: &mut PlanScratch,
        ledger: &mut OverheadLedger,
        rng: &mut StdRng,
    ) -> Proposal {
        let PlanScratch {
            flooding,
            non_flooding,
            candidates,
            ..
        } = &mut *scratch;
        self.flooding_neighbors_into(peer, flooding);
        non_flooding.clear();
        non_flooding.extend(
            ov.neighbors(peer)
                .iter()
                .copied()
                .filter(|n| !flooding.contains(n)),
        );
        if non_flooding.is_empty() {
            return Proposal::Keep;
        }

        let far = match self.cfg.policy {
            ReplacePolicy::Random => non_flooding[rng.gen_range(0..non_flooding.len())],
            ReplacePolicy::Naive | ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId)> = None;
                for &b in non_flooding.iter() {
                    let c = self.states[peer.index()].table.get(b).unwrap_or_else(|| {
                        self.cfg
                            .probe
                            .perturb(peer, b, ov.link_cost(oracle, peer, b))
                    });
                    if best.is_none_or(|(bc, bp)| (c, b) > (bc, bp)) {
                        best = Some((c, b));
                    }
                }
                best.expect("non_flooding is non-empty").1
            }
        };

        let Some(far_table) = known.get(far) else {
            return Proposal::Keep;
        };
        policy::phase3_candidates_into(ov, peer, far_table, candidates);
        if candidates.is_empty() {
            return Proposal::Keep;
        }

        let (near, near_cost, far_near_cost) = match self.cfg.policy {
            ReplacePolicy::Closest => {
                let mut best: Option<(Delay, PeerId, Delay)> = None;
                for &(h, bh) in candidates.iter() {
                    let Some(ch) = self.plan_probe(ov, oracle, ledger, peer, h) else {
                        continue;
                    };
                    if best.is_none_or(|(bc, bp, _)| (ch, h) < (bc, bp)) {
                        best = Some((ch, h, bh));
                    }
                }
                let Some((ch, h, bh)) = best else {
                    return Proposal::Keep;
                };
                (h, ch, bh)
            }
            _ => {
                let (h, bh) = candidates[rng.gen_range(0..candidates.len())];
                let Some(ch) = self.plan_probe(ov, oracle, ledger, peer, h) else {
                    return Proposal::Keep;
                };
                (h, ch, bh)
            }
        };

        let far_cost = self.states[peer.index()].table.get(far).unwrap_or_else(|| {
            self.cfg
                .probe
                .perturb(peer, far, ov.link_cost(oracle, peer, far))
        });

        match policy::figure4_decide(
            near_cost,
            far_cost,
            far_near_cost,
            ov.are_neighbors(far, near),
        ) {
            Figure4Action::Replace => Proposal::Replace {
                far,
                near,
                near_cost,
            },
            Figure4Action::Add => Proposal::Add {
                far,
                near,
                near_cost,
            },
            Figure4Action::Keep => Proposal::Keep,
        }
    }

    /// Serial commit of stage B, in plan (peer-id) order: apply watch cuts
    /// and phase-3 proposals, revalidating every Figure-4 precondition
    /// against the *current* overlay — an earlier peer's commit may have
    /// consumed a link or a degree slot a plan relied on; such plans
    /// degrade to keep-all, exactly as a lost race would in a real
    /// deployment.
    fn commit_adaptations(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        plans: Vec<AdaptPlan>,
        stats: &mut RoundStats,
    ) {
        for plan in plans {
            self.ledger.merge(&plan.ledger);
            let peer = plan.peer;

            let mut keep = plan.watch_keeps;
            for (far, near) in plan.watch_cuts {
                if !ov.are_neighbors(peer, far) || !ov.are_neighbors(peer, near) {
                    continue; // expired since planning
                }
                let has_detour = ov
                    .neighbors(peer)
                    .iter()
                    .any(|&n| n != far && ov.are_neighbors(n, far));
                if !has_detour {
                    keep.push((far, near));
                    continue;
                }
                if ov.disconnect(peer, far).is_ok() {
                    self.charge_disconnect(ov, oracle, peer, far);
                    self.note_link_down(peer, far);
                }
            }
            self.states[peer.index()].watches = keep;

            match plan.proposal {
                Proposal::Replace {
                    far,
                    near,
                    near_cost,
                } => {
                    let valid = ov.is_alive(near)
                        && ov.are_neighbors(peer, far)
                        && !ov.are_neighbors(peer, near)
                        && ov.are_neighbors(far, near);
                    if valid && self.replace_link(ov, oracle, peer, far, near).is_ok() {
                        self.note_link_down(peer, far);
                        self.learn_cost(peer, near, near_cost);
                        stats.replaced += 1;
                    }
                }
                Proposal::Add {
                    far,
                    near,
                    near_cost,
                } => {
                    let valid = ov.is_alive(near) && !ov.are_neighbors(peer, near);
                    if valid && ov.connect(peer, near).is_ok() {
                        self.charge_connect(ov, oracle, peer, near);
                        self.learn_cost(peer, near, near_cost);
                        self.add_watch(peer, far, near);
                        stats.added += 1;
                    }
                }
                Proposal::Keep => {}
            }
        }
    }

    /// The parallel round body: phase 1 serially, then plan trees in
    /// parallel / commit serially, then plan adaptations in parallel /
    /// commit serially. Bit-identical for any worker count.
    fn round_planned(
        &mut self,
        ov: &mut Overlay,
        oracle: &dyn DistancePlane,
        round_seed: u64,
    ) -> RoundStats {
        let before = self.ledger;
        let mut stats = RoundStats::default();
        // Due-gating is decided serially before any plan runs, so the
        // plan stages see an identical work list for every worker count.
        let due: Vec<PeerId> = ov.alive_peers().filter(|&p| self.peer_due(p)).collect();
        let mut ran = vec![false; self.states.len()];
        for &p in &due {
            ran[p.index()] = true;
            self.phase1_probe(ov, oracle, p);
        }
        let workers = self.effective_workers();
        // Table snapshots are only needed when mid-round faults can
        // mutate tables between the tree commit and the adaptation
        // stage; faultless rounds read live tables in stage B instead.
        let want_snap = self.cfg.faults.is_some();

        let plans: Vec<TreePlan> = {
            let this = &*self;
            let ov_ref = &*ov;
            plan_parallel_scratch(
                &this.scratch,
                due.len(),
                workers,
                PlanScratch::default,
                |scratch, i| this.plan_tree_scratch(ov_ref, oracle, due[i], want_snap, scratch),
            )
        };
        self.commit_trees(ov, oracle, &plans, &mut stats);

        // Injected departures/rejoins strike between the tree commit and
        // the adaptation stage: stage B plans only the survivors, against
        // the post-churn overlay — the pipeline's analogue of the serial
        // round's halfway fault point. Decisions are pure hashes of
        // (fault seed, round, peer), so worker count stays irrelevant.
        self.apply_mid_round_faults(ov, &mut stats);
        let survivors: Vec<usize> = (0..due.len()).filter(|&i| ov.is_alive(due[i])).collect();

        let adapt_plans: Vec<AdaptPlan> = {
            let this = &*self;
            let ov_ref = &*ov;
            plan_parallel_scratch(
                &this.scratch,
                survivors.len(),
                workers,
                PlanScratch::default,
                |scratch, k| {
                    let i = survivors[k];
                    let peer = due[i];
                    let known = if want_snap {
                        KnownView::Snap(
                            plans[i]
                                .known
                                .as_ref()
                                .expect("fault configs snapshot the closure tables"),
                        )
                    } else {
                        KnownView::Live(this, ov_ref, peer)
                    };
                    let mut rng = StdRng::seed_from_u64(Self::peer_stream_seed(round_seed, peer));
                    this.plan_adapt(ov_ref, oracle, peer, &known, scratch, &mut rng)
                },
            )
        };
        drop(plans);
        self.commit_adaptations(ov, oracle, adapt_plans, &mut stats);

        stats.overhead = self.ledger.since(&before);
        stats.core_cache = self.core_cache_stats();
        self.feed_controller(ov, &stats, &ran);
        self.rounds_run += 1;
        debug_assert!(ov.check_invariants().is_ok());
        debug_assert_eq!(self.check_invariants(ov), Ok(()));
        stats
    }

    /// Applies the configured mid-round departures and rejoins, in
    /// peer-id order. Crashes clear only the crasher's state (no
    /// goodbye); graceful leaves purge both sides; rejoins bootstrap from
    /// the overlay's address cache with a per-`(round, peer)` seeded RNG,
    /// so no shared RNG stream is consumed and the parallel pipeline's
    /// determinism guarantee holds.
    fn apply_mid_round_faults(&mut self, ov: &mut Overlay, stats: &mut RoundStats) {
        let Some(f) = self.cfg.faults else { return };
        let round = self.rounds_run;
        let peers: Vec<PeerId> = ov.peers().collect();
        for p in peers {
            if ov.is_alive(p) {
                if ov.alive_count() <= 1 {
                    continue; // never empty the population
                }
                match f.departure(round, p) {
                    Some(DepartureKind::Crash) => {
                        let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                        ov.leave(p).expect("alive peer can leave");
                        self.on_crash(p);
                        self.snap_neighbors(ov, &nbrs);
                        stats.crashed += 1;
                    }
                    Some(DepartureKind::Graceful) => {
                        let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                        ov.leave(p).expect("alive peer can leave");
                        self.on_leave(p);
                        self.snap_neighbors(ov, &nbrs);
                        stats.left += 1;
                    }
                    None => {}
                }
            } else if f.rejoins(round, p) {
                let mut rng = StdRng::seed_from_u64(f.rejoin_seed(round, p));
                if ov.join(p, f.rejoin_attach, &mut rng).is_ok() {
                    self.on_join(p);
                    let nbrs: Vec<PeerId> = ov.neighbors(p).to_vec();
                    self.snap_neighbors(ov, &nbrs);
                    stats.rejoined += 1;
                }
            }
        }
    }

    /// Live forward targets for `peer`: its flooding set filtered to
    /// current neighbors. When the peer has a tree but *every* tree entry
    /// is stale (churn cut them all since the tree was built), it falls
    /// back to blind flooding over its current neighbors — an empty
    /// target set would silently black-hole every query routed through
    /// it. The query's sender is excluded only after that fallback
    /// decision: a tree leaf whose one live link is the sender is a
    /// legitimate endpoint, not a black hole, and must not start
    /// flooding.
    pub fn forward_targets_into(
        &self,
        ov: &Overlay,
        peer: PeerId,
        from: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        policy::select_forward_targets(
            ov,
            peer,
            from,
            self.tree_built(peer),
            |buf| self.flooding_neighbors_into(peer, buf),
            out,
        );
    }

    /// Audits the engine's cross-peer state against the overlay; rounds
    /// run it under `debug_assert` and the churn tests call it directly.
    ///
    /// 1. **Forwarding liveness** — every alive peer with ≥ 1 neighbor
    ///    has ≥ 1 forward target (no query black holes).
    /// 2. **Tree ⊆ neighbors** — an *alive* tree or forward-request
    ///    partner must be a current neighbor. References to dead peers
    ///    are tolerated: a crash sends no goodbye, and phase 1 prunes
    ///    them on the holder's next probe sweep.
    /// 3. **Request symmetry** — `f ∈ own_tree(p)` ⟺ `p ∈ requested(f)`
    ///    for alive pairs, so both ends of a tree edge agree to relay.
    /// 4. **Cost-table symmetry** — when two alive peers both hold an
    ///    entry for each other, it is the same measurement (probes share
    ///    one symmetric exchange).
    /// 5. **Ledger consistency** — every cost finite and non-negative,
    ///    and any charged cost backed by a nonzero message count.
    ///
    /// Violations are typed ([`InvariantViolation`]); `Display` renders
    /// the same message text the `String`-returning era produced.
    pub fn check_invariants(&self, ov: &Overlay) -> Result<(), InvariantViolation> {
        let viol = |kind, peer, partner, message: String| {
            Err(InvariantViolation::new(kind, peer, partner, message))
        };
        let mut targets = Vec::new();
        for p in ov.peers() {
            if !ov.is_alive(p) {
                continue;
            }
            let s = &self.states[p.index()];
            if !ov.neighbors(p).is_empty() {
                self.forward_targets_into(ov, p, None, &mut targets);
                if targets.is_empty() {
                    return viol(
                        ViolationKind::ForwardBlackHole,
                        Some(p),
                        None,
                        format!("peer {p} has neighbors but no forward targets"),
                    );
                }
            }
            for (name, list) in [("tree", &s.own_tree), ("request", &s.requested)] {
                for (i, &e) in list.iter().enumerate() {
                    if e == p {
                        return viol(
                            ViolationKind::ListCorrupt,
                            Some(p),
                            None,
                            format!("peer {p} {name} list contains itself"),
                        );
                    }
                    if list[..i].contains(&e) {
                        return viol(
                            ViolationKind::ListCorrupt,
                            Some(p),
                            Some(e),
                            format!("peer {p} {name} list has duplicate {e}"),
                        );
                    }
                }
            }
            for &f in &s.own_tree {
                if !ov.is_alive(f) {
                    continue;
                }
                if !ov.are_neighbors(p, f) {
                    return viol(
                        ViolationKind::StaleLink,
                        Some(p),
                        Some(f),
                        format!("peer {p} tree entry {f}: alive but not a neighbor"),
                    );
                }
                if !self.states[f.index()].requested.contains(&p) {
                    return viol(
                        ViolationKind::Unmirrored,
                        Some(p),
                        Some(f),
                        format!("tree edge {p}->{f} not mirrored in {f}'s forward requests"),
                    );
                }
            }
            for &r in &s.requested {
                if !ov.is_alive(r) {
                    continue;
                }
                if !ov.are_neighbors(p, r) {
                    return viol(
                        ViolationKind::StaleLink,
                        Some(p),
                        Some(r),
                        format!("peer {p} forward request from {r}: alive but not a neighbor"),
                    );
                }
                if !self.states[r.index()].own_tree.contains(&p) {
                    return viol(
                        ViolationKind::Unmirrored,
                        Some(p),
                        Some(r),
                        format!("forward request {r}->{p} has no matching tree entry at {r}"),
                    );
                }
            }
            for (n, c) in s.table.iter() {
                if !ov.is_alive(n) {
                    continue;
                }
                if let Some(c2) = self.states[n.index()].table.get(p) {
                    if c != c2 {
                        return viol(
                            ViolationKind::AsymmetricCost,
                            Some(p),
                            Some(n),
                            format!("asymmetric cost {p}<->{n}: {c} vs {c2}"),
                        );
                    }
                }
            }
        }
        for kind in OverheadKind::ALL {
            let cost = self.ledger.cost_of(kind);
            if !cost.is_finite() || cost < 0.0 {
                return viol(
                    ViolationKind::LedgerAccounting,
                    None,
                    None,
                    format!("ledger {kind:?} cost invalid: {cost}"),
                );
            }
            if cost > 0.0 && self.ledger.count_of(kind) == 0 {
                return viol(
                    ViolationKind::LedgerAccounting,
                    None,
                    None,
                    format!("ledger {kind:?} charged {cost} over zero messages"),
                );
            }
        }
        // 6. **Controller hygiene** — autorate soft state never
        //    references a departed peer (the purge taxonomy clears
        //    entries on every lifecycle event) and never exceeds its
        //    byte budget.
        if let Some(c) = &self.controller {
            c.audit(|p| ov.is_alive(p), |_| 0)?;
        }
        // 7. **Closure coherence** — the dense BFS arenas reproduce the
        //    canonical `Closure` exactly (members, order), and every
        //    member's relay path is well-formed: it starts at the member,
        //    ends at the source, and each hop crosses a live overlay
        //    edge. Walked with one reused buffer per audit.
        let mut scratch = self.scratch.take().unwrap_or_default();
        let mut path = Vec::new();
        for p in ov.alive_peers() {
            let closure = Closure::collect(ov, p, self.cfg.depth);
            scratch.collect_closure(ov, p, self.cfg.depth);
            if scratch.members != closure.members() {
                return viol(
                    ViolationKind::ListCorrupt,
                    Some(p),
                    None,
                    format!("peer {p}: dense closure BFS diverged from Closure::collect"),
                );
            }
            for &m in closure.members() {
                if !closure.relay_path_into(m, &mut path) {
                    return viol(
                        ViolationKind::ListCorrupt,
                        Some(p),
                        Some(m),
                        format!("peer {p}: member {m} has no relay path"),
                    );
                }
                let hop = closure.hop_of(m).expect("member has a hop depth") as usize;
                if path.len() != hop + 1 || path[0] != m || *path.last().unwrap() != p {
                    return viol(
                        ViolationKind::ListCorrupt,
                        Some(p),
                        Some(m),
                        format!("peer {p}: member {m} relay path malformed: {path:?}"),
                    );
                }
                for w in path.windows(2) {
                    if !ov.are_neighbors(w[0], w[1]) {
                        return viol(
                            ViolationKind::StaleLink,
                            Some(w[0]),
                            Some(w[1]),
                            format!("peer {p}: relay hop {}-{} is not an edge", w[0], w[1]),
                        );
                    }
                }
            }
        }
        self.scratch.put(scratch);
        Ok(())
    }

    /// Test hook: runs one stage-A plan pass for `peer` with pooled
    /// arenas, without committing it, and returns the planned tree and
    /// the plan's ledger. Once the arenas are warm, a probe-free plan
    /// allocates only the returned tree — the zero-alloc test pins that.
    #[doc(hidden)]
    pub fn plan_tree_check(
        &self,
        ov: &Overlay,
        oracle: &dyn DistancePlane,
        peer: PeerId,
    ) -> (Vec<PeerId>, OverheadLedger) {
        let mut scratch = self.scratch.take().unwrap_or_default();
        let plan = self.plan_tree_scratch(ov, oracle, peer, false, &mut scratch);
        self.scratch.put(scratch);
        (plan.new_tree, plan.ledger)
    }

    /// Order-independent digest of all per-peer ACE state plus the ledger
    /// bit patterns. Two engines with equal digests made bit-identical
    /// decisions — the equivalence tests compare worker counts this way.
    pub fn state_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for s in &self.states {
            let mut entries: Vec<(PeerId, Delay)> = s.table.iter().collect();
            entries.sort_unstable();
            entries.hash(&mut h);
            s.own_tree.hash(&mut h);
            s.requested.hash(&mut h);
            s.watches.hash(&mut h);
            s.tree_built.hash(&mut h);
        }
        // ControlRetry belongs to the async wire model; the engine never
        // charges it, and skipping it keeps digests stable across ledger
        // taxonomy growth.
        for kind in OverheadKind::ALL {
            if kind == OverheadKind::ControlRetry {
                continue;
            }
            self.ledger.cost_of(kind).to_bits().hash(&mut h);
            self.ledger.count_of(kind).hash(&mut h);
        }
        // Mixed only when the controller exists, so every digest
        // committed before autorate landed is reproduced byte-for-byte
        // by controller-free configs.
        if let Some(c) = &self.controller {
            c.digest().hash(&mut h);
        }
        h.finish()
    }
}

/// One peer's planned phase 2: the tree it wants, the table snapshot it
/// gathered (fault configs only), the core probes it had to pay for, and
/// the overhead it incurred.
struct TreePlan {
    peer: PeerId,
    known: Option<KnownSnap>,
    new_tree: Vec<PeerId>,
    core_probes: Vec<((PeerId, PeerId), Delay)>,
    ledger: OverheadLedger,
}

/// Stage B's view of the closure tables stage A gathered: a fault-time
/// snapshot, or (faultless rounds) the live tables — nothing mutates
/// them between the stages, so the live read is provably identical and
/// skips the per-peer clone entirely.
enum KnownView<'a> {
    Live(&'a AceEngine, &'a Overlay, PeerId),
    Snap(&'a KnownSnap),
}

impl KnownView<'_> {
    fn get(&self, w: PeerId) -> Option<&CostTable> {
        match self {
            KnownView::Live(eng, ov, peer) => {
                (w == *peer || ov.are_neighbors(*peer, w)).then(|| &eng.states[w.index()].table)
            }
            KnownView::Snap(snap) => snap.get(w),
        }
    }
}

/// One peer's planned phase 3 plus watch triage.
struct AdaptPlan {
    peer: PeerId,
    watch_cuts: Vec<(PeerId, PeerId)>,
    watch_keeps: Vec<(PeerId, PeerId)>,
    proposal: Proposal,
    ledger: OverheadLedger,
}

/// A planned Figure-4 action, applied (after revalidation) at commit.
enum Proposal {
    Replace {
        far: PeerId,
        near: PeerId,
        near_cost: Delay,
    },
    Add {
        far: PeerId,
        near: PeerId,
        near_cost: Delay,
    },
    Keep,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_topology::{DistanceOracle, Graph, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Figure 2: peers 0,1 at "MSU", peers 2,3 at "Tsinghua";
    /// physical: 0-1 cheap (1), 2-3 cheap (1), 1-2 expensive (100).
    /// Mismatched overlay: three cross-ocean links (0-2, 0-3, 1-3) plus
    /// the local 2-3; ACE should rewire toward 0-1 + 2-3 + one crossing.
    fn mismatch_env() -> (Overlay, DistanceOracle) {
        let mut g = Graph::new(4);
        g.add_edge(NodeId::new(0), NodeId::new(1), 1).unwrap();
        g.add_edge(NodeId::new(1), NodeId::new(2), 100).unwrap();
        g.add_edge(NodeId::new(2), NodeId::new(3), 1).unwrap();
        let oracle = DistanceOracle::new(g);
        let mut ov = Overlay::new((0..4).map(NodeId::new).collect(), None);
        ov.connect(PeerId::new(0), PeerId::new(2)).unwrap();
        ov.connect(PeerId::new(0), PeerId::new(3)).unwrap();
        ov.connect(PeerId::new(1), PeerId::new(3)).unwrap();
        ov.connect(PeerId::new(2), PeerId::new(3)).unwrap();
        (ov, oracle)
    }

    /// Config for the 4-peer example: the scope guard would keep every
    /// link flooding on such a tiny world, so relax it to 1.
    fn tiny_cfg() -> AceConfig {
        AceConfig {
            min_flooding: 1,
            ..AceConfig::paper_default()
        }
    }

    fn total_link_cost(ov: &Overlay, oracle: &dyn DistancePlane) -> u64 {
        let mut sum = 0u64;
        for p in ov.peers() {
            for &n in ov.neighbors(p) {
                if p < n {
                    sum += u64::from(ov.link_cost(oracle, p, n));
                }
            }
        }
        sum
    }

    #[test]
    fn phase1_builds_symmetric_tables() {
        let (ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        for p in ov.alive_peers() {
            ace.phase1_probe(&ov, &oracle, p);
        }
        assert_eq!(ace.probed_cost(PeerId::new(0), PeerId::new(2)), Some(101));
        assert_eq!(ace.probed_cost(PeerId::new(2), PeerId::new(0)), Some(101));
        assert!(ace.ledger().cost_of(OverheadKind::Probe) > 0.0);
    }

    #[test]
    fn rounds_reduce_total_link_cost_and_keep_connectivity() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, tiny_cfg());
        let mut rng = StdRng::seed_from_u64(42);
        let before = total_link_cost(&ov, &oracle);
        for _ in 0..6 {
            ace.round(&mut ov, &oracle, &mut rng);
            assert!(ov.is_connected(), "ACE must never disconnect the overlay");
            ov.check_invariants().unwrap();
        }
        let after = total_link_cost(&ov, &oracle);
        assert!(after < before, "total cost {before} -> {after}");
        // The far links collapse: only one crossing should remain.
        let crossings = [(0u32, 2u32), (0, 3), (1, 2), (1, 3)]
            .iter()
            .filter(|&&(a, b)| ov.are_neighbors(PeerId::new(a), PeerId::new(b)))
            .count();
        assert!(crossings <= 2, "crossings left: {crossings}");
    }

    /// The [`ace_overlay::ForwardPolicy`] contract the serving engine's
    /// per-batch link-cost table relies on: every forward target is a
    /// current neighbor, for every alive peer and every arrival link —
    /// after quiet rounds and after rounds with crashes, leaves and
    /// rejoins. Flooding-neighbor lists hold each peer once, and a stale
    /// caller buffer never leaks into either output.
    #[test]
    fn flooding_neighbors_are_current_neighbors() {
        for (seed, faults) in [(7, None), (13, Some(faulty(13)))] {
            let (mut ov, oracle, mut rng) = ba_env(seed);
            let cfg = AceConfig {
                faults,
                ..AceConfig::paper_default()
            };
            let mut ace = AceEngine::new(ov.peer_count(), cfg);
            let (mut fresh, mut targets) = (Vec::new(), Vec::new());
            let mut departures = 0;
            for _ in 0..6 {
                let stats = ace.round(&mut ov, &oracle, &mut rng);
                departures += stats.crashed + stats.left;
                for p in ov.alive_peers() {
                    let stale = PeerId::new(ov.peer_count() as u32 + 1);
                    let mut fl = vec![stale, stale];
                    ace.flooding_neighbors_into(p, &mut fl);
                    ace.flooding_neighbors_into(p, &mut fresh);
                    assert_eq!(fl, fresh, "stale buffer content leaked for {p}");
                    for (i, f) in fl.iter().enumerate() {
                        assert!(!fl[..i].contains(f), "{p} lists {f} twice");
                    }
                    let froms =
                        std::iter::once(None).chain(ov.neighbors(p).iter().copied().map(Some));
                    for from in froms {
                        targets.push(stale);
                        ace.forward_targets_into(&ov, p, from, &mut targets);
                        for &t in &targets {
                            assert!(
                                ov.neighbors(p).contains(&t),
                                "{p} (from {from:?}) forwards to non-neighbor {t}"
                            );
                        }
                    }
                }
            }
            assert_eq!(faults.is_some(), departures > 0, "seed {seed}");
        }
    }

    #[test]
    fn holder_lists_stay_bounded_and_keep_live_holders() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        ace.round(&mut ov, &oracle, &mut rng);
        let q = PeerId::new(3);
        let live: Vec<PeerId> = ov
            .peers()
            .filter(|h| ace.states[h.index()].references(q))
            .collect();
        assert!(!live.is_empty(), "peer 3 is everyone's neighbor");
        // `q` names nothing of its own, so it is a stale holder: every
        // append of it is noise the compaction must shed.
        for _ in 0..1000 {
            ace.note_holder(q, q);
        }
        let list = &ace.holders[q.index()];
        assert!(list.len() < 128, "list grew to {}", list.len());
        for h in &live {
            assert!(list.contains(h), "compaction dropped live holder {h}");
        }
        ace.on_leave(q);
        assert!(ace.holders[q.index()].is_empty());
        assert!(!ace.states.iter().any(|s| s.references(q)));
    }

    #[test]
    fn leave_purges_requests_of_partners_that_never_probed() {
        // Only peer 0 has probed, so its tree partners hold a forward
        // request naming it but no cost-table row: the request alone
        // must put them on peer 0's holder list.
        let (ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, tiny_cfg());
        let p0 = PeerId::new(0);
        ace.phase1_probe(&ov, &oracle, p0);
        ace.build_tree(&ov, &oracle, p0);
        let partners: Vec<PeerId> = ov
            .peers()
            .filter(|f| ace.states[f.index()].requested.contains(&p0))
            .collect();
        assert!(!partners.is_empty());
        assert!(partners
            .iter()
            .all(|f| ace.states[f.index()].table.get(p0).is_none()));
        ace.on_leave(p0);
        assert!(!ace.states.iter().any(|s| s.references(p0)));
    }

    #[test]
    fn leave_clears_state() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(1);
        ace.round(&mut ov, &oracle, &mut rng);
        ace.on_leave(PeerId::new(0));
        assert!(!ace.tree_built(PeerId::new(0)));
        let mut fl = vec![PeerId::new(9)];
        ace.flooding_neighbors_into(PeerId::new(0), &mut fl);
        assert!(fl.is_empty());
        assert_eq!(ace.probed_cost(PeerId::new(0), PeerId::new(2)), None);
    }

    #[test]
    fn depth_zero_normalizes_to_one() {
        let ace = AceEngine::new(
            2,
            AceConfig {
                depth: 0,
                ..AceConfig::paper_default()
            },
        );
        assert_eq!(ace.config().depth, 1);
    }

    #[test]
    fn deeper_closures_cost_more_overhead() {
        let mk = |depth| {
            let (mut ov, oracle) = mismatch_env();
            let mut ace = AceEngine::new(
                4,
                AceConfig {
                    depth,
                    ..AceConfig::paper_default()
                },
            );
            let mut rng = StdRng::seed_from_u64(5);
            let stats = ace.round(&mut ov, &oracle, &mut rng);
            stats.overhead.total_cost()
        };
        let h1 = mk(1);
        let h2 = mk(2);
        assert!(h2 > h1, "h=2 overhead {h2} vs h=1 {h1}");
    }

    #[test]
    fn converged_round_reports_no_changes() {
        let (mut ov, oracle) = mismatch_env();
        let mut ace = AceEngine::new(4, AceConfig::paper_default());
        let mut rng = StdRng::seed_from_u64(2);
        let mut converged = false;
        for _ in 0..12 {
            if ace.round(&mut ov, &oracle, &mut rng).converged() {
                converged = true;
                break;
            }
        }
        assert!(converged, "small topology should converge quickly");
    }

    /// Canonical snapshot of the overlay's adjacency for equality checks.
    fn overlay_adjacency(ov: &Overlay) -> Vec<Vec<PeerId>> {
        ov.peers()
            .map(|p| {
                let mut n = ov.neighbors(p).to_vec();
                n.sort_unstable();
                n
            })
            .collect()
    }

    /// The determinism contract: a parallel round's outcome (engine state,
    /// overlay wiring, and exact ledger bits) must not depend on how many
    /// worker threads planned it — with or without fault injection, since
    /// every fault decision is a pure hash, never a thread-dependent draw.
    #[test]
    fn parallel_round_is_bit_identical_across_worker_counts() {
        use ace_overlay::random_overlay;
        use ace_topology::generate::{ba, BaConfig};

        let run = |workers: usize, faults: Option<FaultConfig>| {
            let mut rng = StdRng::seed_from_u64(9);
            let phys = ba(
                &BaConfig {
                    nodes: 120,
                    ..BaConfig::default()
                },
                &mut rng,
            );
            let oracle = DistanceOracle::new(phys);
            let hosts = oracle.graph().nodes().take(40).collect();
            let mut ov = random_overlay(hosts, 4, None, &mut rng);
            let cfg = AceConfig {
                parallel: true,
                workers,
                faults,
                ..AceConfig::paper_default()
            };
            let mut ace = AceEngine::new(ov.peer_count(), cfg);
            for _ in 0..3 {
                ace.round(&mut ov, &oracle, &mut rng);
            }
            ace.check_invariants(&ov).unwrap();
            (
                ace.state_digest(),
                overlay_adjacency(&ov),
                ace.ledger().total_cost().to_bits(),
            )
        };
        for faults in [None, Some(faulty(77))] {
            let one = run(1, faults);
            let four = run(4, faults);
            let three = run(3, faults);
            assert_eq!(one, four, "workers=4 diverged from workers=1");
            assert_eq!(one, three, "workers=3 diverged from workers=1");
        }
    }

    #[test]
    fn parallel_rounds_reduce_cost_and_keep_connectivity() {
        let (mut ov, oracle) = mismatch_env();
        let cfg = AceConfig {
            parallel: true,
            workers: 2,
            ..tiny_cfg()
        };
        let mut ace = AceEngine::new(4, cfg);
        let mut rng = StdRng::seed_from_u64(42);
        let before = total_link_cost(&ov, &oracle);
        for _ in 0..6 {
            ace.round(&mut ov, &oracle, &mut rng);
            assert!(
                ov.is_connected(),
                "parallel ACE must never disconnect the overlay"
            );
            ov.check_invariants().unwrap();
        }
        let after = total_link_cost(&ov, &oracle);
        assert!(after < before, "total cost {before} -> {after}");
    }

    #[test]
    fn closest_policy_probes_more_than_random() {
        let probes_with = |policy| {
            let (mut ov, oracle) = mismatch_env();
            let mut ace = AceEngine::new(
                4,
                AceConfig {
                    policy,
                    ..AceConfig::paper_default()
                },
            );
            let mut rng = StdRng::seed_from_u64(3);
            ace.round(&mut ov, &oracle, &mut rng);
            ace.ledger().count_of(OverheadKind::Probe)
        };
        // Closest probes every candidate, so it can't probe fewer times.
        assert!(probes_with(ReplacePolicy::Closest) >= probes_with(ReplacePolicy::Random));
    }

    /// A moderately hostile fault mix used by the churn/fault tests.
    fn faulty(seed: u64) -> FaultConfig {
        FaultConfig {
            probe_loss: 0.15,
            max_retries: 2,
            backoff: 1.5,
            crash: 0.03,
            leave: 0.03,
            rejoin: 0.5,
            rejoin_attach: 3,
            seed,
        }
    }

    /// A 40-peer overlay on a BA physical network, as in the parallel
    /// determinism test.
    fn ba_env(seed: u64) -> (Overlay, DistanceOracle, StdRng) {
        use ace_overlay::random_overlay;
        use ace_topology::generate::{ba, BaConfig};
        let mut rng = StdRng::seed_from_u64(seed);
        let phys = ba(
            &BaConfig {
                nodes: 120,
                ..BaConfig::default()
            },
            &mut rng,
        );
        let oracle = DistanceOracle::new(phys);
        let hosts = oracle.graph().nodes().take(40).collect();
        let ov = random_overlay(hosts, 4, None, &mut rng);
        (ov, oracle, rng)
    }

    #[test]
    fn lost_probes_charge_retries_and_can_give_up() {
        let (ov, oracle) = mismatch_env();
        let cfg = AceConfig {
            faults: Some(FaultConfig {
                probe_loss: 0.9,
                max_retries: 1,
                seed: 8,
                ..FaultConfig::default()
            }),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(4, cfg);
        for p in ov.alive_peers() {
            ace.phase1_probe(&ov, &oracle, p);
        }
        assert!(
            ace.ledger().count_of(OverheadKind::ProbeRetry) > 0,
            "90% loss must charge wasted attempts"
        );
        let missing = ov
            .alive_peers()
            .flat_map(|p| ov.neighbors(p).iter().map(move |&n| (p, n)))
            .filter(|&(p, n)| ace.probed_cost(p, n).is_none())
            .count();
        assert!(missing > 0, "with one retry at 90% loss, some probes fail");
        ace.check_invariants(&ov).unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid fault config")]
    fn invalid_fault_config_is_rejected_at_construction() {
        AceEngine::new(
            2,
            AceConfig {
                faults: Some(FaultConfig {
                    probe_loss: 2.0,
                    ..FaultConfig::default()
                }),
                ..AceConfig::paper_default()
            },
        );
    }

    #[test]
    fn serial_rounds_with_faults_hold_invariants() {
        let (mut ov, oracle, mut rng) = ba_env(13);
        let cfg = AceConfig {
            faults: Some(faulty(13)),
            ..AceConfig::paper_default()
        };
        let mut ace = AceEngine::new(ov.peer_count(), cfg);
        let (mut departures, mut rejoins) = (0, 0);
        for _ in 0..8 {
            let stats = ace.round(&mut ov, &oracle, &mut rng);
            departures += stats.crashed + stats.left;
            rejoins += stats.rejoined;
            ov.check_invariants().unwrap();
            ace.check_invariants(&ov).unwrap();
        }
        assert!(departures > 0, "fault rates should produce departures");
        assert!(rejoins > 0, "dead peers should rejoin at 50%/round");
        assert!(ace.ledger().cost_of(OverheadKind::ProbeRetry) > 0.0);
    }

    #[test]
    fn auditor_detects_externally_cut_tree_link() {
        let (mut ov, oracle, mut rng) = ba_env(21);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        ace.check_invariants(&ov).unwrap();
        let (p, f) = ov
            .alive_peers()
            .find_map(|p| {
                ace.tree_neighbors_of(p)
                    .iter()
                    .copied()
                    .find(|&f| ov.are_neighbors(p, f))
                    .map(|f| (p, f))
            })
            .expect("some live tree edge exists");
        // A cut the engine never hears about corrupts tree⊆neighbors.
        ov.disconnect(p, f).unwrap();
        assert!(ace.check_invariants(&ov).is_err());
    }

    #[test]
    fn crash_keeps_stale_refs_and_rejoin_purges_them() {
        let (mut ov, oracle, mut rng) = ba_env(31);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        let victim = ov
            .alive_peers()
            .find(|&v| {
                ov.alive_peers()
                    .any(|p| p != v && ace.tree_neighbors_of(p).contains(&v))
            })
            .expect("someone is on another peer's tree");
        ov.leave(victim).unwrap();
        ace.on_crash(victim);
        // Survivors still reference the crashed peer — tolerated because
        // it is dead — and the auditor accepts the state as-is.
        assert!(ov
            .alive_peers()
            .any(|p| ace.tree_neighbors_of(p).contains(&victim)));
        ace.check_invariants(&ov).unwrap();
        // The rejoin purges every leftover of the previous incarnation;
        // without it, stale tree entries would point at an alive
        // non-neighbor and the audit would fail.
        let mut join_rng = StdRng::seed_from_u64(5);
        ov.join(victim, 2, &mut join_rng).unwrap();
        ace.on_join(victim);
        ace.check_invariants(&ov).unwrap();
        assert!(!ace.tree_built(victim));
        assert!(ov
            .alive_peers()
            .all(|p| !ace.tree_neighbors_of(p).contains(&victim)));
    }

    #[test]
    fn graceful_leave_purges_both_sides_immediately() {
        let (mut ov, oracle, mut rng) = ba_env(37);
        let mut ace = AceEngine::new(ov.peer_count(), AceConfig::paper_default());
        ace.round(&mut ov, &oracle, &mut rng);
        let victim = ov.alive_peers().next().unwrap();
        ov.leave(victim).unwrap();
        ace.on_leave(victim);
        assert!(!ace.tree_built(victim));
        let mut fl = Vec::new();
        for p in ov.alive_peers() {
            assert!(!ace.tree_neighbors_of(p).contains(&victim));
            ace.flooding_neighbors_into(p, &mut fl);
            assert!(!fl.contains(&victim));
            assert_eq!(ace.probed_cost(p, victim), None);
        }
        ace.check_invariants(&ov).unwrap();
    }
}
