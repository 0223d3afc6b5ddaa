//! Steady-state plan passes allocate nothing beyond their output.
//!
//! The round-plan hot path owns every buffer it needs in reusable
//! arenas ([`PlanScratch`] via the engine's scratch pool). This test
//! wraps the global allocator with counters and pins the contract:
//! once the arenas are warm, a full stage-A plan pass for a peer whose
//! plan needs no probes performs exactly **one** heap allocation (and
//! no reallocation) — the planned tree it hands to the commit stage.
//!
//! Kept as the only test in this binary so no sibling test thread can
//! allocate concurrently and pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ace_core::experiments::{PhysKind, Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, OverheadKind, OverheadLedger};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_plan_pass_allocates_nothing() {
    let mut w = Scenario::build(&ScenarioConfig {
        phys: PhysKind::TwoLevel {
            as_count: 4,
            nodes_per_as: 30,
        },
        peers: 60,
        avg_degree: 5,
        objects: 20,
        replicas: 3,
        seed: 17,
        ..ScenarioConfig::default()
    });
    let peers = w.overlay.peer_count();
    let mut ace = AceEngine::new(
        peers,
        AceConfig {
            parallel: true,
            workers: 1,
            ..AceConfig::paper_default()
        },
    );
    // Drive toward steady state: after a few rounds most peers' core
    // pairs are cached, so their plans need no probes.
    for _ in 0..10 {
        ace.round(&mut w.overlay, &w.oracle, &mut w.rng);
    }
    let probe_free = |ledger: OverheadLedger| {
        ledger.count_of(OverheadKind::Probe) == 0 && ledger.count_of(OverheadKind::ProbeRetry) == 0
    };

    // Pick a peer whose plan is probe-free and yields a non-empty tree.
    // This first pass also warms the arenas (closure marks, edge lists,
    // pair staging, Prim state) inside the pooled scratch.
    let peer = w
        .overlay
        .alive_peers()
        .find(|&p| {
            let (tree, ledger) = ace.plan_tree_check(&w.overlay, &w.oracle, p);
            probe_free(ledger) && !tree.is_empty()
        })
        .expect("some peer plans without probes in the steady state");
    let (warm_tree, _) = ace.plan_tree_check(&w.overlay, &w.oracle, peer);

    // Measured pass: same peer, warm arenas — only the returned tree
    // may touch the heap.
    let before = ALLOCS.load(Ordering::SeqCst);
    let (tree, ledger) = ace.plan_tree_check(&w.overlay, &w.oracle, peer);
    let after = ALLOCS.load(Ordering::SeqCst);
    assert!(probe_free(ledger), "steady-state plan must need no probes");
    assert_eq!(tree, warm_tree, "an unchanged peer plans the same tree");
    assert_eq!(
        after - before,
        1,
        "steady-state plan pass allocated {} times; only its output tree may",
        after - before
    );
}
