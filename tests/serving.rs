//! Cross-crate tests of the batched query-serving engine: worker-count
//! determinism against the sequential single-query path, the batch-level
//! accounting identities, and the dead-source skip contract under
//! engine-level churn.

use ace_core::experiments::{OverlayKind, PhysKind, Scenario, ScenarioConfig};
use ace_core::{AceConfig, AceEngine, AceForward};
use ace_overlay::{
    serve_batch, serve_sequential, zipf_workload, FloodAll, ForwardPolicy, HpfWeight, PartialFlood,
    QueryConfig, ServeConfig, ServeReport,
};
use proptest::prelude::*;
use rand::Rng;

fn arb_world() -> impl Strategy<Value = (ScenarioConfig, QueryConfig)> {
    (
        2usize..=4,
        30usize..=60,
        4usize..=8,
        any::<u64>(),
        0usize..3,
        (4u8..=16, any::<bool>()),
    )
        .prop_map(
            |(ases, peers, degree, seed, kind, (ttl, stop_at_responder))| {
                (
                    ScenarioConfig {
                        phys: PhysKind::TwoLevel {
                            as_count: ases,
                            nodes_per_as: 40,
                        },
                        peers,
                        avg_degree: degree,
                        overlay: match kind {
                            0 => OverlayKind::Clustered,
                            1 => OverlayKind::Random,
                            _ => OverlayKind::PrefAttach,
                        },
                        objects: 40,
                        replicas: 4,
                        zipf: 0.8,
                        seed,
                    },
                    QueryConfig {
                        ttl,
                        stop_at_responder,
                    },
                )
            },
        )
}

/// Batch-level identities no single slot digest covers: every message
/// lands in exactly one inbox, and every peer a slot reached besides its
/// source contributes exactly one hop-latency sample.
fn check_accounting(report: &ServeReport) -> Result<(), String> {
    prop_assert_eq!(report.inbox_load.iter().sum::<u64>(), report.messages);
    let o = &report.outcome;
    let reached: u64 = (0..o.len())
        .filter(|&i| !o.skipped[i])
        .map(|i| u64::from(o.scope[i]) - 1)
        .sum();
    prop_assert_eq!(report.hop_latency.count(), reached);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The digest of the batched engine is bit-identical to a sequential
    /// `run_query_into` sweep for the same workload — for any worker
    /// count, any shard size, with or without the stop-at-responder
    /// rule, and for three forwarding policies: blind flooding, ACE tree
    /// forwarding after an optimization round, and cheapest-first partial
    /// flooding, whose targets come in cost order rather than neighbor
    /// order.
    #[test]
    fn batched_digest_matches_sequential_for_any_worker_count((cfg, query) in arb_world()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);

        let specs = zipf_workload(&s.overlay, &s.catalog, 160, &mut s.rng);
        let placement = &s.placement;
        let is_responder = |obj, peer| placement.is_holder(obj, peer);
        let base = ServeConfig { query, ..ServeConfig::default() };

        let tree_policy = AceForward::new(&ace);
        let cheapest = PartialFlood::new(&s.oracle, 0.5, 1, HpfWeight::Cheapest);
        let policies: [(&str, &(dyn ForwardPolicy + Sync)); 3] = [
            ("flooding", &FloodAll),
            ("tree forwarding", &tree_policy),
            ("cheapest partial flooding", &cheapest),
        ];
        let mut traffic = [0.0f64; 3];
        for (k, &(name, policy)) in policies.iter().enumerate() {
            let reference = serve_sequential(
                &s.overlay, &s.oracle, policy, &specs, &is_responder, &base,
            );
            for workers in [1usize, 2, 3] {
                for chunk in [16usize, 128] {
                    let cfg = ServeConfig { workers, chunk, ..base };
                    let report = serve_batch(
                        &s.overlay, &s.oracle, policy, &specs, &is_responder, &cfg,
                    );
                    prop_assert_eq!(
                        report.digest(), reference.digest(),
                        "{} diverged at workers={} chunk={}", name, workers, chunk
                    );
                    check_accounting(&report)?;
                    traffic[k] = report.traffic_cost;
                }
            }
        }
        // Tree forwarding must not spend more traffic than flooding on
        // the same (optimized) overlay.
        prop_assert!(traffic[1] <= traffic[0] + 1e-9);
    }

    /// Churn interleaved with serving: sources that died after the
    /// workload was drawn are skipped and counted — the sweep finishes
    /// instead of panicking on `run_query_into`'s liveness assert — and
    /// the surviving slots still match the sequential reference.
    #[test]
    fn churned_sources_skip_instead_of_aborting((cfg, query) in arb_world()) {
        let mut s = Scenario::build(&cfg);
        let mut ace = AceEngine::new(s.overlay.peer_count(), AceConfig::paper_default());
        ace.round(&mut s.overlay, &s.oracle, &mut s.rng);

        let specs = zipf_workload(&s.overlay, &s.catalog, 120, &mut s.rng);
        // Mid-sweep churn: some sources leave gracefully, some crash.
        let mut died = 0usize;
        for (k, spec) in specs.iter().enumerate().step_by(9) {
            if !s.overlay.is_alive(spec.source) {
                continue;
            }
            s.overlay.leave(spec.source).unwrap();
            if k % 2 == 0 {
                ace.on_leave(spec.source);
            } else {
                ace.on_crash(spec.source);
            }
            died += 1;
        }
        // The first step_by candidate is always alive (sources are drawn
        // from alive peers), so churn kills at least one source.
        prop_assert!(died > 0);
        let expect_skipped = specs
            .iter()
            .filter(|spec| !s.overlay.is_alive(spec.source))
            .count() as u64;

        let placement = &s.placement;
        let is_responder = |obj, peer| placement.is_holder(obj, peer);
        let cfg = ServeConfig {
            query,
            workers: 3,
            chunk: 32,
        };
        let report = serve_batch(
            &s.overlay, &s.oracle, &AceForward::new(&ace), &specs, &is_responder, &cfg,
        );
        prop_assert_eq!(report.skipped, expect_skipped);
        prop_assert_eq!(report.served + report.skipped, specs.len() as u64);
        prop_assert!(report.served > 0, "some sources must have survived");
        check_accounting(&report)?;
        let reference = serve_sequential(
            &s.overlay, &s.oracle, &AceForward::new(&ace), &specs, &is_responder, &cfg,
        );
        prop_assert_eq!(report.digest(), reference.digest());
    }
}

/// The workload generator draws sources only from alive peers and
/// objects within the catalog, and is deterministic per RNG stream.
#[test]
fn zipf_workload_is_deterministic_and_well_formed() {
    let cfg = ScenarioConfig::default();
    let mut s = Scenario::build(&cfg);
    // Knock a few peers out so aliveness filtering is observable.
    for p in s.overlay.peers().take(40).collect::<Vec<_>>() {
        if s.overlay.is_alive(p) && s.rng.gen_bool(0.5) {
            s.overlay.leave(p).unwrap();
        }
    }
    let mut rng_a = s.rng.clone();
    let mut rng_b = s.rng.clone();
    let a = zipf_workload(&s.overlay, &s.catalog, 500, &mut rng_a);
    let b = zipf_workload(&s.overlay, &s.catalog, 500, &mut rng_b);
    assert_eq!(a, b, "same RNG state must draw the same workload");
    for spec in &a {
        assert!(s.overlay.is_alive(spec.source));
        assert!((spec.object as usize) < s.catalog.len());
    }
}
