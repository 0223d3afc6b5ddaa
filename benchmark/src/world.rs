//! The seeded world every workload runs on: a two-level physical
//! topology, a clustered overlay on it, and the hybrid distance plane.

use ace_core::{AceConfig, AceEngine, AutoRateConfig};
use ace_overlay::{clustered_overlay, Catalog, Overlay, Placement, QuerySpec};
use ace_topology::generate::{two_level, TwoLevelConfig};
use ace_topology::{DistancePlane, HybridConfig, HybridOracle, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{span, Tracer};

/// Peers in the benchmark's world.
pub const PEERS: usize = 5_000;
/// Default world seed (the 5,000-peer scale-curve world's).
pub const WORLD_SEED: u64 = 97;
/// Physical routers per peer (50 ASes × 500 routers at 5,000 peers).
const ROUTERS_PER_PEER: usize = 5;
/// Routers per AS.
const ROUTERS_PER_AS: usize = 500;
/// Mean overlay degree (the paper's C = 6) and its cap.
pub const AVG_DEGREE: usize = 6;
const MAX_DEGREE: usize = 2 * AVG_DEGREE;
/// Share of overlay links drawn inside a peer's AS.
const LOCALITY: f64 = 0.7;

/// Content catalog and query shape.
pub const OBJECTS: usize = 500;
/// Copies of each object.
pub const REPLICAS: usize = 8;
/// Zipf skew of object popularity.
pub const ZIPF: f64 = 0.8;
/// Query TTL; covers every generated overlay.
pub const TTL: u8 = 32;

/// Independent random streams derived from the workload seed.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Object placement.
    Placement,
    /// The measured query batch.
    Sample,
    /// Round seeds drawn by `AceEngine::round`.
    Rounds,
    /// The benchmark's own churn.
    Churn,
    /// Controller feedback samples.
    Feed,
}

/// A fresh generator for one stream of `seed`.
pub fn stream(seed: u64, s: Stream) -> StdRng {
    let salt = match s {
        Stream::Placement => 0x7175_6572_7931,
        Stream::Sample => 0x7361_6d70_6c65,
        Stream::Rounds => 0x726f_756e_6473,
        Stream::Churn => 0x6368_7572_6e21,
        Stream::Feed => 0x6665_6564_6221,
    };
    StdRng::seed_from_u64(mix(seed ^ salt))
}

/// SplitMix64 finalizer: a well-spread 64-bit hash step.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Physical dimensions `(as_count, routers_per_as)` for a population.
pub fn dims(peers: usize) -> (usize, usize) {
    let routers = ROUTERS_PER_PEER * peers;
    let as_count = (routers / ROUTERS_PER_AS).max(2);
    (as_count, routers.div_ceil(as_count).max(3))
}

/// The physical network, the initial (mismatched) overlay and the plane.
pub struct World {
    /// The initial overlay.
    pub overlay: Overlay,
    /// Hybrid distance plane over the physical graph.
    pub plane: HybridOracle,
    /// Which peers hold which objects.
    pub placement: Placement,
    /// Object popularity.
    pub catalog: Catalog,
}

impl World {
    /// Builds the world of `seed` at `peers` peers, in spans when traced.
    pub fn build(peers: usize, seed: u64, tracer: Option<&Tracer>) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let (as_count, nodes_per_as) = dims(peers);
        let topo = span(tracer, "topology.generate", || {
            two_level(
                &TwoLevelConfig {
                    as_count,
                    nodes_per_as,
                    ..TwoLevelConfig::default()
                },
                &mut rng,
            )
        });
        let overlay = span(tracer, "overlay.network", || {
            let hosts = sample_hosts(&mut rng, topo.graph.node_count(), peers);
            clustered_overlay(hosts, AVG_DEGREE, LOCALITY, Some(MAX_DEGREE), &mut rng)
        });
        let members: Vec<NodeId> = overlay.peers().map(|p| overlay.host(p)).collect();
        let plane = span(tracer, "topology.hybrid", || {
            HybridOracle::build(topo.graph, &members, &HybridConfig::default())
        });
        let mut qrng = stream(seed, Stream::Placement);
        let placement = Placement::random(OBJECTS, REPLICAS, &overlay, &mut qrng);
        World {
            overlay,
            plane,
            placement,
            catalog: Catalog::new(OBJECTS, ZIPF),
        }
    }

    /// Fingerprint of the world: overlay wiring plus plane answers on a
    /// fixed sample of member pairs. Equal for equal seeds.
    pub fn fingerprint(&self) -> u64 {
        let mut h = overlay_digest(&self.overlay);
        let n = self.overlay.peer_count() as u64;
        for i in 0..64u64 {
            let a = self
                .overlay
                .host(ace_overlay::PeerId::new((mix(i) % n) as u32));
            let b = self
                .overlay
                .host(ace_overlay::PeerId::new((mix(i + 64) % n) as u32));
            h = mix(h ^ u64::from(self.plane.distance(a, b)));
        }
        h
    }

    /// A Zipf query batch of `count` queries from the overlay's alive
    /// peers.
    pub fn queries(&self, overlay: &Overlay, count: usize, rng: &mut StdRng) -> Vec<QuerySpec> {
        ace_overlay::zipf_workload(overlay, &self.catalog, count, rng)
    }
}

/// Order-sensitive digest of the overlay's liveness and wiring.
pub fn overlay_digest(ov: &Overlay) -> u64 {
    let mut h = mix(ov.peer_count() as u64);
    for p in ov.peers() {
        h = mix(h ^ u64::from(ov.is_alive(p)) ^ (u64::from(p.raw()) << 1));
        for q in ov.neighbors(p) {
            h = mix(h ^ u64::from(q.raw()));
        }
    }
    h
}

/// A fresh engine for `overlay`: the paper's base configuration on the
/// plan/commit pipeline, with the rate controller when `autorate`.
pub fn engine(overlay: &Overlay, workers: usize, autorate: bool) -> AceEngine {
    let cfg = AceConfig {
        parallel: true,
        workers,
        autorate: autorate.then(AutoRateConfig::default),
        ..AceConfig::paper_default()
    };
    AceEngine::new(overlay.peer_count(), cfg)
}

/// Draws `k` distinct physical hosts (partial Fisher–Yates shuffle).
fn sample_hosts(rng: &mut StdRng, nodes: usize, k: usize) -> Vec<NodeId> {
    assert!(k <= nodes, "more peers than physical nodes");
    let mut pool: Vec<u32> = (0..nodes as u32).collect();
    for i in 0..k {
        let j = i + rng.gen_range(0..nodes - i);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool.into_iter().map(NodeId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_thousand_peers_sit_on_fifty_ases_of_five_hundred_routers() {
        assert_eq!(dims(PEERS), (50, 500));
        let (a, r) = dims(120);
        assert!(a >= 2 && a * r >= 5 * 120);
    }

    #[test]
    fn worlds_repeat_per_seed_and_differ_across_seeds() {
        let a = World::build(120, 3, None);
        let b = World::build(120, 3, None);
        let c = World::build(120, 4, None);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
