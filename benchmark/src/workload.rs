//! The three workloads and the measurements they make.
//!
//! * `converge` — a fresh engine runs the plan/commit pipeline from the
//!   initial overlay for [`OPT_ROUNDS`] rounds, pass after pass with the
//!   same seeds; every pass must land on the same digest.
//! * `churn` — passes of [`CHURN_ROUNDS`] rounds with the autonomic rate
//!   controller on, and about 1% of the alive peers departing (half
//!   crash, half graceful) and as many dead peers rejoining between
//!   rounds.
//! * `serve` — after [`WARMUP_ROUNDS`] rounds in set-up, one closed
//!   batch is served by blind flooding on the initial overlay and by
//!   ACE forwarding on the optimized one, pass after pass.
//!
//! Every round is audited (overlay and engine invariants) outside the
//! timed sections. In a traced run the timed units alternate between
//! traced and untraced, so the trace's own cost shows as the difference
//! of the two medians.

use std::time::Instant;

use ace_core::experiments::differential::{REDUCTION_CEILING, SCOPE_FLOOR};
use ace_core::{AceEngine, AceForward, CoreCacheStats, OverheadLedger, RoundStats};
use ace_overlay::{
    serve_batch, FloodAll, ForwardPolicy, Overlay, PeerId, QueryConfig, QuerySpec, ServeConfig,
    ServeReport,
};
use ace_topology::{DistancePlane, PlaneStats};
use rand::rngs::StdRng;
use rand::Rng;

use crate::layers::Counters;
use crate::stats::{median, quantile, tail};
use crate::trace::{span, TracedPlane, Tracer};
use crate::world::{engine, mix, overlay_digest, stream, Stream, World, AVG_DEGREE, WORLD_SEED};

/// Rounds in one `converge` pass: past the heavy-rewiring phase.
pub const OPT_ROUNDS: usize = 30;
/// Rounds in one `churn` pass.
pub const CHURN_ROUNDS: usize = 20;
/// ACE rounds the `serve` set-up runs before serving.
pub const WARMUP_ROUNDS: usize = 10;
/// Rounds the `workers=1` re-run covers; passes record their digest
/// after this many rounds for the comparison.
pub const CHECK_ROUNDS: usize = 10;
/// Queries in one served batch (and in the post-loop sample): two
/// shards of the serving pool.
pub const BATCH: usize = 512;
/// Times the world is set up per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;
/// Fewest cycles of the timed loop per run, whatever `--seconds` says.
pub const MIN_CYCLES: usize = 2;
/// Share of alive peers departing between `churn` rounds.
pub const CHURN_SHARE: f64 = 0.01;
/// `churn` feeds the controller a traffic sample every this many rounds.
pub const FEED_EVERY: usize = 5;
/// Queries per controller feedback sample.
pub const FEED_QUERIES: usize = 32;

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Static environment: rounds from the mismatched overlay.
    Converge,
    /// Dynamic environment: rounds under benchmark-driven churn.
    Churn,
    /// Query serving before and after optimization.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Converge, Workload::Churn, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Converge => "converge",
            Workload::Churn => "churn",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What one run is asked to do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Params {
    /// Peers in the world.
    pub peers: usize,
    /// Workload seed: round seeds, churn, controller feedback and the
    /// query batch. The world is [`WORLD_SEED`]'s.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Record spans and decorator sums (per-layer figures).
    pub trace: bool,
    /// Worker threads of the engine and the serving pool.
    pub workers: usize,
}

/// The figures a user of ACE sees.
#[derive(Clone, Copy, Debug, Default)]
pub struct EndToEnd {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Median time of the optimizing loop, s.
    pub optimize_s: f64,
    /// Median `AceEngine::round` time, ms.
    pub round_ms_p50: f64,
    /// Tail `AceEngine::round` time, ms (see [`crate::stats::tail`]).
    pub round_ms_tail: f64,
    /// Which percentile `round_ms_tail` is.
    pub round_tail_percentile: f64,
    /// Rounds timed.
    pub round_samples: usize,
    /// ACE-forwarding queries per wall second.
    pub qps: f64,
    /// Blind-flooding queries per wall second.
    pub flood_qps: f64,
    /// Median simulated first-response latency of the ACE pass, ms.
    pub response_ms_p50: f64,
    /// 99th-percentile simulated first-response latency, ms.
    pub response_ms_p99: f64,
    /// ACE per-query traffic after optimizing ÷ flooding before.
    pub traffic_ratio: f64,
    /// ACE mean scope ÷ flooding mean scope.
    pub scope_ratio: f64,
    /// Ledger cost per alive peer per round.
    pub control_overhead: f64,
    /// Process peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Failed ÷ attempted operations.
    pub failed_share: f64,
}

/// One output check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// Observed values.
    pub detail: String,
}

/// Everything one workload run measured.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// End-to-end figures.
    pub e2e: EndToEnd,
    /// Per-layer figures `(name, value, unit)`; traced runs only.
    pub layers: Vec<(String, f64, &'static str)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// World fingerprint.
    pub world_digest: u64,
    /// Digest of the engine and overlay state after the timed unit
    /// (a pass, or the warm-up on `serve`) and of the served batches.
    pub state_digest: u64,
}

impl Outcome {
    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

/// Runs `workload` with `p`.
pub fn run(workload: Workload, p: &Params) -> Outcome {
    let tracer = p.trace.then(Tracer::new);
    let mut run = Run {
        p: *p,
        tracer: tracer.as_ref(),
        checks: Vec::new(),
        units: [0; 3],
        layer: Counters::default(),
    };
    let mut out = match workload {
        Workload::Converge | Workload::Churn => run.optimize(workload),
        Workload::Serve => run.serve_workload(),
    };
    let Run { checks, layer, .. } = run;
    out.checks = checks;
    out.e2e.peak_rss_mb = peak_rss_mb();
    if let Some(t) = tracer {
        out.layers = crate::layers::figures(workload, &t.finish(), &layer, p.workers);
    }
    out
}

/// Process peak RSS in MiB (`VmHWM`); 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one optimizing pass — [`OPT_ROUNDS`] (or [`WARMUP_ROUNDS`])
/// rounds from a fresh engine — measured.
#[derive(Default)]
pub(crate) struct Pass {
    pub(crate) traced: bool,
    pub(crate) optimize_s: f64,
    pub(crate) round_ms: Vec<f64>,
    pub(crate) trees: usize,
    pub(crate) plans_skipped: usize,
    pub(crate) rewires: usize,
    pub(crate) alive_rounds: usize,
    pub(crate) ledger: OverheadLedger,
    pub(crate) core_cache: CoreCacheStats,
    pub(crate) soft_state_bytes: usize,
    pub(crate) departures: u64,
    pub(crate) joins: u64,
    pub(crate) refused: u64,
    pub(crate) plane: PlaneStats,
    /// State digest after [`CHECK_ROUNDS`] rounds.
    pub(crate) check_digest: u64,
    /// State digest at the end.
    pub(crate) digest: u64,
}

impl Pass {
    fn add_round(&mut self, stats: &RoundStats, ms: f64) {
        self.round_ms.push(ms);
        self.trees += stats.trees_built;
        self.plans_skipped += stats.plans_skipped;
        self.rewires += stats.replaced + stats.added;
        self.core_cache = stats.core_cache;
    }

    /// Ledger cost per alive peer per round.
    fn control_overhead(&self) -> f64 {
        self.ledger.total_cost() / self.alive_rounds.max(1) as f64
    }
}

/// The optimized overlay and the engine that optimized it.
struct Optimized {
    overlay: Overlay,
    engine: AceEngine,
}

impl Optimized {
    /// Digest of the engine state and the overlay wiring.
    fn digest(&self) -> u64 {
        mix(self.engine.state_digest() ^ mix(overlay_digest(&self.overlay)))
    }
}

/// Kinds of timed unit a run is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Unit {
    /// Building the world (and, on `serve`, warming it up).
    Setup,
    /// An optimizing pass from a fresh engine.
    Pass,
    /// Serving the query batch by flooding and by ACE forwarding.
    Serve,
}

/// The order in which a workload's timed loop runs its units, cycle
/// after cycle, so that every figure samples the whole run.
///
/// One round of every `converge` pass (the 19th on this world) takes
/// about twice as long as the others, and the round tail keeps ten
/// rounds beyond it. With about ten passes per run, the tail would sit
/// on the edge between those slow rounds and the rest and jump between
/// the two from run to run. `converge` therefore runs five passes per
/// batch, about 20 per run.
fn schedule(workload: Workload) -> &'static [Unit] {
    match workload {
        Workload::Converge => &[
            Unit::Pass,
            Unit::Pass,
            Unit::Pass,
            Unit::Pass,
            Unit::Pass,
            Unit::Serve,
        ],
        Workload::Churn => &[Unit::Pass, Unit::Serve],
        Workload::Serve => &[Unit::Pass, Unit::Pass, Unit::Serve],
    }
}

struct Run<'t> {
    p: Params,
    tracer: Option<&'t Tracer>,
    checks: Vec<Check>,
    /// Timed units so far, per kind (traced runs alternate on parity).
    units: [usize; 3],
    /// Counters of the traced units.
    layer: Counters,
}

impl<'t> Run<'t> {
    /// The tracer for the next timed unit of `kind`: traced runs trace
    /// every other unit of each kind, starting with the first.
    fn next_unit(&mut self, kind: Unit) -> Option<&'t Tracer> {
        let n = &mut self.units[kind as usize];
        let traced = n.is_multiple_of(2);
        *n += 1;
        self.tracer.filter(|_| traced)
    }

    fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push(Check {
            name,
            passed,
            detail,
        });
    }

    /// Builds the world [`SETUP_REPEATS`] times and checks that every
    /// build is the same world. With `warm_up`, each set-up also runs the
    /// `serve` warm-up rounds. Returns the last world, the median set-up
    /// time and the warm-up passes.
    fn setup(&mut self, warm_up: bool) -> (World, f64, Vec<Pass>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut warm = Vec::new();
        let mut prints = Vec::with_capacity(SETUP_REPEATS);
        let mut world = None;
        for _ in 0..SETUP_REPEATS {
            // Free the previous world first so peak RSS holds one world.
            drop(world.take());
            let tracer = self.next_unit(Unit::Setup);
            let t = Instant::now();
            let w = World::build(self.p.peers, WORLD_SEED, tracer);
            if warm_up {
                let traced = tracer.map(|t| t.plane(&w.plane));
                let plane = plane_for(&traced, tracer, &w);
                let (pass, _) = self.pass(&w, plane, self.p.workers, false, WARMUP_ROUNDS, tracer);
                warm.push(pass);
            }
            times.push(t.elapsed().as_secs_f64());
            if tracer.is_some() {
                self.layer.setups += 1;
            }
            prints.push(w.fingerprint());
            world = Some(w);
        }
        self.check(
            "set-up repeats build the same world",
            prints.iter().all(|&f| f == prints[0]),
            format!("{prints:x?}"),
        );
        let world = world.expect("SETUP_REPEATS is at least one");
        (world, median(&times).unwrap_or(0.0), warm)
    }

    /// Audits the overlay and the engine, in a span.
    fn audit(&mut self, ov: &Overlay, eng: &AceEngine, tracer: Option<&Tracer>) {
        let res = span(tracer, "audit", || {
            ov.check_invariants()
                .and_then(|()| eng.check_invariants(ov).map_err(|v| v.to_string()))
        });
        if let Err(e) = res {
            self.check(
                "overlay and engine invariants hold after every round",
                false,
                e,
            );
        }
    }

    /// `rounds` rounds from a fresh engine on a copy of the initial
    /// overlay; with `churn`, the controller is on and the benchmark's
    /// churn runs between rounds. Only the engine construction, the
    /// rounds and the churn steps are timed.
    fn pass(
        &mut self,
        world: &World,
        plane: &dyn DistancePlane,
        workers: usize,
        churn: bool,
        rounds: usize,
        tracer: Option<&Tracer>,
    ) -> (Pass, Optimized) {
        let mut rounds_rng = stream(self.p.seed, Stream::Rounds);
        let mut churn_rng = stream(self.p.seed, Stream::Churn);
        let mut feed_rng = stream(self.p.seed, Stream::Feed);
        let plane_before = plane.plane_stats();
        let mut pass = Pass {
            traced: tracer.is_some(),
            round_ms: Vec::with_capacity(rounds),
            ..Pass::default()
        };
        let overlay = world.overlay.clone();
        let t = Instant::now();
        let engine = span(tracer, "engine.new", || engine(&overlay, workers, churn));
        pass.optimize_s = t.elapsed().as_secs_f64();
        let mut opt = Optimized { overlay, engine };
        for r in 0..rounds {
            if churn && r > 0 {
                let t = Instant::now();
                churn_step(&mut opt, &mut pass, &mut churn_rng, tracer);
                pass.optimize_s += t.elapsed().as_secs_f64();
            }
            pass.alive_rounds += opt.overlay.alive_count();
            let t = Instant::now();
            let stats = span(tracer, "engine.round", || {
                opt.engine.round(&mut opt.overlay, plane, &mut rounds_rng)
            });
            let dt = t.elapsed().as_secs_f64();
            pass.optimize_s += dt;
            pass.add_round(&stats, dt * 1e3);
            self.audit(&opt.overlay, &opt.engine, tracer);
            if churn && (r + 1) % FEED_EVERY == 0 {
                feed_controller(world, &mut opt, workers, &mut feed_rng);
            }
            if r + 1 == CHECK_ROUNDS.min(rounds) {
                pass.check_digest = opt.digest();
            }
        }
        pass.ledger = *opt.engine.ledger();
        pass.soft_state_bytes = opt.engine.controller_stats().soft_state_bytes;
        pass.plane = stats_delta(&plane_before, &plane.plane_stats());
        pass.digest = opt.digest();
        if pass.traced {
            self.layer.add_pass(&pass);
        }
        (pass, opt)
    }

    /// The timed loop: runs the workload's [`schedule`] cycle after
    /// cycle for `--seconds`, and at least [`MIN_CYCLES`] cycles. Passes
    /// start from the initial overlay; `serve` passes are warm-ups. Each
    /// `Serve` unit serves `specs` (drawn from the first pass's optimized
    /// overlay when not given) on the last pass's optimized overlay.
    fn timed_loop(
        &mut self,
        workload: Workload,
        world: &World,
        specs: Option<Vec<QuerySpec>>,
    ) -> (Vec<Pass>, Serving, Optimized) {
        let (churn, rounds) = match workload {
            Workload::Converge => (false, OPT_ROUNDS),
            Workload::Churn => (true, CHURN_ROUNDS),
            Workload::Serve => (false, WARMUP_ROUNDS),
        };
        let traced_plane = self.tracer.map(|t| t.plane(&world.plane));
        let mut passes = Vec::new();
        let mut serving = Serving::default();
        let mut last: Option<Optimized> = None;
        let mut specs = specs;
        let start = Instant::now();
        let mut cycles = 0;
        while cycles < MIN_CYCLES || start.elapsed().as_secs_f64() < self.p.seconds {
            for &unit in schedule(workload) {
                let tracer = self.next_unit(unit);
                let plane = plane_for(&traced_plane, tracer, world);
                if unit == Unit::Pass {
                    drop(last.take());
                    let (pass, opt) =
                        self.pass(world, plane, self.p.workers, churn, rounds, tracer);
                    passes.push(pass);
                    last = Some(opt);
                    continue;
                }
                let after = last.as_ref().expect("every schedule starts with a pass");
                let specs = specs.get_or_insert_with(|| {
                    world.queries(
                        &after.overlay,
                        BATCH,
                        &mut stream(self.p.seed, Stream::Sample),
                    )
                });
                self.serve_pair(&mut serving, world, plane, after, specs, tracer);
            }
            cycles += 1;
        }
        for p in passes.iter().filter(|p| !p.traced) {
            self.layer.optimize_untraced.push(p.optimize_s);
        }
        let first = passes[0].digest;
        let diverged = passes.iter().filter(|p| p.digest != first).count();
        self.check(
            "repeated passes of a seed reach the same state digest",
            diverged == 0,
            format!(
                "{} passes, {diverged} diverged from {first:#x}",
                passes.len()
            ),
        );
        let (single, _) = self.pass(world, &world.plane, 1, churn, CHECK_ROUNDS, None);
        let expected = passes[0].check_digest;
        self.check(
            "workers=1 reaches the configured worker count's state digest",
            single.digest == expected,
            format!(
                "after {CHECK_ROUNDS} rounds: workers=1 {:#x}, workers={} {expected:#x}",
                single.digest, self.p.workers
            ),
        );
        self.check(
            "repeated batches reach the same batch digests",
            serving.digests.iter().all(|&d| d == serving.digests[0]),
            format!("{} passes of {BATCH} queries", serving.digests.len()),
        );
        let last = last.expect("every schedule runs a pass");
        (passes, serving, last)
    }

    /// `converge` and `churn`.
    fn optimize(&mut self, workload: Workload) -> Outcome {
        let (world, setup_s, _) = self.setup(false);
        let (passes, serving, _) = self.timed_loop(workload, &world, None);
        let served = serving.finish();
        // End-to-end timings come from the untraced passes.
        let timing: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        let rounds: Vec<f64> = timing
            .iter()
            .flat_map(|p| p.round_ms.iter().copied())
            .collect();
        let optimize: Vec<f64> = timing.iter().map(|p| p.optimize_s).collect();
        let (attempted, failed) = if workload == Workload::Churn {
            let done: u64 = passes.iter().map(|p| p.departures + p.joins).sum();
            (done, passes.iter().map(|p| p.refused).sum())
        } else {
            (passes.iter().map(|p| p.round_ms.len() as u64).sum(), 0)
        };
        let mut e2e = EndToEnd {
            setup_s,
            optimize_s: median(&optimize).unwrap_or(0.0),
            control_overhead: passes[0].control_overhead(),
            failed_share: failed as f64 / attempted.max(1) as f64,
            ..EndToEnd::default()
        };
        set_rounds(&mut e2e, &rounds);
        set_serving(&mut e2e, &served);
        self.serving_checks(&e2e);
        Outcome {
            workload,
            e2e,
            layers: Vec::new(),
            checks: Vec::new(),
            attempted,
            failed,
            world_digest: world.fingerprint(),
            state_digest: mix(passes[0].digest ^ served.digest()),
        }
    }

    /// Serves `specs` on `overlay`: ACE forwarding when an engine is
    /// given, blind flooding otherwise. Traced ACE batches go through
    /// the forwarding decorator and count towards the layer figures.
    fn serve(
        &mut self,
        world: &World,
        overlay: &Overlay,
        plane: &dyn DistancePlane,
        eng: Option<&AceEngine>,
        specs: &[QuerySpec],
        tracer: Option<&Tracer>,
    ) -> ServeReport {
        let workers = self.p.workers;
        let Some(eng) = eng else {
            return span(tracer, "serve.flood", || {
                serve_batch_on(world, overlay, plane, &FloodAll, specs, workers)
            });
        };
        let policy = AceForward::new(eng);
        match tracer {
            Some(t) => {
                let traced = t.forward(&policy);
                let report = t.span("serve.ace", || {
                    serve_batch_on(world, overlay, plane, &traced, specs, workers)
                });
                self.layer.add_ace_batch(&report);
                report
            }
            None => serve_batch_on(world, overlay, plane, &policy, specs, workers),
        }
    }

    /// Serves `specs` once by flooding the initial overlay and once by
    /// ACE-forwarding `after`, and adds the pair to `serving`.
    fn serve_pair(
        &mut self,
        serving: &mut Serving,
        world: &World,
        plane: &dyn DistancePlane,
        after: &Optimized,
        specs: &[QuerySpec],
        tracer: Option<&Tracer>,
    ) {
        let flood = self.serve(world, &world.overlay, plane, None, specs, tracer);
        let ace = self.serve(
            world,
            &after.overlay,
            plane,
            Some(&after.engine),
            specs,
            tracer,
        );
        serving.attempted += (flood.outcome.len() + ace.outcome.len()) as u64;
        serving.failed += lost_queries(&flood) + lost_queries(&ace);
        serving.digests.push((flood.digest(), ace.digest()));
        if tracer.is_none() {
            serving.flood_qps.push(flood.qps());
            serving.ace_qps.push(ace.qps());
            self.layer.qps_untraced.push(ace.qps());
            serving.kept = Some((flood, ace));
        }
    }

    /// The serving checks every workload makes on its query sample.
    fn serving_checks(&mut self, e2e: &EndToEnd) {
        self.check(
            "traffic_ratio below REDUCTION_CEILING",
            e2e.traffic_ratio < REDUCTION_CEILING,
            format!("{:.4} < {REDUCTION_CEILING}", e2e.traffic_ratio),
        );
        self.check(
            "ACE scope at least SCOPE_FLOOR of flooding's",
            e2e.scope_ratio >= SCOPE_FLOOR,
            format!("{:.4} >= {SCOPE_FLOOR}", e2e.scope_ratio),
        );
    }

    /// `serve`.
    fn serve_workload(&mut self) -> Outcome {
        let workers = self.p.workers;
        let (world, setup_s, mut warm) = self.setup(true);
        for p in warm.iter().filter(|p| !p.traced) {
            self.layer.optimize_untraced.push(p.optimize_s);
        }
        // The timed loop serves the batch, with more warm-ups between
        // batches for the round figures.
        let specs = world.queries(
            &world.overlay,
            BATCH,
            &mut stream(self.p.seed, Stream::Sample),
        );
        let (more, serving, warmed) = self.timed_loop(Workload::Serve, &world, Some(specs.clone()));
        warm.extend(more);
        let served = serving.finish();
        let digests: Vec<u64> = warm.iter().map(|w| w.digest).collect();
        self.check(
            "repeated warm-ups of a seed reach the same state digest",
            digests.iter().all(|&d| d == digests[0]),
            format!("{digests:x?}"),
        );
        let timing: Vec<&Pass> = warm.iter().filter(|p| !p.traced).collect();
        let rounds: Vec<f64> = timing
            .iter()
            .flat_map(|p| p.round_ms.iter().copied())
            .collect();
        let optimize: Vec<f64> = timing.iter().map(|p| p.optimize_s).collect();

        let (attempted, failed) = (served.attempted, served.failed);
        let (flood, ace) = (&served.flood, &served.ace);
        let f1 = serve_batch_on(&world, &world.overlay, &world.plane, &FloodAll, &specs, 1);
        let policy = AceForward::new(&warmed.engine);
        let a1 = serve_batch_on(&world, &warmed.overlay, &world.plane, &policy, &specs, 1);
        self.check(
            "workers=1 serves the same batch digests",
            (f1.digest(), a1.digest()) == (flood.digest(), ace.digest()),
            format!(
                "workers=1 {:#x}/{:#x}, workers={workers} {:#x}/{:#x}",
                f1.digest(),
                a1.digest(),
                flood.digest(),
                ace.digest()
            ),
        );
        // Unanswered ACE queries stay in `failed`; the gate on them is
        // the scope floor ACE is held to everywhere else (see README).
        let skipped = flood.skipped + ace.skipped;
        self.check(
            "every query is served",
            skipped == 0,
            format!("{skipped} of {} skipped per pass", 2 * specs.len()),
        );
        self.check(
            "blind flooding answers every query",
            unanswered(flood) == 0,
            format!("{} of {} unanswered", unanswered(flood), specs.len()),
        );
        let answered = |r: &ServeReport| (r.served - unanswered(r)) as f64;
        let answer_ratio = answered(ace) / answered(flood).max(1.0);
        self.check(
            "ACE answers at least SCOPE_FLOOR of the queries flooding answers",
            answer_ratio >= SCOPE_FLOOR,
            format!("{answer_ratio:.4} >= {SCOPE_FLOOR} ({failed} of {attempted} failed over all passes)"),
        );

        let mut e2e = EndToEnd {
            setup_s,
            optimize_s: median(&optimize).unwrap_or(0.0),
            control_overhead: warm[0].control_overhead(),
            failed_share: failed as f64 / attempted.max(1) as f64,
            ..EndToEnd::default()
        };
        set_rounds(&mut e2e, &rounds);
        set_serving(&mut e2e, &served);
        self.serving_checks(&e2e);
        Outcome {
            workload: Workload::Serve,
            e2e,
            layers: Vec::new(),
            checks: Vec::new(),
            attempted,
            failed,
            world_digest: world.fingerprint(),
            state_digest: mix(digests[0] ^ served.digest()),
        }
    }
}

/// Flood/ACE pairs served so far.
#[derive(Default)]
struct Serving {
    digests: Vec<(u64, u64)>,
    flood_qps: Vec<f64>,
    ace_qps: Vec<f64>,
    /// The last untraced pair.
    kept: Option<(ServeReport, ServeReport)>,
    attempted: u64,
    failed: u64,
}

impl Serving {
    fn finish(self) -> Served {
        let (flood, ace) = self
            .kept
            .expect("untraced pairs alternate with traced ones");
        Served {
            flood,
            ace,
            flood_qps: median(&self.flood_qps).unwrap_or(0.0),
            ace_qps: median(&self.ace_qps).unwrap_or(0.0),
            attempted: self.attempted,
            failed: self.failed,
        }
    }
}

/// A served flood/ACE pair and the median throughput of its passes.
struct Served {
    flood: ServeReport,
    ace: ServeReport,
    flood_qps: f64,
    ace_qps: f64,
    attempted: u64,
    failed: u64,
}

impl Served {
    /// Digest of both batches.
    fn digest(&self) -> u64 {
        mix(self.ace.digest() ^ mix(self.flood.digest()))
    }
}

/// One churn step: about [`CHURN_SHARE`] of the alive peers depart,
/// the first half crashing and the rest leaving gracefully, then as
/// many peers that were already dead rejoin.
fn churn_step(opt: &mut Optimized, pass: &mut Pass, rng: &mut StdRng, tracer: Option<&Tracer>) {
    let ov = &mut opt.overlay;
    let eng = &mut opt.engine;
    let mut alive: Vec<PeerId> = ov.alive_peers().collect();
    let mut dead: Vec<PeerId> = ov.peers().filter(|&p| !ov.is_alive(p)).collect();
    let k = ((CHURN_SHARE * alive.len() as f64).round() as usize).clamp(1, alive.len() - 1);
    let departing = choose(&mut alive, k, rng);
    for (i, &p) in departing.iter().enumerate() {
        let crash = i < k / 2;
        let ok = span(tracer, "lifecycle.leave", || {
            let ok = ov.leave(p).is_ok();
            if crash {
                eng.on_crash(p);
            } else {
                eng.on_leave(p);
            }
            ok
        });
        pass.departures += 1;
        pass.refused += u64::from(!ok);
    }
    let rejoins = k.min(dead.len());
    let rejoining = choose(&mut dead, rejoins, rng);
    for &p in &rejoining {
        let ok = span(tracer, "lifecycle.join", || {
            match ov.join(p, AVG_DEGREE, rng) {
                Ok(_) => {
                    eng.on_join(p);
                    true
                }
                Err(_) => false,
            }
        });
        pass.joins += 1;
        pass.refused += u64::from(!ok);
    }
}

/// `k` distinct elements of `pool` (partial Fisher–Yates shuffle).
fn choose(pool: &mut [PeerId], k: usize, rng: &mut StdRng) -> Vec<PeerId> {
    for i in 0..k {
        let j = i + rng.gen_range(0..pool.len() - i);
        pool.swap(i, j);
    }
    pool[..k].to_vec()
}

/// Feeds the rate controller one measurement window, as the soak
/// harness does: per-query traffic of both sides on a small sample of
/// the current overlay, and each alive peer's share of the sample's
/// query arrivals.
fn feed_controller(world: &World, opt: &mut Optimized, workers: usize, rng: &mut StdRng) {
    let (ov, eng) = (&opt.overlay, &mut opt.engine);
    let specs = world.queries(ov, FEED_QUERIES, rng);
    let flood = serve_batch_on(world, ov, &world.plane, &FloodAll, &specs, workers);
    let ace = serve_batch_on(
        world,
        ov,
        &world.plane,
        &AceForward::new(&*eng),
        &specs,
        workers,
    );
    let flood_per_query = 100.0;
    let reduction = 1.0 - per_query_traffic(&ace) / per_query_traffic(&flood).max(1e-9);
    eng.note_traffic(flood_per_query, flood_per_query * (1.0 - reduction));
    let alive: Vec<PeerId> = ov.alive_peers().collect();
    let per_peer = FEED_QUERIES as f64 * ace.mean_scope / alive.len().max(1) as f64;
    for p in alive {
        eng.note_queries(p, per_peer);
    }
}

/// Serves `specs` on `overlay` through `policy`.
fn serve_batch_on<P: ForwardPolicy + Sync + ?Sized>(
    world: &World,
    overlay: &Overlay,
    plane: &dyn DistancePlane,
    policy: &P,
    specs: &[QuerySpec],
    workers: usize,
) -> ServeReport {
    let cfg = ServeConfig {
        query: QueryConfig {
            ttl: crate::world::TTL,
            stop_at_responder: false,
        },
        workers,
        ..ServeConfig::default()
    };
    let placement = &world.placement;
    serve_batch(
        overlay,
        plane,
        policy,
        specs,
        &|o, p| placement.is_holder(o, p),
        &cfg,
    )
}

fn per_query_traffic(r: &ServeReport) -> f64 {
    r.traffic_cost / r.served.max(1) as f64
}

/// Served queries that found no responder.
fn unanswered(r: &ServeReport) -> u64 {
    r.outcome
        .first_response
        .iter()
        .zip(&r.outcome.skipped)
        .filter(|(resp, skipped)| resp.is_none() && !**skipped)
        .count() as u64
}

/// Queries that were skipped or found no responder.
fn lost_queries(r: &ServeReport) -> u64 {
    r.skipped + unanswered(r)
}

/// Round-time figures from every timed round.
fn set_rounds(e2e: &mut EndToEnd, rounds: &[f64]) {
    e2e.round_ms_p50 = median(rounds).unwrap_or(0.0);
    if let Some(t) = tail(rounds) {
        e2e.round_ms_tail = t.value;
        e2e.round_tail_percentile = t.percentile;
    }
    e2e.round_samples = rounds.len();
}

/// Throughput, response, traffic and scope figures of a served pair.
fn set_serving(e2e: &mut EndToEnd, served: &Served) {
    let (flood, ace) = (&served.flood, &served.ace);
    e2e.qps = served.ace_qps;
    e2e.flood_qps = served.flood_qps;
    let responses: Vec<f64> = ace
        .outcome
        .first_response
        .iter()
        .flatten()
        .map(|t| t.as_millis_f64())
        .collect();
    e2e.response_ms_p50 = quantile(&responses, 0.5).unwrap_or(0.0);
    e2e.response_ms_p99 = quantile(&responses, 0.99).unwrap_or(0.0);
    e2e.traffic_ratio = per_query_traffic(ace) / per_query_traffic(flood).max(1e-9);
    e2e.scope_ratio = ace.mean_scope / flood.mean_scope.max(1e-9);
}

/// The decorated plane for a traced unit, the world's plane otherwise.
fn plane_for<'a>(
    traced: &'a Option<TracedPlane<'_>>,
    tracer: Option<&Tracer>,
    world: &'a World,
) -> &'a dyn DistancePlane {
    match (traced, tracer) {
        (Some(tp), Some(_)) => tp,
        _ => &world.plane,
    }
}

/// Counter-wise `after - before`.
fn stats_delta(before: &PlaneStats, after: &PlaneStats) -> PlaneStats {
    PlaneStats {
        coord: after.coord - before.coord,
        exact_sampled: after.exact_sampled - before.exact_sampled,
        exact_forced: after.exact_forced - before.exact_forced,
        exact_fallback: after.exact_fallback - before.exact_fallback,
        exact_full: after.exact_full - before.exact_full,
        cache: after.cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(trace: bool) -> Params {
        Params {
            peers: 150,
            seed: 5,
            seconds: 0.0,
            trace,
            workers: 2,
        }
    }

    /// A tiny-population run of every workload passes its output checks
    /// and repeats bit for bit.
    #[test]
    fn tiny_runs_pass_their_checks_and_repeat_per_seed() {
        for w in Workload::ALL {
            let a = run(w, &tiny(false));
            let b = run(w, &tiny(false));
            for c in &a.checks {
                assert!(c.passed, "{}: {} ({})", w.name(), c.name, c.detail);
            }
            assert_eq!(a.world_digest, b.world_digest, "{}", w.name());
            assert_eq!(a.state_digest, b.state_digest, "{}", w.name());
            assert_eq!(
                (a.attempted, a.failed),
                (b.attempted, b.failed),
                "{}",
                w.name()
            );
            let other = run(
                w,
                &Params {
                    seed: 6,
                    ..tiny(false)
                },
            );
            assert_eq!(a.world_digest, other.world_digest, "{}", w.name());
            assert_ne!(a.state_digest, other.state_digest, "{}", w.name());
            assert!(a.e2e.setup_s > 0.0 && a.e2e.optimize_s > 0.0 && a.e2e.qps > 0.0);
            assert!(a.e2e.traffic_ratio > 0.0 && a.e2e.traffic_ratio < 1.0);
            assert!(a.layers.is_empty());
        }
    }

    /// A traced run reports the same figure names on every workload and
    /// lands on the untraced run's digests: the decorators observe, they
    /// do not change what is computed.
    #[test]
    fn traced_tiny_runs_report_every_layer_figure() {
        let mut names: Option<Vec<String>> = None;
        for w in Workload::ALL {
            let traced = run(w, &tiny(true));
            let plain = run(w, &tiny(false));
            assert!(traced.correct(), "{}", w.name());
            assert_eq!(traced.state_digest, plain.state_digest, "{}", w.name());
            let these: Vec<String> = traced.layers.iter().map(|l| l.0.clone()).collect();
            assert!(these.len() >= 30, "{}: {these:?}", w.name());
            if let Some(n) = &names {
                assert_eq!(n, &these);
            }
            names = Some(these);
            let get = |k: &str| traced.layers.iter().find(|l| l.0 == k).map(|l| l.1);
            assert!(get("plane.calls").unwrap_or(0.0) > 0.0, "{}", w.name());
            assert!(get("forward.calls").unwrap_or(0.0) > 0.0, "{}", w.name());
            assert!(get("serve.self_ms").unwrap_or(-1.0) >= 0.0, "{}", w.name());
            let events = get("lifecycle.events").unwrap_or(0.0);
            assert_eq!(events > 0.0, w == Workload::Churn, "{}", w.name());
        }
    }
}
