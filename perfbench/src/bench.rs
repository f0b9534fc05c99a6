//! One workload run: set-up, closed loop, open loop, quality sample,
//! a control round, and (in the traced run) the per-layer probes.
//!
//! Every layer is timed from outside, through its public functions:
//! `OverlayBuilder`/`ServiceOverlay` for the build stages,
//! `RouterProvider`, `Router` and `CspRouter` for routing, `Engine` for
//! serving, and `StateProtocol` for the control plane.

use crate::check::{Checker, Refusals};
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::{Tracer, NO_REQUEST};
use crate::workloads::{Churn, Mix, Routing, Spec, CONTROL_PROXIES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use son_core::{
    BuildStage, CoordDelays, CostConfig, DissemMode, Engine, EngineConfig, EngineSnapshot,
    Environment, FaultPlan, Health, HierProvider, HierarchyConfig, Json, MultiLevelProvider,
    NodeId, NonRepeatingWorkload, ProxyId, RouterProvider, ServeOutcome, ServiceGraph, ServiceId,
    ServiceOverlay, ServiceRequest, ServiceSet, SimTime, SloConfig, SloTracker, SonConfig,
    StatusMap, Zipf,
};
use std::collections::VecDeque;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve_rps` is the median rate over this many consecutive chunks of
/// closed-loop batches.
const CHUNKS: usize = 20;
/// The closed and open loops each run in this many alternating slices.
const SLICES: usize = 10;
/// Open-loop latency percentiles are the median over consecutive windows
/// of at least this many requests each (enough for a p99 with ten
/// samples beyond it), in the order the requests were due.
const WINDOW_SAMPLES: usize = 1_000;
/// Timed control rounds per run, each under a fault plan of its own;
/// `control_round_s` is the median of their wall times.
const ROUNDS: usize = 5;
/// Simulated-time deadline for one control round.
const ROUND_DEADLINE_MS: f64 = 60_000.0;
/// Per-message loss in every control round's fault plan.
const ROUND_LOSS: f64 = 0.05;
/// Requests in the per-layer routing probes.
const PROBE_REQUESTS: usize = 64;
/// Router builds timed for `routing.router_build_us`.
const PROBE_BUILDS: usize = 8;
/// Telemetry on/off pairs, and batches per pass.
const TELEMETRY_PAIRS: usize = 6;
const TELEMETRY_BATCHES: usize = 4;
/// An open loop is marked invalid in the provenance when the generator
/// woke later than this share of the latency limit (p99) ...
const MAX_GEN_LAG_SHARE: f64 = 0.1;
/// ... and the mean backlog of the last third of sends may exceed the
/// first third's by at most this factor (plus one batch of slack).
const MAX_BACKLOG_GROWTH: f64 = 2.0;

pub struct Settings {
    pub seed: u64,
    /// Which control round of the run a round child times (1-based).
    pub round: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Worker threads available to the build stages.
    pub threads: usize,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Measured {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub provenance: Vec<(&'static str, Json)>,
    /// The traced run's spans (empty otherwise).
    pub spans: Tracer,
}

/// Work a run hands to a child process of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// One more set-up of the workload, timed.
    Setup,
    /// One control round on the churn world, timed.
    Round,
}

impl Child {
    pub fn name(self) -> &'static str {
        match self {
            Child::Setup => "setup",
            Child::Round => "round",
        }
    }

    pub fn from_name(name: &str) -> Option<Child> {
        [Child::Setup, Child::Round]
            .into_iter()
            .find(|c| c.name() == name)
    }
}

/// `setups` set-ups and `rounds` rounds, alternating, a set-up first.
fn children(setups: usize, rounds: usize) -> Vec<Child> {
    let mut order = Vec::new();
    for i in 0..setups.max(rounds) {
        if i < setups {
            order.push(Child::Setup);
        }
        if i < rounds {
            order.push(Child::Round);
        }
    }
    order
}

/// Why a run produced no metrics.
pub enum Refused {
    /// A correctness check failed.
    Incorrect(Vec<String>),
    /// The run could not be made as specified (its request stream ran
    /// out).
    Invalid(String),
}

/// Seed of every workload's world (topology, placement, services).
/// The world is part of a workload's definition and stays fixed, so run
/// to run differences measure the code rather than the topology drawn;
/// `--seed` draws everything served and injected into that world:
/// requests, fault plans, capacities and health flips.
pub const WORLD_SEED: u64 = 42;

/// Deterministic sub-seeds, so each input stream depends on the run
/// seed and on its purpose only.
fn derive(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request stream a workload draws from.
enum Stream {
    Zipf {
        pool: Vec<ServiceRequest>,
        zipf: Zipf,
        rng: StdRng,
    },
    Unique(NonRepeatingWorkload),
}

impl Stream {
    /// A Zipf mix's pool comes from the world seed, its traffic and a
    /// unique mix's whole stream from the run's `seed`.
    fn new(mix: Mix, overlay: &ServiceOverlay, outage: &[ProxyId], seed: u64) -> Stream {
        match mix {
            Mix::Zipf {
                pool: size,
                s,
                refused_every,
            } => {
                let pool = zipf_pool(overlay, size, refused_every, outage, WORLD_SEED);
                Stream::Zipf {
                    zipf: Zipf::new(pool.len(), s),
                    pool,
                    rng: StdRng::seed_from_u64(derive(seed, 2)),
                }
            }
            Mix::Unique { shapes, s } => {
                let hfc = overlay.hfc();
                let clusters: Vec<Vec<ProxyId>> =
                    hfc.clusters().map(|c| hfc.members(c).to_vec()).collect();
                let chains: Vec<Vec<ServiceId>> = (0..10)
                    .map(|k| (k..k + 3).map(ServiceId::new).collect())
                    .collect();
                Stream::Unique(NonRepeatingWorkload::new(
                    &clusters,
                    &chains,
                    shapes,
                    s,
                    derive(seed, 3),
                ))
            }
        }
    }

    fn remaining(&self) -> usize {
        match self {
            Stream::Zipf { .. } => usize::MAX,
            Stream::Unique(w) => w.remaining(),
        }
    }

    fn next(&mut self, count: usize) -> Vec<ServiceRequest> {
        match self {
            Stream::Zipf { pool, zipf, rng } => {
                (0..count).map(|_| pool[zipf.sample(rng)].clone()).collect()
            }
            Stream::Unique(w) => w.take(count),
        }
    }

    /// The workload's cache fill.
    fn fill(&mut self, count: usize) -> Vec<ServiceRequest> {
        match self {
            Stream::Zipf { pool, .. } => pool.clone(),
            Stream::Unique(w) => w.take(count.min(w.remaining())),
        }
    }

    /// Proxies that are the source or destination of some request in a
    /// Zipf pool: live health flips leave them alone, so which requests
    /// are refused is set by the pool alone.
    fn endpoints(&self) -> Vec<ProxyId> {
        match self {
            Stream::Zipf { pool, .. } => pool
                .iter()
                .flat_map(|r| [r.source, r.destination])
                .collect(),
            Stream::Unique(_) => Vec::new(),
        }
    }
}

/// A Zipf pool of `size` distinct client requests, most popular first.
/// Every `refused_every`-th rank holds a request the engine must refuse:
/// with an `outage`, one with an endpoint in it; without, one for a
/// service no proxy offers, whose verdict the negative cache keeps. No
/// other rank has an endpoint in the outage, so the refused share of the
/// traffic is set by the ranks, not by the requests the seed draws.
fn zipf_pool(
    overlay: &ServiceOverlay,
    size: usize,
    refused_every: usize,
    outage: &[ProxyId],
    seed: u64,
) -> Vec<ServiceRequest> {
    let unoffered = ServiceId::new(
        overlay
            .services()
            .iter()
            .flat_map(ServiceSet::iter)
            .map(ServiceId::index)
            .max()
            .map_or(0, |max| max + 1),
    );
    let touches =
        |r: &ServiceRequest| outage.contains(&r.source) || outage.contains(&r.destination);
    let want_refused = size / refused_every;
    let want_served = size - want_refused;
    let (mut served, mut refused) = (Vec::new(), Vec::new());
    for round in 0u64.. {
        if served.len() == want_served && refused.len() == want_refused {
            break;
        }
        assert!(
            round < 64,
            "an outage of {} proxies is too small to draw {want_refused} requests into it",
            outage.len()
        );
        for request in overlay.generate_client_requests(size * 2, derive(derive(seed, 1), round)) {
            let (list, want, request) = if !outage.is_empty() {
                if touches(&request) {
                    (&mut refused, want_refused, request)
                } else {
                    (&mut served, want_served, request)
                }
            } else if served.len() < want_served {
                (&mut served, want_served, request)
            } else {
                let graph = ServiceGraph::linear(vec![unoffered]);
                let unservable = ServiceRequest::new(request.source, graph, request.destination);
                (&mut refused, want_refused, unservable)
            };
            if list.len() < want && !list.contains(&request) {
                list.push(request);
            }
        }
    }
    let (mut served, mut refused) = (served.into_iter(), refused.into_iter());
    (1..=size)
        .map(|rank| {
            let next = if rank % refused_every == 0 {
                refused.next()
            } else {
                served.next()
            };
            next.expect("the pool was drawn in full")
        })
        .collect()
}

/// Churn's fixed outage: every member of the world's smallest cluster
/// with at least `min_members` members (the lowest cluster id on ties).
fn fixed_outage(overlay: &ServiceOverlay, min_members: usize) -> Vec<ProxyId> {
    let hfc = overlay.hfc();
    hfc.clusters()
        .map(|c| hfc.members(c))
        .filter(|members| members.len() >= min_members)
        .min_by_key(|members| members.len())
        .map(<[ProxyId]>::to_vec)
        .unwrap_or_default()
}

/// Churn's operator state, stamped on every snapshot the engine serves:
/// per-proxy admission capacities, and the outage `Down`.
struct Stamp {
    capacities: Vec<u32>,
    outage: Vec<ProxyId>,
}

impl Stamp {
    fn apply(&self, mut statuses: StatusMap) -> StatusMap {
        for (p, &c) in self.capacities.iter().enumerate() {
            statuses.set_capacity(ProxyId::new(p), c);
        }
        for &p in &self.outage {
            statuses.set_health(p, Health::Down);
        }
        statuses
    }
}

/// Build-stage and set-up times.
struct SetupTimes {
    total_s: f64,
    stages_ms: [f64; 6],
    hierarchy_ms: f64,
    fill_s: f64,
}

impl SetupTimes {
    fn to_vec(&self) -> Vec<f64> {
        let mut v = vec![self.total_s];
        v.extend(self.stages_ms);
        v.extend([self.hierarchy_ms, self.fill_s]);
        v
    }

    fn from_slice(v: &[f64]) -> Option<SetupTimes> {
        (v.len() == 9).then(|| SetupTimes {
            total_s: v[0],
            stages_ms: std::array::from_fn(|i| v[1 + i]),
            hierarchy_ms: v[7],
            fill_s: v[8],
        })
    }

    /// Each time's median over `setups`.
    fn median(setups: &[SetupTimes]) -> SetupTimes {
        let of = |f: &dyn Fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
        SetupTimes {
            total_s: of(&|t| t.total_s),
            stages_ms: std::array::from_fn(|i| of(&|t| t.stages_ms[i])),
            hierarchy_ms: of(&|t| t.hierarchy_ms),
            fill_s: of(&|t| t.fill_s),
        }
    }
}

/// The world one run serves.
struct World<P> {
    overlay: ServiceOverlay,
    engine: Engine<CoordDelays, P>,
    /// An equal copy of the engine's provider, for the routing probes.
    provider: P,
    stream: Stream,
    /// Capacities and outage (churn only).
    stamp: Option<Stamp>,
    /// The cache fill's requests and what the engine answered, for the
    /// correctness gate.
    fill: (Vec<ServiceRequest>, ServeOutcome),
}

impl<P> World<P> {
    /// Which requests the engine must refuse in this world.
    fn refusals(&self) -> Refusals {
        let outage = self
            .stamp
            .as_ref()
            .map_or_else(Vec::new, |s| s.outage.clone());
        Refusals::new(outage, self.overlay.services())
    }
}

fn son_config(proxies: usize, seed: u64, threads: usize) -> SonConfig {
    let mut config = SonConfig::from_environment(Environment::scaled(proxies, seed));
    config.threads = threads;
    if proxies > 5_000 {
        // Keep the lazy true-delay cache far below the O(n²) matrix,
        // as the scale sweep does.
        config.delay_rows_limit = Some((proxies / 100).max(64));
    }
    config
}

fn engine_config(spec: &Spec) -> EngineConfig {
    let mut config = EngineConfig {
        workers: spec.workers,
        dispatch_us_per_delay: 0.0,
        ..EngineConfig::default()
    };
    if let Some(churn) = spec.churn {
        config.admission.enabled = true;
        config.stale_serve_budget = churn.stale_budget;
    }
    config
}

/// Set-up: build the overlay (and hierarchy), the engine, and do
/// the cache fill. Input generation in between is the harness's work
/// and is not timed.
fn setup<P: RouterProvider<CoordDelays> + Copy>(
    spec: &Spec,
    settings: &Settings,
    tracer: &mut Tracer,
    provider: &impl Fn(&ServiceOverlay) -> P,
) -> (World<P>, SetupTimes) {
    let started = Instant::now();
    let overlay = tracer.span("overlay.build", NO_REQUEST, || {
        ServiceOverlay::build(&son_config(spec.proxies, WORLD_SEED, settings.threads))
    });
    let mut timed = started.elapsed().as_secs_f64();

    let mut hierarchy_ms = 0.0;
    let hierarchy = match spec.routing {
        Routing::BiLevel => None,
        Routing::MultiLevel { depth } => {
            let t = Instant::now();
            let config = HierarchyConfig {
                threads: settings.threads,
                ..HierarchyConfig::default()
            };
            let h = tracer.span("overlay.hierarchy", NO_REQUEST, || {
                overlay.hierarchy_with_depth(&config, depth)
            });
            hierarchy_ms = t.elapsed().as_secs_f64() * 1e3;
            timed += hierarchy_ms / 1e3;
            Some(Arc::new(h))
        }
    };

    // Untimed: inputs.
    let outage = spec.churn.map_or_else(Vec::new, |churn| {
        fixed_outage(&overlay, churn.outage_min_members)
    });
    let mut stream = Stream::new(spec.mix, &overlay, &outage, settings.seed);
    let fill = stream.fill(spec.fill);
    let stamp = spec.churn.map(|churn| {
        let mut rng = StdRng::seed_from_u64(derive(settings.seed, 4));
        Stamp {
            capacities: (0..spec.proxies)
                .map(|_| rng.gen_range(churn.capacity.0..=churn.capacity.1))
                .collect(),
            outage,
        }
    });

    let t = Instant::now();
    let engine = tracer.span("engine.new", NO_REQUEST, || {
        let mut snapshot = match &hierarchy {
            Some(h) => overlay.engine_snapshot_with_hierarchy(Arc::clone(h)),
            None => overlay.engine_snapshot(),
        };
        if let Some(stamp) = &stamp {
            snapshot = snapshot.with_statuses(
                stamp.apply(StatusMap::all_up(spec.proxies)),
                CostConfig::default(),
            );
        }
        Engine::new(snapshot, provider(&overlay), engine_config(spec))
    });
    let engine_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fill_outcome = tracer.span("engine.cache_fill", NO_REQUEST, || engine.serve(&fill));
    let fill_s = t.elapsed().as_secs_f64();
    timed += engine_s + fill_s;

    let timings = &overlay.stats().timings;
    let ms = |stage| timings.get(stage).as_secs_f64() * 1e3;
    let times = SetupTimes {
        total_s: timed,
        stages_ms: [
            ms(BuildStage::Topology),
            ms(BuildStage::Landmarks),
            ms(BuildStage::Embedding),
            ms(BuildStage::Clustering),
            ms(BuildStage::Hfc),
            ms(BuildStage::State),
        ],
        hierarchy_ms,
        fill_s,
    };
    let world = World {
        provider: provider(&overlay),
        overlay,
        engine,
        stream,
        stamp,
        fill: (fill, fill_outcome),
    };
    (world, times)
}

/// One control round's figures.
struct Round {
    seconds: f64,
    protocol_s: f64,
    health_view_us: f64,
    msgs: f64,
    dropped: f64,
    repairs: f64,
    sim_ms: f64,
}

impl Round {
    fn to_vec(&self) -> Vec<f64> {
        vec![
            self.seconds,
            self.protocol_s,
            self.health_view_us,
            self.msgs,
            self.dropped,
            self.repairs,
            self.sim_ms,
        ]
    }

    fn from_slice(v: &[f64]) -> Option<Round> {
        (v.len() == 7).then(|| Round {
            seconds: v[0],
            protocol_s: v[1],
            health_view_us: v[2],
            msgs: v[3],
            dropped: v[4],
            repairs: v[5],
            sim_ms: v[6],
        })
    }

    /// Over `rounds`: each wall time's median, each count's and the
    /// simulated time's mean (the rounds' fault plans differ, and the
    /// mean weighs each plan alike).
    fn combine(rounds: &[Round]) -> Round {
        let values = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
        let med = |f| median(&values(f));
        let avg = |f| mean(&values(f));
        Round {
            seconds: med(|r| r.seconds),
            protocol_s: med(|r| r.protocol_s),
            health_view_us: med(|r| r.health_view_us),
            msgs: avg(|r| r.msgs),
            dropped: avg(|r| r.dropped),
            repairs: avg(|r| r.repairs),
            sim_ms: avg(|r| r.sim_ms),
        }
    }
}

/// One control round on `overlay`: the tree-mode state protocol under a
/// seeded fault plan (loss plus one crash/restart) run to convergence,
/// then the health view and the engine snapshot it yields, `stamp`ed.
/// Round `round` of a run draws its fault plan from the seed and `round`.
fn control_round(
    overlay: &ServiceOverlay,
    settings: &Settings,
    round: u64,
    stamp: Option<&Stamp>,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> (Round, EngineSnapshot<CoordDelays>) {
    let n = overlay.proxy_count();
    let mut rng = StdRng::seed_from_u64(derive(settings.seed, 100 + round));
    let victim = NodeId::new(rng.gen_range(0..n));
    let crash_at = rng.gen_range(20.0..60.0);
    let plan = FaultPlan::new(derive(settings.seed, 200 + round))
        .with_loss(ROUND_LOSS)
        .with_crash(
            victim,
            SimTime::from_ms(crash_at),
            Some(SimTime::from_ms(crash_at + 40.0)),
        );
    let open = tracer.begin("state.round", round);
    let started = Instant::now();
    let (report, protocol) = tracer.span("state.protocol", round, || {
        let mut protocol = overlay.faulty_state_protocol_in(DissemMode::Tree, plan);
        let report = protocol.run_until_converged(SimTime::from_ms(ROUND_DEADLINE_MS));
        (report, protocol)
    });
    let protocol_s = started.elapsed().as_secs_f64();
    let t = Instant::now();
    let health = tracer.span("state.health_view", round, || protocol.health_view());
    let health_view_us = t.elapsed().as_secs_f64() * 1e6;
    let statuses = match stamp {
        Some(stamp) => stamp.apply(health),
        None => health,
    };
    let snapshot = tracer.span("overlay.engine_snapshot_with", round, || {
        overlay.engine_snapshot_with(statuses, CostConfig::default())
    });
    let seconds = started.elapsed().as_secs_f64();
    tracer.end(open);
    if !report.converged || report.stale_entries != 0 {
        checker.fail(format!(
            "control round {round} ended converged={} with {} stale entries",
            report.converged, report.stale_entries
        ));
    }
    let figures = Round {
        seconds,
        protocol_s,
        health_view_us,
        msgs: report.messages_sent() as f64,
        dropped: report.messages_dropped as f64,
        repairs: report.tree_repairs as f64,
        sim_ms: report.ended_at.as_ms(),
    };
    (figures, snapshot)
}

/// Live health flips and snapshot installs beside the reads (churn).
struct Writer {
    churn: Churn,
    /// The control round's snapshot, installed at every install point.
    snapshot: EngineSnapshot<CoordDelays>,
    candidates: Vec<ProxyId>,
    rng: StdRng,
    /// Proxies currently `Down` by live override, oldest first.
    down: VecDeque<ProxyId>,
    install_us: Vec<f64>,
    set_health_us: Vec<f64>,
}

impl Writer {
    fn new(
        churn: Churn,
        snapshot: EngineSnapshot<CoordDelays>,
        proxies: usize,
        spared: &[ProxyId],
        seed: u64,
    ) -> Self {
        Writer {
            churn,
            snapshot,
            candidates: (0..proxies)
                .map(ProxyId::new)
                .filter(|p| !spared.contains(p))
                .collect(),
            rng: StdRng::seed_from_u64(derive(seed, 5)),
            down: VecDeque::new(),
            install_us: Vec::new(),
            set_health_us: Vec::new(),
        }
    }

    /// Installs the control round's snapshot (a new epoch).
    fn install<P: RouterProvider<CoordDelays>>(
        &mut self,
        engine: &Engine<CoordDelays, P>,
        tracer: &mut Tracer,
        id: u64,
    ) {
        let snapshot = self.snapshot.clone();
        let t = Instant::now();
        tracer.span("engine.install_snapshot", id, || {
            engine.install_snapshot(snapshot)
        });
        self.install_us.push(t.elapsed().as_secs_f64() * 1e6);
        // An install makes the snapshot's statuses authoritative again.
        self.down.clear();
    }

    /// Takes one more proxy down; with two already down, the oldest
    /// comes back up first.
    fn flip<P: RouterProvider<CoordDelays>>(
        &mut self,
        engine: &Engine<CoordDelays, P>,
        tracer: &mut Tracer,
        id: u64,
    ) {
        if self.candidates.is_empty() {
            return;
        }
        let victim = self.candidates[self.rng.gen_range(0..self.candidates.len())];
        if self.down.contains(&victim) {
            return;
        }
        if self.down.len() == 2 {
            let back = self.down.pop_front().expect("two proxies are down");
            let t = Instant::now();
            tracer.span("engine.set_health", id, || {
                engine.set_health(back, Health::Up)
            });
            self.set_health_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        tracer.span("engine.set_health", id, || {
            engine.set_health(victim, Health::Down)
        });
        self.set_health_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.down.push_back(victim);
    }

    fn down(&self) -> Vec<ProxyId> {
        self.down.iter().copied().collect()
    }
}

/// Engine counters summed over a phase.
#[derive(Default)]
struct Tally {
    requests: u64,
    served: u64,
    hits: u64,
    misses: u64,
    csp_hits: u64,
    csp_misses: u64,
    stale_served: u64,
    revalidations: u64,
    negative_hits: u64,
    retries: u64,
    rejected_no_ingress: u64,
    rejected_overloaded: u64,
    rejected_unroutable: u64,
    worker_requests: Vec<u64>,
}

impl Tally {
    fn add(&mut self, outcome: &ServeOutcome) {
        let r = &outcome.report;
        self.requests += r.requests as u64;
        self.served += outcome
            .dispositions
            .iter()
            .filter(|d| d.is_served())
            .count() as u64;
        self.hits += r.cache.hits;
        self.misses += r.cache.misses;
        self.csp_hits += r.cache.csp_hits;
        self.csp_misses += r.cache.csp_misses;
        self.stale_served += r.cache.stale_served;
        self.revalidations += r.cache.revalidations;
        self.negative_hits += r.cache.negative_hits;
        self.retries += r.admission.retries;
        self.rejected_no_ingress += r.admission.rejected_no_ingress;
        self.rejected_overloaded += r.admission.rejected_overloaded;
        self.rejected_unroutable += r.admission.rejected_unroutable;
        if self.worker_requests.len() < r.worker_stats.len() {
            self.worker_requests.resize(r.worker_stats.len(), 0);
        }
        for w in &r.worker_stats {
            self.worker_requests[w.worker] += w.requests;
        }
    }
}

/// Closed-loop results, accumulated over the slices.
#[derive(Default)]
struct ClosedLoop {
    tally: Tally,
    /// Per batch: requests and serve-call seconds.
    batches: Vec<(usize, f64)>,
    /// Traced run: per pair of warm batches, the traced batch's harness
    /// time (its wall time outside the engine call) less the untraced
    /// one's, over the untraced batch's wall time.
    trace_pairs: Vec<f64>,
}

/// Open-loop results, accumulated over the slices.
#[derive(Default)]
struct OpenLoop {
    /// Per slice: each request's latency from its due time, us.
    latencies_us: Vec<Vec<f64>>,
    /// Requests served within the workload's latency limit.
    within_limit: usize,
    lags_us: Vec<f64>,
    sends: usize,
    /// Per slice: mean requests per send over its first and last third.
    backlog: Vec<(f64, f64)>,
    tally: Tally,
}

impl OpenLoop {
    fn samples(&self) -> usize {
        self.latencies_us.iter().map(Vec::len).sum()
    }

    /// Latency quantile: the median of its values over consecutive
    /// windows of at least `WINDOW_SAMPLES` requests (one window when
    /// the run holds fewer), so a slow stretch of the machine moves one
    /// window rather than the whole run's tail.
    fn latency(&self, q: f64) -> f64 {
        median(&self.window_quantiles(q))
    }

    fn window_quantiles(&self, q: f64) -> Vec<f64> {
        let all = self.latencies_us.concat();
        let n = all.len();
        let windows = (n / WINDOW_SAMPLES).max(1);
        (0..windows)
            .map(|i| quantile(&all[i * n / windows..(i + 1) * n / windows], q))
            .collect()
    }
}

/// Median of per-chunk request rates over consecutive batches. A chunk
/// holds a whole number of `period`s of batches (churn's install
/// period), so every chunk carries the same share of cold batches.
fn chunked_rate(batches: &[(usize, f64)], period: usize) -> f64 {
    if batches.is_empty() {
        return 0.0;
    }
    let per = batches
        .len()
        .div_ceil(CHUNKS)
        .next_multiple_of(period.max(1));
    let rates: Vec<f64> = batches
        .chunks(per)
        .map(|c| {
            let n: usize = c.iter().map(|b| b.0).sum();
            let s: f64 = c.iter().map(|b| b.1).sum();
            ratio(n as f64, s)
        })
        .collect();
    median(&rates)
}

struct Runner<'a, P> {
    spec: &'a Spec,
    settings: &'a Settings,
    world: World<P>,
    /// Live writes beside the reads (churn only).
    writer: Option<Writer>,
    tracer: Tracer,
    checker: Checker,
    next_id: u64,
    closed: ClosedLoop,
    open: OpenLoop,
    /// Closed-loop batches sent so far, across slices.
    batches_sent: usize,
    /// Figures of the set-ups and control rounds run in child processes.
    setups: Vec<SetupTimes>,
    rounds: Vec<Round>,
}

impl<'a, P: RouterProvider<CoordDelays> + Copy> Runner<'a, P> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `kind` in a child process of this program and keeps its
    /// figures. The child checks its own outputs; a failed check there
    /// fails this run.
    fn child(&mut self, kind: Child) -> Result<(), Refused> {
        let exe = std::env::current_exe()
            .map_err(|e| Refused::Invalid(format!("cannot find this program: {e}")))?;
        let mut command = Command::new(exe);
        command
            .args(["--workload", self.spec.name])
            .args(["--seed", &self.settings.seed.to_string()])
            .args(["--seconds", &self.settings.seconds.to_string()])
            .args(["--trace", "0", "--child", kind.name()]);
        if kind == Child::Round {
            command.args(["--round", &(self.rounds.len() + 1).to_string()]);
        }
        let output = command
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| Refused::Invalid(format!("cannot start a {} child: {e}", kind.name())))?;
        if output.status.code() == Some(1) {
            return Err(Refused::Incorrect(vec![format!(
                "a {} child failed its checks",
                kind.name()
            )]));
        }
        let figures: Option<Vec<f64>> = output
            .status
            .success()
            .then(|| String::from_utf8_lossy(&output.stdout).into_owned())
            .and_then(|out| {
                let last = out.lines().last()?.to_string();
                last.split_whitespace().map(|x| x.parse().ok()).collect()
            });
        let parsed = match kind {
            Child::Setup => figures
                .as_deref()
                .and_then(SetupTimes::from_slice)
                .map(|t| self.setups.push(t)),
            Child::Round => figures
                .as_deref()
                .and_then(Round::from_slice)
                .map(|r| self.rounds.push(r)),
        };
        parsed.ok_or_else(|| {
            Refused::Invalid(format!(
                "a {} child failed ({})",
                kind.name(),
                output.status
            ))
        })
    }

    /// Phase 2, one slice: fixed-size batches, each sent when the
    /// previous one completed, for `budget` seconds.
    ///
    /// A batch is cold when no batch ran since the last write (a snapshot
    /// install or a health flip) or since the slice began. In the traced
    /// run cold batches are traced and set aside; warm batches run in
    /// pairs, one traced and one untraced, in an order that alternates
    /// from pair to pair. A write before the second batch of a pair voids
    /// the pair. Tracing adds work only around the calls it wraps, so a
    /// pair compares the batches' harness time, their wall time outside
    /// the engine call: unlike the call itself, it does not hang on how
    /// many of the batch's requests the caches answer.
    fn closed_slice(&mut self, budget: f64) {
        let batch = self.spec.batch;
        let trace = self.settings.trace;
        let started = Instant::now();
        let mut since_write = 0usize;
        // The first batch of the pair being measured: whether it was
        // traced, its harness time and its wall time.
        let mut pending: Option<(bool, f64, f64)> = None;
        while started.elapsed().as_secs_f64() < budget && self.world.stream.remaining() >= batch {
            let b = self.batches_sent;
            let (install, flip) = self.writer.as_ref().map_or((false, false), |w| {
                let churn = w.churn;
                (
                    b > 0 && b.is_multiple_of(churn.install_every_batches),
                    b % churn.flip_every_batches == churn.flip_every_batches / 2,
                )
            });
            if install || flip {
                since_write = 0;
            }
            let warm = since_write > 0;
            let traced = match pending {
                _ if !warm => true,
                Some((first_traced, ..)) => !first_traced,
                None => self.closed.trace_pairs.len().is_multiple_of(2),
            };
            if !warm {
                pending = None;
            }
            self.tracer.set_on(trace && traced);
            let batch_started = Instant::now();
            let segment = self.tracer.begin("phase.closed_segment", NO_REQUEST);
            let id = self.id();
            if let Some(w) = self.writer.as_mut() {
                if install {
                    w.install(&self.world.engine, &mut self.tracer, id);
                }
                if flip {
                    w.flip(&self.world.engine, &mut self.tracer, id);
                }
            }
            let stream = &mut self.world.stream;
            let requests = self.tracer.span("bench.gen", id, || stream.next(batch));
            let snapshot = self.world.engine.snapshot();
            let engine = &self.world.engine;
            let mut dt = 0.0;
            let outcome = self.tracer.span("engine.serve", id, || {
                let t = Instant::now();
                let outcome = engine.serve(&requests);
                dt = t.elapsed().as_secs_f64();
                outcome
            });
            let down = self.writer.as_ref().map(Writer::down).unwrap_or_default();
            let checker = &mut self.checker;
            self.tracer.span("bench.check", id, || {
                checker.outcome(&requests, &outcome, &snapshot, &down)
            });
            self.closed.tally.add(&outcome);
            self.tracer.end(segment);
            let wall = batch_started.elapsed().as_secs_f64();
            self.closed.batches.push((requests.len(), dt));
            if trace && warm {
                match pending.take() {
                    None => pending = Some((traced, wall - dt, wall)),
                    Some((first_traced, first_harness, first_wall)) => {
                        let ((on, _), (off, off_wall)) = if first_traced {
                            ((first_harness, first_wall), (wall - dt, wall))
                        } else {
                            ((wall - dt, wall), (first_harness, first_wall))
                        };
                        self.closed.trace_pairs.push((on - off) / off_wall);
                    }
                }
            }
            since_write += 1;
            self.batches_sent += 1;
        }
        self.tracer.set_on(trace);
    }

    /// Phase 3, one slice: `requests` on a fixed-rate schedule. At each
    /// send, every request that is due goes into one serve call; latency
    /// runs from the request's due time. Answers are checked after the
    /// slice so checking never delays a send.
    fn open_slice(&mut self, requests: &[ServiceRequest]) {
        let rate = self.spec.rate;
        let n = requests.len();
        let due = |k: usize| k as f64 / rate;
        // Write points, as request indices: a snapshot install in the
        // middle of the slice, health flips at a fixed stride.
        let mut hooks: Vec<(usize, bool)> = Vec::new();
        if let Some(w) = self.writer.as_ref() {
            hooks.push((n / 2, true));
            let stride = w.churn.flip_every_requests;
            hooks.extend((stride / 2..n).step_by(stride).map(|k| (k, false)));
            hooks.sort();
        }
        let mut hook = 0usize;

        let mut latencies_us = vec![0.0f64; n];
        let mut backlog = Vec::new();
        let mut answers = Vec::new();
        let started = Instant::now();
        let mut sent = 0usize;
        while sent < n {
            let target = due(sent);
            if started.elapsed().as_secs_f64() < target {
                wait_until(started, target);
                self.open
                    .lags_us
                    .push((started.elapsed().as_secs_f64() - target) * 1e6);
            }
            let id = self.id();
            while hook < hooks.len() && hooks[hook].0 <= sent {
                if let Some(w) = self.writer.as_mut() {
                    if hooks[hook].1 {
                        w.install(&self.world.engine, &mut self.tracer, id);
                    } else {
                        w.flip(&self.world.engine, &mut self.tracer, id);
                    }
                }
                hook += 1;
            }
            let now = started.elapsed().as_secs_f64();
            let mut upto = ((now * rate).floor() as usize + 1).clamp(sent + 1, n);
            if hook < hooks.len() {
                upto = upto.min(hooks[hook].0.max(sent + 1));
            }
            let batch = &requests[sent..upto];
            let snapshot = self.world.engine.snapshot();
            let engine = &self.world.engine;
            let outcome = self.tracer.span("engine.serve", id, || engine.serve(batch));
            let done = started.elapsed().as_secs_f64();
            for (k, disposition) in (sent..upto).zip(&outcome.dispositions) {
                latencies_us[k] = (done - due(k)) * 1e6;
                if disposition.is_served() && latencies_us[k] <= self.spec.latency_limit_us {
                    self.open.within_limit += 1;
                }
            }
            backlog.push((upto - sent) as f64);
            self.open.tally.add(&outcome);
            let down = self.writer.as_ref().map(Writer::down).unwrap_or_default();
            answers.push((sent, upto, outcome, snapshot, down));
            sent = upto;
        }
        for (from, to, outcome, snapshot, down) in &answers {
            self.checker
                .outcome(&requests[*from..*to], outcome, snapshot, down);
        }
        let third = (backlog.len() / 3).max(1);
        self.open.backlog.push((
            mean(&backlog[..third.min(backlog.len())]),
            mean(&backlog[backlog.len().saturating_sub(third)..]),
        ));
        self.open.sends += backlog.len();
        self.open.latencies_us.push(latencies_us);
    }

    /// Why the open loop did not measure the engine alone, if it did
    /// not: the generator woke late (p99), or a slice's backlog grew.
    fn open_loop_invalid(&self) -> Option<String> {
        let limit = self.spec.latency_limit_us;
        let lag = quantile(&self.open.lags_us, 0.99);
        if lag > MAX_GEN_LAG_SHARE * limit {
            return Some(format!(
                "the generator fell behind: p99 wake-up lag {lag:.0} us against a {limit:.0} us limit"
            ));
        }
        self.open.backlog.iter().find_map(|&(first, last)| {
            (last > MAX_BACKLOG_GROWTH * first + self.spec.batch as f64).then(|| {
                format!("the backlog grew across the open loop: {first:.1} -> {last:.1} requests per send")
            })
        })
    }

    /// Phase 4: a fixed sample served outside any timed phase. Returns
    /// (mean true delay in ms, mean hops).
    fn quality(&mut self, sample: &[ServiceRequest]) -> (f64, f64) {
        // Churn: end on a canonical state, the control round's snapshot
        // with no live overrides.
        let id = self.id();
        if let Some(w) = self.writer.as_mut() {
            w.install(&self.world.engine, &mut self.tracer, id);
        }
        let snapshot = self.world.engine.snapshot();
        let outcome = self.world.engine.serve(sample);
        self.checker.outcome(sample, &outcome, &snapshot, &[]);
        let paths: Vec<_> = outcome
            .paths
            .iter()
            .filter_map(|p| p.as_ref().ok())
            .collect();
        let delays = self.world.overlay.true_delays();
        let delay_ms = mean(&paths.iter().map(|p| p.length(delays)).collect::<Vec<_>>());
        let hops = mean(
            &paths
                .iter()
                .map(|p| p.hops().len() as f64)
                .collect::<Vec<_>>(),
        );

        // Engine answers must equal an uncached route, bit for bit and
        // costs included. Admission (churn) re-routes by design, so the
        // comparison is made where answers are plain routes.
        if self.spec.churn.is_none() {
            let router = self.world.provider.router(&snapshot);
            for (request, answer) in sample.iter().zip(&outcome.paths) {
                let fresh = router.route_path(request);
                let same = match (answer, &fresh) {
                    (Ok(a), Ok(f)) => {
                        a == f
                            && a.length(snapshot.delays()).to_bits()
                                == f.length(snapshot.delays()).to_bits()
                    }
                    (Err(a), Err(f)) => a == f,
                    _ => false,
                };
                if !same {
                    self.checker.fail(format!(
                        "engine answer {answer:?} differs from the uncached route {fresh:?} for {request:?}"
                    ));
                }
            }
        }
        (delay_ms, hops)
    }

    /// Per-layer routing probes: the provider's router builds, cold
    /// routes, CSP solves and frontier replays, called directly.
    fn routing_probes(&mut self, sample: &[ServiceRequest]) -> [f64; 4] {
        let snapshot = self.world.engine.snapshot();
        let provider = self.world.provider;
        let mut builds = Vec::new();
        for _ in 0..PROBE_BUILDS {
            let id = self.id();
            let t = Instant::now();
            self.tracer.span("routing.router_build", id, || {
                let router = provider.router(&snapshot);
                let csp = provider.csp_router(&snapshot);
                std::hint::black_box((&router, &csp));
            });
            builds.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let router = provider.router(&snapshot);
        let csp = provider.csp_router(&snapshot);
        let (mut cold, mut solve, mut replay) = (Vec::new(), Vec::new(), Vec::new());
        for request in sample.iter().take(PROBE_REQUESTS) {
            let id = self.id();
            let t = Instant::now();
            let path = self
                .tracer
                .span("routing.route_path", id, || router.route_path(request));
            cold.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(&path);
            if let Some(csp) = &csp {
                let t = Instant::now();
                let frontier = self
                    .tracer
                    .span("routing.solve_frontier", id, || csp.solve_frontier(request));
                solve.push(t.elapsed().as_secs_f64() * 1e6);
                if let Ok(frontier) = frontier {
                    let t = Instant::now();
                    let replayed = self.tracer.span("routing.route_from_frontier", id, || {
                        csp.route_from_frontier(request, &frontier)
                    });
                    replay.push(t.elapsed().as_secs_f64() * 1e6);
                    if replayed != path {
                        self.checker.fail(format!(
                            "frontier replay {replayed:?} differs from the route {path:?}"
                        ));
                    }
                }
            }
        }
        [
            median(&builds),
            median(&cold),
            median(&solve),
            median(&replay),
        ]
    }

    /// Closed-loop rate with telemetry, flight recorder and SLO tracking
    /// all on, over the same with them off. Passes alternate and the
    /// ratio is of the per-mode medians.
    fn telemetry_ratio(&mut self) -> f64 {
        let engine = &self.world.engine;
        engine.attach_slo(Arc::new(SloTracker::new(SloConfig::default())));
        let recorder = son_core::flight();
        let mut rates = [Vec::new(), Vec::new()];
        for pass in 0..TELEMETRY_PAIRS * 2 {
            // Rotate which mode goes first in each pair.
            let on = (pass % 2 == 0) == ((pass / 2) % 2 == 0);
            son_core::set_telemetry_enabled(on);
            recorder.set_enabled(on);
            let (mut n, mut s) = (0usize, 0.0f64);
            for _ in 0..TELEMETRY_BATCHES {
                if self.world.stream.remaining() < self.spec.batch {
                    break;
                }
                let requests = self.world.stream.next(self.spec.batch);
                let t = Instant::now();
                let outcome = engine.serve(&requests);
                s += t.elapsed().as_secs_f64();
                n += outcome.paths.len();
            }
            rates[usize::from(on)].push(ratio(n as f64, s));
        }
        son_core::set_telemetry_enabled(false);
        recorder.set_enabled(false);
        ratio(median(&rates[1]), median(&rates[0]))
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sleeps until `target` seconds after `started`, spinning for the last
/// stretch so the wake-up is not late by a scheduler quantum.
fn wait_until(started: Instant, target: f64) {
    loop {
        let left = target - started.elapsed().as_secs_f64();
        if left <= 0.0 {
            return;
        }
        if left > 400e-6 {
            std::thread::sleep(Duration::from_secs_f64(left - 300e-6));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Refuses the run if any check failed.
fn gate(checker: &Checker) -> Result<(), Refused> {
    if checker.failures() == 0 {
        return Ok(());
    }
    let mut report = checker.report().to_vec();
    report.push(format!("{} checks failed", checker.failures()));
    Err(Refused::Incorrect(report))
}

/// A child process's work (see [`Child`]); returns its figures.
pub fn run_child(spec: &Spec, settings: &Settings, kind: Child) -> Result<Vec<f64>, Refused> {
    son_core::set_telemetry_enabled(false);
    let mut tracer = Tracer::new(false);
    match kind {
        Child::Setup => match spec.routing {
            Routing::BiLevel => child_setup(spec, settings, &|o: &ServiceOverlay| HierProvider {
                config: o.config().hier,
            }),
            Routing::MultiLevel { .. } => {
                child_setup(spec, settings, &|o: &ServiceOverlay| MultiLevelProvider {
                    config: o.config().hier,
                })
            }
        },
        Child::Round => {
            let overlay =
                ServiceOverlay::build(&son_config(CONTROL_PROXIES, WORLD_SEED, settings.threads));
            let mut checker = Checker::default();
            let (round, _) = control_round(
                &overlay,
                settings,
                settings.round,
                None,
                &mut tracer,
                &mut checker,
            );
            gate(&checker)?;
            Ok(round.to_vec())
        }
    }
}

fn child_setup<P: RouterProvider<CoordDelays> + Copy>(
    spec: &Spec,
    settings: &Settings,
    provider: &impl Fn(&ServiceOverlay) -> P,
) -> Result<Vec<f64>, Refused> {
    let (world, times) = setup(spec, settings, &mut Tracer::new(false), provider);
    let mut checker = Checker::new(world.refusals());
    let (fill, fill_outcome) = &world.fill;
    checker.outcome(fill, fill_outcome, &world.engine.snapshot(), &[]);
    gate(&checker)?;
    Ok(times.to_vec())
}

/// Runs one workload end to end.
pub fn run(spec: &Spec, settings: &Settings) -> Result<Measured, Refused> {
    match spec.routing {
        Routing::BiLevel => run_with(spec, settings, |o: &ServiceOverlay| HierProvider {
            config: o.config().hier,
        }),
        Routing::MultiLevel { .. } => {
            run_with(spec, settings, |o: &ServiceOverlay| MultiLevelProvider {
                config: o.config().hier,
            })
        }
    }
}

fn run_with<P: RouterProvider<CoordDelays> + Copy>(
    spec: &Spec,
    settings: &Settings,
    provider: impl Fn(&ServiceOverlay) -> P,
) -> Result<Measured, Refused> {
    // Every number measures compute: telemetry is measured on its own
    // (`telemetry.on_off_ratio`) and is off everywhere else.
    son_core::set_telemetry_enabled(false);
    let mut tracer = Tracer::new(settings.trace);

    // Phase 1: set-up.
    let (world, first_setup) = setup(spec, settings, &mut tracer, &provider);
    let mut checker = Checker::new(world.refusals());
    let (fill, fill_outcome) = &world.fill;
    checker.outcome(fill, fill_outcome, &world.engine.snapshot(), &[]);
    let digest = world.engine.snapshot().digest();
    let clusters = world.overlay.hfc().cluster_count();

    // Churn: a control round on the served world first; the snapshot it
    // yields is installed at fixed points of both loops. The round is a
    // warm-up for the timed ones below, which run on a heap the process
    // has already used, as this one cannot.
    let writer = spec.churn.map(|churn| {
        let stamp = world.stamp.as_ref();
        let (_, snapshot) = control_round(
            &world.overlay,
            settings,
            0,
            stamp,
            &mut tracer,
            &mut checker,
        );
        // Flips take down relays and providers, never a border: a dead
        // border reroutes most inter-cluster paths at once, which would
        // make each run's cost hang on which proxies the seed picked.
        // Nor an outage member, which a flip's recovery would bring up.
        let mut spared = world.stream.endpoints();
        spared.extend(world.overlay.hfc().all_border_proxies());
        spared.extend(stamp.map(|s| s.outage.clone()).unwrap_or_default());
        Writer::new(churn, snapshot, spec.proxies, &spared, settings.seed)
    });
    let mut runner = Runner {
        spec,
        settings,
        world,
        writer,
        tracer,
        checker,
        next_id: 0,
        closed: ClosedLoop::default(),
        open: OpenLoop::default(),
        batches_sent: 0,
        setups: Vec::new(),
        rounds: Vec::new(),
    };
    // The open loop's requests and the quality sample are drawn before
    // the closed loop, which then takes what it has time for.
    let stream = &mut runner.world.stream;
    let open_count = (spec.rate * settings.seconds * (1.0 - spec.closed_share)).round() as usize;
    let quality_count = spec.quality;
    if stream.remaining() < open_count + quality_count {
        return Err(Refused::Invalid(format!(
            "the request stream holds {} requests, the open loop and quality sample need {}",
            stream.remaining(),
            open_count + quality_count
        )));
    }
    let open_requests = stream.next(open_count);
    let sample = stream.next(quality_count);

    // The closed and open loops in alternating slices spread over the
    // whole run: a slow stretch of the machine then moves every metric a
    // little instead of one metric a lot.
    // The further set-ups and the timed control rounds run in child
    // processes between slices, spread over the run for the same reason;
    // in children, they leave this process's peak memory to the workload.
    let closed_budget = settings.seconds * spec.closed_share / SLICES as f64;
    let per_slice = open_requests.len().div_ceil(SLICES).max(1);
    let slices = open_requests.len().div_ceil(per_slice);
    let children = children(spec.setups - 1, ROUNDS);
    let mut next_child = 0;
    for (i, slice) in open_requests.chunks(per_slice).enumerate() {
        runner.closed_slice(closed_budget);
        runner.open_slice(slice);
        // Child k runs after slice (k + 1) * slices / (children + 1).
        while next_child < children.len()
            && (next_child + 1) * slices / (children.len() + 1) <= i + 1
        {
            runner.child(children[next_child])?;
            next_child += 1;
        }
    }
    for &kind in &children[next_child..] {
        runner.child(kind)?;
    }
    let invalid = runner.open_loop_invalid();
    if let Some(why) = &invalid {
        eprintln!("warning: open loop invalid: {why}");
    }
    let (path_delay_ms, hops_per_path) = runner.quality(&sample);
    let (probes, telemetry_ratio) = if settings.trace {
        let probes = runner.routing_probes(&sample);
        (probes, runner.telemetry_ratio())
    } else {
        ([0.0; 4], 0.0)
    };
    // The workload's own peak memory: the further set-ups and the timed
    // control rounds ran in processes of their own.
    let peak_rss_mb = peak_rss_mb();
    let (mut setups, rounds) = (runner.setups, runner.rounds);
    setups.insert(0, first_setup);
    let setup = SetupTimes::median(&setups);
    let round = Round::combine(&rounds);
    gate(&runner.checker)?;

    let closed = &runner.closed;
    let open = &runner.open;
    let call_us: Vec<f64> = closed.batches.iter().map(|b| b.1 * 1e6).collect();
    let closed_requests: usize = closed.batches.iter().map(|b| b.0).sum();
    let closed_seconds: f64 = closed.batches.iter().map(|b| b.1).sum();
    let t = &closed.tally;
    let workers = &t.worker_requests;
    let imbalance = ratio(
        workers.iter().copied().max().unwrap_or(0) as f64,
        workers.iter().copied().min().unwrap_or(0) as f64,
    );
    let rejected = (t.rejected_no_ingress + t.rejected_overloaded + t.rejected_unroutable) as f64;
    let requests = t.requests as f64;
    let (install_us, set_health_us) = runner.writer.as_ref().map_or((0.0, 0.0), |w| {
        (median(&w.install_us), median(&w.set_health_us))
    });
    let installs = runner.writer.as_ref().map_or(0, |w| w.install_us.len());
    let stage = |i: usize| setup.stages_ms[i];

    let end_to_end: Vec<Metric> = vec![
        ("setup_s", setup.total_s, "s"),
        (
            "serve_rps",
            chunked_rate(
                &closed.batches,
                spec.churn.map_or(1, |c| c.install_every_batches),
            ),
            "req/s",
        ),
        ("lat_p50_us", open.latency(0.5), "us"),
        ("lat_p99_us", open.latency(0.99), "us"),
        (
            "slo_frac",
            ratio(open.within_limit as f64, open.samples() as f64),
            "ratio",
        ),
        ("served_frac", ratio(t.served as f64, requests), "ratio"),
        ("path_delay_ms", path_delay_ms, "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("control_round_s", round.seconds, "s"),
        (
            "state_msgs_per_proxy",
            round.msgs / CONTROL_PROXIES as f64,
            "msgs",
        ),
        ("converge_sim_ms", round.sim_ms, "ms"),
    ];
    let self_times = runner.tracer.self_times();
    let coverage = runner.tracer.child_coverage("phase.closed_segment");
    let per_layer: Vec<Metric> = vec![
        ("netsim.topology_ms", stage(0), "ms"),
        ("coords.landmarks_ms", stage(1), "ms"),
        ("coords.embedding_ms", stage(2), "ms"),
        ("clustering.mst_zahn_ms", stage(3), "ms"),
        ("overlay.hfc_ms", stage(4), "ms"),
        ("core.attach_ms", stage(5), "ms"),
        ("overlay.hierarchy_ms", setup.hierarchy_ms, "ms"),
        ("engine.cache_fill_s", setup.fill_s, "s"),
        ("routing.router_build_us", probes[0], "us"),
        ("routing.cold_route_us", probes[1], "us"),
        ("routing.csp_solve_us", probes[2], "us"),
        ("routing.frontier_replay_us", probes[3], "us"),
        ("routing.hops_per_path", hops_per_path, "hops"),
        ("engine.serve_call_us", median(&call_us), "us"),
        (
            "engine.per_request_us",
            ratio(closed_seconds * 1e6, closed_requests as f64),
            "us",
        ),
        (
            "engine.exact_hit_frac",
            ratio(t.hits as f64, (t.hits + t.misses) as f64),
            "ratio",
        ),
        (
            "engine.csp_hit_frac",
            ratio(t.csp_hits as f64, (t.csp_hits + t.csp_misses) as f64),
            "ratio",
        ),
        ("engine.worker_imbalance", imbalance, "ratio"),
        ("engine.install_us", install_us, "us"),
        ("engine.set_health_us", set_health_us, "us"),
        ("engine.stale_served", t.stale_served as f64, "count"),
        ("engine.revalidations", t.revalidations as f64, "count"),
        ("engine.negative_hits", t.negative_hits as f64, "count"),
        ("engine.retries", t.retries as f64, "count"),
        ("engine.rejected_frac", ratio(rejected, requests), "ratio"),
        (
            "engine.rejected_frac.no_ingress",
            ratio(t.rejected_no_ingress as f64, requests),
            "ratio",
        ),
        (
            "engine.rejected_frac.overloaded",
            ratio(t.rejected_overloaded as f64, requests),
            "ratio",
        ),
        (
            "engine.rejected_frac.unroutable",
            ratio(t.rejected_unroutable as f64, requests),
            "ratio",
        ),
        ("state.msgs", round.msgs, "msgs"),
        ("state.dropped", round.dropped, "msgs"),
        ("state.tree_repairs", round.repairs, "count"),
        (
            "state.us_per_msg",
            ratio(round.protocol_s * 1e6, round.msgs),
            "us",
        ),
        ("state.health_view_us", round.health_view_us, "us"),
        ("telemetry.on_off_ratio", telemetry_ratio, "ratio"),
        ("bench.gen_lag_p99_us", quantile(&open.lags_us, 0.99), "us"),
        (
            "bench.trace_overhead_frac",
            median(&closed.trace_pairs),
            "ratio",
        ),
        ("bench.span_coverage", coverage, "ratio"),
    ];

    let mix = match spec.mix {
        Mix::Zipf {
            pool,
            s,
            refused_every,
        } => format!("zipf(s={s}) over {pool} client requests, every {refused_every}th refused"),
        Mix::Unique { shapes, s } => format!("non-repeating, {shapes} shapes, zipf(s={s})"),
    };
    let routing = match spec.routing {
        Routing::BiLevel => "bi-level HierProvider".to_string(),
        Routing::MultiLevel { depth } => format!("depth-{depth} Hierarchy, MultiLevelProvider"),
    };
    let mut provenance: Vec<(&'static str, Json)> = vec![
        ("workload", Json::from(spec.name)),
        ("seed", Json::from(settings.seed)),
        ("world_seed", Json::from(WORLD_SEED)),
        ("seconds", Json::from(settings.seconds)),
        ("setups", Json::from(setups.len())),
        (
            "setup_s_each",
            Json::Arr(setups.iter().map(|t| Json::from(t.total_s)).collect()),
        ),
        ("control_rounds", Json::from(rounds.len())),
        (
            "control_round_s_each",
            Json::Arr(rounds.iter().map(|r| Json::from(r.seconds)).collect()),
        ),
        ("smoke", Json::Bool(false)),
        ("trace", Json::Bool(settings.trace)),
        ("proxies", Json::from(spec.proxies)),
        ("clusters", Json::from(clusters)),
        ("workers", Json::from(spec.workers)),
        ("build_threads", Json::from(settings.threads)),
        ("routing", Json::from(routing.as_str())),
        ("mix", Json::from(mix.as_str())),
        ("dispatch_us_per_delay", Json::from(0.0)),
        ("batch", Json::from(spec.batch)),
        ("rate_rps", Json::from(spec.rate)),
        ("latency_limit_us", Json::from(spec.latency_limit_us)),
        (
            "snapshot_digest",
            Json::from(format!("{digest:016x}").as_str()),
        ),
        ("closed_loop_batches", Json::from(closed.batches.len())),
        ("trace_pairs", Json::from(closed.trace_pairs.len())),
        ("closed_loop_requests", Json::from(closed_requests)),
        ("open_loop_samples", Json::from(open.samples())),
        ("open_loop_sends", Json::from(open.sends)),
        (
            "open_loop_window_p99_us",
            Json::Arr(
                open.window_quantiles(0.99)
                    .into_iter()
                    .map(Json::from)
                    .collect(),
            ),
        ),
        (
            "open_loop_backlog",
            Json::Arr(
                open.backlog
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from(a), Json::from(b)]))
                    .collect(),
            ),
        ),
        ("open_loop_valid", Json::Bool(invalid.is_none())),
        (
            "open_loop_invalid_reason",
            invalid.as_deref().map_or(Json::Null, Json::from),
        ),
        (
            "open_loop_failed",
            Json::from(open.tally.requests - open.tally.served),
        ),
        ("control_world_proxies", Json::from(CONTROL_PROXIES)),
        (
            "outage_proxies",
            Json::from(runner.world.stamp.as_ref().map_or(0, |s| s.outage.len())),
        ),
        ("snapshot_installs", Json::from(installs)),
        ("quality_sample", Json::from(sample.len())),
    ];
    if settings.trace {
        provenance.push((
            "self_time_s",
            Json::Obj(
                self_times
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect(),
            ),
        ));
    }
    // Every answer the gate checked; a request that must be refused and
    // was refused is a correct answer, not a failed one.
    let attempted = runner.checker.checked();
    let failed = runner.checker.unexpected_refusals();
    Ok(Measured {
        end_to_end,
        per_layer,
        attempted,
        failed,
        provenance,
        spans: runner.tracer,
    })
}
