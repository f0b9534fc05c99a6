//! The workloads and everything fixed about them.
//!
//! Rates and latency limits are set once, below the saturation point
//! measured at the commit that introduced the benchmark, and are not
//! retuned afterwards: a later change that slows the engine must show
//! as a worse latency or SLO figure, not as a new rate.

/// Which router provider serves the workload.
#[derive(Debug, Clone, Copy)]
pub enum Routing {
    /// The paper's bi-level hierarchical router (`HierProvider`).
    BiLevel,
    /// The recursive router (`MultiLevelProvider`) over a hierarchy of
    /// exactly `depth` levels.
    MultiLevel { depth: usize },
}

/// How requests are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Zipf(`s`) over `pool` distinct client requests: popular keys
    /// repeat, so the exact route cache answers almost everything. Every
    /// `refused_every`-th popularity rank holds a request the engine must
    /// refuse (see `bench::zipf_pool`), so a fixed share of the traffic
    /// is refused whatever the seed draws. The pool belongs to the world
    /// (drawn from the world seed); `--seed` draws the traffic from it.
    Zipf {
        pool: usize,
        s: f64,
        refused_every: usize,
    },
    /// `NonRepeatingWorkload`: `shapes` request shapes skewed by
    /// Zipf(`s`), no exact key ever repeats.
    Unique { shapes: usize, s: f64 },
}

/// Control-plane activity beside the reads (the `churn` workload).
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Install the control round's snapshot every this many
    /// closed-loop batches.
    pub install_every_batches: usize,
    /// Take one more proxy down (bringing the oldest of two back up)
    /// every this many closed-loop batches.
    pub flip_every_batches: usize,
    /// The same, every this many open-loop requests.
    pub flip_every_requests: usize,
    /// Per-proxy admission capacity is drawn uniformly from this range.
    pub capacity: (u32, u32),
    /// Every member of the world's smallest cluster with at least this
    /// many members stays `Down` throughout: a fixed outage, so requests
    /// with an endpoint there are refused (`NoIngress`, `Unroutable`).
    pub outage_min_members: usize,
    /// `EngineConfig::stale_serve_budget`.
    pub stale_budget: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub proxies: usize,
    pub workers: usize,
    pub routing: Routing,
    pub mix: Mix,
    /// Set-ups per run; `setup_s` is their median. The first builds the
    /// world the run serves; the others run after the workload's peak
    /// memory has been read, each dropped at once.
    pub setups: usize,
    /// Requests served into the caches during set-up (Zipf mixes fill
    /// the whole pool instead).
    pub fill: usize,
    /// Share of `--seconds` the closed loop runs; the open loop runs the
    /// rest.
    pub closed_share: f64,
    /// Closed-loop batch size.
    pub batch: usize,
    /// Requests drawn from the stream after the loops' and served and
    /// scored for `path_delay_ms`.
    pub quality: usize,
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// Open-loop latency limit for `slo_frac`, microseconds.
    pub latency_limit_us: f64,
    pub churn: Option<Churn>,
}

/// Size of the world every non-churn workload measures its control
/// rounds on: a state round costs seconds at 500 proxies and minutes at
/// 10k, so the control plane is always measured at the churn world's
/// size.
pub const CONTROL_PROXIES: usize = 500;

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "hot_zipf",
        proxies: 1_000,
        workers: 2,
        routing: Routing::BiLevel,
        mix: Mix::Zipf {
            pool: 512,
            s: 0.9,
            refused_every: 16,
        },
        setups: 3,
        fill: 0,
        closed_share: 0.5,
        batch: 256,
        quality: 512,
        rate: 4_000.0,
        latency_limit_us: 25_000.0,
        churn: None,
    },
    Spec {
        name: "scale_10k",
        proxies: 10_000,
        workers: 1,
        routing: Routing::MultiLevel { depth: 3 },
        mix: Mix::Unique {
            shapes: 1024,
            s: 0.0,
        },
        setups: 3,
        fill: 32,
        closed_share: 0.2,
        batch: 32,
        quality: 256,
        rate: 125.0,
        latency_limit_us: 250_000.0,
        churn: None,
    },
    Spec {
        name: "churn",
        proxies: CONTROL_PROXIES,
        workers: 1,
        routing: Routing::BiLevel,
        mix: Mix::Zipf {
            pool: 512,
            s: 0.9,
            refused_every: 16,
        },
        setups: 5,
        fill: 0,
        closed_share: 0.25,
        batch: 128,
        quality: 512,
        rate: 200.0,
        latency_limit_us: 25_000.0,
        churn: Some(Churn {
            install_every_batches: 16,
            flip_every_batches: 4,
            flip_every_requests: 500,
            capacity: (128, 512),
            outage_min_members: 4,
            stale_budget: 256,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
