//! The correctness gate. Any failed check fails the run: the benchmark
//! then prints the failures and no metric.

use son_core::{
    CoordDelays, EngineSnapshot, Health, ProxyId, ServeOutcome, ServicePath, ServiceRequest,
    ServiceSet,
};

/// Which requests the engine must refuse: those with an endpoint in a
/// fixed outage, and those demanding a service no proxy offers. Every
/// other request is expected to be served.
#[derive(Default)]
pub struct Refusals {
    /// Proxies `Down` in every snapshot the engine serves.
    pub outage: Vec<ProxyId>,
    /// Per service index: whether some proxy offers it.
    pub offered: Vec<bool>,
}

impl Refusals {
    pub fn new(outage: Vec<ProxyId>, services: &[ServiceSet]) -> Self {
        let mut offered = Vec::new();
        for id in services.iter().flat_map(ServiceSet::iter) {
            if offered.len() <= id.index() {
                offered.resize(id.index() + 1, false);
            }
            offered[id.index()] = true;
        }
        Refusals { outage, offered }
    }

    pub fn must_refuse(&self, request: &ServiceRequest) -> bool {
        self.outage.contains(&request.source)
            || self.outage.contains(&request.destination)
            || request
                .graph
                .demanded_services()
                .iter()
                .any(|s| !self.offered.get(s.index()).copied().unwrap_or(false))
    }
}

#[derive(Default)]
pub struct Checker {
    failures: u64,
    first: Vec<String>,
    refusals: Refusals,
    /// Requests whose answers were checked.
    checked: u64,
    /// Requests refused that the engine was expected to serve.
    unexpected_refusals: u64,
}

impl Checker {
    pub fn new(refusals: Refusals) -> Self {
        Checker {
            refusals,
            ..Checker::default()
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failures += 1;
        if self.first.len() < 10 {
            self.first.push(message);
        }
    }

    pub fn failures(&self) -> u64 {
        self.failures
    }

    pub fn report(&self) -> &[String] {
        &self.first
    }

    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Requests refused so far that were expected to be served: the
    /// run's failed operations. A request that must be refused and is
    /// refused is a correct answer, not a failure.
    pub fn unexpected_refusals(&self) -> u64 {
        self.unexpected_refusals
    }

    /// Checks every answer of one serve call: one per request, each
    /// served one a valid path, and every request that must be refused
    /// refused.
    pub fn outcome(
        &mut self,
        requests: &[ServiceRequest],
        outcome: &ServeOutcome,
        snapshot: &EngineSnapshot<CoordDelays>,
        live_down: &[ProxyId],
    ) {
        if outcome.paths.len() != requests.len() || outcome.dispositions.len() != requests.len() {
            self.fail(format!(
                "{} answers for {} requests",
                outcome.paths.len(),
                requests.len()
            ));
            return;
        }
        self.checked += requests.len() as u64;
        let answers = outcome.paths.iter().zip(&outcome.dispositions);
        for (request, (path, disposition)) in requests.iter().zip(answers) {
            let must_refuse = self.refusals.must_refuse(request);
            match path {
                Ok(_) if must_refuse => {
                    self.fail(format!("served {request:?}, which must be refused"));
                }
                Ok(path) => self.path(request, path, snapshot, live_down),
                Err(_) if disposition.is_served() => {
                    self.fail(format!("served disposition with an error for {request:?}"));
                }
                Err(_) if !must_refuse => self.unexpected_refusals += 1,
                Err(_) => {}
            }
        }
    }

    /// Checks one served path: it is a valid configuration of the
    /// request over the snapshot's services, and no hop goes through a
    /// proxy that is `Down` in the snapshot or in live health.
    fn path(
        &mut self,
        request: &ServiceRequest,
        path: &ServicePath,
        snapshot: &EngineSnapshot<CoordDelays>,
        live_down: &[ProxyId],
    ) {
        let services = snapshot.services();
        if let Err(e) = path.validate(request, |p, s| services[p.index()].contains(s)) {
            self.fail(format!("invalid path {path:?} for {request:?}: {e}"));
        }
        let statuses = snapshot.statuses();
        for hop in path.hops() {
            if statuses.health(hop.proxy) == Health::Down || live_down.contains(&hop.proxy) {
                self.fail(format!(
                    "path {path:?} goes through down proxy {:?}",
                    hop.proxy
                ));
            }
        }
    }
}
