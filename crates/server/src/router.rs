//! The scatter-gather router: one front-end address serving the whole graph
//! out of `N` single-shard backend reactors, each optionally backed by
//! replicas for failover.
//!
//! The router owns no labels. It loads the boundary overlay
//! ([`wcsd_core::overlay::OverlayIndex`], the `WCSO` snapshot written by
//! `wcsd-cli partition`) and, per client query, computes the scatter plan
//! (which per-shard distances are needed), fetches them as `BATCH` requests
//! over persistent binary [`Client`] connections to the backends, and merges
//! the answers through the overlay's quality-filtered Dijkstra — exactly the
//! composition [`wcsd_core::overlay::ShardedIndex`] evaluates in-process, so
//! the parity suite pins the two to each other and to the unsharded index.
//!
//! ## Replica groups and the circuit breaker
//!
//! Each shard is served by a *replica group* — one or more backends holding
//! the **same** shard snapshot, so any replica's answers are bit-identical.
//! Every replica carries a three-state circuit breaker:
//!
//! * **closed** — healthy, preferred for traffic;
//! * **open** — the last exchange or probe failed; counted in the
//!   `wcsd_router_degraded_backends` gauge and only tried as a last resort;
//! * **half-open** — a probe succeeded after the breaker opened; eligible
//!   for traffic again, and the next success (probe or exchange) closes it.
//!
//! Transitions: a double exchange failure or a failed probe opens the
//! breaker; a successful probe moves open → half-open → closed; a successful
//! exchange closes it from any state.
//!
//! While a group has more than one **closed** replica, successive exchanges
//! rotate round-robin through the closed prefix (per-shard atomic cursor),
//! spreading load across healthy replicas; half-open and open replicas keep
//! their failover positions. Per-replica traffic is observable as
//! `wcsd_router_replica_requests_total{shard, replica}`.
//!
//! ## The router-side result cache
//!
//! A sharded LRU ([`crate::cache::ResultCache`], the same structure the
//! single-shard server uses) sits in front of scatter-gather: a repeated
//! `(s, t, w)` — standalone or inside a `BATCH` — is answered from router
//! memory with **zero** backend exchanges. The overlay is static and
//! `RELOAD` through the router is refused, so entries never go stale and no
//! epoch tagging is needed. Hits/misses surface in `STATS` and as
//! `wcsd_cache_{hits,misses}_total` in `METRICS`, the same names the
//! backends use.
//!
//! ## The background prober
//!
//! `Router::run` spawns a prober thread that, every
//! [`RouterConfig::probe_interval`], dials each replica on a fresh binary
//! connection and exchanges one `STATS`. A failed probe opens the breaker, a
//! successful one walks it back toward closed — so a backend that dies and
//! comes back is un-degraded within two probe intervals **without any client
//! traffic**, and a dead replica is skipped by clients before they ever pay
//! its connect timeout. Probes are counted in `wcsd_router_probes_total` /
//! `wcsd_router_probe_failures_total`; the deterministic failpoint site
//! `router.probe` (`fail`/`refuse` actions) forces probe failures in tests.
//!
//! ## One front end, backend pools per worker
//!
//! Clients connect to the same `poll(2)` reactor the backends run (see
//! `crate::reactor`), on the same wire protocols: the first byte selects
//! binary (magic `0xBF`) or text. The router is only the reactor's
//! *scatter-gather executor*, so framing, the request-line cap, admission
//! control with busy replies, write-stall reaping, `STATS`, and the phase
//! histograms behind `METRICS` are the reactor's own — error wording and
//! the shared metric families are identical by construction, and a client
//! costs a file descriptor, not a thread.
//!
//! Range errors and router-cache hits are answered on the reactor thread.
//! Any `QUERY`, `WITHIN`, or `BATCH` that needs backend I/O ships to the
//! reactor's bounded worker pool (two workers, the `ServerConfig` default).
//! Each worker owns one lazily-connected `BackendPool` for its lifetime,
//! so backend connections are reused across clients, and request/reply
//! exchanges never interleave on a backend socket. Per shard exchange the
//! worker walks the replica group in breaker order (closed first, open
//! last) and, per replica:
//!
//! 1. connects on demand (binary protocol, read timeout
//!    [`RouterConfig::backend_timeout`]),
//! 2. sends one `BATCH` and waits for the sized reply,
//! 3. on any failure drops the connection and retries **once** on a fresh
//!    one, and
//! 4. on a second failure opens the replica's breaker and fails over to the
//!    next replica; only when every replica of the shard has failed does the
//!    client see an `ERR` reply.
//!
//! The read timeout bounds every step, so a dead or wedged backend degrades
//! to replica failover (or `ERR` replies when the whole group is down) — the
//! router never hangs, and a `BATCH` is answered either completely or with
//! one `ERR` line (no partial replies). While workers wait on backends, the
//! reactor keeps serving cache hits and sheds work beyond the pending-job
//! cap.
//!
//! Admin verbs stay with the backends: `RELOAD` through the router is
//! refused (reload each backend's shard snapshot directly); `SHUTDOWN` stops
//! the router itself, never the backends.

use crate::client::{Client, Protocol};
use crate::failpoint;
use crate::protocol::{self, Reply};
use crate::reactor::{self, check_range, Endpoint, Executor, Front, Query, Start, Work};
use crate::server::{ServerConfig, ServerSnapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wcsd_core::overlay::{OverlayIndex, ScatterPlan};
use wcsd_core::FlatIndex;
use wcsd_graph::Distance;
use wcsd_obs::{Counter, Gauge, Histogram, Registry};

/// Circuit breaker: replica healthy (or not yet observed unhealthy).
const BREAKER_CLOSED: u8 = 0;
/// Circuit breaker: last exchange or probe failed; last-resort traffic only.
const BREAKER_OPEN: u8 = 1;
/// Circuit breaker: one probe succeeded since the breaker opened; the next
/// success closes it.
const BREAKER_HALF_OPEN: u8 = 2;

/// Configuration for [`Router::bind`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Port to listen on (loopback only); 0 picks an ephemeral port.
    pub port: u16,
    /// Read timeout for one backend exchange. A backend that does not
    /// produce its reply within this window counts as failed (then retried
    /// once on a fresh connection).
    pub backend_timeout: Duration,
    /// How often the background prober exchanges a `STATS` with every
    /// replica. Zero disables probing (breakers then move only on client
    /// traffic).
    pub probe_interval: Duration,
    /// Whether histogram/tracer recording is on (counters always are).
    pub metrics_enabled: bool,
    /// Registry to record into; `None` creates a private one.
    pub registry: Option<Arc<Registry>>,
    /// Total capacity of the router-side result cache (0 disables it). The
    /// cache sits *in front of* scatter-gather: a hit answers a `(s, t, w)`
    /// from the router's memory without touching any backend. Because the
    /// overlay is static and `RELOAD` through the router is refused, entries
    /// never go stale — no epoch tagging is needed (the backends' own caches
    /// stay epoch-tagged).
    pub cache_capacity: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            port: 0,
            backend_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_secs(1),
            metrics_enabled: true,
            registry: None,
            cache_capacity: 64 * 1024,
        }
    }
}

/// Cache-key epoch for the router's result cache. The overlay is static for
/// the router's lifetime (`RELOAD` is refused), so one constant epoch is
/// correct; see [`RouterConfig::cache_capacity`].
const ROUTER_EPOCH: u64 = 1;

/// `RELOAD` through the router is refused with this reply.
const RELOAD_REFUSED: &str = "router serves a static overlay; RELOAD each backend directly";

/// Router-only metric handles, resolved once at bind time. The request-level
/// families (`wcsd_requests_total`, `wcsd_request_phase_us`, …) are the
/// reactor's own, so loadgen's server-side deltas read a router exactly like
/// a backend.
struct RouterMetrics {
    /// Backend `BATCH` exchanges sent (including the retry of a failed one).
    fanout: Arc<Counter>,
    /// Individual per-shard queries fanned out inside those exchanges.
    fanout_queries: Arc<Counter>,
    /// Retries after a first backend failure.
    retries: Arc<Counter>,
    /// Exchanges that failed over to another replica of the same shard.
    failovers: Arc<Counter>,
    /// Health probes sent by the background prober.
    probes: Arc<Counter>,
    /// Health probes that failed (connect, exchange, or injected).
    probe_failures: Arc<Counter>,
    /// Per-replica exchange attempts, labeled `shard` and `replica=<addr>` —
    /// the observable behind the round-robin balance test.
    replica_requests: Vec<Vec<Arc<Counter>>>,
    /// Per-shard exchange latency, labeled `backend="<shard>"`.
    backend_us: Vec<Arc<Histogram>>,
    /// Per-shard failed exchanges (after which a retry, failover, or ERR
    /// follows).
    backend_errors: Vec<Arc<Counter>>,
    /// Replicas whose circuit breaker is currently open.
    degraded: Arc<Gauge>,
}

impl RouterMetrics {
    fn new(registry: &Registry, backends: &[Vec<String>]) -> Self {
        let replica_requests = backends
            .iter()
            .enumerate()
            .map(|(shard, group)| {
                let shard_label = shard.to_string();
                group
                    .iter()
                    .map(|addr| {
                        registry.counter_with(
                            "wcsd_router_replica_requests_total",
                            &[("shard", shard_label.as_str()), ("replica", addr.as_str())],
                            "Backend BATCH exchange attempts, by replica",
                        )
                    })
                    .collect()
            })
            .collect();
        let backend_us = (0..backends.len())
            .map(|b| {
                registry.histogram_with(
                    "wcsd_router_backend_us",
                    &[("backend", b.to_string().as_str())],
                    "Backend BATCH exchange latency in microseconds",
                )
            })
            .collect();
        let backend_errors = (0..backends.len())
            .map(|b| {
                registry.counter_with(
                    "wcsd_router_backend_errors_total",
                    &[("backend", b.to_string().as_str())],
                    "Failed backend exchanges",
                )
            })
            .collect();
        Self {
            fanout: registry.counter("wcsd_router_fanout_total", "Backend BATCH exchanges sent"),
            fanout_queries: registry.counter(
                "wcsd_router_fanout_queries_total",
                "Per-shard queries fanned out to backends",
            ),
            retries: registry
                .counter("wcsd_router_retries_total", "Backend exchanges retried after a failure"),
            failovers: registry.counter(
                "wcsd_router_failovers_total",
                "Shard exchanges answered by a later replica after an earlier one failed",
            ),
            probes: registry.counter("wcsd_router_probes_total", "Health probes sent to replicas"),
            probe_failures: registry
                .counter("wcsd_router_probe_failures_total", "Health probes that failed"),
            replica_requests,
            backend_us,
            backend_errors,
            degraded: registry.gauge(
                "wcsd_router_degraded_backends",
                "Replicas whose circuit breaker is open (last exchange or probe failed)",
            ),
        }
    }
}

/// One backend replica: its address and its circuit-breaker state
/// (`BREAKER_*`), shared by every pool worker and the prober.
struct Replica {
    addr: String,
    breaker: AtomicU8,
}

/// The reactor's scatter-gather executor: the overlay, the replica groups
/// with their breakers, and the router-side result cache (the front end's
/// cache, keyed `(ROUTER_EPOCH, s, t, w)`).
struct ScatterGather {
    front: Front,
    overlay: OverlayIndex,
    /// `shards[i]` is shard `i`'s replica group; every replica serves the
    /// same shard snapshot, so answers are interchangeable bit-for-bit.
    shards: Vec<Vec<Replica>>,
    /// Per-shard round-robin cursor: successive exchanges rotate through the
    /// shard's *closed-breaker* replicas so load spreads across a healthy
    /// group instead of pinning replica 0.
    rr: Vec<AtomicU64>,
    backend_timeout: Duration,
    probe_interval: Duration,
    metrics: RouterMetrics,
}

/// A router job: a request that needs backend I/O.
enum Fetch {
    /// A point query whose answer missed the cache; `Some(d)` for
    /// `WITHIN … d`.
    Point(Query, Option<Distance>),
    /// A whole client `BATCH`.
    Batch(Vec<Query>),
}

/// The reply to a point request whose distance is `found`.
fn point_reply(found: Option<Distance>, within: Option<Distance>) -> Reply {
    match within {
        Some(d) => Reply::Bool(found.is_some_and(|x| x <= d)),
        None => Reply::Dist(found),
    }
}

impl Executor for ScatterGather {
    type Job = Fetch;
    /// Each pool worker's own backend connections.
    type Worker = BackendPool;

    fn front(&self) -> &Front {
        &self.front
    }

    fn stats(&self) -> ServerSnapshot {
        self.front.snapshot(self.overlay.num_vertices(), self.overlay.num_edges(), 1)
    }

    fn worker(&self) -> BackendPool {
        BackendPool::new(&self.shards)
    }

    fn start(&self, work: Work) -> Start<Fetch> {
        let ((s, t, w), within) = match work {
            Work::Query(q) => (q, None),
            Work::Within(q, d) => (q, Some(d)),
            Work::Batch(queries) => return Start::Ship(Fetch::Batch(queries)),
            Work::Reload(_) => return Start::Inline(Reply::Err(RELOAD_REFUSED.to_string())),
        };
        if let Err(reason) = check_range(self.overlay.num_vertices(), s, t) {
            return Start::Inline(Reply::Err(reason));
        }
        match self.front.cache.get(&(ROUTER_EPOCH, s, t, w)) {
            Some(found) => Start::Inline(point_reply(found, within)),
            None => Start::Ship(Fetch::Point((s, t, w), within)),
        }
    }

    fn run(&self, pool: &mut BackendPool, job: Fetch) -> Reply {
        let reply = match job {
            Fetch::Point((s, t, w), within) => self.scatter(pool, &[(s, t, w)]).map(|found| {
                self.front.cache.insert((ROUTER_EPOCH, s, t, w), found[0]);
                point_reply(found[0], within)
            }),
            Fetch::Batch(queries) => self
                .front
                .cached_batch(self.overlay.num_vertices(), ROUTER_EPOCH, &queries, |misses| {
                    self.scatter(pool, misses)
                })
                .map(Reply::Batch),
        };
        reply.unwrap_or_else(Reply::Err)
    }
}

impl ScatterGather {
    /// Moves one replica's breaker, keeping the degraded gauge equal to the
    /// number of open breakers. `swap` makes each transition account exactly
    /// its own old state, so concurrent movers never double-count.
    fn set_breaker(&self, shard: usize, replica: usize, state: u8) {
        let old = self.shards[shard][replica].breaker.swap(state, Ordering::SeqCst);
        if (old == BREAKER_OPEN) != (state == BREAKER_OPEN) {
            if state == BREAKER_OPEN {
                self.metrics.degraded.inc();
            } else {
                self.metrics.degraded.dec();
            }
        }
    }

    /// Applies one probe result: failure opens the breaker; success walks it
    /// open → half-open → closed (closed stays closed).
    fn probe_outcome(&self, shard: usize, replica: usize, ok: bool) {
        if !ok {
            self.set_breaker(shard, replica, BREAKER_OPEN);
            return;
        }
        match self.shards[shard][replica].breaker.load(Ordering::SeqCst) {
            BREAKER_OPEN => self.set_breaker(shard, replica, BREAKER_HALF_OPEN),
            BREAKER_HALF_OPEN => self.set_breaker(shard, replica, BREAKER_CLOSED),
            _ => {}
        }
    }

    /// Replica indices of `shard` in preference order: closed breakers
    /// first, then half-open, then open as a last resort (stable within each
    /// class). When more than one breaker is closed, successive calls rotate
    /// the closed prefix round-robin, so a healthy replica group shares the
    /// load instead of funnelling everything to replica 0 — failover
    /// semantics are unchanged because rotation never promotes a replica
    /// across class boundaries.
    fn replica_order(&self, shard: usize) -> Vec<usize> {
        let group = &self.shards[shard];
        let class = |r: usize| match group[r].breaker.load(Ordering::SeqCst) {
            BREAKER_CLOSED => 0u8,
            BREAKER_HALF_OPEN => 1,
            _ => 2,
        };
        let mut order: Vec<usize> = (0..group.len()).collect();
        order.sort_by_key(|&r| class(r));
        let closed = order.iter().take_while(|&&r| class(r) == BREAKER_CLOSED).count();
        if closed > 1 {
            let turn = self.rr[shard].fetch_add(1, Ordering::Relaxed) as usize;
            order[..closed].rotate_left(turn % closed);
        }
        order
    }

    /// Scatter-gathers (range-checked) queries: all per-query plans are
    /// concatenated into one backend `BATCH` per involved shard, fetched,
    /// sliced back in order, and merged. Any backend failure fails the whole
    /// call — one `ERR` line for the client, never a torn reply.
    fn scatter(
        &self,
        pool: &mut BackendPool,
        queries: &[Query],
    ) -> Result<Vec<Option<Distance>>, String> {
        let plans: Vec<ScatterPlan> =
            queries.iter().map(|&(s, t, w)| self.overlay.plan(s, t, w)).collect();
        let num_shards = self.overlay.num_shards();
        let mut per_shard: Vec<Vec<Query>> = vec![Vec::new(); num_shards];
        for plan in &plans {
            for &(shard, ref qs) in &plan.shards {
                per_shard[shard as usize].extend_from_slice(qs);
            }
        }
        let mut fetched: Vec<Vec<Option<Distance>>> = Vec::with_capacity(num_shards);
        for (shard, qs) in per_shard.iter().enumerate() {
            fetched.push(if qs.is_empty() { Vec::new() } else { pool.batch(self, shard, qs)? });
        }
        let mut cursors = vec![0usize; num_shards];
        let mut out = Vec::with_capacity(queries.len());
        for plan in &plans {
            let answers: Vec<Vec<Option<Distance>>> = plan
                .shards
                .iter()
                .map(|&(shard, ref qs)| {
                    let at = cursors[shard as usize];
                    cursors[shard as usize] = at + qs.len();
                    fetched[shard as usize][at..at + qs.len()].to_vec()
                })
                .collect();
            out.push(self.overlay.merge(plan, &answers)?);
        }
        Ok(out)
    }
}

/// The scatter-gather front end. [`Router::bind`] validates the
/// overlay/backend pairing and claims the port; [`Router::run`] serves until
/// a client sends `SHUTDOWN`.
pub struct Router {
    endpoint: Endpoint,
    exec: ScatterGather,
}

impl Router {
    /// Binds the router on loopback. `backends[i]` is shard `i`'s replica
    /// group — one or more addresses of reactors all serving shard `i`'s
    /// snapshot; the group count has to match the overlay's shard count and
    /// no group may be empty. The backends are dialed lazily by the pool
    /// workers, so they may come up after the router does.
    pub fn bind(
        overlay: OverlayIndex,
        backends: Vec<Vec<String>>,
        config: RouterConfig,
    ) -> std::io::Result<Self> {
        if backends.len() != overlay.num_shards() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "{} backend replica groups for an overlay of {} shards",
                    backends.len(),
                    overlay.num_shards()
                ),
            ));
        }
        if let Some(shard) = backends.iter().position(Vec::is_empty) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("shard {shard} has an empty replica group"),
            ));
        }
        let endpoint = Endpoint::bind(config.port)?;
        // The server's defaults size the worker pool and the admission cap;
        // the cache and the metrics follow the router's own settings.
        let front = Front::new(
            &ServerConfig {
                cache_capacity: config.cache_capacity,
                metrics_enabled: config.metrics_enabled,
                registry: config.registry,
                ..ServerConfig::default()
            },
            overlay.num_vertices(),
            overlay.num_edges(),
        );
        let metrics = RouterMetrics::new(&front.metrics.registry, &backends);
        let rr = backends.iter().map(|_| AtomicU64::new(0)).collect();
        let shards: Vec<Vec<Replica>> = backends
            .into_iter()
            .map(|group| {
                group
                    .into_iter()
                    .map(|addr| Replica { addr, breaker: AtomicU8::new(BREAKER_CLOSED) })
                    .collect()
            })
            .collect();
        let exec = ScatterGather {
            front,
            overlay,
            shards,
            rr,
            backend_timeout: config.backend_timeout,
            probe_interval: config.probe_interval,
            metrics,
        };
        Ok(Self { endpoint, exec })
    }

    /// The address the router is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr
    }

    /// Serves until a client sends `SHUTDOWN` — the prober on its own
    /// thread, the reactor on the calling one — then joins both and returns
    /// the final counters.
    pub fn run(self) -> ServerSnapshot {
        let Router { endpoint, exec } = self;
        std::thread::scope(|scope| {
            scope.spawn(|| run_prober(&exec));
            reactor::serve(&exec, endpoint);
        });
        exec.stats()
    }
}

/// The background prober loop: every probe interval, one `STATS` exchange
/// per replica on a fresh connection, driving the breakers (see module
/// docs). Exits promptly on shutdown — the interval sleep is sliced.
fn run_prober(sg: &ScatterGather) {
    if sg.probe_interval.is_zero() {
        return;
    }
    let shutdown = || sg.front.shutdown.load(Ordering::SeqCst);
    while !shutdown() {
        for (shard, group) in sg.shards.iter().enumerate() {
            for (replica, r) in group.iter().enumerate() {
                if shutdown() {
                    return;
                }
                sg.metrics.probes.inc();
                let ok = probe_replica(sg, &r.addr);
                if !ok {
                    sg.metrics.probe_failures.inc();
                }
                sg.probe_outcome(shard, replica, ok);
            }
        }
        let deadline = Instant::now() + sg.probe_interval;
        loop {
            if shutdown() {
                return;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            std::thread::sleep((deadline - now).min(Duration::from_millis(50)));
        }
    }
}

/// One health probe: bounded connect, then one `STATS` exchange. The
/// `router.probe` failpoint (fail/refuse) forces a failure for tests.
fn probe_replica(sg: &ScatterGather, addr: &str) -> bool {
    if matches!(
        failpoint::fire("router.probe"),
        Some(failpoint::Action::Fail | failpoint::Action::Refuse)
    ) {
        return false;
    }
    let Ok(mut client) = Client::connect_timeout_with(addr, sg.backend_timeout, Protocol::Binary)
    else {
        return false;
    };
    if client.set_read_timeout(Some(sg.backend_timeout)).is_err() {
        return false;
    }
    client.stats().is_ok()
}

/// One lazily-dialed set of backend connections, private to one pool worker
/// (exchanges on a backend socket never interleave). Indexed
/// `[shard][replica]`.
struct BackendPool {
    conns: Vec<Vec<Option<Client>>>,
}

impl BackendPool {
    fn new(shards: &[Vec<Replica>]) -> Self {
        Self { conns: shards.iter().map(|group| group.iter().map(|_| None).collect()).collect() }
    }

    fn connect(
        &mut self,
        sg: &ScatterGather,
        shard: usize,
        replica: usize,
    ) -> Result<&mut Client, String> {
        let addr = sg.shards[shard][replica].addr.as_str();
        if self.conns[shard][replica].is_none() {
            let mut client = Client::connect_with(addr, Protocol::Binary)
                .map_err(|e| format!("connect to {addr}: {e}"))?;
            client
                .set_read_timeout(Some(sg.backend_timeout))
                .map_err(|e| format!("configure {addr}: {e}"))?;
            self.conns[shard][replica] = Some(client);
        }
        Ok(self.conns[shard][replica].as_mut().expect("just connected"))
    }

    /// One `BATCH` exchange with `shard`, walking the replica group in
    /// breaker order: each replica gets one retry on a fresh connection, a
    /// double failure opens its breaker and fails over to the next replica.
    /// Only when every replica has failed does the client see an error.
    fn batch(
        &mut self,
        sg: &ScatterGather,
        shard: usize,
        queries: &[Query],
    ) -> Result<Vec<Option<Distance>>, String> {
        let order = sg.replica_order(shard);
        let mut last_err = String::new();
        for (nth, &replica) in order.iter().enumerate() {
            match self.batch_replica(sg, shard, replica, queries) {
                Ok(answers) => {
                    if nth > 0 {
                        sg.metrics.failovers.inc();
                    }
                    return Ok(answers);
                }
                Err(e) => last_err = e,
            }
        }
        let addrs: Vec<&str> = sg.shards[shard].iter().map(|r| r.addr.as_str()).collect();
        Err(format!("backend {shard} ({}) unavailable: {last_err}", addrs.join(", ")))
    }

    /// All chunks of one shard exchange against a single replica, with the
    /// retry-once-on-a-fresh-connection policy. Success closes the replica's
    /// breaker; a double failure opens it.
    fn batch_replica(
        &mut self,
        sg: &ScatterGather,
        shard: usize,
        replica: usize,
        queries: &[Query],
    ) -> Result<Vec<Option<Distance>>, String> {
        let mut answers = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(protocol::MAX_BATCH) {
            match self.try_batch(sg, shard, replica, chunk) {
                Ok(chunk_answers) => answers.extend(chunk_answers),
                Err(first) => {
                    sg.metrics.backend_errors[shard].inc();
                    sg.metrics.retries.inc();
                    match self.try_batch(sg, shard, replica, chunk) {
                        Ok(chunk_answers) => answers.extend(chunk_answers),
                        Err(second) => {
                            sg.metrics.backend_errors[shard].inc();
                            sg.set_breaker(shard, replica, BREAKER_OPEN);
                            return Err(format!("{second} (first attempt: {first})"));
                        }
                    }
                }
            }
        }
        sg.set_breaker(shard, replica, BREAKER_CLOSED);
        Ok(answers)
    }

    /// One attempt: connect if needed, exchange, and on failure drop the
    /// (possibly mid-reply) connection so the retry starts clean.
    fn try_batch(
        &mut self,
        sg: &ScatterGather,
        shard: usize,
        replica: usize,
        chunk: &[Query],
    ) -> Result<Vec<Option<Distance>>, String> {
        let t0 = Instant::now();
        sg.metrics.fanout.inc();
        sg.metrics.fanout_queries.add(chunk.len() as u64);
        sg.metrics.replica_requests[shard][replica].inc();
        let result = self.connect(sg, shard, replica).and_then(|client| client.batch(chunk));
        match result {
            Ok(answers) => {
                if sg.front.metrics.enabled {
                    sg.metrics.backend_us[shard].record_duration(t0.elapsed());
                }
                Ok(answers)
            }
            Err(e) => {
                self.conns[shard][replica] = None;
                Err(e)
            }
        }
    }
}

/// Convenience for tests and the CLI: loads per-shard `WCIF` snapshots and
/// validates them against the overlay (shard count and the global-id vertex
/// range), returning what `wcsd-cli route` prints on mismatch.
pub fn validate_backend_snapshot(
    overlay: &OverlayIndex,
    shard: usize,
    index: &FlatIndex,
) -> Result<(), String> {
    if shard >= overlay.num_shards() {
        return Err(format!("shard {shard} out of range for {} shards", overlay.num_shards()));
    }
    if index.num_vertices() != overlay.num_vertices() {
        return Err(format!(
            "shard {shard} snapshot covers {} vertices, overlay covers {} \
             (shard snapshots keep global ids)",
            index.num_vertices(),
            overlay.num_vertices()
        ));
    }
    Ok(())
}
