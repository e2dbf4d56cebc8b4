//! The event-loop reactor: the one connection front end behind both the
//! query server and the scatter-gather router. Readiness-driven connection
//! multiplexing on one thread, so concurrent connections scale past thread
//! count and an idle front end sleeps in `poll(2)` instead of busy-polling
//! `accept`.
//!
//! ## Structure
//!
//! One reactor thread owns every connection. Each loop iteration polls the
//! listener, the worker wake pipe, and every live connection for readiness,
//! then services whatever is ready:
//!
//! * **read** — drain the socket into the connection's input buffer;
//! * **parse** — split the buffer into requests (newline-framed text or
//!   length-prefixed binary, negotiated by the first byte — see
//!   [`crate::binary`]);
//! * **execute** — `STATS`, `METRICS`, and `SHUTDOWN` are answered by the
//!   reactor itself; the data verbs (`QUERY`, `WITHIN`, `BATCH`, `RELOAD`)
//!   go to the [`Executor`], which either answers on the spot or hands back
//!   a job for the bounded worker pool, so a large or blocking job never
//!   stalls the loop;
//! * **write** — replies accumulate in an output buffer flushed as the
//!   socket accepts them, with a stall deadline instead of a blocking write
//!   timeout.
//!
//! A connection with a job in flight pauses parsing (replies stay in request
//! order); its completion comes back over a channel and the worker wakes the
//! reactor out of `poll` by writing one byte to a loopback socket pair (the
//! self-pipe trick, kept std-only).
//!
//! ## Executors
//!
//! *What* a front end serves is an [`Executor`]. Everything else lives here
//! once, in [`Front`] and the reactor: framing and the [`MAX_LINE`] cap,
//! `max_pending_jobs` admission with busy replies, write-stall reaping, the
//! counters behind `STATS`, and the phase histograms behind `METRICS`. There
//! are two executors:
//!
//! * **local** (`crate::server`) — the swappable `(epoch, Arc<FlatIndex>)`
//!   slot. Point lookups and `WITHIN` run inline (microsecond index probes);
//!   `BATCH` ships with the snapshot pinned at submission, and `RELOAD`
//!   ships its decode and swap.
//! * **scatter-gather** (`crate::router`) — the boundary overlay in front of
//!   replica groups of backends. Range errors and router-cache hits are
//!   answered inline; anything that needs backend I/O ships to the pool,
//!   where each worker owns one set of backend connections for its lifetime.
//!
//! ## The `poll(2)` wrapper
//!
//! [`sys`] is the one place the workspace touches FFI: a `#[repr(C)]`
//! `pollfd` with a direct `extern "C"` declaration of `poll(2)`, plus the
//! socket calls behind [`Endpoint::bind`] (`SO_REUSEADDR` must be set before
//! `bind`, which std's `TcpListener` cannot express — and without it a
//! restarted backend cannot re-acquire its port for a TIME_WAIT minute).
//! No new dependencies. Everything above it is safe Rust; non-Unix builds
//! fall back to a short-sleep readiness stub that keeps the same
//! level-triggered semantics against nonblocking sockets, and non-Linux
//! builds to a plain bind.

use crate::binary::{self, BinRequest};
use crate::cache::ResultCache;
use crate::failpoint;
use crate::metrics::{
    ServerMetrics, PHASE_PARSE, PHASE_WRITE, PROTO_BINARY, PROTO_TEXT, VERB_BATCH, VERB_METRICS,
    VERB_QUERY, VERB_RELOAD, VERB_SHUTDOWN, VERB_STATS, VERB_WITHIN,
};
use crate::protocol::{self, Reply, Request};
use crate::server::{ServerConfig, ServerSnapshot};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wcsd_graph::{Distance, Quality, VertexId};
use wcsd_obs::Registry;

/// One `(s, t, w)` point query.
pub(crate) type Query = (VertexId, VertexId, Quality);

/// Upper bound on how long one connection's pending output may sit without
/// the socket accepting a single byte. A client that stops reading its
/// replies (so the kernel send buffer fills) gets its connection dropped
/// after this long instead of pinning memory forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest text request line accepted. Every legal request fits in a few
/// dozen bytes; this bounds the memory a client streaming newline-free bytes
/// can pin (the line-size analogue of [`protocol::MAX_BATCH`]).
const MAX_LINE: usize = 64 * 1024;

/// Upper bound on one poll sleep. Nothing correctness-critical hangs off
/// this tick — completions arrive via the wake pipe — it only bounds how
/// late a write-stall deadline is noticed.
const POLL_TICK: Duration = Duration::from_millis(500);

/// Pending-output level above which a connection stops being read: a client
/// that pipelines requests without draining replies gets backpressure
/// instead of an unbounded server-side buffer.
const MAX_OUTBUF: usize = 256 * 1024;

/// Most bytes read from one connection per loop iteration, so one
/// fire-hosing client cannot starve the rest of the event loop.
const READ_BUDGET: usize = 1024 * 1024;

/// How long shutdown waits for in-flight worker jobs to complete so their
/// connections get the replies they were promised.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(5);

/// Minimal readiness interface over `poll(2)`.
mod sys {
    #[cfg(unix)]
    pub use real::*;
    #[cfg(not(unix))]
    pub use stub::*;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    #[cfg(unix)]
    mod real {
        // The workspace is otherwise `forbid(unsafe_code)`; this module is
        // the single, audited exception (see crate docs): one `#[repr(C)]`
        // struct matching `struct pollfd` and one foreign call.
        #![allow(unsafe_code)]

        use std::io;
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_ulong};
        use std::time::Duration;

        /// `struct pollfd` from `poll.h`.
        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            fd: c_int,
            events: i16,
            /// Readiness reported by the kernel for this entry.
            pub revents: i16,
        }

        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }

        /// Builds one poll entry for a socket.
        pub fn entry<S: AsRawFd>(socket: &S, events: i16) -> PollFd {
            PollFd { fd: socket.as_raw_fd(), events, revents: 0 }
        }

        /// Blocks until some entry is ready or `timeout` elapses, retrying
        /// on `EINTR`. Readiness lands in each entry's `revents`.
        pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
            let millis = timeout.as_millis().min(i32::MAX as u128) as c_int;
            loop {
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, millis) };
                if rc >= 0 {
                    return Ok(rc as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    #[cfg(target_os = "linux")]
    mod reuse {
        // The second audited FFI exception, next to `real` (see crate docs):
        // the socket calls needed to set `SO_REUSEADDR` before `bind`, which
        // std's `TcpListener` cannot do. Without it a restarted server loses
        // its port to TIME_WAIT remnants of its previous life for a minute.
        #![allow(unsafe_code)]

        use std::io;
        use std::net::TcpListener;
        use std::os::fd::FromRawFd;
        use std::os::raw::{c_int, c_uint};

        /// `struct sockaddr_in` from `netinet/in.h` (Linux layout).
        #[repr(C)]
        struct SockAddrIn {
            sin_family: u16,
            /// Network byte order.
            sin_port: u16,
            /// Network byte order.
            sin_addr: u32,
            sin_zero: [u8; 8],
        }

        extern "C" {
            fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_int,
                len: c_uint,
            ) -> c_int;
            fn bind(fd: c_int, addr: *const SockAddrIn, len: c_uint) -> c_int;
            fn listen(fd: c_int, backlog: c_int) -> c_int;
            fn close(fd: c_int) -> c_int;
        }

        const AF_INET: c_int = 2;
        const SOCK_STREAM: c_int = 1;
        /// `SOCK_CLOEXEC`: the listener must not leak into spawned children.
        const SOCK_CLOEXEC: c_int = 0o2000000;
        const SOL_SOCKET: c_int = 1;
        const SO_REUSEADDR: c_int = 2;

        /// Binds `127.0.0.1:port` for listening with `SO_REUSEADDR` set.
        pub fn listen_reuseaddr(port: u16) -> io::Result<TcpListener> {
            // SAFETY: plain foreign calls on an fd this function owns; the
            // fd is closed on every error path and otherwise handed to
            // `TcpListener`, which owns it from then on.
            unsafe {
                let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
                if fd < 0 {
                    return Err(io::Error::last_os_error());
                }
                let one: c_int = 1;
                let addr = SockAddrIn {
                    sin_family: AF_INET as u16,
                    sin_port: port.to_be(),
                    sin_addr: u32::from(std::net::Ipv4Addr::LOCALHOST).to_be(),
                    sin_zero: [0; 8],
                };
                if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0
                    || bind(fd, &addr, std::mem::size_of::<SockAddrIn>() as c_uint) < 0
                    || listen(fd, 128) < 0
                {
                    let err = io::Error::last_os_error();
                    close(fd);
                    return Err(err);
                }
                Ok(TcpListener::from_raw_fd(fd))
            }
        }
    }

    #[cfg(not(target_os = "linux"))]
    mod reuse {
        /// Non-Linux fallback: a plain bind (socket-option constants and
        /// `sockaddr` layouts differ across the BSDs; restart-in-place is a
        /// Linux/CI concern here).
        pub fn listen_reuseaddr(port: u16) -> std::io::Result<std::net::TcpListener> {
            std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, port))
        }
    }

    pub use reuse::listen_reuseaddr;

    #[cfg(not(unix))]
    mod stub {
        use std::io;
        use std::time::Duration;

        /// Degraded stand-in: every entry reports its requested interest
        /// after a short sleep. Correct (level-triggered attempts against
        /// nonblocking sockets just return `WouldBlock`) but not idle-cheap.
        #[derive(Clone, Copy)]
        pub struct PollFd {
            events: i16,
            /// Readiness reported for this entry.
            pub revents: i16,
        }

        /// Builds one poll entry for a socket.
        pub fn entry<S>(_socket: &S, events: i16) -> PollFd {
            PollFd { events, revents: 0 }
        }

        /// Sleeps briefly and marks every entry ready for its interest set.
        pub fn poll_fds(fds: &mut [PollFd], _timeout: Duration) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(2));
            for fd in fds.iter_mut() {
                fd.revents = fd.events;
            }
            Ok(fds.len())
        }
    }
}

/// Front-end state every executor embeds: what serving needs regardless of
/// *what* is served. The reactor, the worker pool, and the executor all
/// borrow it.
pub(crate) struct Front {
    /// All counters, gauges, and histograms. `STATS` reads the same atomics
    /// `METRICS` renders, so the two views cannot disagree on totals.
    pub(crate) metrics: ServerMetrics,
    /// The result cache; the executor decides what its epochs mean.
    pub(crate) cache: ResultCache,
    /// Threads in the worker pool.
    batch_workers: usize,
    /// Admission cap on offloaded jobs queued or executing.
    max_pending_jobs: usize,
    started: Instant,
    /// Set by `SHUTDOWN`; the reactor (and the router's prober) exit on it.
    pub(crate) shutdown: AtomicBool,
}

impl Front {
    /// Builds the front end `config` describes, serving an index of
    /// `vertices` vertices and `entries` entries at generation 1.
    pub(crate) fn new(config: &ServerConfig, vertices: usize, entries: usize) -> Self {
        let registry = config.registry.clone().unwrap_or_else(|| Arc::new(Registry::new()));
        let batch_workers = config.batch_workers.max(1);
        let max_pending_jobs = config.max_pending_jobs.max(1);
        let cache = ResultCache::new(config.cache_capacity, config.cache_shards);
        let metrics = ServerMetrics::new(
            registry,
            config.metrics_enabled,
            config.slow_query_ms,
            batch_workers,
            config.cache_capacity,
            max_pending_jobs,
        );
        // The registry renders the cache's own live counters — one set of
        // atomics behind both STATS and METRICS.
        metrics.registry.register_counter(
            "wcsd_cache_hits_total",
            &[],
            "Result-cache hits",
            cache.hit_counter(),
        );
        metrics.registry.register_counter(
            "wcsd_cache_misses_total",
            &[],
            "Result-cache misses",
            cache.miss_counter(),
        );
        metrics.generation.set(1);
        metrics.index_vertices.set(vertices as i64);
        metrics.index_entries.set(entries as i64);
        Self {
            metrics,
            cache,
            batch_workers,
            max_pending_jobs,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Point-in-time counter snapshot for an index of `vertices` vertices
    /// and `entries` entries at `generation`. One read per atomic; the
    /// derived hit rate is computed from this snapshot's own hit/miss
    /// values, never from a second load.
    pub(crate) fn snapshot(
        &self,
        vertices: usize,
        entries: usize,
        generation: u64,
    ) -> ServerSnapshot {
        let m = &self.metrics;
        ServerSnapshot {
            vertices,
            entries,
            generation,
            uptime_ms: self.started.elapsed().as_millis() as u64,
            connections: m.connections.get(),
            live_connections: m.live_connections.get().max(0) as u64,
            text_connections: m.proto_connections[PROTO_TEXT].get(),
            binary_connections: m.proto_connections[PROTO_BINARY].get(),
            reloads: m.reloads.get(),
            queries: m.queries.get(),
            batches: m.batches.get(),
            batch_queries: m.batch_queries.get(),
            shed: m.shed[PROTO_TEXT].get() + m.shed[PROTO_BINARY].get(),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
        }
    }

    /// Answers one `BATCH` through the cache under `epoch`: every line is
    /// range-checked against an index of `n` vertices first, hits come from
    /// memory, and the misses go through one `compute` call whose answers
    /// are cached.
    pub(crate) fn cached_batch(
        &self,
        n: usize,
        epoch: u64,
        queries: &[Query],
        compute: impl FnOnce(&[Query]) -> Result<Vec<Option<Distance>>, String>,
    ) -> Result<Vec<Option<Distance>>, String> {
        for (i, &(s, t, _)) in queries.iter().enumerate() {
            check_range(n, s, t).map_err(|reason| format!("batch line {}: {reason}", i + 1))?;
        }
        let mut answers = Vec::with_capacity(queries.len());
        let (mut misses, mut miss_slots) = (Vec::new(), Vec::new());
        for (i, &(s, t, w)) in queries.iter().enumerate() {
            let hit = self.cache.get(&(epoch, s, t, w));
            if hit.is_none() {
                misses.push((s, t, w));
                miss_slots.push(i);
            }
            answers.push(hit.flatten());
        }
        if !misses.is_empty() {
            let computed = compute(&misses)?;
            for ((slot, &(s, t, w)), answer) in miss_slots.into_iter().zip(&misses).zip(computed) {
                self.cache.insert((epoch, s, t, w), answer);
                answers[slot] = answer;
            }
        }
        Ok(answers)
    }

    /// Renders one `METRICS` reply body: the Prometheus exposition, or (with
    /// `recent`) the trace ring — the slow-query log plus reload events — as
    /// one JSON document. Both end in a newline so the sized text reply
    /// stays line-friendly. Called on the reactor thread only, which is what
    /// makes the counter/histogram reconciliation exact (see
    /// [`crate::metrics`]).
    fn metrics_payload(&self, recent: bool) -> String {
        if recent {
            let mut json = self.metrics.registry.tracer().dump_json();
            json.push('\n');
            json
        } else {
            self.metrics.uptime_ms.set(self.started.elapsed().as_millis() as i64);
            self.metrics.registry.render()
        }
    }
}

/// A data request, handed to the [`Executor`].
pub(crate) enum Work {
    /// `QUERY s t w`.
    Query(Query),
    /// `WITHIN s t w d`.
    Within(Query, Distance),
    /// A non-empty `BATCH` (the reactor answers `BATCH 0` itself).
    Batch(Vec<Query>),
    /// `RELOAD <path>`.
    Reload(String),
}

impl Work {
    fn verb(&self) -> usize {
        match self {
            Self::Query(_) => VERB_QUERY,
            Self::Within(..) => VERB_WITHIN,
            Self::Batch(_) => VERB_BATCH,
            Self::Reload(_) => VERB_RELOAD,
        }
    }

    /// The request as the slow-query log names it.
    fn describe(&self) -> String {
        match self {
            Self::Query((s, t, w)) => format!("QUERY {s} {t} {w}"),
            Self::Within((s, t, w), d) => format!("WITHIN {s} {t} {w} {d}"),
            Self::Batch(queries) => format!("BATCH {}", queries.len()),
            Self::Reload(path) => format!("RELOAD {path}"),
        }
    }
}

/// How an executor takes on a [`Work`] item.
pub(crate) enum Start<J> {
    /// Answered on the reactor thread.
    Inline(Reply),
    /// Needs the worker pool (a big or blocking job).
    Ship(J),
}

/// What a front end serves. The reactor owns connections, framing,
/// admission, and metrics; the executor only turns data requests into
/// replies.
pub(crate) trait Executor: Sync {
    /// A shipped request, with whatever it pinned at submission.
    type Job: Send;
    /// Per-worker state, built once on each pool thread.
    type Worker;
    /// The front-end state this executor embeds.
    fn front(&self) -> &Front;
    /// The `STATS` snapshot, including the shape of what is served.
    fn stats(&self) -> ServerSnapshot;
    /// Builds one pool worker's state.
    fn worker(&self) -> Self::Worker;
    /// Answers `work` on the reactor thread, or hands back the job to ship.
    fn start(&self, work: Work) -> Start<Self::Job>;
    /// Runs one shipped job on a pool worker.
    fn run(&self, worker: &mut Self::Worker, job: Self::Job) -> Reply;
}

/// A bound but not yet running front end: the listener plus the wake pipe
/// its workers use.
pub(crate) struct Endpoint {
    listener: TcpListener,
    wake_rx: TcpStream,
    wake_tx: WakeSender,
    /// The address the listener is bound to.
    pub(crate) local_addr: SocketAddr,
}

impl Endpoint {
    /// Binds `127.0.0.1:port` for listening with `SO_REUSEADDR` set (on
    /// Linux; a plain bind elsewhere), so a restarted server can re-acquire
    /// its port while connections from its previous life are still in
    /// TIME_WAIT — the self-healing story depends on a killed backend coming
    /// back on the same address. `port` 0 picks an ephemeral port, exactly
    /// like `TcpListener::bind`.
    pub(crate) fn bind(port: u16) -> std::io::Result<Self> {
        let listener = sys::listen_reuseaddr(port)?;
        let local_addr = listener.local_addr()?;
        let (wake_rx, wake_tx) = wake_pair()?;
        Ok(Self { listener, wake_rx, wake_tx, local_addr })
    }
}

/// Serves `endpoint` with `exec` until a client sends `SHUTDOWN`: spawns the
/// bounded worker pool, runs the reactor on the calling thread, and returns
/// once the pool has drained.
pub(crate) fn serve<E: Executor>(exec: &E, endpoint: Endpoint) {
    let Endpoint { listener, wake_rx, wake_tx, .. } = endpoint;
    let (job_tx, job_rx) = mpsc::channel();
    let (done_tx, done_rx) = mpsc::channel();
    let job_rx = Mutex::new(job_rx);
    std::thread::scope(|scope| {
        for _ in 0..exec.front().batch_workers {
            let (job_rx, done_tx, wake) = (&job_rx, done_tx.clone(), wake_tx.clone());
            scope.spawn(move || worker(exec, job_rx, done_tx, wake));
        }
        drop(done_tx);
        // The reactor owns the job sender: when `run` returns it drops, the
        // workers' `recv` disconnects, and the scope joins.
        Reactor::new(exec, listener, wake_rx, job_tx, done_rx).run();
    });
}

/// Work shipped from the reactor to the bounded worker pool. Every job
/// carries the connection slot and generation that requested it, so a
/// completion for a connection that died (and whose slot was reused) is
/// recognised and dropped.
struct Job<J> {
    /// Connection slot awaiting the reply.
    conn: usize,
    /// Generation of that slot at submission time.
    gen: u64,
    /// Protocol index of the submitting connection (metric attribution).
    proto: usize,
    /// Verb index of the request (metric attribution).
    verb: usize,
    /// Submission time when timing is enabled; the worker derives the
    /// queue/execute split from it and ships both back in `Done`.
    submitted: Option<Instant>,
    /// The executor's job.
    work: J,
}

/// A completion flowing back from a worker.
struct Done {
    conn: usize,
    gen: u64,
    proto: usize,
    verb: usize,
    reply: Reply,
    /// `(queue_us, execute_us)` measured on the worker, present when timing
    /// is enabled. The reactor records these into the phase histograms at
    /// completion, keeping every request-level histogram mutation on the
    /// reactor thread (see [`crate::metrics`]).
    timing: Option<(u64, u64)>,
}

/// Write end of the reactor wake pipe, cloned into every worker.
#[derive(Clone)]
struct WakeSender(Arc<TcpStream>);

impl WakeSender {
    /// Nudges the reactor out of `poll`. A full pipe means a wake is already
    /// pending, so every error is ignorable.
    fn wake(&self) {
        let _ = (&*self.0).write(&[1]);
    }
}

/// Builds the self-pipe the workers use to wake the reactor: a loopback
/// socket pair (std has no `pipe(2)`), both ends nonblocking.
fn wake_pair() -> std::io::Result<(TcpStream, WakeSender)> {
    let gate = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let tx = TcpStream::connect(gate.local_addr()?)?;
    // The ephemeral gate port is globally connectable for an instant; only
    // accept our own connect socket, not a stranger racing us to it.
    let ours = tx.local_addr()?;
    let rx = loop {
        let (candidate, peer) = gate.accept()?;
        if peer == ours {
            break candidate;
        }
    };
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true).ok();
    Ok((rx, WakeSender(Arc::new(tx))))
}

/// Body of one pool worker: build the executor's per-worker state, then pull
/// jobs until the reactor hangs up, answer each, wake the reactor. Workers
/// share the receiver behind a mutex (the idle ones queue on the lock), so
/// the pool is bounded by construction.
fn worker<E: Executor>(
    exec: &E,
    jobs: &Mutex<Receiver<Job<E::Job>>>,
    done: Sender<Done>,
    wake: WakeSender,
) {
    let mut state = exec.worker();
    let busy = &exec.front().metrics.workers_busy;
    loop {
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return, // a worker panicked while holding the lock
        };
        let Ok(Job { conn, gen, proto, verb, submitted, work }) = job else { return };
        busy.inc();
        let started = submitted.map(|_| Instant::now());
        // Chaos site, in server and router pools alike: `fail` poisons this
        // batch (the client sees an ERR, never a wrong answer); `delay:<ms>`
        // stalls the worker so tests can fill the pending queue
        // deterministically.
        let injected = verb == VERB_BATCH
            && matches!(
                failpoint::fire("worker.batch"),
                Some(failpoint::Action::Fail | failpoint::Action::Refuse)
            );
        let reply = if injected {
            Reply::Err("injected batch failure".to_string())
        } else {
            exec.run(&mut state, work)
        };
        let timing = job_timing(submitted, started);
        busy.dec();
        if done.send(Done { conn, gen, proto, verb, reply, timing }).is_err() {
            return; // reactor gone: shutdown finished without us
        }
        wake.wake();
    }
}

/// `(queue_us, run_us)` for a worker job, when timing was enabled at
/// submission. `started` is sampled once at pickup so the queue wait and the
/// run share one boundary instant.
fn job_timing(submitted: Option<Instant>, started: Option<Instant>) -> Option<(u64, u64)> {
    submitted
        .zip(started)
        .map(|(sub, start)| (dur_us(start.saturating_duration_since(sub)), dur_us(start.elapsed())))
}

/// Saturating microseconds of a duration.
pub(crate) fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Validates a query's endpoints against an index of `n` vertices. Both
/// executors share it, so the router and a direct server reject with
/// identical wording.
pub(crate) fn check_range(n: usize, s: VertexId, t: VertexId) -> Result<(), String> {
    for v in [s, t] {
        if v as usize >= n {
            return Err(format!("vertex {v} out of range (index covers 0..{n})"));
        }
    }
    Ok(())
}

/// Maps a connection's wire mode to a metrics protocol index. `Detect`
/// counts as text: the only replies a connection can emit before the mode is
/// known are text-encoded errors.
fn proto_idx(mode: Mode) -> usize {
    match mode {
        Mode::Binary => PROTO_BINARY,
        Mode::Text | Mode::Detect => PROTO_TEXT,
    }
}

/// Wire framing of one connection, negotiated from its first byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No byte seen yet.
    Detect,
    /// Newline-delimited text ([`crate::protocol`]).
    Text,
    /// Length-prefixed frames ([`crate::binary`]).
    Binary,
}

/// Parse-progress of one connection.
enum ConnState {
    /// Between requests.
    Ready,
    /// A text `BATCH <n>` header arrived; collecting its body lines.
    TextBatch {
        /// Announced body-line count.
        expect: usize,
        /// Body lines consumed so far (valid or not).
        seen: usize,
        /// Parsed body queries (stops growing after the first bad line).
        queries: Vec<Query>,
        /// First parse failure; later lines are drained but ignored.
        invalid: Option<String>,
    },
    /// A job is in flight for this connection; parsing is paused so replies
    /// stay in request order.
    AwaitJob,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Distinguishes this tenancy of the slot from earlier ones.
    gen: u64,
    mode: Mode,
    inbuf: Vec<u8>,
    /// Consumed prefix of `inbuf`. A cursor instead of per-request
    /// `drain(..)` keeps parsing linear in the buffered bytes; the buffer is
    /// compacted once per `process` pass.
    in_start: usize,
    /// Bytes past `in_start` already scanned for a newline (text mode).
    scanned: usize,
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written to the socket.
    out_start: usize,
    state: ConnState,
    /// Close once `outbuf` drains (set by `SHUTDOWN` and fatal errors).
    close_after_flush: bool,
    /// The peer sent EOF; serve what is owed, then close.
    peer_closed: bool,
    /// When the last write attempt made no progress (stall deadline).
    stalled_since: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Self {
        Self {
            stream,
            gen,
            mode: Mode::Detect,
            inbuf: Vec::new(),
            in_start: 0,
            scanned: 0,
            outbuf: Vec::new(),
            out_start: 0,
            state: ConnState::Ready,
            close_after_flush: false,
            peer_closed: false,
            stalled_since: None,
        }
    }

    fn has_output(&self) -> bool {
        self.out_start < self.outbuf.len()
    }

    /// Whether the reactor should read this connection at all: not after a
    /// fatal reply, not while a job holds the pipeline, and not past the
    /// output backpressure limit.
    fn wants_read(&self) -> bool {
        !self.close_after_flush
            && !self.peer_closed
            && !matches!(self.state, ConnState::AwaitJob)
            && self.outbuf.len() - self.out_start < MAX_OUTBUF
    }

    /// The not-yet-consumed input.
    fn input(&self) -> &[u8] {
        &self.inbuf[self.in_start..]
    }

    /// Marks the next `n` input bytes consumed (cursor only; see `compact`).
    fn consume(&mut self, n: usize) {
        self.in_start += n;
        self.scanned = 0;
    }

    /// Drops the consumed prefix for real — called once per `process` pass,
    /// so the cost is linear in bytes received rather than per request.
    fn compact(&mut self) {
        if self.in_start > 0 {
            self.inbuf.drain(..self.in_start);
            self.in_start = 0;
        }
    }

    /// Appends one reply in this connection's wire encoding.
    fn push_reply(&mut self, reply: &Reply) {
        match self.mode {
            Mode::Binary => binary::encode_reply(reply, &mut self.outbuf),
            Mode::Text | Mode::Detect => reply.encode_text(&mut self.outbuf),
        }
    }

    /// Writes as much pending output as the socket accepts. Returns `false`
    /// when the connection should be closed (fatal error, or an intentional
    /// close whose output has fully drained).
    fn flush(&mut self) -> bool {
        while self.has_output() {
            match (&self.stream).write(&self.outbuf[self.out_start..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_start += n;
                    self.stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.stalled_since.get_or_insert_with(Instant::now);
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.outbuf.clear();
        self.out_start = 0;
        !self.close_after_flush
    }
}

/// The reactor itself; see the module docs. `run` consumes it and returns
/// when a `SHUTDOWN` has been processed.
struct Reactor<'a, E: Executor> {
    exec: &'a E,
    front: &'a Front,
    listener: TcpListener,
    wake_rx: TcpStream,
    jobs: Sender<Job<E::Job>>,
    done: Receiver<Done>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    /// Jobs submitted to the pool whose completions have not come back yet
    /// (queued + executing). Incremented at submission and decremented in
    /// `apply_completion` — both on the reactor thread, so the admission
    /// check in `submit` reads an exact count with no atomics. At the
    /// front end's `max_pending_jobs`, new offloaded work is shed with
    /// [`Reply::Busy`].
    pending_jobs: usize,
}

impl<'a, E: Executor> Reactor<'a, E> {
    fn new(
        exec: &'a E,
        listener: TcpListener,
        wake_rx: TcpStream,
        jobs: Sender<Job<E::Job>>,
        done: Receiver<Done>,
    ) -> Self {
        let _ = listener.set_nonblocking(true);
        Self {
            exec,
            front: exec.front(),
            listener,
            wake_rx,
            jobs,
            done,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            pending_jobs: 0,
        }
    }

    /// The event loop. Exits once the shutdown flag is observed, after a
    /// bounded wait for in-flight worker jobs and a best-effort final flush
    /// of every connection's pending output.
    fn run(mut self) {
        let mut fds = Vec::new();
        let mut slots = Vec::new();
        loop {
            if self.front.shutdown.load(Ordering::SeqCst) {
                self.drain_and_close_all();
                return;
            }
            fds.clear();
            slots.clear();
            fds.push(sys::entry(&self.listener, sys::POLLIN));
            fds.push(sys::entry(&self.wake_rx, sys::POLLIN));
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0;
                if conn.wants_read() {
                    events |= sys::POLLIN;
                }
                if conn.has_output() {
                    events |= sys::POLLOUT;
                }
                // A zero-interest connection (job in flight, nothing to
                // write) is not registered at all: `poll` reports
                // POLLERR/POLLHUP regardless of the interest set, so a peer
                // that dies mid-job would otherwise spin the loop at full
                // speed until its completion arrives. The death is detected
                // instead when the completion's reply fails to write.
                if events != 0 {
                    fds.push(sys::entry(&conn.stream, events));
                    slots.push(slot);
                }
            }
            // A poll error (resource pressure) degrades to a paced retry; the
            // loop itself must never die while the server is up.
            if sys::poll_fds(&mut fds, POLL_TICK).is_err() {
                std::thread::sleep(Duration::from_millis(10));
            }
            if fds[0].revents != 0 {
                self.accept_ready();
            }
            if fds[1].revents != 0 {
                drain_wake(&self.wake_rx);
            }
            self.drain_completions();
            for (i, &slot) in slots.iter().enumerate() {
                let revents = fds[2 + i].revents;
                if revents != 0 {
                    self.service(slot, revents);
                }
            }
            self.reap_stalled();
        }
    }

    /// Accepts every connection currently queued on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Chaos site: `refuse` drops the fresh connection before
                    // it is counted or registered, simulating a listener
                    // that accepts then dies; `delay:<ms>` stalls the accept
                    // path.
                    if matches!(
                        failpoint::fire("reactor.accept"),
                        Some(failpoint::Action::Refuse | failpoint::Action::Fail)
                    ) {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    stream.set_nodelay(true).ok();
                    self.front.metrics.connections.inc();
                    self.front.metrics.live_connections.inc();
                    self.next_gen += 1;
                    let conn = Conn::new(stream, self.next_gen);
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // Transient accept errors (e.g. a connection reset while
                // queued, or fd exhaustion) must not kill the server — but a
                // persistent one keeps the listener readable, so pace the
                // retry or the loop would spin hot until the error clears.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    /// Applies every queued worker completion to its connection.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done.try_recv() {
            self.apply_completion(done);
        }
    }

    /// Applies one worker completion. Its verb counter and phase samples
    /// land here — on the reactor thread, with the durations the worker
    /// measured — which is what keeps every `METRICS` payload
    /// self-consistent (see [`crate::metrics`]).
    fn apply_completion(&mut self, done: Done) {
        self.retire_job();
        let Done { conn, gen, proto, verb, reply, timing } = done;
        self.front.metrics.finish_offloaded(proto, verb, &reply, timing);
        self.deliver(conn, gen, reply);
    }

    /// Hands a completion reply to its connection — unless the connection
    /// died (or its slot was reused) while the job ran.
    fn deliver(&mut self, slot: usize, gen: u64, reply: Reply) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
            if conn.gen != gen {
                return;
            }
            conn.state = ConnState::Ready;
            conn.push_reply(&reply);
        }
        // Resume the pipeline: parse whatever queued up behind the job.
        self.service(slot, 0);
    }

    /// Runs one connection through read → parse/execute → write.
    fn service(&mut self, slot: usize, revents: i16) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        let mut alive = true;
        if revents & (sys::POLLIN | sys::POLLHUP | sys::POLLERR) != 0 && conn.wants_read() {
            alive = self.read_into(&mut conn);
        }
        if alive {
            self.process(&mut conn, slot);
            if conn.has_output() {
                // The write phase is sampled per flush *with pending bytes*,
                // not per request — pipelined replies share one flush.
                let t0 = self.front.metrics.timer();
                alive = conn.flush();
                self.front.metrics.phase(proto_idx(conn.mode), PHASE_WRITE, t0);
            } else {
                alive = conn.flush();
            }
        }
        // A half-closed peer is served to completion: buffered complete
        // requests were just processed above, a pending job still owes a
        // reply, and queued output still drains. Only when none of that
        // remains is the connection finished (a trailing partial line or
        // frame can never complete and is discarded).
        if alive
            && conn.peer_closed
            && !conn.has_output()
            && !matches!(conn.state, ConnState::AwaitJob)
        {
            alive = false;
        }
        if alive {
            self.conns[slot] = Some(conn);
        } else {
            // The conn was taken out of its slot above, so dropping it here
            // closes the socket; only the bookkeeping is left to do.
            drop(conn);
            self.front.metrics.live_connections.dec();
            self.free.push(slot);
        }
    }

    /// Drains the socket into the input buffer (up to the fairness budget).
    /// Returns `false` when the connection is finished.
    fn read_into(&mut self, conn: &mut Conn) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        let mut total = 0;
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // EOF — but bytes read before it may hold complete
                    // requests (a client may write + half-close + await its
                    // replies), so parsing and flushing still happen; the
                    // caller closes once everything owed has been delivered.
                    conn.peer_closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if total >= READ_BUDGET {
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parses and executes as many complete requests as the input buffer
    /// holds, stopping when a job takes the pipeline or a fatal reply is
    /// queued. Consumption moves a cursor; the buffer is compacted once on
    /// the way out, so a burst of pipelined requests costs linear time.
    fn process(&mut self, conn: &mut Conn, slot: usize) {
        self.process_inner(conn, slot);
        conn.compact();
    }

    fn process_inner(&mut self, conn: &mut Conn, slot: usize) {
        // Copy the `&Front` out so the metrics borrow does not pin `self`.
        let front = self.front;
        let m = &front.metrics;
        loop {
            if conn.close_after_flush || matches!(conn.state, ConnState::AwaitJob) {
                return;
            }
            match conn.mode {
                Mode::Detect => {
                    let Some(&first) = conn.input().first() else { return };
                    if first == binary::MAGIC {
                        if conn.input().len() < 2 {
                            return;
                        }
                        let version = conn.input()[1];
                        conn.consume(2);
                        conn.mode = Mode::Binary;
                        m.proto_connections[PROTO_BINARY].inc();
                        if version != binary::VERSION {
                            m.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(format!(
                                "unsupported binary protocol version {version} (expected {})",
                                binary::VERSION
                            )));
                            conn.close_after_flush = true;
                        }
                    } else {
                        conn.mode = Mode::Text;
                        m.proto_connections[PROTO_TEXT].inc();
                    }
                }
                Mode::Text => {
                    let newline = conn.input()[conn.scanned..].iter().position(|&b| b == b'\n');
                    let line_len = match newline {
                        None => {
                            conn.scanned = conn.input().len();
                            if conn.scanned > MAX_LINE {
                                self.overlong_line(conn);
                            }
                            return;
                        }
                        Some(at) => conn.scanned + at,
                    };
                    // The cap applies whether or not the newline has arrived
                    // yet: an over-long-but-terminated line must not smuggle
                    // an unbounded token into parsing or the ERR echo.
                    if line_len > MAX_LINE {
                        self.overlong_line(conn);
                        return;
                    }
                    let line = String::from_utf8_lossy(&conn.input()[..line_len]).into_owned();
                    conn.consume(line_len + 1);
                    self.handle_text_line(conn, slot, &line);
                }
                Mode::Binary => {
                    let input = conn.input();
                    if input.len() < 4 {
                        return;
                    }
                    let len = u32::from_le_bytes(input[..4].try_into().expect("4 bytes")) as usize;
                    if len > binary::MAX_FRAME {
                        conn.push_reply(&Reply::Err(format!(
                            "frame of {len} bytes exceeds maximum {}",
                            binary::MAX_FRAME
                        )));
                        conn.close_after_flush = true;
                        return;
                    }
                    if input.len() < 4 + len {
                        return;
                    }
                    // Decode straight from the buffer (a max-size batch body
                    // is ~12 MB — no copy); the parsed request owns its data.
                    let t_parse = m.timer();
                    let req = binary::decode_request(&input[4..4 + len]);
                    m.phase(PROTO_BINARY, PHASE_PARSE, t_parse);
                    conn.consume(4 + len);
                    match req {
                        // Framing is still intact after a bad body, so a
                        // malformed frame poisons one request, not the
                        // connection.
                        Err(reason) => {
                            m.errors[PROTO_BINARY].inc();
                            conn.push_reply(&Reply::Err(reason));
                        }
                        Ok(req) => self.dispatch(conn, slot, req),
                    }
                }
            }
        }
    }

    /// Rejects a text line longer than [`MAX_LINE`] and drops the
    /// connection: the rest of the line is unread (or deliberately
    /// unparsed), so framing is lost either way.
    fn overlong_line(&self, conn: &mut Conn) {
        self.front.metrics.errors[PROTO_TEXT].inc();
        conn.push_reply(&Reply::Err(format!("request line exceeds {MAX_LINE} bytes")));
        conn.close_after_flush = true;
    }

    /// One complete text line: either a request or a `BATCH` body line.
    /// Requests are translated to the binary protocol's request type, so
    /// both protocols share [`Self::dispatch`].
    fn handle_text_line(&mut self, conn: &mut Conn, slot: usize, line: &str) {
        let front = self.front;
        let m = &front.metrics;
        if let ConnState::TextBatch { expect, mut seen, mut queries, mut invalid } =
            std::mem::replace(&mut conn.state, ConnState::Ready)
        {
            // All body lines are consumed even after a failure, so one bad
            // query poisons only this batch, never the connection framing.
            seen += 1;
            if invalid.is_none() {
                match protocol::parse_batch_line(line) {
                    Ok(q) => queries.push(q),
                    Err(reason) => invalid = Some(format!("batch line {seen}: {reason}")),
                }
            }
            if seen == expect {
                match invalid {
                    Some(reason) => {
                        // Never executed, so no verb count or phase sample —
                        // only the error counter (matching binary decode
                        // failures, where the verb is unknowable).
                        m.errors[PROTO_TEXT].inc();
                        conn.push_reply(&Reply::Err(reason));
                    }
                    None => self.dispatch(conn, slot, BinRequest::Batch { queries }),
                }
            } else {
                conn.state = ConnState::TextBatch { expect, seen, queries, invalid };
            }
            return;
        }
        if line.trim().is_empty() {
            return; // blank keep-alive lines are not an error
        }
        let t_parse = m.timer();
        let parsed = protocol::parse_request(line);
        m.phase(PROTO_TEXT, PHASE_PARSE, t_parse);
        let req = match parsed {
            Err(reason) => {
                m.errors[PROTO_TEXT].inc();
                conn.push_reply(&Reply::Err(reason));
                return;
            }
            Ok(Request::Batch { n }) if n > 0 => {
                // Verb counted when the body completes and is answered.
                conn.state = ConnState::TextBatch {
                    expect: n,
                    seen: 0,
                    queries: Vec::with_capacity(n.min(4096)),
                    invalid: None,
                };
                return;
            }
            Ok(Request::Batch { .. }) => BinRequest::Batch { queries: Vec::new() },
            Ok(Request::Query { s, t, w }) => BinRequest::Query { s, t, w },
            Ok(Request::Within { s, t, w, d }) => BinRequest::Within { s, t, w, d },
            Ok(Request::Stats) => BinRequest::Stats,
            Ok(Request::Metrics { recent }) => BinRequest::Metrics { recent },
            Ok(Request::Reload { path }) => BinRequest::Reload { path },
            Ok(Request::Shutdown) => BinRequest::Shutdown,
        };
        self.dispatch(conn, slot, req);
    }

    /// One parsed request, on either protocol: the reactor answers the
    /// admin verbs and `BATCH 0`; the executor takes the rest, inline or
    /// through the pool.
    fn dispatch(&mut self, conn: &mut Conn, slot: usize, req: BinRequest) {
        let front = self.front;
        let t0 = front.metrics.timer();
        let work = match req {
            BinRequest::Query { s, t, w } => Work::Query((s, t, w)),
            BinRequest::Within { s, t, w, d } => Work::Within((s, t, w), d),
            BinRequest::Batch { queries } if queries.is_empty() => {
                let reply = Reply::Batch(Vec::new());
                return self.reply(conn, VERB_BATCH, t0, reply, || "BATCH 0".to_string());
            }
            BinRequest::Batch { queries } => Work::Batch(queries),
            BinRequest::Reload { path } => Work::Reload(path),
            BinRequest::Stats => {
                let stats = self.exec.stats().encode();
                return self.reply(conn, VERB_STATS, t0, Reply::Stats(stats), String::new);
            }
            BinRequest::Metrics { recent } => {
                // Counted *after* rendering: the in-flight METRICS request
                // is absent from both its own counter and its own histogram,
                // so the payload stays internally consistent.
                let payload = front.metrics_payload(recent);
                return self.reply(conn, VERB_METRICS, t0, Reply::Metrics(payload), String::new);
            }
            BinRequest::Shutdown => {
                // Acknowledge, close once the ack flushes, and stop the loop
                // on its next iteration.
                conn.close_after_flush = true;
                front.shutdown.store(true, Ordering::SeqCst);
                return self.reply(conn, VERB_SHUTDOWN, t0, Reply::Bye, String::new);
            }
        };
        let verb = work.verb();
        let detail = front.metrics.slow_query_us.is_some().then(|| work.describe());
        match self.exec.start(work) {
            Start::Inline(reply) => {
                self.reply(conn, verb, t0, reply, || detail.unwrap_or_default());
            }
            Start::Ship(job) => self.submit(conn, slot, verb, job),
        }
    }

    /// Books an inline reply and queues it on the connection.
    fn reply(
        &self,
        conn: &mut Conn,
        verb: usize,
        t0: Option<Instant>,
        reply: Reply,
        detail: impl FnOnce() -> String,
    ) {
        self.front.metrics.finish_request(proto_idx(conn.mode), verb, t0, &reply, detail);
        conn.push_reply(&reply);
    }

    /// Ships a job to the worker pool — or sheds it with [`Reply::Busy`] when
    /// `max_pending_jobs` are already pending. The count is exact (mutated
    /// only on this thread), so the pending queue is bounded by
    /// construction, not by sampling.
    fn submit(&mut self, conn: &mut Conn, slot: usize, verb: usize, work: E::Job) {
        let front = self.front;
        let proto = proto_idx(conn.mode);
        if self.pending_jobs >= front.max_pending_jobs {
            // Shed without executing: the error counter moves (like a parse
            // failure, the verb never ran) plus the dedicated shed counter,
            // so overload is distinguishable from malformed traffic.
            front.metrics.shed[proto].inc();
            front.metrics.errors[proto].inc();
            conn.push_reply(&Reply::Busy);
            return;
        }
        self.pending_jobs += 1;
        front.metrics.pending_jobs.set(self.pending_jobs as i64);
        let submitted = front.metrics.timer();
        conn.state = ConnState::AwaitJob;
        let job = Job { conn: slot, gen: conn.gen, proto, verb, submitted, work };
        if self.jobs.send(job).is_err() {
            self.retire_job();
            conn.state = ConnState::Ready;
            // Rejected inline, so account it inline: the completion path
            // that would normally count the verb will never run.
            self.reply(conn, verb, submitted, Reply::Err("server is shutting down".into()), || {
                String::new()
            });
        }
    }

    /// Releases one pending-job slot (completion arrived, or submission
    /// failed after the reservation).
    fn retire_job(&mut self) {
        self.pending_jobs = self.pending_jobs.saturating_sub(1);
        self.front.metrics.pending_jobs.set(self.pending_jobs as i64);
    }

    /// Closes connections whose pending output made no progress for
    /// [`WRITE_TIMEOUT`] — the nonblocking analogue of a blocking write
    /// timeout.
    fn reap_stalled(&mut self) {
        for slot in 0..self.conns.len() {
            let stalled = match &self.conns[slot] {
                Some(conn) => {
                    conn.has_output()
                        && conn.stalled_since.is_some_and(|since| since.elapsed() > WRITE_TIMEOUT)
                }
                None => false,
            };
            if stalled {
                self.release(slot);
            }
        }
    }

    /// Final pass once shutdown is flagged: one best-effort flush per
    /// connection, then everything is dropped.
    fn drain_and_close_all(&mut self) {
        // In-flight jobs are answered first: their workers already hold
        // them, and their clients deserve the replies they were promised
        // before the server hangs up (the deadline bounds a pathological
        // job, e.g. a reload of an enormous snapshot).
        let deadline = Instant::now() + SHUTDOWN_DRAIN;
        loop {
            let pending =
                self.conns.iter().flatten().any(|conn| matches!(conn.state, ConnState::AwaitJob));
            if !pending {
                break;
            }
            let Some(wait) = deadline.checked_duration_since(Instant::now()) else { break };
            match self.done.recv_timeout(wait) {
                Ok(done) => self.apply_completion(done), // delivers + flushes
                Err(_) => break,
            }
        }
        // Final replies get the same delivery guarantee a blocking writer
        // would give them: switch each socket back to blocking with the
        // write-stall budget and push the remaining bytes synchronously,
        // instead of dropping whatever one nonblocking pass left behind.
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                if conn.has_output()
                    && conn.stream.set_nonblocking(false).is_ok()
                    && conn.stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_ok()
                {
                    let _ = (&conn.stream).write_all(&conn.outbuf[conn.out_start..]);
                }
            }
            if self.conns[slot].is_some() {
                self.release(slot);
            }
        }
    }

    /// Frees a slot and its live-connection count.
    fn release(&mut self, slot: usize) {
        if self.conns[slot].take().is_some() {
            self.front.metrics.live_connections.dec();
            self.free.push(slot);
        }
    }
}

/// Empties the wake pipe so the next worker wake is observable.
fn drain_wake(wake_rx: &TcpStream) {
    let mut sink = [0u8; 64];
    while let Ok(n) = (&*wake_rx).read(&mut sink) {
        if n == 0 || n < sink.len() {
            return;
        }
    }
}
