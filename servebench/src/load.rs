//! Closed-loop load from the benchmark process: one thread per connection,
//! at most two at once. Each thread sends its next request only after the
//! previous reply, and logs every answer in key-stream order so the run can
//! be checked afterwards by regenerating the stream.

use crate::deploy::connect;
use crate::gen::{Key, KeyStream};
use crate::stats::steal_ticks;
use crate::trace::Span;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wcsd_graph::Distance;
use wcsd_server::{Client, Protocol};

/// Logged answer meaning "no path" (`INF`).
pub const ANSWER_INF: u32 = u32::MAX;
/// Logged answer meaning "the request failed".
pub const ANSWER_FAILED: u32 = u32::MAX - 1;

/// Encodes an answer for the log.
pub fn encode_answer(answer: Option<Distance>) -> u32 {
    answer.unwrap_or(ANSWER_INF)
}

/// One completed request: (seconds since the phase began, latency in µs,
/// queries carried).
pub type Sample = (f64, f64, f64);

/// What each request of a connection carries.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `BATCH n`.
    Batch(usize),
    /// One `QUERY`.
    Point,
}

/// One client connection's traffic.
#[derive(Debug, Clone)]
pub struct Conn {
    pub addr: SocketAddr,
    pub protocol: Protocol,
    pub shape: Shape,
    /// Close and reopen the connection after this many requests.
    pub reconnect_every: Option<u64>,
    pub keys: KeyStream,
}

/// An append-only log of `u32` words kept in a file under the run's
/// output directory, so the benchmark's own memory (part of
/// `rss_peak_mb`) stays flat however many requests a run completes.
#[derive(Debug)]
pub struct Spill {
    path: PathBuf,
    writer: BufWriter<File>,
}

impl Spill {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        let file =
            File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path, writer: BufWriter::new(file) })
    }

    pub fn push(&mut self, word: u32) -> Result<(), String> {
        self.writer
            .write_all(&word.to_le_bytes())
            .map_err(|e| format!("cannot write {}: {e}", self.path.display()))
    }

    /// Every word pushed, in order; removes the file.
    pub fn read_back(&mut self) -> Result<Vec<u32>, String> {
        self.writer.flush().map_err(|e| format!("cannot write {}: {e}", self.path.display()))?;
        let bytes = std::fs::read(&self.path)
            .map_err(|e| format!("cannot read {}: {e}", self.path.display()))?;
        std::fs::remove_file(&self.path).ok();
        Ok(bytes.chunks_exact(4).map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])).collect())
    }
}

/// The log of one connection over one phase.
#[derive(Debug)]
pub struct ConnLog {
    /// One entry per key sent, in stream order.
    pub answers: Spill,
    /// Requests completed in a recorded phase, two words each: completion
    /// time since the phase began (µs) and latency (ns).
    pub samples: Spill,
    /// Queries each request carries.
    pub per_request: usize,
    /// Latencies of requests recorded with a span (trace mode only).
    pub traced_us: Vec<f64>,
    /// Latencies of requests recorded without one (trace mode only).
    pub untraced_us: Vec<f64>,
    /// Queries attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Connections opened.
    pub connections: u64,
    pub spans: Vec<Span>,
}

/// Request spans kept per connection; past this many the connection stops
/// sampling traced and untraced latencies, so a traced run's memory and
/// span dump stay bounded.
pub const MAX_TRACED: usize = 16 * 1024;

/// Tracing of request spans: in trace mode, requests alternate in runs of
/// 64 between traced and untraced, so one window yields both latencies and
/// their difference is the tracing overhead.
#[derive(Clone, Copy)]
pub struct RequestTrace<'a> {
    pub tracer: &'a crate::trace::Tracer,
    pub conn_no: u64,
}

/// Runs `conn` until `until`, returning the advanced key stream and the
/// log. With `recorded = Some(start)`, each request is logged as a sample
/// timed from `start`.
pub fn closed_loop(
    mut conn: Conn,
    until: Instant,
    recorded: Option<Instant>,
    trace: Option<RequestTrace<'_>>,
    spill: &Path,
) -> Result<(KeyStream, ConnLog), String> {
    let per_request = match conn.shape {
        Shape::Batch(n) => n,
        Shape::Point => 1,
    };
    let mut log = ConnLog {
        answers: Spill::create(spill.with_extension("answers"))?,
        samples: Spill::create(spill.with_extension("samples"))?,
        per_request,
        traced_us: Vec::new(),
        untraced_us: Vec::new(),
        attempted: 0,
        failed: 0,
        connections: 0,
        spans: Vec::new(),
    };
    let mut client: Option<Client> = None;
    let mut on_this_connection = 0u64;
    let mut seq = 0u64;
    let mut keys: Vec<Key> = Vec::with_capacity(per_request);
    while Instant::now() < until {
        if conn.reconnect_every.is_some_and(|every| on_this_connection >= every) {
            client = None;
        }
        if client.is_none() {
            match connect(conn.addr, conn.protocol) {
                Ok(c) => {
                    client = Some(c);
                    log.connections += 1;
                    on_this_connection = 0;
                }
                Err(_) => {
                    log.attempted += 1;
                    log.failed += 1;
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            }
        }
        let c = client.as_mut().expect("connected above");
        keys.clear();
        keys.extend((0..per_request).map(|_| conn.keys.next_key()));
        let start = Instant::now();
        let reply = match conn.shape {
            Shape::Batch(_) => c.batch(&keys),
            Shape::Point => c.query(keys[0].0, keys[0].1, keys[0].2).map(|a| vec![a]),
        };
        let end = Instant::now();
        on_this_connection += 1;
        log.attempted += per_request as u64;
        match reply {
            Ok(answers) if answers.len() == per_request => {
                for answer in answers {
                    log.answers.push(encode_answer(answer))?;
                }
            }
            _ => {
                log.failed += per_request as u64;
                for _ in 0..per_request {
                    log.answers.push(ANSWER_FAILED)?;
                }
                client = None;
                continue;
            }
        }
        let us = (end - start).as_secs_f64() * 1e6;
        if let Some(phase_start) = recorded {
            log.samples.push(saturate((end - phase_start).as_micros()))?;
            log.samples.push(saturate((end - start).as_nanos()))?;
            if let Some(t) = trace.filter(|_| log.traced_us.len() < MAX_TRACED) {
                if (seq / 64).is_multiple_of(2) {
                    let id = t.tracer.id();
                    log.spans.push(Span {
                        name: "client.request",
                        id,
                        parent: 0,
                        request: (t.conn_no << 40) | seq,
                        start_ns: t.tracer.ns(start),
                        end_ns: t.tracer.ns(end),
                    });
                    log.traced_us.push(us);
                } else {
                    log.untraced_us.push(us);
                }
            }
        }
        seq += 1;
    }
    Ok((conn.keys, log))
}

fn saturate(units: u128) -> u32 {
    u32::try_from(units).unwrap_or(u32::MAX)
}

impl ConnLog {
    /// Reads the spilled answers and samples back into memory.
    pub fn read_back(&mut self) -> Result<(Vec<u32>, Vec<Sample>), String> {
        let per_request = self.per_request as f64;
        let samples = self
            .samples
            .read_back()?
            .chunks_exact(2)
            .map(|w| (w[0] as f64 / 1e6, w[1] as f64 / 1e3, per_request))
            .collect();
        Ok((self.answers.read_back()?, samples))
    }
}

/// Reads the steal counter at `start` and at every `slice` boundary after
/// it, until `stop` is set.
pub fn sample_steal(start: Instant, slice: Duration, stop: &AtomicBool) -> Vec<u64> {
    let mut boundaries = vec![steal_ticks()];
    loop {
        let next = start + slice * boundaries.len() as u32;
        while Instant::now() < next {
            if stop.load(Ordering::SeqCst) {
                return boundaries;
            }
            std::thread::sleep((next - Instant::now()).min(Duration::from_millis(20)));
        }
        boundaries.push(steal_ticks());
    }
}

/// What one phase of closed-loop traffic produced.
pub struct Phase {
    /// The connections, with their key streams advanced.
    pub conns: Vec<Conn>,
    /// One log per connection, in input order.
    pub logs: Vec<ConnLog>,
    /// Steal ticks at each `slice` boundary of a recorded phase.
    pub steal: Vec<u64>,
}

/// Runs every connection on its own thread until `until`, spilling their
/// logs to files named after `spill`. A recorded phase also samples the
/// steal counter every `slice`.
pub fn phase(
    conns: Vec<Conn>,
    until: Instant,
    recorded: Option<Instant>,
    slice: Duration,
    tracer: Option<&crate::trace::Tracer>,
    spill: &Path,
) -> Result<Phase, String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        let sampler = recorded.map(|start| scope.spawn(move || sample_steal(start, slice, stop)));
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, conn)| {
                let template = conn.clone();
                let trace = tracer.map(|tracer| RequestTrace { tracer, conn_no: i as u64 + 1 });
                let name = format!(
                    "{}-{}-{i}",
                    spill.display(),
                    if recorded.is_some() { "window" } else { "warm" }
                );
                let handle = scope
                    .spawn(move || closed_loop(conn, until, recorded, trace, Path::new(&name)));
                (template, handle)
            })
            .collect();
        let joined: Vec<_> = handles
            .into_iter()
            .map(|(template, handle)| (template, handle.join().expect("load thread panicked")))
            .collect();
        stop.store(true, Ordering::SeqCst);
        let steal = sampler.map(|s| s.join().expect("steal sampler panicked")).unwrap_or_default();
        let (mut conns, mut logs) = (Vec::new(), Vec::new());
        for (mut template, result) in joined {
            let (keys, log) = result?;
            template.keys = keys;
            conns.push(template);
            logs.push(log);
        }
        Ok(Phase { conns, logs, steal })
    })
}
