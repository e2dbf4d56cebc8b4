//! The four workloads. Each brings the serving tier up several times (the
//! median is `setup_s`), warms it, measures one window of traffic, publishes
//! snapshots for the freshness figures, and then checks every answer.

use crate::deploy;
use crate::gen::{self, Key, KeyStream, Update, UpdateStream};
use crate::load::{self, Conn, Sample, Shape, ANSWER_FAILED};
use crate::report::Outcome;
use crate::stats::{
    calm, lower_thread_priority, mean, median, pick, proc_status, quantile, steal_ticks, sync_disks,
};
use crate::trace::{Span, Tracer};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wcsd_baselines::online::constrained_bfs;
use wcsd_bench::datasets::{Dataset, Scale};
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::overlay::ShardedIndex;
use wcsd_core::{parallel, FlatIndex, IndexBuilder, WcIndex};
use wcsd_graph::Graph;
use wcsd_obs::scrape::{Scrape, ScrapedHistogram};
use wcsd_server::server::ServerConfig;
use wcsd_server::Protocol;

/// Set-ups per run; `setup_s` is the median over the calm ones.
const SETUPS_CAL: usize = 5;
const SETUPS_UK: usize = 7;
const SETUPS_NY: usize = 21;
/// Length of the slices the window is cut into; qps and latency are taken
/// over the calm ones (see [`calm`]).
const SLICE: Duration = Duration::from_millis(100);
/// road-feed keeps the latency of one read in this many, so its memory
/// (part of `rss_peak_mb`) stays small however fast reads complete.
const READ_SAMPLE_EVERY: u64 = 8;
/// Traffic before the measured window, so caches fill first.
const WARMUP: Duration = Duration::from_secs(1);
/// Snapshot publications timed on the read-only workloads (a routed one
/// takes ~3 ms, so road-routed times more of them for a steady p90).
const PUBLISHES: usize = 60;
const PUBLISHES_ROUTED: usize = 320;
/// Consecutive freshness samples per group (see [`freshness_metrics`]).
const FRESH_GROUP: usize = 10;
/// Keys per stream replayed in process by the traced run.
const REPLAY: usize = 4096;
/// Answers per run cross-checked against the online C-BFS oracle.
const ORACLE_SAMPLE: usize = 1024;
/// Queries per `BATCH` on the batched workloads.
const BATCH: usize = 16;
/// Batches per session on road-routed before the client reconnects.
const SESSION_BATCHES: u64 = 32;
/// social-point key pool and skew: with the default 64Ki-entry result
/// cache this lands the hit ratio near one half.
const SOCIAL_POOL: u64 = 1 << 20;
const SOCIAL_SKEW: f64 = 0.85;
/// road-feed reads: key pool and skew.
const FEED_POOL: u64 = 1 << 16;
const FEED_SKEW: f64 = 0.9;
/// road-feed writes: one batch of [add, add, remove] every interval.
const FEED_INTERVAL: Duration = Duration::from_millis(250);

/// The settings of one run.
pub struct Run {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    pub tracer: Tracer,
    pub out_dir: PathBuf,
    pub workload: &'static str,
    /// Prefix of the files the load threads spill their logs to.
    pub spill: PathBuf,
}

impl Run {
    fn snapshot_path(&self, tag: &str) -> PathBuf {
        self.out_dir.join(format!("snapshot-{}-{}-{tag}.wcif", self.workload, std::process::id()))
    }

    fn request_tracer(&self) -> Option<&Tracer> {
        self.trace.then_some(&self.tracer)
    }
}

/// A dataset of the registry at `small` scale. The graph is the named
/// dataset itself; the run's seed drives only the traffic.
fn dataset(name: &str) -> Dataset {
    Dataset::road_suite(Scale::Small)
        .into_iter()
        .chain(Dataset::social_suite(Scale::Small))
        .find(|d| d.name == name)
        .expect("dataset is in the registry")
}

/// road-batch: CAL, uniform keys, 2 binary connections, `BATCH 16`.
/// Why: the kernel, the parallel batch and the worker-pool queue do the
/// work; uniform keys over ~49 M triples bypass the result cache.
pub fn road_batch(run: &Run) -> Result<Outcome, String> {
    single_read(run, &dataset("CAL"), SETUPS_CAL, |g, addr| {
        (1..=2)
            .map(|stream| Conn {
                addr,
                protocol: Protocol::Binary,
                shape: Shape::Batch(BATCH),
                reconnect_every: None,
                keys: KeyStream::uniform(g, run.seed, stream),
            })
            .collect()
    })
}

/// social-point: UK, Zipf keys from a fixed pool, one text and one binary
/// connection sending single `QUERY`s. Why: per-request parse, syscall and
/// write in the reactor and the result cache (hit ratio about one half)
/// dominate; the kernel does little, so a kernel change should not move it.
pub fn social_point(run: &Run) -> Result<Outcome, String> {
    single_read(run, &dataset("UK"), SETUPS_UK, |g, addr| {
        [Protocol::Text, Protocol::Binary]
            .into_iter()
            .zip(1..)
            .map(|(protocol, stream)| Conn {
                addr,
                protocol,
                shape: Shape::Point,
                reconnect_every: None,
                keys: KeyStream::zipf_pool(g, run.seed, stream, SOCIAL_POOL, SOCIAL_SKEW),
            })
            .collect()
    })
}

/// Brings up `count` tiers with `setup`, stopping all but the last, and
/// checks that each built the same index. Returns the last tier and
/// `setup_s`, the median set-up time over the calm set-ups (see
/// [`calm`]).
fn repeated_setup<T>(
    run: &Run,
    out: &mut Outcome,
    count: usize,
    mut setup: impl FnMut(&Tracer) -> Result<(T, Duration, usize), String>,
    stop: impl Fn(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let (mut times, mut steal) = (Vec::new(), Vec::new());
    let mut first_entries = None;
    let mut last = None;
    for i in 0..count {
        let steal_before = steal_ticks();
        let (tier, took, entries) = setup(&run.tracer)?;
        times.push(took.as_secs_f64());
        steal.push(steal_ticks() - steal_before);
        match first_entries {
            None => first_entries = Some(entries),
            Some(e) if e != entries => {
                out.mismatch(1, format!("set-up {i} built {entries} entries, set-up 0 built {e}"))
            }
            Some(_) => {}
        }
        if i + 1 < count {
            stop(tier)?;
        } else {
            last = Some(tier);
        }
    }
    let setup_s = median(&mut pick(&times, &calm(&steal)));
    Ok((last.expect("at least one set-up"), setup_s))
}

/// Per-set-up means of the set-up phases, from the spans.
fn setup_layers(run: &Run, out: &mut Outcome, count: usize) {
    let per_setup = |name| {
        run.tracer.durations_ms_under(name, "setup").iter().fold(0.0, |a, b| a + b) / count as f64
    };
    out.set("graph.generate_ms", per_setup("graph.generate"));
    out.set("order.compute_ms", per_setup("order.compute"));
    out.set("core.build.build_ms", per_setup("core.build"));
    out.set("core.flat.freeze_ms", per_setup("core.flat.freeze"));
    out.set("graph.partition_ms", per_setup("graph.partition"));
    out.set("core.overlay.build_ms", per_setup("core.overlay.build"));
}

/// The read-only workloads on one server: road-batch and social-point.
fn single_read(
    run: &Run,
    dataset: &Dataset,
    setups: usize,
    make_conns: impl Fn(&Graph, SocketAddr) -> Vec<Conn>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (single, setup_s) = repeated_setup(
        run,
        &mut out,
        setups,
        |tracer| {
            let s = deploy::setup_single(dataset, tracer)?;
            let (took, entries) = (s.setup, s.flat.total_entries());
            Ok((s, took, entries))
        },
        |s| s.server.stop().map(drop),
    )?;
    setup_layers(run, &mut out, setups);
    let addr = single.server.addr;
    let (encoded, _) = run.tracer.span("core.flat.encode", 0, |_| single.flat.encode());
    out.set("index_bytes", encoded.len() as f64);
    out.set("core.flat.encoded_bytes", encoded.len() as f64);
    out.set("core.build.entries", single.flat.total_entries() as f64);
    drop(encoded);

    let conns = make_conns(&single.graph, addr);
    let streams: Vec<KeyStream> = conns.iter().map(|c| c.keys.clone()).collect();
    let targets = [(&single.index, addr)];
    let mut fresh = republish(run, &mut out, &targets, PUBLISHES / 2)?;
    let mut warm = load::phase(conns, Instant::now() + WARMUP, None, SLICE, None, &run.spill)?;
    let before = deploy::scrape(addr)?;
    let start = Instant::now();
    let mut measured = load::phase(
        std::mem::take(&mut warm.conns),
        start + run.window,
        Some(start),
        SLICE,
        run.request_tracer(),
        &run.spill,
    )?;
    let window = start.elapsed();
    // Read before the second half of the publications: the first half
    // already went through the same peak, and a second pass only adds how
    // much the allocator happens to keep after the window.
    let rss_kb = proc_status("VmHWM");
    let after = deploy::scrape(addr)?;
    fresh.extend(republish(run, &mut out, &targets, PUBLISHES / 2)?);
    let published = deploy::scrape(addr)?;
    single.server.stop()?;
    let (answers, samples) = read_back(&mut out, &mut warm, &mut measured)?;

    traffic_metrics(run, &mut out, &mut measured, &samples, window);
    freshness_metrics(&mut out, &fresh);
    out.set("rss_peak_mb", rss_kb as f64 / 1024.0);
    out.set("setup_s", setup_s);
    reactor_layers(&mut out, &[after.delta(&before)]);
    reload_layers(run, &mut out, &[published.delta(&after)]);

    let reference = &*single.flat;
    let keys = check_answers(&mut out, &streams, &answers, |k| reference.distance(k.0, k.1, k.2));
    out.set("loadgen.repeat_key_frac", repeat_frac(keys));
    oracle_sample(&mut out, &single.graph, &streams, |k| reference.distance(k.0, k.1, k.2));
    kernel_layers(run, &mut out, reference, &streams);
    Ok(out)
}

/// road-routed: NY in two shards behind a router; uniform keys, 2 binary
/// connections, `BATCH 16`, reconnecting every `SESSION_BATCHES` batches.
/// Why: router scatter, backend exchange and overlay merge do the work and
/// the churn exposes per-connection router threads; dynamic repair is
/// bypassed. NY, not CAL, so overlay composition does not hide the router.
pub fn road_routed(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (routed, setup_s) = repeated_setup(
        run,
        &mut out,
        SETUPS_NY,
        |tracer| {
            let r = deploy::setup_routed(&dataset("NY"), tracer)?;
            let (took, entries) = (r.setup, r.shards.iter().map(|s| s.total_entries()).sum());
            Ok((r, took, entries))
        },
        deploy::Routed::stop,
    )?;
    setup_layers(run, &mut out, SETUPS_NY);
    let (encoded, _) = run.tracer.span("core.flat.encode", 0, |_| {
        routed.shards.iter().map(|s| s.encode().len()).sum::<usize>()
    });
    out.set("index_bytes", encoded as f64);
    out.set("core.flat.encoded_bytes", encoded as f64);
    out.set(
        "core.build.entries",
        routed.shards.iter().map(|s| s.total_entries()).sum::<usize>() as f64,
    );
    // The answer gate's reference: the unsharded index of the same graph.
    let reference = FlatIndex::from_index(&IndexBuilder::wc_index_plus().build(&routed.graph));

    let addr = routed.router.addr;
    let backends: Vec<SocketAddr> = routed.backends.iter().map(|b| b.addr).collect();
    let conns: Vec<Conn> = (1..=2)
        .map(|stream| Conn {
            addr,
            protocol: Protocol::Binary,
            shape: Shape::Batch(BATCH),
            reconnect_every: Some(SESSION_BATCHES),
            keys: KeyStream::uniform(&routed.graph, run.seed, stream),
        })
        .collect();
    let streams: Vec<KeyStream> = conns.iter().map(|c| c.keys.clone()).collect();
    let targets: Vec<(&WcIndex, SocketAddr)> =
        routed.shard_indexes.iter().zip(backends.iter().copied()).collect();
    let mut fresh = republish(run, &mut out, &targets, PUBLISHES_ROUTED / 2)?;
    let mut warm = load::phase(conns, Instant::now() + WARMUP, None, SLICE, None, &run.spill)?;
    let router_before = deploy::scrape(addr)?;
    let backends_before = scrape_all(&backends)?;
    let vm_before = proc_status("VmSize");
    let start = Instant::now();
    let mut measured = load::phase(
        std::mem::take(&mut warm.conns),
        start + run.window,
        Some(start),
        SLICE,
        run.request_tracer(),
        &run.spill,
    )?;
    let window = start.elapsed();
    let vm_after = proc_status("VmSize");
    let threads_after = proc_status("Threads");
    let router_after = deploy::scrape(addr)?;
    let rss_kb = proc_status("VmHWM");
    let backends_after = scrape_all(&backends)?;
    fresh.extend(republish(run, &mut out, &targets, PUBLISHES_ROUTED / 2)?);
    let backends_published = scrape_all(&backends)?;
    let sharded = ShardedIndex::from_parts(routed.shards.clone(), routed.overlay.clone())?;
    let graph = routed.graph.clone();
    routed.stop()?;
    let conns_opened: u64 = measured.logs.iter().map(|l| l.connections).sum();
    let (answers, samples) = read_back(&mut out, &mut warm, &mut measured)?;

    traffic_metrics(run, &mut out, &mut measured, &samples, window);
    freshness_metrics(&mut out, &fresh);
    out.set("rss_peak_mb", rss_kb as f64 / 1024.0);
    out.set("setup_s", setup_s);
    reactor_layers(&mut out, &deltas(&backends_after, &backends_before));
    reload_layers(run, &mut out, &deltas(&backends_published, &backends_after));
    let router = [router_after.delta(&router_before)];
    let backend_us = histogram(&router, "wcsd_router_backend_us", "");
    out.set("server.router.backend_us_p50", backend_us.quantile(0.5));
    out.set("server.router.backend_us_p99", backend_us.quantile(0.99));
    out.set("server.router.retries", counter(&router, "wcsd_router_retries_total"));
    out.set("server.router.failovers", counter(&router, "wcsd_router_failovers_total"));
    out.set("server.router.cache_hit_ratio", hit_ratio(&router));
    out.set("server.router.threads_after", threads_after as f64);
    out.set(
        "server.router.vmsize_mb_per_1k_conns",
        (vm_after as f64 - vm_before as f64) / 1024.0 / conns_opened.max(1) as f64 * 1000.0,
    );

    let keys = check_answers(&mut out, &streams, &answers, |k| reference.distance(k.0, k.1, k.2));
    out.set("loadgen.repeat_key_frac", repeat_frac(keys));
    oracle_sample(&mut out, &graph, &streams, |k| reference.distance(k.0, k.1, k.2));
    let sample = replay_sample(&streams);
    let overlay = sharded.overlay();
    out.set("core.overlay.boundary", overlay.num_boundary() as f64);
    out.set(
        "core.overlay.fanout_per_query",
        mean(
            &sample
                .iter()
                .map(|k| overlay.plan(k.0, k.1, k.2).fanout_queries() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    if run.trace {
        let start = Instant::now();
        for &(s, t, w) in &sample {
            black_box(sharded.distance(black_box(s), t, w));
        }
        out.set(
            "core.overlay.sharded_distance_us",
            start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
        );
    }
    kernel_layers(run, &mut out, &reference, &streams);
    Ok(out)
}

/// One served generation of the feed workload, for the answer gate.
struct Generation {
    /// When its `RELOAD` was sent; `None` for the initial snapshot.
    sent: Option<Instant>,
    /// When its `RELOAD` was acknowledged.
    acked: Option<Instant>,
    index: Arc<FlatIndex>,
}

/// The generations a read may have been answered from.
struct Served(Mutex<VecDeque<Generation>>);

impl Served {
    /// Whether `answer` is the answer of some generation served between
    /// `sent` and `received`. Generations that no later read can see are
    /// dropped on the way.
    fn accepts(&self, key: Key, answer: u32, sent: Instant, received: Instant) -> bool {
        let mut gens = self.0.lock().expect("generation list poisoned");
        while gens.len() > 1 && gens[1].acked.is_some_and(|a| a < sent) {
            gens.pop_front();
        }
        (0..gens.len()).any(|i| {
            let live_from = gens[i].sent.is_none_or(|s| s <= received);
            let live_until = gens.get(i + 1).and_then(|g| g.acked).is_none_or(|a| a >= sent);
            live_from
                && live_until
                && load::encode_answer(gens[i].index.distance(key.0, key.1, key.2)) == answer
        })
    }
}

/// What the closed-loop reader of road-feed saw.
#[derive(Default)]
struct ReadLog {
    window: Window,
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    spans: Vec<Span>,
}

/// Sends skewed binary point queries back to back until `stop`, checks
/// each answer on arrival, and records each round trip in a [`Window`]
/// timed from `start` (the latency of one read in `READ_SAMPLE_EVERY`).
/// Closed loop rather than a fixed rate: reads spaced far
/// apart found both CPUs idle, and their round trip then measured how fast
/// the host woke an idle virtual CPU, which moved the median by 40%
/// between two sets of runs of the same code. With a tracer, requests
/// alternate in runs of 64 between traced and untraced, as on the other
/// workloads.
fn reader(
    addr: SocketAddr,
    start: Instant,
    keys: &mut KeyStream,
    served: &Served,
    stop: &dyn Fn() -> bool,
    tracer: Option<&Tracer>,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut client = deploy::connect(addr, Protocol::Binary).ok();
    for i in 0u64.. {
        if stop() {
            break;
        }
        let key = keys.next_key();
        log.attempted += 1;
        let sent = Instant::now();
        let reply = match client.as_mut() {
            Some(c) => c.query(key.0, key.1, key.2),
            None => Err("not connected".to_string()),
        };
        let received = Instant::now();
        let Ok(answer) = reply else {
            log.failed += 1;
            client = deploy::connect(addr, Protocol::Binary).ok();
            continue;
        };
        if !served.accepts(key, load::encode_answer(answer), sent, received) {
            log.mismatches += 1;
        }
        let us = (received - sent).as_secs_f64() * 1e6;
        log.window.push(((received - start).as_secs_f64(), us, 1.0), i % READ_SAMPLE_EVERY == 0);
        match tracer.filter(|_| log.traced_us.len() < load::MAX_TRACED) {
            Some(t) if (i / 64).is_multiple_of(2) => {
                log.spans.push(Span {
                    name: "client.request",
                    id: t.id(),
                    parent: 0,
                    request: i + 1,
                    start_ns: t.ns(sent),
                    end_ns: t.ns(received),
                });
                log.traced_us.push(us);
            }
            Some(_) => log.untraced_us.push(us),
            None => {}
        }
    }
    log
}

/// road-feed: NY with seeded update batches streamed through repair →
/// freeze → encode → atomic write → `RELOAD`, beside closed-loop reads.
/// Why: dynamic repair, snapshots and reload decode/swap do the work, and
/// each reload empties the cache for its readers; the parallel batch and
/// the router are bypassed.
pub fn road_feed(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let build_before = Scrape::parse(&wcsd_obs::global().render());
    let (mut tier, setup_s) = repeated_setup(
        run,
        &mut out,
        SETUPS_NY,
        |tracer| {
            let d = deploy::setup_dynamic(&dataset("NY"), tracer)?;
            let (took, entries) = (d.setup, d.flat.total_entries());
            Ok((d, took, entries))
        },
        |d| d.server.stop().map(drop),
    )?;
    setup_layers(run, &mut out, SETUPS_NY);
    // DynamicWcIndex::new orders and builds in one call; the split comes
    // from the program's own build-phase histogram.
    let build = Scrape::parse(&wcsd_obs::global().render()).delta(&build_before);
    let phase_ms = |phase: &str| {
        let h = build.histogram("wcsd_build_phase_us", &[&format!("phase=\"{phase}\"")]);
        h.sum / 1000.0 / SETUPS_NY as f64
    };
    out.set("order.compute_ms", phase_ms("order"));
    out.set("core.build.build_ms", phase_ms("sweep") + phase_ms("finalize"));
    out.set("core.build.entries", tier.flat.total_entries() as f64);
    let (encoded, _) = run.tracer.span("core.flat.encode", 0, |_| tier.flat.encode());
    out.set("core.flat.encoded_bytes", encoded.len() as f64);
    drop(encoded);

    let addr = tier.server.addr;
    let served = Served(Mutex::new(VecDeque::from([Generation {
        sent: None,
        acked: None,
        index: Arc::clone(&tier.flat),
    }])));
    let graph = tier.dynamic.graph();
    let reader_stream = KeyStream::zipf_pool(graph, run.seed, 1, FEED_POOL, FEED_SKEW);
    let mut keys = reader_stream.clone();
    let warm_until = Instant::now() + WARMUP;
    let warm =
        reader(addr, Instant::now(), &mut keys, &served, &|| Instant::now() >= warm_until, None);
    sync_disks();
    let before = deploy::scrape(addr)?;

    let feed = Feed {
        run,
        addr,
        served: &served,
        path: run.snapshot_path("feed"),
        batches: ((run.window.as_secs_f64() / FEED_INTERVAL.as_secs_f64()).round() as usize).max(1),
        updates: UpdateStream::new(graph, run.seed),
    };
    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (fed, read, steal) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| load::sample_steal(start, SLICE, &done));
        let reader = scope.spawn(|| {
            let stop = || done.load(Ordering::SeqCst);
            reader(addr, start, &mut keys, &served, &stop, run.request_tracer())
        });
        lower_thread_priority();
        let fed = feed.run(&mut tier.dynamic, start);
        done.store(true, Ordering::SeqCst);
        let read = reader.join().expect("reader thread panicked");
        (fed, read, sampler.join().expect("steal sampler panicked"))
    });
    let window = start.elapsed();
    std::fs::remove_file(&feed.path).ok();
    let fed = fed?;
    let after = deploy::scrape(addr)?;
    let rss_kb = proc_status("VmHWM");
    tier.server.stop()?;

    out.attempted += warm.attempted + read.attempted + fed.attempted;
    out.failed += warm.failed + read.failed + fed.failed;
    let wrong = warm.mismatches + read.mismatches;
    out.mismatch(wrong, format!("{wrong} reads match no generation served while in flight"));
    out.mismatch(fed.mismatches, format!("{} feed answers disagree with C-BFS", fed.mismatches));
    calm_metrics(&mut out, &read.window, window, &steal);
    if run.trace {
        out.set("trace.overhead_pct", overhead_pct(read.traced_us, read.untraced_us));
    }
    freshness_metrics(&mut out, &fed.freshness_ms);
    out.set("index_bytes", fed.last_bytes as f64);
    out.set("rss_peak_mb", rss_kb as f64 / 1024.0);
    out.set("setup_s", setup_s);
    let delta = [after.delta(&before)];
    reactor_layers(&mut out, &delta);
    reload_layers(run, &mut out, &delta);
    out.set("core.dynamic.apply_ms", median(&mut run.tracer.durations_ms("core.dynamic.apply")));
    out.set("core.dynamic.freeze_ms", median(&mut run.tracer.durations_ms("core.dynamic.freeze")));
    out.set("core.dynamic.affected_hubs", fed.affected_hubs as f64);
    out.set("core.dynamic.reinserted_entries", fed.reinserted_entries as f64);
    out.set("core.dynamic.rebuild_fallbacks", fed.rebuild_fallbacks as f64);
    let sent = (warm.attempted + read.attempted) as usize;
    out.set(
        "loadgen.repeat_key_frac",
        repeat_frac(reader_stream.clone().take(sent).into_iter().map(gen::pack).collect()),
    );
    run.tracer.absorb(read.spans);
    kernel_layers(run, &mut out, &tier.dynamic.freeze(), &[reader_stream]);
    Ok(out)
}

/// The write side of road-feed.
struct Feed<'a> {
    run: &'a Run,
    addr: SocketAddr,
    served: &'a Served,
    path: PathBuf,
    batches: usize,
    updates: UpdateStream,
}

/// What the write side of road-feed did.
#[derive(Default)]
struct FeedLog {
    freshness_ms: Vec<(f64, u64)>,
    last_bytes: usize,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    affected_hubs: u64,
    reinserted_entries: u64,
    rebuild_fallbacks: u64,
}

impl Feed<'_> {
    /// Applies `batches` update batches, one every `FEED_INTERVAL` from
    /// `start`, publishing a generation after each; the freshness of a
    /// batch runs from its first update to the acknowledged `RELOAD`.
    fn run(&self, dynamic: &mut DynamicWcIndex, start: Instant) -> Result<FeedLog, String> {
        let mut log = FeedLog::default();
        let mut updates = self.updates.clone();
        let mut oracle = gen::Rng::new(self.run.seed, 0x0AC1E);
        let mut client = deploy::connect(self.addr, Protocol::Binary)?;
        for b in 0..self.batches as u32 {
            let due = start + FEED_INTERVAL * b;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let batch = updates.next_batch();
            log.attempted += 1;
            let steal = steal_ticks();
            let tracer = &self.run.tracer;
            let (published, took) = tracer.span("feed.batch", 0, |root| {
                tracer.span("core.dynamic.apply", root, |_| apply(dynamic, &batch, &mut log));
                self.publish(dynamic, &mut client, root)
            });
            match published {
                Ok(snapshot) => {
                    log.last_bytes = snapshot.len();
                    log.freshness_ms.push((took.as_secs_f64() * 1e3, steal_ticks() - steal));
                }
                Err(_) => {
                    log.failed += 1;
                    client = deploy::connect(self.addr, Protocol::Binary)?;
                }
            }
            // Cross-check two answers of the new generation against C-BFS
            // on the updated graph, outside the timed batch.
            let flat = dynamic.freeze();
            for _ in 0..2 {
                let (s, t, w) = random_key(&mut oracle, dynamic.graph());
                if flat.distance(s, t, w) != constrained_bfs(dynamic.graph(), s, t, w) {
                    log.mismatches += 1;
                }
            }
        }
        Ok(log)
    }

    /// freeze → encode → atomic write → `RELOAD` of the current index,
    /// registering the generation with the answer gate before it can be
    /// served. Returns the encoded size.
    fn publish(
        &self,
        dynamic: &mut DynamicWcIndex,
        client: &mut wcsd_server::Client,
        root: u64,
    ) -> Result<bytes::Bytes, String> {
        let tracer = &self.run.tracer;
        let (flat, _) = tracer.span("core.dynamic.freeze", root, |_| dynamic.freeze());
        let register = || {
            self.served.0.lock().expect("generation list poisoned").push_back(Generation {
                sent: Some(Instant::now()),
                acked: None,
                index: Arc::clone(&flat),
            })
        };
        let snapshot = deploy::publish(tracer, root, client, &self.path, &flat, register)?;
        let mut gens = self.served.0.lock().expect("generation list poisoned");
        gens.back_mut().expect("registered before the reload").acked = Some(Instant::now());
        Ok(snapshot)
    }
}

/// Applies one update batch, counting what the repair did.
fn apply(dynamic: &mut DynamicWcIndex, batch: &[Update], log: &mut FeedLog) {
    for update in batch {
        let rebuilds = dynamic.rebuild_count();
        let applied = match *update {
            Update::Add(u, v, q) => dynamic.insert_edge(u, v, q),
            Update::Remove(u, v) => dynamic.remove_edge(u, v),
        };
        let fallbacks = dynamic.rebuild_count() - rebuilds;
        log.rebuild_fallbacks += fallbacks as u64;
        if let (Update::Remove(..), true, 0, Some(stats)) =
            (update, applied, fallbacks, dynamic.last_repair())
        {
            log.affected_hubs += stats.affected_hubs as u64;
            log.reinserted_entries += stats.reinserted_entries as u64;
        }
        if !applied {
            log.failed += 1;
        }
    }
}

/// A uniform key over `g`'s vertices and qualities.
fn random_key(rng: &mut gen::Rng, g: &Graph) -> Key {
    let n = g.num_vertices() as u64;
    let levels = g.distinct_qualities();
    let s = rng.below(n) as u32;
    let t = rng.below(n) as u32;
    (s, t, levels[rng.below(levels.len() as u64) as usize])
}

/// Publishes the unchanged index `count` times to each target — a
/// generation with no updates: freeze → encode → atomic write → `RELOAD`.
/// Returns each publication's time until the last target acknowledged, in
/// milliseconds, with the steal ticks during it.
fn republish(
    run: &Run,
    out: &mut Outcome,
    targets: &[(&WcIndex, SocketAddr)],
    count: usize,
) -> Result<Vec<(f64, u64)>, String> {
    let mut clients = targets
        .iter()
        .map(|&(_, addr)| deploy::connect(addr, Protocol::Binary))
        .collect::<Result<Vec<_>, _>>()?;
    let paths: Vec<PathBuf> =
        (0..targets.len()).map(|i| run.snapshot_path(&i.to_string())).collect();
    let mut times = Vec::new();
    sync_disks();
    for _ in 0..count {
        out.attempted += 1;
        let steal = steal_ticks();
        // The frozen indexes and snapshots are returned out of the span and
        // freed after it: freeing the benchmark's copies is not part of the
        // time until the new generation is served.
        let (published, took) = run.tracer.span("publish", 0, |root| {
            let mut copies = Vec::new();
            for ((&(index, _), client), path) in targets.iter().zip(&mut clients).zip(&paths) {
                let (flat, _) =
                    run.tracer.span("core.flat.freeze", root, |_| FlatIndex::from_index(index));
                let snapshot = deploy::publish(&run.tracer, root, client, path, &flat, || {})?;
                copies.push((flat, snapshot));
            }
            Ok::<_, String>(copies)
        });
        match published {
            Ok(copies) => {
                times.push((took.as_secs_f64() * 1e3, steal_ticks() - steal));
                drop(copies);
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("publish failed: {e}"));
            }
        }
    }
    for path in paths {
        std::fs::remove_file(path).ok();
    }
    Ok(times)
}

/// `freshness_p50_ms` and `freshness_p90_ms` over the calm publications,
/// given each one's `(milliseconds, steal ticks)`. Each quantile is taken
/// per group of `FRESH_GROUP` consecutive calm samples, and the mean of
/// the middle half of the groups' values is reported. Dropping the outer
/// quarters keeps a burst of slow disk writes on the shared host, which
/// moves one group, out of the figure; averaging the rest keeps it from
/// jumping when a run's publications fall into two speeds (the host's disk
/// alternates between them) and the middle group lands on either side.
fn freshness_metrics(out: &mut Outcome, published: &[(f64, u64)]) {
    let steal: Vec<u64> = published.iter().map(|p| p.1).collect();
    let ms: Vec<f64> = published.iter().map(|p| p.0).collect();
    let mut quiet = calm(&steal);
    quiet.sort_unstable();
    let calm_ms = pick(&ms, &quiet);
    let mut groups: Vec<&[f64]> = calm_ms.chunks_exact(FRESH_GROUP).collect();
    if groups.is_empty() {
        groups.push(&calm_ms);
    }
    let over_groups = |q: f64| {
        let mut values: Vec<f64> = groups.iter().map(|g| quantile(&mut g.to_vec(), q)).collect();
        values.sort_by(f64::total_cmp);
        let quarter = values.len() / 4;
        mean(&values[quarter..values.len() - quarter])
    };
    out.set("freshness_p50_ms", over_groups(0.5));
    out.set("freshness_p90_ms", over_groups(0.9));
}

/// qps and latency of a closed-loop window, plus the tracing overhead.
fn traffic_metrics(
    run: &Run,
    out: &mut Outcome,
    measured: &mut load::Phase,
    samples: &[Sample],
    window: Duration,
) {
    let mut requests = Window::default();
    for &sample in samples {
        requests.push(sample, true);
    }
    calm_metrics(out, &requests, window, &measured.steal);
    let logs = &mut measured.logs;
    if run.trace {
        let traced = logs.iter().flat_map(|l| l.traced_us.iter().copied()).collect();
        let untraced = logs.iter().flat_map(|l| l.untraced_us.iter().copied()).collect();
        out.set("trace.overhead_pct", overhead_pct(traced, untraced));
    }
    for log in logs {
        run.tracer.absorb(std::mem::take(&mut log.spans));
    }
}

/// The requests of a measured window, by `SLICE`.
#[derive(Default)]
struct Window {
    /// Queries completed in each slice.
    queries: Vec<f64>,
    /// Sampled latencies (µs), each with the slices its request started
    /// and ended in.
    latency: Vec<(u32, u32, f32)>,
}

impl Window {
    fn slice(at: f64) -> u32 {
        (at.max(0.0) / SLICE.as_secs_f64()) as u32
    }

    /// Records a request that completed `at` seconds into the window; its
    /// latency joins the sample when `sampled`.
    fn push(&mut self, (at, us, queries): Sample, sampled: bool) {
        let end = Self::slice(at);
        if self.queries.len() <= end as usize {
            self.queries.resize(end as usize + 1, 0.0);
        }
        self.queries[end as usize] += queries;
        if sampled {
            self.latency.push((Self::slice(at - us / 1e6), end, us as f32));
        }
    }
}

/// qps, p50 and p99 over the calm slices of the window (see [`calm`]):
/// the queries completed in them per second of them, and the latencies of
/// the requests that started and ended in them. `steal` holds the steal
/// counter at every slice boundary. Also reports the window's steal as a
/// share of its CPU time.
fn calm_metrics(out: &mut Outcome, requests: &Window, window: Duration, steal: &[u64]) {
    let slices = ((window.as_secs_f64() / SLICE.as_secs_f64()) as usize).max(1);
    let slice_steal: Vec<u64> = (0..slices)
        .map(|i| match (steal.get(i), steal.get(i + 1)) {
            (Some(a), Some(b)) => b - a,
            _ => u64::MAX,
        })
        .collect();
    let quiet = calm(&slice_steal);
    let mut is_calm = vec![false; slices];
    for &i in &quiet {
        is_calm[i] = true;
    }
    let calm_at = |slice: u32| is_calm.get(slice as usize).copied().unwrap_or(false);
    let queries: f64 = quiet.iter().filter_map(|&i| requests.queries.get(i)).sum();
    let mut latency: Vec<f64> = requests
        .latency
        .iter()
        .filter(|&&(start, end, _)| calm_at(start) && calm_at(end))
        .map(|&(_, _, us)| f64::from(us))
        .collect();
    out.set("qps", queries / (quiet.len() as f64 * SLICE.as_secs_f64()));
    out.set("latency_p50_us", quantile(&mut latency, 0.5));
    out.set("latency_p99_us", quantile(&mut latency, 0.99));
    out.set("loadgen.samples", latency.len() as f64);
    if let (Some(first), Some(last)) = (steal.first(), steal.last()) {
        let cpu_ticks = window.as_secs_f64() * 100.0 * cpus() as f64;
        out.set("host.steal_pct", (last - first) as f64 / cpu_ticks * 100.0);
    }
}

/// CPUs this machine offers.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Median latency of traced requests over that of untraced ones, in %.
fn overhead_pct(mut traced: Vec<f64>, mut untraced: Vec<f64>) -> f64 {
    let base = median(&mut untraced);
    (median(&mut traced) - base) / base * 100.0
}

/// `server.reactor.*` and `server.cache.hit_ratio` from the servers'
/// `METRICS` deltas over the window.
fn reactor_layers(out: &mut Outcome, deltas: &[Scrape]) {
    let phase = |p: &str| histogram(deltas, "wcsd_request_phase_us", &format!("phase=\"{p}\""));
    out.set("server.reactor.parse_us", phase("parse").mean());
    out.set("server.reactor.write_us", phase("write").mean());
    out.set("server.reactor.queue_us_p50", phase("queue").quantile(0.5));
    out.set("server.reactor.queue_us_p99", phase("queue").quantile(0.99));
    out.set("server.reactor.execute_us_p50", phase("execute").quantile(0.5));
    out.set("server.reactor.execute_us_p99", phase("execute").quantile(0.99));
    out.set("server.reactor.shed", counter(deltas, "wcsd_shed_total"));
    out.set("server.cache.hit_ratio", hit_ratio(deltas));
}

/// Reload decode/swap means from the servers' `METRICS` deltas over the
/// publications, and the snapshot write and reload round trip from spans.
fn reload_layers(run: &Run, out: &mut Outcome, deltas: &[Scrape]) {
    let phase =
        |p: &str| histogram(deltas, "wcsd_reload_phase_us", &format!("phase=\"{p}\"")).mean();
    out.set("server.reload.decode_us", phase("decode"));
    out.set("server.reload.swap_us", phase("swap"));
    out.set("core.flat.encode_ms", median(&mut run.tracer.durations_ms("core.flat.encode")));
    out.set(
        "server.snapshot.write_ms",
        median(&mut run.tracer.durations_ms("server.snapshot.write")),
    );
    out.set("server.reload.rtt_ms", median(&mut run.tracer.durations_ms("server.reload")));
}

fn hit_ratio(deltas: &[Scrape]) -> f64 {
    let hits = counter(deltas, "wcsd_cache_hits_total");
    let misses = counter(deltas, "wcsd_cache_misses_total");
    hits / (hits + misses).max(1.0)
}

fn scrape_all(addrs: &[SocketAddr]) -> Result<Vec<Scrape>, String> {
    addrs.iter().map(|&a| deploy::scrape(a)).collect()
}

/// Per-server deltas between two scrapes of the same servers.
fn deltas(after: &[Scrape], before: &[Scrape]) -> Vec<Scrape> {
    after.iter().zip(before).map(|(a, b)| a.delta(b)).collect()
}

/// One histogram family member summed over several servers' deltas (the
/// servers share bucket bounds, so cumulative counts add bound by bound).
fn histogram(deltas: &[Scrape], name: &str, filter: &str) -> ScrapedHistogram {
    let mut sum = ScrapedHistogram::default();
    for h in deltas.iter().map(|d| d.histogram(name, &[filter])) {
        for (bound, count) in h.buckets {
            match sum.buckets.iter_mut().find(|(b, _)| *b == bound) {
                Some(entry) => entry.1 += count,
                None => sum.buckets.push((bound, count)),
            }
        }
        sum.sum += h.sum;
        sum.count += h.count;
    }
    sum.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    sum
}

/// A counter summed over several servers' deltas.
fn counter(deltas: &[Scrape], name: &str) -> f64 {
    deltas.iter().map(|d| d.sum_matching(name, &[])).sum()
}

/// Reads back both phases' spilled logs: each connection's answers (warm-up
/// then window) and the window's samples. Counts what was attempted and
/// failed.
fn read_back(
    out: &mut Outcome,
    warm: &mut load::Phase,
    measured: &mut load::Phase,
) -> Result<(Vec<Vec<u32>>, Vec<Sample>), String> {
    let (mut answers, mut samples) = (Vec::new(), Vec::new());
    for (w, m) in warm.logs.iter_mut().zip(&mut measured.logs) {
        let (mut conn_answers, _) = w.read_back()?;
        let (window_answers, window_samples) = m.read_back()?;
        conn_answers.extend(window_answers);
        answers.push(conn_answers);
        samples.extend(window_samples);
        out.attempted += w.attempted + m.attempted;
        out.failed += w.failed + m.failed;
    }
    Ok((answers, samples))
}

/// Checks every logged answer against `reference`, regenerating each
/// connection's keys from its stream (one checking thread per connection).
/// Returns the packed keys sent.
fn check_answers(
    out: &mut Outcome,
    streams: &[KeyStream],
    answers: &[Vec<u32>],
    reference: impl Fn(Key) -> Option<u32> + Sync,
) -> Vec<u64> {
    let reference = &reference;
    let checked: Vec<(Vec<u64>, u64, Option<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(answers)
            .enumerate()
            .map(|(i, (stream, answers))| {
                scope.spawn(move || {
                    let mut stream = stream.clone();
                    let (mut keys, mut wrong, mut first) = (Vec::new(), 0, None);
                    for &answer in answers {
                        let key = stream.next_key();
                        keys.push(gen::pack(key));
                        if answer != ANSWER_FAILED && load::encode_answer(reference(key)) != answer
                        {
                            wrong += 1;
                            first.get_or_insert_with(|| format!("{key:?} answered {answer}"));
                        }
                    }
                    let note =
                        first.map(|f| format!("connection {i}: {wrong} wrong answers, e.g. {f}"));
                    (keys, wrong, note)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("answer checker panicked")).collect()
    });
    let mut all_keys = Vec::new();
    for (keys, wrong, note) in checked {
        all_keys.extend(keys);
        out.mismatch(wrong, note.unwrap_or_default());
    }
    all_keys
}

/// Share of requests whose key was sent earlier in the run.
fn repeat_frac(mut keys: Vec<u64>) -> f64 {
    let total = keys.len();
    keys.sort_unstable();
    keys.dedup();
    (total - keys.len()) as f64 / total.max(1) as f64
}

/// The first `REPLAY` keys of every stream.
fn replay_sample(streams: &[KeyStream]) -> Vec<Key> {
    streams.iter().flat_map(|s| s.clone().take(REPLAY)).collect()
}

/// Cross-checks a sample of the run's keys against the online C-BFS oracle.
fn oracle_sample(
    out: &mut Outcome,
    graph: &Graph,
    streams: &[KeyStream],
    answer: impl Fn(Key) -> Option<u32>,
) {
    let sample = replay_sample(streams);
    let step = (sample.len() / ORACLE_SAMPLE).max(1);
    for &key in sample.iter().step_by(step) {
        if answer(key) != constrained_bfs(graph, key.0, key.1, key.2) {
            out.mismatch(1, format!("{key:?} disagrees with the C-BFS oracle"));
        }
    }
}

/// `core.kernel.*` and `core.parallel.batch_us`: the label sizes of the
/// replay sample (always; an exact count) and, in trace mode, in-process
/// replays of it through `FlatIndex::distance` and `par_distances_with`.
fn kernel_layers(run: &Run, out: &mut Outcome, index: &FlatIndex, streams: &[KeyStream]) {
    let sample = replay_sample(streams);
    let entries: Vec<f64> =
        sample.iter().map(|k| (index.label_len(k.0) + index.label_len(k.1)) as f64).collect();
    out.set("core.kernel.label_entries_per_query", mean(&entries));
    out.set("trace.spans", run.tracer.len() as f64);
    if !run.trace {
        return;
    }
    let mut per_query_ns = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for &(s, t, w) in &sample {
            black_box(index.distance(black_box(s), t, w));
        }
        per_query_ns.push(start.elapsed().as_secs_f64() * 1e9 / sample.len() as f64);
    }
    out.set("core.kernel.query_ns", median(&mut per_query_ns));
    let config = ServerConfig::default();
    let mut per_batch_us = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        for batch in sample.chunks(BATCH) {
            black_box(parallel::par_distances_with(
                index,
                black_box(batch),
                config.batch_threads,
                config.query_impl,
            ));
        }
        per_batch_us
            .push(start.elapsed().as_secs_f64() * 1e6 / sample.len().div_ceil(BATCH) as f64);
    }
    out.set("core.parallel.batch_us", median(&mut per_batch_us));
}
