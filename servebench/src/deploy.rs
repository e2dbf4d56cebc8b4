//! Brings up the serving tier in process, exactly as a user gets it with no
//! flags (`IndexBuilder::wc_index_plus()`, a canonical `FlatIndex`,
//! `ServerConfig::default()`, `Partition::build` with the CLI's seed 0 and
//! `RouterConfig::default()`), and takes it down again.

use crate::trace::Tracer;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wcsd_bench::datasets::Dataset;
use wcsd_core::dynamic::DynamicWcIndex;
use wcsd_core::overlay::OverlayIndex;
use wcsd_core::{FlatIndex, IndexBuilder, WcIndex};
use wcsd_graph::partition::Partition;
use wcsd_graph::Graph;
use wcsd_obs::scrape::Scrape;
use wcsd_server::router::{Router, RouterConfig};
use wcsd_server::server::{Server, ServerConfig, ServerSnapshot};
use wcsd_server::{Client, Protocol};

/// Shards of the routed tier (`wcsd-cli partition`'s default).
pub const SHARDS: usize = 2;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A server or router running on its own thread.
pub struct Running {
    pub addr: SocketAddr,
    handle: JoinHandle<ServerSnapshot>,
}

impl Running {
    /// Sends `SHUTDOWN` and waits for the serving thread to end.
    pub fn stop(self) -> Result<ServerSnapshot, String> {
        let mut client = connect(self.addr, Protocol::Binary)?;
        client.shutdown()?;
        self.handle.join().map_err(|_| format!("server thread at {} panicked", self.addr))
    }
}

/// Opens a client connection, retrying while the listener comes up.
pub fn connect(addr: SocketAddr, protocol: Protocol) -> Result<Client, String> {
    Client::connect_retry_with(addr, CONNECT_TIMEOUT, protocol)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))
}

/// Serves `index` with the default configuration.
pub fn serve(index: Arc<FlatIndex>) -> Result<Running, String> {
    let server = Server::bind_flat(index, ServerConfig::default())
        .map_err(|e| format!("cannot bind server: {e}"))?;
    let addr = server.local_addr();
    Ok(Running { addr, handle: std::thread::spawn(move || server.run()) })
}

/// Waits until `addr` answers its first query.
pub fn first_reply(addr: SocketAddr) -> Result<(), String> {
    let answer = connect(addr, Protocol::Binary)?.query(0, 0, 1)?;
    if answer != Some(0) {
        return Err(format!("first query answered {answer:?}, expected Some(0)"));
    }
    Ok(())
}

/// One `METRICS` scrape of `addr`.
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    Ok(Scrape::parse(&connect(addr, Protocol::Binary)?.metrics(false)?))
}

/// A single server over the unsharded index.
pub struct Single {
    pub graph: Graph,
    pub index: WcIndex,
    pub flat: Arc<FlatIndex>,
    pub server: Running,
    pub setup: Duration,
}

/// generate → order → build → freeze → bind, until the first reply.
pub fn setup_single(dataset: &Dataset, tracer: &Tracer) -> Result<Single, String> {
    let start = Instant::now();
    let (single, _) = tracer.span("setup", 0, |root| -> Result<Single, String> {
        let (graph, _) = tracer.span("graph.generate", root, |_| dataset.generate());
        let builder = IndexBuilder::wc_index_plus();
        let (order, _) =
            tracer.span("order.compute", root, |_| builder.config().ordering.compute(&graph));
        let (index, _) =
            tracer.span("core.build", root, |_| builder.build_with_order(&graph, order));
        let (flat, _) =
            tracer.span("core.flat.freeze", root, |_| Arc::new(FlatIndex::from_index(&index)));
        let (server, _) = tracer.span("server.bind", root, |_| -> Result<Running, String> {
            let server = serve(Arc::clone(&flat))?;
            first_reply(server.addr)?;
            Ok(server)
        });
        Ok(Single { graph, index, flat, server: server?, setup: Duration::ZERO })
    });
    let mut single = single?;
    single.setup = start.elapsed();
    Ok(single)
}

/// A single server over a dynamic index (the feed workload).
pub struct Dynamic {
    pub dynamic: DynamicWcIndex,
    pub flat: Arc<FlatIndex>,
    pub server: Running,
    pub setup: Duration,
}

/// generate → order + build (`DynamicWcIndex::new`) → freeze → bind.
pub fn setup_dynamic(dataset: &Dataset, tracer: &Tracer) -> Result<Dynamic, String> {
    let start = Instant::now();
    let (dynamic, _) = tracer.span("setup", 0, |root| -> Result<Dynamic, String> {
        let (graph, _) = tracer.span("graph.generate", root, |_| dataset.generate());
        let (mut dynamic, _) = tracer.span("core.dynamic.new", root, |_| {
            DynamicWcIndex::new(&graph, IndexBuilder::wc_index_plus())
        });
        let (flat, _) = tracer.span("core.flat.freeze", root, |_| dynamic.freeze());
        let (server, _) = tracer.span("server.bind", root, |_| -> Result<Running, String> {
            let server = serve(Arc::clone(&flat))?;
            first_reply(server.addr)?;
            Ok(server)
        });
        Ok(Dynamic { dynamic, flat, server: server?, setup: Duration::ZERO })
    });
    let mut dynamic = dynamic?;
    dynamic.setup = start.elapsed();
    Ok(dynamic)
}

/// The routed tier: one backend per shard behind a router.
pub struct Routed {
    pub graph: Graph,
    pub overlay: OverlayIndex,
    pub shard_indexes: Vec<WcIndex>,
    pub shards: Vec<Arc<FlatIndex>>,
    pub backends: Vec<Running>,
    pub router: Running,
    pub setup: Duration,
}

impl Routed {
    /// Stops the router, then every backend.
    pub fn stop(self) -> Result<(), String> {
        self.router.stop()?;
        for backend in self.backends {
            backend.stop()?;
        }
        Ok(())
    }
}

/// generate → partition → overlay → per shard (order → build → freeze) →
/// bind backends → bind router, until the router answers its first query.
pub fn setup_routed(dataset: &Dataset, tracer: &Tracer) -> Result<Routed, String> {
    let start = Instant::now();
    let (routed, _) = tracer.span("setup", 0, |root| -> Result<Routed, String> {
        let (graph, _) = tracer.span("graph.generate", root, |_| dataset.generate());
        let (partition, _) =
            tracer.span("graph.partition", root, |_| Partition::build(&graph, SHARDS, 0));
        let (overlay, _) =
            tracer.span("core.overlay.build", root, |_| OverlayIndex::build(&graph, &partition));
        let builder = IndexBuilder::wc_index_plus();
        let mut shard_indexes = Vec::new();
        let mut shards = Vec::new();
        for shard in 0..SHARDS as u32 {
            let sub = partition.shard_subgraph(&graph, shard);
            let (order, _) =
                tracer.span("order.compute", root, |_| builder.config().ordering.compute(&sub));
            let (index, _) =
                tracer.span("core.build", root, |_| builder.build_with_order(&sub, order));
            let (flat, _) =
                tracer.span("core.flat.freeze", root, |_| Arc::new(FlatIndex::from_index(&index)));
            shard_indexes.push(index);
            shards.push(flat);
        }
        let (tier, _) = tracer.span("server.bind", root, |_| -> Result<_, String> {
            let backends =
                shards.iter().map(|flat| serve(Arc::clone(flat))).collect::<Result<Vec<_>, _>>()?;
            let groups = backends.iter().map(|b| vec![b.addr.to_string()]).collect();
            let router = Router::bind(overlay.clone(), groups, RouterConfig::default())
                .map_err(|e| format!("cannot bind router: {e}"))?;
            let addr = router.local_addr();
            let router = Running { addr, handle: std::thread::spawn(move || router.run()) };
            first_reply(addr)?;
            Ok((backends, router))
        });
        let (backends, router) = tier?;
        Ok(Routed {
            graph,
            overlay,
            shard_indexes,
            shards,
            backends,
            router,
            setup: Duration::ZERO,
        })
    });
    let mut routed = routed?;
    routed.setup = start.elapsed();
    Ok(routed)
}

/// encode → atomic write → `RELOAD`, each in its own span under `parent`;
/// `before_reload` runs just before the `RELOAD` is sent. Returns the
/// encoded snapshot, so the caller can free it after its timing ends.
pub fn publish(
    tracer: &Tracer,
    parent: u64,
    client: &mut Client,
    path: &Path,
    flat: &FlatIndex,
    before_reload: impl FnOnce(),
) -> Result<bytes::Bytes, String> {
    let (bytes, _) = tracer.span("core.flat.encode", parent, |_| flat.encode());
    let (written, _) = tracer.span("server.snapshot.write", parent, |_| {
        wcsd_server::write_snapshot_atomic(path, &bytes)
    });
    written?;
    let path = path.to_str().ok_or_else(|| format!("non-UTF-8 path {}", path.display()))?;
    before_reload();
    let (info, _) = tracer.span("server.reload", parent, |_| client.reload(path));
    let info = info?;
    if info.entries != flat.total_entries() as u64 {
        return Err(format!(
            "reload reports {} entries, the snapshot holds {}",
            info.entries,
            flat.total_entries()
        ));
    }
    Ok(bytes)
}
