//! Connection churn through the router. Every client connection is a file
//! descriptor on the router's reactor, not a thread, so hundreds of short
//! connections must leave the process's thread count and address space
//! where they found them.
//!
//! This suite is its own test binary on purpose: it reads process-wide
//! counters from `/proc/self/status`, which concurrently running tests in
//! the same process would disturb.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};
use wcsd::prelude::*;
use wcsd_graph::generators::{barabasi_albert, QualityAssigner};

/// One numeric field of `/proc/self/status` (`Threads`, or `VmSize` in kB).
fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no {field} in /proc/self/status"))
}

/// 500 sequential short `STATS` connections to an in-process router: the
/// thread count returns to its starting value and `VmSize` grows by less
/// than 64 MiB (a thread stack kept per accepted connection would cost
/// about 2 MiB each).
#[test]
fn router_connection_churn_keeps_threads_and_memory_flat() {
    let g = barabasi_albert(40, 2, &QualityAssigner::uniform(4), 8);
    let partition = Partition::build(&g, 2, 2);
    let sharded = ShardedIndex::build(&g, &partition);
    let mut backends = Vec::new();
    for shard in sharded.shards() {
        let server = Server::bind_flat(Arc::clone(shard), ServerConfig::default()).expect("bind");
        let addr = server.local_addr().to_string();
        backends.push((addr, std::thread::spawn(move || server.run())));
    }
    let groups = backends.iter().map(|(addr, _)| vec![addr.clone()]).collect();
    let router = Router::bind(sharded.overlay().clone(), groups, RouterConfig::default())
        .expect("bind router");
    let router_addr = router.local_addr().to_string();
    let router_handle = std::thread::spawn(move || router.run());

    // One warm-up exchange, so every thread the cluster runs exists before
    // the baseline is read.
    Client::connect(&router_addr).expect("connect").stats().expect("warm-up stats");
    let threads_before = proc_status("Threads");
    let vm_before_kb = proc_status("VmSize");

    for i in 0..500 {
        let mut client = Client::connect(&router_addr).expect("connect");
        client.stats().unwrap_or_else(|e| panic!("stats on connection {i}: {e}"));
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    while proc_status("Threads") > threads_before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let threads_after = proc_status("Threads");
    let vm_growth_kb = proc_status("VmSize").saturating_sub(vm_before_kb);
    assert_eq!(threads_after, threads_before, "threads did not return to the starting value");
    assert!(
        vm_growth_kb < 64 * 1024,
        "VmSize grew by {} MiB over 500 connections",
        vm_growth_kb / 1024
    );

    let snapshot = {
        let mut c = Client::connect(&router_addr).expect("connect router");
        c.shutdown().expect("router shutdown");
        router_handle.join().expect("router thread")
    };
    assert!(snapshot.connections >= 502, "router counted {} connections", snapshot.connections);
    assert_eq!(snapshot.live_connections, 0, "every connection was reaped");
    for (addr, handle) in backends {
        Client::connect(&addr).expect("connect backend").shutdown().expect("backend shutdown");
        handle.join().expect("backend thread");
    }
}
