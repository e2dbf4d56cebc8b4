//! Metric records, order statistics, and readings of the process status.

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`], mapping a non-finite value (an empty sample) to 0.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Median of `values` (sorted in place); 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `VmSize`, `Threads`),
/// in the unit the kernel prints (kB for sizes); 0 when unavailable.
pub fn proc_status(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// The hypervisor steal counter: ticks (1/100 s, summed over CPUs) this
/// machine's CPUs were ready to run but the host ran something else.
pub fn steal_ticks() -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/stat") else { return 0 };
    text.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|steal| steal.parse().ok())
        .unwrap_or(0)
}

/// The calm samples, given each one's steal ticks: every sample the host
/// took no CPU time from when that is at least a quarter of them, else the
/// quarter (rounded up) with the least steal, ties in sample order. Time
/// the host took the CPUs away measures the host, not the program.
pub fn calm(steal: &[u64]) -> Vec<usize> {
    let quarter = steal.len().div_ceil(4);
    let quiet: Vec<usize> = (0..steal.len()).filter(|&i| steal[i] == 0).collect();
    if quiet.len() >= quarter {
        return quiet;
    }
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by_key(|&i| (steal[i], i));
    order.truncate(quarter);
    order
}

/// The values at `indices`.
pub fn pick(values: &[f64], indices: &[usize]) -> Vec<f64> {
    indices.iter().map(|&i| values[i]).collect()
}

/// Writes every dirty page of the machine to disk (`sync(2)`), so the
/// program's snapshot fsyncs timed next do not also wait for the
/// benchmark's own log files to reach the disk.
pub fn sync_disks() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// Lowers the calling thread to the lowest CPU priority (nice 19), as a
/// background update job on a serving machine would run, so the feed's
/// repair work yields the CPU to the server and its readers. Best effort:
/// on failure the thread keeps its priority.
pub fn lower_thread_priority() {
    // `/proc/thread-self/stat` starts with the calling thread's id.
    let Some(tid) = std::fs::read_to_string("/proc/thread-self/stat")
        .ok()
        .and_then(|stat| stat.split_whitespace().next()?.parse::<u32>().ok())
    else {
        return;
    };
    extern "C" {
        fn setpriority(which: i32, who: u32, prio: i32) -> i32;
    }
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: setpriority(2) takes plain integers and touches no memory of
    // ours; on Linux `PRIO_PROCESS` with a thread id applies to that thread
    // alone, and an error only leaves the priority unchanged.
    unsafe {
        setpriority(PRIO_PROCESS, tid, 19);
    }
}
