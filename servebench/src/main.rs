//! One benchmark command for the wcsd serving tier.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <road-batch|social-point|road-feed|road-routed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload brings the system up in process exactly as a user gets
//! it with no flags, drives it from at most two client connections, checks
//! every answer, and prints a table followed by one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `servebench/README.md` for the workloads and metrics.

mod deploy;
mod gen;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::Run;

/// Runs one workload.
type Workload = fn(&Run) -> Result<report::Outcome, String>;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [(&str, Workload); 4] = [
    ("road-batch", workloads::road_batch),
    ("social-point", workloads::social_point),
    ("road-feed", workloads::road_feed),
    ("road-routed", workloads::road_routed),
];

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let &(workload, run) =
        WORKLOADS.iter().find(|(w, _)| *w == name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|_| "--seed must be an integer".to_string())?;
    let seconds: u64 =
        value("--seconds")?.parse().map_err(|_| "--seconds must be an integer".to_string())?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, run, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: servebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|(w, _)| w).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        tracer: trace::Tracer::new(),
        spill: out_dir.join(format!("spill-{}-{}", args.workload, std::process::id())),
        out_dir,
        workload: args.workload,
    };
    let mut outcome = match (args.run)(&run) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_exact_counts(&run, &mut outcome) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if run.trace {
        let path = run.out_dir.join(format!("trace-{}-seed{}.json", run.workload, run.seed));
        if let Err(e) = std::fs::write(&path, run.tracer.to_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {} spans to {}", run.tracer.len(), path.display());
    }
    report::print(&outcome, run.trace);
    if outcome.mismatches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Compares the exact counts with those an earlier run of the same binary
/// and seed recorded, then records them. Any difference fails the run.
fn check_exact_counts(run: &Run, outcome: &mut report::Outcome) -> Result<(), String> {
    let binary =
        std::fs::read("/proc/self/exe").map_err(|e| format!("cannot read own binary: {e}"))?;
    let fingerprint = binary
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    let mut text = format!("binary {fingerprint:016x}\n");
    for name in report::EXACT {
        text.push_str(&format!("{name} {:?}\n", outcome.values.get(name)));
    }
    let name = format!("counts-{}-seed{}-{}s.txt", run.workload, run.seed, run.window.as_secs());
    let path = run.out_dir.join(name);
    if let Some(previous) = read_if_same_binary(&path, fingerprint) {
        if previous != text {
            outcome.mismatch(1, format!(
                "exact counts differ from an earlier run with the same seed:\n{previous}--- now ---\n{text}"
            ));
        }
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_if_same_binary(path: &Path, fingerprint: u64) -> Option<String> {
    let previous = std::fs::read_to_string(path).ok()?;
    previous.starts_with(&format!("binary {fingerprint:016x}\n")).then_some(previous)
}
