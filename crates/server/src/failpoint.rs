//! Deterministic fault injection at named sites.
//!
//! Production code sprinkles [`fire`] calls at a handful of **sites** (plain
//! string names like `worker.batch` or `reactor.accept`). A site is inert —
//! `fire` returns `None` at the cost of one mutex-guarded map lookup — unless
//! an action has been armed for it, either programmatically ([`set`], used by
//! the chaos test suite) or through the `WCSD_FAILPOINTS` environment
//! variable (used by the CI chaos smoke and manual drills):
//!
//! ```text
//! WCSD_FAILPOINTS="worker.batch=delay:50;reactor.accept=3*refuse"
//! ```
//!
//! Each entry is `site=[count*]action` where `action` is one of
//!
//! | action        | meaning at the site                                    |
//! |---------------|--------------------------------------------------------|
//! | `delay:<ms>`  | sleep `<ms>` milliseconds, then continue normally      |
//! | `fail`        | the site reports an injected failure                   |
//! | `refuse`      | the site refuses the unit of work (e.g. drops a fresh  |
//! |               | connection, skips a probe)                             |
//! | `partial:<n>` | the site performs only the first `<n>` bytes of a      |
//! |               | write, then reports failure (torn-write simulation)    |
//!
//! The sites are `reactor.accept` (a freshly accepted connection),
//! `worker.batch` (a `BATCH` job picked up by a pool worker — in router
//! workers too, since the router runs on the same reactor), `snapshot.write`
//! (a crash-safe snapshot write), and `router.probe` (one health probe).
//!
//! An optional `count*` prefix arms the action for exactly `count` firings,
//! after which the site goes inert again — this is how a test says "refuse
//! the next 3 accepts, then recover". Without a count the action persists
//! until [`clear`]ed.
//!
//! The registry is process-global and intentionally tiny: deterministic by
//! construction (no randomness, no timers beyond the explicit `delay`), safe
//! Rust only, and zero dependencies. `Delay` sleeps *inside* `fire` so call
//! sites need no special handling for it; every other action is returned for
//! the site to interpret.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed failpoint does when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Sleep this many milliseconds (performed inside [`fire`]), then let the
    /// site continue normally.
    Delay(u64),
    /// The site should report an injected failure.
    Fail,
    /// The site should refuse / drop the unit of work.
    Refuse,
    /// The site should write only the first `n` bytes, then report failure.
    PartialWrite(usize),
}

#[derive(Debug)]
struct Entry {
    action: Action,
    /// `None` fires forever; `Some(n)` fires `n` more times.
    remaining: Option<u64>,
}

fn registry() -> &'static Mutex<HashMap<String, Entry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Entry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(spec) = std::env::var("WCSD_FAILPOINTS") {
            match parse_spec(&spec) {
                Ok(entries) => map.extend(entries),
                Err(e) => eprintln!("wcsd: ignoring malformed WCSD_FAILPOINTS: {e}"),
            }
        }
        Mutex::new(map)
    })
}

fn parse_spec(spec: &str) -> Result<Vec<(String, Entry)>, String> {
    let mut entries = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rhs) = part.split_once('=').ok_or_else(|| format!("missing `=` in {part:?}"))?;
        let (remaining, action) = match rhs.split_once('*') {
            Some((count, action)) => {
                let count: u64 =
                    count.trim().parse().map_err(|_| format!("bad count in {part:?}"))?;
                (Some(count), action)
            }
            None => (None, rhs),
        };
        entries.push((site.trim().to_string(), Entry { action: parse_action(action)?, remaining }));
    }
    Ok(entries)
}

fn parse_action(text: &str) -> Result<Action, String> {
    let text = text.trim();
    if let Some(ms) = text.strip_prefix("delay:") {
        return ms.trim().parse().map(Action::Delay).map_err(|_| format!("bad delay {text:?}"));
    }
    if let Some(n) = text.strip_prefix("partial:") {
        return n
            .trim()
            .parse()
            .map(Action::PartialWrite)
            .map_err(|_| format!("bad partial {text:?}"));
    }
    match text {
        "fail" => Ok(Action::Fail),
        "refuse" => Ok(Action::Refuse),
        other => Err(format!("unknown action {other:?}")),
    }
}

/// Fires the failpoint at `site`. Returns `None` when the site is inert (the
/// overwhelmingly common case) or its count budget is spent. A `Delay` action
/// sleeps here and is also returned, so sites that only ever arm delays can
/// ignore the return value entirely.
pub fn fire(site: &str) -> Option<Action> {
    let action = {
        let mut map = registry().lock().expect("failpoint registry poisoned");
        let entry = map.get_mut(site)?;
        if let Some(remaining) = &mut entry.remaining {
            if *remaining == 0 {
                return None;
            }
            *remaining -= 1;
        }
        entry.action
    };
    if let Action::Delay(ms) = action {
        std::thread::sleep(Duration::from_millis(ms));
    }
    Some(action)
}

/// Arms `site` with `action`. `count` limits how many times it fires
/// (`None` = until [`clear`]ed). Replaces any previous arming of the site.
pub fn set(site: &str, action: Action, count: Option<u64>) {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .insert(site.to_string(), Entry { action, remaining: count });
}

/// Disarms `site`; a no-op if it was not armed.
pub fn clear(site: &str) {
    registry().lock().expect("failpoint registry poisoned").remove(site);
}

/// Disarms every site, including any armed from `WCSD_FAILPOINTS`.
pub fn reset() {
    registry().lock().expect("failpoint registry poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests share the process-global registry, so each one uses its own site
    // names and cleans up after itself rather than calling `reset()`.

    #[test]
    fn inert_site_fires_nothing() {
        assert_eq!(fire("test.inert"), None);
    }

    #[test]
    fn set_fire_clear_roundtrip() {
        set("test.roundtrip", Action::Fail, None);
        assert_eq!(fire("test.roundtrip"), Some(Action::Fail));
        assert_eq!(fire("test.roundtrip"), Some(Action::Fail), "no count means persistent");
        clear("test.roundtrip");
        assert_eq!(fire("test.roundtrip"), None);
    }

    #[test]
    fn count_budget_is_spent_exactly() {
        set("test.budget", Action::Refuse, Some(2));
        assert_eq!(fire("test.budget"), Some(Action::Refuse));
        assert_eq!(fire("test.budget"), Some(Action::Refuse));
        assert_eq!(fire("test.budget"), None, "budget of 2 is exhausted");
        clear("test.budget");
    }

    #[test]
    fn delay_actually_sleeps() {
        set("test.delay", Action::Delay(30), Some(1));
        let start = std::time::Instant::now();
        assert_eq!(fire("test.delay"), Some(Action::Delay(30)));
        assert!(start.elapsed() >= Duration::from_millis(30));
        clear("test.delay");
    }

    #[test]
    fn parses_env_spec_grammar() {
        let entries = parse_spec("a.b=fail; c.d=3*refuse ;e.f=delay:250;g.h=2*partial:17").unwrap();
        let lookup: HashMap<_, _> =
            entries.into_iter().map(|(site, e)| (site, (e.action, e.remaining))).collect();
        assert_eq!(lookup["a.b"], (Action::Fail, None));
        assert_eq!(lookup["c.d"], (Action::Refuse, Some(3)));
        assert_eq!(lookup["e.f"], (Action::Delay(250), None));
        assert_eq!(lookup["g.h"], (Action::PartialWrite(17), Some(2)));

        assert!(parse_spec("no-equals").unwrap_err().contains("missing `=`"));
        assert!(parse_spec("a=explode").unwrap_err().contains("unknown action"));
        assert!(parse_spec("a=x*fail").unwrap_err().contains("bad count"));
        assert!(parse_spec("a=delay:soon").unwrap_err().contains("bad delay"));
        assert!(parse_spec("").unwrap().is_empty());
        assert!(parse_spec(" ; ;").unwrap().is_empty());
    }
}
