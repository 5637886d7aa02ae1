//! Deterministic fault injection for conformance testing (the
//! `failpoints` cargo feature).
//!
//! A *failpoint* is a named site in the monitoring stack where a test
//! can inject a fault: a worker panic, a slow sink, or an ingestion
//! error. Sites are compiled in only when the `failpoints` feature is
//! enabled — the [`crate::fail_point!`] macro expands to **nothing**
//! without it, so production builds carry zero overhead (no extra
//! branches on `Engine::push` or the runner hot loop).
//!
//! # Site catalog
//!
//! | site | location | supported actions |
//! |---|---|---|
//! | `runner::worker::recv` | worker loop, before each message is processed | `Panic` (kill the worker), `Delay` (slow worker ⇒ queue saturation / backpressure) |
//! | `runner::worker::frame` | worker loop, before a frame's samples are ingested | `Panic` (kill the worker at a frame boundary), `Delay` (slow frame processing) |
//! | `runner::sink` | worker loop, before each `MatchSink::on_match` | `Panic` (crashing sink), `Delay` (slow sink) |
//! | `attachment::ingest` | `Attachment::ingest` (one sample) and `Attachment::ingest_frame` (once per attachment per frame), before gap resolution | `Error` (injected ingestion error), `Panic`, `Delay` |
//! | `serve::accept` | `spring serve` event loop, before each `accept(2)` | `Error` (transient accept failure — the server must keep serving), `Delay` (slow accept path), `Panic` |
//! | `serve::read` | `spring serve` event loop, before each connection `read(2)` | `Error` (connection read fault ⇒ that connection is dropped, others live on), `Delay`, `Panic` |
//! | `serve::write` | `spring serve` event loop, before each connection `write(2)` | `Error` (connection write fault ⇒ that connection is dropped, others live on), `Delay`, `Panic` |
//!
//! # Determinism
//!
//! Rules fire on exact hit counts ([`FailRule::after`] /
//! [`FailRule::times`]) or with a probability drawn from a seeded
//! [`spring_util::Rng`] ([`failpoints::seed`](seed)), so every fault
//! schedule is replayable from a `u64` seed — the same discipline the
//! differential fuzz driver uses for scenarios.
//!
//! # Test isolation
//!
//! The registry is process-global; tests that configure failpoints run
//! concurrently in one binary. Wrap each such test in
//! [`exclusive`], which serializes them and clears the registry on drop:
//!
//! ```
//! use spring_monitor::failpoints::{self, FailAction, FailRule};
//!
//! let _guard = failpoints::exclusive();
//! failpoints::configure("runner::worker::recv", FailRule::new(FailAction::Panic).after(3));
//! // … drive a Runner; the 4th worker message panics …
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use spring_util::Rng;

/// What a failpoint does when its rule fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailAction {
    /// Panic the current thread (simulated worker/sink crash).
    Panic,
    /// Sleep this many milliseconds (slow sink, saturated queue).
    Delay(u64),
    /// Report an injected error to the call site (only meaningful at
    /// sites that can return an error, e.g. `attachment::ingest`).
    Error,
}

/// When and how often a configured site fires.
#[derive(Debug, Clone)]
pub struct FailRule {
    action: FailAction,
    /// Hits to let through unharmed before the rule becomes eligible.
    after: u64,
    /// Maximum number of firings (`None` = unlimited).
    times: Option<u64>,
    /// Independent firing probability per eligible hit (`None` = always).
    probability: Option<f64>,
}

impl FailRule {
    /// A rule that fires `action` on every hit.
    pub fn new(action: FailAction) -> Self {
        FailRule {
            action,
            after: 0,
            times: None,
            probability: None,
        }
    }

    /// Lets the first `n` hits through before the rule may fire.
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.after = n;
        self
    }

    /// Fires at most `n` times, then the site goes quiet.
    #[must_use]
    pub fn times(mut self, n: u64) -> Self {
        self.times = Some(n);
        self
    }

    /// Fires each eligible hit independently with probability `p`
    /// (drawn from the registry RNG — see [`seed`]).
    #[must_use]
    pub fn probability(mut self, p: f64) -> Self {
        self.probability = Some(p.clamp(0.0, 1.0));
        self
    }
}

#[derive(Debug)]
struct SiteState {
    rule: FailRule,
    hits: u64,
    fired: u64,
}

struct Registry {
    sites: HashMap<String, SiteState>,
    rng: Rng,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            sites: HashMap::new(),
            rng: Rng::seed_from_u64(0),
        }
    }
}

static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Installs `rule` at `site`, replacing any existing rule and resetting
/// its hit/fire counters.
pub fn configure(site: &str, rule: FailRule) {
    registry().sites.insert(
        site.to_string(),
        SiteState {
            rule,
            hits: 0,
            fired: 0,
        },
    );
}

/// Seeds the registry RNG used by probabilistic rules (deterministic:
/// same seed + same hit order ⇒ same firings).
pub fn seed(seed: u64) {
    registry().rng = Rng::seed_from_u64(seed);
}

/// Removes the rule at `site` (missing sites are fine).
pub fn remove(site: &str) {
    registry().sites.remove(site);
}

/// Removes every configured rule (the RNG seed is kept).
pub fn clear() {
    registry().sites.clear();
}

/// How many times the rule at `site` has fired (0 when unconfigured).
pub fn fired(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.fired)
}

/// How many times `site` has been evaluated (0 when unconfigured).
pub fn hits(site: &str) -> u64 {
    registry().sites.get(site).map_or(0, |s| s.hits)
}

/// Evaluates `site`: carries out `Panic`/`Delay` actions here and
/// returns `Some(())` when an `Error` action fired, `None` otherwise.
///
/// Call through [`crate::fail_point!`] rather than directly so the call
/// site disappears entirely when the feature is off.
///
/// # Panics
/// Panics (by design) when a [`FailAction::Panic`] rule fires.
pub fn eval(site: &str) -> Option<()> {
    let action = {
        let mut reg = registry();
        let Registry { sites, rng } = &mut *reg;
        let state = sites.get_mut(site)?;
        state.hits += 1;
        if state.hits <= state.rule.after {
            return None;
        }
        if state.rule.times.is_some_and(|t| state.fired >= t) {
            return None;
        }
        if let Some(p) = state.rule.probability {
            if rng.f64() >= p {
                return None;
            }
        }
        state.fired += 1;
        state.rule.action
        // Lock released here, before any side effect.
    };
    match action {
        FailAction::Panic => panic!("failpoint `{site}` fired: injected panic"),
        FailAction::Delay(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            None
        }
        FailAction::Error => Some(()),
    }
}

static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serializes failpoint-using tests within one process and clears the
/// registry both on entry and on drop, so schedules cannot leak across
/// tests.
pub struct ExclusiveGuard {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ExclusiveGuard {
    fn drop(&mut self) {
        clear();
    }
}

/// Takes the global failpoint lock for the duration of a test.
pub fn exclusive() -> ExclusiveGuard {
    let guard = TEST_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    clear();
    ExclusiveGuard { _guard: guard }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_fire_after_and_times_deterministically() {
        let _guard = exclusive();
        configure(
            "t::site",
            FailRule::new(FailAction::Error).after(2).times(2),
        );
        assert_eq!(eval("t::site"), None); // hit 1 (≤ after)
        assert_eq!(eval("t::site"), None); // hit 2 (≤ after)
        assert_eq!(eval("t::site"), Some(())); // fires
        assert_eq!(eval("t::site"), Some(())); // fires (2nd and last)
        assert_eq!(eval("t::site"), None); // exhausted
        assert_eq!(fired("t::site"), 2);
        assert_eq!(hits("t::site"), 5);
    }

    #[test]
    fn unconfigured_sites_are_silent_and_clear_removes_rules() {
        let _guard = exclusive();
        assert_eq!(eval("t::nothing"), None);
        configure("t::gone", FailRule::new(FailAction::Error));
        clear();
        assert_eq!(eval("t::gone"), None);
    }

    #[test]
    fn probability_is_seed_deterministic() {
        let _guard = exclusive();
        let run = || {
            seed(42);
            configure("t::p", FailRule::new(FailAction::Error).probability(0.5));
            (0..64).map(|_| eval("t::p").is_some()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f), "{a:?}");
    }

    #[test]
    fn delay_returns_none_after_sleeping() {
        let _guard = exclusive();
        configure("t::slow", FailRule::new(FailAction::Delay(1)));
        let t0 = std::time::Instant::now();
        assert_eq!(eval("t::slow"), None);
        assert!(t0.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn panic_action_panics_with_the_site_name() {
        let _guard = exclusive();
        configure("t::boom", FailRule::new(FailAction::Panic));
        let err = std::panic::catch_unwind(|| eval("t::boom")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("t::boom"), "{msg}");
    }
}
