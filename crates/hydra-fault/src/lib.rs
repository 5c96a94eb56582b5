//! Deterministic, seeded fault injection for the HYDRA serving stack.
//!
//! A [`FaultPlan`] is a reproducible schedule of faults keyed by **site**
//! (a short string naming an injection point, e.g. `"artifact.write"`) and
//! **hit index** (the 0-based count of how many times that site has fired
//! since the plan was installed). Production code threads injection points
//! through its IO and fan-out paths; with no plan installed the only cost
//! per point is one relaxed atomic load ([`enabled`] returns `false` and the
//! caller skips everything else, including site-string formatting).
//!
//! Three ways to drive it:
//!
//! * [`install`] a plan and run the code under test — the returned
//!   [`FaultScope`] guard serializes concurrent fault tests process-wide and
//!   clears all state on drop.
//! * [`record`] a closure — every `(site, hit)` the code would consult is
//!   logged, so a sweep can enumerate *every* injection point an operation
//!   crosses and then re-run it once per point with a fault armed there.
//! * Seed transients with [`FaultPlan::seeded_transients`] — a splitmix64
//!   stream decides which hits fail, reproducibly for a fixed seed.
//!
//! The crate is dependency-free and safe to leave compiled into release
//! builds: all state is inert until a test installs a plan.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What happens when an armed fault fires at an injection point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The injection point should fail with an IO error (artifact IO paths).
    Io,
    /// A write should persist only the first `keep` bytes, then fail —
    /// simulating a crash mid-write that leaves a torn file behind.
    TornWrite {
        /// Number of leading bytes that reach the file before the "crash".
        keep: usize,
    },
    /// The injection point should panic (shard-task isolation paths).
    Panic,
    /// The injection point should fail with a retryable transient error.
    Transient,
}

#[derive(Debug, Clone)]
struct TransientStream {
    seed: u64,
    one_in: u64,
    remaining: u64,
}

#[derive(Debug, Default)]
struct PlanState {
    one_shots: HashMap<String, Vec<(u64, FaultKind)>>,
    transients: HashMap<String, TransientStream>,
    hits: HashMap<String, u64>,
    log: Option<Vec<(String, u64)>>,
}

/// A reproducible schedule of faults, built with the `one_shot` /
/// `seeded_transients` builders and activated with [`install`].
#[derive(Debug, Default, Clone)]
pub struct FaultPlan {
    one_shots: Vec<(String, u64, FaultKind)>,
    transients: Vec<(String, TransientStream)>,
}

impl FaultPlan {
    /// An empty plan: installed, it changes nothing (used to prove the
    /// zero-fault path is bitwise identical to no plan at all).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `kind` to fire the `hit`-th time (0-based) `site` is consulted.
    pub fn one_shot(mut self, site: &str, hit: u64, kind: FaultKind) -> Self {
        self.one_shots.push((site.to_string(), hit, kind));
        self
    }

    /// Arm a seeded transient stream at `site`: each hit fails with
    /// [`FaultKind::Transient`] with probability `1/one_in` (decided by a
    /// splitmix64 stream over the hit index, so the schedule is a pure
    /// function of `seed`), for at most `max` total failures.
    pub fn seeded_transients(mut self, site: &str, seed: u64, one_in: u64, max: u64) -> Self {
        self.transients.push((
            site.to_string(),
            TransientStream {
                seed,
                one_in: one_in.max(1),
                remaining: max,
            },
        ));
        self
    }

    fn into_state(self, log: bool) -> PlanState {
        let mut st = PlanState {
            log: if log { Some(Vec::new()) } else { None },
            ..PlanState::default()
        };
        for (site, hit, kind) in self.one_shots {
            st.one_shots.entry(site).or_default().push((hit, kind));
        }
        for (site, stream) in self.transients {
            st.transients.insert(site, stream);
        }
        st
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<PlanState> {
    static STATE: OnceLock<Mutex<PlanState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(PlanState::default()))
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A fault test that panics by design can poison these mutexes; the
    // FaultScope drop restores a clean state, so poisoning carries no
    // meaning here.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Guard returned by [`install`] / used internally by [`record`]: holds the
/// process-wide install lock (serializing fault tests across threads) and
/// clears all fault state when dropped.
#[must_use = "the plan is cleared as soon as the scope drops"]
pub struct FaultScope {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        *lock_tolerant(state()) = PlanState::default();
    }
}

/// Install `plan` for the duration of the returned [`FaultScope`].
///
/// Blocks while another scope (from `install` or [`record`]) is alive, so
/// concurrently running fault tests serialize instead of interfering.
pub fn install(plan: FaultPlan) -> FaultScope {
    let guard = lock_tolerant(install_lock());
    *lock_tolerant(state()) = plan.into_state(false);
    ACTIVE.store(true, Ordering::SeqCst);
    FaultScope { _guard: guard }
}

/// Run `f` with an empty plan in recording mode and return its result plus
/// the ordered log of every `(site, hit)` pair the code consulted — the
/// enumeration step of an inject-at-every-point sweep.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Vec<(String, u64)>) {
    let scope = {
        let guard = lock_tolerant(install_lock());
        *lock_tolerant(state()) = FaultPlan::new().into_state(true);
        ACTIVE.store(true, Ordering::SeqCst);
        FaultScope { _guard: guard }
    };
    let out = f();
    let log = lock_tolerant(state()).log.take().unwrap_or_default();
    drop(scope);
    (out, log)
}

/// Fast path: is any plan (or recording) active? Injection points gate on
/// this before doing anything else — one relaxed load when disabled.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Consult the plan at `site`. Advances the site's hit counter, logs the hit
/// when recording, and returns the armed [`FaultKind`] if this exact hit is
/// scheduled to fail. Callers must gate on [`enabled`] first.
pub fn fire(site: &str) -> Option<FaultKind> {
    if !enabled() {
        return None;
    }
    let mut st = lock_tolerant(state());
    let hit = {
        let h = st.hits.entry(site.to_string()).or_insert(0);
        let now = *h;
        *h += 1;
        now
    };
    if let Some(log) = st.log.as_mut() {
        log.push((site.to_string(), hit));
    }
    if let Some(shots) = st.one_shots.get(site) {
        if let Some(&(_, kind)) = shots.iter().find(|&&(h, _)| h == hit) {
            return Some(kind);
        }
    }
    if let Some(stream) = st.transients.get_mut(site) {
        if stream.remaining > 0
            && splitmix64(stream.seed.wrapping_add(hit)).is_multiple_of(stream.one_in)
        {
            stream.remaining -= 1;
            return Some(FaultKind::Transient);
        }
    }
    None
}

/// The splitmix64 mixing function — the deterministic source behind
/// [`FaultPlan::seeded_transients`].
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        // Sibling tests install plans process-wide; hold their lock so
        // "no plan installed" is what this test actually observes.
        let _no_scope = lock_tolerant(install_lock());
        assert!(!enabled());
        assert_eq!(fire("nowhere"), None);
    }

    #[test]
    fn one_shot_fires_at_exact_hit_only() {
        let _scope = install(FaultPlan::new().one_shot("io.write", 2, FaultKind::Io));
        assert!(enabled());
        assert_eq!(fire("io.write"), None); // hit 0
        assert_eq!(fire("io.write"), None); // hit 1
        assert_eq!(fire("io.write"), Some(FaultKind::Io)); // hit 2
        assert_eq!(fire("io.write"), None); // hit 3
        assert_eq!(fire("other.site"), None);
    }

    #[test]
    fn scope_drop_clears_everything() {
        {
            let _scope = install(FaultPlan::new().one_shot("s", 0, FaultKind::Panic));
            assert_eq!(fire("s"), Some(FaultKind::Panic));
        }
        assert!(!enabled());
        assert_eq!(fire("s"), None);
    }

    #[test]
    fn hit_counters_are_per_site() {
        let _scope = install(FaultPlan::new().one_shot("a", 1, FaultKind::Io).one_shot(
            "b",
            0,
            FaultKind::Transient,
        ));
        assert_eq!(fire("b"), Some(FaultKind::Transient));
        assert_eq!(fire("a"), None);
        assert_eq!(fire("a"), Some(FaultKind::Io));
    }

    #[test]
    fn recording_logs_every_consultation_in_order() {
        let (value, log) = record(|| {
            fire("x");
            fire("y");
            fire("x");
            42
        });
        assert_eq!(value, 42);
        assert_eq!(
            log,
            vec![
                ("x".to_string(), 0),
                ("y".to_string(), 0),
                ("x".to_string(), 1)
            ]
        );
        assert!(!enabled());
    }

    #[test]
    fn recording_alone_never_fires() {
        let (fired, _log) = record(|| (0..100).filter_map(|_| fire("s")).count());
        assert_eq!(fired, 0);
    }

    #[test]
    fn seeded_transients_are_reproducible_and_bounded() {
        let run = |seed: u64| {
            let _scope = install(FaultPlan::new().seeded_transients("t", seed, 3, 4));
            (0..64)
                .filter_map(|i| fire("t").map(|k| (i, k)))
                .collect::<Vec<_>>()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(a.len() <= 4, "bounded by max");
        assert!(!a.is_empty(), "1-in-3 over 64 hits fires at least once");
        assert!(a.iter().all(|&(_, k)| k == FaultKind::Transient));
        let c = run(8);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn torn_write_carries_keep_count() {
        let _scope = install(FaultPlan::new().one_shot("w", 0, FaultKind::TornWrite { keep: 5 }));
        assert_eq!(fire("w"), Some(FaultKind::TornWrite { keep: 5 }));
    }

    #[test]
    fn empty_plan_is_inert_but_counts() {
        let _scope = install(FaultPlan::new());
        assert!(enabled());
        for _ in 0..10 {
            assert_eq!(fire("s"), None);
        }
    }
}
