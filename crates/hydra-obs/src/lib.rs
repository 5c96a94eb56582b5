//! Dependency-free metrics and stage tracing for the HYDRA serving stack.
//!
//! Mirrors `hydra-fault`'s design: a process-wide registry that is inert
//! until a test [`install`]s a scope (or a daemon calls [`install_process`]),
//! and costs exactly one relaxed atomic load per instrumentation site when
//! disabled ([`enabled`] returns `false` and the caller skips everything
//! else, including name formatting and clock reads). Instrumented code is
//! deterministic by construction: timings and counts flow *into* the
//! registry only — nothing on the answer path ever reads a metric, so
//! metrics on vs off changes no answer bit (pinned in `obs_parity` tests).
//!
//! Three primitives:
//!
//! * **Counters** ([`counter_add`]) — monotonic `u64` event counts
//!   (`shard.retry`, `artifact.sweep.stale_temp`).
//! * **Gauges** ([`gauge_set`]) — last-written `i64` levels
//!   (`serve.epoch`, `ingest.batch.last_len`).
//! * **Histograms** ([`observe`], [`span`], [`timer`]) — fixed-shape log2
//!   histograms with 32 linear sub-buckets per power of two: values below
//!   32 are exact, larger values quantize with ≤ 1/32 (~3.1%) relative
//!   error, and `min`/`max`/`sum`/`count` are tracked exactly. Percentile
//!   readout ([`HistogramSnapshot::percentile`]) is exact over the
//!   quantized samples and clamped to the exact tracked `max`.
//!
//! A [`MetricsSnapshot`] is an owned, mergeable copy of the registry:
//! shard snapshots travel over the wire (via [`MetricsSnapshot::to_bytes`])
//! and merge into a fleet-wide view ([`MetricsSnapshot::merge_from`]), then
//! export as JSON ([`MetricsSnapshot::to_json`]) or Prometheus text
//! exposition ([`MetricsSnapshot::to_prometheus`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Linear sub-buckets per power of two, as a bit count (2^5 = 32).
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Total histogram slots: values 0..32 exact, then 32 sub-buckets for each
/// of the remaining 58 powers of two up to `u64::MAX`.
const SLOTS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// Slot index for a recorded value (monotonic in `v`).
#[inline]
fn slot_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let top = (v >> (msb - SUB_BITS)) as usize; // in [32, 64)
        ((msb - SUB_BITS) as usize) * SUB + top
    }
}

/// Largest value that lands in `idx` — the value [`HistogramSnapshot::percentile`]
/// reports for ranks that fall in that slot (before clamping to `max`).
fn slot_upper(idx: usize) -> u64 {
    if idx < SUB {
        idx as u64
    } else {
        let bucket = (idx - SUB) / SUB;
        let top = SUB + (idx - SUB) % SUB;
        let up = (((top as u128) + 1) << bucket) - 1;
        up.min(u64::MAX as u128) as u64
    }
}

/// Live histogram cell: lock-free recording via relaxed atomics.
struct Hist {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Self {
            buckets: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[slot_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

struct Registry {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<String, Arc<AtomicI64>>>,
    hists: RwLock<HashMap<String, Arc<Hist>>>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Registry {
    static REG: OnceLock<Registry> = OnceLock::new();
    REG.get_or_init(|| Registry {
        counters: RwLock::new(HashMap::new()),
        gauges: RwLock::new(HashMap::new()),
        hists: RwLock::new(HashMap::new()),
    })
}

fn install_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

// A panicking workload under test can poison these locks; ObsScope drop
// restores a clean registry, so poisoning carries no meaning here.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_tolerant<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_tolerant<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

fn clear_registry() {
    let reg = registry();
    write_tolerant(&reg.counters).clear();
    write_tolerant(&reg.gauges).clear();
    write_tolerant(&reg.hists).clear();
}

/// Guard returned by [`install`]: holds the process-wide install lock
/// (serializing metrics tests across threads) and clears the registry when
/// dropped.
#[must_use = "metrics are cleared as soon as the scope drops"]
pub struct ObsScope {
    _guard: MutexGuard<'static, ()>,
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
        clear_registry();
    }
}

/// Enable metrics collection for the duration of the returned [`ObsScope`].
///
/// Blocks while another scope is alive, so concurrently running metrics
/// tests serialize instead of reading each other's samples.
pub fn install() -> ObsScope {
    let guard = lock_tolerant(install_lock());
    clear_registry();
    ACTIVE.store(true, Ordering::SeqCst);
    ObsScope { _guard: guard }
}

/// Enable metrics collection for the lifetime of the process — for daemons
/// (`hydra-shardd`) and benches, where no scope ever ends. Idempotent; does
/// not take the install lock, so never call it from code that also uses
/// [`install`]-scoped tests in the same process.
pub fn install_process() {
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Fast path: is collection active? Instrumentation sites gate on this
/// before doing anything else — one relaxed load when disabled.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Add `n` to the counter `name`. No-op (one relaxed load) when disabled.
pub fn counter_add(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let cell = {
        let reg = registry();
        // Two statements on purpose: an `if let` over the read guard would
        // keep it alive into the else branch, deadlocking the write lock.
        let hit = read_tolerant(&reg.counters).get(name).cloned();
        match hit {
            Some(c) => c,
            None => write_tolerant(&reg.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone(),
        }
    };
    cell.fetch_add(n, Ordering::Relaxed);
}

/// Set the gauge `name` to `v`. No-op (one relaxed load) when disabled.
pub fn gauge_set(name: &str, v: i64) {
    if !enabled() {
        return;
    }
    let cell = {
        let reg = registry();
        // See counter_add: keep the read probe its own statement.
        let hit = read_tolerant(&reg.gauges).get(name).cloned();
        match hit {
            Some(g) => g,
            None => write_tolerant(&reg.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0)))
                .clone(),
        }
    };
    cell.store(v, Ordering::Relaxed);
}

fn hist_cell(name: &str) -> Arc<Hist> {
    let reg = registry();
    if let Some(h) = read_tolerant(&reg.hists).get(name) {
        return h.clone();
    }
    write_tolerant(&reg.hists)
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(Hist::new()))
        .clone()
}

/// Record one sample into the histogram `name`. No-op when disabled.
pub fn observe(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    hist_cell(name).record(value);
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// RAII stage span: records its lifetime (ns) into the histogram `name` on
/// drop. When collection is disabled the clock is never read.
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
}

/// Open a stage span named `name` (static names only — for dynamic names
/// like `net.scatter.{shard}`, use [`timer`] so formatting is skipped when
/// disabled).
pub fn span(name: &'static str) -> Span {
    Span {
        name,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(t) = self.start {
            observe(self.name, duration_ns(t.elapsed()));
        }
    }
}

/// A stopwatch that is armed only while collection is enabled, so call
/// sites format dynamic metric names only when a sample will be recorded.
pub struct Timer {
    start: Option<Instant>,
}

/// Start a [`Timer`] (armed only when [`enabled`]).
pub fn timer() -> Timer {
    Timer {
        start: enabled().then(Instant::now),
    }
}

impl Timer {
    /// Nanoseconds since the timer started, or `None` when collection was
    /// disabled at start. Gate dynamic-name formatting on this:
    /// `if let Some(ns) = t.elapsed_ns() { observe(&format!(...), ns) }`.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.start.map(|t| duration_ns(t.elapsed()))
    }

    /// Record the elapsed time into the histogram `name` (static-name
    /// convenience; no-op when the timer is unarmed).
    pub fn finish(self, name: &str) {
        if let Some(t) = self.start {
            observe(name, duration_ns(t.elapsed()));
        }
    }
}

/// Owned copy of one histogram: exact `count`/`sum`/`min`/`max` plus the
/// sparse non-empty slots, sorted by slot index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping add on overflow).
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// `(slot index, sample count)` for every non-empty slot, ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile over the quantized samples, clamped to the
    /// exact tracked `max` (so `percentile(1.0) == max` exactly, and every
    /// other rank is within one sub-bucket — ≤ ~3.1% — of the raw sample).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                return slot_upper(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    fn merge_from(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(idx, c) in &other.buckets {
            *merged.entry(idx).or_insert(0) += c;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// Owned, mergeable copy of the whole registry — the unit that travels
/// from a shard process to the coordinator and aggregates fleet-wide.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic event counts, by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written levels, by metric name.
    pub gauges: BTreeMap<String, i64>,
    /// Latency/size distributions, by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Wire-format version of [`MetricsSnapshot::to_bytes`]. Decoders skip
/// payloads with a newer version instead of failing (forward compat).
pub const SNAPSHOT_VERSION: u16 = 1;

const SNAPSHOT_MAGIC: [u8; 4] = *b"HOBS";

impl MetricsSnapshot {
    /// Capture the current registry contents (empty when nothing recorded).
    pub fn capture() -> Self {
        snapshot()
    }

    /// True when no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Fold `other` into `self`: counters and histogram buckets add,
    /// gauges keep the maximum (fleet aggregation semantics).
    pub fn merge_from(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(*v);
            *e = (*e).max(*v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge_from(h);
        }
    }

    /// Serialize to the versioned `HOBS` binary format (little-endian,
    /// length-prefixed strings) — what the extended `Status` wire message
    /// carries.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Vec::new();
        w.extend_from_slice(&SNAPSHOT_MAGIC);
        w.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        w.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (k, v) in &self.counters {
            put_name(&mut w, k);
            w.extend_from_slice(&v.to_le_bytes());
        }
        w.extend_from_slice(&(self.gauges.len() as u32).to_le_bytes());
        for (k, v) in &self.gauges {
            put_name(&mut w, k);
            w.extend_from_slice(&v.to_le_bytes());
        }
        w.extend_from_slice(&(self.histograms.len() as u32).to_le_bytes());
        for (k, h) in &self.histograms {
            put_name(&mut w, k);
            w.extend_from_slice(&h.count.to_le_bytes());
            w.extend_from_slice(&h.sum.to_le_bytes());
            w.extend_from_slice(&h.min.to_le_bytes());
            w.extend_from_slice(&h.max.to_le_bytes());
            w.extend_from_slice(&(h.buckets.len() as u32).to_le_bytes());
            for &(idx, c) in &h.buckets {
                w.extend_from_slice(&idx.to_le_bytes());
                w.extend_from_slice(&c.to_le_bytes());
            }
        }
        w
    }

    /// Decode a `HOBS` payload. `Ok(None)` means a valid header with a
    /// newer version than this build understands (caller should treat the
    /// snapshot as absent); `Err` means a malformed payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Option<Self>, SnapshotDecodeError> {
        let mut r = Cursor { b: bytes, at: 0 };
        if r.take(4)? != SNAPSHOT_MAGIC {
            return Err(SnapshotDecodeError("bad HOBS magic"));
        }
        let version = u16::from_le_bytes(r.take(2)?.try_into().expect("2 bytes"));
        if version > SNAPSHOT_VERSION {
            return Ok(None);
        }
        let mut out = MetricsSnapshot::default();
        for _ in 0..r.u32()? {
            let k = r.name()?;
            out.counters.insert(k, r.u64()?);
        }
        for _ in 0..r.u32()? {
            let k = r.name()?;
            out.gauges.insert(k, r.i64()?);
        }
        for _ in 0..r.u32()? {
            let k = r.name()?;
            let (count, sum, min, max) = (r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            let n = r.u32()? as usize;
            if n > SLOTS {
                return Err(SnapshotDecodeError("bucket count exceeds histogram shape"));
            }
            let mut buckets = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = r.u32()?;
                if idx as usize >= SLOTS {
                    return Err(SnapshotDecodeError("bucket index out of range"));
                }
                buckets.push((idx, r.u64()?));
            }
            out.histograms.insert(
                k,
                HistogramSnapshot {
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                },
            );
        }
        if r.at != bytes.len() {
            return Err(SnapshotDecodeError("trailing bytes after snapshot"));
        }
        Ok(Some(out))
    }

    /// JSON object with one key per metric kind; histograms carry their
    /// sparse buckets plus precomputed `p50`/`p99` for direct consumption
    /// by the bench harness.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        push_map(&mut s, &self.counters, |s, v| s.push_str(&v.to_string()));
        s.push_str("},\"gauges\":{");
        push_map(&mut s, &self.gauges, |s, v| s.push_str(&v.to_string()));
        s.push_str("},\"histograms\":{");
        push_map(&mut s, &self.histograms, |s, h| {
            s.push_str(&format!(
                "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.99),
            ));
            for (i, &(idx, c)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("[{idx},{c}]"));
            }
            s.push_str("]}");
        });
        s.push_str("}}");
        s
    }

    /// Prometheus text exposition: metric names with dots mapped to
    /// underscores, histograms as cumulative `_bucket{le=...}` series plus
    /// `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.counters {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            s.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for &(idx, c) in &h.buckets {
                cum += c;
                s.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    slot_upper(idx as usize)
                ));
            }
            s.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            s.push_str(&format!("{name}_sum {}\n", h.sum));
            s.push_str(&format!("{name}_count {}\n", h.count));
        }
        s
    }
}

/// Malformed `HOBS` payload (the message is a static description).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotDecodeError(pub &'static str);

impl std::fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "metrics snapshot decode: {}", self.0)
    }
}

impl std::error::Error for SnapshotDecodeError {}

fn put_name(w: &mut Vec<u8>, name: &str) {
    let b = name.as_bytes();
    let len = b.len().min(u16::MAX as usize);
    w.extend_from_slice(&(len as u16).to_le_bytes());
    w.extend_from_slice(&b[..len]);
}

struct Cursor<'a> {
    b: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.b.len() - self.at < n {
            return Err(SnapshotDecodeError("truncated snapshot"));
        }
        let s = &self.b[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, SnapshotDecodeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn name(&mut self) -> Result<String, SnapshotDecodeError> {
        let len = u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")) as usize;
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotDecodeError("metric name not utf-8"))
    }
}

fn push_map<V>(s: &mut String, map: &BTreeMap<String, V>, mut val: impl FnMut(&mut String, &V)) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('"');
        json_escape_into(s, k);
        s.push_str("\":");
        val(s, v);
    }
}

fn json_escape_into(s: &mut String, raw: &str) {
    for c in raw.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => s.push_str(&format!("\\u{:04x}", c as u32)),
            c => s.push(c),
        }
    }
}

fn prom_name(raw: &str) -> String {
    let mut out = String::from("hydra_");
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Capture the current registry contents as an owned [`MetricsSnapshot`].
/// Returns an empty snapshot when collection is disabled or nothing has
/// been recorded.
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut out = MetricsSnapshot::default();
    for (k, v) in read_tolerant(&reg.counters).iter() {
        out.counters.insert(k.clone(), v.load(Ordering::Relaxed));
    }
    for (k, v) in read_tolerant(&reg.gauges).iter() {
        out.gauges.insert(k.clone(), v.load(Ordering::Relaxed));
    }
    for (k, h) in read_tolerant(&reg.hists).iter() {
        out.histograms.insert(k.clone(), h.snapshot());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        // Sibling tests install the registry process-wide; hold their lock
        // so "nothing installed" is what this test actually observes.
        let _no_scope = lock_tolerant(install_lock());
        assert!(!enabled());
        counter_add("c", 1);
        gauge_set("g", 1);
        observe("h", 1);
        let t = timer();
        assert_eq!(t.elapsed_ns(), None);
        t.finish("h");
        drop(span("h"));
        assert!(snapshot().is_empty());
    }

    #[test]
    fn counters_gauges_and_histograms_accumulate_under_scope() {
        let _scope = install();
        counter_add("events", 2);
        counter_add("events", 3);
        gauge_set("level", 7);
        gauge_set("level", -4);
        observe("lat", 10);
        observe("lat", 20);
        let snap = snapshot();
        assert_eq!(snap.counters["events"], 5);
        assert_eq!(snap.gauges["level"], -4);
        let h = &snap.histograms["lat"];
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 10, 20, 30));
    }

    #[test]
    fn scope_drop_clears_everything() {
        {
            let _scope = install();
            counter_add("c", 1);
            assert!(!snapshot().is_empty());
        }
        assert!(!enabled());
        assert!(snapshot().is_empty());
    }

    #[test]
    fn slot_index_is_monotonic_and_upper_bounds_contain() {
        let mut prev = 0usize;
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            100,
            1 << 20,
            (1 << 20) + 1,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = slot_index(v);
            assert!(idx >= prev, "monotonic at {v}");
            assert!(slot_upper(idx) >= v, "upper contains {v}");
            if idx > 0 {
                assert!(slot_upper(idx - 1) < v, "lower excludes {v}");
            }
            prev = idx;
        }
        assert_eq!(slot_upper(SLOTS - 1), u64::MAX);
    }

    #[test]
    fn small_values_are_exact() {
        let _scope = install();
        for v in 0..32u64 {
            observe("exact", v);
        }
        let h = snapshot().histograms["exact"].clone();
        for (i, &(idx, c)) in h.buckets.iter().enumerate() {
            assert_eq!((idx as usize, c), (i, 1));
        }
        for rank in 1..=32u64 {
            let q = rank as f64 / 32.0;
            assert_eq!(h.percentile(q), rank - 1, "p{q}");
        }
    }

    #[test]
    fn percentile_matches_sorted_oracle_within_quantization() {
        let _scope = install();
        let mut samples: Vec<u64> = (0..4096u64)
            .map(|i| hydra_like_mix(i) % 5_000_000)
            .collect();
        for &s in &samples {
            observe("lat", s);
        }
        samples.sort_unstable();
        let h = snapshot().histograms["lat"].clone();
        for &q in &[0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let raw = samples[rank - 1];
            // Same-quantization oracle: exact equality.
            let quantized: u64 = slot_upper(slot_index(raw)).min(*samples.last().expect("samples"));
            assert_eq!(h.percentile(q), quantized, "p{q} quantized");
            // Raw oracle: bounded relative error (one sub-bucket).
            let got = h.percentile(q) as f64;
            assert!(
                (got - raw as f64).abs() <= (raw as f64 / 32.0).max(1.0),
                "p{q}: got {got}, raw {raw}"
            );
        }
        assert_eq!(h.percentile(1.0), *samples.last().expect("samples"));
    }

    fn hydra_like_mix(mut x: u64) -> u64 {
        // splitmix64, same as hydra-fault's seeded streams.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn merge_adds_counters_and_buckets_takes_gauge_max() {
        let mk = |c: u64, g: i64, vals: &[u64]| {
            let _scope = install();
            counter_add("c", c);
            gauge_set("g", g);
            for &v in vals {
                observe("h", v);
            }
            snapshot()
        };
        let a = mk(2, 5, &[10, 1000]);
        let b = mk(3, -1, &[20, 1000, 4000]);
        let mut fleet = a.clone();
        fleet.merge_from(&b);
        assert_eq!(fleet.counters["c"], 5);
        assert_eq!(fleet.gauges["g"], 5);
        let h = &fleet.histograms["h"];
        assert_eq!((h.count, h.min, h.max), (5, 10, 4000));
        assert_eq!(h.sum, a.histograms["h"].sum + b.histograms["h"].sum);
        assert_eq!(
            h.buckets.iter().map(|&(_, c)| c).sum::<u64>(),
            5,
            "bucket mass adds"
        );
        // Merge with empty is identity in both directions.
        let mut left = a.clone();
        left.merge_from(&MetricsSnapshot::default());
        assert_eq!(left, a);
        let mut right = MetricsSnapshot::default();
        right.merge_from(&a);
        assert_eq!(right, a);
    }

    #[test]
    fn bytes_round_trip_and_reject_garbage() {
        let snap = {
            let _scope = install();
            counter_add("shard.retry", 4);
            gauge_set("serve.epoch", 17);
            observe("serve.query", 12345);
            observe("serve.query", 999_999);
            snapshot()
        };
        let bytes = snap.to_bytes();
        assert_eq!(
            MetricsSnapshot::from_bytes(&bytes).expect("decode"),
            Some(snap.clone())
        );
        // Truncation at every prefix either errors or never panics.
        for cut in 0..bytes.len() {
            assert!(
                MetricsSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
        assert!(MetricsSnapshot::from_bytes(b"XXXX\x01\x00").is_err());
        // A newer version decodes to None (skip, don't fail).
        let mut newer = bytes.clone();
        newer[4] = 0xFF;
        newer[5] = 0xFF;
        assert_eq!(MetricsSnapshot::from_bytes(&newer).expect("newer"), None);
        // Empty snapshot round-trips too.
        let empty = MetricsSnapshot::default();
        assert_eq!(
            MetricsSnapshot::from_bytes(&empty.to_bytes()).expect("empty"),
            Some(empty)
        );
    }

    #[test]
    fn json_and_prometheus_expositions_cover_every_metric() {
        let snap = {
            let _scope = install();
            counter_add("ingest.accounts", 9);
            gauge_set("serve.epoch", 3);
            observe("serve.query", 100);
            snapshot()
        };
        let json = snap.to_json();
        for needle in [
            "\"ingest.accounts\":9",
            "\"serve.epoch\":3",
            "\"serve.query\"",
            "\"p50\":",
            "\"p99\":",
        ] {
            assert!(json.contains(needle), "json missing {needle}: {json}");
        }
        let prom = snap.to_prometheus();
        for needle in [
            "# TYPE hydra_ingest_accounts counter\nhydra_ingest_accounts 9",
            "# TYPE hydra_serve_epoch gauge\nhydra_serve_epoch 3",
            "# TYPE hydra_serve_query histogram",
            "hydra_serve_query_bucket{le=\"+Inf\"} 1",
            "hydra_serve_query_count 1",
        ] {
            assert!(prom.contains(needle), "prometheus missing {needle}: {prom}");
        }
    }

    #[test]
    fn span_and_timer_record_into_histograms() {
        let _scope = install();
        {
            let _s = span("stage.a");
        }
        let t = timer();
        assert!(t.elapsed_ns().is_some());
        t.finish("stage.b");
        let t2 = timer();
        if let Some(ns) = t2.elapsed_ns() {
            observe("stage.dyn.0", ns);
        }
        let snap = snapshot();
        for name in ["stage.a", "stage.b", "stage.dyn.0"] {
            assert_eq!(snap.histograms[name].count, 1, "{name}");
        }
    }
}
