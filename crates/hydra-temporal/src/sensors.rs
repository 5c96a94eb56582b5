//! Multi-resolution pattern-matching sensors (Fig. 6, Section 5.4).
//!
//! "given two users i and i′, we first construct a set of pattern-matching
//! sensors with different temporal searching ranges. If matched patterns
//! [...] are identified within the selected range of a pattern-matching
//! sensor, a positive stimuli signal would be generated. After we have
//! collected all the stimuli signals along a certain time period, we
//! calculate the l_q-norm non-linear stimulation function [Eq. 5]. Next we
//! fit a sigmoid function to transform S_mr into a new stimulated signal
//! Ŝ_mr ∈ [0, 1]."
//!
//! Two concrete sensors are built, matching the paper's list:
//!
//! * [`LocationSensor`] — "calculates location adjacency by a Gaussian
//!   kernel on geo-coordinates of user i and user i′ within the predefined
//!   spatial range";
//! * [`MediaSensor`] — "a near duplicated image sensor or down-sampling
//!   method is constructed for near duplicate multimedia sensor"; media
//!   items carry 64-bit perceptual fingerprints and near-duplication is a
//!   small Hamming distance (down-sampling two near-identical images yields
//!   nearly identical coarse hashes).

use crate::timeline::{Timeline, Timestamp};
use crate::SECONDS_PER_DAY;
use hydra_linalg::stats::{lq_pooling, lq_pooling_sparse, sigmoid};

/// A geographic coordinate (degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// A shared/posted media item identified by a perceptual fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaItem {
    /// 64-bit perceptual hash of the content.
    pub fingerprint: u64,
}

/// Great-circle distance in kilometres (haversine).
pub fn haversine_km(a: GeoPoint, b: GeoPoint) -> f64 {
    const R_EARTH_KM: f64 = 6371.0;
    let (la1, lo1) = (a.lat.to_radians(), a.lon.to_radians());
    let (la2, lo2) = (b.lat.to_radians(), b.lon.to_radians());
    let dlat = la2 - la1;
    let dlon = lo2 - lo1;
    let h = (dlat / 2.0).sin().powi(2) + la1.cos() * la2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R_EARTH_KM * h.sqrt().asin()
}

/// A pattern-matching sensor over a specific event payload type: given both
/// users' events inside one temporal window, emit a stimulus in `[0, 1]`.
pub trait PatternSensor<T> {
    /// Stimulus for one window; 0 when either side is silent.
    fn window_stimulus(&self, a: &[(Timestamp, T)], b: &[(Timestamp, T)]) -> f64;
}

/// Gaussian location-adjacency sensor.
#[derive(Debug, Clone, Copy)]
pub struct LocationSensor {
    /// Gaussian bandwidth in kilometres.
    pub bandwidth_km: f64,
    /// Hard spatial range: pairs farther than this contribute nothing.
    pub max_range_km: f64,
}

impl Default for LocationSensor {
    fn default() -> Self {
        LocationSensor {
            bandwidth_km: 5.0,
            max_range_km: 50.0,
        }
    }
}

impl PatternSensor<GeoPoint> for LocationSensor {
    /// Maximum Gaussian adjacency over all cross pairs in the window — the
    /// strongest co-location signal dominates, mirroring the paper's
    /// bio-stimulation argument for max-like pooling.
    fn window_stimulus(&self, a: &[(Timestamp, GeoPoint)], b: &[(Timestamp, GeoPoint)]) -> f64 {
        let mut best = 0.0f64;
        for (_, pa) in a {
            for (_, pb) in b {
                let d = haversine_km(*pa, *pb);
                if d <= self.max_range_km {
                    let s = (-(d * d) / (2.0 * self.bandwidth_km * self.bandwidth_km)).exp();
                    best = best.max(s);
                }
            }
        }
        best
    }
}

/// Near-duplicate multimedia sensor over perceptual fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct MediaSensor {
    /// Maximum Hamming distance still considered a near-duplicate.
    pub max_hamming: u32,
}

impl Default for MediaSensor {
    fn default() -> Self {
        MediaSensor { max_hamming: 4 }
    }
}

impl PatternSensor<MediaItem> for MediaSensor {
    /// Stimulus decays linearly with the best Hamming distance found:
    /// identical content → 1, at `max_hamming` → just above 0.
    fn window_stimulus(&self, a: &[(Timestamp, MediaItem)], b: &[(Timestamp, MediaItem)]) -> f64 {
        let mut best = 0.0f64;
        for (_, ma) in a {
            for (_, mb) in b {
                let d = (ma.fingerprint ^ mb.fingerprint).count_ones();
                if d <= self.max_hamming {
                    let s = 1.0 - d as f64 / (self.max_hamming as f64 + 1.0);
                    best = best.max(s);
                }
            }
        }
        best
    }
}

/// Scan one temporal resolution: slide non-overlapping windows of
/// `scale_days` across `[origin, horizon)`, collect per-window stimuli, pool
/// them with the l_q norm (Eq. 5), and squash through the sigmoid.
///
/// Returns `(ŝ_mr, windows_with_signal)`; the count lets callers distinguish
/// "no co-activity at this resolution" (a missing feature) from a genuine
/// low-similarity reading.
pub fn scan_resolution<T: Clone, S: PatternSensor<T>>(
    sensor: &S,
    a: &Timeline<T>,
    b: &Timeline<T>,
    origin: Timestamp,
    horizon: Timestamp,
    scale_days: u32,
    q: f64,
    lambda: f64,
) -> (f64, usize) {
    assert!(horizon > origin, "scan window must be non-empty");
    let width = scale_days as i64 * SECONDS_PER_DAY;
    let mut stimuli = Vec::new();
    let mut active_windows = 0usize;
    let mut t = origin;
    while t < horizon {
        let end = (t + width).min(horizon);
        let wa = a.range(t, end);
        let wb = b.range(t, end);
        if !wa.is_empty() || !wb.is_empty() {
            active_windows += 1;
        }
        let s = if wa.is_empty() || wb.is_empty() {
            0.0
        } else {
            sensor.window_stimulus(wa, wb)
        };
        stimuli.push(s);
        t = end;
    }
    if active_windows == 0 {
        return (0.0, 0);
    }
    let pooled = lq_pooling(&stimuli, q);
    (sigmoid(pooled, lambda), active_windows)
}

/// Per-scale index of a timeline's event-bearing windows: for scale `s`,
/// `per_scale[s]` lists `(window_idx, lo, hi)` such that
/// `timeline.as_slice()[lo..hi]` are the events falling in that window.
///
/// Scanning a pair at one resolution is then a merge-join over two sorted
/// window lists instead of a walk over every window with two binary
/// searches each — and the index is a per-*account* computation shared by
/// all of the account's candidate pairs.
#[derive(Debug, Clone)]
pub struct WindowIndex {
    /// Event-bearing windows per scale (sorted by window index).
    pub per_scale: Vec<Vec<(u32, u32, u32)>>,
    /// Total window count per scale over `[origin, horizon)`.
    pub total_windows: Vec<u32>,
}

impl WindowIndex {
    /// Index a timeline over `[origin, horizon)` at each scale.
    pub fn build<T>(
        timeline: &Timeline<T>,
        origin: Timestamp,
        horizon: Timestamp,
        scales_days: &[u32],
    ) -> Self {
        assert!(horizon > origin, "scan window must be non-empty");
        let events = timeline.as_slice();
        let first = events.partition_point(|e| e.0 < origin);
        let last = events.partition_point(|e| e.0 < horizon);
        let mut per_scale = Vec::with_capacity(scales_days.len());
        let mut total_windows = Vec::with_capacity(scales_days.len());
        for &scale in scales_days {
            let width = scale as i64 * SECONDS_PER_DAY;
            let span = horizon - origin;
            total_windows.push(((span + width - 1) / width) as u32);
            let mut windows: Vec<(u32, u32, u32)> = Vec::new();
            for k in first..last {
                let w = ((events[k].0 - origin) / width) as u32;
                match windows.last_mut() {
                    Some((lw, _, hi)) if *lw == w => *hi = k as u32 + 1,
                    _ => windows.push((w, k as u32, k as u32 + 1)),
                }
            }
            per_scale.push(windows);
        }
        WindowIndex {
            per_scale,
            total_windows,
        }
    }

    /// Approximate heap size (length-based; ignores allocator slack).
    pub fn heap_bytes(&self) -> usize {
        self.per_scale.len() * std::mem::size_of::<Vec<(u32, u32, u32)>>()
            + self
                .per_scale
                .iter()
                .map(|w| w.len() * std::mem::size_of::<(u32, u32, u32)>())
                .sum::<usize>()
            + self.total_windows.len() * std::mem::size_of::<u32>()
    }
}

/// [`scan_resolution`] driven by two pre-built [`WindowIndex`] scale rows —
/// bit-identical output (the l_q pool skips only exact zeros and the window
/// partition is the same), but the cost is proportional to the two sides'
/// *active* windows rather than the full scan range.
#[allow(clippy::too_many_arguments)]
pub fn scan_resolution_indexed<T: Clone, S: PatternSensor<T>>(
    sensor: &S,
    a: &Timeline<T>,
    b: &Timeline<T>,
    wa: &[(u32, u32, u32)],
    wb: &[(u32, u32, u32)],
    total_windows: u32,
    q: f64,
    lambda: f64,
) -> (f64, usize) {
    let ev_a = a.as_slice();
    let ev_b = b.as_slice();
    let mut active_windows = 0usize;
    let mut nonzero: Vec<f64> = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < wa.len() && j < wb.len() {
        match wa[i].0.cmp(&wb[j].0) {
            std::cmp::Ordering::Less => {
                active_windows += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                active_windows += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                active_windows += 1;
                let (_, alo, ahi) = wa[i];
                let (_, blo, bhi) = wb[j];
                let s = sensor.window_stimulus(
                    &ev_a[alo as usize..ahi as usize],
                    &ev_b[blo as usize..bhi as usize],
                );
                if s != 0.0 {
                    nonzero.push(s);
                }
                i += 1;
                j += 1;
            }
        }
    }
    active_windows += (wa.len() - i) + (wb.len() - j);
    if active_windows == 0 {
        return (0.0, 0);
    }
    let pooled = lq_pooling_sparse(&nonzero, total_windows as usize, q);
    (sigmoid(pooled, lambda), active_windows)
}

/// A bank of sensors of one payload type scanned across several temporal
/// resolutions; produces one feature per `(sensor, scale)` combination —
/// "a multi-dimensional pattern-matching feature is formed between user i
/// and i′, with the number of dimensions the same as the number of
/// pattern-matching sensors" (each sensor here being a (kind, resolution)
/// pair, Figure 6's "Scale 1 … Scale 5").
pub struct SensorBank<T, S: PatternSensor<T>> {
    sensors: Vec<S>,
    scales_days: Vec<u32>,
    /// l_q pooling exponent (Eq. 5).
    pub q: f64,
    /// Sigmoid slope λ.
    pub lambda: f64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Clone, S: PatternSensor<T>> SensorBank<T, S> {
    /// Bank over the given sensors and temporal scales.
    pub fn new(sensors: Vec<S>, scales_days: Vec<u32>, q: f64, lambda: f64) -> Self {
        assert!(
            !scales_days.is_empty(),
            "sensor bank needs at least one scale"
        );
        SensorBank {
            sensors,
            scales_days,
            q,
            lambda,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of output dimensions (`sensors × scales`).
    fn num_features(&self) -> usize {
        self.sensors.len() * self.scales_days.len()
    }

    /// Evaluate all `(sensor, scale)` features for a user pair. The second
    /// vector counts signal-bearing windows per feature (0 ⇒ missing).
    pub fn features(
        &self,
        a: &Timeline<T>,
        b: &Timeline<T>,
        origin: Timestamp,
        horizon: Timestamp,
    ) -> (Vec<f64>, Vec<usize>) {
        let mut out = Vec::with_capacity(self.num_features());
        let mut counts = Vec::with_capacity(self.num_features());
        for sensor in &self.sensors {
            for &scale in &self.scales_days {
                let (v, c) =
                    scan_resolution(sensor, a, b, origin, horizon, scale, self.q, self.lambda);
                out.push(v);
                counts.push(c);
            }
        }
        (out, counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::days;

    const BEIJING: GeoPoint = GeoPoint {
        lat: 39.9042,
        lon: 116.4074,
    };
    const SHANGHAI: GeoPoint = GeoPoint {
        lat: 31.2304,
        lon: 121.4737,
    };

    fn near(p: GeoPoint, dlat: f64) -> GeoPoint {
        GeoPoint {
            lat: p.lat + dlat,
            lon: p.lon,
        }
    }

    #[test]
    fn haversine_known_distances() {
        assert!(haversine_km(BEIJING, BEIJING) < 1e-9);
        let d = haversine_km(BEIJING, SHANGHAI);
        assert!(
            (d - 1067.0).abs() < 30.0,
            "Beijing-Shanghai ≈ 1067km, got {d}"
        );
        // Symmetry.
        assert!((d - haversine_km(SHANGHAI, BEIJING)).abs() < 1e-9);
    }

    #[test]
    fn location_sensor_rewards_colocation() {
        let s = LocationSensor::default();
        let a = [(0i64, BEIJING)];
        let b_close = [(0i64, near(BEIJING, 0.001))];
        let b_far = [(0i64, SHANGHAI)];
        assert!(s.window_stimulus(&a, &b_close) > 0.99);
        assert_eq!(s.window_stimulus(&a, &b_far), 0.0); // beyond max range
        assert_eq!(s.window_stimulus(&a, &[]), 0.0);
    }

    #[test]
    fn media_sensor_hamming_decay() {
        let s = MediaSensor { max_hamming: 4 };
        let a = [(
            0i64,
            MediaItem {
                fingerprint: 0xABCD,
            },
        )];
        let exact = [(
            0i64,
            MediaItem {
                fingerprint: 0xABCD,
            },
        )];
        let close = [(
            0i64,
            MediaItem {
                fingerprint: 0xABCD ^ 0b11,
            },
        )]; // d=2
        let far = [(
            0i64,
            MediaItem {
                fingerprint: !0xABCD,
            },
        )];
        assert_eq!(s.window_stimulus(&a, &exact), 1.0);
        let c = s.window_stimulus(&a, &close);
        assert!(c > 0.0 && c < 1.0);
        assert_eq!(s.window_stimulus(&a, &far), 0.0);
    }

    #[test]
    fn scan_detects_synchronized_checkins() {
        let a = Timeline::from_events(vec![(days(1), BEIJING), (days(10), SHANGHAI)]);
        let b = Timeline::from_events(vec![
            (days(1) + 3600, near(BEIJING, 0.002)),
            (days(10) + 7200, near(SHANGHAI, 0.002)),
        ]);
        let (v, active) =
            scan_resolution(&LocationSensor::default(), &a, &b, 0, days(32), 2, 4.0, 8.0);
        assert!(active >= 2);
        assert!(v > 0.5, "co-locations should excite the sensor: {v}");
    }

    #[test]
    fn scan_on_disjoint_activity_is_low() {
        let a = Timeline::from_events(vec![(days(1), BEIJING)]);
        let b = Timeline::from_events(vec![(days(20), SHANGHAI)]);
        let (v, active) =
            scan_resolution(&LocationSensor::default(), &a, &b, 0, days(32), 2, 4.0, 8.0);
        assert!(active >= 2);
        assert!(
            v <= 0.5 + 1e-9,
            "no co-location must stay at sigmoid(0): {v}"
        );
    }

    #[test]
    fn scan_with_no_activity_reports_missing() {
        let a: Timeline<GeoPoint> = Timeline::new();
        let b: Timeline<GeoPoint> = Timeline::new();
        let (v, active) =
            scan_resolution(&LocationSensor::default(), &a, &b, 0, days(8), 1, 4.0, 8.0);
        assert_eq!(active, 0);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn coarser_scales_tolerate_asynchrony() {
        // Check-ins 3 days apart at the same place: invisible at 1-day
        // windows, visible at 8-day windows — the Figure 6 motivation.
        let a = Timeline::from_events(vec![(days(2), BEIJING)]);
        let b = Timeline::from_events(vec![(days(5), near(BEIJING, 0.001))]);
        let fine = scan_resolution(&LocationSensor::default(), &a, &b, 0, days(32), 1, 4.0, 8.0);
        let coarse = scan_resolution(&LocationSensor::default(), &a, &b, 0, days(32), 8, 4.0, 8.0);
        assert!(fine.0 <= 0.5 + 1e-9);
        assert!(
            coarse.0 > fine.0,
            "coarse {} should beat fine {}",
            coarse.0,
            fine.0
        );
    }

    #[test]
    fn indexed_scan_matches_direct_scan_exactly() {
        // Pseudo-random timelines (deterministic LCG) across several scales
        // and densities, including empty sides and out-of-horizon events.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let horizon = days(64);
        let scales = [1u32, 2, 4, 8, 16];
        for case in 0..20 {
            let na = (next() % 40) as usize;
            let nb = (next() % 40) as usize;
            let mk = |n: usize, next: &mut dyn FnMut() -> u64| {
                Timeline::from_events(
                    (0..n)
                        .map(|_| {
                            let t = (next() % (70 * SECONDS_PER_DAY as u64)) as i64;
                            let p = GeoPoint {
                                lat: 30.0 + (next() % 1000) as f64 / 100.0,
                                lon: 110.0 + (next() % 1000) as f64 / 100.0,
                            };
                            (t, p)
                        })
                        .collect(),
                )
            };
            let a = mk(na, &mut next);
            let b = mk(nb, &mut next);
            let ia = WindowIndex::build(&a, 0, horizon, &scales);
            let ib = WindowIndex::build(&b, 0, horizon, &scales);
            let sensor = LocationSensor::default();
            for (s, &scale) in scales.iter().enumerate() {
                let direct = scan_resolution(&sensor, &a, &b, 0, horizon, scale, 4.0, 8.0);
                let indexed = scan_resolution_indexed(
                    &sensor,
                    &a,
                    &b,
                    &ia.per_scale[s],
                    &ib.per_scale[s],
                    ia.total_windows[s],
                    4.0,
                    8.0,
                );
                assert_eq!(
                    direct.0.to_bits(),
                    indexed.0.to_bits(),
                    "case {case} scale {scale}"
                );
                assert_eq!(direct.1, indexed.1, "case {case} scale {scale} count");
            }
        }
    }

    #[test]
    fn sensor_bank_dimensions_and_counts() {
        let bank = SensorBank::new(vec![LocationSensor::default()], vec![1, 4, 16], 4.0, 8.0);
        assert_eq!(bank.num_features(), 3);
        let a = Timeline::from_events(vec![(days(1), BEIJING)]);
        let b = Timeline::from_events(vec![(days(1), near(BEIJING, 0.001))]);
        let (f, c) = bank.features(&a, &b, 0, days(32));
        assert_eq!(f.len(), 3);
        assert_eq!(c.len(), 3);
        assert!(f.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(c.iter().all(|&n| n >= 1));
    }
}
