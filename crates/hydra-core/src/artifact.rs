//! The persistable learned artifact: [`LinkageModel`].
//!
//! Training ([`crate::Hydra::fit`]) distills everything prediction needs
//! into a self-contained value — the Eq. 12 kernel expansion (coefficients,
//! bias, support rows), the Eq. 3 attribute importances, the candidate /
//! feature / filling configuration, and the platform-pair task layout — so
//! a model can be **saved once and served anywhere**: written to disk with
//! [`LinkageModel::save`], loaded with [`LinkageModel::load`], and handed
//! to a [`crate::engine::LinkageEngine`] for per-account queries without
//! refitting.
//!
//! ## Wire format
//!
//! A little-endian binary format over the workspace `bytes` shim:
//!
//! ```text
//! magic "HYLM" | version u16 | fingerprint u64 | config_len u32 | config | body
//! ```
//!
//! Every float is stored as its IEEE-754 bit pattern, so save → load is
//! **bit-exact**: a loaded model produces byte-identical decision values to
//! the in-memory one (asserted by `tests/serve_parity.rs`). `fingerprint`
//! is FNV-1a over the config section — a cheap compatibility check that a
//! serving process is pairing the model with the configuration it was
//! trained under. Unknown versions and truncated or corrupt buffers load
//! as [`ModelIoError`]s, never panics.

use crate::candidates::CandidateConfig;
use crate::features::{AttributeImportance, FeatureConfig, FeatureExtractor};
use crate::missing::FillStrategy;
use crate::moo::{pack_expansion, MooSolution, MooSolverKind};
use bytes::{BufMut, BytesMut};
use hydra_datagen::attributes::NUM_ATTRS;
use hydra_linalg::dense::Mat;
use hydra_linalg::kernels::Kernel;
use hydra_temporal::sensors::{LocationSensor, MediaSensor};
use hydra_vision::{FaceClassifier, FaceDetector};

/// Wire-format magic.
const MAGIC: [u8; 4] = *b"HYLM";
/// Current wire-format version.
const VERSION: u16 = 1;

/// One platform-pair SIL sub-problem's identity (which platforms it links).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Left platform index.
    pub left_platform: u32,
    /// Right platform index.
    pub right_platform: u32,
}

/// The self-contained learned artifact.
///
/// Holds no training-time state (no candidate lists, no feature matrices,
/// no dataset references) — only what scoring a new pair requires.
#[derive(Debug, Clone)]
pub struct LinkageModel {
    /// The shared kernel expansion (Eq. 12): α, bias, kernel, support rows.
    pub solution: MooSolution,
    /// Learned attribute importance (Eq. 3).
    pub importance: AttributeImportance,
    /// Platform-pair layout, one entry per fitted task (task index =
    /// position).
    pub tasks: Vec<TaskSpec>,
    /// Candidate-generation thresholds used at train time (queries reuse
    /// them so serve-time blocking matches batch blocking).
    pub candidates: CandidateConfig,
    /// Pair-feature configuration.
    pub feature: FeatureConfig,
    /// Missing-feature strategy (the Eq. 18 filler's persistent state).
    pub fill: FillStrategy,
    /// Observation window length in days.
    pub window_days: u32,
    /// Size of the kernel expansion set (diagnostics).
    pub expansion_size: usize,
    /// Number of labeled pairs used (diagnostics).
    pub num_labeled: usize,
}

/// Errors from model (de)serialization. Every decode-side variant carries
/// enough context (byte offset, section name, expected vs found values) that
/// a corrupt artifact is diagnosable from the error string alone.
#[derive(Debug)]
pub enum ModelIoError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The buffer does not start with the expected magic.
    BadMagic {
        /// Magic the format requires (`HYLM` / `HYSX`).
        expected: [u8; 4],
        /// First four bytes actually found.
        found: [u8; 4],
    },
    /// The buffer's version is newer than this build understands.
    UnsupportedVersion {
        /// Version tag found in the buffer.
        found: u16,
        /// Newest version this build can read.
        max: u16,
    },
    /// The buffer ended mid-field.
    Truncated {
        /// Byte offset the failing read started at.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
        /// Bytes that actually remained.
        remaining: usize,
        /// Wire-format section being decoded.
        section: &'static str,
    },
    /// A field held an invalid value (bad enum tag, fingerprint mismatch…).
    Corrupt {
        /// Byte offset the invalid field was read at.
        offset: usize,
        /// Wire-format section being decoded.
        section: &'static str,
        /// What was wrong.
        what: String,
    },
}

fn fmt_magic(m: &[u8; 4]) -> String {
    if m.iter().all(|b| b.is_ascii_graphic()) {
        format!("{:?}", String::from_utf8_lossy(m))
    } else {
        format!("{m:02x?}")
    }
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "artifact io failure: {e}"),
            ModelIoError::BadMagic { expected, found } => write!(
                f,
                "not a HYDRA artifact: expected magic {} at byte offset 0, found {}",
                fmt_magic(expected),
                fmt_magic(found)
            ),
            ModelIoError::UnsupportedVersion { found, max } => {
                write!(
                    f,
                    "unsupported artifact format version {found} (this build reads up to {max})"
                )
            }
            ModelIoError::Truncated {
                offset,
                needed,
                remaining,
                section,
            } => write!(
                f,
                "artifact truncated at byte offset {offset} in section '{section}': \
                 needed {needed} more bytes, {remaining} remain"
            ),
            ModelIoError::Corrupt {
                offset,
                section,
                what,
            } => {
                write!(
                    f,
                    "artifact corrupt at byte offset {offset} in section '{section}': {what}"
                )
            }
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<std::io::Error> for ModelIoError {
    fn from(e: std::io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Checked little-endian reader over a borrowed buffer (decoding copies
/// nothing it does not return). Tracks the absolute byte offset and the
/// wire-format section being decoded so every error pinpoints where
/// decoding failed.
///
/// Public because every HYDRA wire format decodes through it — the `HYLM`
/// model and `HYSX` extractor artifacts here, and the `hydra-net` socket
/// frames and population artifact, which reuse the same typed-diagnostic
/// discipline (offset + section on every failure, never a panic).
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            buf: bytes,
            pos: 0,
            section: "header",
        }
    }

    /// Bytes left unread.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Name the wire-format section subsequent reads belong to (decode
    /// errors report it).
    pub fn set_section(&mut self, section: &'static str) {
        self.section = section;
    }

    /// Build a [`ModelIoError::Corrupt`] at the current position.
    pub fn corrupt(&self, what: impl Into<String>) -> ModelIoError {
        ModelIoError::Corrupt {
            offset: self.offset(),
            section: self.section,
            what: what.into(),
        }
    }

    pub fn need(&self, n: usize) -> Result<(), ModelIoError> {
        if self.remaining() < n {
            Err(ModelIoError::Truncated {
                offset: self.offset(),
                needed: n,
                remaining: self.remaining(),
                section: self.section,
            })
        } else {
            Ok(())
        }
    }

    /// The next `n` bytes, borrowed from the input.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        self.need(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ModelIoError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, ModelIoError> {
        Ok(self.array::<1>()?[0])
    }

    pub fn u16(&mut self) -> Result<u16, ModelIoError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, ModelIoError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, ModelIoError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn usize(&mut self) -> Result<usize, ModelIoError> {
        let at = self.offset();
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ModelIoError::Corrupt {
            offset: at,
            section: self.section,
            what: format!("length {v} overflows usize"),
        })
    }

    pub fn f64(&mut self) -> Result<f64, ModelIoError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Bounded length prefix: a count that implies at least
    /// `elem_bytes`-per-element more data than remains is corrupt, not an
    /// allocation request.
    pub fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, ModelIoError> {
        let at = self.offset();
        let n = self.usize()?;
        let implied = n.saturating_mul(elem_bytes.max(1));
        if implied > self.remaining() {
            return Err(ModelIoError::Truncated {
                offset: at,
                needed: implied,
                remaining: self.remaining(),
                section: self.section,
            });
        }
        Ok(n)
    }

    /// A length-prefixed run of `f64`s, read with one bounds check.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, ModelIoError> {
        let n = self.len_prefix(8)?;
        let raw = self.bytes(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                f64::from_le_bytes(b)
            })
            .collect())
    }
}

pub fn put_f64_vec(w: &mut BytesMut, v: &[f64]) {
    w.put_u64_le(v.len() as u64);
    for &x in v {
        w.put_f64_le(x);
    }
}

/// Length-prefixed (u64) UTF-8 string — the one string encoding of the
/// `hydra-net` frames and the population artifact.
pub fn put_str(w: &mut BytesMut, s: &str) {
    w.put_u64_le(s.len() as u64);
    w.put_slice(s.as_bytes());
}

/// Decode a [`put_str`] string (bounded length prefix, typed utf-8 error).
pub fn read_str(r: &mut Reader) -> Result<String, ModelIoError> {
    let n = r.len_prefix(1)?;
    let bytes = r.bytes(n)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|e| r.corrupt(format!("invalid utf-8 string: {e}")))
}

fn put_kernel(w: &mut BytesMut, k: Kernel) {
    match k {
        Kernel::Linear => {
            w.put_slice(&[0]);
            w.put_f64_le(0.0);
        }
        Kernel::Rbf { gamma } => {
            w.put_slice(&[1]);
            w.put_f64_le(gamma);
        }
        Kernel::ChiSquare => {
            w.put_slice(&[2]);
            w.put_f64_le(0.0);
        }
        Kernel::HistIntersection => {
            w.put_slice(&[3]);
            w.put_f64_le(0.0);
        }
    }
}

fn read_kernel(r: &mut Reader) -> Result<Kernel, ModelIoError> {
    let at = r.offset();
    let tag = r.u8()?;
    let param = r.f64()?;
    match tag {
        0 => Ok(Kernel::Linear),
        1 => Ok(Kernel::Rbf { gamma: param }),
        2 => Ok(Kernel::ChiSquare),
        3 => Ok(Kernel::HistIntersection),
        t => Err(ModelIoError::Corrupt {
            offset: at,
            section: "kernel",
            what: format!("unknown kernel tag {t} (expected 0..=3)"),
        }),
    }
}

fn put_mat(w: &mut BytesMut, m: &Mat) {
    w.put_u64_le(m.rows() as u64);
    w.put_u64_le(m.cols() as u64);
    for &x in m.as_slice() {
        w.put_f64_le(x);
    }
}

fn read_mat(r: &mut Reader) -> Result<Mat, ModelIoError> {
    let at = r.offset();
    let rows = r.len_prefix(0)?;
    let cols = r.usize()?;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| r.corrupt(format!("matrix shape {rows}x{cols} overflows")))?;
    if n.saturating_mul(8) > r.remaining() {
        return Err(ModelIoError::Truncated {
            offset: at,
            needed: n.saturating_mul(8),
            remaining: r.remaining(),
            section: "matrix",
        });
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.f64()?);
    }
    Ok(Mat::from_vec(rows, cols, data))
}

/// The temp sibling a crash-safe save stages its bytes in (`<path>.tmp`).
pub(crate) fn tmp_sibling(path: &std::path::Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

/// Crash-safe artifact write: stage the bytes in a temp sibling, `sync_all`,
/// then atomically rename over `path`. A crash (or injected fault) at any
/// point leaves either the previous artifact intact or a stale `.tmp` that
/// [`load_bytes`] cleans up — never a torn artifact at `path`.
///
/// Fault-injection sites (active only under an installed
/// [`hydra_fault::FaultPlan`]): `artifact.create`, `artifact.write`
/// (supports [`hydra_fault::FaultKind::TornWrite`], which persists a prefix
/// of the bytes in the temp before "crashing"), `artifact.sync`,
/// `artifact.rename`.
pub fn write_atomic(path: &std::path::Path, bytes: &[u8]) -> Result<(), ModelIoError> {
    use std::io::Write;
    let _save = hydra_obs::span("artifact.save");
    fn injected(site: &'static str) -> std::io::Result<()> {
        if hydra_fault::enabled() {
            match hydra_fault::fire(site) {
                Some(hydra_fault::FaultKind::Panic) => panic!("injected panic at {site}"),
                Some(_) => {
                    return Err(std::io::Error::other(format!("injected fault at {site}")));
                }
                None => {}
            }
        }
        Ok(())
    }
    let tmp = tmp_sibling(path);
    injected("artifact.create")?;
    let mut file = std::fs::File::create(&tmp)?;
    if hydra_fault::enabled() {
        match hydra_fault::fire("artifact.write") {
            Some(hydra_fault::FaultKind::TornWrite { keep }) => {
                // Simulate a crash mid-write: a prefix reaches the disk,
                // the rename never happens, and the torn temp stays behind.
                file.write_all(&bytes[..keep.min(bytes.len())])?;
                let _ = file.sync_all();
                return Err(std::io::Error::other(format!(
                    "injected torn write at artifact.write (kept {} of {} bytes)",
                    keep.min(bytes.len()),
                    bytes.len()
                ))
                .into());
            }
            Some(hydra_fault::FaultKind::Panic) => panic!("injected panic at artifact.write"),
            Some(_) => {
                return Err(std::io::Error::other("injected fault at artifact.write").into());
            }
            None => {}
        }
    }
    file.write_all(bytes)?;
    injected("artifact.sync")?;
    file.sync_all()?;
    drop(file);
    injected("artifact.rename")?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Bound on the [`swept_temp_paths`] audit ring.
const SWEPT_RING_CAP: usize = 16;

fn swept_ring() -> &'static std::sync::Mutex<std::collections::VecDeque<std::path::PathBuf>> {
    static RING: std::sync::OnceLock<
        std::sync::Mutex<std::collections::VecDeque<std::path::PathBuf>>,
    > = std::sync::OnceLock::new();
    RING.get_or_init(|| std::sync::Mutex::new(std::collections::VecDeque::new()))
}

/// The most recent stale `.tmp` siblings [`load_bytes`] actually deleted
/// (oldest first, bounded at 16) — the audit trail that makes
/// crash-recovery sweeps inspectable instead of silent. Every sweep also
/// bumps the `artifact.sweep.stale_temp` counter in `hydra-obs` when
/// metrics collection is on.
pub fn swept_temp_paths() -> Vec<std::path::PathBuf> {
    swept_ring()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Read an artifact's bytes, first clearing any stale temp a crashed save
/// left behind (single-writer assumption: nothing else is mid-save on
/// `path` while a process loads it). A sweep that actually deleted a file
/// is counted (`artifact.sweep.stale_temp`) and its path recorded for
/// [`swept_temp_paths`].
pub fn load_bytes(path: &std::path::Path) -> Result<Vec<u8>, ModelIoError> {
    let _load = hydra_obs::span("artifact.load");
    let tmp = tmp_sibling(path);
    if std::fs::remove_file(&tmp).is_ok() {
        hydra_obs::counter_add("artifact.sweep.stale_temp", 1);
        let mut ring = swept_ring().lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == SWEPT_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(tmp);
    }
    Ok(std::fs::read(path)?)
}

/// FNV-1a over a byte slice — the config fingerprint hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Decode a checksummed body while hashing it: FNV-1a over `body` runs on
/// a second core ([`hydra_par::join`]; after the decode when there is one
/// worker thread) while `decode` reads the same bytes on this one. A hash that differs from `expected` wins over whatever the
/// decode returned, so a torn or flipped body reports `mismatch(actual)`
/// exactly as it did when the hash ran first. `decode` therefore sees
/// unverified bytes and must turn every malformed input into an error.
pub fn decode_checksummed<T>(
    body: &[u8],
    expected: u64,
    decode: impl FnOnce() -> Result<T, ModelIoError>,
    mismatch: impl FnOnce(u64) -> ModelIoError,
) -> Result<T, ModelIoError> {
    let (decoded, actual) = hydra_par::join(decode, || fnv1a(body));
    if actual != expected {
        return Err(mismatch(actual));
    }
    decoded
}

impl LinkageModel {
    /// Serialize the config section (the fingerprinted part of the wire
    /// format).
    fn encode_config(&self) -> Vec<u8> {
        let mut w = BytesMut::with_capacity(256);
        w.put_u32_le(self.window_days);
        w.put_slice(&[match self.fill {
            FillStrategy::Zero => 0,
            FillStrategy::CoreNetwork => 1,
        }]);
        w.put_f64_le(self.candidates.username_threshold);
        w.put_f64_le(self.candidates.strict_username);
        w.put_f64_le(self.candidates.strict_face);
        w.put_u64_le(self.candidates.max_per_user as u64);
        put_kernel(&mut w, self.feature.dist_kernel);
        w.put_f64_le(self.feature.q);
        w.put_f64_le(self.feature.lambda);
        w.put_f64_le(self.feature.location_sensor.bandwidth_km);
        w.put_f64_le(self.feature.location_sensor.max_range_km);
        w.put_u32_le(self.feature.media_sensor.max_hamming);
        w.put_f64_le(self.feature.detector.min_quality);
        w.put_f64_le(self.feature.classifier.threshold);
        w.put_f64_le(self.feature.classifier.slope);
        w.put_u32_le(self.tasks.len() as u32);
        for t in &self.tasks {
            w.put_u32_le(t.left_platform);
            w.put_u32_le(t.right_platform);
        }
        w.freeze().to_vec()
    }

    fn decode_config(
        bytes: &[u8],
    ) -> Result<
        (
            u32,
            FillStrategy,
            CandidateConfig,
            FeatureConfig,
            Vec<TaskSpec>,
        ),
        ModelIoError,
    > {
        let mut r = Reader::new(bytes);
        r.set_section("config");
        let window_days = r.u32()?;
        let fill = match r.u8()? {
            0 => FillStrategy::Zero,
            1 => FillStrategy::CoreNetwork,
            t => return Err(r.corrupt(format!("unknown fill tag {t} (expected 0 or 1)"))),
        };
        let candidates = CandidateConfig {
            username_threshold: r.f64()?,
            strict_username: r.f64()?,
            strict_face: r.f64()?,
            max_per_user: r.usize()?,
        };
        let feature = FeatureConfig {
            dist_kernel: read_kernel(&mut r)?,
            q: r.f64()?,
            lambda: r.f64()?,
            location_sensor: LocationSensor {
                bandwidth_km: r.f64()?,
                max_range_km: r.f64()?,
            },
            media_sensor: MediaSensor {
                max_hamming: r.u32()?,
            },
            detector: FaceDetector {
                min_quality: r.f64()?,
            },
            classifier: FaceClassifier {
                threshold: r.f64()?,
                slope: r.f64()?,
            },
        };
        let num_tasks = r.u32()? as usize;
        let mut tasks = Vec::with_capacity(num_tasks.min(1024));
        for _ in 0..num_tasks {
            tasks.push(TaskSpec {
                left_platform: r.u32()?,
                right_platform: r.u32()?,
            });
        }
        Ok((window_days, fill, candidates, feature, tasks))
    }

    /// The model's config fingerprint (FNV-1a over the encoded config
    /// section — stable across save/load).
    pub fn fingerprint(&self) -> u64 {
        fnv1a(&self.encode_config())
    }

    /// Serialize to the versioned binary wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let config = self.encode_config();
        let mut w = BytesMut::with_capacity(config.len() + self.solution.alpha.len() * 8 + 128);
        w.put_slice(&MAGIC);
        w.put_u16_le(VERSION);
        w.put_u64_le(fnv1a(&config));
        w.put_u32_le(config.len() as u32);
        w.put_slice(&config);

        // --- body: importance, solution, diagnostics ----------------------
        for &x in &self.importance.weights {
            w.put_f64_le(x);
        }
        put_kernel(&mut w, self.solution.kernel);
        put_f64_vec(&mut w, &self.solution.alpha);
        w.put_f64_le(self.solution.bias);
        put_mat(&mut w, &self.solution.expansion);
        w.put_f64_le(self.solution.objective_d);
        w.put_f64_le(self.solution.objective_s);
        w.put_u64_le(self.solution.smo_iterations as u64);
        w.put_u64_le(self.solution.support_vectors as u64);
        w.put_slice(&[match self.solution.solver {
            MooSolverKind::Auto => 0,
            MooSolverKind::DenseLu => 1,
            MooSolverKind::MatrixFree => 2,
        }]);
        w.put_u64_le(self.solution.iterative_iterations as u64);
        w.put_u64_le(self.expansion_size as u64);
        w.put_u64_le(self.num_labeled as u64);
        w.freeze().to_vec()
    }

    /// Deserialize from the wire format. Rejects bad magic, newer versions,
    /// truncation, invalid tags, and config/fingerprint mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let mut r = Reader::new(bytes);
        let found = r.bytes(4)?;
        if found != MAGIC {
            return Err(ModelIoError::BadMagic {
                expected: MAGIC,
                found: [found[0], found[1], found[2], found[3]],
            });
        }
        let version = r.u16()?;
        if version == 0 || version > VERSION {
            return Err(ModelIoError::UnsupportedVersion {
                found: version,
                max: VERSION,
            });
        }
        let fingerprint = r.u64()?;
        let config_len = r.u32()? as usize;
        r.set_section("config");
        let config_bytes = r.bytes(config_len)?;
        if fnv1a(config_bytes) != fingerprint {
            return Err(r.corrupt(format!(
                "config fingerprint mismatch (header says {fingerprint:#018x}, \
                 config hashes to {:#018x})",
                fnv1a(config_bytes)
            )));
        }
        let (window_days, fill, candidates, feature, tasks) = Self::decode_config(config_bytes)?;

        r.set_section("body");
        let mut weights = [0.0f64; NUM_ATTRS];
        for w in weights.iter_mut() {
            *w = r.f64()?;
        }
        let kernel = read_kernel(&mut r)?;
        let alpha = r.f64_vec()?;
        let bias = r.f64()?;
        let expansion = read_mat(&mut r)?;
        if expansion.rows() != alpha.len() {
            return Err(r.corrupt(format!(
                "expansion rows {} != alpha length {}",
                expansion.rows(),
                alpha.len()
            )));
        }
        let objective_d = r.f64()?;
        let objective_s = r.f64()?;
        let smo_iterations = r.usize()?;
        let support_vectors = r.usize()?;
        let solver = match r.u8()? {
            0 => MooSolverKind::Auto,
            1 => MooSolverKind::DenseLu,
            2 => MooSolverKind::MatrixFree,
            t => return Err(r.corrupt(format!("unknown solver tag {t} (expected 0..=2)"))),
        };
        let iterative_iterations = r.usize()?;
        let expansion_size = r.usize()?;
        let num_labeled = r.usize()?;
        if r.remaining() != 0 {
            return Err(r.corrupt(format!("{} trailing bytes", r.remaining())));
        }

        Ok(LinkageModel {
            solution: MooSolution {
                packed: pack_expansion(&alpha, &expansion),
                alpha,
                bias,
                kernel,
                expansion,
                objective_d,
                objective_s,
                smo_iterations,
                support_vectors,
                solver,
                iterative_iterations,
            },
            importance: AttributeImportance { weights },
            tasks,
            candidates,
            feature,
            fill,
            window_days,
            expansion_size,
            num_labeled,
        })
    }

    /// Write the model to a file, crash-safely: the bytes are staged in a
    /// `<path>.tmp` sibling, fsynced, and atomically renamed into place —
    /// a crash at any point leaves the previous artifact loadable.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ModelIoError> {
        write_atomic(path.as_ref(), &self.to_bytes())
    }

    /// Load a model from a file (clearing any stale `.tmp` a crashed save
    /// left behind).
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ModelIoError> {
        Self::from_bytes(&load_bytes(path.as_ref())?)
    }

    /// Number of platform-pair tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Rebuild the feature extractor this model was trained with.
    pub fn extractor(&self) -> FeatureExtractor {
        FeatureExtractor::new(
            self.feature.clone(),
            self.importance.clone(),
            self.window_days,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_model() -> LinkageModel {
        let alpha = vec![0.25, -1.5, 3.0e-17];
        let expansion = Mat::from_vec(3, 2, vec![1.0, 2.0, 0.1 + 0.2, -0.0, f64::MIN, 5.5]);
        LinkageModel {
            solution: MooSolution {
                packed: pack_expansion(&alpha, &expansion),
                alpha,
                bias: -0.125,
                kernel: Kernel::Rbf { gamma: 0.5 },
                expansion,
                objective_d: 1.25,
                objective_s: 0.0625,
                smo_iterations: 421,
                support_vectors: 2,
                solver: MooSolverKind::DenseLu,
                iterative_iterations: 0,
            },
            importance: AttributeImportance::default(),
            tasks: vec![
                TaskSpec {
                    left_platform: 0,
                    right_platform: 1,
                },
                TaskSpec {
                    left_platform: 1,
                    right_platform: 2,
                },
            ],
            candidates: CandidateConfig::default(),
            feature: FeatureConfig::default(),
            fill: FillStrategy::CoreNetwork,
            window_days: 64,
            expansion_size: 3,
            num_labeled: 2,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = toy_model();
        let bytes = m.to_bytes();
        let loaded = LinkageModel::from_bytes(&bytes).expect("load");
        // Floats compared through their bit patterns (NaN-safe, -0.0-safe).
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&loaded.solution.alpha), bits(&m.solution.alpha));
        assert_eq!(loaded.solution.bias.to_bits(), m.solution.bias.to_bits());
        assert_eq!(
            bits(loaded.solution.expansion.as_slice()),
            bits(m.solution.expansion.as_slice())
        );
        assert_eq!(loaded.solution.kernel, m.solution.kernel);
        assert_eq!(loaded.solution.solver, m.solution.solver);
        assert_eq!(loaded.tasks, m.tasks);
        assert_eq!(loaded.fill, m.fill);
        assert_eq!(loaded.window_days, m.window_days);
        assert_eq!(loaded.expansion_size, m.expansion_size);
        assert_eq!(loaded.num_labeled, m.num_labeled);
        assert_eq!(
            bits(&loaded.importance.weights),
            bits(&m.importance.weights)
        );
        // Re-serializing the loaded model reproduces the exact buffer.
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(loaded.fingerprint(), m.fingerprint());
    }

    #[test]
    fn rejects_bad_magic_version_truncation_and_corruption() {
        let m = toy_model();
        let bytes = m.to_bytes();

        assert!(matches!(
            LinkageModel::from_bytes(b"nope"),
            Err(ModelIoError::BadMagic { .. } | ModelIoError::Truncated { .. })
        ));

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(matches!(
            LinkageModel::from_bytes(&wrong_magic),
            Err(ModelIoError::BadMagic { .. })
        ));

        let mut future = bytes.clone();
        future[4] = 0xFF; // version low byte
        assert!(matches!(
            LinkageModel::from_bytes(&future),
            Err(ModelIoError::UnsupportedVersion { .. })
        ));

        for cut in [3, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    LinkageModel::from_bytes(&bytes[..cut]),
                    Err(ModelIoError::Truncated { .. } | ModelIoError::Corrupt { .. })
                ),
                "cut at {cut} must not load"
            );
        }

        // Flip a config byte: the fingerprint check must catch it.
        let mut corrupt = bytes.clone();
        corrupt[20] ^= 0x5A;
        assert!(LinkageModel::from_bytes(&corrupt).is_err());

        // Trailing garbage is rejected too.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            LinkageModel::from_bytes(&trailing),
            Err(ModelIoError::Corrupt { .. })
        ));
    }

    #[test]
    fn error_messages_carry_diagnostic_context() {
        let m = toy_model();
        let bytes = m.to_bytes();

        // Bad magic: expected vs found, both visible.
        let msg = LinkageModel::from_bytes(b"XYZW trailing")
            .expect_err("bad magic")
            .to_string();
        assert!(msg.contains("HYLM"), "expected magic in {msg:?}");
        assert!(msg.contains("XYZW"), "found magic in {msg:?}");

        // Unsupported version: found and max.
        let mut future = bytes.clone();
        future[4] = 9;
        let msg = LinkageModel::from_bytes(&future)
            .expect_err("future version")
            .to_string();
        assert!(msg.contains("version 9"), "found version in {msg:?}");
        assert!(msg.contains("up to 1"), "max version in {msg:?}");

        // Truncation: byte offset, bytes needed, bytes remaining, section.
        let cut = bytes.len() - 3;
        let msg = LinkageModel::from_bytes(&bytes[..cut])
            .expect_err("truncated")
            .to_string();
        assert!(msg.contains("byte offset"), "offset in {msg:?}");
        assert!(msg.contains("section"), "section name in {msg:?}");
        assert!(msg.contains("remain"), "remaining count in {msg:?}");

        // Corruption names the section and offset too.
        let mut trailing = bytes.clone();
        trailing.push(0);
        let msg = LinkageModel::from_bytes(&trailing)
            .expect_err("trailing")
            .to_string();
        assert!(msg.contains("section 'body'"), "section in {msg:?}");
        assert!(msg.contains("trailing"), "cause in {msg:?}");
    }

    #[test]
    fn every_prefix_truncation_errors_never_panics() {
        let bytes = toy_model().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                LinkageModel::from_bytes(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not load"
            );
        }
        assert!(LinkageModel::from_bytes(&bytes).is_ok());
    }

    #[test]
    fn save_load_file_round_trip() {
        let m = toy_model();
        let path = std::env::temp_dir().join("hydra_artifact_test.hylm");
        m.save(&path).expect("save");
        assert!(
            !tmp_sibling(&path).exists(),
            "a clean save leaves no temp behind"
        );
        let loaded = LinkageModel::load(&path).expect("load");
        assert_eq!(loaded.to_bytes(), m.to_bytes());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_cleans_stale_temp_from_crashed_save() {
        let m = toy_model();
        let path = std::env::temp_dir().join("hydra_artifact_stale_tmp.hylm");
        m.save(&path).expect("save");
        // Simulate a crash that died after staging but before the rename.
        std::fs::write(tmp_sibling(&path), b"torn half-written artifact").expect("stage");
        let loaded = LinkageModel::load(&path).expect("load ignores the temp");
        assert_eq!(loaded.to_bytes(), m.to_bytes());
        assert!(
            !tmp_sibling(&path).exists(),
            "load sweeps the stale temp away"
        );
        let _ = std::fs::remove_file(&path);
    }
}
