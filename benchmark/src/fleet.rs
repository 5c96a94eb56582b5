//! A fleet of real `hydra-shardd` processes, owned by a guard that kills
//! and reaps them on every exit path — normal return, error, or panic — so
//! a failed run never leaves shard processes skewing the next one.

use crate::world::{Scratch, World};
use hydra_core::shard::RetryPolicy;
use hydra_net::coordinator::Endpoint;
use hydra_net::DistributedEngine;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Shard processes in the fleet — one connection each from the single
/// closed-loop client, matching the two cores of the reference host.
pub const SHARDS: usize = 2;

/// The running shard processes. Dropping the fleet kills and waits for
/// every child still alive.
pub struct Fleet {
    children: Vec<Child>,
    pub endpoints: Vec<Endpoint>,
    /// Per-shard spawn → `READY` wall clock.
    pub cold_start_ns: Vec<u64>,
    /// Per-shard population slice files the fleet started from.
    pub slice_paths: Vec<PathBuf>,
    /// Wall clock of cutting and saving the slices.
    pub slice_ns: u64,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.children {
            // Already-exited children make `kill` fail; `wait` reaps both.
            child.kill().ok();
            child.wait().ok();
        }
    }
}

/// `hydra-shardd` next to this executable: `run.sh` builds both into the
/// same target directory.
fn shardd_exe() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let path = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("hydra-shardd");
    if path.exists() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — run.sh builds it with `cargo build --release -p hydra-net --bin hydra-shardd`",
            path.display()
        ))
    }
}

impl Fleet {
    /// Cut the world's population into per-shard slices, save them, and
    /// cold-start one `hydra-shardd` per slice over a unix socket in the
    /// scratch directory. Returns once every shard printed `READY`.
    pub fn launch(world: &World, scratch: &Scratch) -> Result<Fleet, String> {
        let exe = shardd_exe()?;
        let t = Instant::now();
        let full = world.population();
        let mut slice_paths = Vec::with_capacity(SHARDS);
        for s in 0..SHARDS {
            let path = scratch.path().join(format!("slice-{s}.hypp"));
            full.slice_for_shard(s, SHARDS, &world.model().tasks)
                .map_err(|e| format!("slice {s}: {e}"))?
                .save(&path)
                .map_err(|e| format!("save slice {s}: {e}"))?;
            slice_paths.push(path);
        }
        let slice_ns = t.elapsed().as_nanos() as u64;

        let mut fleet = Fleet {
            children: Vec::with_capacity(SHARDS),
            endpoints: Vec::with_capacity(SHARDS),
            cold_start_ns: Vec::with_capacity(SHARDS),
            slice_paths,
            slice_ns,
        };
        for s in 0..SHARDS {
            let sock = scratch.path().join(format!("shard-{s}.sock"));
            let (child, ns) =
                spawn_shard(&exe, &world.serving_path, &fleet.slice_paths[s], &sock, s)?;
            // Owned by the guard from here on, whatever happens next.
            fleet.children.push(child);
            fleet.cold_start_ns.push(ns);
            fleet.endpoints.push(Endpoint::Unix(sock));
        }
        Ok(fleet)
    }

    /// Attach a coordinator to the fleet.
    pub fn connect(&self, world: &World) -> Result<DistributedEngine, String> {
        let retry = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(20),
        };
        DistributedEngine::connect(world.model().clone(), self.endpoints.clone(), retry)
            .map_err(|e| format!("coordinator connect: {e}"))
    }

    /// Summed peak resident set (`VmHWM`) of the shard processes, in bytes.
    pub fn peak_rss_bytes(&self) -> u64 {
        self.children.iter().map(|c| vm_hwm_bytes(c.id())).sum()
    }

    /// Ask every shard to exit through the coordinator, then check each
    /// exited cleanly. (The guard still reaps whatever is left.)
    pub fn shutdown(mut self, engine: &mut DistributedEngine) -> Result<(), String> {
        engine.shutdown_all();
        for (s, child) in self.children.iter_mut().enumerate() {
            let status = child.wait().map_err(|e| format!("wait shard {s}: {e}"))?;
            if !status.success() {
                return Err(format!("shard {s} exited with {status}"));
            }
        }
        Ok(())
    }
}

/// Spawn one shard process and block until its `READY` line; returns the
/// child and the spawn → `READY` wall clock (artifact parse + replica
/// build + bind). Shard-side metrics collection is off (`HYDRA_OBS=0`) in
/// both the untraced and the traced run, so the two differ only by the
/// driver's own span recording.
fn spawn_shard(
    exe: &Path,
    serving: &Path,
    slice: &Path,
    sock: &Path,
    shard: usize,
) -> Result<(Child, u64), String> {
    let t = Instant::now();
    let mut child = Command::new(exe)
        .arg("--artifact")
        .arg(serving)
        .arg("--population")
        .arg(slice)
        .arg("--shard")
        .arg(shard.to_string())
        .arg("--num-shards")
        .arg(SHARDS.to_string())
        .arg("--listen")
        .arg(format!("unix:{}", sock.display()))
        .env("HYDRA_OBS", "0")
        // The fleet shares the driver's thread budget: with two shards on
        // the two-core reference host, one worker thread each.
        .env(
            "HYDRA_THREADS",
            (hydra_par::num_threads() / SHARDS).max(1).to_string(),
        )
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    let read = std::io::BufReader::new(stdout).read_line(&mut line);
    let ns = t.elapsed().as_nanos() as u64;
    if !matches!(read, Ok(n) if n > 0) || !line.starts_with("READY ") {
        child.kill().ok();
        child.wait().ok();
        return Err(format!("shard {shard} did not report READY (got {line:?})"));
    }
    Ok((child, ns))
}

/// Peak resident set size (`VmHWM`) of a live process in bytes, 0 when the
/// process or the field is gone.
pub fn vm_hwm_bytes(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}
