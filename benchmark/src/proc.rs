//! Child processes and memory high-water marks.

use std::fs::{self, File};
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// What one child process cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildRun {
    /// Exit status.
    pub status: ExitStatus,
    /// Wall time, spawn to exit, seconds.
    pub wall_s: f64,
    /// Largest `VmHWM` seen while the child ran, MB.
    pub peak_rss_mb: f64,
}

/// `VmHWM` (peak resident set) of process `pid`, MB; `None` once the
/// process is a zombie or gone.
fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, MB.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    vm_hwm_mb("self").ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// Run `cmd` to completion with stdout and stderr appended to `log`,
/// polling the child's memory high-water mark while waiting. The child
/// is always waited for, so none outlives the benchmark.
pub fn run_child(cmd: &mut Command, log: &Path) -> Result<ChildRun, String> {
    /// `VmHWM` only grows, so polling misses at most the growth of the
    /// last interval before exit.
    const POLL: Duration = Duration::from_millis(5);
    let out = File::options()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("open {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("clone log handle: {e}"))?;
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
    let pid = child.id().to_string();
    let mut peak_rss_mb = 0.0f64;
    loop {
        if let Some(mb) = vm_hwm_mb(&pid) {
            peak_rss_mb = peak_rss_mb.max(mb);
        }
        match child.try_wait() {
            Ok(Some(status)) => {
                return Ok(ChildRun {
                    status,
                    wall_s: t0.elapsed().as_secs_f64(),
                    peak_rss_mb,
                });
            }
            Ok(None) => thread::sleep(POLL),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait for {:?}: {e}", cmd.get_program()));
            }
        }
    }
}

/// Remove `dir` if present and create it empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}
