//! Thread pinning for the native runtime (Linux `sched_setaffinity`).

use ompvar_topology::Place;

/// Pin the calling thread to the hardware threads of `place`.
///
/// Returns `true` on success. On non-Linux platforms, or when the target
/// CPUs do not exist on the host (e.g. pinning a 128-core place list on a
/// laptop), this degrades to a no-op returning `false` — the runtime still
/// runs, just unpinned, which is the honest fallback.
pub fn pin_current_thread(place: &Place) -> bool {
    set_current_affinity(place.hw_threads().iter().map(|hw| hw.0))
}

/// Restrict the calling thread to `cpus` (those of them the host has);
/// `false`, and no change, when none exists or the platform cannot.
/// A long-lived team thread uses this to go back to the mask
/// [`current_affinity`] reported before its first pin.
#[cfg(target_os = "linux")]
pub fn set_current_affinity(cpus: impl IntoIterator<Item = usize>) -> bool {
    // SAFETY: cpu_set_t is a plain bitset; we only set bits for CPUs that
    // exist on this host, and pass the correct size to the syscall.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        let online = libc::sysconf(libc::_SC_NPROCESSORS_ONLN);
        if online <= 0 {
            return false;
        }
        let mut any = false;
        for cpu in cpus {
            if (cpu as i64) < online as i64 {
                libc::CPU_SET(cpu, &mut set);
                any = true;
            }
        }
        if !any {
            return false;
        }
        libc::sched_setaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &set) == 0
    }
}

/// Non-Linux fallback: pinning is unsupported.
#[cfg(not(target_os = "linux"))]
pub fn set_current_affinity(_cpus: impl IntoIterator<Item = usize>) -> bool {
    false
}

/// The set of CPUs the calling thread may currently run on (Linux), or
/// `None` where unsupported.
#[cfg(target_os = "linux")]
pub fn current_affinity() -> Option<Vec<usize>> {
    // SAFETY: as above; we read back the kernel-filled bitset.
    unsafe {
        let mut set: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, std::mem::size_of::<libc::cpu_set_t>(), &mut set) != 0 {
            return None;
        }
        let online = libc::sysconf(libc::_SC_NPROCESSORS_ONLN).max(0) as usize;
        Some(
            (0..online.min(libc::CPU_SETSIZE as usize))
                .filter(|&c| libc::CPU_ISSET(c, &set))
                .collect(),
        )
    }
}

/// Non-Linux fallback.
#[cfg(not(target_os = "linux"))]
pub fn current_affinity() -> Option<Vec<usize>> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompvar_topology::HwThreadId;

    #[test]
    #[cfg(target_os = "linux")]
    fn pin_to_cpu0_succeeds_and_is_visible() {
        let ok = pin_current_thread(&Place::single(HwThreadId(0)));
        assert!(ok, "pinning to cpu0 should succeed on Linux");
        let aff = current_affinity().unwrap();
        assert_eq!(aff, vec![0]);
    }

    #[test]
    fn pin_to_nonexistent_cpu_degrades_gracefully() {
        let ok = pin_current_thread(&Place::single(HwThreadId(100_000)));
        assert!(!ok);
    }
}
