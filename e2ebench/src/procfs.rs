//! Process probes: page faults and CPU time from `/proc/self/stat` and
//! `getrusage`, peak RSS from `/proc/self/status`, and the scratch
//! filesystem's type and free space. Linux only; every probe degrades to
//! zero or `None` where the file or call is unavailable.

use std::path::Path;

/// Page-fault and CPU counters of the whole process at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Minor faults (page served from memory, e.g. the page cache).
    pub minflt: u64,
    /// Major faults (page read from disk).
    pub majflt: u64,
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Involuntary context switches, all threads.
    pub ctxsw_nonvol: u64,
}

impl Sample {
    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Sample) -> Sample {
        Sample {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
            ctxsw_nonvol: self.ctxsw_nonvol.saturating_sub(earlier.ctxsw_nonvol),
        }
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

/// `struct statvfs` on 64-bit Linux: eleven `unsigned long`-sized fields
/// then `int __f_spare[6]`, 112 bytes in all.
#[repr(C)]
#[derive(Default)]
struct StatVfs {
    fields: [u64; 11],
    spare: [i32; 6],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn statvfs(path: *const std::ffi::c_char, buf: *mut StatVfs) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// Index of `ru_nivcsw` within [`RUsage::counters`].
const NIVCSW: usize = 13;

/// Read the process counters now.
pub fn sample() -> Sample {
    let (minflt, majflt) = faults();
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the kernel's
    // 64-bit layout, and RUSAGE_SELF names the calling process.
    let ok = unsafe { getrusage(RUSAGE_SELF, &mut ru) } == 0;
    if !ok {
        return Sample {
            minflt,
            majflt,
            ..Sample::default()
        };
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Sample {
        minflt,
        majflt,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        ctxsw_nonvol: ru.counters[NIVCSW].max(0) as u64,
    }
}

/// `(minflt, majflt)` of the whole process from `/proc/self/stat`.
fn faults() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0, 0);
    };
    // The command name may hold spaces; fields resume after its `)`.
    // Field 3 (state) is the first token there, so field k sits at k - 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |k: usize| fields.get(k - 3).and_then(|v| v.parse().ok()).unwrap_or(0);
    (field(10), field(12))
}

/// Machine-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`: time the hypervisor ran something else while this
/// machine's CPUs wanted to run, against all CPU time.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Return freed heap pages to the kernel, then reset `VmHWM` to the
/// current resident set, so the peak covers only what runs afterwards
/// and does not depend on how much an earlier repetition left cached in
/// the allocator. Returns whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    // SAFETY: malloc_trim only releases free memory the allocator holds;
    // it takes no pointers and is safe to call at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Free bytes available to this user on the filesystem holding `path`.
pub fn free_bytes(path: &Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;
    let c_path = std::ffi::CString::new(path.as_os_str().as_bytes()).ok()?;
    let mut buf = StatVfs::default();
    // SAFETY: `c_path` is a NUL-terminated string that outlives the call
    // and `buf` is a writable `struct statvfs` of the kernel's layout.
    let rc = unsafe { statvfs(c_path.as_ptr(), &mut buf) };
    // f_frsize (fragment size) × f_bavail (blocks free to non-root).
    (rc == 0).then(|| buf.fields[1].saturating_mul(buf.fields[4]))
}

/// Filesystem type and mount point holding `path`, from the longest
/// matching mount point in `/proc/self/mountinfo`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount) = left.split_whitespace().nth(4) else {
            continue;
        };
        let fstype = right.split_whitespace().next().unwrap_or("?");
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), format!("{fstype} on {mount}")));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let a = sample();
        let v: Vec<u64> = (0..200_000).collect();
        std::hint::black_box(&v);
        let b = sample();
        let d = b.since(&a);
        assert!(b.minflt >= a.minflt);
        assert!(d.cpu_s >= 0.0);
    }

    #[test]
    fn peak_rss_and_filesystem_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(free_bytes(Path::new(".")).is_some_and(|b| b > 0));
        assert_ne!(filesystem_of(Path::new(".")), "unknown");
    }
}
