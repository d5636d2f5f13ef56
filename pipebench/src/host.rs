//! What the harness asks of the host: a monotonic nanosecond clock,
//! process CPU time, peak resident memory, and a scratch directory that
//! lives inside the build tree and is removed however the run ends.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Nanoseconds since the harness started; every span and timing is
/// stamped from this one origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        duration_ns(self.0.elapsed())
    }
}

/// Whole nanoseconds of `d`, saturating.
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to a live, properly aligned `Timespec` whose layout
    // (two 64-bit fields) is the 64-bit Linux ABI's; both callers pass a
    // valid clock id, and the return value is checked.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process (every thread, exited
/// ones included), in nanoseconds. `/proc/self/stat` would give the same
/// figure in 10 ms ticks, too coarse for a 2 ms packet.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The directory the running executable sits in: inside the cargo target
/// directory, hence inside the checkout and ignored by git. Resolved at
/// run time; nothing is baked in at compile time.
pub fn exe_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "executable has no parent directory".to_string())
}

/// A per-process scratch directory for archive roots, removed on drop —
/// on success, on a failed gate, and when a panic unwinds.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> Result<Self, String> {
        let dir = exe_dir()?.join(format!("pipebench-scratch-{}", std::process::id()));
        // A recycled pid may have left a directory behind after a kill.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Order-sensitive 64-bit digest for the bit-equality gates (iterations,
/// reconstructed samples, wire bytes, decoded measurements). Word-wise so
/// that hashing a packet costs far less than the cheapest stage it
/// checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        let mut h = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        self.0 = h;
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for pair in values.chunks(2) {
            let lo = u64::from(pair[0].to_bits());
            let hi = pair.get(1).map_or(0, |v| u64::from(v.to_bits()));
            self.word(lo | hi << 32);
        }
    }

    pub fn i32s(&mut self, values: &[i32]) {
        for pair in values.chunks(2) {
            let lo = u64::from(pair[0] as u32);
            let hi = pair.get(1).map_or(0, |&v| u64::from(v as u32));
            self.word(lo | hi << 32);
        }
    }
}

/// splitmix64: the harness's only randomness, for seed → offsets and
/// lane order.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
