//! CPU time and host steal, read from `/proc`: what the measured code
//! ran for (scheduler run time, which leaves out time the hypervisor
//! stole), and how much of the machine the host took away meanwhile.

/// First field of a `schedstat` file: time spent running, ns.
fn run_ns(path: &str) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has run, ns (exact, unlike `schedstat`,
/// which lags a running thread by up to a scheduler tick).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed struct laid out as the
    // C `struct timespec` on 64-bit Linux (two 64-bit fields,
    // `repr(C)`); clock_gettime(2) only writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's id.
pub fn thread_id() -> Option<u32> {
    std::fs::read_link("/proc/thread-self")
        .ok()?
        .file_name()?
        .to_str()?
        .parse()
        .ok()
}

/// CPU time summed over this process's live threads except `exclude`, ns.
pub fn threads_cpu_ns(exclude: &[u32]) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|tid| !exclude.contains(tid))
        .filter_map(|tid| run_ns(&format!("/proc/self/task/{tid}/schedstat")))
        .sum()
}

/// The host-steal counters of all CPUs at one instant, in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Steal {
    stolen: f64,
    total: f64,
}

/// Read the steal counters now (zeros where `/proc/stat` is unavailable).
pub fn steal() -> Steal {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let v: Vec<f64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|x| x.parse().ok())
                .collect();
            Some(Steal {
                stolen: *v.get(7)?,
                total: v.iter().take(8).sum(),
            })
        })
        .unwrap_or_default()
}

impl Steal {
    /// Share of all CPU time the host stole between `self` and `later`.
    pub fn share_until(&self, later: &Steal) -> f64 {
        (later.stolen - self.stolen) / (later.total - self.total).max(1.0)
    }
}
