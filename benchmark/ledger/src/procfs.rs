//! Resource readings from `/proc/self/{stat,status}`. Every reader
//! returns `None` where the file or field is missing (not Linux, a
//! hardened container), and the report says "unavailable" instead of
//! printing a made-up number.

/// Kernel clock ticks per second as `/proc/self/stat` counts them
/// (`USER_HZ`, 100 on every Linux ABI this builds for).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` of the whole process, in clock ticks. The command
/// name (field 2) may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The number on the `key:` line of `/proc/self/status` (`VmHWM`,
/// `VmRSS` in kB; `Threads` as a count).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Process CPU time (user + system, all threads, exited ones included)
/// in milliseconds.
///
/// `/proc/self/stat` is the portable source, but this kernel accounts
/// CPU by *sampling*: every 4 ms tick is charged whole to whatever runs
/// at that instant. For a process that is busy a quarter of the time,
/// two seconds' worth of ticks reads ±12% by chance alone. The
/// scheduler's own nanosecond accounting is exact, and
/// `CLOCK_PROCESS_CPUTIME_ID` reads it; `/proc` is the fallback.
pub fn cpu_ms() -> Option<f64> {
    cpu_clock_ms().or_else(|| {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        Some(parse_stat_cpu_ticks(&stat)? as f64 * 1000.0 / TICKS_PER_S)
    })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_ms() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        // From the C library `std` already links; no new dependency.
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call: two 64-bit fields in this order on every 64-bit Linux ABI,
    // which the `cfg` above restricts this function to. The call writes
    // nothing else and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_ms() -> Option<f64> {
    None
}

fn status_field(key: &str) -> Option<u64> {
    parse_status_field(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

/// Peak resident set (`VmHWM`), kB.
pub fn peak_rss_kb() -> Option<u64> {
    status_field("VmHWM")
}

/// Current resident set (`VmRSS`), kB.
pub fn rss_kb() -> Option<u64> {
    status_field("VmRSS")
}

/// Live OS threads of this process.
pub fn threads() -> Option<u64> {
    status_field("Threads")
}

/// 1-minute load average, for the host stamp.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (ledger (v2) x) S 1 4242 4242 0 -1 4194304 1519 0 0 0 \
                        731 269 0 0 20 0 9 0 123456 104857600 2560 18446744073709551615 \
                        1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    const STATUS: &str = "Name:\tledger\nVmPeak:\t  204800 kB\nVmHWM:\t   10240 kB\n\
                          VmRSS:\t    9216 kB\nThreads:\t9\n";

    #[test]
    fn stat_cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 269));
    }

    #[test]
    fn status_fields_parse_by_exact_key() {
        assert_eq!(parse_status_field(STATUS, "VmHWM"), Some(10240));
        assert_eq!(parse_status_field(STATUS, "VmRSS"), Some(9216));
        assert_eq!(parse_status_field(STATUS, "Threads"), Some(9));
        // `Vm` is a prefix of several keys but is not itself a key.
        assert_eq!(parse_status_field(STATUS, "Vm"), None);
    }

    #[test]
    fn the_cpu_clock_runs_forward_while_this_thread_works() {
        let Some(before) = cpu_ms() else {
            return; // no CPU clock on this platform: "unavailable"
        };
        let mut x = 0u64;
        let t = std::time::Instant::now();
        while t.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_ms().expect("the clock does not vanish") - before;
        // Other tests run on other threads of this process, so there is
        // no upper limit to assert; with the precise clock the lower one
        // is this thread's own spin.
        assert!(
            spent >= if cpu_clock_ms().is_some() { 5.0 } else { 0.0 },
            "{spent} ms"
        );
    }

    #[test]
    fn missing_or_mangled_text_is_unavailable_not_zero() {
        assert_eq!(parse_stat_cpu_ticks(""), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
        assert_eq!(parse_status_field("", "VmHWM"), None);
        assert_eq!(parse_status_field("VmHWM:\tlots kB\n", "VmHWM"), None);
    }
}
