//! Process accounting read from `/proc`, and the host stamp of a result.

use std::process::Command;

/// Kernel clock ticks per second in `/proc/<pid>/stat`. `USER_HZ` is 100 on
/// every Linux architecture this repo builds on; the value is an ABI
/// constant, not the kernel's internal `HZ`.
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time of the whole process (all threads), in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTime {
    /// Time in user mode.
    pub user_s: f64,
    /// Time in kernel mode.
    pub sys_s: f64,
}

impl CpuTime {
    /// `utime + stime`.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s + other.user_s,
            sys_s: self.sys_s + other.sys_s,
        }
    }
}

/// Parse the `utime` and `stime` fields (14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime is field 14.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/<pid>/status`, kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_ascii_whitespace();
    let value = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(value)
}

/// CPU time this process has used so far.
pub fn cpu_now() -> CpuTime {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .expect("/proc/self/status carries VmHWM on Linux");
    kb as f64 * 1024.0 / 1e6
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// What the numbers of a result file were measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string of the first core.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, if it is a repository.
    pub git_commit: String,
    /// Cargo profile the benchmark binary was built with.
    pub profile: &'static str,
}

impl Host {
    /// Read the stamp; anything unavailable reads `unknown`.
    pub fn detect() -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(unknown),
            git_commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        // A command name with spaces and a ')' must not shift the fields.
        let line = "4242 (rt bench) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 9 0 100 1000000 250 18446744073709551615";
        let cpu = parse_stat(line).unwrap();
        assert_eq!(cpu.user_s, 12.34);
        assert_eq!(cpu.sys_s, 5.67);
        assert_eq!(cpu.total_s(), 12.34 + 5.67);
        assert!(parse_stat("no parenthesis here").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status =
            "Name:\trt-benchmark\nVmPeak:\t  999999 kB\nVmHWM:\t   53124 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(53124));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let a = cpu_now();
        assert!(a.total_s() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
        let b = cpu_now().since(a);
        assert!(b.total_s() >= 0.0);
    }
}
