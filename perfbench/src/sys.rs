//! Process accounting read from `/proc` (Linux).

use std::fs;

/// User + system CPU seconds of this process, and of its children that
/// have been waited for.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub own: f64,
    pub children: f64,
}

impl Cpu {
    pub fn total(&self) -> f64 {
        self.own + self.children
    }

    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu { own: self.own - earlier.own, children: self.children - earlier.children }
    }
}

/// Read this process's CPU time; `clk_tck` is `sysconf(_SC_CLK_TCK)`.
pub fn cpu(clk_tck: f64) -> Result<Cpu, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is fields[0]; utime, stime, cutime, cstime are
    // fields 14..=17.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .map(|t| t / clk_tck)
            .ok_or_else(|| format!("/proc/self/stat field {i}"))
    };
    Ok(Cpu { own: tick(14)? + tick(15)?, children: tick(16)? + tick(17)? })
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}

/// Threads of process `pid` right now; 0 when it has gone.
pub fn threads(pid: u32) -> u64 {
    fs::read_dir(format!("/proc/{pid}/task")).map_or(0, |d| d.count() as u64)
}

/// Ticks of CPU time the hypervisor took from this machine's CPUs
/// (`steal` in `/proc/stat`), machine-wide; 0 when unreadable.
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().and_then(|l| l.split_whitespace().nth(8)?.parse().ok()))
        .unwrap_or(0)
}
