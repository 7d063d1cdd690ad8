//! Host context read from `/proc`: CPU count, load averages and the
//! process's peak resident set size.

/// The 1-, 5- and 15-minute load averages, or zeros where `/proc/loadavg`
/// is unreadable.
pub fn load_averages() -> [f64; 3] {
    let text = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let mut out = [0.0; 3];
    for (slot, field) in out.iter_mut().zip(text.split_whitespace()) {
        *slot = field.parse().unwrap_or(0.0);
    }
    out
}

/// Logical CPUs this process may run on.
pub fn cpu_count() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// CPU time (user + system, every thread) this process has used, in
/// seconds: fields 14 and 15 of `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / TICKS_PER_S
}

/// Host-wide `(steal, total)` CPU ticks from the first line of
/// `/proc/stat`: time the hypervisor ran something else on our vCPUs.
fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// A start/end window of host state around one run.
#[derive(Debug, Clone)]
pub struct HostWindow {
    pub cpus: usize,
    pub load_start: [f64; 3],
    pub load_end: [f64; 3],
    steal_start: (u64, u64),
    /// Share of all vCPU time stolen by the hypervisor during the run.
    pub steal_share: f64,
}

impl HostWindow {
    pub fn open() -> HostWindow {
        HostWindow {
            cpus: cpu_count(),
            load_start: load_averages(),
            load_end: [0.0; 3],
            steal_start: steal_ticks(),
            steal_share: 0.0,
        }
    }

    pub fn close(&mut self) {
        self.load_end = load_averages();
        let (steal, total) = steal_ticks();
        let dt = total.saturating_sub(self.steal_start.1).max(1);
        self.steal_share = steal.saturating_sub(self.steal_start.0) as f64 / dt as f64;
    }

    pub fn to_json(&self) -> String {
        let l = |a: &[f64; 3]| format!("[{}, {}, {}]", a[0], a[1], a[2]);
        format!(
            "{{\"cpus\": {}, \"load_start\": {}, \"load_end\": {}, \"steal_share\": {:?}}}",
            self.cpus,
            l(&self.load_start),
            l(&self.load_end),
            self.steal_share
        )
    }
}
