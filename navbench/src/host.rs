//! The host fingerprint stamped on every result, and process memory.
//!
//! Timings taken on different CPUs, core counts, SIMD kernel tiers or
//! compilers are not comparable; `navbench compare` refuses two records
//! whose fingerprints differ instead of reporting a false regression.

/// What a result's timings depend on besides the code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub cpu_model: String,
    pub nproc: usize,
    pub simd_kernel: String,
    pub rustc: String,
}

impl Fingerprint {
    /// The fingerprint of the running host and binary.
    pub fn current() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            cpu_model,
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            simd_kernel: navft_nn::simd_kernel_name().to_string(),
            rustc: env!("NAVBENCH_RUSTC_VERSION").to_string(),
        }
    }

    /// One line, `key=value` pairs separated by `; `.
    pub fn render(&self) -> String {
        format!(
            "cpu={}; nproc={}; simd={}; rustc={}",
            self.cpu_model, self.nproc, self.simd_kernel, self.rustc
        )
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), with the
/// kernel's kB resolution.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines().find(|line| line.starts_with("VmHWM:")).and_then(|line| {
                line.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
