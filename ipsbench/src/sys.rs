//! Process memory readings from `/proc/self`.

use std::fs;

extern "C" {
    /// glibc: return free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Hand freed heap pages back to the kernel, so memory the engine reuses
/// from earlier allocations shows up in its peak RSS again.
pub fn release_free_heap() {
    // SAFETY: malloc_trim takes no pointers and only releases pages the
    // allocator holds free; glibc allows it at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the peak-RSS watermark (`VmHWM`) to the current RSS.
pub fn reset_peak_rss() {
    // "5" resets the peak RSS; without it the peak reads as the process
    // lifetime's, which the input generation dominates.
    if let Err(e) = fs::write("/proc/self/clear_refs", "5") {
        eprintln!("ipsbench: cannot reset peak RSS: {e}");
    }
}

pub fn rss_kib() -> u64 {
    status_kib("VmRSS:")
}

pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:")
}

fn status_kib(field: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
