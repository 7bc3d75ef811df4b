//! Helpers shared by the test binaries of this directory.

/// High-water mark of this process's resident set, in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:")).expect("VmHWM line");
    line.split_whitespace().next().and_then(|kib| kib.parse().ok()).expect("VmHWM value")
}
