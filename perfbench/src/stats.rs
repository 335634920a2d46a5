//! Small numeric and process helpers: order statistics, peak RSS and the
//! streaming-copy probe.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for even counts); `0.0` for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (the "type 7"
/// definition); `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Mean of `values`; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Size of each of the copy probe's two buffers.
pub const COPY_MIB: usize = 32;

/// One cache line of the copy probe's buffers.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([u64; 8]);

/// Streaming-copy bandwidth to and from memory in GB/s (bytes read + bytes
/// written per second), the median of repeated copies between two
/// `COPY_MIB` MiB buffers.  The last-level cache may be larger than the
/// buffers (see `llc_mib`), so on x86-64 both buffers are flushed from every
/// cache level before each timed copy and the copy writes with
/// non-temporal stores: it reads from and writes to memory whatever the
/// cache size.  Elsewhere it is a plain copy and may run from cache.
pub fn copy_gbps() -> f64 {
    const LINES: usize = (COPY_MIB << 20) / 64;
    let src: Vec<Line> = (0..LINES as u64).map(|i| Line([i; 8])).collect();
    let mut dst = vec![Line([0; 8]); LINES];
    stream_copy(&mut dst, &src); // fault every page in before timing
    let mut samples = Vec::new();
    for _ in 0..15 {
        flush(&src);
        flush(&dst);
        let start = Instant::now();
        stream_copy(&mut dst, black_box(&src));
        black_box(&mut dst);
        let secs = start.elapsed().as_secs_f64();
        samples.push((2 * LINES * 64) as f64 / secs / 1e9);
    }
    median(&samples)
}

#[cfg(target_arch = "x86_64")]
fn flush(lines: &[Line]) {
    use std::arch::x86_64::{_mm_clflush, _mm_mfence};
    // SAFETY: every pointer is to a live cache line of `lines`; SSE2
    // (clflush, mfence) is part of the x86-64 baseline.
    unsafe {
        for line in lines {
            _mm_clflush(line as *const Line as *const u8);
        }
        _mm_mfence();
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn flush(_: &[Line]) {}

#[cfg(target_arch = "x86_64")]
fn stream_copy(dst: &mut [Line], src: &[Line]) {
    use std::arch::x86_64::{__m128i, _mm_load_si128, _mm_sfence, _mm_stream_si128};
    // SAFETY: `Line` is 64-byte aligned, so each of its four 16-byte
    // quarters is aligned for the aligned load and the streaming store;
    // SSE2 is part of the x86-64 baseline.
    unsafe {
        for (d, s) in dst.iter_mut().zip(src) {
            let s = s as *const Line as *const __m128i;
            let d = d as *mut Line as *mut __m128i;
            for q in 0..4 {
                _mm_stream_si128(d.add(q), _mm_load_si128(s.add(q)));
            }
        }
        _mm_sfence();
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn stream_copy(dst: &mut [Line], src: &[Line]) {
    dst.copy_from_slice(src);
}

/// Size of the last-level cache in MiB as the kernel reports it, or `None`
/// where `/sys` does not say.
pub fn llc_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index3/size").ok()?;
    let text = text.trim();
    let (digits, scale) = match text.strip_suffix('K') {
        Some(d) => (d, 1.0 / 1024.0),
        None => match text.strip_suffix('M') {
            Some(d) => (d, 1.0),
            None => (text, 1.0 / (1024.0 * 1024.0)),
        },
    };
    Some(digits.parse::<f64>().ok()? * scale)
}

/// One line naming how the copy probe measured, for the traced run's output.
pub fn copy_probe_note() -> String {
    let llc = llc_mib().map_or("unknown".to_string(), |m| format!("{m:.0} MiB"));
    let how = if cfg!(target_arch = "x86_64") {
        "flushed from cache before each copy, non-temporal stores"
    } else {
        "plain copy, may run from cache"
    };
    format!("mem.copy_gbps: two {COPY_MIB} MiB buffers, {how}; last-level cache {llc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(
            (quantile(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], 0.9) - 9.1).abs()
                < 1e-12
        );
        assert_eq!(median(&[]), 0.0);
    }
}
