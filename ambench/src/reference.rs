//! Reference-speed time: compute time corrected for the host's speed.
//!
//! The cores of a shared host change speed by tens of percent over
//! seconds to minutes as other tenants come and go, and no run length
//! averages that away. So the batch workloads time a fixed kernel between
//! their samples (at least every 20 ms) and correct each sample by the two
//! kernel timings that bracket it: the sample's wall time is multiplied by
//! [`NOMINAL_KERNEL_MS`] over the slower of the two. That is the time the
//! sample would have taken with the kernel at its nominal speed. The slower
//! timing is the one used because a burst of contention that overlaps a
//! sample shows in the timing at its start or at its end; on the reference
//! box this kept repeated runs closer together than a median or a mean of
//! recent timings did.
//!
//! The result is still a duration in milliseconds (or seconds), the one the
//! reference box reads when idle, and it can be set beside wall-clock
//! times. The kernel is this crate's own code (hashing, sorting and map
//! lookups, like a compiler's inner loops), so no change to the optimizer
//! makes it faster or slower.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on an idle core of the reference box (2 vCPUs of an
/// Intel Xeon at 2.0 GHz), wall ms: the speed every batch time is
/// corrected to.
pub const NOMINAL_KERNEL_MS: f64 = 0.8;
/// Longest gap between two kernel timings.
const REMEASURE: Duration = Duration::from_millis(20);

/// Fixed work of about a millisecond.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut v: Vec<u64> = Vec::with_capacity(16384);
    for i in 0..16384u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        *map.entry(x & 4095).or_insert(0) += i;
    }
    v.sort_unstable();
    v.windows(2)
        .fold(0u64, |acc, w| acc.wrapping_add(map[&(w[0] & 4095)] ^ w[1]))
}

fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// The kernel's last timing.
pub struct Reference {
    last_ms: f64,
    measured_at: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Times the kernel once to start with.
    pub fn new() -> Reference {
        Reference {
            last_ms: time_kernel(),
            measured_at: Instant::now(),
        }
    }

    /// Whether the last timing is more than 20 ms old.
    pub fn stale(&self) -> bool {
        self.measured_at.elapsed() >= REMEASURE
    }

    /// Times the kernel again and returns the factor that turns the wall
    /// time of the work done since the previous timing into time at
    /// reference speed.
    pub fn close(&mut self) -> f64 {
        let before = self.last_ms;
        self.last_ms = time_kernel();
        self.measured_at = Instant::now();
        NOMINAL_KERNEL_MS / before.max(self.last_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_takes_measurable_time() {
        assert_eq!(kernel(), kernel());
        assert!(Reference::new().last_ms > 0.0);
    }

    #[test]
    fn the_slower_bracketing_timing_sets_the_factor() {
        let mut r = Reference::new();
        // A slow timing before the work counts even if the one after it is
        // fast: the host was slow for part of the interval.
        r.last_ms = 8.0;
        assert_eq!(r.close(), NOMINAL_KERNEL_MS / 8.0);
        assert!(!r.stale());
        // A fast timing before it does not hide a slow one after it.
        r.last_ms = 0.0;
        let f = r.close();
        assert!(f > 0.0 && f == NOMINAL_KERNEL_MS / r.last_ms);
    }
}
