//! The host-speed probe.
//!
//! On a shared host the same fixed work can take tens of percent longer
//! from one minute to the next. The benchmark times a fixed integer loop
//! (benchmark code, which no change to the program touches) before every
//! op and scales each op's time to the speed the probe shows on the
//! reference host. A change in the program's own work moves the scaled
//! times exactly as it moves the wall-clock ones; a change in the host's
//! speed moves the probe as well and cancels out.

use std::time::Instant;

use crate::samples::Samples;

/// Steps of the probe loop.
const STEPS: u32 = 20_000;

/// The probe's time on the reference host (2-core x86-64 VM), in µs.
pub const REFERENCE_US: f64 = 60.0;

/// Ops on each side of an op whose probes set its scale.
const NEIGHBOURS: usize = 5;

/// Times one run of the probe loop, in µs.
pub fn probe_us() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e6
}

/// The median of `n` probes, in µs.
pub fn probe_median_us(n: usize) -> f64 {
    Samples::new((0..n).map(|_| probe_us()).collect()).median_or_zero()
}

/// Scales `value`, measured while the probe took `probe_us`, to the
/// reference host's speed.
pub fn to_reference(value: f64, probe_us: f64) -> f64 {
    if probe_us > 0.0 {
        value * REFERENCE_US / probe_us
    } else {
        value
    }
}

/// Each op time scaled by the median probe of the ops around it.
pub fn scale_to_reference(times: &[f64], probes_us: &[f64]) -> Vec<f64> {
    times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let lo = i.saturating_sub(NEIGHBOURS);
            let hi = (i + NEIGHBOURS + 1).min(probes_us.len());
            let local = probes_us.get(lo..hi).unwrap_or_default().to_vec();
            to_reference(t, Samples::new(local).median_or_zero())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_twice_as_slow_scales_back_to_reference() {
        let times = vec![10.0; 20];
        let probes = vec![2.0 * REFERENCE_US; 20];
        assert!(scale_to_reference(&times, &probes)
            .iter()
            .all(|&t| t == 5.0));
    }

    #[test]
    fn a_lone_slow_probe_does_not_rescale_its_op() {
        let mut probes = vec![REFERENCE_US; 11];
        probes[5] = 10.0 * REFERENCE_US;
        assert_eq!(scale_to_reference(&[10.0; 11], &probes)[5], 10.0);
    }

    #[test]
    fn the_probe_takes_measurable_time() {
        assert!(probe_us() > 0.0);
    }
}
