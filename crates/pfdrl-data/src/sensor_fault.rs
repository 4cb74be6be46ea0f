//! Deterministic, seeded sensor-fault injection for per-home minute
//! streams, plus the imputation primitive the EMS uses to survive it.
//!
//! Mirrors the design of the federation fault plan (`pfdrl-fl::fault`):
//! every decision is a pure hash of `(plan seed, home, device, day,
//! minute, fault class)`, so a plan is replayable bit-for-bit from its
//! seed alone — nothing about it needs to be snapshotted, and applying
//! it to a regenerated trace (e.g. after a crash-resume) reproduces the
//! exact corrupted stream of the uninterrupted run.
//!
//! One severity in `[0, 1]` scales every fault class; the plan derives
//! the six rates from it. Fault classes, applied in a fixed order per
//! device-day:
//!
//! 1. **Clock skew** — the whole day window is rotated by a few minutes
//!    (meter clock drift). Values stay plausible; only forecast
//!    alignment suffers.
//! 2. **Dropout gap** — a contiguous run of minutes reads NaN (sensor
//!    offline).
//! 3. **Stuck-at window** — a contiguous run repeats the reading at the
//!    window start (frozen register).
//! 4. **Per-minute spot faults** — NaN, negative, or spike readings on
//!    independent minutes. Spikes land far above [`WATT_CEILING`] so
//!    the detector always catches them.
//!
//! [`impute_forward_fill`] is the matching repair: any reading that is
//! non-finite, negative, or above the physical ceiling is replaced by
//! the last good reading (persistence substitution), in place, with no
//! allocation and no reachable panic on arbitrary input. Stuck-at and
//! clock-skew faults produce *plausible* values and deliberately pass
//! through: they reach the forecasters and the agents as wrong but
//! finite readings, and the health machine does not count them as dirt.

use crate::rng::mix_seed;
use serde::{Deserialize, Serialize};

/// Domain-separation salts, one per fault class.
const SALT_SKEW: u64 = 0x534B_4557; // "SKEW"
const SALT_GAP: u64 = 0x4741_5020; // "GAP "
const SALT_STUCK: u64 = 0x5354_4B41; // "STKA"
const SALT_MINUTE: u64 = 0x4D49_4E46; // "MINF"

/// Longest dropout gap or stuck-at window, minutes.
const MAX_GAP_MINUTES: usize = 120;
/// Largest clock-skew rotation, minutes.
const MAX_SKEW_MINUTES: usize = 15;

/// Physical plausibility ceiling for a single-appliance minute reading,
/// watts. No modelled residential device draws anywhere near this, and
/// injected spikes always exceed it, so the detector is exact on the
/// synthetic fleet.
pub const WATT_CEILING: f64 = 20_000.0;

/// Configuration of the seeded sensor-fault plan: a seed and one
/// severity. The default (severity 0) is inert: every stream passes
/// through untouched and the simulation is bit-identical to a build
/// without this module.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorFaultConfig {
    /// Seed of the fault plan — independent of the world seed so the
    /// same neighbourhood can be replayed under different fault draws.
    #[serde(default = "default_sensor_seed")]
    pub seed: u64,
    /// Storm severity in `[0, 1]`, the axis of the severity sweep. Per
    /// (home, device, day) the plan draws a dropout gap with
    /// probability `severity` and a stuck-at window and a clock skew
    /// with `severity / 2` each; per minute, a NaN, negative or spike
    /// reading with `0.02`, `0.01` and `0.02` × `severity`.
    #[serde(default)]
    pub severity: f64,
}

fn default_sensor_seed() -> u64 {
    0x5EA1
}

impl Default for SensorFaultConfig {
    fn default() -> Self {
        SensorFaultConfig {
            seed: default_sensor_seed(),
            severity: 0.0,
        }
    }
}

impl SensorFaultConfig {
    /// Whether any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.severity > 0.0
    }

    /// Panics on a severity outside `[0, 1]` (same contract as
    /// `SimConfig::validate`).
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.severity),
            "sensor fault severity must be in [0, 1], got {}",
            self.severity
        );
    }

    /// Freezes the config into a plan (validating it).
    pub fn plan(&self) -> SensorFaultPlan {
        self.validate();
        let severity = self.severity;
        SensorFaultPlan {
            seed: self.seed,
            dropout_rate: severity,
            stuck_rate: 0.5 * severity,
            clock_skew_rate: 0.5 * severity,
            nan_rate: 0.02 * severity,
            negative_rate: 0.01 * severity,
            spike_rate: 0.02 * severity,
        }
    }
}

/// The frozen, copyable fault plan: the seed and the six per-class
/// rates. All methods are pure functions of the plan and their
/// arguments — no interior state, nothing to snapshot.
#[derive(Debug, Clone, Copy)]
pub struct SensorFaultPlan {
    seed: u64,
    /// Probability per (home, device, day) of a dropout gap.
    dropout_rate: f64,
    /// Probability per (home, device, day) of a stuck-at window.
    stuck_rate: f64,
    /// Probability per (home, device, day) of a clock-skewed window.
    clock_skew_rate: f64,
    /// Per-minute probability of a NaN reading.
    nan_rate: f64,
    /// Per-minute probability of a negative reading.
    negative_rate: f64,
    /// Per-minute probability of a spike reading (always above
    /// [`WATT_CEILING`]).
    spike_rate: f64,
}

/// Maps a hash to a uniform draw in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SensorFaultPlan {
    /// Whether any fault class can fire.
    pub fn is_active(&self) -> bool {
        self.dropout_rate > 0.0
            || self.stuck_rate > 0.0
            || self.clock_skew_rate > 0.0
            || self.nan_rate > 0.0
            || self.negative_rate > 0.0
            || self.spike_rate > 0.0
    }

    #[inline]
    fn hash(&self, salt: u64, home: u64, device: u64, day: u64, minute: u64) -> u64 {
        mix_seed(&[self.seed, salt, home, device, day, minute])
    }

    /// Corrupts one device-day of minute readings in place, returning
    /// the number of minutes touched. Deterministic per
    /// `(seed, home, device, day)`: two applications to the same clean
    /// stream produce bit-identical results, independent of call order
    /// across homes, devices or days.
    pub fn corrupt_day(&self, home: u64, device: u64, day: u64, watts: &mut [f64]) -> u32 {
        if !self.is_active() || watts.is_empty() {
            return 0;
        }
        let len = watts.len();
        let mut touched = 0u32;

        // Clock skew: rotate the whole window by 1..=MAX_SKEW_MINUTES
        // minutes, direction from the hash's low bit.
        let h = self.hash(SALT_SKEW, home, device, day, 0);
        if unit(h) < self.clock_skew_rate {
            let k = 1 + (h >> 7) as usize % MAX_SKEW_MINUTES.min(len - 1).max(1);
            if h & 1 == 0 {
                watts.rotate_left(k);
            } else {
                watts.rotate_right(k);
            }
            touched += len as u32;
        }

        // Dropout gap: a contiguous NaN run (sensor offline).
        let h = self.hash(SALT_GAP, home, device, day, 0);
        if unit(h) < self.dropout_rate {
            let start = (h >> 7) as usize % len;
            let gap = 1 + (h >> 33) as usize % MAX_GAP_MINUTES;
            for w in watts.iter_mut().skip(start).take(gap) {
                *w = f64::NAN;
                touched += 1;
            }
        }

        // Stuck-at window: the reading at the window start repeats.
        let h = self.hash(SALT_STUCK, home, device, day, 0);
        if unit(h) < self.stuck_rate {
            let start = (h >> 7) as usize % len;
            let run = 1 + (h >> 33) as usize % MAX_GAP_MINUTES;
            let held = watts[start];
            for w in watts.iter_mut().skip(start).take(run) {
                *w = held;
            }
            touched += run.min(len - start) as u32;
        }

        // Independent per-minute spot faults.
        let spot = self.nan_rate + self.negative_rate + self.spike_rate;
        if spot > 0.0 {
            for (m, w) in watts.iter_mut().enumerate() {
                let r = unit(self.hash(SALT_MINUTE, home, device, day, m as u64));
                if r < self.nan_rate {
                    *w = f64::NAN;
                    touched += 1;
                } else if r < self.nan_rate + self.negative_rate {
                    *w = -(w.abs() + 1.0);
                    touched += 1;
                } else if r < spot {
                    *w = w.abs() * 100.0 + 2.0 * WATT_CEILING;
                    touched += 1;
                }
            }
        }
        touched
    }
}

/// Repairs a minute stream in place by persistence substitution: any
/// reading that is non-finite, negative, or above `ceiling` is replaced
/// by the last good reading (or `fallback` before the first good one).
/// Returns the number of minutes imputed.
///
/// Never panics and never allocates, whatever the input — NaN fails
/// both comparisons and is imputed; every retained value is finite and
/// within `[0, ceiling]` provided `fallback` is.
pub fn impute_forward_fill(watts: &mut [f64], ceiling: f64, fallback: f64) -> u32 {
    let mut last_good = fallback;
    let mut imputed = 0u32;
    for w in watts.iter_mut() {
        if w.is_finite() && *w >= 0.0 && *w <= ceiling {
            last_good = *w;
        } else {
            *w = last_good;
            imputed += 1;
        }
    }
    imputed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::MINUTES_PER_DAY;

    fn plan(seed: u64, severity: f64) -> SensorFaultPlan {
        SensorFaultConfig { seed, severity }.plan()
    }

    /// A plan with every fault class off but the ones `set` turns on.
    fn plan_with(seed: u64, set: impl FnOnce(&mut SensorFaultPlan)) -> SensorFaultPlan {
        let mut plan = plan(seed, 0.0);
        set(&mut plan);
        plan
    }

    fn clean_day(seed: u64) -> Vec<f64> {
        (0..MINUTES_PER_DAY)
            .map(|m| ((mix_seed(&[seed, m as u64]) >> 11) % 1000) as f64 / 10.0)
            .collect()
    }

    #[test]
    fn default_config_is_inert() {
        let plan = SensorFaultConfig::default().plan();
        assert!(!plan.is_active());
        let mut day = clean_day(1);
        let before = day.clone();
        assert_eq!(plan.corrupt_day(0, 0, 0, &mut day), 0);
        assert_eq!(day, before);
    }

    #[test]
    fn corruption_is_deterministic_and_order_free() {
        let plan = plan(7, 0.8);
        let corrupt = |home: u64, device: u64, day: u64| {
            let mut w = clean_day(3);
            plan.corrupt_day(home, device, day, &mut w);
            w.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        // Forward and backward iteration over the grid agree cell by
        // cell: decisions depend only on the cell coordinates.
        let forward: Vec<_> = (0..4u64)
            .flat_map(|h| (0..3u64).map(move |d| corrupt(h, d, 5)))
            .collect();
        let mut backward: Vec<_> = (0..4u64)
            .rev()
            .flat_map(|h| (0..3u64).rev().map(move |d| corrupt(h, d, 5)))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn different_seeds_disagree() {
        let mut a = clean_day(9);
        let mut b = a.clone();
        plan(1, 0.9).corrupt_day(0, 0, 0, &mut a);
        plan(2, 0.9).corrupt_day(0, 0, 0, &mut b);
        assert_ne!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn spot_rates_are_roughly_respected() {
        let plan = plan_with(11, |p| p.nan_rate = 0.3);
        let mut bad = 0usize;
        let mut total = 0usize;
        for day in 0..20u64 {
            let mut w = clean_day(day);
            plan.corrupt_day(0, 0, day, &mut w);
            bad += w.iter().filter(|v| v.is_nan()).count();
            total += w.len();
        }
        let rate = bad as f64 / total as f64;
        assert!((0.25..0.35).contains(&rate), "observed NaN rate {rate}");
    }

    #[test]
    fn skew_is_a_permutation() {
        let plan = plan_with(5, |p| p.clock_skew_rate = 1.0);
        let mut w = clean_day(21);
        let mut sorted_before: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
        sorted_before.sort_unstable();
        plan.corrupt_day(3, 1, 2, &mut w);
        let mut sorted_after: Vec<u64> = w.iter().map(|v| v.to_bits()).collect();
        sorted_after.sort_unstable();
        assert_eq!(sorted_before, sorted_after);
    }

    #[test]
    #[should_panic(expected = "severity")]
    fn out_of_range_severity_rejected() {
        SensorFaultConfig {
            severity: 1.5,
            ..SensorFaultConfig::default()
        }
        .validate();
    }

    #[test]
    fn imputation_repairs_any_stream() {
        let mut w = vec![
            f64::NAN,
            -3.0,
            5.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.0,
            WATT_CEILING * 3.0,
            0.0,
        ];
        let imputed = impute_forward_fill(&mut w, WATT_CEILING, 0.0);
        assert_eq!(imputed, 5);
        assert_eq!(w, vec![0.0, 0.0, 5.0, 5.0, 5.0, 2.0, 2.0, 0.0]);
        assert!(w.iter().all(|v| v.is_finite() && *v >= 0.0));
    }

    #[test]
    fn imputation_is_a_no_op_on_clean_streams() {
        let mut w = clean_day(33);
        let before = w.clone();
        assert_eq!(impute_forward_fill(&mut w, WATT_CEILING, 0.0), 0);
        assert_eq!(w, before);
    }

    #[test]
    fn corrupt_then_impute_is_always_finite() {
        let plan = plan(99, 1.0);
        for day in 0..10u64 {
            let mut w = clean_day(day);
            plan.corrupt_day(1, 0, day, &mut w);
            impute_forward_fill(&mut w, WATT_CEILING, 0.0);
            assert!(
                w.iter()
                    .all(|v| v.is_finite() && *v >= 0.0 && *v <= WATT_CEILING),
                "day {day} left a bad reading"
            );
        }
    }
}
