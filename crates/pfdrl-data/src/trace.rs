//! Lazy, deterministic trace generation for whole neighbourhoods.
//!
//! A [`TraceGenerator`] is a pure function from `(seed, household, device,
//! day)` to one day of minute-resolution readings, so experiments over
//! hundreds of homes and a year of data never hold more than the working
//! set in memory, and any cell can be regenerated bit-identically.

use crate::archetype::Archetype;
use crate::device::{DeviceSpec, DeviceType};
use crate::mode::Mode;
use crate::rng::mix_seed;
use crate::schedule::{day_modes_into, modes_to_watts_into, MINUTES_PER_DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Days per simulated (non-leap) year.
pub const DAYS_PER_YEAR: u64 = 365;

/// Cumulative day-of-year at the start of each month.
const MONTH_STARTS: [u64; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];

/// Maps an absolute day index to a `0..12` month index (years repeat).
pub fn month_of_day(day: u64) -> usize {
    let d = day % DAYS_PER_YEAR;
    MONTH_STARTS
        .windows(2)
        .position(|w| d >= w[0] && d < w[1])
        .expect("day within year")
}

/// Seasonal HVAC intensity for Texas (heavy summer cooling).
pub fn hvac_seasonal_factor(month: usize) -> f64 {
    const FACTORS: [f64; 12] = [0.8, 0.8, 0.9, 1.0, 1.2, 1.5, 1.8, 1.8, 1.5, 1.1, 0.9, 0.8];
    FACTORS[month]
}

/// Configuration of the synthetic neighbourhood.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Global seed; everything else derives from it deterministically.
    pub seed: u64,
    /// Device types installed in every home.
    pub devices: Vec<DeviceType>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            seed: 0,
            devices: DeviceType::ALL.to_vec(),
        }
    }
}

impl GeneratorConfig {
    pub fn with_seed(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            ..Default::default()
        }
    }
}

/// One household's static description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HouseholdSpec {
    pub id: u64,
    pub archetype: Archetype,
    /// Hours by which this home's activity curve is rotated.
    pub phase_shift: f64,
    /// Jittered specs, one per configured device type.
    pub devices: Vec<DeviceSpec>,
}

/// One day of readings for one device.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DayTrace {
    /// Ground-truth mode per minute.
    pub modes: Vec<Mode>,
    /// Noisy watt reading per minute.
    pub watts: Vec<f64>,
}

impl DayTrace {
    /// Total energy in the trace, kWh.
    pub fn total_kwh(&self) -> f64 {
        self.watts.iter().sum::<f64>() / 1000.0 / 60.0
    }

    /// Energy spent in standby mode, kWh — the waste PFDRL reclaims.
    pub fn standby_kwh(&self) -> f64 {
        self.modes
            .iter()
            .zip(self.watts.iter())
            .filter(|(m, _)| **m == Mode::Standby)
            .map(|(_, w)| w)
            .sum::<f64>()
            / 1000.0
            / 60.0
    }
}

/// Relative per-home jitter applied to device power levels and usage
/// statistics (the non-IID spread between homes).
const SPEC_JITTER: f64 = 0.25;
/// Multiplicative meter-noise fraction on watt readings.
const NOISE_FRAC: f64 = 0.03;

/// Deterministic lazy generator for a synthetic neighbourhood.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: GeneratorConfig,
}

impl TraceGenerator {
    pub fn new(config: GeneratorConfig) -> Self {
        assert!(
            !config.devices.is_empty(),
            "TraceGenerator needs at least one device type"
        );
        TraceGenerator { config }
    }

    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Number of device types installed per home.
    pub fn devices_per_home(&self) -> usize {
        self.config.devices.len()
    }

    /// Builds the static description of household `house`.
    pub fn household(&self, house: u64) -> HouseholdSpec {
        let mut rng = StdRng::seed_from_u64(mix_seed(&[self.config.seed, house, 0x4855]));
        let phase_shift = rng.gen_range(-1.5..=1.5);
        let devices = self
            .config
            .devices
            .iter()
            .map(|d| {
                d.nominal_spec()
                    .jittered(self.config.seed, house, SPEC_JITTER)
            })
            .collect();
        HouseholdSpec {
            id: house,
            archetype: Archetype::assign(house),
            phase_shift,
            devices,
        }
    }

    /// Generates one day of readings for `(house, device_idx, day)`.
    ///
    /// # Panics
    /// Panics if `device_idx` is out of range.
    pub fn day_trace(&self, house: u64, device_idx: usize, day: u64) -> DayTrace {
        let hh = self.household(house);
        let mut out = DayTrace {
            modes: Vec::new(),
            watts: Vec::new(),
        };
        self.day_trace_into(&hh, device_idx, day, &mut out);
        out
    }

    /// Allocation-free [`TraceGenerator::day_trace`] given an
    /// already-built [`HouseholdSpec`] (from
    /// [`TraceGenerator::household`]): the mode/watt buffers in `out`
    /// are reused. The RNG seed and draw order are those of
    /// `day_trace`, so contents are bit-identical.
    ///
    /// # Panics
    /// Panics if `device_idx` is out of range.
    pub fn day_trace_into(
        &self,
        hh: &HouseholdSpec,
        device_idx: usize,
        day: u64,
        out: &mut DayTrace,
    ) {
        assert!(
            device_idx < hh.devices.len(),
            "device_idx {device_idx} out of range ({} devices)",
            hh.devices.len()
        );
        let mut spec = hh.devices[device_idx].clone();
        if spec.device_type == DeviceType::Hvac {
            spec.mean_events_per_day *= hvac_seasonal_factor(month_of_day(day));
        }
        let mut rng =
            StdRng::seed_from_u64(mix_seed(&[self.config.seed, hh.id, device_idx as u64, day]));
        day_modes_into(
            &spec,
            hh.archetype,
            hh.phase_shift,
            &mut rng,
            &mut out.modes,
        );
        modes_to_watts_into(&spec, &out.modes, NOISE_FRAC, &mut rng, &mut out.watts);
    }

    /// Generates the watt readings for several consecutive days,
    /// concatenated (convenience for building training sets).
    pub fn multi_day_watts(
        &self,
        house: u64,
        device_idx: usize,
        days: std::ops::Range<u64>,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity((days.end - days.start) as usize * MINUTES_PER_DAY);
        for day in days {
            out.extend(self.day_trace(house, device_idx, day).watts);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator() -> TraceGenerator {
        TraceGenerator::new(GeneratorConfig::with_seed(42))
    }

    #[test]
    fn month_mapping_hits_boundaries() {
        assert_eq!(month_of_day(0), 0);
        assert_eq!(month_of_day(30), 0);
        assert_eq!(month_of_day(31), 1);
        assert_eq!(month_of_day(364), 11);
        assert_eq!(month_of_day(365), 0); // wraps to next year
    }

    #[test]
    fn hvac_peaks_in_summer() {
        assert!(hvac_seasonal_factor(6) > hvac_seasonal_factor(0));
        assert!(hvac_seasonal_factor(7) > hvac_seasonal_factor(10));
    }

    #[test]
    fn traces_are_deterministic() {
        let g = generator();
        let a = g.day_trace(3, 0, 17);
        let b = g.day_trace(3, 0, 17);
        assert_eq!(a, b);
    }

    #[test]
    fn day_trace_into_reuses_buffers_and_matches() {
        let g = generator();
        let hh = g.household(3);
        let mut out = g.day_trace(3, 0, 16); // pre-dirtied buffers
        g.day_trace_into(&hh, 0, 17, &mut out);
        assert_eq!(out, g.day_trace(3, 0, 17));
    }

    #[test]
    fn traces_differ_across_cells() {
        let g = generator();
        let base = g.day_trace(3, 0, 17);
        assert_ne!(base, g.day_trace(4, 0, 17));
        assert_ne!(base, g.day_trace(3, 1, 17));
        assert_ne!(base, g.day_trace(3, 0, 18));
    }

    #[test]
    fn day_trace_is_minute_resolution() {
        let t = generator().day_trace(0, 0, 0);
        assert_eq!(t.modes.len(), MINUTES_PER_DAY);
        assert_eq!(t.watts.len(), MINUTES_PER_DAY);
    }

    #[test]
    fn household_spec_is_deterministic_and_jittered() {
        let g = generator();
        let a = g.household(5);
        let b = g.household(5);
        assert_eq!(a.devices, b.devices);
        let other = g.household(6);
        // Jitter makes power levels home-specific.
        assert_ne!(a.devices[0].on_watts, other.devices[0].on_watts);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_device_index_panics() {
        let _ = generator().day_trace(0, 99, 0);
    }

    #[test]
    fn standby_energy_is_meaningful_fraction() {
        // Across a home-day, standby should be a noticeable but minority
        // share (the paper's motivation: ~10% of residential use).
        let g = generator();
        let mut total = 0.0;
        let mut standby = 0.0;
        for device in 0..g.devices_per_home() {
            for day in 0..3 {
                let t = g.day_trace(1, device, day);
                total += t.total_kwh();
                standby += t.standby_kwh();
            }
        }
        let frac = standby / total;
        assert!(frac > 0.01 && frac < 0.5, "standby fraction {frac}");
    }

    #[test]
    fn multi_day_watts_concatenates() {
        let g = generator();
        let w = g.multi_day_watts(2, 1, 0..3);
        assert_eq!(w.len(), 3 * MINUTES_PER_DAY);
        let d1 = g.day_trace(2, 1, 1);
        assert_eq!(&w[MINUTES_PER_DAY..2 * MINUTES_PER_DAY], &d1.watts[..]);
    }

    #[test]
    fn hvac_runs_more_in_july_than_january() {
        let g = generator();
        let hvac_idx = DeviceType::ALL
            .iter()
            .position(|d| *d == DeviceType::Hvac)
            .unwrap();
        let on_minutes = |day: u64| -> usize {
            (0..5)
                .map(|h| {
                    g.day_trace(h, hvac_idx, day)
                        .modes
                        .iter()
                        .filter(|&&m| m == Mode::On)
                        .count()
                })
                .sum()
        };
        // Average over several days to beat sampling noise.
        let jan: usize = (0..5).map(&on_minutes).sum();
        let jul: usize = (0..5).map(|d| on_minutes(190 + d)).sum();
        assert!(jul > jan, "july {jul} <= january {jan}");
    }
}
