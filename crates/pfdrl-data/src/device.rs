//! Device catalog: the appliance types the Pecan Street dataset records,
//! with on/standby power draws taken from published appliance-level
//! measurements (Raj et al. \[24\] in the paper's references).

use crate::mode::Mode;
use crate::rng::mix_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Appliance categories present in a typical Pecan Street home.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DeviceType {
    Tv,
    Hvac,
    Lighting,
    Refrigerator,
    WashingMachine,
    Microwave,
    GameConsole,
    Computer,
    Printer,
    CoffeeMaker,
    SpeakerSystem,
    SetTopBox,
}

impl DeviceType {
    /// All catalogued device types.
    pub const ALL: [DeviceType; 12] = [
        DeviceType::Tv,
        DeviceType::Hvac,
        DeviceType::Lighting,
        DeviceType::Refrigerator,
        DeviceType::WashingMachine,
        DeviceType::Microwave,
        DeviceType::GameConsole,
        DeviceType::Computer,
        DeviceType::Printer,
        DeviceType::CoffeeMaker,
        DeviceType::SpeakerSystem,
        DeviceType::SetTopBox,
    ];

    /// Short name used in traces and reports (Dataport column style).
    pub fn name(self) -> &'static str {
        match self {
            DeviceType::Tv => "tv",
            DeviceType::Hvac => "hvac",
            DeviceType::Lighting => "lighting",
            DeviceType::Refrigerator => "refrigerator",
            DeviceType::WashingMachine => "washing_machine",
            DeviceType::Microwave => "microwave",
            DeviceType::GameConsole => "game_console",
            DeviceType::Computer => "computer",
            DeviceType::Printer => "printer",
            DeviceType::CoffeeMaker => "coffee_maker",
            DeviceType::SpeakerSystem => "speaker_system",
            DeviceType::SetTopBox => "set_top_box",
        }
    }

    /// Parses a [`DeviceType::name`] string.
    pub fn from_name(s: &str) -> Option<DeviceType> {
        DeviceType::ALL.into_iter().find(|d| d.name() == s)
    }

    /// Nominal power specification for the type (before per-home jitter).
    pub fn nominal_spec(self) -> DeviceSpec {
        // (on W, standby W, idle mode, controllable, mean events/day,
        //  mean event minutes, scheduled standby-activity bump
        //  (peak hour, peak multiplier) — smart devices wake for updates
        //  and telemetry on a schedule, elevating standby draw)
        let (on, standby, idle, controllable, events, minutes, bump) = match self {
            DeviceType::Tv => (110.0, 6.0, Mode::Standby, true, 2.5, 90.0, Some((3.5, 2.0))),
            DeviceType::Hvac => (2800.0, 12.0, Mode::Standby, false, 10.0, 25.0, None),
            DeviceType::Lighting => (65.0, 0.0, Mode::Off, false, 3.0, 120.0, None),
            DeviceType::Refrigerator => (140.0, 5.0, Mode::Standby, false, 30.0, 20.0, None),
            DeviceType::WashingMachine => (480.0, 2.5, Mode::Standby, true, 0.4, 55.0, None),
            DeviceType::Microwave => (1050.0, 3.5, Mode::Standby, true, 1.5, 6.0, None),
            DeviceType::GameConsole => (
                140.0,
                11.0,
                Mode::Standby,
                true,
                0.8,
                75.0,
                Some((4.0, 2.0)),
            ),
            DeviceType::Computer => (
                180.0,
                5.5,
                Mode::Standby,
                true,
                2.0,
                110.0,
                Some((2.5, 2.5)),
            ),
            DeviceType::Printer => (28.0, 7.5, Mode::Standby, true, 0.25, 5.0, None),
            DeviceType::CoffeeMaker => (900.0, 2.0, Mode::Standby, true, 1.2, 8.0, None),
            DeviceType::SpeakerSystem => {
                (35.0, 6.5, Mode::Standby, true, 1.0, 70.0, Some((3.0, 1.6)))
            }
            DeviceType::SetTopBox => (22.0, 14.0, Mode::Standby, true, 2.0, 100.0, None),
        };
        DeviceSpec {
            device_type: self,
            on_watts: on,
            standby_watts: standby,
            idle_mode: idle,
            controllable,
            mean_events_per_day: events,
            mean_event_minutes: minutes,
            standby_bump: bump,
        }
    }
}

/// Full power/behaviour specification of one device instance in one home.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    pub device_type: DeviceType,
    /// Mean draw when on (W).
    pub on_watts: f64,
    /// Mean draw when in standby (W). Zero means the device has no
    /// standby state.
    pub standby_watts: f64,
    /// Mode the device sits in when not actively used.
    pub idle_mode: Mode,
    /// Whether the EMS is allowed to switch this device (the paper's EMS
    /// never turns off always-on appliances like the refrigerator or
    /// safety-critical HVAC).
    pub controllable: bool,
    /// Mean number of usage events per day.
    pub mean_events_per_day: f64,
    /// Mean duration of one usage event, minutes.
    pub mean_event_minutes: f64,
    /// Scheduled standby activity: `(peak hour, peak multiplier)`.
    /// Smart devices periodically wake in standby (firmware checks, EPG
    /// downloads, telemetry), elevating the standby draw around a fixed
    /// time of night. `None` for dumb loads.
    pub standby_bump: Option<(f64, f64)>,
}

impl DeviceSpec {
    /// Power level (W) of a given mode for this device.
    pub fn mode_watts(&self, mode: Mode) -> f64 {
        match mode {
            Mode::Off => 0.0,
            Mode::Standby => self.standby_watts,
            Mode::On => self.on_watts,
        }
    }

    /// Whether this device has a distinct standby level at all.
    pub fn has_standby(&self) -> bool {
        self.standby_watts > 0.0
    }

    /// Standby draw at a given minute of day, including the scheduled
    /// activity bump (Gaussian, ~25 min half-width, circular in time).
    pub fn standby_watts_at(&self, minute_of_day: usize) -> f64 {
        let base = self.standby_watts;
        let Some((peak_hour, factor)) = self.standby_bump else {
            return base;
        };
        let peak_min = peak_hour * 60.0;
        let m = minute_of_day as f64;
        let raw = (m - peak_min).abs();
        let delta = raw.min(1440.0 - raw);
        let sigma = 25.0;
        base * (1.0 + (factor - 1.0) * (-(delta / sigma).powi(2)).exp())
    }

    /// Applies deterministic per-home jitter (±`frac` relative) to power
    /// levels and usage statistics — the statistical heterogeneity
    /// (non-IID data) the paper's personalization layer addresses.
    pub fn jittered(&self, seed: u64, household: u64, frac: f64) -> DeviceSpec {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        let mut rng = StdRng::seed_from_u64(mix_seed(&[
            seed,
            household,
            self.device_type as u64,
            0xDEC0,
        ]));
        // Power levels jitter mostly *together* (a bigger TV draws more
        // in every mode): a common scale of +-frac plus a small +-5%
        // independent component. Fully independent jitter could push a
        // device's standby level above its on level, which no real
        // appliance exhibits and which would break mode separation.
        let common = 1.0 + rng.gen_range(-frac..=frac);
        let mut small = |v: f64| v * common * (1.0 + rng.gen_range(-0.05..=0.05));
        let on_watts = small(self.on_watts);
        let standby_watts = if self.standby_watts > 0.0 {
            small(self.standby_watts)
        } else {
            0.0
        };
        let mut j = |v: f64| v * (1.0 + rng.gen_range(-frac..=frac));
        DeviceSpec {
            device_type: self.device_type,
            on_watts,
            standby_watts,
            idle_mode: self.idle_mode,
            controllable: self.controllable,
            mean_events_per_day: j(self.mean_events_per_day),
            mean_event_minutes: j(self.mean_event_minutes),
            // The bump hour shifts per home (routers schedule at
            // different times); the multiplier stays nominal.
            standby_bump: self
                .standby_bump
                .map(|(h, f)| ((h + rng.gen_range(-0.75..=0.75)).rem_euclid(24.0), f)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_all_names_uniquely() {
        let names: std::collections::HashSet<_> =
            DeviceType::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(names.len(), DeviceType::ALL.len());
        for d in DeviceType::ALL {
            assert_eq!(DeviceType::from_name(d.name()), Some(d));
        }
        assert_eq!(DeviceType::from_name("toaster"), None);
    }

    #[test]
    fn standby_is_strictly_between_off_and_on() {
        for d in DeviceType::ALL {
            let s = d.nominal_spec();
            assert!(s.on_watts > s.standby_watts, "{d:?}");
            assert!(s.standby_watts >= 0.0, "{d:?}");
            assert_eq!(s.mode_watts(Mode::Off), 0.0);
            assert_eq!(s.mode_watts(Mode::On), s.on_watts);
            assert_eq!(s.mode_watts(Mode::Standby), s.standby_watts);
        }
    }

    #[test]
    fn lighting_has_no_standby() {
        let s = DeviceType::Lighting.nominal_spec();
        assert!(!s.has_standby());
        assert_eq!(s.idle_mode, Mode::Off);
    }

    #[test]
    fn refrigerator_is_not_controllable() {
        assert!(!DeviceType::Refrigerator.nominal_spec().controllable);
        assert!(!DeviceType::Hvac.nominal_spec().controllable);
        assert!(DeviceType::Tv.nominal_spec().controllable);
    }

    #[test]
    fn jitter_is_deterministic_per_household() {
        let base = DeviceType::Tv.nominal_spec();
        let a = base.jittered(1, 7, 0.3);
        let b = base.jittered(1, 7, 0.3);
        let c = base.jittered(1, 8, 0.3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let base = DeviceType::GameConsole.nominal_spec();
        for h in 0..50 {
            let j = base.jittered(3, h, 0.3);
            // Common scale +-30% times independent +-5%.
            assert!(j.on_watts >= base.on_watts * 0.65 && j.on_watts <= base.on_watts * 1.37);
            assert!(j.standby_watts >= base.standby_watts * 0.65);
            assert!(j.standby_watts <= base.standby_watts * 1.37);
            // The standby/on ratio is nearly preserved (correlated jitter).
            let ratio = j.standby_watts / j.on_watts;
            let base_ratio = base.standby_watts / base.on_watts;
            assert!(
                (ratio / base_ratio - 1.0).abs() < 0.12,
                "ratio drifted: {ratio}"
            );
        }
    }

    #[test]
    fn zero_standby_stays_zero_under_jitter() {
        let j = DeviceType::Lighting.nominal_spec().jittered(3, 4, 0.3);
        assert_eq!(j.standby_watts, 0.0);
    }
}
