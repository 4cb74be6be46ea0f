//! Integration tests for the upgraded trace generator: target
//! transforms, anchored routines, session durations, scheduled standby
//! activity, and the neighbourhood-level premises the paper rests on.

use pfdrl_data::dataset::{build_windows_transformed, TargetTransform};
use pfdrl_data::schedule::{event_duration, standard_normal};
use pfdrl_data::{
    Archetype, DayTrace, DeviceType, GeneratorConfig, Mode, TraceGenerator, MINUTES_PER_DAY,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// Every device-day of `homes` × the full 12-device catalog × `days`
/// at seed 12.
fn neighbourhood(homes: Range<u64>, days: Range<u64>) -> Vec<DayTrace> {
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(12));
    let mut traces = Vec::new();
    for home in homes {
        for device in 0..gen.devices_per_home() {
            for day in days.clone() {
                traces.push(gen.day_trace(home, device, day));
            }
        }
    }
    traces
}

#[test]
fn standby_share_matches_the_papers_premise() {
    // The paper motivates PFDRL with standby at ~10% of residential
    // use; the generator should land in a 3-25% band over the full
    // 12-device catalog.
    let traces = neighbourhood(0..4, 0..3);
    let total: f64 = traces.iter().map(DayTrace::total_kwh).sum();
    let standby: f64 = traces.iter().map(DayTrace::standby_kwh).sum();
    let share = standby / total;
    assert!(
        (0.03..0.25).contains(&share),
        "standby energy share {share:.3} outside plausible band"
    );
}

#[test]
fn duty_cycle_is_sane() {
    let traces = neighbourhood(0..3, 0..2);
    let minutes: usize = traces.iter().map(|t| t.modes.len()).sum();
    let on = traces
        .iter()
        .flat_map(|t| &t.modes)
        .filter(|&&m| m == Mode::On)
        .count();
    let duty = on as f64 / minutes as f64;
    assert!(duty > 0.01 && duty < 0.6, "duty cycle {duty:.3}");
}

#[test]
fn tv_draws_more_in_the_evening_than_at_night() {
    // TV of an office worker: evening hours draw more than 3-5 AM.
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(12));
    let mut hourly = [0.0f64; 24];
    for day in 0..40 {
        for (m, w) in gen.day_trace(0, 0, day).watts.iter().enumerate() {
            hourly[m / 60] += w;
        }
    }
    // Every hour holds the same number of minutes, so the sums compare
    // as the mean draws do.
    let evening = hourly[19] + hourly[20];
    let night = hourly[3] + hourly[4];
    assert!(
        evening > night,
        "no diurnal structure: evening {evening:.1} W vs night {night:.1} W (40-day sums)"
    );
}

#[test]
fn log_transform_round_trips() {
    let t = TargetTransform::default();
    for x in [0.0, 0.001, 0.06, 0.5, 1.0, 1.3] {
        let y = t.encode(x);
        assert!((t.decode(y) - x).abs() < 1e-12, "x = {x}");
        assert!((0.0..=1.2).contains(&y), "encoded {x} -> {y}");
    }
    // Linear is the identity.
    let lin = TargetTransform::Linear;
    assert_eq!(lin.encode(0.37), 0.37);
    assert_eq!(lin.decode(0.37), 0.37);
}

#[test]
fn log_transform_balances_relative_resolution() {
    // Under the linear transform, a 10% relative change at standby level
    // (x = 0.06) moves the encoding ~16x less than at on level (x = 1),
    // so MSE training ignores standby errors. The log transform brings
    // the two within a factor ~2 of each other.
    let log = TargetTransform::default();
    let lin = TargetTransform::Linear;
    let ratio = |t: TargetTransform| {
        let d_standby = t.encode(0.066) - t.encode(0.06);
        let d_on = t.encode(1.1) - t.encode(1.0);
        d_on / d_standby
    };
    assert!(ratio(lin) > 10.0, "linear ratio {}", ratio(lin));
    assert!(ratio(log) < 2.0, "log ratio {}", ratio(log));
}

#[test]
fn transformed_windows_decode_back_to_watts() {
    let watts: Vec<f64> = (0..200).map(|i| (i % 50) as f64 + 1.0).collect();
    let set = build_windows_transformed(&watts, 100.0, 8, 3, 0, TargetTransform::default());
    for (i, target) in set.targets.iter().enumerate() {
        let original = watts[i + 8 + 3 - 1];
        assert!((set.to_watts(*target) - original).abs() < 1e-9);
    }
}

#[test]
fn event_durations_cluster_around_mean() {
    let mut rng = StdRng::seed_from_u64(1);
    let mean = 90.0;
    let samples: Vec<usize> = (0..5000).map(|_| event_duration(mean, &mut rng)).collect();
    let avg = samples.iter().sum::<usize>() as f64 / samples.len() as f64;
    assert!((avg - mean).abs() < 5.0, "mean duration {avg}");
    // Clipped-normal: the bulk within ±2 sigma (sigma = 0.3 * mean).
    let within: usize = samples
        .iter()
        .filter(|&&d| (d as f64 - mean).abs() <= 0.6 * mean)
        .count();
    assert!(within as f64 / samples.len() as f64 > 0.9);
    // Durations are NOT memoryless: almost nothing below mean/3 (an
    // exponential would put ~28% of its mass there).
    let tiny: usize = samples.iter().filter(|&&d| (d as f64) < mean / 3.0).count();
    assert!((tiny as f64 / samples.len() as f64) < 0.05);
}

#[test]
fn usage_concentrates_near_archetype_anchors() {
    // Sample many days of TV usage for an office worker and check the
    // on-minute histogram peaks near the anchors (7.2, 19.5, 21.0).
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(77));
    let hh = gen.household(0); // OfficeWorker
    assert_eq!(hh.archetype, Archetype::OfficeWorker);
    let mut hist = vec![0u64; 24];
    for day in 0..120 {
        let t = gen.day_trace(0, 0, day);
        for (m, mode) in t.modes.iter().enumerate() {
            if *mode == Mode::On {
                hist[m / 60] += 1;
            }
        }
    }
    let evening: u64 = (19..22).map(|h| hist[h]).sum();
    let small_hours: u64 = (1..5).map(|h| hist[h]).sum();
    assert!(
        evening > small_hours.max(1) * 5,
        "evening {evening} vs small hours {small_hours}: {hist:?}"
    );
}

#[test]
fn standby_bump_appears_in_traces_at_night() {
    // The TV's scheduled activity bump (~3.5 AM nominal) elevates
    // standby draw; readings in that window should exceed the flat
    // standby level while daytime standby readings do not.
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(5));
    let hh = gen.household(0);
    let spec = &hh.devices[0];
    assert!(spec.standby_bump.is_some());
    let (peak_hour, factor) = spec.standby_bump.unwrap();
    assert!(factor > 1.0);
    let peak_minute = (peak_hour * 60.0) as usize % MINUTES_PER_DAY;

    let mut peak_readings = Vec::new();
    let mut noon_readings = Vec::new();
    for day in 0..20 {
        let t = gen.day_trace(0, 0, day);
        if t.modes[peak_minute] == Mode::Standby {
            peak_readings.push(t.watts[peak_minute]);
        }
        if t.modes[720] == Mode::Standby {
            noon_readings.push(t.watts[720]);
        }
    }
    assert!(!peak_readings.is_empty() && !noon_readings.is_empty());
    let peak_avg: f64 = peak_readings.iter().sum::<f64>() / peak_readings.len() as f64;
    let noon_avg: f64 = noon_readings.iter().sum::<f64>() / noon_readings.len() as f64;
    assert!(
        peak_avg > noon_avg * 1.3,
        "bump not visible: peak {peak_avg:.2} W vs noon {noon_avg:.2} W"
    );
}

#[test]
fn standby_bump_never_breaks_mode_separation() {
    // Even at the bump peak with max jitter, standby draw must stay
    // closer to the standby level than to the on level, so nearest-level
    // classification still recovers the truth.
    for d in DeviceType::ALL {
        for home in 0..30u64 {
            let spec = d.nominal_spec().jittered(9, home, 0.25);
            if !spec.has_standby() {
                continue;
            }
            for minute in (0..MINUTES_PER_DAY).step_by(10) {
                let elevated = spec.standby_watts_at(minute) * 1.1; // + noise ceiling
                let mid = (spec.standby_watts + spec.on_watts) / 2.0;
                assert!(
                    elevated < mid,
                    "{:?} home {home} minute {minute}: {elevated:.1} W crosses {mid:.1} W",
                    d
                );
            }
        }
    }
}

#[test]
fn bump_profile_is_circular_in_time() {
    let mut spec = DeviceType::Tv.nominal_spec();
    spec.standby_bump = Some((0.0, 2.0)); // peak at midnight
    let at = |m: usize| spec.standby_watts_at(m);
    // Symmetric around midnight across the day boundary.
    assert!((at(10) - at(MINUTES_PER_DAY - 10)).abs() < 1e-9);
    assert!(at(0) > at(100));
}

#[test]
fn anchored_routines_make_transitions_time_predictable() {
    // The probability of an on-transition in the anchor window must be
    // much higher than in a random afternoon window of equal width.
    let gen = TraceGenerator::new(GeneratorConfig::with_seed(31));
    let hh = gen.household(0); // OfficeWorker, anchors 7.2/19.5/21.0
    let shift = (hh.phase_shift * 60.0) as isize;
    let window = |center: isize| -> std::ops::Range<usize> {
        let c = (center + shift).rem_euclid(MINUTES_PER_DAY as isize) as usize;
        c.saturating_sub(60)..(c + 60).min(MINUTES_PER_DAY)
    };
    let anchor_w = window((19.5 * 60.0) as isize);
    let control_w = window(14 * 60); // 2 PM: no anchor
    let mut anchor_transitions = 0u64;
    let mut control_transitions = 0u64;
    for day in 0..150 {
        let t = gen.day_trace(0, 0, day);
        for m in 1..MINUTES_PER_DAY {
            let is_transition = t.modes[m] == Mode::On && t.modes[m - 1] != Mode::On;
            if is_transition {
                if anchor_w.contains(&m) {
                    anchor_transitions += 1;
                }
                if control_w.contains(&m) {
                    control_transitions += 1;
                }
            }
        }
    }
    assert!(
        anchor_transitions > control_transitions.max(1) * 2,
        "anchor {anchor_transitions} vs control {control_transitions}"
    );
}

#[test]
fn standard_normal_tail_behaviour() {
    let mut rng = StdRng::seed_from_u64(8);
    let n = 100_000;
    let beyond_3: usize = (0..n)
        .filter(|_| standard_normal(&mut rng).abs() > 3.0)
        .count();
    // P(|Z| > 3) ~ 0.0027.
    let frac = beyond_3 as f64 / n as f64;
    assert!(frac > 0.001 && frac < 0.006, "3-sigma tail fraction {frac}");
}
