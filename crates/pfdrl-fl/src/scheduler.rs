//! The integer-minute scheduler behind the serve loop's snapshot and
//! federation cadences. (The batch runners derive the β and γ rounds of
//! Figures 3 and 4 arithmetically: `rounds_for_beta` and the γ-aligned
//! day segments.)

use serde::{Deserialize, Serialize};

/// Integer-minute schedule for simulated-time event loops (the serve
/// engine's snapshot and federation cadences). There is no float
/// epsilon anywhere: firing decisions are exact integer comparisons, so
/// two replays of the same stream fire at identical minutes — a
/// determinism requirement, not a nicety. Skipped periods fire once
/// (catch-up), not as a burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinuteSchedule {
    every_minutes: u64,
    next_due: u64,
}

impl MinuteSchedule {
    /// Schedule firing at `start + every, start + 2*every, …`.
    ///
    /// # Panics
    /// Panics if `every_minutes == 0`.
    pub fn new(every_minutes: u64, start_minute: u64) -> Self {
        assert!(every_minutes > 0, "schedule period must be positive");
        MinuteSchedule {
            every_minutes,
            next_due: start_minute + every_minutes,
        }
    }

    pub fn every_minutes(&self) -> u64 {
        self.every_minutes
    }

    /// Returns `true` (advancing past `now_minute`) when the next due
    /// time has been reached.
    pub fn due(&mut self, now_minute: u64) -> bool {
        if now_minute >= self.next_due {
            let elapsed = (now_minute - self.next_due) / self.every_minutes + 1;
            self.next_due += elapsed * self.every_minutes;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minute_schedule_is_exact_and_catches_up() {
        let mut s = MinuteSchedule::new(720, 1440);
        assert!(!s.due(1440));
        assert!(!s.due(2159));
        assert!(s.due(2160));
        assert!(!s.due(2160));
        assert!(s.due(2880));
        // A long stall fires once, then resumes the grid.
        assert!(s.due(6000)); // covers 3600, 4320, 5040, 5760
        assert!(!s.due(6001));
        assert!(s.due(6480));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_minute_period_rejected() {
        let _ = MinuteSchedule::new(0, 0);
    }
}
