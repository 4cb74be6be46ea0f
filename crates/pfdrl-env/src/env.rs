//! The minute-level MDP of §3.3.1.
//!
//! For each device, at each minute `t`, the agent observes a state built
//! from the DFL *prediction* for minute `t` together with the *real-time*
//! readings up to minute `t-1` (the real value for `t` is only known
//! after acting), then commands a mode. The reward is Table 1 applied to
//! the ground-truth mode at `t`.
//!
//! The transition probability of the MDP is 1 (the trace is fixed), per
//! §3.3.1 "the state space is changed with certainty".

use crate::account::EnergyAccount;
use crate::classify::classify;
use crate::reward::reward;
use pfdrl_data::{DeviceSpec, Mode};
use serde::{Deserialize, Serialize};

/// Environment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvConfig {
    /// How many past minutes of (predicted, real) readings enter the
    /// state.
    pub state_window: usize,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig { state_window: 4 }
    }
}

impl EnvConfig {
    /// Dimension of the state vector: `2 * window` readings plus two
    /// 3-wide mode one-hots (predicted mode at `t`, real mode at `t-1`).
    pub fn state_dim(&self) -> usize {
        2 * self.state_window + 6
    }
}

/// Result of one environment step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// State observed *after* the step (`None` when the episode ended).
    pub next_state: Option<Vec<f64>>,
    /// Table 1 reward for the action just taken.
    pub reward: f64,
    /// Whether the episode (one device-day) has ended.
    pub done: bool,
}

/// One device-day, borrowed: the forecast, the real readings and the
/// real modes of every minute. [`DeviceEnv`] and the EMS's
/// device-minute kernel encode states and settle actions through this
/// one type, so the two agree bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct DaySeries<'a> {
    pub spec: &'a DeviceSpec,
    pub pred: &'a [f64],
    pub watts: &'a [f64],
    pub modes: &'a [Mode],
}

impl DaySeries<'_> {
    /// Writes the state for minute `t` into `s` (cleared first):
    /// normalized predictions for `(t-state_window, t]`, normalized real
    /// readings for `[t-state_window, t)`, one-hot predicted mode at
    /// `t`, one-hot real mode at `t-1`.
    pub fn state_into(&self, state_window: usize, t: usize, s: &mut Vec<f64>) {
        let scale = self.spec.on_watts;
        s.clear();
        s.reserve(EnvConfig { state_window }.state_dim());
        for p in &self.pred[(t + 1 - state_window)..=t] {
            s.push(p / scale);
        }
        for w in &self.watts[(t - state_window)..t] {
            s.push(w / scale);
        }
        let pred_mode = classify(self.spec, self.pred[t]);
        let prev_real_mode = self.modes[t - 1];
        for m in Mode::ALL {
            s.push(if m == pred_mode { 1.0 } else { 0.0 });
        }
        for m in Mode::ALL {
            s.push(if m == prev_real_mode { 1.0 } else { 0.0 });
        }
    }

    /// Settles `action` at minute `t` against the real mode: returns the
    /// Table 1 reward after recording the minute into `account`.
    pub fn settle(&self, t: usize, action: Mode, account: &mut EnergyAccount) -> f64 {
        let true_mode = self.modes[t];
        let r = reward(true_mode, action);
        account.record(true_mode, self.watts[t], action, r);
        r
    }
}

/// One device-day episode.
///
/// `pred_watts[t]` is the DFL forecast for minute `t`; `real_watts[t]`
/// and `real_modes[t]` are the ground truth.
#[derive(Debug, Clone)]
pub struct DeviceEnv {
    spec: DeviceSpec,
    pred_watts: Vec<f64>,
    real_watts: Vec<f64>,
    real_modes: Vec<Mode>,
    cfg: EnvConfig,
    t: usize,
    account: EnergyAccount,
}

impl DeviceEnv {
    /// Creates an episode.
    ///
    /// # Panics
    /// Panics if the series lengths differ or are shorter than the state
    /// window + 1.
    pub fn new(
        spec: DeviceSpec,
        pred_watts: Vec<f64>,
        real_watts: Vec<f64>,
        real_modes: Vec<Mode>,
        cfg: EnvConfig,
    ) -> Self {
        check_day(&pred_watts, &real_watts, &real_modes, cfg);
        DeviceEnv {
            spec,
            pred_watts,
            real_watts,
            real_modes,
            cfg,
            t: cfg.state_window,
            account: EnergyAccount::new(),
        }
    }

    /// The accumulated energy account for this episode.
    pub fn account(&self) -> &EnergyAccount {
        &self.account
    }

    /// The minute the next [`DeviceEnv::step`] will act on.
    pub fn current_minute(&self) -> usize {
        self.t
    }

    /// Whether the episode has ended.
    pub fn done(&self) -> bool {
        self.t >= self.pred_watts.len()
    }

    /// Reloads this environment with a new device-day, copying the
    /// series into its existing buffers (no fresh allocation once the
    /// buffers have reached episode length) and resetting the episode.
    /// Equivalent to replacing the env via [`DeviceEnv::new`] +
    /// [`DeviceEnv::reset`], with the same validation.
    pub fn load_day(
        &mut self,
        spec: DeviceSpec,
        pred_watts: &[f64],
        real_watts: &[f64],
        real_modes: &[Mode],
        cfg: EnvConfig,
    ) {
        check_day(pred_watts, real_watts, real_modes, cfg);
        self.spec = spec;
        self.pred_watts.clear();
        self.pred_watts.extend_from_slice(pred_watts);
        self.real_watts.clear();
        self.real_watts.extend_from_slice(real_watts);
        self.real_modes.clear();
        self.real_modes.extend_from_slice(real_modes);
        self.cfg = cfg;
        self.t = cfg.state_window;
        self.account = EnergyAccount::new();
    }

    /// Resets to the first decision minute and returns the initial state.
    pub fn reset(&mut self) -> Vec<f64> {
        let mut s = Vec::with_capacity(self.cfg.state_dim());
        self.reset_into(&mut s);
        s
    }

    /// Allocation-free [`DeviceEnv::reset`] into a reused buffer.
    pub fn reset_into(&mut self, out: &mut Vec<f64>) {
        self.t = self.cfg.state_window;
        self.account = EnergyAccount::new();
        self.state_into(out);
    }

    fn series(&self) -> DaySeries<'_> {
        DaySeries {
            spec: &self.spec,
            pred: &self.pred_watts,
            watts: &self.real_watts,
            modes: &self.real_modes,
        }
    }

    /// Builds the state vector for the current minute into a reused
    /// buffer ([`DaySeries::state_into`]).
    fn state_into(&self, s: &mut Vec<f64>) {
        self.series().state_into(self.cfg.state_window, self.t, s);
    }

    /// Takes an action for the current minute.
    ///
    /// # Panics
    /// Panics if called after the episode has ended.
    pub fn step(&mut self, action: Mode) -> Step {
        let mut next = Vec::new();
        let (reward, done) = self.step_into(action, &mut next);
        Step {
            next_state: (!done).then_some(next),
            reward,
            done,
        }
    }

    /// [`DeviceEnv::step`] writing the next state into a caller buffer
    /// instead of allocating. Returns `(reward, done)`; `next_state` is
    /// cleared and refilled only when the episode continues (untouched
    /// on the terminal step).
    ///
    /// # Panics
    /// Panics if called after the episode has ended.
    pub fn step_into(&mut self, action: Mode, next_state: &mut Vec<f64>) -> (f64, bool) {
        assert!(self.t < self.pred_watts.len(), "step after episode end");
        let mut account = self.account;
        let r = self.series().settle(self.t, action, &mut account);
        self.account = account;
        self.t += 1;
        let done = self.t >= self.pred_watts.len();
        if !done {
            self.state_into(next_state);
        }
        (r, done)
    }
}

/// The validation [`DeviceEnv::new`] and [`DeviceEnv::load_day`] share.
///
/// # Panics
/// Panics if the series lengths differ or are shorter than the state
/// window + 1.
fn check_day(pred_watts: &[f64], real_watts: &[f64], real_modes: &[Mode], cfg: EnvConfig) {
    assert_eq!(
        pred_watts.len(),
        real_watts.len(),
        "pred/real length mismatch"
    );
    assert_eq!(
        real_watts.len(),
        real_modes.len(),
        "watts/modes length mismatch"
    );
    assert!(
        pred_watts.len() > cfg.state_window,
        "episode of {} minutes too short for window {}",
        pred_watts.len(),
        cfg.state_window
    );
    assert!(cfg.state_window >= 1, "state window must be >= 1");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfdrl_data::DeviceType;

    fn env_with(pred: Vec<f64>, real_modes: Vec<Mode>) -> DeviceEnv {
        let spec = DeviceType::Tv.nominal_spec();
        let real_watts: Vec<f64> = real_modes.iter().map(|m| spec.mode_watts(*m)).collect();
        DeviceEnv::new(
            spec,
            pred,
            real_watts,
            real_modes,
            EnvConfig { state_window: 2 },
        )
    }

    #[test]
    fn state_dim_matches_config() {
        assert_eq!(EnvConfig { state_window: 4 }.state_dim(), 14);
        assert_eq!(EnvConfig { state_window: 2 }.state_dim(), 10);
    }

    #[test]
    fn episode_walks_to_completion() {
        let n = 6;
        let modes = vec![Mode::Standby; n];
        let spec = DeviceType::Tv.nominal_spec();
        let pred = vec![spec.standby_watts; n];
        let mut env = env_with(pred, modes);
        let s0 = env.reset();
        assert_eq!(s0.len(), 10);
        let mut steps = 0;
        loop {
            let st = env.step(Mode::Off);
            steps += 1;
            if st.done {
                assert!(st.next_state.is_none());
                break;
            }
        }
        assert_eq!(steps, n - 2); // window consumed at the start
        assert_eq!(env.account().saved_fraction(), Some(1.0));
    }

    #[test]
    fn rewards_follow_table_1() {
        let spec = DeviceType::Tv.nominal_spec();
        let modes = vec![Mode::On, Mode::On, Mode::On, Mode::Standby];
        let real_watts: Vec<f64> = modes.iter().map(|m| spec.mode_watts(*m)).collect();
        let pred = real_watts.clone();
        let mut env = DeviceEnv::new(spec, pred, real_watts, modes, EnvConfig { state_window: 2 });
        env.reset();
        // t=2: true mode On.
        assert_eq!(env.step(Mode::On).reward, 10.0);
        // t=3: true mode Standby, switch off for the bonus.
        let st = env.step(Mode::Off);
        assert_eq!(st.reward, 30.0);
        assert!(st.done);
    }

    #[test]
    fn state_encodes_prediction_and_lagged_reality() {
        let spec = DeviceType::Tv.nominal_spec();
        let scale = spec.on_watts;
        let pred = vec![0.0, spec.standby_watts, spec.on_watts, 44.0];
        let modes = vec![Mode::Off, Mode::Standby, Mode::On, Mode::On];
        let real: Vec<f64> = modes.iter().map(|m| spec.mode_watts(*m)).collect();
        let mut env = DeviceEnv::new(
            spec.clone(),
            pred.clone(),
            real.clone(),
            modes,
            EnvConfig { state_window: 2 },
        );
        let s = env.reset(); // t = 2
                             // Predictions for minutes 1..=2, normalized.
        assert!((s[0] - pred[1] / scale).abs() < 1e-12);
        assert!((s[1] - pred[2] / scale).abs() < 1e-12);
        // Real readings for minutes 0..2.
        assert!((s[2] - real[0] / scale).abs() < 1e-12);
        assert!((s[3] - real[1] / scale).abs() < 1e-12);
        // Predicted mode at t=2 is On -> one-hot [0,0,1].
        assert_eq!(&s[4..7], &[0.0, 0.0, 1.0]);
        // Real mode at t=1 is Standby -> one-hot [0,1,0].
        assert_eq!(&s[7..10], &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn load_day_and_into_variants_replay_identically() {
        // Drive twin episodes — one through new/reset/step, one through
        // a recycled env with load_day/reset_into/step_into — and
        // require bitwise-equal states, rewards and accounts.
        let spec = DeviceType::Tv.nominal_spec();
        let modes = vec![
            Mode::Off,
            Mode::Standby,
            Mode::On,
            Mode::On,
            Mode::Standby,
            Mode::Standby,
            Mode::Off,
        ];
        let real: Vec<f64> = modes.iter().map(|m| spec.mode_watts(*m)).collect();
        let pred: Vec<f64> = real.iter().map(|w| w * 1.03).collect();
        let cfg = EnvConfig { state_window: 2 };
        let mut a = DeviceEnv::new(spec.clone(), pred.clone(), real.clone(), modes.clone(), cfg);
        // The recycled env starts on a *different* (longer) day to prove
        // load_day fully replaces stale series.
        let mut b = env_with(vec![spec.standby_watts; 9], vec![Mode::Standby; 9]);
        b.load_day(spec, &pred, &real, &modes, cfg);
        let sa = a.reset();
        let mut sb = vec![f64::NAN; 3];
        b.reset_into(&mut sb);
        assert_eq!(sa, sb);
        let mut next = Vec::new();
        let actions = [Mode::On, Mode::On, Mode::Off, Mode::Off, Mode::Off];
        for action in actions {
            let st = a.step(action);
            let (r, done) = b.step_into(action, &mut next);
            assert_eq!(st.reward, r);
            assert_eq!(st.done, done);
            if let Some(ns) = st.next_state {
                assert_eq!(ns, next);
            }
            assert_eq!(a.account(), b.account());
            if done {
                break;
            }
        }
        assert!(a.done() && b.done());
    }

    #[test]
    #[should_panic(expected = "after episode end")]
    fn stepping_past_end_panics() {
        let modes = vec![Mode::Standby; 3];
        let spec = DeviceType::Tv.nominal_spec();
        let pred = vec![spec.standby_watts; 3];
        let mut env = env_with(pred, modes);
        env.reset();
        let st = env.step(Mode::Off);
        assert!(st.done);
        let _ = env.step(Mode::Off);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn too_short_episode_rejected() {
        let modes = vec![Mode::Standby; 2];
        let spec = DeviceType::Tv.nominal_spec();
        let pred = vec![spec.standby_watts; 2];
        let _ = env_with(pred, modes);
    }
}
