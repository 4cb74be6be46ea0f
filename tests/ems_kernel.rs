//! The EMS device-minute kernel, `run_device_span`, is the one loop the
//! batch day and the serve loop both run. Two properties hold it to
//! that role: a day cut into spans anywhere (the serve loop's chunks,
//! the batch day's γ-segments) replays the uncut day bit for bit, and
//! the kernel replays a `DeviceEnv` episode bit for bit, which is what
//! the benchmark's `DeviceEnv`-based mirror of the batch day relies on.

use pfdrl_core::{run_device_span, HomeTally, SimConfig};
use pfdrl_data::{DayTrace, HouseholdSpec, Mode, TraceGenerator, MINUTES_PER_DAY};
use pfdrl_drl::{DqnAgent, DqnConfig};
use pfdrl_env::{DaySeries, DeviceEnv, EnvConfig};

/// A decision as the kernel reports it, with the reward's bits.
type Decision = (usize, Mode, u64);

struct Day {
    hh: HouseholdSpec,
    /// Yesterday's readings stand in for the forecast.
    pred: Vec<f64>,
    today: DayTrace,
}

impl Day {
    fn load(cfg: &SimConfig) -> Self {
        let gen = TraceGenerator::new(cfg.generator());
        let hh = gen.household(1);
        let mut prev = DayTrace::default();
        let mut today = DayTrace::default();
        gen.day_trace_into(&hh, 0, 2, &mut prev);
        gen.day_trace_into(&hh, 0, 3, &mut today);
        Day {
            hh,
            pred: prev.watts,
            today,
        }
    }

    fn series(&self) -> DaySeries<'_> {
        DaySeries {
            spec: &self.hh.devices[0],
            pred: &self.pred,
            watts: &self.today.watts,
            modes: &self.today.modes,
        }
    }
}

fn agent(cfg: &SimConfig) -> DqnAgent {
    let dim = EnvConfig {
        state_window: cfg.state_window,
    }
    .state_dim();
    // Room for the whole day, so the exported ring holds every state.
    DqnAgent::new(
        dim,
        DqnConfig {
            replay_capacity: MINUTES_PER_DAY,
            ..cfg.dqn.clone()
        },
    )
}

/// Drives the day through the kernel in spans of `cut` minutes, the
/// cadence counter carried across cuts.
fn run_cut(cfg: &SimConfig, day: &Day, cut: usize) -> (DqnAgent, HomeTally, Vec<Decision>) {
    let mut agent = agent(cfg);
    let mut tally = HomeTally::new(1);
    let mut cadence = 0u64;
    let mut log = Vec::new();
    let mut t0 = 0;
    while t0 < MINUTES_PER_DAY {
        let t1 = (t0 + cut).min(MINUTES_PER_DAY);
        run_device_span(
            cfg,
            &mut agent,
            day.series(),
            t0..t1,
            true,
            &mut cadence,
            &mut tally,
            0,
            |t, a, r| log.push((t, a, r.to_bits())),
        );
        t0 = t1;
    }
    (agent, tally, log)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Debug prints every float's shortest round-trip form, so equal
/// strings mean bit-equal exports (signed zeros included).
fn export(agent: &DqnAgent) -> String {
    format!("{:?}", agent.export_state())
}

#[test]
fn spans_cut_anywhere_replay_the_uncut_day() {
    let cfg = SimConfig::tiny(5);
    let day = Day::load(&cfg);
    let (agent, tally, log) = run_cut(&cfg, &day, MINUTES_PER_DAY);
    assert_eq!(log.len(), MINUTES_PER_DAY - cfg.state_window);
    assert!(agent.grad_steps() > 0, "the day must train");
    for cut in [45, 60, 720] {
        let (a, t, l) = run_cut(&cfg, &day, cut);
        assert_eq!(l, log, "cut {cut}: decisions");
        assert_eq!(export(&a), export(&agent), "cut {cut}: agent");
        assert_eq!(
            format!("{:?}", t.accounts),
            format!("{:?}", tally.accounts),
            "cut {cut}: account"
        );
        assert_eq!(bits(&t.saved), bits(&tally.saved), "cut {cut}: saved");
        assert_eq!(bits(&t.standby), bits(&tally.standby), "cut {cut}: standby");
        assert_eq!(
            (t.loss_sum.to_bits(), t.loss_steps, t.nonfinite_losses),
            (
                tally.loss_sum.to_bits(),
                tally.loss_steps,
                tally.nonfinite_losses
            ),
            "cut {cut}: loss"
        );
    }
}

#[test]
fn kernel_replays_a_device_env_episode() {
    let cfg = SimConfig::tiny(5);
    let day = Day::load(&cfg);
    let (kernel_agent, tally, log) = run_cut(&cfg, &day, MINUTES_PER_DAY);

    // The same day through `DeviceEnv`, the loop the benchmark mirror
    // runs: act, step_into, remember, train on the same cadence.
    let mut env = DeviceEnv::new(
        day.hh.devices[0].clone(),
        day.pred.clone(),
        day.today.watts.clone(),
        day.today.modes.clone(),
        EnvConfig {
            state_window: cfg.state_window,
        },
    );
    let mut agent = agent(&cfg);
    let (mut cur, mut next, mut state) = (Vec::new(), Vec::new(), Vec::new());
    let mut env_log = Vec::new();
    let mut steps = 0;
    env.reset_into(&mut cur);
    while !env.done() {
        let t = env.current_minute();
        day.series().state_into(cfg.state_window, t, &mut state);
        assert_eq!(bits(&cur), bits(&state), "state at minute {t}");
        let action = agent.act(&cur);
        let (reward, done) = env.step_into(action, &mut next);
        env_log.push((t, action, reward.to_bits()));
        agent.remember_step(&cur, action.index(), reward, (!done).then_some(&next[..]));
        steps += 1;
        if steps >= cfg.train_every && agent.ready() {
            agent.train_step();
            steps = 0;
        }
        std::mem::swap(&mut cur, &mut next);
    }
    assert_eq!(env_log, log, "actions and rewards");
    assert_eq!(
        format!("{:?}", env.account()),
        format!("{:?}", tally.accounts[0]),
        "account"
    );
    // The export holds the whole replay ring, every state the kernel
    // stored included.
    assert_eq!(export(&agent), export(&kernel_agent), "agent");
}
