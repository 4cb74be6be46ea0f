//! The flat replay ring against a model ring: a `Vec<Transition>` with
//! the plain push-or-overwrite semantics every snapshot and training
//! draw is defined by. Random mixes of chained, terminal and unchained
//! pushes, over rows that include ±0.0, NaN payloads, ±∞ and
//! subnormals, must export, restore and read back bit for bit.

use pfdrl_drl::{ReplayBuffer, ReplayState, Transition};
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reference ring.
struct Model {
    capacity: usize,
    buf: Vec<Transition>,
    write: usize,
}

impl Model {
    fn push(&mut self, t: Transition) {
        if self.buf.len() < self.capacity {
            self.buf.push(t);
        } else {
            self.buf[self.write] = t;
        }
        self.write = (self.write + 1) % self.capacity;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_transition(a: &Transition, b: &Transition) -> bool {
    bits(&a.state) == bits(&b.state)
        && a.action == b.action
        && a.reward.to_bits() == b.reward.to_bits()
        && a.next_state.as_deref().map(bits) == b.next_state.as_deref().map(bits)
}

fn same_state(a: &ReplayState, b: &ReplayState) -> bool {
    a.capacity == b.capacity
        && a.write == b.write
        && a.transitions.len() == b.transitions.len()
        && a.transitions
            .iter()
            .zip(&b.transitions)
            .all(|(x, y)| same_transition(x, y))
}

/// One value, biased towards the bit patterns `==` gets wrong.
fn value(rng: &mut impl Rng) -> f64 {
    match rng.gen_range(0..10) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(0x7ff8_0000_0000_0000 | rng.gen_range(0..4u64)),
        3 => f64::from_bits(0xfff0_0000_0000_0001 + rng.gen_range(0..4u64)),
        4 => f64::INFINITY,
        5 => f64::NEG_INFINITY,
        6 => f64::from_bits(rng.gen_range(1..4u64)),
        7 => -f64::MIN_POSITIVE / 2.0,
        _ => rng.gen_range(-2.0..2.0),
    }
}

fn row(rng: &mut impl Rng, dim: usize) -> Vec<f64> {
    (0..dim).map(|_| value(rng)).collect()
}

/// `v` with the sign of every zero flipped: equal under `==`, not in
/// bits (unless `v` holds no zero).
fn flip_zeros(v: &[f64]) -> Vec<f64> {
    v.iter().map(|&x| if x == 0.0 { -x } else { x }).collect()
}

fn check(rb: &ReplayBuffer, model: &Model) -> Result<(), TestCaseError> {
    let exported = rb.export_state();
    let expect = ReplayState {
        capacity: model.capacity,
        transitions: model.buf.clone(),
        write: model.write,
    };
    prop_assert!(
        same_state(&exported, &expect),
        "export differs from the model"
    );
    let restored = ReplayBuffer::from_state(&exported).expect("own export restores");
    prop_assert!(
        same_state(&restored.export_state(), &exported),
        "from_state(export_state()) exports differently"
    );
    prop_assert_eq!(rb.len(), model.buf.len());
    for (i, t) in model.buf.iter().enumerate() {
        prop_assert!(
            same_transition(&rb.get(i).to_transition(), t),
            "get({}) differs",
            i
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn flat_ring_matches_the_model_ring_bit_for_bit(
        capacity in 1usize..=17,
        dim in 1usize..=5,
        pushes in 0usize..60,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rb = ReplayBuffer::new(capacity);
        let mut model = Model { capacity, buf: Vec::new(), write: 0 };
        let mut last_next: Option<Vec<f64>> = None;
        for _ in 0..pushes {
            let state = match (rng.gen_range(0..6), &last_next) {
                // Chained: the episode continues from the last s'.
                (0..=2, Some(prev)) => prev.clone(),
                // Equal under `==` only.
                (3, Some(prev)) => flip_zeros(prev),
                _ => row(&mut rng, dim),
            };
            let next_state = (rng.gen_range(0..5) != 0).then(|| row(&mut rng, dim));
            let t = Transition {
                state,
                action: rng.gen_range(0..3),
                reward: value(&mut rng),
                next_state,
            };
            rb.push(&t.state, t.action, t.reward, t.next_state.as_deref());
            last_next = t.next_state.clone();
            model.push(t);
            check(&rb, &model)?;
            // Carry on from a restored ring now and then, so pushes after
            // a resume are exercised too.
            if rng.gen_range(0..4) == 0 {
                rb = ReplayBuffer::from_state(&rb.export_state()).expect("own export restores");
            }
        }
    }
}

#[test]
fn positive_zero_state_after_negative_zero_next_state() {
    let mut rb = ReplayBuffer::new(3);
    let mut model = Model {
        capacity: 3,
        buf: Vec::new(),
        write: 0,
    };
    for t in [
        Transition {
            state: vec![1.0, 2.0],
            action: 0,
            reward: 0.5,
            next_state: Some(vec![-0.0, 3.0]),
        },
        Transition {
            state: vec![0.0, 3.0],
            action: 1,
            reward: -0.5,
            next_state: Some(vec![4.0, 5.0]),
        },
    ] {
        rb.push(&t.state, t.action, t.reward, t.next_state.as_deref());
        model.push(t);
        check(&rb, &model).unwrap();
    }
    assert_eq!(bits(rb.get(0).next_state.unwrap()), bits(&[-0.0, 3.0]));
    assert_eq!(bits(rb.get(1).state), bits(&[0.0, 3.0]));
}
