//! Experience replay buffer (paper: "memory capacity 2000").
//!
//! # Layout
//!
//! A [`ReplayBuffer`] of capacity `C` over states of width `d` keeps
//! every state row in one flat `(C + 1) × d` block of `f64`s, allocated
//! on the first push, plus one 16 B slot record per stored
//! transition: the row holding its state, its action and reward, and
//! where its next state lives — nowhere (terminal), in the row after its
//! own, or in the side table.
//!
//! Rows are handed out in push order, one per transition: the `k`-th
//! push owns row `k mod (C + 1)`. A non-terminal transition writes its
//! next state into the row after its own. When the next push's state is
//! **bitwise** that next state (compared with `to_bits`, so `-0.0` never
//! stands in for `+0.0` and a NaN matches only its own payload), the
//! push *chains*: the row already holds its state and the push writes
//! only its own next state. Within an episode `s_{t+1}` is the previous
//! transition's `s'`, so a chained episode stores each state exactly
//! once.
//!
//! # Why `C + 1` rows suffice
//!
//! At most `C` transitions are live, and they own the `C` most recent
//! state rows. The one remaining row is the newest transition's pending
//! next state — which, once the ring is full, is the row of the
//! transition the next push evicts. A transition's `s'` in "the row
//! after its own" is therefore always either the pending row or the
//! state row of the live transition pushed right after it.
//!
//! # The side table
//!
//! A push that does *not* chain onto a pending next state needs that
//! row for its own state. The displaced next state is moved to a side
//! table indexed by the previous transition's slot, and that slot is
//! marked spilled. The table (`C × d`) is allocated on the first spill,
//! so it stays empty on chained input; unchained input — arbitrary
//! `(s, a, r, s')` pushes, or a snapshot whose transitions do not
//! chain — still round-trips exactly.
//!
//! Slot order, the write cursor and the sampling draws are those of a
//! plain `Vec<Transition>` ring, so [`ReplayBuffer::export_state`] and
//! training are independent of how rows are shared.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One transition `(s, a, r, s')`; `next_state == None` marks a terminal
/// step. The owned form of a transition, used by snapshots and by
/// callers that build transitions one at a time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    pub state: Vec<f64>,
    pub action: usize,
    pub reward: f64,
    pub next_state: Option<Vec<f64>>,
}

/// A stored transition viewed in place: the slices borrow the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransitionRef<'a> {
    pub state: &'a [f64],
    pub action: usize,
    pub reward: f64,
    pub next_state: Option<&'a [f64]>,
}

impl TransitionRef<'_> {
    /// Copies the viewed transition into owned vectors.
    pub fn to_transition(&self) -> Transition {
        Transition {
            state: self.state.to_vec(),
            action: self.action,
            reward: self.reward,
            next_state: self.next_state.map(<[f64]>::to_vec),
        }
    }
}

/// Where a slot's next state is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Next {
    Terminal,
    /// The row after the slot's own state row.
    Row,
    /// The side table, at the slot's index.
    Spilled,
}

/// Per-transition record: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    reward: f64,
    row: u32,
    action: u16,
    next: Next,
}

/// Fixed-capacity ring of transitions with uniform sampling, stored as
/// one flat block of `capacity + 1` state rows (see the module docs for
/// the layout, the chain rule and the side table).
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    /// State width, fixed by the first push (0 before it).
    dim: usize,
    /// `(capacity + 1) × dim` state rows; empty until the first push.
    rows: Vec<f64>,
    /// One record per stored transition, in storage order.
    slots: Vec<Slot>,
    /// Next slot the ring overwrites.
    write: usize,
    /// State row of the next push: one past the newest transition's.
    head: usize,
    /// Displaced next states, `capacity × dim` indexed by slot; empty
    /// until the first spill.
    spill: Vec<f64>,
}

impl ReplayBuffer {
    /// An empty ring. Nothing is allocated until the first push.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or if `capacity + 1` rows do not fit a
    /// `u32` row index.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        assert!(
            capacity < u32::MAX as usize,
            "replay capacity must fit a u32 row index"
        );
        ReplayBuffer {
            capacity,
            dim: 0,
            rows: Vec::new(),
            slots: Vec::new(),
            write: 0,
            head: 0,
            spill: Vec::new(),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// State width, fixed by the first push; 0 before it.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Appends `(state, action, reward, next_state)`, evicting the
    /// oldest transition once full. A push whose state bitwise equals
    /// the newest transition's pending next state writes only its own
    /// next state; the first push allocates the row block and the slot
    /// block, and no later chained push allocates.
    ///
    /// # Panics
    /// Panics on an empty state, on a state or next state whose width
    /// differs from the first push's, or on an action above
    /// `u16::MAX`.
    pub fn push(&mut self, state: &[f64], action: usize, reward: f64, next_state: Option<&[f64]>) {
        if self.rows.is_empty() {
            assert!(!state.is_empty(), "replay states must be non-empty");
            self.dim = state.len();
            self.rows = vec![0.0; (self.capacity + 1) * self.dim];
            self.slots.reserve_exact(self.capacity);
        }
        assert_eq!(state.len(), self.dim, "replay state width changed");
        if let Some(ns) = next_state {
            assert_eq!(ns.len(), self.dim, "replay next-state width changed");
        }
        let action = u16::try_from(action).expect("replay action exceeds u16::MAX");
        let row = self.head;
        let pending = self.newest().filter(|&s| self.slots[s].next == Next::Row);
        let chained = pending.is_some() && bits_eq(self.row(row), state);
        if !chained {
            // The slot about to be overwritten needs no spill: with
            // capacity 1 the newest transition is the one evicted.
            if let Some(s) = pending.filter(|&s| s != self.write) {
                self.spill_next(s, row);
            }
            self.row_mut(row).copy_from_slice(state);
        }
        let next = match next_state {
            None => Next::Terminal,
            Some(ns) => {
                let nr = self.next_row(row);
                self.row_mut(nr).copy_from_slice(ns);
                Next::Row
            }
        };
        let slot = Slot {
            reward,
            row: row as u32,
            action,
            next,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            self.slots[self.write] = slot;
        }
        self.write = (self.write + 1) % self.capacity;
        self.head = self.next_row(row);
    }

    /// Writes `n` uniformly sampled slot indices into `out` (cleared
    /// first, capacity reused): one `gen_range(0..len)` per index, in
    /// order. Never allocates once `out` is warm.
    ///
    /// # Panics
    /// Panics if the buffer is empty.
    pub fn sample_indices_into(&self, n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
        assert!(!self.is_empty(), "sampling from empty replay buffer");
        out.clear();
        for _ in 0..n {
            out.push(rng.gen_range(0..self.len()));
        }
    }

    /// The transition stored at slot `i` (storage order, as sampled by
    /// [`ReplayBuffer::sample_indices_into`]), viewed in place.
    #[inline]
    pub fn get(&self, i: usize) -> TransitionRef<'_> {
        let s = self.slots[i];
        let row = s.row as usize;
        TransitionRef {
            state: self.row(row),
            action: s.action as usize,
            reward: s.reward,
            next_state: match s.next {
                Next::Terminal => None,
                Next::Row => Some(self.row(self.next_row(row))),
                Next::Spilled => Some(&self.spill[i * self.dim..(i + 1) * self.dim]),
            },
        }
    }

    /// Captures the buffer contents and ring position, for
    /// checkpointing.
    pub fn export_state(&self) -> ReplayState {
        ReplayState {
            capacity: self.capacity,
            transitions: (0..self.len())
                .map(|i| self.get(i).to_transition())
                .collect(),
            write: self.write,
        }
    }

    /// Rebuilds a buffer from a captured [`ReplayState`], restoring the
    /// exact slot order and eviction order. Transitions are copied into
    /// the ring oldest first, so consecutive ones chain wherever their states
    /// do and the newest transition's next state is pending again. A
    /// non-empty state allocates the whole `(capacity + 1) × dim` row
    /// block, as a first push does.
    ///
    /// # Errors
    /// Rejects states that violate the ring invariants (zero or
    /// oversized capacity, overfull, a write cursor outside the
    /// occupied region) or that the flat ring cannot hold (an empty
    /// state, states or next states of differing widths, an action above
    /// `u16::MAX`).
    pub fn from_state(state: &ReplayState) -> Result<Self, ReplayError> {
        let ReplayState {
            capacity,
            ref transitions,
            write,
        } = *state;
        if capacity == 0 || capacity >= u32::MAX as usize {
            return Err(ReplayError::Capacity { capacity });
        }
        let len = transitions.len();
        if len > capacity {
            return Err(ReplayError::Overfull { len, capacity });
        }
        let valid_write = if len < capacity {
            write == len
        } else {
            write < capacity
        };
        if !valid_write {
            return Err(ReplayError::WriteCursor {
                write,
                len,
                capacity,
            });
        }
        let dim = transitions.first().map_or(0, |t| t.state.len());
        for (index, t) in transitions.iter().enumerate() {
            if t.state.is_empty() {
                return Err(ReplayError::EmptyState { index });
            }
            if t.state.len() != dim {
                return Err(ReplayError::StateWidth {
                    index,
                    len: t.state.len(),
                    dim,
                });
            }
            if let Some(ns) = t.next_state.as_ref().filter(|ns| ns.len() != dim) {
                return Err(ReplayError::NextStateWidth {
                    index,
                    len: ns.len(),
                    dim,
                });
            }
            if t.action > u16::MAX as usize {
                return Err(ReplayError::Action {
                    index,
                    action: t.action,
                });
            }
        }
        // A full ring's oldest transition sits at `write`.
        let oldest = if len == capacity { write } else { 0 };
        let mut rb = ReplayBuffer::new(capacity);
        for k in 0..len {
            let t = &transitions[(oldest + k) % capacity];
            rb.push(&t.state, t.action, t.reward, t.next_state.as_deref());
        }
        // The pushes filled slots `0..len` oldest first; turn them (and
        // their spilled rows) so the oldest sits at `oldest` again.
        rb.slots.rotate_right(oldest);
        if !rb.spill.is_empty() {
            rb.spill.rotate_right(oldest * rb.dim);
        }
        rb.write = write;
        Ok(rb)
    }

    #[inline]
    fn row(&self, r: usize) -> &[f64] {
        &self.rows[r * self.dim..(r + 1) * self.dim]
    }

    #[inline]
    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.rows[r * self.dim..(r + 1) * self.dim]
    }

    /// The row after `r` in the `capacity + 1`-row ring.
    #[inline]
    fn next_row(&self, r: usize) -> usize {
        if r == self.capacity {
            0
        } else {
            r + 1
        }
    }

    /// Slot of the most recent push, if any.
    fn newest(&self) -> Option<usize> {
        (!self.slots.is_empty()).then(|| (self.write + self.capacity - 1) % self.capacity)
    }

    /// Moves slot `s`'s pending next state out of `row` into the side
    /// table.
    fn spill_next(&mut self, s: usize, row: usize) {
        if self.spill.is_empty() {
            self.spill = vec![0.0; self.capacity * self.dim];
        }
        let d = self.dim;
        self.spill[s * d..(s + 1) * d].copy_from_slice(&self.rows[row * d..(row + 1) * d]);
        self.slots[s].next = Next::Spilled;
    }
}

/// Bitwise slice equality: `-0.0 != +0.0`, and a NaN equals only the
/// same NaN payload.
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Why [`ReplayBuffer::from_state`] rejected a [`ReplayState`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Zero, or too large for the ring's `u32` row index.
    Capacity { capacity: usize },
    /// More transitions than slots.
    Overfull { len: usize, capacity: usize },
    /// The write cursor is not where a ring with `len` of `capacity`
    /// slots filled can stand.
    WriteCursor {
        write: usize,
        len: usize,
        capacity: usize,
    },
    /// Transition `index` has a zero-length state.
    EmptyState { index: usize },
    /// Transition `index`'s state is `len` wide; transition 0's is `dim`.
    StateWidth {
        index: usize,
        len: usize,
        dim: usize,
    },
    /// Transition `index`'s next state is `len` wide; its state is `dim`.
    NextStateWidth {
        index: usize,
        len: usize,
        dim: usize,
    },
    /// Transition `index`'s action does not fit the 16-bit slot field.
    Action { index: usize, action: usize },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Capacity { capacity } => {
                write!(f, "replay state: unsupported capacity {capacity}")
            }
            ReplayError::Overfull { len, capacity } => {
                write!(
                    f,
                    "replay state: {len} transitions exceed capacity {capacity}"
                )
            }
            ReplayError::WriteCursor {
                write,
                len,
                capacity,
            } => write!(
                f,
                "replay state: write cursor {write} inconsistent with {len} of {capacity} slots filled"
            ),
            ReplayError::EmptyState { index } => {
                write!(f, "replay state: transition {index} has an empty state")
            }
            ReplayError::StateWidth { index, len, dim } => write!(
                f,
                "replay state: transition {index} has a {len}-wide state, expected {dim}"
            ),
            ReplayError::NextStateWidth { index, len, dim } => write!(
                f,
                "replay state: transition {index} has a {len}-wide next state, expected {dim}"
            ),
            ReplayError::Action { index, action } => write!(
                f,
                "replay state: transition {index} has action {action}, above {}",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Serializable snapshot of a [`ReplayBuffer`], for checkpointing.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayState {
    pub capacity: usize,
    /// Buffer contents in storage order (not age order).
    pub transitions: Vec<Transition>,
    /// Next slot the ring will overwrite.
    pub write: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(r: f64) -> Transition {
        Transition {
            state: vec![r],
            action: 0,
            reward: r,
            next_state: None,
        }
    }

    fn push(rb: &mut ReplayBuffer, t: &Transition) {
        rb.push(&t.state, t.action, t.reward, t.next_state.as_deref());
    }

    #[test]
    fn fills_then_wraps() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            push(&mut rb, &t(i as f64));
        }
        assert_eq!(rb.len(), 3);
        // Oldest two (0, 1) evicted; slots 0 and 1 were overwritten.
        let rewards: Vec<f64> = (0..3).map(|i| rb.get(i).reward).collect();
        assert_eq!(rewards, vec![3.0, 4.0, 2.0]);
    }

    #[test]
    fn chained_episode_stores_each_state_once() {
        let mut rb = ReplayBuffer::new(4);
        let states: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, -(i as f64)]).collect();
        for w in states.windows(2) {
            rb.push(&w[0], 1, 0.5, Some(&w[1]));
        }
        assert_eq!(rb.rows.len(), 5 * 2, "capacity + 1 rows");
        assert!(rb.spill.is_empty(), "a chained episode never spills");
        // Slots hold the last four of nine transitions, 5..=8, in ring
        // order: 8, 5, 6, 7.
        for (slot, first) in [(0, 8), (1, 5), (2, 6), (3, 7)] {
            let got = rb.get(slot);
            assert_eq!(got.state, &states[first][..]);
            assert_eq!(got.next_state, Some(&states[first + 1][..]));
        }
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut rb = ReplayBuffer::new(1);
        rb.push(&[1.0], 0, 1.0, Some(&[2.0]));
        rb.push(&[2.0], 1, 2.0, Some(&[3.0]));
        rb.push(&[9.0], 2, 3.0, Some(&[4.0]));
        assert!(rb.spill.is_empty(), "the evicted newest needs no spill");
        assert_eq!(
            rb.get(0).to_transition(),
            Transition {
                state: vec![9.0],
                action: 2,
                reward: 3.0,
                next_state: Some(vec![4.0]),
            }
        );
    }

    #[test]
    fn from_state_restores_the_pending_next_row() {
        let mut rb = ReplayBuffer::new(3);
        for i in 0..5 {
            rb.push(&[i as f64], 0, 0.0, Some(&[i as f64 + 1.0]));
        }
        let mut restored = ReplayBuffer::from_state(&rb.export_state()).unwrap();
        assert_eq!(restored.export_state(), rb.export_state());
        rb.push(&[5.0], 1, 1.0, Some(&[6.0]));
        restored.push(&[5.0], 1, 1.0, Some(&[6.0]));
        assert!(restored.spill.is_empty(), "the resumed episode chains");
        assert_eq!(restored.export_state(), rb.export_state());
    }

    fn state_of(transitions: Vec<Transition>) -> ReplayState {
        ReplayState {
            capacity: 4,
            write: transitions.len(),
            transitions,
        }
    }

    #[test]
    fn from_state_rejects_mixed_state_widths() {
        let mut wide = t(1.0);
        wide.state = vec![1.0, 2.0];
        assert_eq!(
            ReplayBuffer::from_state(&state_of(vec![t(0.0), wide])).unwrap_err(),
            ReplayError::StateWidth {
                index: 1,
                len: 2,
                dim: 1
            }
        );
    }

    #[test]
    fn from_state_rejects_an_empty_state() {
        let mut empty = t(1.0);
        empty.state.clear();
        assert_eq!(
            ReplayBuffer::from_state(&state_of(vec![empty])).unwrap_err(),
            ReplayError::EmptyState { index: 0 }
        );
    }

    #[test]
    fn from_state_rejects_a_next_state_of_another_width() {
        let mut ragged = t(1.0);
        ragged.next_state = Some(vec![0.0; 3]);
        assert_eq!(
            ReplayBuffer::from_state(&state_of(vec![t(0.0), ragged])).unwrap_err(),
            ReplayError::NextStateWidth {
                index: 1,
                len: 3,
                dim: 1
            }
        );
    }

    #[test]
    fn from_state_rejects_an_action_wider_than_the_slot() {
        let mut wide = t(1.0);
        wide.action = 1 << 16;
        assert_eq!(
            ReplayBuffer::from_state(&state_of(vec![wide])).unwrap_err(),
            ReplayError::Action {
                index: 0,
                action: 1 << 16
            }
        );
    }

    #[test]
    fn from_state_rejects_broken_ring_invariants() {
        let mut s = state_of(vec![t(0.0)]);
        s.capacity = 0;
        assert_eq!(
            ReplayBuffer::from_state(&s).unwrap_err(),
            ReplayError::Capacity { capacity: 0 }
        );
        let mut s = state_of(vec![t(0.0); 5]);
        s.write = 0;
        assert!(matches!(
            ReplayBuffer::from_state(&s).unwrap_err(),
            ReplayError::Overfull { len: 5, .. }
        ));
        let mut s = state_of(vec![t(0.0)]);
        s.write = 0;
        assert!(matches!(
            ReplayBuffer::from_state(&s).unwrap_err(),
            ReplayError::WriteCursor { write: 0, .. }
        ));
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut rb = ReplayBuffer::new(10);
        push(&mut rb, &t(1.0));
        push(&mut rb, &t(2.0));
        let mut rng = StdRng::seed_from_u64(0);
        let mut idx = Vec::new();
        rb.sample_indices_into(5, &mut rng, &mut idx);
        assert_eq!(idx.len(), 5);
        assert!(idx.iter().all(|&i| i < 2));
    }

    #[test]
    fn sample_covers_buffer_eventually() {
        let mut rb = ReplayBuffer::new(4);
        for i in 0..4 {
            push(&mut rb, &t(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let mut idx = Vec::new();
        rb.sample_indices_into(200, &mut rng, &mut idx);
        let seen: std::collections::HashSet<usize> = idx.into_iter().collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "empty replay")]
    fn sampling_empty_panics() {
        let rb = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        rb.sample_indices_into(1, &mut rng, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
