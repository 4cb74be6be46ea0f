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
//! `(s, a, r, s')` pushes — still reads back exactly.
//!
//! Slot order, the write cursor and the sampling draws are those of a
//! plain `Vec<Transition>` ring, so training is independent of how rows
//! are shared.
//!
//! # Checkpoints
//!
//! [`ReplayBuffer::export_state`] copies the ring's raw arrays — the row
//! block, the slot records and the side table — into a [`ReplayState`],
//! and [`ReplayBuffer::from_state`] validates such a state and copies it
//! back, so a restored ring is the same ring, dead rows included, and
//! keeps evolving exactly as the original would.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One transition `(s, a, r, s')`; `next_state == None` marks a terminal
/// step. The owned form of a transition, for callers that build
/// transitions one at a time.
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
pub enum Next {
    Terminal,
    /// The row after the slot's own state row.
    Row,
    /// The side table, at the slot's index.
    Spilled,
}

/// Per-transition record: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slot {
    pub reward: f64,
    /// Row of the transition's state in the row block.
    pub row: u32,
    pub action: u16,
    pub next: Next,
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

    /// Copies the ring's raw arrays and cursors, for checkpointing.
    pub fn export_state(&self) -> ReplayState {
        ReplayState {
            capacity: self.capacity,
            dim: self.dim,
            write: self.write,
            head: self.head,
            rows: self.rows.clone(),
            slots: self.slots.clone(),
            spill: self.spill.clone(),
        }
    }

    /// Rebuilds the ring captured by [`ReplayBuffer::export_state`]:
    /// the state is validated, then its arrays are copied as they are,
    /// so the restored ring shares rows, spills and evicts exactly as
    /// the original. A non-empty ring reserves every slot, as a first
    /// push does.
    ///
    /// # Errors
    /// Rejects any state [`ReplayState::validate`] rejects.
    pub fn from_state(state: &ReplayState) -> Result<Self, ReplayError> {
        state.validate()?;
        let mut slots = Vec::with_capacity(if state.slots.is_empty() {
            0
        } else {
            state.capacity
        });
        slots.extend_from_slice(&state.slots);
        Ok(ReplayBuffer {
            capacity: state.capacity,
            dim: state.dim,
            rows: state.rows.clone(),
            slots,
            write: state.write,
            head: state.head,
            spill: state.spill.clone(),
        })
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

/// Why a [`ReplayState`] cannot be restored into a [`ReplayBuffer`].
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
    /// A ring holds states exactly when it has a width: `dim` must be 0
    /// for an empty ring and positive otherwise.
    Width { dim: usize, len: usize },
    /// The row block (`"rows"`) or the side table (`"spill"`) has `len`
    /// values where the ring's shape calls for `expected`.
    Block {
        block: &'static str,
        len: usize,
        expected: usize,
    },
    /// Slot `index` points at a row outside the `capacity + 1` rows.
    Row { index: usize, row: u32 },
    /// Slot `index` keeps its next state in a side table the ring does
    /// not have.
    Spilled { index: usize },
    /// The next push's row is not the one after the newest slot's row.
    Head { head: usize, expected: usize },
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
            ReplayError::Width { dim, len } => write!(
                f,
                "replay state: width {dim} inconsistent with {len} stored transitions"
            ),
            ReplayError::Block {
                block,
                len,
                expected,
            } => write!(
                f,
                "replay state: {block} block holds {len} values, expected {expected}"
            ),
            ReplayError::Row { index, row } => {
                write!(f, "replay state: slot {index} points at missing row {row}")
            }
            ReplayError::Spilled { index } => write!(
                f,
                "replay state: slot {index} is spilled but the ring has no side table"
            ),
            ReplayError::Head { head, expected } => write!(
                f,
                "replay state: next push row {head}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A [`ReplayBuffer`]'s raw storage, for checkpointing: the arrays and
/// cursors described in the module docs, captured as they are.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayState {
    pub capacity: usize,
    /// State width; 0 for a ring that was never pushed.
    pub dim: usize,
    /// Next slot the ring will overwrite.
    pub write: usize,
    /// State row of the next push: the row after the newest slot's.
    pub head: usize,
    /// `(capacity + 1) × dim` state rows.
    pub rows: Vec<f64>,
    /// One record per stored transition, in storage order (not age
    /// order).
    pub slots: Vec<Slot>,
    /// The side table: empty, or `capacity × dim` next states indexed by
    /// slot.
    pub spill: Vec<f64>,
}

impl ReplayState {
    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the ring holds no transition.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Checks that the arrays form a ring [`ReplayBuffer`] can run on:
    /// the cursors fit `capacity` and `len`, the width is positive
    /// exactly when transitions are stored, the row block holds
    /// `(capacity + 1) × dim` values and the side table none or
    /// `capacity × dim`, every slot's row exists, a spilled slot has a
    /// side table, and `head` is the row after the newest slot's row.
    ///
    /// # Errors
    /// The first violated rule, as a typed [`ReplayError`].
    pub fn validate(&self) -> Result<(), ReplayError> {
        let (capacity, dim, len, write) = (self.capacity, self.dim, self.len(), self.write);
        if capacity == 0 || capacity >= u32::MAX as usize {
            return Err(ReplayError::Capacity { capacity });
        }
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
        if (dim == 0) != (len == 0) {
            return Err(ReplayError::Width { dim, len });
        }
        let block = |block: &'static str, len: usize, expected: Option<usize>| {
            if Some(len) == expected {
                Ok(())
            } else {
                Err(ReplayError::Block {
                    block,
                    len,
                    expected: expected.unwrap_or(usize::MAX),
                })
            }
        };
        let rows = capacity + 1;
        block("rows", self.rows.len(), rows.checked_mul(dim))?;
        if !self.spill.is_empty() {
            block("spill", self.spill.len(), capacity.checked_mul(dim))?;
        }
        for (index, s) in self.slots.iter().enumerate() {
            if s.row as usize >= rows {
                return Err(ReplayError::Row { index, row: s.row });
            }
            if s.next == Next::Spilled && self.spill.is_empty() {
                return Err(ReplayError::Spilled { index });
            }
        }
        let expected = match len {
            0 => 0,
            _ => {
                let newest = (write + capacity - 1) % capacity;
                (self.slots[newest].row as usize + 1) % rows
            }
        };
        if self.head != expected {
            return Err(ReplayError::Head {
                head: self.head,
                expected,
            });
        }
        Ok(())
    }
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

    /// A ring of capacity 3 over 2-wide states that has wrapped and
    /// spilled once: slot 2's next state was displaced by an unchained
    /// push.
    fn spilled_ring() -> ReplayState {
        let mut rb = ReplayBuffer::new(3);
        rb.push(&[1.0, 1.0], 0, 0.5, Some(&[2.0, 2.0]));
        rb.push(&[2.0, 2.0], 1, 1.5, Some(&[3.0, 3.0]));
        rb.push(&[3.0, 3.0], 2, 2.5, Some(&[4.0, 4.0]));
        rb.push(&[9.0, 9.0], 0, 3.5, Some(&[5.0, 5.0]));
        let state = rb.export_state();
        assert!(!state.spill.is_empty(), "the unchained push spilled");
        state
    }

    #[test]
    fn from_state_restores_the_same_ring() {
        let state = spilled_ring();
        let restored = ReplayBuffer::from_state(&state).unwrap();
        assert_eq!(restored.export_state(), state);
        assert_eq!(
            restored.get(2).next_state,
            Some(&[4.0, 4.0][..]),
            "spilled next state"
        );
    }

    #[test]
    fn from_state_rejects_each_broken_rule() {
        type BreakRule = fn(&mut ReplayState);
        let cases: [(BreakRule, ReplayError); 9] = [
            (|s| s.capacity = 0, ReplayError::Capacity { capacity: 0 }),
            (
                |s| s.write = 7,
                ReplayError::WriteCursor {
                    write: 7,
                    len: 3,
                    capacity: 3,
                },
            ),
            (|s| s.dim = 0, ReplayError::Width { dim: 0, len: 3 }),
            (
                |s| {
                    s.rows.pop();
                },
                ReplayError::Block {
                    block: "rows",
                    len: 7,
                    expected: 8,
                },
            ),
            (
                |s| s.spill.push(0.0),
                ReplayError::Block {
                    block: "spill",
                    len: 7,
                    expected: 6,
                },
            ),
            (
                |s| s.slots[1].row = 4,
                ReplayError::Row { index: 1, row: 4 },
            ),
            (|s| s.spill.clear(), ReplayError::Spilled { index: 2 }),
            (
                |s| s.head = 2,
                ReplayError::Head {
                    head: 2,
                    expected: 0,
                },
            ),
            (
                |s| s.slots.push(s.slots[0]),
                ReplayError::Overfull {
                    len: 4,
                    capacity: 3,
                },
            ),
        ];
        for (break_rule, expected) in cases {
            let mut state = spilled_ring();
            break_rule(&mut state);
            assert_eq!(ReplayBuffer::from_state(&state).unwrap_err(), expected);
        }
        let empty = ReplayBuffer::new(3).export_state();
        assert!(ReplayBuffer::from_state(&empty).unwrap().is_empty());
        let mut sized = empty;
        sized.dim = 2;
        sized.rows = vec![0.0; 8];
        assert_eq!(
            ReplayBuffer::from_state(&sized).unwrap_err(),
            ReplayError::Width { dim: 2, len: 0 }
        );
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
