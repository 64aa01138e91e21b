//! The one transition store behind both replays: a ring of `capacity`
//! slots over flat, chunked storage that keeps each state once.
//!
//! A stored transition is its state row, a small record (action,
//! reward, whether it ended the episode, whether it carries a next mask,
//! and where its next state lives) and its next-mask row. The next state
//! of a terminal transition is never read (nothing bootstraps from it), so
//! it is not stored. That of a non-terminal transition is, in a DQN fed by
//! the simulation engine, bit for bit the state of the transition pushed
//! after it. The store therefore decides at the next push: it waits in one
//! pending buffer until then, and becomes a reference to the following
//! slot's state row when the two are bitwise equal, or is copied into a
//! side ring indexed by the same slots when they are not. Eviction is
//! oldest-first, so a transition always leaves before the row its next
//! state points at.

use crate::transition::TransitionRef;

/// Rows per chunk of a store's arenas: a chunk is one allocation, made
/// the first time one of its rows is written and never reallocated.
pub const CHUNK_ROWS: usize = 256;

/// `rows` fixed-width rows in chunks of [`CHUNK_ROWS`] (the last one
/// shorter when `rows` is not a multiple). A chunk is allocated when a row
/// in it is first written; a width-0 arena allocates nothing.
#[derive(Debug, Clone)]
struct RowArena<T> {
    rows: usize,
    width: usize,
    chunks: Box<[Box<[T]>]>,
}

impl<T: Copy + Default> RowArena<T> {
    fn new(rows: usize, width: usize) -> Self {
        Self {
            rows,
            width,
            chunks: (0..rows.div_ceil(CHUNK_ROWS))
                .map(|_| Box::default())
                .collect(),
        }
    }

    fn row(&self, row: usize) -> &[T] {
        let start = row % CHUNK_ROWS * self.width;
        &self.chunks[row / CHUNK_ROWS][start..start + self.width]
    }

    fn row_mut(&mut self, row: usize) -> &mut [T] {
        let (chunk, width) = (row / CHUNK_ROWS, self.width);
        let floats = CHUNK_ROWS.min(self.rows - chunk * CHUNK_ROWS) * width;
        let chunk = &mut self.chunks[chunk];
        if chunk.len() < floats {
            *chunk = vec![T::default(); floats].into_boxed_slice();
        }
        let start = row % CHUNK_ROWS * width;
        &mut chunk[start..start + width]
    }

    fn chunks_allocated(&self) -> usize {
        self.chunks.iter().filter(|c| !c.is_empty()).count()
    }
}

/// Where a stored transition's next state lives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum NextState {
    /// Terminal: no next state is stored.
    #[default]
    Terminal,
    /// The newest transition's, in the pending buffer until the next push.
    Pending,
    /// The state row of the following slot, bitwise equal to it.
    Following,
    /// The transition's own row of the side ring.
    Spilled,
}

/// The per-slot remainder of a transition beside its state and mask rows.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    action: usize,
    reward: f32,
    next: NextState,
    /// Whether a next mask is stored (an empty one means all valid).
    masked: bool,
}

/// A ring of `capacity` transitions; slot `i` holds the transition pushed
/// `i`-th modulo `capacity`, the ids both replays sample.
///
/// Every state is fixed-width (the first push sets it), as is every
/// non-empty next mask (the first one sets it). A chunk of each arena is
/// allocated as the ring first reaches it, so the store allocates for what
/// it holds, one chunk at a time, and a full ring allocates nothing.
///
/// # Examples
///
/// ```
/// use rl::replay::TransitionStore;
/// use rl::transition::TransitionRef;
///
/// let mut store = TransitionStore::new(8);
/// let (s0, s1) = ([0.0, 1.0], [2.0, 3.0]);
/// for (state, next) in [(&s0, &s1), (&s1, &s0)] {
///     store.push(TransitionRef {
///         state,
///         action: 0,
///         reward: -1.0,
///         next_state: next,
///         done: false,
///         next_mask: &[],
///     });
/// }
/// assert_eq!(store.get(0).next_state, s1); // s1's own row, stored once
/// assert_eq!(store.get(1).next_state, s0); // pending until the next push
/// assert_eq!(store.spilled(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TransitionStore {
    capacity: usize,
    len: usize,
    /// Next slot written.
    head: usize,
    pushed: u64,
    spilled: u64,
    records: RowArena<Record>,
    states: RowArena<f32>,
    next_masks: RowArena<bool>,
    /// Next states that differ from the following state, at their
    /// transition's slot.
    side_ring: RowArena<f32>,
    /// The newest transition's next state, when it is not terminal.
    pending: Vec<f32>,
}

impl TransitionStore {
    /// An empty store of `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        // The widths of states and masks are set by the first push.
        Self {
            capacity,
            len: 0,
            head: 0,
            pushed: 0,
            spilled: 0,
            records: RowArena::new(capacity, 1),
            states: RowArena::new(capacity, 0),
            next_masks: RowArena::new(capacity, 0),
            side_ring: RowArena::new(capacity, 0),
            pending: Vec::new(),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of stored transitions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Transitions ever pushed, evicted ones included.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Next states ever copied into the side ring because they differed
    /// from the state pushed after them.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Arena chunks allocated so far, over the records, states, next masks
    /// and side ring.
    pub fn chunks_allocated(&self) -> usize {
        self.records.chunks_allocated()
            + self.states.chunks_allocated()
            + self.next_masks.chunks_allocated()
            + self.side_ring.chunks_allocated()
    }

    /// Copies `t` into the next slot, evicting the oldest transition when
    /// full, and returns the slot.
    ///
    /// # Panics
    ///
    /// Panics if the state's width differs from the first push's, a
    /// non-terminal next state's from the state's, or a non-empty next
    /// mask's from the first non-empty one's.
    pub fn push(&mut self, t: TransitionRef<'_>) -> usize {
        if self.pushed == 0 {
            self.states.width = t.state.len();
            self.side_ring.width = t.state.len();
        }
        let width = self.states.width;
        assert_eq!(t.state.len(), width, "state width");
        assert!(t.done || t.next_state.len() == width, "next state width");
        let masked = !t.next_mask.is_empty();
        if masked {
            if self.next_masks.width == 0 {
                self.next_masks.width = t.next_mask.len();
            }
            assert_eq!(t.next_mask.len(), self.next_masks.width, "next mask width");
        }

        let slot = self.head;
        // The newest transition learns where its next state lives, unless
        // this push evicts it (a capacity of one).
        let newest = (slot + self.capacity - 1) % self.capacity;
        if self.len > 0 && newest != slot && self.record(newest).next == NextState::Pending {
            let next = if same_bits(&self.pending, t.state) {
                NextState::Following
            } else {
                self.side_ring
                    .row_mut(newest)
                    .copy_from_slice(&self.pending);
                self.spilled += 1;
                NextState::Spilled
            };
            self.records.row_mut(newest)[0].next = next;
        }

        self.states.row_mut(slot).copy_from_slice(t.state);
        if masked {
            self.next_masks.row_mut(slot).copy_from_slice(t.next_mask);
        }
        let next = if t.done {
            NextState::Terminal
        } else {
            self.pending.clear();
            self.pending.extend_from_slice(t.next_state);
            NextState::Pending
        };
        self.records.row_mut(slot)[0] = Record {
            action: t.action,
            reward: t.reward,
            next,
            masked,
        };
        self.head = (slot + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
        self.pushed += 1;
        slot
    }

    /// The transition in `slot`, borrowed; a terminal one reads back with
    /// an empty next state.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not occupied.
    pub fn get(&self, slot: usize) -> TransitionRef<'_> {
        assert!(slot < self.len, "replay slot {slot} is empty");
        let record = self.record(slot);
        let next_state = match record.next {
            NextState::Terminal => &[],
            NextState::Pending => self.pending.as_slice(),
            NextState::Following => self.states.row((slot + 1) % self.capacity),
            NextState::Spilled => self.side_ring.row(slot),
        };
        TransitionRef {
            state: self.states.row(slot),
            action: record.action,
            reward: record.reward,
            next_state,
            done: record.next == NextState::Terminal,
            next_mask: if record.masked {
                self.next_masks.row(slot)
            } else {
                &[]
            },
        }
    }

    fn record(&self, slot: usize) -> Record {
        self.records.row(slot)[0]
    }
}

/// Bitwise equality: a next state is shared only if every bit matches
/// (`-0.0` is not `0.0`, and a NaN matches only its own payload).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(store: &mut TransitionStore, state: &[f32], next: &[f32], done: bool) -> usize {
        store.push(TransitionRef {
            state,
            action: 1,
            reward: 0.5,
            next_state: next,
            done,
            next_mask: &[],
        })
    }

    #[test]
    fn a_following_state_is_shared_and_a_different_one_spills() {
        let mut store = TransitionStore::new(4);
        push(&mut store, &[1.0], &[2.0], false);
        push(&mut store, &[2.0], &[9.0], false);
        assert_eq!(store.record(0).next, NextState::Following);
        push(&mut store, &[3.0], &[0.0], true); // slot 1 spills
        push(&mut store, &[4.0], &[-0.0], false);
        // Evicts the first transition; -0.0 is not 0.0, so slot 3 spills.
        push(&mut store, &[0.0], &[], true);
        assert_eq!(store.get(0).state, [0.0]);
        assert_eq!(store.record(0).next, NextState::Terminal);
        assert_eq!(store.record(1).next, NextState::Spilled);
        assert_eq!(store.record(2).next, NextState::Terminal);
        assert_eq!(store.record(3).next, NextState::Spilled);
        assert_eq!(store.spilled(), 2);
        assert_eq!(store.get(1).next_state, [9.0]);
        assert_eq!(store.get(3).next_state[0].to_bits(), (-0.0f32).to_bits());
        assert!(store.get(2).next_state.is_empty());
    }

    #[test]
    fn a_capacity_of_one_evicts_the_pending_transition() {
        let mut store = TransitionStore::new(1);
        push(&mut store, &[1.0], &[5.0], false);
        assert_eq!(store.get(0).next_state, [5.0]);
        push(&mut store, &[2.0], &[6.0], false);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(0).state, [2.0]);
        assert_eq!(store.get(0).next_state, [6.0]);
        assert_eq!(store.spilled(), 0);
    }

    #[test]
    fn chunks_are_allocated_as_the_ring_reaches_them() {
        let mut store = TransitionStore::new(50_000);
        for i in 0..300 {
            let s = [i as f32];
            let next = [(i + 1) as f32];
            push(&mut store, &s, &next, false);
        }
        // Records and states, two chunks each; no mask and no spill.
        assert_eq!(store.chunks_allocated(), 4);
        assert_eq!(store.spilled(), 0);
        assert_eq!(store.states.chunks[1].len(), CHUNK_ROWS);
        let mut short = TransitionStore::new(3);
        push(&mut short, &[0.0, 1.0], &[], true);
        assert_eq!(
            short.states.chunks[0].len(),
            6,
            "the last chunk fits the ring"
        );
    }

    #[test]
    #[should_panic(expected = "state width")]
    fn a_state_of_another_width_panics() {
        let mut store = TransitionStore::new(2);
        push(&mut store, &[1.0], &[], true);
        push(&mut store, &[1.0, 2.0], &[], true);
    }

    #[test]
    #[should_panic(expected = "is empty")]
    fn reading_an_empty_slot_panics() {
        let mut store = TransitionStore::new(2);
        push(&mut store, &[1.0], &[], true);
        let _ = store.get(1);
    }
}
