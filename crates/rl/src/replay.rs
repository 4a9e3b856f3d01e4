use rand::Rng;

/// One transition `(s, a, r, s', terminal)` with flattened observations, as
/// [`ReplayBuffer::push`] takes it and [`ReplayBuffer::get`] hands it back —
/// borrowed, so neither storing nor reading a transition copies its
/// observations into fresh allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition<'a> {
    /// The flattened observation the action was taken in.
    pub state: &'a [f32],
    /// The action index taken.
    pub action: usize,
    /// The reward received.
    pub reward: f32,
    /// The flattened next observation.
    pub next_state: &'a [f32],
    /// Whether the transition ended the episode.
    pub terminal: bool,
}

/// A stored transition: its two observations as frame ids.
#[derive(Debug, Clone, Copy)]
struct Slot {
    state: u32,
    next_state: u32,
    action: usize,
    reward: f32,
    terminal: bool,
}

/// A bounded experience-replay buffer with uniform sampling.
///
/// The drone policy of the paper is trained with Double DQN *with experience
/// replay*; the Grid World NN policy uses the same machinery at a smaller
/// scale.
///
/// Every distinct observation (compared bitwise) is stored once, however
/// many transitions refer to it: a transition's next state is the following
/// transition's state, and a Grid World run only ever sees as many one-hot
/// observations as the grid has cells. All observations of one buffer must
/// share one length.
///
/// # Examples
///
/// ```
/// use navft_rl::{ReplayBuffer, Transition};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut buffer = ReplayBuffer::new(2);
/// for i in 0..3 {
///     buffer.push(Transition {
///         state: &[i as f32],
///         action: 0,
///         reward: 0.0,
///         next_state: &[i as f32 + 1.0],
///         terminal: false,
///     });
/// }
/// assert_eq!(buffer.len(), 2); // the oldest transition was evicted
/// assert_eq!(buffer.frame_count(), 3); // observations 1, 2 and 3, once each
/// let mut rng = SmallRng::seed_from_u64(0);
/// assert_eq!(buffer.sample(5, &mut rng).len(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReplayBuffer {
    capacity: usize,
    slots: Vec<Slot>,
    next: usize,
    frames: FrameStore,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ReplayBuffer {
        assert!(capacity > 0, "replay capacity must be non-zero");
        ReplayBuffer {
            capacity,
            slots: Vec::with_capacity(capacity.min(1024)),
            next: 0,
            frames: FrameStore::default(),
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The maximum number of transitions retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct observations currently stored.
    pub fn frame_count(&self) -> usize {
        self.frames.live
    }

    /// Inserts a transition, evicting the oldest one once full.
    ///
    /// # Panics
    ///
    /// Panics if an observation's length differs from the buffer's earlier
    /// observations.
    pub fn push(&mut self, transition: Transition<'_>) {
        let slot = Slot {
            state: self.frames.acquire(transition.state),
            next_state: self.frames.acquire(transition.next_state),
            action: transition.action,
            reward: transition.reward,
            terminal: transition.terminal,
        };
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            let evicted = std::mem::replace(&mut self.slots[self.next], slot);
            self.frames.release(evicted.state);
            self.frames.release(evicted.next_state);
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// The stored transition at `index` (`0..len()`), read in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> Transition<'_> {
        let slot = self.slots[index];
        Transition {
            state: self.frames.frame(slot.state),
            action: slot.action,
            reward: slot.reward,
            next_state: self.frames.frame(slot.next_state),
            terminal: slot.terminal,
        }
    }

    /// Draws `count` indices uniformly with replacement into `indices`
    /// (cleared first), one RNG draw per index; read them with
    /// [`ReplayBuffer::get`]. Leaves `indices` empty if the buffer is empty.
    pub fn sample_indices<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        indices: &mut Vec<usize>,
    ) {
        indices.clear();
        if !self.slots.is_empty() {
            indices.extend((0..count).map(|_| rng.gen_range(0..self.slots.len())));
        }
    }

    /// Samples `count` transitions uniformly with replacement — the same RNG
    /// draws as [`ReplayBuffer::sample_indices`].
    ///
    /// Returns an empty vector if the buffer is empty.
    pub fn sample<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Transition<'_>> {
        let mut indices = Vec::with_capacity(count);
        self.sample_indices(count, rng, &mut indices);
        indices.into_iter().map(|i| self.get(i)).collect()
    }

    /// Removes every stored transition.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
        self.frames = FrameStore::default();
    }
}

/// Marks a free bucket of [`FrameStore::index`].
const EMPTY: u32 = u32::MAX;

/// Reference-counted observation storage: each distinct observation lives
/// once in a flat arena, found again through an FNV hash of its bits and a
/// bitwise comparison, and freed when its last transition is evicted.
#[derive(Debug, Clone, Default)]
struct FrameStore {
    /// The observation length every frame shares (set by the first frame).
    len: Option<usize>,
    /// Frame `f` occupies `data[f · len..(f + 1) · len]`.
    data: Vec<f32>,
    /// References per frame; 0 marks a free frame.
    refs: Vec<u32>,
    hashes: Vec<u64>,
    /// Free frame ids, reused before the arena grows.
    free: Vec<u32>,
    /// Open-addressing (linear probing) table of live frame ids keyed by
    /// hash; its length is a power of two at least twice the live count.
    index: Vec<u32>,
    live: usize,
}

impl FrameStore {
    fn frame(&self, id: u32) -> &[f32] {
        let len = self.len.unwrap_or(0);
        let start = id as usize * len;
        &self.data[start..start + len]
    }

    /// Returns the id of a frame holding `obs`, storing it if it is new, and
    /// takes one reference to it.
    fn acquire(&mut self, obs: &[f32]) -> u32 {
        let len = *self.len.get_or_insert(obs.len());
        assert_eq!(obs.len(), len, "replay observations must share one length");
        let hash = fnv1a(obs);
        if self.index.len() < 2 * (self.live + 1) {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut bucket = hash as usize & mask;
        loop {
            let id = self.index[bucket];
            if id == EMPTY {
                break;
            }
            if self.hashes[id as usize] == hash && bits_equal(self.frame(id), obs) {
                self.refs[id as usize] += 1;
                return id;
            }
            bucket = (bucket + 1) & mask;
        }
        let id = match self.free.pop() {
            Some(id) => {
                let start = id as usize * len;
                self.data[start..start + len].copy_from_slice(obs);
                self.refs[id as usize] = 1;
                self.hashes[id as usize] = hash;
                id
            }
            None => {
                let id = u32::try_from(self.refs.len()).expect("frame ids fit in u32");
                self.data.extend_from_slice(obs);
                self.refs.push(1);
                self.hashes.push(hash);
                id
            }
        };
        self.index[bucket] = id;
        self.live += 1;
        id
    }

    /// Drops one reference to frame `id`, freeing the frame with the last.
    fn release(&mut self, id: u32) {
        let refs = &mut self.refs[id as usize];
        *refs -= 1;
        if *refs > 0 {
            return;
        }
        // Backward-shift deletion keeps every probe chain gap-free.
        let mask = self.index.len() - 1;
        let mut hole = self.hashes[id as usize] as usize & mask;
        while self.index[hole] != id {
            hole = (hole + 1) & mask;
        }
        let mut bucket = hole;
        loop {
            bucket = (bucket + 1) & mask;
            let moved = self.index[bucket];
            if moved == EMPTY {
                break;
            }
            let home = self.hashes[moved as usize] as usize & mask;
            // `moved` may fill the hole unless its home lies cyclically in
            // `(hole, bucket]`.
            if bucket.wrapping_sub(home) & mask >= bucket.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = bucket;
            }
        }
        self.index[hole] = EMPTY;
        self.free.push(id);
        self.live -= 1;
    }

    /// Doubles the index (16 buckets at least) and re-inserts every live
    /// frame.
    fn grow_index(&mut self) {
        let buckets = (2 * self.index.len()).max(16);
        self.index.clear();
        self.index.resize(buckets, EMPTY);
        let mask = buckets - 1;
        for (id, (&refs, &hash)) in self.refs.iter().zip(&self.hashes).enumerate() {
            if refs > 0 {
                let mut bucket = hash as usize & mask;
                while self.index[bucket] != EMPTY {
                    bucket = (bucket + 1) & mask;
                }
                self.index[bucket] = id as u32;
            }
        }
    }
}

/// An FNV-1a hash of the bit patterns of `values`, one 32-bit word per
/// step, folded in four interleaved lanes (independent multiply chains)
/// that are combined at the end.
fn fnv1a(values: &[f32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let step = |hash: u64, word: u64| (hash ^ word).wrapping_mul(PRIME);
    let mut lanes = [0xcbf2_9ce4_8422_2325u64; 4];
    let chunks = values.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane = step(*lane, u64::from(v.to_bits()));
        }
    }
    let hash = lanes[1..].iter().fold(lanes[0], |hash, &lane| step(hash, lane));
    tail.iter().fold(hash, |hash, v| step(hash, u64::from(v.to_bits())))
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn push_tagged(buffer: &mut ReplayBuffer, tag: f32) {
        buffer.push(Transition {
            state: &[tag],
            action: 0,
            reward: tag,
            next_state: &[tag],
            terminal: false,
        });
    }

    #[test]
    fn push_respects_capacity_with_fifo_eviction() {
        let mut buffer = ReplayBuffer::new(3);
        for i in 0..5 {
            push_tagged(&mut buffer, i as f32);
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.capacity(), 3);
        let rewards: Vec<f32> = (0..3).map(|i| buffer.get(i).reward).collect();
        // Slots 0 and 1 were overwritten by transitions 3 and 4.
        assert_eq!(rewards, vec![3.0, 4.0, 2.0]);
        // Evicted observations are freed; the live ones read back intact.
        assert_eq!(buffer.frame_count(), 3);
        assert_eq!(buffer.get(1).state, &[4.0]);
    }

    #[test]
    fn sample_from_empty_buffer_is_empty() {
        let buffer = ReplayBuffer::new(4);
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(buffer.sample(8, &mut rng).is_empty());
        assert!(buffer.is_empty());
    }

    #[test]
    fn sample_returns_requested_count() {
        let mut buffer = ReplayBuffer::new(8);
        push_tagged(&mut buffer, 1.0);
        push_tagged(&mut buffer, 2.0);
        let mut rng = SmallRng::seed_from_u64(1);
        let batch = buffer.sample(16, &mut rng);
        assert_eq!(batch.len(), 16);
        assert!(batch.iter().all(|t| t.reward == 1.0 || t.reward == 2.0));
    }

    #[test]
    fn sample_matches_sample_indices_draw_for_draw() {
        let mut buffer = ReplayBuffer::new(8);
        for i in 0..6 {
            push_tagged(&mut buffer, i as f32);
        }
        let mut indices = Vec::new();
        buffer.sample_indices(10, &mut SmallRng::seed_from_u64(2), &mut indices);
        let sampled = buffer.sample(10, &mut SmallRng::seed_from_u64(2));
        let read: Vec<Transition<'_>> = indices.iter().map(|&i| buffer.get(i)).collect();
        assert_eq!(sampled, read);
    }

    #[test]
    fn observations_are_stored_once_and_compared_bitwise() {
        let mut buffer = ReplayBuffer::new(16);
        let (zero, negative_zero) = ([0.0f32, 1.0], [-0.0f32, 1.0]);
        for _ in 0..4 {
            buffer.push(Transition {
                state: &zero,
                action: 1,
                reward: 0.5,
                next_state: &negative_zero,
                terminal: false,
            });
        }
        // 0.0 and -0.0 compare equal as floats but are distinct observations.
        assert_eq!(buffer.frame_count(), 2);
        let stored = buffer.get(3);
        assert_eq!(stored.state[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(stored.next_state[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn churn_keeps_every_transition_readable() {
        // Many distinct observations cycling through a small buffer exercise
        // index growth, frame reuse and backward-shift deletion.
        let mut buffer = ReplayBuffer::new(7);
        let obs = |i: usize| [(i % 23) as f32, (i % 5) as f32 * 0.5];
        for i in 0..500 {
            let (state, next_state) = (obs(i), obs(i + 1));
            buffer.push(Transition {
                state: &state,
                action: i,
                reward: 0.0,
                next_state: &next_state,
                terminal: false,
            });
            for slot in 0..buffer.len() {
                let t = buffer.get(slot);
                assert_eq!(t.state, &obs(t.action));
                assert_eq!(t.next_state, &obs(t.action + 1));
            }
            assert!(buffer.frame_count() <= 2 * buffer.len());
        }
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn mixed_observation_lengths_are_rejected() {
        let mut buffer = ReplayBuffer::new(4);
        buffer.push(Transition {
            state: &[1.0],
            action: 0,
            reward: 0.0,
            next_state: &[1.0, 2.0],
            terminal: false,
        });
    }

    #[test]
    fn clear_empties_the_buffer() {
        let mut buffer = ReplayBuffer::new(4);
        push_tagged(&mut buffer, 1.0);
        buffer.clear();
        assert!(buffer.is_empty());
        assert_eq!(buffer.frame_count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_is_rejected() {
        let _ = ReplayBuffer::new(0);
    }
}
