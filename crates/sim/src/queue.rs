//! Deterministic timestamped event queue with explicit ordering keys.
//!
//! [`KeyedEventQueue`] is an exact calendar queue (R. Brown, "Calendar
//! queues", CACM 31(10), 1988): simulated time is cut into fixed-width
//! buckets, and a ring of [`RING_BUCKETS`] buckets covers the
//! `RING_BUCKETS << BUCKET_SHIFT` µs after the *cursor* bucket. A push
//! appends to its bucket in O(1); a pop takes the front of the sorted
//! head bucket in O(1), and each bucket is sorted once, when the cursor
//! reaches it. At fleet scale this replaces a binary heap whose every
//! pop sifted a multi-megabyte array and paid a cache miss per level.
//!
//! Every pending event lives in one slab whose freed nodes are reused;
//! the head, the ring and the overflow order slab references. Invariants,
//! with `cur` the cursor bucket and `b(k)` the bucket of key `k`
//! (`k.time >> BUCKET_SHIFT`):
//!
//! * **Head.** `head` holds `(key, node)` for exactly the pending events
//!   with `b(k) == cur`, sorted ascending by key, and is non-empty
//!   whenever the ring is. So the minimum is the head's front, or the
//!   overflow's top when head and ring are both empty (the queue is
//!   *parked*), and `peek`, `peek_key` and `has_event_before` are
//!   `&self` and O(1).
//! * **Ring.** Every event with `cur < b(k) < cur + RING_BUCKETS` is
//!   listed, unsorted, in slot `b(k) % RING_BUCKETS` as a slab index.
//!   Slot `cur` is empty (its events are the head). A 1024-bit
//!   occupancy map finds the next non-empty slot in a few word scans.
//!   A push writes into the most recently freed node, which is still in
//!   cache; loading a bucket reads its nodes through the index list
//!   rather than a pointer chain, so their cache misses overlap.
//! * **Overflow.** Every event with `b(k) >= cur + RING_BUCKETS` has
//!   its `(key, node)` in a small binary heap. When the cursor
//!   advances, overflow events that fall inside the new horizon migrate
//!   into their slots *before* the new cursor bucket is loaded, so no
//!   migrating event can land in an already-drained slot.
//! * **Parking.** When the head drains and the ring is empty, the
//!   cursor stays put instead of jumping to the overflow's minimum.
//!   Pushes near the last popped time (a batch placed now, finishing in
//!   50 ms) still land inside the window. The cursor jumps only when
//!   the overflow's minimum is popped, i.e. when simulated time reaches
//!   it. Jumping eagerly made every such push a rewind past the whole
//!   ring, sending a far bucket (say, thousands of 8 s cold starts)
//!   through the overflow heap and back again on each one.
//! * **Rewind.** A push below the cursor (the coordinator scheduling
//!   `now + d` into a shard whose earliest event is later) moves the
//!   cursor back to the new event's bucket: the old head returns, in
//!   sorted order, to its slot, and slots pushed past the shortened
//!   horizon empty into the overflow. Keeping such events in the head
//!   instead would let the head span many buckets and turn every insert
//!   into a long shift.
//! * **Memory.** The slab never holds more nodes than the peak number
//!   of pending events, and the head, ring and overflow hold 32-byte
//!   references or 4-byte indices, not events. A slot owns an index
//!   list only while it holds events; a drained list is kept for reuse
//!   unless a burst grew it past `SPARE_CAPACITY`. There are never
//!   more lists than the peak number of non-empty slots, so retained
//!   memory follows the number of pending events, not the ring width.
//!   The fixed part is 1024 empty list headers plus the occupancy map.
//!
//! Events with equal keys pop in an unspecified order, as they did
//! from the binary heap this queue replaces; every engine producer
//! stamps unique keys.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Bucket width as a power of two: `1 << 10` µs = 1.024 ms, about one
/// short GPU job.
pub const BUCKET_SHIFT: u32 = 10;

/// Ring width in buckets. The horizon, `RING_BUCKETS << BUCKET_SHIFT`
/// µs ≈ 1.05 s, covers batch-window expiries and GPU job completions;
/// cold starts, VM start-up and revocation checks are rarer and wait in
/// the overflow heap.
pub const RING_BUCKETS: usize = 1 << 10;

const RING_MASK: u64 = RING_BUCKETS as u64 - 1;
const MAP_WORDS: usize = RING_BUCKETS / 64;
/// A drained index list up to this capacity (1 KB) is kept for reuse;
/// a larger one, left by a burst, is freed. Reuse keeps the steady
/// state free of allocator calls, which matters when a shard thread
/// drains lists that the coordinator thread allocated: glibc returns
/// such frees to the allocating thread's arena, and the churn showed
/// as up to +3 MB of peak memory on spot-vision-2048.
const SPARE_CAPACITY: usize = 256;

/// The calendar bucket of `time`.
fn bucket_of(time: SimTime) -> u64 {
    time.as_micros() >> BUCKET_SHIFT
}

/// Explicit ordering key for [`KeyedEventQueue`]: chronological by
/// `time`, then lexicographic on `(major, minor)`.
///
/// A single loop owning every push could break ties with one internal
/// FIFO counter. The cluster engine instead has *several* producers
/// pushing into *several* queues between synchronization points, and
/// needs the merged pop order across all of them to equal one
/// single-counter FIFO order bit for bit. That only works if the
/// tie-break is part of the event itself: the coordinator allocates
/// `major` from the serial push counter and shards derive `minor` from
/// their phase-local counters, so any two events — regardless of which
/// queue they sit in — compare the way their insertion order would.
/// Keys `(time, ++counter, 0)` from one counter give plain
/// chronological FIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Fire time.
    pub time: SimTime,
    /// Primary tie-break at equal times (serial push counter).
    pub major: u64,
    /// Secondary tie-break (producer-local counter).
    pub minor: u64,
}

impl EventKey {
    /// The key `(time, major, minor)`.
    pub fn new(time: SimTime, major: u64, minor: u64) -> Self {
        EventKey { time, major, minor }
    }
}

/// A priority queue of [`EventKey`]-stamped events that pops in key
/// order. Ties are broken by the caller-supplied key, not an internal
/// counter — see the [`EventKey`] docs for why the cluster engine needs
/// that. Implemented as a calendar queue; see the module docs for its
/// layout and invariants.
///
/// # Example
///
/// ```
/// use protean_sim::{EventKey, KeyedEventQueue, SimTime};
/// let mut q = KeyedEventQueue::new();
/// let t = SimTime::from_secs(1.0);
/// q.push(EventKey::new(t, 1, 0), "first");
/// q.push(EventKey::new(t, 2, 0), "second");
/// assert_eq!(q.pop(), Some((EventKey::new(t, 1, 0), "first")));
/// assert_eq!(q.pop(), Some((EventKey::new(t, 2, 0), "second")));
/// ```
pub struct KeyedEventQueue<E> {
    /// Every pending event; `None` marks a free node.
    slab: Vec<Option<KeyedEntry<E>>>,
    /// Free slab nodes, most recently freed last.
    free: Vec<u32>,
    /// The cursor bucket's events, ascending by key.
    head: VecDeque<Ref>,
    /// The cursor bucket.
    cur: u64,
    /// The buckets after the cursor, within the horizon.
    ring: Ring,
    /// Events at or beyond the horizon, smallest key on top.
    overflow: BinaryHeap<Ref>,
    len: usize,
    pushed: u64,
    popped: u64,
    peak_len: usize,
}

/// A pending event as stored in the slab.
struct KeyedEntry<E> {
    key: EventKey,
    event: E,
}

/// A slab node with its key, so that ordering it never touches the
/// slab. Ordered by key, inverted so a max-heap pops the smallest.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Ref {
    key: EventKey,
    node: u32,
}

impl PartialOrd for Ref {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ref {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.key, other.node).cmp(&(self.key, self.node))
    }
}

impl<E> KeyedEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        KeyedEventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            head: VecDeque::new(),
            cur: 0,
            ring: Ring::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            pushed: 0,
            popped: 0,
            peak_len: 0,
        }
    }

    /// Schedules `event` under `key`.
    pub fn push(&mut self, key: EventKey, event: E) {
        self.pushed += 1;
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        let entry = Some(KeyedEntry { key, event });
        let node = match self.free.pop() {
            Some(node) => {
                self.slab[node as usize] = entry;
                node
            }
            None => {
                self.slab.push(entry);
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        let b = bucket_of(key.time);
        if b < self.cur {
            self.rewind(b);
        }
        if b == self.cur {
            let at = self.head.partition_point(|r| r.key < key);
            self.head.insert(at, Ref { key, node });
        } else if b - self.cur < RING_BUCKETS as u64 {
            self.ring.push(b, node);
            if self.head.is_empty() {
                self.advance();
            }
        } else {
            self.overflow.push(Ref { key, node });
        }
    }

    /// Removes and returns the event with the smallest key.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        let r = match self.head.pop_front() {
            Some(r) => r,
            None => {
                // Parked: the minimum is the overflow's. Popping it is
                // the simulation reaching its time, so the window jumps
                // there and takes in everything that now falls inside.
                let r = self.overflow.pop()?;
                self.cur = bucket_of(r.key.time);
                self.migrate();
                self.load();
                r
            }
        };
        let entry = self.slab[r.node as usize]
            .take()
            .expect("referenced node is occupied");
        self.free.push(r.node);
        self.len -= 1;
        self.popped += 1;
        if self.head.is_empty() && !self.ring.is_empty() {
            self.advance();
        }
        Some((entry.key, entry.event))
    }

    /// The pending event with the smallest key: the head's front, or
    /// the overflow's top when the queue is parked.
    fn front(&self) -> Option<Ref> {
        self.head.front().or_else(|| self.overflow.peek()).copied()
    }

    /// The smallest pending key without removing its event.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.front().map(|r| r.key)
    }

    /// The smallest pending key and a borrow of its event, without
    /// removing either. The sharded engine's run peeler uses this to
    /// decide whether the next coordinator event is dispatch-shaped (a
    /// window expiry it may admit into the run) before committing to a
    /// pop.
    pub fn peek(&self) -> Option<(EventKey, &E)> {
        self.front()
            .map(|r| (r.key, &occupied(&self.slab, r.node).event))
    }

    /// `true` if some pending event orders strictly before `bound` —
    /// the phase-participation / run-conflict test of the sharded
    /// cluster engine, which must decide in O(1) per shard whether a
    /// phase bounded at `bound` would have anything to do.
    pub fn has_event_before(&self, bound: EventKey) -> bool {
        self.peek_key().is_some_and(|k| k < bound)
    }

    /// Events pushed over the queue's lifetime.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// The largest number of pending events ever reached.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held by the queue's growable buffers (slab, free list,
    /// head, overflow, index lists and spares), occupied or not — what
    /// the memory bound is stated in.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        use std::mem::size_of;
        let ring = &self.ring;
        let lists: usize = ring
            .slots
            .iter()
            .chain(&ring.spare)
            .map(Vec::capacity)
            .sum();
        self.slab.capacity() * size_of::<Option<KeyedEntry<E>>>()
            + (self.head.capacity() + self.overflow.capacity()) * size_of::<Ref>()
            + (self.free.capacity() + lists) * size_of::<u32>()
    }

    /// Moves the cursor to the next non-empty ring bucket and loads
    /// it. Requires an empty head and a non-empty ring.
    fn advance(&mut self) {
        debug_assert!(self.head.is_empty());
        self.cur = self
            .ring
            .next_occupied(self.cur)
            .expect("ring holds events");
        self.migrate();
        self.load();
    }

    /// Moves overflow events that the window `cur .. cur + RING` now
    /// covers into their ring slots. The caller loads the cursor slot
    /// afterwards, so an overflow event of the cursor bucket is loaded
    /// with the rest, never left behind in an already-drained slot.
    fn migrate(&mut self) {
        while let Some(top) = self.overflow.peek() {
            let b = bucket_of(top.key.time);
            if b - self.cur >= RING_BUCKETS as u64 {
                break;
            }
            self.ring.push(b, top.node);
            self.overflow.pop();
        }
    }

    /// Loads the cursor bucket's slot into the (empty) head, sorted.
    fn load(&mut self) {
        let slab = &self.slab;
        self.ring.drain(self.cur, |node| {
            let key = occupied(slab, node).key;
            self.head.push_back(Ref { key, node });
        });
        self.head.make_contiguous().sort_unstable_by_key(|r| r.key);
    }

    /// Moves the window back to start at bucket `b < cur`, for a push
    /// below it. Leaves the head empty for the caller's event.
    fn rewind(&mut self, b: u64) {
        let back = self.cur - b;
        let slab = &self.slab;
        let overflow = &mut self.overflow;
        let mut spill = |node: u32| {
            let key = occupied(slab, node).key;
            overflow.push(Ref { key, node });
        };
        if back >= RING_BUCKETS as u64 {
            // The whole ring and the head lie past the new horizon.
            self.ring
                .drain_range(self.cur + 1, RING_BUCKETS as u64 - 1, &mut spill);
            self.overflow.extend(self.head.drain(..));
        } else {
            // Buckets `cur + RING - back .. cur + RING` leave the
            // horizon; their slots are those of the empty buckets
            // `b .. cur`.
            self.ring.drain_range(b, back, &mut spill);
            // The old head goes back in order, so reloading it sorts an
            // already-sorted run.
            for r in self.head.drain(..) {
                self.ring.push(self.cur, r.node);
            }
        }
        self.cur = b;
    }
}

/// The event in slab node `node`, which a reference or list names.
fn occupied<E>(slab: &[Option<KeyedEntry<E>>], node: u32) -> &KeyedEntry<E> {
    slab[node as usize]
        .as_ref()
        .expect("referenced node is occupied")
}

/// The calendar ring: slot `b % RING_BUCKETS` lists the slab nodes of
/// bucket `b`.
struct Ring {
    slots: Box<[Vec<u32>]>,
    /// One bit per slot, set iff it lists events.
    occupied: [u64; MAP_WORDS],
    /// Empty index lists kept for reuse.
    spare: Vec<Vec<u32>>,
}

impl Ring {
    fn new() -> Self {
        Ring {
            slots: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; MAP_WORDS],
            spare: Vec::new(),
        }
    }

    fn slot(b: u64) -> usize {
        (b & RING_MASK) as usize
    }

    fn is_empty(&self) -> bool {
        self.occupied.iter().all(|&w| w == 0)
    }

    /// Appends `node` to bucket `b`.
    fn push(&mut self, b: u64, node: u32) {
        let slot = Self::slot(b);
        let list = &mut self.slots[slot];
        if list.is_empty() {
            *list = self.spare.pop().unwrap_or_default();
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
        list.push(node);
    }

    /// Empties bucket `b`, handing its nodes to `sink` in push order.
    fn drain(&mut self, b: u64, mut sink: impl FnMut(u32)) {
        let slot = Self::slot(b);
        if self.slots[slot].is_empty() {
            return;
        }
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let mut list = std::mem::take(&mut self.slots[slot]);
        for &node in &list {
            sink(node);
        }
        list.clear();
        if list.capacity() <= SPARE_CAPACITY {
            self.spare.push(list);
        }
    }

    /// Empties buckets `from .. from + count` (`count` at most one
    /// ring) into `sink`, visiting only occupied slots.
    fn drain_range(&mut self, from: u64, count: u64, mut sink: impl FnMut(u32)) {
        let end = from + count;
        let mut b = from;
        while b < end {
            let slot = Self::slot(b);
            let word = self.occupied[slot / 64] >> (slot % 64);
            if word == 0 {
                b += 64 - (slot % 64) as u64;
                continue;
            }
            b += u64::from(word.trailing_zeros());
            if b >= end {
                break;
            }
            self.drain(b, &mut sink);
            b += 1;
        }
    }

    /// The first non-empty bucket after the cursor bucket `cur`, if any.
    fn next_occupied(&self, cur: u64) -> Option<u64> {
        let start = Self::slot(cur + 1);
        let slot = first_set(&self.occupied, start, RING_BUCKETS)
            .or_else(|| first_set(&self.occupied, 0, start))?;
        let ahead = (slot + RING_BUCKETS - start) % RING_BUCKETS;
        Some(cur + 1 + ahead as u64)
    }
}

/// The first set bit of `map` in `[from, to)`.
fn first_set(map: &[u64; MAP_WORDS], from: usize, to: usize) -> Option<usize> {
    let mut i = from;
    while i < to {
        let word = map[i / 64] >> (i % 64);
        if word != 0 {
            let hit = i + word.trailing_zeros() as usize;
            return (hit < to).then_some(hit);
        }
        i = (i / 64 + 1) * 64;
    }
    None
}

impl<E> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for KeyedEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyedEventQueue")
            .field("len", &self.len)
            .field("head_len", &self.head.len())
            .field("cursor_bucket", &self.cur)
            .field("overflow_len", &self.overflow.len())
            .field("pushed", &self.pushed)
            .field("popped", &self.popped)
            .field("peak_len", &self.peak_len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// Pushes `event` at `time` under the next serial key — one FIFO
    /// insertion counter, the discipline the engine's coordinator uses.
    fn push_serial<E>(q: &mut KeyedEventQueue<E>, time: SimTime, event: E) {
        let seq = q.pushed() + 1;
        q.push(EventKey::new(time, seq, 0), event);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = KeyedEventQueue::new();
        push_serial(&mut q, SimTime::from_secs(3.0), 3);
        push_serial(&mut q, SimTime::from_secs(1.0), 1);
        push_serial(&mut q, SimTime::from_secs(2.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            push_serial(&mut q, t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = KeyedEventQueue::new();
        let k = EventKey::new(SimTime::from_secs(1.0), 1, 0);
        q.push(k, ());
        assert_eq!(q.peek_key(), Some(k));
        assert_eq!(q.peek(), Some((k, &())));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((k, ())));
        assert!(q.is_empty());
    }

    #[test]
    fn keyed_queue_pops_in_key_order() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        q.push(EventKey::new(t, 2, 0), "serial-2");
        q.push(EventKey::new(t, 1, 1 << 48), "phase-1-shard");
        q.push(EventKey::new(t, 1, 0), "serial-1");
        q.push(EventKey::new(SimTime::ZERO, 9, 9), "earlier-time");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec!["earlier-time", "serial-1", "phase-1-shard", "serial-2"]
        );
        assert_eq!(q.pushed(), 4);
        assert_eq!(q.popped(), 4);
        assert_eq!(q.peak_len(), 4);
    }

    #[test]
    fn has_event_before_is_a_strict_bound() {
        let mut q = KeyedEventQueue::new();
        let t = SimTime::from_secs(1.0);
        assert!(!q.has_event_before(EventKey::new(SimTime::MAX, u64::MAX, u64::MAX)));
        q.push(EventKey::new(t, 3, 5), ());
        assert!(q.has_event_before(EventKey::new(t, 3, 6)));
        // The bound is exclusive: an event exactly at the bound does
        // not participate.
        assert!(!q.has_event_before(EventKey::new(t, 3, 5)));
        assert!(!q.has_event_before(EventKey::new(t, 0, 0)));
        assert!(q.has_event_before(EventKey::new(SimTime::from_secs(2.0), 0, 0)));
    }

    /// Bucket width in µs, for placing keys relative to bucket edges.
    const W: u64 = 1 << BUCKET_SHIFT;
    /// The ring's horizon in µs.
    const HORIZON: u64 = W * RING_BUCKETS as u64;

    /// The binary-heap queue the calendar queue replaced, kept as the
    /// reference model for the differential tests.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(EventKey, u64)>>,
        pushed: u64,
        popped: u64,
        peak_len: usize,
    }

    impl HeapQueue {
        fn push(&mut self, key: EventKey, event: u64) {
            self.pushed += 1;
            self.heap.push(Reverse((key, event)));
            self.peak_len = self.peak_len.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(EventKey, u64)> {
            let e = self.heap.pop().map(|Reverse(e)| e);
            self.popped += u64::from(e.is_some());
            e
        }

        fn peek(&self) -> Option<(EventKey, &u64)> {
            self.heap.peek().map(|Reverse((k, e))| (*k, e))
        }
    }

    /// A calendar queue and its heap reference driven in lockstep; every
    /// operation compares the two.
    #[derive(Default)]
    struct Twin {
        cal: KeyedEventQueue<u64>,
        reference: HeapQueue,
        next_id: u64,
    }

    impl Twin {
        /// Pushes an event at `micros` with a unique key (`minor` is the
        /// push's serial number; `major` is small so equal times tie).
        fn push(&mut self, micros: u64, major: u64) {
            self.next_id += 1;
            let key = EventKey::new(SimTime::from_micros(micros), major, self.next_id);
            self.cal.push(key, self.next_id);
            self.reference.push(key, self.next_id);
            self.check();
        }

        fn pop(&mut self) -> Option<(EventKey, u64)> {
            let got = self.cal.pop();
            assert_eq!(got, self.reference.pop());
            self.check();
            got
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.cal.is_empty());
        }

        /// The observable state agrees: length, counters, the head, and
        /// `has_event_before` at bounds around it.
        fn check(&self) {
            let (cal, reference) = (&self.cal, &self.reference);
            assert_eq!(cal.len(), reference.heap.len());
            assert_eq!(cal.is_empty(), reference.heap.is_empty());
            assert_eq!(cal.pushed(), reference.pushed);
            assert_eq!(cal.popped(), reference.popped);
            assert_eq!(cal.peak_len(), reference.peak_len);
            assert_eq!(cal.peek(), reference.peek());
            assert_eq!(cal.peek_key(), reference.peek().map(|(k, _)| k));
            let top = EventKey::new(SimTime::MAX, u64::MAX, u64::MAX);
            assert_eq!(cal.has_event_before(top), !reference.heap.is_empty());
            if let Some((k, _)) = reference.peek() {
                assert!(!cal.has_event_before(k));
                let after = EventKey::new(k.time, k.major, k.minor + 1);
                assert!(cal.has_event_before(after));
            }
        }

        /// Where new keys are placed from: the pending minimum, else
        /// the last popped time.
        fn anchor(&self, last_popped: u64) -> u64 {
            self.cal
                .peek_key()
                .map_or(last_popped, |k| k.time.as_micros())
        }
    }

    #[test]
    fn same_bucket_pushes_keep_key_order() {
        let mut t = Twin::default();
        // Unsorted pushes into one bucket, equal times tied by major.
        for (dt, major) in [(700, 2), (3, 1), (700, 1), (0, 9), (W - 1, 0), (3, 0)] {
            t.push(5 * W + dt, major);
        }
        // Pushes into the head bucket while it is being drained.
        t.pop();
        t.push(5 * W + 1, 0);
        t.push(5 * W + W - 1, 1);
        t.drain();
    }

    #[test]
    fn pushes_below_the_cursor_rewind_it() {
        let mut t = Twin::default();
        for b in [40, 41, 45, 300, RING_BUCKETS as u64 + 39] {
            t.push(b * W + 7, 0);
        }
        // One bucket below the cursor, then far below (the horizon now
        // ends before buckets 300 and RING + 39).
        t.push(39 * W, 0);
        t.push(2 * W + 5, 0);
        t.push(2 * W + 1, 0);
        // Deeper than the whole ring: everything moves to the overflow.
        t.push(0, 0);
        t.pop();
        t.pop();
        // Below the cursor again after it advanced, inside the old head.
        t.push(2 * W + 3, 0);
        t.drain();
    }

    #[test]
    fn keys_beyond_the_horizon_wait_in_the_overflow() {
        let mut t = Twin::default();
        t.push(10, 0);
        for k in 0..5 {
            t.push(HORIZON + k * HORIZON / 3 + 17, 0);
            t.push(HORIZON * 40 + k, 1);
        }
        t.push(HORIZON - 1, 0);
        t.drain();
    }

    #[test]
    fn overflow_refilling_the_current_bucket_drops_nothing() {
        // Several overflow events share the bucket the cursor jumps to
        // once the ring empties, and that bucket's ring slot was just
        // drained by an earlier bucket: every one must be loaded, along
        // with ring events the same migration brings into other slots.
        let mut t = Twin::default();
        let far = RING_BUCKETS as u64 + 3;
        t.push(0, 0);
        t.push(3 * W + 1, 0);
        for dt in [9, 2, 5] {
            t.push(far * W + dt, 0);
        }
        t.push((far + 1) * W, 0);
        t.push(2 * far * W, 0);
        t.pop();
        t.pop();
        // The cursor is now at `far`: a push into it must merge with the
        // migrated events.
        t.push(far * W + 4, 0);
        // And a rewind must send the migrated bucket back to its slot.
        t.push(far * W - 1, 0);
        t.drain();
        // The same with the jump target's slot still holding a nearer
        // bucket: the cursor reaches bucket RING + 2 through the ring,
        // and the migration it triggers fills slot 3 with bucket RING + 3.
        t.push(0, 0);
        t.push(3 * W, 0);
        t.push(far * W + 8, 0);
        t.push(far * W + 6, 0);
        t.pop();
        t.push((far - 1) * W, 0);
        t.drain();
    }

    #[test]
    fn an_empty_queue_refills_far_ahead_and_behind() {
        let mut t = Twin::default();
        t.push(HORIZON * 1000 + 5, 0);
        t.push(HORIZON * 1000 + 3 * W, 0);
        t.drain();
        t.push(7, 0);
        t.push(HORIZON * 5, 0);
        t.drain();
        t.push(HORIZON * 9_000_000, 0);
        t.drain();
    }

    #[test]
    fn keys_near_the_end_of_time() {
        let mut t = Twin::default();
        let end = u64::MAX;
        t.push(end, u64::MAX);
        t.push(end, 0);
        t.push(end - 1, 0);
        t.push(end - W, 0);
        t.push(end - HORIZON - 5, 0);
        t.push(end / 2, 0);
        t.pop();
        t.push(end - 2 * HORIZON, 0);
        t.drain();
    }

    #[test]
    fn retained_capacity_follows_pending_not_ring_width() {
        // A hold-model sweep: 256 pending events with an engine-sized
        // payload (a 72-byte entry, like a shard event), each pop
        // re-arming its event up to ~2 horizons ahead, across thousands
        // of buckets and hundreds of cursor rewinds.
        type Payload = [u64; 6];
        let entry = std::mem::size_of::<KeyedEntry<Payload>>();
        assert_eq!(entry, 72);
        let mut q: KeyedEventQueue<Payload> = KeyedEventQueue::new();
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |bound: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % bound
        };
        let mut serial = 0;
        for _ in 0..256 {
            serial += 1;
            let at = SimTime::from_micros(next(HORIZON));
            q.push(EventKey::new(at, serial, 0), [0; 6]);
        }
        let mut rewinds = 0;
        for i in 0..200_000 {
            let (k, _) = q.pop().expect("pending");
            let now = k.time.as_micros();
            let delay = match i % 8 {
                0 => next(2 * HORIZON),
                1 => next(W),
                _ => next(HORIZON / 16),
            };
            serial += 1;
            q.push(
                EventKey::new(SimTime::from_micros(now + delay), serial, 0),
                [0; 6],
            );
            if i % 97 == 0 {
                // A coordinator-style push just after `now`, typically
                // below the cursor.
                if q.peek_key().is_some_and(|m| m.time.as_micros() >= now + W) {
                    rewinds += 1;
                }
                serial += 1;
                q.push(
                    EventKey::new(SimTime::from_micros(now + 1), serial, 0),
                    [0; 6],
                );
                q.pop();
            }
        }
        assert!(rewinds > 100, "sweep rewound only {rewinds} times");
        assert_eq!(q.peak_len(), 257);
        let bytes = q.retained_capacity();
        assert!(
            bytes <= 4 * q.peak_len() * entry,
            "retained {bytes} B for a peak of {} pending {entry}-byte entries",
            q.peak_len()
        );
        // One event walking through every ring slot, twice round, holds
        // no buffer per slot.
        let mut wide: KeyedEventQueue<Payload> = KeyedEventQueue::new();
        wide.push(EventKey::new(SimTime::ZERO, 0, 0), [0; 6]);
        for b in 0..2 * RING_BUCKETS as u64 {
            let at = SimTime::from_micros((b + RING_BUCKETS as u64 / 2) * W);
            wide.push(EventKey::new(at, b + 1, 0), [0; 6]);
            wide.pop();
        }
        assert_eq!(wide.peak_len(), 2);
        assert!(wide.retained_capacity() <= 16 * entry);
    }

    proptest! {
        /// The calendar queue is observationally identical to the
        /// binary-heap reference over random interleavings of pushes
        /// (same bucket, below the cursor, inside and beyond the
        /// horizon, far ahead, near `SimTime::MAX`), pops and drains.
        #[test]
        fn prop_matches_binary_heap_reference(
            ops in proptest::collection::vec((0u32..12, 0u64..u64::MAX, 0u64..3), 1..400),
        ) {
            let mut t = Twin::default();
            let mut last_popped = 0;
            for (op, raw, major) in ops {
                let anchor = t.anchor(last_popped);
                let micros = match op {
                    0 | 1 => anchor.saturating_add(raw % W),
                    2 => anchor.saturating_sub(raw % (8 * W)),
                    3 => last_popped.saturating_add(raw % (4 * W)),
                    4 => anchor.saturating_add(raw % (2 * HORIZON)),
                    5 => anchor.saturating_add(HORIZON - W + raw % (2 * W)),
                    6 => anchor.saturating_add(HORIZON + raw % (64 * HORIZON)),
                    7 => u64::MAX - raw % (2 * HORIZON),
                    8 => raw % (1 << 40),
                    _ => {
                        if let Some((k, _)) = t.pop() {
                            last_popped = k.time.as_micros();
                        }
                        if op == 11 && raw % 16 == 0 {
                            t.drain();
                        }
                        continue;
                    }
                };
                t.push(micros, major);
            }
            t.drain();
        }
    }

    proptest! {
        /// Keyed pops are a total order on (time, major, minor).
        #[test]
        fn prop_keyed_total_order(keys in proptest::collection::vec((0u64..50, 0u64..8, 0u64..8), 1..200)) {
            let mut q = KeyedEventQueue::new();
            for &(t, a, b) in &keys {
                q.push(EventKey::new(SimTime::from_micros(t), a, b), ());
            }
            let mut last: Option<EventKey> = None;
            while let Some((k, ())) = q.pop() {
                if let Some(lk) = last {
                    prop_assert!(k >= lk);
                }
                last = Some(k);
            }
        }
    }

    proptest! {
        /// Events always come out in non-decreasing time order, and events
        /// at equal times come out in insertion order.
        #[test]
        fn prop_chronological_fifo(times in proptest::collection::vec(0u64..100, 1..200)) {
            let mut q = KeyedEventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                push_serial(&mut q, SimTime::from_micros(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((k, i)) = q.pop() {
                let t = k.time;
                if let Some((lt, li)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(i > li, "FIFO violated at equal times");
                    }
                }
                last = Some((t, i));
            }
        }
    }
}
