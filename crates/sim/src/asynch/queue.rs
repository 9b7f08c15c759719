//! The asynchronous plane's timestamp-ordered event queue.
//!
//! Events are *small and payload-free*: a delivery references its
//! [`SendOp`](crate::SendOp) in the op arena by id, so a `k`-recipient
//! broadcast schedules `k` copies of a 16-byte event rather than `k`
//! payload clones. A retirement-detector fan-out is smaller still: its
//! pids live once in the engine's notice-run table, and the queue carries
//! one [`Ev::NoticeRun`] per distinct drawn delay, so a fan-out to `k`
//! observers costs one event under `Fixed` delays, not `k`.
//!
//! There is one implementation, for every delay: a **delay-bucketed
//! calendar queue**. Events scheduled less than a ring's width ahead of the
//! drain cursor — all message traffic whenever `max_delay` fits the ring —
//! land in a ring of buckets holding at most one timestamp each, so
//! push/drain are O(1) amortized with no comparisons at all. Anything
//! further ahead (fault injections, crash-recovery revivals, and the far
//! tail of message delays wider than the ring) waits in a side heap keyed
//! by `(time, seq)` and spills into the ring once the cursor comes within
//! the ring's width of it, preserving global schedule order.
//!
//! Drains yield all events of the earliest pending timestamp, in global
//! schedule (`seq`) order — which is exactly what the engine's
//! per-timestamp batching consumes.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Time;
use crate::ids::Pid;

/// Most ring slots past the cursor's own. The ring is sized from
/// `max_delay` but never beyond this: `max_delay` is a plain public input
/// (`u64::MAX` is valid), and a delay wider than the ring only routes its
/// far traffic through the overflow heap.
pub(super) const RING_CAP: u64 = 4096;

/// The ring's width for `max_delay`: one slot per delay it can hold,
/// `0..=min(max_delay, RING_CAP)`. The engine's notice fan-out buckets its
/// draws by the same width.
pub(super) fn ring_width(max_delay: u64) -> usize {
    max_delay.min(RING_CAP) as usize + 1
}

/// One scheduled occurrence. No payload lives here — deliveries carry an
/// op-arena id, notice runs a slot of the engine's notice-run table.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Ev {
    /// Process `pid`'s initial activation signal.
    Start(Pid),
    /// One recipient's share of an in-flight send op.
    Deliver {
        /// Arena id of the op being delivered.
        op: u32,
        /// The recipient.
        to: Pid,
    },
    /// The retirement-detector reports of one fan-out that share a drawn
    /// delay: positions `start..start + len` of notice-run slot `slot`,
    /// dispatched in place as one report per position.
    NoticeRun {
        /// The notice-run table slot holding the fan-out's pids.
        slot: u32,
        /// First position of this run in the slot's pid array.
        start: u32,
        /// Number of reports in the run (at least 1).
        len: u32,
    },
    /// A self-scheduled continuation (see
    /// [`Effects::continue_later`](crate::Effects::continue_later)).
    Tick(Pid),
    /// An adversary-scheduled injection point (see
    /// [`AsyncAdversary::scheduled_events`](super::AsyncAdversary::scheduled_events)):
    /// a handler-free invocation that exists only so the adversary can act
    /// on `pid` at this time.
    Inject(Pid),
    /// A crash-recovery restart of `pid` after its scheduled downtime
    /// (see [`Fate::CrashRecover`](crate::Fate::CrashRecover)).
    Revive {
        /// The recovering process.
        pid: Pid,
        /// Whether the restart loses all protocol state.
        wipe: bool,
    },
    /// Tombstone left in a drained batch once the engine has folded the
    /// event into an earlier handler invocation of the same timestamp.
    Consumed,
}

// Every event is 16 bytes: a notice run's three `u32`s plus the tag.
const _: () = assert!(std::mem::size_of::<Ev>() == 16);

impl Ev {
    /// Per-recipient events this entry stands for: a notice run's length,
    /// 1 for everything else.
    fn recipients(self) -> usize {
        match self {
            Ev::NoticeRun { len, .. } => len as usize,
            _ => 1,
        }
    }
}

/// Overflow-heap entry ordered by `(time, seq)`; the event itself does not
/// participate in the ordering.
#[derive(Clone)]
struct Entry {
    time: Time,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Timestamp-ordered queue over [`Ev`]s; see the module docs. `Clone`
/// captures the full schedule — including `seq`, so a cloned queue
/// reproduces the original's tie-breaking order exactly (the property the
/// engine's snapshot/resume differential relies on).
#[derive(Clone)]
pub(crate) struct EventQueue {
    /// `buckets[time % buckets.len()]` holds the events of exactly one
    /// timestamp at a time: ring pushes land less than `buckets.len()`
    /// past the drain cursor and the cursor's own bucket is drained before
    /// it advances, so slots are never shared. Push order within a bucket
    /// *is* global schedule order — ascending `seq` — because `seq` only
    /// ever increases. All ring arithmetic happens on the wide clock
    /// (`time` and `cursor` are 128-bit [`Time`]s reduced mod the ring
    /// size), and the cursor advance is bounded by the ring: every ring
    /// event lies within a ring's width of the cursor, so no sparse
    /// stretch wider than that can exist here.
    buckets: Vec<Vec<Ev>>,
    cursor: Time,
    /// Events currently in the ring.
    ring_len: usize,
    /// Sum of the buckets' capacities, kept current by every push and
    /// swap so [`bytes`](EventQueue::bytes) never scans the ring.
    ring_cap: usize,
    /// Pushes a ring's width or more past the cursor, ordered by `(time,
    /// seq)`. Every drain spills the due part into the ring *before*
    /// selecting the next timestamp; since the engine only pushes new
    /// events after a drain, an overflow entry always reaches its bucket
    /// ahead of any younger-`seq` event of the same timestamp, so bucket
    /// order stays global schedule order. When the ring is empty the
    /// cursor jumps straight to the earliest overflow time.
    overflow: BinaryHeap<Reverse<Entry>>,
    /// Per-recipient events pending (ring and overflow): a notice run
    /// counts each of its reports, so this is the count the per-observer
    /// notices it replaced would have. Zero exactly when the queue is
    /// empty, since every event stands for at least one recipient.
    len: usize,
    seq: u64,
}

impl EventQueue {
    /// Creates a queue whose message traffic is scheduled at most
    /// `max_delay` past the most recently drained timestamp (plus the
    /// initial burst at time 0).
    pub(crate) fn with_horizon(max_delay: u64) -> Self {
        EventQueue {
            buckets: (0..ring_width(max_delay)).map(|_| Vec::new()).collect(),
            cursor: Time::ZERO,
            ring_len: 0,
            ring_cap: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            seq: 0,
        }
    }

    /// Number of per-recipient events pending (ring and overflow); a
    /// queued notice run counts its length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes held by the queue's buffers (bucket headers, bucket contents,
    /// overflow entries), for the engine's memory probe. Capacities, not
    /// lengths: the probe tracks high-water footprint.
    pub(crate) fn bytes(&self) -> u64 {
        (self.buckets.len() * std::mem::size_of::<Vec<Ev>>()
            + self.ring_cap * std::mem::size_of::<Ev>()
            + self.overflow.capacity() * std::mem::size_of::<Reverse<Entry>>()) as u64
    }

    /// Appends `ev` to the bucket of `time`, which must lie within the
    /// ring's width of the cursor.
    fn ring_push(&mut self, time: Time, ev: Ev) {
        let m = self.buckets.len() as u128;
        let bucket = &mut self.buckets[(time.get() % m) as usize];
        let before = bucket.capacity();
        bucket.push(ev);
        self.ring_cap += bucket.capacity() - before;
        self.ring_len += 1;
    }

    /// Moves every overflow entry now within the ring's width of the
    /// cursor into its bucket, in `(time, seq)` order.
    fn spill(&mut self) {
        let m = self.buckets.len() as u128;
        while self.overflow.peek().is_some_and(|Reverse(e)| e.time - self.cursor < m) {
            let Reverse(e) = self.overflow.pop().expect("peeked");
            self.ring_push(e.time, e.ev);
        }
    }

    /// Schedules `ev` at `time` (never earlier than the drain cursor).
    /// Pushes less than a ring's width ahead go straight to a calendar
    /// bucket; anything further waits in the overflow heap until due.
    pub(crate) fn push(&mut self, time: Time, ev: Ev) {
        debug_assert!(
            time >= self.cursor,
            "push into the past: time {time}, cursor {}",
            self.cursor
        );
        if time - self.cursor < self.buckets.len() as u128 {
            self.ring_push(time, ev);
        } else {
            self.overflow.push(Reverse(Entry { time, seq: self.seq, ev }));
        }
        self.seq += 1;
        self.len += ev.recipients();
    }

    /// Drains every event of the earliest pending timestamp into `out`
    /// (which must be empty), in schedule order, and returns that
    /// timestamp. Returns `None` when the queue is empty.
    pub(crate) fn drain_next(&mut self, out: &mut Vec<Ev>) -> Option<Time> {
        debug_assert!(out.is_empty(), "drain_next requires an empty batch buffer");
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            // Ring exhausted: jump straight to the earliest overflow time
            // (an arbitrarily long idle stretch) and spill what is due
            // there. With events in the ring there is nothing to spill
            // yet: the previous drain's post-walk spill left every
            // overflow entry a ring's width or more past the cursor, and
            // pushes since then only added entries at least that far out.
            let Reverse(e) = self.overflow.peek().expect("len > 0 with an empty ring");
            self.cursor = e.time;
            self.spill();
        }
        let slots = self.buckets.len();
        let mut slot = (self.cursor.get() % slots as u128) as usize;
        while self.buckets[slot].is_empty() {
            self.cursor += 1;
            slot = if slot + 1 == slots { 0 } else { slot + 1 };
        }
        // The walk advanced the horizon: spill so every entry now within
        // it reaches its bucket before the engine pushes younger events at
        // the same timestamps. All such entries lie strictly past the
        // drained time, so the current batch is unaffected.
        self.spill();
        // Swap the bucket out wholesale: `out` gets the events, the bucket
        // inherits `out`'s (cleared) capacity.
        let bucket = &mut self.buckets[slot];
        self.ring_cap = self.ring_cap - bucket.capacity() + out.capacity();
        std::mem::swap(bucket, out);
        self.ring_len -= out.len();
        self.len -= out.iter().map(|&ev| ev.recipients()).sum::<usize>();
        Some(self.cursor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid_of(ev: Ev) -> usize {
        match ev {
            Ev::Start(p) | Ev::Tick(p) | Ev::Inject(p) => p.index(),
            Ev::Deliver { to, .. } => to.index(),
            Ev::Revive { pid, .. } => pid.index(),
            Ev::NoticeRun { .. } | Ev::Consumed => usize::MAX,
        }
    }

    /// Pushes `schedule` as `(time, pid)` ticks up front and drains the
    /// queue dry, returning every event as `(time, pid)` in drain order.
    fn drain_all(mut q: EventQueue, schedule: &[(u64, usize)]) -> Vec<(Time, usize)> {
        for &(t, p) in schedule {
            q.push(Time::from(t), Ev::Tick(Pid::new(p)));
        }
        let mut seen = Vec::new();
        let mut batch = Vec::new();
        while let Some(t) = q.drain_next(&mut batch) {
            seen.extend(batch.drain(..).map(|ev| (t, pid_of(ev))));
        }
        seen
    }

    /// The order any correct queue must produce: the pushes sorted by
    /// `(time, seq)` — a stable sort by time, since `seq` is push order.
    fn oracle(schedule: &[(u64, usize)]) -> Vec<(Time, usize)> {
        let mut sorted: Vec<_> = schedule.iter().map(|&(t, p)| (Time::from(t), p)).collect();
        sorted.sort_by_key(|&(t, _)| t);
        sorted
    }

    /// An in-ring schedule drains in `(time, seq)` order.
    #[test]
    fn calendar_and_heap_agree_on_order() {
        let schedule: &[(u64, usize)] = &[(3, 0), (1, 1), (3, 2), (2, 3), (1, 4), (5, 5), (3, 6)];
        let cal = drain_all(EventQueue::with_horizon(8), schedule);
        assert_eq!(cal, oracle(schedule));
        // Within a timestamp, schedule order is preserved.
        assert_eq!(
            cal,
            [(1u64, 1), (1, 4), (2, 3), (3, 0), (3, 2), (3, 6), (5, 5)]
                .map(|(t, p)| (Time::from(t), p))
                .to_vec()
        );
    }

    #[test]
    fn interleaved_pushes_respect_the_rolling_horizon() {
        let mut q = EventQueue::with_horizon(2);
        q.push(Time::new(0), Ev::Start(Pid::new(0)));
        let mut batch = Vec::new();
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(0)));
        batch.clear();
        // From time 0, schedule at 1 and 2 (the full horizon).
        q.push(Time::new(1), Ev::Tick(Pid::new(1)));
        q.push(Time::new(2), Ev::Tick(Pid::new(2)));
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(1)));
        batch.clear();
        q.push(Time::new(3), Ev::Tick(Pid::new(3)));
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(2)));
        batch.clear();
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(3)));
        batch.clear();
        assert_eq!(q.drain_next(&mut batch), None);
    }

    #[test]
    fn empty_queue_drains_none() {
        let mut q = EventQueue::with_horizon(4);
        let mut batch = Vec::new();
        assert!(q.drain_next(&mut batch).is_none());
        assert!(batch.is_empty());
    }

    /// Fault events exactly at, and far past, the calendar horizon take
    /// the overflow path yet drain at the right time in the right order —
    /// the boundary the crash-recovery revival events live on.
    #[test]
    fn beyond_horizon_pushes_drain_in_schedule_order() {
        // Horizon 4 → ring of 5 buckets. From cursor 0, time 5 is the
        // first beyond-horizon slot and time 64 is far past it.
        let mut q = EventQueue::with_horizon(4);
        q.push(Time::new(64), Ev::Revive { pid: Pid::new(9), wipe: false });
        q.push(Time::new(5), Ev::Inject(Pid::new(7)));
        q.push(Time::new(0), Ev::Start(Pid::new(0)));
        q.push(Time::new(4), Ev::Tick(Pid::new(1)));
        let mut batch = Vec::new();
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(0)));
        batch.clear();
        // In-horizon tick at 4 comes first, then the spilled inject at 5.
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(4)));
        batch.clear();
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(5)));
        assert_eq!(batch.len(), 1);
        assert_eq!(pid_of(batch[0]), 7);
        batch.clear();
        // Ring now empty: the cursor jumps straight to the revival.
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(64)));
        assert_eq!(pid_of(batch[0]), 9);
        batch.clear();
        assert_eq!(q.drain_next(&mut batch), None);
    }

    /// A spilled overflow entry keeps its global schedule order relative
    /// to in-horizon pushes of the same timestamp made later.
    #[test]
    fn spilled_entries_precede_younger_pushes_of_same_time() {
        let mut q = EventQueue::with_horizon(2);
        // seq 0: inject at 4, beyond the horizon of cursor 0.
        q.push(Time::new(4), Ev::Inject(Pid::new(0)));
        q.push(Time::new(0), Ev::Start(Pid::new(1)));
        let mut batch = Vec::new();
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(0)));
        batch.clear();
        // From cursor 0..2, time 4 is still out; drain advances the
        // cursor and spills it before the same-time tick below lands.
        q.push(Time::new(2), Ev::Tick(Pid::new(2)));
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(2)));
        batch.clear();
        q.push(Time::new(4), Ev::Tick(Pid::new(3)));
        assert_eq!(q.drain_next(&mut batch), Some(Time::new(4)));
        assert_eq!(batch.iter().map(|&e| pid_of(e)).collect::<Vec<_>>(), vec![0, 3]);
        batch.clear();
    }

    /// A schedule that straddles the ring (times 70 and 130 wait in the
    /// overflow heap) drains in `(time, seq)` order.
    #[test]
    fn calendar_overflow_and_heap_agree() {
        let schedule: &[(u64, usize)] =
            &[(0, 0), (7, 1), (3, 2), (70, 3), (7, 4), (1, 5), (130, 6)];
        let cal = drain_all(EventQueue::with_horizon(8), schedule);
        assert_eq!(cal, oracle(schedule));
        assert_eq!(
            cal,
            [(0u64, 0), (1, 5), (3, 2), (7, 1), (7, 4), (70, 3), (130, 6)]
                .map(|(t, p)| (Time::from(t), p))
                .to_vec()
        );
    }

    /// Message traffic wider than the ring: 32 chains each reschedule
    /// themselves up to `RING_CAP + 50` past the advancing cursor, so the
    /// ring never empties while far draws ride the overflow heap and spill
    /// back in among younger near pushes. The drain order must still be
    /// `(time, seq)` over everything ever pushed, and the running capacity
    /// total must match a scan of the ring.
    #[test]
    fn delays_wider_than_the_ring_drain_in_schedule_order() {
        const PUSHES: usize = 4000;
        let max_delay = RING_CAP + 50;
        let mut q = EventQueue::with_horizon(max_delay);
        assert_eq!(q.buckets.len() as u64, RING_CAP + 1, "the ring stays capped");
        let mut pushed: Vec<(u64, usize)> = Vec::new();
        let push = |q: &mut EventQueue, pushed: &mut Vec<(u64, usize)>, time: u64| {
            q.push(Time::from(time), Ev::Tick(Pid::new(pushed.len())));
            pushed.push((time, pushed.len()));
        };
        for _ in 0..32 {
            push(&mut q, &mut pushed, 0);
        }
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut seen = Vec::new();
        let mut batch = Vec::new();
        let mut overflowed = 0usize;
        while let Some(now) = q.drain_next(&mut batch) {
            for ev in batch.drain(..) {
                seen.push((now, pid_of(ev)));
                if pushed.len() < PUSHES {
                    lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // Mostly near draws (a dense front of same-time
                    // collisions), one in eight across the full width.
                    let width = if (lcg >> 60) == 0 { max_delay } else { 3 };
                    push(&mut q, &mut pushed, now.get() as u64 + 1 + (lcg >> 20) % width);
                }
            }
            overflowed = overflowed.max(q.overflow.len());
            assert_eq!(q.ring_cap, q.buckets.iter().map(Vec::capacity).sum::<usize>());
        }
        assert!(overflowed > 0, "some delay must have exceeded the ring");
        assert_eq!(seen.len(), PUSHES);
        assert_eq!(seen, oracle(&pushed));
    }

    /// The memory probe counts the bucket headers — 24 B a slot, the whole
    /// footprint of an idle capped ring — plus contents by capacity.
    #[test]
    fn bytes_include_the_slot_headers() {
        let header = std::mem::size_of::<Vec<Ev>>() as u64;
        assert_eq!(EventQueue::with_horizon(4).bytes(), 5 * header);
        assert_eq!(EventQueue::with_horizon(u64::MAX).bytes(), (RING_CAP + 1) * header);
        let mut q = EventQueue::with_horizon(4);
        q.push(Time::new(3), Ev::Tick(Pid::new(0)));
        q.push(Time::new(500), Ev::Inject(Pid::new(1)));
        let contents = std::mem::size_of::<Ev>() + std::mem::size_of::<Reverse<Entry>>();
        assert!(q.bytes() >= 5 * header + contents as u64);
    }
}
