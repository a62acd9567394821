//! The native backend: primitives mapped directly onto `std::sync::atomic`.
//!
//! Every register kind is implemented with sequentially consistent atomics,
//! which is *stronger* than its contract requires (safe ⊆ atomic), so every
//! algorithm validated under the simulator runs unchanged — and fast — on
//! real threads. A sticky bit is a 2-bit *lane* of an `AtomicU64`: `Jam` is
//! one compare-exchange on the lane's word, confirming the paper's
//! observation that the primitive "can be easily implemented in hardware"
//! (Section 4). Bits allocated together through
//! [`WordMem::alloc_sticky_bits`] share a word, so a Figure 2 sticky byte
//! snapshots *all* of its bits with a single load
//! ([`WordMem::sticky_read_word`]); bits allocated individually get a word
//! of their own, so unrelated objects never contend on one compare-exchange.
//!
//! The arena has two layouts, chosen once at construction. The operations
//! and their `SeqCst` orderings are the same in both; only where registers
//! sit differs, and the allocation census counts registers, never padding.
//!
//! * **Shared** ([`NativeMem::new`], `Default`): every register is
//!   [`CachePadded`] to 128 bytes, so no two registers share a cache line.
//!   The cell pool of the bounded universal construction is written by
//!   many processors at once, and false sharing between neighbouring
//!   registers was the dominant cost at 4+ threads before padding.
//! * **Single-owner** ([`NativeMem::single_owner`]): registers are packed
//!   back to back. An arena that one thread alone touches — a service
//!   shard, owned by one worker — has no false sharing to prevent. Packed,
//!   an `n = 1` service key costs ~6 KB instead of ~43 KB.

use crate::{
    AtomicId, CachePadded, DataId, DataMem, JamOutcome, Pid, SafeId, StickyBitId, StickyWordId,
    TasId, Tri, Word, WordMem, STICKY_WORD_UNDEF,
};
use parking_lot::RwLock;
use std::ops::Index;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// 2-bit lane encodings of `{⊥, 0, 1}`.
const LANE_UNDEF: u64 = 0;
const LANE_ZERO: u64 = 1;
const LANE_ONE: u64 = 2;
const LANE_MASK: u64 = 0b11;
/// Lanes per `AtomicU64` word.
const LANES_PER_WORD: usize = 32;

#[inline]
fn lane_encode(bit: bool) -> u64 {
    if bit {
        LANE_ONE
    } else {
        LANE_ZERO
    }
}

#[inline]
fn lane_decode(raw: u64) -> Tri {
    match raw {
        LANE_UNDEF => Tri::Undef,
        LANE_ZERO => Tri::Zero,
        _ => Tri::One,
    }
}

/// Where a sticky bit lives: which packed word, and which 2-bit lane of it.
#[derive(Debug, Clone, Copy)]
struct LaneRef {
    word: u32,
    lane: u8,
}

impl LaneRef {
    #[inline]
    fn shift(self) -> u32 {
        u32::from(self.lane) * 2
    }
}

/// Shared memory backed by real atomics.
///
/// `P` is the payload type of data cells; use `()` when only word-level
/// registers are needed.
///
/// ```
/// use sbu_mem::{native::NativeMem, WordMem, JamOutcome, Pid, Tri};
///
/// let mut mem: NativeMem<()> = NativeMem::new();
/// let s = mem.alloc_sticky_bit();
/// assert_eq!(mem.sticky_jam(Pid(0), s, true), JamOutcome::Success);
/// assert_eq!(mem.sticky_jam(Pid(1), s, false), JamOutcome::Fail);
/// assert_eq!(mem.sticky_read(Pid(1), s), Tri::One);
/// ```
#[derive(Debug)]
pub struct NativeMem<P> {
    safes: Slots<AtomicU64>,
    atomics: Slots<AtomicU64>,
    /// Packed 2-bit sticky lanes; see [`LaneRef`].
    sticky_lanes: Slots<AtomicU64>,
    /// `StickyBitId` → lane location.
    sticky_map: Vec<LaneRef>,
    sticky_words: Slots<AtomicU64>,
    tas_bits: Slots<AtomicBool>,
    data: Slots<RwLock<Option<P>>>,
    clock: CachePadded<AtomicU64>,
    obs: MemObs,
}

/// The registers of one kind, in the layout their arena was built with.
#[derive(Debug)]
enum Slots<T> {
    /// One register per [`CachePadded`] line, for arenas several threads
    /// write.
    Padded(Vec<CachePadded<T>>),
    /// Registers back to back, for an arena one thread owns.
    Packed(Vec<T>),
}

impl<T> Slots<T> {
    fn new(padded: bool) -> Self {
        if padded {
            Slots::Padded(Vec::new())
        } else {
            Slots::Packed(Vec::new())
        }
    }

    /// Append a register holding `value`; returns its index.
    fn push(&mut self, value: T) -> usize {
        match self {
            Slots::Padded(v) => v.push(CachePadded::new(value)),
            Slots::Packed(v) => v.push(value),
        }
        self.len() - 1
    }

    /// Registers allocated.
    fn len(&self) -> usize {
        match self {
            Slots::Padded(v) => v.len(),
            Slots::Packed(v) => v.len(),
        }
    }
}

impl<T> Index<usize> for Slots<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self {
            Slots::Padded(v) => &v[i],
            Slots::Packed(v) => &v[i],
        }
    }
}

/// The native backend's instruments (DESIGN.md §11). Detached — and
/// therefore free — until [`NativeMem::attach_obs`] registers them.
#[derive(Debug, Clone, Default)]
pub struct MemObs {
    /// `mem.cas_retry` — failed lane compare-exchanges inside
    /// [`WordMem::sticky_jam`]: a sibling lane of the same packed word (or
    /// a racing jam on this lane) moved the word under us.
    pub cas_retry: sbu_obs::Counter,
}

impl MemObs {
    /// Register the backend's instruments in `registry`.
    pub fn register(registry: &sbu_obs::Registry) -> Self {
        MemObs {
            cas_retry: registry.counter("mem.cas_retry"),
        }
    }
}

impl<P> Default for NativeMem<P> {
    /// The shared layout, as [`NativeMem::new`].
    fn default() -> Self {
        Self::new()
    }
}

impl<P> NativeMem<P> {
    /// An empty backend for several threads at once: each register is
    /// [`CachePadded`], so threads writing neighbouring registers never
    /// falsely share a cache line.
    pub fn new() -> Self {
        Self::with_layout(true)
    }

    /// An empty backend for one thread: registers are packed back to back,
    /// with no padding. Other threads may still use it — every operation is
    /// the same `SeqCst` atomic as in [`NativeMem::new`] — but registers
    /// that different threads write may then share a cache line.
    pub fn single_owner() -> Self {
        Self::with_layout(false)
    }

    fn with_layout(padded: bool) -> Self {
        Self {
            safes: Slots::new(padded),
            atomics: Slots::new(padded),
            sticky_lanes: Slots::new(padded),
            sticky_map: Vec::new(),
            sticky_words: Slots::new(padded),
            tas_bits: Slots::new(padded),
            data: Slots::new(padded),
            clock: CachePadded::new(AtomicU64::new(0)),
            obs: MemObs::default(),
        }
    }

    /// Attach this backend's instruments to `registry` (setup-time only;
    /// see [`MemObs`] for what is recorded). With the `obs` cargo feature
    /// off this is a no-op.
    pub fn attach_obs(&mut self, registry: &sbu_obs::Registry) {
        self.obs = MemObs::register(registry);
    }

    /// Total number of allocated registers of all kinds (for footprint
    /// accounting in experiments).
    pub fn allocation_census(&self) -> AllocationCensus {
        AllocationCensus {
            safe_words: self.safes.len(),
            atomic_words: self.atomics.len(),
            sticky_bits: self.sticky_map.len(),
            sticky_words: self.sticky_words.len(),
            tas_bits: self.tas_bits.len(),
            data_cells: self.data.len(),
        }
    }

    /// Register a sticky bit on a fresh lane of `word`.
    fn push_lane(&mut self, word: usize, lane: usize) -> StickyBitId {
        self.sticky_map.push(LaneRef {
            word: word as u32,
            lane: lane as u8,
        });
        StickyBitId(self.sticky_map.len() - 1)
    }

    #[inline]
    fn lane_of(&self, s: StickyBitId) -> (LaneRef, &AtomicU64) {
        let r = self.sticky_map[s.0];
        (r, &self.sticky_lanes[r.word as usize])
    }
}

/// Counts of allocated primitives, for Theorem 6.6 space accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocationCensus {
    /// Safe word registers.
    pub safe_words: usize,
    /// Atomic word registers.
    pub atomic_words: usize,
    /// Sticky bits.
    pub sticky_bits: usize,
    /// Primitive sticky words.
    pub sticky_words: usize,
    /// Test-and-set bits.
    pub tas_bits: usize,
    /// Data cells.
    pub data_cells: usize,
}

impl AllocationCensus {
    /// Sticky-bit cost with sticky words charged at `word_bits` bits each,
    /// matching the paper's accounting where every multi-bit sticky field is
    /// ⌈log₂⌉ sticky bits (Figure 2 construction).
    pub fn sticky_bit_equivalent(&self, word_bits: usize) -> usize {
        self.sticky_bits + self.sticky_words * word_bits
    }
}

impl<P: Send + Sync> WordMem for NativeMem<P> {
    fn alloc_safe(&mut self, init: Word) -> SafeId {
        SafeId(self.safes.push(AtomicU64::new(init)))
    }

    fn alloc_atomic(&mut self, init: Word) -> AtomicId {
        AtomicId(self.atomics.push(AtomicU64::new(init)))
    }

    fn alloc_sticky_bit(&mut self) -> StickyBitId {
        // A solo bit gets a word of its own: unrelated sticky bits must
        // never contend on one CAS word.
        let word = self.sticky_lanes.push(AtomicU64::default());
        self.push_lane(word, 0)
    }

    fn alloc_sticky_bits(&mut self, count: usize) -> Vec<StickyBitId> {
        // One logical object: pack up to 32 lanes per word so the whole
        // group snapshots with a single load (`sticky_read_word`).
        let mut ids = Vec::with_capacity(count);
        for chunk in 0..count.div_ceil(LANES_PER_WORD) {
            let word = self.sticky_lanes.push(AtomicU64::default());
            let lanes = (count - chunk * LANES_PER_WORD).min(LANES_PER_WORD);
            for lane in 0..lanes {
                ids.push(self.push_lane(word, lane));
            }
        }
        ids
    }

    fn alloc_sticky_word(&mut self) -> StickyWordId {
        StickyWordId(self.sticky_words.push(AtomicU64::new(STICKY_WORD_UNDEF)))
    }

    fn alloc_tas(&mut self) -> TasId {
        TasId(self.tas_bits.push(AtomicBool::default()))
    }

    #[inline]
    fn safe_read(&self, _pid: Pid, r: SafeId) -> Word {
        self.safes[r.0].load(Ordering::SeqCst)
    }

    #[inline]
    fn safe_write(&self, _pid: Pid, r: SafeId, v: Word) {
        self.safes[r.0].store(v, Ordering::SeqCst);
    }

    #[inline]
    fn atomic_read(&self, _pid: Pid, r: AtomicId) -> Word {
        self.atomics[r.0].load(Ordering::SeqCst)
    }

    #[inline]
    fn atomic_write(&self, _pid: Pid, r: AtomicId, v: Word) {
        self.atomics[r.0].store(v, Ordering::SeqCst);
    }

    fn rmw(&self, _pid: Pid, r: AtomicId, f: &dyn Fn(Word) -> Word) -> Word {
        self.atomics[r.0]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |x| Some(f(x)))
            .expect("fetch_update closure never returns None")
    }

    #[inline]
    fn sticky_jam(&self, pid: Pid, s: StickyBitId, v: bool) -> JamOutcome {
        let (lane, word) = self.lane_of(s);
        let enc = lane_encode(v);
        let shift = lane.shift();
        let mut cur = word.load(Ordering::SeqCst);
        loop {
            match (cur >> shift) & LANE_MASK {
                LANE_UNDEF => {
                    match word.compare_exchange(
                        cur,
                        cur | enc << shift,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    ) {
                        Ok(_) => return JamOutcome::Success,
                        // The word moved — maybe our lane, maybe a sibling
                        // lane of the same packed group; re-inspect.
                        Err(now) => {
                            self.obs.cas_retry.incr(pid.0);
                            cur = now;
                        }
                    }
                }
                decided if decided == enc => return JamOutcome::Success,
                _ => return JamOutcome::Fail,
            }
        }
    }

    #[inline]
    fn sticky_read(&self, _pid: Pid, s: StickyBitId) -> Tri {
        let (lane, word) = self.lane_of(s);
        lane_decode(word.load(Ordering::SeqCst) >> lane.shift() & LANE_MASK)
    }

    fn sticky_flush(&self, _pid: Pid, s: StickyBitId) {
        // Atomic lane-clear: Definition 4.1 only requires quiescence on
        // *this* bit, and sibling lanes of a packed group may be live.
        let (lane, word) = self.lane_of(s);
        word.fetch_and(!(LANE_MASK << lane.shift()), Ordering::SeqCst);
    }

    #[inline]
    fn sticky_read_word(&self, _pid: Pid, bits: &[StickyBitId]) -> Option<Word> {
        // One load per distinct packed word — a whole Figure 2 sticky byte
        // (≤ 32 bits) in a single atomic snapshot.
        let mut value: Word = 0;
        let mut cached: Option<(u32, u64)> = None;
        for (j, &s) in bits.iter().enumerate() {
            let lane = self.sticky_map[s.0];
            let snapshot = match cached {
                Some((w, v)) if w == lane.word => v,
                _ => {
                    let v = self.sticky_lanes[lane.word as usize].load(Ordering::SeqCst);
                    cached = Some((lane.word, v));
                    v
                }
            };
            match snapshot >> lane.shift() & LANE_MASK {
                LANE_UNDEF => return None,
                LANE_ONE => value |= 1u64 << j,
                _ => {}
            }
        }
        Some(value)
    }

    #[inline]
    fn sticky_word_jam(&self, _pid: Pid, s: StickyWordId, v: Word) -> JamOutcome {
        assert!(
            v != STICKY_WORD_UNDEF,
            "sticky word payloads must be < STICKY_WORD_UNDEF"
        );
        match self.sticky_words[s.0].compare_exchange(
            STICKY_WORD_UNDEF,
            v,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => JamOutcome::Success,
            Err(current) if current == v => JamOutcome::Success,
            Err(_) => JamOutcome::Fail,
        }
    }

    #[inline]
    fn sticky_word_read(&self, _pid: Pid, s: StickyWordId) -> Option<Word> {
        match self.sticky_words[s.0].load(Ordering::SeqCst) {
            STICKY_WORD_UNDEF => None,
            v => Some(v),
        }
    }

    fn sticky_word_flush(&self, _pid: Pid, s: StickyWordId) {
        self.sticky_words[s.0].store(STICKY_WORD_UNDEF, Ordering::SeqCst);
    }

    #[inline]
    fn tas_test_and_set(&self, _pid: Pid, t: TasId) -> bool {
        self.tas_bits[t.0].swap(true, Ordering::SeqCst)
    }

    #[inline]
    fn tas_read(&self, _pid: Pid, t: TasId) -> bool {
        self.tas_bits[t.0].load(Ordering::SeqCst)
    }

    fn tas_reset(&self, _pid: Pid, t: TasId) {
        self.tas_bits[t.0].store(false, Ordering::SeqCst);
    }

    #[inline]
    fn op_invoke(&self, _pid: Pid) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    #[inline]
    fn op_return(&self, _pid: Pid) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }
}

impl<P: Clone + Send + Sync> DataMem<P> for NativeMem<P> {
    fn alloc_data(&mut self, init: Option<P>) -> DataId {
        DataId(self.data.push(RwLock::new(init)))
    }

    #[inline]
    fn data_read(&self, _pid: Pid, d: DataId) -> Option<P> {
        self.data[d.0].read().clone()
    }

    #[inline]
    fn data_write(&self, _pid: Pid, d: DataId, v: P) {
        *self.data[d.0].write() = Some(v);
    }

    fn data_clear(&self, _pid: Pid, d: DataId) {
        *self.data[d.0].write() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn safe_and_atomic_registers_roundtrip() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let s = mem.alloc_safe(7);
        let a = mem.alloc_atomic(9);
        assert_eq!(mem.safe_read(Pid(0), s), 7);
        mem.safe_write(Pid(0), s, 8);
        assert_eq!(mem.safe_read(Pid(1), s), 8);
        assert_eq!(mem.atomic_read(Pid(0), a), 9);
        mem.atomic_write(Pid(0), a, 10);
        assert_eq!(mem.atomic_read(Pid(1), a), 10);
    }

    #[test]
    fn sticky_bit_definition_4_1() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let s = mem.alloc_sticky_bit();
        assert_eq!(mem.sticky_read(Pid(0), s), Tri::Undef);
        assert_eq!(mem.sticky_jam(Pid(0), s, false), JamOutcome::Success);
        // Agreeing jam succeeds; disagreeing jam fails.
        assert_eq!(mem.sticky_jam(Pid(1), s, false), JamOutcome::Success);
        assert_eq!(mem.sticky_jam(Pid(2), s, true), JamOutcome::Fail);
        assert_eq!(mem.sticky_read(Pid(2), s), Tri::Zero);
        mem.sticky_flush(Pid(0), s);
        assert_eq!(mem.sticky_read(Pid(0), s), Tri::Undef);
        assert_eq!(mem.sticky_jam(Pid(2), s, true), JamOutcome::Success);
    }

    #[test]
    fn grouped_bits_share_a_word_but_keep_bit_semantics() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let words_before = mem.sticky_lanes.len();
        let group = mem.alloc_sticky_bits(16);
        assert_eq!(group.len(), 16);
        assert_eq!(mem.sticky_lanes.len(), words_before + 1, "one packed word");
        // Independent per-lane semantics inside the shared word.
        assert!(mem.sticky_jam(Pid(0), group[3], true).is_success());
        assert!(mem.sticky_jam(Pid(1), group[7], false).is_success());
        assert!(!mem.sticky_jam(Pid(2), group[3], false).is_success());
        assert_eq!(mem.sticky_read(Pid(0), group[3]), Tri::One);
        assert_eq!(mem.sticky_read(Pid(0), group[7]), Tri::Zero);
        assert_eq!(mem.sticky_read(Pid(0), group[0]), Tri::Undef);
        // Flushing one lane leaves its siblings alone.
        mem.sticky_flush(Pid(0), group[3]);
        assert_eq!(mem.sticky_read(Pid(0), group[3]), Tri::Undef);
        assert_eq!(mem.sticky_read(Pid(0), group[7]), Tri::Zero);
    }

    #[test]
    fn grouped_alloc_spills_into_multiple_words_past_32() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let words_before = mem.sticky_lanes.len();
        let group = mem.alloc_sticky_bits(40);
        assert_eq!(group.len(), 40);
        assert_eq!(mem.sticky_lanes.len(), words_before + 2);
        for (j, &s) in group.iter().enumerate() {
            assert!(mem.sticky_jam(Pid(0), s, j % 2 == 0).is_success());
        }
        let v = mem.sticky_read_word(Pid(0), &group).unwrap();
        // Even positions 1, odd positions 0: 0b...0101.
        assert_eq!(v & 0b1111, 0b0101);
    }

    #[test]
    fn sticky_read_word_snapshots_a_group_and_sees_undef() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let group = mem.alloc_sticky_bits(8);
        assert_eq!(mem.sticky_read_word(Pid(0), &group), None);
        for (j, &s) in group.iter().enumerate() {
            assert!(mem.sticky_jam(Pid(0), s, 0xA5 >> j & 1 == 1).is_success());
        }
        assert_eq!(mem.sticky_read_word(Pid(1), &group), Some(0xA5));
        // Also works across independently allocated bits.
        let solo = vec![mem.alloc_sticky_bit(), mem.alloc_sticky_bit()];
        mem.sticky_jam(Pid(0), solo[0], true);
        assert_eq!(mem.sticky_read_word(Pid(0), &solo), None);
        mem.sticky_jam(Pid(0), solo[1], true);
        assert_eq!(mem.sticky_read_word(Pid(0), &solo), Some(0b11));
    }

    #[test]
    fn sticky_word_semantics() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let s = mem.alloc_sticky_word();
        assert_eq!(mem.sticky_word_read(Pid(0), s), None);
        assert_eq!(mem.sticky_word_jam(Pid(0), s, 42), JamOutcome::Success);
        assert_eq!(mem.sticky_word_jam(Pid(1), s, 42), JamOutcome::Success);
        assert_eq!(mem.sticky_word_jam(Pid(1), s, 43), JamOutcome::Fail);
        assert_eq!(mem.sticky_word_read(Pid(1), s), Some(42));
        mem.sticky_word_flush(Pid(0), s);
        assert_eq!(mem.sticky_word_read(Pid(0), s), None);
    }

    #[test]
    #[should_panic(expected = "sticky word payloads")]
    fn sticky_word_rejects_sentinel() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let s = mem.alloc_sticky_word();
        mem.sticky_word_jam(Pid(0), s, STICKY_WORD_UNDEF);
    }

    #[test]
    fn tas_returns_old_value() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let t = mem.alloc_tas();
        assert!(!mem.tas_test_and_set(Pid(0), t));
        assert!(mem.tas_test_and_set(Pid(1), t));
        assert!(mem.tas_read(Pid(1), t));
        mem.tas_reset(Pid(0), t);
        assert!(!mem.tas_read(Pid(0), t));
    }

    #[test]
    fn rmw_applies_function_atomically_and_returns_old() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let a = mem.alloc_atomic(5);
        let old = mem.rmw(Pid(0), a, &|x| x * 2);
        assert_eq!(old, 5);
        assert_eq!(mem.atomic_read(Pid(0), a), 10);
    }

    #[test]
    fn data_cells_hold_payloads() {
        let mut mem: NativeMem<String> = NativeMem::new();
        let d = mem.alloc_data(None);
        assert_eq!(mem.data_read(Pid(0), d), None);
        mem.data_write(Pid(0), d, "state".to_string());
        assert_eq!(mem.data_read(Pid(1), d), Some("state".to_string()));
        mem.data_clear(Pid(0), d);
        assert_eq!(mem.data_read(Pid(0), d), None);
        let d2 = mem.alloc_data(Some("init".to_string()));
        assert_eq!(mem.data_read(Pid(0), d2), Some("init".to_string()));
    }

    #[test]
    fn clock_is_strictly_monotone() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let _ = &mut mem;
        let t0 = mem.op_invoke(Pid(0));
        let t1 = mem.op_return(Pid(0));
        let t2 = mem.op_invoke(Pid(1));
        assert!(t0 < t1 && t1 < t2);
    }

    #[test]
    fn census_counts_every_kind() {
        // The census counts registers, never padding, in either layout.
        for layout in [NativeMem::<u32>::new, NativeMem::single_owner] {
            let mut mem = layout();
            mem.alloc_safe(0);
            mem.alloc_safe(0);
            mem.alloc_atomic(0);
            mem.alloc_sticky_bit();
            mem.alloc_sticky_word();
            mem.alloc_tas();
            mem.alloc_data(None);
            let census = mem.allocation_census();
            assert_eq!(census.safe_words, 2);
            assert_eq!(census.atomic_words, 1);
            assert_eq!(census.sticky_bits, 1);
            assert_eq!(census.sticky_words, 1);
            assert_eq!(census.tas_bits, 1);
            assert_eq!(census.data_cells, 1);
            assert_eq!(census.sticky_bit_equivalent(16), 17);
            // Grouped allocation counts every bit.
            let mut mem = layout();
            mem.alloc_sticky_bits(20);
            assert_eq!(mem.allocation_census().sticky_bits, 20);
        }
    }

    /// Byte distance between registers `a` and `b` of one kind.
    fn gap<T>(slots: &Slots<T>, a: usize, b: usize) -> usize {
        let addr = |i: usize| &slots[i] as *const T as usize;
        addr(a).abs_diff(addr(b))
    }

    /// Allocate two registers of each kind back to back; for each kind,
    /// the bytes between the pair's addresses and the size of one register.
    fn back_to_back_gaps(mem: &mut NativeMem<u32>) -> [(&'static str, usize, usize); 6] {
        use std::mem::size_of;
        let word = size_of::<AtomicU64>();
        let (a, b) = (mem.alloc_safe(0), mem.alloc_safe(0));
        let safe = gap(&mem.safes, a.0, b.0);
        let (a, b) = (mem.alloc_atomic(0), mem.alloc_atomic(0));
        let atomic = gap(&mem.atomics, a.0, b.0);
        let (a, b) = (mem.alloc_sticky_bit(), mem.alloc_sticky_bit());
        let (a, b) = (mem.sticky_map[a.0].word, mem.sticky_map[b.0].word);
        let sticky_bit = gap(&mem.sticky_lanes, a as usize, b as usize);
        let (a, b) = (mem.alloc_sticky_word(), mem.alloc_sticky_word());
        let sticky_word = gap(&mem.sticky_words, a.0, b.0);
        let (a, b) = (mem.alloc_tas(), mem.alloc_tas());
        let tas = gap(&mem.tas_bits, a.0, b.0);
        let (a, b) = (mem.alloc_data(None), mem.alloc_data(None));
        let data = gap(&mem.data, a.0, b.0);
        [
            ("safe", safe, word),
            ("atomic", atomic, word),
            ("solo sticky bit", sticky_bit, word),
            ("sticky word", sticky_word, word),
            ("tas bit", tas, size_of::<AtomicBool>()),
            ("data slot", data, size_of::<RwLock<Option<u32>>>()),
        ]
    }

    #[test]
    fn shared_arenas_pad_registers_and_single_owner_arenas_pack_them() {
        // `default()` is checked on its own: a `Default` that bypassed
        // `new()` could silently pick the packed layout.
        let shared = [("new", NativeMem::new()), ("default", NativeMem::default())];
        for (name, mut mem) in shared {
            for (kind, bytes, _) in back_to_back_gaps(&mut mem) {
                assert!(bytes >= 128, "{name}: {kind}s {bytes} B apart");
            }
        }
        let mut mem = NativeMem::single_owner();
        for (kind, bytes, size) in back_to_back_gaps(&mut mem) {
            assert_eq!(bytes, size, "single_owner: {kind}s not adjacent");
        }
    }

    #[test]
    fn concurrent_jams_agree_on_one_winner() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let s = mem.alloc_sticky_bit();
        let mem = Arc::new(mem);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let mem = Arc::clone(&mem);
                std::thread::spawn(move || {
                    let bit = i % 2 == 0;
                    let out = mem.sticky_jam(Pid(i), s, bit);
                    (bit, out)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let value = mem.sticky_read(Pid(0), s);
        let winner_bit = value.bit().expect("someone jammed");
        for (bit, out) in results {
            if out.is_success() {
                assert_eq!(bit, winner_bit, "successful jam must match final value");
            } else {
                assert_ne!(bit, winner_bit, "failed jam must disagree with final value");
            }
        }
    }

    /// A jam that loses its CAS to a sibling lane retries — and, with a
    /// live registry attached, the retry is counted on the jammer's lane.
    #[cfg(feature = "obs")]
    #[test]
    fn attached_registry_counts_cas_retries() {
        let registry = sbu_obs::Registry::new(4);
        let mut mem: NativeMem<()> = NativeMem::new();
        mem.attach_obs(&registry);
        let group = mem.alloc_sticky_bits(8);
        let mem = Arc::new(mem);
        for round in 0..50 {
            std::thread::scope(|s| {
                for (j, &bit) in group.iter().enumerate().take(4) {
                    let mem = Arc::clone(&mem);
                    s.spawn(move || {
                        mem.sticky_jam(Pid(j), bit, round % 2 == 0);
                    });
                }
            });
            for &bit in group.iter().take(4) {
                mem.sticky_flush(Pid(0), bit);
            }
        }
        // Retries are contention-dependent, so only sanity-check the
        // aggregation: whatever was counted shows up in the snapshot.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("mem.cas_retry"), mem.obs.cas_retry.total());
    }

    /// Concurrent jams to *different* lanes of one packed word must all
    /// stick: the CAS loop retries on sibling-lane interference.
    #[test]
    fn concurrent_jams_to_sibling_lanes_all_stick() {
        for _ in 0..20 {
            let mut mem: NativeMem<()> = NativeMem::new();
            let group = mem.alloc_sticky_bits(8);
            let mem = Arc::new(mem);
            std::thread::scope(|s| {
                for (j, &bit) in group.iter().enumerate() {
                    let mem = Arc::clone(&mem);
                    s.spawn(move || {
                        assert!(mem.sticky_jam(Pid(j), bit, j % 3 == 0).is_success());
                    });
                }
            });
            for (j, &bit) in group.iter().enumerate() {
                assert_eq!(mem.sticky_read(Pid(0), bit), Tri::from_bit(j % 3 == 0));
            }
        }
    }

    #[test]
    fn concurrent_tas_has_exactly_one_winner() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let t = mem.alloc_tas();
        let mem = Arc::new(mem);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let mem = Arc::clone(&mem);
                std::thread::spawn(move || !mem.tas_test_and_set(Pid(i), t))
            })
            .collect();
        let winners = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&won| won)
            .count();
        assert_eq!(winners, 1);
    }
}

#[cfg(test)]
mod concurrent_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn concurrent_sticky_word_jams_have_one_winner() {
        for _ in 0..20 {
            let mut mem: NativeMem<()> = NativeMem::new();
            let w = mem.alloc_sticky_word();
            let mem = Arc::new(mem);
            let outs: Vec<(u64, JamOutcome)> = std::thread::scope(|s| {
                (0..6)
                    .map(|i| {
                        let mem = Arc::clone(&mem);
                        s.spawn(move || (i as u64, mem.sticky_word_jam(Pid(i), w, i as u64 + 1)))
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .collect()
            });
            let winner = mem.sticky_word_read(Pid(0), w).unwrap();
            for (i, out) in outs {
                assert_eq!(out.is_success(), i + 1 == winner);
            }
        }
    }

    #[test]
    fn concurrent_rmw_is_atomic() {
        let mut mem: NativeMem<()> = NativeMem::new();
        let a = mem.alloc_atomic(0);
        let mem = Arc::new(mem);
        std::thread::scope(|s| {
            for i in 0..4 {
                let mem = Arc::clone(&mem);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        mem.rmw(Pid(i), a, &|x| x + 1);
                    }
                });
            }
        });
        assert_eq!(mem.atomic_read(Pid(0), a), 40_000);
    }
}
