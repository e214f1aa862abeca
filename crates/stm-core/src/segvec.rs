//! A lock-free, append-only segmented vector.
//!
//! [`SegVec`] provides the stable-address object store underlying
//! [`crate::heap::Heap`]: elements are pushed concurrently from many threads,
//! never move, and are readable by index without locks. Capacity grows by
//! installing geometrically larger segments, so indexing costs one
//! `leading_zeros` and two loads.
//!
//! Safety model: each slot carries a one-byte state (`EMPTY`/`READY`)
//! published with release ordering after the value is written, and checked
//! with acquire ordering on every read, so `get` is fully safe even for
//! indices that were reserved but not yet initialized by a racing `push`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize, Ordering};

/// Default first-segment size: 4096 slots.
const DEFAULT_SEG0_BITS: u32 = 12;
/// Segment-pointer table length: enough segments for any first-segment size.
const NSEG: usize = usize::BITS as usize;

const SLOT_EMPTY: u8 = 0;
const SLOT_READY: u8 = 1;

struct Slot<T> {
    state: AtomicU8,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A concurrent append-only vector with stable element addresses.
///
/// The first segment holds `2^SEG0_BITS` slots and every later one doubles
/// it. The default suits the object store; a table that usually stays tiny
/// (the transaction registry, one slot per thread) picks a smaller start so
/// its first segment stays a few cache lines.
///
/// # Examples
/// ```
/// use stm_core::segvec::SegVec;
/// let v: SegVec<u32> = SegVec::new();
/// let i = v.push(7);
/// assert_eq!(*v.get(i).unwrap(), 7);
/// ```
pub struct SegVec<T, const SEG0_BITS: u32 = DEFAULT_SEG0_BITS> {
    segments: Box<[AtomicPtr<Slot<T>>; NSEG]>,
    next: AtomicUsize,
}

// SAFETY: slots are only written once (by the pushing thread before the
// READY flag is released) and read immutably afterwards; the READY flag
// provides the necessary happens-before edge.
unsafe impl<T: Send + Sync, const B: u32> Sync for SegVec<T, B> {}
unsafe impl<T: Send, const B: u32> Send for SegVec<T, B> {}

#[inline]
fn locate(index: usize, seg0_bits: u32) -> (usize, usize, usize) {
    // Segment k (0-based) holds 2^(seg0_bits + k) slots and starts at global
    // index 2^(seg0_bits + k) - 2^seg0_bits.
    let adj = index + (1usize << seg0_bits);
    let k = (usize::BITS - 1 - adj.leading_zeros()) as usize;
    let seg = k - seg0_bits as usize;
    let offset = adj - (1usize << k);
    let cap = 1usize << k;
    (seg, offset, cap)
}

impl<T> SegVec<T> {
    /// Creates an empty vector with the default first segment. No segments
    /// are allocated until first push.
    pub fn new() -> Self {
        Self::empty()
    }
}

impl<T, const SEG0_BITS: u32> SegVec<T, SEG0_BITS> {
    /// Creates an empty vector. No segments are allocated until first push.
    pub fn empty() -> Self {
        // Can't use array literal init for non-Copy AtomicPtr at this size
        // without unstable features; build via Vec.
        let segs: Vec<AtomicPtr<Slot<T>>> =
            (0..NSEG).map(|_| AtomicPtr::new(std::ptr::null_mut())).collect();
        let boxed: Box<[AtomicPtr<Slot<T>>]> = segs.into_boxed_slice();
        let boxed: Box<[AtomicPtr<Slot<T>>; NSEG]> = boxed.try_into().ok().unwrap();
        SegVec { segments: boxed, next: AtomicUsize::new(0) }
    }

    /// Number of reserved indices. Indices below this may still be mid-push;
    /// [`SegVec::get`] reports those as `None`.
    #[inline]
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire)
    }

    /// True if nothing has been pushed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn segment(&self, seg: usize, cap: usize) -> *mut Slot<T> {
        let ptr = self.segments[seg].load(Ordering::Acquire);
        if !ptr.is_null() {
            return ptr;
        }
        // Allocate a segment of EMPTY slots and race to install it.
        let mut slots: Vec<Slot<T>> = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Slot {
                state: AtomicU8::new(SLOT_EMPTY),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            });
        }
        let raw = Box::into_raw(slots.into_boxed_slice()) as *mut Slot<T>;
        match self.segments[seg].compare_exchange(
            std::ptr::null_mut(),
            raw,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => raw,
            Err(winner) => {
                // SAFETY: `raw` came from Box::into_raw above and lost the
                // race, so no other thread can observe it.
                unsafe {
                    drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(raw, cap)));
                }
                winner
            }
        }
    }

    /// Appends a value, returning its permanent index.
    pub fn push(&self, value: T) -> usize {
        let index = self.next.fetch_add(1, Ordering::AcqRel);
        let (seg, offset, cap) = locate(index, SEG0_BITS);
        let base = self.segment(seg, cap);
        // SAFETY: offset < cap by construction of `locate`; the slot is
        // exclusively ours because fetch_add hands out unique indices.
        unsafe {
            let slot = &*base.add(offset);
            (*slot.value.get()).write(value);
            slot.state.store(SLOT_READY, Ordering::Release);
        }
        index
    }

    /// Returns the element at `index`, or `None` if the index was never
    /// reserved or its push has not completed yet.
    #[inline]
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len() {
            return None;
        }
        let (seg, offset, _cap) = locate(index, SEG0_BITS);
        let base = self.segments[seg].load(Ordering::Acquire);
        if base.is_null() {
            return None;
        }
        // SAFETY: the segment pointer is valid for `cap` slots and never
        // freed while `self` lives; READY (acquire) synchronizes with the
        // pushing thread's release store.
        unsafe {
            let slot = &*base.add(offset);
            if slot.state.load(Ordering::Acquire) != SLOT_READY {
                return None;
            }
            Some((*slot.value.get()).assume_init_ref())
        }
    }

    /// Iterates over all fully initialized elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).filter_map(move |i| self.get(i))
    }
}

impl<T, const B: u32> Default for SegVec<T, B> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T, const SEG0_BITS: u32> Drop for SegVec<T, SEG0_BITS> {
    fn drop(&mut self) {
        for (seg, slot_ptr) in self.segments.iter().enumerate() {
            let ptr = slot_ptr.load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            let cap = 1usize << (SEG0_BITS as usize + seg);
            // SAFETY: we own the segment exclusively during drop.
            unsafe {
                let slice = std::ptr::slice_from_raw_parts_mut(ptr, cap);
                for i in 0..cap {
                    let slot = &*(ptr.add(i));
                    if slot.state.load(Ordering::Acquire) == SLOT_READY {
                        std::ptr::drop_in_place((*slot.value.get()).as_mut_ptr());
                    }
                }
                drop(Box::from_raw(slice));
            }
        }
    }
}

impl<T: std::fmt::Debug, const B: u32> std::fmt::Debug for SegVec<T, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegVec").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn locate_math() {
        assert_eq!(locate(0, 12), (0, 0, 4096));
        assert_eq!(locate(4095, 12), (0, 4095, 4096));
        assert_eq!(locate(4096, 12), (1, 0, 8192));
        assert_eq!(locate(4096 + 8191, 12), (1, 8191, 8192));
        assert_eq!(locate(4096 + 8192, 12), (2, 0, 16384));
        // Start index of segment k is contiguous with end of segment k-1.
        for bits in [2, 12] {
            let mut start = 0usize;
            for k in 0..8 {
                let (seg, off, cap) = locate(start, bits);
                assert_eq!((seg, off), (k, 0));
                start += cap;
            }
        }
    }

    #[test]
    fn small_first_segment() {
        let v: SegVec<usize, 2> = SegVec::empty();
        for i in 0..100 {
            assert_eq!(v.push(i), i);
        }
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn push_get_sequential() {
        let v = SegVec::new();
        for i in 0..10_000usize {
            assert_eq!(v.push(i * 3), i);
        }
        for i in 0..10_000usize {
            assert_eq!(*v.get(i).unwrap(), i * 3);
        }
        assert_eq!(v.get(10_000), None);
        assert_eq!(v.len(), 10_000);
    }

    #[test]
    fn crosses_segment_boundaries() {
        let v = SegVec::new();
        let n = 4096 + 8192 + 100;
        for i in 0..n {
            v.push(i);
        }
        assert_eq!(*v.get(4095).unwrap(), 4095);
        assert_eq!(*v.get(4096).unwrap(), 4096);
        assert_eq!(*v.get(n - 1).unwrap(), n - 1);
    }

    #[test]
    fn concurrent_push() {
        let v = Arc::new(SegVec::new());
        let threads = 8;
        let per = 5000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let v = Arc::clone(&v);
                std::thread::spawn(move || {
                    (0..per).map(|i| v.push(t * per + i)).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), threads * per, "indices are unique");
        assert_eq!(v.len(), threads * per);
        // Every pushed value is retrievable.
        let mut seen: Vec<usize> = v.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..threads * per).collect::<Vec<_>>());
    }

    #[test]
    fn drops_contents_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let v = SegVec::new();
            for _ in 0..5000 {
                v.push(D);
            }
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 5000);
    }

    #[test]
    fn iter_skips_nothing_when_quiescent() {
        let v = SegVec::new();
        for i in 0..100 {
            v.push(i);
        }
        assert_eq!(v.iter().count(), 100);
    }
}
