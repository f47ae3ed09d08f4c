//! The lock-free ticket ring behind the flight recorder and the export
//! queue.
//!
//! Design: `capacity` slots of `AtomicPtr` plus a ticket counter. A
//! writer takes a ticket (`fetch_add`), boxes its value, and swaps the
//! box into `slots[ticket % capacity]`; whatever pointer it displaced is
//! freed by this writer. No locks, no waiting, and — unlike a seqlock
//! over inline payloads — no torn reads are possible, because ownership
//! of each heap value transfers atomically with the pointer swap. The
//! cost is one allocation per push.
//!
//! Two writers whose tickets collide on a slot (exactly `capacity`
//! apart) may race on the swap; either order is memory-safe and at
//! worst keeps the older of the two values. [`Ring::drain`] re-sorts by
//! ticket, so bounded reordering never corrupts the order.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// A fixed-capacity ring keeping the most recent values pushed.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    slots: Box<[AtomicPtr<(u64, T)>]>,
    next_ticket: AtomicU64,
    displaced: AtomicU64,
    _owns: PhantomData<T>,
}

// SAFETY (both impls): `slots` own boxed values, which move into the
// ring on one thread and out of it (by `drain` or `Drop`) on possibly
// another; the ring never hands out a shared reference to a stored
// value, so that needs `T: Send` and nothing more (`Mutex<T>`'s
// contract). The other fields are atomics.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// A ring of `capacity` slots (min 1).
    pub(crate) fn with_capacity(capacity: usize) -> Ring<T> {
        Ring {
            slots: (0..capacity.max(1))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            next_ticket: AtomicU64::new(0),
            displaced: AtomicU64::new(0),
            _owns: PhantomData,
        }
    }

    /// Ring capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Values displaced by wrap-around so far.
    pub(crate) fn displaced(&self) -> u64 {
        self.displaced.load(Ordering::Relaxed)
    }

    /// Append one value (lock-free, never blocks). True iff it
    /// displaced an undrained value.
    pub(crate) fn push(&self, value: T) -> bool {
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let slot = (ticket % self.slots.len() as u64) as usize;
        let displaced = self
            .exchange(slot, Some(Box::new((ticket, value))))
            .is_some();
        if displaced {
            self.displaced.fetch_add(1, Ordering::Relaxed);
        }
        displaced
    }

    /// Take every buffered value with its ticket, oldest first,
    /// emptying the ring.
    pub(crate) fn drain(&self) -> Vec<(u64, T)> {
        let mut entries: Vec<(u64, T)> = (0..self.slots.len())
            .filter_map(|slot| self.exchange(slot, None))
            .collect();
        entries.sort_by_key(|&(ticket, _)| ticket);
        entries
    }

    /// Put `value` (or nothing) into slot `i` and take out what it held.
    fn exchange(&self, i: usize, value: Option<Box<(u64, T)>>) -> Option<(u64, T)> {
        let fresh = value.map_or(std::ptr::null_mut(), Box::into_raw);
        let old = self.slots[i].swap(fresh, Ordering::AcqRel);
        // SAFETY: this is the only code that writes a slot, so a
        // non-null `old` came from `Box::into_raw` above, and the swap
        // took it out of the ring: this call is its only owner.
        (!old.is_null()).then(|| *unsafe { Box::from_raw(old) })
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        self.drain();
    }
}
