//! Thread-local scratch buffers, lent to one call at a time.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// A value borrowed from a thread-local slot for one call and handed back
/// on every return path. Calls reuse its allocations, and a fleet holds
/// one per worker thread rather than one per replica. A nested borrow of
/// the same slot finds it empty and starts from `T::default()`.
pub(crate) struct Lent<T: Default + 'static> {
    value: T,
    slot: &'static LocalKey<Cell<T>>,
}

impl<T: Default + 'static> Lent<T> {
    /// Takes the thread's value out of `slot` until the guard drops.
    pub(crate) fn take(slot: &'static LocalKey<Cell<T>>) -> Self {
        Self {
            value: slot.take(),
            slot,
        }
    }
}

impl<T: Default + 'static> Deref for Lent<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: Default + 'static> DerefMut for Lent<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T: Default + 'static> Drop for Lent<T> {
    fn drop(&mut self) {
        // During thread teardown the slot may be gone; the value then
        // just drops with the guard.
        let value = std::mem::take(&mut self.value);
        let _ = self.slot.try_with(|slot| slot.set(value));
    }
}
