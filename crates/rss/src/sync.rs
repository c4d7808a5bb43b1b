//! Synchronization facade: `std::sync` by default, model-checkable on demand.
//!
//! Every latch and RMW atomic in the concurrent RSS layer goes through the
//! wrappers in this module instead of `std::sync` directly. In a normal
//! process they compile down to a thin delegation to `std` (one
//! thread-local read per operation). When the calling thread is a virtual
//! thread of the [`model`] harness, each acquire / release / wait / notify
//! / atomic-RMW becomes a *yield point*: the thread announces the
//! operation to the cooperative scheduler and parks until the explorer
//! grants it the next step. That is what lets `sysr-audit --model`
//! exhaustively enumerate small-thread interleavings of the sharded
//! buffer pool, the write-back gate, and the versioned plan cache — see
//! DESIGN.md §12.
//!
//! Mode selection is a runtime thread-local, not a `cfg` flag: the same
//! release binary CI builds is the one the model checker drives, so the
//! checked code is byte-for-byte the shipped code.
//!
//! Atomic **loads and stores pass through without yielding**: the model
//! explores latch and RMW interleavings, and each facade atomic here is
//! an independent monotonic counter (or a monotonically bumped clock)
//! whose loads/stores are already order-insensitive under `Relaxed`. RMWs
//! (`fetch_add`) do yield, because lost-update bugs live there.
//!
//! `LockResult` reuses `std::sync::PoisonError`, so existing
//! `.lock().unwrap_or_else(std::sync::PoisonError::into_inner)` call
//! sites compile unchanged against the facade.

use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{LockResult, PoisonError};

pub mod model;

/// Every file whose latches ride this facade, by workspace-relative
/// label. This is the single source of truth for `sysr-audit`'s
/// `latch-ordering` file scope (the lint imports it): a file that
/// acquires guards without appearing here fails the `latch-scope` rule
/// instead of silently escaping the ordering analysis.
pub const LATCHED_FILES: &[&str] = &[
    "crates/rss/src/pagefile.rs",
    "crates/rss/src/plancache.rs",
    "crates/rss/src/sharded.rs",
    "crates/rss/src/storage.rs",
    "crates/rss/src/sync.rs",
    "crates/rss/src/sync/model.rs",
];

/// The address identity of a facade object: how the model names a latch
/// or atomic across an execution (objects are compared by location, never
/// dereferenced through this).
fn addr<T>(x: &T) -> usize {
    x as *const T as usize
}

/// A mutex that yields to the model scheduler at acquire and release
/// when the current thread is a model virtual thread.
pub struct Mutex<T> {
    raw: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex { raw: std::sync::Mutex::new(value) }
    }

    /// Acquire. Under the model this is a yield point; the scheduler
    /// grants the acquisition only while no virtual thread holds the
    /// latch, so the underlying real lock is always uncontended.
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let acquired = Location::caller();
        model::on_acquire(addr(self), acquired);
        match self.raw.lock() {
            Ok(inner) => Ok(MutexGuard { lock: self, inner: ManuallyDrop::new(inner), acquired }),
            Err(poisoned) => Err(PoisonError::new(MutexGuard {
                lock: self,
                inner: ManuallyDrop::new(poisoned.into_inner()),
                acquired,
            })),
        }
    }

    /// Exclusive access without locking: `&mut self` proves no guard can
    /// exist, so there is no yield point to model.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        self.raw.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.raw.fmt(f)
    }
}

/// Guard for [`Mutex`]. Dropping it is a model yield point (release).
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: ManuallyDrop<std::sync::MutexGuard<'a, T>>,
    /// Where the guard was produced; release trace lines reuse it, since
    /// `Location::caller()` inside `Drop` names core's drop plumbing
    /// rather than the guard's scope.
    acquired: &'static Location<'static>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // SAFETY: `inner` is taken exactly once — here, or in
        // `Condvar::wait`, which then forgets the guard (skipping this).
        unsafe { ManuallyDrop::drop(&mut self.inner) };
        // The real lock is released *before* the model learns of it, so
        // the model's holder entry (cleared at the announce) can never
        // claim a lock the OS still holds.
        model::on_release(addr(self.lock), self.acquired);
    }
}

/// A condition variable; `wait` and `notify_all` are model yield points.
pub struct Condvar {
    raw: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { raw: std::sync::Condvar::new() }
    }

    /// Atomically release the guard and park until notified. Under the
    /// model the virtual thread becomes *disabled* (it cannot be
    /// scheduled) until a `notify_all` on this condvar converts it into
    /// a pending re-acquisition of the guard's mutex.
    #[track_caller]
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let loc = Location::caller();
        let lock = guard.lock;
        // SAFETY: the guard is forgotten immediately after the take, so
        // its Drop can never observe the vacated slot.
        let inner = unsafe { ManuallyDrop::take(&mut guard.inner) };
        std::mem::forget(guard);
        if model::in_model() {
            // Drop the real guard first: the announce parks this thread,
            // and the notifier needs the real lock to make progress.
            drop(inner);
            model::on_cv_wait(addr(self), addr(lock), loc);
            // Granted: the scheduler converted us into an acquire of
            // `lock` and chose us while no model thread held it.
            match lock.raw.lock() {
                Ok(g) => Ok(MutexGuard { lock, inner: ManuallyDrop::new(g), acquired: loc }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    lock,
                    inner: ManuallyDrop::new(poisoned.into_inner()),
                    acquired: loc,
                })),
            }
        } else {
            match self.raw.wait(inner) {
                Ok(g) => Ok(MutexGuard { lock, inner: ManuallyDrop::new(g), acquired: loc }),
                Err(poisoned) => Err(PoisonError::new(MutexGuard {
                    lock,
                    inner: ManuallyDrop::new(poisoned.into_inner()),
                    acquired: loc,
                })),
            }
        }
    }

    /// Wake every waiter. Under the model each virtual thread parked on
    /// this condvar becomes a pending acquire of its mutex.
    #[track_caller]
    pub fn notify_all(&self) {
        model::on_notify(addr(self), Location::caller());
        // In model mode no virtual thread ever waits on the raw condvar
        // (they park on the scheduler instead), so this is a no-op then.
        self.raw.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.raw.fmt(f)
    }
}

macro_rules! facade_atomic {
    ($name:ident, $raw:path, $int:ty) => {
        /// Facade atomic: loads/stores pass through, RMWs yield to the
        /// model scheduler (see the module docs for why).
        pub struct $name {
            raw: $raw,
        }

        impl $name {
            pub const fn new(v: $int) -> Self {
                $name { raw: <$raw>::new(v) }
            }

            pub fn load(&self, order: Ordering) -> $int {
                self.raw.load(order)
            }

            pub fn store(&self, v: $int, order: Ordering) {
                self.raw.store(v, order)
            }

            #[track_caller]
            pub fn fetch_add(&self, v: $int, order: Ordering) -> $int {
                model::on_rmw(addr(self), Location::caller());
                self.raw.fetch_add(v, order)
            }

            pub fn get_mut(&mut self) -> &mut $int {
                self.raw.get_mut()
            }
        }

        impl Default for $name {
            fn default() -> Self {
                $name::new(0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.raw.fmt(f)
            }
        }
    };
}

facade_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
facade_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);
facade_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_delegates_to_std_outside_the_model() {
        let m = Mutex::new(1u32);
        {
            let mut g = m.lock().unwrap();
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap(), 2);
        let a = AtomicU64::new(5);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 5);
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn condvar_wait_roundtrip_outside_the_model() {
        use std::sync::Arc;
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock().unwrap();
            *g = true;
            drop(g);
            cv.notify_all();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        h.join().unwrap();
        assert!(*g);
    }

    #[test]
    fn latched_files_is_sorted_and_self_referential() {
        assert!(LATCHED_FILES.contains(&"crates/rss/src/sync.rs"));
        assert!(LATCHED_FILES.contains(&"crates/rss/src/sharded.rs"));
    }
}
