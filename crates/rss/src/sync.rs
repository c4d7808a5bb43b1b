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
//!
//! # Latch order
//!
//! Every product latch is built with [`Mutex::ranked`], and debug builds
//! check the RSS latch order (DESIGN.md §11) at each acquisition: a
//! thread may take a ranked latch only while every ranked latch it holds
//! ranks lower (`latch-ordering`, which also forbids two shards at once),
//! and the backend latch only while it holds no other ranked latch, so
//! no latch spans backend I/O (`latch-discipline`). A violation panics
//! naming the acquisition's `file:line`. The held ranks are one
//! thread-local bitmask; release builds compile the check out, so the
//! shipped hot path is the plain delegation to `std`.

#![expect(
    clippy::disallowed_types,
    reason = "the facade is the one place the std latches it wraps may be named"
)]

use std::cell::Cell;
use std::fmt;
use std::mem::ManuallyDrop;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::sync::atomic::Ordering;
use std::sync::{LockResult, PoisonError};

pub mod model;

/// The address identity of a facade object: how the model names a latch
/// or atomic across an execution (objects are compared by location, never
/// dereferenced through this).
fn addr<T>(x: &T) -> usize {
    x as *const T as usize
}

/// A latch's place in the RSS acquisition order, lowest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rank {
    /// A buffer-pool shard or a plan-cache stripe. At most one is held.
    Shard,
    /// The buffer pool's write-back gate.
    Gate,
    /// The page backend: taken only with no other ranked latch held.
    Backend,
}

impl Rank {
    fn bit(self) -> u8 {
        1 << self as u8
    }
}

thread_local! {
    /// The ranks of the ranked latches this thread holds, one bit each.
    static HELD: Cell<u8> = const { Cell::new(0) };
}

/// Panic if taking a latch of `rank` at `at` would break the latch
/// order. Compiled out of release builds.
#[inline]
fn check_order(rank: Option<Rank>, at: &'static Location<'static>) {
    if !cfg!(debug_assertions) {
        return;
    }
    let Some(rank) = rank else { return };
    let held = HELD.get();
    // Every bit at or above `rank`'s: a held latch that does not rank lower.
    let not_lower = held & !(rank.bit() - 1);
    assert!(
        not_lower == 0,
        "latch-ordering: {rank:?} latch taken at {at} while holding ranks {held:#05b}"
    );
    assert!(
        rank != Rank::Backend || held == 0,
        "latch-discipline: Backend latch taken at {at} while holding ranks {held:#05b}"
    );
}

/// Record that this thread now holds (`true`) or no longer holds a latch
/// of `rank`. Compiled out of release builds.
#[inline]
fn set_held(rank: Option<Rank>, holds: bool) {
    if !cfg!(debug_assertions) {
        return;
    }
    if let Some(rank) = rank {
        let held = HELD.get();
        HELD.set(if holds { held | rank.bit() } else { held & !rank.bit() });
    }
}

/// A mutex that yields to the model scheduler at acquire and release
/// when the current thread is a model virtual thread.
pub struct Mutex<T> {
    raw: std::sync::Mutex<T>,
    rank: Option<Rank>,
}

impl<T> Mutex<T> {
    /// An unranked mutex: outside the latch order, never checked.
    pub const fn new(value: T) -> Self {
        Mutex { raw: std::sync::Mutex::new(value), rank: None }
    }

    /// A latch of `rank`, checked against the latch order on every
    /// acquisition in debug builds.
    pub const fn ranked(rank: Rank, value: T) -> Self {
        Mutex { raw: std::sync::Mutex::new(value), rank: Some(rank) }
    }

    /// Acquire. Under the model this is a yield point; the scheduler
    /// grants the acquisition only while no virtual thread holds the
    /// latch, so the underlying real lock is always uncontended.
    #[track_caller]
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let acquired = Location::caller();
        check_order(self.rank, acquired);
        model::on_acquire(addr(self), acquired);
        let result = self.raw.lock();
        set_held(self.rank, true);
        match result {
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
        set_held(self.lock.rank, false);
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
        // The latch is released for the wait and held again on return;
        // nothing is acquired in between, so the order still holds.
        set_held(lock.rank, false);
        let result = if model::in_model() {
            // Drop the real guard first: the announce parks this thread,
            // and the notifier needs the real lock to make progress.
            drop(inner);
            model::on_cv_wait(addr(self), addr(lock), loc);
            // Granted: the scheduler converted us into an acquire of
            // `lock` and chose us while no model thread held it.
            lock.raw.lock()
        } else {
            self.raw.wait(inner)
        };
        set_held(lock.rank, true);
        let wrap = |g| MutexGuard { lock, inner: ManuallyDrop::new(g), acquired: loc };
        match result {
            Ok(g) => Ok(wrap(g)),
            Err(poisoned) => Err(PoisonError::new(wrap(poisoned.into_inner()))),
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

    /// The latch-order check's teeth. Debug builds only: release builds
    /// compile the check out.
    #[cfg(debug_assertions)]
    mod order {
        use super::super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Hold `held`, then take `taken`: the second acquisition must panic
        /// with `rule`, naming this function's `taken.lock()` line.
        fn second_lock_panics(rule: &str, held: &Mutex<()>, taken: &Mutex<()>) {
            let _held = held.lock();
            let (line, result) = (line!(), catch_unwind(AssertUnwindSafe(|| drop(taken.lock()))));
            let payload = result.expect_err("the second acquisition must panic");
            let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.starts_with(rule), "wrong rule: {msg}");
            assert!(msg.contains(&format!("{}:{line}:", file!())), "no location: {msg}");
        }

        #[test]
        fn backend_then_shard_panics() {
            let (backend, shard) =
                (Mutex::ranked(Rank::Backend, ()), Mutex::ranked(Rank::Shard, ()));
            second_lock_panics("latch-ordering", &backend, &shard);
        }

        #[test]
        fn two_shards_panic() {
            let (a, b) = (Mutex::ranked(Rank::Shard, ()), Mutex::ranked(Rank::Shard, ()));
            second_lock_panics("latch-ordering", &a, &b);
        }

        #[test]
        fn two_backends_panic() {
            let (a, b) = (Mutex::ranked(Rank::Backend, ()), Mutex::ranked(Rank::Backend, ()));
            second_lock_panics("latch-ordering", &a, &b);
        }

        #[test]
        fn shard_held_across_backend_panics() {
            let (shard, backend) =
                (Mutex::ranked(Rank::Shard, ()), Mutex::ranked(Rank::Backend, ()));
            second_lock_panics("latch-discipline", &shard, &backend);
        }

        #[test]
        fn gate_then_shard_panics() {
            let (gate, shard) = (Mutex::ranked(Rank::Gate, ()), Mutex::ranked(Rank::Shard, ()));
            second_lock_panics("latch-ordering", &gate, &shard);
        }

        #[test]
        fn the_documented_order_and_every_release_pass() {
            let shard = Mutex::ranked(Rank::Shard, ());
            let gate = Mutex::ranked(Rank::Gate, ());
            let backend = Mutex::ranked(Rank::Backend, ());
            // Shard then gate, as a dirty victim is registered.
            let (s, g) = (shard.lock(), gate.lock());
            assert_eq!(HELD.get(), Rank::Shard.bit() | Rank::Gate.bit());
            // A drop, then the backend alone, then the shard again.
            drop((g, s));
            drop(backend.lock());
            {
                let _shard = shard.lock();
            }
            // The scoped block released the shard: the backend may follow.
            drop(backend.lock());
            assert_eq!(HELD.get(), 0);
        }

        #[test]
        fn condvar_wait_on_a_ranked_gate_leaves_the_mask_empty() {
            use std::sync::Arc;
            let pair = Arc::new((Mutex::ranked(Rank::Gate, 1u32), Condvar::new()));
            let (gate, cv) = &*pair;
            // Taken before the notifier starts, so the loop must wait.
            let mut g = gate.lock().unwrap();
            let p2 = Arc::clone(&pair);
            let h = std::thread::spawn(move || {
                let (gate, cv) = &*p2;
                *gate.lock().unwrap() = 0;
                cv.notify_all();
            });
            while *g > 0 {
                g = cv.wait(g).unwrap();
                assert_eq!(HELD.get(), Rank::Gate.bit(), "the wait re-takes the gate");
            }
            drop(g);
            h.join().unwrap();
            assert_eq!(HELD.get(), 0);
        }
    }
}
