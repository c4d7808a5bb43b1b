//! The cooperative scheduler behind `sysr-audit --model`.
//!
//! [`execute`] runs N *virtual threads* (real OS threads, fully
//! serialized) under a controller that grants exactly one thread at a
//! time permission to advance to its next yield point. Yield points are
//! the facade operations in [`super`]: mutex acquire/release, condvar
//! wait/notify, atomic RMW. At each point where more than one thread
//! could run, the controller records a *decision* — the enabled set and
//! the chosen thread — so a schedule is replayable as the list of chosen
//! thread ids, and an explorer (in `sysr-audit`) can branch on the
//! recorded alternatives.
//!
//! The protocol: a virtual thread announces its operation, marks itself
//! not-running, and parks on the controller's condvar. The controller
//! waits until *every* live thread has checked in (announced, parked on
//! a model condvar, or finished), computes the enabled set, picks one
//! thread, applies the operation's bookkeeping, and grants it. Because a
//! mutex acquire is granted only while the model records no holder, the
//! *real* lock underneath is always uncontended — the OS never makes a
//! scheduling decision the model did not.
//!
//! Detected per execution: **deadlock** (live threads, empty enabled
//! set), **lock-order cycles** (a dynamic acquisition-order graph over
//! the latches actually touched; a new edge closing a cycle fails the
//! run even if this particular schedule did not deadlock), and worker
//! panics. On deadlock the controller aborts the execution: every parked
//! thread is woken into a [`ModelAbort`] unwind so its real guards drop
//! and the harness can join it.

#![expect(
    clippy::disallowed_types,
    reason = "the scheduler's own latch must not be a yield point: it is what grants them"
)]

use crate::prng::SplitMix64;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::Location;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Panic payload used to unwind virtual threads when an execution is
/// aborted (deadlock found). Never escapes [`execute`].
pub struct ModelAbort;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Start,
    Acquire(usize),
    Release(usize),
    CvWait { cv: usize, mutex: usize },
    Notify(usize),
    Rmw(usize),
}

#[derive(Clone, Copy)]
struct Pending {
    op: Op,
    loc: &'static Location<'static>,
}

/// One scheduling decision: which threads were runnable and which ran.
#[derive(Clone, Debug)]
pub struct Decision {
    pub enabled: Vec<usize>,
    pub chosen: usize,
}

/// How the scheduler picks among enabled threads past the forced prefix.
#[derive(Clone, Copy, Debug)]
pub enum Policy {
    /// Keep the previously running thread when enabled, else the lowest
    /// thread id: the canonical non-preemptive baseline DFS branches
    /// from.
    NonPreemptive,
    /// SplitMix64-seeded uniform choice among enabled threads, for
    /// sampled deep schedules beyond the DFS budget.
    Random(u64),
}

/// The outcome of one fully-serialized execution.
#[derive(Debug, Default)]
pub struct ModelRun {
    /// Chosen thread id per decision — feed back as `forced` to replay.
    pub choices: Vec<usize>,
    pub decisions: Vec<Decision>,
    /// Human-readable event log: one line per granted operation.
    pub trace: Vec<String>,
    pub deadlock: Option<String>,
    pub lock_cycle: Option<String>,
    /// Payloads of real (non-abort) worker panics.
    pub panics: Vec<String>,
}

impl ModelRun {
    /// Count of preemptive context switches: decisions that switched
    /// away from a thread that was still enabled.
    pub fn preemptions(&self) -> usize {
        preemptions_of(&self.decisions, self.decisions.len())
    }

    /// Render the replayable schedule: the forced-choice vector plus the
    /// event log, one decision per line.
    pub fn render_schedule(&self) -> String {
        let mut out = format!("schedule {:?}\n", self.choices);
        for line in &self.trace {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Preemptions within the first `upto` decisions of a recorded run.
pub fn preemptions_of(decisions: &[Decision], upto: usize) -> usize {
    let mut count = 0;
    let mut prev: Option<usize> = None;
    for d in decisions.iter().take(upto) {
        if let Some(p) = prev {
            if p != d.chosen && d.enabled.contains(&p) {
                count += 1;
            }
        }
        prev = Some(d.chosen);
    }
    count
}

struct CtrlState {
    pending: Vec<Option<Pending>>,
    granted: Vec<bool>,
    /// `Some((cv, mutex))` while a thread is disabled in a condvar wait.
    parked: Vec<Option<(usize, usize)>>,
    finished: Vec<bool>,
    running: Option<usize>,
    prev_chosen: Option<usize>,
    holders: HashMap<usize, usize>,
    held: Vec<Vec<usize>>,
    edges: BTreeSet<(usize, usize)>,
    names: BTreeMap<usize, String>,
    decisions: Vec<Decision>,
    trace: Vec<String>,
    deadlock: Option<String>,
    lock_cycle: Option<String>,
    panics: Vec<String>,
    aborting: bool,
}

impl CtrlState {
    fn new(n: usize) -> Self {
        CtrlState {
            pending: vec![None; n],
            granted: vec![false; n],
            parked: vec![None; n],
            finished: vec![false; n],
            running: None,
            prev_chosen: None,
            holders: HashMap::new(),
            held: vec![Vec::new(); n],
            edges: BTreeSet::new(),
            names: BTreeMap::new(),
            decisions: Vec::new(),
            trace: Vec::new(),
            deadlock: None,
            lock_cycle: None,
            panics: Vec::new(),
            aborting: false,
        }
    }

    fn name_of(&mut self, addr: usize, kind: char) -> String {
        if let Some(n) = self.names.get(&addr) {
            return n.clone();
        }
        let n = format!("{kind}{}", self.names.len());
        self.names.insert(addr, n.clone());
        n
    }

    /// `true` iff `from` reaches `to` in the acquisition-order graph.
    fn reaches(&self, from: usize, to: usize) -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(a) = stack.pop() {
            if a == to {
                return true;
            }
            if seen.insert(a) {
                stack.extend(self.edges.iter().filter(|(s, _)| *s == a).map(|(_, d)| *d));
            }
        }
        false
    }

    fn enabled_of(&self, tid: usize) -> bool {
        match self.pending.get(tid).and_then(|p| p.as_ref()) {
            Some(p) => match p.op {
                Op::Acquire(m) => !self.holders.contains_key(&m),
                _ => true,
            },
            None => false,
        }
    }
}

/// The shared scheduler. One per [`execute`] call; virtual threads hold
/// it through their thread-local context.
pub struct Controller {
    state: Mutex<CtrlState>,
    wake: Condvar,
    fault: Option<&'static str>,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Controller>, usize)>> = const { RefCell::new(None) };
}

fn ctx() -> Option<(Arc<Controller>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

/// Whether the current thread is a model virtual thread.
pub fn in_model() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

/// Runtime fault-injection query: `true` only when the current thread is
/// a model virtual thread *and* this execution was started with the
/// named fault. Production code paths see a single thread-local read
/// returning `false` — the mutant is compiled in but can never activate
/// outside the harness.
pub fn fault(name: &str) -> bool {
    CTX.with(|c| match &*c.borrow() {
        Some((ctrl, _)) => ctrl.fault.is_some_and(|f| f == name),
        None => false,
    })
}

pub(super) fn on_acquire(addr: usize, loc: &'static Location<'static>) {
    if let Some((ctrl, tid)) = ctx() {
        ctrl.announce(tid, Op::Acquire(addr), loc);
    }
}

pub(super) fn on_release(addr: usize, loc: &'static Location<'static>) {
    if let Some((ctrl, tid)) = ctx() {
        if std::thread::panicking() {
            // Unwinding (abort or a real worker panic): update the lock
            // table silently so other threads can be granted the latch,
            // but never park — the unwind must reach the catch point.
            ctrl.silent_release(tid, addr);
        } else {
            ctrl.announce(tid, Op::Release(addr), loc);
        }
    }
}

pub(super) fn on_cv_wait(cv: usize, mutex: usize, loc: &'static Location<'static>) {
    if let Some((ctrl, tid)) = ctx() {
        ctrl.announce(tid, Op::CvWait { cv, mutex }, loc);
    }
}

pub(super) fn on_notify(addr: usize, loc: &'static Location<'static>) {
    if let Some((ctrl, tid)) = ctx() {
        ctrl.announce(tid, Op::Notify(addr), loc);
    }
}

pub(super) fn on_rmw(addr: usize, loc: &'static Location<'static>) {
    if let Some((ctrl, tid)) = ctx() {
        ctrl.announce(tid, Op::Rmw(addr), loc);
    }
}

fn lock_state(ctrl: &Controller) -> std::sync::MutexGuard<'_, CtrlState> {
    ctrl.state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Controller {
    /// Announce an operation and park until the scheduler grants it.
    /// Release and cv-wait apply their bookkeeping *at the announce*
    /// (their real effect — dropping the OS lock — already happened).
    #[expect(
        clippy::panic,
        reason = "an aborted execution unwinds each virtual thread with ModelAbort, \
                  which the thread root catches; the real guards drop on the way"
    )]
    fn announce(&self, tid: usize, op: Op, loc: &'static Location<'static>) {
        let mut st = lock_state(self);
        if st.aborting {
            drop(st);
            std::panic::panic_any(ModelAbort);
        }
        match op {
            Op::Acquire(m) => {
                // Order edges are recorded at the *request*, not the
                // grant: a blocked AB/BA pair is exactly the cycle the
                // analysis exists to catch.
                let held_now = st.held.get(tid).cloned().unwrap_or_default();
                for h in held_now {
                    if st.edges.insert((h, m)) && st.lock_cycle.is_none() && st.reaches(m, h) {
                        let hn = st.name_of(h, 'm');
                        let mn = st.name_of(m, 'm');
                        st.lock_cycle = Some(format!(
                            "acquisition-order cycle: edge {hn} -> {mn} closes a cycle (t{tid} @ {}:{})",
                            loc.file(),
                            loc.line()
                        ));
                    }
                }
            }
            Op::Release(m) => {
                st.holders.remove(&m);
                if let Some(h) = st.held.get_mut(tid) {
                    h.retain(|&a| a != m);
                }
            }
            Op::CvWait { cv, mutex } => {
                st.holders.remove(&mutex);
                if let Some(h) = st.held.get_mut(tid) {
                    h.retain(|&a| a != mutex);
                }
                if let Some(p) = st.parked.get_mut(tid) {
                    *p = Some((cv, mutex));
                }
            }
            _ => {}
        }
        if let Some(p) = st.pending.get_mut(tid) {
            // A cv-wait parks with no pending op until a notify converts
            // it into a re-acquire; everything else waits for a grant.
            *p = if matches!(op, Op::CvWait { .. }) { None } else { Some(Pending { op, loc }) };
        }
        if let Op::CvWait { cv, .. } = op {
            let name = st.name_of(cv, 'c');
            let line = format!("t{tid} cv-wait {name} @ {}:{}", loc.file(), loc.line());
            st.trace.push(line);
        }
        if st.running == Some(tid) {
            st.running = None;
        }
        self.wake.notify_all();
        loop {
            if st.granted.get(tid).copied().unwrap_or(false) {
                if let Some(g) = st.granted.get_mut(tid) {
                    *g = false;
                }
                return;
            }
            if st.aborting {
                drop(st);
                std::panic::panic_any(ModelAbort);
            }
            st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn silent_release(&self, tid: usize, addr: usize) {
        let mut st = lock_state(self);
        st.holders.remove(&addr);
        if let Some(h) = st.held.get_mut(tid) {
            h.retain(|&a| a != addr);
        }
        self.wake.notify_all();
    }

    fn finish(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = lock_state(self);
        if let Some(f) = st.finished.get_mut(tid) {
            *f = true;
        }
        if st.running == Some(tid) {
            st.running = None;
        }
        if let Some(msg) = panic_msg {
            st.panics.push(format!("t{tid}: {msg}"));
        }
        self.wake.notify_all();
    }
}

/// Run `bodies` as virtual threads under the scheduler. `forced` pins
/// the first decisions (replay / DFS branching); past it, `policy`
/// picks. `fault_name` arms [`fault`] for this execution only.
pub fn execute(
    bodies: Vec<Box<dyn FnOnce() + Send + 'static>>,
    forced: &[usize],
    policy: Policy,
    fault_name: Option<&'static str>,
) -> ModelRun {
    install_quiet_abort_hook();
    let n = bodies.len();
    let ctrl = Arc::new(Controller {
        state: Mutex::new(CtrlState::new(n)),
        wake: Condvar::new(),
        fault: fault_name,
    });
    let mut handles = Vec::new();
    for (tid, body) in bodies.into_iter().enumerate() {
        let ctrl = Arc::clone(&ctrl);
        handles.push(std::thread::spawn(move || {
            CTX.with(|c| *c.borrow_mut() = Some((Arc::clone(&ctrl), tid)));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                on_acquire_start(&ctrl, tid);
                body();
            }));
            CTX.with(|c| *c.borrow_mut() = None);
            let panic_msg = match outcome {
                Ok(()) => None,
                Err(p) if p.is::<ModelAbort>() => None,
                Err(p) => Some(panic_text(&p)),
            };
            ctrl.finish(tid, panic_msg);
        }));
    }
    run_scheduler(&ctrl, n, forced, policy);
    for h in handles {
        let _ = h.join();
    }
    let mut st = lock_state(&ctrl);
    ModelRun {
        choices: st.decisions.iter().map(|d| d.chosen).collect(),
        decisions: std::mem::take(&mut st.decisions),
        trace: std::mem::take(&mut st.trace),
        deadlock: st.deadlock.take(),
        lock_cycle: st.lock_cycle.take(),
        panics: std::mem::take(&mut st.panics),
    }
}

/// Silence panic output from model virtual threads: their unwinds are
/// harness-controlled ([`ModelAbort`] on execution abort) or captured
/// into [`ModelRun::panics`] and reported as violations — the default
/// hook's backtrace spray would drown the schedule trace. Installed once
/// per process, forwarding every non-model panic to the prior hook.
fn install_quiet_abort_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !in_model() {
                prev(info);
            }
        }));
    });
}

#[track_caller]
fn on_acquire_start(ctrl: &Controller, tid: usize) {
    ctrl.announce(tid, Op::Start, Location::caller());
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

fn run_scheduler(ctrl: &Controller, n: usize, forced: &[usize], policy: Policy) {
    let mut rng = match policy {
        Policy::Random(seed) => Some(SplitMix64::new(seed)),
        Policy::NonPreemptive => None,
    };
    let mut st = lock_state(ctrl);
    loop {
        // Quiesce: every live thread must have checked in before a
        // decision — this is what makes exploration deterministic.
        let quiescent = |s: &CtrlState| {
            s.running.is_none()
                && (0..n).all(|t| {
                    s.finished.get(t).copied().unwrap_or(true)
                        || s.pending.get(t).is_some_and(|p| p.is_some())
                        || s.parked.get(t).is_some_and(|p| p.is_some())
                })
        };
        while !quiescent(&st) {
            st = ctrl.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if (0..n).all(|t| st.finished.get(t).copied().unwrap_or(true)) {
            return;
        }
        let enabled: Vec<usize> = (0..n).filter(|&t| st.enabled_of(t)).collect();
        if enabled.is_empty() {
            // Deadlock: live threads, none runnable. Describe the wait
            // graph, then abort the execution so guards unwind.
            let mut detail = String::from("deadlock:");
            for t in 0..n {
                if st.finished.get(t).copied().unwrap_or(true) {
                    continue;
                }
                if let Some(Some(p)) = st.pending.get(t).copied() {
                    if let Op::Acquire(m) = p.op {
                        let name = st.name_of(m, 'm');
                        detail.push_str(&format!(
                            " t{t} blocked on {name} @ {}:{}",
                            p.loc.file(),
                            p.loc.line()
                        ));
                    }
                } else if let Some(Some((cv, _))) = st.parked.get(t).copied() {
                    let name = st.name_of(cv, 'c');
                    detail.push_str(&format!(" t{t} parked on {name}"));
                }
            }
            st.deadlock = Some(detail);
            st.aborting = true;
            ctrl.wake.notify_all();
            while !(0..n).all(|t| st.finished.get(t).copied().unwrap_or(true)) {
                st = ctrl.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            return;
        }
        let idx = st.decisions.len();
        let chosen =
            forced.get(idx).copied().filter(|c| enabled.contains(c)).unwrap_or_else(|| {
                match (&mut rng, st.prev_chosen) {
                    (Some(r), _) => {
                        let pick = (r.next_u64() % enabled.len() as u64) as usize;
                        enabled.get(pick).copied().unwrap_or(0)
                    }
                    (None, Some(p)) if enabled.contains(&p) => p,
                    (None, _) => enabled.first().copied().unwrap_or(0),
                }
            });
        st.decisions.push(Decision { enabled: enabled.clone(), chosen });
        st.prev_chosen = Some(chosen);
        // Apply the grant's bookkeeping and emit the trace line.
        let pending = st.pending.get(chosen).and_then(|p| *p);
        if let Some(p) = pending {
            let line = match p.op {
                Op::Start => format!("[{idx}] t{chosen} start"),
                Op::Acquire(m) => {
                    st.holders.insert(m, chosen);
                    if let Some(h) = st.held.get_mut(chosen) {
                        h.push(m);
                    }
                    let name = st.name_of(m, 'm');
                    format!("[{idx}] t{chosen} acquire {name} @ {}:{}", p.loc.file(), p.loc.line())
                }
                Op::Release(m) => {
                    let name = st.name_of(m, 'm');
                    format!("[{idx}] t{chosen} release {name} @ {}:{}", p.loc.file(), p.loc.line())
                }
                Op::Notify(cv) => {
                    let mut woken = Vec::new();
                    for t in 0..n {
                        if let Some(Some((pcv, mutex))) = st.parked.get(t).copied() {
                            if pcv == cv {
                                if let Some(slot) = st.parked.get_mut(t) {
                                    *slot = None;
                                }
                                if let Some(pd) = st.pending.get_mut(t) {
                                    *pd = Some(Pending { op: Op::Acquire(mutex), loc: p.loc });
                                }
                                woken.push(t);
                            }
                        }
                    }
                    let name = st.name_of(cv, 'c');
                    format!(
                        "[{idx}] t{chosen} notify {name} (woke {woken:?}) @ {}:{}",
                        p.loc.file(),
                        p.loc.line()
                    )
                }
                Op::Rmw(a) => {
                    let name = st.name_of(a, 'a');
                    format!("[{idx}] t{chosen} rmw {name} @ {}:{}", p.loc.file(), p.loc.line())
                }
                Op::CvWait { .. } => String::new(),
            };
            st.trace.push(line);
        }
        if let Some(pd) = st.pending.get_mut(chosen) {
            *pd = None;
        }
        st.running = Some(chosen);
        if let Some(g) = st.granted.get_mut(chosen) {
            *g = true;
        }
        ctrl.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync;
    use std::sync::atomic::Ordering::Relaxed;

    type Bodies = Vec<Box<dyn FnOnce() + Send + 'static>>;

    fn two_increments() -> (Bodies, Arc<sync::Mutex<u32>>) {
        let shared = Arc::new(sync::Mutex::new(0u32));
        let mut bodies: Bodies = Vec::new();
        for _ in 0..2 {
            let s = Arc::clone(&shared);
            bodies.push(Box::new(move || {
                let mut g = s.lock().unwrap_or_else(PoisonError::into_inner);
                *g += 1;
            }));
        }
        (bodies, shared)
    }

    #[test]
    fn serialized_execution_is_exclusive_and_replayable() {
        let (bodies, shared) = two_increments();
        let run = execute(bodies, &[], Policy::NonPreemptive, None);
        assert_eq!(*shared.lock().unwrap_or_else(PoisonError::into_inner), 2);
        assert!(run.deadlock.is_none() && run.lock_cycle.is_none() && run.panics.is_empty());
        assert!(run.decisions.len() >= 6, "start/acquire/release per thread: {:?}", run.trace);
        // Replaying the recorded choices reproduces the identical run.
        let (bodies2, _) = two_increments();
        let replay = execute(bodies2, &run.choices, Policy::NonPreemptive, None);
        assert_eq!(replay.choices, run.choices);
        assert_eq!(replay.decisions.len(), run.decisions.len());
    }

    #[test]
    fn preemptive_schedule_counts_a_preemption() {
        let (bodies, _) = two_increments();
        let base = execute(bodies, &[], Policy::NonPreemptive, None);
        assert_eq!(base.preemptions(), 0, "non-preemptive baseline");
        // Force a switch at the first multi-enabled decision.
        let mut forced = Vec::new();
        for d in &base.decisions {
            if d.enabled.len() > 1 && d.chosen == d.enabled[0] && !forced.is_empty() {
                forced.push(d.enabled[1]);
                break;
            }
            forced.push(d.chosen);
        }
        let (bodies2, shared) = two_increments();
        let run = execute(bodies2, &forced, Policy::NonPreemptive, None);
        assert_eq!(*shared.lock().unwrap_or_else(PoisonError::into_inner), 2);
        assert!(run.deadlock.is_none());
    }

    #[test]
    fn ab_ba_interleaving_deadlocks_and_reports_cycle() {
        // t0: lock A then B; t1: lock B then A — with an atomic bump
        // between the acquires as a yield point the explorer can split.
        fn bodies(
            a: &Arc<sync::Mutex<u8>>,
            b: &Arc<sync::Mutex<u8>>,
            tick: &Arc<sync::AtomicU64>,
        ) -> Vec<Box<dyn FnOnce() + Send + 'static>> {
            let mut v: Vec<Box<dyn FnOnce() + Send + 'static>> = Vec::new();
            for order in [true, false] {
                let a = Arc::clone(a);
                let b = Arc::clone(b);
                let tick = Arc::clone(tick);
                v.push(Box::new(move || {
                    let (first, second) = if order { (&a, &b) } else { (&b, &a) };
                    let _g1 = first.lock().unwrap_or_else(PoisonError::into_inner);
                    tick.fetch_add(1, Relaxed);
                    let _g2 = second.lock().unwrap_or_else(PoisonError::into_inner);
                }));
            }
            v
        }
        let a = Arc::new(sync::Mutex::new(0u8));
        let b = Arc::new(sync::Mutex::new(0u8));
        let tick = Arc::new(sync::AtomicU64::new(0));
        // Interleave: t0 start+acquire A+rmw, then t1 start+acquire B —
        // both now block on the other's latch.
        let run = execute(bodies(&a, &b, &tick), &[0, 0, 0, 1, 1, 1], Policy::NonPreemptive, None);
        assert!(run.deadlock.is_some(), "AB/BA interleaving must deadlock: {:?}", run.trace);
        assert!(run.lock_cycle.is_some(), "cycle edge A->B and B->A recorded");
        // The non-preemptive default schedule completes without incident.
        let clean = execute(bodies(&a, &b, &tick), &[], Policy::NonPreemptive, None);
        assert!(clean.deadlock.is_none());
        // ... but still records the order inversion as a cycle.
        assert!(clean.lock_cycle.is_some(), "lock-order cycle found without deadlocking");
    }

    #[test]
    fn condvar_wait_is_woken_by_notify() {
        let flag = Arc::new(sync::Mutex::new(false));
        let cv = Arc::new(sync::Condvar::new());
        let f2 = Arc::clone(&flag);
        let cv2 = Arc::clone(&cv);
        let waiter: Box<dyn FnOnce() + Send + 'static> = Box::new(move || {
            let mut g = f2.lock().unwrap_or_else(PoisonError::into_inner);
            while !*g {
                g = cv2.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
        });
        let f3 = Arc::clone(&flag);
        let cv3 = Arc::clone(&cv);
        let setter: Box<dyn FnOnce() + Send + 'static> = Box::new(move || {
            let mut g = f3.lock().unwrap_or_else(PoisonError::into_inner);
            *g = true;
            drop(g);
            cv3.notify_all();
        });
        // Default policy runs t0 (waiter) first: it must park, the
        // setter must wake it, and the run must terminate cleanly.
        let run = execute(vec![waiter, setter], &[], Policy::NonPreemptive, None);
        assert!(run.deadlock.is_none(), "wait/notify completes: {:?}", run.trace);
        assert!(run.trace.iter().any(|l| l.contains("cv-wait")), "{:?}", run.trace);
        assert!(run.trace.iter().any(|l| l.contains("notify")), "{:?}", run.trace);
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let (b1, _) = two_increments();
        let (b2, _) = two_increments();
        let (b3, _) = two_increments();
        let r1 = execute(b1, &[], Policy::Random(42), None);
        let r2 = execute(b2, &[], Policy::Random(42), None);
        let r3 = execute(b3, &[], Policy::Random(43), None);
        assert_eq!(r1.choices, r2.choices, "same seed, same schedule");
        let _ = r3;
    }

    #[test]
    fn fault_is_scoped_to_the_execution() {
        assert!(!fault("dirty-victim-gate"), "outside the model: always false");
        let seen = Arc::new(sync::AtomicU64::new(0));
        let s2 = Arc::clone(&seen);
        let body: Box<dyn FnOnce() + Send + 'static> = Box::new(move || {
            if fault("dirty-victim-gate") {
                s2.fetch_add(1, Relaxed);
            }
        });
        execute(vec![body], &[], Policy::NonPreemptive, Some("dirty-victim-gate"));
        assert_eq!(seen.load(Relaxed), 1, "fault visible to the armed execution");
        let s3 = Arc::clone(&seen);
        let body2: Box<dyn FnOnce() + Send + 'static> = Box::new(move || {
            if fault("dirty-victim-gate") {
                s3.fetch_add(1, Relaxed);
            }
        });
        execute(vec![body2], &[], Policy::NonPreemptive, None);
        assert_eq!(seen.load(Relaxed), 1, "unarmed execution sees no fault");
    }
}
