//! A persistent row-block team for chunked and bulk-synchronous loops.
//!
//! The oscillator-model right-hand side is evaluated six times per
//! Dormand–Prince step, millions of steps per run; at continuum-scale `N`
//! (10⁴–10⁶ oscillators) a single *step* is worth parallelizing. Spawning
//! threads per step would cost more than the work, so [`ChunkPool`] keeps
//! a fixed team of workers and hands them one job at a time. A job runs
//! once per team member; member `slot` owns the contiguous block
//! `slot`'s share of `0..n_items` (earlier slots take the remainder), and
//! members may meet at a reusable spin barrier
//! ([`TeamMember::barrier`]) between phases. The calling thread is the
//! leader and takes slot 0, so a team of `t` threads spawns `t − 1`
//! workers.
//!
//! Two job shapes share the machinery:
//!
//! * [`ChunkPool::run`] — the classic fork–join: `f(slot, range)` once per
//!   member, no barrier;
//! * [`ChunkPool::run_team`] — a bulk-synchronous job: each member runs a
//!   whole multi-phase computation over its own block and synchronizes
//!   with the others through barriers (an adaptive step's six stages are
//!   *one* job with two barriers per stage).
//!
//! Idle workers poll an epoch counter for a bounded window (1 ms) — long
//! enough to bridge the leader's serial work between the jobs of one
//! integration — and then park on a condvar, so an idle team burns no
//! CPU; barrier waits park too once they outlast a short poll.
//! [`ChunkPool::install`] makes a team ambient
//! on the calling thread for a scope (like rayon's `install`): code that
//! has no handle on the model, such as a streaming observer, can reach
//! the team through [`ChunkPool::with_installed`].
//!
//! Block boundaries depend only on `(n_items, threads)`, never on timing,
//! so any split-by-rows computation that is deterministic per row is
//! deterministic under the team.
//!
//! ```
//! use pom_kernels::par::{ChunkPool, DisjointSliceMut};
//!
//! let pool = ChunkPool::new(2);
//! let mut out = vec![0.0f64; 1000];
//! let shared = DisjointSliceMut::new(&mut out);
//! pool.run(1000, &|_slot, range| {
//!     // SAFETY: `run` hands each slot a disjoint range of `0..n_items`.
//!     let chunk = unsafe { shared.range_mut(range.clone()) };
//!     for (k, v) in chunk.iter_mut().enumerate() {
//!         *v = (range.start + k) as f64;
//!     }
//! });
//! assert!(out.iter().enumerate().all(|(i, &v)| v == i as f64));
//! ```

use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker keeps polling for the next job before it
/// parks. Within one integration the leader works alone between two jobs
/// (error-norm sum, step control, an observer's ordered reductions); a
/// worker that parked in that gap would add a wake-up latency to every
/// step. Measured on a 2-CPU x86-64 host for a streamed Dopri5 run at
/// `N = 65536` (`kernel=sincos observe=1`, 221 jobs per run, 5 runs):
/// gaps of 40 µs (p10), 280 µs (median), 600–660 µs (p90) and
/// 670–740 µs (p99), so 1 ms bridges all but one or two per run. After
/// an integration ends the team spins at most this long, then sleeps.
const SPIN_WINDOW: Duration = Duration::from_millis(1);

/// How long a member polls at a barrier (or the leader for the job's
/// end) before it parks. Balanced blocks arrive within microseconds of
/// each other; a longer wait means a member lost its CPU (more team
/// threads than cores), and parking hands the CPU to it.
const BARRIER_SPIN: Duration = Duration::from_micros(200);

/// Busy-poll iterations before a waiter starts yielding its CPU between
/// polls. Pure spinning is the fastest hand-off when every member has a
/// core; once the wait runs longer, yielding lets a descheduled member
/// run.
const SPINS_BEFORE_YIELD: u32 = 256;

struct PoolMetrics {
    jobs: Arc<pom_obs::Counter>,
    items: Arc<pom_obs::Counter>,
    busy_us: Arc<pom_obs::Counter>,
    imbalance_us: Arc<pom_obs::Histogram>,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = pom_obs::registry();
        PoolMetrics {
            jobs: r.counter(
                "pom_kernels_pool_jobs_total",
                "Fork\u{2013}join jobs dispatched.",
            ),
            items: r.counter(
                "pom_kernels_pool_items_total",
                "Items covered by dispatched jobs.",
            ),
            busy_us: r.counter(
                "pom_kernels_pool_busy_us_total",
                "Per-slot busy time summed over all slots and jobs.",
            ),
            imbalance_us: r.histogram(
                "pom_kernels_pool_imbalance_us",
                "Per-job fork\u{2013}join imbalance: busiest minus idlest slot.",
            ),
        }
    })
}

/// A team job as the workers see it. Lives on the leader's stack for the
/// duration of [`ChunkPool::run_team`]; workers reach it through
/// [`Shared::job`].
struct Job {
    /// Lifetime-erased job closure; soundness rests on `run_team` not
    /// returning until every worker has finished with it (`pending`).
    f: *const (dyn Fn(&TeamMember<'_>) + Sync),
    n_items: usize,
}

/// Marker payload a member unwinds with when a teammate's panic aborts
/// the barrier it waits at; the leader re-raises the original panic.
struct TeamAborted;

/// Reusable counting barrier; waiters poll a generation counter, then
/// park. A panicking member sets `abort`, which releases everyone still
/// waiting so the job can drain.
struct SpinBarrier {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

struct Shared {
    threads: usize,
    /// Job counter; each worker runs every epoch exactly once.
    epoch: AtomicU64,
    job: AtomicPtr<Job>,
    /// Workers still inside the current job.
    pending: AtomicUsize,
    barrier: SpinBarrier,
    /// Set when any member of the current job panicked.
    abort: AtomicBool,
    /// First worker panic payload of the current job.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
    shutdown: AtomicBool,
    /// One parking lot for every wait that outlasts its poll budget: idle
    /// workers, barrier waiters and the leader's join.
    sleep: Mutex<()>,
    wake: Condvar,
    sleepers: AtomicUsize,
    /// Times a team thread parked (diagnostics and tests).
    parks: AtomicU64,
}

impl Shared {
    /// Return once `ready()` holds: poll for up to `budget`, then park.
    /// `ready` must read its atomics with `SeqCst`, and whoever makes it
    /// true must call [`Shared::wake_all`] afterwards — the `SeqCst` pair
    /// (sleeper registration, then `ready`; state change, then sleeper
    /// count) guarantees that a parking waiter is either seen or sees the
    /// change.
    fn wait_until(&self, budget: Duration, ready: impl Fn() -> bool) {
        let start = Instant::now();
        let mut polls = 0u32;
        while !ready() {
            polls = polls.wrapping_add(1);
            if polls < SPINS_BEFORE_YIELD {
                std::hint::spin_loop();
                continue;
            }
            if polls.is_multiple_of(64) && start.elapsed() >= budget {
                let mut g = lock(&self.sleep);
                self.sleepers.fetch_add(1, Ordering::SeqCst);
                while !ready() {
                    self.parks.fetch_add(1, Ordering::Relaxed);
                    g = self.wake.wait(g).unwrap_or_else(|p| p.into_inner());
                }
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Wake every parked team thread so it re-checks its condition.
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _g = lock(&self.sleep);
            self.wake.notify_all();
        }
    }

    /// Mark the job as failed and release every waiter.
    fn abort_job(&self) {
        self.abort.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    fn barrier_wait(&self) {
        let b = &self.barrier;
        let generation = b.generation.load(Ordering::SeqCst);
        if b.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.threads {
            b.arrived.store(0, Ordering::Relaxed);
            b.generation.fetch_add(1, Ordering::SeqCst);
            self.wake_all();
            return;
        }
        let released = || b.generation.load(Ordering::SeqCst) != generation;
        self.wait_until(BARRIER_SPIN, || {
            released() || self.abort.load(Ordering::SeqCst)
        });
        if !released() {
            resume_unwind(Box::new(TeamAborted));
        }
    }
}

/// One member's view of a [`ChunkPool::run_team`] job.
pub struct TeamMember<'a> {
    slot: usize,
    threads: usize,
    n_items: usize,
    shared: &'a Shared,
}

impl TeamMember<'_> {
    /// This member's index (0 = the calling thread, the leader).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Members taking part in the job (1 when it runs inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This member's contiguous block of `0..n_items`. Blocks ascend with
    /// the slot index, so the leader always owns the block starting at 0.
    pub fn range(&self) -> Range<usize> {
        chunk_range(self.slot, self.threads, self.n_items)
    }

    /// Wait until every member of the job has reached this barrier. Every
    /// member must call it the same number of times per job. Writes made
    /// before the barrier are visible to all members after it.
    pub fn barrier(&self) {
        if self.threads > 1 {
            self.shared.barrier_wait();
        }
    }
}

thread_local! {
    /// The team made ambient on this thread by [`ChunkPool::install`].
    static INSTALLED: Cell<*const ChunkPool> = const { Cell::new(std::ptr::null()) };
}

/// Persistent team of worker threads executing block-split jobs.
///
/// Create once (it spawns `threads − 1` OS threads) and dispatch jobs as
/// often as needed; dropping the pool joins the workers. With
/// `threads <= 1` the pool spawns nothing and jobs execute inline.
pub struct ChunkPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes concurrent jobs: the pool is held through `&self` by
    /// types that are themselves `Sync` (a model's RHS runs through
    /// `&self`), so two threads may legally dispatch at once — the second
    /// simply waits for the first job to drain.
    run_gate: Mutex<()>,
    /// Per-slot busy time of the current instrumented job (µs). Written
    /// under the gate, so fixed slots suffice — no per-job allocation.
    busy: Box<[AtomicU64]>,
    /// Observer scratch, grown once to the largest request (see
    /// [`ChunkPool::with_scratch`]).
    scratch: Mutex<Vec<f64>>,
}

impl std::fmt::Debug for ChunkPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkPool")
            .field("threads", &self.threads())
            .finish()
    }
}

/// The contiguous range of slot `slot` when `0..n_items` is split into
/// `slots` near-equal chunks (earlier slots take the remainder).
fn chunk_range(slot: usize, slots: usize, n_items: usize) -> Range<usize> {
    let base = n_items / slots;
    let rem = n_items % slots;
    let start = slot * base + slot.min(rem);
    let len = base + usize::from(slot < rem);
    start..start + len
}

/// Lock a mutex whose data stays consistent across a panicking holder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl ChunkPool {
    /// Build a pool executing jobs on `threads` participants (the caller
    /// plus `threads − 1` spawned workers).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            threads,
            epoch: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            pending: AtomicUsize::new(0),
            barrier: SpinBarrier {
                arrived: AtomicUsize::new(0),
                generation: AtomicUsize::new(0),
            },
            abort: AtomicBool::new(false),
            payload: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            parks: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|slot| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, slot))
            })
            .collect();
        Self {
            shared,
            workers,
            run_gate: Mutex::new(()),
            busy: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Total participants (caller + workers).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Execute `f(slot, range)` once per participant, with the ranges
    /// forming a disjoint cover of `0..n_items` (a slot's range may be
    /// empty when `n_items < threads`). Blocks until every participant has
    /// finished; panics from any chunk propagate to the caller.
    ///
    /// Safe to call from several threads at once: concurrent calls are
    /// serialized (each job runs alone on the pool).
    pub fn run(&self, n_items: usize, f: &(dyn Fn(usize, Range<usize>) + Sync)) {
        self.run_team(n_items, &|m: &TeamMember<'_>| f(m.slot(), m.range()));
    }

    /// Execute `f(member)` once per participant: a bulk-synchronous job in
    /// which every member works on its own block ([`TeamMember::range`]
    /// of `0..n_items`) and may meet the others at
    /// [`TeamMember::barrier`]. Blocks until every member has returned. A
    /// panic in any member releases the others from their barriers and
    /// propagates to the caller; the team stays usable.
    ///
    /// `n_items == 0`, or a one-thread pool, runs `f` inline as the only
    /// member (its barriers return immediately).
    pub fn run_team(&self, n_items: usize, f: &(dyn Fn(&TeamMember<'_>) + Sync)) {
        if self.workers.is_empty() || n_items == 0 {
            let solo = TeamMember {
                slot: 0,
                threads: 1,
                n_items,
                shared: &self.shared,
            };
            if !pom_obs::enabled() {
                return f(&solo);
            }
            let t0 = Instant::now();
            f(&solo);
            let us = t0.elapsed().as_micros() as u64;
            record_job(n_items, us, us, us);
            return;
        }
        let _gate = lock(&self.run_gate);
        if !pom_obs::enabled() {
            return self.dispatch(n_items, f);
        }
        // Instrumented: one clock pair per member per job, into the
        // pool's fixed per-slot cells (the gate keeps them ours).
        let busy = &self.busy;
        self.dispatch(n_items, &|m: &TeamMember<'_>| {
            let t0 = Instant::now();
            f(m);
            busy[m.slot].store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        });
        let (mut lo, mut hi, mut sum) = (u64::MAX, 0u64, 0u64);
        for b in busy.iter() {
            let v = b.load(Ordering::Relaxed);
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
        }
        record_job(n_items, sum, lo, hi);
    }

    /// Post one job to the team, run slot 0 on the caller, and wait for
    /// the workers. The caller holds the run gate.
    fn dispatch(&self, n_items: usize, f: &(dyn Fn(&TeamMember<'_>) + Sync)) {
        let sh = &*self.shared;
        // SAFETY: pure lifetime erasure (`&'a dyn …` → `*const dyn …`);
        // the wait on `pending` below keeps the referent alive for every
        // dereference.
        let f_erased: *const (dyn Fn(&TeamMember<'_>) + Sync) = unsafe { std::mem::transmute(f) };
        let job = Job {
            f: f_erased,
            n_items,
        };
        // Every member of the previous job has returned, so the barrier
        // and abort state can be reset without racing anyone.
        sh.barrier.arrived.store(0, Ordering::Relaxed);
        sh.abort.store(false, Ordering::Relaxed);
        sh.job
            .store(&job as *const Job as *mut Job, Ordering::Relaxed);
        sh.pending.store(self.workers.len(), Ordering::Relaxed);
        sh.epoch.fetch_add(1, Ordering::SeqCst);
        sh.wake_all();

        let lead = TeamMember {
            slot: 0,
            threads: sh.threads,
            n_items,
            shared: sh,
        };
        // Run slot 0 under catch_unwind so that even if it panics we
        // still wait for the workers (whose borrow of `f` must not
        // outlive this frame) before resuming the panic.
        let mine = catch_unwind(AssertUnwindSafe(|| f(&lead)));
        if mine.is_err() {
            sh.abort_job();
        }
        sh.wait_until(BARRIER_SPIN, || sh.pending.load(Ordering::SeqCst) == 0);
        sh.job.store(std::ptr::null_mut(), Ordering::Relaxed);

        let theirs = lock(&sh.payload).take();
        match (mine, theirs) {
            (Err(p), _) if !p.is::<TeamAborted>() => resume_unwind(p),
            (_, Some(p)) => resume_unwind(p),
            (Err(p), None) => resume_unwind(p),
            (Ok(()), None) => {}
        }
    }

    /// Make this team ambient on the calling thread while `f` runs:
    /// [`ChunkPool::with_installed`] inside `f` (at any call depth) sees
    /// it. Scopes nest; the previous team is restored on exit, also when
    /// `f` panics.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(*const ChunkPool);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(self)));
        f()
    }

    /// Call `f` with the team installed on this thread, if any.
    pub fn with_installed<R>(f: impl FnOnce(Option<&ChunkPool>) -> R) -> R {
        let p = INSTALLED.with(Cell::get);
        // SAFETY: a non-null pointer was set by `install`, which borrows
        // the pool for the whole scope and clears the pointer on exit;
        // the reference handed to `f` cannot outlive this call.
        f(unsafe { p.as_ref() })
    }

    /// Lend `f` the team's scratch buffer, grown to at least `len` values
    /// (growth happens once; later calls reuse the allocation). Contents
    /// are unspecified on entry.
    pub fn with_scratch<R>(&self, len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
        let mut buf = lock(&self.scratch);
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    }

    /// Times a worker has parked after an idle spin window.
    #[cfg(test)]
    fn parks(&self) -> u64 {
        self.shared.parks.load(Ordering::Relaxed)
    }
}

fn record_job(n_items: usize, busy_sum: u64, lo: u64, hi: u64) {
    let m = pool_metrics();
    m.jobs.inc();
    m.items.add(n_items as u64);
    m.busy_us.add(busy_sum);
    m.imbalance_us.observe(hi - lo);
}

impl Drop for ChunkPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Block until the epoch moves past `seen` (returning it) or the pool
/// shuts down (`None`): poll for [`SPIN_WINDOW`], then park.
fn wait_for_job(sh: &Shared, seen: u64) -> Option<u64> {
    sh.wait_until(SPIN_WINDOW, || {
        sh.epoch.load(Ordering::SeqCst) != seen || sh.shutdown.load(Ordering::SeqCst)
    });
    let epoch = sh.epoch.load(Ordering::SeqCst);
    (epoch != seen).then_some(epoch)
}

fn worker_loop(sh: &Shared, slot: usize) {
    let mut seen = 0u64;
    while let Some(epoch) = wait_for_job(sh, seen) {
        seen = epoch;
        // SAFETY: the leader stored the job before its SeqCst epoch bump,
        // which our SeqCst epoch load observed, and keeps the job and its
        // closure alive until `pending` reaches zero — only after this
        // member returns.
        let (job, f) = unsafe {
            let job = &*sh.job.load(Ordering::Relaxed);
            (job, &*job.f)
        };
        let member = TeamMember {
            slot,
            threads: sh.threads,
            n_items: job.n_items,
            shared: sh,
        };
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&member))) {
            if !p.is::<TeamAborted>() {
                lock(&sh.payload).get_or_insert(p);
            }
            sh.abort_job();
        }
        if sh.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            sh.wake_all();
        }
    }
}

/// A mutable slice shareable across the pool's participants, on the
/// caller's promise that concurrently accessed ranges are disjoint.
///
/// [`ChunkPool::run`] guarantees the ranges it hands out are disjoint, so a
/// chunk closure may safely reborrow its own range:
/// `unsafe { shared.range_mut(range) }`.
pub struct DisjointSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is restricted to disjoint ranges (the contract of
// `range_mut`), so concurrent use from multiple threads cannot alias.
unsafe impl<T: Send> Send for DisjointSliceMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointSliceMut<'_, T> {}

impl<'a, T> DisjointSliceMut<'a, T> {
    /// Wrap a slice for disjoint-range sharing.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the wrapped slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wrapped slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `range` of the underlying slice mutably.
    ///
    /// # Safety
    /// No two live borrows obtained from this wrapper (on any thread) may
    /// overlap, and `range` must lie within `0..self.len()`. Ranges handed
    /// out by [`ChunkPool::run`] satisfy the disjointness requirement.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len())
    }

    /// Reborrow `range` of the underlying slice immutably — typically the
    /// whole slice, read by every member after a
    /// [`TeamMember::barrier`] that follows the writes.
    ///
    /// # Safety
    /// No live mutable borrow from [`DisjointSliceMut::range_mut`] (on
    /// any thread) may overlap `range`, and `range` must lie within
    /// `0..self.len()`.
    pub unsafe fn range(&self, range: Range<usize>) -> &[T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts(self.ptr.add(range.start), range.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunk_ranges_cover_disjointly() {
        for &(slots, n) in &[(1usize, 7usize), (3, 10), (4, 3), (5, 0), (2, 100)] {
            let mut covered = vec![0u32; n];
            let mut prev_end = 0;
            for s in 0..slots {
                let r = chunk_range(s, slots, n);
                assert_eq!(r.start, prev_end, "slots {slots}, n {n}");
                prev_end = r.end;
                for i in r {
                    covered[i] += 1;
                }
            }
            assert_eq!(prev_end, n);
            assert!(covered.iter().all(|&c| c == 1));
        }
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ChunkPool::new(1);
        assert_eq!(pool.threads(), 1);
        let mut out = vec![0usize; 17];
        let shared = DisjointSliceMut::new(&mut out);
        pool.run(17, &|slot, range| {
            assert_eq!(slot, 0);
            let chunk = unsafe { shared.range_mut(range.clone()) };
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = range.start + k;
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i));
    }

    #[test]
    fn multi_thread_pool_covers_every_item_once() {
        let pool = ChunkPool::new(4);
        assert_eq!(pool.threads(), 4);
        let n = 1003;
        let mut out = vec![0u32; n];
        let shared = DisjointSliceMut::new(&mut out);
        // Repeated runs reuse the same parked workers.
        for round in 0..50u32 {
            pool.run(n, &|_slot, range| {
                let chunk = unsafe { shared.range_mut(range) };
                for v in chunk {
                    *v += round + 1;
                }
            });
        }
        let expect: u32 = (1..=50).sum();
        assert!(out.iter().all(|&v| v == expect), "some item missed a round");
    }

    #[test]
    fn fewer_items_than_threads() {
        let pool = ChunkPool::new(8);
        let hits = AtomicUsize::new(0);
        pool.run(3, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
        pool.run(0, &|_slot, range| {
            assert!(range.is_empty());
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ChunkPool::new(3);
        let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(100, &|_slot, range| {
                if range.contains(&99) {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(res.is_err(), "panic must propagate to the caller");
        // The pool remains usable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(10, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn concurrent_run_calls_are_serialized() {
        // The pool is reachable through `&self` from `Sync` owners, so two
        // threads may issue jobs at once; each job must still cover its
        // own range exactly once.
        let pool = ChunkPool::new(3);
        let n = 4001;
        std::thread::scope(|scope| {
            let pool = &pool;
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..50 {
                            let hits = AtomicUsize::new(0);
                            pool.run(n, &|_slot, range| {
                                hits.fetch_add(range.len(), Ordering::Relaxed);
                            });
                            assert_eq!(hits.load(Ordering::Relaxed), n);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
    }

    #[test]
    fn results_deterministic_across_thread_counts() {
        let n = 257;
        let compute = |threads: usize| -> Vec<f64> {
            let pool = ChunkPool::new(threads);
            let mut out = vec![0.0f64; n];
            let shared = DisjointSliceMut::new(&mut out);
            pool.run(n, &|_slot, range| {
                let chunk = unsafe { shared.range_mut(range.clone()) };
                for (k, v) in chunk.iter_mut().enumerate() {
                    let i = range.start + k;
                    *v = (i as f64 * 0.37).sin() * (i as f64).sqrt();
                }
            });
            out
        };
        let one = compute(1);
        for threads in [2, 3, 5] {
            assert_eq!(one, compute(threads), "threads = {threads}");
        }
    }

    /// Multi-phase job: each phase reads the whole array the previous
    /// phase wrote. Without the barriers members would read neighbors'
    /// stale values.
    #[test]
    fn barrier_orders_phases_across_members() {
        for threads in [1, 2, 3, 4] {
            let pool = ChunkPool::new(threads);
            let n = 101;
            let mut a = vec![1u64; n];
            let mut b = vec![0u64; n];
            let (sa, sb) = (DisjointSliceMut::new(&mut a), DisjointSliceMut::new(&mut b));
            pool.run_team(n, &|m| {
                for _ in 0..20 {
                    // b[i] = a[i-1] + a[i+1] (ring), then a = b.
                    let all = unsafe { sa.range(0..n) };
                    let mine = unsafe { sb.range_mut(m.range()) };
                    for (v, i) in mine.iter_mut().zip(m.range()) {
                        *v = all[(i + n - 1) % n] + all[(i + 1) % n];
                    }
                    m.barrier();
                    let src = unsafe { sb.range(m.range()) };
                    unsafe { sa.range_mut(m.range()) }.copy_from_slice(src);
                    m.barrier();
                }
            });
            // Uniform input doubles every round.
            assert!(a.iter().all(|&v| v == 1 << 20), "threads {threads}");
        }
    }

    #[test]
    fn panic_inside_team_job_releases_barriers_and_team_survives() {
        let pool = ChunkPool::new(3);
        for panicking_slot in 0..3 {
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_team(30, &|m| {
                    m.barrier();
                    if m.slot() == panicking_slot {
                        panic!("step failure in slot {panicking_slot}");
                    }
                    // The survivors would wait here forever without the
                    // abort path.
                    m.barrier();
                    m.barrier();
                });
            }));
            let payload = res.expect_err("panic must propagate to the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("the original payload is re-raised");
            assert_eq!(msg, &format!("step failure in slot {panicking_slot}"));
            let hits = AtomicUsize::new(0);
            pool.run_team(30, &|m| {
                m.barrier();
                hits.fetch_add(m.range().len(), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 30);
        }
    }

    #[test]
    fn idle_workers_park_after_the_spin_window() {
        let pool = ChunkPool::new(3);
        pool.run(10, &|_, _| {});
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.parks() < 2 && Instant::now() < deadline {
            std::thread::sleep(SPIN_WINDOW);
        }
        assert!(pool.parks() >= 2, "both workers park once idle");
        // Parked workers still wake for the next job.
        let hits = AtomicUsize::new(0);
        pool.run(10, &|_slot, range| {
            hits.fetch_add(range.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn install_scopes_nest_and_restore() {
        let (a, b) = (ChunkPool::new(1), ChunkPool::new(2));
        let current = || ChunkPool::with_installed(|p| p.map(|p| p.threads()));
        assert_eq!(current(), None);
        a.install(|| {
            assert_eq!(current(), Some(1));
            b.install(|| assert_eq!(current(), Some(2)));
            assert_eq!(current(), Some(1));
            let res = std::panic::catch_unwind(AssertUnwindSafe(|| b.install(|| panic!("x"))));
            assert!(res.is_err());
            assert_eq!(current(), Some(1), "restored after a panic");
        });
        assert_eq!(current(), None);
        // Other threads never see this thread's team.
        b.install(|| {
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(current(), None));
            })
        });
    }

    #[test]
    fn scratch_grows_once_and_is_reused() {
        let pool = ChunkPool::new(2);
        let p1 = pool.with_scratch(100, |s| {
            assert_eq!(s.len(), 100);
            s.as_ptr()
        });
        let p2 = pool.with_scratch(40, |s| {
            assert_eq!(s.len(), 40);
            s.as_ptr()
        });
        assert_eq!(p1, p2, "a smaller request reuses the allocation");
    }
}
