//! OpenMP-style thread teams.
//!
//! Compass forks OpenMP threads inside each MPI process and executes the
//! Synapse / Neuron / Network phases as parallel regions with barriers and a
//! critical section (listing 1 of the paper). [`ThreadTeam`] reproduces that
//! model: a fixed set of persistent workers, fork–join [`ThreadTeam::parallel`]
//! regions, an in-region [`TeamCtx::barrier`], a [`TeamCtx::critical`]
//! section, and a static-schedule [`TeamCtx::chunk`] helper equivalent to
//! `#pragma omp for schedule(static)`.
//!
//! The master thread participates in every region as member `0`, exactly as
//! an OpenMP master does, so a team of size `t` uses `t - 1` extra OS
//! threads. [`ThreadTeam::parallel_mut`] hands each member its own element
//! of a slice: listing 1's disjoint per-thread state, checked by the
//! borrow checker.
//!
//! A region ends once every member has left it, also when one panics; the
//! panic — the master's, else the first worker's — is then re-raised on
//! the caller. (A member waiting at [`TeamCtx::barrier`] for one that
//! panicked before arriving is not released.)

use crate::barrier::CentralizedBarrier;
use crate::sync::{Condvar, Mutex};
use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// A persistent team of threads executing fork–join parallel regions.
///
/// Dropping the team shuts the workers down and joins them.
pub struct ThreadTeam {
    size: usize,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// Per-region context handed to every team member.
///
/// Grants access to the member id, the team size, the region barrier, and
/// the critical section.
pub struct TeamCtx<'a> {
    tid: usize,
    size: usize,
    shared: &'a Shared,
}

/// Type-erased job pointer. The pointee is guaranteed (by the `parallel`
/// protocol) to outlive every worker's use of it: `parallel` neither
/// returns nor unwinds until all members have finished running the job.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(TeamCtx<'_>) + Sync));

// SAFETY: the pointee is `Sync` and the `parallel` protocol keeps it alive
// while any worker can dereference it.
#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}
#[allow(unsafe_code)]
unsafe impl Sync for JobPtr {}

struct Shared {
    state: Mutex<State>,
    go: Condvar,
    done: Condvar,
    region_barrier: CentralizedBarrier,
    critical: Mutex<()>,
    /// Nanoseconds spent *waiting* to enter the critical section — the
    /// serialization the paper blames for its thread-scaling gap (Fig. 6).
    critical_wait_ns: std::sync::atomic::AtomicU64,
    /// Nanoseconds spent *inside* the critical section.
    critical_hold_ns: std::sync::atomic::AtomicU64,
}

struct State {
    epoch: u64,
    job: Option<JobPtr>,
    running: usize,
    /// The first panic a worker raised in the current region.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

impl ThreadTeam {
    /// Creates a team with `size >= 1` members (including the caller, which
    /// acts as member `0` of every region).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "a thread team needs at least one member");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                running: 0,
                panic: None,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            region_barrier: CentralizedBarrier::new(size),
            critical: Mutex::new(()),
            critical_wait_ns: std::sync::atomic::AtomicU64::new(0),
            critical_hold_ns: std::sync::atomic::AtomicU64::new(0),
        });
        let workers = (1..size)
            .map(|tid| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("team-worker-{tid}"))
                    .spawn(move || worker_loop(tid, size, &shared))
                    .expect("failed to spawn team worker")
            })
            .collect();
        Self {
            size,
            shared,
            workers,
        }
    }

    /// Number of members, including the master.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Cumulative time members spent `(waiting for, holding)` the critical
    /// section — a direct measurement of the serial bottleneck the paper's
    /// Fig. 6 attributes its thread-scaling gap to.
    pub fn critical_times(&self) -> (std::time::Duration, std::time::Duration) {
        use std::sync::atomic::Ordering;
        (
            std::time::Duration::from_nanos(self.shared.critical_wait_ns.load(Ordering::Relaxed)),
            std::time::Duration::from_nanos(self.shared.critical_hold_ns.load(Ordering::Relaxed)),
        )
    }

    /// Executes `f` once per team member, concurrently, and returns when
    /// every member has finished — the equivalent of
    /// `#pragma omp parallel { f() }`.
    ///
    /// `f` may freely borrow from the caller's stack: the region is strictly
    /// nested inside this call, also when a member panics (see the module
    /// docs).
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(TeamCtx<'_>) + Sync,
    {
        if self.size == 1 {
            // Fast path: no workers to coordinate.
            return f(self.member(0));
        }

        let wide: &(dyn Fn(TeamCtx<'_>) + Sync) = &f;
        // SAFETY: we erase the lifetime of `f`. The protocol below guarantees
        // that every worker finishes calling the job before `parallel`
        // returns or unwinds (we wait for `running == 0` with the job
        // installed by this epoch, the master's own panic caught until
        // then), so the pointer never dangles while dereferenced.
        #[allow(unsafe_code)]
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(TeamCtx<'_>) + Sync),
                *const (dyn Fn(TeamCtx<'_>) + Sync),
            >(wide as *const _)
        });

        {
            let mut st = self.shared.state.lock();
            debug_assert!(st.job.is_none(), "nested parallel regions not supported");
            st.epoch += 1;
            st.job = Some(job);
            st.running = self.size - 1;
            self.shared.go.notify_all();
        }

        // Master participates as member 0.
        let mine = panic::catch_unwind(AssertUnwindSafe(|| f(self.member(0))));
        let mut st = self.shared.state.lock();
        while st.running != 0 {
            self.shared.done.wait(&mut st);
        }
        st.job = None;
        let theirs = st.panic.take();
        drop(st);
        if let Some(payload) = mine.err().or(theirs) {
            panic::resume_unwind(payload);
        }
    }

    /// [`ThreadTeam::parallel`] with one element of `items` per member:
    /// member `tid` runs `f` on `&mut items[tid]`. Each member owns its
    /// element for the region, so `f` needs no lock and no `unsafe` to
    /// mutate it.
    ///
    /// A team of one runs `f` inline on `items[0]`. A larger team lends each
    /// element through a slot of its own, taken once by its own member (an
    /// uncontended lock, and one small allocation per region).
    ///
    /// # Panics
    /// Panics if `items.len() != self.size()`, and re-raises a panic of `f`
    /// as [`ThreadTeam::parallel`] does.
    pub fn parallel_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(TeamCtx<'_>, &mut T) + Sync,
    {
        assert_eq!(
            items.len(),
            self.size,
            "parallel_mut takes one item per team member"
        );
        if let [item] = items {
            return f(self.member(0), item);
        }
        let slots: Vec<Mutex<Option<&mut T>>> = items
            .iter_mut()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        self.parallel(|ctx| {
            let item = slots[ctx.tid].lock().take();
            f(ctx, item.expect("a member takes its item once per region"));
        });
    }

    /// Member `tid`'s context for a region.
    fn member(&self, tid: usize) -> TeamCtx<'_> {
        TeamCtx {
            tid,
            size: self.size,
            shared: &self.shared,
        }
    }
}

impl Drop for ThreadTeam {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
            self.shared.go.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(tid: usize, size: usize, shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.expect("epoch advanced without a job");
                }
                shared.go.wait(&mut st);
            }
        };
        // SAFETY: see `JobPtr` — the master keeps the closure alive until
        // `running` drops to zero, which happens strictly after this call.
        #[allow(unsafe_code)]
        let f = unsafe { &*job.0 };
        // A panic ends this member's share like a return: `running` still
        // drops, and the master re-raises the payload once it is zero.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| f(TeamCtx { tid, size, shared })));
        let mut st = shared.state.lock();
        if let Err(payload) = ran {
            st.panic.get_or_insert(payload);
        }
        st.running -= 1;
        if st.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl<'a> TeamCtx<'a> {
    /// This member's id in `0..size()`; `0` is the master.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Team size for this region.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Whether this member is the master thread (id 0), which in Compass
    /// performs the MPI sends and the Reduce-scatter.
    pub fn is_master(&self) -> bool {
        self.tid == 0
    }

    /// Team-wide barrier, the equivalent of `#pragma omp barrier`.
    pub fn barrier(&self) {
        self.shared.region_barrier.wait();
    }

    /// Runs `f` under the team's critical section, the equivalent of
    /// `#pragma omp critical`. Compass uses this around `MPI_Iprobe` /
    /// `MPI_Recv` because of thread-safety issues in the MPI library; the
    /// paper's Fig. 6 attributes the thread-scaling gap to this serial
    /// bottleneck.
    pub fn critical<R>(&self, f: impl FnOnce() -> R) -> R {
        use std::sync::atomic::Ordering;
        let t0 = std::time::Instant::now();
        let _guard = self.shared.critical.lock();
        let waited = t0.elapsed();
        let t1 = std::time::Instant::now();
        let out = f();
        let held = t1.elapsed();
        self.shared
            .critical_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.shared
            .critical_hold_ns
            .fetch_add(held.as_nanos() as u64, Ordering::Relaxed);
        out
    }

    /// The static-schedule chunk of `0..total` owned by this member:
    /// contiguous, balanced to within one element, covering `0..total`
    /// exactly once across the team — the equivalent of
    /// `#pragma omp for schedule(static)`.
    pub fn chunk(&self, total: usize) -> Range<usize> {
        static_chunk(total, self.size, self.tid)
    }
}

/// Splits `0..total` into `parts` contiguous chunks balanced to within one
/// element and returns chunk `index`.
///
/// The first `total % parts` chunks get one extra element.
///
/// # Panics
/// Panics if `index >= parts` or `parts == 0`.
pub fn static_chunk(total: usize, parts: usize, index: usize) -> Range<usize> {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(index < parts, "chunk index out of range");
    let base = total / parts;
    let extra = total % parts;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..start + len
}

/// The inverse of [`static_chunk`]: which of the `parts` chunks of
/// `0..total` owns element `i`. The simulator uses this to route a spike to
/// the team member that owns the destination core without scanning chunks.
///
/// For every valid `(total, parts)`,
/// `static_chunk(total, parts, chunk_owner(total, parts, i)).contains(&i)`.
///
/// # Panics
/// Panics if `parts == 0` or `i >= total`.
#[inline]
pub fn chunk_owner(total: usize, parts: usize, i: usize) -> usize {
    assert!(parts > 0, "cannot split into zero parts");
    assert!(i < total, "element index out of range");
    let base = total / parts;
    let extra = total % parts;
    // The first `extra` chunks have `base + 1` elements and jointly cover
    // `0..boundary`; the rest have exactly `base`.
    let boundary = extra * (base + 1);
    if i < boundary {
        i / (base + 1)
    } else {
        extra + (i - boundary) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn parallel_runs_every_member_once() {
        let team = ThreadTeam::new(4);
        let hits = AtomicU64::new(0);
        team.parallel(|ctx| {
            hits.fetch_add(1 << (8 * ctx.tid()), Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 0x01_01_01_01);
    }

    #[test]
    fn regions_are_sequentially_consistent_with_caller() {
        let team = ThreadTeam::new(3);
        let mut data = vec![0u64; 3];
        // The region borrows the caller's stack mutably through an atomic
        // view; after `parallel` returns the writes must be visible.
        let view: Vec<AtomicU64> = (0..3).map(|_| AtomicU64::new(0)).collect();
        team.parallel(|ctx| {
            view[ctx.tid()].store(ctx.tid() as u64 + 1, Ordering::SeqCst);
        });
        for (d, v) in data.iter_mut().zip(&view) {
            *d = v.load(Ordering::SeqCst);
        }
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn many_back_to_back_regions() {
        let team = ThreadTeam::new(4);
        let counter = AtomicUsize::new(0);
        for _ in 0..100 {
            team.parallel(|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn team_barrier_orders_phases() {
        let team = ThreadTeam::new(4);
        let phase1 = AtomicUsize::new(0);
        let ok = AtomicUsize::new(0);
        team.parallel(|ctx| {
            phase1.fetch_add(1, Ordering::SeqCst);
            ctx.barrier();
            if phase1.load(Ordering::SeqCst) == 4 {
                ok.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn critical_section_is_mutually_exclusive() {
        let team = ThreadTeam::new(4);
        // A read-modify-write split into a separate load and store: without
        // mutual exclusion, two members interleaving between the load and
        // the store lose an update. Atomics keep the race free of undefined
        // behaviour; only the critical section keeps the count exact.
        let counter = AtomicUsize::new(0);
        team.parallel(|ctx| {
            for _ in 0..500 {
                ctx.critical(|| {
                    let v = counter.load(Ordering::Relaxed);
                    std::hint::black_box(v);
                    counter.store(v + 1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 2000);
    }

    #[test]
    fn critical_times_accumulate() {
        let team = ThreadTeam::new(3);
        team.parallel(|ctx| {
            ctx.critical(|| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let (_wait, hold) = team.critical_times();
        // Three members each held for ~2 ms.
        assert!(hold >= std::time::Duration::from_millis(5), "hold {hold:?}");
    }

    #[test]
    fn size_one_team_runs_inline() {
        let team = ThreadTeam::new(1);
        let caller = std::thread::current().id();
        let ran_on = crate::sync::Mutex::new(None);
        team.parallel(|ctx| {
            assert_eq!(ctx.size(), 1);
            assert!(ctx.is_master());
            *ran_on.lock() = Some(std::thread::current().id());
        });
        // Single-member team: closure runs on the calling thread itself.
        assert_eq!(ran_on.into_inner(), Some(caller));
    }

    #[test]
    fn static_chunks_partition_exactly() {
        for total in [0usize, 1, 7, 16, 100, 101] {
            for parts in 1..=8 {
                let mut covered = vec![false; total];
                let mut sizes = vec![];
                for idx in 0..parts {
                    let r = static_chunk(total, parts, idx);
                    sizes.push(r.len());
                    for i in r {
                        assert!(!covered[i], "overlap at {i}");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap in coverage");
                let max = sizes.iter().max().unwrap();
                let min = sizes.iter().min().unwrap();
                assert!(max - min <= 1, "imbalanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn chunk_owner_inverts_static_chunk() {
        for total in [1usize, 2, 7, 16, 100, 101, 255] {
            for parts in 1..=9 {
                for i in 0..total {
                    let owner = chunk_owner(total, parts, i);
                    assert!(
                        static_chunk(total, parts, owner).contains(&i),
                        "total={total} parts={parts} i={i} owner={owner}"
                    );
                }
            }
        }
    }

    #[test]
    fn chunk_matches_free_function() {
        let team = ThreadTeam::new(3);
        team.parallel(|ctx| {
            assert_eq!(ctx.chunk(10), static_chunk(10, 3, ctx.tid()));
        });
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_size_team_rejected() {
        let _ = ThreadTeam::new(0);
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        for _ in 0..5 {
            let team = ThreadTeam::new(3);
            team.parallel(|_| {});
            drop(team);
        }
    }

    #[test]
    fn parallel_mut_hands_each_member_its_own_element_once() {
        for size in 1..=4 {
            let team = ThreadTeam::new(size);
            let mut items: Vec<(usize, u32)> = vec![(usize::MAX, 0); size];
            for _ in 0..10 {
                team.parallel_mut(&mut items, |ctx, item| {
                    assert_eq!(ctx.size(), size);
                    item.0 = ctx.tid();
                    item.1 += 1;
                });
            }
            let want: Vec<(usize, u32)> = (0..size).map(|tid| (tid, 10)).collect();
            assert_eq!(items, want, "team of {size}");
        }
    }

    #[test]
    fn parallel_mut_on_a_team_of_one_runs_inline() {
        let team = ThreadTeam::new(1);
        let mut ran_on = [None];
        team.parallel_mut(&mut ran_on, |ctx, slot| {
            assert!(ctx.is_master());
            *slot = Some(std::thread::current().id());
        });
        assert_eq!(ran_on, [Some(std::thread::current().id())]);
    }

    #[test]
    #[should_panic(expected = "one item per team member")]
    fn parallel_mut_rejects_a_length_mismatch() {
        let team = ThreadTeam::new(3);
        team.parallel_mut(&mut [0u8; 2], |_, _| {});
    }

    /// Runs `f` on a thread of its own and returns its result, failing the
    /// test instead of hanging it when `f` has not returned within 10 s (the
    /// hung thread is then left behind: it cannot be joined).
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        use std::sync::mpsc::RecvTimeoutError;
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(out) => {
                runner.join().expect("the runner returned a result");
                out
            }
            Err(RecvTimeoutError::Disconnected) => {
                panic::resume_unwind(runner.join().expect_err("the runner panicked"))
            }
            Err(RecvTimeoutError::Timeout) => panic!("the team hung (no return within 10 s)"),
        }
    }

    /// Whether a region counts every member once.
    fn runs_a_region(team: &ThreadTeam) -> bool {
        let hits = AtomicUsize::new(0);
        team.parallel(|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        hits.into_inner() == team.size()
    }

    #[test]
    fn a_worker_panic_is_raised_on_the_caller() {
        let (caught, still_runs) = within_deadline(|| {
            let team = ThreadTeam::new(2);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                team.parallel(|ctx| {
                    if !ctx.is_master() {
                        panic!("worker failed");
                    }
                });
            }));
            let message = caught
                .err()
                .and_then(|payload| payload.downcast_ref::<&str>().map(|s| s.to_string()));
            (message, runs_a_region(&team))
        });
        assert_eq!(caught.as_deref(), Some("worker failed"));
        assert!(still_runs, "the team must run the next region");
    }

    #[test]
    fn a_master_panic_unwinds_only_after_the_workers_leave() {
        /// Raises its flag when dropped: on the master, once it unwinds.
        struct RaiseOnDrop<'a>(&'a AtomicBool);
        impl Drop for RaiseOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let (counted, still_runs) = within_deadline(|| {
            let team = ThreadTeam::new(2);
            let (unwinding, counter) = (AtomicBool::new(false), AtomicUsize::new(0));
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                team.parallel(|ctx| {
                    if ctx.is_master() {
                        let _unwinding = RaiseOnDrop(&unwinding);
                        panic!("master failed");
                    }
                    // The worker is still in the region after the master
                    // has started unwinding.
                    while !unwinding.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }));
            assert!(caught.is_err(), "the master's panic must reach the caller");
            (counter.load(Ordering::SeqCst), runs_a_region(&team))
        });
        assert_eq!(counted, 1, "the worker finished before the region unwound");
        assert!(still_runs, "the team must run the next region");
    }
}
