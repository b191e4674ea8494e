//! The reusable global barrier.
//!
//! §VII-A of the paper reports that the authors "experimented with writing
//! \[their\] own custom synchronization primitives" (subgroup barriers) but
//! found the platform-native barrier faster. [`CentralizedBarrier`] is the
//! native kind: a mutex/condvar generation barrier, the right default on
//! oversubscribed hosts where spinning burns the one core the other
//! participants need. It is *reusable*: the same instance synchronizes an
//! unbounded sequence of episodes, one per simulated tick.

use crate::sync::{Condvar, Mutex};
use crate::world::WaitStopped;
use crate::Rank;

/// Mutex + condvar generation barrier.
///
/// Functionally identical to [`std::sync::Barrier`] but exposes the
/// participant count and lets a participant [`leave`](Self::leave) or
/// [`join`](Self::join) between episodes.
#[derive(Debug)]
pub struct CentralizedBarrier {
    state: Mutex<CentralState>,
    cv: Condvar,
}

#[derive(Debug)]
struct CentralState {
    n: usize,
    arrived: usize,
    generation: u64,
    /// The participant whose failure stops every wait (see
    /// [`CentralizedBarrier::fail`]).
    failed: Option<Rank>,
}

impl CentralizedBarrier {
    /// Creates a barrier for `n >= 1` participants.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a barrier needs at least one participant");
        Self {
            state: Mutex::new(CentralState {
                n,
                arrived: 0,
                generation: 0,
                failed: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Permanently removes one participant from every future episode —
    /// how a dead rank leaves the PGAS commit barrier so survivors stop
    /// waiting for it. If the remaining participants have already all
    /// arrived, the current episode completes immediately.
    ///
    /// # Panics
    /// Panics if the barrier would be left with zero participants.
    pub fn leave(&self) {
        let mut st = self.state.lock();
        assert!(st.n > 1, "a barrier needs at least one participant");
        st.n -= 1;
        if st.arrived == st.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
        }
    }

    /// The inverse of [`CentralizedBarrier::leave`]: adds one participant
    /// to every future episode — how an admitted rank joins the PGAS
    /// commit barrier. The caller must guarantee no episode is in flight
    /// whose arrival count already assumed the old size (the elastic
    /// admission protocol orders the join after every incumbent's last
    /// commit and before any incumbent's next one).
    pub fn join(&self) {
        let mut st = self.state.lock();
        st.n += 1;
    }

    /// Stops every episode that has not completed: its waiters, and any
    /// participant that arrives later and would wait, unwind with
    /// [`WaitStopped`] naming `failed` — a participant that will never
    /// arrive. The first failure recorded is the one named.
    pub fn fail(&self, failed: Rank) {
        let mut st = self.state.lock();
        st.failed.get_or_insert(failed);
        self.cv.notify_all();
    }

    /// Blocks until all participants have called `wait` for the current
    /// episode. Returns `true` on exactly one participant per episode (the
    /// "leader", by analogy with [`std::sync::BarrierWaitResult`]).
    ///
    /// # Panics
    /// Unwinds with [`WaitStopped`] instead of waiting once a participant
    /// has failed ([`CentralizedBarrier::fail`]).
    pub fn wait(&self) -> bool {
        let mut st = self.state.lock();
        st.arrived += 1;
        if st.arrived == st.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            true
        } else {
            let gen = st.generation;
            while st.generation == gen {
                if let Some(failed) = st.failed {
                    drop(st);
                    WaitStopped { failed }.unwind()
                }
                self.cv.wait(&mut st);
            }
            false
        }
    }

    /// Number of participants this barrier synchronizes.
    pub fn participants(&self) -> usize {
        self.state.lock().n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn exercise(barrier: Arc<CentralizedBarrier>, n: usize, episodes: usize) {
        // Each episode: every thread adds its id to a shared sum, barrier,
        // checks the sum is complete, barrier, resets by leader.
        let sum = Arc::new(AtomicU64::new(0));
        let expected: u64 = (0..n as u64).sum();
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let b = barrier.clone();
                let sum = sum.clone();
                std::thread::spawn(move || {
                    for _ in 0..episodes {
                        sum.fetch_add(id as u64, Ordering::SeqCst);
                        b.wait();
                        assert_eq!(sum.load(Ordering::SeqCst), expected);
                        let leader = b.wait();
                        if leader {
                            sum.store(0, Ordering::SeqCst);
                        }
                        b.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn centralized_barrier_synchronizes_episodes() {
        exercise(Arc::new(CentralizedBarrier::new(4)), 4, 50);
    }

    #[test]
    fn single_participant_is_always_leader() {
        let b = CentralizedBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn exactly_one_leader_per_episode() {
        let n = 3;
        let b = Arc::new(CentralizedBarrier::new(n));
        let leaders = Arc::new(AtomicU64::new(0));
        let episodes = 20;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let b = b.clone();
                let leaders = leaders.clone();
                std::thread::spawn(move || {
                    for _ in 0..episodes {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), episodes as u64);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = CentralizedBarrier::new(0);
    }

    #[test]
    fn leave_releases_a_waiting_episode() {
        let b = Arc::new(CentralizedBarrier::new(3));
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.wait());
        // One participant arrives, one leaves: the lone waiter's episode
        // must complete without the third ever showing up.
        std::thread::sleep(std::time::Duration::from_millis(10));
        b.leave();
        b.leave();
        // The episode was completed by `leave`, not by a last arriver, so
        // the waiter takes the non-leader return path.
        assert!(!waiter.join().unwrap());
        assert_eq!(b.participants(), 1);
        assert!(b.wait(), "later episodes need only the survivors");
    }

    #[test]
    fn join_reverses_leave() {
        let b = Arc::new(CentralizedBarrier::new(2));
        b.leave();
        assert_eq!(b.participants(), 1);
        assert!(b.wait(), "lone participant is leader");
        b.join();
        assert_eq!(b.participants(), 2);
        // Later episodes need both participants again.
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.wait());
        std::thread::sleep(std::time::Duration::from_millis(5));
        b.wait();
        waiter.join().unwrap();
    }

    #[test]
    fn participants_reported() {
        assert_eq!(CentralizedBarrier::new(5).participants(), 5);
    }
}
