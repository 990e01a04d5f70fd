//! The condvar-based admission queue that turns many concurrent connections into shared fused
//! batches: connection threads [`submit`](AdmissionQueue::submit) one job each and block on a
//! private response channel; the single executor thread blocks in
//! [`next_batch`](AdmissionQueue::next_batch), which releases a batch when
//!
//! * the queue holds at least `max_batch` jobs (**flush on size**), or
//! * the oldest job has waited `flush_us` microseconds (**flush on deadline**), or
//! * a job's own `deadline_us` expires sooner than the flush window (a deadline storm must not
//!   sit out the full window), or
//! * the queue is closed (drain: everything still pending is released in final batches).
//!
//! Batch *selection* is deadline-aware: under
//! [`AdmissionOrder::EarliestDeadlineFirst`](rayflex_rtunit::AdmissionOrder) the pending jobs
//! are sorted by absolute deadline (no deadline sorts last; ties by arrival) before the first
//! `max_batch` are taken, so under overload the tightest-deadline requests are served first —
//! the queue-level mirror of the scheduler-level admission knob.

use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use rayflex_rtunit::AdmissionOrder;
use rayflex_workloads::wire::{RequestFrame, ResponseFrame};

/// One admitted request waiting for a batch slot.
#[derive(Debug)]
pub struct Job {
    /// The decoded request.
    pub request: RequestFrame,
    /// When the job entered the queue (deadlines and flush windows are measured from here).
    pub enqueued_at: Instant,
    /// Arrival sequence number — the FIFO key, and the deadline tie-breaker.
    pub seq: u64,
    /// Where the executor sends the response; the connection thread blocks on the other end.
    pub responder: SyncSender<ResponseFrame>,
}

impl Job {
    /// The job's absolute deadline, or `None` for `deadline_us == 0`.
    #[must_use]
    pub fn absolute_deadline(&self) -> Option<Instant> {
        (self.request.deadline_us > 0)
            .then(|| self.enqueued_at + Duration::from_micros(self.request.deadline_us))
    }

    /// Microseconds until the job's deadline as the scheduler's sort key: `0` = no deadline,
    /// already-expired deadlines clamp to `1` (most urgent).
    #[must_use]
    pub fn remaining_deadline_us(&self, now: Instant) -> u64 {
        match self.absolute_deadline() {
            None => 0,
            Some(at) => at
                .saturating_duration_since(now)
                .as_micros()
                .max(1)
                .min(u64::MAX as u128) as u64,
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    pending: VecDeque<Job>,
    next_seq: u64,
    closed: bool,
}

/// The shared admission queue.  Cheap to share: one mutex, one condvar.
#[derive(Debug, Default)]
pub struct AdmissionQueue {
    state: Mutex<QueueState>,
    /// Signalled on every submit and on close; the executor waits here.
    arrived: Condvar,
}

impl AdmissionQueue {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Admits one request.  Returns `false` (dropping the job) when the queue is closed — the
    /// caller answers the client with a shutting-down error instead of blocking forever on a
    /// response that will never come.
    pub fn submit(&self, request: RequestFrame, responder: SyncSender<ResponseFrame>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return false;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.pending.push_back(Job {
            request,
            enqueued_at: Instant::now(),
            seq,
            responder,
        });
        drop(state);
        self.arrived.notify_one();
        true
    }

    /// Closes the queue: no further submissions are admitted, and once the pending jobs drain,
    /// [`AdmissionQueue::next_batch`] returns `None`.
    pub fn close(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.arrived.notify_all();
    }

    /// How many jobs are waiting right now (diagnostics).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pending
            .len()
    }

    /// Blocks until a batch is due (see the module docs for the flush conditions), then removes
    /// and returns up to `max_batch` jobs, selected and ordered by `admission`.  Returns `None`
    /// exactly once the queue is closed **and** empty — the executor's signal to exit after a
    /// complete drain.
    pub fn next_batch(
        &self,
        max_batch: usize,
        flush_us: u64,
        admission: AdmissionOrder,
    ) -> Option<Vec<Job>> {
        let max_batch = max_batch.max(1);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.closed {
                if state.pending.is_empty() {
                    return None;
                }
                return Some(Self::take_batch(&mut state, max_batch, admission));
            }
            if state.pending.len() >= max_batch {
                return Some(Self::take_batch(&mut state, max_batch, admission));
            }
            if let Some(due_at) = Self::flush_due_at(&state, flush_us) {
                let now = Instant::now();
                if due_at <= now {
                    return Some(Self::take_batch(&mut state, max_batch, admission));
                }
                let (next, _) = self
                    .arrived
                    .wait_timeout(state, due_at - now)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
            } else {
                state = self
                    .arrived
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    /// When the current pending set must flush: the oldest job's flush window, tightened by any
    /// job's own deadline.  `None` when nothing is pending.
    fn flush_due_at(state: &QueueState, flush_us: u64) -> Option<Instant> {
        let oldest = state.pending.front()?;
        let mut due = oldest.enqueued_at + Duration::from_micros(flush_us);
        for job in &state.pending {
            if let Some(deadline) = job.absolute_deadline() {
                due = due.min(deadline);
            }
        }
        Some(due)
    }

    fn take_batch(state: &mut QueueState, max_batch: usize, admission: AdmissionOrder) -> Vec<Job> {
        match admission {
            AdmissionOrder::Fifo => {
                let take = state.pending.len().min(max_batch);
                state.pending.drain(..take).collect()
            }
            AdmissionOrder::EarliestDeadlineFirst => {
                let mut jobs: Vec<Job> = state.pending.drain(..).collect();
                jobs.sort_by_key(|job| (job.absolute_deadline(), job.seq));
                // `None < Some(_)` for Option keys, but "no deadline" must sort *last*; split
                // and re-append instead of fighting the ordering.
                let (dated, dateless): (Vec<Job>, Vec<Job>) = jobs
                    .into_iter()
                    .partition(|job| job.absolute_deadline().is_some());
                let mut ordered = dated;
                ordered.extend(dateless);
                // Re-queue the remainder in arrival order so FIFO fairness inside it survives:
                // one sort of the leftovers, not a scan-and-insert per job (quadratic in depth).
                let mut keep: Vec<Job> = ordered.split_off(max_batch.min(ordered.len()));
                keep.sort_unstable_by_key(|job| job.seq);
                state.pending.extend(keep);
                ordered
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayflex_workloads::wire::RequestBody;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;

    fn request(deadline_us: u64) -> RequestFrame {
        RequestFrame {
            request_id: deadline_us,
            tenant: 0,
            deadline_us,
            scene: "wall".into(),
            body: RequestBody::Shutdown,
        }
    }

    fn submit(queue: &AdmissionQueue, deadline_us: u64) {
        let (tx, _rx) = sync_channel(1);
        // Keep the receiver alive long enough for the test by leaking it into the channel pair;
        // the queue itself never sends.
        std::mem::forget(_rx);
        assert!(queue.submit(request(deadline_us), tx));
    }

    #[test]
    fn flush_on_size_releases_exactly_max_batch() {
        let queue = AdmissionQueue::new();
        for _ in 0..5 {
            submit(&queue, 0);
        }
        let batch = queue
            .next_batch(3, 1_000_000, AdmissionOrder::Fifo)
            .unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn edf_selection_orders_by_deadline_and_requeues_the_rest_in_arrival_order() {
        let queue = AdmissionQueue::new();
        submit(&queue, 0); // seq 0: no deadline — sorts last
        submit(&queue, 90_000_000); // seq 1: loose deadline
        submit(&queue, 1_000_000); // seq 2: tight deadline — first
        submit(&queue, 50_000_000); // seq 3
        let batch = queue
            .next_batch(2, 1_000_000_000, AdmissionOrder::EarliestDeadlineFirst)
            .unwrap();
        let seqs: Vec<u64> = batch.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![2, 3], "tightest deadlines first");
        // The remainder keeps arrival order.
        let rest = queue
            .next_batch(4, 0, AdmissionOrder::EarliestDeadlineFirst)
            .unwrap();
        let seqs: Vec<u64> = rest.iter().map(|j| j.seq).collect();
        assert_eq!(seqs, vec![1, 0], "dated before dateless");
    }

    /// A pending set of `n` jobs with seeded deadlines (a third dateless, the rest spread over
    /// a range narrow enough to collide), all enqueued at offsets from one fixed `base`.
    fn seeded_state(seed: u64, n: usize, base: Instant) -> QueueState {
        let mut x = seed;
        let mut next = move || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 33
        };
        let pending = (0..n as u64)
            .map(|seq| {
                let deadline_us = if next() % 3 == 0 { 0 } else { 1 + next() % 64 };
                let (responder, receiver) = sync_channel(1);
                std::mem::forget(receiver);
                Job {
                    request: request(deadline_us),
                    enqueued_at: base + Duration::from_micros(next() % 32),
                    seq,
                    responder,
                }
            })
            .collect();
        QueueState {
            pending,
            next_seq: n as u64,
            closed: false,
        }
    }

    /// The EDF take as first written: every leftover job is put back with a position scan and a
    /// `VecDeque::insert` (quadratic in queue depth).  The reference the linear re-queue must
    /// match exactly.
    fn quadratic_edf_take(state: &mut QueueState, max_batch: usize) -> Vec<Job> {
        let mut jobs: Vec<Job> = state.pending.drain(..).collect();
        jobs.sort_by_key(|job| (job.absolute_deadline(), job.seq));
        let (dated, dateless): (Vec<Job>, Vec<Job>) = jobs
            .into_iter()
            .partition(|job| job.absolute_deadline().is_some());
        let mut ordered = dated;
        ordered.extend(dateless);
        let keep: Vec<Job> = ordered.split_off(max_batch.min(ordered.len()));
        for job in keep {
            let at = state
                .pending
                .iter()
                .position(|queued| queued.seq > job.seq)
                .unwrap_or(state.pending.len());
            state.pending.insert(at, job);
        }
        ordered
    }

    fn seqs<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> Vec<u64> {
        jobs.into_iter().map(|job| job.seq).collect()
    }

    #[test]
    fn edf_requeue_selects_and_orders_exactly_like_the_quadratic_reference() {
        let base = Instant::now();
        for seed in 0..16u64 {
            let mut linear = seeded_state(seed, 200, base);
            let mut reference = seeded_state(seed, 200, base);
            let mut round = 0u64;
            while !reference.pending.is_empty() {
                let max_batch = 1 + ((seed * 31 + round * 7) % 40) as usize;
                let got = AdmissionQueue::take_batch(
                    &mut linear,
                    max_batch,
                    AdmissionOrder::EarliestDeadlineFirst,
                );
                let expected = quadratic_edf_take(&mut reference, max_batch);
                assert_eq!(
                    seqs(&got),
                    seqs(&expected),
                    "seed {seed} round {round}: batch"
                );
                assert_eq!(
                    seqs(&linear.pending),
                    seqs(&reference.pending),
                    "seed {seed} round {round}: remainder"
                );
                round += 1;
            }
            assert!(linear.pending.is_empty());
        }
    }

    #[test]
    fn a_deep_edf_take_requeues_the_remainder_in_arrival_order() {
        let mut state = seeded_state(7, 20_000, Instant::now());
        let batch =
            AdmissionQueue::take_batch(&mut state, 64, AdmissionOrder::EarliestDeadlineFirst);
        assert_eq!(batch.len(), 64);
        assert_eq!(state.pending.len(), 20_000 - 64);
        let rest = seqs(&state.pending);
        assert!(rest.windows(2).all(|w| w[0] < w[1]), "arrival order");
        let latest_taken = batch.iter().filter_map(Job::absolute_deadline).max();
        assert!(
            state
                .pending
                .iter()
                .filter_map(Job::absolute_deadline)
                .all(|deadline| Some(deadline) >= latest_taken),
            "the batch holds the tightest deadlines"
        );
    }

    #[test]
    fn flush_on_deadline_releases_a_short_batch() {
        let queue = Arc::new(AdmissionQueue::new());
        submit(&queue, 0);
        let start = Instant::now();
        let batch = queue.next_batch(64, 20_000, AdmissionOrder::Fifo).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            start.elapsed() >= Duration::from_micros(15_000),
            "the flush window must actually be waited out"
        );
    }

    #[test]
    fn a_jobs_own_deadline_tightens_the_flush_window() {
        let queue = AdmissionQueue::new();
        submit(&queue, 5_000); // 5 ms deadline, far below the 10 s flush window
        let start = Instant::now();
        let batch = queue
            .next_batch(64, 10_000_000, AdmissionOrder::Fifo)
            .unwrap();
        assert_eq!(batch.len(), 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the deadline-storm path must flush long before the window"
        );
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let queue = AdmissionQueue::new();
        for _ in 0..3 {
            submit(&queue, 0);
        }
        queue.close();
        let (tx, _rx) = sync_channel(1);
        assert!(!queue.submit(request(0), tx), "closed queues admit nothing");
        let drained = queue.next_batch(2, 0, AdmissionOrder::Fifo).unwrap();
        assert_eq!(drained.len(), 2);
        let drained = queue.next_batch(2, 0, AdmissionOrder::Fifo).unwrap();
        assert_eq!(drained.len(), 1);
        assert!(queue.next_batch(2, 0, AdmissionOrder::Fifo).is_none());
    }

    #[test]
    fn remaining_deadline_clamps_and_signals_none() {
        let (tx, _rx) = sync_channel(1);
        let job = Job {
            request: request(0),
            enqueued_at: Instant::now(),
            seq: 0,
            responder: tx,
        };
        assert_eq!(job.remaining_deadline_us(Instant::now()), 0, "0 = none");
        let (tx, _rx2) = sync_channel(1);
        let job = Job {
            request: request(10),
            enqueued_at: Instant::now() - Duration::from_secs(1),
            seq: 0,
            responder: tx,
        };
        assert_eq!(
            job.remaining_deadline_us(Instant::now()),
            1,
            "expired deadlines clamp to the most-urgent key"
        );
    }
}
