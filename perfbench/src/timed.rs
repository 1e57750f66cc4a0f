//! The benchmark's own `gm-workload` wrapper: a [`Backend`] whose sessions time
//! every `execute` call around the inner session and record it in a
//! [`FineHist`], next to the per-op facts the output checks need.

use std::sync::Mutex;
use std::time::Instant;

use gm_model::GdbResult;
use gm_workload::{Backend, Op, OpResult, PhaseNanos, Session};

use crate::stats::FineHist;

/// Everything the wrapper saw over one or more runs.
#[derive(Clone, Default)]
pub struct Tally {
    /// Latency of every completed op, in nanoseconds.
    pub hist: FineHist,
    /// Completed ops.
    pub ops: u64,
    /// Completed write ops.
    pub writes: u64,
    /// Ops that returned an error.
    pub errors: u64,
    /// Transaction commits the sessions attempted (commit cadence applied
    /// to the writes each session issued).
    pub commits: u64,
    /// Reads whose serving epoch was lower than the session's previous one.
    pub epoch_regressions: u64,
    /// Highest serving epoch any read reported.
    pub max_epoch: u64,
    /// Sum of the per-op phase vectors.
    pub phases: PhaseNanos,
    /// Sum of the per-op latencies, in nanoseconds.
    pub latency_ns: u64,
    /// Ops whose phase vector summed to more than their measured latency.
    pub phase_overruns: u64,
}

impl Tally {
    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.hist.merge(&other.hist);
        self.ops += other.ops;
        self.writes += other.writes;
        self.errors += other.errors;
        self.commits += other.commits;
        self.epoch_regressions += other.epoch_regressions;
        self.max_epoch = self.max_epoch.max(other.max_epoch);
        self.phases.accumulate(&other.phases);
        self.latency_ns += other.latency_ns;
        self.phase_overruns += other.phase_overruns;
    }
}

/// Wraps a backend; every session it opens is timed.
pub struct TimedBackend<'a> {
    inner: &'a dyn Backend,
    /// Writes per transaction commit (0: autocommit, no commits counted).
    txn_ops: u64,
    tally: Mutex<Tally>,
}

impl<'a> TimedBackend<'a> {
    /// Time `inner`'s sessions; `txn_ops` is the inner backend's commit
    /// cadence (0 when it autocommits).
    pub fn new(inner: &'a dyn Backend, txn_ops: u64) -> Self {
        TimedBackend {
            inner,
            txn_ops,
            tally: Mutex::new(Tally::default()),
        }
    }

    /// What every session opened so far recorded.
    pub fn into_tally(self) -> Tally {
        self.tally
            .into_inner()
            .expect("a timed session panicked while merging its tally")
    }
}

impl Backend for TimedBackend<'_> {
    fn engine(&self) -> String {
        self.inner.engine()
    }

    fn isolation(&self) -> String {
        self.inner.isolation()
    }

    fn open_session(&self, worker: usize) -> GdbResult<Box<dyn Session + '_>> {
        Ok(Box::new(TimedSession {
            inner: self.inner.open_session(worker)?,
            parent: self,
            local: Tally::default(),
            last_epoch: None,
        }))
    }
}

struct TimedSession<'a> {
    inner: Box<dyn Session + 'a>,
    parent: &'a TimedBackend<'a>,
    local: Tally,
    last_epoch: Option<u64>,
}

impl Session for TimedSession<'_> {
    fn execute(&mut self, op: Op, worker: usize, op_index: u64) -> GdbResult<OpResult> {
        let start = Instant::now();
        let result = self.inner.execute(op, worker, op_index);
        let nanos = start.elapsed().as_nanos() as u64;
        let t = &mut self.local;
        match &result {
            Ok(res) => {
                t.ops += 1;
                t.writes += u64::from(op.is_write());
                t.hist.record(nanos);
                t.latency_ns += nanos;
                t.phases.accumulate(&res.phases);
                if res.phases.total() > nanos {
                    t.phase_overruns += 1;
                }
                if let Some(epoch) = res.epoch {
                    if self.last_epoch.is_some_and(|last| epoch < last) {
                        t.epoch_regressions += 1;
                    }
                    self.last_epoch = Some(epoch);
                    t.max_epoch = t.max_epoch.max(epoch);
                }
            }
            Err(_) => t.errors += 1,
        }
        result
    }

    fn finish(&mut self) -> GdbResult<()> {
        // The inner session commits every `txn_ops` writes and once more at
        // finish for a partial batch.
        let n = self.parent.txn_ops;
        if n > 0 {
            self.local.commits = self.local.writes.div_ceil(n);
        }
        self.inner.finish()
    }

    fn txn_conflicts(&self) -> u64 {
        self.inner.txn_conflicts()
    }
}

impl Drop for TimedSession<'_> {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned tally means another session
        // already panicked, and that run is reported as failed anyway.
        if let Ok(mut tally) = self.parent.tally.lock() {
            tally.merge(&self.local);
        }
    }
}
