//! Property tests for the gm-trace flight recorder: the seqlock ring never
//! surfaces a torn record (single-threaded wraparound *and* concurrent
//! writers against a live reader), the tail gate always retains a clear
//! outlier, and `GM_TRACE=off` derives no ids and records nothing.
//!
//! The off-mode and determinism tests flip the process-global trace mode,
//! so they serialize on one mutex and restore the previous mode on exit
//! (drop guard — a panicking case must not poison the other tests).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use gm_obs::trace::{self, mix_id, TailGate, TraceMode, TraceOrigin, TraceRecord, TraceRing};
use gm_obs::PhaseNanos;
use proptest::prelude::*;

/// Serializes every test that touches the process-global trace mode.
static MODE_LOCK: Mutex<()> = Mutex::new(());

struct ModeGuard {
    _lock: MutexGuard<'static, ()>,
    prev: TraceMode,
}

impl Drop for ModeGuard {
    fn drop(&mut self) {
        trace::set_mode(self.prev);
    }
}

fn hold_mode(mode: TraceMode) -> ModeGuard {
    let lock = MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = trace::mode();
    trace::set_mode(mode);
    ModeGuard { _lock: lock, prev }
}

/// A record whose every field is a pure function of `k`, so a reader can
/// prove from any *one* field that the others were written by the same
/// push — the only way a seqlock tear could surface.
fn rec(k: u64) -> TraceRecord {
    let id = mix_id(0xFEED, 0, k);
    TraceRecord {
        id,
        worker: (k % 0xFFFF) as u32,
        op_index: k,
        op_code: (k % 40) as u16,
        start_us: k.wrapping_mul(3),
        total_nanos: id ^ 0xDEAD_BEEF,
        phases: PhaseNanos::zero(),
        origin: if k.is_multiple_of(2) {
            TraceOrigin::Client
        } else {
            TraceOrigin::Server
        },
        tail: k.is_multiple_of(3),
    }
}

/// Panic unless `r` is internally consistent with the [`rec`] scheme.
fn assert_untorn(r: &TraceRecord) {
    let k = r.op_index;
    let want = rec(k);
    assert_eq!(r.id, want.id, "id of op {k} disagrees with its op_index");
    assert_eq!(r.worker, want.worker, "worker torn for op {k}");
    assert_eq!(r.op_code, want.op_code, "op_code torn for op {k}");
    assert_eq!(r.start_us, want.start_us, "start_us torn for op {k}");
    assert_eq!(
        r.total_nanos, want.total_nanos,
        "total_nanos torn for op {k}"
    );
    assert_eq!(r.origin, want.origin, "origin torn for op {k}");
    assert_eq!(r.tail, want.tail, "tail flag torn for op {k}");
}

proptest! {
    /// Sequential pushes across arbitrary wraparound: the snapshot holds
    /// exactly the newest `min(count, cap)` records, each untorn.
    #[test]
    fn wraparound_keeps_the_newest_records_untorn(
        cap in 16usize..64,
        count in 0u64..300,
    ) {
        let ring = TraceRing::new(cap);
        for k in 0..count {
            prop_assert!(ring.push(&rec(k)), "uncontended push must land");
        }
        let snap = ring.snapshot();
        let kept = count.min(cap as u64);
        prop_assert_eq!(snap.len() as u64, kept);
        for r in &snap {
            assert_untorn(r);
            prop_assert!(
                r.op_index >= count - kept,
                "op {} survived past its generation (count {count}, cap {cap})",
                r.op_index
            );
        }
        // Every surviving id is retrievable — the exemplar contract.
        for k in (count - kept)..count {
            prop_assert!(ring.find(rec(k).id).is_some());
        }
    }

    /// An op slower than twice everything seen before it always qualifies
    /// as tail: the gate's threshold provably stays under `2·max + 2`.
    #[test]
    fn a_clear_outlier_is_always_tail(samples in prop::collection::vec(any::<u32>(), 1..200)) {
        let gate = TailGate::new();
        let mut max_seen: u64 = 0;
        for (i, &s) in samples.iter().enumerate() {
            let v = s as u64;
            let tail = gate.observe(v);
            if i == 0 || v > 2 * max_seen + 2 {
                prop_assert!(
                    tail,
                    "sample {i} = {v} (> 2·{max_seen}+2, threshold {}) must be tail",
                    gate.threshold()
                );
            }
            max_seen = max_seen.max(v);
        }
    }

    /// `GM_TRACE=off` is inert end to end: no ids derived, `record_op`
    /// refuses every record, the global ring does not grow.
    #[test]
    fn off_mode_derives_no_ids_and_records_nothing(
        seed in any::<u64>(),
        worker in any::<u32>(),
        op_index in any::<u64>(),
        nanos in any::<u64>(),
    ) {
        let _mode = hold_mode(TraceMode::Off);
        prop_assert_eq!(trace::derive_id(seed, worker, op_index), 0);
        let before = trace::global_ring().pushed();
        let gate = TailGate::new();
        let recorded = trace::record_op(
            &gate,
            mix_id(seed, worker, op_index),
            worker,
            op_index,
            1,
            TraceOrigin::Client,
            nanos,
            PhaseNanos::zero(),
        );
        prop_assert!(!recorded, "off mode must not record");
        prop_assert_eq!(trace::global_ring().pushed(), before, "ring grew in off mode");
    }

    /// In tail mode ids are nonzero, deterministic, and replay-stable:
    /// the same (seed, worker, op_index) always derives the same id.
    #[test]
    fn tail_mode_ids_are_deterministic_and_nonzero(
        seed in any::<u64>(),
        worker in any::<u32>(),
        op_index in any::<u64>(),
    ) {
        let _mode = hold_mode(TraceMode::Tail);
        let id = trace::derive_id(seed, worker, op_index);
        prop_assert_ne!(id, 0);
        prop_assert_eq!(id, trace::derive_id(seed, worker, op_index));
        prop_assert_eq!(id, mix_id(seed, worker, op_index));
    }
}

/// Concurrent writers racing live snapshotting readers across heavy
/// wraparound: every record any snapshot ever surfaces is untorn. (Plain
/// test, not proptest — the schedule is the randomness that matters.)
///
/// The ring is the smallest one and the threads outnumber the cores several
/// times over, so writers are preempted mid-publish while the others lap
/// their slot many times. A claim protocol that lets a second writer into a
/// slot still being written leaves a mixed record behind a stable `seq`
/// within the first few hundred such preemptions; the test runs for far
/// more.
#[test]
fn concurrent_writers_never_surface_a_torn_record() {
    let ring = TraceRing::new(16);
    // Writers and readers each three times the core count (cores capped at
    // 4): oversubscribed, so the scheduler preempts writers mid-publish.
    let threads = 3 * std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let writers = threads as u64;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..writers {
            let (ring, stop) = (&ring, &stop);
            s.spawn(move || {
                // Disjoint keys per writer; collisions under wraparound may
                // *drop* records, never tear them.
                let mut k = w;
                while !stop.load(Ordering::Acquire) {
                    ring.push(&rec(k));
                    k += writers;
                }
            });
        }
        for _ in 0..threads {
            let (ring, stop) = (&ring, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for r in ring.snapshot() {
                        assert_untorn(&r);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(500));
        stop.store(true, Ordering::Release);
    });
    // Quiescent: a final snapshot is fully populated and untorn.
    let snap = ring.snapshot();
    assert_eq!(snap.len(), ring.capacity());
    for r in &snap {
        assert_untorn(r);
    }
}
