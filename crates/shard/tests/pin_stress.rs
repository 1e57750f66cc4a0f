//! Composite-pin seqlock stress: writers churn the topology of a 3-shard
//! [`ShardedSource`] while pinners audit every pin they take.
//!
//! Writers mix the three kinds of multi-shard change the seqlock has to
//! make atomic: autocommit cut edges to fresh vertices (each creates a
//! ghost), autocommit removal of hub vertices with cross-shard in-edges
//! (each deletes ghosts), and staged commits of three vertices plus a cut
//! edge. Pinners alternate strict and maximally stale pins, and every pin
//! must be internally consistent:
//!
//! * in-neighbour gathers through ghosts never fail on a vertex the pin
//!   contains (a torn pin pairs a ghost entry with a cell view lacking it);
//! * the ghost-corrected vertex count never underflows and equals the
//!   ghost-filtered scan;
//! * counts reflect whole operations: committed transaction vertices come
//!   in threes with one cut edge each, and a hub's in-edges are visible
//!   only together with the hub.
//!
//! The run is time-bounded (about half a second), not op-bounded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use engine_linked::LinkedGraph;
use gm_model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use gm_model::{testkit, QueryCtx, Value, Vid};
use gm_mvcc::{CowCell, SnapshotSource, WriteTxn};
use gm_shard::ShardedSource;

const BASE: u64 = 12;
const RUN: Duration = Duration::from_millis(500);

/// Shared state between writers and pinners.
struct Churn {
    src: ShardedSource,
    /// Vertices ever created (bumped before each creation): the ceiling
    /// for any pinned vertex count.
    created: AtomicU64,
    /// Recent cut-edge destinations and hubs, for in-neighbour gathers.
    targets: Mutex<VecDeque<Vid>>,
    done: AtomicBool,
}

impl Churn {
    fn note_target(&self, v: Vid) {
        let mut t = self.targets.lock().unwrap();
        if t.len() == 32 {
            t.pop_front();
        }
        t.push_back(v);
    }

    fn add_vertex(&self, db: &mut dyn GraphDb, label: &str) -> gm_model::GdbResult<Vid> {
        self.created.fetch_add(1, Ordering::SeqCst);
        db.add_vertex(label, &vec![])
    }

    fn autocommit<T>(&self, f: impl Fn(&mut dyn GraphDb) -> gm_model::GdbResult<T>) -> T {
        let mut out = None;
        self.src
            .with_write(&mut |db| {
                out = Some(f(db)?);
                Ok(1)
            })
            .expect("autocommit write");
        out.expect("write ran")
    }

    /// Two fresh vertices and an edge between them: a new ghost whenever
    /// round-robin placement splits them.
    fn cut_edge_to_fresh(&self) {
        let b = self.autocommit(|db| {
            let a = self.add_vertex(db, "fresh")?;
            let b = self.add_vertex(db, "fresh")?;
            db.add_edge(a, b, "cut", &vec![])?;
            Ok(b)
        });
        self.note_target(b);
    }

    /// A hub with two in-edges from fresh vertices (usually on other
    /// shards), then the hub's removal, which deletes its ghosts.
    fn remove_hub(&self) {
        let hub = self.autocommit(|db| self.add_vertex(db, "hub"));
        self.note_target(hub);
        for _ in 0..2 {
            self.autocommit(|db| {
                let s = self.add_vertex(db, "spoke_src")?;
                db.add_edge(s, hub, "spoke", &vec![])
            });
        }
        self.autocommit(|db| db.remove_vertex(hub));
    }

    /// Three vertices and a cut edge, staged and committed atomically.
    fn commit_triple(&self) {
        let mut txn = WriteTxn::begin(&self.src).expect("begin");
        let kind = vec![("kind".to_string(), Value::Str("txn".into()))];
        let mut vs = Vec::new();
        for _ in 0..3 {
            self.created.fetch_add(1, Ordering::SeqCst);
            vs.push(txn.add_vertex("txn", &kind).expect("buffer vertex"));
        }
        txn.add_edge(vs[0], vs[1], "txn_cut", &vec![])
            .expect("buffer edge");
        txn.commit(&self.src)
            .expect("fresh-vertex commits never conflict");
    }

    fn writer(&self, id: usize) {
        let mut k = id;
        while !self.done.load(Ordering::Acquire) {
            match k % 3 {
                0 => self.cut_edge_to_fresh(),
                1 => self.remove_hub(),
                _ => self.commit_triple(),
            }
            k += 1;
        }
    }

    /// Audit one pin; returns a description of the first inconsistency.
    fn audit(&self, pin: &dyn GraphSnapshot) -> Result<(), String> {
        let ctx = QueryCtx::unbounded();
        let count = pin.vertex_count(&ctx).map_err(|e| format!("count: {e}"))?;
        let ceiling = BASE + self.created.load(Ordering::SeqCst);
        if count > ceiling {
            return Err(format!(
                "ghost-corrected count underflowed: {count} > {ceiling}"
            ));
        }
        let scanned = pin
            .scan_vertices(&ctx)
            .map_err(|e| format!("scan: {e}"))?
            .count() as u64;
        if scanned != count {
            return Err(format!(
                "count {count} disagrees with ghost-filtered scan {scanned}"
            ));
        }
        let targets: Vec<Vid> = self.targets.lock().unwrap().iter().copied().collect();
        for v in targets {
            if pin.vertex(v).map_err(|e| format!("vertex: {e}"))?.is_some() {
                pin.neighbors(v, Direction::In, None, &ctx)
                    .map_err(|e| format!("in-neighbours of {v} through ghosts: {e}"))?;
            }
        }
        let txn_vertices = pin
            .vertices_with_property("kind", &Value::Str("txn".into()), &ctx)
            .map_err(|e| format!("txn vertices: {e}"))?
            .len();
        let txn_edges = pin
            .edges_with_label("txn_cut", &ctx)
            .map_err(|e| format!("txn edges: {e}"))?
            .len();
        if txn_vertices != 3 * txn_edges {
            return Err(format!(
                "torn commit: {txn_vertices} txn vertices vs {txn_edges} txn edges"
            ));
        }
        for e in pin
            .edges_with_label("spoke", &ctx)
            .map_err(|e| format!("spokes: {e}"))?
        {
            let (_, hub) = pin
                .edge_endpoints(e)
                .map_err(|err| format!("spoke {e} endpoints: {err}"))?
                .ok_or_else(|| format!("listed spoke {e} has no endpoints"))?;
            let label = pin
                .vertex_label(hub)
                .map_err(|err| format!("spoke {e} hub: {err}"))?;
            if label.as_deref() != Some("hub") {
                return Err(format!(
                    "spoke {e} outlived its hub {hub} (label {label:?})"
                ));
            }
        }
        Ok(())
    }

    /// Pin until the run ends, alternating strict and stale pins; returns
    /// (pins audited, failures seen, first failure).
    fn pinner(&self, id: usize) -> (u64, u64, Option<String>) {
        let (mut pins, mut failures, mut first) = (0u64, 0u64, None);
        let mut strict = id.is_multiple_of(2);
        while !self.done.load(Ordering::Acquire) {
            let pin = if strict {
                self.src.snapshot()
            } else {
                self.src.snapshot_recent(Duration::from_secs(60))
            }
            .expect("pin");
            strict = !strict;
            pins += 1;
            if let Err(why) = self.audit(pin.as_ref()) {
                failures += 1;
                first.get_or_insert(why);
            }
        }
        (pins, failures, first)
    }
}

#[test]
fn composite_pins_stay_consistent_under_topology_churn() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4);
    let churn = Churn {
        src: ShardedSource::from_factory(3, || {
            Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
        }),
        created: AtomicU64::new(0),
        targets: Mutex::new(VecDeque::new()),
        done: AtomicBool::new(false),
    };
    churn
        .src
        .with_write(&mut |db| {
            db.bulk_load(&testkit::chain_dataset(BASE), &LoadOptions::default())?;
            Ok(0)
        })
        .expect("load");
    let (pins, failures, first) = std::thread::scope(|s| {
        let churn = &churn;
        for id in 0..3 * cores {
            s.spawn(move || churn.writer(id));
        }
        let pinners: Vec<_> = (0..3 * cores)
            .map(|id| s.spawn(move || churn.pinner(id)))
            .collect();
        let start = Instant::now();
        while start.elapsed() < RUN {
            std::thread::sleep(Duration::from_millis(10));
        }
        churn.done.store(true, Ordering::Release);
        pinners
            .into_iter()
            .map(|p| p.join().expect("pinner"))
            .fold((0, 0, None), |(p, f, first), (p2, f2, first2)| {
                (p + p2, f + f2, first.or(first2))
            })
    });
    assert!(pins > 0, "pinners ran");
    assert_eq!(
        failures, 0,
        "{failures} of {pins} pins were inconsistent; first: {first:?}"
    );
    // Quiescent end state: the audit holds on a strict pin too.
    let end = churn.src.snapshot().expect("final pin");
    churn.audit(end.as_ref()).expect("final state consistent");
}
