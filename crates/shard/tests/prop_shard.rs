//! Property test: arbitrary interleavings of mutations and composite pins
//! against a [`ShardedSource`] (3 shards, one CowCell each) always match a
//! **single-shard oracle** (a plain unsharded engine):
//!
//! * every read answer (counts, degrees, properties) equals the oracle's;
//! * retained pins never tear — a multi-shard mutation (vertex removal
//!   with cross-shard in-edges) is atomic with respect to pins, so a pin
//!   can never observe a vertex gone from its owner shard while its ghost
//!   edges survive elsewhere;
//! * composite epochs (min over shard epochs) are monotone.
//!
//! Each mutation step draws which entry point of the source's one routing
//! writer it runs through: autocommit `with_write`, or a one-op staged
//! commit through `txn_commit` (the call `WriteTxn::commit` makes, invoked
//! directly so the step's real composite ids come back). Vertex removals,
//! edge removals and ghost-creating cut edges are thereby checked against
//! the same oracle from both sides.

use engine_linked::LinkedGraph;
use gm_model::api::{Direction, GraphDb, GraphSnapshot, LoadOptions};
use gm_model::{testkit, Eid, GdbResult, QueryCtx, Value, Vid};
use gm_mvcc::{CowCell, SnapshotSource};
use gm_shard::ShardedSource;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    AddVertex,
    AddEdge(usize, usize),
    RemoveVertex(usize),
    RemoveEdge(usize),
    SetProp(usize, i64),
    Pin,
    Read(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => Just(Step::AddVertex),
        4 => (0usize..64, 0usize..64).prop_map(|(a, b)| Step::AddEdge(a, b)),
        1 => (0usize..64).prop_map(Step::RemoveVertex),
        2 => (0usize..64).prop_map(Step::RemoveEdge),
        2 => (0usize..64, -100i64..100).prop_map(|(i, x)| Step::SetProp(i, x)),
        2 => Just(Step::Pin),
        3 => (0usize..64).prop_map(Step::Read),
    ]
}

/// A retained pin plus the oracle state recorded at pin time.
struct Pinned {
    snap: Box<dyn GraphSnapshot>,
    vertices: u64,
    edges: u64,
}

/// Run one mutation through autocommit `with_write` or, with `via_commit`,
/// through a one-op `txn_commit`, returning the mutation's own result.
fn mutate<T>(
    src: &ShardedSource,
    via_commit: bool,
    op: impl Fn(&mut dyn GraphDb) -> GdbResult<T>,
) -> GdbResult<T> {
    let mut out = None;
    let mut f = |db: &mut dyn GraphDb| {
        out = Some(op(db)?);
        Ok(1)
    };
    if via_commit {
        let seq = src.txn_log().expect("composite log").seq();
        src.txn_commit(seq, &[], &mut f)?;
    } else {
        src.with_write(&mut f)?;
    }
    Ok(out.expect("mutation ran"))
}

fn counts(db: &dyn GraphSnapshot) -> (u64, u64) {
    let ctx = QueryCtx::unbounded();
    (
        db.vertex_count(&ctx).expect("vertex_count"),
        db.edge_count(&ctx).expect("edge_count"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sharded_source_matches_single_shard_oracle(
        steps in prop::collection::vec((arb_step(), any::<bool>()), 0..70)
    ) {
        let data = testkit::chain_dataset(12);
        let src = ShardedSource::from_factory(3, || {
            Box::new(CowCell::new(LinkedGraph::v1())) as Box<dyn SnapshotSource>
        });
        src.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        }).expect("load sharded source");
        let mut oracle = LinkedGraph::v1();
        oracle.bulk_load(&data, &LoadOptions::default()).expect("load oracle");

        // Parallel element pools; positions correspond across the sides.
        let first = src.snapshot().expect("initial pin");
        let mut sh_vs: Vec<Vid> = (0..12).map(|c| first.resolve_vertex(c).unwrap()).collect();
        let mut orc_vs: Vec<Vid> = (0..12).map(|c| oracle.resolve_vertex(c).unwrap()).collect();
        drop(first);
        let mut sh_es: Vec<Eid> = Vec::new();
        let mut orc_es: Vec<Eid> = Vec::new();

        let mut pins: Vec<Pinned> = Vec::new();
        let mut last_epoch = 0u64;
        let ctx = QueryCtx::unbounded();

        for (step, via_commit) in steps {
            match step {
                Step::AddVertex => {
                    let sv = mutate(&src, via_commit, |db| db.add_vertex("p_node", &vec![]))
                        .expect("sharded add vertex");
                    let ov = oracle.add_vertex("p_node", &vec![]).expect("oracle add vertex");
                    sh_vs.push(sv);
                    orc_vs.push(ov);
                }
                Step::AddEdge(a, b) => {
                    let (i, j) = (a % sh_vs.len(), b % sh_vs.len());
                    let (ssrc, sdst) = (sh_vs[i], sh_vs[j]);
                    let (osrc, odst) = (orc_vs[i], orc_vs[j]);
                    let sr = mutate(&src, via_commit, |db| db.add_edge(ssrc, sdst, "p_edge", &vec![]));
                    let or = oracle.add_edge(osrc, odst, "p_edge", &vec![]);
                    prop_assert_eq!(sr.is_ok(), or.is_ok(), "add_edge outcome diverged");
                    if let (Ok(se), Ok(oe)) = (sr, or) {
                        sh_es.push(se);
                        orc_es.push(oe);
                    }
                }
                Step::RemoveVertex(i) => {
                    if sh_vs.is_empty() { continue; }
                    let i = i % sh_vs.len();
                    let (sv, ov) = (sh_vs[i], orc_vs[i]);
                    let sr = mutate(&src, via_commit, |db| db.remove_vertex(sv));
                    let or = oracle.remove_vertex(ov);
                    prop_assert_eq!(sr.is_ok(), or.is_ok(), "remove_vertex outcome diverged");
                    if or.is_ok() {
                        sh_vs.remove(i);
                        orc_vs.remove(i);
                        // Drop edge-pool entries that died with the vertex
                        // (matching positions on both sides, so compare via
                        // the oracle's view of edge existence).
                        let mut k = 0;
                        while k < orc_es.len() {
                            if oracle.edge_label(orc_es[k]).ok().flatten().is_none() {
                                orc_es.remove(k);
                                sh_es.remove(k);
                            } else {
                                k += 1;
                            }
                        }
                    }
                }
                Step::RemoveEdge(i) => {
                    if sh_es.is_empty() { continue; }
                    let i = i % sh_es.len();
                    let (se, oe) = (sh_es[i], orc_es[i]);
                    let sr = mutate(&src, via_commit, |db| db.remove_edge(se));
                    let or = oracle.remove_edge(oe);
                    prop_assert_eq!(sr.is_ok(), or.is_ok(), "remove_edge outcome diverged");
                    sh_es.remove(i);
                    orc_es.remove(i);
                }
                Step::SetProp(i, x) => {
                    if sh_vs.is_empty() { continue; }
                    let i = i % sh_vs.len();
                    let (sv, ov) = (sh_vs[i], orc_vs[i]);
                    let sr = mutate(&src, via_commit, |db| {
                        db.set_vertex_property(sv, "p_prop", Value::Int(x))
                    });
                    let or = oracle.set_vertex_property(ov, "p_prop", Value::Int(x));
                    prop_assert_eq!(sr.is_ok(), or.is_ok(), "set_vertex_property diverged");
                }
                Step::Pin => {
                    let snap = src.snapshot().expect("pin");
                    prop_assert!(
                        snap.epoch() >= last_epoch,
                        "composite epoch went backwards: {} after {}",
                        snap.epoch(), last_epoch
                    );
                    last_epoch = snap.epoch();
                    let (v, e) = counts(&oracle);
                    prop_assert_eq!(counts(snap.as_ref()), (v, e), "pin disagrees with oracle");
                    pins.push(Pinned { snap, vertices: v, edges: e });
                }
                Step::Read(i) => {
                    let snap = src.snapshot().expect("read pin");
                    prop_assert_eq!(
                        counts(snap.as_ref()), counts(&oracle),
                        "read disagrees with oracle"
                    );
                    if !sh_vs.is_empty() {
                        let i = i % sh_vs.len();
                        let (sv, ov) = (sh_vs[i], orc_vs[i]);
                        // Cross-shard structure: degrees in every direction
                        // (in-degree gathers ghost shards), plus a property.
                        for dir in Direction::ALL {
                            prop_assert_eq!(
                                snap.vertex_degree(sv, dir, &ctx).expect("sharded degree"),
                                oracle.vertex_degree(ov, dir, &ctx).expect("oracle degree"),
                                "degree({:?}) diverged", dir
                            );
                        }
                        prop_assert_eq!(
                            snap.vertex_property(sv, "p_prop").expect("sharded prop"),
                            oracle.vertex_property(ov, "p_prop").expect("oracle prop"),
                            "property read diverged"
                        );
                    }
                }
            }
        }

        // No torn cross-shard reads: every retained pin still answers with
        // the state recorded when it was taken — a vertex removal whose
        // ghost-edge cleanup spanned shards can never be half-visible.
        for (i, pin) in pins.iter().enumerate() {
            prop_assert_eq!(
                counts(pin.snap.as_ref()),
                (pin.vertices, pin.edges),
                "pin {} tore: counts drifted after later writes", i
            );
        }
    }
}
