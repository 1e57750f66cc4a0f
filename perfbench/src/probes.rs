//! Single-thread probes of each layer's public functions, run by the traced
//! invocation after the measured passes. Each probe warms up first, then
//! repeats its call until a small time budget is spent and reports the mean
//! cost per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use engine_columnar::ColumnarGraph;
use engine_linked::LinkedGraph;
use engine_triple::TripleGraph;
use gm_core::catalog::{self, QueryId, QueryInstance};
use gm_core::params::{ResolvedParams, Workload as Params};
use gm_model::api::LoadOptions;
use gm_model::{Dataset, GdbResult, GraphDb, QueryCtx};
use gm_mvcc::{SnapshotMode, SnapshotSource, WriteTxn};
use gm_net::{Connection, Request, Response, Server};
use gm_storage::lsm::LsmTable;
use gm_storage::{BPlusTree, RecordFile, SegVec};
use gm_workload::{apply_write, Op, WriteOp, WORKLOAD_SLOTS};
use graphmark::registry::EngineKind;

use crate::stats::Metric;
use crate::workloads::{curate, PANEL};

/// Time spent repeating one probed call after its warm-up.
const BUDGET: Duration = Duration::from_millis(60);

/// Elements in the storage probes' structures.
const STORAGE_N: u64 = 100_000;

/// Mean nanoseconds per probed call, and how many calls the mean covers.
type PerCall = (f64, u64);

/// Call `f` once to warm up, then repeatedly until [`BUDGET`] is spent (at
/// least `min` times). `f` reports how many probed calls it made.
fn per_call_ns(min: u64, mut f: impl FnMut() -> GdbResult<u64>) -> GdbResult<PerCall> {
    f()?;
    let (mut calls, mut reps) = (0u64, 0u64);
    let start = Instant::now();
    while reps < min || start.elapsed() < BUDGET {
        calls += f()?;
        reps += 1;
    }
    Ok((start.elapsed().as_nanos() as f64 / calls as f64, calls))
}

fn push(out: &mut Vec<Metric>, name: String, unit: &'static str, scale: f64, (ns, calls): PerCall) {
    out.push(Metric::new(name, unit, ns * scale, calls));
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Table-2 groups timed through `catalog::execute_read`.
const GROUPS: [(&str, &str, f64, &[QueryId]); 4] = [
    ("point_ns", "ns", 1.0, &[QueryId::Q14, QueryId::Q15]),
    (
        "adjacency_ns",
        "ns",
        1.0,
        &[
            QueryId::Q22,
            QueryId::Q23,
            QueryId::Q24,
            QueryId::Q25,
            QueryId::Q26,
            QueryId::Q27,
        ],
    ),
    (
        "scan_us",
        "us",
        1e-3,
        &[
            QueryId::Q8,
            QueryId::Q9,
            QueryId::Q10,
            QueryId::Q11,
            QueryId::Q12,
            QueryId::Q13,
        ],
    ),
    (
        "traverse_us",
        "us",
        1e-3,
        &[
            QueryId::Q28,
            QueryId::Q29,
            QueryId::Q30,
            QueryId::Q31,
            QueryId::Q32,
            QueryId::Q33,
            QueryId::Q34,
            QueryId::Q35,
        ],
    ),
];

/// Every probe for the workload's dataset, with its first curated
/// parameter set.
pub fn run(data: &Dataset) -> GdbResult<Vec<Metric>> {
    let params = Params::choose(data, curate(data)[0], WORKLOAD_SLOTS);
    let mut out = Vec::new();
    for (kind, label) in PANEL {
        match kind {
            EngineKind::LinkedV2 => engine(LinkedGraph::v2(), label, data, &params, &mut out)?,
            EngineKind::Triple => engine(TripleGraph::new(), label, data, &params, &mut out)?,
            _ => engine(ColumnarGraph::v10(), label, data, &params, &mut out)?,
        }
        mvcc_and_shard(kind, label, data, &params, &mut out)?;
    }
    storage(&mut out);
    net(&mut out)?;
    Ok(out)
}

fn engine<E: GraphDb + Clone>(
    mut db: E,
    label: &str,
    data: &Dataset,
    params: &Params,
    out: &mut Vec<Metric>,
) -> GdbResult<()> {
    db.bulk_load(data, &LoadOptions::default())?;
    db.sync()?;
    let resolved = params.resolve(&db)?;
    let ctx = QueryCtx::unbounded();
    for (name, unit, scale, queries) in GROUPS {
        let insts: Vec<QueryInstance> = queries
            .iter()
            .map(|&id| QueryInstance {
                depth: matches!(id, QueryId::Q32 | QueryId::Q33).then_some(2),
                ..QueryInstance::plain(id)
            })
            .collect();
        let per_call = per_call_ns(1, || {
            for inst in &insts {
                black_box(catalog::execute_read(inst, &db, &resolved, &ctx)?);
            }
            Ok(insts.len() as u64)
        })?;
        push(out, format!("engine.{name}.{label}"), unit, scale, per_call);
    }
    let per_clone = per_call_ns(3, || {
        black_box(db.clone());
        Ok(1)
    })?;
    push(
        out,
        format!("mvcc.engine_clone_us.{label}"),
        "us",
        1e-3,
        per_clone,
    );
    let mut owned = Vec::new();
    let mut i = 0u64;
    let per_write = per_call_ns(1, || {
        for op in [
            WriteOp::AddVertex,
            WriteOp::AddEdge,
            WriteOp::SetVertexProp,
            WriteOp::RemoveOwnEdge,
        ] {
            apply_write(op, &mut db, &resolved, 0, i, &mut owned)?;
            i += 1;
        }
        Ok(4)
    })?;
    push(
        out,
        format!("engine.write_ns.{label}"),
        "ns",
        1.0,
        per_write,
    );
    Ok(())
}

fn load(source: &dyn SnapshotSource, data: &Dataset, params: &Params) -> GdbResult<ResolvedParams> {
    source.with_write(&mut |db| {
        db.bulk_load(data, &LoadOptions::default())?;
        db.sync()?;
        Ok(0)
    })?;
    params.resolve(source.snapshot()?.as_ref())
}

fn strict_pin_ns(source: &dyn SnapshotSource) -> GdbResult<PerCall> {
    per_call_ns(100, || {
        black_box(source.snapshot()?);
        Ok(1)
    })
}

fn mvcc_and_shard(
    kind: EngineKind,
    label: &str,
    data: &Dataset,
    params: &Params,
    out: &mut Vec<Metric>,
) -> GdbResult<()> {
    let single = kind.make_snapshot_source(SnapshotMode::Native);
    load(single.as_ref(), data, params)?;
    push(
        out,
        format!("mvcc.strict_pin_ns.{label}"),
        "ns",
        1.0,
        strict_pin_ns(single.as_ref())?,
    );
    drop(single);

    let sharded = kind.make_sharded_source(2, SnapshotMode::Native);
    let resolved = load(&sharded, data, params)?;
    push(
        out,
        format!("shard.pin_ns.{label}"),
        "ns",
        1.0,
        strict_pin_ns(&sharded)?,
    );
    // Commit a transaction of 8 writes, timing only the commit; the first
    // commit is the warm-up.
    let mut commits = Vec::new();
    let writes = [WriteOp::AddVertex, WriteOp::AddEdge, WriteOp::SetVertexProp];
    let start = Instant::now();
    for round in 0u64.. {
        if commits.len() > 3 && start.elapsed() >= BUDGET {
            break;
        }
        let mut txn = WriteTxn::begin(&sharded)?;
        let mut owned = Vec::new();
        for (i, op) in writes.iter().cycle().take(8).enumerate() {
            apply_write(
                *op,
                &mut txn,
                &resolved,
                0,
                round * 8 + i as u64,
                &mut owned,
            )?;
        }
        let t = Instant::now();
        txn.commit(&sharded)?;
        commits.push(t.elapsed().as_nanos() as f64);
    }
    let n = commits.len() as u64 - 1;
    let mean = commits[1..].iter().sum::<f64>() / n as f64;
    push(
        out,
        format!("shard.commit_us.{label}"),
        "us",
        1e-3,
        (mean, n),
    );
    Ok(())
}

fn storage(out: &mut Vec<Metric>) {
    let keys: Vec<u64> = (0..STORAGE_N).map(splitmix).collect();
    let t = Instant::now();
    let mut tree = BPlusTree::new();
    for &k in &keys {
        tree.insert(k, k);
    }
    let insert_ns = t.elapsed().as_nanos() as f64 / STORAGE_N as f64;
    out.push(Metric::new(
        "storage.bptree_insert_ns",
        "ns",
        insert_ns,
        STORAGE_N,
    ));
    let lookups: Vec<u64> = (0..STORAGE_N)
        .map(|i| keys[(splitmix(i ^ 7) % STORAGE_N) as usize])
        .collect();
    let per_get = per_call_ns_infallible(|| {
        for k in &lookups {
            black_box(tree.get(k));
        }
        STORAGE_N
    });
    push(out, "storage.bptree_get_ns".into(), "ns", 1.0, per_get);

    let mut records = RecordFile::new(64);
    let ids: Vec<u64> = (0..STORAGE_N)
        .map(|i| records.alloc(&i.to_le_bytes().repeat(8)))
        .collect();
    let per_read = per_call_ns_infallible(|| {
        for i in 0..STORAGE_N {
            black_box(records.get(ids[(splitmix(i) % STORAGE_N) as usize]));
        }
        STORAGE_N
    });
    push(out, "storage.records_read_ns".into(), "ns", 1.0, per_read);

    let mut seg = SegVec::new();
    for i in 0..10 * STORAGE_N {
        seg.push(i);
    }
    let per_clone = per_call_ns_infallible(|| {
        black_box(seg.clone());
        1
    });
    push(out, "storage.segvec_clone_ns".into(), "ns", 1.0, per_clone);

    let mut lsm = LsmTable::default();
    for &k in &keys {
        lsm.put(&k.to_be_bytes(), &k.to_le_bytes());
    }
    lsm.flush();
    let per_lsm_get = per_call_ns_infallible(|| {
        for k in lookups.iter().take(10_000) {
            black_box(lsm.get(&k.to_be_bytes()));
        }
        10_000
    });
    push(out, "storage.lsm_get_ns".into(), "ns", 1.0, per_lsm_get);
}

fn per_call_ns_infallible(mut f: impl FnMut() -> u64) -> PerCall {
    per_call_ns(1, || Ok(f())).expect("infallible probe")
}

fn net(out: &mut Vec<Metric>) -> GdbResult<()> {
    let req = Request::ExecOp {
        worker: 1,
        op_index: 12_345,
        trace_id: 0,
        timeout_micros: 60_000_000,
        strict: false,
        op: Op::Read(QueryInstance::plain(QueryId::Q23)),
    };
    let rsp = Response::ExecDone {
        card: 17,
        epoch: None,
        lock_wait: 250,
        exec_nanos: 4_000,
        pin_nanos: 0,
        clone_nanos: 0,
    };
    let (req_bytes, rsp_bytes) = (req.encode()?, rsp.encode()?);
    let per_encode = per_call_ns(1, || {
        black_box(req.encode()?);
        black_box(rsp.encode()?);
        Ok(1)
    })?;
    let per_decode = per_call_ns(1, || {
        black_box(Request::decode(&req_bytes)?);
        black_box(Response::decode(&rsp_bytes)?);
        Ok(1)
    })?;
    // Two length-prefixed frames cross the wire per op.
    let frame_bytes = (req_bytes.len() + rsp_bytes.len() + 8) as f64;
    push(out, "net.encode_ns".into(), "ns", 1.0, per_encode);
    push(out, "net.decode_ns".into(), "ns", 1.0, per_decode);
    out.push(Metric::new("net.frame_bytes", "bytes", frame_bytes, 1));

    let server = Server::bind("127.0.0.1:0", Box::new(|| EngineKind::LinkedV2.make()))?.spawn()?;
    let rtt = Connection::connect(&server.addr().to_string()).and_then(|mut conn| {
        per_call_ns(10, || {
            black_box(conn.epoch()?);
            Ok(1)
        })
    });
    server.shutdown();
    push(out, "net.rtt_us".into(), "us", 1e-3, rtt?);
    Ok(())
}
