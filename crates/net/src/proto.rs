//! The gm-net message set: versioned request/response frames.
//!
//! A connection starts with a [`Request::Hello`] carrying [`MAGIC`] and
//! [`PROTO_VERSION`]; the server answers [`Response::HelloAck`] (or an error
//! frame) before anything else. After the handshake the client may send any
//! number of requests; the server answers each **in order**, so clients are
//! free to pipeline (send several requests before reading the first
//! response) — the per-connection handler is a plain read→execute→write
//! loop, which makes pipelining safe by construction.
//!
//! Two request families share the connection:
//!
//! * **primitive calls** — one frame per [`GraphDb`](gm_model::GraphDb)
//!   method, used by `RemoteEngine` to implement the trait transparently
//!   (client-side query decomposition, one round trip per primitive);
//! * **workload frames** — [`Request::ExecOp`] ships a whole driver op
//!   ([`QueryInstance`] by query id + swept params, or a CUD write) and the
//!   server executes it against its resolved parameters in one round trip,
//!   which is how real client/server deployments execute Gremlin
//!   server-side.

use gm_core::catalog::{QueryId, QueryInstance};
use gm_model::api::{Direction, EdgeRef, EngineFeatures, LoadOptions, LoadStats, SpaceReport};
use gm_model::{Dataset, DsEdge, DsVertex, EdgeData, GdbError, GdbResult, Value, VertexData};
use gm_obs::{
    HistSnapshot, PhaseNanos, RegistrySnapshot, TraceOrigin, TraceRecord, BUCKETS, PHASES,
};
use gm_workload::{Op, WriteOp};

use crate::wire::{self, Cur};

/// Wire magic: `"GMNT"`.
pub const MAGIC: u32 = 0x474D_4E54;

/// Protocol version; bumped on any frame-format change. The server refuses
/// mismatched clients at handshake instead of misparsing their frames.
///
/// v2: `ExecOp` answers with [`Response::ExecDone`] (cardinality **plus the
/// serving epoch** when the server hosts a snapshot source) instead of a
/// bare `U64`.
///
/// v3: `ExecDone` additionally carries the op's server-side **lock wait**
/// (nanoseconds spent acquiring engine locks), so remote runs feed the
/// driver's lock-wait accounting — the per-shard vs single-lock comparison
/// works across the wire.
///
/// v4: `ExecDone` carries the full server-side phase breakdown (engine
/// execution, snapshot pin, clone/publish nanoseconds next to the lock
/// wait), so fig9 can split a remote op's latency into wire time vs server
/// time; and [`Request::GetStats`] / [`Response::Stats`] expose the
/// server's `gm-obs` metrics registry over the connection.
///
/// v5: `ExecOp` carries the client's deterministic **trace id** so the
/// server records its phase tree under the same id (the client stitches one
/// cross-process trace per op from the phases `ExecDone` already ships);
/// [`Request::GetTraces`] / [`Response::Traces`] drain the server's flight
/// recorder over the connection; and the `GetStats` snapshot gains a
/// monotonic `captured_at_us` uptime stamp so two snapshots diff into true
/// interval rates client-side.
///
/// v6: [`Request::ExecBatch`] ships many requests in one length-prefixed
/// frame and is answered by one [`Response::BatchDone`] carrying one
/// response per entry — the fleet coordinator's write path flushes a whole
/// deferred batch in a single round trip; [`Request::Epoch`] probes the
/// serving epoch without pinning work to it (the fleet-wide epoch is the
/// min over per-shard probes); and [`Response::HelloAck`] carries the
/// server's optional **shard identity** (`shard id` / `fleet size`) so a
/// fleet client can verify it dialed the shard it routed to.
///
/// v7: write transactions. [`Request::TxnBegin`] opens an epoch-pinned
/// write transaction on the connection (answered by [`Response::TxnBegun`]
/// with the pinned epoch); subsequent write primitives buffer into it and
/// reads answer from its read-your-writes overlay; [`Request::TxnCommit`]
/// validates first-committer-wins and publishes the whole write set
/// atomically ([`Response::TxnCommitted`]), [`Request::TxnAbort`] discards
/// it ([`Response::TxnAborted`]). Conflicts round-trip as the distinct
/// [`GdbError::TxnConflict`] error (wire tag 9). Encoding also became
/// fallible end to end: payloads that cannot fit the u32 length prefix
/// surface as `FrameTooLarge` protocol errors instead of truncating.
pub const PROTO_VERSION: u16 = 7;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// Must equal [`MAGIC`].
        magic: u32,
        /// Must equal [`PROTO_VERSION`].
        version: u16,
    },
    /// Replace the hosted engine with a fresh one from the server's factory
    /// and forget any loaded dataset / prepared workload.
    Reset,
    /// Ship a dataset and bulk-load it into the hosted engine. The server
    /// retains the dataset so a later [`Request::Prepare`] can derive
    /// workload parameters from it.
    BulkLoad {
        /// Load options.
        opts: LoadOptions,
        /// The canonical dataset, shipped in full.
        data: Dataset,
    },
    /// Resolve workload parameters server-side: `Workload::choose(data,
    /// seed, slots)` against the retained dataset, resolved on the hosted
    /// engine. Required before [`Request::ExecOp`].
    Prepare {
        /// Workload seed (must match the driver's).
        seed: u64,
        /// Victim/pair slot count (must match the driver's).
        slots: u32,
    },
    /// Execute one driver op server-side in a single round trip.
    ExecOp {
        /// Issuing worker index (parameterizes writes).
        worker: u32,
        /// Op index within the worker's sequence.
        op_index: u64,
        /// The client's deterministic trace id for this op (v5; 0 = not
        /// traced). The server records its phase tree under this id so the
        /// client can stitch one cross-process trace per op.
        trace_id: u64,
        /// Read deadline in microseconds (0 = unbounded).
        timeout_micros: u64,
        /// Strict read pin: a snapshot-hosted server must serve this read
        /// from a read-your-writes pin (`snapshot()`) instead of the
        /// group-committed `snapshot_recent` cadence. Sequential replays
        /// set this so their traces stay deterministic; concurrent drivers
        /// leave it unset for the scalable pin fast path. Ignored by
        /// locked-mode servers and for writes.
        strict: bool,
        /// The op itself.
        op: Op,
    },
    /// Snapshot the server's `gm-obs` metrics registry (v4). Always
    /// answered with [`Response::Stats`]; the snapshot is empty when the
    /// server runs with `GM_OBS=off`.
    GetStats,
    /// Drain a copy of the server's trace flight recorder (v5). Always
    /// answered with [`Response::Traces`]; the list is empty when the
    /// server runs with `GM_TRACE=off`.
    GetTraces,
    /// `GraphDb::features`.
    Features,
    /// `GraphDb::resolve_vertex`.
    ResolveVertex(u64),
    /// `GraphDb::resolve_edge`.
    ResolveEdge(u64),
    /// `GraphDb::add_vertex`.
    AddVertex {
        /// Vertex label.
        label: String,
        /// Properties.
        props: Vec<(String, Value)>,
    },
    /// `GraphDb::add_edge`.
    AddEdge {
        /// Source vertex (internal id).
        src: u64,
        /// Destination vertex (internal id).
        dst: u64,
        /// Edge label.
        label: String,
        /// Properties.
        props: Vec<(String, Value)>,
    },
    /// `GraphDb::set_vertex_property`.
    SetVertexProp {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
    },
    /// `GraphDb::set_edge_property`.
    SetEdgeProp {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
    },
    /// `GraphDb::vertex_count` (`t` = read deadline in µs, 0 = unbounded).
    VertexCount {
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::edge_count`.
    EdgeCount {
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::edge_label_set`.
    EdgeLabelSet {
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertices_with_property`.
    VerticesWithProperty {
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::edges_with_property`.
    EdgesWithProperty {
        /// Property name.
        name: String,
        /// Property value.
        value: Value,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::edges_with_label`.
    EdgesWithLabel {
        /// Edge label.
        label: String,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertex` (Q14 materialization).
    GetVertex(u64),
    /// `GraphDb::edge` (Q15 materialization).
    GetEdge(u64),
    /// `GraphDb::remove_vertex`.
    RemoveVertex(u64),
    /// `GraphDb::remove_edge`.
    RemoveEdge(u64),
    /// `GraphDb::remove_vertex_property`.
    RemoveVertexProp {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
    },
    /// `GraphDb::remove_edge_property`.
    RemoveEdgeProp {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
    },
    /// `GraphDb::neighbors`.
    Neighbors {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Optional label filter.
        label: Option<String>,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertex_edges`.
    VertexEdges {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Optional label filter.
        label: Option<String>,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertex_degree`.
    VertexDegree {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertex_edge_labels`.
    VertexEdgeLabels {
        /// Vertex.
        v: u64,
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::scan_vertices`, materialized server-side.
    ScanVertices {
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::scan_edges`, materialized server-side.
    ScanEdges {
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::vertex_property`.
    VertexProperty {
        /// Vertex.
        v: u64,
        /// Property name.
        name: String,
    },
    /// `GraphDb::edge_property`.
    EdgeProperty {
        /// Edge.
        e: u64,
        /// Property name.
        name: String,
    },
    /// `GraphDb::edge_endpoints`.
    EdgeEndpoints(u64),
    /// `GraphDb::edge_label`.
    EdgeLabel(u64),
    /// `GraphDb::vertex_label`.
    VertexLabel(u64),
    /// `GraphDb::degree_scan` — executed by the *hosted engine's* strategy,
    /// so per-engine physical differences survive the wire.
    DegreeScan {
        /// Direction.
        dir: Direction,
        /// Degree threshold.
        k: u64,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::distinct_neighbor_scan`.
    DistinctNeighborScan {
        /// Direction.
        dir: Direction,
        /// Deadline µs.
        t: u64,
    },
    /// `GraphDb::create_vertex_index`.
    CreateVertexIndex {
        /// Property name.
        prop: String,
    },
    /// `GraphDb::has_vertex_index`.
    HasVertexIndex {
        /// Property name.
        prop: String,
    },
    /// `GraphDb::space`.
    Space,
    /// `GraphDb::sync`.
    Sync,
    /// Many requests in one frame (v6): the server executes the entries
    /// strictly in order and answers with a single [`Response::BatchDone`]
    /// carrying one response per entry. Per-entry failures ride inside the
    /// batch as [`Response::Err`] entries, so one bad op cannot desync the
    /// stream. Entries may be any request except [`Request::Hello`] and a
    /// nested `ExecBatch` — the decoder rejects both, which also bounds
    /// decode recursion at one level.
    ExecBatch(Vec<Request>),
    /// Probe the serving epoch (v6): answered with [`Response::U64`] — the
    /// snapshot epoch a read would pin right now, `0` under locked hosting.
    /// The fleet coordinator min-reduces this across shards, mirroring
    /// `ShardedSource`.
    Epoch,
    /// Open an epoch-pinned write transaction on this connection (v7).
    /// Answered with [`Response::TxnBegun`]. Only snapshot-hosted servers
    /// support transactions; at most one may be open per connection.
    TxnBegin,
    /// Validate and atomically publish the connection's open transaction
    /// (v7). Answered with [`Response::TxnCommitted`], or
    /// [`Response::Err`]`(TxnConflict)` when another commit won the
    /// first-committer-wins race (the write set is discarded either way).
    TxnCommit,
    /// Discard the connection's open transaction without publishing (v7).
    /// Answered with [`Response::TxnAborted`].
    TxnAbort,
}

/// A server→client message. [`Response::Err`] may answer any request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake acknowledgement.
    HelloAck {
        /// Server protocol version.
        version: u16,
        /// Hosted engine's display name.
        engine: String,
        /// Fleet identity when the server runs as one shard of a fleet
        /// (v6): `(shard_id, fleet_size)`. `None` for standalone servers.
        shard: Option<(u32, u32)>,
    },
    /// Success with no payload.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A u64 (counts, cardinalities, degrees).
    U64(u64),
    /// An `ExecOp` completion: result cardinality plus the epoch of the
    /// snapshot that served a read (`None` when the server executes under
    /// the shared lock, and for writes — they produce the next epoch, they
    /// don't observe one). The epoch is what lets a remote client assert
    /// that a scan's rows decode against exactly one graph version.
    ExecDone {
        /// Result cardinality.
        card: u64,
        /// Serving epoch for snapshot-backed reads.
        epoch: Option<u64>,
        /// Nanoseconds the op spent waiting on engine locks server-side
        /// (v3; the server's whole execution path times its lock
        /// acquisitions as `gm_obs` `LockWait` phase spans).
        lock_wait: u64,
        /// Server-side engine execution nanoseconds (v4).
        exec_nanos: u64,
        /// Server-side snapshot-pin nanoseconds (v4).
        pin_nanos: u64,
        /// Server-side clone/publish nanoseconds (v4).
        clone_nanos: u64,
    },
    /// An optional u64 (id resolution).
    OptU64(Option<u64>),
    /// A list of ids (vertex or edge scans, filters).
    U64List(Vec<u64>),
    /// A list of strings (label sets).
    StrList(Vec<String>),
    /// An optional value (property lookups / removals).
    OptValue(Option<Value>),
    /// An optional string (label lookups).
    OptStr(Option<String>),
    /// Optional edge endpoints.
    OptPair(Option<(u64, u64)>),
    /// Incident-edge list.
    EdgeRefs(Vec<EdgeRef>),
    /// Materialized vertex.
    OptVertex(Option<VertexData>),
    /// Materialized edge.
    OptEdge(Option<EdgeData>),
    /// Bulk-load outcome.
    Load(LoadStats),
    /// Engine feature description.
    Features(EngineFeatures),
    /// Space report.
    Space(SpaceReport),
    /// The server's metrics-registry snapshot (v4, answers
    /// [`Request::GetStats`]).
    Stats(RegistrySnapshot),
    /// A copy of the server's trace flight recorder, oldest first (v5,
    /// answers [`Request::GetTraces`]).
    Traces(Vec<TraceRecord>),
    /// Answers [`Request::ExecBatch`] (v6): one response per entry, in
    /// order. Per-entry failures are [`Response::Err`] entries here, not a
    /// top-level error.
    BatchDone(Vec<Response>),
    /// Answers [`Request::TxnBegin`] (v7) with the epoch the transaction's
    /// reads are pinned to.
    TxnBegun {
        /// The pinned read epoch.
        epoch: u64,
    },
    /// Answers [`Request::TxnCommit`] (v7).
    TxnCommitted {
        /// Number of buffered write ops the commit replayed.
        ops: u64,
        /// The serving epoch after publication.
        epoch: u64,
    },
    /// Answers [`Request::TxnAbort`] (v7).
    TxnAborted {
        /// Number of buffered write ops discarded.
        ops: u64,
    },
    /// The request failed with this engine error (round-tripped losslessly).
    Err(GdbError),
}

impl Response {
    /// Short kind name, used in protocol-mismatch diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::HelloAck { .. } => "HelloAck",
            Response::Unit => "Unit",
            Response::Bool(_) => "Bool",
            Response::U64(_) => "U64",
            Response::ExecDone { .. } => "ExecDone",
            Response::OptU64(_) => "OptU64",
            Response::U64List(_) => "U64List",
            Response::StrList(_) => "StrList",
            Response::OptValue(_) => "OptValue",
            Response::OptStr(_) => "OptStr",
            Response::OptPair(_) => "OptPair",
            Response::EdgeRefs(_) => "EdgeRefs",
            Response::OptVertex(_) => "OptVertex",
            Response::OptEdge(_) => "OptEdge",
            Response::Load(_) => "Load",
            Response::Features(_) => "Features",
            Response::Space(_) => "Space",
            Response::Stats(_) => "Stats",
            Response::Traces(_) => "Traces",
            Response::BatchDone(_) => "BatchDone",
            Response::TxnBegun { .. } => "TxnBegun",
            Response::TxnCommitted { .. } => "TxnCommitted",
            Response::TxnAborted { .. } => "TxnAborted",
            Response::Err(_) => "Err",
        }
    }
}

// ----- shared field codecs -------------------------------------------------

fn put_direction(out: &mut Vec<u8>, dir: Direction) {
    wire::put_u8(
        out,
        match dir {
            Direction::In => 0,
            Direction::Out => 1,
            Direction::Both => 2,
        },
    );
}

fn get_direction(cur: &mut Cur<'_>) -> GdbResult<Direction> {
    match cur.u8()? {
        0 => Ok(Direction::In),
        1 => Ok(Direction::Out),
        2 => Ok(Direction::Both),
        d => Err(GdbError::Corrupt(format!("wire: unknown direction {d}"))),
    }
}

fn put_instance(out: &mut Vec<u8>, inst: &QueryInstance) {
    wire::put_u8(out, inst.id.number());
    match inst.depth {
        None => wire::put_bool(out, false),
        Some(d) => {
            wire::put_bool(out, true);
            wire::put_u8(out, d);
        }
    }
    match inst.k {
        None => wire::put_bool(out, false),
        Some(k) => {
            wire::put_bool(out, true);
            wire::put_u64(out, k);
        }
    }
}

fn get_instance(cur: &mut Cur<'_>) -> GdbResult<QueryInstance> {
    let number = cur.u8()?;
    let id = *QueryId::ALL
        .get(number.wrapping_sub(1) as usize)
        .ok_or_else(|| GdbError::Corrupt(format!("wire: unknown query number {number}")))?;
    let depth = if cur.bool_()? { Some(cur.u8()?) } else { None };
    let k = if cur.bool_()? { Some(cur.u64()?) } else { None };
    Ok(QueryInstance { id, depth, k })
}

fn put_op(out: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Read(inst) => {
            wire::put_u8(out, 0);
            put_instance(out, inst);
        }
        Op::Write(wop) => {
            wire::put_u8(out, 1);
            wire::put_u8(
                out,
                match wop {
                    WriteOp::AddVertex => 0,
                    WriteOp::AddEdge => 1,
                    WriteOp::SetVertexProp => 2,
                    WriteOp::RemoveOwnEdge => 3,
                },
            );
        }
    }
}

fn get_op(cur: &mut Cur<'_>) -> GdbResult<Op> {
    match cur.u8()? {
        0 => Ok(Op::Read(get_instance(cur)?)),
        1 => Ok(Op::Write(match cur.u8()? {
            0 => WriteOp::AddVertex,
            1 => WriteOp::AddEdge,
            2 => WriteOp::SetVertexProp,
            3 => WriteOp::RemoveOwnEdge,
            w => return Err(GdbError::Corrupt(format!("wire: unknown write op {w}"))),
        })),
        t => Err(GdbError::Corrupt(format!("wire: unknown op tag {t}"))),
    }
}

fn put_dataset(out: &mut Vec<u8>, data: &Dataset) -> GdbResult<()> {
    wire::put_str(out, &data.name)?;
    wire::put_u32(out, data.vertices.len() as u32);
    for v in &data.vertices {
        wire::put_str(out, &v.label)?;
        wire::put_props(out, &v.props)?;
    }
    wire::put_u32(out, data.edges.len() as u32);
    for e in &data.edges {
        wire::put_u64(out, e.src);
        wire::put_u64(out, e.dst);
        wire::put_str(out, &e.label)?;
        wire::put_props(out, &e.props)?;
    }
    Ok(())
}

fn get_dataset(cur: &mut Cur<'_>) -> GdbResult<Dataset> {
    let name = cur.str_()?;
    let nv = cur.list_len("dataset vertices")?;
    let mut vertices = Vec::with_capacity(nv);
    for id in 0..nv {
        vertices.push(DsVertex {
            id: id as u64,
            label: cur.str_()?,
            props: cur.props()?,
        });
    }
    let ne = cur.list_len("dataset edges")?;
    let mut edges = Vec::with_capacity(ne);
    for id in 0..ne {
        edges.push(DsEdge {
            id: id as u64,
            src: cur.u64()?,
            dst: cur.u64()?,
            label: cur.str_()?,
            props: cur.props()?,
        });
    }
    let data = Dataset {
        name,
        vertices,
        edges,
    };
    data.validate().map_err(GdbError::Corrupt)?;
    Ok(data)
}

fn put_u64_list(out: &mut Vec<u8>, xs: &[u64]) {
    wire::put_u32(out, xs.len() as u32);
    for x in xs {
        wire::put_u64(out, *x);
    }
}

fn get_u64_list(cur: &mut Cur<'_>) -> GdbResult<Vec<u64>> {
    let n = cur.list_len("u64 list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.u64()?);
    }
    Ok(out)
}

fn put_str_list(out: &mut Vec<u8>, xs: &[String]) -> GdbResult<()> {
    wire::put_u32(out, xs.len() as u32);
    for x in xs {
        wire::put_str(out, x)?;
    }
    Ok(())
}

fn get_str_list(cur: &mut Cur<'_>) -> GdbResult<Vec<String>> {
    let n = cur.list_len("string list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(cur.str_()?);
    }
    Ok(out)
}

/// Log2 histograms ship sparsely: the populated bucket prefix, then the
/// scalar fields. Bucket counts above the highest populated index are zero
/// by construction, so nothing is lost.
fn put_hist(out: &mut Vec<u8>, h: &HistSnapshot) {
    let top = h.counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
    wire::put_u8(out, top as u8);
    // gm-check: allow-panic(encode path over trusted data; top = rposition + 1 is ≤ len by construction)
    for &c in &h.counts[..top] {
        wire::put_u64(out, c);
    }
    wire::put_u64(out, h.count);
    wire::put_u64(out, h.sum);
    wire::put_u64(out, h.min);
    wire::put_u64(out, h.max);
}

fn get_hist(cur: &mut Cur<'_>) -> GdbResult<HistSnapshot> {
    let top = cur.u8()? as usize;
    if top > BUCKETS {
        return Err(GdbError::Corrupt(format!(
            "wire: histogram bucket prefix {top} exceeds {BUCKETS}"
        )));
    }
    let mut h = HistSnapshot::default();
    for slot in h.counts.iter_mut().take(top) {
        *slot = cur.u64()?;
    }
    h.count = cur.u64()?;
    h.sum = cur.u64()?;
    h.min = cur.u64()?;
    h.max = cur.u64()?;
    Ok(h)
}

fn put_stats(out: &mut Vec<u8>, s: &RegistrySnapshot) -> GdbResult<()> {
    wire::put_u64(out, s.captured_at_us);
    wire::put_u32(out, s.counters.len() as u32);
    for (name, v) in &s.counters {
        wire::put_str(out, name)?;
        wire::put_u64(out, *v);
    }
    wire::put_u32(out, s.gauges.len() as u32);
    for (name, v) in &s.gauges {
        wire::put_str(out, name)?;
        // Gauges are i64; two's-complement through u64 is lossless.
        wire::put_u64(out, *v as u64);
    }
    wire::put_u32(out, s.hists.len() as u32);
    for (name, h) in &s.hists {
        wire::put_str(out, name)?;
        put_hist(out, h);
    }
    Ok(())
}

fn get_stats(cur: &mut Cur<'_>) -> GdbResult<RegistrySnapshot> {
    let mut s = RegistrySnapshot {
        captured_at_us: cur.u64()?,
        ..RegistrySnapshot::default()
    };
    let nc = cur.list_len("stats counters")?;
    for _ in 0..nc {
        s.counters.push((cur.str_()?, cur.u64()?));
    }
    let ng = cur.list_len("stats gauges")?;
    for _ in 0..ng {
        s.gauges.push((cur.str_()?, cur.u64()? as i64));
    }
    let nh = cur.list_len("stats histograms")?;
    for _ in 0..nh {
        s.hists.push((cur.str_()?, get_hist(cur)?));
    }
    Ok(s)
}

fn put_trace_record(out: &mut Vec<u8>, r: &TraceRecord) {
    wire::put_u64(out, r.id);
    wire::put_u32(out, r.worker);
    wire::put_u64(out, r.op_index);
    wire::put_u16(out, r.op_code);
    wire::put_u64(out, r.start_us);
    wire::put_u64(out, r.total_nanos);
    wire::put_u8(out, PHASES as u8);
    for &nanos in &r.phases.0 {
        wire::put_u64(out, nanos);
    }
    wire::put_u8(out, r.origin as u8);
    wire::put_bool(out, r.tail);
}

fn get_trace_record(cur: &mut Cur<'_>) -> GdbResult<TraceRecord> {
    let id = cur.u64()?;
    let worker = cur.u32()?;
    let op_index = cur.u64()?;
    let op_code = cur.u16()?;
    let start_us = cur.u64()?;
    let total_nanos = cur.u64()?;
    let np = cur.u8()? as usize;
    if np != PHASES {
        return Err(GdbError::Corrupt(format!(
            "wire: trace record has {np} phases, expected {PHASES}"
        )));
    }
    let mut phases = PhaseNanos::zero();
    for slot in phases.0.iter_mut() {
        *slot = cur.u64()?;
    }
    let origin = match cur.u8()? {
        0 => TraceOrigin::Client,
        1 => TraceOrigin::Server,
        o => return Err(GdbError::Corrupt(format!("wire: unknown trace origin {o}"))),
    };
    Ok(TraceRecord {
        id,
        worker,
        op_index,
        op_code,
        start_us,
        total_nanos,
        phases,
        origin,
        tail: cur.bool_()?,
    })
}

// ----- request codec -------------------------------------------------------

mod req_op {
    pub const HELLO: u8 = 0x01;
    pub const RESET: u8 = 0x02;
    pub const BULK_LOAD: u8 = 0x03;
    pub const PREPARE: u8 = 0x04;
    pub const EXEC_OP: u8 = 0x05;
    pub const GET_STATS: u8 = 0x06;
    pub const GET_TRACES: u8 = 0x07;
    pub const EXEC_BATCH: u8 = 0x08;
    pub const FEATURES: u8 = 0x10;
    pub const RESOLVE_VERTEX: u8 = 0x11;
    pub const RESOLVE_EDGE: u8 = 0x12;
    pub const ADD_VERTEX: u8 = 0x13;
    pub const ADD_EDGE: u8 = 0x14;
    pub const SET_VERTEX_PROP: u8 = 0x15;
    pub const SET_EDGE_PROP: u8 = 0x16;
    pub const VERTEX_COUNT: u8 = 0x17;
    pub const EDGE_COUNT: u8 = 0x18;
    pub const EDGE_LABEL_SET: u8 = 0x19;
    pub const VERTICES_WITH_PROPERTY: u8 = 0x1A;
    pub const EDGES_WITH_PROPERTY: u8 = 0x1B;
    pub const EDGES_WITH_LABEL: u8 = 0x1C;
    pub const GET_VERTEX: u8 = 0x1D;
    pub const GET_EDGE: u8 = 0x1E;
    pub const REMOVE_VERTEX: u8 = 0x1F;
    pub const REMOVE_EDGE: u8 = 0x20;
    pub const REMOVE_VERTEX_PROP: u8 = 0x21;
    pub const REMOVE_EDGE_PROP: u8 = 0x22;
    pub const NEIGHBORS: u8 = 0x23;
    pub const VERTEX_EDGES: u8 = 0x24;
    pub const VERTEX_DEGREE: u8 = 0x25;
    pub const VERTEX_EDGE_LABELS: u8 = 0x26;
    pub const SCAN_VERTICES: u8 = 0x27;
    pub const SCAN_EDGES: u8 = 0x28;
    pub const VERTEX_PROPERTY: u8 = 0x29;
    pub const EDGE_PROPERTY: u8 = 0x2A;
    pub const EDGE_ENDPOINTS: u8 = 0x2B;
    pub const EDGE_LABEL: u8 = 0x2C;
    pub const VERTEX_LABEL: u8 = 0x2D;
    pub const DEGREE_SCAN: u8 = 0x2E;
    pub const DISTINCT_NEIGHBOR_SCAN: u8 = 0x2F;
    pub const CREATE_VERTEX_INDEX: u8 = 0x30;
    pub const HAS_VERTEX_INDEX: u8 = 0x31;
    pub const SPACE: u8 = 0x32;
    pub const SYNC: u8 = 0x33;
    pub const EPOCH: u8 = 0x34;
    pub const TXN_BEGIN: u8 = 0x35;
    pub const TXN_COMMIT: u8 = 0x36;
    pub const TXN_ABORT: u8 = 0x37;
}

impl Request {
    /// Encode into a frame payload. Fails with a `FrameTooLarge` protocol
    /// error when any field cannot fit its u32 length prefix.
    pub fn encode(&self) -> GdbResult<Vec<u8>> {
        use req_op::*;
        let mut out = Vec::new();
        match self {
            Request::Hello { magic, version } => {
                wire::put_u8(&mut out, HELLO);
                wire::put_u32(&mut out, *magic);
                wire::put_u16(&mut out, *version);
            }
            Request::Reset => wire::put_u8(&mut out, RESET),
            Request::BulkLoad { opts, data } => {
                wire::put_u8(&mut out, BULK_LOAD);
                wire::put_bool(&mut out, opts.bulk);
                wire::put_bool(&mut out, opts.index_during_load);
                put_dataset(&mut out, data)?;
            }
            Request::Prepare { seed, slots } => {
                wire::put_u8(&mut out, PREPARE);
                wire::put_u64(&mut out, *seed);
                wire::put_u32(&mut out, *slots);
            }
            Request::ExecOp {
                worker,
                op_index,
                trace_id,
                timeout_micros,
                strict,
                op,
            } => {
                wire::put_u8(&mut out, EXEC_OP);
                wire::put_u32(&mut out, *worker);
                wire::put_u64(&mut out, *op_index);
                wire::put_u64(&mut out, *trace_id);
                wire::put_u64(&mut out, *timeout_micros);
                wire::put_bool(&mut out, *strict);
                put_op(&mut out, op);
            }
            Request::GetStats => wire::put_u8(&mut out, GET_STATS),
            Request::GetTraces => wire::put_u8(&mut out, GET_TRACES),
            Request::Features => wire::put_u8(&mut out, FEATURES),
            Request::ResolveVertex(c) => {
                wire::put_u8(&mut out, RESOLVE_VERTEX);
                wire::put_u64(&mut out, *c);
            }
            Request::ResolveEdge(c) => {
                wire::put_u8(&mut out, RESOLVE_EDGE);
                wire::put_u64(&mut out, *c);
            }
            Request::AddVertex { label, props } => {
                wire::put_u8(&mut out, ADD_VERTEX);
                wire::put_str(&mut out, label)?;
                wire::put_props(&mut out, props)?;
            }
            Request::AddEdge {
                src,
                dst,
                label,
                props,
            } => {
                wire::put_u8(&mut out, ADD_EDGE);
                wire::put_u64(&mut out, *src);
                wire::put_u64(&mut out, *dst);
                wire::put_str(&mut out, label)?;
                wire::put_props(&mut out, props)?;
            }
            Request::SetVertexProp { v, name, value } => {
                wire::put_u8(&mut out, SET_VERTEX_PROP);
                wire::put_u64(&mut out, *v);
                wire::put_str(&mut out, name)?;
                wire::put_value(&mut out, value);
            }
            Request::SetEdgeProp { e, name, value } => {
                wire::put_u8(&mut out, SET_EDGE_PROP);
                wire::put_u64(&mut out, *e);
                wire::put_str(&mut out, name)?;
                wire::put_value(&mut out, value);
            }
            Request::VertexCount { t } => {
                wire::put_u8(&mut out, VERTEX_COUNT);
                wire::put_u64(&mut out, *t);
            }
            Request::EdgeCount { t } => {
                wire::put_u8(&mut out, EDGE_COUNT);
                wire::put_u64(&mut out, *t);
            }
            Request::EdgeLabelSet { t } => {
                wire::put_u8(&mut out, EDGE_LABEL_SET);
                wire::put_u64(&mut out, *t);
            }
            Request::VerticesWithProperty { name, value, t } => {
                wire::put_u8(&mut out, VERTICES_WITH_PROPERTY);
                wire::put_str(&mut out, name)?;
                wire::put_value(&mut out, value);
                wire::put_u64(&mut out, *t);
            }
            Request::EdgesWithProperty { name, value, t } => {
                wire::put_u8(&mut out, EDGES_WITH_PROPERTY);
                wire::put_str(&mut out, name)?;
                wire::put_value(&mut out, value);
                wire::put_u64(&mut out, *t);
            }
            Request::EdgesWithLabel { label, t } => {
                wire::put_u8(&mut out, EDGES_WITH_LABEL);
                wire::put_str(&mut out, label)?;
                wire::put_u64(&mut out, *t);
            }
            Request::GetVertex(v) => {
                wire::put_u8(&mut out, GET_VERTEX);
                wire::put_u64(&mut out, *v);
            }
            Request::GetEdge(e) => {
                wire::put_u8(&mut out, GET_EDGE);
                wire::put_u64(&mut out, *e);
            }
            Request::RemoveVertex(v) => {
                wire::put_u8(&mut out, REMOVE_VERTEX);
                wire::put_u64(&mut out, *v);
            }
            Request::RemoveEdge(e) => {
                wire::put_u8(&mut out, REMOVE_EDGE);
                wire::put_u64(&mut out, *e);
            }
            Request::RemoveVertexProp { v, name } => {
                wire::put_u8(&mut out, REMOVE_VERTEX_PROP);
                wire::put_u64(&mut out, *v);
                wire::put_str(&mut out, name)?;
            }
            Request::RemoveEdgeProp { e, name } => {
                wire::put_u8(&mut out, REMOVE_EDGE_PROP);
                wire::put_u64(&mut out, *e);
                wire::put_str(&mut out, name)?;
            }
            Request::Neighbors { v, dir, label, t } => {
                wire::put_u8(&mut out, NEIGHBORS);
                wire::put_u64(&mut out, *v);
                put_direction(&mut out, *dir);
                wire::put_opt_str(&mut out, label.as_deref())?;
                wire::put_u64(&mut out, *t);
            }
            Request::VertexEdges { v, dir, label, t } => {
                wire::put_u8(&mut out, VERTEX_EDGES);
                wire::put_u64(&mut out, *v);
                put_direction(&mut out, *dir);
                wire::put_opt_str(&mut out, label.as_deref())?;
                wire::put_u64(&mut out, *t);
            }
            Request::VertexDegree { v, dir, t } => {
                wire::put_u8(&mut out, VERTEX_DEGREE);
                wire::put_u64(&mut out, *v);
                put_direction(&mut out, *dir);
                wire::put_u64(&mut out, *t);
            }
            Request::VertexEdgeLabels { v, dir, t } => {
                wire::put_u8(&mut out, VERTEX_EDGE_LABELS);
                wire::put_u64(&mut out, *v);
                put_direction(&mut out, *dir);
                wire::put_u64(&mut out, *t);
            }
            Request::ScanVertices { t } => {
                wire::put_u8(&mut out, SCAN_VERTICES);
                wire::put_u64(&mut out, *t);
            }
            Request::ScanEdges { t } => {
                wire::put_u8(&mut out, SCAN_EDGES);
                wire::put_u64(&mut out, *t);
            }
            Request::VertexProperty { v, name } => {
                wire::put_u8(&mut out, VERTEX_PROPERTY);
                wire::put_u64(&mut out, *v);
                wire::put_str(&mut out, name)?;
            }
            Request::EdgeProperty { e, name } => {
                wire::put_u8(&mut out, EDGE_PROPERTY);
                wire::put_u64(&mut out, *e);
                wire::put_str(&mut out, name)?;
            }
            Request::EdgeEndpoints(e) => {
                wire::put_u8(&mut out, EDGE_ENDPOINTS);
                wire::put_u64(&mut out, *e);
            }
            Request::EdgeLabel(e) => {
                wire::put_u8(&mut out, EDGE_LABEL);
                wire::put_u64(&mut out, *e);
            }
            Request::VertexLabel(v) => {
                wire::put_u8(&mut out, VERTEX_LABEL);
                wire::put_u64(&mut out, *v);
            }
            Request::DegreeScan { dir, k, t } => {
                wire::put_u8(&mut out, DEGREE_SCAN);
                put_direction(&mut out, *dir);
                wire::put_u64(&mut out, *k);
                wire::put_u64(&mut out, *t);
            }
            Request::DistinctNeighborScan { dir, t } => {
                wire::put_u8(&mut out, DISTINCT_NEIGHBOR_SCAN);
                put_direction(&mut out, *dir);
                wire::put_u64(&mut out, *t);
            }
            Request::CreateVertexIndex { prop } => {
                wire::put_u8(&mut out, CREATE_VERTEX_INDEX);
                wire::put_str(&mut out, prop)?;
            }
            Request::HasVertexIndex { prop } => {
                wire::put_u8(&mut out, HAS_VERTEX_INDEX);
                wire::put_str(&mut out, prop)?;
            }
            Request::Space => wire::put_u8(&mut out, SPACE),
            Request::Sync => wire::put_u8(&mut out, SYNC),
            Request::ExecBatch(reqs) => {
                wire::put_u8(&mut out, EXEC_BATCH);
                wire::put_u32(&mut out, reqs.len() as u32);
                for r in reqs {
                    let sub = r.encode()?;
                    let len = u32::try_from(sub.len())
                        .map_err(|_| wire::frame_too_large("batch entry", sub.len()))?;
                    wire::put_u32(&mut out, len);
                    out.extend_from_slice(&sub);
                }
            }
            Request::Epoch => wire::put_u8(&mut out, EPOCH),
            Request::TxnBegin => wire::put_u8(&mut out, TXN_BEGIN),
            Request::TxnCommit => wire::put_u8(&mut out, TXN_COMMIT),
            Request::TxnAbort => wire::put_u8(&mut out, TXN_ABORT),
        }
        Ok(out)
    }

    /// Decode a frame payload. Rejects unknown opcodes, malformed fields
    /// and trailing bytes with [`GdbError::Corrupt`].
    pub fn decode(buf: &[u8]) -> GdbResult<Request> {
        use req_op::*;
        let mut cur = Cur::new(buf);
        let req = match cur.u8()? {
            HELLO => Request::Hello {
                magic: cur.u32()?,
                version: cur.u16()?,
            },
            RESET => Request::Reset,
            BULK_LOAD => {
                let opts = LoadOptions {
                    bulk: cur.bool_()?,
                    index_during_load: cur.bool_()?,
                };
                Request::BulkLoad {
                    opts,
                    data: get_dataset(&mut cur)?,
                }
            }
            PREPARE => Request::Prepare {
                seed: cur.u64()?,
                slots: cur.u32()?,
            },
            EXEC_OP => Request::ExecOp {
                worker: cur.u32()?,
                op_index: cur.u64()?,
                trace_id: cur.u64()?,
                timeout_micros: cur.u64()?,
                strict: cur.bool_()?,
                op: get_op(&mut cur)?,
            },
            GET_STATS => Request::GetStats,
            GET_TRACES => Request::GetTraces,
            FEATURES => Request::Features,
            RESOLVE_VERTEX => Request::ResolveVertex(cur.u64()?),
            RESOLVE_EDGE => Request::ResolveEdge(cur.u64()?),
            ADD_VERTEX => Request::AddVertex {
                label: cur.str_()?,
                props: cur.props()?,
            },
            ADD_EDGE => Request::AddEdge {
                src: cur.u64()?,
                dst: cur.u64()?,
                label: cur.str_()?,
                props: cur.props()?,
            },
            SET_VERTEX_PROP => Request::SetVertexProp {
                v: cur.u64()?,
                name: cur.str_()?,
                value: cur.value()?,
            },
            SET_EDGE_PROP => Request::SetEdgeProp {
                e: cur.u64()?,
                name: cur.str_()?,
                value: cur.value()?,
            },
            VERTEX_COUNT => Request::VertexCount { t: cur.u64()? },
            EDGE_COUNT => Request::EdgeCount { t: cur.u64()? },
            EDGE_LABEL_SET => Request::EdgeLabelSet { t: cur.u64()? },
            VERTICES_WITH_PROPERTY => Request::VerticesWithProperty {
                name: cur.str_()?,
                value: cur.value()?,
                t: cur.u64()?,
            },
            EDGES_WITH_PROPERTY => Request::EdgesWithProperty {
                name: cur.str_()?,
                value: cur.value()?,
                t: cur.u64()?,
            },
            EDGES_WITH_LABEL => Request::EdgesWithLabel {
                label: cur.str_()?,
                t: cur.u64()?,
            },
            GET_VERTEX => Request::GetVertex(cur.u64()?),
            GET_EDGE => Request::GetEdge(cur.u64()?),
            REMOVE_VERTEX => Request::RemoveVertex(cur.u64()?),
            REMOVE_EDGE => Request::RemoveEdge(cur.u64()?),
            REMOVE_VERTEX_PROP => Request::RemoveVertexProp {
                v: cur.u64()?,
                name: cur.str_()?,
            },
            REMOVE_EDGE_PROP => Request::RemoveEdgeProp {
                e: cur.u64()?,
                name: cur.str_()?,
            },
            NEIGHBORS => Request::Neighbors {
                v: cur.u64()?,
                dir: get_direction(&mut cur)?,
                label: cur.opt_str()?,
                t: cur.u64()?,
            },
            VERTEX_EDGES => Request::VertexEdges {
                v: cur.u64()?,
                dir: get_direction(&mut cur)?,
                label: cur.opt_str()?,
                t: cur.u64()?,
            },
            VERTEX_DEGREE => Request::VertexDegree {
                v: cur.u64()?,
                dir: get_direction(&mut cur)?,
                t: cur.u64()?,
            },
            VERTEX_EDGE_LABELS => Request::VertexEdgeLabels {
                v: cur.u64()?,
                dir: get_direction(&mut cur)?,
                t: cur.u64()?,
            },
            SCAN_VERTICES => Request::ScanVertices { t: cur.u64()? },
            SCAN_EDGES => Request::ScanEdges { t: cur.u64()? },
            VERTEX_PROPERTY => Request::VertexProperty {
                v: cur.u64()?,
                name: cur.str_()?,
            },
            EDGE_PROPERTY => Request::EdgeProperty {
                e: cur.u64()?,
                name: cur.str_()?,
            },
            EDGE_ENDPOINTS => Request::EdgeEndpoints(cur.u64()?),
            EDGE_LABEL => Request::EdgeLabel(cur.u64()?),
            VERTEX_LABEL => Request::VertexLabel(cur.u64()?),
            DEGREE_SCAN => Request::DegreeScan {
                dir: get_direction(&mut cur)?,
                k: cur.u64()?,
                t: cur.u64()?,
            },
            DISTINCT_NEIGHBOR_SCAN => Request::DistinctNeighborScan {
                dir: get_direction(&mut cur)?,
                t: cur.u64()?,
            },
            CREATE_VERTEX_INDEX => Request::CreateVertexIndex { prop: cur.str_()? },
            HAS_VERTEX_INDEX => Request::HasVertexIndex { prop: cur.str_()? },
            SPACE => Request::Space,
            SYNC => Request::Sync,
            EXEC_BATCH => {
                let n = cur.list_len("batch entries")?;
                let mut reqs = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = cur.u32()? as usize;
                    let sub = cur.bytes(len, "batch entry")?;
                    // Reject nesting *before* recursing: a nested batch
                    // would make decode depth attacker-controlled, and a
                    // Hello mid-stream would re-run the handshake.
                    match sub.first() {
                        Some(&EXEC_BATCH) => {
                            return Err(GdbError::Corrupt("wire: nested ExecBatch entry".into()))
                        }
                        Some(&HELLO) => {
                            return Err(GdbError::Corrupt("wire: Hello inside ExecBatch".into()))
                        }
                        _ => {}
                    }
                    reqs.push(Request::decode(sub)?);
                }
                Request::ExecBatch(reqs)
            }
            EPOCH => Request::Epoch,
            TXN_BEGIN => Request::TxnBegin,
            TXN_COMMIT => Request::TxnCommit,
            TXN_ABORT => Request::TxnAbort,
            op => {
                return Err(GdbError::Corrupt(format!(
                    "wire: unknown request op {op:#x}"
                )))
            }
        };
        cur.finish()?;
        Ok(req)
    }
}

// ----- response codec ------------------------------------------------------

mod rsp_op {
    pub const HELLO_ACK: u8 = 0x80;
    pub const UNIT: u8 = 0x81;
    pub const BOOL: u8 = 0x82;
    pub const U64: u8 = 0x83;
    pub const OPT_U64: u8 = 0x84;
    pub const U64_LIST: u8 = 0x85;
    pub const STR_LIST: u8 = 0x86;
    pub const OPT_VALUE: u8 = 0x87;
    pub const OPT_STR: u8 = 0x88;
    pub const OPT_PAIR: u8 = 0x89;
    pub const EDGE_REFS: u8 = 0x8A;
    pub const OPT_VERTEX: u8 = 0x8B;
    pub const OPT_EDGE: u8 = 0x8C;
    pub const LOAD: u8 = 0x8D;
    pub const FEATURES: u8 = 0x8E;
    pub const SPACE: u8 = 0x8F;
    pub const EXEC_DONE: u8 = 0x90;
    pub const STATS: u8 = 0x91;
    pub const TRACES: u8 = 0x92;
    pub const BATCH_DONE: u8 = 0x93;
    pub const TXN_BEGUN: u8 = 0x94;
    pub const TXN_COMMITTED: u8 = 0x95;
    pub const TXN_ABORTED: u8 = 0x96;
    pub const ERR: u8 = 0xFF;
}

impl Response {
    /// Encode into a frame payload. Fails with a `FrameTooLarge` protocol
    /// error when any field cannot fit its u32 length prefix.
    pub fn encode(&self) -> GdbResult<Vec<u8>> {
        use rsp_op::*;
        let mut out = Vec::new();
        match self {
            Response::HelloAck {
                version,
                engine,
                shard,
            } => {
                wire::put_u8(&mut out, HELLO_ACK);
                wire::put_u16(&mut out, *version);
                wire::put_str(&mut out, engine)?;
                match shard {
                    None => wire::put_bool(&mut out, false),
                    Some((id, fleet)) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u32(&mut out, *id);
                        wire::put_u32(&mut out, *fleet);
                    }
                }
            }
            Response::Unit => wire::put_u8(&mut out, UNIT),
            Response::Bool(b) => {
                wire::put_u8(&mut out, BOOL);
                wire::put_bool(&mut out, *b);
            }
            Response::U64(v) => {
                wire::put_u8(&mut out, U64);
                wire::put_u64(&mut out, *v);
            }
            Response::ExecDone {
                card,
                epoch,
                lock_wait,
                exec_nanos,
                pin_nanos,
                clone_nanos,
            } => {
                wire::put_u8(&mut out, EXEC_DONE);
                wire::put_u64(&mut out, *card);
                wire::put_u64(&mut out, *lock_wait);
                wire::put_u64(&mut out, *exec_nanos);
                wire::put_u64(&mut out, *pin_nanos);
                wire::put_u64(&mut out, *clone_nanos);
                match epoch {
                    None => wire::put_bool(&mut out, false),
                    Some(e) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u64(&mut out, *e);
                    }
                }
            }
            Response::OptU64(v) => {
                wire::put_u8(&mut out, OPT_U64);
                match v {
                    None => wire::put_bool(&mut out, false),
                    Some(v) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u64(&mut out, *v);
                    }
                }
            }
            Response::U64List(xs) => {
                wire::put_u8(&mut out, U64_LIST);
                put_u64_list(&mut out, xs);
            }
            Response::StrList(xs) => {
                wire::put_u8(&mut out, STR_LIST);
                put_str_list(&mut out, xs)?;
            }
            Response::OptValue(v) => {
                wire::put_u8(&mut out, OPT_VALUE);
                match v {
                    None => wire::put_bool(&mut out, false),
                    Some(v) => {
                        wire::put_bool(&mut out, true);
                        wire::put_value(&mut out, v);
                    }
                }
            }
            Response::OptStr(s) => {
                wire::put_u8(&mut out, OPT_STR);
                wire::put_opt_str(&mut out, s.as_deref())?;
            }
            Response::OptPair(p) => {
                wire::put_u8(&mut out, OPT_PAIR);
                match p {
                    None => wire::put_bool(&mut out, false),
                    Some((a, b)) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u64(&mut out, *a);
                        wire::put_u64(&mut out, *b);
                    }
                }
            }
            Response::EdgeRefs(refs) => {
                wire::put_u8(&mut out, EDGE_REFS);
                wire::put_u32(&mut out, refs.len() as u32);
                for r in refs {
                    wire::put_u64(&mut out, r.eid.0);
                    wire::put_u64(&mut out, r.other.0);
                }
            }
            Response::OptVertex(v) => {
                wire::put_u8(&mut out, OPT_VERTEX);
                match v {
                    None => wire::put_bool(&mut out, false),
                    Some(v) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u64(&mut out, v.id.0);
                        wire::put_str(&mut out, &v.label)?;
                        wire::put_props(&mut out, &v.props)?;
                    }
                }
            }
            Response::OptEdge(e) => {
                wire::put_u8(&mut out, OPT_EDGE);
                match e {
                    None => wire::put_bool(&mut out, false),
                    Some(e) => {
                        wire::put_bool(&mut out, true);
                        wire::put_u64(&mut out, e.id.0);
                        wire::put_u64(&mut out, e.src.0);
                        wire::put_u64(&mut out, e.dst.0);
                        wire::put_str(&mut out, &e.label)?;
                        wire::put_props(&mut out, &e.props)?;
                    }
                }
            }
            Response::Load(stats) => {
                wire::put_u8(&mut out, LOAD);
                wire::put_u64(&mut out, stats.vertices);
                wire::put_u64(&mut out, stats.edges);
            }
            Response::Features(f) => {
                wire::put_u8(&mut out, FEATURES);
                wire::put_str(&mut out, &f.name)?;
                wire::put_str(&mut out, &f.system_type)?;
                wire::put_str(&mut out, &f.storage)?;
                wire::put_str(&mut out, &f.edge_traversal)?;
                wire::put_bool(&mut out, f.optimized_adapter);
                wire::put_bool(&mut out, f.async_writes);
                wire::put_bool(&mut out, f.attribute_indexes);
            }
            Response::Space(report) => {
                wire::put_u8(&mut out, SPACE);
                wire::put_u32(&mut out, report.components.len() as u32);
                for (name, bytes) in &report.components {
                    wire::put_str(&mut out, name)?;
                    wire::put_u64(&mut out, *bytes);
                }
            }
            Response::Stats(s) => {
                wire::put_u8(&mut out, STATS);
                put_stats(&mut out, s)?;
            }
            Response::Traces(rs) => {
                wire::put_u8(&mut out, TRACES);
                wire::put_u32(&mut out, rs.len() as u32);
                for r in rs {
                    put_trace_record(&mut out, r);
                }
            }
            Response::BatchDone(rsps) => {
                wire::put_u8(&mut out, BATCH_DONE);
                wire::put_u32(&mut out, rsps.len() as u32);
                for r in rsps {
                    let sub = r.encode()?;
                    let len = u32::try_from(sub.len())
                        .map_err(|_| wire::frame_too_large("batch response", sub.len()))?;
                    wire::put_u32(&mut out, len);
                    out.extend_from_slice(&sub);
                }
            }
            Response::TxnBegun { epoch } => {
                wire::put_u8(&mut out, TXN_BEGUN);
                wire::put_u64(&mut out, *epoch);
            }
            Response::TxnCommitted { ops, epoch } => {
                wire::put_u8(&mut out, TXN_COMMITTED);
                wire::put_u64(&mut out, *ops);
                wire::put_u64(&mut out, *epoch);
            }
            Response::TxnAborted { ops } => {
                wire::put_u8(&mut out, TXN_ABORTED);
                wire::put_u64(&mut out, *ops);
            }
            Response::Err(e) => {
                wire::put_u8(&mut out, ERR);
                wire::put_error(&mut out, e)?;
            }
        }
        Ok(out)
    }

    /// Decode a frame payload.
    pub fn decode(buf: &[u8]) -> GdbResult<Response> {
        use gm_model::{Eid, Vid};
        use rsp_op::*;
        let mut cur = Cur::new(buf);
        let rsp = match cur.u8()? {
            HELLO_ACK => Response::HelloAck {
                version: cur.u16()?,
                engine: cur.str_()?,
                shard: if cur.bool_()? {
                    Some((cur.u32()?, cur.u32()?))
                } else {
                    None
                },
            },
            UNIT => Response::Unit,
            BOOL => Response::Bool(cur.bool_()?),
            U64 => Response::U64(cur.u64()?),
            EXEC_DONE => Response::ExecDone {
                card: cur.u64()?,
                lock_wait: cur.u64()?,
                exec_nanos: cur.u64()?,
                pin_nanos: cur.u64()?,
                clone_nanos: cur.u64()?,
                epoch: if cur.bool_()? { Some(cur.u64()?) } else { None },
            },
            OPT_U64 => Response::OptU64(if cur.bool_()? { Some(cur.u64()?) } else { None }),
            U64_LIST => Response::U64List(get_u64_list(&mut cur)?),
            STR_LIST => Response::StrList(get_str_list(&mut cur)?),
            OPT_VALUE => Response::OptValue(if cur.bool_()? {
                Some(cur.value()?)
            } else {
                None
            }),
            OPT_STR => Response::OptStr(cur.opt_str()?),
            OPT_PAIR => Response::OptPair(if cur.bool_()? {
                Some((cur.u64()?, cur.u64()?))
            } else {
                None
            }),
            EDGE_REFS => {
                let n = cur.list_len("edge refs")?;
                let mut refs = Vec::with_capacity(n);
                for _ in 0..n {
                    refs.push(EdgeRef {
                        eid: Eid(cur.u64()?),
                        other: Vid(cur.u64()?),
                    });
                }
                Response::EdgeRefs(refs)
            }
            OPT_VERTEX => Response::OptVertex(if cur.bool_()? {
                Some(VertexData {
                    id: Vid(cur.u64()?),
                    label: cur.str_()?,
                    props: cur.props()?,
                })
            } else {
                None
            }),
            OPT_EDGE => Response::OptEdge(if cur.bool_()? {
                Some(EdgeData {
                    id: Eid(cur.u64()?),
                    src: Vid(cur.u64()?),
                    dst: Vid(cur.u64()?),
                    label: cur.str_()?,
                    props: cur.props()?,
                })
            } else {
                None
            }),
            LOAD => Response::Load(LoadStats {
                vertices: cur.u64()?,
                edges: cur.u64()?,
            }),
            FEATURES => Response::Features(EngineFeatures {
                name: cur.str_()?,
                system_type: cur.str_()?,
                storage: cur.str_()?,
                edge_traversal: cur.str_()?,
                optimized_adapter: cur.bool_()?,
                async_writes: cur.bool_()?,
                attribute_indexes: cur.bool_()?,
            }),
            SPACE => {
                let n = cur.list_len("space components")?;
                let mut report = SpaceReport::default();
                for _ in 0..n {
                    let name = cur.str_()?;
                    let bytes = cur.u64()?;
                    report.add(name, bytes);
                }
                Response::Space(report)
            }
            STATS => Response::Stats(get_stats(&mut cur)?),
            TRACES => {
                let n = cur.list_len("trace records")?;
                let mut rs = Vec::with_capacity(n);
                for _ in 0..n {
                    rs.push(get_trace_record(&mut cur)?);
                }
                Response::Traces(rs)
            }
            BATCH_DONE => {
                let n = cur.list_len("batch responses")?;
                let mut rsps = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = cur.u32()? as usize;
                    let sub = cur.bytes(len, "batch response")?;
                    // Same nesting bound as the request side.
                    if sub.first() == Some(&BATCH_DONE) {
                        return Err(GdbError::Corrupt("wire: nested BatchDone entry".into()));
                    }
                    rsps.push(Response::decode(sub)?);
                }
                Response::BatchDone(rsps)
            }
            TXN_BEGUN => Response::TxnBegun { epoch: cur.u64()? },
            TXN_COMMITTED => Response::TxnCommitted {
                ops: cur.u64()?,
                epoch: cur.u64()?,
            },
            TXN_ABORTED => Response::TxnAborted { ops: cur.u64()? },
            ERR => Response::Err(wire::get_error(&mut cur)?),
            op => {
                return Err(GdbError::Corrupt(format!(
                    "wire: unknown response op {op:#x}"
                )))
            }
        };
        cur.finish()?;
        Ok(rsp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Hello {
                magic: MAGIC,
                version: PROTO_VERSION,
            },
            Request::Reset,
            Request::Prepare {
                seed: 42,
                slots: 16,
            },
            Request::ExecOp {
                worker: 3,
                op_index: 99,
                trace_id: 0xDEAD_BEEF_CAFE_0001,
                timeout_micros: 5_000_000,
                strict: false,
                op: Op::Read(QueryInstance {
                    id: QueryId::Q32,
                    depth: Some(3),
                    k: None,
                }),
            },
            Request::ExecOp {
                worker: 0,
                op_index: 0,
                trace_id: 0,
                timeout_micros: 0,
                strict: true,
                op: Op::Write(WriteOp::RemoveOwnEdge),
            },
            Request::Neighbors {
                v: 7,
                dir: Direction::Both,
                label: Some("knows".into()),
                t: 123,
            },
            Request::DegreeScan {
                dir: Direction::In,
                k: 4,
                t: 0,
            },
            Request::VerticesWithProperty {
                name: "name".into(),
                value: Value::Str("ann".into()),
                t: 1,
            },
            Request::Space,
            Request::Sync,
            Request::GetStats,
            Request::GetTraces,
            Request::Epoch,
            Request::TxnBegin,
            Request::TxnCommit,
            Request::TxnAbort,
            Request::ExecBatch(vec![]),
            Request::ExecBatch(vec![
                Request::AddVertex {
                    label: "wl_vertex".into(),
                    props: vec![("wl_worker".into(), Value::Int(2))],
                },
                Request::AddEdge {
                    src: 11,
                    dst: 42,
                    label: "wl_edge".into(),
                    props: vec![],
                },
                Request::RemoveEdge(9),
                Request::Epoch,
            ]),
        ];
        for req in reqs {
            let bytes = req.encode().unwrap();
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn dataset_ships_whole() {
        let data = testkit::chain_dataset(40);
        let req = Request::BulkLoad {
            opts: LoadOptions::default(),
            data: data.clone(),
        };
        let bytes = req.encode().unwrap();
        match Request::decode(&bytes).unwrap() {
            Request::BulkLoad { data: back, .. } => {
                assert_eq!(back.name, data.name);
                assert_eq!(back.vertices, data.vertices);
                assert_eq!(back.edges, data.edges);
            }
            other => panic!("wrong request decoded: {other:?}"),
        }
    }

    #[test]
    fn response_round_trips() {
        use gm_model::{Eid, Vid};
        let rsps = vec![
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "linked(v2)".into(),
                shard: None,
            },
            Response::HelloAck {
                version: PROTO_VERSION,
                engine: "triple".into(),
                shard: Some((2, 4)),
            },
            Response::BatchDone(vec![]),
            Response::BatchDone(vec![
                Response::U64(1),
                Response::Err(GdbError::VertexNotFound(7)),
                Response::Unit,
            ]),
            Response::Unit,
            Response::Bool(true),
            Response::U64(7),
            Response::ExecDone {
                card: 12,
                epoch: Some(9),
                lock_wait: 1_250,
                exec_nanos: 48_000,
                pin_nanos: 700,
                clone_nanos: 3_000,
            },
            Response::ExecDone {
                card: 0,
                epoch: None,
                lock_wait: 0,
                exec_nanos: 0,
                pin_nanos: 0,
                clone_nanos: 0,
            },
            Response::OptU64(None),
            Response::OptU64(Some(3)),
            Response::U64List(vec![1, 2, 3]),
            Response::StrList(vec!["a".into(), "b".into()]),
            Response::OptValue(Some(Value::Float(1.5))),
            Response::OptStr(Some("knows".into())),
            Response::OptPair(Some((4, 5))),
            Response::EdgeRefs(vec![EdgeRef {
                eid: Eid(1),
                other: Vid(2),
            }]),
            Response::OptVertex(Some(VertexData {
                id: Vid(9),
                label: "person".into(),
                props: vec![("name".into(), Value::Str("ann".into()))],
            })),
            Response::OptEdge(Some(EdgeData {
                id: Eid(1),
                src: Vid(2),
                dst: Vid(3),
                label: "knows".into(),
                props: vec![],
            })),
            Response::Load(LoadStats {
                vertices: 10,
                edges: 20,
            }),
            Response::Space({
                let mut r = SpaceReport::default();
                r.add("node records", 4096);
                r
            }),
            Response::Stats(RegistrySnapshot::default()),
            Response::Traces(vec![]),
            Response::Traces(vec![
                TraceRecord {
                    id: 0x0123_4567_89AB_CDEF,
                    worker: 5,
                    op_index: 1_000,
                    op_code: 23,
                    start_us: 987_654,
                    total_nanos: 1_234_567,
                    phases: {
                        let mut p = PhaseNanos::zero();
                        p.set(gm_obs::Phase::EngineExec, 900_000);
                        p.set(gm_obs::Phase::WireIo, 300_000);
                        p
                    },
                    origin: TraceOrigin::Client,
                    tail: true,
                },
                TraceRecord {
                    id: 1,
                    worker: 0,
                    op_index: 0,
                    op_code: 201,
                    start_us: 0,
                    total_nanos: u64::MAX,
                    phases: PhaseNanos::zero(),
                    origin: TraceOrigin::Server,
                    tail: false,
                },
            ]),
            Response::Stats({
                let r = gm_obs::Registry::new();
                r.counter("net.ops").add(41);
                r.counter("shard.0.ops").add(7);
                r.gauge("mvcc.cow.epoch").set(12);
                r.gauge("negative").set(-9);
                let h = r.histogram("op_nanos");
                h.record(0);
                h.record(1_000);
                h.record(u64::MAX);
                r.snapshot()
            }),
            Response::TxnBegun { epoch: 42 },
            Response::TxnCommitted { ops: 9, epoch: 43 },
            Response::TxnAborted { ops: 3 },
            Response::Err(GdbError::TxnConflict("vertex v7".into())),
            Response::Err(GdbError::Poisoned("writer panicked".into())),
        ];
        for rsp in rsps {
            let bytes = rsp.encode().unwrap();
            assert_eq!(Response::decode(&bytes).unwrap(), rsp, "{rsp:?}");
        }
    }

    #[test]
    fn unknown_opcodes_rejected() {
        assert!(matches!(
            Request::decode(&[0x7F]),
            Err(GdbError::Corrupt(_))
        ));
        assert!(matches!(
            Response::decode(&[0x00]),
            Err(GdbError::Corrupt(_))
        ));
        assert!(matches!(Request::decode(&[]), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Request::Reset.encode().unwrap();
        bytes.push(0xAB);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn mutation_query_number_decodes_but_is_flagged() {
        // Encoding a mutating QueryInstance inside Op::Read is representable
        // on the wire; the *server* rejects it (catalog::execute_read would
        // panic). Make sure decode itself stays total.
        let req = Request::ExecOp {
            worker: 0,
            op_index: 0,
            trace_id: 0,
            timeout_micros: 0,
            strict: false,
            op: Op::Read(QueryInstance::plain(QueryId::Q2)),
        };
        let back = Request::decode(&req.encode().unwrap()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn bad_query_number_rejected() {
        let mut bytes = Request::ExecOp {
            worker: 0,
            op_index: 0,
            trace_id: 0,
            timeout_micros: 0,
            strict: false,
            op: Op::Read(QueryInstance::plain(QueryId::Q8)),
        }
        .encode()
        .unwrap();
        // Patch the query number
        // (offset: op(1)+worker(4)+op_index(8)+trace(8)+t(8)+strict(1)+tag(1)).
        bytes[31] = 99;
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn corrupt_trace_records_rejected() {
        let rsp = Response::Traces(vec![TraceRecord {
            id: 7,
            worker: 1,
            op_index: 2,
            op_code: 8,
            start_us: 3,
            total_nanos: 4,
            phases: PhaseNanos::zero(),
            origin: TraceOrigin::Client,
            tail: false,
        }]);
        let good = rsp.encode().unwrap();
        assert_eq!(Response::decode(&good).unwrap(), rsp);
        // Patch the phase count (offset: op(1)+len(4)+id(8)+worker(4)+
        // op_index(8)+op_code(2)+start(8)+total(8)).
        let mut bad = good.clone();
        bad[43] = PHASES as u8 + 1;
        assert!(matches!(Response::decode(&bad), Err(GdbError::Corrupt(_))));
        // Patch the origin byte (phase count + PHASES u64s later).
        let mut bad = good.clone();
        bad[44 + PHASES * 8] = 9;
        assert!(matches!(Response::decode(&bad), Err(GdbError::Corrupt(_))));
    }

    #[test]
    fn response_kind_names_cover_mismatch_diagnostics() {
        assert_eq!(Response::Unit.kind(), "Unit");
        assert_eq!(Response::Err(GdbError::Timeout).kind(), "Err");
        assert_eq!(Response::BatchDone(vec![]).kind(), "BatchDone");
    }

    #[test]
    fn nested_batches_rejected() {
        // A batch inside a batch is representable by hand-crafting bytes but
        // must be refused: decode recursion depth stays at one.
        let inner = Request::ExecBatch(vec![Request::Reset]).encode().unwrap();
        let mut bytes = vec![0x08];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&inner);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));

        let hello = Request::Hello {
            magic: MAGIC,
            version: PROTO_VERSION,
        }
        .encode()
        .unwrap();
        let mut bytes = vec![0x08];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(hello.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&hello);
        assert!(matches!(Request::decode(&bytes), Err(GdbError::Corrupt(_))));

        let inner = Response::BatchDone(vec![Response::Unit]).encode().unwrap();
        let mut bytes = vec![0x93];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&(inner.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&inner);
        assert!(matches!(
            Response::decode(&bytes),
            Err(GdbError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_batch_rejected() {
        let bytes = Request::ExecBatch(vec![Request::Reset, Request::Sync])
            .encode()
            .unwrap();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "prefix of len {cut} accepted"
            );
        }
    }
}
