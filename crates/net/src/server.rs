//! The std-only TCP engine server.
//!
//! One [`Server`] hosts one engine behind the same `RwLock` contract the
//! in-process driver uses — concurrent connections execute reads under the
//! shared lock while writes serialize under the exclusive one — with a
//! thread-per-connection accept loop. Each connection is a plain
//! read→execute→respond loop, so **pipelined** clients (several requests in
//! flight on one connection) are handled naturally: responses come back in
//! request order.
//!
//! The server is deliberately tokio-free: the paper's systems all expose a
//! blocking socket server per client connection, and a thread-per-connection
//! std server reproduces that deployment shape with no runtime dependency.
//!
//! State machine per connection: [`Request::Hello`] first (magic + version
//! checked, [`Response::HelloAck`] returned), then any mix of primitive
//! `GraphDb` calls and workload frames. `Reset` → `BulkLoad` → `Prepare` →
//! `ExecOp…` is the canonical benchmarking sequence (see
//! [`crate::client::run_remote`]).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

use gm_core::catalog;
use gm_core::params::{ResolvedParams, Workload};
use gm_model::lockorder::{self, LockRank, Ranked};
use gm_model::{
    Dataset, Eid, GdbError, GdbResult, GraphDb, GraphSnapshot, QueryCtx, SharedGraph, Vid,
};
use gm_mvcc::{SnapshotSource, SourceFactory, WriteTxn};
use gm_obs::{phase, trace, Counter, Histo, Phase};
use gm_workload::{apply_write, Op};

use crate::proto::{Request, Response, MAGIC, PROTO_VERSION};
use crate::wire;

/// Factory producing fresh, empty engines — what `Reset` swaps in.
pub type EngineFactory = Box<dyn Fn() -> Box<dyn GraphDb> + Send + Sync>;

/// Factory producing fresh, empty internally-synchronized graphs
/// ([`SharedGraph`], e.g. `gm-shard`'s per-partition-locked composite).
pub type SharedFactory = Box<dyn Fn() -> Box<dyn SharedGraph> + Send + Sync>;

/// The two hosting modes a server can run in.
///
/// * `Locked` — the original contract: one engine behind an `RwLock`, reads
///   under the shared lock (a long remote scan blocks every remote writer).
/// * `Snapshot` — a `gm-mvcc` [`SnapshotSource`]: every read request pins an
///   immutable epoch and executes against it, so remote scans never block
///   remote writers, and `ExecOp` responses carry the serving epoch.
/// * `Shared` — an internally-synchronized [`SharedGraph`] (`gm-shard`'s
///   per-partition-locked composite): reads *and* writes take only the
///   outer lock's **shared** side (the exclusive side exists solely for
///   `Reset`'s engine swap), so concurrent remote writers landing on
///   different shards do not serialize in the server — the composite's own
///   per-shard locks are the only synchronization on the op path.
enum HostedEngine {
    Locked {
        factory: EngineFactory,
        engine: RwLock<Box<dyn GraphDb>>,
    },
    Snapshot {
        factory: SourceFactory,
        source: RwLock<Box<dyn SnapshotSource>>,
    },
    Shared {
        factory: SharedFactory,
        graph: RwLock<Box<dyn SharedGraph>>,
    },
}

/// A read execution view: the shared-lock guard, a pinned epoch, or a
/// swap-guard over an internally-synchronized graph.
enum ReadView<'a> {
    Guard(Ranked<RwLockReadGuard<'a, Box<dyn GraphDb>>>),
    Snap(Box<dyn GraphSnapshot>),
    Shared(Ranked<RwLockReadGuard<'a, Box<dyn SharedGraph>>>),
}

impl ReadView<'_> {
    /// The read-only engine surface to execute against.
    fn snap(&self) -> &dyn GraphSnapshot {
        match self {
            ReadView::Guard(guard) => {
                let db: &dyn GraphDb = &***guard;
                db
            }
            ReadView::Snap(snap) => snap.as_ref(),
            ReadView::Shared(guard) => {
                let g: &dyn SharedGraph = &***guard;
                g
            }
        }
    }

    /// Serving epoch: `Some` only for pinned snapshot views.
    fn epoch(&self) -> Option<u64> {
        match self {
            ReadView::Guard(_) | ReadView::Shared(_) => None,
            ReadView::Snap(snap) => Some(snap.epoch()),
        }
    }
}

/// Everything the connection handlers share.
struct Hosted {
    engine: HostedEngine,
    /// Dataset retained from the last `BulkLoad`, for `Prepare`.
    data: Mutex<Option<Dataset>>,
    /// Workload parameters resolved by `Prepare`, snapshotted per op.
    params: RwLock<Option<Arc<ResolvedParams>>>,
    /// Bumped by every `Reset`. Connections stamp their `owned_edges` pool
    /// with the generation it was filled under and discard it when the
    /// engine has since been replaced — a stale `Eid` from a discarded
    /// engine must never delete an edge of the freshly loaded one.
    generation: AtomicU64,
    /// Fleet identity `(shard_id, fleet_size)` echoed in every `HelloAck`
    /// so a fleet client can verify it dialed the shard it routed to.
    shard: Option<(u32, u32)>,
}

impl Hosted {
    fn poisoned(side: &str) -> GdbError {
        GdbError::Poisoned(format!(
            "server: engine {side} lock poisoned by a panicking writer"
        ))
    }

    fn engine_name(&self) -> GdbResult<String> {
        Ok(self.read_view()?.snap().name())
    }

    /// A read view of the hosted engine: the shared-lock guard in locked
    /// mode, a freshly pinned (strict, read-your-writes) epoch in snapshot
    /// mode. Used by the primitive `GraphDb` frames, where a client issuing
    /// `add_vertex` then `vertex_count` on one connection must see its own
    /// write.
    fn read_view(&self) -> GdbResult<ReadView<'_>> {
        match &self.engine {
            HostedEngine::Locked { engine, .. } => {
                // gm-lock: driver
                let t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine read");
                Ok(ReadView::Guard(Ranked::new(
                    phase::timed(Phase::LockWait, || engine.read())
                        .map_err(|_| Self::poisoned("read"))?,
                    t,
                )))
            }
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver transient
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source read pin");
                Ok(ReadView::Snap(
                    phase::timed(Phase::LockWait, || source.read())
                        .map_err(|_| Self::poisoned("source read"))?
                        .snapshot()?,
                ))
            }
            HostedEngine::Shared { graph, .. } => {
                // gm-lock: driver
                let t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared read");
                Ok(ReadView::Shared(Ranked::new(
                    phase::timed(Phase::LockWait, || graph.read())
                        .map_err(|_| Self::poisoned("shared read"))?,
                    t,
                )))
            }
        }
    }

    /// Like [`Hosted::read_view`], but in snapshot mode the pin tolerates
    /// bounded staleness (`gm-workload`'s pin cadence), so the `ExecOp` hot
    /// path never serializes behind per-request epoch publishes.
    fn read_view_recent(&self) -> GdbResult<ReadView<'_>> {
        match &self.engine {
            HostedEngine::Locked { .. } | HostedEngine::Shared { .. } => self.read_view(),
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver transient
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source recent pin");
                Ok(ReadView::Snap(
                    phase::timed(Phase::LockWait, || source.read())
                        .map_err(|_| Self::poisoned("source read"))?
                        .snapshot_recent(gm_workload::SNAPSHOT_PIN_STALENESS)?,
                ))
            }
        }
    }

    /// Run one mutation against the hosted engine (exclusive lock in locked
    /// mode, the source's write path in snapshot mode).
    fn with_engine_write<R>(
        &self,
        f: impl FnOnce(&mut dyn GraphDb) -> GdbResult<R>,
    ) -> GdbResult<R> {
        match &self.engine {
            HostedEngine::Locked { engine, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine write");
                let mut db = phase::timed(Phase::LockWait, || engine.write())
                    .map_err(|_| Self::poisoned("write"))?;
                f(db.as_mut())
            }
            HostedEngine::Snapshot { source, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source write");
                let source = phase::timed(Phase::LockWait, || source.read())
                    .map_err(|_| Self::poisoned("source read"))?;
                let mut once = Some(f);
                let mut out: Option<R> = None;
                source.with_write(&mut |db| {
                    let f = once.take().expect("write closure runs once");
                    out = Some(f(db)?);
                    Ok(0)
                })?;
                Ok(out.expect("write closure ran"))
            }
            // The graph synchronizes internally (per-shard locks): writes
            // take only the *shared* side of the swap lock, so two remote
            // writers landing on different shards run in parallel.
            HostedEngine::Shared { graph, .. } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared write");
                let graph = phase::timed(Phase::LockWait, || graph.read())
                    .map_err(|_| Self::poisoned("shared read"))?;
                let mut once = Some(f);
                let mut out: Option<R> = None;
                graph.with_write(&mut |db| {
                    let f = once.take().expect("write closure runs once");
                    out = Some(f(db)?);
                    Ok(0)
                })?;
                Ok(out.expect("write closure ran"))
            }
        }
    }

    /// Replace the hosted engine with a fresh one from its factory.
    fn reset_engine(&self) -> GdbResult<()> {
        match &self.engine {
            HostedEngine::Locked { factory, engine } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs engine reset");
                let mut db = engine.write().map_err(|_| Self::poisoned("write"))?;
                *db = factory();
            }
            HostedEngine::Snapshot { factory, source } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs source reset");
                let mut src = source.write().map_err(|_| Self::poisoned("source write"))?;
                *src = factory();
            }
            HostedEngine::Shared { factory, graph } => {
                // gm-lock: driver
                let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs shared reset");
                let mut g = graph.write().map_err(|_| Self::poisoned("shared write"))?;
                *g = factory();
            }
        }
        Ok(())
    }
}

/// A bound, not-yet-running engine server.
pub struct Server {
    listener: TcpListener,
    hosted: Arc<Hosted>,
    stop: Arc<AtomicBool>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (use `"127.0.0.1:0"` at bind time to get an
    /// OS-assigned loopback port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Connections
    /// already open keep working until their clients hang up; they hold only
    /// an `Arc` to the hosted engine.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

impl Server {
    /// Bind to `addr` (e.g. `"127.0.0.1:7687"` or `"127.0.0.1:0"`), hosting
    /// engines produced by `factory` behind the shared `RwLock` (reads block
    /// writes and vice versa). One engine is created immediately so the
    /// server is usable before any `Reset`.
    pub fn bind(addr: &str, factory: EngineFactory) -> GdbResult<Server> {
        let engine = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Locked {
                factory,
                engine: RwLock::new(engine),
            },
        )
    }

    /// Bind to `addr` hosting a `gm-mvcc` snapshot source: read requests pin
    /// an immutable epoch (remote scans never block remote writers) and
    /// `ExecOp` responses carry the serving epoch.
    pub fn bind_snapshot(addr: &str, factory: SourceFactory) -> GdbResult<Server> {
        let source = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Snapshot {
                factory,
                source: RwLock::new(source),
            },
        )
    }

    /// Bind to `addr` hosting an internally-synchronized [`SharedGraph`]
    /// (e.g. `gm-shard`'s per-partition-locked composite): both reads and
    /// writes take only the shared side of the outer swap lock, so the
    /// hosted graph's own locks are the only synchronization on the op
    /// path — one server, many shards.
    pub fn bind_sharded(addr: &str, factory: SharedFactory) -> GdbResult<Server> {
        let graph = factory();
        Self::bind_hosted(
            addr,
            HostedEngine::Shared {
                factory,
                graph: RwLock::new(graph),
            },
        )
    }

    fn bind_hosted(addr: &str, engine: HostedEngine) -> GdbResult<Server> {
        let listener =
            TcpListener::bind(addr).map_err(|e| GdbError::Io(format!("binding {addr}: {e}")))?;
        Ok(Server {
            listener,
            hosted: Arc::new(Hosted {
                engine,
                data: Mutex::new(None),
                params: RwLock::new(None),
                generation: AtomicU64::new(0),
                shard: None,
            }),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// Declare this server one shard of a fleet: `HelloAck` then carries
    /// `(shard_id, fleet_size)` so a fleet client can verify its routing
    /// table against the process it actually dialed. Call before
    /// [`Server::run`]/[`Server::spawn`] — identity is fixed once serving.
    pub fn with_shard_identity(mut self, shard_id: u32, fleet_size: u32) -> Server {
        if let Some(hosted) = Arc::get_mut(&mut self.hosted) {
            hosted.shard = Some((shard_id, fleet_size));
        }
        self
    }

    /// The bound address.
    pub fn local_addr(&self) -> GdbResult<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| GdbError::Io(e.to_string()))
    }

    /// Run the accept loop on the current thread until shutdown (the
    /// `gm-server` binary's main loop).
    pub fn run(self) {
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(stream) => {
                    let hosted = Arc::clone(&self.hosted);
                    thread::spawn(move || handle_conn(stream, hosted));
                }
                Err(e) => eprintln!("[gm-server] accept failed: {e}"),
            }
        }
    }

    /// Run the accept loop on a background thread; returns a handle with
    /// the bound address and a shutdown switch.
    pub fn spawn(self) -> GdbResult<ServerHandle> {
        let addr = self.local_addr()?;
        let stop = Arc::clone(&self.stop);
        let join = thread::spawn(move || self.run());
        Ok(ServerHandle { addr, stop, join })
    }
}

/// Server-side op metrics (`net.ops` counter, `net.op_nanos` latency
/// histogram), resolved once against the global registry. `None` under
/// `GM_OBS=off` so the hot path pays nothing.
struct NetMetrics {
    ops: Counter,
    op_nanos: Histo,
}

/// The server's tail gate: one latency population per process (every op
/// the server executes), feeding the global flight recorder.
static SERVER_GATE: trace::TailGate = trace::TailGate::new();

fn net_metrics() -> Option<&'static NetMetrics> {
    static METRICS: OnceLock<Option<NetMetrics>> = OnceLock::new();
    METRICS
        .get_or_init(|| {
            gm_obs::counters_on().then(|| {
                let g = gm_obs::global();
                NetMetrics {
                    ops: g.counter("net.ops"),
                    op_nanos: g.histogram("net.op_nanos"),
                }
            })
        })
        .as_ref()
}

/// Deadline context from a wire timeout (0 = unbounded).
fn ctx_for(timeout_micros: u64) -> QueryCtx {
    if timeout_micros == 0 {
        QueryCtx::unbounded()
    } else {
        QueryCtx::with_timeout(Duration::from_micros(timeout_micros))
    }
}

fn handle_conn(stream: TcpStream, hosted: Arc<Hosted>) {
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[gm-server] cannot clone stream: {e}");
            return;
        }
    };
    let mut writer = stream;

    // Handshake first: anything else (or a magic/version mismatch) gets one
    // error frame and the connection is closed — never misparse an
    // incompatible peer.
    match read_request(&mut reader) {
        Ok(Request::Hello { magic, version }) if magic == MAGIC && version == PROTO_VERSION => {
            let rsp = match hosted.engine_name() {
                Ok(engine) => Response::HelloAck {
                    version: PROTO_VERSION,
                    engine,
                    shard: hosted.shard,
                },
                Err(e) => Response::Err(e),
            };
            if write_response(&mut writer, &rsp).is_err() {
                return;
            }
        }
        Ok(Request::Hello { magic, version }) => {
            let why = format!(
                "handshake rejected: magic {magic:#010x} version {version} \
                 (server speaks magic {MAGIC:#010x} version {PROTO_VERSION})"
            );
            let _ = write_response(&mut writer, &Response::Err(GdbError::Invalid(why)));
            return;
        }
        Ok(other) => {
            let _ = write_response(
                &mut writer,
                &Response::Err(GdbError::Invalid(format!(
                    "first frame must be Hello, got {other:?}"
                ))),
            );
            return;
        }
        Err(_) => return, // disconnected or garbage before handshake
    }

    // Deletions in the driver's write mix target edges *this worker*
    // created; the pool lives with the connection, mirroring the per-worker
    // pool of the in-process driver. It is stamped with the engine
    // generation it was filled under so a `Reset` from *any* connection
    // invalidates it.
    let mut owned_edges = OwnedEdges {
        pool: Vec::new(),
        generation: hosted.generation.load(Ordering::SeqCst),
    };
    // At most one open write transaction per connection (v7); dropped with
    // the connection, which discards an uncommitted write set.
    let mut txn: Option<ConnTxn> = None;

    loop {
        let req = match wire::read_frame(&mut reader) {
            Ok(payload) => match Request::decode(&payload) {
                Ok(req) => req,
                Err(e) => {
                    // A frame we cannot parse means the stream is no longer
                    // trustworthy: answer with the decode error and drop the
                    // connection rather than guessing at alignment.
                    let _ = write_response(&mut writer, &Response::Err(e));
                    return;
                }
            },
            Err(_) => return, // client hung up
        };
        let rsp = handle_request(&hosted, req, &mut owned_edges, &mut txn);
        if write_response(&mut writer, &rsp).is_err() {
            return;
        }
    }
}

fn read_request(reader: &mut TcpStream) -> GdbResult<Request> {
    Request::decode(&wire::read_frame(reader)?)
}

fn write_response(writer: &mut TcpStream, rsp: &Response) -> GdbResult<()> {
    let payload = match rsp.encode() {
        Ok(payload) => payload,
        // The response itself cannot be framed (FrameTooLarge): answer with
        // the protocol error instead so the stream stays aligned.
        Err(e) => Response::Err(e).encode()?,
    };
    wire::write_frame(writer, &payload)
}

/// A connection's pool of self-created edges, valid only for the engine
/// generation it was filled under.
struct OwnedEdges {
    pool: Vec<Eid>,
    generation: u64,
}

impl OwnedEdges {
    /// The pool for the current engine generation — emptied first if the
    /// engine was replaced since the pool was filled.
    fn current(&mut self, hosted: &Hosted) -> &mut Vec<Eid> {
        let generation = hosted.generation.load(Ordering::SeqCst);
        if generation != self.generation {
            self.pool.clear();
            self.generation = generation;
        }
        &mut self.pool
    }
}

/// A connection's open write transaction, stamped with the engine
/// generation it began under — a `Reset` from any connection invalidates
/// it (committing a write set buffered against a discarded engine would
/// replay stale ids into the fresh one).
struct ConnTxn {
    txn: WriteTxn,
    generation: u64,
}

fn handle_request(
    hosted: &Hosted,
    req: Request,
    owned_edges: &mut OwnedEdges,
    txn: &mut Option<ConnTxn>,
) -> Response {
    match execute_request(hosted, req, owned_edges, txn) {
        Ok(rsp) => rsp,
        Err(e) => Response::Err(e),
    }
}

/// Open an epoch-pinned write transaction on this connection (v7). Only
/// snapshot hosting has the MVCC machinery for it.
fn txn_begin(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    if txn.is_some() {
        return Err(GdbError::Invalid(
            "TxnBegin with a transaction already open on this connection".into(),
        ));
    }
    match &hosted.engine {
        HostedEngine::Snapshot { source, .. } => {
            // gm-lock: driver transient
            let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs txn begin");
            let source = phase::timed(Phase::LockWait, || source.read())
                .map_err(|_| Hosted::poisoned("source read"))?;
            let opened = WriteTxn::begin(&**source)?;
            let epoch = opened.base_epoch();
            *txn = Some(ConnTxn {
                txn: opened,
                generation: hosted.generation.load(Ordering::SeqCst),
            });
            Ok(Response::TxnBegun { epoch })
        }
        _ => Err(GdbError::Unsupported(
            "write transactions require snapshot hosting".into(),
        )),
    }
}

/// Validate and publish the connection's open transaction (v7). The write
/// set is consumed either way — a conflicting transaction cannot be
/// retried, only restarted against a fresh epoch.
fn txn_commit(hosted: &Hosted, txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    let state = txn.take().ok_or_else(|| {
        GdbError::Invalid("TxnCommit without an open transaction on this connection".into())
    })?;
    if state.generation != hosted.generation.load(Ordering::SeqCst) {
        return Err(GdbError::TxnConflict(
            "the hosted engine was reset after this transaction began".into(),
        ));
    }
    match &hosted.engine {
        HostedEngine::Snapshot { source, .. } => {
            // gm-lock: driver transient
            let _t = lockorder::acquire(LockRank::Driver, "gm-net/server.rs txn commit");
            let source = phase::timed(Phase::LockWait, || source.read())
                .map_err(|_| Hosted::poisoned("source read"))?;
            let ops = state.txn.commit(&**source)?;
            Ok(Response::TxnCommitted {
                ops,
                epoch: source.current_epoch(),
            })
        }
        _ => Err(GdbError::Unsupported(
            "write transactions require snapshot hosting".into(),
        )),
    }
}

fn txn_abort(txn: &mut Option<ConnTxn>) -> GdbResult<Response> {
    let state = txn.take().ok_or_else(|| {
        GdbError::Invalid("TxnAbort without an open transaction on this connection".into())
    })?;
    Ok(Response::TxnAborted {
        ops: state.txn.abort(),
    })
}

/// Execute one primitive frame against the connection's open transaction:
/// writes buffer into its write set, reads answer from its epoch-pinned
/// read-your-writes overlay. Frames that would bypass the transaction
/// (workload execution, dataset/engine lifecycle, index builds) are
/// rejected until it commits or aborts.
fn execute_txn_request(txn: &mut WriteTxn, req: Request) -> GdbResult<Response> {
    Ok(match req {
        Request::Hello { .. } => {
            return Err(GdbError::Invalid("Hello after handshake".into()));
        }
        Request::Reset
        | Request::BulkLoad { .. }
        | Request::Prepare { .. }
        | Request::ExecOp { .. }
        | Request::CreateVertexIndex { .. } => {
            return Err(GdbError::Invalid(
                "request not allowed inside an open transaction; commit or abort first".into(),
            ));
        }
        Request::TxnBegin | Request::TxnCommit | Request::TxnAbort | Request::ExecBatch(_) => {
            return Err(GdbError::Invalid(
                "transaction control frame routed into the buffered path".into(),
            ));
        }
        // Server-global introspection is transaction-agnostic.
        Request::GetStats => Response::Stats(gm_obs::global().snapshot()),
        Request::GetTraces => Response::Traces(if trace::enabled() {
            trace::global_ring().snapshot()
        } else {
            Vec::new()
        }),
        // Writes buffer into the transaction (ids for entities created here
        // are placeholders, valid inside this transaction until commit).
        Request::AddVertex { label, props } => Response::U64(txn.add_vertex(&label, &props)?.0),
        Request::AddEdge {
            src,
            dst,
            label,
            props,
        } => Response::U64(txn.add_edge(Vid(src), Vid(dst), &label, &props)?.0),
        Request::SetVertexProp { v, name, value } => {
            txn.set_vertex_property(Vid(v), &name, value)?;
            Response::Unit
        }
        Request::SetEdgeProp { e, name, value } => {
            txn.set_edge_property(Eid(e), &name, value)?;
            Response::Unit
        }
        Request::RemoveVertex(v) => {
            txn.remove_vertex(Vid(v))?;
            Response::Unit
        }
        Request::RemoveEdge(e) => {
            txn.remove_edge(Eid(e))?;
            Response::Unit
        }
        Request::RemoveVertexProp { v, name } => {
            Response::OptValue(txn.remove_vertex_property(Vid(v), &name)?)
        }
        Request::RemoveEdgeProp { e, name } => {
            Response::OptValue(txn.remove_edge_property(Eid(e), &name)?)
        }
        Request::Sync => {
            txn.sync()?;
            Response::Unit
        }
        // Reads answer from the read-your-writes overlay over the pinned
        // base epoch.
        Request::Features => Response::Features(txn.features()),
        Request::ResolveVertex(c) => Response::OptU64(txn.resolve_vertex(c).map(|v| v.0)),
        Request::ResolveEdge(c) => Response::OptU64(txn.resolve_edge(c).map(|e| e.0)),
        Request::VertexCount { t } => Response::U64(txn.vertex_count(&ctx_for(t))?),
        Request::EdgeCount { t } => Response::U64(txn.edge_count(&ctx_for(t))?),
        Request::EdgeLabelSet { t } => Response::StrList(txn.edge_label_set(&ctx_for(t))?),
        Request::VerticesWithProperty { name, value, t } => Response::U64List(
            txn.vertices_with_property(&name, &value, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::EdgesWithProperty { name, value, t } => Response::U64List(
            txn.edges_with_property(&name, &value, &ctx_for(t))?
                .into_iter()
                .map(|e| e.0)
                .collect(),
        ),
        Request::EdgesWithLabel { label, t } => Response::U64List(
            txn.edges_with_label(&label, &ctx_for(t))?
                .into_iter()
                .map(|e| e.0)
                .collect(),
        ),
        Request::GetVertex(v) => Response::OptVertex(txn.vertex(Vid(v))?),
        Request::GetEdge(e) => Response::OptEdge(txn.edge(Eid(e))?),
        Request::Neighbors { v, dir, label, t } => Response::U64List(
            txn.neighbors(Vid(v), dir, label.as_deref(), &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::VertexEdges { v, dir, label, t } => {
            Response::EdgeRefs(txn.vertex_edges(Vid(v), dir, label.as_deref(), &ctx_for(t))?)
        }
        Request::VertexDegree { v, dir, t } => {
            Response::U64(txn.vertex_degree(Vid(v), dir, &ctx_for(t))?)
        }
        Request::VertexEdgeLabels { v, dir, t } => {
            Response::StrList(txn.vertex_edge_labels(Vid(v), dir, &ctx_for(t))?)
        }
        Request::ScanVertices { t } => {
            let ctx = ctx_for(t);
            let mut out = Vec::new();
            for v in txn.scan_vertices(&ctx)? {
                out.push(v?.0);
            }
            Response::U64List(out)
        }
        Request::ScanEdges { t } => {
            let ctx = ctx_for(t);
            let mut out = Vec::new();
            for e in txn.scan_edges(&ctx)? {
                out.push(e?.0);
            }
            Response::U64List(out)
        }
        Request::VertexProperty { v, name } => {
            Response::OptValue(txn.vertex_property(Vid(v), &name)?)
        }
        Request::EdgeProperty { e, name } => Response::OptValue(txn.edge_property(Eid(e), &name)?),
        Request::EdgeEndpoints(e) => {
            Response::OptPair(txn.edge_endpoints(Eid(e))?.map(|(s, d)| (s.0, d.0)))
        }
        Request::EdgeLabel(e) => Response::OptStr(txn.edge_label(Eid(e))?),
        Request::VertexLabel(v) => Response::OptStr(txn.vertex_label(Vid(v))?),
        Request::DegreeScan { dir, k, t } => Response::U64List(
            txn.degree_scan(dir, k, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::DistinctNeighborScan { dir, t } => Response::U64List(
            txn.distinct_neighbor_scan(dir, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::HasVertexIndex { prop } => Response::Bool(txn.has_vertex_index(&prop)),
        Request::Space => Response::Space(txn.space()),
        Request::Epoch => Response::U64(txn.base_epoch()),
    })
}

fn execute_request(
    hosted: &Hosted,
    req: Request,
    owned_edges: &mut OwnedEdges,
    txn: &mut Option<ConnTxn>,
) -> GdbResult<Response> {
    // Transaction control frames first, then the buffered path while a
    // transaction is open — everything except `ExecBatch`, whose entries
    // recurse through `handle_request` and land here individually.
    match &req {
        Request::TxnBegin => return txn_begin(hosted, txn),
        Request::TxnCommit => return txn_commit(hosted, txn),
        Request::TxnAbort => return txn_abort(txn),
        _ => {}
    }
    if !matches!(req, Request::ExecBatch(_)) {
        if let Some(state) = txn.as_mut() {
            return execute_txn_request(&mut state.txn, req);
        }
    }
    // Locked mode: `read()` is the shared-lock guard. Snapshot mode: every
    // `read()` pins a fresh immutable epoch, so a long scan here cannot
    // block a concurrent writer on another connection.
    let read = || hosted.read_view();
    Ok(match req {
        Request::Hello { .. } => {
            return Err(GdbError::Invalid("Hello after handshake".into()));
        }
        Request::TxnBegin | Request::TxnCommit | Request::TxnAbort => {
            return Err(GdbError::Invalid(
                "transaction control frame re-entered the primitive path".into(),
            ));
        }
        Request::Reset => {
            hosted.reset_engine()?;
            *hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))? = None;
            *hosted
                .params
                .write()
                .map_err(|_| Hosted::poisoned("params"))? = None;
            hosted.generation.fetch_add(1, Ordering::SeqCst);
            Response::Unit
        }
        Request::BulkLoad { opts, data } => {
            let stats = hosted.with_engine_write(|db| db.bulk_load(&data, &opts))?;
            *hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))? = Some(data);
            Response::Load(stats)
        }
        Request::Prepare { seed, slots } => {
            let data = hosted
                .data
                .lock()
                .map_err(|_| Hosted::poisoned("dataset"))?
                .clone()
                .ok_or_else(|| {
                    GdbError::Invalid("Prepare before BulkLoad: no dataset retained".into())
                })?;
            let workload = Workload::choose(&data, seed, slots as usize);
            let params = workload.resolve(read()?.snap())?;
            *hosted
                .params
                .write()
                .map_err(|_| Hosted::poisoned("params"))? = Some(Arc::new(params));
            Response::Unit
        }
        Request::ExecOp {
            worker,
            op_index,
            trace_id,
            timeout_micros,
            strict,
            op,
        } => {
            let params = hosted
                .params
                .read()
                .map_err(|_| Hosted::poisoned("params"))?
                .clone()
                .ok_or_else(|| {
                    GdbError::Invalid("ExecOp before Prepare: no workload parameters".into())
                })?;
            // Adopt the *client's* trace id: the server-side record lands
            // under the same name the client prints, so one id stitches
            // both halves of a remote op. Off-path: with `GM_TRACE=off` or
            // an untraced op (id 0), `t_trace` stays `None` and no clock
            // is read for tracing.
            trace::begin_op(trace_id);
            let op_code = op.trace_code();
            let t_trace = (trace_id != 0 && trace::enabled()).then(Instant::now);
            match op {
                Op::Read(inst) if inst.id.is_mutation() => {
                    return Err(GdbError::Invalid(format!(
                        "ExecOp read frame carries mutating query Q{}",
                        inst.id.number()
                    )));
                }
                Op::Read(inst) => {
                    // The connection thread owns this op end to end, so the
                    // thread-local phase accumulators attribute every
                    // engine-lock acquisition and span below to exactly
                    // this op.
                    phase::reset_op();
                    let t0 = net_metrics().map(|m| {
                        m.ops.inc();
                        Instant::now()
                    });
                    let ctx = ctx_for(timeout_micros);
                    // Strict pins (sequential replays) must read their own
                    // earlier writes; concurrent drivers take the
                    // group-committed fast path.
                    let view = {
                        let _pin = phase::span(Phase::SnapshotPin);
                        if strict {
                            hosted.read_view()?
                        } else {
                            hosted.read_view_recent()?
                        }
                    };
                    let card = {
                        let _exec = phase::span(Phase::EngineExec);
                        catalog::execute_read(&inst, view.snap(), &params, &ctx)?
                    };
                    let phases = phase::take_all();
                    if let (Some(m), Some(t0)) = (net_metrics(), t0) {
                        m.op_nanos.record(t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(t) = t_trace {
                        trace::record_op(
                            &SERVER_GATE,
                            trace_id,
                            worker,
                            op_index,
                            op_code,
                            trace::TraceOrigin::Server,
                            t.elapsed().as_nanos() as u64,
                            phases,
                        );
                    }
                    Response::ExecDone {
                        card,
                        lock_wait: phases.get(Phase::LockWait),
                        exec_nanos: phases.get(Phase::EngineExec),
                        pin_nanos: phases.get(Phase::SnapshotPin),
                        clone_nanos: phases.get(Phase::ClonePublish),
                        epoch: view.epoch(),
                    }
                }
                Op::Write(wop) => {
                    phase::reset_op();
                    let t0 = net_metrics().map(|m| {
                        m.ops.inc();
                        Instant::now()
                    });
                    // The generation check of `current()` must happen while
                    // holding the engine write path: a `Reset` interleaving
                    // between the check and the write would otherwise apply
                    // a pre-reset edge pool to the fresh engine (and stale
                    // eids alias live edges once ids restart at 0).
                    let card = {
                        let _exec = phase::span(Phase::EngineExec);
                        hosted.with_engine_write(|db| {
                            apply_write(
                                wop,
                                db,
                                &params,
                                worker as usize,
                                op_index,
                                owned_edges.current(hosted),
                            )
                        })?
                    };
                    let phases = phase::take_all();
                    if let (Some(m), Some(t0)) = (net_metrics(), t0) {
                        m.op_nanos.record(t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(t) = t_trace {
                        trace::record_op(
                            &SERVER_GATE,
                            trace_id,
                            worker,
                            op_index,
                            op_code,
                            trace::TraceOrigin::Server,
                            t.elapsed().as_nanos() as u64,
                            phases,
                        );
                    }
                    Response::ExecDone {
                        card,
                        lock_wait: phases.get(Phase::LockWait),
                        exec_nanos: phases.get(Phase::EngineExec),
                        pin_nanos: phases.get(Phase::SnapshotPin),
                        clone_nanos: phases.get(Phase::ClonePublish),
                        epoch: None,
                    }
                }
            }
        }
        Request::GetStats => Response::Stats(gm_obs::global().snapshot()),
        Request::GetTraces => Response::Traces(if trace::enabled() {
            trace::global_ring().snapshot()
        } else {
            Vec::new()
        }),
        Request::Features => Response::Features(read()?.snap().features()),
        Request::ResolveVertex(c) => {
            Response::OptU64(read()?.snap().resolve_vertex(c).map(|v| v.0))
        }
        Request::ResolveEdge(c) => Response::OptU64(read()?.snap().resolve_edge(c).map(|e| e.0)),
        Request::AddVertex { label, props } => Response::U64(
            hosted
                .with_engine_write(|db| db.add_vertex(&label, &props))?
                .0,
        ),
        Request::AddEdge {
            src,
            dst,
            label,
            props,
        } => Response::U64(
            hosted
                .with_engine_write(|db| db.add_edge(Vid(src), Vid(dst), &label, &props))?
                .0,
        ),
        Request::SetVertexProp { v, name, value } => {
            hosted.with_engine_write(|db| db.set_vertex_property(Vid(v), &name, value))?;
            Response::Unit
        }
        Request::SetEdgeProp { e, name, value } => {
            hosted.with_engine_write(|db| db.set_edge_property(Eid(e), &name, value))?;
            Response::Unit
        }
        Request::VertexCount { t } => Response::U64(read()?.snap().vertex_count(&ctx_for(t))?),
        Request::EdgeCount { t } => Response::U64(read()?.snap().edge_count(&ctx_for(t))?),
        Request::EdgeLabelSet { t } => {
            Response::StrList(read()?.snap().edge_label_set(&ctx_for(t))?)
        }
        Request::VerticesWithProperty { name, value, t } => Response::U64List(
            read()?
                .snap()
                .vertices_with_property(&name, &value, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::EdgesWithProperty { name, value, t } => Response::U64List(
            read()?
                .snap()
                .edges_with_property(&name, &value, &ctx_for(t))?
                .into_iter()
                .map(|e| e.0)
                .collect(),
        ),
        Request::EdgesWithLabel { label, t } => Response::U64List(
            read()?
                .snap()
                .edges_with_label(&label, &ctx_for(t))?
                .into_iter()
                .map(|e| e.0)
                .collect(),
        ),
        Request::GetVertex(v) => Response::OptVertex(read()?.snap().vertex(Vid(v))?),
        Request::GetEdge(e) => Response::OptEdge(read()?.snap().edge(Eid(e))?),
        Request::RemoveVertex(v) => {
            hosted.with_engine_write(|db| db.remove_vertex(Vid(v)))?;
            Response::Unit
        }
        Request::RemoveEdge(e) => {
            hosted.with_engine_write(|db| db.remove_edge(Eid(e)))?;
            Response::Unit
        }
        Request::RemoveVertexProp { v, name } => Response::OptValue(
            hosted.with_engine_write(|db| db.remove_vertex_property(Vid(v), &name))?,
        ),
        Request::RemoveEdgeProp { e, name } => Response::OptValue(
            hosted.with_engine_write(|db| db.remove_edge_property(Eid(e), &name))?,
        ),
        Request::Neighbors { v, dir, label, t } => Response::U64List(
            read()?
                .snap()
                .neighbors(Vid(v), dir, label.as_deref(), &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::VertexEdges { v, dir, label, t } => Response::EdgeRefs(
            read()?
                .snap()
                .vertex_edges(Vid(v), dir, label.as_deref(), &ctx_for(t))?,
        ),
        Request::VertexDegree { v, dir, t } => {
            Response::U64(read()?.snap().vertex_degree(Vid(v), dir, &ctx_for(t))?)
        }
        Request::VertexEdgeLabels { v, dir, t } => Response::StrList(
            read()?
                .snap()
                .vertex_edge_labels(Vid(v), dir, &ctx_for(t))?,
        ),
        Request::ScanVertices { t } => {
            let ctx = ctx_for(t);
            let view = read()?;
            let mut out = Vec::new();
            for v in view.snap().scan_vertices(&ctx)? {
                out.push(v?.0);
            }
            Response::U64List(out)
        }
        Request::ScanEdges { t } => {
            let ctx = ctx_for(t);
            let view = read()?;
            let mut out = Vec::new();
            for e in view.snap().scan_edges(&ctx)? {
                out.push(e?.0);
            }
            Response::U64List(out)
        }
        Request::VertexProperty { v, name } => {
            Response::OptValue(read()?.snap().vertex_property(Vid(v), &name)?)
        }
        Request::EdgeProperty { e, name } => {
            Response::OptValue(read()?.snap().edge_property(Eid(e), &name)?)
        }
        Request::EdgeEndpoints(e) => Response::OptPair(
            read()?
                .snap()
                .edge_endpoints(Eid(e))?
                .map(|(s, d)| (s.0, d.0)),
        ),
        Request::EdgeLabel(e) => Response::OptStr(read()?.snap().edge_label(Eid(e))?),
        Request::VertexLabel(v) => Response::OptStr(read()?.snap().vertex_label(Vid(v))?),
        Request::DegreeScan { dir, k, t } => Response::U64List(
            read()?
                .snap()
                .degree_scan(dir, k, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::DistinctNeighborScan { dir, t } => Response::U64List(
            read()?
                .snap()
                .distinct_neighbor_scan(dir, &ctx_for(t))?
                .into_iter()
                .map(|v| v.0)
                .collect(),
        ),
        Request::CreateVertexIndex { prop } => {
            hosted.with_engine_write(|db| db.create_vertex_index(&prop))?;
            Response::Unit
        }
        Request::HasVertexIndex { prop } => Response::Bool(read()?.snap().has_vertex_index(&prop)),
        Request::Space => Response::Space(read()?.snap().space()),
        Request::Sync => {
            hosted.with_engine_write(|db| db.sync())?;
            Response::Unit
        }
        // One frame, many ops (v6): executed strictly in order, one
        // response per entry. A failing entry becomes a `Response::Err`
        // *inside* the batch — the envelope itself always succeeds, so one
        // bad op cannot desync a pipelined stream. The wire decoder rejects
        // nested batches, so the recursion below is one level deep.
        Request::ExecBatch(reqs) => {
            let mut rsps = Vec::with_capacity(reqs.len());
            for sub in reqs {
                rsps.push(handle_request(hosted, sub, owned_edges, txn));
            }
            Response::BatchDone(rsps)
        }
        // Epoch probe (v6): what a read would pin right now. Locked and
        // shared hosting have no epochs — report 0, which min-reduces
        // harmlessly fleet-side.
        Request::Epoch => Response::U64(read()?.epoch().unwrap_or(0)),
    })
}
