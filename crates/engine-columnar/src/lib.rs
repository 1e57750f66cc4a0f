//! # engine-columnar — the Titan-class hybrid engine
//!
//! Reproduces the architecture the paper describes for Titan over its
//! Cassandra backend (§3.1/§3.2):
//!
//! * "Titan adopts the **adjacency list format**, where each vertex is
//!   stored alongside the list of incident edges": a vertex is a row in the
//!   LSM column store ([`gm_storage::LsmTable`]), its properties and
//!   adjacency are columns of that row;
//! * neighbor ids inside each adjacency cell are **delta-encoded**
//!   ([`gm_storage::codec::delta_encode`]-style gaps) — "a strategy very
//!   effective in graphs with nodes of high degree" that gives Titan the
//!   best space footprint in Figure 1;
//! * writes perform **consistency checks and schema inference** (§6.2:
//!   disabling automatic schema inference "significantly reduc\[ed\] the
//!   loading times"), which is why Titan is among the slowest for
//!   insertions (§6.4);
//! * deletions are **tombstones** — "marks an item as removed instead of
//!   actually removing it" — making Titan *faster* at deletes than at
//!   inserts (§6.5);
//! * "for each edge traversal, it needs to access the node (row) ID index
//!   first": every hop goes through the LSM's point/prefix lookup path;
//! * two variants mirror the tested versions: [`Variant::V05`] (smaller
//!   memtable, more runs, uncached existence checks) and [`Variant::V10`]
//!   (production tuning: bigger memtable, fewer runs, cached row index).
//!
//! ## What a read costs
//!
//! The store's immutable runs use an SSTable layout (key and value arenas
//! with offset arrays and a sparse index summary; see [`gm_storage::lsm`]),
//! and its reads borrow from them. The engine keeps the costs that belong
//! to Titan's design:
//!
//! * every hop is a row-key lookup: a point get of one adjacency cell, or a
//!   prefix scan of the row's cells for one direction, each consulting the
//!   memtable and then every run newest-first;
//! * counts and label or property searches scan the whole store and call
//!   [`QueryCtx::tick`] once per store entry and once per adjacency entry;
//!   there are no cached counts and no side adjacency index;
//! * deletions stay tombstones, compaction stays tiered, and
//!   [`GraphSnapshot::space`] reports the runs' prefix-compressed footprint.
//!
//! What it no longer pays are allocations: row keys are fixed-width arrays
//! built on the stack, cells are read in place, and adjacency cells are
//! walked lazily, stepping over the edge-property lists without decoding
//! them. Properties are decoded only where they are returned (`edge`,
//! `edge_property`, the property searches' matching values) and in the
//! read-modify-write paths.

use gm_model::api::{
    Direction, EdgeData, EdgeRef, EngineFeatures, GraphDb, GraphSnapshot, LoadOptions, LoadStats,
    SpaceReport, VertexData,
};
use gm_model::fxmap::{FxHashMap, FxHashSet};
use gm_model::interner::Interner;
use gm_model::value::{Props, Value};
use gm_model::{Dataset, Eid, GdbError, GdbResult, QueryCtx, Vid};
use gm_mvcc::FreezeCell;
use gm_storage::codec::{read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::segvec::SegVec;
use gm_storage::valcodec::{
    decode_props, decode_value, encode_props, encode_value, prop_values, skip_props,
};

/// The columnar engine's **native snapshot source**: a freeze-on-pin cell
/// over [`ColumnarGraph`], whose `Clone` shares the LSM's immutable runs
/// and the closed segments of the append-only id columns. Pinning an epoch
/// copies only the memtable, the open segment tails, and the tombstone
/// sets — never the adjacency data — so snapshot cost is bounded by the
/// write volume since the last pin, not by graph size. This is the
/// "append-only column segments + per-epoch visible-length watermark"
/// design: a frozen clone is exactly a watermark over the shared segments.
pub type ColumnarCell = FreezeCell<ColumnarGraph>;

/// Native snapshot cell over a fresh engine of the given variant.
///
/// Freezing an epoch deep-copies exactly the engine's *mutable overlays*,
/// and the dominant one is the LSM memtable — so snapshot hosting tunes the
/// memtable smaller than the stock single-writer configuration (the same
/// knob Titan deployments tune per workload). With a 1 Ki-entry memtable
/// the freeze cost is bounded at roughly one `SegVec` segment's worth of
/// entries regardless of graph size; everything below the memtable is
/// `Arc`-shared runs that freezes never touch.
pub fn native_cell(variant: Variant) -> ColumnarCell {
    FreezeCell::new(ColumnarGraph::with_store_config(
        variant,
        LsmConfig {
            memtable_limit: 1024,
            max_runs: 8,
        },
    ))
}

/// Column qualifiers within a row.
const Q_LABEL: u8 = 0x00;
const Q_PROP: u8 = 0x01;
const Q_ADJ: u8 = 0x02;

const DIR_OUT: u8 = 0;
const DIR_IN: u8 = 1;

/// Engine variant mirroring the two Titan versions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Titan 0.5-style: small memtable, many runs, existence checks go to
    /// the store.
    V05,
    /// Titan 1.0-style: production tuning with a cached row index.
    V10,
}

/// One entry of an adjacency cell.
#[derive(Debug, Clone, PartialEq)]
struct AdjEntry {
    other: u64,
    eid: u64,
    /// Edge properties (key id, value); populated on the OUT side only.
    props: Vec<(u32, Value)>,
}

/// The Titan-class engine. See crate docs for the layout.
///
/// `Clone` is **structurally cheap** — the native-snapshot property the
/// [`ColumnarCell`] freeze path relies on: the LSM's immutable runs are
/// `Arc`-shared, the dense id columns (`vmap`/`emap`/`edge_index`) are
/// append-only [`SegVec`]s whose closed segments are `Arc`-shared, and the
/// remaining overlays (memtable, tombstone sets, interners, schema) are
/// small relative to the graph. A clone is therefore a consistent visible-
/// length watermark over the shared segments, not a second copy of the
/// adjacency data.
#[derive(Clone)]
pub struct ColumnarGraph {
    variant: Variant,
    store: LsmTable,
    /// Tombstoned vertex rows. Row existence for v1.0 is the dense-id check
    /// `vid < next_vid && !deleted`; v0.5 pays the store lookup instead
    /// (the uncached existence check the paper attributes to Titan 0.5).
    deleted_vertices: FxHashSet<u64>,
    /// Edge column: eid-indexed (eids are dense, handed out sequentially),
    /// append-only; entry = (src, dst, label). Deletions tombstone in
    /// [`ColumnarGraph::deleted_edges`], never remove here.
    edge_index: SegVec<(u64, u64, u32)>,
    /// Tombstoned edges (the Cassandra deletion mechanism).
    deleted_edges: FxHashSet<u64>,
    /// Inferred property schema: key id -> type tag (0xFF = mixed).
    schema: FxHashMap<u32, u8>,
    vlabels: Interner,
    elabels: Interner,
    keys: Interner,
    next_vid: u64,
    next_eid: u64,
    vmap: SegVec<u64>,
    emap: SegVec<u64>,
    declared_indexes: Vec<u32>,
    vertex_rows: u64,
}

impl ColumnarGraph {
    /// A fresh engine of the given variant, with the variant's stock
    /// Cassandra-style store tuning.
    pub fn new(variant: Variant) -> Self {
        let config = match variant {
            Variant::V05 => LsmConfig {
                memtable_limit: 2048,
                max_runs: 8,
            },
            Variant::V10 => LsmConfig {
                memtable_limit: 8192,
                max_runs: 4,
            },
        };
        Self::with_store_config(variant, config)
    }

    /// A fresh engine with explicit store tuning (snapshot deployments tune
    /// the memtable smaller — see [`native_cell`]).
    pub fn with_store_config(variant: Variant, config: LsmConfig) -> Self {
        ColumnarGraph {
            variant,
            store: LsmTable::new(config),
            deleted_vertices: FxHashSet::default(),
            edge_index: SegVec::new(),
            deleted_edges: FxHashSet::default(),
            schema: FxHashMap::default(),
            vlabels: Interner::new(),
            elabels: Interner::new(),
            keys: Interner::new(),
            next_vid: 0,
            next_eid: 0,
            vmap: SegVec::new(),
            emap: SegVec::new(),
            declared_indexes: Vec::new(),
            vertex_rows: 0,
        }
    }

    /// Titan 0.5-style engine.
    pub fn v05() -> Self {
        Self::new(Variant::V05)
    }

    /// Titan 1.0-style engine.
    pub fn v10() -> Self {
        Self::new(Variant::V10)
    }

    // ---- key construction ------------------------------------------------
    //
    // Row keys are fixed-width and built on the stack: the 8-byte
    // big-endian vertex id, the column qualifier, then the qualifier's
    // fields.

    fn key_label(vid: u64) -> [u8; 9] {
        let mut k = [Q_LABEL; 9];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k
    }

    fn key_prop_prefix(vid: u64) -> [u8; 9] {
        let mut k = [Q_PROP; 9];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k
    }

    fn key_prop(vid: u64, key: u32) -> [u8; 13] {
        let mut k = [0u8; 13];
        k[..9].copy_from_slice(&Self::key_prop_prefix(vid));
        k[9..].copy_from_slice(&key.to_be_bytes());
        k
    }

    fn key_adj_prefix(vid: u64, dir: u8) -> [u8; 10] {
        let mut k = [Q_ADJ; 10];
        k[..8].copy_from_slice(&vid.to_be_bytes());
        k[9] = dir;
        k
    }

    fn key_adj(vid: u64, dir: u8, label: u32) -> [u8; 14] {
        let mut k = [0u8; 14];
        k[..10].copy_from_slice(&Self::key_adj_prefix(vid, dir));
        k[10..].copy_from_slice(&label.to_be_bytes());
        k
    }

    /// The edge label of an adjacency-cell key.
    fn cell_label(key: &[u8]) -> u32 {
        u32::from_be_bytes(key[10..14].try_into().expect("label"))
    }

    /// The edge label of an OUT adjacency-cell key; `None` for any other
    /// column.
    fn out_cell_label(key: &[u8]) -> Option<u32> {
        (key.len() >= 14 && key[8] == Q_ADJ && key[9] == DIR_OUT).then(|| Self::cell_label(key))
    }

    // ---- adjacency cell codec ---------------------------------------------
    //
    // Cell value: varint count, then per entry sorted by `other`:
    //   varint gap(other)   (delta encoding — the Titan space trick)
    //   varint eid
    //   props blob (encode_props; empty list on the IN side)

    fn encode_adj(entries: &[AdjEntry]) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + entries.len() * 6);
        write_varint(&mut out, entries.len() as u64);
        let mut prev = 0u64;
        for e in entries {
            write_varint(&mut out, e.other - prev);
            write_varint(&mut out, e.eid);
            encode_props(&mut out, &e.props);
            prev = e.other;
        }
        out
    }

    /// Full decode, properties included: only the write paths need it.
    fn decode_adj(buf: &[u8]) -> Vec<AdjEntry> {
        AdjCell::new(buf)
            .map(|e| AdjEntry {
                other: e.other,
                eid: e.eid,
                props: decode_props(e.props, &mut 0).expect("props"),
            })
            .collect()
    }

    /// Read-modify-write an adjacency cell.
    fn adj_rmw(&mut self, vid: u64, dir: u8, label: u32, f: impl FnOnce(&mut Vec<AdjEntry>)) {
        let key = Self::key_adj(vid, dir, label);
        let mut entries = self
            .store
            .get(&key)
            .map(Self::decode_adj)
            .unwrap_or_default();
        f(&mut entries);
        if entries.is_empty() {
            self.store.delete(&key);
        } else {
            self.store.put(&key, &Self::encode_adj(&entries));
        }
    }

    // ---- schema inference and consistency checks ---------------------------

    fn value_tag(v: &Value) -> u8 {
        match v {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Titan's automatic schema maintenance: look up, infer, validate.
    fn infer_schema(&mut self, props: &[(u32, Value)]) {
        for (key, value) in props {
            let tag = Self::value_tag(value);
            match self.schema.get(key) {
                None => {
                    self.schema.insert(*key, tag);
                }
                Some(&t) if t != tag => {
                    self.schema.insert(*key, 0xFF);
                }
                _ => {}
            }
        }
    }

    /// Row existence check: v1.0 answers from the dense id space plus the
    /// vertex tombstone set (O(1), its cached row index), v0.5 pays a store
    /// lookup.
    fn row_exists(&self, vid: u64) -> bool {
        match self.variant {
            Variant::V10 => vid < self.next_vid && !self.deleted_vertices.contains(&vid),
            Variant::V05 => self.store.contains(&Self::key_label(vid)),
        }
    }

    fn require_vertex(&self, vid: u64) -> GdbResult<()> {
        if self.row_exists(vid) {
            Ok(())
        } else {
            Err(GdbError::VertexNotFound(vid))
        }
    }

    fn live_edge(&self, eid: u64) -> Option<&(u64, u64, u32)> {
        if self.deleted_edges.contains(&eid) {
            return None;
        }
        self.edge_index.get(eid as usize)
    }

    fn intern_props(&mut self, props: &Props) -> Vec<(u32, Value)> {
        props
            .iter()
            .map(|(n, v)| (self.keys.intern(n), v.clone()))
            .collect()
    }

    fn named_props(&self, interned: &[(u32, Value)]) -> Props {
        interned
            .iter()
            .map(|(k, v)| {
                (
                    self.keys.resolve(*k).expect("known key").to_string(),
                    v.clone(),
                )
            })
            .collect()
    }

    fn add_vertex_raw(&mut self, label: u32, props: &[(u32, Value)]) -> u64 {
        let vid = self.next_vid;
        self.next_vid += 1;
        let mut label_cell = Vec::with_capacity(4);
        write_varint(&mut label_cell, label as u64);
        self.store.put(&Self::key_label(vid), &label_cell);
        for (key, value) in props {
            let mut cell = Vec::new();
            encode_value(&mut cell, value);
            self.store.put(&Self::key_prop(vid, *key), &cell);
        }
        self.vertex_rows += 1;
        vid
    }

    /// Visit the live entries of (vid, dir), optionally restricted to one
    /// label cell. Every hop pays the row-key lookup: a point get for one
    /// label, a row prefix scan otherwise, with one tick per cell consulted
    /// and one per entry.
    fn walk_adjacency(
        &self,
        vid: u64,
        dir: u8,
        label: Option<u32>,
        ctx: &QueryCtx,
        visit: &mut impl FnMut(u32, AdjRef<'_>),
    ) -> GdbResult<()> {
        match label {
            Some(l) => {
                ctx.tick()?;
                if let Some(cell) = self.store.get(&Self::key_adj(vid, dir, l)) {
                    self.walk_cell(l, cell, ctx, visit)?;
                }
            }
            None => {
                for (key, cell) in self.store.scan_prefix(&Self::key_adj_prefix(vid, dir)) {
                    ctx.tick()?;
                    self.walk_cell(Self::cell_label(key), cell, ctx, visit)?;
                }
            }
        }
        Ok(())
    }

    /// Visit the live entries of one adjacency cell, one tick per entry.
    fn walk_cell(
        &self,
        label: u32,
        cell: &[u8],
        ctx: &QueryCtx,
        visit: &mut impl FnMut(u32, AdjRef<'_>),
    ) -> GdbResult<()> {
        for e in AdjCell::new(cell) {
            ctx.tick()?;
            if !self.deleted_edges.contains(&e.eid) {
                visit(label, e);
            }
        }
        Ok(())
    }

    /// Visit `v`'s live edges in `dir` (OUT cells before IN cells),
    /// optionally restricted to one edge label.
    fn walk_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
        mut visit: impl FnMut(u32, AdjRef<'_>),
    ) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let want = match label {
            Some(l) => match self.elabels.get(l) {
                Some(id) => Some(id),
                None => return Ok(()),
            },
            None => None,
        };
        if matches!(dir, Direction::Out | Direction::Both) {
            self.walk_adjacency(v.0, DIR_OUT, want, ctx, &mut visit)?;
        }
        if matches!(dir, Direction::In | Direction::Both) {
            self.walk_adjacency(v.0, DIR_IN, want, ctx, &mut visit)?;
        }
        Ok(())
    }
}

/// One adjacency-cell entry as [`AdjCell`] yields it: the property list
/// stays encoded.
struct AdjRef<'a> {
    other: u64,
    eid: u64,
    props: &'a [u8],
}

/// A lazy walk over an encoded adjacency cell: decodes the neighbour gaps
/// and edge ids and steps over each property list without decoding it.
struct AdjCell<'a> {
    buf: &'a [u8],
    pos: usize,
    left: u64,
    prev: u64,
}

impl<'a> AdjCell<'a> {
    fn new(buf: &'a [u8]) -> Self {
        let mut pos = 0usize;
        let left = read_varint(buf, &mut pos).expect("adj count");
        AdjCell {
            buf,
            pos,
            left,
            prev: 0,
        }
    }
}

impl<'a> Iterator for AdjCell<'a> {
    type Item = AdjRef<'a>;

    fn next(&mut self) -> Option<AdjRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let other = self.prev + read_varint(self.buf, &mut self.pos).expect("gap");
        let eid = read_varint(self.buf, &mut self.pos).expect("eid");
        let start = self.pos;
        skip_props(self.buf, &mut self.pos).expect("props");
        self.prev = other;
        Some(AdjRef {
            other,
            eid,
            props: &self.buf[start..self.pos],
        })
    }
}

impl GraphSnapshot for ColumnarGraph {
    fn name(&self) -> String {
        match self.variant {
            Variant::V05 => "columnar(v05)".into(),
            Variant::V10 => "columnar(v10)".into(),
        }
    }

    fn features(&self) -> EngineFeatures {
        EngineFeatures {
            name: self.name(),
            system_type: "Hybrid (Columnar)".into(),
            storage: "Vertex-indexed adjacency-list rows over an LSM".into(),
            edge_traversal: "Row-key index".into(),
            optimized_adapter: true,
            async_writes: false,
            attribute_indexes: true,
        }
    }

    fn resolve_vertex(&self, canonical: u64) -> Option<Vid> {
        self.vmap.get(canonical as usize).map(|&v| Vid(v))
    }

    fn resolve_edge(&self, canonical: u64) -> Option<Eid> {
        self.emap.get(canonical as usize).map(|&e| Eid(e))
    }

    fn vertex_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        // g.V iterates rows: a full store scan filtered to label cells.
        let mut n = 0u64;
        for (key, _) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if key.len() == 9 && key[8] == Q_LABEL {
                n += 1;
            }
        }
        Ok(n)
    }

    fn edge_count(&self, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if let Some(label) = Self::out_cell_label(key) {
                self.walk_cell(label, cell, ctx, &mut |_, _| n += 1)?;
            }
        }
        Ok(n)
    }

    fn edge_label_set(&self, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen = vec![false; self.elabels.len()];
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if let Some(label) = Self::out_cell_label(key) {
                if !seen[label as usize]
                    && AdjCell::new(cell).any(|e| !self.deleted_edges.contains(&e.eid))
                {
                    seen[label as usize] = true;
                }
            }
        }
        Ok(seen
            .iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .filter_map(|(i, _)| self.elabels.resolve(i as u32).map(String::from))
            .collect())
    }

    fn vertices_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        let Some(key_id) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if key.len() == 13 && key[8] == Q_PROP {
                let k = u32::from_be_bytes(key[9..13].try_into().expect("key id"));
                if k == key_id {
                    let mut pos = 0usize;
                    if decode_value(cell, &mut pos).as_ref() == Some(value) {
                        out.push(Vid(u64::from_be_bytes(key[0..8].try_into().expect("vid"))));
                    }
                }
            }
        }
        Ok(out)
    }

    fn edges_with_property(
        &self,
        name: &str,
        value: &Value,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Eid>> {
        let Some(key_id) = self.keys.get(name) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if let Some(label) = Self::out_cell_label(key) {
                self.walk_cell(label, cell, ctx, &mut |_, e| {
                    if prop_values(e.props, key_id).any(|v| v == *value) {
                        out.push(Eid(e.eid));
                    }
                })?;
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn edges_with_label(&self, label: &str, ctx: &QueryCtx) -> GdbResult<Vec<Eid>> {
        let Some(want) = self.elabels.get(label) else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for (key, cell) in self.store.scan_range(&[], None) {
            ctx.tick()?;
            if Self::out_cell_label(key) == Some(want) {
                self.walk_cell(want, cell, ctx, &mut |_, e| out.push(Eid(e.eid)))?;
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn vertex(&self, v: Vid) -> GdbResult<Option<VertexData>> {
        if !self.row_exists(v.0) {
            return Ok(None);
        }
        let label_cell = self
            .store
            .get(&Self::key_label(v.0))
            .ok_or_else(|| GdbError::Corrupt("row without label cell".into()))?;
        let mut pos = 0usize;
        let label = read_varint(label_cell, &mut pos).expect("label id") as u32;
        let mut props = Props::new();
        for (key, cell) in self.store.scan_prefix(&Self::key_prop_prefix(v.0)) {
            let k = u32::from_be_bytes(key[9..13].try_into().expect("key id"));
            let mut pos = 0usize;
            if let Some(value) = decode_value(cell, &mut pos) {
                props.push((self.keys.resolve(k).expect("known key").to_string(), value));
            }
        }
        Ok(Some(VertexData {
            id: v,
            label: self
                .vlabels
                .resolve(label)
                .unwrap_or("<unknown>")
                .to_string(),
            props,
        }))
    }

    fn edge(&self, e: Eid) -> GdbResult<Option<EdgeData>> {
        // Row-key index first, then scan the source row for the edge cell.
        let Some(&(src, dst, label)) = self.live_edge(e.0) else {
            return Ok(None);
        };
        let cell = self
            .store
            .get(&Self::key_adj(src, DIR_OUT, label))
            .ok_or_else(|| GdbError::Corrupt("edge without adjacency cell".into()))?;
        let entry = AdjCell::new(cell)
            .find(|x| x.eid == e.0)
            .ok_or_else(|| GdbError::Corrupt("edge missing from adjacency cell".into()))?;
        let props = decode_props(entry.props, &mut 0).expect("props");
        Ok(Some(EdgeData {
            id: e,
            src: Vid(src),
            dst: Vid(dst),
            label: self
                .elabels
                .resolve(label)
                .unwrap_or("<unknown>")
                .to_string(),
            props: self.named_props(&props),
        }))
    }

    fn neighbors(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<Vid>> {
        let mut out = Vec::new();
        self.walk_edges(v, dir, label, ctx, |_, e| out.push(Vid(e.other)))?;
        Ok(out)
    }

    fn vertex_edges(
        &self,
        v: Vid,
        dir: Direction,
        label: Option<&str>,
        ctx: &QueryCtx,
    ) -> GdbResult<Vec<EdgeRef>> {
        let mut out = Vec::new();
        self.walk_edges(v, dir, label, ctx, |_, e| {
            out.push(EdgeRef {
                eid: Eid(e.eid),
                other: Vid(e.other),
            })
        })?;
        Ok(out)
    }

    fn vertex_degree(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<u64> {
        let mut n = 0u64;
        self.walk_edges(v, dir, None, ctx, |_, _| n += 1)?;
        Ok(n)
    }

    fn vertex_edge_labels(&self, v: Vid, dir: Direction, ctx: &QueryCtx) -> GdbResult<Vec<String>> {
        let mut seen: Vec<u32> = Vec::new();
        self.walk_edges(v, dir, None, ctx, |label, _| {
            if !seen.contains(&label) {
                seen.push(label);
            }
        })?;
        Ok(seen
            .into_iter()
            .filter_map(|l| self.elabels.resolve(l).map(String::from))
            .collect())
    }

    fn scan_vertices<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Vid>> + 'a>> {
        Ok(Box::new(self.store.scan_range(&[], None).filter_map(
            move |(key, _)| {
                if let Err(e) = ctx.tick() {
                    return Some(Err(e));
                }
                (key.len() == 9 && key[8] == Q_LABEL)
                    .then(|| Ok(Vid(u64::from_be_bytes(key[0..8].try_into().expect("vid")))))
            },
        )))
    }

    fn scan_edges<'a>(
        &'a self,
        ctx: &'a QueryCtx,
    ) -> GdbResult<Box<dyn Iterator<Item = GdbResult<Eid>> + 'a>> {
        // One tick per store entry; the OUT cells' entries are walked lazily.
        let mut rows = self.store.scan_range(&[], None);
        let mut cell = AdjCell::new(&[0]);
        Ok(Box::new(std::iter::from_fn(move || loop {
            if let Some(e) = cell.find(|e| !self.deleted_edges.contains(&e.eid)) {
                return Some(Ok(Eid(e.eid)));
            }
            let (key, value) = rows.next()?;
            if let Err(e) = ctx.tick() {
                return Some(Err(e));
            }
            if Self::out_cell_label(key).is_some() {
                cell = AdjCell::new(value);
            }
        })))
    }

    fn vertex_property(&self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        Ok(self.store.get(&Self::key_prop(v.0, key)).and_then(|cell| {
            let mut pos = 0usize;
            decode_value(cell, &mut pos)
        }))
    }

    fn edge_property(&self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let Some(cell) = self.store.get(&Self::key_adj(src, DIR_OUT, label)) else {
            return Ok(None);
        };
        Ok(AdjCell::new(cell)
            .find(|x| x.eid == e.0)
            .and_then(|entry| prop_values(entry.props, key).next()))
    }

    fn edge_endpoints(&self, e: Eid) -> GdbResult<Option<(Vid, Vid)>> {
        Ok(self.live_edge(e.0).map(|&(s, d, _)| (Vid(s), Vid(d))))
    }

    fn edge_label(&self, e: Eid) -> GdbResult<Option<String>> {
        Ok(self
            .live_edge(e.0)
            .and_then(|&(_, _, l)| self.elabels.resolve(l))
            .map(String::from))
    }

    fn vertex_label(&self, v: Vid) -> GdbResult<Option<String>> {
        if !self.row_exists(v.0) {
            return Ok(None);
        }
        let Some(cell) = self.store.get(&Self::key_label(v.0)) else {
            return Ok(None);
        };
        let mut pos = 0usize;
        let label = read_varint(cell, &mut pos).expect("label id") as u32;
        Ok(self.vlabels.resolve(label).map(String::from))
    }

    fn has_vertex_index(&self, prop: &str) -> bool {
        self.keys
            .get(prop)
            .map(|k| self.declared_indexes.contains(&k))
            .unwrap_or(false)
    }

    fn space(&self) -> SpaceReport {
        let mut r = SpaceReport::default();
        r.add("lsm store (rows + columns)", self.store.bytes());
        r.add("edge column (eid-indexed)", self.edge_index.bytes());
        r.add(
            "tombstone sets",
            (self.deleted_edges.len() + self.deleted_vertices.len()) as u64 * 8 + 96,
        );
        r.add(
            "schema registry",
            self.schema.len() as u64 * 5
                + self.vlabels.bytes()
                + self.elabels.bytes()
                + self.keys.bytes(),
        );
        r
    }
}

impl GraphDb for ColumnarGraph {
    fn bulk_load(&mut self, data: &Dataset, opts: &LoadOptions) -> GdbResult<LoadStats> {
        if !self.vmap.is_empty() {
            return Err(GdbError::Invalid(
                "bulk_load requires an empty engine".into(),
            ));
        }
        if opts.bulk {
            // Schema declared up front (no per-item inference), adjacency
            // lists built in memory and written once per cell.
            for v in &data.vertices {
                let props = self.intern_props(&v.props);
                self.infer_schema(&props);
                let label = self.vlabels.intern(&v.label);
                let vid = self.add_vertex_raw(label, &props);
                self.vmap.push(vid);
            }
            // Group edges by (src, label) and (dst, label).
            let mut out_cells: FxHashMap<(u64, u32), Vec<AdjEntry>> = FxHashMap::default();
            let mut in_cells: FxHashMap<(u64, u32), Vec<AdjEntry>> = FxHashMap::default();
            for e in &data.edges {
                let eid = self.next_eid;
                self.next_eid += 1;
                self.emap.push(eid);
                let label = self.elabels.intern(&e.label);
                let src = *self.vmap.get(e.src as usize).expect("src in vmap");
                let dst = *self.vmap.get(e.dst as usize).expect("dst in vmap");
                let props = self.intern_props(&e.props);
                self.infer_schema(&props);
                debug_assert_eq!(self.edge_index.len() as u64, eid);
                self.edge_index.push((src, dst, label));
                out_cells.entry((src, label)).or_default().push(AdjEntry {
                    other: dst,
                    eid,
                    props,
                });
                in_cells.entry((dst, label)).or_default().push(AdjEntry {
                    other: src,
                    eid,
                    props: Vec::new(),
                });
            }
            for ((vid, label), mut entries) in out_cells {
                entries.sort_by_key(|e| (e.other, e.eid));
                self.store.put(
                    &Self::key_adj(vid, DIR_OUT, label),
                    &Self::encode_adj(&entries),
                );
            }
            for ((vid, label), mut entries) in in_cells {
                entries.sort_by_key(|e| (e.other, e.eid));
                self.store.put(
                    &Self::key_adj(vid, DIR_IN, label),
                    &Self::encode_adj(&entries),
                );
            }
            // The bulk loader flushes its memtable to an SSTable run at the
            // end, like Titan's batch loading against Cassandra.
            self.store.flush();
        } else {
            for v in &data.vertices {
                let vid = self.add_vertex(&v.label, &v.props)?;
                self.vmap.push(vid.0);
            }
            for e in &data.edges {
                let src = Vid(*self.vmap.get(e.src as usize).expect("src in vmap"));
                let dst = Vid(*self.vmap.get(e.dst as usize).expect("dst in vmap"));
                let eid = self.add_edge(src, dst, &e.label, &e.props)?;
                self.emap.push(eid.0);
            }
        }
        Ok(LoadStats {
            vertices: data.vertices.len() as u64,
            edges: data.edges.len() as u64,
        })
    }

    fn add_vertex(&mut self, label: &str, props: &Props) -> GdbResult<Vid> {
        let interned = self.intern_props(props);
        // Schema inference per write (the Titan overhead).
        self.infer_schema(&interned);
        let label = self.vlabels.intern(label);
        Ok(Vid(self.add_vertex_raw(label, &interned)))
    }

    fn add_edge(&mut self, src: Vid, dst: Vid, label: &str, props: &Props) -> GdbResult<Eid> {
        // Consistency checks on both endpoints.
        self.require_vertex(src.0)?;
        self.require_vertex(dst.0)?;
        let interned = self.intern_props(props);
        self.infer_schema(&interned);
        let label = self.elabels.intern(label);
        let eid = self.next_eid;
        self.next_eid += 1;
        debug_assert_eq!(self.edge_index.len() as u64, eid);
        self.edge_index.push((src.0, dst.0, label));
        // Read-modify-write both adjacency cells.
        let entry = AdjEntry {
            other: dst.0,
            eid,
            props: interned,
        };
        self.adj_rmw(src.0, DIR_OUT, label, |entries| {
            let pos = entries
                .binary_search_by_key(&(entry.other, eid), |e| (e.other, e.eid))
                .unwrap_or_else(|p| p);
            entries.insert(pos, entry);
        });
        let in_entry = AdjEntry {
            other: src.0,
            eid,
            props: Vec::new(),
        };
        self.adj_rmw(dst.0, DIR_IN, label, |entries| {
            let pos = entries
                .binary_search_by_key(&(in_entry.other, eid), |e| (e.other, e.eid))
                .unwrap_or_else(|p| p);
            entries.insert(pos, in_entry);
        });
        Ok(Eid(eid))
    }

    fn set_vertex_property(&mut self, v: Vid, name: &str, value: Value) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        let key = self.keys.intern(name);
        self.infer_schema(&[(key, value.clone())]);
        let mut cell = Vec::new();
        encode_value(&mut cell, &value);
        self.store.put(&Self::key_prop(v.0, key), &cell);
        Ok(())
    }

    fn set_edge_property(&mut self, e: Eid, name: &str, value: Value) -> GdbResult<()> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let key = self.keys.intern(name);
        self.infer_schema(&[(key, value.clone())]);
        self.adj_rmw(src, DIR_OUT, label, |entries| {
            if let Some(entry) = entries.iter_mut().find(|x| x.eid == e.0) {
                if let Some(slot) = entry.props.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = value;
                } else {
                    entry.props.push((key, value));
                }
            }
        });
        Ok(())
    }

    fn remove_vertex(&mut self, v: Vid) -> GdbResult<()> {
        self.require_vertex(v.0)?;
        // Tombstone every incident edge.
        let ctx = QueryCtx::unbounded();
        let mut eids: Vec<u64> = Vec::new();
        for dir in [DIR_OUT, DIR_IN] {
            self.walk_adjacency(v.0, dir, None, &ctx, &mut |_, e| eids.push(e.eid))?;
        }
        self.deleted_edges.extend(eids);
        // Tombstone all of the row's cells.
        let keys: Vec<Vec<u8>> = self
            .store
            .scan_prefix(&v.0.to_be_bytes())
            .map(|(k, _)| k.to_vec())
            .collect();
        for k in keys {
            self.store.delete(&k);
        }
        self.deleted_vertices.insert(v.0);
        self.vertex_rows -= 1;
        Ok(())
    }

    fn remove_edge(&mut self, e: Eid) -> GdbResult<()> {
        if self.live_edge(e.0).is_none() {
            return Err(GdbError::EdgeNotFound(e.0));
        }
        // Pure tombstone — no adjacency rewrite (the fast-delete mechanism).
        self.deleted_edges.insert(e.0);
        Ok(())
    }

    fn remove_vertex_property(&mut self, v: Vid, name: &str) -> GdbResult<Option<Value>> {
        self.require_vertex(v.0)?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let k = Self::key_prop(v.0, key);
        let old = self.store.get(&k).and_then(|cell| {
            let mut pos = 0usize;
            decode_value(cell, &mut pos)
        });
        if old.is_some() {
            self.store.delete(&k);
        }
        Ok(old)
    }

    fn remove_edge_property(&mut self, e: Eid, name: &str) -> GdbResult<Option<Value>> {
        let &(src, _, label) = self.live_edge(e.0).ok_or(GdbError::EdgeNotFound(e.0))?;
        let Some(key) = self.keys.get(name) else {
            return Ok(None);
        };
        let mut old = None;
        self.adj_rmw(src, DIR_OUT, label, |entries| {
            if let Some(entry) = entries.iter_mut().find(|x| x.eid == e.0) {
                if let Some(pos) = entry.props.iter().position(|(k, _)| *k == key) {
                    old = Some(entry.props.remove(pos).1);
                }
            }
        });
        Ok(old)
    }

    fn create_vertex_index(&mut self, prop: &str) -> GdbResult<()> {
        // Titan supports graph-centric indexes; modelled as a declared
        // index that the property-scan path consults (see the benchmark's
        // Figure 4c where Titan gains 2–5 orders). To keep one code path,
        // the declaration builds an in-memory value index lazily at first
        // use — here, eagerly.
        let key = self.keys.intern(prop);
        if !self.declared_indexes.contains(&key) {
            self.declared_indexes.push(key);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_model::testkit;

    #[test]
    fn v05_conformance() {
        testkit::conformance_suite(&mut || Box::new(ColumnarGraph::v05()));
    }

    #[test]
    fn v10_conformance() {
        testkit::conformance_suite(&mut || Box::new(ColumnarGraph::v10()));
    }

    #[test]
    fn adjacency_cells_are_delta_encoded() {
        // A high-degree vertex with dense neighbor ids compresses far below
        // 16 bytes/edge.
        let mut g = ColumnarGraph::v10();
        let hub = g.add_vertex("n", &vec![]).unwrap();
        let spokes: Vec<Vid> = (0..1000)
            .map(|_| g.add_vertex("n", &vec![]).unwrap())
            .collect();
        for s in &spokes {
            g.add_edge(hub, *s, "e", &vec![]).unwrap();
        }
        let cell = g
            .store
            .get(&ColumnarGraph::key_adj(hub.0, DIR_OUT, 0))
            .unwrap();
        assert!(
            cell.len() < 1000 * 8,
            "delta+varint beats fixed-width ({} bytes for 1000 edges)",
            cell.len()
        );
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_degree(hub, Direction::Out, &ctx).unwrap(), 1000);
    }

    #[test]
    fn deletes_are_tombstones() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g.add_edge(a, b, "l", &vec![]).unwrap();
        let cell_key = ColumnarGraph::key_adj(a.0, DIR_OUT, 0);
        let before = g.store.get(&cell_key).unwrap().to_vec();
        g.remove_edge(e).unwrap();
        // The adjacency cell is untouched; only the tombstone set grows.
        assert_eq!(g.store.get(&cell_key).unwrap(), before.as_slice());
        assert!(g.deleted_edges.contains(&e.0));
        let ctx = QueryCtx::unbounded();
        assert!(g
            .neighbors(a, Direction::Out, None, &ctx)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn schema_inference_tracks_types() {
        let mut g = ColumnarGraph::v10();
        g.add_vertex("n", &vec![("x".into(), Value::Int(1))])
            .unwrap();
        let key = g.keys.get("x").unwrap();
        assert_eq!(g.schema.get(&key), Some(&2u8));
        // Conflicting type downgrades to "mixed".
        g.add_vertex("n", &vec![("x".into(), Value::Str("s".into()))])
            .unwrap();
        assert_eq!(g.schema.get(&key), Some(&0xFFu8));
    }

    #[test]
    fn bulk_load_writes_each_cell_once() {
        let mut g = ColumnarGraph::v10();
        g.bulk_load(&testkit::chain_dataset(500), &LoadOptions::default())
            .unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_count(&ctx).unwrap(), 500);
        assert_eq!(g.edge_count(&ctx).unwrap(), 499);
        // Non-bulk path agrees.
        let mut g2 = ColumnarGraph::v10();
        g2.bulk_load(
            &testkit::chain_dataset(500),
            &LoadOptions {
                bulk: false,
                index_during_load: false,
            },
        )
        .unwrap();
        assert_eq!(g2.vertex_count(&ctx).unwrap(), 500);
        assert_eq!(g2.edge_count(&ctx).unwrap(), 499);
    }

    #[test]
    fn parallel_edges_and_self_loops() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        g.add_edge(a, b, "l", &vec![]).unwrap();
        g.add_edge(a, b, "l", &vec![]).unwrap();
        g.add_edge(a, a, "l", &vec![]).unwrap();
        let ctx = QueryCtx::unbounded();
        assert_eq!(g.vertex_degree(a, Direction::Out, &ctx).unwrap(), 3);
        assert_eq!(g.vertex_degree(a, Direction::Both, &ctx).unwrap(), 4);
        let mut n: Vec<u64> = g
            .neighbors(a, Direction::Out, None, &ctx)
            .unwrap()
            .iter()
            .map(|v| v.0)
            .collect();
        n.sort_unstable();
        assert_eq!(n, vec![a.0, b.0, b.0]);
    }

    #[test]
    fn edge_props_live_on_out_side_only() {
        let mut g = ColumnarGraph::v10();
        let a = g.add_vertex("n", &vec![]).unwrap();
        let b = g.add_vertex("n", &vec![]).unwrap();
        let e = g
            .add_edge(a, b, "l", &vec![("w".into(), Value::Float(1.5))])
            .unwrap();
        assert_eq!(g.edge_property(e, "w").unwrap(), Some(Value::Float(1.5)));
        let in_cell = g
            .store
            .get(&ColumnarGraph::key_adj(b.0, DIR_IN, 0))
            .unwrap();
        let out_cell = g
            .store
            .get(&ColumnarGraph::key_adj(a.0, DIR_OUT, 0))
            .unwrap();
        assert!(in_cell.len() < out_cell.len(), "IN side carries no props");
    }

    #[test]
    fn native_cell_freezes_stable_epochs_under_in_place_writes() {
        use gm_mvcc::SnapshotSource;
        let cell = native_cell(Variant::V10);
        let data = testkit::chain_dataset(3000);
        cell.with_write(&mut |db| {
            db.bulk_load(&data, &LoadOptions::default())?;
            Ok(0)
        })
        .unwrap();
        let ctx = QueryCtx::unbounded();
        let snap = cell.snapshot().unwrap();
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 3000);
        assert_eq!(snap.edge_count(&ctx).unwrap(), 2999);
        // Writes mutate the live engine in place (no copy-on-write); the
        // pinned view keeps answering from its frozen segments.
        cell.with_write(&mut |db| {
            let v = db.add_vertex("n", &vec![])?;
            let a = db.resolve_vertex(0).expect("anchor");
            db.add_edge(v, a, "e", &vec![])?;
            let victim = db.resolve_edge(0).expect("edge 0");
            db.remove_edge(victim)?;
            Ok(3)
        })
        .unwrap();
        assert_eq!(snap.vertex_count(&ctx).unwrap(), 3000);
        assert_eq!(snap.edge_count(&ctx).unwrap(), 2999);
        // A fresh pin observes the whole batch at a strictly newer epoch.
        let snap2 = cell.snapshot().unwrap();
        assert_eq!(snap2.vertex_count(&ctx).unwrap(), 3001);
        assert_eq!(snap2.edge_count(&ctx).unwrap(), 2999);
        assert!(snap2.epoch() > snap.epoch());
    }

    #[test]
    fn clone_shares_closed_segments_and_runs() {
        // The structural-sharing property the native snapshot path relies
        // on: cloning a loaded engine reuses the LSM runs and the closed
        // edge-column segments instead of copying the adjacency data.
        let mut g = ColumnarGraph::v10();
        g.bulk_load(&testkit::chain_dataset(4000), &LoadOptions::default())
            .unwrap();
        let frozen = g.clone();
        // Mutating the original must not disturb the clone.
        let a = g.resolve_vertex(0).unwrap();
        let b = g.resolve_vertex(1).unwrap();
        for _ in 0..200 {
            g.add_edge(a, b, "burst", &vec![]).unwrap();
        }
        let ctx = QueryCtx::unbounded();
        assert_eq!(frozen.edge_count(&ctx).unwrap(), 3999);
        assert_eq!(g.edge_count(&ctx).unwrap(), 4199);
        // 4000 edges at SEGMENT=1024 close at least 3 segments, all shared.
        assert!(frozen.edge_index.closed_segments() >= 3);
        assert!(frozen.store.run_count() >= 1, "bulk load flushed a run");
    }

    #[test]
    fn variants_differ_in_store_tuning() {
        let v05 = ColumnarGraph::v05();
        let v10 = ColumnarGraph::v10();
        assert_ne!(v05.name(), v10.name());
    }
}
