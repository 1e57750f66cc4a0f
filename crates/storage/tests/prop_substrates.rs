//! Property tests: each substrate vs. a std-library oracle.

use gm_storage::bptree::BPlusTree;
use gm_storage::codec::{delta_decode, delta_encode, read_varint, write_varint};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::{Bitmap, HashIndex, PageStore, RecordFile};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Bound;

#[derive(Debug, Clone)]
enum MapOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

#[derive(Debug, Clone)]
enum LsmOp {
    Put(Vec<u8>, u32),
    Delete(Vec<u8>),
    Flush,
    Compact,
    CompactTail,
    /// Clone the table; the clone must keep its contents from here on.
    Freeze,
}

/// Keys of 7 to 11 bytes over three 8-byte heads. Up to 156 distinct keys
/// share the head `[7; 8]`, so equal heads straddle the runs' 16-key
/// index-summary blocks; suffix bytes include 0x00 and 0xFF to probe the
/// prefix and range edges.
fn arb_lsm_key() -> impl Strategy<Value = Vec<u8>> {
    const SUFFIX: [u8; 5] = [0x00, 0x01, 0x7F, 0xFE, 0xFF];
    (0usize..4, prop::collection::vec(0usize..5, 0..4)).prop_map(|(h, tail)| {
        let mut key = match h {
            0 | 1 => vec![7u8; 8],
            2 => vec![7u8; 7],
            _ => vec![7, 7, 7, 7, 7, 7, 7, 8],
        };
        key.extend(tail.into_iter().map(|i| SUFFIX[i]));
        key
    })
}

fn arb_lsm_ops() -> impl Strategy<Value = Vec<LsmOp>> {
    prop::collection::vec(
        prop_oneof![
            12 => (arb_lsm_key(), any::<u32>()).prop_map(|(k, v)| LsmOp::Put(k, v)),
            4 => arb_lsm_key().prop_map(LsmOp::Delete),
            1 => Just(LsmOp::Flush),
            1 => Just(LsmOp::Compact),
            1 => Just(LsmOp::CompactTail),
            1 => Just(LsmOp::Freeze),
        ],
        0..400,
    )
}

type Oracle = BTreeMap<Vec<u8>, Vec<u8>>;

/// Every read path of `lsm` agrees with `oracle`: the full scan, and for
/// every key in `keys` a point get, prefix scans of its first 0, 7, 8 and
/// all bytes, and range scans from it up to each of `bounds` and unbounded.
fn check_lsm(
    lsm: &LsmTable,
    oracle: &Oracle,
    keys: &BTreeSet<Vec<u8>>,
    bounds: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let owned = |it: &mut dyn Iterator<Item = (&[u8], &[u8])>| {
        it.map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect::<Vec<_>>()
    };
    let want = |lo: &[u8], keep: &dyn Fn(&[u8]) -> bool| {
        oracle
            .range::<[u8], _>((Bound::Included(lo), Bound::Unbounded))
            .take_while(|(k, _)| keep(k))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(owned(&mut lsm.scan_range(&[], None)), want(&[], &|_| true));
    prop_assert_eq!(lsm.live_len(), oracle.len());
    let prefixes: BTreeSet<&[u8]> = keys
        .iter()
        .flat_map(|k| [0, 7, 8, k.len()].map(|len| &k[..len.min(k.len())]))
        .collect();
    for prefix in prefixes {
        prop_assert_eq!(
            owned(&mut lsm.scan_prefix(prefix)),
            want(prefix, &|k| k.starts_with(prefix))
        );
    }
    for lo in keys {
        prop_assert_eq!(lsm.get(lo), oracle.get(lo).map(Vec::as_slice));
        for hi in bounds {
            prop_assert_eq!(
                owned(&mut lsm.scan_range(lo, Some(hi))),
                want(lo, &|k| k < hi.as_slice())
            );
        }
        prop_assert_eq!(owned(&mut lsm.scan_range(lo, None)), want(lo, &|_| true));
    }
    Ok(())
}

fn arb_map_ops() -> impl Strategy<Value = Vec<MapOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::Insert(k, v)),
            any::<u16>().prop_map(MapOp::Remove),
            any::<u16>().prop_map(MapOp::Get),
        ],
        0..400,
    )
}

proptest! {
    /// B+Tree behaves exactly like BTreeMap under arbitrary operations, and
    /// its structural invariants hold after every batch.
    #[test]
    fn bptree_matches_btreemap(ops in arb_map_ops(), order in 3usize..12) {
        let mut tree: BPlusTree<u16, u32> = BPlusTree::with_order(order);
        let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                MapOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v));
                }
                MapOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                }
                MapOp::Get(k) => {
                    prop_assert_eq!(tree.get(&k), oracle.get(&k));
                }
            }
        }
        prop_assert_eq!(tree.len(), oracle.len());
        let pairs: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let expect: Vec<(u16, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(pairs, expect);
        tree.check_invariants().map_err(TestCaseError::fail)?;
    }

    /// B+Tree range scans agree with BTreeMap range scans.
    #[test]
    fn bptree_range_matches(
        keys in prop::collection::btree_set(any::<u16>(), 0..300),
        lo in any::<u16>(),
        hi in any::<u16>(),
    ) {
        let mut tree: BPlusTree<u16, ()> = BPlusTree::with_order(4);
        for &k in &keys {
            tree.insert(k, ());
        }
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let got: Vec<u16> = tree.range(&lo, Some(&hi)).map(|(k, _)| *k).collect();
        let expect: Vec<u16> = keys.range(lo..hi).copied().collect();
        prop_assert_eq!(got, expect);
    }

    /// Bitmap behaves like a HashSet and its boolean algebra matches set ops.
    #[test]
    fn bitmap_matches_sets(
        a in prop::collection::hash_set(0u64..200_000, 0..500),
        b in prop::collection::hash_set(0u64..200_000, 0..500),
    ) {
        let ba: Bitmap = a.iter().copied().collect();
        let bb: Bitmap = b.iter().copied().collect();
        prop_assert_eq!(ba.len(), a.len() as u64);

        let and: HashSet<u64> = ba.and(&bb).iter().collect();
        let or: HashSet<u64> = ba.or(&bb).iter().collect();
        let diff: HashSet<u64> = ba.and_not(&bb).iter().collect();
        prop_assert_eq!(and, a.intersection(&b).copied().collect::<HashSet<_>>());
        prop_assert_eq!(or, a.union(&b).copied().collect::<HashSet<_>>());
        prop_assert_eq!(diff, a.difference(&b).copied().collect::<HashSet<_>>());
    }

    /// Bitmap iteration is sorted and removal keeps membership exact.
    #[test]
    fn bitmap_remove_consistent(
        values in prop::collection::btree_set(0u64..100_000, 1..300),
        remove_mask in prop::collection::vec(any::<bool>(), 300),
    ) {
        let mut bm: Bitmap = values.iter().copied().collect();
        let mut oracle: BTreeSet<u64> = values.clone();
        for (v, rm) in values.iter().zip(remove_mask) {
            if rm {
                prop_assert!(bm.remove(*v));
                oracle.remove(v);
            }
        }
        let got: Vec<u64> = bm.iter().collect();
        let expect: Vec<u64> = oracle.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }

    /// LSM equals a BTreeMap oracle under puts, deletes, flushes and both
    /// compactions, on every read path; every clone taken along the way
    /// keeps answering with the contents it was taken with.
    #[test]
    fn lsm_matches_btreemap(
        ops in arb_lsm_ops(),
        bounds in prop::collection::vec(arb_lsm_key(), 1..12),
        memtable_limit in 1usize..48,
        max_runs in 1usize..6,
    ) {
        let mut lsm = LsmTable::new(LsmConfig { memtable_limit, max_runs });
        let mut oracle = Oracle::new();
        let mut frozen: Vec<(LsmTable, Oracle)> = Vec::new();
        // Every key the ops write or delete, plus the random bounds.
        let mut keys: BTreeSet<Vec<u8>> = bounds.iter().cloned().collect();
        for op in &ops {
            if let LsmOp::Put(key, _) | LsmOp::Delete(key) = op {
                keys.insert(key.clone());
            }
        }
        for op in ops {
            match op {
                LsmOp::Put(key, val) => {
                    lsm.put(&key, &val.to_be_bytes());
                    oracle.insert(key, val.to_be_bytes().to_vec());
                }
                LsmOp::Delete(key) => {
                    lsm.delete(&key);
                    oracle.remove(&key);
                }
                LsmOp::Flush => lsm.flush(),
                LsmOp::Compact => lsm.compact(),
                LsmOp::CompactTail => lsm.compact_tail(),
                LsmOp::Freeze if frozen.len() < 4 => frozen.push((lsm.clone(), oracle.clone())),
                LsmOp::Freeze => {}
            }
        }
        check_lsm(&lsm, &oracle, &keys, &bounds)?;
        for (clone, contents) in &frozen {
            check_lsm(clone, contents, &keys, &bounds)?;
        }
        lsm.flush();
        lsm.compact();
        prop_assert!(lsm.run_count() <= 1);
        check_lsm(&lsm, &oracle, &keys, &bounds)?;
    }

    /// Varint and delta codecs round-trip arbitrary input.
    #[test]
    fn codecs_round_trip(mut ids in prop::collection::vec(any::<u64>(), 0..200)) {
        ids.sort_unstable();
        let enc = delta_encode(&ids);
        prop_assert_eq!(delta_decode(&enc), Some(ids));

        let mut buf = Vec::new();
        let values: Vec<u64> = (0..50).map(|i| i * 7919).collect();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    /// RecordFile allocation never hands out an id that is already live, and
    /// reads return exactly what was written.
    #[test]
    fn record_file_consistent(writes in prop::collection::vec(any::<[u8; 8]>(), 1..100)) {
        let mut f = RecordFile::new(8);
        let mut live: BTreeMap<u64, [u8; 8]> = BTreeMap::new();
        for (i, w) in writes.iter().enumerate() {
            let id = f.alloc(w);
            prop_assert!(live.insert(id, *w).is_none(), "id reused while live");
            // Periodically free an arbitrary live record.
            if i % 3 == 2 {
                let victim = *live.keys().next().unwrap();
                prop_assert!(f.free(victim));
                live.remove(&victim);
            }
        }
        for (id, w) in &live {
            prop_assert_eq!(f.get(*id), Some(&w[..]));
        }
        prop_assert_eq!(f.len(), live.len() as u64);
        prop_assert_eq!(f.iter_ids().collect::<Vec<_>>(),
                        live.keys().copied().collect::<Vec<_>>());
    }

    /// PageStore: updates preserve logical ids; compaction preserves content.
    #[test]
    fn pagestore_consistent(
        records in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..60),
        updates in prop::collection::vec((any::<prop::sample::Index>(), prop::collection::vec(any::<u8>(), 0..32)), 0..30),
    ) {
        let mut s = PageStore::new();
        let ids: Vec<u64> = records.iter().map(|r| s.alloc(r)).collect();
        let mut oracle: BTreeMap<u64, Vec<u8>> =
            ids.iter().copied().zip(records.iter().cloned()).collect();
        for (idx, new_val) in updates {
            let rid = ids[idx.index(ids.len())];
            prop_assert!(s.put(rid, &new_val));
            oracle.insert(rid, new_val);
        }
        s.compact();
        for (rid, want) in &oracle {
            prop_assert_eq!(s.get(*rid), Some(want.as_slice()));
        }
    }

    /// HashIndex multimap equals a HashSet<(k, v)> oracle.
    #[test]
    fn hashidx_matches_set(
        ops in prop::collection::vec((0u64..64, 0u64..8, any::<bool>()), 0..400),
    ) {
        let mut h = HashIndex::new();
        let mut oracle: HashSet<(u64, u64)> = HashSet::new();
        for (k, v, insert) in ops {
            if insert {
                prop_assert_eq!(h.insert(k, v), oracle.insert((k, v)));
            } else {
                prop_assert_eq!(h.remove(k, v), oracle.remove(&(k, v)));
            }
        }
        prop_assert_eq!(h.len(), oracle.len());
        for k in 0..64u64 {
            let mut got = h.get(k);
            got.sort_unstable();
            let mut expect: Vec<u64> = oracle.iter().filter(|(ok, _)| *ok == k).map(|(_, v)| *v).collect();
            expect.sort_unstable();
            prop_assert_eq!(got, expect);
        }
    }
}
