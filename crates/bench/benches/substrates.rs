//! Criterion bench: the storage substrates in isolation — the ablation
//! level below the engines (B+Tree vs bitmap vs LSM vs record files), plus
//! the delta-encoding space/time trade-off behind the columnar engine.

use criterion::{criterion_group, criterion_main, Criterion};
use gm_storage::bptree::BPlusTree;
use gm_storage::codec::{delta_decode, delta_encode};
use gm_storage::lsm::{LsmConfig, LsmTable};
use gm_storage::{Bitmap, HashIndex, PageStore, RecordFile};

const N: u64 = 10_000;

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/point-lookup");
    group.bench_function("bptree", |b| {
        let mut t: BPlusTree<u64, u64> = BPlusTree::new();
        for i in 0..N {
            t.insert(i, i);
        }
        b.iter(|| t.get(std::hint::black_box(&(N / 2))));
    });
    group.bench_function("bitmap", |b| {
        let bm: Bitmap = (0..N).collect();
        b.iter(|| bm.contains(std::hint::black_box(N / 2)));
    });
    group.bench_function("lsm", |b| {
        let mut l = LsmTable::new(LsmConfig::default());
        for i in 0..N {
            l.put(&i.to_be_bytes(), &i.to_le_bytes());
        }
        let key = (N / 2).to_be_bytes();
        b.iter(|| l.get(std::hint::black_box(&key)));
    });
    group.bench_function("record-file", |b| {
        let mut f = RecordFile::new(16);
        for i in 0..N {
            f.alloc(&i.to_le_bytes());
        }
        b.iter(|| f.get(std::hint::black_box(N / 2)));
    });
    group.bench_function("pagestore", |b| {
        let mut s = PageStore::new();
        for i in 0..N {
            s.alloc(&i.to_le_bytes());
        }
        b.iter(|| s.get(std::hint::black_box(N / 2)));
    });
    group.bench_function("hashidx", |b| {
        let mut h = HashIndex::new();
        for i in 0..N {
            h.insert(i, i);
        }
        b.iter(|| h.get(std::hint::black_box(N / 2)));
    });
    group.finish();

    let mut group = c.benchmark_group("substrate/insert");
    group.sample_size(20);
    group.bench_function("bptree", |b| {
        b.iter_batched(
            BPlusTree::<u64, u64>::new,
            |mut t| {
                for i in 0..1000u64 {
                    t.insert(i * 7919 % 1000, i);
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("lsm", |b| {
        b.iter_batched(
            || LsmTable::new(LsmConfig::default()),
            |mut l| {
                for i in 0..1000u64 {
                    l.put(&i.to_be_bytes(), b"v");
                }
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();

    // LSM scans over rows keyed like the columnar engine's (8-byte vertex
    // id, then a column qualifier). `one-run` is the shape of a bulk-loaded
    // store; `run+memtable` adds a memtable of overwrites, so the scan
    // merges two sources.
    let mut rows = LsmTable::new(LsmConfig::default());
    for vid in 0..N {
        for column in 0..4u8 {
            let mut key = vid.to_be_bytes().to_vec();
            key.push(column);
            rows.put(&key, &vid.to_le_bytes());
        }
    }
    rows.flush();
    let mut overwritten = rows.clone();
    for vid in (0..N).step_by(97) {
        let mut key = vid.to_be_bytes().to_vec();
        key.push(1);
        overwritten.put(&key, b"overwrite");
    }
    let mut group = c.benchmark_group("substrate/lsm-scan");
    group.bench_function("full-scan/one-run", |b| {
        b.iter(|| std::hint::black_box(&rows).scan_range(&[], None).count());
    });
    group.bench_function("full-scan/run+memtable", |b| {
        b.iter(|| {
            std::hint::black_box(&overwritten)
                .scan_range(&[], None)
                .count()
        });
    });
    group.bench_function("scan-prefix", |b| {
        let row = (N / 2).to_be_bytes();
        b.iter(|| rows.scan_prefix(std::hint::black_box(&row)).count());
    });
    group.finish();

    // Delta encoding: the columnar engine's space trick, decode cost vs a
    // plain fixed-width copy.
    let ids: Vec<u64> = (0..10_000u64).map(|i| 1_000_000 + i * 3).collect();
    let encoded = delta_encode(&ids);
    let fixed: Vec<u8> = ids.iter().flat_map(|v| v.to_le_bytes()).collect();
    println!(
        "delta encoding: {} B vs fixed {} B ({:.1}x smaller)",
        encoded.len(),
        fixed.len(),
        fixed.len() as f64 / encoded.len() as f64
    );
    let mut group = c.benchmark_group("substrate/adjacency-decode");
    group.bench_function("delta", |b| {
        b.iter(|| delta_decode(std::hint::black_box(&encoded)).expect("decode"));
    });
    group.bench_function("fixed-width", |b| {
        b.iter(|| {
            std::hint::black_box(&fixed)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk")))
                .collect::<Vec<u64>>()
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_substrates
}
criterion_main!(benches);
