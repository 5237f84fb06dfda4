//! `cold_lookup`: random access when the data does not fit in cache.
//!
//! Set-up loads 200k `hdfs` records into a default-configured
//! `TieredStore` (WAL off), then `flush_all` and `compact` so everything
//! sits in L1. The timed phase is one read-only client: 95% zipfian point
//! `get`s and 5% 64-row `range_scan`s, each checked against the corpus.
//! The decoded working set (~28 MB) is about 3.5x the default 8 MiB
//! block cache, so the work is in the `pbc-tier` cache and cold path and
//! in `pbc-archive` block decode.

use std::time::{Duration, Instant};

use pbc_tier::{TierConfig, TieredStore};

use crate::common::{
    ratio, Counts, Ctx, Delta, Latencies, Outcome, Rng, ScratchDir, SliceOps, Slicer, Windows,
    Zipf, CORPUS_SEED,
};
use crate::spec::SETUP_REPS;
use crate::stats::{fastest, store_ratio};

const RECORDS: usize = 200_000;
const SCAN_ROWS: usize = 64;
const SCAN_SHARE: f64 = 0.05;

fn key(i: usize) -> Vec<u8> {
    format!("hdfs:{i:08}").into_bytes()
}

struct Setup {
    total_s: f64,
    load_s: f64,
    flush_s: f64,
    compact_s: f64,
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let values = pbc_datagen::Dataset::Hdfs.generate(RECORDS, CORPUS_SEED);
    let keys: Vec<Vec<u8>> = (0..RECORDS).map(key).collect();
    let raw_bytes: u64 = keys
        .iter()
        .zip(&values)
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum();

    let mut sink = ctx.tracer.sink();
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        // Drop the previous repetition's store before building the next.
        drop(kept.take());
        let dir = ScratchDir::new(ctx.dir, &format!("cold-{rep}")).map_err(|e| e.to_string())?;
        let setup = sink.new_id();
        let t0 = Instant::now();
        let store = TieredStore::open(TierConfig::new(dir.path())).map_err(|e| e.to_string())?;
        let opened = store.metrics().snapshot();
        let t1 = Instant::now();
        for (k, v) in keys.iter().zip(&values) {
            store.set(k, v).map_err(|e| e.to_string())?;
        }
        let t2 = Instant::now();
        store.flush_all().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        store.compact().map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        sink.record("pbc-tier.open", setup, 0, t0, t1);
        sink.record("pbc-tier.load", setup, 0, t1, t2);
        sink.record("pbc-tier.flush", setup, 0, t2, t3);
        sink.record("pbc-tier.compact", setup, 0, t3, t4);
        sink.record_as(setup, "setup", 0, 0, t0, t4);
        setups.push(Setup {
            total_s: (t4 - t0).as_secs_f64(),
            load_s: (t2 - t1).as_secs_f64(),
            flush_s: (t3 - t2).as_secs_f64(),
            compact_s: (t4 - t3).as_secs_f64(),
        });
        kept = Some((dir, store, opened));
    }
    let (_dir, store, opened) = kept.expect("at least one set-up");
    let segment_bytes: u64 = store.segment_stats().iter().map(|s| s.bytes).sum();

    let zipf = Zipf::new(RECORDS);
    let mut lat = Latencies::default();
    let mut counts = Counts::default();
    let mut ops = SliceOps::default();
    let mut rows_returned = 0u64;
    let before = store.metrics().snapshot();
    let timed = sink.new_id();
    let start = Instant::now();
    let slicer = Slicer::new(ctx.tracer.enabled(), start);
    let mut windows = Windows::new(start);
    let deadline = start + Duration::from_secs(ctx.seconds);
    loop {
        let scan = rng.unit() < SCAN_SHARE;
        let i = zipf.next(&mut rng);
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        counts.attempted += 1;
        let traced = slicer.traced(t0);
        ops.add(traced);
        if scan {
            let rows: Result<Vec<(Vec<u8>, Vec<u8>)>, _> = store
                .range_scan(&keys[i][..]..)
                .and_then(|s| s.take(SCAN_ROWS).collect());
            let t1 = Instant::now();
            lat.scan.record(t1 - t0);
            windows.add(t1);
            if traced {
                sink.record("pbc-tier.range_scan", timed, sink.new_id(), t0, t1);
            }
            match rows {
                Ok(rows) => {
                    rows_returned += rows.len() as u64;
                    let end = (i + SCAN_ROWS).min(RECORDS);
                    let expected = keys[i..end].iter().zip(&values[i..end]);
                    if rows.len() != end - i
                        || !rows
                            .iter()
                            .zip(expected)
                            .all(|((k, v), (ek, ev))| k == ek && v == ev)
                    {
                        counts.wrong += 1;
                    }
                }
                Err(_) => counts.errors += 1,
            }
        } else {
            let got = store.get(&keys[i]);
            let t1 = Instant::now();
            lat.get.record(t1 - t0);
            windows.add(t1);
            if traced {
                sink.record("pbc-tier.get", timed, sink.new_id(), t0, t1);
            }
            match got {
                Ok(Some(v)) if v == values[i] => {}
                Ok(_) => counts.wrong += 1,
                Err(_) => counts.errors += 1,
            }
        }
    }
    let elapsed = start.elapsed();
    let acked = counts.attempted - counts.failed();
    sink.record_as(timed, "timed", 0, 0, start, start + elapsed);
    drop(sink);
    let after = store.metrics().snapshot();
    let stats = store.stats();
    let hot_bytes = store.memory_usage_bytes();
    drop(store);

    let gets = lat.get.count();
    let mut outcome = Outcome::new(counts, lat);
    outcome.e2e.extend([
        (
            "setup_s",
            fastest(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        ),
        (
            "ops_per_s",
            windows.median_rate(elapsed) * ratio(acked, counts.attempted),
        ),
        (
            "compression_ratio",
            store_ratio(raw_bytes, hot_bytes, segment_bytes),
        ),
    ]);
    let timed_delta = Delta {
        before: &before,
        after: &after,
    };
    let life = Delta {
        before: &opened,
        after: &after,
    };
    let best = |f: fn(&Setup) -> f64| fastest(&setups.iter().map(f).collect::<Vec<_>>());
    let (hits, misses) = (
        timed_delta.counter("pbc_tier_cache_hits_total"),
        timed_delta.counter("pbc_tier_cache_misses_total"),
    );
    outcome.layers.extend([
        ("pbc-store.hot_bytes", hot_bytes as f64),
        (
            "pbc-store.hot_hit_frac",
            ratio(timed_delta.counter("pbc_tier_hot_hits_total"), gets),
        ),
        ("pbc-tier.cache_hit_rate", ratio(hits, hits + misses)),
        (
            "pbc-tier.cache_evictions",
            timed_delta.counter("pbc_tier_cache_evictions_total") as f64,
        ),
        (
            "pbc-tier.cache_fetch_s",
            timed_delta.secs("pbc_tier_cache_fetch_ns"),
        ),
        (
            "pbc-tier.segments_scanned_per_get",
            ratio(
                timed_delta.counter("pbc_tier_cold_segments_scanned_total"),
                gets,
            ),
        ),
        (
            "pbc-tier.scan_bytes_decoded_per_row",
            ratio(
                timed_delta.counter("pbc_tier_scan_bytes_decoded_total"),
                rows_returned,
            ),
        ),
        ("pbc-tier.load_s", best(|s| s.load_s)),
        ("pbc-tier.flush_s", best(|s| s.flush_s)),
        ("pbc-tier.compact_s", best(|s| s.compact_s)),
        (
            "pbc-archive.blocks_decoded",
            timed_delta.counter("pbc_archive_blocks_decoded_total") as f64,
        ),
        (
            "pbc-archive.block_decode_s",
            timed_delta.secs("pbc_archive_block_decode_ns"),
        ),
        (
            "pbc-archive.blocks_encoded",
            life.counter("pbc_archive_blocks_encoded_total") as f64,
        ),
        (
            "pbc-archive.block_encode_s",
            life.secs("pbc_archive_block_encode_ns"),
        ),
    ]);
    outcome.client_time(elapsed, 1);
    outcome.trace_split(&slicer, ops, elapsed);
    outcome.notes.push(format!(
        "hdfs {RECORDS} records, {raw_bytes} raw bytes (keys + values), {segment_bytes} segment bytes in {} L1 partitions",
        stats.l1_partitions
    ));
    Ok(outcome)
}
