//! `serve_mixed`: writes beside reads through the `pbc-serve` Router.
//!
//! Two closed-loop clients, each owning one tenant so every result can be
//! checked against that client's model. Values are `kv2` records (Table
//! 8, Workload A) stored through a `PBC_F` hot codec trained in set-up.
//! The store logs to a 2-shard WAL with group commit
//! (`Durability::PerBatch`) and compacts in the background; its 64 KiB
//! watermark makes every run spill and compact. Set-up pre-loads until the
//! first spill has finished, so the one-time spill-codec selection counts
//! in `setup_s`, not in the timed phase.
//!
//! Segments use 8 KiB blocks and select their codec from one sample
//! block. With the default 64 KiB blocks and 4 sample blocks, each codec
//! selection trains PBC on ~256 `kv2` records, ~20 s of CPU on a 2-vCPU
//! machine, and every compaction that rewrites most of the cold data
//! selects again, so no compaction would finish inside a run.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pbc_archive::SegmentConfig;
use pbc_core::{PbcCompressor, PbcConfig};
use pbc_datagen::Dataset;
use pbc_obs::Snapshot;
use pbc_serve::{Router, ServeConfig, ServeError, TenantQuota};
use pbc_store::ValueCodec;
use pbc_tier::{Durability, TierConfig, TieredStore, WalOptions};

use crate::common::{
    ratio, Counts, Ctx, Delta, Latencies, Outcome, Rng, ScratchDir, SliceOps, Slicer, Windows,
    Zipf, CORPUS_SEED,
};
use crate::spec::SETUP_REPS;
use crate::stats::{fastest, store_ratio};
use crate::trace::SpanSink;

const CLIENTS: usize = 2;
const KEYS_PER_TENANT: usize = 1_000;
const VALUE_POOL: usize = 50_000;
const TRAINING_RECORDS: usize = 256;
const WATERMARK_BYTES: u64 = 64 * 1024;
const BLOCK_BYTES: usize = 8 * 1024;
const SCAN_ROWS: usize = 16;
/// Cumulative op shares: put, get, scan; the rest are deletes.
const PUT: f64 = 0.50;
const GET: f64 = 0.90;
const SCAN: f64 = 0.95;
/// A timed phase with fewer spills or compaction jobs than these does not
/// exercise the write path it is for, and the run counts as incorrect.
const MIN_SPILLS: u64 = 5;
const MIN_COMPACTIONS: u64 = 1;

type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn tenant(c: usize) -> String {
    format!("tenant-{c}")
}

fn key(i: usize) -> Vec<u8> {
    format!("user:{i:06}").into_bytes()
}

/// One set-up's product: a running router over a store pre-loaded up to
/// its first spill, and what each tenant holds.
struct Deployment {
    router: Router,
    store: Arc<TieredStore>,
    _dir: ScratchDir,
    pbc: Arc<PbcCompressor>,
    models: Vec<Model>,
    /// Registry snapshot right after the store opened.
    opened: Snapshot,
    preloaded: usize,
    setup_s: f64,
    train_s: f64,
}

fn deploy(
    ctx: &Ctx,
    rep: usize,
    pool: &[Vec<u8>],
    mut rng: Rng,
    sink: &mut SpanSink,
) -> Result<Deployment, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let dir = ScratchDir::new(ctx.dir, &format!("serve-{rep}")).map_err(|e| err(&e))?;
    let step = pool.len() / TRAINING_RECORDS;
    let sample: Vec<&[u8]> = pool
        .iter()
        .step_by(step)
        .take(TRAINING_RECORDS)
        .map(Vec::as_slice)
        .collect();
    let setup = sink.new_id();
    let t0 = Instant::now();
    let pbc = Arc::new(PbcCompressor::train_fsst(&sample, &PbcConfig::default()));
    let t1 = Instant::now();
    let config = TierConfig::new(dir.path())
        .with_watermark(WATERMARK_BYTES)
        .with_hot_codec(ValueCodec::Pbc(Arc::clone(&pbc)))
        .with_segment_config(SegmentConfig {
            target_block_bytes: BLOCK_BYTES,
            auto_sample_blocks: 1,
            ..SegmentConfig::default()
        })
        .with_background_compaction(true)
        .with_wal(WalOptions::with_durability(Durability::PerBatch).shards(2));
    let store = Arc::new(TieredStore::open(config).map_err(|e| err(&e))?);
    let opened = store.metrics().snapshot();
    let router = Router::start(Arc::clone(&store), ServeConfig::default().with_shards(2))
        .map_err(|e| err(&e))?;
    for c in 0..CLIENTS {
        router
            .create_tenant(&tenant(c), TenantQuota::unlimited())
            .map_err(|e| err(&e))?;
    }
    let t2 = Instant::now();
    let mut models = vec![Model::new(); CLIENTS];
    let mut preloaded = 0usize;
    while store.stats().spills == 0 {
        for _ in 0..64 {
            let c = preloaded % CLIENTS;
            let k = key((preloaded / CLIENTS) % KEYS_PER_TENANT);
            let v = &pool[rng.below(pool.len())];
            router.put(&tenant(c), &k, v).map_err(|e| err(&e))?;
            models[c].insert(k, v.clone());
            preloaded += 1;
        }
    }
    let t3 = Instant::now();
    sink.record("pbc-core.train", setup, 0, t0, t1);
    sink.record("pbc-serve.start", setup, 0, t1, t2);
    sink.record("pbc-serve.preload", setup, 0, t2, t3);
    sink.record_as(setup, "setup", 0, 0, t0, t3);
    Ok(Deployment {
        router,
        store,
        _dir: dir,
        pbc,
        models,
        opened,
        preloaded,
        setup_s: (t3 - t0).as_secs_f64(),
        train_s: (t1 - t0).as_secs_f64(),
    })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let pool = Dataset::Kv2.generate(VALUE_POOL, CORPUS_SEED);
    let preload_rng = rng.fork();
    let mut sink = ctx.tracer.sink();
    let (mut setups, mut trains) = (Vec::new(), Vec::new());
    let mut deployed: Option<Deployment> = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous repetition before building the next.
        if let Some(old) = deployed.take() {
            old.router.shutdown();
        }
        let d = deploy(ctx, rep, &pool, preload_rng.clone(), &mut sink)?;
        setups.push(d.setup_s);
        trains.push(d.train_s);
        deployed = Some(d);
    }
    let d = deployed.expect("at least one set-up");
    let timed = sink.new_id();
    drop(sink);

    let zipf = Zipf::new(KEYS_PER_TENANT);
    let codec_before = d.pbc.stats();
    let before = d.store.metrics().snapshot();
    let stats_before = d.store.stats();
    let start = Instant::now();
    let slicer = Slicer::new(ctx.tracer.enabled(), start);
    let load = Load {
        ctx,
        router: &d.router,
        zipf: &zipf,
        pool: &pool,
        slicer,
        deadline: start + Duration::from_secs(ctx.seconds),
        timed,
    };
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = d
            .models
            .iter()
            .enumerate()
            .map(|(c, model)| {
                let (model, rng) = (model.clone(), rng.fork());
                scope.spawn(move || load.client(c, model, rng))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    ctx.tracer
        .sink()
        .record_as(timed, "timed", 0, 0, start, start + elapsed);
    let after = d.store.metrics().snapshot();
    let stats_after = d.store.stats();
    let hot_bytes = d.store.memory_usage_bytes();
    d.router.shutdown();
    let codec_after = d.pbc.stats();
    // The ratio at rest: what the store holds for the live data once
    // maintenance has caught up, not which spill or compaction happened
    // to be in flight when the clock stopped.
    d.store.flush_all().map_err(|e| e.to_string())?;
    d.store.compact().map_err(|e| e.to_string())?;
    let rest_bytes =
        d.store.memory_usage_bytes() + d.store.segment_stats().iter().map(|s| s.bytes).sum::<u64>();

    let mut lat = Latencies::default();
    let mut counts = Counts::default();
    let mut ops = SliceOps::default();
    let mut windows = Windows::new(start);
    let mut live_bytes = 0u64;
    for c in &clients {
        lat.merge(&c.lat);
        counts.merge(&c.counts);
        ops.merge(&c.ops);
        windows.merge(&c.windows);
        live_bytes += c
            .model
            .iter()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
    }
    let acked = counts.attempted - counts.failed();
    let client_write_s = lat.write.sum_s();
    let writes = lat.write.count();
    let mut outcome = Outcome::new(counts, lat);
    outcome.e2e.extend([
        ("setup_s", fastest(&setups)),
        (
            "ops_per_s",
            windows.median_rate(elapsed) * ratio(acked, counts.attempted),
        ),
        ("compression_ratio", store_ratio(live_bytes, 0, rest_bytes)),
    ]);

    let delta = Delta {
        before: &before,
        after: &after,
    };
    let life = Delta {
        before: &d.opened,
        after: &after,
    };
    let put_s = delta.secs("pbc_tier_put_latency_ns");
    let delete_s = delta.secs("pbc_tier_delete_latency_ns");
    let write_wait_s = delta.secs("pbc_serve_write_wait_ns");
    let spills = stats_after.spills - stats_before.spills;
    let compactions = stats_after.compactions - stats_before.compactions;
    let rejections = delta.counter("pbc_serve_admission_rejections_total")
        + delta.counter("pbc_serve_quota_rejections_total");
    outcome.layers.extend([
        ("pbc-core.train_s", fastest(&trains)),
        (
            "pbc-core.outlier_frac",
            ratio(
                codec_after.outliers - codec_before.outliers,
                codec_after.records - codec_before.records,
            ),
        ),
        ("pbc-store.hot_bytes", hot_bytes as f64),
        (
            "pbc-store.hot_hit_frac",
            ratio(
                delta.counter("pbc_tier_hot_hits_total"),
                delta.hist("pbc_tier_get_latency_ns").0,
            ),
        ),
        ("pbc-tier.put_s", put_s),
        ("pbc-tier.delete_s", delete_s),
        ("pbc-tier.spills", spills as f64),
        ("pbc-tier.spill_s", delta.secs("pbc_tier_spill_ns")),
        ("pbc-tier.compactions", compactions as f64),
        (
            "pbc-tier.compaction_s",
            delta.secs("pbc_tier_compaction_ns"),
        ),
        (
            "pbc-tier.segments_retired",
            (stats_after.segments_retired - stats_before.segments_retired) as f64,
        ),
        (
            "pbc-archive.blocks_decoded",
            delta.counter("pbc_archive_blocks_decoded_total") as f64,
        ),
        (
            "pbc-archive.block_decode_s",
            delta.secs("pbc_archive_block_decode_ns"),
        ),
        (
            "pbc-archive.blocks_encoded",
            life.counter("pbc_archive_blocks_encoded_total") as f64,
        ),
        (
            "pbc-archive.block_encode_s",
            life.secs("pbc_archive_block_encode_ns"),
        ),
        (
            "pbc-wal.fsyncs_per_write",
            ratio(delta.counter("pbc_wal_fsyncs_total"), writes),
        ),
        ("pbc-wal.fsync_s", delta.secs("pbc_wal_fsync_ns")),
        (
            "pbc-wal.commit_batch_mean",
            delta.mean("pbc_wal_commit_batch_records"),
        ),
        (
            "pbc-serve.batch_mean",
            delta.mean("pbc_serve_batch_records"),
        ),
        ("pbc-serve.queue_wait_s", write_wait_s - put_s - delete_s),
        ("pbc-serve.rejections", rejections as f64),
        (
            "bench.write_gap_frac",
            (client_write_s - write_wait_s) / client_write_s.max(1e-12),
        ),
    ]);
    outcome.client_time(elapsed, CLIENTS as u32);
    outcome.trace_split(&slicer, ops, elapsed);
    outcome.notes.push(format!(
        "{KEYS_PER_TENANT} keys per tenant, preloaded {} puts; timed phase: {spills} spills, {compactions} compaction jobs; {hot_bytes} hot bytes at its end; at rest: {live_bytes} live user bytes in {rest_bytes} stored bytes",
        d.preloaded
    ));
    if spills < MIN_SPILLS || compactions < MIN_COMPACTIONS {
        outcome.invalid.push(format!(
            "the timed phase had {spills} spills and {compactions} compaction jobs; it needs at least {MIN_SPILLS} and {MIN_COMPACTIONS}"
        ));
    }
    if stats_after.background_errors > 0 {
        outcome.invalid.push(format!(
            "{} background errors, last: {:?}",
            stats_after.background_errors,
            d.store.recent_background_errors().last()
        ));
    }
    Ok(outcome)
}

struct Client {
    lat: Latencies,
    counts: Counts,
    ops: SliceOps,
    windows: Windows,
    model: Model,
}

/// What every client thread shares.
#[derive(Clone, Copy)]
struct Load<'a> {
    ctx: &'a Ctx<'a>,
    router: &'a Router,
    zipf: &'a Zipf,
    pool: &'a [Vec<u8>],
    slicer: Slicer,
    deadline: Instant,
    timed: u64,
}

impl Load<'_> {
    /// One closed-loop client over tenant `c`, checking every result
    /// against `model`.
    fn client(self, c: usize, mut model: Model, mut rng: Rng) -> Client {
        let tenant = tenant(c);
        let mut sink = self.ctx.tracer.sink();
        let mut lat = Latencies::default();
        let mut counts = Counts::default();
        let mut ops = SliceOps::default();
        let mut windows = Windows::new(self.slicer.start());
        loop {
            let u = rng.unit();
            let k = key(self.zipf.next(&mut rng));
            let value = &self.pool[rng.below(self.pool.len())];
            let t0 = Instant::now();
            if t0 >= self.deadline {
                break;
            }
            counts.attempted += 1;
            // Each arm yields its span name and whether the result
            // matched the model.
            let (span, result) = if u < PUT {
                let r = self.router.put(&tenant, &k, value);
                lat.write.record(t0.elapsed());
                let r = r.map(|_| {
                    model.insert(k, value.clone());
                    true
                });
                ("pbc-serve.put", r)
            } else if u < GET {
                let r = self.router.get(&tenant, &k);
                lat.get.record(t0.elapsed());
                ("pbc-serve.get", r.map(|got| got.as_ref() == model.get(&k)))
            } else if u < SCAN {
                let r = self.router.scan(&tenant, &k, SCAN_ROWS);
                lat.scan.record(t0.elapsed());
                let r = r.map(|rows| {
                    let expected = model.range(k..).take(SCAN_ROWS);
                    rows.len() == expected.clone().count()
                        && rows
                            .iter()
                            .zip(expected)
                            .all(|(row, (ek, ev))| row.0 == *ek && row.1 == *ev)
                });
                ("pbc-serve.scan", r)
            } else {
                let r = self.router.delete(&tenant, &k);
                lat.write.record(t0.elapsed());
                let r = r.map(|existed| existed == model.remove(&k).is_some());
                ("pbc-serve.delete", r)
            };
            let t1 = Instant::now();
            windows.add(t1);
            let traced = self.slicer.traced(t0);
            ops.add(traced);
            if traced {
                sink.record(span, self.timed, sink.new_id(), t0, t1);
            }
            match result {
                Ok(true) => {}
                Ok(false) => counts.wrong += 1,
                Err(ServeError::Busy { .. }) => counts.busy += 1,
                Err(_) => counts.errors += 1,
            }
        }
        Client {
            lat,
            counts,
            ops,
            windows,
            model,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    /// ROADMAP aim 1's "layer times add up": the router's queue wait plus
    /// the tier's put and delete time account for the clients' write time
    /// within the registry histograms' 6.25% error.
    #[test]
    fn write_time_adds_up_across_layers() {
        let tracer = Tracer::new(false);
        let dir = std::env::temp_dir().join(format!("pbc-benchmark-serve-{}", std::process::id()));
        let ctx = Ctx {
            seed: 7,
            seconds: 2,
            tracer: &tracer,
            dir: &dir,
        };
        let outcome = run(&ctx).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.counts.failed(), 0);
        let l = &outcome.layers;
        // queue_wait_s is the router's write wait minus the tier sums, so
        // the tier sums must fit inside the router's wait.
        assert!(
            l["pbc-serve.queue_wait_s"] >= 0.0,
            "tier put + delete exceed the router's write wait by {} s",
            -l["pbc-serve.queue_wait_s"]
        );
        let layers = l["pbc-serve.queue_wait_s"] + l["pbc-tier.put_s"] + l["pbc-tier.delete_s"];
        let client = outcome.latencies.write.sum_s();
        assert!(client > 0.0);
        assert!(
            (client - layers).abs() / client <= 0.0625,
            "client {client} s vs layers {layers} s"
        );
    }
}
