//! `navigate`: two in-process threads in a closed loop of read
//! transactions, each eight 5-hop `Database::navigate` traversals down
//! `Link` chains followed by a `get` of the tail's payload, checked
//! against the generator's record. No wire, no WAL traffic.

use crate::report::Metrics;
use crate::rng::Rng;
use crate::stats::{percentile, ratio};
use crate::trace::{Layer, Recorder, Trace, Tracer};
use crate::watchdog::Watchdog;
use crate::{Args, Outcome, SPAN_CAP};
use orion_oodb::orion::{
    AttrSpec, Database, DbResult, DbStats, Domain, Migration, Oid, PrimitiveType, SchemaChange,
    Value,
};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// 20,000 chains of 6 objects: 120,000 objects, far more than the
/// default 4,096-object cache and 256-page buffer pool hold, so cold
/// traversals fault objects in from pages.
const CHAINS: usize = 20_000;
const DEPTH: usize = 6;
/// 400 hot chains = 2,400 objects: they fit the object cache, so hot
/// traversals take the swizzled-pointer path.
const HOT_CHAINS: usize = 400;
/// Share of traversals that start in the hot set.
const HOT_SHARE: f64 = 0.8;
const TRAVERSALS_PER_TXN: usize = 8;
const THREADS: usize = 2;
const PATH: [&str; DEPTH - 1] = ["next"; DEPTH - 1];
/// Untimed mixed traffic after set-up, so the hot set is resident and
/// swizzled before timing starts.
const WARMUP: Duration = Duration::from_millis(500);

/// What the generator inserted.
pub struct Chains {
    heads: Vec<Oid>,
    tails: Vec<Oid>,
    payloads: Vec<i64>,
    hot: Vec<usize>,
}

fn build(db: &Database, rng: &mut Rng) -> DbResult<Chains> {
    let link = db.create_class(
        "Link",
        &[],
        vec![AttrSpec::new(
            "payload",
            Domain::Primitive(PrimitiveType::Int),
        )],
    )?;
    db.evolve(
        SchemaChange::AddAttribute {
            class: link,
            spec: AttrSpec::new("next", Domain::Class(link)),
        },
        Migration::Lazy,
    )?;
    let tx = db.begin();
    let (mut heads, mut tails, mut payloads) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CHAINS {
        // Tail first, so each `next` names an existing object.
        let payload = rng.below(1 << 40) as i64;
        let tail = db.create_object(&tx, "Link", vec![("payload", Value::Int(payload))])?;
        let mut next = tail;
        for _ in 1..DEPTH {
            let p = rng.below(1 << 40) as i64;
            next = db.create_object(
                &tx,
                "Link",
                vec![("payload", Value::Int(p)), ("next", Value::Ref(next))],
            )?;
        }
        heads.push(next);
        tails.push(tail);
        payloads.push(payload);
    }
    db.commit(tx)?;
    let mut order: Vec<usize> = (0..CHAINS).collect();
    rng.shuffle(&mut order);
    order.truncate(HOT_CHAINS);
    Ok(Chains {
        heads,
        tails,
        payloads,
        hot: order,
    })
}

/// One thread's traversals in one phase.
#[derive(Default)]
struct Run {
    /// Traversal latency (ns) by start: hot set or anywhere.
    hot_ns: Vec<u32>,
    cold_ns: Vec<u32>,
    attempted: u64,
    failed: u64,
    rejections: Vec<String>,
}

#[allow(clippy::too_many_arguments)]
fn worker(
    slot: usize,
    db: &Database,
    ch: &Chains,
    rng: &mut Rng,
    until: Instant,
    rec: &mut Recorder,
    wd: &Watchdog,
    run: &mut Run,
) {
    let mut txn = 0u64;
    while Instant::now() < until && !rec.full() {
        wd.arm(slot);
        rec.begin_op("read_txn", txn);
        txn += 1;
        let tx = rec.span(Layer::Tx, "begin", || db.begin());
        for _ in 0..TRAVERSALS_PER_TXN {
            let hot = rng.chance(HOT_SHARE);
            let c = if hot {
                ch.hot[rng.index(HOT_CHAINS)]
            } else {
                rng.index(CHAINS)
            };
            run.attempted += 1;
            let t0 = Instant::now();
            let name = if hot { "navigate_hot" } else { "navigate_cold" };
            let tail = rec.span(Layer::Core, name, || db.navigate(&tx, ch.heads[c], &PATH));
            let payload = tail.and_then(|t| {
                rec.span(Layer::Core, "get", || db.get(&tx, t, "payload"))
                    .map(|v| (t, v))
            });
            let ns = t0.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
            match payload {
                Ok((t, Value::Int(p))) if t == ch.tails[c] && p == ch.payloads[c] => if hot {
                    &mut run.hot_ns
                } else {
                    &mut run.cold_ns
                }
                .push(ns),
                Ok((t, v)) => {
                    run.failed += 1;
                    run.rejections.push(format!(
                        "chain {c}: reached {t} with payload {v:?}, expected {} with {}",
                        ch.tails[c], ch.payloads[c]
                    ));
                }
                Err(e) => {
                    run.failed += 1;
                    eprintln!("perfbench: traversal of chain {c} failed: {e}");
                }
            }
        }
        if let Err(e) = rec.span(Layer::Tx, "commit", || db.commit(tx)) {
            eprintln!("perfbench: read transaction commit failed: {e}");
        }
        rec.end_op();
        wd.disarm(slot);
        wd.attempted
            .fetch_add(TRAVERSALS_PER_TXN as u64, Ordering::Relaxed);
    }
}

/// Both threads for `length`.
fn phase(
    db: &Database,
    ch: &Chains,
    rngs: &mut [Rng],
    length: Duration,
    tracer: &Tracer,
    wd: &Watchdog,
) -> (Run, f64) {
    let start = Instant::now();
    let until = start + length;
    let runs: Vec<(Run, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .enumerate()
            .map(|(slot, rng)| {
                let mut rec = tracer.recorder();
                scope.spawn(move || {
                    let mut run = Run::default();
                    worker(slot, db, ch, rng, until, &mut rec, wd, &mut run);
                    (run, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("navigate thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = Run::default();
    for (run, rec) in runs {
        tracer.absorb(rec);
        total.hot_ns.extend(run.hot_ns);
        total.cold_ns.extend(run.cold_ns);
        total.attempted += run.attempted;
        total.failed += run.failed;
        total.rejections.extend(run.rejections);
    }
    (total, elapsed)
}

fn us(ns: &[u32]) -> Vec<f64> {
    ns.iter().map(|&n| f64::from(n) / 1e3).collect()
}

impl Run {
    /// Every traversal's latency in µs, hot and cold.
    fn all_us(&self) -> Vec<f64> {
        let mut all = us(&self.hot_ns);
        all.extend(us(&self.cold_ns));
        all
    }
}

pub fn setup(args: &Args) -> Result<(Database, Chains), String> {
    let db = Database::open_in_memory();
    let ch = build(&db, &mut Rng::new(args.seed)).map_err(|e| format!("load: {e}"))?;
    Ok((db, ch))
}

pub fn run(args: &Args, wd: &Watchdog, (db, ch): (Database, Chains)) -> Result<Outcome, String> {
    let mut out = Outcome {
        shape: vec![
            (
                "objects",
                db.extent_len("Link").map_err(|e| e.to_string())? as u64,
            ),
            ("chains", CHAINS as u64),
            ("hops_per_traversal", (DEPTH - 1) as u64),
            ("hot_chains", ch.hot.len() as u64),
            ("traversals_per_txn", TRAVERSALS_PER_TXN as u64),
            ("threads", THREADS as u64),
            ("cache_objects", db.config().cache_objects as u64),
            ("buffer_pages", db.config().buffer_pages as u64),
        ],
        ..Outcome::default()
    };
    let mut base = Rng::new(args.seed).fork(3);
    let mut rngs: Vec<Rng> = (0..THREADS).map(|t| base.fork(t as u64)).collect();
    let off = Tracer::new("untraced", false, 0);
    let (warm, _) = phase(&db, &ch, &mut rngs, WARMUP, &off, wd);
    let secs = |f: f64| Duration::from_secs_f64(args.seconds * f);

    let (plain, plain_s) = phase(
        &db,
        &ch,
        &mut rngs,
        secs(if args.trace { 0.5 } else { 1.0 }),
        &off,
        wd,
    );
    let mut runs = vec![warm];
    if !args.trace {
        let mut all = plain.all_us();
        let m = &mut out.metrics;
        m.set("ops_per_s", all.len() as f64 / plain_s);
        m.set("op_p50_ms", percentile(&mut all, 50.0) / 1e3);
        detail(&mut out.detail, &plain, plain_s);
    } else {
        let tracer = Tracer::new("navigate", true, SPAN_CAP);
        let before = db.stats();
        let (traced, traced_s) = phase(&db, &ch, &mut rngs, secs(0.5), &tracer, wd);
        let after = db.stats();
        let trace = tracer.finish();
        layer_metrics(&mut out.metrics, &traced, &before, &after, &trace);
        let untraced_p50 = percentile(&mut plain.all_us(), 50.0);
        out.metrics.set(
            "trace.overhead_pct",
            (percentile(&mut traced.all_us(), 50.0) / untraced_p50 - 1.0) * 100.0,
        );
        detail(&mut out.detail, &traced, traced_s);
        out.traces = vec![trace];
        runs.push(traced);
    }
    runs.push(plain);
    for r in runs {
        out.attempted += r.attempted;
        out.failed += r.failed;
        for why in r.rejections {
            out.reject(why);
        }
    }
    Ok(out)
}

fn detail(d: &mut Metrics, run: &Run, secs: f64) {
    let mut hot = us(&run.hot_ns);
    let mut cold = us(&run.cold_ns);
    let mut all = run.all_us();
    d.set("traversals", all.len() as f64);
    d.set("traversals_per_s", all.len() as f64 / secs);
    d.set("hot_share", ratio(hot.len() as f64, all.len() as f64));
    d.set("nav_hot_p50_us", percentile(&mut hot, 50.0));
    d.set("nav_cold_p50_us", percentile(&mut cold, 50.0));
    d.set("nav_p99_us", percentile(&mut all, 99.0));
}

fn layer_metrics(m: &mut Metrics, run: &Run, before: &DbStats, after: &DbStats, trace: &Trace) {
    let traversals = (run.hot_ns.len() + run.cold_ns.len()) as f64;
    let delta = |f: fn(&DbStats) -> u64| (f(after) - f(before)) as f64;
    let hot = trace.durations_us("navigate_hot");
    let cold = trace.durations_us("navigate_cold");
    m.set(
        "core.navigate_us",
        (hot.iter().sum::<f64>() + cold.iter().sum::<f64>()) / traversals,
    );
    m.set("core.navigate_hot_us", crate::stats::mean(&hot));
    m.set("core.navigate_cold_us", crate::stats::mean(&cold));
    m.set("core.get_us", trace.mean_us("get"));
    let hits = delta(|s| s.cache.hits);
    m.set(
        "core.cache_hit_ratio",
        ratio(hits, hits + delta(|s| s.cache.misses)),
    );
    m.set(
        "core.cache_evictions_per_traversal",
        delta(|s| s.cache.evictions) / traversals,
    );
    let swizzled = delta(|s| s.cache.swizzled_hops);
    m.set(
        "core.swizzled_hop_ratio",
        ratio(swizzled, swizzled + delta(|s| s.cache.unswizzled_hops)),
    );
    m.set(
        "tx.locks_per_traversal",
        delta(|s| s.locks.acquisitions) / traversals,
    );
    let txns = trace.durations_us("begin").len() as f64;
    m.set(
        "tx.begin_commit_us",
        (trace.durations_us("begin").iter().sum::<f64>()
            + trace.durations_us("commit").iter().sum::<f64>())
            / txns,
    );
    let pool_hits = delta(|s| s.pool.hits);
    m.set(
        "storage.pool_hit_ratio",
        ratio(pool_hits, pool_hits + delta(|s| s.pool.misses)),
    );
    m.set(
        "storage.disk_reads_per_traversal",
        delta(|s| s.disk.reads) / traversals,
    );
    let self_us = trace.self_time_us();
    let ops = trace.ops() as f64;
    for layer in [Layer::Loadgen, Layer::Core, Layer::Tx] {
        m.set(
            &format!("{}.self_us_per_op", layer.name()),
            self_us[&layer] / ops,
        );
    }
    m.set("loadgen.ops_attempted", run.attempted as f64);
}
