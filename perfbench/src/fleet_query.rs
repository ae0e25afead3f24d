//! `fleet_query`: one wire connection refreshing a read-only fleet
//! dashboard in a closed loop. A refresh is the five queries of
//! [`fleet::refresh`]; every result is checked against the generator's
//! record.

use crate::fleet::{self, Fleet, SHAPES};
use crate::rng::Rng;
use crate::stats::{hist_delta, hist_percentile, mean, percentile, ratio};
use crate::trace::{Layer, Recorder, Tracer};
use crate::watchdog::Watchdog;
use crate::{Args, Outcome, SPAN_CAP};
use orion_oodb::net::{Client, Server, ServerConfig};
use orion_oodb::orion::{Database, DbStats};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untimed refreshes after set-up, so the first timed one does not pay
/// for first-touch work.
const WARMUP_REFRESHES: usize = 2;

pub struct Setup {
    db: Arc<Database>,
    fleet: Fleet,
    client: Client,
    server: Server,
}

pub fn setup(args: &Args) -> Result<Setup, String> {
    let db = Arc::new(Database::open_in_memory());
    let fleet = fleet::build(&db, &mut Rng::new(args.seed)).map_err(|e| format!("load: {e}"))?;
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Setup {
        db,
        fleet,
        client,
        server,
    })
}

/// Latencies (ms) of one closed-loop phase, whole refreshes and per
/// query shape.
#[derive(Default)]
struct Phase {
    refresh_ms: Vec<f64>,
    shape_ms: [Vec<f64>; SHAPES.len()],
    elapsed_s: f64,
}

/// Refresh over the wire until `until` (or the span budget runs out).
fn drive(
    s: &mut Setup,
    rng: &mut Rng,
    until: Instant,
    rec: &mut Recorder,
    wd: &Watchdog,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    while Instant::now() < until && !rec.full() {
        let queries = fleet::refresh(&s.fleet, rng);
        let op = out.attempted;
        out.attempted += 1;
        wd.attempted.fetch_add(1, Ordering::Relaxed);
        wd.arm(0);
        rec.begin_op("refresh", op);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(queries.len());
        for q in &queries {
            let q0 = Instant::now();
            let r = rec.span(Layer::Net, q.shape, || s.client.query(&q.text));
            results.push((r, q0.elapsed().as_secs_f64() * 1e3));
        }
        let took = t0.elapsed();
        rec.end_op();
        wd.disarm(0);
        let mut ok = true;
        for (i, (q, (r, ms))) in queries.iter().zip(results).enumerate() {
            phase.shape_ms[i].push(ms);
            let verdict = match r {
                Ok(res) => fleet::check(q, &res),
                Err(e) => {
                    eprintln!("perfbench: {} failed: {e}", q.shape);
                    ok = false;
                    continue;
                }
            };
            if let Err(why) = verdict {
                ok = false;
                out.reject(why);
            }
        }
        out.failed += u64::from(!ok);
        phase.refresh_ms.push(took.as_secs_f64() * 1e3);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

/// In-process replay of `refreshes` refreshes: the same queries through
/// `orion_query::parse`, `Database::prepare_query` and
/// `Database::execute_prepared`, each in its own span.
fn replay(
    s: &Setup,
    rng: &mut Rng,
    until: Instant,
    rec: &mut Recorder,
    wd: &Watchdog,
    out: &mut Outcome,
) -> usize {
    let tx = s.db.begin();
    let mut done = 0;
    while Instant::now() < until && !rec.full() {
        let queries = fleet::refresh(&s.fleet, rng);
        wd.arm(0);
        rec.begin_op("replay_refresh", done as u64);
        for q in &queries {
            let parsed = rec.span(Layer::Query, "parse", || orion_query::parse(&q.text));
            let verdict = parsed
                .and_then(|_| {
                    rec.span(Layer::Query, "prepare", || s.db.prepare_query(&tx, &q.text))
                })
                .and_then(|plan| {
                    rec.span(Layer::Query, "execute", || s.db.execute_prepared(&plan))
                });
            match verdict {
                Ok(res) => {
                    if let Err(why) = fleet::check(q, &res) {
                        out.reject(why);
                    }
                }
                Err(e) => out.reject(format!("in-process {}: {e}", q.shape)),
            }
        }
        rec.end_op();
        wd.disarm(0);
        done += 1;
    }
    let _ = s.db.commit(tx);
    done
}

pub fn run(args: &Args, wd: &Watchdog, mut s: Setup) -> Result<Outcome, String> {
    let mut out = Outcome {
        shape: vec![
            ("vehicles", fleet::stored_vehicles(&s.db)?),
            (
                "vehicles_indexed",
                s.db.index_stats("vehicle_weight")
                    .map_or(0, |(n, _)| n as u64),
            ),
            (
                "companies",
                s.db.extent_len("Company").map_err(|e| e.to_string())? as u64,
            ),
            ("leaf_classes", fleet::LEAF_CLASSES as u64),
            ("queries_per_refresh", SHAPES.len() as u64),
            ("connections", 1),
        ],
        ..Outcome::default()
    };
    let mut rng = Rng::new(args.seed).fork(1);
    let off = Tracer::new("untraced", false, 0);
    let mut quiet = off.recorder();

    for _ in 0..WARMUP_REFRESHES {
        for q in fleet::refresh(&s.fleet, &mut rng) {
            let res = s
                .client
                .query(&q.text)
                .map_err(|e| format!("warm-up {}: {e}", q.shape))?;
            if let Err(why) = fleet::check(&q, &res) {
                out.reject(why);
            }
        }
    }

    let secs = |f: f64| Duration::from_secs_f64(args.seconds * f);
    if !args.trace {
        let mut p = drive(
            &mut s,
            &mut rng,
            Instant::now() + secs(1.0),
            &mut quiet,
            wd,
            &mut out,
        );
        let m = &mut out.metrics;
        m.set("ops_per_s", p.refresh_ms.len() as f64 / p.elapsed_s);
        m.set("op_p50_ms", percentile(&mut p.refresh_ms, 50.0));
        detail(&mut out, &mut p);
        s.server.shutdown();
        return Ok(out);
    }

    // Traced: an untraced half, then three tenths traced over the wire,
    // then two tenths replaying the same refresh shapes in-process.
    let mut plain = drive(
        &mut s,
        &mut rng,
        Instant::now() + secs(0.5),
        &mut quiet,
        wd,
        &mut out,
    );
    let wire = Tracer::new("wire", true, SPAN_CAP);
    let mut rec = wire.recorder();
    let before = s.db.stats();
    let mut traced = drive(
        &mut s,
        &mut rng,
        Instant::now() + secs(0.3),
        &mut rec,
        wd,
        &mut out,
    );
    let after = s.db.stats();
    wire.absorb(rec);
    let wire = wire.finish();

    let local = Tracer::new("in_process", true, SPAN_CAP);
    let mut rec = local.recorder();
    let i0 = s.db.stats();
    let replayed = replay(
        &s,
        &mut rng,
        Instant::now() + secs(0.2),
        &mut rec,
        wd,
        &mut out,
    );
    let i1 = s.db.stats();
    local.absorb(rec);
    let local = local.finish();
    s.server.shutdown();

    let m = &mut out.metrics;
    let refreshes = traced.refresh_ms.len() as f64;
    let replays = replayed as f64;
    // Counters over the traced wire phase, and over the replay.
    let wire_delta = |f: fn(&DbStats) -> u64| (f(&after) - f(&before)) as f64;
    let local_delta = |f: fn(&DbStats) -> u64| (f(&i1) - f(&i0)) as f64;
    let scanned = local_delta(|s| s.exec.rows_scanned);
    let parse_us: f64 = local.durations_us("parse").iter().sum();
    let prepare_us: f64 = local.durations_us("prepare").iter().sum();
    let execute_us: f64 = local.durations_us("execute").iter().sum();
    m.set("query.parse_us", parse_us / replays);
    m.set("query.prepare_us", prepare_us / replays);
    m.set("query.execute_ms", execute_us / replays / 1e3);
    m.set("query.us_per_candidate", ratio(execute_us, scanned));
    m.set("query.rows_scanned_per_refresh", scanned / replays);
    m.set(
        "query.match_ratio",
        ratio(local_delta(|s| s.exec.rows_matched), scanned),
    );
    m.set(
        "query.memo_hit_ratio",
        ratio(
            local_delta(|s| s.exec.memo_hits),
            local_delta(|s| s.exec.memo_lookups),
        ),
    );
    m.set(
        "core.snapshot_reads_per_candidate",
        ratio(local_delta(|s| s.mvcc.snapshot_reads), scanned),
    );
    m.set(
        "index.picks_per_refresh",
        wire_delta(|s| s.exec.index_picks) / refreshes,
    );
    let (hits, misses) = (wire_delta(|s| s.pool.hits), wire_delta(|s| s.pool.misses));
    m.set("storage.pool_hit_ratio", ratio(hits, hits + misses));
    m.set("storage.pool_misses_per_refresh", misses / refreshes);
    m.set(
        "net.server_request_p50_us",
        hist_percentile(
            &hist_delta(&before.net.request_latency, &after.net.request_latency),
            50.0,
        ),
    );
    m.set(
        "net.wakeups_per_request",
        ratio(
            wire_delta(|s| s.net.readiness_wakeups),
            wire_delta(|s| s.net.requests),
        ),
    );
    m.set(
        "net.busy_rejections",
        wire_delta(|s| s.net.busy_rejections) + wire_delta(|s| s.net.requests_shed),
    );
    let in_process_ms = (prepare_us + execute_us) / replays / 1e3;
    m.set(
        "net.query_overhead_ms",
        mean(&traced.refresh_ms) - in_process_ms,
    );
    let self_us = wire.self_time_us();
    let ops = wire.ops() as f64;
    m.set("loadgen.self_us_per_op", self_us[&Layer::Loadgen] / ops);
    m.set("net.self_us_per_op", self_us[&Layer::Net] / ops);
    m.set("loadgen.ops_attempted", refreshes);
    let untraced_p50 = percentile(&mut plain.refresh_ms, 50.0);
    m.set(
        "trace.overhead_pct",
        (percentile(&mut traced.refresh_ms, 50.0) / untraced_p50 - 1.0) * 100.0,
    );
    detail(&mut out, &mut traced);
    out.traces = vec![wire, local];
    Ok(out)
}

fn detail(out: &mut Outcome, p: &mut Phase) {
    let d = &mut out.detail;
    d.set("refreshes", p.refresh_ms.len() as f64);
    d.set("refreshes_per_s", p.refresh_ms.len() as f64 / p.elapsed_s);
    d.set("refresh_p50_ms", percentile(&mut p.refresh_ms, 50.0));
    d.set("refresh_p90_ms", percentile(&mut p.refresh_ms, 90.0));
    for (shape, ms) in SHAPES.iter().zip(p.shape_ms.iter_mut()) {
        d.set(&format!("{shape}_p50_ms"), percentile(ms, 50.0));
    }
}
