//! `oltp_wire`: two wire connections in an open loop of small transfer
//! transactions over a durable (`FileDisk`, real `fsync`) fleet. Each
//! connection is the only writer of its own partition, so it checks
//! every read exactly against its model; at the end the database is
//! checked against the merged model live, after `crash_and_recover`,
//! and after a cold `Database::open` of the directory.

use crate::fleet::{self, vehicle_name, Fleet};
use crate::report::Metrics;
use crate::rng::Rng;
use crate::stats::{hist_bucket_bound, hist_delta, hist_percentile, percentile, ratio};
use crate::trace::{Layer, Recorder, Trace, Tracer};
use crate::watchdog::Watchdog;
use crate::{Args, Outcome, SPAN_CAP};
use orion_oodb::net::{Client, Server, ServerConfig};
use orion_oodb::orion::{Database, DbConfig, DbError, DbStats, Oid, StorageSpec, Value};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, transactions per second over both connections. An
/// open loop, so the offered load does not follow the program's speed
/// and latency counts the wait a stall imposes on later transactions.
/// The rate stays a small share of capacity even when the shared 2-CPU
/// host runs slow (two connections then saturated at ~570 txn/s, and at
/// 300 txn/s the median transaction took up to 5 ms instead of about
/// 1 ms), so latency shows service time and rollback pauses, not a
/// backlog.
const RATE_PER_S: f64 = 100.0;
/// A connection more than this far behind its schedule at the end of
/// the phase stops; the transactions it never sent count as failed.
const BEHIND_LIMIT: Duration = Duration::from_secs(2);
/// Two connections: the host has two CPUs.
const CONNECTIONS: usize = 2;
/// Every 100th transaction of a connection rolls back instead of
/// committing; the two connections' rollbacks are half a cycle apart.
const ROLLBACK_EVERY: u64 = 100;
/// Deadlock and lock-timeout victims are retried this many times.
const MAX_RETRIES: u32 = 3;
/// Largest weight moved by one transfer.
const MAX_TRANSFER: u64 = 20;

/// One connection's partition of the fleet and its model of it.
struct Part {
    /// Vehicle indices (into `Fleet::vehicles`) this connection owns.
    idx: Vec<usize>,
    /// Current weight of each owned vehicle, as this writer committed it.
    weight: Vec<i64>,
}

pub struct Setup {
    db: Option<Arc<Database>>,
    server: Option<Server>,
    clients: Vec<Client>,
    fleet: Fleet,
    dir: PathBuf,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.db = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up `i` opens a fresh directory under the output directory; the
/// watchdog removes it if the run is ended by a stall.
pub fn setup(args: &Args, wd: &Watchdog, i: usize) -> Result<Setup, String> {
    let dir = args
        .out_dir
        .join(format!("oltp-{}-{i}", std::process::id()));
    *wd.scratch.lock().expect("watchdog mutex poisoned") = Some(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let config = DbConfig::builder()
        .storage(StorageSpec::File(dir.clone()))
        .build()
        .map_err(|e| format!("config: {e}"))?;
    let db = Arc::new(Database::try_with_config(config).map_err(|e| format!("open: {e}"))?);
    let fleet = fleet::build(&db, &mut Rng::new(args.seed)).map_err(|e| format!("load: {e}"))?;
    let server = Server::bind(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        db: Some(db),
        server: Some(server),
        clients,
        fleet,
        dir,
    })
}

enum TxnError {
    /// A deadlock or lock-timeout victim: roll back and retry.
    Retry(DbError),
    Fail(DbError),
    /// A read disagreed with the writer's model.
    Reject(String),
}

impl From<DbError> for TxnError {
    fn from(e: DbError) -> Self {
        match e {
            DbError::Deadlock { .. } | DbError::LockTimeout { .. } => TxnError::Retry(e),
            e => TxnError::Fail(e),
        }
    }
}

/// One transfer: which owned vehicles it reads and moves weight between.
struct Transfer {
    a: usize,
    b: usize,
    x: usize,
    amount: i64,
    rollback: bool,
}

impl Transfer {
    /// The `n`-th transaction of connection `c`.
    fn draw(c: usize, n: u64, part: &Part, rng: &mut Rng) -> Transfer {
        let len = part.idx.len();
        let a = rng.index(len);
        let b = (a + 1 + rng.index(len - 1)) % len;
        let x = rng.index(len);
        let amount = (1 + rng.below(MAX_TRANSFER) as i64).min(part.weight[a]);
        let rollback =
            n % ROLLBACK_EVERY == (ROLLBACK_EVERY / 2) * c as u64 + ROLLBACK_EVERY / 2 - 1;
        Transfer {
            a,
            b,
            x,
            amount,
            rollback,
        }
    }

    /// The four reads and what the model says each returns.
    fn reads(&self, fleet: &Fleet, part: &Part) -> [(Oid, &'static str, Value); 4] {
        let oid = |k: usize| fleet.vehicles[part.idx[k]].oid;
        [
            (oid(self.a), "weight", Value::Int(part.weight[self.a])),
            (oid(self.b), "weight", Value::Int(part.weight[self.b])),
            (oid(self.x), "weight", Value::Int(part.weight[self.x])),
            (
                oid(self.x),
                "name",
                Value::Str(vehicle_name(part.idx[self.x])),
            ),
        ]
    }

    fn writes(&self, fleet: &Fleet, part: &Part) -> [(Oid, Value); 2] {
        let oid = |k: usize| fleet.vehicles[part.idx[k]].oid;
        [
            (oid(self.a), Value::Int(part.weight[self.a] - self.amount)),
            (oid(self.b), Value::Int(part.weight[self.b] + self.amount)),
        ]
    }

    fn apply(&self, part: &mut Part) {
        if !self.rollback {
            part.weight[self.a] -= self.amount;
            part.weight[self.b] += self.amount;
        }
    }
}

fn over_wire(
    client: &mut Client,
    rec: &mut Recorder,
    fleet: &Fleet,
    part: &Part,
    t: &Transfer,
) -> Result<(), TxnError> {
    rec.span(Layer::Net, "begin", || client.begin())?;
    for (oid, attr, want) in t.reads(fleet, part) {
        let got = rec.span(Layer::Net, "get", || client.get(oid, attr))?;
        if got != want {
            return Err(TxnError::Reject(format!(
                "wire get {oid}.{attr} = {got:?}, model {want:?}"
            )));
        }
    }
    for (oid, value) in t.writes(fleet, part) {
        rec.span(Layer::Net, "set", || client.set(oid, "weight", value))?;
    }
    if t.rollback {
        rec.span(Layer::Net, "rollback", || client.rollback())?;
    } else {
        rec.span(Layer::Net, "commit", || client.commit())?;
    }
    Ok(())
}

fn in_process(
    db: &Database,
    rec: &mut Recorder,
    fleet: &Fleet,
    part: &Part,
    t: &Transfer,
) -> Result<(), TxnError> {
    let tx = db.begin();
    let body = (|| {
        for (oid, attr, want) in t.reads(fleet, part) {
            let got = rec.span(Layer::Core, "get", || db.get(&tx, oid, attr))?;
            if got != want {
                return Err(TxnError::Reject(format!(
                    "get {oid}.{attr} = {got:?}, model {want:?}"
                )));
            }
        }
        for (oid, value) in t.writes(fleet, part) {
            rec.span(Layer::Core, "set", || db.set(&tx, oid, "weight", value))?;
        }
        Ok(())
    })();
    match body {
        Ok(()) if t.rollback => Ok(rec.span(Layer::Core, "rollback", || db.rollback(tx))?),
        Ok(()) => Ok(rec.span(Layer::Core, "commit", || db.commit(tx))?),
        Err(e) => {
            let _ = db.rollback(tx);
            Err(e)
        }
    }
}

/// What one connection (or the in-process replay) did in one phase.
#[derive(Default)]
struct Run {
    txn_ms: Vec<f64>,
    rollback_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    retries: u64,
    rejections: Vec<String>,
    /// Transactions this connection has started, over all phases.
    next_txn: u64,
}

impl Run {
    fn merge(&mut self, other: Run) {
        self.txn_ms.extend(other.txn_ms);
        self.rollback_ms.extend(other.rollback_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retries += other.retries;
        self.rejections.extend(other.rejections);
    }
}

/// Run one transaction with retries. `once` makes one attempt;
/// `abandon` ends whatever transaction a failed attempt left open.
fn with_retries<C>(
    ctx: &mut C,
    run: &mut Run,
    once: impl Fn(&mut C) -> Result<(), TxnError>,
    abandon: impl Fn(&mut C),
) -> bool {
    for attempt in 0..=MAX_RETRIES {
        let err = match once(ctx) {
            Ok(()) => return true,
            Err(e) => e,
        };
        abandon(ctx);
        match err {
            TxnError::Retry(_) if attempt < MAX_RETRIES => run.retries += 1,
            TxnError::Retry(e) | TxnError::Fail(e) => {
                eprintln!("perfbench: transaction failed: {e}");
                return false;
            }
            TxnError::Reject(why) => {
                run.rejections.push(why);
                return false;
            }
        }
    }
    false
}

/// One connection's open loop: transaction `j` is due at
/// `start + offset + j * period` and is timed from that moment.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    c: usize,
    client: &mut Client,
    fleet: &Fleet,
    part: &mut Part,
    rng: &mut Rng,
    start: Instant,
    until: Instant,
    first_txn: u64,
    rec: &mut Recorder,
    wd: &Watchdog,
) -> Run {
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / RATE_PER_S);
    let offset = period.mul_f64(c as f64 / CONNECTIONS as f64);
    let mut run = Run {
        next_txn: first_txn,
        ..Run::default()
    };
    let scheduled = ((until - start - offset).as_secs_f64() / period.as_secs_f64()).ceil() as u32;
    for j in 0..scheduled {
        let due = start + offset + period * j;
        if rec.full() {
            break;
        }
        let now = Instant::now();
        if now > until + BEHIND_LIMIT {
            let unsent = u64::from(scheduled - j);
            eprintln!("perfbench: connection {c} fell behind; {unsent} transactions not sent");
            run.attempted += unsent;
            run.failed += unsent;
            break;
        }
        if now < due {
            std::thread::sleep(due - now);
        }
        run.lateness_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let n = run.next_txn;
        run.next_txn += 1;
        let t = Transfer::draw(c, n, part, rng);
        run.attempted += 1;
        wd.attempted.fetch_add(1, Ordering::Relaxed);
        wd.arm(c);
        rec.begin_op(if t.rollback { "rollback_txn" } else { "txn" }, n);
        let ok = with_retries(
            &mut (&mut *client, &mut *rec),
            &mut run,
            |(client, rec)| over_wire(client, rec, fleet, part, &t),
            |(client, _)| {
                let _ = client.rollback();
            },
        );
        rec.end_op();
        wd.disarm(c);
        let ms = Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3;
        if ok {
            t.apply(part);
            if t.rollback {
                run.rollback_ms.push(ms);
            } else {
                run.txn_ms.push(ms);
            }
        } else {
            run.failed += 1;
        }
    }
    run
}

/// Both connections' open loops for `length`, one thread each.
fn wire_phase(
    s: &mut Setup,
    parts: &mut [Part],
    rngs: &mut [Rng],
    next_txn: &mut [u64],
    length: Duration,
    tracer: &Tracer,
    wd: &Watchdog,
) -> (Run, f64) {
    let start = Instant::now();
    let until = start + length;
    let fleet = &s.fleet;
    let runs: Vec<(Run, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(parts.iter_mut())
            .zip(rngs.iter_mut())
            .zip(next_txn.iter())
            .enumerate()
            .map(|(c, (((client, part), rng), &first))| {
                let mut rec = tracer.recorder();
                scope.spawn(move || {
                    let run = open_loop(
                        c, client, fleet, part, rng, start, until, first, &mut rec, wd,
                    );
                    (run, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut total = Run::default();
    for (c, (run, rec)) in runs.into_iter().enumerate() {
        next_txn[c] = run.next_txn;
        tracer.absorb(rec);
        total.merge(run);
    }
    (total, elapsed)
}

/// In-process replay of connection 0's transaction sequence (the wire
/// is idle), timing each `Database` call in its own span.
fn replay(
    s: &Setup,
    part: &mut Part,
    rng: &mut Rng,
    next_txn: &mut u64,
    until: Instant,
    rec: &mut Recorder,
    wd: &Watchdog,
) -> Run {
    let db = s.db.as_deref().expect("database open during the run");
    let mut run = Run::default();
    while Instant::now() < until && !rec.full() {
        let n = *next_txn;
        *next_txn += 1;
        let t = Transfer::draw(0, n, part, rng);
        run.attempted += 1;
        wd.arm(0);
        rec.begin_op("replay_txn", n);
        let t0 = Instant::now();
        let ok = with_retries(
            &mut *rec,
            &mut run,
            |rec| in_process(db, rec, &s.fleet, part, &t),
            |_| (),
        );
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.end_op();
        wd.disarm(0);
        if ok {
            t.apply(part);
            if t.rollback {
                &mut run.rollback_ms
            } else {
                &mut run.txn_ms
            }
            .push(ms);
        } else {
            run.failed += 1;
        }
    }
    run
}

/// Check every vehicle's weight against the writers' merged model and
/// the total against the loaded total (transfers conserve it).
fn verify(db: &Database, model: &HashMap<Oid, i64>, total: i64, when: &str) -> Result<(), String> {
    let tx = db.begin();
    let result = db.query(&tx, "select v.weight from Vehicle* v");
    let _ = db.commit(tx);
    let result = result.map_err(|e| format!("{when}: reading weights failed: {e}"))?;
    if result.oids.len() != model.len() {
        return Err(format!(
            "{when}: {} vehicles, expected {}",
            result.oids.len(),
            model.len()
        ));
    }
    let mut sum = 0;
    let mut wrong = 0;
    let mut example = None;
    for (oid, row) in result.oids.iter().zip(&result.rows) {
        let got = match row.as_slice() {
            [Value::Int(w)] => *w,
            other => return Err(format!("{when}: unexpected row {other:?}")),
        };
        sum += got;
        if model.get(oid) != Some(&got) {
            wrong += 1;
            example.get_or_insert(format!("{oid} = {got}, model {:?}", model.get(oid)));
        }
    }
    if wrong > 0 {
        return Err(format!(
            "{when}: {wrong} vehicles differ from the model, e.g. {}",
            example.unwrap_or_default()
        ));
    }
    if sum != total {
        return Err(format!("{when}: total weight {sum}, expected {total}"));
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(args: &Args, wd: &Watchdog, mut s: Setup) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let n = s.fleet.vehicles.len();
    let mut parts: Vec<Part> = (0..CONNECTIONS)
        .map(|c| {
            let idx: Vec<usize> = (c..n).step_by(CONNECTIONS).collect();
            let weight = idx.iter().map(|&i| s.fleet.vehicles[i].weight).collect();
            Part { idx, weight }
        })
        .collect();
    let total: i64 = s.fleet.vehicles.iter().map(|v| v.weight).sum();
    let live_bytes: usize = s
        .fleet
        .vehicles
        .iter()
        .enumerate()
        .map(|(i, _)| vehicle_name(i).len() + 16)
        .chain(
            s.fleet
                .companies
                .iter()
                .enumerate()
                .map(|(j, c)| format!("company{j}").len() + fleet::CITIES[c.city].len()),
        )
        .sum();
    out.shape = vec![
        (
            "vehicles",
            fleet::stored_vehicles(s.db.as_deref().expect("open"))?,
        ),
        ("connections", CONNECTIONS as u64),
        ("objects_per_partition", parts[0].idx.len() as u64),
        ("gets_per_txn", 4),
        ("sets_per_txn", 2),
        ("rollback_every", ROLLBACK_EVERY),
        ("offered_txn_per_s", RATE_PER_S as u64),
    ];
    let mut base = Rng::new(args.seed).fork(2);
    let mut rngs: Vec<Rng> = (0..CONNECTIONS).map(|c| base.fork(c as u64)).collect();
    let mut next_txn = vec![0u64; CONNECTIONS];
    let secs = |f: f64| Duration::from_secs_f64(args.seconds * f);

    let off = Tracer::new("untraced", false, 0);
    let (mut plain, plain_s) = wire_phase(
        &mut s,
        &mut parts,
        &mut rngs,
        &mut next_txn,
        secs(if args.trace { 0.5 } else { 1.0 }),
        &off,
        wd,
    );
    let mut traced = None;
    if args.trace {
        let db = s.db.clone().expect("open");
        let tracer = Tracer::new("wire", true, SPAN_CAP);
        let before = db.stats();
        let (run, run_s) = wire_phase(
            &mut s,
            &mut parts,
            &mut rngs,
            &mut next_txn,
            secs(0.3),
            &tracer,
            wd,
        );
        let after = db.stats();
        let local = Tracer::new("in_process", true, SPAN_CAP);
        let mut rec = local.recorder();
        let until = Instant::now() + secs(0.2);
        let replayed = replay(
            &s,
            &mut parts[0],
            &mut rngs[0],
            &mut next_txn[0],
            until,
            &mut rec,
            wd,
        );
        local.absorb(rec);
        traced = Some((
            run,
            run_s,
            before,
            after,
            tracer.finish(),
            replayed,
            local.finish(),
        ));
    }

    // Durability: live, after crash_and_recover, after a cold reopen.
    let model: HashMap<Oid, i64> = parts
        .iter()
        .flat_map(|p| {
            p.idx
                .iter()
                .zip(&p.weight)
                .map(|(&i, &w)| (s.fleet.vehicles[i].oid, w))
        })
        .collect();
    let mut checks = Vec::new();
    s.clients.clear();
    if let Some(server) = s.server.take() {
        server.shutdown();
    }
    let db = s.db.take().expect("open");
    wd.arm(0);
    checks.push(verify(&db, &model, total, "live"));
    let t0 = Instant::now();
    let recovered = db.crash_and_recover();
    let recovery_s = t0.elapsed().as_secs_f64();
    checks.push(recovered.map_err(|e| format!("crash_and_recover: {e}")));
    checks.push(verify(&db, &model, total, "after crash_and_recover"));
    drop(db);
    let stored = dir_bytes(&s.dir);
    let t0 = Instant::now();
    let reopened = Database::open(&s.dir);
    let reopen_s = t0.elapsed().as_secs_f64();
    match reopened {
        Ok(db) => checks.push(verify(&db, &model, total, "after reopen")),
        Err(e) => checks.push(Err(format!("reopen: {e}"))),
    }
    wd.disarm(0);
    for r in checks {
        if let Err(why) = r {
            out.reject(why);
        }
    }

    let mut all = Run::default();
    let d = &mut out.detail;
    d.set("storage.recovery_s", recovery_s);
    d.set("storage.reopen_s", reopen_s);
    d.set(
        "storage.dir_bytes_per_live_byte",
        stored as f64 / live_bytes as f64,
    );
    let measured = match traced {
        None => {
            summarize(d, &mut plain, plain_s);
            let m = &mut out.metrics;
            m.set("ops_per_s", plain.txn_ms.len() as f64 / plain_s);
            m.set("op_p50_ms", percentile(&mut plain.txn_ms, 50.0));
            all.merge(plain);
            None
        }
        Some((mut run, run_s, before, after, wire, replayed, local)) => {
            summarize(d, &mut run, run_s);
            let m = &mut out.metrics;
            layer_metrics(
                m, &mut run, run_s, &before, &after, &wire, &replayed, &local,
            );
            let untraced_p50 = percentile(&mut plain.txn_ms, 50.0);
            m.set(
                "trace.overhead_pct",
                (percentile(&mut run.txn_ms, 50.0) / untraced_p50 - 1.0) * 100.0,
            );
            all.merge(plain);
            all.merge(run);
            all.merge(replayed);
            Some(vec![wire, local])
        }
    };
    out.traces = measured.unwrap_or_default();
    out.attempted += all.attempted;
    out.failed += all.failed;
    for why in all.rejections {
        out.reject(why);
    }
    Ok(out)
}

fn summarize(d: &mut Metrics, run: &mut Run, secs: f64) {
    d.set("txns", run.txn_ms.len() as f64);
    d.set("rollbacks", run.rollback_ms.len() as f64);
    d.set("txns_per_s", run.txn_ms.len() as f64 / secs);
    d.set("txn_p50_ms", percentile(&mut run.txn_ms, 50.0));
    d.set("txn_p90_ms", percentile(&mut run.txn_ms, 90.0));
    d.set("txn_p99_ms", percentile(&mut run.txn_ms, 99.0));
    d.set("rollback_p50_ms", percentile(&mut run.rollback_ms, 50.0));
    d.set("lateness_p99_ms", percentile(&mut run.lateness_ms, 99.0));
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    m: &mut Metrics,
    run: &mut Run,
    secs: f64,
    before: &DbStats,
    after: &DbStats,
    wire: &Trace,
    replayed: &Run,
    local: &Trace,
) {
    let commits = run.txn_ms.len() as f64;
    let txns = commits + run.rollback_ms.len() as f64;
    let delta = |f: fn(&DbStats) -> u64| (f(after) - f(before)) as f64;

    m.set("core.get_us", local.mean_us("get"));
    m.set("core.set_us", local.mean_us("set"));
    m.set("core.commit_us", local.mean_us("commit"));
    m.set("core.rollback_ms", local.mean_us("rollback") / 1e3);
    m.set(
        "core.versions_published_per_txn",
        delta(|s| s.mvcc.versions_published) / commits,
    );
    m.set(
        "core.chain_length_p99",
        hist_bucket_bound(
            &hist_delta(&before.mvcc.chain_length, &after.mvcc.chain_length),
            99.0,
        ),
    );
    m.set(
        "core.gate_exclusive_per_s",
        delta(|s| s.gate.exclusive_acquisitions) / secs,
    );
    m.set(
        "core.gate_exclusive_wait_p99_ms",
        hist_percentile(
            &hist_delta(&before.gate.exclusive_wait, &after.gate.exclusive_wait),
            99.0,
        ) / 1e3,
    );

    m.set("tx.locks_per_txn", delta(|s| s.locks.acquisitions) / txns);
    m.set("tx.lock_waits", delta(|s| s.locks.waits));
    m.set(
        "tx.lock_wait_p99_ms",
        hist_percentile(
            &hist_delta(&before.locks.wait_latency, &after.locks.wait_latency),
            99.0,
        ) / 1e3,
    );
    m.set(
        "tx.deadlock_retries",
        (run.retries + replayed.retries) as f64,
    );
    m.set("tx.lock_timeouts", delta(|s| s.locks.timeouts));

    m.set(
        "storage.fsyncs_per_commit",
        delta(|s| s.wal.fsyncs) / commits,
    );
    m.set(
        "storage.wal_bytes_per_txn",
        delta(|s| s.wal.flushed_bytes) / txns,
    );
    // Each committed transfer writes two 8-byte integers.
    m.set(
        "storage.wal_bytes_per_user_byte",
        delta(|s| s.wal.flushed_bytes) / (commits * 16.0),
    );
    m.set(
        "storage.group_commit_batch_p50",
        hist_bucket_bound(
            &hist_delta(
                &before.wal.group_commit_batch_size,
                &after.wal.group_commit_batch_size,
            ),
            50.0,
        ),
    );
    m.set(
        "storage.wal_flush_p50_us",
        hist_percentile(
            &hist_delta(&before.wal.flush_latency, &after.wal.flush_latency),
            50.0,
        ),
    );

    let requests = delta(|s| s.net.requests);
    m.set("net.get_rtt_us", wire.mean_us("get"));
    m.set("net.set_rtt_us", wire.mean_us("set"));
    m.set("net.commit_rtt_us", wire.mean_us("commit"));
    m.set("net.rollback_rtt_ms", wire.mean_us("rollback") / 1e3);
    m.set(
        "net.server_request_p50_us",
        hist_percentile(
            &hist_delta(&before.net.request_latency, &after.net.request_latency),
            50.0,
        ),
    );
    m.set(
        "net.wire_share_us",
        wire.mean_us("get") - local.mean_us("get"),
    );
    m.set("net.requests_per_txn", requests / txns);
    m.set(
        "net.wakeups_per_request",
        ratio(delta(|s| s.net.readiness_wakeups), requests),
    );
    m.set(
        "net.busy_rejections",
        delta(|s| s.net.busy_rejections) + delta(|s| s.net.requests_shed),
    );

    let self_us = wire.self_time_us();
    let ops = wire.ops() as f64;
    m.set("loadgen.self_us_per_op", self_us[&Layer::Loadgen] / ops);
    m.set("net.self_us_per_op", self_us[&Layer::Net] / ops);
    m.set("loadgen.ops_attempted", run.attempted as f64);
}
