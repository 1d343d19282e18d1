//! `serve-oltp`: 2 closed-loop clients send SQL text through
//! `Session::execute_sql` to 8 shards on `LogStore` (default flush
//! policy: no sync per commit, fsync at compaction) under an unreplicated
//! hash scheme over 100,000 rows. The mix is 70% point SELECT, 25% point
//! UPDATE and 5% three-key IN.
//!
//! Each client owns half of the keys and keeps a shadow copy of their
//! balances: every SELECT must return exactly what the copy predicts and
//! every UPDATE must affect one row. After the run the store is closed,
//! reopened, and every key must hold its predicted value.

use crate::check;
use crate::stats::{median, setup_median, splitmix, Histogram};
use crate::trace::{take_route, StoreOp, TracedScheme, TracedStore, Tracer};
use crate::{Ctx, Outcome};
use schism_router::{HashScheme, PartitionSet, Scheme};
use schism_serve::{load_table, PkValues, ServeConfig, ServeError, ServeOutcome, Server};
use schism_sql::{parse_statement, ColumnType, Schema};
use schism_store::{LogStore, ShardStore};
use schism_workload::{TupleId, TupleValues};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: u32 = 8;
const ROWS: u64 = 100_000;
const CLIENTS: u64 = 2;
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// One statement in this many keeps its spans (all are timed).
const SPAN_SAMPLE: u64 = 64;

fn schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_table(
        "account",
        &[
            ("id", ColumnType::Int),
            ("name", ColumnType::Str),
            ("bal", ColumnType::Int),
        ],
        &["id"],
    );
    Arc::new(s)
}

fn initial_balance(seed: u64, id: u64) -> i64 {
    (splitmix(seed ^ id.wrapping_mul(0x2545_F491_4F6C_DD1D)) % 1_000_000) as i64
}

/// Removes a store directory when dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fields drop in order: the server (joining its shard workers) before
/// the store, and the store before its directory.
struct Setup {
    server: Option<Server>,
    traced_store: Option<Arc<TracedStore>>,
    log: Option<Arc<LogStore>>,
    scheme: Arc<dyn Scheme>,
    db: Arc<dyn TupleValues>,
    schema: Arc<Schema>,
    dir: DirGuard,
}

fn setup(ctx: &Ctx, i: usize) -> Result<Setup, String> {
    let dir = ctx.data.join(format!("serve-{i}"));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = schema();
    let log = Arc::new(LogStore::open(&dir, SHARDS).map_err(|e| e.to_string())?);
    let scheme: Arc<dyn Scheme> = Arc::new(HashScheme::by_attrs(SHARDS, vec![Some(0)]));
    let db: Arc<dyn TupleValues> = Arc::new(PkValues::from_schema(&schema));
    let rows = (0..ROWS).map(|id| check::account_row(id, initial_balance(ctx.seed, id)));
    load_table(&*log, &*scheme, &*db, &schema, 0, rows).map_err(|e| e.to_string())?;
    let (store, serve_scheme, traced_store): (Arc<dyn ShardStore>, Arc<dyn Scheme>, _) =
        if ctx.trace {
            let ts = Arc::new(TracedStore::new(Arc::clone(&log) as Arc<dyn ShardStore>));
            (
                Arc::clone(&ts) as Arc<dyn ShardStore>,
                Arc::new(TracedScheme::new(Arc::clone(&scheme))),
                Some(ts),
            )
        } else {
            (
                Arc::clone(&log) as Arc<dyn ShardStore>,
                Arc::clone(&scheme),
                None,
            )
        };
    let server = Server::new(
        Arc::clone(&schema),
        store,
        serve_scheme,
        Arc::clone(&db),
        ServeConfig::default(),
    );
    Ok(Setup {
        server: Some(server),
        traced_store,
        log: Some(log),
        scheme,
        db,
        schema,
        dir: DirGuard(dir),
    })
}

/// What one client measured.
#[derive(Default)]
struct Client {
    first: u64,
    shadow: Vec<i64>,
    /// Measured statement latencies.
    lat: Histogram,
    measured_end: Option<Instant>,
    attempted: u64,
    errors: u64,
    error_msgs: Vec<String>,
    check_msgs: Vec<String>,
    distributed: u64,
    // Traced runs only (measured statements).
    parse: Histogram,
    execute: Histogram,
    route: Histogram,
    route_calls: u64,
    exec: Histogram,
    queue: Histogram,
    shards_touched: u64,
    retries: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

enum Kind {
    Select(u64),
    Update(u64, i64),
    In([u64; 3]),
}

fn client(
    c: u64,
    ctx: &Ctx,
    s: &Setup,
    tracer: &Tracer,
    measure_from: Instant,
    deadline: Instant,
) -> Client {
    let server = s
        .server
        .as_ref()
        .expect("server runs until the clients end");
    let per = ROWS / CLIENTS;
    let first = c * per;
    let mut cl = Client {
        first,
        shadow: (first..first + per)
            .map(|id| initial_balance(ctx.seed, id))
            .collect(),
        ..Client::default()
    };
    let mut rng = splitmix(ctx.seed ^ (c << 40) ^ 0xC11E);
    let mut next = || {
        rng = splitmix(rng);
        rng
    };
    let mut session = server.session(ctx.seed ^ c);
    let mut n = 0u64;
    loop {
        let started = Instant::now();
        if started >= deadline {
            break;
        }
        let key = first + next() % per;
        let roll = next() % 100;
        let (sql, kind) = if roll < 70 {
            (
                format!("SELECT * FROM account WHERE id = {key}"),
                Kind::Select(key),
            )
        } else if roll < 95 {
            let bal = (next() % 1_000_000) as i64;
            (
                format!("UPDATE account SET bal = {bal} WHERE id = {key}"),
                Kind::Update(key, bal),
            )
        } else {
            let keys = [key, first + next() % per, first + next() % per];
            (
                format!(
                    "SELECT * FROM account WHERE id IN ({}, {}, {})",
                    keys[0], keys[1], keys[2]
                ),
                Kind::In(keys),
            )
        };
        let measured = started >= measure_from;
        n += 1;
        let result: Result<ServeOutcome, ServeError> = if ctx.trace {
            let stmt_span = tracer.span("statement", n.is_multiple_of(SPAN_SAMPLE));
            let t0 = Instant::now();
            let parsed = {
                let _s = tracer.span("sql.parse_statement", n.is_multiple_of(SPAN_SAMPLE));
                parse_statement(&s.schema, &sql)
            };
            let parse = t0.elapsed();
            take_route();
            let t1 = Instant::now();
            let res = match parsed {
                Ok(stmt) => {
                    let _s = tracer.span("serve.execute", n.is_multiple_of(SPAN_SAMPLE));
                    session.execute(&stmt)
                }
                Err(e) => Err(e.into()),
            };
            let execute = t1.elapsed();
            let (route_ns, calls) = take_route();
            drop(stmt_span);
            if measured {
                cl.parse.record(ns(parse));
                cl.execute.record(ns(execute));
                cl.route.record(route_ns);
                cl.route_calls += calls;
                if let Ok(o) = &res {
                    cl.exec.record(o.metrics.exec_us.saturating_mul(1_000));
                    cl.queue.record(o.metrics.queue_us.saturating_mul(1_000));
                    cl.shards_touched += u64::from(o.metrics.shards_touched);
                    cl.retries += u64::from(o.metrics.retries);
                }
            }
            res
        } else {
            session.execute_sql(&sql)
        };
        let lat = started.elapsed();
        cl.attempted += 1;
        let keys: &[u64] = match &kind {
            Kind::Select(k) | Kind::Update(k, _) => std::slice::from_ref(k),
            Kind::In(ks) => ks,
        };
        let shards: PartitionSet = keys
            .iter()
            .map(|&k| s.scheme.locate_tuple(TupleId::new(0, k), &*s.db))
            .fold(PartitionSet::empty(), |a, b| a.union(&b));
        if measured {
            cl.lat.record(ns(lat));
            cl.measured_end = Some(started + lat);
            if shards.len() > 1 {
                cl.distributed += 1;
            }
        }
        match result {
            Err(e) => {
                cl.errors += 1;
                if cl.error_msgs.len() < 4 {
                    cl.error_msgs.push(format!("{sql}: {e}"));
                }
            }
            Ok(out) => {
                let shadow = |id: u64| cl.shadow[(id - first) as usize];
                let verdict = match kind {
                    Kind::Update(k, bal) => {
                        if out.affected == 1 {
                            cl.shadow[(k - first) as usize] = bal;
                            Ok(())
                        } else {
                            Err(format!("UPDATE of key {k} affected {} rows", out.affected))
                        }
                    }
                    _ => check::check_select(&out.rows, keys, &shadow),
                };
                let verdict = verdict.and_then(|()| {
                    if out.metrics.shards_touched == shards.len() {
                        Ok(())
                    } else {
                        Err(format!(
                            "{sql}: touched {} shards, the scheme places its keys on {}",
                            out.metrics.shards_touched,
                            shards.len()
                        ))
                    }
                });
                if let Err(e) = verdict {
                    if cl.check_msgs.len() < 4 {
                        cl.check_msgs.push(e);
                    }
                }
            }
        }
    }
    cl
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = setup_median(SETUPS, |i| setup(ctx, i));
    let mut s = match setup {
        Ok(s) => s,
        Err(e) => {
            out.error(format!("set-up: {e}"));
            return out;
        }
    };
    out.set("setup_s", setup_s);

    let measure_from = Instant::now() + WARMUP;
    let deadline = measure_from + Duration::from_secs_f64(ctx.seconds);
    let clients: Vec<Client> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let s = &s;
                scope.spawn(move || client(c, ctx, s, tracer, measure_from, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    // Joins the shard workers; the store stays open through `s.log`.
    drop(s.server.take());

    let mut lat = Histogram::default();
    let mut end = measure_from;
    let mut distributed = 0u64;
    for cl in &clients {
        out.attempted += cl.attempted;
        out.failed += cl.errors;
        for m in cl.error_msgs.iter().chain(&cl.check_msgs) {
            out.error(m.clone());
        }
        lat.merge(&cl.lat);
        end = end.max(cl.measured_end.unwrap_or(measure_from));
        distributed += cl.distributed;
    }
    let measured = lat.len() as f64;
    let throughput = measured / end.duration_since(measure_from).as_secs_f64().max(1e-9);
    let p50 = lat.quantile(0.5) / 1e3;
    let p99 = lat.quantile(0.99) / 1e3;
    let log = s
        .log
        .take()
        .expect("the store stays open until the run ends");
    let compactions = log.compactions();
    let disk_ratio = crate::migrate::disk_ratio(&log);
    out.info.push(format!(
        "{} statements measured: {throughput:.0}/s, p50 {p50:.1} us, p99 {p99:.1} us, \
         {compactions} compactions",
        lat.len()
    ));

    if ctx.trace {
        // Merged per-client histograms, quantiles in microseconds.
        let us = |f: fn(&Client) -> &Histogram, q: f64| -> f64 {
            let mut all = Histogram::default();
            for c in &clients {
                all.merge(f(c));
            }
            all.quantile(q) / 1e3
        };
        let store = s.traced_store.as_ref().expect("traced runs wrap the store");
        let (get, put) = (store.times(StoreOp::Get), store.times(StoreOp::Put));
        let sum = |f: fn(&Client) -> u64| clients.iter().map(f).sum::<u64>() as f64;
        out.set("store.get_p50_us", get.quantile_us(0.5));
        out.set("store.get_p99_us", get.quantile_us(0.99));
        out.set("store.put_p50_us", put.quantile_us(0.5));
        out.set("store.put_p99_us", put.quantile_us(0.99));
        out.set("store.compactions", compactions as f64);
        out.set("store.disk_bytes_per_user_byte", disk_ratio);
        out.set("sql.parse_us", us(|c| &c.parse, 0.5));
        out.set("serve.execute_us", us(|c| &c.execute, 0.5));
        out.set("serve.exec_us", us(|c| &c.exec, 0.5));
        out.set("serve.queue_p50_us", us(|c| &c.queue, 0.5));
        out.set("serve.queue_p99_us", us(|c| &c.queue, 0.99));
        out.set("serve.shards_touched", sum(|c| c.shards_touched) / measured);
        out.set("serve.retries", sum(|c| c.retries));
        out.set("serve.p99_us", p99);
        out.set("router.route_us", us(|c| &c.route, 0.5));
        out.set("router.calls_per_stmt", sum(|c| c.route_calls) / measured);
        out.set("op.self_s", median(&mut tracer.self_times_s("statement")));
        out.set("trace.p50_us", p50);
        out.set("trace.throughput_ops_s", throughput);
    } else {
        out.set("p50_us", p50);
        out.set("throughput_ops_s", throughput);
        out.set("dist_frac", distributed as f64 / measured.max(1.0));
    }

    // Close the store, reopen it, and compare every key with the shadow.
    s.traced_store = None;
    if Arc::try_unwrap(log).is_err() {
        out.error("store still shared after the server stopped".to_owned());
    }
    let shadow = |id: u64| {
        let c = (id / (ROWS / CLIENTS)) as usize;
        clients[c].shadow[(id - clients[c].first) as usize]
    };
    match LogStore::open(&s.dir.0, SHARDS) {
        Ok(reopened) => {
            let bad = check::account_mismatches(0..ROWS, &reopened, &*s.scheme, &*s.db, &shadow);
            if bad > 0 {
                out.error(format!(
                    "after reopen {bad} of {ROWS} keys differ from the shadow copy"
                ));
            }
        }
        Err(e) => out.error(format!("reopen: {e}")),
    }
    out
}
