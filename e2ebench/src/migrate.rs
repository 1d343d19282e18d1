//! `migrate-drift`: the migration loop over the drifting hot-key
//! generator, k=8, hypergraph backend, 2 advisor threads. Every key sits in
//! a `LogStore` at its 1 KB schema row size.
//!
//! One operation is one window: `MigrationController::observe`,
//! `build_lookup_scheme` for the new placement, a `MigrationExecutor` run
//! to completion, and `VersionedScheme::finalize`. One round is windows 1
//! to 8 of the seeded input, replayed from a fresh bootstrap in every
//! round, plus one operation on a fixed input (16,000 keys, seed 0) that
//! checks that every key reads back after the cut-over. That check fails
//! today, so every round counts one failed operation; the seeded windows
//! report their own unreachable-key count as a per-layer metric.

use crate::check;
use crate::stats::{mean, median, splitmix, Histogram};
use crate::trace::{StoreOp, TracedStore, Tracer};
use crate::{Ctx, Outcome};
use schism_core::{build_graph, build_lookup_scheme, run_partition_phase_warm, GraphBackend};
use schism_migrate::{
    apply_relabel, plan_migration, relabel, ControllerConfig, DriftDetector, ExecutorReport,
    MigrationController, MigrationExecutor, MigrationPlan, StepOutcome, Tick,
};
use schism_router::{PartitionSet, Scheme, VersionedScheme};
use schism_store::{LogStore, ShardStore};
use schism_workload::drifting::{self, DriftingConfig};
use schism_workload::{TupleId, TupleValues, Workload};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const K: u32 = 8;
const KEYS: u64 = 96_000;
const TXNS: usize = 60_000;
const WINDOWS_PER_ROUND: u64 = 8;
const BLOCK_SPAN: u64 = 16;
const FIXED_KEYS: u64 = 16_000;
const FIXED_TXNS: usize = 10_000;
const FIXED_SEED: u64 = 0;
/// The store calls whose durations the traced run reports.
const STORE_OPS: [StoreOp; 4] = [
    StoreOp::Get,
    StoreOp::ApplyBatch,
    StoreOp::Checksum,
    StoreOp::Delete,
];

fn drift_config(keys: u64, txns: usize, seed: u64) -> DriftingConfig {
    DriftingConfig {
        records: keys,
        block_span: BLOCK_SPAN,
        num_txns: txns,
        // The hot spot moves by 10% of the key space per window.
        drift_blocks_per_window: keys / BLOCK_SPAN / 10,
        seed,
        ..DriftingConfig::default()
    }
}

fn controller_config() -> ControllerConfig {
    let mut cfg = ControllerConfig::new(K);
    cfg.schism.graph_backend = GraphBackend::Hypergraph;
    cfg.schism.threads = 2;
    cfg
}

/// The benchmark's own row payload: 1 KB derived from the input seed and
/// the key, so a row that lands anywhere but from a faithful copy shows.
fn payload(seed: u64, t: TupleId, len: u32) -> Vec<u8> {
    let mut x = splitmix(seed ^ 0xB0B) ^ t.row;
    let mut out = Vec::with_capacity(len as usize + 8);
    while out.len() < len as usize {
        x = splitmix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len as usize);
    out
}

/// The controller steps driven one at a time (traced runs).
struct Stepwise {
    detector: DriftDetector,
    assignment: HashMap<TupleId, PartitionSet>,
}

/// The loop's state between windows.
struct Loop {
    dcfg: DriftingConfig,
    cfg: ControllerConfig,
    /// Drives untraced windows; in traced runs it replays each window
    /// after the traced steps to prove they produced the same plan.
    ctl: MigrationController,
    stepwise: Option<Stepwise>,
    scheme: Arc<dyn Scheme>,
    log: Arc<LogStore>,
    db: Arc<dyn TupleValues>,
    row_bytes: u32,
    next_window: u64,
    dir: PathBuf,
}

impl Drop for Loop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Loop {
    fn new(keys: u64, txns: usize, seed: u64, dir: PathBuf, traced: bool) -> Result<Self, String> {
        let dcfg = drift_config(keys, txns, seed);
        let cfg = controller_config();
        let w0 = drifting::window(&dcfg, 0);
        let ctl = MigrationController::bootstrap(&w0, cfg.clone());
        let scheme: Arc<dyn Scheme> =
            Arc::new(build_lookup_scheme(&w0, &w0.trace, ctl.assignment(), K));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Arc::new(LogStore::open(&dir, K).map_err(|e| e.to_string())?);
        let row_bytes = w0.db.tuple_bytes(0);
        for r in 0..keys {
            let t = TupleId::new(0, r);
            let row = payload(seed, t, row_bytes);
            for s in scheme.locate_tuple(t, &*w0.db).iter() {
                log.put(s, t, row.clone()).map_err(|e| e.to_string())?;
            }
        }
        let stepwise = traced.then(|| Stepwise {
            detector: DriftDetector::new(cfg.drift.clone(), &w0.trace),
            assignment: ctl.assignment().clone(),
        });
        Ok(Self {
            dcfg,
            cfg,
            ctl,
            stepwise,
            scheme,
            log,
            db: Arc::clone(&w0.db),
            row_bytes,
            next_window: 1,
            dir,
        })
    }

    fn payload(&self, t: TupleId) -> Vec<u8> {
        payload(self.dcfg.seed, t, self.row_bytes)
    }
}

/// What one window measured.
#[derive(Default)]
struct Window {
    window_s: f64,
    exec_s: f64,
    report: ExecutorReport,
    /// Distributed share of the window's transactions under the scheme in
    /// force when it arrives (the previous cut-over's).
    arrival_frac: f64,
    /// The same share under the window's own finalized scheme.
    dist_frac: f64,
    unreachable: u64,
    // Traced runs only.
    drift_s: f64,
    build_s: f64,
    warm_s: f64,
    relabel_s: f64,
    plan_s: f64,
    lookup_s: f64,
    step_ms: Vec<f64>,
    nodes: f64,
    pins: f64,
    self_s: f64,
}

/// The new placement's plan, before it runs.
struct Planned {
    plan: MigrationPlan,
    old: HashMap<TupleId, PartitionSet>,
}

/// Runs the window's plan through the executor, finalizes the scheme and
/// checks the copies against the benchmark's own reading of the store.
fn execute(
    lp: &mut Loop,
    planned: &Planned,
    new_scheme: Arc<dyn Scheme>,
    store: &dyn ShardStore,
    tracer: Option<&Tracer>,
    win: &mut Window,
) -> Result<(), String> {
    let new_asg = match &lp.stepwise {
        Some(sw) => &sw.assignment,
        None => lp.ctl.assignment(),
    };
    check::check_plan_diff(&planned.plan, &planned.old, new_asg)?;
    let expected = check::expected_copies(&planned.plan, &*lp.log);
    let t0 = Instant::now();
    let vs = VersionedScheme::new(Arc::clone(&lp.scheme), new_scheme);
    let mut exec = MigrationExecutor::new(&planned.plan, store, &vs, lp.cfg.executor.clone());
    let outcome = match tracer {
        None => exec.run_to_completion(),
        Some(tracer) => loop {
            let s = tracer.span("migrate.step", true);
            match exec.step() {
                StepOutcome::Flipped(_) => win.step_ms.push(s.end() * 1e3),
                other => break other,
            }
        },
    };
    win.report = exec.report();
    drop(exec);
    let finalized = match tracer {
        Some(tracer) => {
            let _s = tracer.span("router.finalize", true);
            vs.finalize()
        }
        None => vs.finalize(),
    };
    win.exec_s = t0.elapsed().as_secs_f64();
    lp.scheme = finalized;
    if outcome != StepOutcome::Done {
        return Err(format!("executor stopped with {outcome:?}"));
    }
    let r = &win.report;
    if r.batches_flipped != planned.plan.batches.len()
        || r.rows_copied != expected.rows_copied
        || r.rows_dropped != expected.rows_dropped
        || r.bytes_copied != expected.rows_copied * u64::from(lp.row_bytes)
    {
        return Err(format!(
            "executor report {r:?}, benchmark expects {} batches, {} rows copied, {} dropped",
            planned.plan.batches.len(),
            expected.rows_copied,
            expected.rows_dropped
        ));
    }
    let pay = |t: TupleId| lp.payload(t);
    check::check_moved_rows(&planned.plan, &expected.readable, &*lp.log, &pay)
}

/// One untraced window through the controller's public entry point.
fn window_plain(lp: &mut Loop, w: &Workload, win: &mut Window) -> Result<(), String> {
    let old = lp.ctl.assignment().clone();
    let t0 = Instant::now();
    let tick = lp.ctl.observe(w);
    let observe_s = t0.elapsed().as_secs_f64();
    win.window_s = observe_s;
    let Tick::Migrate(m) = tick else {
        return Ok(());
    };
    let t1 = Instant::now();
    let new_scheme: Arc<dyn Scheme> =
        Arc::new(build_lookup_scheme(w, &w.trace, lp.ctl.assignment(), K));
    win.window_s += t1.elapsed().as_secs_f64();
    let planned = Planned { plan: m.plan, old };
    let log = Arc::clone(&lp.log);
    let result = execute(lp, &planned, new_scheme, &*log, None, win);
    win.window_s += win.exec_s;
    result
}

/// One traced window: the steps of `MigrationController::observe` driven
/// one at a time, then the same executor run over a timing wrapper of the
/// store. The controller then replays the window (untimed) and must
/// produce the same plan and placement.
fn window_traced(
    lp: &mut Loop,
    w: &Workload,
    tracer: &Tracer,
    store: &TracedStore,
    win: &mut Window,
) -> Result<(), String> {
    let op = tracer.span("window", true);
    let t0 = Instant::now();
    let cfg = lp.cfg.clone();
    let sw = lp
        .stepwise
        .as_mut()
        .expect("traced runs keep stepwise state");
    let s = tracer.span("migrate.drift_observe", true);
    let report = sw.detector.observe(&w.trace);
    win.drift_s = s.end();
    let mut planned = None;
    if report.drifted {
        let s = tracer.span("graph_builder.build_graph", true);
        let wg = build_graph(w, &w.trace, &cfg.schism);
        win.build_s = s.end();
        win.nodes = wg.stats.nodes as f64;
        win.pins = wg.stats.pins as f64;
        let s = tracer.span("partitioner.run_partition_phase_warm", true);
        let initial = wg.seed_assignment(&sw.assignment, K);
        let phase = run_partition_phase_warm(&wg, &cfg.schism, &initial);
        win.warm_s = s.end();
        let s = tracer.span("migrate.relabel", true);
        let mut new_asg = phase.assignment;
        let relabeling = relabel(&sw.assignment, &new_asg, K);
        apply_relabel(&mut new_asg, &relabeling.mapping);
        win.relabel_s = s.end();
        let s = tracer.span("migrate.plan_migration", true);
        let plan = plan_migration(&sw.assignment, &new_asg, &*w.db, &cfg.plan);
        win.plan_s = s.end();
        let s = tracer.span("migrate.drift_rebase", true);
        sw.detector.rebase(&w.trace);
        win.drift_s += s.end();
        let old = std::mem::replace(&mut sw.assignment, new_asg);
        planned = Some(Planned { plan, old });
    }
    let mut result = Ok(());
    if let Some(planned) = &planned {
        let s = tracer.span("validate.build_lookup_scheme", true);
        let sw = lp
            .stepwise
            .as_ref()
            .expect("traced runs keep stepwise state");
        let new_scheme: Arc<dyn Scheme> =
            Arc::new(build_lookup_scheme(w, &w.trace, &sw.assignment, K));
        win.lookup_s = s.end();
        let window_s = t0.elapsed().as_secs_f64();
        let s = tracer.span("migrate.execute_and_check", true);
        result = execute(lp, planned, new_scheme, store, Some(tracer), win);
        drop(s);
        win.window_s = window_s + win.exec_s;
    } else {
        win.window_s = t0.elapsed().as_secs_f64();
    }
    drop(op);
    win.self_s = tracer.last_self_s("window");
    result?;
    // The controller's own pass over the same window must agree.
    let tick = lp.ctl.observe(w);
    let sw = lp
        .stepwise
        .as_ref()
        .expect("traced runs keep stepwise state");
    match (tick, &planned) {
        (Tick::Stable(_), None) => {}
        (Tick::Migrate(m), Some(p)) => {
            let moves = |plan: &MigrationPlan| -> Vec<Vec<schism_migrate::TupleMove>> {
                plan.batches.iter().map(|b| b.moves.clone()).collect()
            };
            if moves(&m.plan) != moves(&p.plan) || lp.ctl.assignment() != &sw.assignment {
                return Err("traced steps and MigrationController::observe disagree".to_owned());
            }
        }
        _ => return Err("traced drift verdict differs from the controller's".to_owned()),
    }
    Ok(())
}

/// Runs one window and the post-cut-over sweep.
fn window(lp: &mut Loop, tracer: Option<(&Tracer, &TracedStore)>) -> (Window, Result<(), String>) {
    let w = drifting::window(&lp.dcfg, lp.next_window);
    lp.next_window += 1;
    let mut win = Window {
        arrival_frac: check::count_distributed(&w.trace, &*lp.scheme, &*w.db) as f64
            / w.trace.len().max(1) as f64,
        ..Window::default()
    };
    let result = match tracer {
        None => window_plain(lp, &w, &mut win),
        Some((tracer, store)) => window_traced(lp, &w, tracer, store, &mut win),
    };
    win.dist_frac = check::count_distributed(&w.trace, &*lp.scheme, &*w.db) as f64
        / w.trace.len().max(1) as f64;
    let pay = |t: TupleId| lp.payload(t);
    win.unreachable =
        check::unreachable_keys(0..lp.dcfg.records, &*lp.log, &*lp.scheme, &*lp.db, &pay);
    (win, result)
}

/// The fixed-input operation: bootstrap 16,000 keys (seed 0), run one
/// window, and require every key to read back where the finalized scheme
/// locates it. `Ok(Some(msg))` is the known cut-over fault.
fn fixed_op(data: &Path) -> Result<Option<String>, String> {
    let mut lp = Loop::new(
        FIXED_KEYS,
        FIXED_TXNS,
        FIXED_SEED,
        data.join("migrate-fixed"),
        false,
    )?;
    let (win, result) = window(&mut lp, None);
    result?;
    Ok((win.unreachable > 0).then(|| {
        format!(
            "migration cut-over: {} of {} keys ({:.1}%) unreadable where the finalized scheme \
             locates them after one window (k={K}, hypergraph, seed {FIXED_SEED})",
            win.unreachable,
            FIXED_KEYS,
            win.unreachable as f64 * 100.0 / FIXED_KEYS as f64
        )
    }))
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Every round replays windows 1..=8 from a set-up of its own (window
    // 0, bootstrap partition, store load), so a run measures the same
    // windows whatever its length. One more set-up runs before the first
    // round; `setup_s` is the median of all of them.
    let mut setup_times = Vec::new();
    let mut set_up = |i: usize| -> Result<Loop, String> {
        let t0 = Instant::now();
        let lp = Loop::new(
            KEYS,
            TXNS,
            ctx.seed,
            ctx.data.join(format!("migrate-{i}")),
            ctx.trace,
        )?;
        setup_times.push(t0.elapsed().as_secs_f64());
        Ok(lp)
    };
    let mut lp = match set_up(0).and_then(|first| {
        drop(first);
        set_up(1)
    }) {
        Ok(lp) => lp,
        Err(e) => {
            out.error(format!("set-up: {e}"));
            return out;
        }
    };

    // Store-call timings of traced runs, merged over rounds.
    let mut store_times: [Histogram; STORE_OPS.len()] =
        std::array::from_fn(|_| Histogram::default());
    let mut wins: Vec<Window> = Vec::new();
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        if round > 0 {
            // The previous round's store goes first, so two never coexist.
            drop(lp);
            lp = match set_up(round + 1) {
                Ok(lp) => lp,
                Err(e) => {
                    out.error(format!("round {} set-up: {e}", round + 1));
                    return out;
                }
            };
        }
        round += 1;
        let traced_store = ctx
            .trace
            .then(|| TracedStore::new(Arc::clone(&lp.log) as Arc<dyn ShardStore>));
        for _ in 0..WINDOWS_PER_ROUND {
            out.attempted += 1;
            let (win, result) = window(&mut lp, traced_store.as_ref().map(|s| (tracer, s)));
            if let Err(e) = result {
                out.error(format!("round {round} window {}: {e}", lp.next_window - 1));
            }
            wins.push(win);
        }
        if let Some(store) = &traced_store {
            for (&op, h) in STORE_OPS.iter().zip(&mut store_times) {
                store.times(op).merge_into(h);
            }
        }
        out.attempted += 1;
        match fixed_op(&ctx.data) {
            Ok(None) => {}
            Ok(Some(fault)) => out.fault(fault),
            Err(e) => out.error(format!("fixed-input window: {e}")),
        }
    }

    out.set("setup_s", median(&mut setup_times));
    let n = wins.len() as f64;
    let total_s: f64 = wins.iter().map(|w| w.window_s).sum();
    let p50_us = median(&mut wins.iter().map(|w| w.window_s).collect::<Vec<_>>()) * 1e6;
    let rows: u64 = wins.iter().map(|w| w.report.rows_copied).sum();
    let exec_s: f64 = wins.iter().map(|w| w.exec_s).sum();
    let unreachable = wins.last().map_or(0, |w| w.unreachable);
    let arrival = mean(&wins.iter().map(|w| w.arrival_frac).collect::<Vec<_>>());
    let cutover = mean(&wins.iter().map(|w| w.dist_frac).collect::<Vec<_>>());
    out.info.push(format!(
        "{round} rounds of {WINDOWS_PER_ROUND} windows, median {:.3} s; {rows} rows copied at \
         {:.0} rows/s of executor time; {unreachable} of {KEYS} keys unreadable after window \
         {WINDOWS_PER_ROUND}; distributed share {arrival:.4} at window arrival, {cutover:.4} \
         under the finalized scheme",
        p50_us / 1e6,
        rows as f64 / exec_s.max(1e-9)
    ));
    if ctx.trace {
        let m = |f: fn(&Window) -> f64| median(&mut wins.iter().map(f).collect::<Vec<_>>());
        let per_window = |f: fn(&ExecutorReport) -> u64| {
            wins.iter().map(|w| f(&w.report) as f64).sum::<f64>() / n
        };
        out.set("graph_builder.build_s", m(|w| w.build_s));
        out.set("graph_builder.nodes", m(|w| w.nodes));
        out.set("graph_builder.pins", m(|w| w.pins));
        out.set("partitioner.warm_s", m(|w| w.warm_s));
        out.set("validate.lookup_s", m(|w| w.lookup_s));
        out.set("migrate.drift_s", m(|w| w.drift_s));
        out.set("migrate.relabel_s", m(|w| w.relabel_s));
        out.set("migrate.plan_s", m(|w| w.plan_s));
        out.set(
            "migrate.step_ms",
            median(
                &mut wins
                    .iter()
                    .flat_map(|w| w.step_ms.clone())
                    .collect::<Vec<_>>(),
            ),
        );
        out.set("migrate.batches", per_window(|r| r.batches_flipped as u64));
        out.set("migrate.rows_copied", per_window(|r| r.rows_copied));
        out.set("migrate.bytes_copied", per_window(|r| r.bytes_copied));
        out.set("migrate.rows_dropped", per_window(|r| r.rows_dropped));
        out.set("migrate.retries", per_window(|r| u64::from(r.retries)));
        out.set("migrate.keys_unreachable", unreachable as f64);
        out.set("migrate.rows_per_s", rows as f64 / exec_s.max(1e-9));
        out.set("migrate.dist_frac_cutover", cutover);
        let [get, apply_batch, checksum, delete] = &store_times;
        let us = |h: &Histogram, q: f64| h.quantile(q) / 1e3;
        out.set("store.get_p50_us", us(get, 0.5));
        out.set("store.get_p99_us", us(get, 0.99));
        out.set("store.apply_batch_us", us(apply_batch, 0.5));
        out.set("store.checksum_us", us(checksum, 0.5));
        out.set("store.delete_us", us(delete, 0.5));
        out.set("store.compactions", lp.log.compactions() as f64);
        out.set("store.disk_bytes_per_user_byte", disk_ratio(&lp.log));
        out.set("op.self_s", m(|w| w.self_s));
        out.set("trace.p50_us", p50_us);
        out.set("trace.throughput_ops_s", n / total_s);
    } else {
        out.set("p50_us", p50_us);
        out.set("throughput_ops_s", n / total_s);
        out.set("dist_frac", arrival);
    }
    out
}

/// Segment-file bytes per live payload byte.
pub fn disk_ratio(log: &LogStore) -> f64 {
    let disk: u64 = (0..log.num_shards())
        .map(|s| log.segment_bytes(s).unwrap_or(0))
        .sum();
    disk as f64 / log.total_bytes().max(1) as f64
}

/// Size of the known cut-over fault on the fixed input.
pub fn fault_size(data: &Path) -> Vec<String> {
    vec![match fixed_op(data) {
        Ok(None) => "migrate-drift: every key readable after the cut-over".to_owned(),
        Ok(Some(msg)) => format!("migrate-drift: {msg}"),
        Err(e) => format!("migrate-drift: check failed: {e}"),
    }]
}
