//! Tracing for the `--trace 1` runs: in-memory spans with self time,
//! per-call timing samples, and forwarding wrappers around the
//! [`ShardStore`] and [`Scheme`] traits.
//!
//! Spans are recorded from the benchmark's own code, around the calls it
//! makes into each layer's public functions. A span's self time is its
//! duration minus the time covered by the spans and wrapped calls made
//! under it on the same thread. Spans stay in memory until
//! [`Tracer::write`] puts them in a file when the run ends.

use crate::stats::Histogram;
use schism_router::{Complexity, PartitionSet, ReplicaSet, Route, RouteDecision, Scheme};
use schism_sql::{Statement, TableId};
use schism_store::{ShardId, ShardStats, ShardStore, StoreError, WriteOp};
use schism_workload::{TupleId, TupleValues};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    id: u64,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Time and number of `Scheme` calls this thread made since the last
    /// [`take_route`].
    static ROUTE: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Charges `ns` of wrapped-call time to the innermost open span of this
/// thread, so that span's self time excludes it.
fn charge_parent(ns: u64) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.child_ns += ns;
        }
    });
}

/// Returns and resets this thread's `(nanoseconds, calls)` spent in
/// wrapped `Scheme` methods.
pub fn take_route() -> (u64, u64) {
    ROUTE.with(|r| r.replace((0, 0)))
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens a span on this thread; it closes when the guard drops or
    /// [`SpanGuard::end`] is called. With `keep == false` the span still
    /// charges its parent but is not stored (sampling of per-statement
    /// spans).
    pub fn span(&self, name: &'static str, keep: bool) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().map(|f| f.id);
            s.push(Frame { id, child_ns: 0 });
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            keep,
            start: Instant::now(),
            done: false,
        }
    }

    /// Number of spans stored so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// Self time in seconds of the most recent stored span named `name`.
    pub fn last_self_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.self_ns as f64 / 1e9)
    }

    /// Self times in seconds of every stored span named `name`.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_ns as f64 / 1e9)
            .collect()
    }

    /// Writes every span (one per line) and a per-name summary of total
    /// and self time to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# id\tparent\tname\tstart_us\tdur_us\tself_us")?;
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for s in spans.iter() {
            writeln!(
                out,
                "{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}",
                s.id,
                s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string()),
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.self_ns as f64 / 1e3
            )?;
            let e = summary.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.self_ns;
        }
        writeln!(out, "# summary: name\tcount\ttotal_s\tself_s")?;
        for (name, (n, total, own)) in summary {
            writeln!(
                out,
                "# {name}\t{n}\t{:.6}\t{:.6}",
                total as f64 / 1e9,
                own as f64 / 1e9
            )?;
        }
        out.flush()
    }
}

/// An open span.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    keep: bool,
    start: Instant,
    done: bool,
}

impl SpanGuard<'_> {
    /// Closes the span and returns its duration in seconds.
    pub fn end(mut self) -> f64 {
        self.close() as f64 / 1e9
    }

    fn close(&mut self) -> u64 {
        self.done = true;
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().expect("span stack underflow");
            debug_assert_eq!(frame.id, self.id, "spans must close innermost first");
            frame.child_ns
        });
        charge_parent(dur_ns);
        if self.keep {
            let start_ns = self.start.duration_since(self.tracer.epoch).as_nanos() as u64;
            self.tracer
                .spans
                .lock()
                .expect("span store poisoned")
                .push(SpanRec {
                    id: self.id,
                    parent: self.parent,
                    name: self.name,
                    start_ns,
                    dur_ns,
                    self_ns: dur_ns.saturating_sub(child_ns),
                });
        }
        dur_ns
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.close();
        }
    }
}

/// Per-call durations in nanoseconds, one fixed-memory histogram per
/// shard so concurrent shard workers rarely contend on one lock.
pub struct CallTimes {
    shards: Vec<Mutex<Histogram>>,
}

impl CallTimes {
    fn new(n: usize) -> Self {
        Self {
            shards: (0..n.max(1))
                .map(|_| Mutex::new(Histogram::default()))
                .collect(),
        }
    }

    fn record(&self, shard: u32, ns: u64) {
        let slot = &self.shards[shard as usize % self.shards.len()];
        slot.lock().expect("timing shard poisoned").record(ns);
    }

    /// Adds every shard's durations to `into`.
    pub fn merge_into(&self, into: &mut Histogram) {
        for s in &self.shards {
            into.merge(&s.lock().expect("timing shard poisoned"));
        }
    }

    /// Quantile `q` of every recorded duration, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let mut all = Histogram::default();
        self.merge_into(&mut all);
        all.quantile(q) / 1e3
    }
}

/// Which [`ShardStore`] method a timing belongs to.
#[derive(Clone, Copy)]
pub enum StoreOp {
    Get,
    Put,
    Delete,
    Scan,
    ApplyBatch,
    Stats,
    Checksum,
}

/// Forwards every [`ShardStore`] method (the defaulted `checksum`
/// included) to the wrapped store and times each call.
pub struct TracedStore {
    inner: Arc<dyn ShardStore>,
    times: [CallTimes; 7],
}

impl TracedStore {
    pub fn new(inner: Arc<dyn ShardStore>) -> Self {
        let n = inner.num_shards() as usize;
        Self {
            inner,
            times: std::array::from_fn(|_| CallTimes::new(n)),
        }
    }

    pub fn times(&self, op: StoreOp) -> &CallTimes {
        &self.times[op as usize]
    }

    fn timed<T>(&self, op: StoreOp, shard: ShardId, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.times[op as usize].record(shard, ns);
        charge_parent(ns);
        out
    }
}

impl ShardStore for TracedStore {
    fn num_shards(&self) -> u32 {
        self.inner.num_shards()
    }

    fn get(&self, shard: ShardId, t: TupleId) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed(StoreOp::Get, shard, || self.inner.get(shard, t))
    }

    fn put(&self, shard: ShardId, t: TupleId, value: Vec<u8>) -> Result<(), StoreError> {
        self.timed(StoreOp::Put, shard, || self.inner.put(shard, t, value))
    }

    fn delete(&self, shard: ShardId, t: TupleId) -> Result<bool, StoreError> {
        self.timed(StoreOp::Delete, shard, || self.inner.delete(shard, t))
    }

    fn scan_range(
        &self,
        shard: ShardId,
        table: TableId,
        rows: Range<u64>,
    ) -> Result<Vec<(TupleId, Vec<u8>)>, StoreError> {
        self.timed(StoreOp::Scan, shard, || {
            self.inner.scan_range(shard, table, rows)
        })
    }

    fn apply_batch(&self, shard: ShardId, ops: &[WriteOp]) -> Result<(), StoreError> {
        self.timed(StoreOp::ApplyBatch, shard, || {
            self.inner.apply_batch(shard, ops)
        })
    }

    fn stats(&self, shard: ShardId) -> Result<ShardStats, StoreError> {
        self.timed(StoreOp::Stats, shard, || self.inner.stats(shard))
    }

    fn checksum(&self, shard: ShardId, t: TupleId) -> Result<Option<u64>, StoreError> {
        self.timed(StoreOp::Checksum, shard, || self.inner.checksum(shard, t))
    }
}

/// Forwards every [`Scheme`] method (defaulted ones included, so the
/// wrapped scheme's own overrides still run) and charges each call to the
/// calling thread's route accumulator ([`take_route`]).
pub struct TracedScheme {
    inner: Arc<dyn Scheme>,
}

impl TracedScheme {
    pub fn new(inner: Arc<dyn Scheme>) -> Self {
        Self { inner }
    }

    fn timed<T>(&self, f: impl FnOnce(&dyn Scheme) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&*self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        ROUTE.with(|r| {
            let (t, n) = r.get();
            r.set((t + ns, n + 1));
        });
        charge_parent(ns);
        out
    }
}

impl Scheme for TracedScheme {
    fn name(&self) -> String {
        self.timed(|s| s.name())
    }

    fn k(&self) -> u32 {
        self.timed(|s| s.k())
    }

    fn complexity(&self) -> Complexity {
        self.timed(|s| s.complexity())
    }

    fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
        self.timed(|s| s.locate_tuple(t, db))
    }

    fn route_statement(&self, stmt: &Statement) -> Route {
        self.timed(|s| s.route_statement(stmt))
    }

    fn route_predicate(&self, stmt: &Statement) -> RouteDecision {
        self.timed(|s| s.route_predicate(stmt))
    }

    fn route_predicate_salted(&self, stmt: &Statement, salt: u64) -> RouteDecision {
        self.timed(|s| s.route_predicate_salted(stmt, salt))
    }

    fn replica_set(&self, t: TupleId, db: &dyn TupleValues) -> ReplicaSet {
        self.timed(|s| s.replica_set(t, db))
    }

    fn route_read_fallback(&self, stmt: &Statement, down: &PartitionSet) -> Option<PartitionSet> {
        self.timed(|s| s.route_read_fallback(stmt, down))
    }

    fn write_phases(&self, t: TupleId, db: &dyn TupleValues) -> Vec<PartitionSet> {
        self.timed(|s| s.write_phases(t, db))
    }

    fn route_write_phases(&self, stmt: &Statement) -> Vec<PartitionSet> {
        self.timed(|s| s.route_write_phases(stmt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::default();
        {
            let _outer = tracer.span("outer", true);
            std::thread::sleep(std::time::Duration::from_millis(5));
            let inner = tracer.span("inner", true);
            std::thread::sleep(std::time::Duration::from_millis(20));
            inner.end();
        }
        let spans = tracer.spans.lock().unwrap().clone();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.dur_ns >= inner.dur_ns + 5_000_000);
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(outer.self_ns < inner.dur_ns);
    }
}
