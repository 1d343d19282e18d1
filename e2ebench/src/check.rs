//! Output checks. Each one compares what the program returned with the
//! benchmark's own computation or with a property the output must have;
//! none compares with a stored copy of an earlier output.

use schism_core::{Candidate, SelectionRules};
use schism_migrate::MigrationPlan;
use schism_router::{Complexity, PartitionSet, Scheme};
use schism_sql::Value;
use schism_store::ShardStore;
use schism_workload::{Trace, Transaction, TupleId, TupleValues};
use std::collections::HashMap;

/// Largest distance, in fraction points, by which the advisor's winner
/// may trail the per-warehouse manual scheme on TPC-C. The paper's own
/// result sits 1.4 points above its manual baseline (12.1% vs 10.7%).
pub const TPCC_MARGIN: f64 = 0.05;

/// Whether `txn` needs more than one partition under `scheme` when every
/// write touches every copy of its tuple and every read may use any one
/// copy: it is local exactly when one partition holds all written copies
/// and some copy of every read tuple.
pub fn is_distributed(txn: &Transaction, scheme: &dyn Scheme, db: &dyn TupleValues) -> bool {
    let mut writes = PartitionSet::empty();
    for &t in &txn.writes {
        writes.union_with(&scheme.locate_tuple(t, db));
    }
    if writes.len() > 1 {
        return true;
    }
    let mut common: Option<PartitionSet> = (!writes.is_empty()).then_some(writes);
    for &t in txn.reads.iter().chain(txn.scans.iter().flatten()) {
        let copies = scheme.locate_tuple(t, db);
        let c = match common {
            None => copies,
            Some(c) => c.intersect(&copies),
        };
        if c.is_empty() {
            return true;
        }
        common = Some(c);
    }
    false
}

/// Distributed transactions of `trace` under `scheme`, counted by
/// [`is_distributed`].
pub fn count_distributed(trace: &Trace, scheme: &dyn Scheme, db: &dyn TupleValues) -> usize {
    trace
        .transactions
        .iter()
        .filter(|t| is_distributed(t, scheme, db))
        .count()
}

/// Recounts every candidate's distributed test transactions and requires
/// the program's counts to match exactly.
pub fn check_recount(
    candidates: &[Candidate],
    test: &Trace,
    db: &dyn TupleValues,
) -> Result<(), String> {
    for c in candidates {
        let own = count_distributed(test, &*c.scheme, db);
        if own != c.report.distributed_txns || c.report.total_txns != test.len() {
            return Err(format!(
                "candidate {}: program counts {}/{} distributed, benchmark counts {}/{}",
                c.name,
                c.report.distributed_txns,
                c.report.total_txns,
                own,
                test.len()
            ));
        }
    }
    Ok(())
}

/// What the winner check needs of one candidate.
pub struct Scored {
    pub complexity: Complexity,
    pub fraction: f64,
    pub imbalance: f64,
}

/// The candidate the selection rules pick: the simplest (then cheapest,
/// then first) among balanced candidates within the tie window of the
/// lowest balanced fraction.
pub fn expected_winner(cands: &[Scored], rules: &SelectionRules) -> Option<usize> {
    let any_balanced = cands.iter().any(|c| c.imbalance <= rules.balance_limit);
    let eligible = |c: &Scored| !any_balanced || c.imbalance <= rules.balance_limit;
    let best = cands
        .iter()
        .filter(|c| eligible(c))
        .map(|c| c.fraction)
        .fold(f64::INFINITY, f64::min);
    let window = best + rules.tie_abs.max(rules.tie_rel * best);
    cands
        .iter()
        .enumerate()
        .filter(|(_, c)| eligible(c) && c.fraction <= window)
        .min_by(|(_, a), (_, b)| {
            a.complexity
                .cmp(&b.complexity)
                .then(a.fraction.total_cmp(&b.fraction))
        })
        .map(|(i, _)| i)
}

/// The program's winner must be the lowest candidate under its own tie
/// rule, scored with the benchmark's recounted fractions.
pub fn check_winner(
    candidates: &[Candidate],
    winner: usize,
    test: &Trace,
    db: &dyn TupleValues,
    rules: &SelectionRules,
) -> Result<(), String> {
    let scored: Vec<Scored> = candidates
        .iter()
        .map(|c| Scored {
            complexity: c.scheme.complexity(),
            fraction: count_distributed(test, &*c.scheme, db) as f64 / test.len().max(1) as f64,
            imbalance: c.report.load_imbalance(),
        })
        .collect();
    match expected_winner(&scored, rules) {
        Some(w) if w == winner => Ok(()),
        other => Err(format!(
            "winner {} ({:.4}) but the tie rule picks {}",
            candidates[winner].name,
            scored[winner].fraction,
            other.map_or("nothing".to_owned(), |i| format!(
                "{} ({:.4})",
                candidates[i].name, scored[i].fraction
            ))
        )),
    }
}

/// Every tuple of the training trace must have a non-empty copy set of
/// partitions below `k` under `scheme`.
pub fn check_partitions_below_k(
    train: &Trace,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    k: u32,
) -> Result<(), String> {
    for t in train.distinct_tuples() {
        let copies = scheme.locate_tuple(t, db);
        if copies.is_empty() || copies.iter().any(|p| p >= k) {
            return Err(format!(
                "training tuple {t} placed on {:?} with k={k}",
                copies.iter().collect::<Vec<_>>()
            ));
        }
    }
    Ok(())
}

/// The advisor's winner must come within [`TPCC_MARGIN`] of the manual
/// per-warehouse scheme.
pub fn check_quality(winner: &str, winner_frac: f64, manual_frac: f64) -> Result<(), String> {
    let gap = winner_frac - manual_frac;
    if gap <= TPCC_MARGIN {
        Ok(())
    } else {
        Err(format!(
            "advisor quality: winner {winner} leaves {:.1}% of test transactions distributed, \
             manual per-warehouse {:.1}%: gap {:.1} points > margin {:.1}",
            winner_frac * 100.0,
            manual_frac * 100.0,
            gap * 100.0,
            TPCC_MARGIN * 100.0
        ))
    }
}

/// The plan's moves must be exactly the benchmark's diff of the two
/// placements: every tuple present in both whose copy set changed, once,
/// with its old and new copy sets.
pub fn check_plan_diff(
    plan: &MigrationPlan,
    old: &HashMap<TupleId, PartitionSet>,
    new: &HashMap<TupleId, PartitionSet>,
) -> Result<(), String> {
    let mut diff: Vec<(TupleId, PartitionSet, PartitionSet)> = new
        .iter()
        .filter_map(|(t, &to)| {
            let &from = old.get(t)?;
            (from != to).then_some((*t, from, to))
        })
        .collect();
    diff.sort_unstable_by_key(|d| d.0);
    let mut planned: Vec<(TupleId, PartitionSet, PartitionSet)> =
        plan.moves().map(|m| (m.tuple, m.from, m.to)).collect();
    planned.sort_unstable_by_key(|d| d.0);
    if planned != diff {
        let first = planned
            .iter()
            .zip(&diff)
            .position(|(a, b)| a != b)
            .unwrap_or(planned.len().min(diff.len()));
        return Err(format!(
            "plan has {} moves, placement diff has {} (first difference at position {first})",
            planned.len(),
            diff.len()
        ));
    }
    Ok(())
}

/// The copies the executor should make and drop, from the benchmark's
/// reading of the store before the plan runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExpectedCopies {
    /// Rows written to gaining shards (moves whose source holds the row).
    pub rows_copied: u64,
    /// Rows deleted from shards leaving a copy set.
    pub rows_dropped: u64,
    /// Moves whose source shard held the row.
    pub readable: Vec<TupleId>,
}

/// Reads the store before a plan executes and derives what a correct
/// executor copies and drops.
pub fn expected_copies(plan: &MigrationPlan, store: &dyn ShardStore) -> ExpectedCopies {
    let mut e = ExpectedCopies::default();
    for m in plan.moves() {
        let added = m.copies_added();
        if !added.is_empty() {
            let src = m.from.first().expect("a move has a source copy set");
            if matches!(store.get(src, m.tuple), Ok(Some(_))) {
                e.rows_copied += u64::from(added.len());
                e.readable.push(m.tuple);
            }
        }
        for s in m.copies_dropped().iter() {
            if matches!(store.get(s, m.tuple), Ok(Some(_))) {
                e.rows_dropped += 1;
            }
        }
    }
    e
}

/// After a plan ran: every readable moved tuple holds `payload(t)` on
/// every shard of its new copy set and is gone from the shards it left.
pub fn check_moved_rows(
    plan: &MigrationPlan,
    readable: &[TupleId],
    store: &dyn ShardStore,
    payload: &dyn Fn(TupleId) -> Vec<u8>,
) -> Result<(), String> {
    let moves: HashMap<TupleId, (PartitionSet, PartitionSet)> =
        plan.moves().map(|m| (m.tuple, (m.from, m.to))).collect();
    for t in readable {
        let (from, to) = moves[t];
        let want = payload(*t);
        for s in to.iter() {
            match store.get(s, *t) {
                Ok(Some(v)) if v == want => {}
                Ok(Some(_)) => return Err(format!("moved tuple {t}: wrong payload on shard {s}")),
                Ok(None) => return Err(format!("moved tuple {t}: missing on new shard {s}")),
                Err(e) => return Err(format!("moved tuple {t}: shard {s}: {e}")),
            }
        }
        for s in from.difference(&to).iter() {
            if !matches!(store.get(s, *t), Ok(None)) {
                return Err(format!("moved tuple {t}: still on shard {s} it left"));
            }
        }
    }
    Ok(())
}

/// Keys of table 0 in `rows` that do not read back `payload(t)` from
/// every shard `scheme` names for them.
pub fn unreachable_keys(
    rows: std::ops::Range<u64>,
    store: &dyn ShardStore,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    payload: &dyn Fn(TupleId) -> Vec<u8>,
) -> u64 {
    rows.filter(|&r| {
        let t = TupleId::new(0, r);
        let want = payload(t);
        scheme
            .locate_tuple(t, db)
            .iter()
            .any(|s| !matches!(store.get(s, t), Ok(Some(v)) if v == want))
    })
    .count() as u64
}

/// One `account` row as the shadow copy predicts it.
pub fn account_row(id: u64, bal: i64) -> Vec<Value> {
    vec![
        Value::Int(id as i64),
        Value::Str(format!("acct-{id}")),
        Value::Int(bal),
    ]
}

/// A SELECT must return exactly the rows of `keys` (sorted, distinct) with
/// the shadow copy's balances.
pub fn check_select(
    rows: &[(TupleId, Vec<Value>)],
    keys: &[u64],
    shadow: &dyn Fn(u64) -> i64,
) -> Result<(), String> {
    let mut want: Vec<u64> = keys.to_vec();
    want.sort_unstable();
    want.dedup();
    let got: Vec<u64> = rows.iter().map(|(t, _)| t.row).collect();
    if got != want {
        return Err(format!("SELECT returned keys {got:?}, expected {want:?}"));
    }
    for (t, vals) in rows {
        let expect = account_row(t.row, shadow(t.row));
        if *vals != expect {
            return Err(format!(
                "SELECT key {}: got {vals:?}, shadow copy predicts {expect:?}",
                t.row
            ));
        }
    }
    Ok(())
}

/// Keys in `rows` whose stored row (on every copy the scheme names) does
/// not decode to the shadow copy's prediction.
pub fn account_mismatches(
    rows: std::ops::Range<u64>,
    store: &dyn ShardStore,
    scheme: &dyn Scheme,
    db: &dyn TupleValues,
    shadow: &dyn Fn(u64) -> i64,
) -> u64 {
    rows.filter(|&id| {
        let t = TupleId::new(0, id);
        let want = account_row(id, shadow(id));
        scheme.locate_tuple(t, db).iter().any(|s| {
            !matches!(store.get(s, t), Ok(Some(bytes))
                if schism_serve::decode_row(&bytes).as_deref() == Some(&want[..]))
        })
    })
    .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use schism_bench::manual::ManualTpcc;
    use schism_router::{evaluate, HashScheme, Route};
    use schism_sql::Statement;
    use schism_store::MemStore;
    use schism_workload::tpcc::{self, TpccConfig};

    /// The per-warehouse scheme, except that the customers of warehouse 0
    /// whose row id is odd live on the other partition.
    struct SplitWarehouse(ManualTpcc, TpccConfig);

    impl Scheme for SplitWarehouse {
        fn name(&self) -> String {
            "split-warehouse".into()
        }
        fn k(&self) -> u32 {
            2
        }
        fn complexity(&self) -> Complexity {
            Complexity::Range
        }
        fn locate_tuple(&self, t: TupleId, db: &dyn TupleValues) -> PartitionSet {
            if tpcc::warehouse_of(&self.1, t) == Some(0) && t.row % 2 == 1 {
                PartitionSet::single(1)
            } else {
                self.0.locate_tuple(t, db)
            }
        }
        fn route_statement(&self, stmt: &Statement) -> Route {
            self.0.route_statement(stmt)
        }
    }

    fn tpcc_fixture() -> (TpccConfig, schism_workload::Workload) {
        let cfg = TpccConfig {
            num_txns: 2_000,
            ..TpccConfig::small(2)
        };
        let w = tpcc::generate(&cfg);
        (cfg, w)
    }

    #[test]
    fn recount_agrees_with_the_evaluator_on_manual_tpcc() {
        let (cfg, w) = tpcc_fixture();
        let manual = ManualTpcc::new(cfg, 2);
        let report = evaluate(&manual, &w.trace, &*w.db);
        assert_eq!(
            count_distributed(&w.trace, &manual, &*w.db),
            report.distributed_txns
        );
    }

    #[test]
    fn recount_rejects_a_scheme_that_splits_one_warehouse() {
        let (cfg, w) = tpcc_fixture();
        let manual = ManualTpcc::new(cfg.clone(), 2);
        // The report claims the manual scheme's count, the scheme splits
        // warehouse 0.
        let report = evaluate(&manual, &w.trace, &*w.db);
        let cand = Candidate {
            name: "split".into(),
            complexity: Complexity::Range,
            scheme: Box::new(SplitWarehouse(ManualTpcc::new(cfg.clone(), 2), cfg)),
            report,
        };
        let err = check_recount(std::slice::from_ref(&cand), &w.trace, &*w.db).unwrap_err();
        assert!(err.contains("split"), "{err}");
    }

    #[test]
    fn quality_check_rejects_a_scheme_that_splits_one_warehouse() {
        let (cfg, w) = tpcc_fixture();
        let manual = ManualTpcc::new(cfg.clone(), 2);
        let split = SplitWarehouse(ManualTpcc::new(cfg.clone(), 2), cfg);
        let n = w.trace.len() as f64;
        let m = count_distributed(&w.trace, &manual, &*w.db) as f64 / n;
        let s = count_distributed(&w.trace, &split, &*w.db) as f64 / n;
        assert!(check_quality("manual", m, m).is_ok());
        let err = check_quality("split", s, m).unwrap_err();
        assert!(err.contains("gap"), "{err}");
    }

    #[test]
    fn winner_check_follows_the_tie_rule() {
        let rules = SelectionRules::default();
        let c = |complexity, fraction| Scored {
            complexity,
            fraction,
            imbalance: 1.0,
        };
        // Lookup is cheapest, but hash is within the relative tie window.
        let cands = [c(Complexity::Lookup, 0.50), c(Complexity::Hash, 0.52)];
        assert_eq!(expected_winner(&cands, &rules), Some(1));
        // A clear win beats simplicity.
        let cands = [c(Complexity::Lookup, 0.10), c(Complexity::Hash, 0.52)];
        assert_eq!(expected_winner(&cands, &rules), Some(0));
    }

    fn payload(t: TupleId) -> Vec<u8> {
        t.row.to_le_bytes().repeat(4)
    }

    #[test]
    fn sweep_rejects_a_store_with_one_row_removed() {
        let store = MemStore::new(4);
        let scheme = HashScheme::by_row_id(4);
        let db = schism_workload::MaterializedDb::new();
        for r in 0..200 {
            let t = TupleId::new(0, r);
            for s in scheme.locate_tuple(t, &db).iter() {
                store.put(s, t, payload(t)).unwrap();
            }
        }
        assert_eq!(unreachable_keys(0..200, &store, &scheme, &db, &payload), 0);
        let victim = TupleId::new(0, 77);
        let shard = scheme.locate_tuple(victim, &db).first().unwrap();
        assert!(store.delete(shard, victim).unwrap());
        assert_eq!(unreachable_keys(0..200, &store, &scheme, &db, &payload), 1);
    }

    #[test]
    fn reopen_check_rejects_a_store_with_one_row_removed() {
        let store = MemStore::new(4);
        let scheme = HashScheme::by_row_id(4);
        let db = schism_workload::MaterializedDb::new();
        let shadow = |id: u64| id as i64 * 3;
        for id in 0..100 {
            let t = TupleId::new(0, id);
            let bytes = schism_serve::encode_row(&account_row(id, shadow(id)));
            for s in scheme.locate_tuple(t, &db).iter() {
                store.put(s, t, bytes.clone()).unwrap();
            }
        }
        assert_eq!(account_mismatches(0..100, &store, &scheme, &db, &shadow), 0);
        let victim = TupleId::new(0, 5);
        let shard = scheme.locate_tuple(victim, &db).first().unwrap();
        store.delete(shard, victim).unwrap();
        assert_eq!(account_mismatches(0..100, &store, &scheme, &db, &shadow), 1);
    }

    #[test]
    fn select_check_rejects_a_shadow_copy_with_a_changed_value() {
        let rows = vec![
            (TupleId::new(0, 3), account_row(3, 30)),
            (TupleId::new(0, 9), account_row(9, 90)),
        ];
        let shadow = |id: u64| id as i64 * 10;
        assert!(check_select(&rows, &[9, 3], &shadow).is_ok());
        let changed = |id: u64| if id == 9 { 91 } else { id as i64 * 10 };
        let err = check_select(&rows, &[9, 3], &changed).unwrap_err();
        assert!(err.contains("key 9"), "{err}");
        assert!(check_select(&rows, &[3], &shadow).is_err());
    }

    #[test]
    fn moved_row_check_rejects_a_missing_copy() {
        use schism_migrate::{plan_migration, PlanConfig};
        let db = schism_workload::MaterializedDb::new();
        let t = TupleId::new(0, 1);
        let old: HashMap<_, _> = [(t, PartitionSet::single(0))].into();
        let new: HashMap<_, _> = [(t, PartitionSet::single(2))].into();
        let plan = plan_migration(&old, &new, &db, &PlanConfig::default());
        check_plan_diff(&plan, &old, &new).unwrap();
        assert!(check_plan_diff(&plan, &old, &old).is_err());
        let store = MemStore::new(4);
        store.put(0, t, payload(t)).unwrap();
        let e = expected_copies(&plan, &store);
        assert_eq!((e.rows_copied, e.rows_dropped), (1, 1));
        // Nothing ran: the copy is missing on shard 2.
        assert!(check_moved_rows(&plan, &e.readable, &store, &payload).is_err());
        store.put(2, t, payload(t)).unwrap();
        store.delete(0, t).unwrap();
        check_moved_rows(&plan, &e.readable, &store, &payload).unwrap();
    }
}
