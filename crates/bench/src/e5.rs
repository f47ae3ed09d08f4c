//! E5 — auxiliary-structure caching at the warehouse (paper §5.2,
//! Example 10).
//!
//! Claim: "say the warehouse caches all objects and labels reachable
//! from OBJ along sel_path.cond_path. Then the warehouse can maintain
//! the view locally, for any base update" — up to the inserts whose
//! subtrees the cache must adopt (the paper's "direct subobjects of P"
//! caveat, which we count separately).

use crate::table::{fnum, Table};
use gsdb::Oid;
use gsview_core::SimpleViewDef;
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
use gsview_workload::{relations, relations_churn, ChurnSpec, RelationsSpec, ScriptOp};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E5Row {
    /// Stream description.
    pub stream: &'static str,
    /// Cache enabled?
    pub cached: bool,
    /// Source queries per update (everything on the wire).
    pub queries_per_update: f64,
    /// Of those, queries spent keeping the cache complete.
    pub cache_upkeep_per_update: f64,
    /// Source queries over the whole stream.
    pub queries: u64,
    /// Query messages over the whole stream.
    pub messages: u64,
    /// Query bytes over the whole stream.
    pub bytes: u64,
    /// View members at the end of the stream.
    pub members: usize,
}

/// Replay a stream against a warehouse with/without the §5.2 cache.
fn measure(stream: &'static str, churn: ChurnSpec, cached: bool, tuples: usize) -> E5Row {
    let spec = RelationsSpec {
        relations: 2,
        tuples_per_relation: tuples,
        extra_fields: 2,
        age_range: 60,
        seed: 31,
    };
    let (store, mut db) =
        relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    let source = Source::new("rels", Oid::new("REL"), store, ReportLevel::WithValues);
    source.with_store(|s| {
        s.drain_log();
    });
    let script = relations_churn(&mut db, churn);

    let mut wh = Warehouse::new();
    wh.connect(&source);
    let def = SimpleViewDef::new("SEL", "REL", "r0.tuple")
        .with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let view = wh
        .add_view(
            "rels",
            def,
            ViewOptions {
                use_aux_cache: cached,
                label_screening: true,
                ..ViewOptions::default()
            },
        )
        .expect("add view");
    wh.meter("rels").expect("meter").reset();

    let mut n_updates = 0usize;
    for op in &script {
        source.with_store(|s| op.replay(s)).expect("valid");
        if matches!(op, ScriptOp::Apply(_)) {
            n_updates += 1;
        }
        for report in source.monitor().poll() {
            wh.handle_report(&report).expect("maintain");
        }
    }
    let upkeep = wh.cache_queries(view).unwrap_or(0);
    let meter = wh.meter("rels").expect("meter");
    E5Row {
        stream,
        cached,
        queries_per_update: meter.queries() as f64 / n_updates as f64,
        cache_upkeep_per_update: upkeep as f64 / n_updates as f64,
        queries: meter.queries(),
        messages: meter.messages(),
        bytes: meter.bytes(),
        members: wh.view(view).expect("view").len(),
    }
}

fn modify_heavy(ops: usize) -> ChurnSpec {
    ChurnSpec {
        ops,
        modify_weight: 1,
        field_modify_weight: 0,
        insert_weight: 0,
        delete_weight: 0,
        target_bias: 0.5,
        age_range: 60,
        seed: 32,
    }
}

fn mixed(ops: usize) -> ChurnSpec {
    ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 1,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: 0.5,
        age_range: 60,
        seed: 33,
    }
}

/// Both streams, cache off and on.
fn sweep(tuples: usize, ops: usize) -> Vec<E5Row> {
    let mut rows = Vec::new();
    for (name, churn) in [("modify-only", modify_heavy(ops)), ("mixed", mixed(ops))] {
        for cached in [false, true] {
            rows.push(measure(name, churn, cached, tuples));
        }
    }
    rows
}

/// The quick-mode sweep, for the count gate (`tests/e5_smoke.rs`).
pub fn quick_facts() -> Vec<E5Row> {
    sweep(200, 100)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick { quick_facts() } else { sweep(1_000, 400) };
    let mut t = Table::new(
        "E5",
        "auxiliary cache along sel_path.cond_path (Example 10)",
        "with the cache, modify/delete maintenance is fully local; only insert adoption queries remain",
    )
    .headers(&[
        "stream",
        "cache",
        "queries/upd",
        "cache upkeep/upd",
    ]);
    for r in rows {
        t.row(vec![
            r.stream.to_string(),
            if r.cached { "on" } else { "off" }.to_string(),
            fnum(r.queries_per_update),
            fnum(r.cache_upkeep_per_update),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_makes_modify_stream_fully_local() {
        let uncached = measure("m", modify_heavy(60), false, 100);
        let cached = measure("m", modify_heavy(60), true, 100);
        assert!(uncached.queries_per_update > 0.0);
        assert_eq!(
            cached.queries_per_update, 0.0,
            "Example 10: fully local maintenance"
        );
    }

    #[test]
    fn cache_reduces_queries_on_mixed_stream() {
        let uncached = measure("x", mixed(60), false, 100);
        let cached = measure("x", mixed(60), true, 100);
        assert!(
            cached.queries_per_update < uncached.queries_per_update,
            "cached {} vs uncached {}",
            cached.queries_per_update,
            uncached.queries_per_update
        );
    }
}
