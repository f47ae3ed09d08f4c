//! E4 — source update-report levels (paper §5.1).
//!
//! Claim: the three reporting scenarios trade report richness against
//! queries sent back to the sources. At level 1 "the warehouse cannot
//! do much other than sending queries back"; level 2 enables local
//! screening; level 3 lets the warehouse compute `path(ROOT, N)` and
//! `ancestor` locally, leaving only condition evaluation to query.
//!
//! The same churn stream runs against the same source at each level;
//! we count queries, messages and bytes per update at the warehouse.

use crate::table::{fnum, Table};
use gsdb::Oid;
use gsview_core::SimpleViewDef;
use gsview_query::{CmpOp, Pred};
use gsview_warehouse::{ReportLevel, Source, ViewOptions, Warehouse};
use gsview_workload::{relations, relations_churn, ChurnSpec, RelationsSpec, ScriptOp};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E4Row {
    /// The report level.
    pub level: ReportLevel,
    /// Label screening on?
    pub screening: bool,
    /// Queries per update.
    pub queries_per_update: f64,
    /// Messages per update (reports + query round trips).
    pub messages_per_update: f64,
    /// Bytes per update.
    pub bytes_per_update: f64,
    /// Source queries over the whole stream.
    pub queries: u64,
    /// Messages over the whole stream (reports + query round trips).
    pub messages: u64,
    /// Bytes over the whole stream.
    pub bytes: u64,
    /// View members at the end of the stream.
    pub members: usize,
}

/// Build the source, replay the stream, return metered costs.
fn measure(level: ReportLevel, screening: bool, tuples: usize, ops: usize) -> E4Row {
    let spec = RelationsSpec {
        relations: 2,
        tuples_per_relation: tuples,
        extra_fields: 2,
        age_range: 60,
        seed: 21,
    };
    let churn = ChurnSpec {
        ops,
        modify_weight: 2,
        field_modify_weight: 2,
        insert_weight: 1,
        delete_weight: 1,
        target_bias: 0.5,
        age_range: 60,
        seed: 22,
    };
    // Generate base data, wrap it in a source.
    let (store, mut db) =
        relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    let source = Source::new("rels", Oid::new("REL"), store, level);
    source.with_store(|s| {
        s.drain_log();
    });
    let script = relations_churn(&mut db, churn);

    let mut wh = Warehouse::new();
    wh.connect(&source);
    let def =
        SimpleViewDef::new("SEL", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64));
    let view = wh
        .add_view(
            "rels",
            def,
            ViewOptions {
                label_screening: screening,
                ..ViewOptions::default()
            },
        )
        .expect("add view");
    wh.meter("rels").expect("meter").reset();

    let mut n_updates = 0usize;
    let mut report_msgs = 0u64;
    let mut report_bytes = 0u64;
    for op in &script {
        source.with_store(|s| op.replay(s)).expect("valid script");
        if matches!(op, ScriptOp::Apply(_)) {
            n_updates += 1;
        }
        for report in source.monitor().poll() {
            report_msgs += 1;
            report_bytes += gsview_warehouse::WireSize::wire_size(&report) as u64;
            wh.handle_report(&report).expect("maintain");
        }
    }
    let meter = wh.meter("rels").expect("meter");
    let (queries, messages, bytes) = (
        meter.queries(),
        meter.messages() + report_msgs,
        meter.bytes() + report_bytes,
    );
    E4Row {
        level,
        screening,
        queries_per_update: queries as f64 / n_updates as f64,
        messages_per_update: messages as f64 / n_updates as f64,
        bytes_per_update: bytes as f64 / n_updates as f64,
        queries,
        messages,
        bytes,
        members: wh.view(view).expect("view").len(),
    }
}

/// Every report level, screening off and on where it can act.
fn sweep(tuples: usize, ops: usize) -> Vec<E4Row> {
    [
        (ReportLevel::OidsOnly, false),
        (ReportLevel::WithValues, false),
        (ReportLevel::WithValues, true),
        (ReportLevel::WithPaths, false),
        (ReportLevel::WithPaths, true),
    ]
    .into_iter()
    .map(|(level, screening)| measure(level, screening, tuples, ops))
    .collect()
}

/// The quick-mode sweep, for the count gate (`tests/e4_smoke.rs`).
pub fn quick_facts() -> Vec<E4Row> {
    sweep(200, 100)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let rows = if quick {
        quick_facts()
    } else {
        sweep(1_000, 400)
    };
    let mut t = Table::new(
        "E4",
        "warehouse query-backs per update, by source report level",
        "richer reports (L1 → L2 → L3) cut queries; screening needs at least L2",
    )
    .headers(&["level", "screening", "queries/upd", "msgs/upd", "bytes/upd"]);
    for r in rows {
        t.row(vec![
            r.level.to_string(),
            if r.screening { "on" } else { "off" }.to_string(),
            fnum(r.queries_per_update),
            fnum(r.messages_per_update),
            fnum(r.bytes_per_update),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_count_decreases_with_level() {
        let l1 = measure(ReportLevel::OidsOnly, false, 100, 60);
        let l2 = measure(ReportLevel::WithValues, false, 100, 60);
        let l3 = measure(ReportLevel::WithPaths, false, 100, 60);
        assert!(
            l1.queries_per_update >= l2.queries_per_update,
            "L1 {} vs L2 {}",
            l1.queries_per_update,
            l2.queries_per_update
        );
        assert!(
            l2.queries_per_update > l3.queries_per_update,
            "L2 {} vs L3 {}",
            l2.queries_per_update,
            l3.queries_per_update
        );
    }

    #[test]
    fn screening_cuts_queries_at_l2() {
        let without = measure(ReportLevel::WithValues, false, 100, 60);
        let with = measure(ReportLevel::WithValues, true, 100, 60);
        assert!(with.queries_per_update <= without.queries_per_update);
    }
}
