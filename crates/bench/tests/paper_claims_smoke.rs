//! Count gates for the experiments that reproduce the paper's own
//! claims: §4.4 (E1 incremental vs recompute, E2 the parent index, E3
//! relational flattening, E8 screening), §6 (E6 wild-card views, E7 DAG
//! bases) and the ablations and extensions built on them (E9 planning,
//! E10 materialization depth, E11 batched maintenance).
//!
//! Each test runs its experiment's quick-mode sweep
//! (`gsview_bench::eN::quick_facts`) and compares every integer the
//! claim rests on — base accesses, relational row ops, product states,
//! relevant and irrelevant update counts, consolidated deltas, final
//! members — with the checked-in `baselines/eN_quick.json`. Workloads
//! are seeded and every count is a raw total, so a count that moves is
//! a change in what maintenance or evaluation touches, not noise. Each
//! `measure` also checks its maintained view against a recompute, so a
//! gate passes only on a verified run. No count depends on the order
//! in which names were interned, so the tests may run in any order, on
//! any number of threads.

use gsview_bench::{e1, e10, e11, e2, e3, e6, e7, e8, e9};

mod common;
use common::Baseline;

/// Assert that every `(key, count)` equals its baseline entry.
fn gate(baseline: &str, facts: impl IntoIterator<Item = (String, u64)>) {
    let baseline = Baseline::parse(baseline);
    for (key, got) in facts {
        assert_eq!(got, baseline.int(&key), "{key} drifted from baseline");
    }
}

/// `(config_what, count)` pairs for one row.
fn keyed<const N: usize>(config: &str, counts: [(&str, u64); N]) -> Vec<(String, u64)> {
    counts
        .into_iter()
        .map(|(what, got)| (format!("{config}_{what}"), got))
        .collect()
}

#[test]
fn e1_incremental_vs_recompute_counts_do_not_drift() {
    let rows = e1::quick_facts();
    assert_eq!(rows.len(), 2, "100 and 1 000 tuples");
    gate(
        include_str!("../baselines/e1_quick.json"),
        rows.iter().flat_map(|r| {
            keyed(
                &format!("t{}", r.tuples),
                [
                    ("updates", r.updates as u64),
                    ("inc_accesses", r.inc_total),
                    ("rec_accesses", r.rec_total),
                    ("members", r.members as u64),
                ],
            )
        }),
    );
}

#[test]
fn e2_parent_index_counts_do_not_drift() {
    let rows = e2::quick_facts();
    assert_eq!(
        rows.len(),
        3,
        "chains of depth 8 and 64, a bushy tree of depth 3"
    );
    gate(
        include_str!("../baselines/e2_quick.json"),
        ["chain8", "chain64", "bushy3"]
            .into_iter()
            .zip(&rows)
            .flat_map(|(config, r)| {
                keyed(
                    config,
                    [
                        ("objects", r.objects as u64),
                        ("with_index", r.with_index),
                        ("without_index", r.without_index),
                    ],
                )
            }),
    );
}

#[test]
fn e3_relational_baseline_counts_do_not_drift() {
    let rows = e3::quick_facts();
    assert_eq!(rows.len(), 2, "path depths 2 and 8");
    gate(
        include_str!("../baselines/e3_quick.json"),
        rows.iter().flat_map(|r| {
            keyed(
                &format!("depth{}", r.depth),
                [
                    ("updates", r.updates as u64),
                    ("native_accesses", r.native_total),
                    ("rel_row_ops", r.rel_total),
                    ("members", r.members as u64),
                ],
            )
        }),
    );
}

#[test]
fn e6_wildcard_view_counts_do_not_drift() {
    let rows = e6::quick_facts();
    assert_eq!(rows.len(), 2, "the simple view, then the wild-card view");
    gate(
        include_str!("../baselines/e6_quick.json"),
        ["simple", "wildcard"]
            .into_iter()
            .zip(&rows)
            .flat_map(|(config, r)| {
                keyed(
                    config,
                    [
                        ("updates", r.updates as u64),
                        ("accesses", r.accesses),
                        ("relevant", r.relevant as u64),
                        ("members", r.members as u64),
                    ],
                )
            }),
    );
}

#[test]
fn e7_dag_base_counts_do_not_drift() {
    let rows = e7::quick_facts();
    assert_eq!(rows.len(), 2, "share factors 1 and 4");
    gate(
        include_str!("../baselines/e7_quick.json"),
        rows.iter().flat_map(|r| {
            keyed(
                &format!("share{}", r.share),
                [
                    ("updates", r.updates as u64),
                    ("dag_accesses", r.dag_total),
                    ("rec_accesses", r.rec_total),
                    ("members", r.members as u64),
                ],
            )
        }),
    );
}

#[test]
fn e8_screening_counts_do_not_drift() {
    let rows = e8::quick_facts();
    assert_eq!(rows.len(), 4, "bias 1.0, 0.5, 0.2 and 0.05");
    gate(
        include_str!("../baselines/e8_quick.json"),
        ["bias100", "bias50", "bias20", "bias5"]
            .into_iter()
            .zip(&rows)
            .flat_map(|(config, r)| {
                keyed(
                    config,
                    [
                        ("relevant", r.relevant as u64),
                        ("irrelevant", r.irrelevant as u64),
                        ("relevant_accesses", r.relevant_total),
                        ("irrelevant_accesses", r.irrelevant_total),
                        ("members", r.members as u64),
                    ],
                )
            }),
    );
}

#[test]
fn e9_planning_counts_do_not_drift() {
    let rows = e9::quick_facts();
    assert_eq!(rows.len(), 2, "20 x 20 and 50 x 40 items");
    gate(
        include_str!("../baselines/e9_quick.json"),
        rows.iter().flat_map(|r| {
            keyed(
                &format!("o{}", r.objects),
                [
                    ("matches", r.matches as u64),
                    ("forward_states", r.forward_states as u64),
                    ("backward_states", r.backward_states as u64),
                ],
            )
        }),
    );
}

#[test]
fn e10_materialization_counts_do_not_drift() {
    let rows = e10::quick_facts();
    assert_eq!(rows.len(), 3, "virtual, members only, partial depth 1");
    gate(
        include_str!("../baselines/e10_quick.json"),
        ["virtual", "members_only", "partial"]
            .into_iter()
            .zip(&rows)
            .flat_map(|(config, r)| {
                keyed(
                    config,
                    [
                        ("members", r.members as u64),
                        ("base_accesses", r.base_accesses),
                        ("view_accesses", r.view_accesses),
                    ],
                )
            }),
    );
}

#[test]
fn e11_batched_maintenance_counts_do_not_drift() {
    let rows = e11::quick_facts();
    assert_eq!(rows.len(), 5, "batch sizes 1, 4, 16, 64 and 256");
    gate(
        include_str!("../baselines/e11_quick.json"),
        rows.iter().flat_map(|r| {
            keyed(
                &format!("b{}", r.batch_size),
                [
                    ("ops", r.ops as u64),
                    ("consolidated_ops", r.consolidated_ops as u64),
                    ("seq_accesses", r.seq_accesses),
                    ("batch_accesses", r.batch_accesses),
                    ("members", r.members as u64),
                ],
            )
        }),
    );
}
