//! E9 — ablation: label-index backward planning vs forward traversal
//! for query evaluation.
//!
//! The §4.4 inverse-index argument, applied to queries: a selective
//! final label lets the evaluator start from the label index and
//! verify upward, instead of walking the whole database from the
//! entry. Both strategies are asserted to return identical answers.

use crate::table::{fnum, Table};
use gsdb::{Object, Oid, Store};
use gsview_query::{evaluate, evaluate_planned, parse_query, SelStrategy};
use std::time::Instant;

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E9Row {
    /// Objects in the database.
    pub objects: usize,
    /// Matches of the selective label.
    pub matches: usize,
    /// Forward product states visited.
    pub forward_states: usize,
    /// Backward product states visited.
    pub backward_states: usize,
    /// Forward µs per query.
    pub forward_us: f64,
    /// Backward µs per query.
    pub backward_us: f64,
}

/// A three-level store: root → groups → items → leaf atoms; one leaf
/// in `rare_every` carries the label `rare`.
fn build(groups: usize, per_group: usize, rare_every: usize) -> (Store, usize) {
    let mut s = Store::new();
    let mut group_oids = Vec::with_capacity(groups);
    let mut rare = 0usize;
    for g in 0..groups {
        let mut items = Vec::with_capacity(per_group);
        for i in 0..per_group {
            let idx = g * per_group + i;
            let leaf = Oid::new(&format!("e9l{idx}"));
            let label = if idx.is_multiple_of(rare_every) {
                rare += 1;
                "rare"
            } else {
                "common"
            };
            s.create(Object::atom(leaf.name(), label, idx as i64))
                .expect("fresh");
            let item = Oid::new(&format!("e9i{idx}"));
            s.create(Object::set(item.name(), "item", &[leaf]))
                .expect("fresh");
            items.push(item);
        }
        let group = Oid::new(&format!("e9g{g}"));
        s.create(Object::set(group.name(), "group", &items))
            .expect("fresh");
        group_oids.push(group);
    }
    s.create(Object::set("E9ROOT", "root", &group_oids))
        .expect("fresh");
    (s, rare)
}

/// Measure one configuration (repeating the query to stabilize time).
pub fn measure(groups: usize, per_group: usize, rare_every: usize) -> E9Row {
    let (store, matches) = build(groups, per_group, rare_every);
    let q = parse_query("SELECT E9ROOT.*.rare X").expect("parse");
    let reps = 10;

    let t0 = Instant::now();
    let mut forward = None;
    for _ in 0..reps {
        forward = Some(evaluate(&store, &q).expect("forward"));
    }
    let forward = forward.expect("ran");
    let forward_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    let t0 = Instant::now();
    let mut backward = None;
    for _ in 0..reps {
        backward = Some(evaluate_planned(&store, &q).expect("backward"));
    }
    let (backward, strategy) = backward.expect("ran");
    let backward_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    assert!(
        matches!(strategy, SelStrategy::Backward { .. }),
        "planner must pick backward for the rare label"
    );
    assert_eq!(forward.oids, backward.oids, "strategies must agree");
    assert_eq!(forward.oids.len(), matches);

    E9Row {
        objects: store.len(),
        matches,
        forward_states: forward.stats.sel_states_visited,
        backward_states: backward.stats.sel_states_visited,
        forward_us,
        backward_us,
    }
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let configs: &[(usize, usize, usize)] = if quick {
        &[(20, 20, 100), (50, 40, 100)]
    } else {
        &[
            (20, 20, 100),
            (50, 40, 100),
            (100, 100, 100),
            (200, 250, 100),
            (200, 250, 10),
            (200, 250, 10_000),
        ]
    };
    let mut t = Table::new(
        "E9",
        "ablation: forward traversal vs label-index backward planning (query `ROOT.*.rare`)",
        "a selective final label turns whole-database traversal into per-candidate upward checks",
    )
    .headers(&[
        "objects",
        "matches",
        "fwd states",
        "bwd states",
        "state ratio",
        "fwd us",
        "bwd us",
    ]);
    for &(g, p, rare_every) in configs {
        let r = measure(g, p, rare_every);
        t.row(vec![
            r.objects.to_string(),
            r.matches.to_string(),
            r.forward_states.to_string(),
            r.backward_states.to_string(),
            format!(
                "{}x",
                fnum(r.forward_states as f64 / r.backward_states.max(1) as f64)
            ),
            fnum(r.forward_us),
            fnum(r.backward_us),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_wins_on_selective_labels() {
        let r = measure(50, 40, 100);
        assert!(
            r.backward_states * 5 < r.forward_states,
            "backward {} vs forward {}",
            r.backward_states,
            r.forward_states
        );
    }

    #[test]
    fn gap_grows_with_selectivity() {
        // Forward cost is fixed by database size; backward cost tracks
        // the number of matches, so rarer labels widen the gap.
        let common = measure(50, 40, 40);
        let rare = measure(50, 40, 1000);
        let common_ratio = common.forward_states as f64 / common.backward_states.max(1) as f64;
        let rare_ratio = rare.forward_states as f64 / rare.backward_states.max(1) as f64;
        assert!(
            rare_ratio > common_ratio * 2.0,
            "rare {rare_ratio:.0}x vs common {common_ratio:.0}x"
        );
    }
}
