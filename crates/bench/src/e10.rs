//! E10 — ablation: materialization depth and the locality of view
//! queries.
//!
//! §3.2 motivates both swizzling ("may enhance query performance by
//! allowing local access to the referenced objects") and §6's
//! partially materialized views ("materialize a few levels of objects
//! and leave the rest as pointers back to base data"). This ablation
//! quantifies the spectrum for the query "ages of all view members":
//!
//! * **virtual** — no materialization; the query runs on base data;
//! * **materialized (members only)** — members are local, but their
//!   children are base OIDs, so every age lookup goes back to base;
//! * **partial depth 1** — members and their children are copied;
//!   the query is fully local.
//!
//! "Remote" cost is base-store accesses; "local" cost is view-store
//! accesses.

use crate::table::{fnum, Table};
use gsdb::{path, Path};
use gsview_core::{recompute, LocalBase, PartialView, SimpleViewDef};
use gsview_query::{CmpOp, Pred};
use gsview_workload::{relations, RelationsSpec};

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct E10Row {
    /// View members.
    pub members: usize,
    /// Configuration name.
    pub config: &'static str,
    /// Base (remote) accesses per query.
    pub base_accesses: u64,
    /// View-store (local) accesses per query.
    pub view_accesses: u64,
}

fn def() -> SimpleViewDef {
    SimpleViewDef::new("E10V", "REL", "r0.tuple").with_cond("age", Pred::new(CmpOp::Gt, 30i64))
}

/// Run the three configurations for one database size.
fn measure(tuples: usize) -> Vec<E10Row> {
    let spec = RelationsSpec {
        relations: 1,
        tuples_per_relation: tuples,
        extra_fields: 2,
        age_range: 60,
        seed: 77,
    };
    let (store, _db) = relations::generate(spec, gsdb::StoreConfig::default()).expect("generate");
    store.set_count_accesses(true);
    let d = def();
    let age = Path::parse("age");
    let mut rows = Vec::new();

    // Virtual: evaluate the members *and* their ages on base data.
    store.reset_accesses();
    let members = recompute::recompute_members(&d, &mut LocalBase::new(&store));
    let mut ages = 0usize;
    for &m in &members {
        ages += path::reach(&store, m, &age).len();
    }
    rows.push(E10Row {
        members: members.len(),
        config: "virtual (no materialization)",
        base_accesses: store.accesses(),
        view_accesses: 0,
    });
    assert_eq!(ages, members.len());

    // Materialized members only: member list is local; each age lookup
    // follows the base OIDs in the delegate's value.
    let mv = recompute::recompute(&d, &mut LocalBase::new(&store)).expect("materialize");
    store.reset_accesses();
    mv.store().set_count_accesses(true);
    mv.store().reset_accesses();
    let mut ages = 0usize;
    for m in mv.members_base() {
        let delegate = mv.delegate_of(m).expect("member");
        let obj = mv.delegate(delegate).expect("delegate");
        for &c in obj.children() {
            // Children are base OIDs: resolving labels/values is a
            // base (remote) access.
            if store.label(c).map(|l| l.as_str() == "age").unwrap_or(false) {
                let _ = store.atom(c);
                ages += 1;
            }
        }
    }
    rows.push(E10Row {
        members: mv.len(),
        config: "materialized, members only",
        base_accesses: store.accesses(),
        view_accesses: mv.store().accesses(),
    });
    assert_eq!(ages, mv.len());

    // Partial depth 1: children copied; fully local.
    let pv = PartialView::materialize(d, 1, &mut LocalBase::new(&store)).expect("partial");
    store.reset_accesses();
    pv.store().set_count_accesses(true);
    pv.store().reset_accesses();
    let mut ages = 0usize;
    for m in pv.members() {
        let delegate = pv.delegate_of(m).expect("member");
        let obj = pv.store().get(delegate).expect("delegate");
        for &c in obj.children() {
            if pv
                .store()
                .label(c)
                .map(|l| l.as_str() == "age")
                .unwrap_or(false)
            {
                let _ = pv.store().atom(c);
                ages += 1;
            }
        }
    }
    rows.push(E10Row {
        members: pv.members().len(),
        config: "partial, depth 1 (copied children)",
        base_accesses: store.accesses(),
        view_accesses: pv.store().accesses(),
    });
    assert_eq!(ages, pv.members().len());
    rows
}

/// The quick-mode rows (200 tuples), for the count gate
/// (`tests/paper_claims_smoke.rs`).
pub fn quick_facts() -> Vec<E10Row> {
    measure(200)
}

/// Run the sweep.
pub fn run(quick: bool) -> Table {
    let sizes: &[usize] = if quick { &[200] } else { &[200, 2_000, 10_000] };
    let mut t = Table::new(
        "E10",
        "ablation: query locality vs materialization depth (query: members' ages)",
        "deeper materialization trades copy size for zero remote accesses at query time",
    )
    .headers(&[
        "tuples",
        "members",
        "configuration",
        "base acc/query",
        "view acc/query",
    ]);
    for &n in sizes {
        for r in measure(n) {
            t.row(vec![
                n.to_string(),
                r.members.to_string(),
                r.config.to_string(),
                fnum(r.base_accesses as f64),
                fnum(r.view_accesses as f64),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_spectrum_holds() {
        let rows = measure(300);
        let virtual_base = rows[0].base_accesses;
        let members_only_base = rows[1].base_accesses;
        let partial_base = rows[2].base_accesses;
        assert!(
            members_only_base < virtual_base,
            "members-only {members_only_base} should beat virtual {virtual_base}"
        );
        assert_eq!(partial_base, 0, "depth-1 partial view is fully local");
        assert!(rows[2].view_accesses > 0);
        // All three answer over the same membership.
        assert_eq!(rows[0].members, rows[1].members);
        assert_eq!(rows[1].members, rows[2].members);
    }
}
