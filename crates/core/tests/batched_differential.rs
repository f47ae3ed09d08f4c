//! Property-based differential tests: over random bases and random
//! update runs, incremental (Algorithm 1), batched
//! ([`Maintainer::apply_batch`]) and from-scratch recompute must land
//! on identical views — for simple, multi-path, and wildcard
//! definitions.
//!
//! Generation keeps the base a forest (one parent per object) so every
//! route faces the paper's tree-shaped setting; runs reparent subtrees,
//! detach and re-attach whole branches, and churn atom values; the
//! wildcard leg also removes detached records. One more wildcard leg
//! wires its base at random — shared objects, cycles, dangling edges —
//! where maintenance joins the walks and stays local all the same.

use gsdb::{DeltaBatch, Object, Oid, Store, Update};
use gsview_core::{
    GeneralMaintainer, GeneralViewDef, LocalBase, Maintainer, MaterializedView, SimpleViewDef,
};
use gsview_query::pathexpr::PathExpr;
use gsview_query::{CmpOp, Pred};
use gsview_testkit::oracle::{assert_equivalent, assert_parallel_equivalent};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn oid(s: &str) -> Oid {
    Oid::new(s)
}

/// A generated base and the objects a run can pick from.
struct Base {
    store: Store,
    edges: Vec<(Oid, Oid)>,
    /// Set objects (possible hosts), `ROOT` first.
    sets: Vec<Oid>,
    /// Age atoms a run modifies.
    atoms: Vec<Oid>,
}

/// A dept/professor/student base — professor `P<p>` hangs under
/// `G<p % n_dept>` (label `dept`), or under `ROOT` when `n_dept` is 0 —
/// plus a few detached subtrees the run can attach anywhere: `F0` (a
/// spare professor), `E0`/`E1` (spare students), `D0`..`D2` (spare age
/// atoms).
fn build_campus(n_dept: usize, n_prof: usize, studs_per_prof: usize, ages: &[i64]) -> Base {
    let mut s = Store::new();
    let mut edges = Vec::new();
    let mut sets = vec![oid("ROOT")];
    let mut atoms = Vec::new();
    let mut age_i = 0usize;
    let mut next_age = |s: &mut Store, name: String| {
        let v = ages[age_i % ages.len()];
        age_i += 1;
        s.create(Object::atom(name.as_str(), "age", v)).unwrap();
        Oid::new(&name)
    };
    let mut set_under = |s: &mut Store, parent: Option<&str>, name: &str, label: &str| {
        s.create(Object::empty_set(name, label)).unwrap();
        sets.push(oid(name));
        if let Some(parent) = parent {
            s.insert_edge(oid(parent), oid(name)).unwrap();
            edges.push((oid(parent), oid(name)));
        }
    };
    s.create(Object::empty_set("ROOT", "db")).unwrap();
    for g in 0..n_dept {
        set_under(&mut s, Some("ROOT"), &format!("G{g}"), "dept");
    }
    for p in 0..n_prof {
        let prof = format!("P{p}");
        let host = if n_dept == 0 {
            "ROOT".to_owned()
        } else {
            format!("G{}", p % n_dept)
        };
        set_under(&mut s, Some(&host), &prof, "professor");
        for t in 0..studs_per_prof {
            set_under(&mut s, Some(&prof), &format!("P{p}S{t}"), "student");
        }
    }
    // Detached spares.
    set_under(&mut s, None, "F0", "professor");
    set_under(&mut s, None, "E0", "student");
    set_under(&mut s, None, "E1", "student");
    // One age atom under every professor and student.
    for &host in &sets[1 + n_dept..] {
        let a = next_age(&mut s, format!("{host}a"));
        s.insert_edge(host, a).unwrap();
        edges.push((host, a));
        atoms.push(a);
    }
    for d in 0..3 {
        next_age(&mut s, format!("D{d}"));
    }
    Base {
        store: s,
        edges,
        sets,
        atoms,
    }
}

/// Raw op tuples → a concrete update run that keeps the base a forest:
/// inserts only attach currently-parentless objects, deletes pick from
/// the live edge set, modifies hit age atoms. With `removes`, a fourth
/// kind removes the record of a parentless object other than `ROOT`
/// and the departments (the views' roots); what hung under it stays,
/// parentless.
fn realize_ops(raw: &[(u8, usize, usize, i64)], base: &Base, removes: bool) -> Vec<Update> {
    let mut parents = base.sets.clone();
    let mut atoms = base.atoms.clone();
    let mut attachable: Vec<Oid> = (0..3).map(|d| oid(&format!("D{d}"))).collect();
    let initial_edges = &base.edges;
    // Forest shadow: child → parent, plus the live edge list.
    let mut parent_of: HashMap<Oid, Oid> = HashMap::new();
    let mut edges: Vec<(Oid, Oid)> = initial_edges.to_vec();
    for &(p, c) in initial_edges {
        parent_of.insert(c, p);
    }

    let mut out = Vec::new();
    for &(kind, a, b, v) in raw {
        match kind % if removes { 4 } else { 3 } {
            0 => {
                // Attach a parentless object somewhere.
                let orphans: Vec<Oid> = attachable
                    .iter()
                    .chain(parents.iter())
                    .chain(atoms.iter())
                    .filter(|o| **o != oid("ROOT") && !parent_of.contains_key(o))
                    .copied()
                    .collect();
                if orphans.is_empty() {
                    continue;
                }
                let child = orphans[b % orphans.len()];
                // Never attach below the child's own subtree (keeps the
                // shadow a forest): exclude its descendants.
                let mut blocked: HashSet<Oid> = HashSet::new();
                blocked.insert(child);
                loop {
                    let grew = edges
                        .iter()
                        .filter(|(p, c)| blocked.contains(p) && !blocked.contains(c))
                        .map(|&(_, c)| c)
                        .collect::<Vec<_>>();
                    if grew.is_empty() {
                        break;
                    }
                    blocked.extend(grew);
                }
                let hosts: Vec<Oid> = parents
                    .iter()
                    .filter(|p| !blocked.contains(p))
                    .copied()
                    .collect();
                if hosts.is_empty() {
                    continue;
                }
                let parent = hosts[a % hosts.len()];
                parent_of.insert(child, parent);
                edges.push((parent, child));
                out.push(Update::Insert { parent, child });
            }
            1 => {
                // Delete a live edge.
                if edges.is_empty() {
                    continue;
                }
                let (parent, child) = edges.remove(a % edges.len());
                parent_of.remove(&child);
                out.push(Update::Delete { parent, child });
            }
            2 => {
                if atoms.is_empty() {
                    continue;
                }
                let target = atoms[a % atoms.len()];
                out.push(Update::Modify {
                    oid: target,
                    new: gsdb::Atom::Int(v),
                });
            }
            _ => {
                let pinned = |o: &Oid| *o == oid("ROOT") || o.name().starts_with('G');
                let orphans: Vec<Oid> = attachable
                    .iter()
                    .chain(parents.iter())
                    .chain(atoms.iter())
                    .filter(|o| !pinned(o) && !parent_of.contains_key(o))
                    .copied()
                    .collect();
                if orphans.is_empty() {
                    continue;
                }
                let gone = orphans[a % orphans.len()];
                for list in [&mut attachable, &mut parents, &mut atoms] {
                    list.retain(|&o| o != gone);
                }
                edges.retain(|&(p, c)| {
                    if p == gone {
                        parent_of.remove(&c);
                    }
                    p != gone
                });
                out.push(Update::Remove { oid: gone });
            }
        }
    }
    out
}

fn raw_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, i64)>> {
    prop::collection::vec((0..6u8, 0..64usize, 0..64usize, 0..80i64), 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Simple one-hop view with a condition (the paper's Example 2).
    #[test]
    fn simple_view_routes_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let base = build_campus(0, n_prof, studs, &ages);
        let updates = realize_ops(&raw, &base, false);
        let store = base.store;
        let def = SimpleViewDef::new("V", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        assert_equivalent(&def, &store, &updates);
    }

    /// Multi-hop selection path with a condition below it.
    #[test]
    fn multi_path_view_routes_agree(
        (n_prof, studs) in (1..4usize, 1..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
    ) {
        let base = build_campus(0, n_prof, studs, &ages);
        let updates = realize_ops(&raw, &base, false);
        let store = base.store;
        let def = SimpleViewDef::new("VS", "ROOT", "professor.student")
            .with_cond("age", Pred::new(CmpOp::Gt, 20i64));
        assert_equivalent(&def, &store, &updates);
        // And the unconditioned variant (membership only on the path).
        let bare = SimpleViewDef::new("VB", "ROOT", "professor.student");
        assert_equivalent(&bare, &store, &updates);
    }

    /// Wildcard views (§6): GeneralMaintainer sequential vs batched vs
    /// recompute, with the script cut into 1–4 batches. The run moves
    /// whole subtrees (a student to another professor, a professor to
    /// another department or out of every view's region) and removes
    /// detached records, some in the batch that detached them. After
    /// every batch each view — membership and delegate values — is
    /// what recomputation gives, and the reported changes are the set
    /// difference.
    #[test]
    fn wildcard_view_routes_agree(
        (n_dept, n_prof, studs) in (1..3usize, 1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        cuts in prop::collection::vec(0..256usize, 0..4),
    ) {
        let base = build_campus(n_dept, n_prof, studs, &ages);
        let updates = realize_ops(&raw, &base, true);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (updates.len() + 1)).collect();
        cuts.push(updates.len());
        cuts.sort_unstable();

        let pe = |e: &str| PathExpr::parse(e).unwrap();
        let defs = [
            GeneralViewDef::new("W0", "ROOT", pe("*")),
            GeneralViewDef::new("W1", "ROOT", pe("*.student"))
                .with_cond(pe("age"), Pred::new(CmpOp::Gt, 10i64)),
            GeneralViewDef::new("W2", "ROOT", pe("?.student")),
            GeneralViewDef::new("W3", "ROOT", pe("*.student"))
                .with_cond(pe("*.age"), Pred::new(CmpOp::Gt, 40i64)),
            GeneralViewDef::new("W4", "G0", pe("?.student"))
                .with_cond(pe("age"), Pred::new(CmpOp::Le, 40i64)),
        ];
        let mut store = base.store;
        let mut views: Vec<_> = defs
            .into_iter()
            .map(|def| {
                let m = GeneralMaintainer::new(def);
                let mv = m.recompute(&store).unwrap();
                (mv.clone(), mv, m)
            })
            .collect();

        let mut start = 0;
        for cut in cuts {
            let mut batch = DeltaBatch::new();
            for u in &updates[start..cut] {
                if let Ok(applied) = store.apply(u.clone()) {
                    for (mv_seq, _, m) in &mut views {
                        m.apply(mv_seq, &store, &applied).unwrap();
                    }
                    batch.push(applied);
                }
            }
            start = cut;
            for (mv_seq, mv, m) in &mut views {
                let view = m.def().view;
                let before: HashSet<Oid> = mv.members_base().into_iter().collect();
                let out = m.apply_batch(mv, &store, &batch).unwrap();
                let want = m.recompute(&store).unwrap();
                prop_assert_eq!(mv.members_base(), want.members_base(), "{} batched", view);
                prop_assert_eq!(mv_seq.members_base(), want.members_base(), "{} sequential", view);
                for y in mv.members_base() {
                    let copy = |v: &MaterializedView| v.delegate(v.delegate_of(y).unwrap()).cloned();
                    prop_assert_eq!(copy(mv), copy(&want), "{} delegate of {}", view, y);
                    prop_assert_eq!(copy(mv_seq), copy(&want), "{} delegate of {}", view, y);
                }
                let after: HashSet<Oid> = want.members_base().into_iter().collect();
                let sorted = |mut d: Vec<Oid>| {
                    d.sort_by_key(|o| o.name());
                    d
                };
                prop_assert_eq!(&out.inserted, &sorted(after.difference(&before).copied().collect()));
                prop_assert_eq!(&out.deleted, &sorted(before.difference(&after).copied().collect()));
            }
        }
    }

    /// Wildcard views over bases that are *not* forests: eight sets
    /// and four age atoms wired at random, so objects are shared,
    /// cycles close (under the root or detached from it) and records
    /// are removed from under their parents. After every batch, batched
    /// and sequential maintenance are what recomputation gives.
    #[test]
    fn wildcard_views_over_shared_and_cyclic_bases_agree(
        wiring in prop::collection::vec((0..9usize, 1..13usize), 0..16),
        raw in prop::collection::vec((0..8u8, 0..9usize, 1..13usize, 0..80i64), 1..40),
        cuts in prop::collection::vec(0..64usize, 0..4),
    ) {
        let node = |i: usize| match i {
            0 => oid("ROOT"),
            1..=8 => oid(&format!("N{i}")),
            _ => oid(&format!("V{i}")),
        };
        let mut store = Store::new();
        store.create(Object::empty_set("ROOT", "db")).unwrap();
        for i in 1..=8 {
            store.create(Object::empty_set(node(i).name(), ["a", "b", "a", "c"][i % 4])).unwrap();
        }
        for i in 9..13 {
            store.create(Object::atom(node(i).name(), "age", 10 * i as i64)).unwrap();
        }
        for &(p, c) in &wiring {
            let _ = store.insert_edge(node(p), node(c));
        }
        let updates: Vec<Update> = raw
            .iter()
            .map(|&(kind, p, c, v)| match kind {
                0..=2 => Update::Insert { parent: node(p), child: node(c) },
                3..=4 => Update::Delete { parent: node(p), child: node(c) },
                5..=6 => Update::Modify { oid: node(9 + c % 4), new: gsdb::Atom::Int(v) },
                // Never the roots of the views below.
                _ => Update::Remove { oid: node(2 + c % 11) },
            })
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (updates.len() + 1)).collect();
        cuts.push(updates.len());
        cuts.sort_unstable();

        let pe = |e: &str| PathExpr::parse(e).unwrap();
        let defs = [
            GeneralViewDef::new("X0", "ROOT", pe("*")),
            GeneralViewDef::new("X1", "ROOT", pe("*.a"))
                .with_cond(pe("*.age"), Pred::new(CmpOp::Gt, 40i64)),
            GeneralViewDef::new("X2", "ROOT", pe("?.b"))
                .with_cond(pe("age"), Pred::new(CmpOp::Le, 100i64)),
            GeneralViewDef::new("X3", "N1", pe("*.a.*")),
        ];
        let mut views: Vec<_> = defs
            .into_iter()
            .map(|def| {
                let m = GeneralMaintainer::new(def);
                let mv = m.recompute(&store).unwrap();
                (mv.clone(), mv, m)
            })
            .collect();

        let mut start = 0;
        for cut in cuts {
            let mut batch = DeltaBatch::new();
            for u in &updates[start..cut] {
                if let Ok(applied) = store.apply(u.clone()) {
                    for (mv_seq, _, m) in &mut views {
                        m.apply(mv_seq, &store, &applied).unwrap();
                    }
                    batch.push(applied);
                }
            }
            start = cut;
            for (mv_seq, mv, m) in &mut views {
                let view = m.def().view;
                m.apply_batch(mv, &store, &batch).unwrap();
                let want = m.recompute(&store).unwrap();
                prop_assert_eq!(mv.members_base(), want.members_base(), "{} batched", view);
                prop_assert_eq!(mv_seq.members_base(), want.members_base(), "{} sequential", view);
                for y in mv.members_base() {
                    let copy = |v: &MaterializedView| v.delegate(v.delegate_of(y).unwrap()).cloned();
                    prop_assert_eq!(copy(mv), copy(&want), "{} delegate of {}", view, y);
                    prop_assert_eq!(copy(mv_seq), copy(&want), "{} delegate of {}", view, y);
                }
            }
        }
    }

    /// Shuffled delivery: two interleavings of the same op set, applied
    /// as batches, consolidate to the same view (the repair phase makes
    /// the batch order-independent given the same final base).
    #[test]
    fn batch_result_depends_only_on_final_state(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..5),
        raw in raw_ops(),
        split in 0..64usize,
    ) {
        let base = build_campus(0, n_prof, studs, &ages);
        let updates = realize_ops(&raw, &base, false);
        let initial = base.store;
        let def = SimpleViewDef::new("V", "ROOT", "professor")
            .with_cond("age", Pred::new(CmpOp::Le, 45i64));
        let plan = Maintainer::new(def.clone());

        // One big flush vs two flushes split at an arbitrary point.
        let run = |cuts: &[usize]| {
            let mut store = initial.clone();
            let mut mv = gsview_core::recompute::recompute(
                &def, &mut LocalBase::new(&store)).unwrap();
            let mut start = 0usize;
            for &cut in cuts.iter().chain(std::iter::once(&updates.len())) {
                let mut batch = DeltaBatch::new();
                for u in &updates[start..cut] {
                    if let Ok(applied) = store.apply(u.clone()) {
                        batch.push(applied);
                    }
                }
                plan.apply_batch(&mut mv, &mut LocalBase::new(&store), &batch).unwrap();
                start = cut;
            }
            mv.members_base()
        };
        let cut = split % (updates.len() + 1);
        prop_assert_eq!(run(&[]), run(&[cut]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Parallel multi-view maintenance over partitioned deltas must
    /// agree with sequential Algorithm 1, the batched maintainer, and
    /// full recomputation — for every view in a mixed portfolio
    /// (different roots, depths, with and without conditions) and at
    /// every thread count. A partition rule that wrongly screens a
    /// delta away from a view diverges here.
    #[test]
    fn parallel_multi_view_routes_agree(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..80i64, 1..6),
        raw in raw_ops(),
        threads in 1..9usize,
    ) {
        let base = build_campus(0, n_prof, studs, &ages);
        let updates = realize_ops(&raw, &base, false);
        let store = base.store;
        let defs = vec![
            SimpleViewDef::new("V", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Le, 45i64)),
            SimpleViewDef::new("VS", "ROOT", "professor.student")
                .with_cond("age", Pred::new(CmpOp::Gt, 20i64)),
            SimpleViewDef::new("VB", "ROOT", "professor.student"),
            // Rooted below ROOT: exercises the ancestry screen.
            SimpleViewDef::new("PV", "P0", "student"),
        ];
        assert_parallel_equivalent(&defs, &store, &updates, threads);
    }
}

/// Ages on both sides of every threshold the screen's views test
/// (`≤ 45`, `> 20`, `> 60`), two or three to each run of equal verdicts.
const SCREEN_AGES: [i64; 8] = [19, 20, 21, 44, 45, 46, 60, 61];

/// The verdicts of the screen's three thresholds on an age.
fn verdicts(age: i64) -> (bool, bool, bool) {
    (age <= 45, age > 20, age > 60)
}

/// `run` with bounces spliced in: a bounce at position `at` modifies an
/// age atom to a value that flips some verdict, then to one with the
/// verdicts the atom held before — two modifies of one atom that net
/// to no flip (or to no change at all).
fn with_bounces(
    initial: &Store,
    run: &[Update],
    atoms: &[Oid],
    bounces: &[(usize, usize, usize, usize)],
) -> Vec<Update> {
    let mut sim = initial.clone();
    let mut out = Vec::new();
    for i in 0..=run.len() {
        for &(_, a, away, back) in bounces.iter().filter(|b| b.0 % (run.len() + 1) == i) {
            let atom = atoms[a % atoms.len()];
            let Some(&gsdb::Atom::Int(now)) = sim.atom(atom) else {
                continue;
            };
            let (same, other): (Vec<i64>, Vec<i64>) = SCREEN_AGES
                .iter()
                .partition(|&&v| verdicts(v) == verdicts(now));
            for v in [other[away % other.len()], same[back % same.len()]] {
                let u = Update::Modify {
                    oid: atom,
                    new: gsdb::Atom::Int(v),
                };
                sim.apply(u.clone()).unwrap();
                out.push(u);
            }
        }
        if let Some(u) = run.get(i) {
            let _ = sim.apply(u.clone());
            out.push(u.clone());
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The partition keeps a modify for a view only if it flips the
    /// view's condition. Over tree bases whose ages sit on both sides
    /// of every threshold, runs mixing inserts, cuts, single modifies
    /// and bounces (modifies of one atom that net to no flip), the
    /// parallel route at 1, 2, 4 and 8 threads must agree with
    /// sequential Algorithm 1, the batched maintainer and recompute
    /// for views with and without conditions, rooted at ROOT and below
    /// it. (`shared_walks` compares against lone views over the
    /// partitioned delta, so it cannot see a modify screened wrongly.)
    #[test]
    fn a_modify_that_flips_no_condition_is_screened_soundly(
        (n_prof, studs) in (1..4usize, 0..3usize),
        ages in prop::collection::vec(0..8usize, 1..6),
        raw in raw_ops(),
        bounces in prop::collection::vec((0..256usize, 0..64usize, 0..8usize, 0..8usize), 0..12),
    ) {
        let ages: Vec<i64> = ages.iter().map(|&i| SCREEN_AGES[i]).collect();
        let base = build_campus(0, n_prof, studs, &ages);
        let mut run = realize_ops(&raw, &base, false);
        for u in &mut run {
            if let Update::Modify { new: gsdb::Atom::Int(v), .. } = u {
                *v = SCREEN_AGES[*v as usize % SCREEN_AGES.len()];
            }
        }
        let updates = with_bounces(&base.store, &run, &base.atoms, &bounces);
        let le45 = || Pred::new(CmpOp::Le, 45i64);
        let defs = vec![
            SimpleViewDef::new("V", "ROOT", "professor").with_cond("age", le45()),
            SimpleViewDef::new("VO", "ROOT", "professor")
                .with_cond("age", Pred::new(CmpOp::Gt, 60i64)),
            SimpleViewDef::new("VS", "ROOT", "professor.student")
                .with_cond("age", Pred::new(CmpOp::Gt, 20i64)),
            SimpleViewDef::new("VB", "ROOT", "professor.student"),
            SimpleViewDef::new("PV", "P0", "student").with_cond("age", le45()),
        ];
        for threads in [1, 2, 4, 8] {
            assert_parallel_equivalent(&defs, &base.store, &updates, threads);
        }
    }
}
