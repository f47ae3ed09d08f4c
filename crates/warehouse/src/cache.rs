//! Warehouse-side caching of auxiliary information (paper §5.2).
//!
//! [`AuxCache`] realizes Example 10: "for a view whose select path
//! starts from object OBJ, say the warehouse caches all objects and
//! labels reachable from OBJ along `sel_path.cond_path`. Then the
//! warehouse can maintain the view locally, for any base update." The
//! cache is itself "simply another materialized view" and is kept up
//! to date from the source's update reports; when a report lacks the
//! data needed to keep the cached region complete (e.g. an inserted
//! professor's direct subobjects), the cache fetches exactly those
//! objects — the paper's partial-caching caveat.
//!
//! [`PathKnowledge`] realizes the section's closing idea: "knowledge of
//! paths that can never occur ... at the source", e.g. *student objects
//! never have a salary child*, which lets the warehouse discard reports
//! without any queries.
//!
//! The cached region is also what a warehouse view is *computed from*
//! whenever it is computed from scratch: [`AuxCache::build`] reads it
//! level by level (`full.len() + 1` questions, whatever the size of the
//! source) through whatever answers [`SourceQuery`]s — a source's
//! [`Channel`] or a reconstructed durable epoch — and set-up and heal
//! recompute, refresh and check over [`AuxCache::store`] locally. Over
//! a channel the wrapper answers from the source's latest **published
//! epoch**, so a level never contends with in-flight maintenance for
//! the store mutex. Completeness fetches during report upkeep go
//! through the same channel.

use crate::protocol::{SourceQuery, SourceReply, UpdateReport};
use crate::remote::{Asker, BatchAnswers, Channel};
use gsdb::{path, AppliedUpdate, Label, Object, Oid, Path, Store};
use gsview_query::Pred;
use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};

/// A cached copy of the base subgraph along `sel_path.cond_path`. A
/// clone shares the copy's pages and tables copy-on-write.
#[derive(Clone, Debug)]
pub struct AuxCache {
    root: Oid,
    full: Path,
    store: Store,
    /// Subtrees detached by a just-applied delete, kept until
    /// [`AuxCache::finalize_report`]: Algorithm 1's delete case still
    /// evaluates `eval(N2, p, cond)` over the detached subtree, so the
    /// cache must keep it (with its recorded pre-delete root path)
    /// through maintenance. Every cached object is reachable from the
    /// root between finalizations, so whatever a report (or a batch of
    /// them) turned into garbage lies below one of these tops.
    detached: HashMap<Oid, Option<Path>>,
    /// Queries issued to keep the cache complete (setup excluded).
    pub maintenance_queries: u64,
}

impl AuxCache {
    /// Read the region level by level: one root `Fetch` plus one
    /// `Reach` per prefix of `full`, put to `ask` — `|q| channel.serve(q)`
    /// over the wire, `|q| Some(answer(&store, q))` over a local store,
    /// or a memo handing out replies it keeps (hence `R`, anything that
    /// lends a reply).
    ///
    /// A question `ask` answers `None` leaves its level out; such a
    /// region is not a read of the source and must not be trusted for
    /// [`AuxCache::certainly_off_path`] answers — the caller watches
    /// [`Channel::exhausted`] across the build.
    pub fn build<R: Borrow<SourceReply>>(
        root: Oid,
        full: Path,
        ask: &mut dyn FnMut(&SourceQuery) -> Option<R>,
    ) -> AuxCache {
        let mut store = Store::new();
        // A create fails only on an OID the store already holds, so the
        // errors ignored below cannot occur on the empty store, and
        // within a level they mean an object the source reached twice
        // (a DAG): its first copy stays.
        let reply = ask(&SourceQuery::Fetch(root));
        if let Some(SourceReply::Object(Some(info))) = reply.as_ref().map(R::borrow) {
            let _ = store.create(info.to_object());
        }
        for depth in 1..=full.len() {
            let prefix = Path(full.labels()[..depth].to_vec());
            let reply = ask(&SourceQuery::Reach {
                n: root,
                p: prefix,
            });
            if let Some(SourceReply::Objects(infos)) = reply.as_ref().map(R::borrow) {
                // Every child a level's sets name, in the region or
                // dangling outside it, takes a parent-index entry.
                let children = infos
                    .iter()
                    .map(|i| i.value.as_set().map_or(0, |s| s.len()))
                    .sum();
                store.reserve_with_children(infos.len(), children);
                for info in infos {
                    let _ = store.create(info.to_object());
                }
            }
        }
        AuxCache {
            root,
            full,
            store,
            detached: HashMap::new(),
            maintenance_queries: 0,
        }
    }

    /// The region as a store: every object on a prefix of `full` below
    /// the root, each an exact copy (children outside the region stay
    /// as dangling OIDs). Evaluating `sel_path` / `cond_path` from the
    /// root over it gives what the source would.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The cached region's root.
    pub fn root(&self) -> Oid {
        self.root
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Is `n` in the cached region?
    pub fn covers(&self, n: Oid) -> bool {
        self.store.contains(n)
    }

    /// Does `rooted.l` extend along `full`? (I.e. is it a viable
    /// prefix position — the object belongs in the cached region.)
    fn extends(&self, rooted: &Path, l: Label) -> bool {
        rooted.len() < self.full.len()
            && self.full.labels()[..rooted.len()] == rooted.labels()[..]
            && self.full.labels()[rooted.len()] == l
    }

    /// Maintain the cache from one update report. Labels or subtree
    /// objects the report lacks come from the rest of its `batch` when
    /// it is part of one, else are fetched through `chan`, counting
    /// into [`AuxCache::maintenance_queries`].
    pub fn apply_report(
        &mut self,
        report: &UpdateReport,
        chan: &Channel,
        batch: Option<&BatchAnswers<'_>>,
    ) {
        let via = Asker {
            channel: chan,
            report: Some(report),
            batch,
        };
        match &report.update {
            AppliedUpdate::Modify { oid, new, .. } => {
                if self.store.contains(*oid) {
                    let _ = self.store.modify_atom(*oid, new.clone());
                }
            }
            AppliedUpdate::Insert { parent, child } => {
                if !self.store.contains(*parent) {
                    return;
                }
                // Pull the child (and its relevant descendants) into
                // the cached region when it extends the view path from
                // the parent's position.
                if let Some(rooted) = path::path_between(&self.store, self.root, *parent) {
                    if let Some(cl) = self.label_via(via, *child) {
                        if self.extends(&rooted, cl) {
                            let mut remaining = rooted.clone();
                            remaining.push(cl);
                            self.adopt(via, *child, remaining);
                        }
                    }
                }
                // Either way the parent's cached copy gains the edge:
                // copies are served by [`AuxCache::try_fetch`], so a
                // set copy must stay exact even when the child lies
                // outside the region — it is kept as a dangling OID,
                // exactly as `build` copies arrive.
                let _ = self.store.insert_edge_unchecked(*parent, *child);
            }
            AppliedUpdate::Delete { parent, child } => {
                if !self.store.contains(*parent) {
                    return;
                }
                if self.store.contains(*child) {
                    // Record the child's pre-delete root path so
                    // eval over the detached subtree stays answerable
                    // until finalize_report() collects it. The child
                    // may itself hang below an earlier detachment of
                    // the same batch; it is a top to collect below
                    // either way.
                    let pre_delete = self.rooted_of(*child);
                    self.detached.insert(*child, pre_delete);
                }
                // Drop the edge from the parent's copy whether or not
                // the child is in the region (it may be dangling).
                let _ = self.store.delete_edge(*parent, *child);
            }
            AppliedUpdate::Create { .. } | AppliedUpdate::Remove { .. } => {}
        }
    }

    /// Ensure `oid` (whose root path will be `rooted`) and all its
    /// descendants along `full` are cached.
    fn adopt(&mut self, via: Asker<'_>, oid: Oid, rooted: Path) {
        if self.store.contains(oid) {
            return;
        }
        let Some(obj) = self.fetch_via(via, oid) else {
            return;
        };
        let children: Vec<Oid> = obj.children().to_vec();
        // Absent (checked above), so the create cannot fail.
        let _ = self.store.create(obj);
        for c in children {
            if let Some(cl) = self.label_via(via, c) {
                if self.extends(&rooted, cl) {
                    let mut next = rooted.clone();
                    next.push(cl);
                    self.adopt(via, c, next);
                }
            }
        }
    }

    fn label_via(&mut self, via: Asker<'_>, oid: Oid) -> Option<Label> {
        if let Some(info) = via.reported(oid) {
            return Some(info.label);
        }
        if let Some(l) = self.store.label(oid) {
            return Some(l);
        }
        self.maintenance_queries += 1;
        match via.ask(&SourceQuery::LabelOf(oid)) {
            Some(SourceReply::LabelResult(l)) => l,
            _ => None,
        }
    }

    fn fetch_via(&mut self, via: Asker<'_>, oid: Oid) -> Option<Object> {
        if let Some(info) = via.reported(oid) {
            return Some(info.to_object());
        }
        self.maintenance_queries += 1;
        match via.ask(&SourceQuery::Fetch(oid)) {
            Some(SourceReply::Object(Some(info))) => Some(info.to_object()),
            _ => None,
        }
    }

    /// Evict what the reports just maintained turned into garbage: the
    /// part of each detached subtree that nothing reachable from the
    /// root points at any more (paper §4.1's "if no objects point to N2
    /// any more"). Costs the detached subtrees, not the cache. Call
    /// after Algorithm 1 has processed the triggering update(s).
    pub fn finalize_report(&mut self) {
        if self.detached.is_empty() {
            return;
        }
        let _span = gsview_obs::span!("warehouse.cache.finalize", "tops" = self.detached.len());
        let tops: Vec<Oid> = self.detached.drain().map(|(top, _)| top).collect();
        let evicted = gsdb::gc::collect_below(&mut self.store, self.root, &tops).len();
        gsview_obs::registry()
            .counter("warehouse.cache.evicted")
            .add(evicted as u64);
        gsview_obs::event!("warehouse.cache.finalize.done", "evicted" = evicted);
    }

    /// The root path of `n`, looking through just-detached subtrees.
    fn rooted_of(&self, n: Oid) -> Option<Path> {
        if let Some(p) = path::path_between(&self.store, self.root, n) {
            return Some(p);
        }
        // n may live inside a detached subtree: root path = recorded
        // path of the detachment point + path within the subtree.
        for (&top, top_path) in &self.detached {
            let Some(top_path) = top_path else { continue };
            if let Some(rest) = path::path_between(&self.store, top, n) {
                return Some(top_path.concat(&rest));
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Local (query-free) answers for Algorithm 1's functions
    // ------------------------------------------------------------------

    /// `path(root, n)` from the cache, if `n` is cached (including
    /// just-detached subtrees, which report their pre-delete path).
    pub fn try_path_from_root(&self, n: Oid) -> Option<Path> {
        if !self.covers(n) {
            return None;
        }
        self.rooted_of(n)
    }

    /// `path(root, n)` once every report applied so far has taken
    /// effect: `n`'s path in the cached region, or `None` when `n` is
    /// not in it — a subtree a report just detached included, which
    /// [`AuxCache::try_path_from_root`] still places at its pre-delete
    /// path. What a batch, maintained against the state at its end, must
    /// be told.
    pub(crate) fn path_at_end(&self, n: Oid) -> Option<Path> {
        if !self.covers(n) {
            return None;
        }
        path::path_between(&self.store, self.root, n)
    }

    /// The cache is *complete* along `sel_path.cond_path`: it holds
    /// every object whose root path is a prefix position of the view
    /// path. On a tree-structured base (where root paths are unique),
    /// an object **not** in the cache therefore has no root path that
    /// Algorithm 1's location test could match — the warehouse may
    /// reject the update locally, with no source query (Example 10:
    /// "view maintenance corresponding to any base update can be done
    /// locally"). Returns true when `n`'s irrelevance is certain.
    pub fn certainly_off_path(&self, n: Oid) -> bool {
        !self.covers(n)
    }

    /// `ancestor(n, p)` from the cache.
    pub fn try_ancestor(&self, n: Oid, p: &Path) -> Option<Oid> {
        if !self.covers(n) {
            return None;
        }
        path::ancestor(&self.store, n, p)
    }

    /// `eval(n, p, pred)` from the cache, if the region under `n`
    /// along `p` lies inside the cached region (so the local answer is
    /// complete). Just-detached subtrees remain answerable until
    /// [`AuxCache::finalize_report`].
    pub fn try_eval(&self, n: Oid, p: &Path, pred: Option<&Pred>) -> Option<Vec<Oid>> {
        if !self.covers(n) {
            return None;
        }
        let rooted = self.rooted_of(n)?;
        // The whole of n.p must lie along full for completeness.
        let end = rooted.len() + p.len();
        if end > self.full.len()
            || self.full.labels()[..rooted.len()] != rooted.labels()[..]
            || self.full.labels()[rooted.len()..end] != p.labels()[..]
        {
            return None;
        }
        Some(match pred {
            Some(pr) => path::eval(&self.store, n, p, &|a| pr.eval(a)),
            None => path::reach(&self.store, n, p),
        })
    }

    /// Label from the cache.
    pub fn try_label(&self, n: Oid) -> Option<Label> {
        self.store.label(n)
    }

    /// Object copy from the cache. Copies are exact for the *whole*
    /// value: [`AuxCache::apply_report`] mirrors every reported edge
    /// that touches a cached parent — including edges whose far end
    /// lies outside the cached region, kept as dangling OIDs just as
    /// `build` copies arrive — so a cached set's child list matches
    /// the source as of the last applied report, and an atom's value
    /// is kept exact by modify upkeep.
    pub fn try_fetch(&self, n: Oid) -> Option<Object> {
        self.store.get(n).cloned()
    }
}

/// Schema-like knowledge of impossible paths (paper §5.2 closing
/// paragraph): pairs `(parent_label, child_label)` that never occur at
/// the source.
#[derive(Clone, Debug, Default)]
pub struct PathKnowledge {
    never_child: HashSet<(Label, Label)>,
}

impl PathKnowledge {
    /// No knowledge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that objects labeled `parent` never have a child labeled
    /// `child`.
    pub fn assert_never_child(&mut self, parent: impl Into<Label>, child: impl Into<Label>) {
        self.never_child.insert((parent.into(), child.into()));
    }

    /// Can this label path occur at the source?
    pub fn path_possible(&self, p: &Path) -> bool {
        p.labels()
            .windows(2)
            .all(|w| !self.never_child.contains(&(w[0], w[1])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CostMeter, ReportLevel};
    use crate::source::Source;
    use gsdb::{samples, Update};
    use gsview_query::{CmpOp, Pred};
    use std::sync::Arc;

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn person_source(level: ReportLevel) -> Source {
        let src = Source::empty("persons", oid("ROOT"), level);
        src.with_store(|s| samples::person_db(s).map(|_| ())).unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src
    }

    fn chan(src: &Source, meter: Arc<CostMeter>) -> Channel {
        Channel::direct(src.wrapper(meter))
    }

    #[test]
    fn build_caches_the_full_path_region() {
        // Example 10's cache: ROOT, professors, and their age atoms.
        let src = person_source(ReportLevel::WithValues);
        let w = chan(&src, Arc::new(CostMeter::new()));
        let cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        assert!(cache.covers(oid("ROOT")));
        assert!(cache.covers(oid("P1")));
        assert!(cache.covers(oid("P2")));
        assert!(cache.covers(oid("A1")));
        // Not along professor.age:
        assert!(!cache.covers(oid("P4")));
        assert!(!cache.covers(oid("N1")));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn local_answers_from_cache() {
        let src = person_source(ReportLevel::WithValues);
        let w = chan(&src, Arc::new(CostMeter::new()));
        let cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        assert_eq!(
            cache.try_path_from_root(oid("A1")),
            Some(Path::parse("professor.age"))
        );
        assert_eq!(
            cache.try_ancestor(oid("A1"), &Path::parse("age")),
            Some(oid("P1"))
        );
        let le45 = Pred::new(CmpOp::Le, 45i64);
        assert_eq!(
            cache.try_eval(oid("P1"), &Path::parse("age"), Some(&le45)),
            Some(vec![oid("A1")])
        );
        // Outside the region: no (complete) local answer.
        assert_eq!(cache.try_eval(oid("P1"), &Path::parse("name"), Some(&le45)), None);
        assert!(cache.try_path_from_root(oid("N1")).is_none());
    }

    #[test]
    fn modify_and_delete_maintain_cache_without_queries() {
        let src = person_source(ReportLevel::WithValues);
        let meter = Arc::new(CostMeter::new());
        let w = chan(&src, meter.clone());
        let mut cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        meter.reset();

        src.apply(Update::modify("A1", 50i64)).unwrap();
        let reports = src.monitor().poll();
        for r in &reports {
            cache.apply_report(r, &w, None);
        }
        assert_eq!(cache.store.atom(oid("A1")), Some(&gsdb::Atom::Int(50)));

        src.apply(Update::delete("ROOT", "P1")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
            // Mid-report, the detached subtree is still answerable.
            assert!(cache.try_eval(oid("P1"), &Path::parse("age"), None).is_some());
            cache.finalize_report();
        }
        assert!(!cache.covers(oid("P1")), "detached region collected");
        assert!(!cache.covers(oid("A1")));
        assert_eq!(cache.maintenance_queries, 0);
        assert_eq!(meter.queries(), 0, "fully local maintenance");
    }

    #[test]
    fn insert_adopts_subtree_fetching_only_what_reports_lack() {
        let src = person_source(ReportLevel::WithValues);
        let meter = Arc::new(CostMeter::new());
        let w = chan(&src, meter.clone());
        let mut cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        meter.reset();

        // New professor P5 with an age child, inserted into ROOT.
        src.with_store(|s| {
            s.create(gsdb::Object::atom("A5", "age", 33i64))?;
            s.create(gsdb::Object::set("P5", "professor", &[oid("A5")]))
        })
        .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src.apply(Update::insert("ROOT", "P5")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
        }
        assert!(cache.covers(oid("P5")));
        assert!(cache.covers(oid("A5")), "age child adopted");
        // The L2 report carried P5's label/value; A5's label+value
        // needed fetching (the paper's "direct subobjects of P").
        assert!(cache.maintenance_queries <= 2);
        let le45 = Pred::new(CmpOp::Le, 45i64);
        assert_eq!(
            cache.try_eval(oid("P5"), &Path::parse("age"), Some(&le45)),
            Some(vec![oid("A5")])
        );
    }

    #[test]
    fn irrelevant_inserts_do_not_grow_cache() {
        let src = person_source(ReportLevel::WithValues);
        let meter = Arc::new(CostMeter::new());
        let w = chan(&src, meter.clone());
        let mut cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        let before = cache.len();
        meter.reset();
        // A hobby under P1: professor.hobby does not extend
        // professor.age.
        src.with_store(|s| s.create(gsdb::Object::atom("H1", "hobby", "go")))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src.apply(Update::insert("P1", "H1")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
        }
        assert_eq!(cache.len(), before);
        assert_eq!(meter.queries(), 0);
    }

    #[test]
    fn cached_copies_stay_exact_under_off_region_edges() {
        // An edge whose far end is outside the cached region must
        // still be mirrored in the cached parent's copy: try_fetch
        // serves whole-value copies (content upkeep relies on them).
        let src = person_source(ReportLevel::WithValues);
        let meter = Arc::new(CostMeter::new());
        let w = chan(&src, meter.clone());
        let mut cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        meter.reset();

        src.with_store(|s| s.create(gsdb::Object::atom("H1", "hobby", "go")))
            .unwrap();
        src.with_store(|s| {
            s.drain_log();
        });
        src.apply(Update::insert("P1", "H1")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
            cache.finalize_report();
        }
        let copy = cache.try_fetch(oid("P1")).unwrap();
        assert!(copy.children().contains(&oid("H1")), "dangling child mirrored");
        assert!(!cache.covers(oid("H1")), "off-region child not adopted");

        src.apply(Update::delete("P1", "H1")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
            cache.finalize_report();
        }
        let copy = cache.try_fetch(oid("P1")).unwrap();
        assert!(!copy.children().contains(&oid("H1")), "dangling child dropped");
        assert_eq!(meter.queries(), 0, "mirroring is query-free at L2");
    }

    /// Store accesses [`AuxCache::finalize_report`] spends on one
    /// detached student (with its age), in a cache of `profs`
    /// professors × 3 students × 1 age along `professor.student.age`
    /// (seven objects a professor), and how many objects it evicted.
    fn finalize_cost(tag: &str, profs: usize) -> (u64, usize) {
        use gsdb::builder::{atom, set};
        let root = format!("{tag}ROOT");
        let src = Source::empty(tag, oid(&root), ReportLevel::WithValues);
        src.with_store(|s| {
            let mut db = set(&root, "db");
            for p in 0..profs {
                let mut prof = set(&format!("{tag}P{p}"), "professor");
                for k in (0..3).map(|k| p * 3 + k) {
                    prof = prof.child(
                        set(&format!("{tag}S{k}"), "student")
                            .child(atom(&format!("{tag}T{k}"), "age", 20 + (k % 30) as i64)),
                    );
                }
                db = db.child(prof);
            }
            db.build(s).unwrap();
            s.drain_log();
        });
        let w = chan(&src, Arc::new(CostMeter::new()));
        let mut cache = AuxCache::build(oid(&root), Path::parse("professor.student.age"), &mut |q| w.serve(q));
        assert_eq!(cache.len(), 1 + 7 * profs);
        src.apply(Update::delete(format!("{tag}P5").as_str(), format!("{tag}S15").as_str()))
            .unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
        }
        cache.store.set_count_accesses(true);
        let before = cache.len();
        cache.finalize_report();
        assert!(!cache.covers(oid(&format!("{tag}S15"))));
        assert!(!cache.covers(oid(&format!("{tag}T15"))));
        assert!(cache.covers(oid(&format!("{tag}S16"))));
        (cache.store.accesses(), before - cache.len())
    }

    #[test]
    fn eviction_cost_is_flat_in_cache_size() {
        // The locality gate: counts, not time, so it holds on any
        // machine. The whole-cache mark-and-sweep this replaced read
        // every cached object: 16× the cache, 16× the accesses.
        let evicted = gsview_obs::registry().counter("warehouse.cache.evicted");
        let evicted_before = evicted.get();
        let profile = Arc::new(gsview_obs::PhaseProfile::new());
        let _guard = gsview_obs::install(profile.clone());
        let (small, n_small) = finalize_cost("lg1k", 143);
        let (large, n_large) = finalize_cost("lg16k", 2286);
        assert_eq!((n_small, n_large), (2, 2), "the student and its age");
        assert_eq!(small, large, "accesses at 1k and at 16k cached objects");
        assert!(small < 20, "{small} accesses to evict two objects");
        // At least: collector and registry are process-wide, and tests
        // running beside this one finalize caches too.
        assert!(profile.get("warehouse.cache.finalize").count >= 2);
        assert!(evicted.get() >= evicted_before + 4);
    }

    #[test]
    fn nested_detachments_are_all_evicted() {
        // delete(ROOT, P1) then delete(P1, A1) in one batch: A1 has no
        // root path by the time it is cut, yet it is garbage below a
        // top of its own and must not outlive the finalization.
        let src = person_source(ReportLevel::WithValues);
        let w = chan(&src, Arc::new(CostMeter::new()));
        let mut cache = AuxCache::build(oid("ROOT"), Path::parse("professor.age"), &mut |q| w.serve(q));
        src.apply(Update::delete("ROOT", "P1")).unwrap();
        src.apply(Update::delete("P1", "A1")).unwrap();
        for r in src.monitor().poll() {
            cache.apply_report(&r, &w, None);
        }
        // Until then both stay answerable at their pre-delete paths.
        assert_eq!(cache.try_path_from_root(oid("P1")), Some(Path::parse("professor")));
        assert_eq!(cache.try_path_from_root(oid("A1")), Some(Path::parse("professor.age")));
        cache.finalize_report();
        assert!(!cache.covers(oid("P1")) && !cache.covers(oid("A1")));
        let reachable = gsdb::graph::reachable(&cache.store, oid("ROOT"));
        assert_eq!(reachable.len(), cache.len(), "nothing unreachable is left");
    }

    #[test]
    fn path_knowledge_rules_out_paths() {
        // The paper's example: student objects never have salary
        // children.
        let mut pk = PathKnowledge::new();
        pk.assert_never_child("student", "salary");
        assert!(!pk.path_possible(&Path::parse("student.salary")));
        assert!(!pk.path_possible(&Path::parse("professor.student.salary")));
        assert!(pk.path_possible(&Path::parse("professor.salary")));
        assert!(pk.path_possible(&Path::parse("student.name")));
        assert!(pk.path_possible(&Path::empty()));
    }
}
