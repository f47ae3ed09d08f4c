//! The base-data access interface Algorithm 1 is written against.
//!
//! Paper §4.3: "the algorithm we provide here isolates the computations
//! that need access to the base databases from those that can be done
//! without base data. Specifically, the operations that may need to
//! examine base data are encapsulated into functions `path(ROOT, N)`,
//! `ancestor(N, p)` and `eval(N, p, cond)`."
//!
//! [`LocalBase`] realizes the interface directly over a [`Store`]
//! (the centralized setting of §4); the warehouse crate supplies a
//! remote, query-counting realization of the same trait (§5), and a
//! cache-backed one (§5.2).

use gsdb::{path, Label, Object, Oid, Path, Store};
use gsview_query::Pred;

/// Access to base data, as needed by the maintenance algorithms.
///
/// Methods take `&mut self` so that implementations can count queries,
/// consult caches, or talk to remote sources.
pub trait BaseAccess {
    /// `path(root, n)`: the label path from `root` to `n` in a tree;
    /// `None` when `root` is not an ancestor of `n`.
    fn path_from_root(&mut self, root: Oid, n: Oid) -> Option<Path>;

    /// `ancestor(n, p)`: the ancestor `X` of `n` with `path(X, n) = p`.
    fn ancestor(&mut self, n: Oid, p: &Path) -> Option<Oid>;

    /// All such ancestors (DAG generalization, §6).
    fn ancestors_all(&mut self, n: Oid, p: &Path) -> Vec<Oid>;

    /// `eval(n, p, cond)`: objects in `n.p` satisfying the condition.
    /// With `pred = None` (structural views), every object in `n.p`
    /// qualifies regardless of type.
    fn eval(&mut self, n: Oid, p: &Path, pred: Option<&Pred>) -> Vec<Oid>;

    /// The label of `n`, if it exists.
    fn label_of(&mut self, n: Oid) -> Option<Label>;

    /// Fetch a full copy of the object (used to create delegates —
    /// "a delegate object is a real object with the same label and type
    /// of its original object ... the same value", §3.2).
    fn fetch(&mut self, n: Oid) -> Option<Object>;
}

/// Direct, same-site access to the base store (the centralized
/// environment of §4: "the base databases and the materialized view
/// reside at the same site").
pub struct LocalBase<'a> {
    store: &'a Store,
}

impl<'a> LocalBase<'a> {
    /// Wrap a store.
    pub fn new(store: &'a Store) -> Self {
        LocalBase { store }
    }

    /// The wrapped store.
    pub fn store(&self) -> &Store {
        self.store
    }
}

impl BaseAccess for LocalBase<'_> {
    fn path_from_root(&mut self, root: Oid, n: Oid) -> Option<Path> {
        path::path_between(self.store, root, n)
    }

    fn ancestor(&mut self, n: Oid, p: &Path) -> Option<Oid> {
        path::ancestor(self.store, n, p)
    }

    fn ancestors_all(&mut self, n: Oid, p: &Path) -> Vec<Oid> {
        path::ancestors_all(self.store, n, p)
    }

    fn eval(&mut self, n: Oid, p: &Path, pred: Option<&Pred>) -> Vec<Oid> {
        match pred {
            Some(pr) => path::eval(self.store, n, p, &|a| pr.eval(a)),
            None => path::reach(self.store, n, p),
        }
    }

    fn label_of(&mut self, n: Oid) -> Option<Label> {
        self.store.label(n)
    }

    fn fetch(&mut self, n: Oid) -> Option<Object> {
        self.store.get(n).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::samples;
    use gsview_query::{CmpOp, Pred};

    #[test]
    fn local_base_delegates_to_path_functions() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        let mut b = LocalBase::new(&store);
        assert_eq!(
            b.path_from_root(Oid::new("ROOT"), Oid::new("A1")),
            Some(Path::parse("professor.age"))
        );
        assert_eq!(
            b.ancestor(Oid::new("A1"), &Path::parse("age")),
            Some(Oid::new("P1"))
        );
        let le45 = Pred::new(CmpOp::Le, 45i64);
        assert_eq!(
            b.eval(Oid::new("P1"), &Path::parse("age"), Some(&le45)),
            vec![Oid::new("A1")]
        );
        // Structural eval returns set objects too.
        assert_eq!(
            b.eval(Oid::new("ROOT"), &Path::parse("professor"), None)
                .len(),
            2
        );
        assert_eq!(b.label_of(Oid::new("P3")).unwrap().as_str(), "student");
        assert_eq!(
            b.fetch(Oid::new("N1"))
                .unwrap()
                .atom_value()
                .unwrap()
                .as_str(),
            Some("John")
        );
    }
}
