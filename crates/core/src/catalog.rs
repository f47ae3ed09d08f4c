//! A view catalog: the top-level convenience API.
//!
//! Accepts the paper's textual definitions (`define view` /
//! `define mview`), dispatches each to the right machinery — virtual
//! views are stored as view objects in the base store, simple
//! materialized views get Algorithm 1, general (wild-card) ones get
//! the containment-guarded maintainer — and routes every base update
//! to all maintained views.
//!
//! ```
//! use gsdb::{samples, Oid, Store, Update};
//! use gsview_core::catalog::Catalog;
//!
//! let mut store = Store::new();
//! samples::person_db(&mut store).unwrap();
//! let mut catalog = Catalog::new();
//! catalog
//!     .define(&mut store, "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45")
//!     .unwrap();
//! let applied = store.apply(Update::modify("A1", 80i64)).unwrap();
//! catalog.handle_update(&store, &applied).unwrap();
//! assert!(catalog.materialized(Oid::new("YP")).unwrap().is_empty());
//! ```

use crate::base::LocalBase;
use crate::general::GeneralMaintainer;
use crate::maintain::Maintainer;
use crate::mview::MaterializedView;
use crate::recompute::recompute;
use crate::viewdef::{GeneralViewDef, SimpleViewDef};
use crate::virtualview::define_virtual_view;
use gsdb::{AppliedUpdate, Oid, Store};
use gsview_query::{parse_viewdef, ViewDef};
use std::collections::HashMap;
use std::fmt;

/// Catalog errors.
#[derive(Debug)]
pub enum CatalogError {
    /// The definition failed to parse.
    Parse(gsview_query::ParseError),
    /// Evaluation of a virtual view failed.
    Eval(gsview_query::EvalError),
    /// A storage error.
    Store(gsdb::GsdbError),
    /// A view with this name already exists.
    Duplicate(Oid),
    /// The definition's clauses are not supported for materialization
    /// (e.g. `WITHIN`/`ANS INT` on an mview).
    Unsupported(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Parse(e) => write!(f, "{e}"),
            CatalogError::Eval(e) => write!(f, "{e}"),
            CatalogError::Store(e) => write!(f, "{e}"),
            CatalogError::Duplicate(v) => write!(f, "view {v} already defined"),
            CatalogError::Unsupported(m) => write!(f, "unsupported definition: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<gsdb::GsdbError> for CatalogError {
    fn from(e: gsdb::GsdbError) -> Self {
        CatalogError::Store(e)
    }
}

enum CatalogEntry {
    Virtual {
        query: gsview_query::Query,
    },
    Simple {
        maintainer: Maintainer,
        mv: MaterializedView,
    },
    General {
        maintainer: Box<GeneralMaintainer>,
        mv: MaterializedView,
    },
}

/// A collection of defined views over one base store.
#[derive(Default)]
pub struct Catalog {
    entries: HashMap<Oid, CatalogEntry>,
    order: Vec<Oid>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defined view OIDs, in definition order.
    pub fn views(&self) -> &[Oid] {
        &self.order
    }

    /// Define a view from the paper's syntax.
    pub fn define(&mut self, store: &mut Store, definition: &str) -> Result<Oid, CatalogError> {
        let def = parse_viewdef(definition).map_err(CatalogError::Parse)?;
        self.define_parsed(store, &def)
    }

    /// Define from a parsed statement.
    pub fn define_parsed(
        &mut self,
        store: &mut Store,
        def: &ViewDef,
    ) -> Result<Oid, CatalogError> {
        if self.entries.contains_key(&def.name) {
            return Err(CatalogError::Duplicate(def.name));
        }
        let entry = if !def.materialized {
            define_virtual_view(store, def).map_err(CatalogError::Eval)?;
            CatalogEntry::Virtual {
                query: def.query.clone(),
            }
        } else if let Some(simple) = SimpleViewDef::from_viewdef(def) {
            let mv = recompute(&simple, &mut LocalBase::new(store))?;
            CatalogEntry::Simple {
                maintainer: Maintainer::new(simple),
                mv,
            }
        } else if let Some(general) = GeneralViewDef::from_viewdef(def) {
            let maintainer = Box::new(GeneralMaintainer::planned(general));
            let mv = maintainer.recompute(store)?;
            CatalogEntry::General { maintainer, mv }
        } else {
            return Err(CatalogError::Unsupported(format!(
                "mview {} uses clauses the maintainers do not support",
                def.name
            )));
        };
        self.entries.insert(def.name, entry);
        self.order.push(def.name);
        Ok(def.name)
    }

    /// Route one applied base update to every maintained view (virtual
    /// views are recomputed on demand, not here).
    pub fn handle_update(
        &mut self,
        store: &Store,
        update: &AppliedUpdate,
    ) -> Result<(), CatalogError> {
        for entry in self.entries.values_mut() {
            match entry {
                CatalogEntry::Virtual { .. } => {}
                CatalogEntry::Simple { maintainer, mv } => {
                    maintainer.apply(mv, &mut LocalBase::new(store), update)?;
                }
                CatalogEntry::General { maintainer, mv } => {
                    maintainer.apply(mv, store, update)?;
                }
            }
        }
        Ok(())
    }

    /// The materialized state of a view, if it is materialized.
    pub fn materialized(&self, view: Oid) -> Option<&MaterializedView> {
        match self.entries.get(&view)? {
            CatalogEntry::Simple { mv, .. } | CatalogEntry::General { mv, .. } => Some(mv),
            CatalogEntry::Virtual { .. } => None,
        }
    }

    /// Current members of a view: materialized views answer from their
    /// delegates; virtual views are (re)evaluated against the store.
    pub fn members(&self, store: &mut Store, view: Oid) -> Result<Vec<Oid>, CatalogError> {
        match self.entries.get(&view) {
            None => Ok(Vec::new()),
            Some(CatalogEntry::Simple { mv, .. }) | Some(CatalogEntry::General { mv, .. }) => {
                Ok(mv.members_base())
            }
            Some(CatalogEntry::Virtual { query }) => {
                crate::virtualview::refresh_virtual_view(store, view, query)
                    .map_err(CatalogError::Eval)?;
                Ok(store
                    .get(view)
                    .and_then(|o| o.value.as_set())
                    .map(|s| {
                        let mut v: Vec<Oid> = s.iter().collect();
                        v.sort_by_key(|o| o.name());
                        v
                    })
                    .unwrap_or_default())
            }
        }
    }

    /// Drop a view from the catalog (the virtual view object, if any,
    /// stays in the store; callers may GC it).
    pub fn drop_view(&mut self, view: Oid) -> bool {
        self.order.retain(|&v| v != view);
        self.entries.remove(&view).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::{samples, Update};

    fn oid(s: &str) -> Oid {
        Oid::new(s)
    }

    fn setup() -> (Store, Catalog) {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        (store, Catalog::new())
    }

    #[test]
    fn defines_and_maintains_all_three_kinds() {
        let (mut store, mut cat) = setup();
        cat.define(
            &mut store,
            "define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
        )
        .unwrap();
        cat.define(
            &mut store,
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45",
        )
        .unwrap();
        cat.define(
            &mut store,
            "define mview MVJ as: SELECT ROOT.* X WHERE X.name = 'John'",
        )
        .unwrap();
        assert_eq!(cat.views().len(), 3);
        assert!(cat.materialized(oid("VJ")).is_none());
        assert_eq!(
            cat.materialized(oid("YP")).unwrap().members_base(),
            vec![oid("P1")]
        );
        assert_eq!(
            cat.materialized(oid("MVJ")).unwrap().members_base(),
            vec![oid("P1"), oid("P3")]
        );

        // One base update flows to all materialized views.
        let up = store.apply(Update::modify("A1", 80i64)).unwrap();
        cat.handle_update(&store, &up).unwrap();
        assert!(cat.materialized(oid("YP")).unwrap().is_empty());
        // MVJ keys on names, unaffected.
        assert_eq!(cat.materialized(oid("MVJ")).unwrap().len(), 2);

        // Virtual views answer current state on demand.
        let up = store.apply(Update::modify("N2", "John")).unwrap();
        cat.handle_update(&store, &up).unwrap();
        let vj = cat.members(&mut store, oid("VJ")).unwrap();
        assert!(vj.contains(&oid("P2")));
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut store, mut cat) = setup();
        cat.define(&mut store, "define mview D as: SELECT ROOT.professor X")
            .unwrap();
        assert!(matches!(
            cat.define(&mut store, "define mview D as: SELECT ROOT.secretary X"),
            Err(CatalogError::Duplicate(_))
        ));
    }

    #[test]
    fn unsupported_mview_clauses_rejected() {
        let (mut store, mut cat) = setup();
        let e = cat
            .define(
                &mut store,
                "define mview W as: SELECT ROOT.professor X WITHIN PERSON",
            )
            .unwrap_err();
        assert!(matches!(e, CatalogError::Unsupported(_)));
    }

    #[test]
    fn drop_view_stops_maintenance() {
        let (mut store, mut cat) = setup();
        cat.define(
            &mut store,
            "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45",
        )
        .unwrap();
        assert!(cat.drop_view(oid("YP")));
        assert!(!cat.drop_view(oid("YP")));
        assert!(cat.materialized(oid("YP")).is_none());
        let up = store.apply(Update::modify("A1", 80i64)).unwrap();
        cat.handle_update(&store, &up).unwrap(); // no panic, nothing to do
    }
}
