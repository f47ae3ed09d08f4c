//! The Example 7 workload: a GSDB shaped like a relational database —
//! `REL → r_i → tuple → field` — the scenario the paper uses to argue
//! when incremental maintenance beats recomputation.

use crate::rng::rng;
use gsdb::{Object, Oid, Result, Store, StoreConfig};
use rand::Rng;

/// Parameters for the relations workload.
#[derive(Clone, Copy, Debug)]
pub struct RelationsSpec {
    /// Number of relations (`r0` .. `r{n-1}`); views target `r0`.
    pub relations: usize,
    /// Tuples per relation.
    pub tuples_per_relation: usize,
    /// Extra (non-age) fields per tuple.
    pub extra_fields: usize,
    /// Ages drawn uniformly from `0..age_range`.
    pub age_range: i64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RelationsSpec {
    fn default() -> Self {
        RelationsSpec {
            relations: 2,
            tuples_per_relation: 100,
            extra_fields: 2,
            age_range: 60,
            seed: 1,
        }
    }
}

/// Handle to a generated relations database.
#[derive(Clone, Debug)]
pub struct RelationsDb {
    /// Root OID (`REL`).
    pub root: Oid,
    /// OIDs of the relation objects, in index order.
    pub relation_oids: Vec<Oid>,
    /// Tuple OIDs per relation.
    pub tuples: Vec<Vec<Oid>>,
    /// Age-atom OIDs per relation (parallel to `tuples`).
    pub ages: Vec<Vec<Oid>>,
    /// The spec used.
    pub spec: RelationsSpec,
    next_tuple_id: usize,
}

/// Generate the database into a fresh store with the given config.
pub fn generate(spec: RelationsSpec, cfg: StoreConfig) -> Result<(Store, RelationsDb)> {
    let mut store = Store::with_config(cfg);
    let mut r = rng(spec.seed);
    let root = Oid::new("REL");
    let mut relation_oids = Vec::with_capacity(spec.relations);
    let mut tuples = Vec::with_capacity(spec.relations);
    let mut ages = Vec::with_capacity(spec.relations);
    let mut next_tuple_id = 0;

    let mut rel_children: Vec<Vec<Oid>> = Vec::new();
    for ri in 0..spec.relations {
        let mut tup_oids = Vec::with_capacity(spec.tuples_per_relation);
        let mut age_oids = Vec::with_capacity(spec.tuples_per_relation);
        for _ in 0..spec.tuples_per_relation {
            let (t, a) = create_tuple(
                &mut store,
                &mut next_tuple_id,
                r.gen_range(0..spec.age_range),
                spec.extra_fields,
            )?;
            tup_oids.push(t);
            age_oids.push(a);
        }
        relation_oids.push(Oid::new(&format!("r{ri}")));
        rel_children.push(tup_oids.clone());
        tuples.push(tup_oids);
        ages.push(age_oids);
    }
    for (ri, children) in rel_children.iter().enumerate() {
        store.create(Object::set(format!("r{ri}"), format!("r{ri}"), children))?;
    }
    store.create(Object::set("REL", "relations", &relation_oids))?;
    Ok((
        store,
        RelationsDb {
            root,
            relation_oids,
            tuples,
            ages,
            spec,
            next_tuple_id,
        },
    ))
}

fn create_tuple(
    store: &mut Store,
    next_id: &mut usize,
    age: i64,
    extra_fields: usize,
) -> Result<(Oid, Oid)> {
    let id = *next_id;
    *next_id += 1;
    let t = Oid::new(&format!("t{id}"));
    let a = Oid::new(&format!("t{id}.age"));
    store.create(Object::atom(a.name(), "age", age))?;
    let mut children = vec![a];
    for f in 0..extra_fields {
        let fo = Oid::new(&format!("t{id}.f{f}"));
        store.create(Object::atom(fo.name(), format!("f{f}"), id as i64))?;
        children.push(fo);
    }
    store.create(Object::set(t.name(), "tuple", &children))?;
    Ok((t, a))
}

impl RelationsDb {
    /// The selection path of the canonical view over relation `ri`.
    pub fn view_path(&self, ri: usize) -> gsdb::Path {
        gsdb::Path::parse(&format!("r{ri}.tuple"))
    }

    /// Create a fresh, fully-formed tuple (age + extra fields) and
    /// return `(tuple, age_atom)`; the caller inserts it with
    /// `insert(r_i, tuple)`.
    pub fn new_tuple(&mut self, store: &mut Store, age: i64) -> Result<(Oid, Oid)> {
        create_tuple(store, &mut self.next_tuple_id, age, self.spec.extra_fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::path;

    #[test]
    fn generates_requested_shape() {
        let spec = RelationsSpec {
            relations: 3,
            tuples_per_relation: 10,
            extra_fields: 2,
            age_range: 50,
            seed: 9,
        };
        let (store, db) = generate(spec, StoreConfig::default()).unwrap();
        // REL + 3 relations + 30 tuples + 30 ages + 60 extra fields.
        assert_eq!(store.len(), 1 + 3 + 30 + 30 + 60);
        assert_eq!(db.tuples.len(), 3);
        let reached = path::reach(&store, db.root, &db.view_path(0));
        assert_eq!(reached.len(), 10);
        // Ages in range.
        for &a in &db.ages[0] {
            match store.atom(a) {
                Some(gsdb::Atom::Int(v)) => assert!((0..50).contains(v)),
                other => panic!("bad age atom {other:?}"),
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = RelationsSpec::default();
        let (s1, _) = generate(spec, StoreConfig::default()).unwrap();
        let (s2, _) = generate(spec, StoreConfig::default()).unwrap();
        let snap1 = gsdb::Snapshot::capture(&s1);
        let snap2 = gsdb::Snapshot::capture(&s2);
        assert_eq!(snap1, snap2);
    }

    #[test]
    fn new_tuple_extends_the_database() {
        let (mut store, mut db) =
            generate(RelationsSpec::default(), StoreConfig::default()).unwrap();
        let before = store.len();
        let (t, a) = db.new_tuple(&mut store, 99).unwrap();
        store.insert_edge(db.relation_oids[0], t).unwrap();
        assert_eq!(store.len(), before + 2 + db.spec.extra_fields);
        assert_eq!(store.atom(a), Some(&gsdb::Atom::Int(99)));
        assert!(path::reach(&store, db.root, &db.view_path(0)).contains(&t));
    }
}
