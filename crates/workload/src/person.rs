//! A heterogeneous person directory in the spirit of the paper's
//! Example 2: professors, students and secretaries with irregular
//! structure (missing fields, students nested under professors) —
//! exercising the "no schema" property that distinguishes GSDB views
//! from relational ones.

use crate::rng::rng;
use gsdb::{Object, Oid, Result, Store, StoreConfig};
use rand::Rng;

/// Parameters for the person directory.
#[derive(Clone, Copy, Debug)]
pub struct PersonSpec {
    /// Number of top-level persons.
    pub persons: usize,
    /// Probability a professor has a nested student.
    pub student_probability: f64,
    /// Probability a person record omits its age (irregularity).
    pub missing_age_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PersonSpec {
    fn default() -> Self {
        PersonSpec {
            persons: 100,
            student_probability: 0.4,
            missing_age_probability: 0.1,
            seed: 1,
        }
    }
}

const FIRST_NAMES: &[&str] = &[
    "John", "Sally", "Tom", "Maria", "Wei", "Aisha", "Carlos", "Yuki", "Priya", "Olga",
];
const KINDS: &[&str] = &["professor", "student", "secretary"];

/// Handle to a generated person directory.
#[derive(Clone, Debug)]
pub struct PersonDb {
    /// The root (`DIR`, labeled `person` like the paper's ROOT).
    pub root: Oid,
    /// Top-level person OIDs.
    pub persons: Vec<Oid>,
    /// Age atoms (all levels).
    pub ages: Vec<Oid>,
    /// Name atoms (all levels).
    pub names: Vec<Oid>,
}

/// Generate a person directory.
pub fn generate(spec: PersonSpec, cfg: StoreConfig) -> Result<(Store, PersonDb)> {
    let mut store = Store::with_config(cfg);
    let mut r = rng(spec.seed);
    let mut persons = Vec::with_capacity(spec.persons);
    let mut ages = Vec::new();
    let mut names = Vec::new();
    let mut id = 0usize;
    for _ in 0..spec.persons {
        let kind = KINDS[r.gen_range(0..KINDS.len())];
        let p = make_person(
            &mut store, &mut r, &mut id, kind, spec, &mut ages, &mut names, true,
        )?;
        persons.push(p);
    }
    let root = Oid::new("DIR");
    store.create(Object::set(root.name(), "person", &persons))?;
    Ok((
        store,
        PersonDb {
            root,
            persons,
            ages,
            names,
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn make_person(
    store: &mut Store,
    r: &mut rand::rngs::StdRng,
    id: &mut usize,
    kind: &str,
    spec: PersonSpec,
    ages: &mut Vec<Oid>,
    names: &mut Vec<Oid>,
    allow_nesting: bool,
) -> Result<Oid> {
    let me = *id;
    *id += 1;
    let mut children = Vec::new();
    let name_oid = Oid::new(&format!("p{me}.name"));
    let name = FIRST_NAMES[r.gen_range(0..FIRST_NAMES.len())];
    store.create(Object::atom(name_oid.name(), "name", name))?;
    names.push(name_oid);
    children.push(name_oid);
    if !r.gen_bool(spec.missing_age_probability) {
        let age_oid = Oid::new(&format!("p{me}.age"));
        store.create(Object::atom(age_oid.name(), "age", r.gen_range(18..70i64)))?;
        ages.push(age_oid);
        children.push(age_oid);
    }
    if kind == "professor" {
        let sal_oid = Oid::new(&format!("p{me}.salary"));
        store.create(Object::atom(
            sal_oid.name(),
            "salary",
            gsdb::Atom::tagged("dollar", r.gen_range(50_000..200_000)),
        ))?;
        children.push(sal_oid);
        if allow_nesting && r.gen_bool(spec.student_probability) {
            let s = make_person(store, r, id, "student", spec, ages, names, false)?;
            children.push(s);
        }
    }
    let p = Oid::new(&format!("p{me}"));
    store.create(Object::set(p.name(), kind, &children))?;
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::path;
    use gsview_query::{evaluate, parse_query};

    #[test]
    fn directory_has_irregular_structure() {
        let (store, db) = generate(PersonSpec::default(), StoreConfig::default()).unwrap();
        assert_eq!(db.persons.len(), 100);
        // Some persons have no age (missing field irregularity).
        let with_age = db
            .persons
            .iter()
            .filter(|&&p| !path::reach(&store, p, &gsdb::Path::parse("age")).is_empty())
            .count();
        assert!(with_age < 100, "some ages must be missing");
        assert!(with_age > 50);
        // Professors exist at top level; students both nested and top.
        let profs = path::reach(&store, db.root, &gsdb::Path::parse("professor"));
        assert!(!profs.is_empty());
        let nested = path::reach(&store, db.root, &gsdb::Path::parse("professor.student"));
        assert!(!nested.is_empty(), "some students nest under professors");
    }

    #[test]
    fn queryable_with_the_paper_language() {
        let (store, _db) = generate(PersonSpec::default(), StoreConfig::default()).unwrap();
        let q = parse_query("SELECT DIR.professor X WHERE X.age > 40").unwrap();
        let ans = evaluate(&store, &q).unwrap();
        // Deterministic for the fixed seed; just sanity-check bounds.
        assert!(!ans.oids.is_empty());
        let all = parse_query("SELECT DIR.professor X").unwrap();
        let all_ans = evaluate(&store, &all).unwrap();
        assert!(ans.oids.len() < all_ans.oids.len());
    }

    #[test]
    fn deterministic_generation() {
        let (a, _) = generate(PersonSpec::default(), StoreConfig::default()).unwrap();
        let (b, _) = generate(PersonSpec::default(), StoreConfig::default()).unwrap();
        assert_eq!(gsdb::Snapshot::capture(&a), gsdb::Snapshot::capture(&b));
    }
}
