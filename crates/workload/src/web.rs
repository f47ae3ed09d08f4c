//! A synthetic web-like graph (the paper's motivating scenario:
//! "consider a set of interrelated Web pages ... each page is an
//! object, and the URLs in pages are the graph edges", with a user
//! materializing "all Web pages containing the word 'flower'").
//!
//! Pages are set objects labeled `page` holding one `text` atom plus
//! `page` edges to other pages. Links follow preferential attachment
//! over *earlier* pages only, so the graph is a DAG (shared subtrees,
//! multiple paths — the §6 regime) while staying cycle-free.

use crate::rng::{rng, Zipf};
use gsdb::{Object, Oid, Result, Store, StoreConfig};
use rand::Rng;

/// Parameters for the web graph.
#[derive(Clone, Copy, Debug)]
pub struct WebSpec {
    /// Number of pages.
    pub pages: usize,
    /// Outgoing links per page (to earlier pages).
    pub out_degree: usize,
    /// Preferential-attachment skew (0 = uniform).
    pub skew: f64,
    /// Probability a page's text contains the word "flower".
    pub flower_probability: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WebSpec {
    fn default() -> Self {
        WebSpec {
            pages: 200,
            out_degree: 3,
            skew: 1.0,
            flower_probability: 0.2,
            seed: 1,
        }
    }
}

/// Handle to a generated web graph.
#[derive(Clone, Debug)]
pub struct WebDb {
    /// The root object (`WEB`), linking to every page (the "crawl
    /// frontier" — it doubles as the database object).
    pub root: Oid,
    /// Page OIDs in creation order.
    pub pages: Vec<Oid>,
    /// Text atom OIDs, parallel to `pages`.
    pub texts: Vec<Oid>,
}

/// Generate the web graph.
pub fn generate(spec: WebSpec, cfg: StoreConfig) -> Result<(Store, WebDb)> {
    let mut store = Store::with_config(cfg);
    let mut r = rng(spec.seed);
    let mut pages = Vec::with_capacity(spec.pages);
    let mut texts = Vec::with_capacity(spec.pages);
    for i in 0..spec.pages {
        let text_oid = Oid::new(&format!("w{i}.text"));
        let has_flower = r.gen_bool(spec.flower_probability);
        let text = if has_flower {
            format!("page {i} about flower arrangements")
        } else {
            format!("page {i} about weeds")
        };
        store.create(Object::atom(text_oid.name(), "text", text.as_str()))?;
        let mut children = vec![text_oid];
        if i > 0 {
            let zipf = Zipf::new(i, spec.skew);
            for _ in 0..spec.out_degree.min(i) {
                let target = pages[zipf.sample(&mut r)];
                if !children.contains(&target) {
                    children.push(target);
                }
            }
        }
        let page = Oid::new(&format!("w{i}"));
        store.create(Object::set(page.name(), "page", &children))?;
        pages.push(page);
        texts.push(text_oid);
    }
    let root = Oid::new("WEB");
    store.create(Object::set(root.name(), "web", &pages))?;
    Ok((store, WebDb { root, pages, texts }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsdb::graph;

    #[test]
    fn web_is_a_dag_with_flowers() {
        let (store, db) = generate(WebSpec::default(), StoreConfig::default()).unwrap();
        assert_eq!(db.pages.len(), 200);
        let shape = graph::classify(&store, db.root);
        assert!(
            shape == graph::Shape::Dag || shape == graph::Shape::Tree,
            "links to earlier pages cannot form cycles, got {shape:?}"
        );
        // Some but not all pages mention flowers.
        let flowery = db
            .texts
            .iter()
            .filter(|&&t| {
                store
                    .atom(t)
                    .and_then(|a| a.as_str())
                    .map(|s| s.contains("flower"))
                    .unwrap_or(false)
            })
            .count();
        assert!(flowery > 10 && flowery < 190, "got {flowery} flowery pages");
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = generate(WebSpec::default(), StoreConfig::default()).unwrap();
        let (b, _) = generate(WebSpec::default(), StoreConfig::default()).unwrap();
        assert_eq!(gsdb::Snapshot::capture(&a), gsdb::Snapshot::capture(&b));
    }

    #[test]
    fn higher_skew_concentrates_links() {
        let hot = |skew: f64| {
            let (store, db) = generate(
                WebSpec {
                    skew,
                    seed: 3,
                    ..WebSpec::default()
                },
                StoreConfig::default(),
            )
            .unwrap();
            // In-degree of the first (oldest, most popular) page.
            store.parents(db.pages[0]).len()
        };
        assert!(hot(1.5) > hot(0.0), "skewed attachment favours old pages");
    }
}
