//! The paper's motivating scenario (§1): "a user is interested in all
//! Web pages containing the word 'flower' and would like to copy them
//! to his local disk for faster access ... When the original objects
//! change, the materialized view needs to be updated."
//!
//! We crawl a synthetic web graph, materialize the flower view, stream
//! page edits through the maintainer, and show the local cache staying
//! fresh — including the self-contained (swizzled + stripped) form
//! that can be browsed fully offline. The web is a DAG (pages link to
//! earlier pages), so a page has many walks from `WEB`; the maintainer
//! joins them and repairs every edit locally, without once
//! re-evaluating the view.
//!
//! ```text
//! cargo run --example web_cache
//! ```

use gsview::gsdb::{Atom, StoreConfig, Update};
use gsview::query::{CmpOp, PathExpr, Pred};
use gsview::views::{GeneralMaintainer, GeneralViewDef};
use gsview::workload::web::{generate, WebSpec};
use rand::Rng;

fn main() {
    // A 300-page web with skewed linkage; ~20% of pages mention
    // flowers.
    let spec = WebSpec {
        pages: 300,
        out_degree: 3,
        skew: 1.1,
        flower_probability: 0.2,
        seed: 2026,
    };
    let (mut store, web) = generate(spec, StoreConfig::default()).expect("generate web");
    println!(
        "crawled {} pages ({} objects total)",
        web.pages.len(),
        store.len()
    );

    // define mview FLOWERS as:
    //   SELECT WEB.page X WHERE X.text contains 'flower'
    let def = GeneralViewDef::new("FLOWERS", "WEB", PathExpr::parse("page").unwrap()).with_cond(
        PathExpr::parse("text").unwrap(),
        Pred::new(CmpOp::Contains, "flower"),
    );
    let maintainer = GeneralMaintainer::new(def);
    let mut cache = maintainer.recompute(&store).expect("materialize");
    println!("cached {} flowery pages locally", cache.len());

    // The web churns: pages get rewritten.
    let mut rng = gsview::workload::rng::rng(7);
    let mut joined = 0usize;
    let mut left = 0usize;
    for step in 0..200 {
        let page_idx = rng.gen_range(0..web.texts.len());
        let text_oid = web.texts[page_idx];
        let now_flowery = rng.gen_bool(0.3);
        let new_text = if now_flowery {
            format!("rev {step}: fresh flower photos")
        } else {
            format!("rev {step}: nothing to see")
        };
        let update = store
            .apply(Update::Modify {
                oid: text_oid,
                new: Atom::str(&new_text),
            })
            .expect("edit page");
        let outcome = maintainer
            .apply(&mut cache, &store, &update)
            .expect("maintain");
        joined += outcome.inserted.len();
        left += outcome.deleted.len();
    }
    println!("after 200 page edits: {joined} pages joined the cache, {left} left");
    println!("cache now holds {} pages", cache.len());
    assert_eq!(
        cache.members_base(),
        maintainer
            .recompute(&store)
            .expect("recompute")
            .members_base()
    );

    // Make the cache fully self-contained for offline browsing:
    // swizzle intra-cache links, drop dangling ones (paper §3.2's
    // access-control/stand-alone transformation).
    let swizzled = cache.swizzle().expect("swizzle");
    let stripped = cache.strip_base_oids().expect("strip");
    println!("swizzled {swizzled} intra-cache links; dropped {stripped} external links");

    // Verify: every link inside the cache resolves inside the cache.
    let mut intra_links = 0usize;
    for d in cache.members_delegates() {
        for &c in cache.delegate(d).expect("delegate").children() {
            assert!(
                cache.store().contains(c),
                "offline cache must be closed under links"
            );
            intra_links += 1;
        }
    }
    println!("offline cache is closed: {intra_links} internal links all resolve");
}
