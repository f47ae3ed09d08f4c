//! Pretty-printing of stores in the paper's indented angle-bracket
//! notation (Example 2), used by the examples and the paper-figure
//! tests.

use crate::{Oid, Store};
use std::collections::HashSet;
use std::fmt::Write;

/// Render the subtree under `root` in the paper's notation, one object
/// per line, indented by depth. Objects reachable via multiple paths
/// are printed once in full and afterwards as `(see <OID>)`, keeping
/// the output finite on DAGs and cyclic graphs.
pub fn render(store: &Store, root: Oid) -> String {
    let mut out = String::new();
    let mut printed = HashSet::new();
    render_rec(store, root, 0, &mut printed, &mut out);
    out
}

fn render_rec(store: &Store, oid: Oid, depth: usize, printed: &mut HashSet<Oid>, out: &mut String) {
    let pad = "  ".repeat(depth);
    let Some(obj) = store.get(oid) else {
        // The OID is not in this store: in a view database this is a
        // pointer back to a base object (paper §3.2); in a base store
        // it is a dangling reference. Either way, show it as a pointer.
        let _ = writeln!(out, "{pad}-> {oid} (not in this database)");
        return;
    };
    if !printed.insert(oid) {
        let _ = writeln!(out, "{pad}(see {oid})");
        return;
    }
    let _ = writeln!(out, "{pad}{}", obj.to_paper_notation());
    for &c in obj.children() {
        render_rec(store, c, depth + 1, printed, out);
    }
}

/// Render a flat object listing (every object in the store, sorted by
/// OID name) — the shape of the paper's Example 2 listing.
pub fn render_flat(store: &Store) -> String {
    let mut out = String::new();
    for oid in store.oids_sorted() {
        if let Some(obj) = store.get(oid) {
            let _ = writeln!(out, "{}", obj.to_paper_notation());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{atom, set};

    #[test]
    fn renders_indented_tree() {
        let mut s = Store::new();
        let root = set("R", "person")
            .child(set("p", "professor").child(atom("n", "name", "John")))
            .build(&mut s)
            .unwrap();
        let text = render(&s, root);
        assert!(text.contains("< R, person, set, {p} >"));
        assert!(text.contains("  < p, professor, set, {n} >"));
        assert!(text.contains("    < n, name, string, 'John' >"));
    }

    #[test]
    fn shared_objects_render_once() {
        let mut s = Store::new();
        set("a", "left")
            .child(atom("sh", "v", 1i64))
            .build(&mut s)
            .unwrap();
        let root = set("top", "root")
            .reference("a")
            .child(set("b", "right").reference("sh"))
            .build(&mut s)
            .unwrap();
        let text = render(&s, root);
        assert_eq!(text.matches("< sh, v, integer, 1 >").count(), 1);
        assert!(text.contains("(see sh)"));
    }

    #[test]
    fn out_of_store_children_render_as_pointers() {
        let mut s = Store::new();
        s.create(crate::Object::set("p", "x", &[Oid::new("ghost")]))
            .unwrap();
        let text = render(&s, Oid::new("p"));
        assert!(text.contains("-> ghost (not in this database)"));
    }

    #[test]
    fn flat_listing_sorted() {
        let mut s = Store::new();
        set("b", "x").build(&mut s).unwrap();
        set("a", "y").build(&mut s).unwrap();
        let flat = render_flat(&s);
        let a_pos = flat.find("< a,").unwrap();
        let b_pos = flat.find("< b,").unwrap();
        assert!(a_pos < b_pos);
    }
}
