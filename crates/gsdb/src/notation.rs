//! Parser for the paper's angle-bracket object notation — the format
//! Example 2 is printed in and [`display`](crate::display) renders:
//!
//! ```text
//! < ROOT, person, set, {P1,P2,P3,P4} >
//! < N1, name, string, 'John' >
//! < A1, age, integer, 45 >
//! < S1, salary, dollar, dollar 100000 >
//! ```
//!
//! Together with the renderer this gives a textual round-trip for
//! whole databases: paste a listing from the paper (or a snapshot
//! dump) and get a populated [`Store`] back. Indentation is ignored —
//! structure comes from the set values, as in the paper ("We use
//! indentation as a visual aid").

use crate::{Atom, Label, Object, Oid, Result, Store, Value};
use std::fmt;

/// A notation parse error, with the (1-based) line it occurred on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NotationError {
    /// Line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for NotationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "notation error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for NotationError {}

fn err(line: usize, message: impl Into<String>) -> NotationError {
    NotationError {
        line,
        message: message.into(),
    }
}

/// Parse one `< OID, label, type, value >` record.
pub fn parse_object(line_no: usize, text: &str) -> std::result::Result<Object, NotationError> {
    let t = text.trim();
    let inner = t
        .strip_prefix('<')
        .and_then(|r| r.strip_suffix('>'))
        .ok_or_else(|| err(line_no, "expected `< ... >`"))?
        .trim();
    // Split into exactly four fields, respecting braces and quotes in
    // the last one.
    let mut fields: Vec<String> = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut cur = String::new();
    for c in inner.chars() {
        match c {
            '{' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            '}' if !in_str => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            '\'' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if depth == 0 && !in_str && fields.len() < 3 => {
                fields.push(cur.trim().to_owned());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    fields.push(cur.trim().to_owned());
    if fields.len() != 4 {
        return Err(err(
            line_no,
            format!(
                "expected 4 fields (OID, label, type, value), got {}",
                fields.len()
            ),
        ));
    }
    let oid = Oid::new(&fields[0]);
    let label = Label::new(&fields[1]);
    let type_name = fields[2].as_str();
    let raw_value = fields[3].as_str();
    let value = parse_value(line_no, type_name, raw_value)?;
    Ok(Object { oid, label, value })
}

fn parse_value(
    line_no: usize,
    type_name: &str,
    raw: &str,
) -> std::result::Result<Value, NotationError> {
    match type_name {
        "set" => {
            let inner = raw
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| err(line_no, "set value must be `{...}`"))?;
            let oids: Vec<Oid> = inner
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(Oid::new)
                .collect();
            Ok(Value::set_of(oids))
        }
        "integer" => raw
            .parse::<i64>()
            .map(|v| Value::Atom(Atom::Int(v)))
            .map_err(|e| err(line_no, format!("bad integer {raw:?}: {e}"))),
        "real" => raw
            .parse::<f64>()
            .map(|v| Value::Atom(Atom::Real(v)))
            .map_err(|e| err(line_no, format!("bad real {raw:?}: {e}"))),
        "boolean" => raw
            .parse::<bool>()
            .map(|v| Value::Atom(Atom::Bool(v)))
            .map_err(|e| err(line_no, format!("bad boolean {raw:?}: {e}"))),
        "string" => {
            let s = raw
                .strip_prefix('\'')
                .and_then(|r| r.strip_suffix('\''))
                .or_else(|| raw.strip_prefix('`').and_then(|r| r.strip_suffix('\'')))
                .ok_or_else(|| err(line_no, "string value must be quoted"))?;
            Ok(Value::Atom(Atom::str(s)))
        }
        // Tagged quantities: the paper's `dollar` type prints as
        // `dollar 100000` or `$100,000`.
        unit => {
            let magnitude = raw
                .trim_start_matches(unit)
                .trim()
                .trim_start_matches('$')
                .replace(',', "");
            magnitude
                .parse::<i64>()
                .map(|v| Value::Atom(Atom::Tagged(Label::new(unit), v)))
                .map_err(|e| {
                    err(
                        line_no,
                        format!("bad tagged value {raw:?} for type {unit}: {e}"),
                    )
                })
        }
    }
}

/// Parse a whole listing (one record per non-empty line; indentation
/// and blank lines ignored; `(see X)` continuation lines from the
/// renderer are skipped) into objects.
pub fn parse_listing(text: &str) -> std::result::Result<Vec<Object>, NotationError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with("(see ") {
            continue;
        }
        out.push(parse_object(i + 1, t)?);
    }
    Ok(out)
}

/// Parse a listing straight into a store.
pub fn load_listing(store: &mut Store, text: &str) -> std::result::Result<usize, NotationError> {
    let objects = parse_listing(text)?;
    let n = objects.len();
    for o in objects {
        store
            .create(o)
            .map_err(|e| err(0, format!("store rejected object: {e}")))?;
    }
    Ok(n)
}

/// Render every object of a store (flat, sorted) — inverse of
/// [`load_listing`] up to ordering.
pub fn dump_listing(store: &Store) -> String {
    crate::display::render_flat(store)
}

/// Helper: check that a store round-trips through the notation.
pub fn roundtrips(store: &Store) -> Result<bool> {
    let text = dump_listing(store);
    let mut fresh = Store::new();
    match load_listing(&mut fresh, &text) {
        Ok(_) => {}
        Err(_) => return Ok(false),
    }
    Ok(crate::Snapshot::capture(store) == crate::Snapshot::capture(&fresh))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn parses_the_papers_example_2_listing() {
        let text = "
            < ROOT, person, set, {P1,P2,P3,P4} >
            < P1, professor, set, {N1, A1, S1, P3} >
            < N1, name, string, 'John' >
            < A1, age, integer, 45 >
            < S1, salary, dollar, $100,000 >
            < P3, student, set, {N3, A3, M3} >
            < N3, name, string, 'John' >
            < A3, age, integer, 20 >
            < M3, major, string, 'education' >
            < P2, professor, set, {N2, ADD2} >
            < N2, name, string, 'Sally' >
            < ADD2, address, string, 'Palo Alto' >
            < P4, secretary, set, {N4, A4} >
            < N4, name, string, 'Tom' >
            < A4, age, integer, 40 >
        ";
        let mut store = Store::new();
        let n = load_listing(&mut store, text).unwrap();
        assert_eq!(n, 15);
        assert_eq!(store.atom(Oid::new("A1")), Some(&Atom::Int(45)));
        assert_eq!(
            store.atom(Oid::new("S1")),
            Some(&Atom::tagged("dollar", 100_000))
        );
        // Structure works: the usual query answers hold.
        let reached = crate::path::reach(
            &store,
            Oid::new("ROOT"),
            &crate::Path::parse("professor.age"),
        );
        assert_eq!(reached, vec![Oid::new("A1")]);
    }

    #[test]
    fn roundtrip_person_db() {
        let mut store = Store::new();
        samples::person_db(&mut store).unwrap();
        assert!(roundtrips(&store).unwrap());
    }

    #[test]
    fn roundtrip_fig1() {
        let mut store = Store::new();
        samples::fig1_db(&mut store).unwrap();
        assert!(roundtrips(&store).unwrap());
    }

    #[test]
    fn backquoted_strings_accepted() {
        let o = parse_object(1, "< N1, name, string, `John' >").unwrap();
        assert_eq!(o.atom_value(), Some(&Atom::str("John")));
    }

    #[test]
    fn values_with_commas_inside_strings() {
        let o = parse_object(1, "< X, note, string, 'a, b, and c' >").unwrap();
        assert_eq!(o.atom_value(), Some(&Atom::str("a, b, and c")));
    }

    #[test]
    fn empty_set_and_reals_and_bools() {
        assert!(parse_object(1, "< E, empty, set, {} >")
            .unwrap()
            .children()
            .is_empty());
        assert_eq!(
            parse_object(1, "< R, ratio, real, 2.5 >")
                .unwrap()
                .atom_value(),
            Some(&Atom::Real(2.5))
        );
        assert_eq!(
            parse_object(1, "< B, flag, boolean, true >")
                .unwrap()
                .atom_value(),
            Some(&Atom::Bool(true))
        );
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = load_listing(&mut Store::new(), "\n\nnot a record").unwrap_err();
        assert_eq!(e.line, 3);
        let e = parse_object(7, "< X, y, integer, twelve >").unwrap_err();
        assert_eq!(e.line, 7);
        assert!(e.message.contains("bad integer"));
        assert!(parse_object(1, "< only, three, fields >").is_err());
    }

    #[test]
    fn renderer_continuation_lines_are_skipped() {
        let text = "< a, x, set, {b} >\n  (see b)\n< b, y, integer, 1 >";
        let objs = parse_listing(text).unwrap();
        assert_eq!(objs.len(), 2);
    }
}
