//! Recursive-descent parser for queries and view definitions.
//!
//! Accepted grammar (paper expressions 2.1, 3.2, 3.5):
//!
//! ```text
//! statement   := query | viewdef
//! viewdef     := DEFINE (VIEW|MVIEW) ident AS [:] query
//! query       := SELECT entry [ '.' pathexpr ] ident
//!                [ WHERE ident [ '.' pathexpr ] pred ]
//!                [ WITHIN ident ]
//!                [ ANS INT ident ]
//! entry       := ident            -- an OID; `ident.?` with a bare `?`
//!                                 -- tail denotes DatabaseAll
//! pathexpr    := elem ( '.' elem )*
//! elem        := label | '?' | '*' | '(' label ('|' label)* ')'
//! pred        := op literal | CONTAINS literal | EXISTS
//! op          := '=' | '!=' | '<' | '<=' | '>' | '>='
//! ```
//!
//! The paper's `DB.?` entry form is syntactically identical to an
//! object entry followed by a `?` selection step; the parser always
//! produces `Entry::Object` plus the path expression, and the evaluator
//! gives database objects the `DB.?` semantics (see [`crate::eval`]).

use crate::ast::{Entry, Query, Statement, ViewDef};
use crate::cond::{CmpOp, Pred};
use crate::lexer::{lex, LexError, Token};
use crate::pathexpr::{Elem, PathExpr, PathExprError};
use gsdb::{Atom, Label, Oid};
use std::fmt;

/// A parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// Description.
    pub message: String,
}

impl ParseError {
    fn new(msg: impl Into<String>) -> Self {
        ParseError {
            message: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::new(e.to_string())
    }
}

impl From<PathExprError> for ParseError {
    fn from(e: PathExprError) -> Self {
        ParseError::new(e.to_string())
    }
}

/// Parse a statement (query or view definition).
pub fn parse_statement(input: &str) -> Result<Statement, ParseError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.statement()?;
    p.expect_end()?;
    Ok(stmt)
}

/// Parse a query.
pub fn parse_query(input: &str) -> Result<Query, ParseError> {
    match parse_statement(input)? {
        Statement::Query(q) => Ok(q),
        Statement::ViewDef(_) => Err(ParseError::new("expected a query, found a view definition")),
    }
}

/// Parse a view definition.
pub fn parse_viewdef(input: &str) -> Result<ViewDef, ParseError> {
    match parse_statement(input)? {
        Statement::ViewDef(v) => Ok(v),
        Statement::Query(_) => Err(ParseError::new("expected a view definition, found a query")),
    }
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Keyword(k)) if k == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "expected keyword {kw}, found {}",
                self.describe_current()
            )))
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(ParseError::new(format!(
                "expected {what}, found {}",
                describe(other.as_ref())
            ))),
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.toks.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "unexpected trailing input: {}",
                self.describe_current()
            )))
        }
    }

    fn describe_current(&self) -> String {
        describe(self.peek())
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        if self.eat_keyword("DEFINE") {
            let materialized = if self.eat_keyword("MVIEW") {
                true
            } else if self.eat_keyword("VIEW") {
                false
            } else {
                return Err(ParseError::new(format!(
                    "expected VIEW or MVIEW after DEFINE, found {}",
                    self.describe_current()
                )));
            };
            let name = self.expect_ident("view name")?;
            self.expect_keyword("AS")?;
            // Optional colon as in the paper: `define view VJ as: SELECT`.
            if matches!(self.peek(), Some(Token::Colon)) {
                self.pos += 1;
            }
            let query = self.query()?;
            Ok(Statement::ViewDef(ViewDef {
                name: Oid::new(&name),
                materialized,
                query,
            }))
        } else {
            Ok(Statement::Query(self.query()?))
        }
    }

    fn query(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let entry_name = self.expect_ident("entry point OID")?;
        let sel_path = self.path_expr()?;
        let var = self.expect_ident("selection variable")?;
        // The paper overloads `DB.?` to mean "start at all objects of
        // DB"; syntactically it is indistinguishable from an object
        // entry with a `?` selection step, so the parser always builds
        // `Entry::Object` and the evaluator treats database objects'
        // members as traversal starts (see `crate::eval`). Callers that
        // want the explicit form construct `Entry::DatabaseAll` in code.
        let entry = Entry::Object(Oid::new(&entry_name));
        let mut q = Query::select(entry, sel_path);
        q.var = var.clone();
        if self.eat_keyword("WHERE") {
            let v = self.expect_ident("condition variable")?;
            if v != var {
                return Err(ParseError::new(format!(
                    "condition variable {v} does not match selection variable {var}"
                )));
            }
            let cond_path = self.path_expr()?;
            let pred = self.pred()?;
            q = q.with_cond(cond_path, pred);
        }
        if self.eat_keyword("WITHIN") {
            let db = self.expect_ident("database name after WITHIN")?;
            q = q.within(Oid::new(&db));
        }
        if self.eat_keyword("ANS") {
            self.expect_keyword("INT")?;
            let db = self.expect_ident("database name after ANS INT")?;
            q = q.ans_int(Oid::new(&db));
        }
        Ok(q)
    }

    /// `( '.' elem )*`, refused if the automaton has no room for it.
    fn path_expr(&mut self) -> Result<PathExpr, ParseError> {
        let mut elems = Vec::new();
        while matches!(self.peek(), Some(Token::Dot)) {
            self.pos += 1;
            elems.push(self.path_elem()?);
        }
        Ok(PathExpr(elems).checked()?)
    }

    fn path_elem(&mut self) -> Result<Elem, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(Elem::Label(Label::new(&s))),
            Some(Token::Star) => Ok(Elem::AnySeq),
            Some(Token::Question) => Ok(Elem::AnyOne),
            Some(Token::LParen) => {
                let mut labels = Vec::new();
                loop {
                    match self.next() {
                        Some(Token::Ident(s)) => labels.push(Label::new(&s)),
                        other => {
                            return Err(ParseError::new(format!(
                                "expected label in alternation, found {}",
                                describe(other.as_ref())
                            )))
                        }
                    }
                    match self.next() {
                        Some(Token::Pipe) => continue,
                        Some(Token::RParen) => break,
                        other => {
                            return Err(ParseError::new(format!(
                                "expected | or ) in alternation, found {}",
                                describe(other.as_ref())
                            )))
                        }
                    }
                }
                Ok(Elem::Alt(labels))
            }
            other => Err(ParseError::new(format!(
                "expected path element, found {}",
                describe(other.as_ref())
            ))),
        }
    }

    fn pred(&mut self) -> Result<Pred, ParseError> {
        match self.next() {
            Some(Token::Op(op)) => {
                let op = match op.as_str() {
                    "=" => CmpOp::Eq,
                    "!=" => CmpOp::Ne,
                    "<" => CmpOp::Lt,
                    "<=" => CmpOp::Le,
                    ">" => CmpOp::Gt,
                    ">=" => CmpOp::Ge,
                    other => return Err(ParseError::new(format!("unknown operator {other}"))),
                };
                let rhs = self.literal()?;
                Ok(Pred { op, rhs })
            }
            Some(Token::Keyword(k)) if k == "CONTAINS" => {
                let rhs = self.literal()?;
                Ok(Pred {
                    op: CmpOp::Contains,
                    rhs,
                })
            }
            other => Err(ParseError::new(format!(
                "expected comparison operator, found {}",
                describe(other.as_ref())
            ))),
        }
    }

    fn literal(&mut self) -> Result<Atom, ParseError> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Atom::Int(i)),
            Some(Token::Real(r)) => Ok(Atom::Real(r)),
            Some(Token::Str(s)) => Ok(Atom::str(&s)),
            other => Err(ParseError::new(format!(
                "expected literal, found {}",
                describe(other.as_ref())
            ))),
        }
    }
}

fn describe(t: Option<&Token>) -> String {
    match t {
        Some(t) => format!("{t}"),
        None => "end of input".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_query_2_1() {
        let q = parse_query("SELECT ROOT.professor X WHERE X.age > 40").unwrap();
        assert_eq!(q.entry, Entry::Object(Oid::new("ROOT")));
        assert_eq!(q.sel_path, PathExpr::parse("professor").unwrap());
        let c = q.cond.unwrap();
        assert_eq!(c.path, PathExpr::parse("age").unwrap());
        assert_eq!(c.pred, Pred::new(CmpOp::Gt, 40i64));
    }

    #[test]
    fn parses_example_3_view_vj() {
        let v = parse_viewdef(
            "define view VJ as: SELECT ROOT.* X WHERE X.name = 'John' WITHIN PERSON",
        )
        .unwrap();
        assert_eq!(v.name, Oid::new("VJ"));
        assert!(!v.materialized);
        assert_eq!(v.query.within, Some(Oid::new("PERSON")));
        assert_eq!(v.query.sel_path, PathExpr::parse("*").unwrap());
    }

    #[test]
    fn parses_example_4_mview() {
        let v = parse_viewdef(
            "define mview MVJ as: SELECT ROOT.* X WHERE X.name = `John' WITHIN PERSON",
        )
        .unwrap();
        assert!(v.materialized);
    }

    #[test]
    fn parses_ans_int_clause() {
        let q = parse_query("SELECT ROOT.professor X ANS INT VJ").unwrap();
        assert_eq!(q.ans_int, Some(Oid::new("VJ")));
        assert!(q.cond.is_none());
    }

    #[test]
    fn parses_view_3_4_wildcards() {
        let prof = parse_viewdef("define view PROF as: SELECT ROOT.*.professor X").unwrap();
        assert_eq!(prof.query.sel_path, PathExpr::parse("*.professor").unwrap());
        let student = parse_viewdef("define view STUDENT as: SELECT PROF.?.student X").unwrap();
        assert_eq!(
            student.query.sel_path,
            PathExpr::parse("?.student").unwrap()
        );
    }

    #[test]
    fn parses_example_5_yp() {
        let v =
            parse_viewdef("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45").unwrap();
        assert!(v.query.is_simple());
        assert_eq!(v.query.cond.as_ref().unwrap().pred, Pred::new(CmpOp::Le, 45i64));
    }

    #[test]
    fn rejects_mismatched_variables() {
        let e = parse_query("SELECT ROOT.professor X WHERE Y.age > 40").unwrap_err();
        assert!(e.message.contains("does not match"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT ROOT.a X WHERE X.b > 1 bogus extra").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("WHERE X.a > 1").is_err());
        assert!(parse_viewdef("define VJ as: SELECT R.a X").is_err());
        assert!(parse_query("SELECT R.a X WHERE X.b >").is_err());
    }

    #[test]
    fn rejects_expressions_the_automaton_has_no_room_for() {
        let path = |n: usize| vec!["a"; n].join(".");
        assert!(parse_query(&format!("SELECT R.{} X", path(63))).is_ok());
        for src in [
            format!("SELECT R.{} X", path(64)),
            format!("SELECT R.a X WHERE X.{} > 1", path(64)),
            format!("define mview V as: SELECT R.{} X", path(100_000)),
        ] {
            let e = parse_statement(&src).unwrap_err();
            assert!(e.message.contains("the limit is 63"), "{e}");
        }
    }

    #[test]
    fn contains_predicate() {
        let q = parse_query("SELECT W.page X WHERE X.text contains 'flower'").unwrap();
        assert_eq!(q.cond.unwrap().pred.op, CmpOp::Contains);
    }

    #[test]
    fn empty_condition_path_tests_object_itself() {
        let q = parse_query("SELECT R.a.b X WHERE X = 5").unwrap();
        let c = q.cond.unwrap();
        assert!(c.path.is_empty());
    }

    #[test]
    fn roundtrip_through_display() {
        let src = "SELECT ROOT.professor X WHERE X.age > 40 WITHIN PERSON ANS INT VJ";
        let q = parse_query(src).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
