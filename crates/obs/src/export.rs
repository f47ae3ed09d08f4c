//! Flight-recorder exporters: a human-readable table and JSON-lines,
//! plus a dependency-free JSON-lines validator for CI gates.
//!
//! JSON-lines schema (one object per line):
//!
//! ```json
//! {"ticket":3,"ts_ns":81452,"thread":1,"kind":"start",
//!  "name":"warehouse.handle_report","span":2,"parent":1,
//!  "fields":{"source":"s1","seq":4}}
//! ```
//!
//! `kind` is one of `start` / `end` / `event`; `span` is the record's
//! own span id for start/end and the enclosing span for events;
//! `parent` is the enclosing span for start records (0 at the root).

use crate::metrics::MetricsSnapshot;
use crate::{FieldValue, RecordedEvent};
use std::fmt::Write as _;

/// Render events as an aligned table (oldest first), one line per
/// event; the `span`/`parent` columns carry the nesting structure.
pub fn human_table(events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>12} {:>4} {:>6} {:>6} {:>6} {:>6}  name / fields",
        "ticket", "ts(us)", "thr", "kind", "span", "parent", "trace"
    );
    for r in events {
        let e = &r.event;
        let mut fields = String::new();
        for f in &e.fields {
            let _ = write!(fields, " {}={}", f.key, f.value);
        }
        let _ = writeln!(
            out,
            "{:>8} {:>12.1} {:>4} {:>6} {:>6} {:>6} {:>6}  {}{}",
            r.ticket,
            e.ts_ns as f64 / 1_000.0,
            e.thread,
            e.kind.as_str(),
            e.span,
            e.parent,
            e.trace,
            e.name,
            fields,
        );
    }
    out
}

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn json_value_into(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::I64(n) => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(n) if n.is_finite() => {
            let _ = write!(out, "{n}");
        }
        FieldValue::F64(_) => out.push_str("null"),
        FieldValue::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        FieldValue::Str(s) => {
            out.push('"');
            json_escape_into(out, s);
            out.push('"');
        }
    }
}

/// Render events as JSON-lines (oldest first). Self-contained writer;
/// [`validate_json_lines`] checks the inverse direction.
pub fn json_lines(events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    for r in events {
        let e = &r.event;
        let _ = write!(
            out,
            "{{\"ticket\":{},\"ts_ns\":{},\"thread\":{},\"kind\":\"{}\",\"name\":\"",
            r.ticket,
            e.ts_ns,
            e.thread,
            e.kind.as_str()
        );
        json_escape_into(&mut out, e.name);
        let _ = write!(
            out,
            "\",\"span\":{},\"parent\":{},\"trace\":{},\"fields\":{{",
            e.span, e.parent, e.trace
        );
        for (i, f) in e.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, f.key);
            out.push_str("\":");
            json_value_into(&mut out, &f.value);
        }
        out.push_str("}}\n");
    }
    out
}

/// Render a metrics snapshot as an aligned table: one line per
/// counter, one per histogram (with interpolated p50/p90/p99). The
/// failure dump appends this under the event table so a crashed run's
/// counters are never invisible.
pub fn metrics_human_table(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    if snap.counters.is_empty() && snap.histograms.is_empty() {
        return out;
    }
    let _ = writeln!(out, "{:>42} {:>12}  counter", "name", "value");
    for (name, v) in &snap.counters {
        let _ = writeln!(out, "{name:>42} {v:>12}");
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:>42} {:>12} {:>10} {:>10} {:>10}  histogram",
            "name", "count", "p50", "p90", "p99"
        );
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "{:>42} {:>12} {:>10} {:>10} {:>10}",
                name,
                h.count,
                h.p50(),
                h.p90(),
                h.p99()
            );
        }
    }
    out
}

/// Render a metrics snapshot as JSON-lines in the failure-dump metric
/// schema (see [`validate_json_lines`]): counters as
/// `{"metric":…,"kind":"counter","value":…}`, histograms as
/// `{"metric":…,"kind":"histogram","count":…,…}` with interpolated
/// quantile estimates.
pub fn metrics_json_lines(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        out.push_str("{\"metric\":\"");
        json_escape_into(&mut out, name);
        let _ = writeln!(out, "\",\"kind\":\"counter\",\"value\":{v}}}");
    }
    for (name, h) in &snap.histograms {
        out.push_str("{\"metric\":\"");
        json_escape_into(&mut out, name);
        let _ = writeln!(
            out,
            "\",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            h.count,
            h.sum,
            h.min,
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        );
    }
    out
}

// ---------------------------------------------------------------------
// Validation (for the CI dump gate)
// ---------------------------------------------------------------------

/// A minimal JSON value, produced by the built-in validator's parser.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {} of line",
                b as char, self.pos
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or("unexpected end of input")? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err("bad escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one full UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8")?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err("expected ',' or ']'".into()),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err("expected ',' or '}'".into()),
            }
        }
    }
}

/// Parse one JSON document.
pub fn parse_json(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

/// Validate a flight-recorder JSON-lines dump. Two line schemas are
/// legal:
///
/// * **event lines** — an object with `ticket`/`ts_ns`/`thread`
///   numbers, a known `kind`, a non-empty `name` string,
///   `span`/`parent`/`trace` numbers, and a `fields` object;
/// * **metric lines** (appended by the failure dump) — an object with
///   a non-empty `metric` string, `kind` of `counter` or `histogram`,
///   and a numeric `value` (counters) or `count` (histograms).
///
/// Returns the number of valid lines.
pub fn validate_json_lines(dump: &str) -> Result<usize, String> {
    let mut n = 0;
    for (lineno, line) in dump.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let num = |key: &str| -> Result<f64, String> {
            match v.get(key) {
                Some(Json::Num(n)) => Ok(*n),
                other => Err(format!(
                    "line {}: \"{key}\" not a number: {other:?}",
                    lineno + 1
                )),
            }
        };
        if let Some(metric) = v.get("metric") {
            match metric {
                Json::Str(name) if !name.is_empty() => {}
                other => return Err(format!("line {}: bad \"metric\": {other:?}", lineno + 1)),
            }
            match v.get("kind") {
                Some(Json::Str(k)) if k == "counter" => {
                    num("value")?;
                }
                Some(Json::Str(k)) if k == "histogram" => {
                    num("count")?;
                }
                other => {
                    return Err(format!(
                        "line {}: bad metric \"kind\": {other:?}",
                        lineno + 1
                    ))
                }
            }
            n += 1;
            continue;
        }
        num("ticket")?;
        num("ts_ns")?;
        num("thread")?;
        num("span")?;
        num("parent")?;
        num("trace")?;
        match v.get("kind") {
            Some(Json::Str(k)) if matches!(k.as_str(), "start" | "end" | "event") => {}
            other => return Err(format!("line {}: bad \"kind\": {other:?}", lineno + 1)),
        }
        match v.get("name") {
            Some(Json::Str(name)) if !name.is_empty() => {}
            other => return Err(format!("line {}: bad \"name\": {other:?}", lineno + 1)),
        }
        match v.get("fields") {
            Some(Json::Obj(_)) => {}
            other => return Err(format!("line {}: bad \"fields\": {other:?}", lineno + 1)),
        }
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind, Field};

    fn sample() -> Vec<RecordedEvent> {
        vec![
            RecordedEvent {
                ticket: 0,
                event: Event {
                    ts_ns: 1_500,
                    thread: 1,
                    kind: EventKind::SpanStart,
                    name: "warehouse.handle_report",
                    span: 7,
                    parent: 0,
                    trace: 7,
                    fields: vec![Field::new("source", "s\"1\""), Field::new("seq", 4u64)],
                },
            },
            RecordedEvent {
                ticket: 1,
                event: Event {
                    ts_ns: 2_500,
                    thread: 1,
                    kind: EventKind::Instant,
                    name: "store.apply",
                    span: 7,
                    parent: 0,
                    trace: 7,
                    fields: vec![
                        Field::new("ok", true),
                        Field::new("delta", -3i64),
                        Field::new("ratio", 0.5f64),
                    ],
                },
            },
        ]
    }

    #[test]
    fn json_lines_round_trips_through_validator() {
        let dump = json_lines(&sample());
        assert_eq!(validate_json_lines(&dump).unwrap(), 2);
        let first = parse_json(dump.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("name"),
            Some(&Json::Str("warehouse.handle_report".into()))
        );
        assert_eq!(
            first.get("fields").unwrap().get("source"),
            Some(&Json::Str("s\"1\"".into()))
        );
        assert_eq!(
            first.get("fields").unwrap().get("seq"),
            Some(&Json::Num(4.0))
        );
    }

    #[test]
    fn metric_lines_round_trip_through_validator() {
        let r = crate::metrics::Registry::new();
        r.counter("serve.requests").add(42);
        r.histogram("serve.request.micros").record(120);
        let snap = r.snapshot();
        let dump = metrics_json_lines(&snap);
        assert_eq!(validate_json_lines(&dump).unwrap(), 2);
        // Event lines and metric lines coexist in one dump.
        let mut combined = json_lines(&sample());
        combined.push_str(&dump);
        assert_eq!(validate_json_lines(&combined).unwrap(), 4);
        let table = metrics_human_table(&snap);
        assert!(table.contains("serve.requests"));
        assert!(table.contains("42"));
        assert!(table.contains("serve.request.micros"));
        // Bad metric lines are rejected.
        assert!(validate_json_lines("{\"metric\":\"x\",\"kind\":\"counter\"}").is_err());
        assert!(validate_json_lines("{\"metric\":\"\",\"kind\":\"counter\",\"value\":1}").is_err());
        assert!(validate_json_lines("{\"metric\":\"x\",\"kind\":\"gauge\",\"value\":1}").is_err());
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_json_lines("{\"ticket\":0}").is_err());
        assert!(validate_json_lines("not json").is_err());
        assert_eq!(validate_json_lines("\n\n").unwrap(), 0);
        // Wrong kind.
        let mut bad = sample();
        bad.truncate(1);
        let dump = json_lines(&bad).replace("\"start\"", "\"bogus\"");
        assert!(validate_json_lines(&dump).is_err());
    }

    #[test]
    fn human_table_lists_fields() {
        let table = human_table(&sample());
        assert!(table.contains("warehouse.handle_report"));
        assert!(table.contains("seq=4"));
        assert!(table.contains("store.apply"));
        assert!(table.contains("ratio=0.5"));
    }
}
