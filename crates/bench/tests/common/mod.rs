//! The one reader of the checked-in quick-mode baselines
//! (`baselines/*.json`) the smoke gates compare against, over the JSON
//! parser the telemetry exporter and gsbench already use.

// Each smoke gate compiles this module on its own and uses what it needs.
#![allow(dead_code)]

use gsview_obs::export::{parse_json, Json};

/// A parsed baseline document.
pub struct Baseline(Json);

impl Baseline {
    /// Parse a baseline document; panics if it is not JSON.
    pub fn parse(text: &str) -> Baseline {
        Baseline(parse_json(text).unwrap_or_else(|e| panic!("baseline is not JSON: {e}")))
    }

    fn get(&self, key: &str) -> &Json {
        self.0
            .get(key)
            .unwrap_or_else(|| panic!("baseline key {key} missing"))
    }

    /// The non-negative integer at top-level `key`.
    pub fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => *n as u64,
            other => panic!("baseline key {key} not an integer: {other:?}"),
        }
    }

    /// The string at top-level `key`.
    pub fn text(&self, key: &str) -> &str {
        match self.get(key) {
            Json::Str(s) => s,
            other => panic!("baseline key {key} not a string: {other:?}"),
        }
    }
}
