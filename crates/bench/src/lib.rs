//! # gsview-bench — the experiment harness
//!
//! One module per experiment; each builds its workload, runs the sweep
//! and returns a [`Table`]. The `harness` binary prints every table.
//! An experiment's `quick_facts` (or `quick_*`) returns the raw counts of
//! its quick-mode sweep, which the count gates in `tests/*_smoke.rs`
//! compare with the baselines in `baselines/`. Wall-clock throughput
//! and latency are measured by `gsbench`. DESIGN.md maps experiments to
//! the paper's claims; EXPERIMENTS.md records the measured results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e19;
pub mod e2;
pub mod e20;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod table;

pub use table::Table;

/// All experiment ids, in order.
pub const ALL: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20",
];

/// Run one experiment by id.
pub fn run(id: &str, quick: bool) -> Option<Table> {
    match id {
        "e1" => Some(e1::run(quick)),
        "e2" => Some(e2::run(quick)),
        "e3" => Some(e3::run(quick)),
        "e4" => Some(e4::run(quick)),
        "e5" => Some(e5::run(quick)),
        "e6" => Some(e6::run(quick)),
        "e7" => Some(e7::run(quick)),
        "e8" => Some(e8::run(quick)),
        "e9" => Some(e9::run(quick)),
        "e10" => Some(e10::run(quick)),
        "e11" => Some(e11::run(quick)),
        "e12" => Some(e12::run(quick)),
        "e13" => Some(e13::run(quick)),
        "e14" => Some(e14::run(quick)),
        "e15" => Some(e15::run(quick)),
        "e16" => Some(e16::run(quick)),
        "e17" => Some(e17::run(quick)),
        "e18" => Some(e18::run(quick)),
        "e19" => Some(e19::run(quick)),
        "e20" => Some(e20::run(quick)),
        _ => None,
    }
}
