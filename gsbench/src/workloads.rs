//! The four workloads: which stack each one drives, over which views,
//! at what size — and why it exists. Plain data; [`crate::sut`] turns
//! it into calls.
//!
//! Work is fixed by the workload, `--seconds` and the seed, never by a
//! clock: `rounds = rounds_per_second × seconds`, with
//! `rounds_per_second` calibrated on the recorded baseline machine so
//! the measured section takes about `--seconds` there. A faster
//! machine finishes sooner; it does not do more rounds.

use crate::inputs::{ReadMix, Shape};

/// Which part of the system a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Source behind the TCP serving tier, warehouse on the far side.
    Wire,
    /// Source-colocated portfolio on the Algorithm 1 backend.
    Alg1,
    /// Same store and script, views the planner routes to circuits.
    Circuit,
    /// Sharded source with the durable epoch log attached.
    Durable,
}

/// Aggregate functions of an aggregate view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Agg {
    /// Mean of the atoms under each member.
    Avg,
    /// Their number.
    Count,
    /// Their maximum.
    Max,
}

/// One view of a portfolio, in the paper's `define mview` syntax
/// wherever the system takes text.
#[derive(Clone, Copy, Debug)]
pub enum ViewSpec {
    /// A §4.2 simple view (constant paths). The two flags are the
    /// warehouse's §5.2 query-reduction options; colocated portfolios
    /// ignore them.
    Simple {
        /// `define mview …` text.
        def: &'static str,
        /// Screen reports by label before anything else.
        screening: bool,
        /// Keep the auxiliary cache along `sel_path.cond_path`.
        aux_cache: bool,
    },
    /// A wildcard view (§6), maintained by guarded refresh.
    Wildcard {
        /// `define mview …` text.
        def: &'static str,
    },
    /// A union of simple branches under one view object.
    Union {
        /// The view's name.
        name: &'static str,
        /// One `define mview …` text per branch.
        branches: &'static [&'static str],
    },
    /// A per-member aggregate over a simple member selection.
    Aggregate {
        /// `define mview …` text selecting the members.
        def: &'static str,
        /// Path from a member to the aggregated atoms.
        path: &'static str,
        /// The function.
        f: Agg,
    },
}

/// How big a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few hundred objects and a dozen rounds: the smoke test.
    Tiny,
}

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists, in one line.
    pub why: &'static str,
    /// The stack it drives.
    pub kind: Kind,
    /// Its views.
    pub views: &'static [ViewSpec],
    /// Commit-pipeline shards of the source.
    pub shards: usize,
    /// Size at [`Scale::Full`] (`rounds` is filled in from `--seconds`).
    shape: Shape,
    /// Rounds per second of `--seconds` on the baseline machine.
    rounds_per_second: f64,
    /// Full set-ups per run at [`Scale::Full`]; `setup_s` is their median.
    setups: usize,
    /// Restarts per run at [`Scale::Full`]; `restart_s` is their quiet
    /// eighth.
    restarts: usize,
    /// Where a restart costs the same at any point of the run, the
    /// restarts are spread evenly through it, so that a disturbance of
    /// a few seconds cannot meet all of them. Where it grows with the
    /// run (recovery scans the whole epoch log), they all follow the
    /// last round and meet the same log.
    pub restarts_spread: bool,
}

impl Workload {
    /// The shape of a run at `scale` lasting about `seconds`.
    pub fn shape(&self, scale: Scale, seconds: u32) -> Shape {
        match scale {
            Scale::Full => Shape {
                rounds: (self.rounds_per_second * f64::from(seconds))
                    .round()
                    .max(48.0) as usize,
                ..self.shape
            },
            Scale::Tiny => Shape {
                depts: 4,
                profs_per_dept: 8,
                rounds: 52,
                batch: self.shape.batch.min(16),
                ..self.shape
            },
        }
    }

    /// Set-ups and restarts of a run at `scale`: the cheaper one is,
    /// the more of them a run can afford.
    pub fn repeats(&self, scale: Scale) -> (usize, usize) {
        match scale {
            Scale::Full => (self.setups, self.restarts),
            Scale::Tiny => (2, 2),
        }
    }
}

/// Share of rounds discarded as warm-up.
pub const WARMUP_SHARE: f64 = 0.05;

const WIRE_VIEWS: &[ViewSpec] = &[
    ViewSpec::Simple {
        def: "define mview W1 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
        screening: false,
        aux_cache: false,
    },
    ViewSpec::Simple {
        def: "define mview W2 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25",
        screening: false,
        aux_cache: false,
    },
    ViewSpec::Simple {
        def: "define mview W3 as: SELECT ROOT.dept.professor X WHERE X.age > 60",
        screening: true,
        aux_cache: true,
    },
    ViewSpec::Simple {
        def: "define mview W4 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20",
        screening: true,
        aux_cache: true,
    },
];

const fn colocated(def: &'static str) -> ViewSpec {
    ViewSpec::Simple {
        def,
        screening: false,
        aux_cache: false,
    }
}

// Constant-path views at depths 1–3 and two wildcard views: the shapes
// `choose_backend` routes to Algorithm 1.
const ALG1_VIEWS: &[ViewSpec] = &[
    colocated("define mview L1 as: SELECT ROOT.dept X WHERE X.budget > 50"),
    colocated("define mview L2 as: SELECT ROOT.dept.professor X WHERE X.age <= 45"),
    colocated("define mview L3 as: SELECT ROOT.dept.professor X WHERE X.age > 60"),
    colocated("define mview L4 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25"),
    colocated("define mview L5 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20"),
    colocated("define mview L6 as: SELECT ROOT.dept.professor X WHERE X.student.age > 35"),
    ViewSpec::Wildcard {
        def: "define mview L7 as: SELECT ROOT.*.student X WHERE X.age > 37",
    },
    // Rooted at one department: most updates fail its guard, and its
    // refresh walks one subtree, not the store.
    ViewSpec::Wildcard {
        def: "define mview L8 as: SELECT D1.?.student X WHERE X.age <= 16",
    },
];

// Three-branch unions and per-member aggregates: the shapes
// `choose_backend` routes to the delta circuit.
const CIRCUIT_VIEWS: &[ViewSpec] = &[
    ViewSpec::Union {
        name: "C1",
        branches: &[
            "define mview C1 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
            "define mview C1 as: SELECT ROOT.dept.professor.student X WHERE X.age > 25",
            "define mview C1 as: SELECT ROOT.dept.professor X WHERE X.age > 70",
        ],
    },
    ViewSpec::Union {
        name: "C2",
        branches: &[
            "define mview C2 as: SELECT ROOT.dept X WHERE X.budget > 50",
            "define mview C2 as: SELECT ROOT.dept.professor X WHERE X.age > 60",
            "define mview C2 as: SELECT ROOT.dept.professor.student X WHERE X.age <= 20",
        ],
    },
    ViewSpec::Aggregate {
        def: "define mview C3 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
        path: "student.age",
        f: Agg::Avg,
    },
    ViewSpec::Aggregate {
        def: "define mview C4 as: SELECT ROOT.dept.professor X WHERE X.age > 30",
        path: "student.age",
        f: Agg::Max,
    },
    ViewSpec::Aggregate {
        def: "define mview C5 as: SELECT ROOT.dept X WHERE X.budget > 20",
        path: "professor.age",
        f: Agg::Count,
    },
];

const DURABLE_VIEWS: &[ViewSpec] = &[colocated(
    "define mview R1 as: SELECT ROOT.dept.professor X WHERE X.age <= 45",
)];

// One store, one update script and one read script for both portfolios:
// they end on the same store digest, and their medians are taken over
// the same rounds of the same delta stream. The round count is sized
// for the slower backend (Algorithm 1, whose whole-store wildcard view
// makes a round about twice the circuits'), so `circuit_portfolio`
// measures for about half of `--seconds`.
const PORTFOLIO_ROUNDS_PER_SECOND: f64 = 70.0;
const PORTFOLIO_SHAPE: Shape = Shape {
    depts: 40,
    profs_per_dept: 50,
    students_per_prof: 3,
    batch: 256,
    burst: 32,
    rounds: 0,
    mix: ReadMix::ViewsAndQueries,
};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "wire_maintain",
        why: "paper s5: warehouse maintains 4 views over TCP; serve+warehouse+source-side query answering dominate, durable/circuit/parallel driver are bypassed",
        kind: Kind::Wire,
        views: WIRE_VIEWS,
        shards: 1,
        shape: Shape {
            depts: 60,
            profs_per_dept: 50,
            students_per_prof: 3,
            batch: 16,
            burst: 32,
            rounds: 0,
            mix: ReadMix::SourceQueries,
        },
        rounds_per_second: 120.0,
        setups: 3,
        restarts: 8,
        restarts_spread: true,
    },
    Workload {
        name: "alg1_portfolio",
        why: "paper s4: colocated constant-path and wildcard views on Algorithm 1 over 256-update batches; core dominates, serve/durable/circuit are bypassed",
        kind: Kind::Alg1,
        views: ALG1_VIEWS,
        shards: 1,
        shape: PORTFOLIO_SHAPE,
        rounds_per_second: PORTFOLIO_ROUNDS_PER_SECOND,
        setups: 7,
        restarts: 8,
        restarts_spread: true,
    },
    Workload {
        name: "circuit_portfolio",
        why: "same store, script and reads as alg1_portfolio, but unions and aggregates the planner routes to delta circuits; circuit dominates, Algorithm 1 is bypassed",
        kind: Kind::Circuit,
        views: CIRCUIT_VIEWS,
        shards: 1,
        shape: PORTFOLIO_SHAPE,
        rounds_per_second: PORTFOLIO_ROUNDS_PER_SECOND,
        setups: 7,
        restarts: 8,
        restarts_spread: true,
    },
    Workload {
        name: "commit_durable",
        why: "8-shard source persisting every epoch to disk beside snapshot reads; gsdb commit and durable persist dominate, the only workload with recovery",
        kind: Kind::Durable,
        views: DURABLE_VIEWS,
        shards: 8,
        shape: Shape {
            depts: 200,
            profs_per_dept: 50,
            students_per_prof: 3,
            batch: 8,
            burst: 32,
            rounds: 0,
            mix: ReadMix::SourceQueries,
        },
        rounds_per_second: 290.0,
        setups: 5,
        restarts: 4,
        restarts_spread: false,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
