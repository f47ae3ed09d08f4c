//! Input generation: everything a workload feeds the system is made
//! here from `--seed`, as plain data (names, labels, values), before
//! the clock starts. The system under test never sees the seed — only
//! the generated objects, update batches and read bursts — and
//! [`crate::sut`] is the only module that turns this data into calls.
//!
//! One database shape serves all four workloads, so a change to a
//! shared layer meets the same objects everywhere:
//!
//! ```text
//! ROOT (db) ── D<d> (dept) ─┬─ B<d> (budget: int)
//!                           └─ P<i> (professor) ─┬─ A<i> (age: int)
//!                                                ├─ N<i> (name: string)
//!                                                └─ S<k> (student) ── T<k> (age: int)
//! ```
//!
//! An `insert` attaches a student subtree created in the same batch
//! (a fresh object cannot carry view members, so maintenance stays
//! local — re-attaching an old subtree makes Algorithm 1 re-verify
//! every member, which would turn each workload into a sweep
//! benchmark); a `delete` detaches one, and the next batch removes the
//! detached records; which of the two a professor gets depends on
//! whether it has more or fewer students than it started with, so the
//! store neither grows nor shrinks over a run. Every batch is generated against a shadow of the attachment
//! state: no update can fail.

/// SplitMix64: small, seedable, and identical on every platform. The
/// benchmark keeps its own generator (rather than the repository's
/// `rand` stand-in) so that no change to the repository can change the
/// inputs a seed produces: baselines stay comparable across commits.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as usize) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(α) over `0..n` by inverse CDF; ranks are mapped through a
/// seeded permutation so the hot keys differ from seed to seed.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    /// A sampler over `n` keys with exponent `alpha`.
    pub fn new(n: usize, alpha: f64, rng: &mut Rng) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, perm }
    }

    /// Sample a key.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.perm[rank] as usize
    }
}

/// An atomic value.
#[derive(Clone, Debug, PartialEq)]
pub enum Val {
    /// An integer.
    Int(i64),
    /// A string.
    Str(String),
}

/// One object of the initial database. Children are created before
/// their parents.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// OID name.
    pub name: String,
    /// Label.
    pub label: &'static str,
    /// `Some` for an atom; `None` for a set holding `children`.
    pub atom: Option<Val>,
    /// Children of a set object.
    pub children: Vec<String>,
}

/// One basic update (paper §4.1), or the creation/removal of an
/// unlinked object record.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Create an object record, not yet linked anywhere.
    Create(Node),
    /// Remove an unreferenced object record.
    Remove {
        /// The record.
        name: String,
    },
    /// `modify(N, _, newv)`.
    Modify {
        /// The atom.
        name: String,
        /// Its new value.
        val: Val,
    },
    /// `insert(N1, N2)`.
    Insert {
        /// The set object.
        parent: String,
        /// The child gained.
        child: String,
    },
    /// `delete(N1, N2)`.
    Delete {
        /// The set object.
        parent: String,
        /// The child lost.
        child: String,
    },
}

/// One read of a burst.
#[derive(Clone, Debug, PartialEq)]
pub enum Read {
    /// Fetch one object by OID.
    Fetch(String),
    /// The label of an object.
    LabelOf(String),
    /// `path(ROOT, n)`.
    PathFromRoot(String),
    /// `ancestor(n, path)`.
    Ancestor {
        /// The object.
        n: String,
        /// The path down to it.
        path: &'static str,
    },
    /// The objects in `n.path`, with values.
    Reach {
        /// The start object.
        n: String,
        /// The path.
        path: &'static str,
    },
    /// Is `base` a member of the `view`-th materialized view (modulo
    /// the portfolio size), and if so fetch its delegate.
    Member {
        /// View position.
        view: usize,
        /// Base OID.
        base: String,
    },
    /// Parse and evaluate query text against the source snapshot.
    Query(String),
}

/// Which reads a burst is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadMix {
    /// Source queries only (the E19 mix): served over the wire, or by
    /// answering against a snapshot in-process.
    SourceQueries,
    /// View-member probes plus parsed-and-evaluated query text.
    ViewsAndQueries,
}

/// The size and traffic parameters of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Departments under ROOT.
    pub depts: usize,
    /// Professors per department.
    pub profs_per_dept: usize,
    /// Students attached to each professor initially.
    pub students_per_prof: usize,
    /// Basic updates per round (one commit); an insert's three
    /// updates may overshoot it by two.
    pub batch: usize,
    /// Reads per burst.
    pub burst: usize,
    /// Rounds, warm-up included.
    pub rounds: usize,
    /// What a burst reads.
    pub mix: ReadMix,
}

impl Shape {
    /// Professors in the database.
    pub fn profs(&self) -> usize {
        self.depts * self.profs_per_dept
    }

    /// Objects in the initial database.
    pub fn objects(&self) -> usize {
        1 + 2 * self.depts + self.profs() * (3 + 2 * self.students_per_prof)
    }
}

/// Everything one run feeds the system.
pub struct Inputs {
    /// The initial database, children first; `ROOT` last.
    pub nodes: Vec<Node>,
    /// One update batch per round.
    pub batches: Vec<Vec<Op>>,
    /// One read burst per round.
    pub bursts: Vec<Vec<Read>>,
}

/// Zipf exponent of update and read keys.
const ZIPF_ALPHA: f64 = 0.8;

fn atom(name: String, label: &'static str, v: i64) -> Node {
    Node {
        name,
        label,
        atom: Some(Val::Int(v)),
        children: Vec::new(),
    }
}

fn set(name: String, label: &'static str, children: Vec<String>) -> Node {
    Node {
        name,
        label,
        atom: None,
        children,
    }
}

/// Generate a run's inputs from `seed`.
pub fn generate(shape: &Shape, seed: u64) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x6773_6265_6e63_6800);
    let profs = shape.profs();

    // --- the initial database -------------------------------------
    let mut nodes: Vec<Node> = Vec::with_capacity(shape.objects());
    // Shadow of the attachment state the update script is generated
    // against: students attached per professor.
    let mut attached: Vec<Vec<u32>> = vec![Vec::new(); profs];
    let mut next_student = 0u32;
    let student = |k: u32, rng: &mut Rng| {
        [
            atom(format!("T{k}"), "age", rng.range(15, 40)),
            set(format!("S{k}"), "student", vec![format!("T{k}")]),
        ]
    };
    let mut dept_names = Vec::with_capacity(shape.depts);
    for d in 0..shape.depts {
        let mut children = vec![format!("B{d}")];
        nodes.push(atom(format!("B{d}"), "budget", rng.range(0, 100)));
        for j in 0..shape.profs_per_dept {
            let i = d * shape.profs_per_dept + j;
            nodes.push(atom(format!("A{i}"), "age", rng.range(20, 80)));
            nodes.push(Node {
                name: format!("N{i}"),
                label: "name",
                atom: Some(Val::Str(format!("prof-{i}"))),
                children: Vec::new(),
            });
            let mut kids = vec![format!("A{i}"), format!("N{i}")];
            for _ in 0..shape.students_per_prof {
                nodes.extend(student(next_student, &mut rng));
                attached[i].push(next_student);
                kids.push(format!("S{next_student}"));
                next_student += 1;
            }
            nodes.push(set(format!("P{i}"), "professor", kids));
            children.push(format!("P{i}"));
        }
        nodes.push(set(format!("D{d}"), "dept", children));
        dept_names.push(format!("D{d}"));
    }
    nodes.push(set("ROOT".into(), "db", dept_names));

    // --- the update and read scripts --------------------------------
    let zipf = Zipf::new(profs, ZIPF_ALPHA, &mut rng);
    let mut batches = Vec::with_capacity(shape.rounds);
    let mut bursts = Vec::with_capacity(shape.rounds);
    // Students the previous batch detached: this batch removes their
    // records (set first — its atom is unreferenced only after).
    let mut garbage: Vec<u32> = Vec::new();
    for _ in 0..shape.rounds {
        let mut batch = Vec::with_capacity(shape.batch + 2);
        for k in garbage.drain(..) {
            batch.push(Op::Remove {
                name: format!("S{k}"),
            });
            batch.push(Op::Remove {
                name: format!("T{k}"),
            });
        }
        while batch.len() < shape.batch {
            let i = zipf.sample(&mut rng);
            match rng.below(100) {
                // Ages cross the views' thresholds in both directions.
                0..=34 => batch.push(Op::Modify {
                    name: format!("A{i}"),
                    val: Val::Int(rng.range(20, 80)),
                }),
                35..=64 if !attached[i].is_empty() => {
                    let k = attached[i][rng.below(attached[i].len())];
                    batch.push(Op::Modify {
                        name: format!("T{k}"),
                        val: Val::Int(rng.range(15, 40)),
                    });
                }
                // A label no view mentions: screening rejects it.
                65..=74 => batch.push(Op::Modify {
                    name: format!("N{i}"),
                    val: Val::Str(format!("prof-{i}-{}", rng.below(1000))),
                }),
                75..=79 => batch.push(Op::Modify {
                    name: format!("B{}", i / shape.profs_per_dept),
                    val: Val::Int(rng.range(0, 100)),
                }),
                // Detach where the professor has more students than it
                // started with, attach (the arm below) where it has
                // fewer, either where it has as many: every professor
                // stays within one student of its initial count, so the
                // store is the same size in the last round as in the
                // first and a round costs the same early and late. (A
                // symmetric walk with a floor drifts upwards: a third
                // more objects after 1 100 rounds of 256 updates, and
                // every portfolio a third slower.)
                draw @ 80..=99
                    if attached[i].len() > shape.students_per_prof
                        || (attached[i].len() == shape.students_per_prof && draw < 90) =>
                {
                    let at = rng.below(attached[i].len());
                    let k = attached[i].swap_remove(at);
                    garbage.push(k);
                    batch.push(Op::Delete {
                        parent: format!("P{i}"),
                        child: format!("S{k}"),
                    });
                }
                _ => {
                    let k = next_student;
                    next_student += 1;
                    attached[i].push(k);
                    batch.extend(student(k, &mut rng).map(Op::Create));
                    batch.push(Op::Insert {
                        parent: format!("P{i}"),
                        child: format!("S{k}"),
                    });
                }
            }
        }
        batches.push(batch);

        // The burst read after this batch. Its student keys come from
        // the attachment state the batch leaves, so every read finds
        // its object in every round: sampled from the initial students,
        // a growing share would be cheap misses on removed records.
        let attached_student = |rng: &mut Rng| loop {
            let of = &attached[rng.below(profs)];
            if !of.is_empty() {
                break of[rng.below(of.len())];
            }
        };
        let burst = (0..shape.burst)
            .map(|r| {
                let i = zipf.sample(&mut rng);
                let k = attached_student(&mut rng);
                match shape.mix {
                    ReadMix::SourceQueries => match r % 6 {
                        0 => Read::Fetch(format!("P{i}")),
                        1 => Read::Fetch(format!("A{i}")),
                        2 => Read::LabelOf(format!("S{k}")),
                        3 => Read::PathFromRoot(format!("T{k}")),
                        4 => Read::Ancestor {
                            n: format!("T{k}"),
                            path: "student.age",
                        },
                        _ => Read::Reach {
                            n: format!("P{i}"),
                            path: "student.age",
                        },
                    },
                    ReadMix::ViewsAndQueries => match r % 4 {
                        0 | 1 => Read::Member {
                            view: r / 4,
                            base: format!("P{i}"),
                        },
                        2 => Read::Member {
                            view: r / 4,
                            base: format!("S{k}"),
                        },
                        _ => Read::Query(format!(
                            "SELECT D{}.professor X WHERE X.age > {}",
                            i / shape.profs_per_dept,
                            rng.range(20, 80)
                        )),
                    },
                }
            })
            .collect();
        bursts.push(burst);
    }

    Inputs {
        nodes,
        batches,
        bursts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            depts: 3,
            profs_per_dept: 4,
            students_per_prof: 2,
            batch: 8,
            burst: 12,
            rounds: 20,
            mix: ReadMix::ViewsAndQueries,
        }
    }

    #[test]
    fn same_seed_same_inputs_next_seed_different() {
        let a = generate(&shape(), 7);
        let b = generate(&shape(), 7);
        let c = generate(&shape(), 8);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.bursts, b.bursts);
        assert_ne!(a.batches, c.batches);
    }

    #[test]
    fn shape_counts_objects_and_batches_are_full() {
        let s = shape();
        let inp = generate(&s, 1);
        assert_eq!(inp.nodes.len(), s.objects());
        assert_eq!(inp.nodes.last().unwrap().name, "ROOT");
        assert!(inp
            .batches
            .iter()
            .all(|b| (s.batch..s.batch + 3).contains(&b.len())));
        assert!(inp.bursts.iter().all(|b| b.len() == s.burst));
    }

    #[test]
    fn no_update_fails_and_every_read_finds_its_object() {
        use std::collections::{HashMap, HashSet};
        let s = shape();
        let inp = generate(&s, 3);
        let mut live: HashSet<String> = inp.nodes.iter().map(|n| n.name.clone()).collect();
        let mut parent_of: HashMap<String, String> = HashMap::new();
        for n in &inp.nodes {
            for c in &n.children {
                assert!(parent_of.insert(c.clone(), n.name.clone()).is_none());
            }
        }
        for (batch, burst) in inp.batches.iter().zip(&inp.bursts) {
            for op in batch {
                apply(op, &mut live, &mut parent_of);
            }
            for read in burst {
                let key = match read {
                    Read::Fetch(n) | Read::LabelOf(n) | Read::PathFromRoot(n) => n,
                    Read::Ancestor { n, .. } | Read::Reach { n, .. } => n,
                    Read::Member { base, .. } => base,
                    Read::Query(_) => continue,
                };
                assert!(parent_of.contains_key(key), "{key} is not attached");
            }
        }

        fn apply(op: &Op, live: &mut HashSet<String>, parent_of: &mut HashMap<String, String>) {
            match op {
                Op::Create(n) => {
                    assert!(n.children.iter().all(|c| live.contains(c)));
                    for c in &n.children {
                        assert!(parent_of.insert(c.clone(), n.name.clone()).is_none());
                    }
                    assert!(live.insert(n.name.clone()), "fresh name");
                }
                Op::Remove { name } => {
                    assert!(!parent_of.contains_key(name), "{name} still referenced");
                    parent_of.retain(|_, p| p != name);
                    assert!(live.remove(name));
                }
                Op::Delete { parent, child } => {
                    assert_eq!(parent_of.remove(child).as_ref(), Some(parent));
                }
                Op::Insert { parent, child } => {
                    assert!(live.contains(parent) && live.contains(child));
                    assert!(parent_of.insert(child.clone(), parent.clone()).is_none());
                }
                Op::Modify { name, .. } => assert!(live.contains(name)),
            }
        }
    }
}
