//! One fault schedule for every injector.
//!
//! Each seeded fault injector in the workspace — report and query
//! chaos in the warehouse, socket chaos in the serving tier, crash
//! media in the durable crate, and the racing-writer schedule of the
//! commit stress test — draws from a [`Stream`] over one splitmix64
//! sequence, salted by the name of its boundary, under the one seed
//! [`seed`] reads from `GSVIEW_SEED`. Word `k` of a stream is a pure
//! function of `(seed, k)` ([`word`]), so a failing run replays
//! exactly from its seed, and an injection event that carries its
//! boundary and draw index `k` says where in the schedule the run
//! broke.
//!
//! The sequence is word for word that of the workspace's `rand`
//! stand-in (`StdRng::seed_from_u64`), and [`Draw::chance`] and
//! [`Draw::below`] are its `gen_bool` and `gen_range(0..n)`: an
//! injector moved onto a stream with its old seed draws what it drew
//! before.

use std::sync::atomic::{AtomicU64, Ordering};

/// splitmix64's increment, the golden ratio in 64 bits.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Word `k` of the schedule for `seed`: splitmix64's mix of
/// `seed + (k + 1)·γ`.
pub fn word(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed every seeded fault suite runs under: `GSVIEW_SEED`, or 0
/// when it is unset. Panics on a value that is not a `u64`, so a typo
/// never runs, and reports, a schedule nobody asked for.
pub fn seed() -> u64 {
    match std::env::var("GSVIEW_SEED") {
        Ok(s) => s
            .parse()
            .unwrap_or_else(|_| panic!("GSVIEW_SEED={s:?} is not a u64")),
        Err(_) => 0,
    }
}

/// One injector's walk through the schedule. The draw counter is
/// atomic, so a stream shared between threads hands every draw its own
/// word.
pub struct Stream {
    seed: u64,
    boundary: &'static str,
    next: AtomicU64,
}

impl Stream {
    /// The stream of `seed` at the boundary `name` (at most 8 bytes).
    /// The name, read as a big-endian number, salts the seed, so two
    /// boundaries under one seed draw different words.
    pub fn new(seed: u64, name: &'static str) -> Stream {
        assert!(name.len() <= 8, "boundary name {name:?} is over 8 bytes");
        let salt = name.bytes().fold(0, |salt, b| salt << 8 | u64::from(b));
        Stream {
            seed: seed ^ salt,
            boundary: name,
            next: AtomicU64::new(0),
        }
    }

    /// The boundary's name, which its `chaos.inject` events carry.
    pub fn boundary(&self) -> &'static str {
        self.boundary
    }

    /// The next word of the stream, with its index.
    pub fn draw(&self) -> Draw {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        Draw {
            k,
            word: word(self.seed, k),
        }
    }
}

/// One word of a [`Stream`] and the index it was drawn at — the `k` an
/// injection event reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Draw {
    /// Index of the word in its stream.
    pub k: u64,
    word: u64,
}

impl Draw {
    /// Uniform in `[0, 1)`: the word's top 53 bits.
    fn unit(self) -> f64 {
        (self.word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`; panics unless `0 ≤ p ≤ 1`.
    pub fn chance(self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.unit() < p
    }

    /// Uniform below `n` (0 when `n` is 0).
    pub fn below(self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.word % n
        }
    }

    /// A choice among consecutive outcomes of probabilities `ps`: the
    /// index of the one the draw, read as a uniform roll in `[0, 1)`,
    /// falls in, or `None` past their sum — the share left over for "no
    /// fault".
    pub fn pick(self, ps: &[f64]) -> Option<usize> {
        let roll = self.unit();
        let mut upto = 0.0;
        ps.iter().position(|p| {
            upto += p;
            roll < upto
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    #[test]
    fn streams_draw_the_words_of_std_rng() {
        for seed in [0, 1, 3, 123, 0x006d_6f6e_6974_6f72, u64::MAX] {
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = Stream::new(seed, "");
            for k in 0..1_000 {
                let d = stream.draw();
                assert_eq!((d.k, d.word), (k, rng.next_u64()), "seed {seed}, word {k}");
            }
            // And the derived draws are rand's, bit for bit.
            let mut rng = StdRng::seed_from_u64(seed);
            let stream = Stream::new(seed, "");
            for _ in 0..1_000 {
                assert_eq!(stream.draw().chance(0.3), rng.gen_bool(0.3));
                assert_eq!(stream.draw().below(17), rng.gen_range(0..17u64));
                assert_eq!(stream.draw().unit(), rng.gen::<f64>());
            }
        }
    }

    #[test]
    fn pick_honours_its_edges() {
        let stream = Stream::new(9, "");
        for _ in 0..1_000 {
            let d = stream.draw();
            assert_eq!(d.pick(&[0.0, 0.0]), None, "p = 0 never picks");
            assert_eq!(d.pick(&[]), None);
            assert_eq!(d.pick(&[1.0]), Some(0), "p = 1 always picks");
            assert_eq!(d.pick(&[0.0, 1.0]), Some(1));
        }
        // Below a sum of 1 the remainder is "none", in proportion.
        let picks: Vec<_> = (0..100_000)
            .map(|_| stream.draw().pick(&[0.1, 0.2, 0.3]))
            .collect();
        let share = |want| picks.iter().filter(|&&p| p == want).count() as f64 / 1e5;
        for (want, p) in [(Some(0), 0.1), (Some(1), 0.2), (Some(2), 0.3), (None, 0.4)] {
            assert!((share(want) - p).abs() < 0.01, "{want:?}: {}", share(want));
        }
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn chance_rejects_a_probability_above_one() {
        Stream::new(1, "").draw().chance(1.5);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn chance_rejects_a_negative_probability() {
        Stream::new(1, "").draw().chance(-0.1);
    }

    #[test]
    fn boundary_salts_split_one_seed_into_different_streams() {
        // A name salts the seed as its big-endian bytes: the report and
        // query injectors' salts, on which E12's pinned counts rest.
        assert_eq!(Stream::new(5, "monitor").seed, 5 ^ 0x006d_6f6e_6974_6f72);
        assert_eq!(Stream::new(5, "wrapper").seed, 5 ^ 0x0077_7261_7070_6572);
        let a = Stream::new(7, "monitor");
        let b = Stream::new(7, "wrapper");
        let words = |s: &Stream| (0..64).map(|_| s.draw().word).collect::<Vec<_>>();
        let (wa, wb) = (words(&a), words(&b));
        assert_ne!(wa, wb);
        assert!(
            wa.iter().all(|w| !wb.contains(w)),
            "no shared word in 64 draws"
        );
        // A stream is a pure function of seed and salt.
        assert_eq!(words(&Stream::new(7, "monitor")), wa);
    }
}
