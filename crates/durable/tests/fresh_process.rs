//! Recovery in a fresh process.
//!
//! Every other recovery test restarts inside the process that wrote
//! the log, and so shares its interner: an OID's interning index — the
//! order in which the process first met the name — is the same before
//! and after such a restart. A real restart interns names in the order
//! recovery decodes them, so anything persisted that leans on the index
//! (a shard placement hashed from it) recovers in-process and fails in
//! a new one.
//!
//! The parent test persists a store at each of several shard counts
//! under a scratch directory, then runs this test binary again as a
//! child process in that directory, with only the ignored child test
//! selected. The child recovers every store it finds there and prints
//! a digest of each; the parent compares them with the digests of the
//! stores it persisted.
//!
//! `GSVIEW_SEED` salts the object names, so each CI cell places a
//! different set of names; `DURABLE_SHARDS` adds its shard count to 2
//! and 8.

use gsdb::codec::{crc32, put_object, put_varint};
use gsdb::{Object, Oid, Store, StoreConfig, Update};
use gsview_durable::{DurableStore, MediaSet, PersistMeta};
use gsview_obs::fault;
use std::path::Path;
use std::process::Command;

/// The lineage every store persists under.
const NAME: &str = "fresh";
/// The epoch it persists as.
const EPOCH: u64 = 3;
/// The child half, run only by the parent.
const CHILD: &str = "the_child_recovers_every_store_in_its_directory";

fn shard_counts() -> Vec<usize> {
    let mut counts = vec![2, 8];
    if let Some(n) = std::env::var("DURABLE_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        counts.push(n);
    }
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// A root set over a few hundred salted atoms, with some removed (free
/// slots) and some modified, persisted as one epoch.
fn build(shards: usize) -> Store {
    let salt = fault::seed();
    let name = |i: usize| format!("fp{salt}.{i}");
    let mut s = Store::with_config(StoreConfig::default().with_shards(shards));
    s.create(Object::empty_set("fpR", "root")).unwrap();
    for i in 0..400 {
        s.create(Object::atom(name(i).as_str(), "x", i as i64))
            .unwrap();
        s.apply(Update::insert("fpR", name(i).as_str())).unwrap();
    }
    for i in (0..400).step_by(7) {
        s.apply(Update::delete("fpR", name(i).as_str())).unwrap();
        s.apply(Update::Remove {
            oid: Oid::new(&name(i)),
        })
        .unwrap();
    }
    for i in (1..400).step_by(11).filter(|i| i % 7 != 0) {
        s.modify_atom(Oid::new(&name(i)), -(i as i64)).unwrap();
    }
    s
}

/// The store as bytes that read the same in every process — each
/// object by name, with its slot and home shard — checksummed.
fn digest(s: &Store) -> u32 {
    let mut buf = Vec::new();
    for o in s.oids_sorted() {
        put_object(&mut buf, s.get(o).expect("a listed object"));
        put_varint(&mut buf, u64::from(s.slot_of(o).expect("a listed object")));
        put_varint(&mut buf, s.shard_of(o) as u64);
    }
    crc32(&buf)
}

/// What the child prints for the store under `dir`.
fn recovered_line(dir: &Path) -> String {
    let tag = dir
        .file_name()
        .and_then(|n| n.to_str())
        .expect("a UTF-8 directory name");
    let d = DurableStore::open(MediaSet::on_dir(dir).unwrap()).unwrap();
    match d.recover(NAME).unwrap() {
        Some(rec) => {
            rec.store.check_invariants().unwrap();
            format!(
                "{tag} epoch {} digest {:08x}",
                rec.manifest.epoch,
                digest(&rec.store)
            )
        }
        None => format!("{tag} nothing recovered"),
    }
}

#[test]
fn a_log_written_by_one_process_recovers_in_another() {
    let dir = std::env::temp_dir().join(format!("gsview-fresh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut want = Vec::new();
    for shards in shard_counts() {
        let store = build(shards);
        let sub = dir.join(format!("shards-{shards}"));
        let d = DurableStore::open(MediaSet::on_dir(&sub).unwrap()).unwrap();
        let meta = PersistMeta {
            epoch: EPOCH,
            seq: EPOCH,
        };
        d.persist(NAME, &store.fork(), meta).unwrap();
        let line = format!(
            "shards-{shards} epoch {EPOCH} digest {:08x}",
            digest(&store)
        );
        // In this process the log recovers whatever placement hashes.
        assert_eq!(recovered_line(&sub), line);
        want.push(line);
    }

    let exe = std::env::current_exe().expect("the test binary's path");
    let out = Command::new(exe)
        .args([
            "--exact",
            CHILD,
            "--ignored",
            "--nocapture",
            "--test-threads",
            "1",
        ])
        .current_dir(&dir)
        .output()
        .expect("the test binary runs again");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the child failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness may print the test's name on the child's first line.
    for line in &want {
        assert!(
            stdout.contains(line.as_str()),
            "a fresh process did not recover `{line}`:\n{stdout}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run alone (`--include-ignored`) it finds no stores in the package
/// directory and prints nothing.
#[test]
#[ignore = "the child half of a_log_written_by_one_process_recovers_in_another"]
fn the_child_recovers_every_store_in_its_directory() {
    let mut dirs: Vec<_> = std::fs::read_dir(".")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("shards-"))
        })
        .collect();
    dirs.sort();
    for dir in dirs {
        println!("{}", recovered_line(&dir));
    }
}
