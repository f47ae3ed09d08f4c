//! What a commit copies is what it writes, whatever the store holds: a
//! commit through [`ShardedStore`] that writes one record copies that
//! record's 64-slot page and its shard's page directory, once, at 3 000
//! and at 300 000 objects alike. Counted through the
//! `store.cow.pages_copied` and `store.cow.directories_copied` counters,
//! not timed. The counters are process-wide, so this file holds one
//! test: nothing else in its process copies meanwhile.

use gsdb::{Object, Oid, ShardedStore, Store, StoreConfig, Update};

/// `(pages, directories)` copied so far, process-wide.
fn copied() -> (u64, u64) {
    let r = gsview_obs::registry();
    (
        r.counter("store.cow.pages_copied").get(),
        r.counter("store.cow.directories_copied").get(),
    )
}

/// Pages and directories one commit of `batch(i)` copies on average
/// over 20 commits, through an 8-shard pipeline over `objects` atoms.
fn per_commit(objects: usize, batch: impl Fn(&Store, usize) -> Vec<Update>) -> (u64, u64) {
    let mut store = Store::with_config(StoreConfig::default().with_shards(8));
    store.reserve(objects);
    for i in 0..objects {
        store
            .create(Object::atom(format!("cc{i}").as_str(), "v", 0i64))
            .unwrap();
    }
    let pipeline = ShardedStore::new(store);
    let commits = 20;
    let before = copied();
    for i in 0..commits {
        let r = pipeline.commit(&batch(&pipeline.snapshot(), i));
        assert!(r.error.is_none(), "{:?}", r.error);
    }
    let after = copied();
    let (pages, dirs) = (after.0 - before.0, after.1 - before.1);
    assert_eq!(
        (pages % commits as u64, dirs % commits as u64),
        (0, 0),
        "every commit copies the same"
    );
    (pages / commits as u64, dirs / commits as u64)
}

#[test]
fn a_commit_copies_one_page_and_one_directory_per_written_shard_at_any_store_size() {
    let one = |_: &Store, i: usize| vec![Update::modify("cc7", i as i64)];
    // Two records in two shards.
    let two = |s: &Store, i: usize| {
        let far = (8..)
            .map(|k| Oid::new(&format!("cc{k}")))
            .find(|&o| s.shard_of(o) != s.shard_of(Oid::new("cc7")))
            .unwrap();
        vec![
            Update::modify("cc7", i as i64),
            Update::modify(far, i as i64),
        ]
    };
    for objects in [3_000, 300_000] {
        assert_eq!(
            per_commit(objects, one),
            (1, 1),
            "one record over {objects} objects"
        );
        assert_eq!(
            per_commit(objects, two),
            (2, 2),
            "two shards over {objects} objects"
        );
    }
}
