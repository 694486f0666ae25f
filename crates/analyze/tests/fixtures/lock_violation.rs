// Fixture for the lock-discipline rule.  Analysed with the synthetic path
// `crates/store/src/lock_fixture.rs`; never compiled.

use pds_core::vfs;

pub fn bad_hold(store: &Store) {
    let mut shard = store.shards[0].write();
    vfs::rename("site", "a", "b").ok(); // VIOLATION: file I/O while `shard` is held
    shard.push(1);
}

pub fn bad_nested(store: &Store) {
    let a = store.shards[0].read();
    let b = store.shards[1].read(); // VIOLATION: nested lock acquisition
    a.len() + b.len()
}

pub fn good_scoped(store: &Store) {
    let task = {
        let mut shard = store.shards[0].write();
        shard.take()
    };
    // Guard dropped with the block: I/O here is fine.
    vfs::rename("site", "a", "b").ok();
    task
}

pub fn good_early_drop(store: &Store) {
    let shard = store.shards[0].read();
    let n = shard.len();
    drop(shard);
    vfs::rename("site", "a", "b").ok(); // fine: guard explicitly dropped
    n
}

pub fn bad_seal_under_guard(store: &Store) {
    let mut shard = store.write_shard(0);
    let task = shard.take();
    store.seal_frozen(task).ok(); // VIOLATION: the seal sequence (build + blob + manifest I/O) under `shard`
}

pub fn good_seal_after_guard(store: &Store) {
    let task = {
        let mut shard = store.write_shard(0);
        shard.take()
    };
    store.seal_frozen(task).ok(); // fine: frozen under the guard, sealed after it
}

pub fn bad_load_in_capture(store: &Store) {
    store.capture_cut(0..2, |shard| shard.handles()[0].load()); // VIOLATION: block load under the capture guard
}

pub fn good_load_after_capture(store: &Store) {
    let (cut, _) = store.capture_cut(0..2, |shard| (shard.handles(), shard.version.load(SeqCst)));
    cut[0].0[0].load(); // fine: every guard dropped with the capture
}
