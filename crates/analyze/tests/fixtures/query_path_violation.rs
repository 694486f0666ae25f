//! Fixture: panic-freedom follows the store's module seam — fed as
//! `query.rs` (the read side) every seed fires whatever its function is
//! called; fed as `store.rs` (write paths, which must panic on poison) none.

pub fn range_estimate(lo: usize, hi: usize) -> f64 {
    let v = vec![1.0, 2.0];
    let first = v[lo];
    let last = v.get(hi).copied().unwrap();
    first + last
}

pub fn ingest(item: usize) -> f64 {
    let v = vec![1.0, 2.0];
    let sum = v[item] + v.get(item).copied().unwrap();
    panic!("writers may panic on poisoned state: {sum}")
}
