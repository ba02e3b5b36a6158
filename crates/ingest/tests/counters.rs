//! The `gd_ingest_*` counters move with each ingestion. (Its own test
//! binary, so no other test ingests concurrently and moves the
//! process-wide counters it checks.)

use gd_ingest::metrics::{images, pool_bytes, text_bytes};
use gd_ingest::testimg;

#[test]
fn ingestion_moves_the_counters() {
    let before = images("bin").get();
    let ing = gd_ingest::ingest_bin(&testimg::demo_bin(), testimg::DEMO_BASE).unwrap();
    assert_eq!(images("bin").get(), before + 1);
    assert!(text_bytes("bin").get() >= u64::from(ing.spec().text_len));
    assert!(pool_bytes("bin").get() >= u64::from(ing.pool_bytes()));
}
