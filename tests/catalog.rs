//! The metadata catalog's fixed point: one scripted sequence through every
//! state-changing entry point (`support/catalog_script.rs`), pinned to
//! golden bytes and golden service counters. A rewrite of the service's
//! locking or layout must leave this file untouched and green.

use std::sync::Arc;

use cloudviews::metadata::{MetadataService, MetadataStats};
use cloudviews::CloudViewsBuilder;
use scope_common::time::SimClock;
use scope_engine::storage::StorageManager;

#[path = "support/catalog_script.rs"]
mod catalog_script;
use catalog_script::{run_script, Observed};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// What the script leaves in the service counters, whichever way the
/// service was constructed.
const GOLDEN_STATS: MetadataStats = MetadataStats {
    lookups: 3,
    annotations_returned: 3,
    locks_granted: 4,
    lock_conflicts: 1,
    already_materialized: 1,
    views_registered: 5,
    expired_takeovers: 1,
    failed_lookups: 1,
    failed_proposals: 1,
    failed_reports: 1,
    purged_annotations: 1,
    tier2_hits: 2,
    tier2_rejects: 2,
};

/// The golden `fingerprint()` at two points, the wire bytes of the three
/// lookups, and the golden counters.
#[test]
fn scripted_sequence_lands_on_golden_fingerprint_and_lookup_bytes() {
    let clock = Arc::new(SimClock::new());
    let m = MetadataService::new(Arc::clone(&clock), 4);
    let Observed {
        lookups: [first, second, third],
        before_purge,
    } = run_script(&m, &clock);

    assert_eq!(m.stats(), GOLDEN_STATS);
    assert_eq!(
        before_purge.to_string(),
        "d65fec4fd77fe7f3a508d4e1e3800d00",
        "mid-script fingerprint"
    );
    assert_eq!(
        m.fingerprint().to_string(),
        "fc8c5551796ab62dcf820f1dff35d2a9",
        "final fingerprint"
    );
    assert_eq!(
        hex(&first),
        concat!(
            "010000000a000000000000000100000000000000040000000000a493d6000000",
            "0080969800000000006400000000000000e80300000000000000000000943900",
            "00000000000100000000000000",
        ),
        "lookup before any view"
    );
    assert_eq!(
        hex(&second),
        concat!(
            "010000000a000000000000000100000000000000040000000000a493d6000000",
            "0080969800000000006400000000000000e80300000000000002000000a10000",
            "000000000001000000000000000a000000000000006400000000000000040000",
            "00000a00000000000000010000000000000000c000000000000000de00000000",
            "0000000200000000000000000000000000000002000000010000006b00010000",
            "0076000001000000010000000000000001020000000000000000010080969800",
            "00000000a20000000000000001000000000000000a0000000000000064000000",
            "0000000004000000000a00000000000000010000000000000000c00000000000",
            "0000de0000000000000002000000000000000000000000000000020000000100",
            "00006b0001000000760000010000000100000000000000010205000000000000",
            "00010080969800000000000c3a0000000000000100000000000000",
        ),
        "lookup with two tier-2 hits and one gate reject"
    );
    assert_eq!(
        hex(&third),
        concat!(
            "010000000b000000000000000200000000000000040000000000a493d6000000",
            "0080969800000000006400000000000000e80300000000000000000000bc3900",
            "00000000000100000000000000",
        ),
        "lookup on a descriptor-less view"
    );
}

/// The service statistics *are* the exported counters: on a service built
/// through `CloudViewsBuilder` the same script leaves the same
/// `MetadataStats`, and each field is its `cv_metadata_*_total` series in
/// the service's metrics snapshot.
#[test]
fn stats_are_the_exported_counters() {
    let clock = Arc::new(SimClock::new());
    let cv = CloudViewsBuilder::new(Arc::new(StorageManager::new()))
        .clock(Arc::clone(&clock))
        .build();
    run_script(&cv.metadata, &clock);

    let stats = cv.metadata.stats();
    assert_eq!(stats, GOLDEN_STATS);
    let snap = cv.telemetry.metrics.snapshot();
    for (value, series) in [
        (stats.lookups, "lookups"),
        (stats.annotations_returned, "lookup_annotations"),
        (stats.locks_granted, "locks_granted"),
        (stats.lock_conflicts, "lock_conflicts"),
        (stats.already_materialized, "already_materialized"),
        (stats.views_registered, "views_registered"),
        (stats.expired_takeovers, "expired_takeovers"),
        (stats.failed_lookups, "lookup_faults"),
        (stats.failed_proposals, "propose_faults"),
        (stats.failed_reports, "report_faults"),
        (stats.purged_annotations, "purged_annotations"),
        (stats.tier2_hits, "tier2_hits"),
        (stats.tier2_rejects, "tier2_rejects"),
    ] {
        let series = format!("cv_metadata_{series}_total");
        assert!(value > 0, "{series}: the script must move every counter");
        assert_eq!(snap.counter(&series), value, "{series}");
    }
}
