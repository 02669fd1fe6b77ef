//! The cache store's conformance suite: the behavioral contracts the
//! cache layer, worker protocol and `assemble` are written against —
//! atomic last-writer-wins puts, at most one claim winner among racers,
//! owner-only heartbeats and releases, and a gc that never touches
//! claims.

use std::path::PathBuf;
use std::time::Duration;

use flexpipe_fleet::{ClaimOutcome, LocalDiskStore};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexpipe-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` against a store in a fresh directory, then removes it.
fn conformance(tag: &str, f: impl Fn(&LocalDiskStore)) {
    let dir = tmp(tag);
    let store = LocalDiskStore::open(&dir).unwrap();
    assert_eq!(store.root(), dir.as_path());
    f(&store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn puts_are_last_writer_wins_and_gets_are_exact() {
    conformance("putget", |s| {
        assert_eq!(s.get("aa11").unwrap(), None);
        s.put("aa11", "first").unwrap();
        s.put("bb22", "other").unwrap();
        assert_eq!(s.get("aa11").unwrap().as_deref(), Some("first"));
        assert_eq!(s.get("bb22").unwrap().as_deref(), Some("other"));
        // Same-key re-put replaces atomically: last writer wins.
        s.put("aa11", "second").unwrap();
        assert_eq!(s.get("aa11").unwrap().as_deref(), Some("second"));
        // Keys are exact strings, no prefix aliasing.
        assert_eq!(s.get("aa1").unwrap(), None);
        assert_eq!(s.get("aa111").unwrap(), None);
    });
}

#[test]
fn payloads_round_trip_arbitrary_json_content() {
    conformance("payload", |s| {
        // Entry payloads are JSON documents with quotes, braces, escapes
        // and newlines — they must come back byte-exact.
        let payload = "{\n  \"k\": \"va\\\"lue\",\n  \"n\": [1, 2.5, -3]\n}\n";
        s.put("cc33", payload).unwrap();
        assert_eq!(s.get("cc33").unwrap().as_deref(), Some(payload));
    });
}

#[test]
fn list_enumerates_entries_with_payloads_but_never_claims() {
    conformance("list", |s| {
        assert!(s.list().unwrap().is_empty());
        s.put("aa11", "one").unwrap();
        s.put("bb22", "two").unwrap();
        s.try_claim("cc33", "w1").unwrap();
        let mut objs = s.list().unwrap();
        objs.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(objs.len(), 2, "claims must not appear in list()");
        assert_eq!(objs[0].key, "aa11");
        assert_eq!(objs[0].payload.as_deref(), Some("one"));
        assert!(objs[0].bytes > 0);
        assert_eq!(objs[1].key, "bb22");
    });
}

#[test]
fn remove_reports_whether_anything_was_there() {
    conformance("remove", |s| {
        s.put("aa11", "x").unwrap();
        assert!(s.remove("aa11").unwrap());
        assert_eq!(s.get("aa11").unwrap(), None);
        assert!(!s.remove("aa11").unwrap(), "second remove is a no-op");
        assert!(!s.remove("zz99").unwrap());
    });
}

#[test]
fn claims_are_exclusive_reentrant_and_owner_released() {
    conformance("claims", |s| {
        // First claim wins.
        assert_eq!(s.try_claim("aa11", "w1").unwrap(), ClaimOutcome::Acquired);
        // A peer is told who holds it.
        match s.try_claim("aa11", "w2").unwrap() {
            ClaimOutcome::Held { worker, .. } => assert_eq!(worker, "w1"),
            other => panic!("expected Held, got {other:?}"),
        }
        // The holder itself re-acquires (restart after a crash on the
        // same machine must not deadlock on its own stale claim).
        assert_eq!(s.try_claim("aa11", "w1").unwrap(), ClaimOutcome::Acquired);
        // Only the owner can release.
        assert!(!s.release_claim("aa11", "w2").unwrap());
        assert!(s.release_claim("aa11", "w1").unwrap());
        assert!(!s.release_claim("aa11", "w1").unwrap(), "already released");
        // Released means claimable by anyone.
        assert_eq!(s.try_claim("aa11", "w2").unwrap(), ClaimOutcome::Acquired);
    });
}

#[test]
fn claim_listing_refresh_and_reaping() {
    conformance("reap", |s| {
        s.try_claim("aa11", "w1").unwrap();
        s.try_claim("bb22", "w2").unwrap();
        let mut claims = s.list_claims().unwrap();
        claims.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(claims.len(), 2);
        assert_eq!(
            (claims[0].key.as_str(), claims[0].worker.as_str()),
            ("aa11", "w1")
        );
        assert_eq!(
            (claims[1].key.as_str(), claims[1].worker.as_str()),
            ("bb22", "w2")
        );
        assert!(claims[0].age < Duration::from_secs(30), "fresh claim");
        // Only the holder can heartbeat.
        assert!(s.refresh_claim("aa11", "w1").unwrap());
        assert!(!s.refresh_claim("aa11", "w2").unwrap());
        assert!(!s.refresh_claim("zz99", "w1").unwrap());
        // A generous TTL reaps nothing; TTL zero reaps everything.
        assert_eq!(s.reap_stale_claims(Duration::from_secs(3600)).unwrap(), 0);
        assert_eq!(s.list_claims().unwrap().len(), 2);
        assert_eq!(s.reap_stale_claims(Duration::ZERO).unwrap(), 2);
        assert!(s.list_claims().unwrap().is_empty());
    });
}

#[test]
fn claim_races_have_exactly_one_winner() {
    conformance("race", |s| {
        // N threads race one key; the claim protocol's whole job is that
        // exactly one sees Acquired. (Claims are an optimization — a
        // duplicated compute would still be correct — but the protocol
        // itself must be atomic or it optimizes nothing.)
        let workers = 8;
        let acquired: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // Each racer opens its own handle, as separate
                    // processes sharing the directory would.
                    let store = LocalDiskStore::open(s.root()).unwrap();
                    scope.spawn(move || {
                        matches!(
                            store.try_claim("dd44", &format!("w{w}")).unwrap(),
                            ClaimOutcome::Acquired
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            acquired.iter().filter(|&&a| a).count(),
            1,
            "exactly one racer must win: {acquired:?}"
        );
        assert_eq!(s.list_claims().unwrap().len(), 1);
    });
}

#[test]
fn gc_evicts_oldest_first_and_never_touches_live_claims() {
    conformance("gc", |s| {
        for (i, key) in ["aa01", "bb02", "cc03"].iter().enumerate() {
            s.put(key, &format!("payload-{i}")).unwrap();
        }
        s.try_claim("dd44", "w1").unwrap();
        // Generous bounds: nothing happens.
        let out = s
            .gc(Some(Duration::from_secs(3600)), Some(u64::MAX))
            .unwrap();
        assert_eq!(out.removed, 0);
        assert_eq!(out.kept, 3);
        // Size cap 0 with no age bound: every entry goes, the claim and
        // the claim's exclusivity survive.
        let out = s.gc(None, Some(0)).unwrap();
        assert_eq!(out.removed, 3);
        assert!(out.bytes_freed > 0);
        assert!(s.list().unwrap().is_empty());
        assert_eq!(
            s.list_claims().unwrap().len(),
            1,
            "gc must never reap claims"
        );
        match s.try_claim("dd44", "w2").unwrap() {
            ClaimOutcome::Held { worker, .. } => assert_eq!(worker, "w1"),
            other => panic!("claim lost its exclusivity across gc: {other:?}"),
        }
    });
}

#[test]
fn reopening_a_store_sees_everything() {
    let dir = tmp("reopen");
    {
        let store = LocalDiskStore::open(&dir).unwrap();
        store.put("aa11", "persisted").unwrap();
        store.try_claim("bb22", "w1").unwrap();
    }
    // A fresh handle sees all state on disk (this is what lets N worker
    // processes share one directory).
    let store = LocalDiskStore::open(&dir).unwrap();
    assert_eq!(store.get("aa11").unwrap().as_deref(), Some("persisted"));
    assert_eq!(store.list_claims().unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_claims_can_be_taken_over_after_reaping() {
    conformance("takeover", |s| {
        // w1 claims and "dies" (no heartbeat). A peer reaps by TTL and
        // takes the cell over — the liveness half of the protocol.
        s.try_claim("aa11", "w1").unwrap();
        match s.try_claim("aa11", "w2").unwrap() {
            ClaimOutcome::Held { worker, .. } => assert_eq!(worker, "w1"),
            other => panic!("expected Held, got {other:?}"),
        }
        assert_eq!(s.reap_stale_claims(Duration::ZERO).unwrap(), 1);
        assert_eq!(s.try_claim("aa11", "w2").unwrap(), ClaimOutcome::Acquired);
    });
}
