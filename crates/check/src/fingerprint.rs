//! The semantic-fingerprint backstop.
//!
//! [`flexpipe_serving::engine_fingerprint`] hashes the engine's *default
//! configuration*; a semantics change is supposed to bump
//! `ENGINE_SEMANTICS_VERSION` by hand, and a forgotten bump silently
//! replays stale campaign caches. [`semantic_fingerprint`] closes that
//! hole from the behavior side: it hashes the canonical per-entity
//! streams of an actual engine run, so *any* observable semantics change
//! — event added, payload changed, timing moved — changes the hash. The
//! committed probe scenario's fingerprint is pinned in a test; if it
//! changes while `ENGINE_SEMANTICS_VERSION` does not, the pinned test
//! fails loudly and names the contract being broken.

use flexpipe_obs::TraceRecord;
use flexpipe_serving::ENGINE_SEMANTICS_VERSION;
use flexpipe_sim::{fnv1a, FNV_OFFSET};

use crate::model::{normalize, project};

/// The pinned fingerprint of [`crate::scenarios::CheckScenario::probe`]'s
/// canonical run. Update this constant **and** bump
/// `ENGINE_SEMANTICS_VERSION` together when engine semantics deliberately
/// change; the pinned test fails on either half being forgotten.
pub const PINNED_SEMANTIC_FINGERPRINT: &str = "sem-v3-2ff9de76622328e4";

/// Hashes a canonical trace's per-entity projection into a stable
/// `sem-v{N}-{hash}` fingerprint.
///
/// The hash covers entity identity, stream lengths, virtual timestamps
/// (bit-exact) and full event payloads (canonical JSON), but *not* record
/// sequence numbers or global allocation labels (ubatch ids hash in
/// per-instance normalized form) — so it is invariant under exactly the
/// reorderings [`crate::check_equiv`] permits, and two semantically
/// equivalent schedules fingerprint identically.
pub fn semantic_fingerprint(records: &[TraceRecord]) -> String {
    let records = normalize(records);
    let proj = project(&records);
    let mut h = FNV_OFFSET;
    h = fnv1a(h, &(proj.len() as u64).to_le_bytes());
    for (entity, stream) in &proj {
        let label = format!("{entity}");
        h = fnv1a(h, &(label.len() as u64).to_le_bytes());
        h = fnv1a(h, label.as_bytes());
        h = fnv1a(h, &(stream.len() as u64).to_le_bytes());
        for r in stream {
            h = fnv1a(h, &r.at.to_bits().to_le_bytes());
            let ev = serde_json::to_string(&r.event).expect("trace events serialize");
            h = fnv1a(h, &(ev.len() as u64).to_le_bytes());
            h = fnv1a(h, ev.as_bytes());
        }
    }
    format!("sem-v{ENGINE_SEMANTICS_VERSION}-{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexpipe_obs::TraceEvent;

    fn rec(seq: u64, at: f64, event: TraceEvent) -> TraceRecord {
        TraceRecord { seq, at, event }
    }

    #[test]
    fn fingerprint_is_schedule_invariant_but_payload_sensitive() {
        let a = vec![
            rec(0, 1.0, TraceEvent::InstanceReady { instance: 1 }),
            rec(1, 1.0, TraceEvent::RequestArrival { req: 0 }),
        ];
        // Same instant, different entities, swapped order + renumbered.
        let b = vec![
            rec(0, 1.0, TraceEvent::RequestArrival { req: 0 }),
            rec(1, 1.0, TraceEvent::InstanceReady { instance: 1 }),
        ];
        assert_eq!(semantic_fingerprint(&a), semantic_fingerprint(&b));

        let c = vec![
            rec(0, 1.0, TraceEvent::InstanceReady { instance: 2 }),
            rec(1, 1.0, TraceEvent::RequestArrival { req: 0 }),
        ];
        assert_ne!(semantic_fingerprint(&a), semantic_fingerprint(&c));

        // Timestamps are part of semantics.
        let d = vec![
            rec(0, 1.0, TraceEvent::InstanceReady { instance: 1 }),
            rec(1, 1.5, TraceEvent::RequestArrival { req: 0 }),
        ];
        assert_ne!(semantic_fingerprint(&a), semantic_fingerprint(&d));
    }

    #[test]
    fn fingerprint_names_the_semantics_version() {
        let fp = semantic_fingerprint(&[]);
        assert!(
            fp.starts_with(&format!("sem-v{ENGINE_SEMANTICS_VERSION}-")),
            "{fp}"
        );
    }
}
