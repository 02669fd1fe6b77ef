//! The engine semantics fingerprint: a stable string that changes
//! whenever the simulation's observable behaviour changes, exported so
//! content-addressed result caches (the fleet's per-cell campaign cache)
//! can salt their keys with it.
//!
//! Two ingredients:
//!
//! - [`ENGINE_SEMANTICS_VERSION`], a manually maintained counter. **Bump
//!   it in the same commit as any change that can alter a deterministic
//!   run's metrics** — event ordering, cost-model hookup, admission
//!   semantics, refactor mechanics, disruption accounting. Pure
//!   optimizations proven byte-identical (e.g. the indexed admission
//!   path) do *not* bump it; that equivalence is what the fleet's
//!   admission tests pin down.
//! - a structural hash of [`EngineConfig::default`], so silently retuned
//!   defaults (ubatch size, prefill caps, interference coefficient…)
//!   invalidate cached results without anyone remembering the counter.
//!
//! The fingerprint deliberately does not hash source files: the build
//! environment has no content-hashing toolchain dependency, and source
//! churn that provably does not change semantics (refactors, comments)
//! should keep caches warm.

use flexpipe_sim::{fnv1a, FNV_OFFSET};
use serde::{Serialize, Value};

use crate::config::EngineConfig;

/// Manually maintained engine-semantics counter (see the module docs for
/// the bump rule).
///
/// v2: report outcome lists canonicalize to request-id order before
/// summarizing (completion order was a schedule artifact; summary means
/// now sum in id order, which can move cached metrics by float-ULPs).
///
/// v3: the characterized-bug fixes. The cost model's cold-storage load
/// time gained a layout-aware setup + capped-gain term (Table 2
/// calibration), which moves every non-prewarmed spawn's load duration;
/// the FlexPipe control plane's replica cap now scales with observed
/// demand (the 200 QPS saturation fix), changing scale-out decisions at
/// high rates.
pub const ENGINE_SEMANTICS_VERSION: u32 = 3;

/// Structural FNV-1a over a serialized value tree. Tags every node with a
/// kind byte so `[1]` and `"1"` and `{"1": null}` hash apart; floats hash
/// by bit pattern (the same bits that make artifacts byte-stable);
/// strings and map keys are length-prefixed so the encoding is injective
/// (adjacent strings cannot re-segment into the same byte stream).
fn hash_value(v: &Value, h: u64) -> u64 {
    let str_bytes =
        |h: u64, s: &str| fnv1a(fnv1a(h, &(s.len() as u64).to_le_bytes()), s.as_bytes());
    match v {
        Value::Null => fnv1a(h, b"n"),
        Value::Bool(b) => fnv1a(h, if *b { b"t" } else { b"f" }),
        Value::Int(x) => fnv1a(fnv1a(h, b"i"), &x.to_le_bytes()),
        Value::UInt(x) => fnv1a(fnv1a(h, b"u"), &x.to_le_bytes()),
        Value::Float(x) => fnv1a(fnv1a(h, b"d"), &x.to_bits().to_le_bytes()),
        Value::Str(s) => str_bytes(fnv1a(h, b"s"), s),
        Value::Seq(xs) => {
            let mut h = fnv1a(h, b"[");
            for x in xs {
                h = hash_value(x, h);
            }
            fnv1a(h, b"]")
        }
        Value::Map(m) => {
            let mut h = fnv1a(h, b"{");
            for (k, x) in m {
                h = str_bytes(fnv1a(h, b"k"), k);
                h = hash_value(x, h);
            }
            fnv1a(h, b"}")
        }
    }
}

/// The engine semantics fingerprint, e.g. `engine-v1-a3f09c…`. Stable
/// across runs, platforms and thread counts; changes when
/// [`ENGINE_SEMANTICS_VERSION`] is bumped or any [`EngineConfig`] default
/// moves.
pub fn engine_fingerprint() -> String {
    let defaults = hash_value(&EngineConfig::default().to_value(), FNV_OFFSET);
    format!("engine-v{ENGINE_SEMANTICS_VERSION}-{defaults:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_within_a_build() {
        let a = engine_fingerprint();
        assert_eq!(a, engine_fingerprint());
        assert!(a.starts_with(&format!("engine-v{ENGINE_SEMANTICS_VERSION}-")));
    }

    /// The fingerprint pinned to its exact committed value: the live test
    /// of the content-address contract. A *pure* refactor or optimization
    /// (PR 5's engine split and index work, for instance) must leave this
    /// string — and therefore every warm campaign cache — untouched. If
    /// this test fails, either a config default silently moved (find it)
    /// or engine semantics genuinely changed (bump
    /// [`ENGINE_SEMANTICS_VERSION`] and re-pin).
    #[test]
    fn fingerprint_matches_the_committed_value() {
        assert_eq!(engine_fingerprint(), "engine-v3-eed038b42aeaa8e3");
    }

    #[test]
    fn fingerprint_tracks_config_defaults() {
        // A retuned default must move the hash component: emulate one by
        // hashing a doctored config and comparing against the default's.
        let base = hash_value(&EngineConfig::default().to_value(), FNV_OFFSET);
        let mut retuned = EngineConfig::default();
        retuned.ubatch_size += 1;
        assert_ne!(base, hash_value(&retuned.to_value(), FNV_OFFSET));
        let mut retuned = EngineConfig::default();
        retuned.interference_coeff += 0.1;
        assert_ne!(base, hash_value(&retuned.to_value(), FNV_OFFSET));
    }

    #[test]
    fn structural_hash_distinguishes_kinds() {
        let h = |v: &Value| hash_value(v, FNV_OFFSET);
        assert_ne!(h(&Value::UInt(1)), h(&Value::Str("1".into())));
        assert_ne!(
            h(&Value::Seq(vec![Value::Null])),
            h(&Value::Map(vec![("".into(), Value::Null)]))
        );
        // Adjacent strings must not re-segment ambiguously — including
        // when one string contains another's tag byte.
        let ab = Value::Seq(vec![Value::Str("ab".into()), Value::Str("".into())]);
        let a_b = Value::Seq(vec![Value::Str("a".into()), Value::Str("b".into())]);
        assert_ne!(h(&ab), h(&a_b));
        let as_b = Value::Seq(vec![Value::Str("as".into()), Value::Str("b".into())]);
        let a_sb = Value::Seq(vec![Value::Str("a".into()), Value::Str("sb".into())]);
        assert_ne!(h(&as_b), h(&a_sb));
    }
}
