//! Schedule-equivalence checking for the FlexPipe engine.
//!
//! FlexPipe's core claim is that inflight pipeline refactoring is a *pure*
//! availability optimization: admission, refactor prepare/pause/commit/
//! abort and revocation recovery must commute without changing what any
//! request observes. This crate turns that claim into machinery:
//!
//! 1. **Semantic trace equivalence** ([`check_equiv`]): two canonical
//!    `flexpipe-obs` JSONL traces are projected into per-entity event
//!    streams and compared modulo the commutation relation below,
//!    producing a structured [`EquivReport`] whose first divergence is
//!    anchored to an entity and an event pair — not a byte offset.
//! 2. **Bounded interleaving exploration** ([`fn@explore`]): a driver runs
//!    small committed scenarios through systematically permuted orderings
//!    of same-virtual-time event batches (via
//!    [`flexpipe_serving::Driver::step`], the same driver every run
//!    uses), asserting every schedule
//!    converges to an equivalent trace and a byte-identical report, with
//!    persistent-set pruning and a counterexample printer that emits the
//!    minimal divergent schedule as a replayable spec.
//! 3. **Fingerprint backstop** ([`semantic_fingerprint`]): a hash of the
//!    canonical per-entity streams of a committed probe scenario, pinned
//!    in a test, so semantics drift that forgets the manual
//!    [`flexpipe_serving::ENGINE_SEMANTICS_VERSION`] bump fails loudly
//!    instead of replaying stale campaign caches.
//! 4. **Cross-shard equivalence** ([`check_cross_shard`]): `N` shard
//!    traces of a sharded live run, merged, compared against the
//!    1-shard canonical trace on request streams only, with
//!    per-request-stream instance alpha-renaming — sharding renumbers
//!    instances per partition and multiplies the control streams, but
//!    request lifecycles must not notice.
//!
//! # The commutation relation
//!
//! Two traces are *semantically equivalent* iff their per-entity
//! projections are identical. The entities are: each request, each
//! instance, the (global) disruption-episode stream, and the control-tick
//! stream. Concretely this means:
//!
//! - **May reorder:** events carrying the same virtual timestamp that
//!   belong to *different* entities — e.g. a request admitted to instance
//!   A versus a refactor commit on instance B at the same instant.
//!   (Canonical traces are time-ordered, so cross-entity reordering at
//!   the same timestamp is the *only* freedom projection equality
//!   grants.)
//! - **May not reorder:** any two events on the same entity — a
//!   request's arrival → admit → prefill → complete/abort lifecycle, an
//!   instance's spawn → ready → refactor → retire lifecycle, the
//!   revoke-notice → revocation → capacity-restore → recovery-closed
//!   episode stream, and the control-tick sequence.
//! - **May not change at all:** event payloads — admit→instance
//!   bindings, decode-batch membership, generated-token counts,
//!   timestamps. A request admitted to a different instance under an
//!   alternative schedule is a semantic divergence even if "the same
//!   work" happened.
//! - **Quotiented out:** record sequence numbers and globally-allocated
//!   micro-batch ids. Both label *when the scheduler got around to
//!   something*, not what happened — ubatch ids are compared after
//!   per-instance renumbering in order of first appearance (see
//!   [`model::normalize`]).

pub mod cross_shard;
pub mod equiv;
pub mod explore;
pub mod fingerprint;
pub mod model;
pub mod scenarios;

pub use cross_shard::check_cross_shard;
pub use equiv::{check_equiv, EquivReport, SemanticDivergence};
pub use explore::{explore, replay, Counterexample, ExploreConfig, ExploreOutcome, ScheduleSpec};
pub use fingerprint::{semantic_fingerprint, PINNED_SEMANTIC_FINGERPRINT};
pub use model::{classify, independent, normalize, project, Entity};
pub use scenarios::CheckScenario;
