//! Observability for the FlexPipe serving engine: structured
//! virtual-time-stamped traces, a per-event-kind counter/histogram
//! registry, and a wall-clock self-time profiler.
//!
//! The crate is deliberately engine-independent — trace records carry
//! plain integer ids and seconds, not engine types — so the same format
//! works for the `fleet trace` CLI and the schedule-equivalence checker
//! (`flexpipe-check`), which decides whether two traces mean the same
//! run modulo the order of commuting events.
//!
//! Three layers, all always-compiled and cheaply disableable:
//!
//! - [`TraceRecorder`] — the structured event log. `Off` costs one branch
//!   per hook; `Ring(n)` keeps the last `n` records in constant memory
//!   (counters still see everything); `Full` retains the whole run for
//!   JSONL export. Records are stamped with *virtual* time only, so a
//!   trace is byte-stable across machines and thread counts.
//! - [`EventRegistry`] — per-event-kind counts plus P² quantiles of the
//!   virtual-time gap each kind closes (how simulated time distributes
//!   over the engine's handlers). Fed by the recorder in every mode,
//!   recomputable offline from a parsed trace.
//! - [`Profiler`] — scoped *wall-clock* timers around event dispatch and
//!   `ControlPolicy::on_tick`. Wall times are inherently
//!   non-deterministic, so the profiler lives outside every cached or
//!   byte-compared artifact, mirroring the fleet's `BenchTiming`.

#![warn(missing_docs)]

pub mod event;
pub mod profile;
pub mod recorder;
pub mod registry;
pub mod summary;

pub use event::{TraceEvent, TraceRecord};
pub use profile::Profiler;
pub use recorder::{TraceMode, TraceRecorder};
pub use registry::{EventRegistry, KindStats};
pub use summary::{parse_jsonl, ParseError, TraceSummary};
