//! Deterministic discrete-event simulation engine for the FlexPipe
//! reproduction.
//!
//! The crate provides four small, orthogonal pieces:
//!
//! - [`time`] — nanosecond [`time::SimTime`] instants and
//!   [`time::SimDuration`] spans;
//! - [`queue`] — the `(time, seq)`-ordered [`queue::EventQueue`] whose
//!   deterministic tie-breaking makes whole runs replayable;
//! - [`rng`] — a stable xoshiro256++ [`rng::SimRng`] with labelled stream
//!   derivation, so simulations reproduce bit-for-bit across builds;
//! - [`dist`] — the samplers the experiments need, most importantly
//!   Gamma-renewal inter-arrivals with an exact target coefficient of
//!   variation ([`dist::GammaInterarrival`]).
//!
//! Everything above this crate (cluster, serving engine, FlexPipe itself)
//! treats it as the substrate that replaces wall-clock time and real
//! hardware nondeterminism. The crate has no run loop of its own: the
//! one loop that pops the queue is `flexpipe_serving::Driver`.

#![warn(missing_docs)]

pub mod dist;
pub mod queue;
pub mod rng;
pub mod time;

pub use dist::{GammaInterarrival, LogNormalSampler, SampleStats};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
