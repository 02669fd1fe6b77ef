//! Workload generation for the FlexPipe reproduction: arrival processes
//! with controllable burstiness, synthetic production traces, CV analysis
//! and request length distributions.
//!
//! The paper's entire evaluation is parameterised by the coefficient of
//! variation (CV) of request inter-arrival times; [`arrivals`] provides
//! Gamma-renewal processes hitting any target CV exactly, [`trace`]
//! synthesizes Alibaba/Azure-like multi-day traces whose CV depends on the
//! measurement window (Fig. 1), and [`cv`] hosts both the offline windowed
//! analyzer and the online estimator FlexPipe's controller consumes.

#![warn(missing_docs)]

pub mod arrivals;
pub mod builder;
pub mod cv;
pub mod io;
pub mod lengths;
pub mod request;
pub mod trace;

pub use arrivals::{
    check_arrival_budget, gen_gamma_renewal, gen_mmpp, gen_nhpp, gen_poisson, interarrival_cv,
    MmppState, RateFn, MAX_EXPECTED_ARRIVALS,
};
pub use builder::{ArrivalSpec, WorkloadSpec};
pub use cv::{cv_in_window, windowed_cv_series, CvEstimator, CvPoint};
pub use io::{from_csv, load, save, to_csv, TraceIoError};
pub use lengths::{LengthProfile, LengthSampler};
pub use request::{Request, RequestId, Workload};
pub use trace::{SyntheticTrace, TraceProfile};
