//! The repository benchmark: end-to-end and per-layer metrics of the
//! gas-metered service plane and of the modeled Cortex-M0+ kernels.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which metric each layer should move.

pub mod calib;
pub mod check;
pub mod gen;
pub mod layers;
pub mod modeled;
pub mod report;
pub mod run;
pub mod spans;
pub mod traffic;
