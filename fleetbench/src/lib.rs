//! End-to-end and per-layer benchmark of the fleet engine.
//!
//! Each workload is a fleet spec. The end-to-end figures time
//! `fleet::run_fleet_opts` untraced with a warm threshold cache
//! (devices per second), cold set-ups in fresh processes (`setup_s`,
//! `peak_rss_mb`) and the attempts each device took. A separate traced
//! run ([`traced::run_traced`]) rebuilds the engine's loop from public
//! pieces with a span around each layer call and must reproduce the
//! engine's report bytes; its spans give the per-layer figures.

pub mod metrics;
pub mod reference;
pub mod spans;
pub mod traced;
pub mod workloads;
