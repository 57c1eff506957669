//! Discrete-event simulation (DES) engine for the PROTEAN reproduction.
//!
//! This crate provides the deterministic foundations every other crate in
//! the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated
//!   clock with saturating arithmetic and convenient conversions.
//! * [`KeyedEventQueue`] — a calendar queue of events stamped with an
//!   explicit [`EventKey`] `(time, major, minor)`, so events scheduled
//!   at the same instant pop in a deterministic, caller-defined order
//!   (FIFO under one insertion counter) even across several queues.
//! * [`hash`] — [`FastHashMap`], a `HashMap` with an unseeded
//!   multiplicative hasher for the engine's small integer keys: cheaper
//!   probes than SipHash, and an iteration order that is the same in
//!   every run.
//! * [`rng`] — seeded, labelled random-number streams so that independent
//!   stochastic processes (arrivals, evictions, model rotation, …) can be
//!   re-run bit-for-bit identically and varied independently.
//! * [`Ewma`] — the exponentially weighted moving average used wherever
//!   a forecast is smoothed (GPU reconfiguration, predictive container
//!   pre-provisioning).
//! * [`TimeSeries`] / [`Accumulator`] — small utilities for integrating
//!   quantities over simulated time (GPU busy time, memory occupancy,
//!   dollar cost).
//!
//! # Example
//!
//! ```
//! use protean_sim::{EventKey, KeyedEventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = KeyedEventQueue::new();
//! q.push(EventKey::new(SimTime::from_secs(2.0), 1, 0), Ev::Tock);
//! q.push(EventKey::new(SimTime::from_secs(1.0), 2, 0), Ev::Tick);
//! let (k, ev) = q.pop().unwrap();
//! assert_eq!(k.time, SimTime::from_secs(1.0));
//! assert_eq!(ev, Ev::Tick);
//! ```

pub mod ewma;
pub mod hash;
pub mod queue;
pub mod rng;
pub mod series;
pub mod time;

pub use ewma::Ewma;
pub use hash::FastHashMap;
pub use queue::{EventKey, KeyedEventQueue};
pub use rng::{RngFactory, SimRng};
pub use series::{Accumulator, TimeSeries};
pub use time::{SimDuration, SimTime};
