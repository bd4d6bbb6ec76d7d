//! Deterministic discrete-event network simulator.
//!
//! The paper evaluates the Setchain algorithms on a cluster of 4/7/10
//! machines running Docker containers, optionally adding 30 ms or 100 ms of
//! artificial delay to every message to emulate a wide-area deployment. This
//! crate is the stand-in for that platform: a single-threaded, fully
//! deterministic discrete-event simulation in which
//!
//! * every server/client is a [`Process`] actor driven by messages and timers,
//! * the network ([`NetworkConfig`], `network::Network`) delivers messages
//!   with a fixed propagation delay and per-sender link bandwidth, plus
//!   configurable jitter, added latency (the paper's `network_delay`
//!   parameter), loss and partitions; the bandwidth model gives shipping
//!   large batches (Hashchain's hash-reversal) a realistic cost,
//! * node CPU time consumed by hashing/validation is modelled through
//!   [`Context::consume_cpu`], which delays subsequent deliveries to that node.
//!
//! # Message delivery and the `Arc` ownership contract
//!
//! Messages travel through the event queue as `Arc<M>` so that a broadcast
//! enqueues **one** allocation no matter how many recipients it has:
//! [`Context::send`] wraps the payload, and [`Context::send_shared`] /
//! [`Context::send_to_all`] fan an existing `Arc` out as refcount bumps.
//! Ownership is materialized *at delivery time* via `Arc::try_unwrap`: when
//! the event queue hands a message to a process, the last — for
//! point-to-point traffic, the only — holder takes the value without a
//! copy, and earlier recipients of a broadcast clone it then. Two
//! consequences for process authors:
//!
//! * a process receives `M` by value and owns it outright; there is no
//!   aliasing with other recipients, so mutating or moving the message is
//!   always safe;
//! * a sender that retains a clone of the `Arc` it enqueued forces every
//!   recipient down the clone path — hand the last `Arc` over to keep
//!   deliveries copy-free;
//! * a payload that receivers only read (a block's transactions, a
//!   Hashchain batch) travels as an `Arc` field inside the message, so the
//!   clone at delivery is a refcount bump and every recipient keeps the
//!   sender's one allocation. Wire sizes are computed from the contents, so
//!   sharing them changes no simulated byte.
//!
//! Determinism: given the same seed and the same set of processes, a
//! simulation produces exactly the same schedule, which makes every figure in
//! the evaluation reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod network;
pub mod process;
pub mod sim;
pub mod time;

pub use fault::{FaultEvent, FaultPlan};
pub use network::{NetworkConfig, Partition};
pub use process::{Context, Process, TimerToken, Wire};
pub use sim::{RunOutcome, Simulation, SimulationConfig};
pub use time::{SimDuration, SimTime};

pub use setchain_crypto::ProcessId;
