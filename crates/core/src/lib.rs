//! Content-oblivious simulation over fully-defective networks.
//!
//! This crate is the core of the reproduction of *Distributed Computations in
//! Fully-Defective Networks* (Censor-Hillel, Cohen, Gelles, Sela — PODC
//! 2022). A *fully-defective* network may arbitrarily corrupt the content of
//! every message on every link (but can neither delete nor inject messages).
//! The paper shows that any asynchronous algorithm `π` for the noiseless
//! network can still be simulated, as long as the network is
//! 2-edge-connected, by making every node ignore message *content* entirely
//! and act only on the link and order of arriving *pulses*.
//!
//! The crate provides, bottom-up:
//!
//! * [`encoding`] — the unary and binary (padded) pulse encodings
//!   (Algorithm 1(b), Algorithm 2);
//! * [`engine`] — the per-node token/data phase state machine over a cycle
//!   (Algorithm 1 for simple cycles, Algorithm 3 for Robbins cycles);
//! * [`construction`] — the content-oblivious distributed construction of a
//!   Robbins cycle by ear decomposition (Algorithms 4–6, Theorem 15);
//! * [`full`] — the one `fdn-netsim` reactor, [`FullSimulator`]: the
//!   end-to-end compiler of Theorem 2 (construct the Robbins cycle, then
//!   simulate `π` over it), which a node may also start online;
//! * [`reactors`] — the pulse payload, and nodes started online over a
//!   given cycle (Theorems 4 and 10);
//! * [`checkpoint`] — the construct-once boundary: freeze the constructed
//!   per-node state after the pre-processing phase and replay only the
//!   online phase, arbitrarily often, from nodes started online there;
//! * [`impossibility`] — the §6 two-party impossibility harness (Theorem 20).

#![deny(clippy::float_arithmetic, clippy::cast_precision_loss)]

pub mod checkpoint;
pub mod construction;
pub mod control;
pub mod encoding;
pub mod engine;
pub mod error;
pub mod full;
pub mod impossibility;
pub mod reactors;
pub mod wire;

pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, fnv1a64, replay_simulators, ConstructionCheckpoint,
    NodeCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
pub use construction::{construction_simulators, ConstructionNode};
pub use encoding::Encoding;
pub use engine::RobbinsEngine;
pub use error::CoreError;
pub use full::{full_simulators, FullSimulator};
pub use reactors::{cycle_simulators, cycle_simulators_prevalidated};
pub use wire::{WireDest, WireMessage};
