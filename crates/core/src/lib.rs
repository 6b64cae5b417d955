//! # multihonest-core
//!
//! Foundational, paper-agnostic data structures shared by the rest of the
//! workspace. The crate sits below every other `multihonest-*` crate (it
//! depends on nothing), so both the fork framework (`multihonest-fork`)
//! and the protocol simulator (`multihonest-sim`) can build on the same
//! machinery instead of maintaining parallel implementations.
//!
//! Currently this means [`ancestry`]: an append-only rooted-tree ancestry
//! index with skew-binary jump pointers — one pointer per node, `O(1)`
//! per insert — answering lowest-common-ancestor and level/key ancestor
//! queries in `O(log n)`; [`pool`]: the one deterministic
//! work-claiming worker pool behind every parallel site; and [`crc`]:
//! the CRC-32 that frames every state file (horizon WAL, sweep
//! checkpoint).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ancestry;
pub mod crc;
pub mod pool;

pub use crate::ancestry::AncestorIndex;
