//! A dependency-free LSM store for durable containment decisions.
//!
//! `flqd`'s warm caches (the semantic [`DecisionCache`] and the
//! chase-snapshot cache, two byte-capped LRUs of one type) are
//! process-resident: every restart is a full cold start, and an
//! evicted decision is gone. This crate
//! adds the missing tier — a small log-structured merge store with the
//! classic shape:
//!
//! * an append-only **WAL** with CRC-framed records and torn-tail
//!   recovery ([`wal`]);
//! * an in-memory **memtable** ([`memtable`]) that flushes to sorted
//!   immutable **segment files** with per-segment bloom filters
//!   ([`segment`], [`bloom`]);
//! * a fenced **manifest** — atomic rename + strictly increasing
//!   generation numbers — as the single source of truth for the live
//!   segment set ([`manifest`]);
//! * **background compaction** on a dedicated thread ([`Store`]);
//! * [`DurableDecisionCache`], which layers the store *under* the
//!   in-RAM [`DecisionCache`] through its `contains_keyed` seam, keyed
//!   by the portable bytes of [`flogic_core::DecisionKey`] so entries
//!   stay valid across restarts and differently-populated interners.
//!
//! "Dependency-free" means no external crates: the CRC, bloom filter
//! and file formats are all vendored here, same policy as the rest of
//! the workspace. The authoritative on-disk format specification —
//! record framings, checksums, the manifest/generation protocol,
//! compaction invariants and the crash-recovery state machine — lives
//! in `docs/STORAGE.md`; this crate is its implementation.
//!
//! ```
//! use flogic_store::DurableDecisionCache;
//! use flogic_syntax::parse_query;
//! let dir = std::env::temp_dir().join(format!("flq_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let q1 = parse_query("q(X, Z) :- sub(X, Y), sub(Y, Z).").unwrap();
//! let q2 = parse_query("p(X, Z) :- sub(X, Z).").unwrap();
//! {
//!     let cache = DurableDecisionCache::open(&dir).unwrap();
//!     assert!(cache.contains(&q1, &q2).unwrap().holds());
//!     cache.flush().unwrap();
//! }
//! // A new process (here: a new cache) starts RAM-cold but disk-warm.
//! let cache = DurableDecisionCache::open(&dir).unwrap();
//! assert!(cache.contains(&q1, &q2).unwrap().holds());
//! assert_eq!(cache.durable_stats().disk_hits, 1);
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```
//!
//! [`DecisionCache`]: flogic_core::DecisionCache

use std::fmt;

pub mod bloom;
pub mod crc;
mod durable;
pub mod manifest;
pub mod memtable;
pub mod segment;
mod store;
pub mod wal;

pub use durable::{DurableDecisionCache, DurableStats};
pub use store::{Store, StoreOptions, StoreStats, VerifyReport};

/// Owned key/value byte pairs in key order, as returned by segment
/// scans and [`Store::sample`].
pub type KvPairs = Vec<(Vec<u8>, Vec<u8>)>;

/// The on-disk format version, stamped into every WAL, segment and
/// manifest header. Bump on any layout change; files with a different
/// version are refused (see the compatibility policy in
/// `docs/STORAGE.md`).
pub const FORMAT_VERSION: u8 = 1;

/// Everything that can go wrong in the store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A file failed its structural or checksum validation.
    Corrupt {
        /// What was wrong, with the offending path.
        what: String,
    },
    /// A file carries an on-disk format version this build cannot read.
    FormatVersion {
        /// The version byte found in the file.
        found: u8,
        /// The version this build writes and reads.
        expected: u8,
    },
    /// A record exceeded the maximum frame size.
    RecordTooLarge {
        /// The offending record's encoded size.
        bytes: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt { what } => write!(f, "corrupt store file: {what}"),
            StoreError::FormatVersion { found, expected } => write!(
                f,
                "unsupported on-disk format version {found} (this build reads {expected})"
            ),
            StoreError::RecordTooLarge { bytes } => {
                write!(f, "record of {bytes} bytes exceeds the frame cap")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}
