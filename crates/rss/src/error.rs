//! Error type shared by the storage substrate.

use std::fmt;

/// Errors raised by the RSS storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RssError {
    /// A tuple was too large to fit on a single page. The RSS never lets a
    /// tuple span a page (paper, Section 3).
    TupleTooLarge { size: usize, max: usize },
    /// A RID referenced a page or slot that does not exist or was deleted.
    BadRid(String),
    /// A segment or relation id was out of range.
    UnknownSegment(u32),
    /// An index id was out of range.
    UnknownIndex(u32),
    /// Insertion into a UNIQUE index found an existing entry for the key.
    DuplicateKey(String),
    /// Tuple bytes failed to decode (corruption or version mismatch).
    Corrupt(String),
    /// A key with the wrong number of columns was handed to an index.
    KeyArity { expected: usize, got: usize },
    /// An operating-system I/O failure while reading or writing page files.
    Io(String),
    /// A database directory written in an on-disk format this build does
    /// not read (`found` is its `storage.meta` header line).
    FormatVersion { found: String, supported: &'static str },
}

impl fmt::Display for RssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RssError::TupleTooLarge { size, max } => {
                write!(f, "tuple of {size} bytes exceeds page capacity of {max} bytes")
            }
            RssError::BadRid(m) => write!(f, "bad rid: {m}"),
            RssError::UnknownSegment(s) => write!(f, "unknown segment {s}"),
            RssError::UnknownIndex(i) => write!(f, "unknown index {i}"),
            RssError::DuplicateKey(k) => write!(f, "duplicate key in unique index: {k}"),
            RssError::Corrupt(m) => write!(f, "corrupt page data: {m}"),
            RssError::KeyArity { expected, got } => {
                write!(f, "index key arity mismatch: expected {expected} columns, got {got}")
            }
            RssError::Io(m) => write!(f, "page file I/O error: {m}"),
            RssError::FormatVersion { found, supported } => write!(
                f,
                "unsupported storage format `{found}` (this build reads `{supported}`): \
                 re-create the database"
            ),
        }
    }
}

impl std::error::Error for RssError {}

/// Convenience alias used throughout the crate.
pub type RssResult<T> = Result<T, RssError>;
