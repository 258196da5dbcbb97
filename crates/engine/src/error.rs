//! Typed failures of the store and query layer.

use dp_core::error::CoreError;
use std::fmt;

/// Errors raised when ingesting into or querying a
/// [`crate::SketchStore`].
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The spec's identity refused it, or a wire payload failed to
    /// decode (carries the underlying core error).
    Core(CoreError),
    /// A release's sketch does not combine with the store (wrong tag,
    /// dimension, or noise moment outside the batch tolerance).
    Incompatible {
        /// The offending party id.
        party_id: u64,
        /// What mismatched.
        detail: String,
    },
    /// A release's party id is already present in the store.
    DuplicateParty(u64),
    /// A queried party id has never been ingested.
    UnknownParty(u64),
    /// A subset names more parties than the store holds rows, so some
    /// party repeats; refused before its matrix is allocated.
    SubsetTooLarge {
        /// Parties the subset names.
        parties: usize,
        /// Rows the store holds.
        rows: usize,
    },
    /// A tile plan's matrix side does not match the store's row count
    /// (e.g. a worker that missed an ingest broadcast).
    PlanMismatch {
        /// Rows the store actually holds.
        store_rows: usize,
        /// Rows the plan claims.
        plan_rows: usize,
    },
    /// A requested tile id is outside the plan.
    UnknownTile {
        /// The offending id.
        id: u64,
        /// The plan's tile count (valid ids are `0..tile_count`).
        tile_count: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Core(e) => write!(f, "{e}"),
            Self::Incompatible { party_id, detail } => {
                write!(f, "release from party {party_id} is incompatible: {detail}")
            }
            Self::DuplicateParty(id) => write!(f, "party {id} already ingested"),
            Self::UnknownParty(id) => write!(f, "party {id} not in the store"),
            Self::SubsetTooLarge { parties, rows } => write!(
                f,
                "a subset of {parties} parties exceeds the store's {rows} rows"
            ),
            Self::PlanMismatch {
                store_rows,
                plan_rows,
            } => write!(
                f,
                "tile plan over {plan_rows} rows, store holds {store_rows}"
            ),
            Self::UnknownTile { id, tile_count } => {
                write!(f, "tile id {id} outside the plan ({tile_count} tiles)")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e = EngineError::DuplicateParty(7);
        assert!(e.to_string().contains('7'));
        assert!(std::error::Error::source(&e).is_none());
        let back: EngineError = CoreError::MissingField("delta").into();
        assert!(matches!(back, EngineError::Core(_)));
        assert!(std::error::Error::source(&back).is_some());
    }
}
