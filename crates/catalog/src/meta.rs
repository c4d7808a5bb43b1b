//! Relation, column, and index metadata plus the catalog itself.

use crate::stats::{IndexStats, RelStats};
use std::collections::HashMap;
use std::fmt;
use sysr_rss::{ColType, IndexId, SegmentId, Storage};

/// Relation identifier — doubles as the tuple tag stored on pages.
pub type RelId = u16;

/// Errors from catalog operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    DuplicateRelation(String),
    DuplicateIndex(String),
    UnknownRelation(String),
    UnknownIndex(String),
    UnknownColumn { relation: String, column: String },
    Invalid(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::DuplicateRelation(n) => write!(f, "relation {n} already exists"),
            CatalogError::DuplicateIndex(n) => write!(f, "index {n} already exists"),
            CatalogError::UnknownRelation(n) => write!(f, "unknown relation {n}"),
            CatalogError::UnknownIndex(n) => write!(f, "unknown index {n}"),
            CatalogError::UnknownColumn { relation, column } => {
                write!(f, "unknown column {column} in relation {relation}")
            }
            CatalogError::Invalid(m) => write!(f, "invalid catalog operation: {m}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// One column of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    pub name: String,
    pub ty: ColType,
}

impl ColumnMeta {
    pub fn new(name: impl Into<String>, ty: ColType) -> Self {
        ColumnMeta { name: name.into().to_ascii_uppercase(), ty }
    }
}

/// Catalog entry for a stored relation.
#[derive(Debug, Clone)]
pub struct RelationMeta {
    pub id: RelId,
    pub name: String,
    /// Segment holding the relation's tuples.
    pub segment: SegmentId,
    pub columns: Vec<ColumnMeta>,
    pub stats: RelStats,
}

impl RelationMeta {
    /// Position of a column by (case-insensitive) name.
    pub fn column_position(&self, name: &str) -> Option<usize> {
        let upper = name.to_ascii_uppercase();
        self.columns.iter().position(|c| c.name == upper)
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// Catalog entry for an index.
#[derive(Debug, Clone)]
pub struct IndexMeta {
    pub id: IndexId,
    pub name: String,
    pub rel: RelId,
    /// Key columns, by position in the relation, in key order.
    pub key_cols: Vec<usize>,
    pub unique: bool,
    /// Whether the relation is physically clustered on this index's key.
    /// Set at creation (after [`Storage::cluster_relation`]); like System R
    /// we assume at most one clustered index per relation.
    pub clustered: bool,
    pub stats: IndexStats,
}

/// The System R catalogs: relations, columns, indexes, and their
/// statistics.
#[derive(Debug, Default)]
pub struct Catalog {
    relations: Vec<RelationMeta>,
    indexes: Vec<IndexMeta>,
    rel_by_name: HashMap<String, RelId>,
    idx_by_name: HashMap<String, IndexId>,
    /// Bumped on every change that can alter an access path decision
    /// (DDL, statistics). Plan caches compare this stamp to decide
    /// whether a stored plan is still valid.
    version: u64,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// The catalog's change stamp: monotonically increasing across DDL
    /// and statistics updates, so `version() != stamped_version` means a
    /// previously chosen plan may no longer be the best (or even valid).
    pub fn version(&self) -> u64 {
        self.version
    }

    // ---- relations -------------------------------------------------------

    /// Register a relation stored in `segment`. The caller (the database
    /// facade) has already created the segment in storage.
    pub fn create_relation(
        &mut self,
        name: &str,
        segment: SegmentId,
        columns: Vec<ColumnMeta>,
    ) -> Result<RelId, CatalogError> {
        let upper = name.to_ascii_uppercase();
        if self.rel_by_name.contains_key(&upper) {
            return Err(CatalogError::DuplicateRelation(upper));
        }
        if columns.is_empty() {
            return Err(CatalogError::Invalid("relation needs at least one column".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(CatalogError::Invalid(format!("duplicate column {}", c.name)));
            }
        }
        let id = self.relations.len() as RelId;
        self.relations.push(RelationMeta {
            id,
            name: upper.clone(),
            segment,
            columns,
            stats: RelStats::default(),
        });
        self.rel_by_name.insert(upper, id);
        self.version += 1;
        Ok(id)
    }

    pub fn relation(&self, id: RelId) -> Option<&RelationMeta> {
        self.relations.get(id as usize)
    }

    pub fn relation_mut(&mut self, id: RelId) -> Option<&mut RelationMeta> {
        // Handing out `&mut` means the caller may change anything the
        // optimizer reads; assume it does.
        self.version += 1;
        self.relations.get_mut(id as usize)
    }

    pub fn relation_by_name(&self, name: &str) -> Result<&RelationMeta, CatalogError> {
        let upper = name.to_ascii_uppercase();
        self.rel_by_name
            .get(&upper)
            .and_then(|&id| self.relations.get(id as usize))
            .ok_or(CatalogError::UnknownRelation(upper))
    }

    pub fn relations(&self) -> &[RelationMeta] {
        &self.relations
    }

    // ---- indexes ---------------------------------------------------------

    /// Register an index that storage has already built.
    pub fn register_index(
        &mut self,
        id: IndexId,
        name: &str,
        rel: RelId,
        key_cols: Vec<usize>,
        unique: bool,
        clustered: bool,
    ) -> Result<IndexId, CatalogError> {
        let upper = name.to_ascii_uppercase();
        if self.idx_by_name.contains_key(&upper) {
            return Err(CatalogError::DuplicateIndex(upper));
        }
        let relation =
            self.relation(rel).ok_or_else(|| CatalogError::UnknownRelation(format!("id {rel}")))?;
        if key_cols.is_empty() || key_cols.iter().any(|&c| c >= relation.arity()) {
            return Err(CatalogError::Invalid("bad index key columns".into()));
        }
        if clustered && self.indexes.iter().any(|i| i.rel == rel && i.clustered) {
            return Err(CatalogError::Invalid(format!(
                "relation {} already has a clustered index",
                relation.name
            )));
        }
        self.indexes.push(IndexMeta {
            id,
            name: upper.clone(),
            rel,
            key_cols,
            unique,
            clustered,
            stats: IndexStats::default(),
        });
        self.idx_by_name.insert(upper, id);
        self.version += 1;
        Ok(id)
    }

    pub fn index(&self, id: IndexId) -> Option<&IndexMeta> {
        self.indexes.iter().find(|i| i.id == id)
    }

    pub fn index_by_name(&self, name: &str) -> Result<&IndexMeta, CatalogError> {
        let upper = name.to_ascii_uppercase();
        self.idx_by_name
            .get(&upper)
            .and_then(|&id| self.index(id))
            .ok_or(CatalogError::UnknownIndex(upper))
    }

    /// All indexes on a relation — "a relation may have any number
    /// (including zero) of indexes on it".
    pub fn indexes_on(&self, rel: RelId) -> impl Iterator<Item = &IndexMeta> + '_ {
        self.indexes.iter().filter(move |i| i.rel == rel)
    }

    pub fn indexes(&self) -> &[IndexMeta] {
        &self.indexes
    }

    // ---- statistics ------------------------------------------------------

    /// The `UPDATE STATISTICS` command: recompute every relation and index
    /// statistic by walking storage. "They are then updated periodically by
    /// an UPDATE STATISTICS command, which can be run by any user."
    pub fn update_statistics(&mut self, storage: &Storage) {
        self.version += 1;
        for rel in &mut self.relations {
            let Ok(segment) = storage.segment(rel.segment) else { continue };
            let ncard = segment.count_tuples(rel.id) as u64;
            let tcard = segment.pages_holding(rel.id) as u64;
            let nonempty = segment.nonempty_page_count() as u64;
            let bytes = segment.bytes_of_relation(rel.id) as f64;
            rel.stats = RelStats {
                ncard,
                tcard,
                pfrac: if nonempty > 0 { tcard as f64 / nonempty as f64 } else { 1.0 },
                avg_width: if ncard > 0 { bytes / ncard as f64 } else { 32.0 },
                valid: true,
            };
        }
        for idx in &mut self.indexes {
            let Ok(entry) = storage.index(idx.id) else { continue };
            let tree = &entry.tree;
            // A tree that fails to walk (corrupt page image) keeps its old
            // statistics; query execution will surface the error itself.
            let Ok(icard) = tree.distinct_keys() else { continue };
            let Ok(low) = tree.min_key() else { continue };
            let Ok(high) = tree.max_key() else { continue };
            idx.stats = IndexStats {
                icard: icard as u64,
                nindx: tree.page_count() as u64,
                leaf_pages: tree.leaf_page_count() as u64,
                low_key: low.and_then(|k| k.first().cloned()),
                high_key: high.and_then(|k| k.first().cloned()),
                valid: true,
            };
        }
    }

    /// Overwrite an index's statistics directly. Experiments and the cost
    /// benchmarks use this to inject synthetic statistics without loading
    /// data; normal operation goes through [`Catalog::update_statistics`].
    pub fn set_index_stats(&mut self, id: IndexId, stats: IndexStats) -> bool {
        match self.indexes.iter_mut().find(|i| i.id == id) {
            Some(idx) => {
                idx.stats = stats;
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Overwrite a relation's statistics directly (synthetic-statistics
    /// experiments).
    pub fn set_relation_stats(&mut self, id: RelId, stats: RelStats) -> bool {
        match self.relations.get_mut(id as usize) {
            Some(rel) => {
                rel.stats = stats;
                self.version += 1;
                true
            }
            None => false,
        }
    }

    /// Statistics for a single column's index, if one exists with this
    /// column as its **leading** key column. Table 1's selectivities for
    /// `column = value` and ranges consult exactly this.
    pub fn leading_index_on(&self, rel: RelId, col: usize) -> Option<&IndexMeta> {
        self.indexes_on(rel).find(|i| i.key_cols.first() == Some(&col))
    }

    /// The `ICARD` of a column: distinct keys of an index led by the
    /// column, if any.
    pub fn column_icard(&self, rel: RelId, col: usize) -> Option<u64> {
        self.leading_index_on(rel, col).map(|i| i.stats.icard)
    }

    /// Clue used by the paper's Section 6: `NCARD > ICARD` on the
    /// referenced column means referenced values repeat, making the
    /// correlation-subquery result cache worthwhile.
    pub fn column_values_repeat(&self, rel: RelId, col: usize) -> Option<bool> {
        let rstats = &self.relation(rel)?.stats;
        let icard = self.column_icard(rel, col)?;
        Some(rstats.ncard > icard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysr_rss::tuple;
    use sysr_rss::Value;

    fn demo_columns() -> Vec<ColumnMeta> {
        vec![
            ColumnMeta::new("id", ColType::Int),
            ColumnMeta::new("name", ColType::Str),
            ColumnMeta::new("dept", ColType::Int),
        ]
    }

    #[test]
    fn create_and_lookup_relation() {
        let mut cat = Catalog::new();
        let id = cat.create_relation("Emp", 0, demo_columns()).unwrap();
        let rel = cat.relation_by_name("emp").unwrap();
        assert_eq!(rel.id, id);
        assert_eq!(rel.name, "EMP");
        assert_eq!(rel.column_position("NAME"), Some(1));
        assert_eq!(rel.column_position("name"), Some(1));
        assert_eq!(rel.column_position("bogus"), None);
    }

    #[test]
    fn duplicate_relation_rejected() {
        let mut cat = Catalog::new();
        cat.create_relation("T", 0, demo_columns()).unwrap();
        assert!(matches!(
            cat.create_relation("t", 1, demo_columns()),
            Err(CatalogError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn duplicate_column_rejected() {
        let mut cat = Catalog::new();
        let cols = vec![ColumnMeta::new("a", ColType::Int), ColumnMeta::new("A", ColType::Str)];
        assert!(cat.create_relation("T", 0, cols).is_err());
    }

    #[test]
    fn index_registration_and_lookup() {
        let mut cat = Catalog::new();
        let rel = cat.create_relation("T", 0, demo_columns()).unwrap();
        cat.register_index(0, "t_id", rel, vec![0], true, true).unwrap();
        cat.register_index(1, "t_dept", rel, vec![2], false, false).unwrap();
        assert_eq!(cat.indexes_on(rel).count(), 2);
        assert!(cat.index_by_name("T_ID").unwrap().unique);
        // Only one clustered index allowed.
        assert!(cat.register_index(2, "t_name", rel, vec![1], false, true).is_err());
        // Bad column.
        assert!(cat.register_index(3, "t_bad", rel, vec![9], false, false).is_err());
    }

    #[test]
    fn leading_index_lookup() {
        let mut cat = Catalog::new();
        let rel = cat.create_relation("T", 0, demo_columns()).unwrap();
        cat.register_index(0, "t_multi", rel, vec![2, 0], false, false).unwrap();
        assert!(cat.leading_index_on(rel, 2).is_some());
        assert!(cat.leading_index_on(rel, 0).is_none(), "col 0 is not the leading key column");
    }

    #[test]
    fn update_statistics_computes_paper_quantities() {
        let mut storage = Storage::new(64);
        let seg = storage.create_segment();
        let mut cat = Catalog::new();
        let rel = cat.create_relation("T", seg, demo_columns()).unwrap();
        for i in 0..500i64 {
            storage.insert(seg, rel, &tuple![i, format!("n{i}"), i % 25]).unwrap();
        }
        let idx = storage.create_index(seg, rel, vec![2], false).unwrap();
        cat.register_index(idx, "t_dept", rel, vec![2], false, false).unwrap();

        assert!(!cat.relation(rel).unwrap().stats.valid);
        cat.update_statistics(&storage);

        let rstats = &cat.relation(rel).unwrap().stats;
        assert!(rstats.valid);
        assert_eq!(rstats.ncard, 500);
        assert_eq!(rstats.tcard as usize, storage.segment(seg).unwrap().pages_holding(rel));
        assert!((rstats.pfrac - 1.0).abs() < 1e-9, "single relation fills its segment");

        let istats = &cat.index(idx).unwrap().stats;
        assert!(istats.valid);
        assert_eq!(istats.icard, 25);
        assert_eq!(istats.low_key, Some(Value::Int(0)));
        assert_eq!(istats.high_key, Some(Value::Int(24)));
        assert!(istats.nindx >= istats.leaf_pages);
    }

    #[test]
    fn p_fraction_below_one_for_shared_segment() {
        let mut storage = Storage::new(64);
        let seg = storage.create_segment();
        let mut cat = Catalog::new();
        let small = cat.create_relation("SMALL", seg, demo_columns()).unwrap();
        let big = cat.create_relation("BIG", seg, demo_columns()).unwrap();
        for i in 0..5i64 {
            storage.insert(seg, small, &tuple![i, "s", 0]).unwrap();
        }
        for i in 0..3000i64 {
            storage.insert(seg, big, &tuple![i, "b", 0]).unwrap();
        }
        cat.update_statistics(&storage);
        let ps = cat.relation(small).unwrap().stats.pfrac;
        let pb = cat.relation(big).unwrap().stats.pfrac;
        assert!(ps < 0.2, "small relation occupies few of the segment's pages: P={ps}");
        assert!(pb > 0.9, "big relation occupies nearly all pages: P={pb}");
    }

    #[test]
    fn ncard_exceeds_icard_signals_repeats() {
        let mut storage = Storage::new(64);
        let seg = storage.create_segment();
        let mut cat = Catalog::new();
        let rel = cat.create_relation("T", seg, demo_columns()).unwrap();
        for i in 0..100i64 {
            storage.insert(seg, rel, &tuple![i, "x", i % 10]).unwrap();
        }
        let idx = storage.create_index(seg, rel, vec![2], false).unwrap();
        cat.register_index(idx, "t_dept", rel, vec![2], false, false).unwrap();
        cat.update_statistics(&storage);
        assert_eq!(cat.column_values_repeat(rel, 2), Some(true));
        assert_eq!(cat.column_icard(rel, 2), Some(10));
        assert_eq!(cat.column_values_repeat(rel, 0), None, "no index on col 0");
    }
}
