//! The plaintext relation model (§3.1 of the paper).
//!
//! A relation `R` holds `n` objects `o_1, …, o_n`, each with `M` numerical attributes;
//! i.e. an `n × M` matrix.  The NRA-style query processing never touches `R` row-by-row:
//! it works on the *sorted-list view* `S = {L_1, …, L_M}` where list `L_i` ranks all
//! objects by their `i`-th attribute (§3.4).  Both representations live here.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of an object (row) in a relation.
///
/// The paper treats object ids as opaque values hashed through the EHL PRFs; a `u64` is
/// plenty for the dataset sizes evaluated (up to 1M records) while keeping byte encoding
/// trivial.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

impl ObjectId {
    /// Canonical byte encoding fed into the EHL PRFs.
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }
}

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A local score: the value of one attribute of one object.  Attribute values in the
/// paper are non-negative numeric values; `u64` covers every evaluated dataset.
pub type Score = u64;

/// One object of a relation: its id and its `M` attribute values.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Row {
    /// The object identifier.
    pub id: ObjectId,
    /// The `M` attribute values (local scores).
    pub values: Vec<Score>,
}

/// A plaintext relation: named attributes plus `n` rows of `M` values each.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// Human-readable attribute names (length `M`).
    attribute_names: Vec<String>,
    /// The rows (length `n`).
    rows: Vec<Row>,
}

impl Relation {
    /// Create a relation from attribute names and rows.
    ///
    /// # Panics
    /// Panics if any row's arity differs from the number of attribute names, or if two
    /// rows share an object id (object ids must be unique within a relation).
    pub fn new(attribute_names: Vec<String>, rows: Vec<Row>) -> Self {
        let m = attribute_names.len();
        let mut seen = HashMap::with_capacity(rows.len());
        for row in &rows {
            assert_eq!(
                row.values.len(),
                m,
                "row {} has {} values but the relation has {} attributes",
                row.id,
                row.values.len(),
                m
            );
            assert!(
                seen.insert(row.id, ()).is_none(),
                "duplicate object id {} in relation",
                row.id
            );
        }
        Relation { attribute_names, rows }
    }

    /// Convenience constructor with auto-generated attribute names `attr0..attrM`.
    pub fn from_rows(rows: Vec<Row>) -> Self {
        let m = rows.first().map(|r| r.values.len()).unwrap_or(0);
        let names = (0..m).map(|i| format!("attr{i}")).collect();
        Relation::new(names, rows)
    }

    /// Number of objects `n = |R|`.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of attributes `M`.
    pub fn num_attributes(&self) -> usize {
        self.attribute_names.len()
    }

    /// Attribute names.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// Resolve an attribute name to its index.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attribute_names.iter().position(|n| n == name)
    }

    /// The rows of the relation.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Look up a row by object id (linear scan; used by tests and small examples).
    pub fn row(&self, id: ObjectId) -> Option<&Row> {
        self.rows.iter().find(|r| r.id == id)
    }

    /// The value of attribute `attr` for object `id`.
    pub fn value(&self, id: ObjectId, attr: usize) -> Option<Score> {
        self.row(id).and_then(|r| r.values.get(attr).copied())
    }

    /// The aggregate score of object `id` under the monotone linear scoring function
    /// `F_W(o) = Σ w_i · x_i(o)` restricted to `attributes` (§3.1).  `weights` must be
    /// either empty (binary weights, i.e. a plain sum) or have one entry per attribute in
    /// `attributes`.
    pub fn aggregate_score(
        &self,
        id: ObjectId,
        attributes: &[usize],
        weights: &[Score],
    ) -> Option<u128> {
        let row = self.row(id)?;
        let mut total: u128 = 0;
        for (j, &attr) in attributes.iter().enumerate() {
            let w = if weights.is_empty() { 1 } else { *weights.get(j)? };
            total += (w as u128) * (*row.values.get(attr)? as u128);
        }
        Some(total)
    }

    /// The exact plaintext top-k result: object ids of the `k` highest aggregate scores,
    /// highest first, ties broken by object id for determinism.  This is the correctness
    /// oracle every secure query path is tested against.
    pub fn plaintext_top_k(
        &self,
        attributes: &[usize],
        weights: &[Score],
        k: usize,
    ) -> Vec<(ObjectId, u128)> {
        let mut scored: Vec<(ObjectId, u128)> = self
            .rows
            .iter()
            .map(|r| {
                (
                    r.id,
                    self.aggregate_score(r.id, attributes, weights)
                        .expect("attributes validated by caller"),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        scored.truncate(k);
        scored
    }

    /// Build the sorted-list view `S = {L_1, …, L_M}` used by NRA and by the encryption
    /// procedure (each list sorted by local score, best — i.e. highest — first, as in the
    /// worked example of Fig. 3).
    pub fn sorted_lists(&self) -> SortedLists {
        let m = self.num_attributes();
        let mut lists = Vec::with_capacity(m);
        for attr in 0..m {
            let mut list: Vec<DataItem> = self
                .rows
                .iter()
                .map(|r| DataItem { object: r.id, score: r.values[attr] })
                .collect();
            // Descending by score; ties broken by object id so the view is deterministic.
            list.sort_by(|a, b| b.score.cmp(&a.score).then(a.object.cmp(&b.object)));
            lists.push(list);
        }
        SortedLists { lists }
    }
}

/// One entry of a sorted list: an (object id, local score) pair — the paper's
/// `I_i^d = (o_i^d, x_i^d)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DataItem {
    /// Object identifier.
    pub object: ObjectId,
    /// Local score (attribute value).
    pub score: Score,
}

/// The sorted-list view of a relation: one list per attribute, each ranking every object
/// by that attribute's value (best first).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortedLists {
    lists: Vec<Vec<DataItem>>,
}

impl SortedLists {
    /// Number of lists (`M`).
    pub fn num_lists(&self) -> usize {
        self.lists.len()
    }

    /// Depth of each list (`n`).
    pub fn depth(&self) -> usize {
        self.lists.first().map(Vec::len).unwrap_or(0)
    }

    /// The `i`-th sorted list.
    pub fn list(&self, i: usize) -> &[DataItem] {
        &self.lists[i]
    }

    /// All lists.
    pub fn lists(&self) -> &[Vec<DataItem>] {
        &self.lists
    }

    /// The item at `depth` in list `i` (0-based depth).
    pub fn item(&self, list: usize, depth: usize) -> Option<DataItem> {
        self.lists.get(list).and_then(|l| l.get(depth)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 5-object, 3-attribute table of the paper's Fig. 3.
    pub(crate) fn fig3_relation() -> Relation {
        // Scores per attribute (R1, R2, R3) for objects X1..X5 (ids 1..5).
        Relation::new(
            vec!["r1".into(), "r2".into(), "r3".into()],
            vec![
                Row { id: ObjectId(1), values: vec![10, 3, 2] },
                Row { id: ObjectId(2), values: vec![8, 8, 0] },
                Row { id: ObjectId(3), values: vec![5, 7, 6] },
                Row { id: ObjectId(4), values: vec![3, 2, 8] },
                Row { id: ObjectId(5), values: vec![1, 1, 1] },
            ],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let r = fig3_relation();
        assert_eq!(r.len(), 5);
        assert_eq!(r.num_attributes(), 3);
        assert_eq!(r.attribute_index("r2"), Some(1));
        assert_eq!(r.attribute_index("missing"), None);
        assert_eq!(r.value(ObjectId(3), 2), Some(6));
        assert_eq!(r.value(ObjectId(99), 0), None);
        assert!(!r.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate object id")]
    fn duplicate_ids_are_rejected() {
        Relation::from_rows(vec![
            Row { id: ObjectId(1), values: vec![1] },
            Row { id: ObjectId(1), values: vec![2] },
        ]);
    }

    #[test]
    #[should_panic(expected = "has 2 values")]
    fn ragged_rows_are_rejected() {
        Relation::new(
            vec!["a".into(), "b".into(), "c".into()],
            vec![Row { id: ObjectId(1), values: vec![1, 2] }],
        );
    }

    #[test]
    fn aggregate_score_sums_selected_attributes() {
        let r = fig3_relation();
        // X3: 5 + 7 + 6 = 18 over all attributes.
        assert_eq!(r.aggregate_score(ObjectId(3), &[0, 1, 2], &[]), Some(18));
        // Weighted: 2*5 + 1*7 = 17.
        assert_eq!(r.aggregate_score(ObjectId(3), &[0, 1], &[2, 1]), Some(17));
        // Unknown attribute index → None.
        assert_eq!(r.aggregate_score(ObjectId(3), &[9], &[]), None);
    }

    #[test]
    fn plaintext_top_k_matches_fig3() {
        let r = fig3_relation();
        // Sum over all three attributes: X3=18, X2=16, X1=15, X4=13, X5=3.
        let top2 = r.plaintext_top_k(&[0, 1, 2], &[], 2);
        assert_eq!(top2, vec![(ObjectId(3), 18), (ObjectId(2), 16)]);
        let top5 = r.plaintext_top_k(&[0, 1, 2], &[], 5);
        assert_eq!(top5.len(), 5);
        assert_eq!(top5.last().unwrap().0, ObjectId(5));
        // Requesting more than n returns n.
        assert_eq!(r.plaintext_top_k(&[0], &[], 100).len(), 5);
    }

    #[test]
    fn sorted_lists_are_descending_and_complete() {
        let r = fig3_relation();
        let s = r.sorted_lists();
        assert_eq!(s.num_lists(), 3);
        assert_eq!(s.depth(), 5);
        for i in 0..3 {
            let list = s.list(i);
            assert_eq!(list.len(), 5);
            for w in list.windows(2) {
                assert!(w[0].score >= w[1].score, "list {i} must be descending");
            }
        }
        // Fig. 3: the first entries of the three lists are X1/10, X2/8, X4/8.
        assert_eq!(s.item(0, 0), Some(DataItem { object: ObjectId(1), score: 10 }));
        assert_eq!(s.item(1, 0), Some(DataItem { object: ObjectId(2), score: 8 }));
        assert_eq!(s.item(2, 0), Some(DataItem { object: ObjectId(4), score: 8 }));
        assert_eq!(s.item(0, 9), None);
    }

    #[test]
    fn empty_relation_behaves() {
        let r = Relation::from_rows(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.num_attributes(), 0);
        assert_eq!(r.sorted_lists().depth(), 0);
        assert!(r.plaintext_top_k(&[], &[], 3).is_empty());
    }
}
