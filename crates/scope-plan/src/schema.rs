//! Schemas: ordered lists of named, typed columns.

use std::fmt;
use std::sync::Arc;

use scope_common::hash::SipHasher24;
use scope_common::{Result, ScopeError};

use crate::types::DataType;

/// A single named, typed column.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Column {
    /// Column name (unique within a schema).
    pub name: String,
    /// Column type.
    pub dtype: DataType,
}

impl Column {
    /// Builds a column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.name, self.dtype)
    }
}

/// An ordered list of columns, shared: a clone is a reference-count bump,
/// so a plan's schemas, descriptors and tables hold one copy of each name.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    /// An empty schema (used by operators with no columnar output, e.g.
    /// `Output`).
    pub fn empty() -> Self {
        Schema {
            columns: Arc::new([]),
        }
    }

    /// Builds a schema from columns; duplicate names are rejected.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(ScopeError::InvalidPlan(format!(
                    "duplicate column name `{}` in schema",
                    c.name
                )));
            }
        }
        Ok(Schema {
            columns: columns.into(),
        })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Self {
        Schema::new(pairs.iter().map(|(n, t)| Column::new(*n, *t)).collect())
            .expect("from_pairs callers use unique names")
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column at `idx`, or an error naming the failure.
    pub fn column(&self, idx: usize) -> Result<&Column> {
        self.columns.get(idx).ok_or_else(|| {
            ScopeError::InvalidPlan(format!(
                "column index {idx} out of range for schema of width {}",
                self.columns.len()
            ))
        })
    }

    /// True when `other` has the same column types in the same order
    /// (names may differ — SCOPE's RestrRemap renames freely).
    pub fn types_match(&self, other: &Schema) -> bool {
        self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(other.columns.iter())
                .all(|(a, b)| a.dtype == b.dtype)
    }

    /// Concatenates two schemas (join output), disambiguating duplicate
    /// names with a `r_` prefix.
    pub fn concat(&self, right: &Schema) -> Schema {
        let mut cols = self.columns.to_vec();
        for c in right.columns.iter() {
            let name = if cols.iter().any(|p| p.name == c.name) {
                format!("r_{}", c.name)
            } else {
                c.name.clone()
            };
            cols.push(Column::new(name, c.dtype));
        }
        Schema {
            columns: cols.into(),
        }
    }

    /// Feeds the schema into a stable hasher; part of every signature so
    /// that a view's stored schema is pinned by its signature.
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        h.write_u64(self.columns.len() as u64);
        for c in self.columns.iter() {
            h.write_str(&c.name);
            h.write_str(c.dtype.name());
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Str),
            ("c", DataType::Float),
        ])
    }

    #[test]
    fn lookup() {
        let s = abc();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column(2).unwrap().name, "c");
        assert!(s.column(3).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Column::new("x", DataType::Int),
            Column::new("x", DataType::Str),
        ])
        .unwrap_err();
        assert_eq!(err.kind(), "invalid_plan");
    }

    #[test]
    fn types_match_ignores_names() {
        let s1 = abc();
        let s2 = Schema::from_pairs(&[
            ("x", DataType::Int),
            ("y", DataType::Str),
            ("z", DataType::Float),
        ]);
        assert!(s1.types_match(&s2));
        let s3 = Schema::from_pairs(&[("x", DataType::Int)]);
        assert!(!s1.types_match(&s3));
    }

    #[test]
    fn concat_disambiguates() {
        let s = abc().concat(&Schema::from_pairs(&[
            ("a", DataType::Int),
            ("d", DataType::Bool),
        ]));
        let names: Vec<_> = s.columns().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "r_a", "d"]);
    }

    #[test]
    fn display() {
        assert_eq!(abc().to_string(), "(a:int, b:str, c:float)");
        assert_eq!(Schema::empty().to_string(), "()");
    }

    #[test]
    fn stable_hash_differs_on_rename() {
        use scope_common::hash::SipHasher24;
        fn h(s: &Schema) -> u64 {
            let mut x = SipHasher24::new_with_keys(0, 0);
            s.stable_hash_into(&mut x);
            x.finish()
        }
        let s1 = abc();
        let mut s2 = abc();
        s2 = Schema::new(
            s2.columns()
                .iter()
                .map(|c| Column::new(c.name.to_uppercase(), c.dtype))
                .collect(),
        )
        .unwrap();
        assert_ne!(h(&s1), h(&s2));
        assert_eq!(h(&s1), h(&abc()));
    }
}
