//! Synthetic user-defined operators (UDOs).
//!
//! SCOPE scripts are full of C# user code: row processors, reducers, and
//! combiners, typically shipped as shared libraries across teams. User code
//! matters to CloudViews in two ways (paper Sections 1.3 and 3):
//!
//! 1. its presence makes optimizer cost estimates unreliable — motivating
//!    the feedback loop, and
//! 2. the *precise* signature must include the identity **and version** of
//!    every piece of user code and every external library, because two
//!    subgraphs are only safely interchangeable when the user code is
//!    byte-identical.
//!
//! We stand in for arbitrary C# with a closed library of deterministic
//! operators ([`UdoKind`]), each tagged with a library name and version
//! string that participates in precise signatures. Bumping the version
//! changes the precise signature without changing behaviour — exactly the
//! situation where CloudViews must refuse to reuse a stale view.
//!
//! This module only *describes* a UDO: its output schema, its cost weight
//! and what it adds to a signature. The executor in `scope-engine` runs each
//! kind as a batch kernel.

use scope_common::hash::SipHasher24;

use crate::schema::{Column, Schema};
use crate::types::DataType;
use scope_common::{Result, ScopeError};

/// The behaviour of a user-defined operator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum UdoKind {
    /// Processor: splits the string in `col` on whitespace, emitting one
    /// output row per token (all original columns + a `token` column).
    Tokenize {
        /// Input column holding the text.
        col: usize,
    },
    /// Processor: clamps the numeric column `col` into `[lo, hi]`.
    ClampOutliers {
        /// Column to clamp.
        col: usize,
        /// Lower bound (as integer; applied numerically).
        lo: i64,
        /// Upper bound.
        hi: i64,
    },
    /// Processor: appends a deterministic pseudo-model score in `[0,1)`
    /// computed from the hash of the listed feature columns.
    ScoreModel {
        /// Feature columns.
        cols: Vec<usize>,
        /// Model seed (a "model version" knob).
        seed: u64,
    },
    /// Reducer: within each group (grouping keys handled by the `Reduce`
    /// operator), keeps rows whose numeric column `col` is within the
    /// group's observed `[min + gap, max - gap]` band — a toy sessionizer /
    /// outlier-trimmer whose output depends on the whole group.
    TrimBand {
        /// Numeric column examined.
        col: usize,
        /// Band margin.
        gap: i64,
    },
    /// Reducer: emits one row per group with the group's row count appended
    /// (a user-coded aggregate that the engine cannot see through).
    CountRows,
    /// Combiner (binary): concatenates left and right rows positionally
    /// after sorting both sides by column 0 — a toy "merge streams" UDO.
    MergeStreams,
    /// Per-group apply (GbApply): keeps the top `n` rows of each group by
    /// column `col` descending.
    TopPerGroup {
        /// Ranking column.
        col: usize,
        /// Rows kept per group.
        n: usize,
    },
}

impl UdoKind {
    /// Short name for display and signatures.
    pub fn name(&self) -> &'static str {
        match self {
            UdoKind::Tokenize { .. } => "tokenize",
            UdoKind::ClampOutliers { .. } => "clamp_outliers",
            UdoKind::ScoreModel { .. } => "score_model",
            UdoKind::TrimBand { .. } => "trim_band",
            UdoKind::CountRows => "count_rows",
            UdoKind::MergeStreams => "merge_streams",
            UdoKind::TopPerGroup { .. } => "top_per_group",
        }
    }

    /// Relative CPU weight of this UDO per input row; user code is usually
    /// much more expensive than built-in operators, and the cost model uses
    /// this to reflect that.
    pub fn cost_weight(&self) -> f64 {
        match self {
            UdoKind::Tokenize { .. } => 4.0,
            UdoKind::ClampOutliers { .. } => 1.5,
            UdoKind::ScoreModel { .. } => 8.0,
            UdoKind::TrimBand { .. } => 3.0,
            UdoKind::CountRows => 1.0,
            UdoKind::MergeStreams => 2.0,
            UdoKind::TopPerGroup { .. } => 2.5,
        }
    }
}

/// A user-defined operator instance: behaviour + provenance.
///
/// `library` and `version` model the external assembly the user code ships
/// in; both are part of the precise signature (paper Section 3: "we extended
/// the precise signature to further include ... any user code, as well as any
/// external libraries used for custom code").
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Udo {
    /// The operator behaviour.
    pub kind: UdoKind,
    /// Owning library/assembly name, e.g. `"Contoso.TextUtils"`.
    pub library: String,
    /// Library version, e.g. `"1.4.2"`.
    pub version: String,
}

impl Udo {
    /// Builds a UDO instance.
    pub fn new(kind: UdoKind, library: impl Into<String>, version: impl Into<String>) -> Self {
        Udo {
            kind: kind.clone(),
            library: library.into(),
            version: version.into(),
        }
    }

    /// Output schema of the UDO given its input schema.
    pub fn output_schema(&self, input: &Schema) -> Result<Schema> {
        match &self.kind {
            UdoKind::Tokenize { col } => {
                let c = input.column(*col)?;
                if c.dtype != DataType::Str {
                    return Err(ScopeError::InvalidPlan(format!(
                        "tokenize needs a str column, got {}",
                        c.dtype
                    )));
                }
                let mut cols = input.columns().to_vec();
                cols.push(Column::new("token", DataType::Str));
                Schema::new(cols)
            }
            UdoKind::ClampOutliers { col, .. } | UdoKind::TrimBand { col, .. } => {
                input.column(*col)?;
                Ok(input.clone())
            }
            UdoKind::ScoreModel { cols, .. } => {
                for c in cols {
                    input.column(*c)?;
                }
                let mut out = input.columns().to_vec();
                out.push(Column::new("score", DataType::Float));
                Schema::new(out)
            }
            UdoKind::CountRows => {
                let mut out = input.columns().to_vec();
                out.push(Column::new("group_rows", DataType::Int));
                Schema::new(out)
            }
            UdoKind::MergeStreams => Ok(input.clone()),
            UdoKind::TopPerGroup { col, .. } => {
                input.column(*col)?;
                Ok(input.clone())
            }
        }
    }

    /// Feeds the UDO into a stable hasher. `include_version` distinguishes
    /// precise (true) from normalized (also true — a version bump is NOT a
    /// recurring delta, it is a code change; both signatures include it).
    pub fn stable_hash_into(&self, h: &mut SipHasher24) {
        h.write_str(self.kind.name());
        h.write_str(&self.library);
        h.write_str(&self.version);
        // Parameters of the behaviour are part of both signatures.
        match &self.kind {
            UdoKind::Tokenize { col } => h.write_u64(*col as u64),
            UdoKind::ClampOutliers { col, lo, hi } => {
                h.write_u64(*col as u64);
                h.write_u64(*lo as u64);
                h.write_u64(*hi as u64);
            }
            UdoKind::ScoreModel { cols, seed } => {
                h.write_u64(cols.len() as u64);
                for c in cols {
                    h.write_u64(*c as u64);
                }
                h.write_u64(*seed);
            }
            UdoKind::TrimBand { col, gap } => {
                h.write_u64(*col as u64);
                h.write_u64(*gap as u64);
            }
            UdoKind::CountRows | UdoKind::MergeStreams => {}
            UdoKind::TopPerGroup { col, n } => {
                h.write_u64(*col as u64);
                h.write_u64(*n as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_schema() -> Schema {
        Schema::from_pairs(&[("id", DataType::Int), ("text", DataType::Str)])
    }

    #[test]
    fn tokenize_appends_a_token_column() {
        let udo = Udo::new(UdoKind::Tokenize { col: 1 }, "Contoso.Text", "1.0.0");
        let out_schema = udo.output_schema(&text_schema()).unwrap();
        assert_eq!(out_schema.len(), 3);
        assert_eq!(out_schema.column(2).unwrap().name, "token");
    }

    #[test]
    fn tokenize_rejects_non_string_column() {
        let udo = Udo::new(UdoKind::Tokenize { col: 0 }, "L", "1");
        assert!(udo.output_schema(&text_schema()).is_err());
    }

    #[test]
    fn version_changes_signature() {
        fn h(u: &Udo) -> u64 {
            let mut s = SipHasher24::new_with_keys(0, 0);
            u.stable_hash_into(&mut s);
            s.finish()
        }
        let v1 = Udo::new(UdoKind::CountRows, "Lib", "1.0.0");
        let v2 = Udo::new(UdoKind::CountRows, "Lib", "1.0.1");
        let other_lib = Udo::new(UdoKind::CountRows, "Lib2", "1.0.0");
        assert_ne!(h(&v1), h(&v2));
        assert_ne!(h(&v1), h(&other_lib));
        assert_eq!(h(&v1), h(&v1.clone()));
    }

    #[test]
    fn cost_weights_positive() {
        for k in [
            UdoKind::Tokenize { col: 0 },
            UdoKind::ClampOutliers {
                col: 0,
                lo: 0,
                hi: 1,
            },
            UdoKind::ScoreModel {
                cols: vec![],
                seed: 0,
            },
            UdoKind::TrimBand { col: 0, gap: 0 },
            UdoKind::CountRows,
            UdoKind::MergeStreams,
            UdoKind::TopPerGroup { col: 0, n: 1 },
        ] {
            assert!(k.cost_weight() > 0.0, "{}", k.name());
        }
    }
}
