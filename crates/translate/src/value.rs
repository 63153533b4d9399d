//! The abstract-value domain of the translator.
//!
//! Every Python variable in a `@pytond` function maps to one of these
//! compile-time descriptions. Frames and arrays are *relational views*: they
//! name the TondIR relation that holds their rows plus schema metadata.
//! Column expressions ([`ColExpr`]) are **deferred**: `df.a > 10` produces a
//! predicate bound to `df`'s row context, and only materializes into a rule
//! when it is used (filtering, projection, aggregation) — mirroring how the
//! paper translates masks at their point of use.

use crate::Layout;
use pytond_common::DType;
use pytond_pyparse::ast as py;
use pytond_tondir::Term;

/// One visible DataFrame column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColInfo {
    /// Column label.
    pub name: String,
    /// Element type.
    pub dtype: DType,
}

impl ColInfo {
    /// Constructor.
    pub fn new(name: impl Into<String>, dtype: DType) -> ColInfo {
        ColInfo {
            name: name.into(),
            dtype,
        }
    }
}

/// A DataFrame (or Series — `is_series`) backed by a TondIR relation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameVal {
    /// Backing relation (base table or rule head).
    pub rel: String,
    /// Visible columns in order. The physical schema is
    /// `[id_col] ++ cols` when `id_col` is set.
    pub cols: Vec<ColInfo>,
    /// Hidden row-id column (paper: the UID used to preserve Pandas index
    /// semantics), physically first.
    pub id_col: Option<String>,
    /// Index of the defining rule (None = base table). Used for the
    /// sort+head fusion of Section III-E.
    pub rule_index: Option<usize>,
    /// `true` when this is a single-column Series view.
    pub is_series: bool,
}

impl FrameVal {
    /// Base-table constructor.
    pub fn base(rel: impl Into<String>, cols: Vec<ColInfo>) -> FrameVal {
        FrameVal {
            rel: rel.into(),
            cols,
            id_col: None,
            rule_index: None,
            is_series: false,
        }
    }

    /// Physical column names in relation order.
    pub fn physical_cols(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.cols.len() + 1);
        if let Some(id) = &self.id_col {
            out.push(id.clone());
        }
        out.extend(self.cols.iter().map(|c| c.name.clone()));
        out
    }

    /// Looks up a visible column.
    pub fn col(&self, name: &str) -> Option<&ColInfo> {
        self.cols.iter().find(|c| c.name == name)
    }

    /// The single column of a Series view.
    pub fn series_col(&self) -> Option<&ColInfo> {
        if self.cols.len() == 1 {
            self.cols.first()
        } else {
            None
        }
    }
}

/// An `isin` dependency attached to a deferred expression: the tested term
/// must (not) appear in `inner_rel.inner_col`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExistsSpec {
    /// Tested term (over `$col` placeholders of the context frame).
    pub outer: Term,
    /// Relation containing the candidate values.
    pub inner_rel: String,
    /// Physical column of `inner_rel` holding the values.
    pub inner_col: String,
    /// Total physical column count of `inner_rel` (to bind all positions).
    pub inner_arity: usize,
    /// Position of `inner_col` in the relation.
    pub inner_col_pos: usize,
    /// `true` for `~isin` / NOT IN.
    pub negated: bool,
}

/// A 1-row relation cell: the result of a whole-column aggregation.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarDep {
    /// The 1-row relation.
    pub rel: String,
    /// Its physical columns (all bound at emission).
    pub cols: Vec<String>,
    /// The referenced column.
    pub col: String,
}

/// A deferred column expression over one frame's row context.
///
/// `term` references the context frame's columns through `$name` placeholder
/// variables (see [`col_placeholder`]); scalar aggregation results appear as
/// `#rel.col` placeholders resolved by cross-joining the 1-row relation.
#[derive(Debug, Clone, PartialEq)]
pub struct ColExpr {
    /// Row context.
    pub frame: FrameVal,
    /// The expression.
    pub term: Term,
    /// `isin` dependencies (conjunctive with the expression when boolean).
    pub exists: Vec<ExistsSpec>,
    /// 1-row relations the term references.
    pub scalar_deps: Vec<ScalarDep>,
    /// Static result type.
    pub dtype: DType,
    /// Display name (used when the expression materializes as a Series).
    pub name: String,
}

impl ColExpr {
    /// A bare column reference.
    pub fn column(frame: FrameVal, name: &str, dtype: DType) -> ColExpr {
        ColExpr {
            frame,
            term: Term::Var(col_placeholder(name)),
            exists: Vec::new(),
            scalar_deps: Vec::new(),
            dtype,
            name: name.to_string(),
        }
    }

    /// `true` when the two expressions share a row context.
    pub fn same_frame(&self, other: &ColExpr) -> bool {
        self.frame.rel == other.frame.rel && self.frame.cols == other.frame.cols
    }
}

/// The placeholder variable name standing for column `name` of the context
/// frame inside a deferred [`Term`].
pub fn col_placeholder(name: &str) -> String {
    format!("${name}")
}

/// The placeholder variable standing for `rel.col` of a cross-joined 1-row
/// relation.
pub fn scalar_placeholder(rel: &str, col: &str) -> String {
    format!("#{rel}.{col}")
}

/// A dense or sparse tensor backed by a TondIR relation.
///
/// Dense layout (paper, Section II): matrix = `(id, c0..c{n-1})`, vector =
/// `(id, c0)`. Sparse layout: matrix = `(row_id, col_id, val)`, vector =
/// `(row_id, val)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayVal {
    /// Backing relation.
    pub rel: String,
    /// Storage layout.
    pub layout: Layout,
    /// Tensor order (1 or 2).
    pub ndim: usize,
    /// Dense layout: the id column name.
    pub id_col: String,
    /// Dense layout: value column names in order.
    pub val_cols: Vec<String>,
    /// Statically-known row count, when available (needed for pivots).
    pub static_rows: Option<StaticRows>,
}

/// A row count known at translation time, and where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticRows {
    /// The count.
    pub n: usize,
    /// The base table whose catalog `row_count` this is; `None` when the
    /// program fixes it itself (a literal, an unpivot over known columns).
    pub table: Option<String>,
}

impl StaticRows {
    /// A count the program itself fixes.
    pub fn fixed(n: usize) -> StaticRows {
        StaticRows { n, table: None }
    }
}

impl ArrayVal {
    /// Number of columns of a dense matrix / length-1 for vectors.
    pub fn ncols(&self) -> usize {
        self.val_cols.len()
    }

    /// Physical schema of the backing relation.
    pub fn physical_cols(&self) -> Vec<String> {
        match self.layout {
            Layout::Dense => {
                let mut out = vec![self.id_col.clone()];
                out.extend(self.val_cols.iter().cloned());
                out
            }
            Layout::Sparse => {
                if self.ndim == 2 {
                    vec!["row_id".into(), "col_id".into(), "val".into()]
                } else {
                    vec!["row_id".into(), "val".into()]
                }
            }
        }
    }
}

/// A compile-time scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarVal {
    /// Literal constant.
    Const(pytond_tondir::Const),
    /// One cell of a 1-row relation (aggregation result).
    Rel {
        /// The 1-row relation.
        rel: String,
        /// All physical columns of the relation.
        cols: Vec<String>,
        /// The referenced column.
        col: String,
        /// Static type.
        dtype: DType,
    },
}

/// A pending `df.groupby(keys)` awaiting its aggregation call.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByVal {
    /// Source frame.
    pub frame: FrameVal,
    /// Grouping column names.
    pub keys: Vec<String>,
}

/// Abstract value of a Python variable during translation.
#[derive(Debug, Clone, PartialEq)]
pub enum PyVal {
    /// DataFrame / Series.
    Frame(FrameVal),
    /// Deferred column expression (mask, arithmetic, comparison, ...).
    Col(ColExpr),
    /// NumPy tensor.
    Array(ArrayVal),
    /// Scalar.
    Scalar(ScalarVal),
    /// Compile-time list of constants (column lists, literal arrays, ...).
    ConstList(Vec<pytond_tondir::Const>),
    /// Compile-time list of strings (column name lists).
    NameList(Vec<String>),
    /// Stored lambda (for `apply`).
    Lambda {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: py::Expr,
    },
    /// Pending group-by.
    GroupBy(GroupByVal),
    /// `.str` accessor on a column expression.
    StrAccessor(ColExpr),
    /// `.dt` accessor on a column expression.
    DtAccessor(ColExpr),
}

impl PyVal {
    /// Human label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            PyVal::Frame(f) if f.is_series => "series",
            PyVal::Frame(_) => "dataframe",
            PyVal::Col(_) => "column-expression",
            PyVal::Array(_) => "ndarray",
            PyVal::Scalar(_) => "scalar",
            PyVal::ConstList(_) => "list",
            PyVal::NameList(_) => "name-list",
            PyVal::Lambda { .. } => "lambda",
            PyVal::GroupBy(_) => "groupby",
            PyVal::StrAccessor(_) => "str-accessor",
            PyVal::DtAccessor(_) => "dt-accessor",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn physical_cols_include_hidden_id() {
        let mut f = FrameVal::base(
            "t",
            vec![ColInfo::new("a", DType::Int), ColInfo::new("b", DType::Str)],
        );
        assert_eq!(f.physical_cols(), vec!["a", "b"]);
        f.id_col = Some("__id".into());
        assert_eq!(f.physical_cols(), vec!["__id", "a", "b"]);
    }

    #[test]
    fn col_expr_contexts() {
        let f = FrameVal::base("t", vec![ColInfo::new("a", DType::Int)]);
        let c1 = ColExpr::column(f.clone(), "a", DType::Int);
        let c2 = ColExpr::column(f, "a", DType::Int);
        assert!(c1.same_frame(&c2));
        assert_eq!(c1.term, Term::Var("$a".into()));
    }

    #[test]
    fn array_physical_layouts() {
        let dense = ArrayVal {
            rel: "m".into(),
            layout: Layout::Dense,
            ndim: 2,
            id_col: "__id".into(),
            val_cols: vec!["c0".into(), "c1".into()],
            static_rows: None,
        };
        assert_eq!(dense.physical_cols(), vec!["__id", "c0", "c1"]);
        let sparse = ArrayVal {
            layout: Layout::Sparse,
            ..dense
        };
        assert_eq!(sparse.physical_cols(), vec!["row_id", "col_id", "val"]);
    }
}
