//! Pandas/NumPy → TondIR translation (paper, Sections III-B/C/D).
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. **Python embedding** — find the `@pytond`-decorated function, take its
//!    AST ([`pytond_pyparse`]);
//! 2. **Normalization** — convert the body to A-Normal Form ([`anf`]), so
//!    every translation step handles one simple expression;
//! 3. **Type inference** — resolve every function parameter against the
//!    [`Catalog`] (database catalog + decorator arguments — the paper's
//!    "contextual information") and propagate frame schemas forward;
//! 4. **Translation** — each statement produces TondIR rules; Pandas
//!    operations follow Table V, NumPy einsums go through the kernel planner
//!    of Table VI (dense layout) or the Blacher-style COO translation
//!    (sparse layout).

pub mod anf;
pub mod einsum_plan;
pub mod numpy;
pub mod pandas;
pub mod value;

use pytond_common::{Error, Result};
use pytond_pyparse::{ast as py, parse_module};
use pytond_tondir::{Catalog, Program};
use std::collections::{BTreeMap, HashMap};
use value::PyVal;

/// Tensor storage layout for linear-algebra translation (paper, Section II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Layout {
    /// Natural 2-D layout: one column per tensor column plus a row-id.
    #[default]
    Dense,
    /// COO triples `(row_id, col_id, val)` (Blacher et al.).
    Sparse,
}

/// Compile-time context: the `@pytond` decorator arguments.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Tensor layout for NumPy translation.
    pub layout: Layout,
    /// Known distinct values per column, required by `pivot_table`
    /// (paper: "passed to PyTond using the @pytond decorator arguments").
    pub pivot_values: HashMap<String, Vec<String>>,
}

impl CompileOptions {
    /// Extracts options from a parsed decorator.
    pub fn from_decorator(deco: &py::Decorator) -> Result<CompileOptions> {
        let mut opts = CompileOptions::default();
        if let Some(v) = deco.kwarg("layout") {
            match v.as_str_lit() {
                Some("dense") => opts.layout = Layout::Dense,
                Some("sparse") => opts.layout = Layout::Sparse,
                other => {
                    return Err(Error::Translate(format!(
                        "invalid layout argument {other:?}"
                    )))
                }
            }
        }
        if let Some(py::Expr::Dict(items)) = deco.kwarg("pivot_values") {
            for (k, v) in items {
                let col = k
                    .as_str_lit()
                    .ok_or_else(|| Error::Translate("pivot_values keys must be strings".into()))?;
                let py::Expr::List(vals) = v else {
                    return Err(Error::Translate(
                        "pivot_values values must be lists of strings".into(),
                    ));
                };
                let vals: Vec<String> = vals
                    .iter()
                    .map(|e| {
                        e.as_str_lit().map(|s| s.to_string()).ok_or_else(|| {
                            Error::Translate("pivot_values entries must be strings".into())
                        })
                    })
                    .collect::<Result<_>>()?;
                opts.pivot_values.insert(col.to_string(), vals);
            }
        }
        Ok(opts)
    }
}

/// Base table → the catalog row count a translation baked into the
/// program's shape.
pub type RowCounts = BTreeMap<String, u64>;

/// A translated program and what its shape read from the catalog besides
/// schemas.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The TondIR program.
    pub program: Program,
    /// Base tables whose catalog `row_count` a dense kernel (transpose,
    /// matmul, outer product) pivoted by, with the count used: the program
    /// is only correct while each table holds exactly that many rows.
    pub row_counts: RowCounts,
}

/// Translates the first `@pytond`-decorated function in `source`.
pub fn translate_source(source: &str, catalog: &Catalog) -> Result<Translation> {
    let module = parse_module(source)?;
    let funcs = module.decorated_functions("pytond");
    let func = funcs
        .first()
        .ok_or_else(|| Error::Translate("no @pytond-decorated function found".into()))?;
    translate_decorated(func, catalog)
}

/// Translates one decorated function (the program alone; see
/// [`translate_source`] for what it read of the catalog).
pub fn translate_function(func: &py::FuncDef, catalog: &Catalog) -> Result<Program> {
    translate_decorated(func, catalog).map(|t| t.program)
}

fn translate_decorated(func: &py::FuncDef, catalog: &Catalog) -> Result<Translation> {
    let deco = func
        .decorators
        .iter()
        .find(|d| d.name == "pytond")
        .ok_or_else(|| Error::Translate(format!("function '{}' lacks @pytond", func.name)))?;
    let options = CompileOptions::from_decorator(deco)?;
    translate_with_options(func, catalog, &options)
}

/// Translates with explicit options (bypassing decorator parsing).
pub fn translate_with_options(
    func: &py::FuncDef,
    catalog: &Catalog,
    options: &CompileOptions,
) -> Result<Translation> {
    let body = anf::normalize(&func.body)?;
    let mut tr = Translator {
        catalog,
        options: options.clone(),
        env: HashMap::new(),
        rules: Vec::new(),
        fresh: 0,
        row_counts: RowCounts::new(),
    };
    // Bind parameters to base tables (paper: data already resides in the DB).
    for param in &func.params {
        let val = tr.bind_parameter(param)?;
        tr.env.insert(param.clone(), val);
    }
    let mut returned: Option<PyVal> = None;
    for stmt in &body {
        match stmt {
            py::Stmt::Assign { target, value } => {
                tr.translate_assign(target, value)?;
            }
            py::Stmt::Return(Some(e)) => {
                returned = Some(tr.translate_expr(e)?);
                break;
            }
            py::Stmt::Return(None) => break,
            py::Stmt::Expr(_) | py::Stmt::Pass => {}
            py::Stmt::AugAssign { .. } => {
                return Err(Error::Translate(
                    "augmented assignment is not supported in @pytond functions".into(),
                ))
            }
            py::Stmt::FuncDef(_) => {
                return Err(Error::Translate(
                    "nested functions are not supported in @pytond functions".into(),
                ))
            }
        }
    }
    let out =
        returned.ok_or_else(|| Error::Translate("@pytond function must return a value".into()))?;
    tr.finalize(out)?;
    Ok(Translation {
        program: Program { rules: tr.rules },
        row_counts: tr.row_counts,
    })
}

/// Shared translation state. The per-domain rules live in `pandas.rs`
/// (relational algebra) and `numpy.rs` (linear algebra).
pub struct Translator<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) options: CompileOptions,
    pub(crate) env: HashMap<String, PyVal>,
    pub(crate) rules: Vec<pytond_tondir::Rule>,
    pub(crate) fresh: usize,
    pub(crate) row_counts: RowCounts,
}

impl<'a> Translator<'a> {
    /// A fresh relation name (`v1`, `v2`, ... per the paper's examples).
    pub(crate) fn fresh_rel(&mut self) -> String {
        loop {
            self.fresh += 1;
            let name = format!("v{}", self.fresh);
            if self.catalog.table(&name).is_none() {
                return name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pytond_pyparse::parse_module;

    #[test]
    fn decorator_options_parse() {
        let src = r#"
@pytond(layout='sparse', pivot_values={'b': ['v1', 'v2']})
def q(df):
    return df
"#;
        let m = parse_module(src).unwrap();
        let f = m.function("q").unwrap();
        let o = CompileOptions::from_decorator(&f.decorators[0]).unwrap();
        assert_eq!(o.layout, Layout::Sparse);
        assert_eq!(
            o.pivot_values.get("b").unwrap(),
            &vec!["v1".to_string(), "v2".into()]
        );
    }

    #[test]
    fn missing_decorator_is_an_error() {
        let src = "def q(df):\n    return df\n";
        let catalog = Catalog::new();
        assert!(translate_source(src, &catalog).is_err());
    }
}
