//! Statement/expression translation and the Pandas (relational-algebra)
//! rules of Table V.

use crate::value::*;
use crate::{Layout, Translator};
use pytond_common::{DType, Error, Result};
use pytond_pyparse::ast as py;
use pytond_tondir::{Atom, Body, Const, Head, Rule, ScalarOp, Term};
use std::collections::{HashMap, HashSet};

/// Builds one rule body: relation accesses, predicate atoms and the
/// placeholder-to-variable substitution map.
pub(crate) struct BodyBuilder {
    pub atoms: Vec<Atom>,
    used: HashSet<String>,
    /// `$col` / `#rel.col` placeholder → bound variable.
    pub subst: HashMap<String, String>,
    alias_counter: usize,
}

impl BodyBuilder {
    pub(crate) fn new() -> BodyBuilder {
        BodyBuilder {
            atoms: Vec::new(),
            used: HashSet::new(),
            subst: HashMap::new(),
            alias_counter: 0,
        }
    }

    pub(crate) fn fresh_var(&mut self, base: &str) -> String {
        let base: String = base
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let base = if base.is_empty() {
            "v".to_string()
        } else {
            base
        };
        let mut name = base.clone();
        let mut k = 1;
        while !self.used.insert(name.clone()) {
            k += 1;
            name = format!("{base}_{k}");
        }
        name
    }

    fn fresh_alias(&mut self, base: &str) -> String {
        self.alias_counter += 1;
        if self.alias_counter == 1 {
            base.to_string()
        } else {
            format!("{base}_{}", self.alias_counter)
        }
    }

    /// Accesses a frame, binding every physical column to a fresh variable
    /// and registering `$col` placeholders for the visible columns.
    /// Returns (alias, id-var if any, visible col → var).
    pub(crate) fn access_frame(
        &mut self,
        frame: &FrameVal,
        register_placeholders: bool,
    ) -> (String, Option<String>, HashMap<String, String>) {
        let alias = self.fresh_alias(&frame.rel);
        let mut vars = Vec::new();
        let mut id_var = None;
        if let Some(id) = &frame.id_col {
            let v = self.fresh_var(id);
            id_var = Some(v.clone());
            vars.push(v);
        }
        let mut map = HashMap::new();
        for c in &frame.cols {
            let v = self.fresh_var(&c.name);
            if register_placeholders {
                self.subst.insert(col_placeholder(&c.name), v.clone());
            }
            map.insert(c.name.clone(), v.clone());
            vars.push(v);
        }
        self.atoms.push(Atom::Rel {
            rel: frame.rel.clone(),
            alias,
            vars,
        });
        let alias_name = match &self.atoms.last().unwrap() {
            Atom::Rel { alias, .. } => alias.clone(),
            _ => unreachable!(),
        };
        (alias_name, id_var, map)
    }

    /// Cross-joins a 1-row scalar relation, registering its `#rel.col`
    /// placeholders.
    pub(crate) fn access_scalar(&mut self, dep: &ScalarDep) {
        let key = scalar_placeholder(&dep.rel, &dep.col);
        if self.subst.contains_key(&key) {
            return;
        }
        let alias = self.fresh_alias(&dep.rel);
        let mut vars = Vec::new();
        for c in &dep.cols {
            let v = self.fresh_var(c);
            self.subst
                .insert(scalar_placeholder(&dep.rel, c), v.clone());
            vars.push(v);
        }
        self.atoms.push(Atom::Rel {
            rel: dep.rel.clone(),
            alias,
            vars,
        });
    }

    /// Substitutes placeholders in a deferred term.
    pub(crate) fn resolve(&self, t: &Term) -> Result<Term> {
        let mut out = t.clone();
        let mut missing = None;
        out.rename_vars(&mut |v| {
            if let Some(bound) = self.subst.get(v) {
                Some(bound.clone())
            } else {
                if v.starts_with('$') || v.starts_with('#') {
                    missing = Some(v.to_string());
                }
                None
            }
        });
        if let Some(m) = missing {
            return Err(Error::Translate(format!(
                "unresolved column placeholder '{m}'"
            )));
        }
        Ok(out)
    }

    /// Adds the atoms for one deferred expression (scalar deps, exists) and
    /// returns the resolved term.
    pub(crate) fn add_expr(&mut self, e: &ColExpr) -> Result<Term> {
        for dep in &e.scalar_deps {
            self.access_scalar(dep);
        }
        for ex in &e.exists {
            let outer = self.resolve(&ex.outer)?;
            let outer_var = match outer {
                Term::Var(v) => v,
                other => {
                    // Compound tested term: bind it first.
                    let v = self.fresh_var("isin_key");
                    self.atoms.push(Atom::Assign {
                        var: v.clone(),
                        term: other,
                    });
                    v
                }
            };
            let mut inner_vars = Vec::new();
            let mut inner_key = String::new();
            for i in 0..ex.inner_arity {
                let v = self.fresh_var(&format!("in{i}"));
                if i == ex.inner_col_pos {
                    inner_key = v.clone();
                }
                inner_vars.push(v);
            }
            self.atoms.push(Atom::Exists {
                body: Body::new(vec![Atom::Rel {
                    rel: ex.inner_rel.clone(),
                    alias: format!("{}_in", ex.inner_rel),
                    vars: inner_vars,
                }]),
                keys: vec![(outer_var, inner_key)],
                negated: ex.negated,
            });
        }
        self.resolve(&e.term)
    }
}

impl<'a> Translator<'a> {
    // ---------------- parameters & finalization ----------------

    /// Binds a function parameter to its base table. Tables shaped
    /// `(__id, c0..cn)` bind as dense arrays, `(row_id[, col_id], val)` as
    /// sparse arrays, anything else as a DataFrame.
    pub fn bind_parameter(&mut self, name: &str) -> Result<PyVal> {
        let schema = self.catalog.expect_table(name)?;
        let col_names: Vec<&str> = schema.cols.iter().map(|(c, _)| c.as_str()).collect();
        // A kernel that pivots by this count ties the program's shape to the
        // table's size, so the count remembers its table.
        let rows = schema.row_count.map(|n| StaticRows {
            n: n as usize,
            table: Some(name.to_string()),
        });
        if col_names.first() == Some(&"__id")
            && col_names[1..].iter().all(|c| c.starts_with('c'))
            && col_names.len() > 1
        {
            return Ok(PyVal::Array(ArrayVal {
                rel: name.to_string(),
                layout: Layout::Dense,
                ndim: if col_names.len() == 2 { 1 } else { 2 },
                id_col: "__id".into(),
                val_cols: col_names[1..].iter().map(|c| c.to_string()).collect(),
                static_rows: rows,
            }));
        }
        if col_names == ["row_id", "col_id", "val"] {
            return Ok(PyVal::Array(ArrayVal {
                rel: name.to_string(),
                layout: Layout::Sparse,
                ndim: 2,
                id_col: "row_id".into(),
                val_cols: vec!["val".into()],
                static_rows: rows,
            }));
        }
        Ok(PyVal::Frame(FrameVal::base(
            name,
            schema
                .cols
                .iter()
                .map(|(c, t)| ColInfo::new(c.clone(), *t))
                .collect(),
        )))
    }

    /// Emits the final projection rule for the returned value.
    pub fn finalize(&mut self, out: PyVal) -> Result<()> {
        match out {
            PyVal::Frame(f) => {
                // Re-project visible columns (drops the hidden id); skip when
                // the frame is already the last rule and has no id.
                let is_last = f.rule_index.is_some_and(|i| i + 1 == self.rules.len());
                if is_last && f.id_col.is_none() {
                    return Ok(());
                }
                let outputs: Vec<(String, Term, DType)> = f
                    .cols
                    .iter()
                    .map(|c| (c.name.clone(), Term::Var(col_placeholder(&c.name)), c.dtype))
                    .collect();
                self.emit_project(&f, outputs, false)?;
                Ok(())
            }
            PyVal::Col(e) => {
                let name = e.name.clone();
                let dtype = e.dtype;
                let frame = e.frame.clone();
                self.emit_project(&frame, vec![(name, e.term.clone(), dtype)], false)
                    .map(|_| ())
            }
            PyVal::Array(a) => self.finalize_array(a),
            PyVal::Scalar(ScalarVal::Rel { rel, cols, col, .. }) => {
                // Project the single cell.
                let rel_name = self.fresh_rel();
                let mut b = BodyBuilder::new();
                let mut vars = Vec::new();
                let mut keep = String::new();
                for c in &cols {
                    let v = b.fresh_var(c);
                    if *c == col {
                        keep = v.clone();
                    }
                    vars.push(v);
                }
                b.atoms.push(Atom::Rel {
                    rel,
                    alias: "s".into(),
                    vars,
                });
                self.rules.push(Rule {
                    head: Head::simple(rel_name, vec![(col, keep)]),
                    body: Body::new(b.atoms),
                });
                Ok(())
            }
            PyVal::Scalar(ScalarVal::Const(c)) => {
                let rel_name = self.fresh_rel();
                self.rules.push(Rule {
                    head: Head::simple(rel_name, vec![("value".into(), "c0".into())]),
                    body: Body::new(vec![Atom::ConstRel {
                        vars: vec!["c0".into()],
                        rows: vec![vec![c]],
                    }]),
                });
                Ok(())
            }
            other => Err(Error::Translate(format!(
                "cannot return a {} from a @pytond function",
                other.kind()
            ))),
        }
    }

    // ---------------- statements ----------------

    pub fn translate_assign(&mut self, target: &py::Expr, value: &py::Expr) -> Result<()> {
        match target {
            py::Expr::Name(name) => {
                let v = self.translate_expr(value)?;
                self.env.insert(name.clone(), v);
                Ok(())
            }
            py::Expr::Subscript { value: base, index } => {
                let col = index.as_str_lit().ok_or_else(|| {
                    Error::Translate("column assignment requires a string key".into())
                })?;
                let base_name = base.as_name().ok_or_else(|| {
                    Error::Translate("column assignment target must be a variable".into())
                })?;
                let rhs = self.translate_expr(value)?;
                let updated = self.assign_column(base_name, col, rhs)?;
                self.env
                    .insert(base_name.to_string(), PyVal::Frame(updated));
                Ok(())
            }
            other => Err(Error::Translate(format!(
                "unsupported assignment target {other:?}"
            ))),
        }
    }

    /// `df[col] = rhs` — projection extension, or the implicit join of
    /// Section III-C when `rhs` comes from a different frame.
    fn assign_column(&mut self, base: &str, col: &str, rhs: PyVal) -> Result<FrameVal> {
        let target = match self.env.get(base) {
            Some(PyVal::Frame(f)) => f.clone(),
            Some(other) => {
                return Err(Error::Translate(format!(
                    "cannot assign a column on a {}",
                    other.kind()
                )))
            }
            None => FrameVal::base("", vec![]), // fresh empty DataFrame()
        };
        let rhs_col = match rhs {
            PyVal::Col(c) => c,
            PyVal::Frame(f) if f.is_series => {
                let c = f
                    .series_col()
                    .ok_or_else(|| Error::Translate("series without a column".into()))?;
                ColExpr::column(f.clone(), &c.name.clone(), c.dtype)
            }
            PyVal::Scalar(ScalarVal::Const(k)) => {
                // Constant column over the target frame.
                let dtype = k.dtype().unwrap_or(DType::Float);
                ColExpr {
                    frame: target.clone(),
                    term: Term::Const(k),
                    exists: vec![],
                    scalar_deps: vec![],
                    dtype,
                    name: col.to_string(),
                }
            }
            PyVal::Scalar(ScalarVal::Rel {
                rel,
                cols,
                col: scol,
                dtype,
            }) => ColExpr {
                frame: target.clone(),
                term: Term::Var(scalar_placeholder(&rel, &scol)),
                exists: vec![],
                scalar_deps: vec![ScalarDep {
                    rel,
                    cols,
                    col: scol,
                }],
                dtype,
                name: col.to_string(),
            },
            other => {
                return Err(Error::Translate(format!(
                    "cannot assign a {} as a column",
                    other.kind()
                )))
            }
        };

        if target.rel.is_empty() && target.cols.is_empty() {
            // First column of an empty DataFrame: project from the source.
            let src = rhs_col.frame.clone();
            let mut outputs = vec![(col.to_string(), rhs_col.term.clone(), rhs_col.dtype)];
            let mut f =
                self.emit_project_full(&src, std::mem::take(&mut outputs), true, &rhs_col)?;
            if let Some(c) = f.cols.last_mut() {
                c.name = col.to_string();
            }
            return Ok(f);
        }

        if rhs_col.frame.rel == target.rel && rhs_col.frame.cols == target.cols {
            // Same row context: extend the projection.
            let mut outputs: Vec<(String, Term, DType)> = target
                .cols
                .iter()
                .filter(|c| c.name != col)
                .map(|c| (c.name.clone(), Term::Var(col_placeholder(&c.name)), c.dtype))
                .collect();
            outputs.push((col.to_string(), rhs_col.term.clone(), rhs_col.dtype));
            return self.emit_project_full(&target, outputs, target.id_col.is_some(), &rhs_col);
        }

        // Different frames: the implicit join on generated IDs (paper §III-C).
        let left = self.ensure_id(&target)?;
        let right = self.ensure_id(&rhs_col.frame)?;
        let rel = self.fresh_rel();
        let mut b = BodyBuilder::new();
        let (_, lid, lmap) = b.access_frame(&left, true);
        // Access the right with non-registered placeholders, then register
        // only the columns the rhs term needs (shadowing is fine: rhs's frame
        // differs from target).
        let (_, rid, rmap) = b.access_frame(&right, false);
        for (name, var) in &rmap {
            b.subst.insert(col_placeholder(name), var.clone());
        }
        let lid = lid.expect("ensure_id guarantees an id");
        let rid = rid.expect("ensure_id guarantees an id");
        b.atoms.push(Atom::Pred(Term::bin(
            ScalarOp::Eq,
            Term::Var(lid.clone()),
            Term::Var(rid),
        )));
        let new_term = b.add_expr(&rhs_col)?;
        let new_var = b.fresh_var(col);
        b.atoms.push(Atom::Assign {
            var: new_var.clone(),
            term: new_term,
        });
        let mut head_cols = vec![(left.id_col.clone().unwrap(), lid)];
        let mut out_cols = Vec::new();
        for c in &left.cols {
            if c.name == col {
                continue;
            }
            head_cols.push((c.name.clone(), lmap[&c.name].clone()));
            out_cols.push(c.clone());
        }
        head_cols.push((col.to_string(), new_var));
        out_cols.push(ColInfo::new(col, rhs_col.dtype));
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(b.atoms),
        });
        Ok(FrameVal {
            rel,
            cols: out_cols,
            id_col: left.id_col,
            rule_index: Some(rule_index),
            is_series: false,
        })
    }

    // ---------------- emission helpers ----------------

    /// Guarantees the frame carries a generated id column (`uid()` rule).
    pub(crate) fn ensure_id(&mut self, frame: &FrameVal) -> Result<FrameVal> {
        if frame.id_col.is_some() {
            return Ok(frame.clone());
        }
        let rel = self.fresh_rel();
        let mut b = BodyBuilder::new();
        let (_, _, map) = b.access_frame(frame, false);
        let id_var = b.fresh_var("__id");
        b.atoms.push(Atom::Assign {
            var: id_var.clone(),
            term: Term::Ext {
                func: "uid".into(),
                args: vec![],
            },
        });
        let mut head_cols = vec![("__id".to_string(), id_var)];
        for c in &frame.cols {
            head_cols.push((c.name.clone(), map[&c.name].clone()));
        }
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(b.atoms),
        });
        Ok(FrameVal {
            rel,
            cols: frame.cols.clone(),
            id_col: Some("__id".into()),
            rule_index: Some(rule_index),
            is_series: frame.is_series,
        })
    }

    /// Filter rule: `out(cols) :- frame(cols), (pred).`
    pub(crate) fn emit_filter(&mut self, pred: &ColExpr) -> Result<FrameVal> {
        if pred.dtype != DType::Bool && pred.exists.is_empty() {
            return Err(Error::Translate(
                "row filter requires a boolean mask".into(),
            ));
        }
        let frame = pred.frame.clone();
        let rel = self.fresh_rel();
        let mut b = BodyBuilder::new();
        let (_, id_var, map) = b.access_frame(&frame, true);
        let term = b.add_expr(pred)?;
        // A bare `true` constant (pure-isin masks) adds no predicate atom.
        if term != Term::Const(Const::Bool(true)) {
            b.atoms.push(Atom::Pred(term));
        }
        let mut head_cols = Vec::new();
        if let (Some(id), Some(idv)) = (&frame.id_col, id_var) {
            head_cols.push((id.clone(), idv));
        }
        for c in &frame.cols {
            head_cols.push((c.name.clone(), map[&c.name].clone()));
        }
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(b.atoms),
        });
        Ok(FrameVal {
            rel,
            cols: frame.cols.clone(),
            id_col: frame.id_col.clone(),
            rule_index: Some(rule_index),
            is_series: frame.is_series,
        })
    }

    /// Projection rule over one frame.
    pub(crate) fn emit_project(
        &mut self,
        frame: &FrameVal,
        outputs: Vec<(String, Term, DType)>,
        keep_id: bool,
    ) -> Result<FrameVal> {
        let dummy = ColExpr {
            frame: frame.clone(),
            term: Term::Const(Const::Bool(true)),
            exists: vec![],
            scalar_deps: vec![],
            dtype: DType::Bool,
            name: String::new(),
        };
        self.emit_project_full(frame, outputs, keep_id, &dummy)
    }

    /// Projection that may also carry the deps of one deferred expression.
    fn emit_project_full(
        &mut self,
        frame: &FrameVal,
        outputs: Vec<(String, Term, DType)>,
        keep_id: bool,
        deps: &ColExpr,
    ) -> Result<FrameVal> {
        let rel = self.fresh_rel();
        let mut b = BodyBuilder::new();
        let (_, id_var, _) = b.access_frame(frame, true);
        for d in &deps.scalar_deps {
            b.access_scalar(d);
        }
        let mut head_cols = Vec::new();
        let mut out_infos = Vec::new();
        let mut id_out = None;
        if keep_id {
            if let (Some(id), Some(idv)) = (&frame.id_col, id_var) {
                head_cols.push((id.clone(), idv));
                id_out = Some(id.clone());
            }
        }
        for (name, term, dtype) in outputs {
            let resolved = b.resolve(&term)?;
            let var = match &resolved {
                Term::Var(v) if !v.starts_with('$') => v.clone(),
                _ => {
                    let v = b.fresh_var(&name);
                    b.atoms.push(Atom::Assign {
                        var: v.clone(),
                        term: resolved,
                    });
                    v
                }
            };
            head_cols.push((name.clone(), var));
            out_infos.push(ColInfo::new(name, dtype));
        }
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(b.atoms),
        });
        Ok(FrameVal {
            rel,
            cols: out_infos,
            id_col: id_out,
            rule_index: Some(rule_index),
            is_series: false,
        })
    }

    /// Materializes any frame-like value into a concrete frame.
    pub(crate) fn materialize_frame(&mut self, v: PyVal) -> Result<FrameVal> {
        match v {
            PyVal::Frame(f) => Ok(f),
            PyVal::Col(c) => {
                let name = c.name.clone();
                let dtype = c.dtype;
                let frame = c.frame.clone();
                let mut out = self.emit_project_full(
                    &frame,
                    vec![(name, c.term.clone(), dtype)],
                    frame.id_col.is_some(),
                    &c,
                )?;
                out.is_series = true;
                Ok(out)
            }
            other => Err(Error::Translate(format!(
                "expected a frame, found {}",
                other.kind()
            ))),
        }
    }

    /// Coerces a value to a deferred column expression.
    pub(crate) fn as_col(&mut self, v: PyVal) -> Result<ColExpr> {
        match v {
            PyVal::Col(c) => Ok(c),
            PyVal::Frame(f) if f.is_series => {
                let c = f
                    .series_col()
                    .ok_or_else(|| Error::Translate("series without a column".into()))?
                    .clone();
                Ok(ColExpr::column(f, &c.name, c.dtype))
            }
            other => Err(Error::Translate(format!(
                "expected a column expression, found {}",
                other.kind()
            ))),
        }
    }

    // ---------------- expressions ----------------

    pub fn translate_expr(&mut self, e: &py::Expr) -> Result<PyVal> {
        match e {
            py::Expr::Name(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| Error::Translate(format!("unknown variable '{n}'"))),
            py::Expr::Int(i) => Ok(PyVal::Scalar(ScalarVal::Const(Const::Int(*i)))),
            py::Expr::Float(f) => Ok(PyVal::Scalar(ScalarVal::Const(Const::Float(*f)))),
            py::Expr::Str(s) => Ok(PyVal::Scalar(ScalarVal::Const(Const::Str(s.clone())))),
            py::Expr::Bool(b) => Ok(PyVal::Scalar(ScalarVal::Const(Const::Bool(*b)))),
            py::Expr::NoneLit => Ok(PyVal::Scalar(ScalarVal::Const(Const::Null))),
            py::Expr::List(items) => self.translate_list(items),
            py::Expr::Tuple(items) => self.translate_list(items),
            py::Expr::Dict(_) => Err(Error::Translate(
                "dict literals are only supported as call arguments".into(),
            )),
            py::Expr::Attribute { value, attr } => self.attribute(value, attr),
            py::Expr::Subscript { value, index } => self.subscript(value, index),
            py::Expr::Call { func, args, kwargs } => self.call(func, args, kwargs),
            py::Expr::Compare { op, left, right } => self.compare(*op, left, right),
            py::Expr::Binary { op, left, right } => self.binary(*op, left, right),
            py::Expr::Unary { op, operand } => self.unary(*op, operand),
            py::Expr::IfExp { test, body, orelse } => self.if_expr(test, body, orelse),
            py::Expr::Lambda { params, body } => Ok(PyVal::Lambda {
                params: params.clone(),
                body: (**body).clone(),
            }),
            py::Expr::Slice { .. } | py::Expr::Starred(_) => Err(Error::Translate(
                "slice/star expression outside a supported context".into(),
            )),
        }
    }

    fn translate_list(&mut self, items: &[py::Expr]) -> Result<PyVal> {
        // A list of strings is a column-name list; a list of numbers is a
        // constant vector.
        if items.iter().all(|i| matches!(i, py::Expr::Str(_))) && !items.is_empty() {
            return Ok(PyVal::NameList(
                items
                    .iter()
                    .map(|i| i.as_str_lit().unwrap().to_string())
                    .collect(),
            ));
        }
        let consts = items
            .iter()
            .map(|i| match i {
                py::Expr::Int(x) => Ok(Const::Int(*x)),
                py::Expr::Float(x) => Ok(Const::Float(*x)),
                py::Expr::Str(s) => Ok(Const::Str(s.clone())),
                py::Expr::Bool(b) => Ok(Const::Bool(*b)),
                py::Expr::List(inner) => {
                    // nested lists handled by np.array translation
                    Err(Error::Translate(format!(
                        "nested list literal of length {}",
                        inner.len()
                    )))
                }
                other => Err(Error::Translate(format!(
                    "unsupported list element {other:?}"
                ))),
            })
            .collect::<Result<Vec<_>>>();
        match consts {
            Ok(c) => Ok(PyVal::ConstList(c)),
            Err(e) => Err(e),
        }
    }

    fn attribute(&mut self, base: &py::Expr, attr: &str) -> Result<PyVal> {
        // Module access like np.einsum is resolved at the call site.
        if let Some(name) = base.as_name() {
            if matches!(name, "np" | "numpy" | "pd" | "pandas") {
                return Err(Error::Translate(format!(
                    "module attribute '{name}.{attr}' used outside a call"
                )));
            }
        }
        let v = self.translate_expr(base)?;
        match (&v, attr) {
            (PyVal::Frame(f), _) if f.col(attr).is_some() => {
                let c = f.col(attr).unwrap().clone();
                Ok(PyVal::Col(ColExpr::column(f.clone(), &c.name, c.dtype)))
            }
            (PyVal::Col(c), "str") => Ok(PyVal::StrAccessor(c.clone())),
            (PyVal::Col(c), "dt") => Ok(PyVal::DtAccessor(c.clone())),
            (PyVal::Frame(f), "str") if f.is_series => {
                let c = self.as_col(v.clone())?;
                Ok(PyVal::StrAccessor(c))
            }
            (PyVal::Frame(f), "dt") if f.is_series => {
                let c = self.as_col(v.clone())?;
                Ok(PyVal::DtAccessor(c))
            }
            (PyVal::DtAccessor(c), "year" | "month" | "day") => Ok(PyVal::Col(ColExpr {
                term: Term::Ext {
                    func: attr.to_string(),
                    args: vec![c.term.clone()],
                },
                dtype: DType::Int,
                ..c.clone()
            })),
            _ => Err(Error::Translate(format!(
                "unknown attribute '{attr}' on {}",
                v.kind()
            ))),
        }
    }

    fn subscript(&mut self, base: &py::Expr, index: &py::Expr) -> Result<PyVal> {
        let b = self.translate_expr(base)?;
        match (&b, index) {
            // df['col']
            (PyVal::Frame(f), py::Expr::Str(col)) => {
                let c = f.col(col).ok_or_else(|| {
                    Error::Translate(format!("no column '{col}' on frame '{}'", f.rel))
                })?;
                Ok(PyVal::Col(ColExpr::column(f.clone(), &c.name, c.dtype)))
            }
            // df[['a', 'b']]
            (PyVal::Frame(f), py::Expr::List(_)) => {
                let names = match self.translate_expr(index)? {
                    PyVal::NameList(n) => n,
                    other => {
                        return Err(Error::Translate(format!(
                            "projection list must be strings, found {}",
                            other.kind()
                        )))
                    }
                };
                let outputs = names
                    .iter()
                    .map(|n| {
                        let c = f
                            .col(n)
                            .ok_or_else(|| Error::Translate(format!("no column '{n}'")))?;
                        Ok((n.clone(), Term::Var(col_placeholder(n)), c.dtype))
                    })
                    .collect::<Result<Vec<_>>>()?;
                let out = self.emit_project(f, outputs, f.id_col.is_some())?;
                Ok(PyVal::Frame(out))
            }
            // df[mask]
            (PyVal::Frame(_), _) => {
                let mask = self.translate_expr(index)?;
                let mask = self.as_col(mask)?;
                let out = self.emit_filter(&mask)?;
                Ok(PyVal::Frame(out))
            }
            // series[mask] — filter the underlying frame, keep the series col
            (PyVal::Col(c), _) => {
                let mask = self.translate_expr(index)?;
                let mask = self.as_col(mask)?;
                if !mask.same_frame(c) {
                    return Err(Error::Translate(
                        "series filtered with a mask from a different frame".into(),
                    ));
                }
                let filtered = self.emit_filter(&mask)?;
                let info = filtered
                    .col(&c.name)
                    .cloned()
                    .ok_or_else(|| Error::Translate("filtered column lost".into()))?;
                Ok(PyVal::Col(ColExpr::column(
                    filtered, &info.name, info.dtype,
                )))
            }
            (PyVal::Array(_), _) => self.array_subscript(&b, index),
            other => Err(Error::Translate(format!(
                "unsupported subscript on {}",
                other.0.kind()
            ))),
        }
    }

    fn compare(&mut self, op: py::CmpOp, left: &py::Expr, right: &py::Expr) -> Result<PyVal> {
        let l = self.translate_expr(left)?;
        let r = self.translate_expr(right)?;
        // `col in [list]` sugar.
        if matches!(op, py::CmpOp::In | py::CmpOp::NotIn) {
            let col = self.as_col(l)?;
            let PyVal::ConstList(list) = r else {
                return Err(Error::Translate(
                    "`in` requires a literal list on the right".into(),
                ));
            };
            let mut term: Option<Term> = None;
            for c in list {
                let eq = Term::bin(ScalarOp::Eq, col.term.clone(), Term::Const(c));
                term = Some(match term {
                    None => eq,
                    Some(acc) => Term::bin(ScalarOp::Or, acc, eq),
                });
            }
            let mut t = term.ok_or_else(|| Error::Translate("empty `in` list".into()))?;
            if op == py::CmpOp::NotIn {
                t = Term::Not(Box::new(t));
            }
            return Ok(PyVal::Col(ColExpr {
                term: t,
                dtype: DType::Bool,
                name: format!("{}_in", col.name),
                ..col
            }));
        }
        let sop = match op {
            py::CmpOp::Eq => ScalarOp::Eq,
            py::CmpOp::Ne => ScalarOp::Ne,
            py::CmpOp::Lt => ScalarOp::Lt,
            py::CmpOp::Le => ScalarOp::Le,
            py::CmpOp::Gt => ScalarOp::Gt,
            py::CmpOp::Ge => ScalarOp::Ge,
            other => return Err(Error::Translate(format!("unsupported comparison {other}"))),
        };
        self.combine(sop, l, r, DType::Bool)
    }

    fn binary(&mut self, op: py::BinOp, left: &py::Expr, right: &py::Expr) -> Result<PyVal> {
        let l = self.translate_expr(left)?;
        let r = self.translate_expr(right)?;
        let sop = match op {
            py::BinOp::Add => ScalarOp::Add,
            py::BinOp::Sub => ScalarOp::Sub,
            py::BinOp::Mul => ScalarOp::Mul,
            py::BinOp::Div => ScalarOp::Div,
            py::BinOp::Mod => ScalarOp::Mod,
            py::BinOp::BitAnd | py::BinOp::And => ScalarOp::And,
            py::BinOp::BitOr | py::BinOp::Or => ScalarOp::Or,
            py::BinOp::FloorDiv => {
                let v = self.combine(ScalarOp::Div, l, r, DType::Float)?;
                let c = self.as_col(v)?;
                return Ok(PyVal::Col(ColExpr {
                    term: Term::Ext {
                        func: "floor".into(),
                        args: vec![c.term.clone()],
                    },
                    dtype: DType::Float,
                    ..c
                }));
            }
            py::BinOp::Pow => {
                let (lc, rc, merged) = self.combine_cols(l, r)?;
                return Ok(PyVal::Col(ColExpr {
                    term: Term::Ext {
                        func: "power".into(),
                        args: vec![lc, rc],
                    },
                    dtype: DType::Float,
                    ..merged
                }));
            }
            py::BinOp::BitXor => {
                return Err(Error::Translate("^ is not supported on columns".into()))
            }
        };
        // Pure-constant arithmetic folds.
        let dtype = match sop {
            ScalarOp::And | ScalarOp::Or => DType::Bool,
            ScalarOp::Div => DType::Float,
            _ => DType::Float, // refined in combine()
        };
        self.combine(sop, l, r, dtype)
    }

    fn unary(&mut self, op: py::UnaryOp, operand: &py::Expr) -> Result<PyVal> {
        let v = self.translate_expr(operand)?;
        match op {
            py::UnaryOp::Invert | py::UnaryOp::Not => {
                let c = self.as_col(v)?;
                // Pure-isin masks carry a `true` placeholder term: negation
                // lives entirely in the exists flags.
                let term = if c.term == Term::Const(Const::Bool(true)) && !c.exists.is_empty() {
                    c.term.clone()
                } else {
                    Term::Not(Box::new(c.term.clone()))
                };
                Ok(PyVal::Col(ColExpr {
                    term,
                    dtype: DType::Bool,
                    exists: c
                        .exists
                        .iter()
                        .map(|e| ExistsSpec {
                            negated: !e.negated,
                            ..e.clone()
                        })
                        .collect(),
                    ..c
                }))
            }
            py::UnaryOp::Neg => match v {
                PyVal::Scalar(ScalarVal::Const(Const::Int(i))) => {
                    Ok(PyVal::Scalar(ScalarVal::Const(Const::Int(-i))))
                }
                PyVal::Scalar(ScalarVal::Const(Const::Float(f))) => {
                    Ok(PyVal::Scalar(ScalarVal::Const(Const::Float(-f))))
                }
                other => {
                    let c = self.as_col(other)?;
                    Ok(PyVal::Col(ColExpr {
                        term: Term::bin(ScalarOp::Sub, Term::int(0), c.term.clone()),
                        ..c
                    }))
                }
            },
            py::UnaryOp::Pos => Ok(v),
        }
    }

    fn if_expr(&mut self, test: &py::Expr, body: &py::Expr, orelse: &py::Expr) -> Result<PyVal> {
        let t = self.translate_expr(test)?;
        let b = self.translate_expr(body)?;
        let o = self.translate_expr(orelse)?;
        let tc = self.as_col(t)?;
        let (bt, ot) = (self.val_term(&b)?, self.val_term(&o)?);
        let dtype = match &b {
            PyVal::Col(c) => c.dtype,
            PyVal::Scalar(ScalarVal::Const(c)) => c.dtype().unwrap_or(DType::Float),
            _ => DType::Float,
        };
        Ok(PyVal::Col(ColExpr {
            term: Term::If {
                cond: Box::new(tc.term.clone()),
                then: Box::new(bt),
                els: Box::new(ot),
            },
            dtype,
            ..tc
        }))
    }

    /// Term form of a value usable inside another column expression.
    fn val_term(&mut self, v: &PyVal) -> Result<Term> {
        Ok(match v {
            PyVal::Col(c) => c.term.clone(),
            PyVal::Scalar(ScalarVal::Const(k)) => Term::Const(k.clone()),
            PyVal::Scalar(ScalarVal::Rel { rel, col, .. }) => {
                Term::Var(scalar_placeholder(rel, col))
            }
            other => {
                return Err(Error::Translate(format!(
                    "cannot embed a {} in an expression",
                    other.kind()
                )))
            }
        })
    }

    /// Combines two values with a binary operator into a column expression
    /// (or folds constants).
    fn combine(&mut self, op: ScalarOp, l: PyVal, r: PyVal, dtype: DType) -> Result<PyVal> {
        // Constant folding.
        if let (PyVal::Scalar(ScalarVal::Const(a)), PyVal::Scalar(ScalarVal::Const(b))) = (&l, &r) {
            if let Some(folded) = fold_consts(op, a, b) {
                return Ok(PyVal::Scalar(ScalarVal::Const(folded)));
            }
        }
        // Scalar ⊗ scalar where at least one side is an aggregation result.
        if let (PyVal::Scalar(a), PyVal::Scalar(b)) = (&l, &r) {
            return self.combine_scalars(op, a, b).map(PyVal::Scalar);
        }
        let (lt, rt, proto) = self.combine_cols(l, r)?;
        let dtype = refine_dtype(op, dtype, &proto);
        Ok(PyVal::Col(ColExpr {
            term: Term::bin(op, lt, rt),
            dtype,
            ..proto
        }))
    }

    /// Resolves two operands into terms over a shared context, merging
    /// scalar/exists dependencies.
    fn combine_cols(&mut self, l: PyVal, r: PyVal) -> Result<(Term, Term, ColExpr)> {
        let lc = match &l {
            PyVal::Col(_) | PyVal::Frame(_) => Some(self.as_col(l.clone())?),
            _ => None,
        };
        let rc = match &r {
            PyVal::Col(_) | PyVal::Frame(_) => Some(self.as_col(r.clone())?),
            _ => None,
        };
        match (lc, rc) {
            (Some(a), Some(b)) => {
                if !a.same_frame(&b) {
                    return Err(Error::Translate(
                        "binary operation on columns of different frames \
                         (merge them first)"
                            .into(),
                    ));
                }
                let mut proto = a.clone();
                proto.exists.extend(b.exists.clone());
                proto.scalar_deps.extend(b.scalar_deps.clone());
                Ok((a.term, b.term, proto))
            }
            (Some(a), None) => {
                let rt = self.val_term(&r)?;
                let mut proto = a.clone();
                if let PyVal::Scalar(ScalarVal::Rel { rel, cols, col, .. }) = &r {
                    proto.scalar_deps.push(ScalarDep {
                        rel: rel.clone(),
                        cols: cols.clone(),
                        col: col.clone(),
                    });
                }
                Ok((a.term, rt, proto))
            }
            (None, Some(b)) => {
                let lt = self.val_term(&l)?;
                let mut proto = b.clone();
                if let PyVal::Scalar(ScalarVal::Rel { rel, cols, col, .. }) = &l {
                    proto.scalar_deps.push(ScalarDep {
                        rel: rel.clone(),
                        cols: cols.clone(),
                        col: col.clone(),
                    });
                }
                Ok((lt, b.term, proto))
            }
            (None, None) => Err(Error::Translate(
                "binary operation requires at least one column operand".into(),
            )),
        }
    }

    /// Scalar ⊗ scalar arithmetic (e.g. TPC-H Q14's `100 * promo / total`):
    /// emits a fresh 1-row rule combining the operands.
    pub(crate) fn combine_scalars(
        &mut self,
        op: ScalarOp,
        l: &ScalarVal,
        r: &ScalarVal,
    ) -> Result<ScalarVal> {
        let mut b = BodyBuilder::new();
        let term_of = |s: &ScalarVal, b: &mut BodyBuilder| -> Term {
            match s {
                ScalarVal::Const(k) => Term::Const(k.clone()),
                ScalarVal::Rel { rel, cols, col, .. } => {
                    let dep = ScalarDep {
                        rel: rel.clone(),
                        cols: cols.clone(),
                        col: col.clone(),
                    };
                    b.access_scalar(&dep);
                    Term::Var(b.subst[&scalar_placeholder(rel, col)].clone())
                }
            }
        };
        let lt = term_of(l, &mut b);
        let rt = term_of(r, &mut b);
        let v = b.fresh_var("s");
        b.atoms.push(Atom::Assign {
            var: v.clone(),
            term: Term::bin(op, lt, rt),
        });
        let rel = self.fresh_rel();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), vec![("c0".into(), v)]),
            body: Body::new(b.atoms),
        });
        let dtype = if op.is_predicate() {
            DType::Bool
        } else {
            DType::Float
        };
        Ok(ScalarVal::Rel {
            rel,
            cols: vec!["c0".into()],
            col: "c0".into(),
            dtype,
        })
    }
}

fn fold_consts(op: ScalarOp, a: &Const, b: &Const) -> Option<Const> {
    use Const::*;
    Some(match (op, a, b) {
        (ScalarOp::Add, Int(x), Int(y)) => Int(x + y),
        (ScalarOp::Sub, Int(x), Int(y)) => Int(x - y),
        (ScalarOp::Mul, Int(x), Int(y)) => Int(x * y),
        (ScalarOp::Add, Float(x), Float(y)) => Float(x + y),
        (ScalarOp::Sub, Float(x), Float(y)) => Float(x - y),
        (ScalarOp::Mul, Float(x), Float(y)) => Float(x * y),
        (ScalarOp::Div, Int(x), Int(y)) if *y != 0 => Float(*x as f64 / *y as f64),
        (ScalarOp::Div, Float(x), Float(y)) => Float(x / y),
        _ => return None,
    })
}

fn refine_dtype(op: ScalarOp, default: DType, proto: &ColExpr) -> DType {
    match op {
        ScalarOp::Eq
        | ScalarOp::Ne
        | ScalarOp::Lt
        | ScalarOp::Le
        | ScalarOp::Gt
        | ScalarOp::Ge
        | ScalarOp::And
        | ScalarOp::Or
        | ScalarOp::Like
        | ScalarOp::NotLike => DType::Bool,
        ScalarOp::Div => DType::Float,
        ScalarOp::Concat => DType::Str,
        _ => {
            if proto.dtype == DType::Int && default == DType::Float {
                // int arithmetic stays int for +,-,*
                DType::Int
            } else {
                proto.dtype
            }
        }
    }
}

// Method-call dispatch lives in a second impl block to keep files readable.
mod methods;
