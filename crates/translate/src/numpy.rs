//! NumPy (linear-algebra) translation: array conversion, ndarray methods,
//! and the einsum kernel emitters for both layouts (paper, Section III-D).
//!
//! Dense layout: a matrix is a relation `(id, c0..c{n-1})`; reshapes between
//! "one wide row" and "one row per tensor row" use constant index relations
//! and nested `if` terms — exactly the `v4_2`/`v4_3` construction of the
//! paper's Figure 2.
//!
//! Sparse layout: matrices are COO triples and einsum is the Blacher-style
//! join-group-sum translation.

use crate::einsum_plan::{plan, Kernel, PreStep};
use crate::pandas::BodyBuilder;
use crate::value::*;
use crate::{Layout, Translator};
use pytond_common::{DType, Error, Result};
use pytond_pyparse::ast as py;
use pytond_tondir::{AggFunc, Atom, Body, Const, Head, Rule, ScalarOp, Term};

impl<'a> Translator<'a> {
    // ---------------- conversions ----------------

    /// `df.to_numpy()` — all visible columns must be numeric; an id column is
    /// attached when missing (paper: IDs are generated at first appearance).
    pub(crate) fn frame_to_array(&mut self, frame: &FrameVal) -> Result<ArrayVal> {
        for c in &frame.cols {
            if !c.dtype.is_numeric() {
                return Err(Error::Translate(format!(
                    "to_numpy requires numeric columns; '{}' is {}",
                    c.name, c.dtype
                )));
            }
        }
        let with_id = self.ensure_id(frame)?;
        Ok(ArrayVal {
            rel: with_id.rel.clone(),
            layout: Layout::Dense,
            ndim: if with_id.cols.len() == 1 { 1 } else { 2 },
            id_col: with_id.id_col.clone().expect("ensured"),
            val_cols: with_id.cols.iter().map(|c| c.name.clone()).collect(),
            static_rows: None,
        })
    }

    /// `pd.DataFrame(arr, columns=[...])`.
    pub(crate) fn array_to_frame(
        &mut self,
        a: &ArrayVal,
        columns: Option<Vec<String>>,
    ) -> Result<PyVal> {
        if a.layout != Layout::Dense {
            return Err(Error::Translate(
                "DataFrame() from a sparse array is not supported".into(),
            ));
        }
        let names = match columns {
            Some(n) => {
                if n.len() != a.val_cols.len() {
                    return Err(Error::Translate(format!(
                        "DataFrame() got {} names for {} columns",
                        n.len(),
                        a.val_cols.len()
                    )));
                }
                n
            }
            None => (0..a.val_cols.len()).map(|i| format!("c{i}")).collect(),
        };
        // Projection renaming the value columns, keeping the id.
        let rel = self.fresh_rel();
        let mut b = BodyBuilder::new();
        let mut vars = Vec::new();
        let id_var = b.fresh_var(&a.id_col);
        vars.push(id_var.clone());
        let mut head_cols = vec![("__id".to_string(), id_var)];
        let mut infos = Vec::new();
        for (phys, name) in a.val_cols.iter().zip(&names) {
            let v = b.fresh_var(phys);
            vars.push(v.clone());
            head_cols.push((name.clone(), v));
            infos.push(ColInfo::new(name.clone(), DType::Float));
        }
        b.atoms.push(Atom::Rel {
            rel: a.rel.clone(),
            alias: "arr".into(),
            vars,
        });
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(b.atoms),
        });
        Ok(PyVal::Frame(FrameVal {
            rel,
            cols: infos,
            id_col: Some("__id".into()),
            rule_index: Some(rule_index),
            is_series: false,
        }))
    }

    /// `np.array(...)`: literal vectors/matrices or frame conversion.
    pub(crate) fn np_array(&mut self, args: &[py::Expr]) -> Result<PyVal> {
        match &args[0] {
            py::Expr::List(items) if items.iter().any(|i| matches!(i, py::Expr::List(_))) => {
                // Matrix literal.
                let mut rows = Vec::new();
                for item in items {
                    let py::Expr::List(row) = item else {
                        return Err(Error::Translate("ragged matrix literal".into()));
                    };
                    rows.push(
                        row.iter()
                            .map(expr_to_float)
                            .collect::<Result<Vec<f64>>>()?,
                    );
                }
                self.literal_matrix(rows).map(PyVal::Array)
            }
            py::Expr::List(items) => {
                let vals = items
                    .iter()
                    .map(expr_to_float)
                    .collect::<Result<Vec<f64>>>()?;
                self.literal_matrix(vals.into_iter().map(|v| vec![v]).collect())
                    .map(|mut a| {
                        a.ndim = 1;
                        PyVal::Array(a)
                    })
            }
            other => {
                let v = self.translate_expr(other)?;
                match v {
                    PyVal::Frame(f) => self.frame_to_array(&f).map(PyVal::Array),
                    PyVal::Array(_) => Ok(v),
                    other => Err(Error::Translate(format!(
                        "np.array() from {} is not supported",
                        other.kind()
                    ))),
                }
            }
        }
    }

    fn literal_matrix(&mut self, rows: Vec<Vec<f64>>) -> Result<ArrayVal> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let rel = self.fresh_rel();
        let mut vars = vec!["__id".to_string()];
        for j in 0..ncols {
            vars.push(format!("c{j}"));
        }
        let const_rows: Vec<Vec<Const>> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut out = vec![Const::Int(i as i64)];
                out.extend(r.iter().map(|&v| Const::Float(v)));
                out
            })
            .collect();
        let head_cols: Vec<(String, String)> =
            vars.iter().map(|v| (v.clone(), v.clone())).collect();
        let nrows = rows.len();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(vec![Atom::ConstRel {
                vars,
                rows: const_rows,
            }]),
        });
        Ok(ArrayVal {
            rel,
            layout: Layout::Dense,
            ndim: 2,
            id_col: "__id".into(),
            val_cols: (0..ncols).map(|j| format!("c{j}")).collect(),
            static_rows: Some(StaticRows::fixed(nrows)),
        })
    }

    /// `np.where(cond, a, b)` → `if` term.
    pub(crate) fn np_where(&mut self, args: &[py::Expr]) -> Result<PyVal> {
        let cond = self.translate_expr(&args[0])?;
        let then = self.translate_expr(&args[1])?;
        let els = self.translate_expr(&args[2])?;
        let c = self.as_col(cond)?;
        let tt = match &then {
            PyVal::Col(x) => x.term.clone(),
            PyVal::Scalar(ScalarVal::Const(k)) => Term::Const(k.clone()),
            other => {
                return Err(Error::Translate(format!(
                    "np.where branch must be a column or constant, found {}",
                    other.kind()
                )))
            }
        };
        let et = match &els {
            PyVal::Col(x) => x.term.clone(),
            PyVal::Scalar(ScalarVal::Const(k)) => Term::Const(k.clone()),
            other => {
                return Err(Error::Translate(format!(
                    "np.where branch must be a column or constant, found {}",
                    other.kind()
                )))
            }
        };
        let dtype = match &then {
            PyVal::Col(x) => x.dtype,
            PyVal::Scalar(ScalarVal::Const(k)) => k.dtype().unwrap_or(DType::Float),
            _ => DType::Float,
        };
        Ok(PyVal::Col(ColExpr {
            term: Term::If {
                cond: Box::new(c.term.clone()),
                then: Box::new(tt),
                els: Box::new(et),
            },
            dtype,
            ..c
        }))
    }

    /// `np.dot(a, b)` — dispatches on operand orders.
    pub(crate) fn np_dot(&mut self, args: &[py::Expr]) -> Result<PyVal> {
        let a = self.translate_expr(&args[0])?;
        let b = self.translate_expr(&args[1])?;
        let (PyVal::Array(x), PyVal::Array(y)) = (&a, &b) else {
            return Err(Error::Translate("np.dot requires arrays".into()));
        };
        let spec = match (x.ndim, y.ndim) {
            (1, 1) => "i,i->",
            (2, 1) => "ij,j->i",
            (2, 2) => "ij,jk->ik",
            (1, 2) => "i,ij->j",
            _ => return Err(Error::Translate("unsupported np.dot orders".into())),
        };
        self.einsum_dense(spec, &[x.clone(), y.clone()])
    }

    /// `np.einsum(spec, ...)` — the entry point of Section III-D.
    pub(crate) fn np_einsum(
        &mut self,
        args: &[py::Expr],
        _kwargs: &[(String, py::Expr)],
    ) -> Result<PyVal> {
        let spec = args
            .first()
            .and_then(|a| a.as_str_lit())
            .ok_or_else(|| Error::Translate("einsum needs a spec string".into()))?
            .to_string();
        let mut operands = Vec::new();
        for a in &args[1..] {
            match self.translate_expr(a)? {
                PyVal::Array(arr) => operands.push(arr),
                other => {
                    return Err(Error::Translate(format!(
                        "einsum operand must be an array, found {}",
                        other.kind()
                    )))
                }
            }
        }
        if operands.is_empty() {
            return Err(Error::Translate("einsum needs operands".into()));
        }
        let layout = operands
            .iter()
            .map(|o| o.layout)
            .fold(self.options.layout, |acc, l| {
                if l == Layout::Sparse {
                    Layout::Sparse
                } else {
                    acc
                }
            });
        match layout {
            Layout::Dense => self.einsum_dense(&spec, &operands),
            Layout::Sparse => self.einsum_sparse(&spec, &operands),
        }
    }

    // ---------------- dense einsum ----------------

    pub(crate) fn einsum_dense(&mut self, spec: &str, operands: &[ArrayVal]) -> Result<PyVal> {
        if operands.len() > 2 {
            return Err(Error::Translate(
                "n-ary dense einsum: decompose with opt_einsum-style pairwise \
                 contraction before translation"
                    .into(),
            ));
        }
        let plan = plan(spec)?;
        let mut slots: Vec<EinsumVal> = operands
            .iter()
            .map(|o| EinsumVal::Array(o.clone()))
            .collect();
        for step in &plan.pre {
            match step {
                PreStep::Diag { operand } => {
                    let EinsumVal::Array(a) = slots[*operand].clone() else {
                        return Err(Error::Translate("diag of a scalar".into()));
                    };
                    slots[*operand] = EinsumVal::Array(self.emit_diag(&a)?);
                }
                PreStep::SumAxis { operand, axis } => {
                    let EinsumVal::Array(a) = slots[*operand].clone() else {
                        return Err(Error::Translate("axis-sum of a scalar".into()));
                    };
                    // axis = position of the contracted index: 0 = rows ('ij->j'),
                    // 1 = columns ('ij->i').
                    slots[*operand] = if *axis == 0 {
                        EinsumVal::Array(self.emit_colsum(&a)?)
                    } else {
                        EinsumVal::Array(self.emit_rowsum(&a)?)
                    };
                }
                PreStep::SumAll { operand } => {
                    let EinsumVal::Array(a) = slots[*operand].clone() else {
                        return Err(Error::Translate("sum of a scalar".into()));
                    };
                    slots[*operand] = EinsumVal::Scalar(self.emit_fullsum(&a)?);
                }
            }
        }
        if plan.swap && slots.len() == 2 {
            slots.swap(0, 1);
        }
        let result = match plan.kernel {
            Kernel::Identity => slots.into_iter().next().unwrap(),
            Kernel::RowSum => EinsumVal::Array(self.emit_rowsum(expect_array(&slots[0])?)?),
            Kernel::ColSum => EinsumVal::Array(self.emit_colsum(expect_array(&slots[0])?)?),
            Kernel::FullSum | Kernel::VecSum => {
                EinsumVal::Scalar(self.emit_fullsum(expect_array(&slots[0])?)?)
            }
            Kernel::Diag => EinsumVal::Array(self.emit_diag(expect_array(&slots[0])?)?),
            Kernel::Transpose => EinsumVal::Array(self.emit_transpose(expect_array(&slots[0])?)?),
            Kernel::Inner => EinsumVal::Scalar(
                self.emit_inner(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::Dot2 => EinsumVal::Scalar(
                self.emit_dot2(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::Outer => EinsumVal::Array(
                self.emit_outer(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::Hadamard => EinsumVal::Array(
                self.emit_hadamard(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::BatchOuter => EinsumVal::Array(
                self.emit_batch_outer(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::MatMul => EinsumVal::Array(
                self.emit_matmul(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::MatVec => EinsumVal::Array(
                self.emit_matvec(expect_array(&slots[0])?, expect_array(&slots[1])?)?,
            ),
            Kernel::ScalarMul => {
                let EinsumVal::Scalar(s) = slots[0].clone() else {
                    return Err(Error::Translate(
                        "scalar multiplication needs a scalar first operand".into(),
                    ));
                };
                EinsumVal::Array(self.emit_scalar_mul(&s, expect_array(&slots[1])?)?)
            }
        };
        let result = if plan.transpose_out {
            match result {
                EinsumVal::Array(a) => EinsumVal::Array(self.emit_transpose(&a)?),
                s => s,
            }
        } else {
            result
        };
        Ok(match result {
            EinsumVal::Array(a) => PyVal::Array(a),
            EinsumVal::Scalar(s) => PyVal::Scalar(s),
        })
    }

    // ---- dense kernel emitters ----

    fn array_access(&self, b: &mut BodyBuilder, a: &ArrayVal) -> (String, Vec<String>) {
        let id_var = b.fresh_var(&a.id_col);
        let mut vars = vec![id_var.clone()];
        let mut val_vars = Vec::new();
        for c in &a.val_cols {
            let v = b.fresh_var(c);
            val_vars.push(v.clone());
            vars.push(v);
        }
        b.atoms.push(Atom::Rel {
            rel: a.rel.clone(),
            alias: format!("a{}", b.atoms.len()),
            vars,
        });
        (id_var, val_vars)
    }

    fn push_array_rule(
        &mut self,
        body: Vec<Atom>,
        id_var: Option<String>,
        val_vars: Vec<String>,
        static_rows: Option<StaticRows>,
        ndim: usize,
    ) -> ArrayVal {
        let rel = self.fresh_rel();
        let mut head_cols = Vec::new();
        if let Some(id) = &id_var {
            head_cols.push(("__id".to_string(), id.clone()));
        }
        let val_cols: Vec<String> = (0..val_vars.len()).map(|j| format!("c{j}")).collect();
        for (name, var) in val_cols.iter().zip(&val_vars) {
            head_cols.push((name.clone(), var.clone()));
        }
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(body),
        });
        ArrayVal {
            rel,
            layout: Layout::Dense,
            ndim,
            id_col: "__id".into(),
            val_cols,
            static_rows,
        }
    }

    /// `a`'s statically-known row count, for a kernel that bakes it into the
    /// program's shape: a count read from the catalog is recorded with its
    /// table ([`crate::Translation::row_counts`]).
    fn consume_rows(&mut self, a: &ArrayVal) -> Option<usize> {
        let rows = a.static_rows.as_ref()?;
        if let Some(t) = &rows.table {
            self.row_counts.insert(t.clone(), rows.n as u64);
        }
        Some(rows.n)
    }

    /// `'ij->i'`: horizontal sum across the value columns.
    fn emit_rowsum(&mut self, a: &ArrayVal) -> Result<ArrayVal> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, a);
        let sum = vals
            .iter()
            .map(|v| Term::Var(v.clone()))
            .reduce(|acc, t| Term::bin(ScalarOp::Add, acc, t))
            .ok_or_else(|| Error::Translate("row-sum of a zero-column matrix".into()))?;
        let out = b.fresh_var("rowsum");
        b.atoms.push(Atom::Assign {
            var: out.clone(),
            term: sum,
        });
        Ok(ArrayVal {
            ndim: 1,
            ..self.push_array_rule(b.atoms, Some(id), vec![out], a.static_rows.clone(), 1)
        })
    }

    /// `'ij->j'`: per-column sums into one row, then unpivot to a vector.
    fn emit_colsum(&mut self, a: &ArrayVal) -> Result<ArrayVal> {
        let one_row = self.emit_fold_columns(a, |col_var| Term::Agg {
            func: AggFunc::Sum,
            arg: Box::new(Term::Var(col_var.to_string())),
        })?;
        self.emit_unpivot(&one_row, a.ncols(), 1)
    }

    /// `'ij->'` / `'i->'`: total sum into a 1-row scalar relation.
    fn emit_fullsum(&mut self, a: &ArrayVal) -> Result<ScalarVal> {
        let mut b = BodyBuilder::new();
        let (_, vals) = self.array_access(&mut b, a);
        let horizontal = vals
            .iter()
            .map(|v| Term::Var(v.clone()))
            .reduce(|acc, t| Term::bin(ScalarOp::Add, acc, t))
            .ok_or_else(|| Error::Translate("sum of a zero-column matrix".into()))?;
        let out = b.fresh_var("total");
        b.atoms.push(Atom::Assign {
            var: out.clone(),
            term: Term::Agg {
                func: AggFunc::Sum,
                arg: Box::new(horizontal),
            },
        });
        let rel = self.fresh_rel();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), vec![("c0".into(), out)]),
            body: Body::new(b.atoms),
        });
        Ok(ScalarVal::Rel {
            rel,
            cols: vec!["c0".into()],
            col: "c0".into(),
            dtype: DType::Float,
        })
    }

    /// `'ii->i'`: select column `id` per row (Table V).
    fn emit_diag(&mut self, a: &ArrayVal) -> Result<ArrayVal> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, a);
        let mut term = Term::float(0.0);
        for (j, v) in vals.iter().enumerate().rev() {
            term = Term::If {
                cond: Box::new(Term::bin(
                    ScalarOp::Eq,
                    Term::Var(id.clone()),
                    Term::int(j as i64),
                )),
                then: Box::new(Term::Var(v.clone())),
                els: Box::new(term),
            };
        }
        let out = b.fresh_var("diag");
        b.atoms.push(Atom::Assign {
            var: out.clone(),
            term,
        });
        Ok(self.push_array_rule(b.atoms, Some(id), vec![out], a.static_rows.clone(), 1))
    }

    /// Transposes via full pivot + transposed unpivot (requires static rows).
    fn emit_transpose(&mut self, a: &ArrayVal) -> Result<ArrayVal> {
        if a.ndim == 1 {
            return Ok(a.clone()); // vector transpose is identity here
        }
        let rows = self.consume_rows(a).ok_or_else(|| {
            Error::Translate("dense transpose requires a statically-known row count".into())
        })?;
        let one_row = self.emit_pivot_matrix(a, rows)?;
        // one_row columns are p_{i}_{j}, laid out row-major; unpivot the
        // transposed order: output row j takes entries (i=0..rows-1, j).
        let cols = a.ncols();
        let mut groups: Vec<Vec<String>> = Vec::new();
        for j in 0..cols {
            let mut g = Vec::new();
            for i in 0..rows {
                g.push(one_row.cols[i * cols + j].clone());
            }
            groups.push(g);
        }
        self.emit_unpivot_groups(&one_row, &groups)
    }

    /// `'i,i->'`: join on id, sum the product.
    fn emit_inner(&mut self, u: &ArrayVal, v: &ArrayVal) -> Result<ScalarVal> {
        let mut b = BodyBuilder::new();
        let (id1, v1) = self.array_access(&mut b, u);
        let (id2, v2) = self.array_access(&mut b, v);
        b.atoms.push(Atom::Pred(Term::bin(
            ScalarOp::Eq,
            Term::Var(id1),
            Term::Var(id2),
        )));
        let out = b.fresh_var("inner");
        b.atoms.push(Atom::Assign {
            var: out.clone(),
            term: Term::Agg {
                func: AggFunc::Sum,
                arg: Box::new(Term::bin(
                    ScalarOp::Mul,
                    Term::Var(v1[0].clone()),
                    Term::Var(v2[0].clone()),
                )),
            },
        });
        let rel = self.fresh_rel();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), vec![("c0".into(), out)]),
            body: Body::new(b.atoms),
        });
        Ok(ScalarVal::Rel {
            rel,
            cols: vec!["c0".into()],
            col: "c0".into(),
            dtype: DType::Float,
        })
    }

    /// `'ij,ij->'`: join on id, sum of all pairwise products.
    fn emit_dot2(&mut self, x: &ArrayVal, y: &ArrayVal) -> Result<ScalarVal> {
        let mut b = BodyBuilder::new();
        let (id1, v1) = self.array_access(&mut b, x);
        let (id2, v2) = self.array_access(&mut b, y);
        b.atoms.push(Atom::Pred(Term::bin(
            ScalarOp::Eq,
            Term::Var(id1),
            Term::Var(id2),
        )));
        let prods = v1
            .iter()
            .zip(&v2)
            .map(|(a, c)| Term::bin(ScalarOp::Mul, Term::Var(a.clone()), Term::Var(c.clone())))
            .reduce(|acc, t| Term::bin(ScalarOp::Add, acc, t))
            .ok_or_else(|| Error::Translate("dot of zero-column matrices".into()))?;
        let out = b.fresh_var("dot");
        b.atoms.push(Atom::Assign {
            var: out.clone(),
            term: Term::Agg {
                func: AggFunc::Sum,
                arg: Box::new(prods),
            },
        });
        let rel = self.fresh_rel();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), vec![("c0".into(), out)]),
            body: Body::new(b.atoms),
        });
        Ok(ScalarVal::Rel {
            rel,
            cols: vec!["c0".into()],
            col: "c0".into(),
            dtype: DType::Float,
        })
    }

    /// `'ij,ij->ij'` / `'i,i->i'`: join on id, element products (ES7).
    fn emit_hadamard(&mut self, x: &ArrayVal, y: &ArrayVal) -> Result<ArrayVal> {
        if x.ncols() != y.ncols() {
            return Err(Error::Translate("hadamard shape mismatch".into()));
        }
        let mut b = BodyBuilder::new();
        let (id1, v1) = self.array_access(&mut b, x);
        let (id2, v2) = self.array_access(&mut b, y);
        b.atoms.push(Atom::Pred(Term::bin(
            ScalarOp::Eq,
            Term::Var(id1.clone()),
            Term::Var(id2),
        )));
        let mut outs = Vec::new();
        for (a, c) in v1.iter().zip(&v2) {
            let o = b.fresh_var("h");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: Term::bin(ScalarOp::Mul, Term::Var(a.clone()), Term::Var(c.clone())),
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(b.atoms, Some(id1), outs, x.static_rows.clone(), x.ndim))
    }

    /// `',ij->ij'`: cross join the 1-row scalar (ES5/ES6).
    fn emit_scalar_mul(&mut self, s: &ScalarVal, m: &ArrayVal) -> Result<ArrayVal> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, m);
        let s_term = match s {
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
        };
        let mut outs = Vec::new();
        for v in &vals {
            let o = b.fresh_var("s");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: Term::bin(ScalarOp::Mul, s_term.clone(), Term::Var(v.clone())),
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(b.atoms, Some(id), outs, m.static_rows.clone(), m.ndim))
    }

    /// `'ij,ik->jk'` (ES8): self-join on id, J×K sums into one row, unpivot.
    fn emit_batch_outer(&mut self, x: &ArrayVal, y: &ArrayVal) -> Result<ArrayVal> {
        let mut b = BodyBuilder::new();
        let (id1, v1) = self.array_access(&mut b, x);
        let (id2, v2) = self.array_access(&mut b, y);
        b.atoms.push(Atom::Pred(Term::bin(
            ScalarOp::Eq,
            Term::Var(id1),
            Term::Var(id2),
        )));
        let mut outs = Vec::new();
        for a in &v1 {
            for c in &v2 {
                let o = b.fresh_var("p");
                b.atoms.push(Atom::Assign {
                    var: o.clone(),
                    term: Term::Agg {
                        func: AggFunc::Sum,
                        arg: Box::new(Term::bin(
                            ScalarOp::Mul,
                            Term::Var(a.clone()),
                            Term::Var(c.clone()),
                        )),
                    },
                });
                outs.push(o);
            }
        }
        let one_row = OneRow::from_rule_atoms(self, b.atoms, outs)?;
        // J rows of K entries each.
        let k = y.ncols();
        let groups: Vec<Vec<String>> = one_row.cols.chunks(k).map(|c| c.to_vec()).collect();
        let mut out = self.emit_unpivot_groups(&one_row, &groups)?;
        out.ndim = if k == 1 { 1 } else { 2 };
        Ok(out)
    }

    /// `'ij,jk->ik'`: pivot B into one wide row, horizontal dot per row of A.
    fn emit_matmul(&mut self, x: &ArrayVal, y: &ArrayVal) -> Result<ArrayVal> {
        let j = x.ncols();
        let rows_b = self.consume_rows(y).ok_or_else(|| {
            Error::Translate("dense matmul requires the right operand's row count".into())
        })?;
        if rows_b != j {
            return Err(Error::Translate(format!(
                "matmul shape mismatch: {j} columns vs {rows_b} rows"
            )));
        }
        let brow = self.emit_pivot_matrix(y, rows_b)?;
        let k = y.ncols();
        let mut b = BodyBuilder::new();
        let (id, avals) = self.array_access(&mut b, x);
        let bvars = brow.access(&mut b);
        let mut outs = Vec::new();
        for kk in 0..k {
            let term = (0..j)
                .map(|jj| {
                    Term::bin(
                        ScalarOp::Mul,
                        Term::Var(avals[jj].clone()),
                        Term::Var(bvars[jj * k + kk].clone()),
                    )
                })
                .reduce(|acc, t| Term::bin(ScalarOp::Add, acc, t))
                .expect("j >= 1");
            let o = b.fresh_var("m");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term,
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(b.atoms, Some(id), outs, x.static_rows.clone(), 2))
    }

    /// `'ij,j->i'` (ES9 family): pivot v into one row, horizontal dot.
    fn emit_matvec(&mut self, m: &ArrayVal, v: &ArrayVal) -> Result<ArrayVal> {
        let j = m.ncols();
        let vrow = self.emit_pivot_vector(v, j)?;
        let mut b = BodyBuilder::new();
        let (id, avals) = self.array_access(&mut b, m);
        let vvars = vrow.access(&mut b);
        let term = (0..j)
            .map(|jj| {
                Term::bin(
                    ScalarOp::Mul,
                    Term::Var(avals[jj].clone()),
                    Term::Var(vvars[jj].clone()),
                )
            })
            .reduce(|acc, t| Term::bin(ScalarOp::Add, acc, t))
            .ok_or_else(|| Error::Translate("matvec over zero columns".into()))?;
        let o = b.fresh_var("mv");
        b.atoms.push(Atom::Assign {
            var: o.clone(),
            term,
        });
        Ok(self.push_array_rule(b.atoms, Some(id), vec![o], m.static_rows.clone(), 1))
    }

    /// `'i,j->ij'`: pivot v into one row, scale by each u entry.
    fn emit_outer(&mut self, u: &ArrayVal, v: &ArrayVal) -> Result<ArrayVal> {
        let k = self.consume_rows(v).ok_or_else(|| {
            Error::Translate("dense outer product requires the right operand's length".into())
        })?;
        let vrow = self.emit_pivot_vector(v, k)?;
        let mut b = BodyBuilder::new();
        let (id, uvals) = self.array_access(&mut b, u);
        let vvars = vrow.access(&mut b);
        let mut outs = Vec::new();
        for vvar in vvars.iter().take(k) {
            let o = b.fresh_var("o");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: Term::bin(
                    ScalarOp::Mul,
                    Term::Var(uvals[0].clone()),
                    Term::Var(vvar.clone()),
                ),
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(b.atoms, Some(id), outs, u.static_rows.clone(), 2))
    }

    // ---- reshape helpers (the paper's Figure 2 v4_2/v4_3 constructions) ----

    /// One aggregate per column → 1-row relation.
    fn emit_fold_columns(&mut self, a: &ArrayVal, f: impl Fn(&str) -> Term) -> Result<OneRow> {
        let mut b = BodyBuilder::new();
        let (_, vals) = self.array_access(&mut b, a);
        let mut outs = Vec::new();
        for v in &vals {
            let o = b.fresh_var("f");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: f(v),
            });
            outs.push(o);
        }
        OneRow::from_rule_atoms(self, b.atoms, outs)
    }

    /// Pivots a vector of statically-known length `n` into one row:
    /// `v_i = sum(if(id = i, c0, 0))`.
    fn emit_pivot_vector(&mut self, v: &ArrayVal, n: usize) -> Result<OneRow> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, v);
        let mut outs = Vec::new();
        for i in 0..n {
            let o = b.fresh_var(&format!("v{i}"));
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: Term::Agg {
                    func: AggFunc::Sum,
                    arg: Box::new(Term::If {
                        cond: Box::new(Term::bin(
                            ScalarOp::Eq,
                            Term::Var(id.clone()),
                            Term::int(i as i64),
                        )),
                        then: Box::new(Term::Var(vals[0].clone())),
                        els: Box::new(Term::float(0.0)),
                    }),
                },
            });
            outs.push(o);
        }
        OneRow::from_rule_atoms(self, b.atoms, outs)
    }

    /// Pivots a whole matrix (static `rows`) into one row, row-major.
    fn emit_pivot_matrix(&mut self, m: &ArrayVal, rows: usize) -> Result<OneRow> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, m);
        let mut outs = Vec::new();
        for i in 0..rows {
            for v in &vals {
                let o = b.fresh_var(&format!("p{i}"));
                b.atoms.push(Atom::Assign {
                    var: o.clone(),
                    term: Term::Agg {
                        func: AggFunc::Sum,
                        arg: Box::new(Term::If {
                            cond: Box::new(Term::bin(
                                ScalarOp::Eq,
                                Term::Var(id.clone()),
                                Term::int(i as i64),
                            )),
                            then: Box::new(Term::Var(v.clone())),
                            els: Box::new(Term::float(0.0)),
                        }),
                    },
                });
                outs.push(o);
            }
        }
        OneRow::from_rule_atoms(self, b.atoms, outs)
    }

    /// Unpivots a 1-row relation into `n` rows of one column.
    fn emit_unpivot(&mut self, one_row: &OneRow, n: usize, _width: usize) -> Result<ArrayVal> {
        let groups: Vec<Vec<String>> = one_row
            .cols
            .iter()
            .take(n)
            .map(|c| vec![c.clone()])
            .collect();
        let mut out = self.emit_unpivot_groups(one_row, &groups)?;
        out.ndim = 1;
        Ok(out)
    }

    /// General unpivot: output row `r` carries the entries `groups[r]` —
    /// built with a constant index relation and nested `if`s (Figure 2).
    fn emit_unpivot_groups(
        &mut self,
        one_row: &OneRow,
        groups: &[Vec<String>],
    ) -> Result<ArrayVal> {
        let width = groups.first().map_or(0, |g| g.len());
        let mut b = BodyBuilder::new();
        let vars = one_row.access(&mut b);
        let col_of = |name: &str| -> usize {
            one_row
                .cols
                .iter()
                .position(|c| c == name)
                .expect("group names come from this row")
        };
        // Constant index relation (the paper's v4_2).
        let idx_var = b.fresh_var("__id");
        b.atoms.push(Atom::ConstRel {
            vars: vec![idx_var.clone()],
            rows: (0..groups.len())
                .map(|i| vec![Const::Int(i as i64)])
                .collect(),
        });
        let mut outs = Vec::new();
        for w in 0..width {
            let mut term = Term::float(0.0);
            for (r, group) in groups.iter().enumerate().rev() {
                term = Term::If {
                    cond: Box::new(Term::bin(
                        ScalarOp::Eq,
                        Term::Var(idx_var.clone()),
                        Term::int(r as i64),
                    )),
                    then: Box::new(Term::Var(vars[col_of(&group[w])].clone())),
                    els: Box::new(term),
                };
            }
            let o = b.fresh_var("u");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term,
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(
            b.atoms,
            Some(idx_var),
            outs,
            Some(StaticRows::fixed(groups.len())),
            if width == 1 { 1 } else { 2 },
        ))
    }

    // ---------------- sparse einsum (Blacher-style) ----------------

    /// COO translation: join shared indices, group by output indices, sum the
    /// product of values.
    pub(crate) fn einsum_sparse(&mut self, spec: &str, operands: &[ArrayVal]) -> Result<PyVal> {
        let (inputs, output) = crate::einsum_plan::parse_spec(spec)?;
        if inputs.len() != operands.len() {
            return Err(Error::Translate("einsum operand count mismatch".into()));
        }
        let mut b = BodyBuilder::new();
        let mut index_var: std::collections::HashMap<char, String> = Default::default();
        let mut val_vars = Vec::new();
        for (labels, op) in inputs.iter().zip(operands) {
            if op.layout != Layout::Sparse {
                return Err(Error::Translate(
                    "sparse einsum requires COO operands".into(),
                ));
            }
            let mut vars = Vec::new();
            let mut join_preds = Vec::new();
            // (row_id[, col_id], val)
            for (pos, &c) in labels.iter().enumerate() {
                let v = match index_var.get(&c) {
                    Some(existing) => {
                        // shared index: new var + equality (distinct names per
                        // the paper's relation-access renaming); the predicate
                        // is pushed after the access that binds the variable.
                        let nv = b.fresh_var(&format!("{c}{pos}"));
                        join_preds.push(Term::bin(
                            ScalarOp::Eq,
                            Term::Var(existing.clone()),
                            Term::Var(nv.clone()),
                        ));
                        nv
                    }
                    None => {
                        let nv = b.fresh_var(&c.to_string());
                        index_var.insert(c, nv.clone());
                        nv
                    }
                };
                vars.push(v);
            }
            let vv = b.fresh_var("val");
            val_vars.push(vv.clone());
            vars.push(vv);
            b.atoms.push(Atom::Rel {
                rel: op.rel.clone(),
                alias: format!("s{}", b.atoms.len()),
                vars,
            });
            for p in join_preds {
                b.atoms.push(Atom::Pred(p));
            }
        }
        let product = val_vars
            .iter()
            .map(|v| Term::Var(v.clone()))
            .reduce(|acc, t| Term::bin(ScalarOp::Mul, acc, t))
            .ok_or_else(|| Error::Translate("einsum without operands".into()))?;
        let out_var = b.fresh_var("val");
        b.atoms.push(Atom::Assign {
            var: out_var.clone(),
            term: Term::Agg {
                func: AggFunc::Sum,
                arg: Box::new(product),
            },
        });
        let rel = self.fresh_rel();
        let mut head_cols = Vec::new();
        let mut group = Vec::new();
        let coo_names = ["row_id", "col_id"];
        for (pos, c) in output.iter().enumerate() {
            let v = index_var
                .get(c)
                .ok_or_else(|| Error::Translate(format!("output index '{c}' unbound")))?;
            head_cols.push((coo_names[pos.min(1)].to_string(), v.clone()));
            group.push(v.clone());
        }
        head_cols.push(("val".to_string(), out_var));
        let rule_index = self.rules.len();
        self.rules.push(Rule {
            head: Head {
                rel: rel.clone(),
                cols: head_cols,
                group: if group.is_empty() { None } else { Some(group) },
                sort: None,
                limit: None,
                distinct: false,
            },
            body: Body::new(b.atoms),
        });
        let _ = rule_index;
        if output.is_empty() {
            return Ok(PyVal::Scalar(ScalarVal::Rel {
                rel,
                cols: vec!["val".into()],
                col: "val".into(),
                dtype: DType::Float,
            }));
        }
        Ok(PyVal::Array(ArrayVal {
            rel,
            layout: Layout::Sparse,
            ndim: output.len(),
            id_col: "row_id".into(),
            val_cols: vec!["val".into()],
            static_rows: None,
        }))
    }

    // ---------------- ndarray methods & indexing ----------------

    pub(crate) fn array_method(
        &mut self,
        recv: PyVal,
        method: &str,
        args: &[py::Expr],
        kwargs: &[(String, py::Expr)],
    ) -> Result<PyVal> {
        let PyVal::Array(a) = &recv else {
            unreachable!("dispatched on array");
        };
        let a = a.clone();
        match method {
            "sum" => {
                let axis = kwargs
                    .iter()
                    .find(|(k, _)| k == "axis")
                    .map(|(_, v)| v)
                    .or_else(|| args.first());
                match axis {
                    None | Some(py::Expr::NoneLit) => self.emit_fullsum(&a).map(PyVal::Scalar),
                    Some(py::Expr::Int(0)) => self.emit_colsum(&a).map(PyVal::Array),
                    Some(py::Expr::Int(1)) => self.emit_rowsum(&a).map(PyVal::Array),
                    other => Err(Error::Translate(format!("unsupported sum axis {other:?}"))),
                }
            }
            "transpose" => self.emit_transpose(&a).map(PyVal::Array),
            "round" => {
                let digits = match args.first() {
                    Some(py::Expr::Int(n)) => *n,
                    _ => 0,
                };
                self.array_map(&a, |t| Term::Ext {
                    func: "round".into(),
                    args: vec![t, Term::int(digits)],
                })
                .map(PyVal::Array)
            }
            "all" => {
                // Table V: min over the values ≠ 0.
                let mut b = BodyBuilder::new();
                let (_, vals) = self.array_access(&mut b, &a);
                let o = b.fresh_var("all");
                b.atoms.push(Atom::Assign {
                    var: o.clone(),
                    term: Term::Agg {
                        func: AggFunc::Min,
                        arg: Box::new(Term::Var(vals[0].clone())),
                    },
                });
                let rel = self.fresh_rel();
                self.rules.push(Rule {
                    head: Head::simple(rel.clone(), vec![("c0".into(), o)]),
                    body: Body::new(b.atoms),
                });
                Ok(PyVal::Scalar(ScalarVal::Rel {
                    rel,
                    cols: vec!["c0".into()],
                    col: "c0".into(),
                    dtype: DType::Float,
                }))
            }
            "nonzero" => {
                // Table V: R(ID) :- v(ID, c1), (c1 != 0).
                let mut b = BodyBuilder::new();
                let (id, vals) = self.array_access(&mut b, &a);
                b.atoms.push(Atom::Pred(Term::bin(
                    ScalarOp::Ne,
                    Term::Var(vals[0].clone()),
                    Term::float(0.0),
                )));
                Ok(PyVal::Array(self.push_array_rule(
                    b.atoms,
                    Some(id.clone()),
                    vec![id],
                    None,
                    1,
                )))
            }
            "compress" => {
                // compress(mask, axis=1): static column selection.
                let mask = self.translate_expr(&args[0])?;
                let PyVal::ConstList(flags) = mask else {
                    return Err(Error::Translate(
                        "compress requires a literal boolean mask".into(),
                    ));
                };
                let keep: Vec<usize> = flags
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| match c {
                        Const::Bool(true) | Const::Int(1) => Some(i),
                        _ => None,
                    })
                    .collect();
                let mut b = BodyBuilder::new();
                let (id, vals) = self.array_access(&mut b, &a);
                let outs: Vec<String> = keep.iter().map(|&i| vals[i].clone()).collect();
                Ok(PyVal::Array(self.push_array_rule(
                    b.atoms,
                    Some(id),
                    outs,
                    a.static_rows.clone(),
                    if keep.len() == 1 { 1 } else { 2 },
                )))
            }
            "mean" => {
                let total = self.emit_fullsum(&a)?;
                // mean = sum / count: emit count rule, then combine in a
                // 1-row rule.
                let mut b = BodyBuilder::new();
                let (_, vals) = self.array_access(&mut b, &a);
                let cnt = b.fresh_var("n");
                b.atoms.push(Atom::Assign {
                    var: cnt.clone(),
                    term: Term::Agg {
                        func: AggFunc::Count,
                        arg: Box::new(Term::Var(vals[0].clone())),
                    },
                });
                let rel = self.fresh_rel();
                self.rules.push(Rule {
                    head: Head::simple(rel.clone(), vec![("c0".into(), cnt)]),
                    body: Body::new(b.atoms),
                });
                let count = ScalarVal::Rel {
                    rel,
                    cols: vec!["c0".into()],
                    col: "c0".into(),
                    dtype: DType::Int,
                };
                self.scalar_binop(ScalarOp::Div, &total, &count)
                    .map(PyVal::Scalar)
            }
            other => Err(Error::Translate(format!(
                "unsupported ndarray method '{other}'"
            ))),
        }
    }

    /// Element-wise map over every value column.
    fn array_map(&mut self, a: &ArrayVal, f: impl Fn(Term) -> Term) -> Result<ArrayVal> {
        let mut b = BodyBuilder::new();
        let (id, vals) = self.array_access(&mut b, a);
        let mut outs = Vec::new();
        for v in &vals {
            let o = b.fresh_var("m");
            b.atoms.push(Atom::Assign {
                var: o.clone(),
                term: f(Term::Var(v.clone())),
            });
            outs.push(o);
        }
        Ok(self.push_array_rule(b.atoms, Some(id), outs, a.static_rows.clone(), a.ndim))
    }

    /// Combines two 1-row scalars into a new 1-row scalar.
    fn scalar_binop(&mut self, op: ScalarOp, l: &ScalarVal, r: &ScalarVal) -> Result<ScalarVal> {
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
        let o = b.fresh_var("s");
        b.atoms.push(Atom::Assign {
            var: o.clone(),
            term: Term::bin(op, lt, rt),
        });
        let rel = self.fresh_rel();
        self.rules.push(Rule {
            head: Head::simple(rel.clone(), vec![("c0".into(), o)]),
            body: Body::new(b.atoms),
        });
        Ok(ScalarVal::Rel {
            rel,
            cols: vec!["c0".into()],
            col: "c0".into(),
            dtype: DType::Float,
        })
    }

    /// Array subscripts: `m[indices]` (row gather via join), `m[:, j]`
    /// (column selection).
    pub(crate) fn array_subscript(&mut self, base: &PyVal, index: &py::Expr) -> Result<PyVal> {
        let PyVal::Array(a) = base else {
            unreachable!("dispatched on array")
        };
        let a = a.clone();
        match index {
            // m[:, j] — single column as a vector.
            py::Expr::Tuple(items)
                if items.len() == 2 && matches!(items[0], py::Expr::Slice { .. }) =>
            {
                let py::Expr::Int(j) = items[1] else {
                    return Err(Error::Translate(
                        "column selection needs an integer index".into(),
                    ));
                };
                let mut b = BodyBuilder::new();
                let (id, vals) = self.array_access(&mut b, &a);
                let col = vals
                    .get(j as usize)
                    .ok_or_else(|| Error::Translate(format!("column {j} out of range")))?
                    .clone();
                Ok(PyVal::Array(self.push_array_rule(
                    b.atoms,
                    Some(id),
                    vec![col],
                    a.static_rows.clone(),
                    1,
                )))
            }
            // m[indices] — fancy indexing by a vector of row ids.
            _ => {
                let idx = self.translate_expr(index)?;
                let PyVal::Array(ix) = idx else {
                    return Err(Error::Translate(format!(
                        "unsupported array index {}",
                        idx.kind()
                    )));
                };
                let mut b = BodyBuilder::new();
                let (id, vals) = self.array_access(&mut b, &a);
                let (_, ivals) = self.array_access(&mut b, &ix);
                b.atoms.push(Atom::Pred(Term::bin(
                    ScalarOp::Eq,
                    Term::Var(id.clone()),
                    Term::Var(ivals[0].clone()),
                )));
                Ok(PyVal::Array(self.push_array_rule(
                    b.atoms,
                    Some(id),
                    vals,
                    None,
                    a.ndim,
                )))
            }
        }
    }

    /// Final projection of a returned array.
    pub(crate) fn finalize_array(&mut self, a: ArrayVal) -> Result<()> {
        match a.layout {
            Layout::Dense => {
                let mut b = BodyBuilder::new();
                let (id, vals) = self.array_access(&mut b, &a);
                let rel = self.fresh_rel();
                let mut head_cols = vec![("__id".to_string(), id.clone())];
                for (j, v) in vals.iter().enumerate() {
                    head_cols.push((format!("c{j}"), v.clone()));
                }
                self.rules.push(Rule {
                    head: Head {
                        rel,
                        cols: head_cols,
                        group: None,
                        sort: Some(vec![(id, true)]),
                        limit: None,
                        distinct: false,
                    },
                    body: Body::new(b.atoms),
                });
                Ok(())
            }
            Layout::Sparse => {
                let mut b = BodyBuilder::new();
                let phys = a.physical_cols();
                let mut vars = Vec::new();
                for c in &phys {
                    vars.push(b.fresh_var(c));
                }
                b.atoms.push(Atom::Rel {
                    rel: a.rel.clone(),
                    alias: "s".into(),
                    vars: vars.clone(),
                });
                let rel = self.fresh_rel();
                let head_cols: Vec<(String, String)> = phys
                    .iter()
                    .zip(&vars)
                    .map(|(c, v)| (c.clone(), v.clone()))
                    .collect();
                let sort_keys: Vec<(String, bool)> = vars
                    .iter()
                    .take(phys.len().saturating_sub(1))
                    .map(|v| (v.clone(), true))
                    .collect();
                self.rules.push(Rule {
                    head: Head {
                        rel,
                        cols: head_cols,
                        group: None,
                        sort: if sort_keys.is_empty() {
                            None
                        } else {
                            Some(sort_keys)
                        },
                        limit: None,
                        distinct: false,
                    },
                    body: Body::new(b.atoms),
                });
                Ok(())
            }
        }
    }
}

/// Intermediate slot during dense einsum emission.
#[derive(Debug, Clone)]
enum EinsumVal {
    Array(ArrayVal),
    Scalar(ScalarVal),
}

fn expect_array(v: &EinsumVal) -> Result<&ArrayVal> {
    match v {
        EinsumVal::Array(a) => Ok(a),
        EinsumVal::Scalar(_) => Err(Error::Translate(
            "einsum kernel expected a tensor operand, found a scalar".into(),
        )),
    }
}

/// A 1-row relation produced mid-plan (pivot results).
struct OneRow {
    rel: String,
    cols: Vec<String>,
}

impl OneRow {
    fn from_rule_atoms(
        tr: &mut Translator<'_>,
        atoms: Vec<Atom>,
        outs: Vec<String>,
    ) -> Result<OneRow> {
        let rel = tr.fresh_rel();
        let cols: Vec<String> = (0..outs.len()).map(|i| format!("p{i}")).collect();
        let head_cols: Vec<(String, String)> = cols
            .iter()
            .zip(&outs)
            .map(|(c, v)| (c.clone(), v.clone()))
            .collect();
        tr.rules.push(Rule {
            head: Head::simple(rel.clone(), head_cols),
            body: Body::new(atoms),
        });
        Ok(OneRow { rel, cols })
    }

    /// Adds the access atom for this 1-row relation, returning its variables.
    fn access(&self, b: &mut BodyBuilder) -> Vec<String> {
        let mut vars = Vec::new();
        for c in &self.cols {
            vars.push(b.fresh_var(c));
        }
        b.atoms.push(Atom::Rel {
            rel: self.rel.clone(),
            alias: format!("r{}", b.atoms.len()),
            vars: vars.clone(),
        });
        vars
    }
}

fn expr_to_float(e: &py::Expr) -> Result<f64> {
    match e {
        py::Expr::Int(i) => Ok(*i as f64),
        py::Expr::Float(f) => Ok(*f),
        other => Err(Error::Translate(format!(
            "array literals must be numeric, found {other:?}"
        ))),
    }
}
