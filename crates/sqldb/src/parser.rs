//! Recursive-descent SQL parser for the engine's dialect subset.

use crate::ast::*;
use crate::lex::{tokenize, Tok};
use pytond_common::{date, Error, Result};

/// Parses one SQL statement (optionally `;`-terminated).
pub fn parse_sql(src: &str) -> Result<Query> {
    let toks = tokenize(src)?;
    let mut p = P { toks, pos: 0 };
    let q = p.query()?;
    p.eat_op(";");
    if !matches!(p.peek(), Tok::Eof) {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(q)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> Error {
        Error::Sql(format!("{} (near token {:?})", msg.into(), self.peek()))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), Tok::Op(o) if *o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_op(&mut self, op: &str) -> Result<()> {
        if self.eat_op(op) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{op}'")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Tok::Word { original, .. } => Ok(original),
            other => Err(Error::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---------------- query structure ----------------

    fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("WITH") {
            loop {
                let name = self.ident()?;
                let columns = if matches!(self.peek(), Tok::Op("(")) && !self.peek().is_kw("AS") {
                    // could be a column list before AS
                    self.expect_op("(")?;
                    let mut cols = Vec::new();
                    loop {
                        cols.push(self.ident()?);
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.expect_op(")")?;
                    Some(cols)
                } else {
                    None
                };
                self.expect_kw("AS")?;
                self.expect_op("(")?;
                let select = self.select()?;
                self.expect_op(")")?;
                ctes.push(Cte {
                    name,
                    columns,
                    select,
                });
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        let body = self.select()?;
        Ok(Query { ctes, body })
    }

    fn select(&mut self) -> Result<Select> {
        if self.peek().is_kw("VALUES") {
            self.bump();
            let mut rows = Vec::new();
            loop {
                self.expect_op("(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.expr()?);
                    if !self.eat_op(",") {
                        break;
                    }
                }
                self.expect_op(")")?;
                rows.push(row);
                if !self.eat_op(",") {
                    break;
                }
            }
            let mut s = Select::empty();
            s.values = Some(rows);
            return Ok(s);
        }
        self.expect_kw("SELECT")?;
        let mut s = Select::empty();
        s.distinct = self.eat_kw("DISTINCT");
        loop {
            if self.eat_op("*") {
                s.items.push(SelectItem::Wildcard);
            } else if matches!(self.peek(), Tok::Word { .. })
                && matches!(self.peek2(), Tok::Op("."))
                && matches!(&self.toks.get(self.pos + 2), Some(Tok::Op("*")))
            {
                let q = self.ident()?;
                self.expect_op(".")?;
                self.expect_op("*")?;
                s.items.push(SelectItem::QualifiedWildcard(q));
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_kw("AS")
                    || (matches!(self.peek(), Tok::Word { .. }) && !self.peek_is_clause_keyword())
                {
                    Some(self.ident()?)
                } else {
                    None
                };
                s.items.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_op(",") {
                break;
            }
        }
        if self.eat_kw("FROM") {
            loop {
                s.from.push(self.table_ref()?);
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        if self.eat_kw("WHERE") {
            s.where_clause = Some(self.expr()?);
        }
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                s.group_by.push(self.expr()?);
                if !self.eat_op(",") {
                    break;
                }
            }
        }
        if self.eat_kw("HAVING") {
            s.having = Some(self.expr()?);
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            s.order_by = self.order_keys()?;
        }
        if self.eat_kw("LIMIT") {
            match self.bump() {
                Tok::Int(n) if n >= 0 => s.limit = Some(n as u64),
                other => return Err(Error::Sql(format!("bad LIMIT value {other:?}"))),
            }
        }
        Ok(s)
    }

    fn order_keys(&mut self) -> Result<Vec<(SqlExpr, bool)>> {
        let mut keys = Vec::new();
        loop {
            let e = self.expr()?;
            let asc = if self.eat_kw("DESC") {
                false
            } else {
                self.eat_kw("ASC");
                true
            };
            // NULLS FIRST/LAST accepted and ignored (engine does NULLS FIRST).
            if self.eat_kw("NULLS") && !self.eat_kw("FIRST") {
                self.expect_kw("LAST")?;
            }
            keys.push((e, asc));
            if !self.eat_op(",") {
                break;
            }
        }
        Ok(keys)
    }

    fn peek_is_clause_keyword(&self) -> bool {
        const CLAUSES: &[&str] = &[
            "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION", "AS", "ON", "JOIN",
            "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "AND", "OR", "ASC", "DESC",
        ];
        CLAUSES.iter().any(|k| self.peek().is_kw(k))
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut base = self.table_factor()?;
        loop {
            let kind = if self.peek().is_kw("JOIN") || self.peek().is_kw("INNER") {
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                JoinKind::Inner
            } else if self.peek().is_kw("LEFT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.peek().is_kw("RIGHT") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.peek().is_kw("FULL") {
                self.bump();
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Full
            } else if self.peek().is_kw("CROSS") {
                self.bump();
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("ON")?;
                Some(self.expr()?)
            };
            base = TableRef::Join {
                left: Box::new(base),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(base)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat_op("(") {
            let q = self.select()?;
            self.expect_op(")")?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(q),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS")
            || (matches!(self.peek(), Tok::Word { .. }) && !self.peek_is_clause_keyword())
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = SqlExpr::bin(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<SqlExpr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = SqlExpr::bin(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<SqlExpr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(SqlExpr::Not(Box::new(inner)));
        }
        self.predicate()
    }

    fn predicate(&mut self) -> Result<SqlExpr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(SqlExpr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek().is_kw("NOT")
            && (self.peek2().is_kw("LIKE")
                || self.peek2().is_kw("IN")
                || self.peek2().is_kw("BETWEEN"))
        {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                Tok::Str(s) => s,
                other => return Err(Error::Sql(format!("LIKE needs a pattern, got {other:?}"))),
            };
            return Ok(SqlExpr::Like {
                expr: Box::new(left),
                pattern,
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_op("(")?;
            if self.peek().is_kw("SELECT") {
                let q = self.select()?;
                self.expect_op(")")?;
                return Ok(SqlExpr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_op(",") {
                    break;
                }
            }
            self.expect_op(")")?;
            return Ok(SqlExpr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(SqlExpr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return Err(self.err("dangling NOT"));
        }
        // comparison
        let op = if self.eat_op("=") {
            Some(BinOp::Eq)
        } else if self.eat_op("<>") || self.eat_op("!=") {
            Some(BinOp::Ne)
        } else if self.eat_op("<=") {
            Some(BinOp::Le)
        } else if self.eat_op(">=") {
            Some(BinOp::Ge)
        } else if self.eat_op("<") {
            Some(BinOp::Lt)
        } else if self.eat_op(">") {
            Some(BinOp::Gt)
        } else {
            None
        };
        if let Some(op) = op {
            let right = self.additive()?;
            return Ok(SqlExpr::bin(op, left, right));
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<SqlExpr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = if self.eat_op("+") {
                BinOp::Add
            } else if self.eat_op("-") {
                BinOp::Sub
            } else if self.eat_op("||") {
                BinOp::Concat
            } else {
                break;
            };
            let right = self.multiplicative()?;
            left = SqlExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<SqlExpr> {
        let mut left = self.unary()?;
        loop {
            let op = if self.eat_op("*") {
                BinOp::Mul
            } else if self.eat_op("/") {
                BinOp::Div
            } else if self.eat_op("%") {
                BinOp::Mod
            } else {
                break;
            };
            let right = self.unary()?;
            left = SqlExpr::bin(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<SqlExpr> {
        if self.eat_op("-") {
            let inner = self.unary()?;
            return Ok(match inner {
                SqlExpr::Int(i) => SqlExpr::Int(-i),
                SqlExpr::Float(f) => SqlExpr::Float(-f),
                other => SqlExpr::Neg(Box::new(other)),
            });
        }
        self.eat_op("+");
        self.atom()
    }

    fn atom(&mut self) -> Result<SqlExpr> {
        match self.bump() {
            Tok::Int(i) => Ok(SqlExpr::Int(i)),
            Tok::Float(f) => Ok(SqlExpr::Float(f)),
            Tok::Str(s) => Ok(SqlExpr::Str(s)),
            Tok::Op("(") => {
                if self.peek().is_kw("SELECT") {
                    let q = self.select()?;
                    self.expect_op(")")?;
                    return Ok(SqlExpr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect_op(")")?;
                Ok(e)
            }
            Tok::Word {
                upper,
                original,
                quoted,
            } => self.word_expr(upper, original, quoted),
            other => Err(Error::Sql(format!("unexpected token {other:?}"))),
        }
    }

    fn word_expr(&mut self, upper: String, original: String, quoted: bool) -> Result<SqlExpr> {
        const RESERVED: &[&str] = &[
            "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER",
            "LEFT", "RIGHT", "FULL", "CROSS", "ON", "AND", "OR", "IN", "IS", "BETWEEN", "LIKE",
            "UNION", "AS", "ASC", "DESC", "DISTINCT", "WITH", "WHEN", "THEN", "ELSE", "END",
            "VALUES",
        ];
        if !quoted && RESERVED.contains(&upper.as_str()) {
            return Err(Error::Sql(format!(
                "reserved keyword '{original}' cannot be used as an expression"
            )));
        }
        if !quoted {
            match upper.as_str() {
                "NULL" => return Ok(SqlExpr::Null),
                "TRUE" => return Ok(SqlExpr::Bool(true)),
                "FALSE" => return Ok(SqlExpr::Bool(false)),
                "DATE" => {
                    if let Tok::Str(s) = self.peek().clone() {
                        self.bump();
                        let d = date::parse(&s)
                            .ok_or_else(|| Error::Sql(format!("bad date literal '{s}'")))?;
                        return Ok(SqlExpr::DateLit(d));
                    }
                }
                "CASE" => return self.case_expr(),
                "CAST" => {
                    self.expect_op("(")?;
                    let e = self.expr()?;
                    self.expect_kw("AS")?;
                    let ty = self.ident()?.to_uppercase();
                    // Accept (and ignore) precision arguments like DECIMAL(12,2).
                    if self.eat_op("(") {
                        while !self.eat_op(")") {
                            self.bump();
                        }
                    }
                    self.expect_op(")")?;
                    return Ok(SqlExpr::Cast {
                        expr: Box::new(e),
                        ty,
                    });
                }
                "EXISTS" => {
                    self.expect_op("(")?;
                    let q = self.select()?;
                    self.expect_op(")")?;
                    return Ok(SqlExpr::Exists {
                        query: Box::new(q),
                        negated: false,
                    });
                }
                "EXTRACT" => {
                    self.expect_op("(")?;
                    let field = self.ident()?.to_uppercase();
                    self.expect_kw("FROM")?;
                    let e = self.expr()?;
                    self.expect_op(")")?;
                    return Ok(SqlExpr::Func {
                        name: field,
                        args: vec![e],
                    });
                }
                "INTERVAL" => {
                    // INTERVAL 'n' UNIT — represented as a Func the binder folds.
                    let qty = match self.bump() {
                        Tok::Str(s) => s,
                        Tok::Int(i) => i.to_string(),
                        other => {
                            return Err(Error::Sql(format!("bad INTERVAL quantity {other:?}")))
                        }
                    };
                    let unit = self.ident()?.to_uppercase();
                    let n: i64 = qty
                        .trim()
                        .parse()
                        .map_err(|_| Error::Sql(format!("bad INTERVAL quantity '{qty}'")))?;
                    return Ok(SqlExpr::Func {
                        name: format!("INTERVAL_{unit}"),
                        args: vec![SqlExpr::Int(n)],
                    });
                }
                _ => {}
            }
        }
        // Function call?
        if matches!(self.peek(), Tok::Op("(")) && !quoted {
            self.bump();
            match upper.as_str() {
                "SUM" | "MIN" | "MAX" | "AVG" | "COUNT" => {
                    let func = match upper.as_str() {
                        "SUM" => AggName::Sum,
                        "MIN" => AggName::Min,
                        "MAX" => AggName::Max,
                        "AVG" => AggName::Avg,
                        _ => AggName::Count,
                    };
                    if self.eat_op("*") {
                        self.expect_op(")")?;
                        return Ok(SqlExpr::Agg {
                            func,
                            arg: None,
                            distinct: false,
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let arg = self.expr()?;
                    self.expect_op(")")?;
                    return Ok(SqlExpr::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                        distinct,
                    });
                }
                "ROW_NUMBER" => {
                    self.expect_op(")")?;
                    self.expect_kw("OVER")?;
                    self.expect_op("(")?;
                    let order_by = if self.eat_kw("ORDER") {
                        self.expect_kw("BY")?;
                        self.order_keys()?
                    } else {
                        Vec::new()
                    };
                    self.expect_op(")")?;
                    return Ok(SqlExpr::RowNumber { order_by });
                }
                "SUBSTRING" | "SUBSTR" => {
                    // SUBSTRING(s FROM a FOR b) or SUBSTR[ING](s, a, b)
                    let s = self.expr()?;
                    let mut args = vec![s];
                    if self.eat_kw("FROM") {
                        args.push(self.expr()?);
                        if self.eat_kw("FOR") {
                            args.push(self.expr()?);
                        }
                    } else {
                        while self.eat_op(",") {
                            args.push(self.expr()?);
                        }
                    }
                    self.expect_op(")")?;
                    return Ok(SqlExpr::Func {
                        name: "SUBSTRING".into(),
                        args,
                    });
                }
                _ => {
                    let mut args = Vec::new();
                    if !self.eat_op(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_op(",") {
                                break;
                            }
                        }
                        self.expect_op(")")?;
                    }
                    // Dialect spellings converge here, so the AST (and the
                    // binder's function table) carries one name per function.
                    let name = match upper.as_str() {
                        "LEN" | "CHAR_LENGTH" => "LENGTH".into(),
                        "CEILING" => "CEIL".into(),
                        "POW" => "POWER".into(),
                        "POSITION" | "INSTR" => "STRPOS".into(),
                        _ => upper,
                    };
                    return Ok(SqlExpr::Func { name, args });
                }
            }
        }
        // Column reference (possibly qualified).
        if self.eat_op(".") {
            let col = self.ident()?;
            return Ok(SqlExpr::Column {
                qualifier: Some(original),
                name: col,
            });
        }
        Ok(SqlExpr::Column {
            qualifier: None,
            name: original,
        })
    }

    fn case_expr(&mut self) -> Result<SqlExpr> {
        let mut arms = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.expr()?;
            self.expect_kw("THEN")?;
            let value = self.expr()?;
            arms.push((cond, value));
        }
        let else_value = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        if arms.is_empty() {
            return Err(self.err("CASE requires at least one WHEN arm"));
        }
        Ok(SqlExpr::Case { arms, else_value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structured mismatch reporting for the shape-checking tests below:
    /// an unexpected AST shape surfaces as an `Error` result, never as a
    /// process abort.
    fn unexpected<T: std::fmt::Debug>(what: &T) -> Error {
        Error::Sql(format!("unexpected {what:?}"))
    }

    #[test]
    fn simple_select() {
        let q = parse_sql("SELECT a, b * 2 AS b2 FROM t WHERE a > 1").unwrap();
        assert_eq!(q.body.items.len(), 2);
        assert!(q.body.where_clause.is_some());
    }

    #[test]
    fn with_chain() {
        let q =
            parse_sql("WITH c1 AS (SELECT a FROM t), c2(x) AS (SELECT a FROM c1) SELECT * FROM c2")
                .unwrap();
        assert_eq!(q.ctes.len(), 2);
        assert_eq!(q.ctes[1].columns.as_deref(), Some(&["x".to_string()][..]));
    }

    #[test]
    fn joins_parse() -> Result<()> {
        let q = parse_sql("SELECT * FROM a LEFT JOIN b ON a.id = b.id INNER JOIN c ON b.k = c.k")?;
        match &q.body.from[0] {
            TableRef::Join { kind, left, .. } => {
                assert_eq!(*kind, JoinKind::Inner);
                assert!(matches!(
                    **left,
                    TableRef::Join {
                        kind: JoinKind::Left,
                        ..
                    }
                ));
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    #[test]
    fn comma_joins_parse() {
        let q = parse_sql("SELECT * FROM a, b AS bb WHERE a.x = bb.y").unwrap();
        assert_eq!(q.body.from.len(), 2);
    }

    #[test]
    fn group_order_limit() {
        let q = parse_sql(
            "SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING SUM(v) > 0 ORDER BY s DESC LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.body.group_by.len(), 1);
        assert!(q.body.having.is_some());
        assert_eq!(q.body.order_by.len(), 1);
        assert!(!q.body.order_by[0].1);
        assert_eq!(q.body.limit, Some(10));
    }

    #[test]
    fn aggregates_and_count_star() -> Result<()> {
        let q = parse_sql("SELECT COUNT(*), COUNT(DISTINCT a), AVG(b) FROM t")?;
        match &q.body.items[0] {
            SelectItem::Expr {
                expr: SqlExpr::Agg { func, arg, .. },
                ..
            } => {
                assert_eq!(*func, AggName::Count);
                assert!(arg.is_none());
            }
            other => return Err(unexpected(other)),
        }
        match &q.body.items[1] {
            SelectItem::Expr {
                expr: SqlExpr::Agg { distinct, .. },
                ..
            } => assert!(distinct),
            other => return Err(unexpected(other)),
        }
        Ok(())
    }

    #[test]
    fn case_when() -> Result<()> {
        let q = parse_sql(
            "SELECT CASE WHEN a = 1 THEN 'one' WHEN a = 2 THEN 'two' ELSE 'many' END FROM t",
        )
        .unwrap();
        match &q.body.items[0] {
            SelectItem::Expr {
                expr: SqlExpr::Case { arms, else_value },
                ..
            } => {
                assert_eq!(arms.len(), 2);
                assert!(else_value.is_some());
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    #[test]
    fn in_list_and_subquery() {
        let q =
            parse_sql("SELECT * FROM t WHERE a IN (1, 2) AND b NOT IN (SELECT x FROM s)").unwrap();
        let w = q.body.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, SqlExpr::InList { .. })));
        assert!(w.any(&mut |e| matches!(e, SqlExpr::InSubquery { negated: true, .. })));
    }

    #[test]
    fn like_between_dates() {
        let q = parse_sql(
            "SELECT * FROM t WHERE s LIKE '%x%' AND d BETWEEN DATE '1994-01-01' AND DATE '1994-12-31'",
        )
        .unwrap();
        let w = q.body.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, SqlExpr::Like { .. })));
        assert!(w.any(&mut |e| matches!(e, SqlExpr::Between { .. })));
        assert!(w.any(&mut |e| matches!(e, SqlExpr::DateLit(_))));
    }

    #[test]
    fn row_number_window() -> Result<()> {
        let q = parse_sql("SELECT row_number() OVER (ORDER BY a) AS id, a FROM t")?;
        match &q.body.items[0] {
            SelectItem::Expr {
                expr: SqlExpr::RowNumber { order_by },
                alias,
            } => {
                assert_eq!(order_by.len(), 1);
                assert_eq!(alias.as_deref(), Some("id"));
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    #[test]
    fn values_constructor() {
        let q = parse_sql("WITH v(c0) AS (VALUES (0), (1)) SELECT * FROM v").unwrap();
        assert_eq!(q.ctes[0].select.values.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn extract_and_interval() -> Result<()> {
        let q = parse_sql("SELECT EXTRACT(YEAR FROM d), d + INTERVAL '3' MONTH FROM t")?;
        match &q.body.items[0] {
            SelectItem::Expr {
                expr: SqlExpr::Func { name, .. },
                ..
            } => {
                assert_eq!(name, "YEAR");
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    #[test]
    fn subquery_in_from() {
        let q = parse_sql("SELECT * FROM (SELECT a FROM t) AS sub WHERE sub.a > 0").unwrap();
        assert!(matches!(&q.body.from[0], TableRef::Subquery { alias, .. } if alias == "sub"));
    }

    #[test]
    fn implicit_alias_without_as() {
        let q = parse_sql("SELECT r1.a FROM t r1").unwrap();
        assert!(matches!(&q.body.from[0], TableRef::Table { alias: Some(a), .. } if a == "r1"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("SELECT a FROM t WHERE").is_err());
        assert!(parse_sql("SELECT a FROM t extra garbage ,").is_err());
    }

    #[test]
    fn exists_subquery() {
        let q = parse_sql(
            "SELECT * FROM t WHERE EXISTS (SELECT x FROM s) AND NOT EXISTS (SELECT y FROM u)",
        )
        .unwrap();
        let w = q.body.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, SqlExpr::Exists { negated: false, .. })));
    }

    #[test]
    fn scalar_subquery() {
        let q = parse_sql("SELECT * FROM t WHERE a > (SELECT AVG(x) FROM s)").unwrap();
        let w = q.body.where_clause.unwrap();
        assert!(w.any(&mut |e| matches!(e, SqlExpr::ScalarSubquery(_))));
    }

    #[test]
    fn cast_with_precision() -> Result<()> {
        let q = parse_sql("SELECT CAST(a AS DECIMAL(12, 2)) FROM t")?;
        match &q.body.items[0] {
            SelectItem::Expr {
                expr: SqlExpr::Cast { ty, .. },
                ..
            } => {
                assert_eq!(ty, "DECIMAL");
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }
}
