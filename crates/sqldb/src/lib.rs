//! An in-memory columnar SQL engine — the RDBMS substrate of the PyTond
//! reproduction.
//!
//! The paper executes its generated SQL on DuckDB (vectorized), Hyper
//! (compiled/pipeline-fused) and LingoDB (research prototype). This crate is
//! a from-scratch engine with **one** executor — a morsel-parallel pipeline
//! driver every streaming operator runs through — whose execution profiles
//! emulate those paradigms as (pipeline-extraction policy, bind-time gate)
//! pairs:
//!
//! * [`Profile::Vectorized`] ("DuckDB-like") — one operator per pipeline:
//!   every intermediate is materialized between operators, columnar kernels
//!   run inside them;
//! * [`Profile::Fused`] ("Hyper-like") — maximal pipelines: a morsel flows
//!   scan → filter → project → probe → aggregate in one pass, broken only at
//!   pipeline breakers, emulating data-centric compiled pipelines;
//! * [`Profile::Lingo`] ("LingoDB-like") — the fusing policy plus a gate for
//!   the prototype's documented gaps: no window functions (which is why the
//!   paper's Grizzly/LingoDB pairing is impossible) and no aggregates over
//!   disjunctive CASE conditions (the shape of PyTond's Q12 SQL, reproducing
//!   the paper's "join processing could not process our generated SQL for
//!   Q12").
//!
//! All profiles share one SQL front-end (lexer → parser → binder), one
//! logical optimizer (predicate pushdown, projection pruning, join-key
//! extraction, IN-subquery to semi/anti join, cost-based join order and
//! build side) and the same kernels, so they return the same rows in the
//! same order.
//!
//! Compilation and execution are split: [`Database::prepare`] runs the
//! front-end + optimizer once and returns a [`PreparedQuery`] that
//! [`Database::execute_prepared`] runs any number of times with zero
//! per-call planning. TondIR programs enter without any SQL text:
//! [`lower::lower_program`] — the one TondIR → SQL lowering — builds the
//! [`ast::Query`] that [`Database::prepare_query`] binds and plans (and that
//! `pytond-sqlgen` prints for external engines); `register`/`append` bump a
//! stats version that tells plan caches when cost-based join orders went
//! stale.
//!
//! ```
//! use pytond_sqldb::{Database, EngineConfig};
//! use pytond_common::{Column, Relation};
//!
//! let mut db = Database::new();
//! db.register(
//!     "t",
//!     Relation::new(vec![
//!         ("a".into(), Column::from_i64(vec![1, 2, 3])),
//!         ("b".into(), Column::from_f64(vec![10.0, 20.0, 30.0])),
//!     ])
//!     .unwrap(),
//! );
//! let out = db
//!     .execute_sql("SELECT a, b * 2 AS b2 FROM t WHERE a >= 2", &EngineConfig::default())
//!     .unwrap();
//! assert_eq!(out.num_rows(), 2);
//! ```

#![warn(missing_docs)]

mod agg;
pub mod ast;
pub mod bind;
pub mod db;
pub mod exec;
pub mod expr;
pub mod lex;
pub mod lower;
pub mod mv;
pub mod optimize;
pub mod parser;
pub mod pipeline;
pub mod plan;
pub mod stats;
pub mod table;

pub use db::{CatalogReads, Database, EngineConfig, PreparedQuery, Profile, QueryTrace, Snapshot};
pub use mv::{RefreshMode, ViewCompile, ViewState};
pub use plan::LogicalPlan;
pub use pytond_common::cancel::CancelToken;
