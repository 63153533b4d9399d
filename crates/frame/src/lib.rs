//! A Pandas-like DataFrame library — the "Python" baseline of the paper's
//! evaluation.
//!
//! Faithful to the performance profile the paper attributes to Pandas:
//! every operation **eagerly materializes** its result (no fusion), boolean
//! filtering copies, and joins and group-bys build full intermediate tables.
//! Like Pandas, which "does not support parallelization" (Section V-C), it
//! runs on the calling thread only. The fairness rule: the baseline shares
//! the engine's key machinery ([`pytond_common::hash`]'s packed and
//! arena-encoded keys) but not its worker pool, so engine-vs-baseline
//! comparisons at one engine thread measure query processing. The API mirrors
//! Table II of the paper: column selection, row filtering, `head`,
//! `unique`, `sort_values`, `apply`, `aggregate`, `groupby`, `merge`,
//! `isin`, and `pivot_table`.

#![warn(missing_docs)]

pub mod dataframe;
pub mod groupby;
pub mod join;
pub mod pivot;
pub mod series;

pub use dataframe::DataFrame;
pub use groupby::AggOp;
pub use join::JoinHow;
pub use series::Series;
