//! Shared foundation types for the PyTond reproduction.
//!
//! Every layer of the pipeline — the Pandas-like baseline (`pytond-frame`), the
//! NumPy-like tensors (`pytond-ndarray`), the SQL engine substrate
//! (`pytond-sqldb`) and the compiler crates — exchanges data through the types
//! defined here: scalar [`Value`]s, typed columnar [`Column`]s, named-column
//! [`Relation`]s, calendar [`date`] arithmetic, a fast non-cryptographic
//! [`hash`] used for join/group keys, the morsel-driven worker [`pool`]
//! shared by the SQL executor and the DataFrame baseline, the
//! epoch-style snapshot-publication cell ([`version`]) under the serving
//! layer's table versioning (versions share storage chunks and dictionary
//! blocks), and the query-lifecycle
//! resilience primitives: cooperative cancellation tokens ([`cancel`]) and
//! the deterministic fault-injection harness ([`fault`]).

#![warn(missing_docs)]

pub mod cancel;
pub mod column;
pub mod date;
pub mod env;
pub mod error;
pub mod fault;
pub mod hash;
pub mod pool;
pub mod relation;
pub mod value;
pub mod version;

pub use cancel::CancelToken;
pub use column::{empty_dict, Column, DType, DictParts, Dictionary};
pub use error::{Error, Result};
pub use relation::Relation;
pub use value::Value;
