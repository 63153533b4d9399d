//! The one parser of `PYTOND_*` environment variables (the table of them is
//! in the README). Callers cache what they read — every variable is read
//! once per process, so set it before the first query.

/// The value of `name` when it is set to a non-negative integer.
pub fn integer(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The value of `name` when it is set to a positive integer.
pub fn positive_u64(name: &str) -> Option<u64> {
    integer(name).filter(|&n| n > 0)
}
