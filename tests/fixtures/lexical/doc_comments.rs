//! The `#[expect(clippy::disallowed_methods)]` form and `std::env::var("N")` are prose here.

/// Prose above an item does not suppress the read in its body:
/// `#[expect(clippy::disallowed_methods, reason = "…")]`.
pub fn read() -> bool { std::env::var("N").is_ok() }
