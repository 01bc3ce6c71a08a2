pub fn both() -> usize {
    #[expect(clippy::disallowed_types, clippy::disallowed_methods, reason = "both")]
    let n = usize::from(std::env::var("N").is_ok()) + std::collections::HashSet::<u8>::new().len();
    n + 1
}
pub fn methods_only() -> usize {
    #[expect(clippy::disallowed_methods, reason = "worker count only")]
    let n = usize::from(std::env::var("N").is_ok()) + std::collections::HashSet::<u8>::new().len();
    n + 1
}
pub fn duplicated() -> usize {
    #[expect(clippy::disallowed_types, clippy::disallowed_types, clippy::disallowed_methods, reason = "dup")]
    let n = usize::from(std::env::var("N").is_ok()) + std::collections::HashSet::<u8>::new().len();
    n + 1
}
