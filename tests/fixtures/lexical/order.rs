pub fn probe() -> bool {
    let n = std::env::var("N").is_ok();
    let h = std::collections::HashSet::<u8>::new();
    n && h.is_empty() && std::env::var_os("M").is_some()
}
