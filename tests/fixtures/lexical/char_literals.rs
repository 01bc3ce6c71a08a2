pub fn probe() -> usize {
    let a = '"'; let b = '\''; let c: &'static str = "std::env::var(N)";
    usize::from(std::env::var("N").is_ok()) + a.len_utf8() + b.len_utf8() + c.len()
}
