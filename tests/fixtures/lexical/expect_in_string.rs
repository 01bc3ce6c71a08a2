pub fn smuggled() -> usize {
    let s = "#[expect(clippy::disallowed_methods, reason = \"smuggled\")]";
    s.len() + usize::from(std::env::var("N").is_ok())
}
#[expect(clippy::disallowed_methods, reason = "genuine")]
pub fn genuine() -> bool { std::env::var("N").is_ok() }
