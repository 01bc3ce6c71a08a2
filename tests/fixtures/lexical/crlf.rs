pub fn probe() -> bool {
    std::env::var("N").is_ok()
}
#[expect(clippy::disallowed_methods, reason = "worker count only")]
pub fn excepted() -> bool {
    std::env::var("N").is_ok()
}
