pub fn hidden() -> usize {
    r"std::env::var(N)".len() + r#"std::env::var("N") "quoted""#.len()
        + r##"std::env::var("N") "# still inside"##.len() + br#"std::env::var("N") bytes"#.len()
}
pub fn live_after_close() -> usize { r#"quiet"#.len() + usize::from(std::env::var("N").is_ok()) }
