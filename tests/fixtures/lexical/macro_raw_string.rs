use std::fmt::Write;
pub fn fingerprint_row(w: &mut String) -> Result<bool, std::fmt::Error> {
    write!(w, r#"std::env::var("N") " unsafe {{"#)?;
    Ok(std::env::var("N").is_ok())
}
