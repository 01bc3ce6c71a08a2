//! Error type of the campaign engine.

use std::fmt;

/// Anything that can go wrong while specifying, running or rendering a
/// campaign.
#[derive(Debug)]
pub enum LabError {
    /// The matrix expanded to zero runnable scenarios.
    EmptyCampaign,
    /// A filesystem error (report writing / reading).
    Io(std::io::Error),
    /// A spec, label or report document failed to parse.
    Parse(String),
    /// The CLI was invoked with invalid arguments.
    Usage(String),
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabError::EmptyCampaign => f.write_str("campaign expands to zero runnable scenarios"),
            LabError::Io(e) => write!(f, "io error: {e}"),
            LabError::Parse(msg) => write!(f, "parse error: {msg}"),
            LabError::Usage(msg) => write!(f, "usage error: {msg}"),
        }
    }
}

impl std::error::Error for LabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LabError::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        let io = LabError::Io(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().starts_with("io error: "));
        assert!(std::error::Error::source(&io).is_some());
        for e in [
            LabError::EmptyCampaign,
            LabError::Parse("bad".into()),
            LabError::Usage("bad flag".into()),
        ] {
            assert!(!e.to_string().is_empty());
            assert!(std::error::Error::source(&e).is_none());
        }
    }
}
