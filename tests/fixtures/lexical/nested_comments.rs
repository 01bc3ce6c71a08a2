pub fn hidden() { /* outer /* inner std::env::var("A") */ still comment env::var("B") */ }
pub fn live_after_balanced_pair() -> bool { /* /* a */ b */ std::env::var("N").is_ok() }
