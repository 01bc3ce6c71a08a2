pub struct Frontier<T>(pub Vec<T>);
#[expect(clippy::disallowed_methods, reason = "the impl's exception covers its methods")]
impl<T> Frontier<T>
where
    T: Clone + Ord,
    T: Default,
{
    pub fn render_frontier(&self) -> bool { std::env::var("N").is_ok() && helper() }
}
fn helper() -> bool { std::env::var("N").is_ok() }
