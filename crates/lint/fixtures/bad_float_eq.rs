// Fixture: float equality in a query-execution crate.  Expected lint:
// float_cmp.

pub fn score_is_half(score: f32) -> bool {
    score == 0.5
}

pub fn same_score(a: f32, b: f32) -> bool {
    a == b
}
