// Fixture: the compliant shape — an epsilon comparison, with no exact
// float equality for the rule to flag.

pub fn is_idle(power_w: f64) -> bool {
    power_w.abs() < 1e-12
}
