// Fixture: no-fma compliant scatter — multiply, round, then add.
pub fn deposit(sum: f64, m: f64, temp: f64) -> f64 {
    sum + m * temp
}
