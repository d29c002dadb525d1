//! Order statistics over recorded samples.

/// Nearest-rank percentile (`q` in 0..=100) of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The medians of the four quarters of `values` in recording order — a
/// drift check: a steady workload reads the same in each quarter.
pub fn quarters(values: &[f64]) -> String {
    let quarter = values.len() / 4;
    if quarter == 0 {
        return "-".into();
    }
    values
        .chunks(quarter)
        .take(4)
        .map(|q| format!("{:.4}", median(q)))
        .collect::<Vec<_>>()
        .join(" / ")
}

/// A latency distribution as the benchmark reports it: the median and a
/// fixed tail percentile, with the sample count and how many samples lie
/// beyond the tail (the tail is only trusted with at least ten beyond it).
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub tail_q: f64,
    pub tail: f64,
    pub beyond_tail: usize,
}

impl Dist {
    pub fn new(values: &[f64], tail_q: f64) -> Self {
        let tail = percentile(values, tail_q);
        Self {
            n: values.len(),
            p50: median(values),
            tail_q,
            tail,
            beyond_tail: values.iter().filter(|v| **v > tail).count(),
        }
    }

    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.4} {unit}, p{} {:.4} {unit} (n={}, {} beyond the tail{})",
            self.p50,
            self.tail_q,
            self.tail,
            self.n,
            self.beyond_tail,
            if self.beyond_tail < 10 { "; FEWER THAN 10" } else { "" }
        )
    }
}
