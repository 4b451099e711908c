//! Sample summaries: median, quartiles, and the tail percentile a sample
//! count supports.

use crate::json::Json;

/// The three cut points of `values` as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method), so spreads computed here match the ones the driver computes.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    assert!(m > 0, "quartiles of an empty sample");
    if m == 1 {
        return [data[0]; 3];
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when even the 75th does not (then the median and quartiles
/// are all the sample supports).
pub fn tail_percentile(n: usize) -> Option<f64> {
    // In per mille, so that "ten beyond the 99.9th of 10 000" is exact.
    [999, 990, 950, 900, 750]
        .into_iter()
        .find(|p| n * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * data.len() as f64).ceil() as usize;
    data[rank.clamp(1, data.len()) - 1]
}

#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    /// `(percentile, value)` where [`tail_percentile`] allows one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, median, q3] = quartiles(values);
        Summary {
            n: values.len(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            median,
            q3,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            tail: tail_percentile(values.len()).map(|p| (p, percentile(values, p))),
        }
    }

    /// Interquartile range as a percentage of the median.
    pub fn spread_pct(&self) -> f64 {
        100.0 * (self.q3 - self.q1) / self.median
    }

    /// The result-file form: `value` is the median.
    pub fn to_json(&self, unit: &str) -> Json {
        let mut fields = vec![
            ("value", Json::Num(self.median)),
            ("unit", Json::str(unit)),
            ("n", Json::Num(self.n as f64)),
            ("min", Json::Num(self.min)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("max", Json::Num(self.max)),
        ];
        if let Some((p, v)) = self.tail {
            fields.push(("tail_percentile", Json::Num(p)));
            fields.push(("tail", Json::Num(v)));
        }
        Json::obj(fields)
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        let num = |k: &str| v.get(k).and_then(Json::as_f64);
        let median = num("value")?;
        Some(Summary {
            n: num("n").unwrap_or(1.0) as usize,
            min: num("min").unwrap_or(median),
            q1: num("q1").unwrap_or(median),
            median,
            q3: num("q3").unwrap_or(median),
            max: num("max").unwrap_or(median),
            tail: num("tail_percentile").zip(num("tail")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(24), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn summary_reports_the_tail_only_when_eligible() {
        let few = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!((few.n, few.min, few.median, few.max), (3, 1.0, 2.0, 3.0));
        assert_eq!(few.tail, None);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!(s.tail, Some((90.0, 90.0)));
        assert_eq!(Summary::from_json(&s.to_json("ms")), Some(s));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert_eq!(s.spread_pct(), 20.0);
    }
}
