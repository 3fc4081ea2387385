//! What `BENCHMARK.json` fixes and this program therefore does not
//! repeat: the run length and the regression bounds.

/// The text of `BENCHMARK.json`.
pub struct Contract(String);

impl Contract {
    /// Reads the file from the current directory (the repository root,
    /// where the documented command runs) or from its parent (when run
    /// from inside `perfbench/`).
    pub fn read() -> Result<Contract, String> {
        ["BENCHMARK.json", "../BENCHMARK.json"]
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .map(Contract)
            .ok_or_else(|| "no BENCHMARK.json in this directory or its parent".to_string())
    }

    /// `run_seconds`: how long one run measures.
    pub fn run_seconds(&self) -> Result<u64, String> {
        number_after(&self.0, "run_seconds")
            .map(|s| s as u64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
    }

    /// The regression bound of an end-to-end metric, as a share of the
    /// parent's median.
    pub fn bound(&self, metric: &str) -> Option<f64> {
        let object = &self.0[self.0.find(&format!("\"name\": \"{metric}\""))?..];
        number_after(&object[..object.find('}')?], "bound")
    }
}

/// The number that follows `"key": ` in `text`.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{key}\": "))? + key.len() + 4..];
    rest[..rest.find([',', '}', '\n']).unwrap_or(rest.len())]
        .trim()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_run_length_and_bounds() {
        let c = Contract(
            r#"{
  "run_seconds": 20,
  "end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.03}
  ],
  "per_layer": [
    {"name": "xml.parse_s", "unit": "s", "better": "lower"},
    {"name": "last", "unit": "s", "better": "lower", "bound": 0.5}
  ]
}"#
            .to_string(),
        );
        assert_eq!(c.run_seconds(), Ok(20));
        assert_eq!(c.bound("setup_s"), Some(0.25));
        assert_eq!(c.bound("peak_rss_mb"), Some(0.03));
        assert_eq!(c.bound("xml.parse_s"), None);
        assert_eq!(c.bound("ops_per_s"), None);
    }

    #[test]
    fn the_repositorys_file_declares_every_end_to_end_metric() {
        let c = Contract::read().expect("tests run inside perfbench/");
        assert!(c.run_seconds().expect("run_seconds") >= 1);
        for (name, _) in crate::END_TO_END {
            assert!(c.bound(name).is_some(), "{name} has no bound");
        }
    }
}
