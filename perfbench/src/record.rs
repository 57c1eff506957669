//! The line format a child process reports in, and JSON rendering for
//! the parent process's output.
//!
//! A child prints one `key<TAB>value` pair per line; a key may repeat
//! (`error` does). Floats are printed with Rust's shortest round-trip
//! formatting, so the parent process parses back exactly the value measured.

use std::fmt::Display;

/// An ordered list of key/value pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record(Vec<(String, String)>);

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Appends `key = value`.
    pub fn put(&mut self, key: &str, value: impl Display) {
        self.0.push((key.to_string(), value.to_string()));
    }

    /// Prints the record to standard output.
    pub fn print(&self) {
        for (k, v) in &self.0 {
            println!("{k}\t{v}");
        }
    }

    /// Parses every `key<TAB>value` line of `text`, ignoring the rest.
    pub fn parse(text: &str) -> Record {
        Record(
            text.lines()
                .filter_map(|l| l.split_once('\t'))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    /// The first value under `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Every value under `key`.
    pub fn all(&self, key: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The value under `key` as a number.
    ///
    /// # Panics
    ///
    /// Panics if the key is missing or not a number: the child and the
    /// parent are built from the same source, so that is a bug.
    pub fn num(&self, key: &str) -> f64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child record lacks a numeric `{key}`"))
    }

    /// [`Record::num`] for a whole number.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child record lacks a count `{key}`"))
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number. JSON has no NaN or infinity; a metric that
/// produced one is a bug the caller must have rejected already.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// A JSON object from already-rendered `(key, value)` members.
pub fn json_obj<K: AsRef<str>, V: AsRef<str>>(members: &[(K, V)]) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k.as_ref()), v.as_ref()))
        .collect();
    format!("{{{}}}", body.join(", "))
}
