//! The reproducible failing-case corpus.
//!
//! When a property test finds (and a human shrinks) an interesting input,
//! it is pinned as a `.case` file under the repo-level `tests/corpus/`
//! directory: a flat `key = value` text format that any suite can load and
//! replay as a targeted regression test. Cases are data, not code — they
//! survive harness refactors and stay greppable.
//!
//! Format, one entry per line:
//!
//! ```text
//! # free-form note lines
//! name = blem-collision-xid1
//! seed = 0x3
//! line = 99
//! ```
//!
//! `name` is a kebab-case string (doubles as the file stem); every other
//! key is a `u64`, decimal or `0x`-hex.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Absolute path of the shared corpus directory (`<repo>/tests/corpus`).
///
/// Resolved relative to this crate's manifest, so it works from any
/// crate's test binary regardless of the process working directory.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"))
}

/// One pinned failing (or otherwise interesting) case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// Kebab-case identifier; also the file stem under `tests/corpus/`.
    pub name: String,
    /// Free-form commentary (`#` lines) describing what the case pins.
    pub notes: Vec<String>,
    values: BTreeMap<String, u64>,
}

impl CorpusCase {
    /// Creates an empty case. `name` must be non-empty kebab-case
    /// (`[a-z0-9-]`) because it becomes a file name.
    pub fn new(name: &str) -> Self {
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
            "corpus case name must be kebab-case, got {name:?}"
        );
        CorpusCase {
            name: name.to_string(),
            notes: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// Builder-style [`CorpusCase::set`].
    pub fn with(mut self, key: &str, value: u64) -> Self {
        self.set(key, value);
        self
    }

    /// Sets `key = value` (overwriting any previous value).
    pub fn set(&mut self, key: &str, value: u64) {
        self.values.insert(key.to_string(), value);
    }

    /// Looks up a value.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.values.get(key).copied()
    }

    /// Looks up a value, panicking with the case name if absent — the
    /// replay-test ergonomics: a malformed case should fail loudly.
    pub fn require(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(v) => v,
            None => panic!("corpus case {:?} is missing key {key:?}", self.name),
        }
    }

    /// Serializes to the on-disk text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str("# ");
            out.push_str(n);
            out.push('\n');
        }
        out.push_str(&format!("name = {}\n", self.name));
        for (k, v) in &self.values {
            out.push_str(&format!("{k} = {v:#x}\n"));
        }
        out
    }

    /// Parses the on-disk text format.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut name = None;
        let mut notes = Vec::new();
        let mut values = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                notes.push(rest.trim().to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`, got {raw:?}", i + 1))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "name" {
                name = Some(value.to_string());
                continue;
            }
            let parsed = match value.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => value.parse::<u64>(),
            }
            .map_err(|e| format!("line {}: bad u64 {value:?}: {e}", i + 1))?;
            values.insert(key.to_string(), parsed);
        }
        let name = name.ok_or_else(|| "missing `name = ...` line".to_string())?;
        let mut case = CorpusCase::new(&name);
        case.notes = notes;
        case.values = values;
        Ok(case)
    }

    /// Loads `<corpus_dir>/<name>.case`, panicking with a reproduction
    /// hint if the file is missing or malformed (a corpus case referenced
    /// by a test is part of the test).
    pub fn load(name: &str) -> Self {
        let path = corpus_dir().join(format!("{name}.case"));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => panic!("cannot read corpus case {}: {e}", path.display()),
        };
        match Self::parse(&text) {
            Ok(c) => c,
            Err(e) => panic!("malformed corpus case {}: {e}", path.display()),
        }
    }

    /// Writes this case to `<corpus_dir>/<name>.case` so a freshly found
    /// failure becomes a permanent regression input. Returns the path.
    pub fn record(&self) -> std::io::Result<PathBuf> {
        let dir = corpus_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.case", self.name));
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip_is_exact() {
        let mut c = CorpusCase::new("roundtrip-demo")
            .with("seed", 3)
            .with("line", 0x63);
        c.notes.push("a note".to_string());
        let back = CorpusCase::parse(&c.to_text()).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parse_accepts_decimal_and_hex() {
        let c = CorpusCase::parse("name = n1\na = 10\nb = 0x10\n").unwrap();
        assert_eq!(c.require("a"), 10);
        assert_eq!(c.require("b"), 16);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CorpusCase::parse("name = x\nnot a pair\n").is_err());
        assert!(CorpusCase::parse("a = 1\n").is_err(), "name is mandatory");
        assert!(CorpusCase::parse("name = x\na = 0xzz\n").is_err());
    }

    #[test]
    fn checked_in_corpus_parses() {
        // Every .case file in the repo corpus must stay loadable.
        let dir = corpus_dir();
        let mut seen = 0;
        for entry in std::fs::read_dir(&dir).expect("tests/corpus must exist") {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("case") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let case =
                CorpusCase::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                path.file_stem().and_then(|s| s.to_str()),
                Some(case.name.as_str()),
                "file stem must match case name"
            );
            seen += 1;
        }
        assert!(seen > 0, "corpus must contain at least one case");
    }
}
