//! `lint.toml` policy file.
//!
//! The workspace has no TOML dependency (vendored stand-ins only), so this
//! module hand-parses the small TOML subset the policy needs: `[section]`
//! and `[section.sub]` headers, `key = "string"`, `key = true/false`,
//! `key = 123`, and `key = ["a", "b"]` (single-line arrays). Comments
//! start with `#`. Anything outside this subset is a hard error — the
//! policy file gating CI must not half-parse.

use std::collections::BTreeMap;

/// A parsed policy value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An array of strings.
    StrArray(Vec<String>),
}

/// The full policy: `section.key` → value, plus accessors with defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Policy {
    entries: BTreeMap<String, Value>,
}

impl Policy {
    /// Parses policy text; `Err` carries a line-anchored message.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let mut entries = BTreeMap::new();
        let mut section = String::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = i + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let Some(name) = rest.strip_suffix(']') else {
                    return Err(format!("line {lineno}: unterminated section header"));
                };
                section = name.trim().to_string();
                continue;
            }
            let Some((key, val)) = line.split_once('=') else {
                return Err(format!("line {lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let full_key = if section.is_empty() {
                key.to_string()
            } else {
                format!("{section}.{key}")
            };
            let value = parse_value(val.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            entries.insert(full_key, value);
        }
        Ok(Policy { entries })
    }

    /// String-array lookup; missing key yields an empty slice.
    pub fn list(&self, key: &str) -> Vec<String> {
        match self.entries.get(key) {
            Some(Value::StrArray(v)) => v.clone(),
            Some(Value::Str(s)) => vec![s.clone()],
            _ => Vec::new(),
        }
    }

    /// Bool lookup with a default.
    pub fn flag(&self, key: &str, default: bool) -> bool {
        match self.entries.get(key) {
            Some(Value::Bool(b)) => *b,
            _ => default,
        }
    }

    /// Raw lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.get(key)
    }

    /// The workspace `lint.toml`, compiled in: the policy used when the
    /// linted root has no `lint.toml` of its own, and by the fixture
    /// tests.
    pub fn builtin() -> Policy {
        Policy::parse(include_str!("../../../lint.toml")).expect("workspace lint.toml parses")
    }
}

fn parse_value(s: &str) -> Result<Value, String> {
    if s == "true" {
        return Ok(Value::Bool(true));
    }
    if s == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(rest) = s.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err("unterminated array (arrays must be single-line)".into());
        };
        let mut out = Vec::new();
        for part in split_top_level(body) {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match parse_value(part)? {
                Value::Str(s) => out.push(s),
                _ => return Err("only string arrays are supported".into()),
            }
        }
        return Ok(Value::StrArray(out));
    }
    if let Some(rest) = s.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err("unterminated string".into());
        };
        return Ok(Value::Str(body.to_string()));
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("cannot parse value `{s}`"))
}

/// Splits on commas that are not inside quotes.
fn split_top_level(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let p = Policy::parse(
            "[paths]\nexclude = [\"vendor\", \"target\"]\n\n[rules.x]\nenabled = true\nlimit = 3\nname = \"q\"\n",
        )
        .expect("parses");
        assert_eq!(p.list("paths.exclude"), vec!["vendor", "target"]);
        assert!(p.flag("rules.x.enabled", false));
        assert_eq!(p.get("rules.x.limit"), Some(&Value::Int(3)));
        assert_eq!(p.get("rules.x.name"), Some(&Value::Str("q".into())));
    }

    #[test]
    fn rejects_junk() {
        assert!(Policy::parse("[oops\n").is_err());
        assert!(Policy::parse("key value\n").is_err());
        assert!(Policy::parse("k = [1, 2]\n").is_err());
        assert!(Policy::parse("k = \"open\n").is_err());
    }

    #[test]
    fn builtin_policy_is_valid() {
        let p = Policy::builtin();
        assert!(p.list("paths.exclude").contains(&"vendor".to_string()));
        assert_eq!(p.list("rules.wall-clock.allowed_crates"), vec!["bench"]);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../lint.toml");
        let text = std::fs::read_to_string(path).expect("read the workspace lint.toml");
        assert_eq!(p, Policy::parse(&text).expect("lint.toml parses"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let p = Policy::parse("# top\n\n[s]\n# mid\nk = \"v\"\n").expect("parses");
        assert_eq!(p.get("s.k"), Some(&Value::Str("v".into())));
    }
}
