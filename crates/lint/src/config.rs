//! `lint.toml` policy file.
//!
//! The workspace has no TOML dependency (vendored stand-ins only), so this
//! module hand-parses the small TOML subset the policy needs: `[section]`
//! and `[section.sub]` headers and `key = ["a", "b"]` (single-line string
//! arrays). Comments start with `#`. Anything outside this subset,
//! scalar values included, is a hard error — the policy file gating CI
//! must not half-parse.

use std::collections::BTreeMap;

/// The full policy: `section.key` → its string array.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Policy {
    entries: BTreeMap<String, Vec<String>>,
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
            let value = parse_array(val.trim()).map_err(|e| format!("line {lineno}: {e}"))?;
            entries.insert(full_key, value);
        }
        Ok(Policy { entries })
    }

    /// String-array lookup; missing key yields an empty list.
    pub fn list(&self, key: &str) -> Vec<String> {
        self.entries.get(key).cloned().unwrap_or_default()
    }

    /// The workspace `lint.toml`, compiled in: the policy used when the
    /// linted root has no `lint.toml` of its own, and by the fixture
    /// tests.
    pub fn builtin() -> Policy {
        Policy::parse(include_str!("../../../lint.toml")).expect("workspace lint.toml parses")
    }
}

/// Parses `["a", "b"]`, a single-line array of strings.
fn parse_array(s: &str) -> Result<Vec<String>, String> {
    let Some(rest) = s.strip_prefix('[') else {
        return Err(format!("cannot parse value `{s}`"));
    };
    let Some(body) = rest.strip_suffix(']') else {
        return Err("unterminated array (arrays must be single-line)".into());
    };
    let mut out = Vec::new();
    for part in split_top_level(body) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some(rest) = part.strip_prefix('"') else {
            return Err("only string arrays are supported".into());
        };
        let Some(body) = rest.strip_suffix('"') else {
            return Err("unterminated string".into());
        };
        out.push(body.to_string());
    }
    Ok(out)
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
            "[paths]\nexclude = [\"vendor\", \"target\"]\n\n[rules.x]\nnames = [\"a, b\", \"\"]\nnone = []\n",
        )
        .expect("parses");
        assert_eq!(p.list("paths.exclude"), vec!["vendor", "target"]);
        assert_eq!(p.list("rules.x.names"), vec!["a, b", ""]);
        assert!(p.list("rules.x.none").is_empty());
        assert!(p.list("rules.x.missing").is_empty());
    }

    #[test]
    fn rejects_junk() {
        assert!(Policy::parse("[oops\n").is_err());
        assert!(Policy::parse("key value\n").is_err());
        assert!(Policy::parse("k = [1, 2]\n").is_err());
        assert!(Policy::parse("k = \"open\n").is_err());
        for scalar in ["k = true", "k = 3", "k = \"x\""] {
            let e = Policy::parse(&format!("[s]\n{scalar}\n")).expect_err(scalar);
            assert!(e.starts_with("line 2: cannot parse value"), "{scalar}: {e}");
        }
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
        let p = Policy::parse("# top\n\n[s]\n# mid\nk = [\"v\"]\n").expect("parses");
        assert_eq!(p.list("s.k"), vec!["v"]);
    }
}
