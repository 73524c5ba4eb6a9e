//! Reading JSON (result lines, span dumps, `BENCHMARK.json`) through the
//! serde shim's value tree.

use serde::{DeError, Deserialize, Value};

/// Any JSON document, as the shim's value tree.
struct Document(Value);

impl Deserialize for Document {
    fn from_value(value: &Value) -> Result<Document, DeError> {
        Ok(Document(value.clone()))
    }
}

/// Parses JSON text.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Document>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}

/// The member `key` of an object.
pub fn get<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

/// Follows a path of object members.
pub fn at<'v>(value: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(value, |v, key| get(v, key))
}

/// A number as `f64`.
pub fn number(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// A boolean.
pub fn boolean(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_nested_members() {
        let v = parse(r#"{"a": {"b": [1, 2]}, "c": 2.5, "d": true, "e": "x"}"#).unwrap();
        assert_eq!(
            at(&v, &["a", "b"]).and_then(Value::as_seq).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(get(&v, "c").and_then(number), Some(2.5));
        assert_eq!(get(&v, "d").and_then(boolean), Some(true));
        assert_eq!(get(&v, "e").and_then(Value::as_str), Some("x"));
        assert!(get(&v, "missing").is_none());
        assert!(parse("{").is_err());
    }
}
