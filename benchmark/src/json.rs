//! JSON text for `serde::Value` trees (the vendored `serde_json` renders
//! only `Serialize` types, and `Value` is not one).

use serde::{Serialize, Value};

struct Raw<'a>(&'a Value);

impl Serialize for Raw<'_> {
    fn serialize(&self) -> Value {
        self.0.clone()
    }
}

/// Indented JSON.
pub fn render(value: &Value) -> String {
    serde_json::to_string_pretty(&Raw(value)).expect("rendering a value tree cannot fail")
}

/// One-line JSON.
pub fn render_compact(value: &Value) -> String {
    serde_json::to_string(&Raw(value)).expect("rendering a value tree cannot fail")
}

/// An object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Member `key` of an object as a number.
pub fn number(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// Member `key` of an object as a string.
pub fn string<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Member `key` of an object as an array.
pub fn array<'a>(value: &'a Value, key: &str) -> Option<&'a [Value]> {
    match value.get(key)? {
        Value::Array(items) => Some(items),
        _ => None,
    }
}
