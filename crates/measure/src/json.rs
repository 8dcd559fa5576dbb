//! A small, dependency-free JSON value type with an exact `f64`
//! round-trip, and the declarative codec every journal record, WAL line
//! and wire frame is written through.
//!
//! The workspace carries no serialization framework. Each record or
//! message is one [`codec!`](crate::codec!) table instead: its kind tag
//! and fields, each named once. The table generates both directions
//! through the [`Codec`] trait, and one error form for every field.
//! Three properties matter for the journal's bit-identical-resume
//! guarantee:
//!
//! * **Exact numbers.** Floats are written with Rust's shortest-repr
//!   formatting (`{:?}`), which round-trips every finite `f64` exactly.
//!   Non-finite values, which JSON cannot express as numbers, are
//!   encoded as the strings `"NaN"`, `"inf"`, and `"-inf"` and revived
//!   by [`JsonValue::as_f64`]. Integers above 2^53 are written as
//!   decimal strings, so every `u64` survives.
//! * **Deterministic output.** Object keys are kept in insertion order,
//!   so encoding the same record twice yields byte-identical lines.
//! * **No silent defaults.** A field that is present but cannot be
//!   decoded is an error; only an absent optional field reads as its
//!   default.

use std::fmt::Write as _;

use audit_cpu::Opcode;
use audit_error::{AuditError, AuditResult};

use crate::fault::FaultPlan;

/// A parsed JSON value.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum JsonValue {
    /// `null` (the default).
    #[default]
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always carried as `f64`; integers up to 2^53
    /// survive exactly).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, keys in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs (insertion order kept).
    pub fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Encodes a float, mapping non-finite values to marker strings.
    pub fn from_f64(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Number(v)
        } else if v.is_nan() {
            JsonValue::String("NaN".into())
        } else if v > 0.0 {
            JsonValue::String("inf".into())
        } else {
            JsonValue::String("-inf".into())
        }
    }

    /// Encodes an unsigned integer (exact up to 2^53).
    pub fn from_u64(v: u64) -> JsonValue {
        JsonValue::Number(v as f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, reviving the non-finite markers written by
    /// [`JsonValue::from_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            JsonValue::String(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a single-line JSON string (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(v) => {
                // {:?} is Rust's shortest round-trip repr; integers get a
                // trailing `.0` stripped so counters stay readable.
                let s = format!("{v:?}");
                out.push_str(s.strip_suffix(".0").unwrap_or(&s));
            }
            JsonValue::String(s) => write_string(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document. Trailing content is an error.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(JsonError {
                offset: pos,
                message: "trailing content after document".into(),
            });
        }
        Ok(value)
    }
}

/// Parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn err(offset: usize, message: impl Into<String>) -> JsonError {
    JsonError {
        offset,
        message: message.into(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_lit(bytes, pos, b"null", JsonValue::Null),
        Some(b't') => parse_lit(bytes, pos, b"true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(JsonValue::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(err(*pos, "expected `,` or `]` in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected `:` after object key"));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(pairs));
                    }
                    _ => return Err(err(*pos, "expected `,` or `}` in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &[u8],
    value: JsonValue,
) -> Result<JsonValue, JsonError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(*pos, "invalid literal"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(err(*pos, "expected string"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogates are not produced by our writer; map
                        // them (and any invalid scalar) to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar at a time.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| err(*pos, "invalid utf-8 in string"))?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| err(start, format!("invalid number `{text}`")))
}

/// The fields of one JSON object, in write order.
pub type Fields = Vec<(String, JsonValue)>;

/// A type with one JSON encoding, used for both directions.
/// [`codec!`](crate::codec!) implements it for leaf types, records and
/// tagged messages.
pub trait Codec: Sized {
    /// Encodes the value.
    fn encode(&self) -> JsonValue;

    /// Decodes a value [`Codec::encode`] wrote.
    ///
    /// # Errors
    ///
    /// [`AuditError::Journal`] (line 0) with the reason when `v` has the
    /// wrong type or range. A type that validates more (a fault spec, a
    /// measurement window, a schema) returns its own variant.
    fn decode(v: &JsonValue) -> AuditResult<Self>;
}

/// A [`codec!`](crate::codec!) record, whose fields can also be written
/// inline into an enclosing object: a tagged message variant or a
/// `flatten` row.
pub trait Record: Sized {
    /// Appends the record's fields in table order.
    fn write_fields(&self, out: &mut Fields);

    /// Reads the record's fields from an object.
    ///
    /// # Errors
    ///
    /// As [`Codec::decode`], naming the record and the field.
    fn read_fields(v: &JsonValue) -> AuditResult<Self>;
}

fn reason(message: impl Into<String>) -> AuditError {
    AuditError::journal(0, message)
}

/// Prefixes a decode failure's reason with where it happened. Other
/// error variants pass through unchanged.
fn within(e: AuditError, at: impl std::fmt::Display) -> AuditError {
    match e {
        AuditError::Journal { line: 0, message } => reason(format!("{at}: {message}")),
        other => other,
    }
}

/// Reads the required field `key` of `record`: "`record` has no `key`"
/// when absent, the decode error prefixed with "`record.key`" when
/// malformed.
pub fn field<T: Codec>(v: &JsonValue, record: &str, key: &str) -> AuditResult<T> {
    let value = v
        .get(key)
        .ok_or_else(|| reason(format!("`{record}` has no `{key}`")))?;
    T::decode(value).map_err(|e| within(e, format_args!("`{record}.{key}`")))
}

/// Reads an optional field: its default when absent. A present field
/// must decode, as in [`field`].
pub fn optional<T: Codec + Default>(v: &JsonValue, record: &str, key: &str) -> AuditResult<T> {
    match v.get(key) {
        None => Ok(T::default()),
        Some(_) => field(v, record, key),
    }
}

/// True when an `if_set` row leaves `v` out of the object.
pub fn is_default<T: Default + PartialEq>(v: &T) -> bool {
    *v == T::default()
}

/// The value as a string slice, or the decode error.
pub fn text(v: &JsonValue) -> AuditResult<&str> {
    v.as_str().ok_or_else(|| reason("expected a string"))
}

/// Decodes a string tag through `parse`.
pub fn tag<T>(v: &JsonValue, parse: impl FnOnce(&str) -> Option<T>) -> AuditResult<T> {
    let s = text(v)?;
    parse(s).ok_or_else(|| reason(format!("unknown tag `{s}`")))
}

/// The `kind` tag of a tagged message.
pub fn kind_of<'a>(v: &'a JsonValue, message: &str) -> AuditResult<&'a str> {
    v.get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| reason(format!("`{message}` has no string `kind`")))
}

/// The error for a `kind` tag no table lists.
pub fn unknown_kind(kind: &str) -> AuditError {
    reason(format!("unknown kind `{kind}`"))
}

/// A narrower unsigned integer, read with a checked conversion: a value
/// that does not fit is an error, never truncated.
fn narrow<T: TryFrom<u64>>(v: &JsonValue) -> AuditResult<T> {
    let n = u64::decode(v)?;
    let name = std::any::type_name::<T>();
    T::try_from(n).map_err(|_| reason(format!("{n} does not fit in {name}")))
}

crate::codec! {
    leaf
    /// Exact over the whole range: a number up to 2^53, a decimal
    /// string above it.
    u64: |x| if *x <= 1 << 53 { JsonValue::Number(*x as f64) } else { x.to_string().encode() },
        |v| v.as_u64().or_else(|| v.as_str()?.parse().ok())
            .ok_or_else(|| reason("expected an unsigned integer"));
    u32: |x| u64::from(*x).encode(), |v| narrow(v);
    u8: |x| u64::from(*x).encode(), |v| narrow(v);
    usize: |x| (*x as u64).encode(), |v| narrow(v);
    /// Bit-exact, non-finite values included.
    f64: |x| JsonValue::from_f64(*x), |v| v.as_f64().ok_or_else(|| reason("expected a number"));
    bool: |x| JsonValue::Bool(*x), |v| v.as_bool().ok_or_else(|| reason("expected a bool"));
    String: |x| JsonValue::String(x.clone()), |v| text(v).map(str::to_string);
    /// Free-form payloads, carried as they are.
    JsonValue: |x| x.clone(), |v| Ok(v.clone());
    /// The stable opcode name.
    Opcode: |x| JsonValue::String(x.name().into()), |v| tag(v, Opcode::from_name);
    /// The `SEED:KEY=VALUE,...` spec string.
    FaultPlan: |x| JsonValue::String(x.spec_string()), |v| FaultPlan::parse(text(v)?);
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Codec::encode).collect())
    }

    fn decode(v: &JsonValue) -> AuditResult<Self> {
        v.as_array()
            .ok_or_else(|| reason("expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, item)| T::decode(item).map_err(|e| within(e, format_args!("item {i}"))))
            .collect()
    }
}

impl<T: Codec> Codec for Option<T> {
    /// `None` is what an `if_set` row leaves out; a present value always
    /// decodes to `Some` (a `null` is a mistyped value, not an absence).
    fn encode(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Codec::encode)
    }

    fn decode(v: &JsonValue) -> AuditResult<Self> {
        T::decode(v).map(Some)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    /// A two-element array.
    fn encode(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.encode(), self.1.encode()])
    }

    fn decode(v: &JsonValue) -> AuditResult<Self> {
        match v.as_array() {
            Some([a, b]) => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err(reason("expected a 2-element array")),
        }
    }
}

/// Declares the JSON codec of a record or of a tagged message. Each
/// field is named once; the table generates both directions and the
/// error text.
///
/// `codec! { leaf T: |x| encode, |v| decode; ... }` implements [`Codec`]
/// for types with a hand-written encoding: one expression each way.
/// `codec! { record T "name" { rows } }` implements [`Codec`] (an
/// object) and [`Record`] for the struct `T`. `codec! { enum E "name" {
/// "tag" => Variant { rows }, ... } }` implements [`Codec`] for the enum
/// `E` as an object whose `kind` tag picks the variant, plus an inherent
/// `kind()`. A variant is `{ rows }`, `{}` (no fields), or `(R)`: the
/// fields of the [`Record`] `R`, inline. Every row ends in a comma:
///
/// | row                    | written                         | read when absent |
/// |------------------------|---------------------------------|------------------|
/// | `f`                    | always                          | an error         |
/// | `f as key`             | always, under `key`             | an error         |
/// | `f: or_default`        | always                          | the default      |
/// | `f: if_set`            | unless it equals its default    | the default      |
/// | `f: if_set(pred)`      | when `pred(&f)`                 | the default      |
/// | `f: flatten`           | the [`Record`]'s fields, inline | per field        |
/// | `f: with(write, read)` | `write(&f, out)`                | `read(v, name)`  |
/// | `f: const(expr)`       | `expr` (no struct field)        | ignored          |
/// | `f: retired(error)`    | never (no struct field)         | ignored          |
///
/// A `retired` field that is present fails as `Err(error("f"))`.
/// A present field that fails to decode is an error, never the default.
/// Errors read "`name` has no `f`" or "`name.f`: reason". `check path`
/// after a table or a variant runs `path(&value)?` on each decoded
/// value; `else path` after an enum table maps a tag it does not list
/// to `Err(path(kind))` (default: "unknown kind").
#[macro_export]
macro_rules! codec {
    (leaf $($(#[$doc:meta])* $t:ty: |$x:ident| $encode:expr, |$v:ident| $decode:expr;)*) => {$(
        impl $crate::json::Codec for $t {
            $(#[$doc])*
            fn encode(&self) -> $crate::json::JsonValue {
                let $x = self;
                $encode
            }

            fn decode($v: &$crate::json::JsonValue) -> ::audit_error::AuditResult<Self> {
                $decode
            }
        }
    )*};
    (record $T:ident $name:literal { $($rows:tt)* } $(check $check:path)?) => {
        $crate::codec! { @rows [@record $T $name [$($check)?]] [] [] $($rows)* }
    };
    (enum $E:ident $(<$lt:lifetime>)? $name:literal {
        $($tag:literal => $V:ident $body:tt $(check $check:path)?,)*
    } $(else $other:path)?) => {
        impl$(<$lt>)? $E$(<$lt>)? {
            /// The `kind` tag this value is written with.
            pub fn kind(&self) -> &'static str {
                match self { $(Self::$V { .. } => $tag,)* }
            }
        }

        impl$(<$lt>)? $crate::json::Codec for $E$(<$lt>)? {
            fn encode(&self) -> $crate::json::JsonValue {
                match self { $(Self::$V { .. } => $crate::codec!(@variant_enc self $V $body),)* }
            }

            fn decode(v: &$crate::json::JsonValue) -> ::audit_error::AuditResult<Self> {
                match $crate::json::kind_of(v, $name)? {
                    $($tag => {
                        let value = $crate::codec!(@variant_dec v $tag $V $body);
                        $($check(&value)?;)?
                        Ok(value)
                    })*
                    other => Err($crate::codec!(@other other $($other)?)),
                }
            }
        }
    };

    (@other $kind:ident) => { $crate::json::unknown_kind($kind) };
    (@other $kind:ident $other:path) => { $other($kind) };

    (@variant_enc $self:ident $V:ident ($T:ty)) => {{
        let Self::$V(record) = $self else { unreachable!() };
        let mut out = ::std::vec::Vec::with_capacity(16);
        out.push(("kind".to_string(), $crate::json::JsonValue::String($self.kind().into())));
        $crate::json::Record::write_fields(record, &mut out);
        $crate::json::JsonValue::Object(out)
    }};
    (@variant_enc $self:ident $V:ident { $($rows:tt)* }) => {
        $crate::codec! { @rows [@enc $self $V] [] [] $($rows)* }
    };
    (@variant_dec $v:ident $tag:literal $V:ident ($T:ty)) => {
        Self::$V(<$T as $crate::json::Record>::read_fields($v)?)
    };
    (@variant_dec $v:ident $tag:literal $V:ident { $($rows:tt)* }) => {
        $crate::codec! { @rows [@dec $v $tag $V] [] [] $($rows)* }
    };

    // Normalizes each row to `[field key mode (args)]`, and collects the
    // struct fields (every row but `const` and `retired`).
    (@rows $ctx:tt $rows:tt $fields:tt $f:ident as $k:ident $($rest:tt)*) => {
        $crate::codec! { @row $ctx $rows $fields $f $k $($rest)* }
    };
    (@rows $ctx:tt $rows:tt $fields:tt $f:ident $($rest:tt)*) => {
        $crate::codec! { @row $ctx $rows $fields $f $f $($rest)* }
    };
    (@row $ctx:tt [$($r:tt)*] $fields:tt
        $f:ident $k:ident : $m:ident $(($($a:tt)*))?, $($rest:tt)*) => {
        $crate::codec! { @field $ctx [$($r)* [$f $k $m ($($($a)*)?)]] $fields $f $m $($rest)* }
    };
    (@row $ctx:tt [$($r:tt)*] $fields:tt $f:ident $k:ident, $($rest:tt)*) => {
        $crate::codec! { @field $ctx [$($r)* [$f $k required ()]] $fields $f required $($rest)* }
    };
    (@field $ctx:tt $rows:tt $fields:tt $f:ident const $($rest:tt)*) => {
        $crate::codec! { @rows $ctx $rows $fields $($rest)* }
    };
    (@field $ctx:tt $rows:tt $fields:tt $f:ident retired $($rest:tt)*) => {
        $crate::codec! { @rows $ctx $rows $fields $($rest)* }
    };
    (@field $ctx:tt $rows:tt [$($fs:ident)*] $f:ident $m:ident $($rest:tt)*) => {
        $crate::codec! { @rows $ctx $rows [$($fs)* $f] $($rest)* }
    };

    // Emits, once every row is normalized.
    (@rows [@record $T:ident $name:literal [$($check:path)?]]
        [$([$f:ident $k:ident $m:ident $a:tt])*] [$($field:ident)*]) => {
        impl $crate::json::Record for $T {
            fn write_fields(&self, out: &mut $crate::json::Fields) {
                let Self { $($field),* } = self;
                $($crate::codec!(@put out $f $k $m $a);)*
            }

            fn read_fields(v: &$crate::json::JsonValue) -> ::audit_error::AuditResult<Self> {
                $($crate::codec!(@take v $name $f $k $m $a);)*
                let value = Self { $($field),* };
                $($check(&value)?;)?
                Ok(value)
            }
        }

        impl $crate::json::Codec for $T {
            fn encode(&self) -> $crate::json::JsonValue {
                let mut out = ::std::vec::Vec::with_capacity(<[&str]>::len(&[$(stringify!($k)),*]));
                $crate::json::Record::write_fields(self, &mut out);
                $crate::json::JsonValue::Object(out)
            }

            fn decode(v: &$crate::json::JsonValue) -> ::audit_error::AuditResult<Self> {
                match v {
                    $crate::json::JsonValue::Object(_) => $crate::json::Record::read_fields(v),
                    _ => Err(::audit_error::AuditError::journal(0, "expected an object")),
                }
            }
        }
    };
    (@rows [@enc $self:ident $V:ident]
        [$([$f:ident $k:ident $m:ident $a:tt])*] [$($field:ident)*]) => {{
        let Self::$V { $($field),* } = $self else { unreachable!() };
        let mut fields = ::std::vec::Vec::with_capacity(1 + <[&str]>::len(&[$(stringify!($k)),*]));
        fields.push(("kind".to_string(), $crate::json::JsonValue::String($self.kind().into())));
        let out = &mut fields;
        $($crate::codec!(@put out $f $k $m $a);)*
        $crate::json::JsonValue::Object(fields)
    }};
    (@rows [@dec $v:ident $tag:literal $V:ident]
        [$([$f:ident $k:ident $m:ident $a:tt])*] [$($field:ident)*]) => {{
        $($crate::codec!(@take $v $tag $f $k $m $a);)*
        Self::$V { $($field),* }
    }};

    // One row, written.
    (@put $out:ident $f:ident $k:ident if_set ()) => {
        if !$crate::json::is_default($f) {
            $crate::codec!(@put $out $f $k required ());
        }
    };
    (@put $out:ident $f:ident $k:ident if_set ($pred:path)) => {
        if $pred($f) {
            $crate::codec!(@put $out $f $k required ());
        }
    };
    (@put $out:ident $f:ident $k:ident flatten ()) => {
        $crate::json::Record::write_fields($f, $out)
    };
    (@put $out:ident $f:ident $k:ident with ($write:path, $read:path)) => {
        $write($f, $out)
    };
    (@put $out:ident $f:ident $k:ident const ($value:expr)) => {
        $out.push((stringify!($k).to_string(), $crate::json::Codec::encode(&$value)))
    };
    (@put $out:ident $f:ident $k:ident retired ($error:path)) => {};
    (@put $out:ident $f:ident $k:ident $required_or_default:ident ()) => {
        $out.push((stringify!($k).to_string(), $crate::json::Codec::encode($f)))
    };

    // One row, read.
    (@take $v:ident $name:literal $f:ident $k:ident required ()) => {
        let $f = $crate::json::field($v, $name, stringify!($k))?;
    };
    (@take $v:ident $name:literal $f:ident $k:ident flatten ()) => {
        let $f = $crate::json::Record::read_fields($v)?;
    };
    (@take $v:ident $name:literal $f:ident $k:ident with ($write:path, $read:path)) => {
        let $f = $read($v, $name)?;
    };
    (@take $v:ident $name:literal $f:ident $k:ident const ($value:expr)) => {};
    (@take $v:ident $name:literal $f:ident $k:ident retired ($error:path)) => {
        if $v.get(stringify!($k)).is_some() {
            return Err($error(stringify!($k)));
        }
    };
    (@take $v:ident $name:literal $f:ident $k:ident or_default ()) => {
        let $f = $crate::json::optional($v, $name, stringify!($k))?;
    };
    (@take $v:ident $name:literal $f:ident $k:ident if_set $a:tt) => {
        let $f = $crate::json::optional($v, $name, stringify!($k))?;
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.25", "\"hi\""] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn f64_round_trip_is_exact() {
        for v in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -2.2250738585072014e-308,
            1.2345678901234567,
            -0.0,
        ] {
            let encoded = JsonValue::from_f64(v).encode();
            let back = JsonValue::parse(&encoded).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {encoded} -> {back}");
        }
    }

    #[test]
    fn non_finite_floats_use_markers() {
        assert_eq!(JsonValue::from_f64(f64::NAN).encode(), "\"NaN\"");
        assert_eq!(JsonValue::from_f64(f64::INFINITY).encode(), "\"inf\"");
        assert_eq!(JsonValue::from_f64(f64::NEG_INFINITY).encode(), "\"-inf\"");
        assert!(JsonValue::parse("\"NaN\"")
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(
            JsonValue::parse("\"-inf\"").unwrap().as_f64(),
            Some(f64::NEG_INFINITY)
        );
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::object(vec![
            ("zebra", JsonValue::from_u64(1)),
            ("alpha", JsonValue::from_u64(2)),
        ]);
        assert_eq!(v.encode(), "{\"zebra\":1,\"alpha\":2}");
        let back = JsonValue::parse(&v.encode()).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("alpha").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"kind":"generation","pop":[["SimdFma",3,12,13,false],["IAdd",1,2,3,true]],"scores":[0.081,-0.5],"n":42}"#;
        let v = JsonValue::parse(text).unwrap();
        assert_eq!(v.encode(), text);
        assert_eq!(v.get("kind").unwrap().as_str(), Some("generation"));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(42));
        let pop = v.get("pop").unwrap().as_array().unwrap();
        assert_eq!(pop.len(), 2);
        assert_eq!(pop[0].as_array().unwrap()[0].as_str(), Some("SimdFma"));
        assert_eq!(pop[1].as_array().unwrap()[4].as_bool(), Some(true));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line1\nline2\t\"quoted\" \\ back \u{1}";
        let encoded = JsonValue::String(s.into()).encode();
        let back = JsonValue::parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(s));
    }

    #[test]
    fn unicode_survives() {
        let s = "π ≈ 3.14159 — μarch";
        let encoded = JsonValue::String(s.into()).encode();
        assert_eq!(JsonValue::parse(&encoded).unwrap().as_str(), Some(s));
    }

    #[test]
    fn parse_errors_carry_offsets() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,2").is_err());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_err());
        let e = JsonValue::parse("nul").unwrap_err();
        assert!(e.to_string().contains("byte"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Number(-3.0).as_u64(), None);
        assert_eq!(JsonValue::Number(7.0).as_u64(), Some(7));
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.encode(), "{\"a\":[1,2],\"b\":null}");
    }
}
