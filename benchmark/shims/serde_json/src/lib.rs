//! Benchmark stand-in for the `serde_json` subset JETS uses:
//! `from_str`, `to_string`, `to_writer`. The work happens in the
//! `serde` stand-in, which is JSON-only; this crate is its front door.

use serde::json::Parser;
use std::io::Write;

pub use serde::json::Error;

pub type Result<T> = std::result::Result<T, Error>;

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn from_str<'a, T>(s: &'a str) -> Result<T>
where
    T: serde::Deserialize<'a>,
{
    let mut p = Parser::new(s);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}

/// Serialize to a fresh `String`.
pub fn to_string<T>(value: &T) -> Result<String>
where
    T: serde::Serialize + ?Sized,
{
    let mut buf = Vec::with_capacity(128);
    value.serialize(&mut buf)?;
    String::from_utf8(buf).map_err(|e| Error::new(e.to_string(), 0))
}

/// Serialize straight into `writer`.
pub fn to_writer<W, T>(mut writer: W, value: &T) -> Result<()>
where
    W: Write,
    T: serde::Serialize + ?Sized,
{
    Ok(value.serialize(&mut writer)?)
}
