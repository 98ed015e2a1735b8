//! Benchmark stand-in for the `serde` subset JETS uses — functional,
//! but JSON-only.
//!
//! The real serde separates data model from format; the tree only ever
//! pairs it with `serde_json`, so this stand-in fuses the two:
//! [`Serialize`] writes JSON text straight into an `io::Write` (no
//! value tree, no intermediate buffer) and [`Deserialize`] reads from a
//! [`json::Parser`] over the input `&str`. The derive macros in
//! `serde_derive` emit impls of exactly these traits.
//!
//! Covered, because the tree uses it: non-generic structs with named
//! fields, externally tagged enums with unit / struct / newtype
//! variants, `#[serde(default)]`, `skip_serializing_if = "path"`,
//! missing `Option` fields read as `None`, unknown keys skipped.
//! `f64` exists only for the benchmark's own result files.
//!
//! This is the code `protocol.*` floors measure until the workspace
//! drops serde; see `benchmark/README.md`.

pub mod json;

use json::{Error, Parser};
use std::io::{self, Write};

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A value that can write itself as JSON.
pub trait Serialize {
    /// Write `self` as JSON text into `w`.
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()>;
}

/// A value that can be read back from JSON.
pub trait Deserialize<'de>: Sized {
    /// Parse one value at the parser's cursor.
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error>;

    /// The value of a struct field absent from the input. Only
    /// `Option` has one (`None`); everything else is an error.
    fn missing(field: &'static str) -> Result<Self, Error> {
        Err(Error::new(format!("missing field `{field}`"), 0))
    }
}

pub mod ser {
    pub use crate::Serialize;
}

pub mod de {
    pub use crate::Deserialize;

    /// A type deserializable from any input lifetime.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
                json::write_u64(w, *self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                let at = p.pos();
                <$t>::try_from(p.parse_u64()?).map_err(|_| Error::new("integer out of range", at))
            }
        }
    )*};
}
unsigned!(u8, u16, u32, u64, usize);

macro_rules! signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
                let v = *self as i64;
                if v < 0 {
                    w.write_all(b"-")?;
                }
                json::write_u64(w, v.unsigned_abs())
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                let at = p.pos();
                <$t>::try_from(p.parse_i64()?).map_err(|_| Error::new("integer out of range", at))
            }
        }
    )*};
}
signed!(i8, i16, i32, i64, isize);

impl Serialize for bool {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(if *self { b"true" } else { b"false" })
    }
}
impl<'de> Deserialize<'de> for bool {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_bool()
    }
}

impl Serialize for f64 {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        // JSON has no NaN/inf; like serde_json, write them as null.
        if self.is_finite() {
            write!(w, "{self:?}")
        } else {
            w.write_all(b"null")
        }
    }
}
impl<'de> Deserialize<'de> for f64 {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        p.parse_f64()
    }
}

impl Serialize for str {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        json::write_str(w, self)
    }
}
impl Serialize for String {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        json::write_str(w, self)
    }
}
impl<'de> Deserialize<'de> for String {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        Ok(p.parse_str()?.into_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        (**self).serialize(w)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        match self {
            Some(v) => v.serialize(w),
            None => w.write_all(b"null"),
        }
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        if p.eat_null()? {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }
    fn missing(_field: &'static str) -> Result<Self, Error> {
        Ok(None)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(b"[")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            v.serialize(w)?;
        }
        w.write_all(b"]")
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
        self.as_slice().serialize(w)
    }
}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
        let mut out = Vec::new();
        p.expect(b'[')?;
        let mut first = true;
        while p.next_element(&mut first)? {
            out.push(T::deserialize(p)?);
        }
        Ok(out)
    }
}

macro_rules! tuple {
    ($($name:ident . $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<W: Write>(&self, w: &mut W) -> io::Result<()> {
                let mut sep: &[u8] = b"[";
                $(
                    w.write_all(sep)?;
                    self.$idx.serialize(w)?;
                    sep = b",";
                )+
                let _ = sep;
                w.write_all(b"]")
            }
        }
        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize(p: &mut Parser<'de>) -> Result<Self, Error> {
                p.expect(b'[')?;
                let mut first = true;
                let value = ($(
                    {
                        if !p.next_element(&mut first)? {
                            return Err(p.error("tuple too short"));
                        }
                        $name::deserialize(p)?
                    },
                )+);
                if p.next_element(&mut first)? {
                    return Err(p.error("tuple too long"));
                }
                Ok(value)
            }
        }
    };
}
tuple!(A.0, B.1);
tuple!(A.0, B.1, C.2);
