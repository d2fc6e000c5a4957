//! The serialization half of a subset of serde's data model.
//!
//! Each method kept has upstream `serde::ser`'s name and signature, so a
//! `Serialize` impl written here compiles against real serde. The subset
//! is what the workspace reaches: bool, `i64`, `u64`, `f64`, str,
//! `Option`, unit, sequences, tuples, maps and structs. Narrower
//! integers and `f32` widen inside their `Serialize` impls. There are no
//! enum, newtype, char or bytes entry points, and no compound traits for
//! tuple structs or variants. A `Serializer` impl written here would
//! not compile against upstream, which requires every method.

use std::fmt::Display;

/// Errors produced by a [`Serializer`].
pub trait Error: Sized + std::error::Error {
    /// Builds an error from an arbitrary message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be serialized.
pub trait Serialize {
    /// Serializes `self` into the given serializer.
    ///
    /// # Errors
    ///
    /// Propagates any error the serializer reports.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A format backend (`ugache_bench::json::to_value`), over the subset of
/// the data model in the module docs.
#[allow(missing_docs)]
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;

    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
}

/// Sequence serializer.
#[allow(missing_docs)]
pub trait SerializeSeq {
    type Ok;
    type Error: Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Tuple serializer.
#[allow(missing_docs)]
pub trait SerializeTuple {
    type Ok;
    type Error: Error;
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Map serializer.
#[allow(missing_docs)]
pub trait SerializeMap {
    type Ok;
    type Error: Error;
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Struct serializer.
#[allow(missing_docs)]
pub trait SerializeStruct {
    type Ok;
    type Error: Error;
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Implements `Serialize` for primitives; a narrower type widens (`as`
/// is lossless for every pair listed) to its kind's one entry point.
macro_rules! impl_serialize_primitive {
    ($($t:ty => $m:ident $(as $wide:ty)?),* $(,)?) => {
        $(impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$m(*self $(as $wide)?)
            }
        })*
    };
}

impl_serialize_primitive!(
    bool => serialize_bool,
    i8 => serialize_i64 as i64,
    i16 => serialize_i64 as i64,
    i32 => serialize_i64 as i64,
    i64 => serialize_i64,
    isize => serialize_i64 as i64,
    u8 => serialize_u64 as u64,
    u16 => serialize_u64 as u64,
    u32 => serialize_u64 as u64,
    u64 => serialize_u64,
    usize => serialize_u64 as u64,
    f32 => serialize_f64 as f64,
    f64 => serialize_f64,
);

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(v) => serializer.serialize_some(v),
            None => serializer.serialize_none(),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for item in self {
            seq.serialize_element(item)?;
        }
        seq.end()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

macro_rules! impl_serialize_tuple {
    ($($len:expr => ($($n:tt $t:ident)+))+) => {
        $(impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut tup = serializer.serialize_tuple($len)?;
                $(tup.serialize_element(&self.$n)?;)+
                tup.end()
            }
        })+
    };
}

impl_serialize_tuple! {
    1 => (0 T0)
    2 => (0 T0 1 T1)
    3 => (0 T0 1 T1 2 T2)
    4 => (0 T0 1 T1 2 T2 3 T3)
    5 => (0 T0 1 T1 2 T2 3 T3 4 T4)
    6 => (0 T0 1 T1 2 T2 3 T3 4 T4 5 T5)
}
