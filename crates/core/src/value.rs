//! The universal value type.
//!
//! FDM is higher-order: a value may itself be a function (a tuple function
//! nested in an attribute, a relation function stored under an attribute,
//! a database nested in a database, ... — paper §2.6 "Blurring the lines").
//! [`Value::Fn`] carries any of those via [`FnValue`].
//!
//! A string value is a [`Text`]: up to [`Text::INLINE_MAX`] bytes live
//! inside the `Value` itself, longer ones in a shared `Arc<str>`. Which of
//! the two a string uses is fixed by its length and cannot be observed:
//! `Eq`, `Ord`, `Hash`, `Display` and the encoded bytes are those of `str`.

use crate::error::{FdmError, Result};
use crate::function::FnValue;
use crate::types::ValueType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable string, the payload of [`Value::Str`].
///
/// A string of at most [`Text::INLINE_MAX`] bytes is stored inline, with
/// no allocation and no reference count; a longer one is a shared
/// `Arc<str>`. The representation is canonical — a short string is always
/// inline — and invisible: equality, order and hashing are exactly those
/// of `str` and read the bytes directly. `Text` dereferences to `str`.
///
/// # Examples
///
/// ```
/// use fdm_core::Text;
///
/// let short = Text::from("Alice");
/// let long = Text::from("a string longer than twenty-two bytes");
/// assert!(short.is_inline() && !long.is_inline());
/// assert!(short < long && short.starts_with("Al"));
/// ```
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the string, the rest is zero.
    Inline {
        len: u8,
        bytes: [u8; Text::INLINE_MAX],
    },
    Heap(Arc<str>),
}

impl Text {
    /// The longest string, in bytes, stored inline.
    pub const INLINE_MAX: usize = 22;

    /// The string's UTF-8 bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("inline text is copied from a str"),
            Repr::Heap(s) => s,
        }
    }

    /// `true` if the string is stored inline (exactly when it is at most
    /// [`Self::INLINE_MAX`] bytes long).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    /// The inline form of `s`, if it is short enough.
    fn inline(s: &str) -> Option<Text> {
        let mut bytes = [0; Text::INLINE_MAX];
        bytes.get_mut(..s.len())?.copy_from_slice(s.as_bytes());
        Some(Text(Repr::Inline {
            len: s.len() as u8,
            bytes,
        }))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Self {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(Arc::from(s))))
    }
}

impl From<&Arc<str>> for Text {
    /// Copies `s` when it is short enough to store inline, and shares it
    /// otherwise.
    fn from(s: &Arc<str>) -> Self {
        Text::inline(s).unwrap_or_else(|| Text(Repr::Heap(s.clone())))
    }
}

impl Deref for Text {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Text {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    /// `str` equality. The representation is canonical, so an inline and
    /// a shared string always differ in length; two inline strings are
    /// zero-padded, so their whole arrays compare.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Inline { len, bytes }, Repr::Inline { len: l, bytes: b }) => {
                len == l && bytes == b
            }
            (Repr::Heap(a), Repr::Heap(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    /// `str` order, which is the order of the UTF-8 bytes.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Text {
    /// Feeds the hasher what `str::hash` feeds it: the bytes, then `0xff`.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A single FDM value.
///
/// `Value` has a **total order** so it can serve as the key of persistent
/// maps (relation-function inputs). The order is: first by type rank
/// (`Unit < Bool < Int/Float < Str < List < Fn`), then within the type.
/// Ints and floats compare numerically with each other (so `1` and `1.0`
/// are *equal* as keys); floats use IEEE total order for NaN stability.
/// Function values compare by identity (pointer), which is stable within a
/// process run — adequate because function values are never used as stored
/// relation keys, only carried inside tuples.
#[derive(Clone)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// An immutable string.
    Str(Text),
    /// A list (composite keys, argument tuples of relationship functions).
    List(Arc<[Value]>),
    /// A function value — this is what makes FDM higher-order.
    Fn(FnValue),
}

impl Value {
    /// The value's 64-bit [`FxHasher`](crate::fxhash::FxHasher) hash —
    /// **the** hash every internal consumer must share (the tuple
    /// fingerprint cache, hash-bucketed grouping, the distinct-count
    /// sketches), so a value hashes identically everywhere. Honors this
    /// type's cross-type numeric `Eq`: `Eq ⟹ equal hash`.
    pub fn fx_hash(&self) -> u64 {
        let mut h = crate::fxhash::FxHasher::default();
        self.hash(&mut h);
        h.finish()
    }

    /// Builds a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Text::from(s.as_ref()))
    }

    /// Builds a list value.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        Value::List(items.into_iter().collect())
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            Value::Unit => ValueType::Unit,
            Value::Bool(_) => ValueType::Bool,
            Value::Int(_) => ValueType::Int,
            Value::Float(_) => ValueType::Float,
            Value::Str(_) => ValueType::Str,
            Value::List(_) => ValueType::List,
            Value::Fn(_) => ValueType::Function,
        }
    }

    /// Extracts an `i64`, or reports a type mismatch in `context`.
    pub fn as_int(&self, context: &str) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::Int,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Extracts an `f64` (accepting ints, which widen), or reports a type
    /// mismatch in `context`.
    pub fn as_float(&self, context: &str) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::Float,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Extracts a string slice, or reports a type mismatch in `context`.
    pub fn as_str(&self, context: &str) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s.as_str()),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::Str,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Extracts a bool, or reports a type mismatch in `context`.
    pub fn as_bool(&self, context: &str) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::Bool,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Extracts a list slice, or reports a type mismatch in `context`.
    pub fn as_list(&self, context: &str) -> Result<&[Value]> {
        match self {
            Value::List(xs) => Ok(xs),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::List,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Extracts a function value, or reports a type mismatch in `context`.
    pub fn as_fn(&self, context: &str) -> Result<&FnValue> {
        match self {
            Value::Fn(f) => Ok(f),
            other => Err(FdmError::TypeMismatch {
                expected: ValueType::Function,
                found: other.value_type(),
                context: context.to_string(),
            }),
        }
    }

    /// Numeric addition with int/float promotion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (a, b) if a.value_type().is_numeric() && b.value_type().is_numeric() => {
                Ok(Value::Float(a.as_float("add")? + b.as_float("add")?))
            }
            (Value::Str(a), Value::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Value::str(s))
            }
            (a, b) => Err(FdmError::TypeMismatch {
                expected: a.value_type(),
                found: b.value_type(),
                context: "addition".to_string(),
            }),
        }
    }

    /// Numeric subtraction with int/float promotion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            (a, b) if a.value_type().is_numeric() && b.value_type().is_numeric() => {
                Ok(Value::Float(a.as_float("sub")? - b.as_float("sub")?))
            }
            (a, b) => Err(FdmError::TypeMismatch {
                expected: a.value_type(),
                found: b.value_type(),
                context: "subtraction".to_string(),
            }),
        }
    }

    /// Numeric multiplication with int/float promotion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (a, b) if a.value_type().is_numeric() && b.value_type().is_numeric() => {
                Ok(Value::Float(a.as_float("mul")? * b.as_float("mul")?))
            }
            (a, b) => Err(FdmError::TypeMismatch {
                expected: a.value_type(),
                found: b.value_type(),
                context: "multiplication".to_string(),
            }),
        }
    }

    /// Numeric division; integer division for int/int (errors on zero).
    pub fn div(&self, other: &Value) -> Result<Value> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(FdmError::Other("division by zero".to_string())),
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_div(*b))),
            (a, b) if a.value_type().is_numeric() && b.value_type().is_numeric() => {
                Ok(Value::Float(a.as_float("div")? / b.as_float("div")?))
            }
            (a, b) => Err(FdmError::TypeMismatch {
                expected: a.value_type(),
                found: b.value_type(),
                context: "division".to_string(),
            }),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Unit => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::List(_) => 4,
            Value::Fn(_) => 5,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => self.cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        // Keys are mostly ints. Testing for one variant reads the tag byte
        // once, where the full match first decodes it (the string shares
        // that byte with the other variants).
        if let (Int(a), Int(b)) = (self, other) {
            return a.cmp(b);
        }
        match (self, other) {
            (Unit, Unit) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Cross-numeric comparison: compare as floats, but make exact
            // int-float ties deterministic.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (List(a), List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let ord = x.cmp(y);
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Fn(a), Fn(b)) => a.identity().cmp(&b.identity()),
            (a, b) => a.type_rank().cmp(&b.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Unit => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Every numeric hashes through the total-order bit pattern of
            // its f64 form. `Int(a)` can compare equal to `Float(b)` only
            // when `a as f64` is bit-identical to `b` (the Ord
            // cross-numeric arm), so hashing the *rounded* bits — not the
            // exact integer — is what keeps Eq ⟹ equal-hash beyond 2^53
            // too. Distinct large ints that round to the same float share
            // a hash bucket; the full equality compare still separates
            // them, and `-0.0` vs `0.0` (unequal under `total_cmp`) hash
            // apart, which is allowed.
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Value::List(xs) => {
                5u8.hash(state);
                xs.len().hash(state);
                for x in xs.iter() {
                    x.hash(state);
                }
            }
            Value::Fn(f) => {
                6u8.hash(state);
                f.identity().hash(state);
            }
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::List(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Value::Fn(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_types() {
        let vals = [
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(3),
            Value::str("a"),
            Value::list([Value::Int(1)]),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} should sort before {}", w[0], w[1]);
        }
    }

    #[test]
    fn int_float_cross_comparison() {
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert!(Value::Int(1) < Value::Float(1.5));
        assert!(Value::Float(0.5) < Value::Int(1));
        // equal keys must hash equal
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn eq_implies_equal_hash_beyond_f64_precision() {
        // 2^53 + 1 rounds to 2^53 as f64, so this int and float compare
        // equal through the cross-numeric arm — they must hash equal too
        // (hash-bucketed consumers would otherwise drop data).
        let i = Value::Int((1i64 << 53) + 1);
        let f = Value::Float((1i64 << 53) as f64);
        assert_eq!(i, f);
        assert_eq!(hash_of(&i), hash_of(&f));
        // the exact int is equal to the same-valued float as well
        let i0 = Value::Int(1i64 << 53);
        assert_eq!(i0, f);
        assert_eq!(hash_of(&i0), hash_of(&f));
        // -0.0 and 0.0 are distinct under total_cmp, so they may (and do)
        // hash apart — and neither breaks the Eq ⟹ equal-hash rule
        assert_ne!(Value::Float(-0.0), Value::Float(0.0));
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Float(f64::INFINITY) < nan);
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::list([Value::Int(1), Value::Int(2)]);
        let b = Value::list([Value::Int(1), Value::Int(3)]);
        let c = Value::list([Value::Int(1)]);
        assert!(a < b);
        assert!(c < a, "prefix sorts first");
    }

    #[test]
    fn arithmetic_promotion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::str("foo").add(&Value::str("bar")).unwrap(),
            Value::str("foobar")
        );
        assert!(Value::Int(1).add(&Value::Bool(true)).is_err());
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert_eq!(Value::Int(7).div(&Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(7.0).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
    }

    #[test]
    fn accessors_report_context() {
        let err = Value::str("x").as_int("the test").unwrap_err();
        assert!(err.to_string().contains("the test"));
        assert_eq!(Value::Int(5).as_float("f").unwrap(), 5.0);
        assert!(Value::Bool(true).as_bool("b").unwrap());
        assert_eq!(Value::list([Value::Int(1)]).as_list("l").unwrap().len(), 1);
    }

    #[test]
    fn value_stays_24_bytes_with_strings_inline() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Text>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24, "a niche is left");
    }

    #[test]
    fn strings_of_at_most_22_bytes_are_inline() {
        let is_inline = |s: &str| match Value::str(s) {
            Value::Str(t) => {
                assert_eq!((t.as_str(), t.len()), (s, s.len()));
                t.is_inline()
            }
            other => panic!("{other} is not a string"),
        };
        let x = |n: usize| "x".repeat(n);
        assert!(is_inline(""));
        assert!(is_inline(&x(22)));
        assert!(!is_inline(&x(23)));
        // 21 ASCII bytes and a 2-byte char: 22 chars, 23 bytes
        let straddle = format!("{}é", x(21));
        assert_eq!((straddle.chars().count(), straddle.len()), (22, 23));
        assert!(!is_inline(&straddle));
        assert!(is_inline(&format!("{}é", x(20))));
        // order and equality do not see the representation
        assert!(Value::str(x(22)) < Value::str(x(23)));
        assert!(Value::str(&straddle) > Value::str(x(22)));
        assert_ne!(Value::str(x(22)), Value::str(x(23)));
        // a shared string is copied inline when short, kept when long
        let long: Arc<str> = Arc::from(straddle.as_str());
        let shared = Text::from(&long);
        assert!(!shared.is_inline());
        assert_eq!(Arc::strong_count(&long), 2);
        assert!(Text::from(&Arc::<str>::from("short")).is_inline());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("hi").to_string(), "'hi'");
        assert_eq!(
            Value::list([Value::Int(1), Value::str("a")]).to_string(),
            "(1, 'a')"
        );
        assert_eq!(Value::Unit.to_string(), "()");
    }
}
