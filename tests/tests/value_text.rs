//! A string value's representation must be **impossible to observe**: a
//! `Value::Str` holds up to `Text::INLINE_MAX` bytes inline and longer
//! strings behind a shared `Arc<str>`, and every question asked of it —
//! `eq`, `cmp`, `Hash`, `fx_hash`, `Display`, `as_str`, `add`, the encoded
//! bytes and the decoded value — answers exactly as the same `String`
//! does, on either side of the boundary and for multi-byte text that
//! straddles it.
//!
//! The size of `Value` and the exact boundary are pinned beside the type,
//! in `value.rs`. CI runs this suite at `PROPTEST_CASES=512`.

use fdm_core::fxhash::FxHasher;
use fdm_core::{Name, Op, Text, TupleF, Value};
use fdm_durability::{decode_ops, encode_ops};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One to four bytes per char, so byte lengths cross 22 at every offset.
const ALPHABET: [char; 8] = ['a', 'b', 'z', ' ', '\0', 'é', '€', '𝄞'];

/// A string of 0–40 chars over [`ALPHABET`].
fn text() -> impl Strategy<Value = String> {
    prop::collection::vec(0..ALPHABET.len(), 0..41)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A second string: unrelated, equal, or sharing a prefix with `a`, so
/// equal values and near misses are both common.
fn partner(a: &str, b: String, how: u8) -> String {
    match how {
        0 => b,
        1 => a.to_string(),
        _ => {
            let cut = a
                .char_indices()
                .nth(b.len() % (a.len() + 1))
                .map_or(a.len(), |(i, _)| i);
            format!("{}{b}", &a[..cut])
        }
    }
}

/// What a string value fed a hasher before it had two representations:
/// the `Value::Str` tag, then `str::hash`.
fn oracle_hash<H: Hasher>(s: &str, mut h: H) -> u64 {
    4u8.hash(&mut h);
    s.hash(&mut h);
    h.finish()
}

fn sip<T: Hash + ?Sized>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// The canonical codec's bytes for a one-upsert record whose key is the
/// string and whose tuple is empty, written out by hand.
fn oracle_encoded(s: &str) -> Vec<u8> {
    let str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    let mut buf = 1u32.to_le_bytes().to_vec(); // one op
    buf.push(0); // upsert
    str(&mut buf, "r");
    buf.push(4); // a string value
    str(&mut buf, s);
    str(&mut buf, "t");
    buf.extend_from_slice(&0u32.to_le_bytes()); // no attributes
    buf
}

fn assert_like_string(v: &Value, s: &str) {
    let Value::Str(t) = v else {
        panic!("{v} is not a string")
    };
    assert_eq!(
        t.is_inline(),
        s.len() <= Text::INLINE_MAX,
        "canonical for {s:?}"
    );
    assert_eq!(t.as_bytes(), s.as_bytes());
    assert_eq!(&**t, s);
    assert_eq!(v.as_str("t").unwrap(), s);
    assert_eq!(v.to_string(), format!("'{s}'"));
    assert_eq!(format!("{t:?}"), format!("{s:?}"));
    assert_eq!(sip(t), sip(s), "Text hashes as str");
    assert_eq!(sip(v), oracle_hash(s, DefaultHasher::new()));
    assert_eq!(v.fx_hash(), oracle_hash(s, FxHasher::default()));
}

proptest! {
    #[test]
    fn a_string_value_answers_like_its_string(
        a in text(),
        b in text(),
        how in 0u8..3,
    ) {
        let b = partner(&a, b, how);
        let (va, vb) = (Value::str(&a), Value::str(&b));
        assert_like_string(&va, &a);
        assert_like_string(&vb, &b);
        // every construction path picks the same representation
        for v in [Value::from(a.as_str()), Value::from(a.clone()), Value::Str(Text::from(&Arc::<str>::from(a.as_str())))] {
            assert_eq!(v, va);
            assert_like_string(&v, &a);
        }
        prop_assert_eq!(va == vb, a == b);
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
        prop_assert_eq!(va.partial_cmp(&vb), Some(a.cmp(&b)));
        // strings sort after every number and before every list
        prop_assert_eq!(va.cmp(&Value::Int(i64::MAX)), Ordering::Greater);
        prop_assert_eq!(va.cmp(&Value::list([])), Ordering::Less);
        let sum = va.add(&vb).unwrap();
        assert_like_string(&sum, &format!("{a}{b}"));

        // the codec writes the string's bytes and decodes the same value
        let op = Op::Upsert {
            rel: Name::from("r"),
            key: va.clone(),
            tuple: Arc::new(TupleF::builder("t").build()),
        };
        let bytes = encode_ops(std::slice::from_ref(&op)).unwrap();
        prop_assert_eq!(&bytes, &oracle_encoded(&a));
        let decoded = decode_ops(&bytes).unwrap();
        let [Op::Upsert { key, .. }] = decoded.as_slice() else {
            panic!("one upsert decodes to one upsert")
        };
        assert_like_string(key, &a);
    }
}
