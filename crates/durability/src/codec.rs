//! Canonical binary serialization of FDM values.
//!
//! The encoding is **deterministic and canonical**: tuple attributes are
//! written in sorted name order (the tuple shape's canonical permutation,
//! the same one the fingerprint hashes in), relations in key order
//! (their persistent-map iteration order), floats by IEEE bit pattern.
//! Two equal values therefore encode to identical bytes, which is what
//! makes checkpoint comparison and the recovery-equivalence tests
//! byte-exact.
//!
//! ## What cannot be serialized
//!
//! FDM erases the boundary between stored and computed data in *queries*;
//! durability re-draws it, because closures have no byte representation.
//! Encoding a computed attribute, a computed/hybrid relation body, a λ
//! function, or a predicate-refined domain fails with the typed
//! [`DurabilityError::Unserializable`] — raised *before* a commit
//! installs, so such writes fail cleanly rather than half-commit.
//!
//! ## Shared-domain identity
//!
//! Foreign-key links in FDM are *pointer identity* of [`SharedDomain`]s.
//! The codec preserves the sharing topology by interning: the first
//! occurrence of a domain writes a definition, later occurrences write a
//! back-reference, and decoding rebuilds one `SharedDomain` per
//! definition. Identity is thus preserved *within* one encoded value
//! (checkpoint or record) but not *across* separately decoded values —
//! recovery re-links relationship participants against the recovered
//! database's own domains.

use crate::error::{DurabilityError, Result};
use fdm_core::{
    Constraint, DatabaseF, Domain, FnValue, Name, Op, Participant, RelationF, RelationshipF, Shape,
    SharedDomain, TupleF, Value, ValueType,
};
use std::collections::HashMap;
use std::sync::Arc;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// guarding every WAL record and checkpoint payload. Implemented locally
/// because the build environment vendors no external crates.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i] = c;
            i += 1;
        }
        t
    }
    const TABLE: [u32; 256] = table();
    let mut c = !0u32;
    for &b in bytes {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Encodes a commit's writeset for a WAL record payload: the same
/// [`Op`]s the transaction staged and the commit replays, op by op, each
/// as its tag (upsert 0, delete 1, assign 2, drop 3) and its fields.
pub fn encode_ops(ops: &[Op]) -> Result<Vec<u8>> {
    let mut e = Encoder::new();
    e.u32(ops.len() as u32);
    for op in ops {
        e.op(op)?;
    }
    Ok(e.buf)
}

/// Decodes a WAL record payload back into the commit's [`Op`]s.
pub fn decode_ops(bytes: &[u8]) -> Result<Vec<Op>> {
    OpsDecoder::default().decode(bytes)
}

/// [`decode_ops`] over a run of record payloads — one recovery's worth:
/// a record's tuples may share the shape of the previous record's (a WAL
/// tail mostly upserts like tuples; decoded one by one, every replayed
/// tuple would own its shape).
#[derive(Default)]
pub(crate) struct OpsDecoder {
    last_shape: Option<Arc<Shape>>,
}

impl OpsDecoder {
    pub(crate) fn decode(&mut self, bytes: &[u8]) -> Result<Vec<Op>> {
        let mut d = Decoder::new(bytes);
        d.last_shape = self.last_shape.take();
        let n = d.count()?;
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            ops.push(d.op()?);
        }
        d.finish()?;
        self.last_shape = d.last_shape;
        Ok(ops)
    }
}

/// Encodes a whole database function for a checkpoint payload.
pub fn encode_database(db: &DatabaseF) -> Result<Vec<u8>> {
    let mut e = Encoder::new();
    e.database(db)?;
    Ok(e.buf)
}

/// Decodes a checkpoint payload back into a database function.
pub fn decode_database(bytes: &[u8]) -> Result<DatabaseF> {
    let mut d = Decoder::new(bytes);
    let db = d.database()?;
    d.finish()?;
    Ok(db)
}

/// How deep values, functions and domains may nest inside each other in
/// one payload. Both directions recurse once per level: the encoder
/// refuses a deeper value before it is logged, and the decoder refuses a
/// deeper payload — a record whose CRC holds over garbage — before it
/// overflows the stack.
pub const MAX_NESTING: usize = 256;

// ---------------------------------------------------------------- encoder

struct Encoder {
    buf: Vec<u8>,
    /// Interned shared domains, in definition order (identity = `same_as`).
    domains: Vec<SharedDomain>,
    /// Nesting levels entered so far ([`MAX_NESTING`]).
    depth: usize,
}

impl Encoder {
    fn new() -> Encoder {
        Encoder {
            buf: Vec::new(),
            domains: Vec::new(),
            depth: 0,
        }
    }

    /// Enters one nesting level; the caller leaves it on success. On an
    /// error the whole encoding is abandoned, so the count no longer
    /// matters.
    fn enter(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(DurabilityError::Unserializable {
                what: format!("a value nested deeper than {MAX_NESTING} levels"),
            });
        }
        self.depth += 1;
        Ok(())
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// A string's bytes behind their length, written as they are: a
    /// [`Value::Str`] is UTF-8 by construction and is not re-validated.
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }

    fn value(&mut self, v: &Value) -> Result<()> {
        self.enter()?;
        match v {
            Value::Unit => self.u8(0),
            Value::Bool(b) => {
                self.u8(1);
                self.u8(*b as u8);
            }
            Value::Int(i) => {
                self.u8(2);
                self.i64(*i);
            }
            Value::Float(x) => {
                self.u8(3);
                self.u64(x.to_bits());
            }
            Value::Str(s) => {
                self.u8(4);
                self.bytes(s.as_bytes());
            }
            Value::List(items) => {
                self.u8(5);
                self.u32(items.len() as u32);
                for item in items.iter() {
                    self.value(item)?;
                }
            }
            Value::Fn(f) => {
                self.u8(6);
                self.fn_value(f)?;
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn fn_value(&mut self, f: &FnValue) -> Result<()> {
        self.enter()?;
        let out = match f {
            FnValue::Tuple(t) => {
                self.u8(0);
                self.tuple(t)
            }
            FnValue::Relation(r) => {
                self.u8(1);
                self.relation(r)
            }
            FnValue::Relationship(r) => {
                self.u8(2);
                self.relationship(r)
            }
            FnValue::Database(db) => {
                self.u8(3);
                self.database(db)
            }
            FnValue::Lambda(_) => Err(DurabilityError::Unserializable {
                what: "λ function (closures have no byte representation)".into(),
            }),
        };
        self.depth -= 1;
        out
    }

    /// Canonical tuple encoding: attributes in name order — the shape's
    /// canonical permutation, computed once per shape, not per tuple.
    fn tuple(&mut self, t: &TupleF) -> Result<()> {
        let shape = t.shape();
        self.str(t.name());
        self.u32(shape.len() as u32);
        for &slot in shape.canonical() {
            let n = &shape.names()[slot];
            let Some(v) = t.stored(slot) else {
                return Err(DurabilityError::Unserializable {
                    what: format!("computed attribute '{n}' of tuple function '{}'", t.name()),
                });
            };
            self.str(n);
            self.value(v)?;
        }
        Ok(())
    }

    fn constraint(&mut self, c: &Constraint) -> Result<()> {
        match c {
            Constraint::Unique(attrs) => {
                self.u8(0);
                self.u32(attrs.len() as u32);
                for a in attrs {
                    self.str(a);
                }
                Ok(())
            }
            Constraint::AttrDomain { attr, domain } => {
                self.u8(1);
                self.str(attr);
                self.domain(domain)
            }
        }
    }

    fn value_type(&mut self, t: ValueType) {
        self.u8(match t {
            ValueType::Unit => 0,
            ValueType::Bool => 1,
            ValueType::Int => 2,
            ValueType::Float => 3,
            ValueType::Str => 4,
            ValueType::List => 5,
            ValueType::Function => 6,
        });
    }

    fn domain(&mut self, d: &Domain) -> Result<()> {
        self.enter()?;
        let out = match d {
            Domain::Typed(t) => {
                self.u8(0);
                self.value_type(*t);
                Ok(())
            }
            Domain::Enumerated(set) => {
                self.u8(1);
                self.u32(set.len() as u32);
                for v in set.iter() {
                    self.value(v)?;
                }
                Ok(())
            }
            Domain::IntRange(lo, hi) => {
                self.u8(2);
                self.i64(*lo);
                self.i64(*hi);
                Ok(())
            }
            Domain::FloatRange(lo, hi) => {
                self.u8(3);
                self.u64(lo.to_bits());
                self.u64(hi.to_bits());
                Ok(())
            }
            Domain::Predicate { description, .. } => Err(DurabilityError::Unserializable {
                what: format!("predicate domain '{description}'"),
            }),
            Domain::Product(ds) => {
                self.u8(4);
                self.u32(ds.len() as u32);
                for d in ds {
                    self.domain(d)?;
                }
                Ok(())
            }
        };
        self.depth -= 1;
        out
    }

    /// Interned shared-domain encoding: first occurrence defines, later
    /// occurrences back-reference, preserving the FK sharing topology.
    fn shared_domain(&mut self, d: &SharedDomain) -> Result<()> {
        if let Some(idx) = self.domains.iter().position(|seen| seen.same_as(d)) {
            self.u8(1);
            self.u32(idx as u32);
            return Ok(());
        }
        self.u8(0);
        self.str(d.name());
        self.domain(d.domain())?;
        self.domains.push(d.clone());
        Ok(())
    }

    fn relation(&mut self, r: &RelationF) -> Result<()> {
        if !r.is_plain_stored() && !r.is_multi() {
            return Err(DurabilityError::Unserializable {
                what: format!("computed relation function '{}'", r.name()),
            });
        }
        self.str(r.name());
        self.u32(r.key_attrs().len() as u32);
        for k in r.key_attrs() {
            self.str(k);
        }
        self.u32(r.constraints().len() as u32);
        for c in r.constraints() {
            self.constraint(c)?;
        }
        if r.is_multi() {
            self.u8(1);
            let groups: Vec<_> = r.iter_groups().collect();
            self.u32(groups.len() as u32);
            for (key, group) in groups {
                self.value(&key)?;
                self.u32(group.len() as u32);
                for t in group.iter() {
                    self.tuple(t)?;
                }
            }
        } else {
            self.u8(0);
            let entries: Vec<_> = r.iter_stored().collect();
            self.u32(entries.len() as u32);
            for (key, t) in entries {
                self.value(&key)?;
                self.tuple(&t)?;
            }
        }
        Ok(())
    }

    fn relationship(&mut self, r: &RelationshipF) -> Result<()> {
        self.str(r.name());
        self.u32(r.participants().len() as u32);
        for p in r.participants() {
            self.str(&p.function);
            self.str(&p.key);
            self.shared_domain(&p.domain)?;
        }
        let entries: Vec<_> = r.iter_entries().collect();
        self.u32(entries.len() as u32);
        for (args, t) in entries {
            self.u32(args.len() as u32);
            for a in args {
                self.value(a)?;
            }
            self.tuple(t)?;
        }
        Ok(())
    }

    fn database(&mut self, db: &DatabaseF) -> Result<()> {
        self.str(db.name());
        let domains: Vec<_> = db.shared_domains().collect();
        self.u32(domains.len() as u32);
        for (_, d) in domains {
            self.shared_domain(d)?;
        }
        let entries: Vec<_> = db.iter().collect();
        self.u32(entries.len() as u32);
        for (name, f) in entries {
            self.str(name);
            self.fn_value(f)?;
        }
        Ok(())
    }

    fn op(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::Upsert { rel, key, tuple } => {
                self.u8(0);
                self.str(rel);
                self.value(key)?;
                self.tuple(tuple)
            }
            Op::Delete { rel, key } => {
                self.u8(1);
                self.str(rel);
                self.value(key)
            }
            Op::Assign { name, value } => {
                self.u8(2);
                self.str(name);
                self.fn_value(value)
            }
            Op::Drop { name } => {
                self.u8(3);
                self.str(name);
                Ok(())
            }
        }
    }
}

// ---------------------------------------------------------------- decoder

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Shared domains decoded so far, indexed by definition order.
    domains: Vec<SharedDomain>,
    /// One shape per distinct attribute-name list decoded so far, so the
    /// tuples of a relation come back sharing theirs. (The default hasher:
    /// these keys come from a file.)
    shapes: HashMap<Vec<&'a str>, Arc<Shape>>,
    /// The previous tuple's shape — nearly always the next one's too.
    last_shape: Option<Arc<Shape>>,
    /// The attribute names of the tuple being decoded (reused).
    names: Vec<&'a str>,
    /// Nesting levels entered so far ([`MAX_NESTING`]).
    depth: usize,
}

impl<'a> Decoder<'a> {
    fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder {
            buf,
            pos: 0,
            domains: Vec::new(),
            shapes: HashMap::new(),
            last_shape: None,
            names: Vec::new(),
            depth: 0,
        }
    }

    /// Enters one nesting level; the caller leaves it on success (an
    /// error abandons the whole payload).
    fn enter(&mut self) -> Result<()> {
        if self.depth == MAX_NESTING {
            return Err(self.corrupt(format!("values nest deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn corrupt(&self, detail: impl Into<String>) -> DurabilityError {
        DurabilityError::Corrupt {
            detail: format!("{} (at payload byte {})", detail.into(), self.pos),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(self.corrupt(format!(
                "payload overrun: wanted {n} bytes, {} remain",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// An element count, sanity-checked against the remaining bytes (every
    /// element costs at least one byte) so a corrupt length cannot force a
    /// huge allocation.
    fn count(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(self.corrupt(format!("implausible element count {n}")));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("invalid UTF-8 in string"))
    }

    fn name(&mut self) -> Result<Name> {
        Ok(Name::from(self.str()?))
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn value(&mut self) -> Result<Value> {
        self.enter()?;
        let v = match self.u8()? {
            0 => Value::Unit,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::str(self.str()?),
            5 => {
                let n = self.count()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Value::list(items)
            }
            6 => Value::Fn(self.fn_value()?),
            t => return Err(self.corrupt(format!("unknown value tag {t}"))),
        };
        self.depth -= 1;
        Ok(v)
    }

    fn fn_value(&mut self) -> Result<FnValue> {
        self.enter()?;
        let f = match self.u8()? {
            0 => FnValue::Tuple(Arc::new(self.tuple()?)),
            1 => FnValue::Relation(Arc::new(self.relation()?)),
            2 => FnValue::Relationship(Arc::new(self.relationship()?)),
            3 => FnValue::Database(Arc::new(self.database()?)),
            t => return Err(self.corrupt(format!("unknown function tag {t}"))),
        };
        self.depth -= 1;
        Ok(f)
    }

    fn tuple(&mut self) -> Result<TupleF> {
        let name = self.name()?;
        let n = self.count()?;
        // a nested tuple value decodes through here too: it finds the
        // buffer taken, uses its own, and ours is put back after it
        let mut names = std::mem::take(&mut self.names);
        names.clear();
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            names.push(self.str()?);
            values.push(self.value()?);
        }
        let shape = match &self.last_shape {
            Some(s) if s.names().iter().map(|n| &**n).eq(names.iter().copied()) => s.clone(),
            _ => match self.shapes.get(names.as_slice()) {
                Some(s) => s.clone(),
                None => {
                    let s = Shape::new(names.iter().map(|n| Name::from(*n)));
                    self.shapes.insert(names.clone(), s.clone());
                    s
                }
            },
        };
        self.last_shape = Some(shape.clone());
        self.names = names;
        Ok(TupleF::from_shape(name, shape, values))
    }

    fn constraint(&mut self) -> Result<Constraint> {
        Ok(match self.u8()? {
            0 => {
                let n = self.count()?;
                let mut attrs = Vec::with_capacity(n);
                for _ in 0..n {
                    attrs.push(self.name()?);
                }
                Constraint::Unique(attrs)
            }
            1 => {
                let attr = self.name()?;
                let domain = self.domain()?;
                Constraint::AttrDomain { attr, domain }
            }
            t => return Err(self.corrupt(format!("unknown constraint tag {t}"))),
        })
    }

    fn value_type(&mut self) -> Result<ValueType> {
        Ok(match self.u8()? {
            0 => ValueType::Unit,
            1 => ValueType::Bool,
            2 => ValueType::Int,
            3 => ValueType::Float,
            4 => ValueType::Str,
            5 => ValueType::List,
            6 => ValueType::Function,
            t => return Err(self.corrupt(format!("unknown value-type tag {t}"))),
        })
    }

    fn domain(&mut self) -> Result<Domain> {
        self.enter()?;
        let d = match self.u8()? {
            0 => Domain::Typed(self.value_type()?),
            1 => {
                let n = self.count()?;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(self.value()?);
                }
                Domain::enumerated(values)
            }
            2 => Domain::IntRange(self.i64()?, self.i64()?),
            3 => Domain::FloatRange(f64::from_bits(self.u64()?), f64::from_bits(self.u64()?)),
            4 => {
                let n = self.count()?;
                let mut ds = Vec::with_capacity(n);
                for _ in 0..n {
                    ds.push(self.domain()?);
                }
                Domain::Product(ds)
            }
            t => return Err(self.corrupt(format!("unknown domain tag {t}"))),
        };
        self.depth -= 1;
        Ok(d)
    }

    fn shared_domain(&mut self) -> Result<SharedDomain> {
        match self.u8()? {
            0 => {
                let name = self.str()?.to_string();
                let domain = self.domain()?;
                let d = SharedDomain::new(name, domain);
                self.domains.push(d.clone());
                Ok(d)
            }
            1 => {
                let idx = self.u32()? as usize;
                self.domains.get(idx).cloned().ok_or_else(|| {
                    self.corrupt(format!("shared-domain back-reference {idx} out of range"))
                })
            }
            t => Err(self.corrupt(format!("unknown shared-domain tag {t}"))),
        }
    }

    fn relation(&mut self) -> Result<RelationF> {
        let name = self.name()?;
        let nk = self.count()?;
        let mut key_attrs = Vec::with_capacity(nk);
        for _ in 0..nk {
            key_attrs.push(self.name()?);
        }
        let nc = self.count()?;
        let mut constraints = Vec::with_capacity(nc);
        for _ in 0..nc {
            constraints.push(self.constraint()?);
        }
        let key_strs: Vec<&str> = key_attrs.iter().map(|n| n.as_ref()).collect();
        let body = self.u8()?;
        let mut rel = match body {
            0 => {
                let n = self.count()?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.value()?;
                    let t = Arc::new(self.tuple()?);
                    entries.push((key, t));
                }
                RelationF::from_sorted(&name, &key_strs, entries)
            }
            1 => {
                let n = self.count()?;
                let mut groups = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.value()?;
                    let g = self.count()?;
                    let mut tuples = Vec::with_capacity(g);
                    for _ in 0..g {
                        tuples.push(Arc::new(self.tuple()?));
                    }
                    groups.push((key, tuples));
                }
                RelationF::from_groups(&name, &key_strs, groups)
            }
            t => return Err(self.corrupt(format!("unknown relation body tag {t}"))),
        };
        for c in constraints {
            rel = rel.with_constraint(c)?;
        }
        Ok(rel)
    }

    fn relationship(&mut self) -> Result<RelationshipF> {
        let name = self.name()?;
        let np = self.count()?;
        let mut participants = Vec::with_capacity(np);
        for _ in 0..np {
            let function = self.name()?;
            let key = self.name()?;
            let domain = self.shared_domain()?;
            participants.push(Participant {
                function,
                key,
                domain,
            });
        }
        let n = self.count()?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let arity = self.count()?;
            let mut args = Vec::with_capacity(arity);
            for _ in 0..arity {
                args.push(self.value()?);
            }
            let t = Arc::new(self.tuple()?);
            entries.push((args, t));
        }
        Ok(RelationshipF::from_sorted(&name, participants, entries)?)
    }

    fn database(&mut self) -> Result<DatabaseF> {
        let name = self.str()?.to_string();
        let mut db = DatabaseF::new(name);
        let nd = self.count()?;
        for _ in 0..nd {
            let d = self.shared_domain()?;
            db = db.with_domain(d);
        }
        let ne = self.count()?;
        for _ in 0..ne {
            let entry_name = self.name()?;
            let f = self.fn_value()?;
            db = db.with_entry(entry_name, f);
        }
        Ok(db)
    }

    fn op(&mut self) -> Result<Op> {
        Ok(match self.u8()? {
            0 => {
                let rel = self.name()?;
                let key = self.value()?;
                let tuple = Arc::new(self.tuple()?);
                Op::Upsert { rel, key, tuple }
            }
            1 => {
                let rel = self.name()?;
                let key = self.value()?;
                Op::Delete { rel, key }
            }
            2 => {
                let name = self.name()?;
                let value = self.fn_value()?;
                Op::Assign { name, value }
            }
            3 => Op::Drop { name: self.name()? },
            t => return Err(self.corrupt(format!("unknown op tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> DatabaseF {
        let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
        let pid = SharedDomain::new("pid", Domain::enumerated([Value::Int(10), Value::Int(20)]));
        let customers = RelationF::new("customers", &["cid"])
            .insert(
                Value::Int(1),
                TupleF::builder("c")
                    .attr("name", "Ann")
                    .attr("age", 34)
                    .build(),
            )
            .unwrap()
            .insert(
                Value::Int(2),
                TupleF::builder("c")
                    .attr("name", "Bob")
                    .attr("score", 1.5)
                    .build(),
            )
            .unwrap()
            .with_constraint(Constraint::unique(&["name"]))
            .unwrap();
        let orders = RelationshipF::from_sorted(
            "orders",
            vec![
                Participant {
                    function: Name::from("customers"),
                    key: Name::from("cid"),
                    domain: cid.clone(),
                },
                Participant {
                    function: Name::from("products"),
                    key: Name::from("pid"),
                    domain: pid.clone(),
                },
            ],
            vec![(
                vec![Value::Int(1), Value::Int(10)],
                Arc::new(TupleF::builder("o").attr("qty", 3).build()),
            )],
        )
        .unwrap();
        DatabaseF::new("shop")
            .with_domain(cid)
            .with_domain(pid)
            .with_relation(customers)
            .with_entry("orders", FnValue::Relationship(Arc::new(orders)))
            .with_entry(
                "motd",
                FnValue::Tuple(Arc::new(
                    TupleF::builder("motd").attr("text", "hello").build(),
                )),
            )
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn database_roundtrips_byte_stably() {
        let db = sample_db();
        let bytes = encode_database(&db).unwrap();
        let back = decode_database(&bytes).unwrap();
        // canonical: re-encoding the decoded value is byte-identical
        let bytes2 = encode_database(&back).unwrap();
        assert_eq!(bytes, bytes2, "codec is canonical");
        // structure survives
        assert_eq!(back.name(), "shop");
        let c = back.relation("customers").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.lookup(&Value::Int(1)).unwrap().get("name").unwrap(),
            Value::str("Ann")
        );
        assert_eq!(c.constraints().len(), 1);
        // the secondary unique index was rebuilt: a duplicate insert fails
        assert!(c
            .insert(
                Value::Int(3),
                TupleF::builder("c").attr("name", "Ann").build()
            )
            .is_err());
        let o = back.relationship("orders").unwrap();
        assert_eq!(o.len(), 1);
        assert_eq!(o.participants().len(), 2);
    }

    #[test]
    fn shared_domain_identity_survives_one_roundtrip() {
        let db = sample_db();
        let back = decode_database(&encode_database(&db).unwrap()).unwrap();
        // the relationship participant's 'cid' domain IS the db-registered one
        let reg = back.shared_domain("cid").unwrap();
        let orders = back.relationship("orders").unwrap();
        let part = &orders.participants()[0];
        assert!(
            reg.same_as(&part.domain),
            "FK sharing topology preserved within one decoded value"
        );
    }

    #[test]
    fn multi_relation_roundtrips() {
        let r = RelationF::from_groups(
            "by_age",
            &["age"],
            vec![(
                Value::Int(30),
                vec![
                    Arc::new(TupleF::builder("c").attr("name", "Ann").build()),
                    Arc::new(TupleF::builder("c").attr("name", "Bob").build()),
                ],
            )],
        );
        assert!(r.is_multi());
        let db = DatabaseF::new("d").with_relation(r);
        let back = decode_database(&encode_database(&db).unwrap()).unwrap();
        let r2 = back.relation("by_age").unwrap();
        assert!(r2.is_multi());
        assert_eq!(r2.lookup_all(&Value::Int(30)).len(), 2);
    }

    #[test]
    fn ops_roundtrip() {
        let ops = vec![
            Op::Upsert {
                rel: Name::from("customers"),
                key: Value::Int(7),
                tuple: Arc::new(TupleF::builder("c").attr("name", "Eve").build()),
            },
            Op::Delete {
                rel: Name::from("customers"),
                key: Value::Int(1),
            },
            Op::Assign {
                name: Name::from("flag"),
                value: FnValue::Tuple(Arc::new(TupleF::builder("f").attr("on", true).build())),
            },
            Op::Drop {
                name: Name::from("old"),
            },
        ];
        let bytes = encode_ops(&ops).unwrap();
        let back = decode_ops(&bytes).unwrap();
        assert_eq!(back.len(), 4);
        assert!(matches!(&back[0], Op::Upsert { rel, key, tuple }
            if rel.as_ref() == "customers" && *key == Value::Int(7)
                && tuple.get("name").unwrap() == Value::str("Eve")));
        assert!(matches!(&back[3], Op::Drop { name } if name.as_ref() == "old"));
        // canonical
        assert_eq!(bytes, encode_ops(&back).unwrap());
    }

    /// A delete keyed by `lists` one-element lists nested around a unit,
    /// as an op and as the payload it encodes to.
    fn nested_delete(lists: usize) -> (Op, Vec<u8>) {
        let mut key = Value::Unit;
        let mut bytes = vec![1, 0, 0, 0, 1, 1, 0, 0, 0, b'r'];
        for _ in 0..lists {
            key = Value::list([key]);
            bytes.extend_from_slice(&[5, 1, 0, 0, 0]);
        }
        bytes.push(0);
        let rel = Name::from("r");
        (Op::Delete { rel, key }, bytes)
    }

    #[test]
    fn nesting_is_bounded_both_ways() {
        // at the bound: the list levels plus the unit fill MAX_NESTING
        let (op, bytes) = nested_delete(MAX_NESTING - 1);
        assert_eq!(encode_ops(std::slice::from_ref(&op)).unwrap(), bytes);
        assert_eq!(decode_ops(&bytes).unwrap().len(), 1);
        // one past it: refused before it is logged, and as a payload
        let (op, bytes) = nested_delete(MAX_NESTING);
        assert!(matches!(
            encode_ops(&[op]),
            Err(DurabilityError::Unserializable { .. })
        ));
        assert!(matches!(
            decode_ops(&bytes),
            Err(DurabilityError::Corrupt { .. })
        ));
        // far past it: a payload decodes no deeper than the bound
        let mut deep = bytes[..10].to_vec();
        for _ in 0..100_000 {
            deep.extend_from_slice(&[5, 1, 0, 0, 0]);
        }
        deep.push(0);
        assert!(matches!(
            decode_ops(&deep),
            Err(DurabilityError::Corrupt { .. })
        ));
    }

    #[test]
    fn unserializable_values_fail_with_typed_errors() {
        // computed attribute
        let t = TupleF::builder("t")
            .attr("foo", 2)
            .computed("bar", |t| t.get("foo"))
            .build();
        let db = DatabaseF::new("d").with_entry("t", FnValue::Tuple(Arc::new(t)));
        let err = encode_database(&db).unwrap_err();
        assert!(
            matches!(&err, DurabilityError::Unserializable { what } if what.contains("bar")),
            "{err}"
        );
        // computed relation
        let r = RelationF::computed("squares", &["n"], Domain::IntRange(1, 4), |k| {
            let n = k.as_int("n")?;
            Ok(Value::Fn(FnValue::from(
                TupleF::builder("sq").attr("n", n).build(),
            )))
        });
        let db = DatabaseF::new("d").with_relation(r);
        assert!(matches!(
            encode_database(&db).unwrap_err(),
            DurabilityError::Unserializable { .. }
        ));
        // predicate domain
        let d = Domain::IntRange(0, 9).refine("even", |v| matches!(v, Value::Int(i) if i % 2 == 0));
        let db = DatabaseF::new("d").with_domain(SharedDomain::new("evens", d));
        assert!(matches!(
            encode_database(&db).unwrap_err(),
            DurabilityError::Unserializable { what } if what.contains("even")
        ));
    }

    #[test]
    fn corrupt_payloads_fail_with_typed_errors() {
        let db = sample_db();
        let bytes = encode_database(&db).unwrap();
        // truncation → overrun
        let err = decode_database(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, DurabilityError::Corrupt { .. }), "{err}");
        // garbage from the first byte: a nonsense length prefix overruns.
        // (A bit flip *inside* a fixed-width scalar just decodes to a
        // different value — catching that is the record CRC's job, not
        // the codec's.)
        assert!(decode_database(&[0xFF, 0xFF, 0xFF, 0xFF, 0x01]).is_err());
        // trailing garbage
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_database(&padded).unwrap_err(),
            DurabilityError::Corrupt { .. }
        ));
    }

    #[test]
    fn nested_databases_roundtrip() {
        let inner = DatabaseF::new("inner").with_relation(
            RelationF::new("r", &["k"])
                .insert(Value::Int(1), TupleF::builder("t").attr("v", 1).build())
                .unwrap(),
        );
        let outer = DatabaseF::new("outer").with_entry("sub", FnValue::Database(Arc::new(inner)));
        let back = decode_database(&encode_database(&outer).unwrap()).unwrap();
        match back.entry("sub").unwrap() {
            FnValue::Database(d) => assert_eq!(d.relation("r").unwrap().len(), 1),
            other => panic!("expected nested database, got {other:?}"),
        }
    }

    #[test]
    fn float_values_roundtrip_by_bits() {
        let t = TupleF::builder("t")
            .attr("x", f64::NEG_INFINITY)
            .attr("y", -0.0)
            .attr("z", 1.0e-300)
            .build();
        let db = DatabaseF::new("d").with_entry("t", FnValue::Tuple(Arc::new(t)));
        let back = decode_database(&encode_database(&db).unwrap()).unwrap();
        let t = match back.entry("t").unwrap() {
            FnValue::Tuple(t) => t.clone(),
            _ => unreachable!(),
        };
        assert_eq!(t.get("x").unwrap(), Value::Float(f64::NEG_INFINITY));
        match t.get("y").unwrap() {
            Value::Float(y) => assert_eq!(y.to_bits(), (-0.0f64).to_bits()),
            _ => unreachable!(),
        }
    }
}
