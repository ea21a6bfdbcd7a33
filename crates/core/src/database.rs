//! Database functions (paper §2.5).
//!
//! A database function maps names to functions:
//! `DB('Table1') = R1`. Because the codomain is [`FnValue`], an entry can
//! be a relation function, a tuple function (`'myTab': t4` in the paper), a
//! relationship function, a λ (a computed relation that was never stored —
//! a *view*), or even **another database** — sets of databases are just
//! database functions one level up (§2.2, §2.6).
//!
//! `DatabaseF` is persistent: `with_entry`/`without_entry` return a new
//! database sharing everything untouched. This is the enabling property
//! for FQL's in-place usage (`DB('myAwesomeView') := foo`, §4.4) and for
//! snapshot transactions.

use crate::domain::{Domain, SharedDomain};
use crate::error::{FdmError, Name, Result};
use crate::function::{FnValue, Function};
use crate::relation::RelationF;
use crate::relationship::RelationshipF;
use crate::value::{Text, Value};
use fdm_storage::PMap;
use std::fmt;
use std::sync::Arc;

/// A database function: name → function.
///
/// # Examples
///
/// ```
/// use fdm_core::{DatabaseF, RelationF, TupleF, Value};
///
/// let customers = RelationF::new("customers", &["cid"])
///     .insert(Value::Int(1), TupleF::builder("c").attr("name", "Alice").build())
///     .unwrap();
/// let db = DatabaseF::new("shop").with_relation(customers);
/// let r = db.relation("customers").unwrap();
/// assert_eq!(r.len(), 1);
/// ```
///
/// A `DatabaseF` is one pointer: cloning it — what every snapshot and
/// transaction does — touches one reference count.
#[derive(Clone)]
pub struct DatabaseF {
    parts: Arc<Parts>,
}

/// What a [`DatabaseF`] holds behind its one pointer.
struct Parts {
    name: Name,
    entries: PMap<Name, FnValue>,
    /// The named shared domains of this schema (foreign-key links live
    /// here; see [`SharedDomain`]).
    domains: PMap<Name, SharedDomain>,
}

impl DatabaseF {
    fn from_parts(
        name: Name,
        entries: PMap<Name, FnValue>,
        domains: PMap<Name, SharedDomain>,
    ) -> Self {
        DatabaseF {
            parts: Arc::new(Parts {
                name,
                entries,
                domains,
            }),
        }
    }

    /// Creates an empty database function.
    pub fn new(name: impl AsRef<str>) -> DatabaseF {
        DatabaseF::from_parts(Arc::from(name.as_ref()), PMap::new(), PMap::new())
    }

    /// The database function's name.
    pub fn name(&self) -> &str {
        &self.parts.name
    }

    /// Number of entries (relations, tuples, nested databases, ...).
    pub fn len(&self) -> usize {
        self.parts.entries.len()
    }

    /// `true` if the database has no entries.
    pub fn is_empty(&self) -> bool {
        self.parts.entries.is_empty()
    }

    /// Entry names in sorted order.
    pub fn names(&self) -> Vec<Name> {
        self.parts.entries.keys().cloned().collect()
    }

    /// Looks up an entry of any function kind.
    pub fn entry(&self, name: &str) -> Result<&FnValue> {
        self.parts
            .entries
            .get(name)
            .ok_or_else(|| FdmError::NoSuchRelation {
                name: name.to_string(),
            })
    }

    /// `true` if an entry exists under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.parts.entries.contains_key(name)
    }

    /// Looks up a relation function entry.
    pub fn relation(&self, name: &str) -> Result<Arc<RelationF>> {
        self.relation_ref(name).cloned()
    }

    /// [`Self::relation`] without the clone: the entry borrowed from this
    /// database, for a caller that only looks at it while the database is
    /// in hand (the store's point read) and should touch no refcount.
    pub fn relation_ref(&self, name: &str) -> Result<&Arc<RelationF>> {
        self.entry(name)?.as_relation()
    }

    /// Cardinality statistics of the relation entry `name` — the planner's
    /// window into this database's data distribution (rows, attribute
    /// count, per-position key cardinalities). Errors when the entry is
    /// missing or not a relation, exactly like [`Self::relation`].
    ///
    /// `fdm_fql`'s `PlanContext` consults this (and
    /// [`Self::estimate_distinct`]) so optimization rules never reach into
    /// relation internals themselves.
    pub fn relation_stats(&self, name: &str) -> Result<crate::stats::RelationStats> {
        Ok(crate::stats::RelationStats::of(
            self.relation(name)?.as_ref(),
        ))
    }

    /// Distinct-count estimate for attribute `attr` of the relation entry
    /// `rel`: exact for key/uniquely-constrained attributes, a
    /// [`crate::stats::DistinctSketch`] estimate (≤10% relative error)
    /// otherwise — see [`crate::stats::estimate_distinct`]. Errors when
    /// the entry is missing or not a relation.
    pub fn estimate_distinct(&self, rel: &str, attr: &str) -> Result<usize> {
        Ok(crate::stats::estimate_distinct(
            self.relation(rel)?.as_ref(),
            attr,
        ))
    }

    /// Looks up a relationship function entry.
    pub fn relationship(&self, name: &str) -> Result<Arc<RelationshipF>> {
        Ok(self.entry(name)?.as_relationship()?.clone())
    }

    /// Looks up a nested database entry.
    pub fn database(&self, name: &str) -> Result<Arc<DatabaseF>> {
        Ok(self.entry(name)?.as_database()?.clone())
    }

    /// The in-place assignment `DB(name) := f` (paper §4.4): returns a new
    /// database with `name` bound to `f`, replacing any previous binding.
    pub fn with_entry(&self, name: impl AsRef<str>, f: impl Into<FnValue>) -> DatabaseF {
        self.with_entry_named(Arc::from(name.as_ref()), f.into())
    }

    /// Adds a relation function under its own name.
    pub fn with_relation(&self, rel: RelationF) -> DatabaseF {
        let name = Name::from(rel.name());
        self.with_entry_named(name, FnValue::from(rel))
    }

    /// Adds a relationship function under its own name.
    pub fn with_relationship(&self, rsf: RelationshipF) -> DatabaseF {
        let name = Name::from(rsf.name());
        self.with_entry_named(name, FnValue::from(rsf))
    }

    fn with_entry_named(&self, name: Name, f: FnValue) -> DatabaseF {
        let entries = self.parts.entries.insert(name, f).0;
        DatabaseF::from_parts(self.parts.name.clone(), entries, self.parts.domains.clone())
    }

    /// Removes an entry; fails if absent.
    pub fn without_entry(&self, name: &str) -> Result<DatabaseF> {
        let (entries, old) = self.parts.entries.remove(name);
        if old.is_none() {
            return Err(FdmError::NoSuchRelation {
                name: name.to_string(),
            });
        }
        Ok(DatabaseF::from_parts(
            self.parts.name.clone(),
            entries,
            self.parts.domains.clone(),
        ))
    }

    /// Registers a named shared domain in the schema.
    pub fn with_domain(&self, domain: SharedDomain) -> DatabaseF {
        let domains = self
            .parts
            .domains
            .insert(Arc::from(domain.name()), domain)
            .0;
        DatabaseF::from_parts(self.parts.name.clone(), self.parts.entries.clone(), domains)
    }

    /// Looks up a named shared domain.
    pub fn shared_domain(&self, name: &str) -> Option<&SharedDomain> {
        self.parts.domains.get(name)
    }

    /// All shared domains.
    pub fn shared_domains(&self) -> impl Iterator<Item = (&Name, &SharedDomain)> + '_ {
        self.parts.domains.iter()
    }

    /// Iterates `(name, entry)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&Name, &FnValue)> + '_ {
        self.parts.entries.iter()
    }

    /// Iterates only the relation-function entries.
    pub fn relations(&self) -> impl Iterator<Item = (&Name, &Arc<RelationF>)> + '_ {
        self.parts.entries.iter().filter_map(|(n, e)| match e {
            FnValue::Relation(r) => Some((n, r)),
            _ => None,
        })
    }

    /// Iterates only the relationship-function entries.
    pub fn relationships(&self) -> impl Iterator<Item = (&Name, &Arc<RelationshipF>)> + '_ {
        self.parts.entries.iter().filter_map(|(n, e)| match e {
            FnValue::Relationship(r) => Some((n, r)),
            _ => None,
        })
    }

    /// Renames the database function.
    pub fn renamed(&self, name: impl AsRef<str>) -> DatabaseF {
        let name = Arc::from(name.as_ref());
        DatabaseF::from_parts(name, self.parts.entries.clone(), self.parts.domains.clone())
    }

    /// Total number of stored tuples across all relation and relationship
    /// entries (diagnostic; nested databases are counted recursively).
    pub fn total_tuples(&self) -> usize {
        self.parts
            .entries
            .values()
            .map(|e| match e {
                FnValue::Relation(r) => r.len(),
                FnValue::Relationship(r) => r.len(),
                FnValue::Database(d) => d.total_tuples(),
                FnValue::Tuple(_) => 1,
                FnValue::Lambda(_) => 0,
            })
            .sum()
    }
}

impl Function for DatabaseF {
    fn fn_name(&self) -> &str {
        &self.parts.name
    }

    fn arity(&self) -> usize {
        1
    }

    fn domain(&self) -> Domain {
        Domain::enumerated(self.parts.entries.keys().map(|n| Value::Str(Text::from(n))))
    }

    fn apply(&self, args: &[Value]) -> Result<Value> {
        if args.len() != 1 {
            return Err(FdmError::ArityMismatch {
                function: self.parts.name.to_string(),
                expected: 1,
                found: args.len(),
            });
        }
        let name = args[0].as_str("database function argument")?;
        Ok(Value::Fn(self.entry(name)?.clone()))
    }
}

impl fmt::Debug for DatabaseF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DatabaseF({} {{", self.parts.name)?;
        for (i, (n, e)) in self.parts.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "'{n}': {e}")?;
        }
        write!(f, "}})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::apply1;
    use crate::tuple::TupleF;
    use crate::types::ValueType;

    fn customers() -> RelationF {
        RelationF::new("customers", &["cid"])
            .insert(
                Value::Int(1),
                TupleF::builder("c1")
                    .attr("name", "Alice")
                    .attr("age", 43)
                    .build(),
            )
            .unwrap()
            .insert(
                Value::Int(2),
                TupleF::builder("c2")
                    .attr("name", "Bob")
                    .attr("age", 30)
                    .build(),
            )
            .unwrap()
    }

    #[test]
    fn paper_db_example() {
        // DB('Table1') = R1 ; DB('myTab') = t4 (a tuple as DB entry, §2.5)
        let t4 = TupleF::builder("t4")
            .attr("name", "Thomas")
            .attr("foo", 25)
            .build();
        let db = DatabaseF::new("DB")
            .with_relation(customers().renamed("Table1"))
            .with_entry("myTab", FnValue::from(t4));
        let v = apply1(&db, &Value::str("Table1")).unwrap();
        assert!(matches!(v, Value::Fn(FnValue::Relation(_))));
        let v = apply1(&db, &Value::str("myTab")).unwrap();
        assert!(matches!(v, Value::Fn(FnValue::Tuple(_))));
        let err = apply1(&db, &Value::str("nope")).unwrap_err();
        assert!(matches!(err, FdmError::NoSuchRelation { .. }));
    }

    /// A snapshot clones one pointer, so it touches one reference count.
    #[test]
    fn a_database_is_one_pointer() {
        assert_eq!(
            std::mem::size_of::<DatabaseF>(),
            std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn relation_accessor_typed_errors() {
        let t4 = TupleF::builder("t4").attr("x", 1).build();
        let db = DatabaseF::new("DB").with_entry("myTab", FnValue::from(t4));
        let err = db.relation("myTab").unwrap_err();
        assert!(matches!(err, FdmError::WrongFunctionKind { .. }));
    }

    #[test]
    fn with_entry_is_persistent_assignment() {
        let db = DatabaseF::new("DB").with_relation(customers());
        // DB('customers_NY') := <some relation>   (§4.4 in-place usage)
        let ny = customers().renamed("customers_NY");
        let db2 = db.with_entry("customers_NY", FnValue::from(ny));
        assert_eq!(db.len(), 1, "original snapshot unchanged");
        assert_eq!(db2.len(), 2);
        // replacing an existing binding
        let empty = RelationF::new("customers", &["cid"]);
        let db3 = db2.with_entry("customers", FnValue::from(empty));
        assert_eq!(db3.relation("customers").unwrap().len(), 0);
        assert_eq!(db2.relation("customers").unwrap().len(), 2);
    }

    #[test]
    fn nested_database_is_just_an_entry() {
        // a set of databases is a database function one level up (§2.2)
        let inner = DatabaseF::new("tenant1").with_relation(customers());
        let outer = DatabaseF::new("fleet").with_entry("tenant1", FnValue::from(inner));
        let got = outer.database("tenant1").unwrap();
        assert_eq!(got.relation("customers").unwrap().len(), 2);
        assert_eq!(outer.total_tuples(), 2);
    }

    #[test]
    fn without_entry() {
        let db = DatabaseF::new("DB").with_relation(customers());
        let db2 = db.without_entry("customers").unwrap();
        assert!(db2.is_empty());
        assert!(db.contains("customers"));
        assert!(db2.without_entry("customers").is_err());
    }

    #[test]
    fn shared_domains_registry() {
        let cid = SharedDomain::new("cid", Domain::Typed(ValueType::Int));
        let db = DatabaseF::new("DB").with_domain(cid.clone());
        assert!(db.shared_domain("cid").unwrap().same_as(&cid));
        assert!(db.shared_domain("pid").is_none());
        assert_eq!(db.shared_domains().count(), 1);
    }

    #[test]
    fn iterators_filter_by_kind() {
        let t4 = TupleF::builder("t4").attr("x", 1).build();
        let db = DatabaseF::new("DB")
            .with_relation(customers())
            .with_entry("meta", FnValue::from(t4));
        assert_eq!(db.relations().count(), 1);
        assert_eq!(db.iter().count(), 2);
        assert_eq!(db.names().len(), 2);
    }

    #[test]
    fn function_interface_domain_is_entry_names() {
        let db = DatabaseF::new("DB").with_relation(customers());
        let d = db.domain();
        assert!(d.contains(&Value::str("customers")));
        assert!(!d.contains(&Value::str("orders")));
    }
}
