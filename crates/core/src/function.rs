//! The central abstraction: *everything is a function* (paper §2.2).
//!
//! [`Function`] is the uniform interface implemented by tuple functions,
//! relation functions, database functions, relationship functions, and
//! ad-hoc lambdas. [`FnValue`] is the closed sum of those, so a function
//! can be carried *inside* a [`crate::Value`] — which is what makes the
//! model higher-order and lets the same query constructs apply at every
//! granularity.

use crate::database::DatabaseF;
use crate::domain::Domain;
use crate::error::{FdmError, Result};
use crate::relation::RelationF;
use crate::relationship::RelationshipF;
use crate::tuple::TupleF;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// The uniform FDM function interface (paper Definition 1 & 2).
///
/// A function assigns to each element of its domain exactly one element of
/// its codomain. Applying a function outside its domain is a typed error
/// ([`FdmError::Undefined`]), **not** a NULL.
pub trait Function: Send + Sync {
    /// Human-readable name of the function (for errors and EXPLAIN output).
    fn fn_name(&self) -> &str;

    /// Number of arguments. Tuple/relation/database functions are unary;
    /// relationship functions are k-ary.
    fn arity(&self) -> usize;

    /// The function's domain. For k-ary functions this is a
    /// [`Domain::Product`].
    fn domain(&self) -> Domain;

    /// Applies the function to `args`.
    fn apply(&self, args: &[Value]) -> Result<Value>;
}

/// Convenience: apply a unary function to one value.
pub fn apply1(f: &dyn Function, arg: &Value) -> Result<Value> {
    f.apply(std::slice::from_ref(arg))
}

/// The body of a [`LambdaF`]: a shared n-ary closure over values.
pub type LambdaBody = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// An ad-hoc lambda function (paper §2.4's λ expressions): a named closure
/// with an explicit domain.
pub struct LambdaF {
    name: String,
    arity: usize,
    domain: Domain,
    body: LambdaBody,
}

impl LambdaF {
    /// Creates a unary lambda.
    pub fn unary(
        name: impl Into<String>,
        domain: Domain,
        body: impl Fn(&Value) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        LambdaF {
            name: name.into(),
            arity: 1,
            domain,
            body: Arc::new(move |args| body(&args[0])),
        }
    }

    /// Creates a k-ary lambda with a product domain.
    pub fn nary(
        name: impl Into<String>,
        domains: Vec<Domain>,
        body: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        LambdaF {
            name: name.into(),
            arity: domains.len(),
            domain: Domain::Product(domains),
            body: Arc::new(body),
        }
    }
}

impl Function for LambdaF {
    fn fn_name(&self) -> &str {
        &self.name
    }

    fn arity(&self) -> usize {
        self.arity
    }

    fn domain(&self) -> Domain {
        self.domain.clone()
    }

    fn apply(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.arity {
            return Err(FdmError::ArityMismatch {
                function: self.name.clone(),
                expected: self.arity,
                found: args.len(),
            });
        }
        (self.body)(args)
    }
}

impl fmt::Debug for LambdaF {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "λ{}(…)", self.name)
    }
}

/// The closed sum of FDM function kinds, used wherever a function is a
/// *value* (nested attributes, database entries, query results).
///
/// Paper §2.6: a database entry can be a tuple function (`'myTab': t4`),
/// a relation function, a whole database, or an arbitrary λ. This enum is
/// how the engine realizes that without giving up static knowledge of the
/// common cases.
#[derive(Clone)]
pub enum FnValue {
    /// A tuple function.
    Tuple(Arc<TupleF>),
    /// A relation function.
    Relation(Arc<RelationF>),
    /// A relationship function (k-ary, over shared domains).
    Relationship(Arc<RelationshipF>),
    /// A database function.
    Database(Arc<DatabaseF>),
    /// Any other function (λ, computed view, user extension).
    Lambda(Arc<LambdaF>),
}

impl FnValue {
    /// A stable identity for ordering/hashing function values: the address
    /// of the shared allocation. Stable within a process run.
    pub fn identity(&self) -> usize {
        match self {
            FnValue::Tuple(t) => Arc::as_ptr(t) as usize,
            FnValue::Relation(r) => Arc::as_ptr(r) as usize,
            FnValue::Relationship(r) => Arc::as_ptr(r) as usize,
            FnValue::Database(d) => Arc::as_ptr(d) as usize,
            FnValue::Lambda(l) => Arc::as_ptr(l) as usize,
        }
    }

    /// Short description of the function kind ("tuple function", ...).
    pub fn kind(&self) -> &'static str {
        match self {
            FnValue::Tuple(_) => "tuple function",
            FnValue::Relation(_) => "relation function",
            FnValue::Relationship(_) => "relationship function",
            FnValue::Database(_) => "database function",
            FnValue::Lambda(_) => "lambda function",
        }
    }

    /// Borrows the uniform [`Function`] interface.
    pub fn as_function(&self) -> &dyn Function {
        match self {
            FnValue::Tuple(t) => t.as_ref(),
            FnValue::Relation(r) => r.as_ref(),
            FnValue::Relationship(r) => r.as_ref(),
            FnValue::Database(d) => d.as_ref(),
            FnValue::Lambda(l) => l.as_ref(),
        }
    }

    /// Applies the function uniformly.
    pub fn apply(&self, args: &[Value]) -> Result<Value> {
        self.as_function().apply(args)
    }

    /// Downcast to a tuple function.
    pub fn as_tuple(&self) -> Result<&Arc<TupleF>> {
        match self {
            FnValue::Tuple(t) => Ok(t),
            other => Err(FdmError::WrongFunctionKind {
                name: other.as_function().fn_name().to_string(),
                expected: "tuple function".to_string(),
                found: other.kind().to_string(),
            }),
        }
    }

    /// Downcast to a relation function.
    pub fn as_relation(&self) -> Result<&Arc<RelationF>> {
        match self {
            FnValue::Relation(r) => Ok(r),
            other => Err(FdmError::WrongFunctionKind {
                name: other.as_function().fn_name().to_string(),
                expected: "relation function".to_string(),
                found: other.kind().to_string(),
            }),
        }
    }

    /// Downcast to a relationship function.
    pub fn as_relationship(&self) -> Result<&Arc<RelationshipF>> {
        match self {
            FnValue::Relationship(r) => Ok(r),
            other => Err(FdmError::WrongFunctionKind {
                name: other.as_function().fn_name().to_string(),
                expected: "relationship function".to_string(),
                found: other.kind().to_string(),
            }),
        }
    }

    /// Downcast to a database function.
    pub fn as_database(&self) -> Result<&Arc<DatabaseF>> {
        match self {
            FnValue::Database(d) => Ok(d),
            other => Err(FdmError::WrongFunctionKind {
                name: other.as_function().fn_name().to_string(),
                expected: "database function".to_string(),
                found: other.kind().to_string(),
            }),
        }
    }
}

impl From<TupleF> for FnValue {
    fn from(t: TupleF) -> Self {
        FnValue::Tuple(Arc::new(t))
    }
}

impl From<RelationF> for FnValue {
    fn from(r: RelationF) -> Self {
        FnValue::Relation(Arc::new(r))
    }
}

impl From<RelationshipF> for FnValue {
    fn from(r: RelationshipF) -> Self {
        FnValue::Relationship(Arc::new(r))
    }
}

impl From<DatabaseF> for FnValue {
    fn from(d: DatabaseF) -> Self {
        FnValue::Database(Arc::new(d))
    }
}

impl From<LambdaF> for FnValue {
    fn from(l: LambdaF) -> Self {
        FnValue::Lambda(Arc::new(l))
    }
}

impl fmt::Debug for FnValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for FnValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{} '{}'>", self.kind(), self.as_function().fn_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ValueType;

    #[test]
    fn lambda_applies_and_checks_arity() {
        let double = LambdaF::unary("double", Domain::Typed(ValueType::Int), |v| {
            v.mul(&Value::Int(2))
        });
        assert_eq!(double.apply(&[Value::Int(21)]).unwrap(), Value::Int(42));
        let err = double.apply(&[Value::Int(1), Value::Int(2)]).unwrap_err();
        assert!(matches!(err, FdmError::ArityMismatch { .. }));
    }

    #[test]
    fn nary_lambda_has_product_domain() {
        let add = LambdaF::nary(
            "add",
            vec![Domain::Typed(ValueType::Int), Domain::Typed(ValueType::Int)],
            |args| args[0].add(&args[1]),
        );
        assert_eq!(add.arity(), 2);
        assert_eq!(
            add.apply(&[Value::Int(1), Value::Int(2)]).unwrap(),
            Value::Int(3)
        );
        assert!(matches!(add.domain(), Domain::Product(ds) if ds.len() == 2));
    }

    #[test]
    fn fnvalue_identity_follows_sharing() {
        let l = Arc::new(LambdaF::unary("id", Domain::Typed(ValueType::Int), |v| {
            Ok(v.clone())
        }));
        let a = FnValue::Lambda(Arc::clone(&l));
        let b = FnValue::Lambda(Arc::clone(&l));
        assert_eq!(a.identity(), b.identity());
        let c = FnValue::from(LambdaF::unary("id", Domain::Typed(ValueType::Int), |v| {
            Ok(v.clone())
        }));
        assert_ne!(a.identity(), c.identity());
    }

    #[test]
    fn downcast_errors_name_the_kinds() {
        let l = FnValue::from(LambdaF::unary("f", Domain::Typed(ValueType::Int), |v| {
            Ok(v.clone())
        }));
        let err = l.as_relation().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("lambda function"), "{msg}");
        assert!(msg.contains("relation function"), "{msg}");
    }
}
