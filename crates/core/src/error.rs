//! The error type shared across the FDM engine.

use crate::types::ValueType;
use std::fmt;

/// Name type used throughout the engine for attributes, relations, etc.
pub type Name = std::sync::Arc<str>;

/// Errors produced by FDM functions and the operators over them.
///
/// Note what is *not* here: there is no NULL value anywhere in the engine.
/// A function that is "not defined" at an input (paper §2.4: "Calls to
/// bar ∉ {1, 3} are not defined") reports [`FdmError::Undefined`] instead of
/// producing a NULL that then propagates through expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum FdmError {
    /// A function was applied to an input outside its domain.
    Undefined {
        /// Name of the function.
        function: String,
        /// Display form of the offending input.
        input: String,
    },
    /// An operation required enumerating a function's domain, but the domain
    /// is not enumerable (e.g. a continuous `FloatRange` or an unbounded
    /// `Typed` domain, paper §2.4 "continuous subspace").
    NotEnumerable {
        /// What we tried to enumerate.
        what: String,
    },
    /// A value had the wrong type for the operation.
    TypeMismatch {
        /// The type the operation required.
        expected: ValueType,
        /// The type actually found.
        found: ValueType,
        /// Where the mismatch occurred.
        context: String,
    },
    /// A tuple function has no such attribute.
    NoSuchAttribute {
        /// The attribute that was requested.
        attr: String,
    },
    /// A database function has no entry under this name.
    NoSuchRelation {
        /// The name that was requested.
        name: String,
    },
    /// A database entry exists but is not the kind of function expected
    /// (e.g. asked for a relation function, found a tuple function).
    WrongFunctionKind {
        /// The name of the entry.
        name: String,
        /// What was expected, e.g. "relation function".
        expected: String,
        /// What was found, e.g. "tuple function".
        found: String,
    },
    /// A function was called with the wrong number of arguments.
    ArityMismatch {
        /// Name of the function.
        function: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        found: usize,
    },
    /// An integrity constraint rejected a change.
    ConstraintViolation {
        /// Description of the violated constraint.
        constraint: String,
        /// Description of the offending data.
        detail: String,
    },
    /// A key already exists in a unique relation function.
    DuplicateKey {
        /// The relation function.
        relation: String,
        /// Display form of the key.
        key: String,
    },
    /// A transaction lost a first-committer-wins race.
    TransactionConflict {
        /// Human-readable description of the conflicting write.
        detail: String,
        /// The conflicting `(relation, key)` pairs in display form; a
        /// whole-entry conflict is reported as `(entry, "*")`. Empty when
        /// the conflict is not key-granular (e.g. the snapshot predates
        /// the retained history).
        keys: Vec<(String, String)>,
    },
    /// A commit exhausted its retry budget: every attempt hit a transient
    /// conflict (an injected fault, or for `Store::run` a genuine conflict
    /// on every re-derivation) and the `CommitPolicy` allowed no further
    /// attempts.
    TransactionRetriesExhausted {
        /// Number of commit attempts made before giving up.
        attempts: usize,
        /// Human-readable description of the last transient conflict.
        detail: String,
    },
    /// A commit gave up because its `CommitPolicy` timeout elapsed before
    /// an attempt succeeded.
    TransactionTimeout {
        /// Number of commit attempts made before the deadline.
        attempts: usize,
        /// Elapsed wall-clock milliseconds when the commit gave up.
        elapsed_ms: u64,
    },
    /// A time-travel read requested a version older than the retained
    /// history (evicted by capacity or an explicit compaction).
    VersionEvicted {
        /// The requested version.
        version: u64,
        /// The oldest version still retained, if the history is non-empty.
        oldest: Option<u64>,
        /// The newest retained version — together with `oldest` this is
        /// the full retention window, so the error message can say
        /// exactly which reads would have succeeded.
        newest: Option<u64>,
    },
    /// The durability layer (write-ahead log / checkpoint) failed during
    /// a commit or store operation. Carries the display form of the
    /// underlying typed durability error.
    Durability {
        /// What went wrong, in display form.
        detail: String,
    },
    /// Error raised by the expression sub-language (parse/bind/eval).
    Expr(String),
    /// A query plan chains more operators than planning and evaluation
    /// take: both recurse once per operator.
    PlanTooDeep {
        /// The most operators a plan may chain.
        limit: usize,
    },
    /// Anything else (used sparingly, e.g. by user-defined computed
    /// functions that fail).
    Other(String),
}

impl fmt::Display for FdmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdmError::Undefined { function, input } => {
                write!(f, "function '{function}' is not defined at input {input}")
            }
            FdmError::NotEnumerable { what } => {
                write!(f, "cannot enumerate {what}: domain is not enumerable")
            }
            FdmError::TypeMismatch {
                expected,
                found,
                context,
            } => {
                write!(
                    f,
                    "type mismatch in {context}: expected {expected}, found {found}"
                )
            }
            FdmError::NoSuchAttribute { attr } => {
                write!(f, "tuple function has no attribute '{attr}'")
            }
            FdmError::NoSuchRelation { name } => {
                write!(f, "database function has no entry '{name}'")
            }
            FdmError::WrongFunctionKind {
                name,
                expected,
                found,
            } => {
                write!(f, "entry '{name}' is a {found}, expected a {expected}")
            }
            FdmError::ArityMismatch {
                function,
                expected,
                found,
            } => {
                write!(
                    f,
                    "function '{function}' called with {found} argument(s), expects {expected}"
                )
            }
            FdmError::ConstraintViolation { constraint, detail } => {
                write!(f, "constraint violation ({constraint}): {detail}")
            }
            FdmError::DuplicateKey { relation, key } => {
                write!(f, "duplicate key {key} in relation function '{relation}'")
            }
            FdmError::TransactionConflict { detail, keys } => {
                write!(f, "transaction conflict: {detail}")?;
                if !keys.is_empty() {
                    let list: Vec<String> = keys.iter().map(|(r, k)| format!("{r}[{k}]")).collect();
                    write!(f, " (conflicting keys: {})", list.join(", "))?;
                }
                Ok(())
            }
            FdmError::TransactionRetriesExhausted { attempts, detail } => {
                write!(
                    f,
                    "transaction commit gave up after {attempts} attempt(s): {detail}"
                )
            }
            FdmError::TransactionTimeout {
                attempts,
                elapsed_ms,
            } => {
                write!(
                    f,
                    "transaction commit timed out after {elapsed_ms} ms ({attempts} attempt(s))"
                )
            }
            FdmError::VersionEvicted {
                version,
                oldest,
                newest,
            } => match (oldest, newest) {
                (Some(o), Some(n)) => write!(
                    f,
                    "version {version} is no longer retained (retention window: v{o}..=v{n})"
                ),
                (Some(o), None) => write!(
                    f,
                    "version {version} is no longer retained (oldest retained version: {o})"
                ),
                _ => write!(
                    f,
                    "version {version} is no longer retained (history is empty)"
                ),
            },
            FdmError::Durability { detail } => write!(f, "durability error: {detail}"),
            FdmError::Expr(msg) => write!(f, "expression error: {msg}"),
            FdmError::PlanTooDeep { limit } => {
                write!(f, "query plan chains more than {limit} operators")
            }
            FdmError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for FdmError {}

/// Convenience result alias used across the engine.
pub type Result<T, E = FdmError> = std::result::Result<T, E>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = FdmError::Undefined {
            function: "R1".into(),
            input: "7".into(),
        };
        assert_eq!(e.to_string(), "function 'R1' is not defined at input 7");
        let e = FdmError::NotEnumerable {
            what: "relation function 'R4'".into(),
        };
        assert!(e.to_string().contains("not enumerable"));
        let e = FdmError::TypeMismatch {
            expected: ValueType::Int,
            found: ValueType::Str,
            context: "filter predicate".into(),
        };
        assert!(e.to_string().contains("expected int"));
        assert!(e.to_string().contains("found str"));
    }

    #[test]
    fn transaction_errors_carry_structure() {
        let e = FdmError::TransactionConflict {
            detail: "write-write conflict with commit v3".into(),
            keys: vec![("accounts".into(), "42".into())],
        };
        assert!(e.to_string().contains("conflicting keys: accounts[42]"));
        let e = FdmError::TransactionRetriesExhausted {
            attempts: 8,
            detail: "CAS race".into(),
        };
        assert!(e.to_string().contains("after 8 attempt(s)"));
        let e = FdmError::TransactionTimeout {
            attempts: 3,
            elapsed_ms: 120,
        };
        assert!(e.to_string().contains("timed out after 120 ms"));
        let e = FdmError::VersionEvicted {
            version: 2,
            oldest: Some(5),
            newest: Some(9),
        };
        assert!(e.to_string().contains("no longer retained"));
        assert!(e.to_string().contains("retention window: v5..=v9"));
        let e = FdmError::Durability {
            detail: "torn tail in wal-0.seg at offset 8".to_string(),
        };
        assert!(e.to_string().starts_with("durability error: torn tail"));
        let e = FdmError::VersionEvicted {
            version: 2,
            oldest: Some(5),
            newest: None,
        };
        assert!(e.to_string().contains("oldest retained version: 5"));
        let e = FdmError::VersionEvicted {
            version: 2,
            oldest: None,
            newest: None,
        };
        assert!(e.to_string().contains("history is empty"));
    }
}
