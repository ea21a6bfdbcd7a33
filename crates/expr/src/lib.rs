//! # fdm-expr — the textual predicate costume
//!
//! FQL imposes no new syntax (paper §4.2) — but one of its costumes is a
//! small textual predicate language with **named parameters**:
//!
//! ```text
//! filter("age>$foo", {foo: 42}, customers)        # Fig. 4a, last variant
//! ```
//!
//! This crate provides that language: lexer → Pratt parser → AST →
//! parameter binding → evaluation against tuple functions.
//!
//! **Injection immunity is structural** (paper contribution 10): the
//! source text is parsed before any runtime data exists; parameters are
//! bound as [`fdm_core::Value`]s into the finished AST and are never
//! lexed. There is no API that concatenates data into query text.
//!
//! ```
//! use fdm_core::TupleF;
//! use fdm_expr::{eval_predicate, parse, Params};
//!
//! let t = TupleF::builder("c").attr("name", "Alice").attr("age", 43).build();
//! let expr = parse("age > $min").unwrap();
//! let bound = Params::new().set("min", 42).bind(&expr).unwrap();
//! assert!(eval_predicate(&bound, &t).unwrap());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod bind;
pub mod error;
pub mod eval;
pub mod funcs;
pub mod ops;
pub mod parser;
pub mod token;

pub use ast::{BinOp, Expr};
pub use bind::Params;
pub use error::ExprError;
pub use eval::{compare, eval, eval_predicate, eval_with, Compiled, Slots};
pub use funcs::{default_registry, Registry};
pub use ops::{by_suffix, CmpOp, EQ, GE, GT, LE, LT, NE};
pub use parser::parse;
