//! The expression AST.

use fdm_core::Value;
use std::fmt;
use std::sync::Arc;

/// Binary operators, by increasing precedence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Logical disjunction (short-circuiting).
    Or,
    /// Logical conjunction (short-circuiting).
    And,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
}

impl BinOp {
    /// Binding power for the Pratt parser (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
        }
    }

    /// The surface spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// `true` for `+`, `-`, `*` and `/`.
    pub fn is_arithmetic(self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
    }

    /// `true` for comparison operators (result type bool).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// A parsed (but possibly unbound) expression.
///
/// `Expr` trees are immutable and cheaply shareable; `Arc` keeps subtree
/// sharing free when expressions are rewritten (e.g. by the FQL optimizer's
/// predicate pushdown).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An attribute reference, evaluated against the current tuple
    /// function — `age` means `t('age')`.
    Attr(Arc<str>),
    /// A literal value.
    Lit(Value),
    /// An unbound named parameter `$name`. Evaluating an expression that
    /// still contains parameters is an error: parameters are *data*,
    /// bound by [`crate::Params`], never spliced into the source text.
    Param(Arc<str>),
    /// A binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Arc<Expr>,
        /// Right operand.
        rhs: Arc<Expr>,
    },
    /// Logical negation `not e`.
    Not(Arc<Expr>),
    /// Arithmetic negation `-e`.
    Neg(Arc<Expr>),
    /// A scalar-function call `f(a, b, ...)` resolved against a
    /// [`crate::funcs::Registry`] at evaluation time (paper contribution
    /// 8: user/library functions are first-class in queries).
    Call {
        /// Function name.
        name: Arc<str>,
        /// Argument expressions.
        args: Vec<Arc<Expr>>,
    },
}

impl Expr {
    /// Convenience: attribute reference.
    pub fn attr(name: &str) -> Expr {
        Expr::Attr(Arc::from(name))
    }

    /// Convenience: literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Convenience: binary node.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin {
            op,
            lhs: Arc::new(lhs),
            rhs: Arc::new(rhs),
        }
    }

    /// All attribute names referenced by the expression (used by the FQL
    /// optimizer to decide pushdown eligibility).
    pub fn referenced_attrs(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.walk_attrs(&mut out);
        out.sort();
        out.dedup();
        out
    }

    /// The depth of the tree, a leaf being 1 — the measure
    /// [`crate::parser::MAX_DEPTH`] bounds. It walks with a stack of its
    /// own, so a tree built deeper than the parser allows is measured too.
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut todo = vec![(self, 1)];
        while let Some((e, depth)) = todo.pop() {
            deepest = deepest.max(depth);
            match e {
                Expr::Attr(_) | Expr::Lit(_) | Expr::Param(_) => {}
                Expr::Bin { lhs, rhs, .. } => {
                    todo.extend([(&**lhs, depth + 1), (&**rhs, depth + 1)])
                }
                Expr::Not(e) | Expr::Neg(e) => todo.push((e, depth + 1)),
                Expr::Call { args, .. } => todo.extend(args.iter().map(|a| (&**a, depth + 1))),
            }
        }
        deepest
    }

    fn walk_attrs(&self, out: &mut Vec<Arc<str>>) {
        match self {
            Expr::Attr(a) => out.push(a.clone()),
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Bin { lhs, rhs, .. } => {
                lhs.walk_attrs(out);
                rhs.walk_attrs(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.walk_attrs(out),
            Expr::Call { args, .. } => {
                for arg in args {
                    arg.walk_attrs(out);
                }
            }
        }
    }

    /// All unbound parameter names.
    pub fn unbound_params(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.walk_params(&mut out);
        out.sort();
        out.dedup();
        out
    }

    fn walk_params(&self, out: &mut Vec<Arc<str>>) {
        match self {
            Expr::Param(p) => out.push(p.clone()),
            Expr::Attr(_) | Expr::Lit(_) => {}
            Expr::Bin { lhs, rhs, .. } => {
                lhs.walk_params(out);
                rhs.walk_params(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.walk_params(out),
            Expr::Call { args, .. } => {
                for arg in args {
                    arg.walk_params(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Attr(a) => write!(f, "{a}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Param(p) => write!(f, "${p}"),
            Expr::Bin { op, lhs, rhs } => write!(f, "({lhs} {} {rhs})", op.symbol()),
            Expr::Not(e) => write!(f, "(not {e})"),
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_classes() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Gt.precedence());
        assert!(BinOp::Gt.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn referenced_attrs_and_params() {
        let e = Expr::bin(
            BinOp::And,
            Expr::bin(BinOp::Gt, Expr::attr("age"), Expr::Param(Arc::from("min"))),
            Expr::bin(BinOp::Eq, Expr::attr("state"), Expr::attr("age")),
        );
        let attrs: Vec<_> = e.referenced_attrs().iter().map(|a| a.to_string()).collect();
        assert_eq!(attrs, vec!["age", "state"]);
        let params: Vec<_> = e.unbound_params().iter().map(|p| p.to_string()).collect();
        assert_eq!(params, vec!["min"]);
    }

    #[test]
    fn depth_counts_levels_as_the_parser_bounds_them() {
        let depth = |src: &str| crate::parse(src).unwrap().depth();
        assert_eq!(depth("x"), 1);
        assert_eq!(depth("(((x)))"), 1, "parentheses build no node");
        assert_eq!(depth("not not x"), 3);
        assert_eq!(depth("a + b + c > 1"), 4);
        assert_eq!(depth("abs(a - 1) == 2"), 4);
        let at_bound = format!("x{}", " + x".repeat(crate::parser::MAX_DEPTH - 1));
        assert_eq!(depth(&at_bound), crate::parser::MAX_DEPTH);
        assert!(crate::parse(&format!("{at_bound} + x")).is_err());
    }

    #[test]
    fn display_is_fully_parenthesized() {
        let e = Expr::bin(
            BinOp::Gt,
            Expr::attr("age"),
            Expr::bin(BinOp::Mul, Expr::lit(2), Expr::lit(21)),
        );
        assert_eq!(e.to_string(), "(age > (2 * 21))");
    }
}
