//! A Pratt parser for the predicate language.
//!
//! Grammar (precedence climbing, loosest to tightest):
//!
//! ```text
//! expr    := or
//! or      := and ( 'or' and )*
//! and     := cmp ( 'and' cmp )*
//! cmp     := add ( ('=='|'!='|'<'|'<='|'>'|'>=') add )?
//! add     := mul ( ('+'|'-') mul )*
//! mul     := unary ( ('*'|'/') unary )*
//! unary   := 'not' unary | '-' unary | primary
//! primary := int | float | string | 'true' | 'false' | ident | $param | '(' expr ')'
//! ```
//!
//! Binding, evaluating, printing and dropping an [`Expr`] all recurse on
//! the tree, so the parser bounds its depth: an expression nesting deeper
//! than [`MAX_DEPTH`] levels — parentheses, call arguments and unary
//! operators around an operand, plus the operand's own tree, where a chain
//! `a + b + c` is as deep as it is long — is a typed
//! [`ExprError::Parse`], not a stack overflow.

use crate::ast::{BinOp, Expr};
use crate::error::ExprError;
use crate::token::{lex, Token, TokenKind};
use fdm_core::Value;
use std::sync::Arc;

/// The deepest expression [`parse`] accepts, in levels.
pub const MAX_DEPTH: usize = 256;

/// Parses a predicate/expression source string into an [`Expr`].
///
/// # Examples
///
/// ```
/// use fdm_expr::parse;
/// let e = parse("age > $foo and state == 'NY'").unwrap();
/// assert_eq!(e.to_string(), "((age > $foo) and (state == 'NY'))");
/// ```
pub fn parse(src: &str) -> Result<Expr, ExprError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        src_len: src.len(),
        nesting: 0,
    };
    let (e, _) = p.parse_expr(0)?;
    if let Some(t) = p.peek() {
        return Err(ExprError::parse(
            t.offset,
            format!("unexpected trailing token '{}'", t.kind),
        ));
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    src_len: usize,
    /// Parentheses, call arguments and unary operators open around the
    /// operand being parsed.
    nesting: usize,
}

/// A parsed expression and the depth of its tree (a leaf is 1).
type Parsed = (Expr, usize);

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map_or(self.src_len, |t| t.offset)
    }

    /// The operator a token denotes in infix position, if any.
    fn infix_op(kind: &TokenKind) -> Option<BinOp> {
        Some(match kind {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::Star => BinOp::Mul,
            TokenKind::Slash => BinOp::Div,
            TokenKind::Ident(s) if s == "and" => BinOp::And,
            TokenKind::Ident(s) if s == "or" => BinOp::Or,
            _ => return None,
        })
    }

    /// Fails at `offset` when a tree `depth` levels deep, under the open
    /// nesting, would pass [`MAX_DEPTH`].
    fn check_depth(&self, offset: usize, depth: usize) -> Result<(), ExprError> {
        if self.nesting + depth > MAX_DEPTH {
            return Err(ExprError::parse(
                offset,
                format!("expression nests deeper than {MAX_DEPTH} levels"),
            ));
        }
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Parsed, ExprError>,
    ) -> Result<Parsed, ExprError> {
        self.check_depth(self.offset(), 1)?;
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    fn parse_expr(&mut self, min_prec: u8) -> Result<Parsed, ExprError> {
        let (mut lhs, mut depth) = self.parse_unary()?;
        while let Some(t) = self.peek() {
            let Some(op) = Self::infix_op(&t.kind) else {
                break;
            };
            let prec = op.precedence();
            if prec < min_prec {
                break;
            }
            let offset = t.offset;
            self.next();
            // left-associative: require strictly higher precedence on the right
            let (rhs, rhs_depth) = self.parse_expr(prec + 1)?;
            depth = 1 + depth.max(rhs_depth);
            self.check_depth(offset, depth)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok((lhs, depth))
    }

    fn parse_unary(&mut self) -> Result<Parsed, ExprError> {
        let wrap: fn(Arc<Expr>) -> Expr = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(s)) if s == "not" => Expr::Not,
            Some(TokenKind::Minus) => Expr::Neg,
            _ => return self.parse_primary(),
        };
        self.next();
        let (inner, depth) = self.nested(Self::parse_unary)?;
        Ok((wrap(Arc::new(inner)), depth + 1))
    }

    fn parse_primary(&mut self) -> Result<Parsed, ExprError> {
        let offset = self.offset();
        let Some(t) = self.next() else {
            return Err(ExprError::parse(offset, "unexpected end of input"));
        };
        match t.kind {
            TokenKind::Int(i) => Ok((Expr::Lit(Value::Int(i)), 1)),
            TokenKind::Float(x) => Ok((Expr::Lit(Value::Float(x)), 1)),
            TokenKind::Str(s) => Ok((Expr::Lit(Value::str(s)), 1)),
            TokenKind::Param(p) => Ok((Expr::Param(Arc::from(p.as_str())), 1)),
            TokenKind::Ident(s) if s == "true" => Ok((Expr::Lit(Value::Bool(true)), 1)),
            TokenKind::Ident(s) if s == "false" => Ok((Expr::Lit(Value::Bool(false)), 1)),
            TokenKind::Ident(s) if s == "and" || s == "or" || s == "not" => Err(ExprError::parse(
                t.offset,
                format!("keyword '{s}' cannot start an expression"),
            )),
            TokenKind::Ident(s) => {
                // function call if immediately followed by '('
                if matches!(
                    self.peek(),
                    Some(Token {
                        kind: TokenKind::LParen,
                        ..
                    })
                ) {
                    self.next(); // consume '('
                    let (mut args, mut depth) = (Vec::new(), 1);
                    if !matches!(
                        self.peek(),
                        Some(Token {
                            kind: TokenKind::RParen,
                            ..
                        })
                    ) {
                        loop {
                            let (arg, arg_depth) = self.nested(|p| p.parse_expr(0))?;
                            depth = depth.max(arg_depth + 1);
                            args.push(Arc::new(arg));
                            match self.next() {
                                Some(Token {
                                    kind: TokenKind::Comma,
                                    ..
                                }) => continue,
                                Some(Token {
                                    kind: TokenKind::RParen,
                                    ..
                                }) => break,
                                Some(t) => {
                                    return Err(ExprError::parse(
                                        t.offset,
                                        format!("expected ',' or ')' in call, found '{}'", t.kind),
                                    ))
                                }
                                None => {
                                    return Err(ExprError::parse(
                                        self.src_len,
                                        "unterminated function call",
                                    ))
                                }
                            }
                        }
                    } else {
                        self.next(); // consume ')'
                    }
                    let call = Expr::Call {
                        name: Arc::from(s.as_str()),
                        args,
                    };
                    return Ok((call, depth));
                }
                Ok((Expr::attr(&s), 1))
            }
            TokenKind::LParen => {
                let inner = self.nested(|p| p.parse_expr(0))?;
                match self.next() {
                    Some(Token {
                        kind: TokenKind::RParen,
                        ..
                    }) => Ok(inner),
                    Some(t) => Err(ExprError::parse(
                        t.offset,
                        format!("expected ')', found '{}'", t.kind),
                    )),
                    None => Err(ExprError::parse(
                        self.src_len,
                        "expected ')', found end of input",
                    )),
                }
            }
            other => Err(ExprError::parse(
                t.offset,
                format!("unexpected token '{other}'"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_textual_predicate() {
        // filter("age>$foo", {foo: 42}, customers)  — Fig. 4a
        let e = parse("age>$foo").unwrap();
        assert_eq!(e.to_string(), "(age > $foo)");
    }

    #[test]
    fn precedence_mul_over_add_over_cmp() {
        let e = parse("a + b * 2 > 10").unwrap();
        assert_eq!(e.to_string(), "((a + (b * 2)) > 10)");
    }

    #[test]
    fn and_or_precedence_and_associativity() {
        let e = parse("a > 1 or b > 2 and c > 3").unwrap();
        assert_eq!(e.to_string(), "((a > 1) or ((b > 2) and (c > 3)))");
        let e = parse("a - b - c").unwrap();
        assert_eq!(e.to_string(), "((a - b) - c)", "left associative");
    }

    #[test]
    fn parentheses_override() {
        let e = parse("(a or b) and c").unwrap();
        assert_eq!(e.to_string(), "((a or b) and c)");
    }

    #[test]
    fn unary_not_and_neg() {
        let e = parse("not a > 1").unwrap();
        // `not` binds tighter than comparison operands? No: unary applies
        // to the primary, so this parses as (not a) > 1 — document it:
        assert_eq!(e.to_string(), "((not a) > 1)");
        let e = parse("not (a > 1)").unwrap();
        assert_eq!(e.to_string(), "(not (a > 1))");
        let e = parse("-a + 3").unwrap();
        assert_eq!(e.to_string(), "((-a) + 3)");
    }

    #[test]
    fn literals() {
        assert_eq!(parse("true").unwrap().to_string(), "true");
        assert_eq!(parse("'x'").unwrap().to_string(), "'x'");
        assert_eq!(parse("1.5").unwrap().to_string(), "1.5");
    }

    #[test]
    fn function_call_syntax() {
        assert_eq!(parse("len(name)").unwrap().to_string(), "len(name)");
        assert_eq!(
            parse("contains(name, 'x')").unwrap().to_string(),
            "contains(name, 'x')"
        );
        assert_eq!(parse("now()").unwrap().to_string(), "now()");
        assert_eq!(
            parse("f(a + 1, g(b))").unwrap().to_string(),
            "f((a + 1), g(b))"
        );
        // calls participate in expressions with normal precedence
        assert_eq!(
            parse("len(name) + 1 > 4").unwrap().to_string(),
            "((len(name) + 1) > 4)"
        );
        assert!(parse("f(a").is_err());
        assert!(parse("f(a,)").is_err());
        assert!(parse("f(,a)").is_err());
    }

    #[test]
    fn errors_have_positions() {
        let err = parse("a > ").unwrap_err();
        assert!(err.to_string().contains("end of input"), "{err}");
        let err = parse("a > 1 )").unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let err = parse("(a > 1").unwrap_err();
        assert!(err.to_string().contains("')'"), "{err}");
        assert!(parse("and b").is_err());
        assert!(parse("").is_err());
    }
}
