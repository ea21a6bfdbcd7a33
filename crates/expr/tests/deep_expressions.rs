//! Adversarially deep expressions get a typed parse error, not a stack
//! overflow: binding, evaluating, printing and dropping an `Expr` recurse
//! on its tree, so the parser bounds the depth of the tree it builds.

use fdm_core::{TupleF, Value};
use fdm_expr::{eval, parse, ExprError};

/// Runs `f` on a thread with a 2 MiB stack, the default size of a spawned
/// thread, where these inputs used to abort the process.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn a thread")
            .join()
            .expect("the thread does not panic")
    })
}

#[test]
fn deep_inputs_are_parse_errors() {
    let inputs = [
        (
            "5,000 nested parentheses",
            format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000)),
        ),
        (
            "100,000 chained nots",
            format!("{}true", "not ".repeat(100_000)),
        ),
        ("a 100,000-term sum", format!("1{}", " + 1".repeat(99_999))),
    ];
    for (what, src) in inputs {
        let got = on_small_stack(|| parse(&src).map(|e| e.to_string().len()));
        assert!(
            matches!(got, Err(ExprError::Parse { .. })),
            "{what}: {got:?}"
        );
    }
}

#[test]
fn a_200_deep_expression_parses_and_evaluates() {
    let row = TupleF::builder("t").attr("a", 1).build();
    let cases = [
        (
            format!("{}a{}", "(".repeat(200), ")".repeat(200)),
            Value::Int(1),
        ),
        (format!("{}true", "not ".repeat(200)), Value::Bool(true)),
        (format!("a{}", " + 1".repeat(199)), Value::Int(200)),
    ];
    for (src, want) in cases {
        let got = on_small_stack(|| eval(&parse(&src).expect("parses"), &row).expect("evaluates"));
        assert_eq!(got, want, "{}", &src[..20]);
    }
}
