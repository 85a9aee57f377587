//! A small structured while-language that compiles to [`am_ir`] flow
//! graphs — the "realistic structured programs" of the paper's Sec. 4.5,
//! as a usable frontend.
//!
//! # Syntax
//!
//! ```text
//! // assignment (expressions arbitrarily nested), skip, print
//! sum := 0;
//! // while may run zero times; do-while runs at least once;
//! // for (init; cond; step) desugars to init + while.
//! for (i := 0; i < n; i := i + 1) {
//!     sum := sum + i;
//! }
//! do {
//!     addr := base + i * cols;     // decomposed to 3-address form
//!     sum := sum + addr % 97;
//!     i := i - 1;
//! } while (i > 0);
//! print(sum, -sum);
//! ```
//!
//! # Examples
//!
//! ```
//! use am_lang::compile;
//! use am_core::global::optimize;
//! use am_ir::interp::{run, Config};
//!
//! let g = compile("x := (a+b)*(a+b); print(x);")?;
//! let optimized = optimize(&g).program;
//! let cfg = Config::with_inputs(vec![("a", 2), ("b", 3)]);
//! let before = run(&g, &cfg);
//! let after = run(&optimized, &cfg);
//! assert_eq!(before.outputs, vec![vec![25]]);
//! assert_eq!(before.observable(), after.observable());
//! assert!(after.expr_evals < before.expr_evals); // a+b computed once
//! # Ok::<(), am_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
mod lower;
mod parse;
mod print;
pub mod source;

pub use ast::{LExpr, Program, Stmt};
pub use lower::{compile, lower};
pub use parse::{parse_program, LangError, MAX_DEPTH};
pub use print::{expr_to_source, to_source};
pub use source::{compile_source, SourceError, SourceKind};

#[cfg(test)]
mod tests {
    use super::*;
    use am_ir::interp::{run, Config};

    #[test]
    fn straight_line_program() {
        let g = compile("x := a + b; y := x * 2; print(x, y);").unwrap();
        assert_eq!(g.validate(), Ok(()));
        let r = run(&g, &Config::with_inputs(vec![("a", 1), ("b", 2)]));
        assert_eq!(r.outputs, vec![vec![3, 6]]);
    }

    #[test]
    fn nested_expressions_are_decomposed() {
        let g = compile("x := a + b * c - d; print(x);").unwrap();
        // Every instruction is 3-address.
        for (_, instr) in g.locs() {
            if let am_ir::Instr::Assign { rhs, .. } = instr {
                let _ = rhs; // Terms are 3-address by type construction.
            }
        }
        let r = run(
            &g,
            &Config::with_inputs(vec![("a", 10), ("b", 2), ("c", 3), ("d", 1)]),
        );
        assert_eq!(r.outputs, vec![vec![10 + 2 * 3 - 1]]);
    }

    #[test]
    fn while_loop_semantics() {
        let g =
            compile("i := 0; s := 0; while (i < n) { s := s + i; i := i + 1; } print(s);").unwrap();
        for n in [0, 1, 5] {
            let r = run(&g, &Config::with_inputs(vec![("n", n)]));
            let expected: i64 = (0..n).sum();
            assert_eq!(r.outputs, vec![vec![expected]], "n={n}");
        }
    }

    #[test]
    fn do_while_runs_at_least_once() {
        let g = compile("i := 0; do { i := i + 1; } while (i < n); print(i);").unwrap();
        let r0 = run(&g, &Config::with_inputs(vec![("n", 0)]));
        assert_eq!(r0.outputs, vec![vec![1]], "body runs once even when n=0");
        let r5 = run(&g, &Config::with_inputs(vec![("n", 5)]));
        assert_eq!(r5.outputs, vec![vec![5]]);
    }

    #[test]
    fn if_else_and_if_without_else() {
        let g =
            compile("if (a > b) { m := a; } else { m := b; } if (m > 100) { m := 100; } print(m);")
                .unwrap();
        assert_eq!(
            run(&g, &Config::with_inputs(vec![("a", 3), ("b", 7)])).outputs,
            vec![vec![7]]
        );
        assert_eq!(
            run(&g, &Config::with_inputs(vec![("a", 300), ("b", 7)])).outputs,
            vec![vec![100]]
        );
    }

    #[test]
    fn print_accepts_expressions() {
        let g = compile("print(a + b, 42, a);").unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", 1), ("b", 2)]));
        assert_eq!(r.outputs, vec![vec![3, 42, 1]]);
    }

    #[test]
    fn fresh_variables_avoid_source_names() {
        let g = compile("_t1 := 9; x := a + b * c; print(x, _t1);").unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", 1), ("b", 2), ("c", 3)]));
        assert_eq!(r.outputs, vec![vec![7, 9]]);
    }

    #[test]
    fn parse_errors_carry_lines() {
        let err = parse_program("x := 1;\ny = 2;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains(":="), "{err}");
        assert!(parse_program("if a > b { }").is_err(), "missing parens");
        assert!(parse_program("do { } while (x);").is_ok());
        assert!(parse_program("do { } while (x)").is_err(), "missing semi");
    }

    #[test]
    fn comments_and_whitespace() {
        let g = compile("// leading comment\nx := 1; # trailing style\nprint(x);").unwrap();
        let r = run(&g, &Config::default());
        assert_eq!(r.outputs, vec![vec![1]]);
    }

    #[test]
    fn graphs_are_reducible() {
        let g = compile(
            "i := 0; while (i < n) { if (i % 2 == 0) { s := s + i; } i := i + 1; } print(s);",
        )
        .unwrap();
        assert!(am_ir::analysis::is_reducible(&g));
    }

    #[test]
    fn optimizer_integration_do_while_invariants() {
        // The row-address motif: invariant computations leave the do-while
        // loop entirely under the full algorithm.
        let src = "i := 0; s := 0;\n\
             do {\n\
               row := base + k * cols;\n\
               s := s + row + i;\n\
               i := i + 1;\n\
             } while (i < n);\n\
             print(s);";
        let g = compile(src).unwrap();
        let optimized = am_core::global::optimize(&g).program;
        for n in [1, 3, 8] {
            let cfg = Config::with_inputs(vec![("base", 100), ("k", 2), ("cols", 10), ("n", n)]);
            let a = run(&g, &cfg);
            let b = run(&optimized, &cfg);
            assert_eq!(a.observable(), b.observable(), "n={n}");
            assert!(b.expr_evals <= a.expr_evals, "n={n}");
            if n > 1 {
                assert!(b.expr_evals < a.expr_evals, "n={n}: invariants should move");
            }
        }
    }

    #[test]
    fn for_loop_desugars_to_init_plus_while() {
        let g =
            compile("s := 0; for (i := 0; i < n; i := i + 1) { s := s + i; } print(s);").unwrap();
        for n in [0, 1, 6] {
            let r = run(&g, &Config::with_inputs(vec![("n", n)]));
            let expected: i64 = (0..n).sum();
            assert_eq!(r.outputs, vec![vec![expected]], "n={n}");
        }
        // AST shape: assignment then while.
        let p = parse_program("for (i := 0; i < n; i := i + 1) { skip; }").unwrap();
        assert!(matches!(p.body[0], Stmt::Assign { .. }));
        assert!(matches!(p.body[1], Stmt::While { .. }));
    }

    #[test]
    fn unary_minus_on_expressions() {
        let g = compile("x := -a; y := -(a + b); z := 3 - -2; print(x, y, z);").unwrap();
        let r = run(&g, &Config::with_inputs(vec![("a", 5), ("b", 2)]));
        assert_eq!(r.outputs, vec![vec![-5, -7, 5]]);
    }

    #[test]
    fn stmt_count_is_recursive() {
        let p = parse_program("x := 1; if (x) { y := 2; } else { skip; } while (x) { x := 0; }")
            .unwrap();
        assert_eq!(p.stmt_count(), 6);
    }

    /// Each shape used to overflow the stack — in the parser, or in a later
    /// walk over its AST — and must now be a typed error.
    fn assert_too_deep(src: &str) {
        let err = compile(src).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
    }

    #[test]
    fn deeply_nested_parentheses_are_an_error() {
        let n = 5000;
        assert_too_deep(&format!("x := {}a{};", "(".repeat(n), ")".repeat(n)));
    }

    #[test]
    fn long_flat_operator_chains_are_an_error() {
        // A left-deep tree built by a loop, not by recursion.
        assert_too_deep(&format!("x := a{};", " + a".repeat(20_000)));
    }

    #[test]
    fn long_unary_minus_chains_are_an_error() {
        assert_too_deep(&format!("x := {}a;", "- ".repeat(20_000)));
    }

    #[test]
    fn deeply_nested_loops_are_an_error() {
        let n = 20_000;
        assert_too_deep(&format!(
            "{}x := 1;{}",
            "while (a) { ".repeat(n),
            " }".repeat(n)
        ));
    }

    #[test]
    fn programs_at_the_depth_limit_compile_and_print() {
        // Half the budget in loops, the rest in the expression inside.
        let loops = MAX_DEPTH / 2;
        let height = MAX_DEPTH - loops;
        let src = format!(
            "{}x := a{};{}",
            "while (a) { ".repeat(loops),
            " + a".repeat(height),
            " }".repeat(loops)
        );
        let program = parse_program(&src).unwrap();
        let reparsed = parse_program(&to_source(&program)).unwrap();
        assert_eq!(reparsed, program);
        let g = lower(&program);
        assert_eq!(g.validate(), Ok(()));
        assert_too_deep(&src.replacen("a;", "a + a;", 1));
    }
}
