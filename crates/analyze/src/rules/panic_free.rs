//! `panic-free`: no panic sites in non-test library code.
//!
//! The library crates (`core`, `sim`, `workloads`, `bench`) promise typed
//! errors — the engine reports contract violations as [`SimError`]s — so
//! a `panic!`, `.unwrap()`,
//! `.expect(...)`, `unreachable!`, `todo!`, or `unimplemented!` in
//! library code is either a bug or a deliberate, *documented* invariant.
//! Deliberate sites carry an inline `lint:allow(panic-free)` comment or a
//! `lint_allow.toml` entry with a justification; everything else counts
//! against the `panic-free` ratchet, which may only go down.
//!
//! Test code (`#[cfg(test)]`, `#[test]`, `mod tests`) is exempt: tests
//! *should* unwrap.

use crate::lexer::{LexedFile, Tok};
use crate::rules::PANIC_FREE;
use crate::Finding;

/// Panic-taking macros matched as `name` followed by `!`.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Panic-taking methods matched as `.name(`.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// Scans one library file.
pub fn check(rel_path: &str, file: &LexedFile, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || file.allowed(PANIC_FREE, t.line) {
            continue;
        }
        let Tok::Ident(name) = &t.tok else { continue };
        let next = toks.get(i + 1).map(|n| &n.tok);
        if PANIC_MACROS.contains(&name.as_str()) && matches!(next, Some(Tok::Punct('!')))
        {
            out.push(Finding::new(
                PANIC_FREE,
                rel_path,
                t.line,
                format!("`{name}!` in non-test library code"),
            ));
            continue;
        }
        if PANIC_METHODS.contains(&name.as_str())
            && matches!(next, Some(Tok::Punct('(')))
            && i > 0
            && matches!(&toks[i - 1].tok, Tok::Punct('.'))
        {
            out.push(Finding::new(
                PANIC_FREE,
                rel_path,
                t.line,
                format!("`.{name}(...)` in non-test library code"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let mut out = Vec::new();
        check("lib.rs", &lex(src), &mut out);
        out
    }

    #[test]
    fn flags_macros_and_methods() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 {
                if x.is_none() { panic!("boom"); }
                x.unwrap() + y.expect("set")
            }
            fn g() { unreachable!() }
        "#;
        let msgs: Vec<String> = run(src).into_iter().map(|f| f.message).collect();
        assert_eq!(msgs.len(), 4, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("panic!")));
        assert!(msgs.iter().any(|m| m.contains(".unwrap(")));
        assert!(msgs.iter().any(|m| m.contains(".expect(")));
        assert!(msgs.iter().any(|m| m.contains("unreachable!")));
    }

    #[test]
    fn ignores_tests_strings_comments_and_lookalikes() {
        let src = r#"
            // panic! here is prose
            fn f() -> u32 { x.unwrap_or(0) + s.parse().unwrap_or_default() }
            fn g() { let msg = "call panic!() maybe"; }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { x.unwrap(); panic!("fine in tests"); }
            }
        "#;
        assert!(run(src).is_empty());
    }

    #[test]
    fn inline_allow_suppresses() {
        let src = "fn f() {\n    // lint:allow(panic-free) documented invariant\n    x.unwrap();\n    y.unwrap();\n}\n";
        let found = run(src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }
}
