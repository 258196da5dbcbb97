//! Lock-poisoning policy: `.lock().unwrap()` and `.lock().expect(…)`
//! are forbidden.
//!
//! A panicking thread that held such a mutex poisons it, and every
//! later `.unwrap()` turns into a panic — the permanent
//! denial-of-service the coordinator hardening removed (one dead
//! connection thread must never take a shared lock down with it).
//! The sanctioned patterns are healing (`clear_poison` +
//! `PoisonError::into_inner`, with a comment arguing why the guarded
//! state is safe to reuse or discard) or an explicit waiver:
//!
//! ```text
//! // dp-lint: allow(lock-unwrap) — deliberate poisoning under test.
//! ```

use crate::diag::Diagnostic;
use crate::lexer::{find_word, ident_at, skip_ws};
use crate::{waiver_at, SourceFile};

/// Rule id and waiver key.
pub const RULE: &str = "lock-unwrap";

/// Check one file.
pub fn check(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let code = &file.masked.code;
    for pos in find_word(code, "lock") {
        // Require `.lock` — a method call, not a fn named lock.
        let dotted = pos > 0 && {
            let mut p = pos;
            while p > 0 && code[p - 1].is_whitespace() {
                p -= 1;
            }
            p > 0 && code[p - 1] == '.'
        };
        if !dotted {
            continue;
        }
        // `()` of the lock call.
        let mut p = skip_ws(code, pos + "lock".len());
        if code.get(p) != Some(&'(') {
            continue;
        }
        p = skip_ws(code, p + 1);
        if code.get(p) != Some(&')') {
            continue;
        }
        // `.unwrap(` or `.expect(` chained next.
        p = skip_ws(code, p + 1);
        if code.get(p) != Some(&'.') {
            continue;
        }
        p = skip_ws(code, p + 1);
        let Some((method, after)) = ident_at(code, p) else {
            continue;
        };
        if method != "unwrap" && method != "expect" {
            continue;
        }
        if code.get(skip_ws(code, after)) != Some(&'(') {
            continue;
        }
        let line = file.masked.line_of(pos);
        match waiver_at(file, RULE, line) {
            Some(true) => {}
            Some(false) => diags.push(Diagnostic::new(
                &file.rel,
                line,
                RULE,
                "waiver without a reason — `dp-lint: allow(lock-unwrap)` must \
                 say why the poisoning DoS cannot happen here"
                    .to_string(),
            )),
            None => diags.push(Diagnostic::new(
                &file.rel,
                line,
                RULE,
                format!(
                    "`.lock().{method}(…)` panics forever once the mutex is \
                     poisoned — heal instead (`clear_poison` + \
                     `PoisonError::into_inner`, with a comment on why the \
                     state survives) or waive with `// dp-lint: \
                     allow(lock-unwrap) — <reason>`"
                ),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let f = SourceFile::new(
            "crates/server/src/lib.rs",
            "let a = m.lock().unwrap();\nlet b = m.lock().expect(\"m\");\n",
        );
        let mut d = Vec::new();
        check(&f, &mut d);
        assert_eq!(d.len(), 2);
        assert_eq!((d[0].line, d[1].line), (1, 2));
    }

    #[test]
    fn healing_pattern_is_clean() {
        let f = SourceFile::new(
            "crates/server/src/lib.rs",
            "let a = m.lock().unwrap_or_else(|p| { m.clear_poison(); p.into_inner() });\n",
        );
        let mut d = Vec::new();
        check(&f, &mut d);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn waiver_with_reason_is_honored_without_reason_is_not() {
        let good = SourceFile::new(
            "crates/server/src/lib.rs",
            "let a = m.lock().unwrap(); // dp-lint: allow(lock-unwrap) — poisoning is the point\n",
        );
        let mut d = Vec::new();
        check(&good, &mut d);
        assert!(d.is_empty(), "{d:?}");

        let bare = SourceFile::new(
            "crates/server/src/lib.rs",
            "// dp-lint: allow(lock-unwrap)\nlet a = m.lock().unwrap();\n",
        );
        let mut d = Vec::new();
        check(&bare, &mut d);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("without a reason"));
    }

    #[test]
    fn multiline_chain_is_still_caught() {
        let f = SourceFile::new(
            "crates/server/src/lib.rs",
            "let a = m\n    .lock()\n    .unwrap();\n",
        );
        let mut d = Vec::new();
        check(&f, &mut d);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }
}
