//! Determinism lints for result-producing crates.
//!
//! The bit-identity contract says one `SketcherSpec` produces one bit
//! pattern everywhere. Three token families can break
//! that silently:
//!
//! * `HashMap`/`HashSet` — iteration order varies per process, so any
//!   hash collection that leaks into ordered output is nondeterminism
//!   waiting to happen (waiver key `hash-collection`; lookup-only
//!   indexes are the legitimate, waivable case — or convert to
//!   `BTreeMap`);
//! * `Instant::now`/`SystemTime::now` — wall clocks in a result path
//!   make output depend on scheduling (waiver key `wall-clock`);
//! * `as f32` — narrowing a 64-bit value mid-computation changes
//!   result bits; quantization belongs to the wire layer, which is
//!   exempt (waiver key `narrowing-cast`).
//!
//! Scope: non-test code of the crates in
//! [`crate::DETERMINISM_CRATES`], minus the wire modules
//! ([`crate::DETERMINISM_EXEMPT`]). Test modules may time themselves
//! and build `HashSet`s for cover checks; they produce no results.

use crate::diag::Diagnostic;
use crate::lexer::{find_word, ident_at, skip_ws};
use crate::{waiver_at, SourceFile, DETERMINISM_CRATES, DETERMINISM_EXEMPT};

/// Waiver key for hash-ordered collections.
pub const RULE_HASH: &str = "hash-collection";
/// Waiver key for wall-clock reads.
pub const RULE_CLOCK: &str = "wall-clock";
/// Waiver key for `as f32` narrowing.
pub const RULE_CAST: &str = "narrowing-cast";

/// Check one file (no-op outside the determinism scope).
pub fn check(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let in_scope = DETERMINISM_CRATES.iter().any(|c| file.rel.starts_with(c))
        && !DETERMINISM_EXEMPT.contains(&file.rel.as_str());
    if !in_scope {
        return;
    }
    let code = &file.masked.code;

    for word in ["HashMap", "HashSet"] {
        for pos in find_word(code, word) {
            let line = file.masked.line_of(pos);
            // Importing the type is not using it; flag construction and
            // type positions, where the wrong collection gets picked.
            let trimmed = file.masked.code_line(line);
            let trimmed = trimmed.trim_start();
            if trimmed.starts_with("use ") || trimmed.starts_with("pub use ") {
                continue;
            }
            report(
                file,
                line,
                RULE_HASH,
                diags,
                &format!(
                    "`{word}` in a result-producing crate — hash iteration order is \
                 per-process nondeterminism; use `BTreeMap`/`BTreeSet`, or waive \
                 with `// dp-lint: allow(hash-collection) — <why order never \
                 reaches output>`"
                ),
            );
        }
    }

    for clock in ["Instant", "SystemTime"] {
        for pos in find_word(code, clock) {
            // `Instant :: now` with arbitrary spacing.
            let mut p = skip_ws(code, pos + clock.len());
            if code.get(p) != Some(&':') || code.get(p + 1) != Some(&':') {
                continue;
            }
            p = skip_ws(code, p + 2);
            if ident_at(code, p).is_none_or(|(m, _)| m != "now") {
                continue;
            }
            let line = file.masked.line_of(pos);
            report(
                file,
                line,
                RULE_CLOCK,
                diags,
                &format!(
                    "`{clock}::now` in a result-producing crate — wall clocks make \
                 results depend on scheduling; thread timing through the bench \
                 layer, or waive with `// dp-lint: allow(wall-clock) — <reason>`"
                ),
            );
        }
    }

    for pos in find_word(code, "as") {
        let p = skip_ws(code, pos + 2);
        if ident_at(code, p).is_none_or(|(t, _)| t != "f32") {
            continue;
        }
        let line = file.masked.line_of(pos);
        report(
            file,
            line,
            RULE_CAST,
            diags,
            "`as f32` narrowing in a result-producing crate — precision loss \
             changes result bits; quantization belongs to the wire layer \
             (exempt), or waive with `// dp-lint: allow(narrowing-cast) — \
             <reason>`",
        );
    }
}

fn report(
    file: &SourceFile,
    line: usize,
    rule: &'static str,
    diags: &mut Vec<Diagnostic>,
    message: &str,
) {
    if file.in_test_region(line) {
        return;
    }
    match waiver_at(file, rule, line) {
        Some(true) => {}
        Some(false) => diags.push(Diagnostic::new(
            &file.rel,
            line,
            rule,
            format!("waiver without a reason — `dp-lint: allow({rule})` must justify itself"),
        )),
        None => diags.push(Diagnostic::new(&file.rel, line, rule, message.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_collections_flagged_outside_tests_only() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u64, usize> = HashMap::new(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { let s = std::collections::HashSet::new(); }\n\
                   }\n";
        let f = SourceFile::new("crates/engine/src/store.rs", src);
        let mut d = Vec::new();
        check(&f, &mut d);
        // Two tokens on line 2 (type + constructor); the use line and
        // the test module are exempt.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.line == 2));
    }

    #[test]
    fn waived_hash_collection_is_clean() {
        let src = "// dp-lint: allow(hash-collection) — lookup-only index, never iterated\n\
                   type Index = HashMap<u64, usize>;\n";
        let f = SourceFile::new("crates/engine/src/store.rs", src);
        let mut d = Vec::new();
        check(&f, &mut d);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn clocks_and_casts_flagged_in_scope_only() {
        let src = "fn f() -> f32 { let t = Instant::now(); let x = 1.0f64; x as f32 }\n";
        let scoped = SourceFile::new("crates/core/src/estimator.rs", src);
        let mut d = Vec::new();
        check(&scoped, &mut d);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.rule == RULE_CLOCK));
        assert!(d.iter().any(|x| x.rule == RULE_CAST));

        let server = SourceFile::new("crates/server/src/lib.rs", src);
        let mut d = Vec::new();
        check(&server, &mut d);
        assert!(d.is_empty(), "server is not a result-producing crate");

        let wire = SourceFile::new("crates/core/src/wire.rs", src);
        let mut d = Vec::new();
        check(&wire, &mut d);
        assert!(d.is_empty(), "wire module is exempt");
    }

    #[test]
    fn as_f64_is_not_a_narrowing_cast() {
        let f = SourceFile::new(
            "crates/core/src/estimator.rs",
            "fn f(k: usize) -> f64 { k as f64 }\n",
        );
        let mut d = Vec::new();
        check(&f, &mut d);
        assert!(d.is_empty(), "{d:?}");
    }
}
