//! dp-lint: the workspace invariant checker.
//!
//! The reproduction's value rests on contracts no compiler enforces:
//! one `(SketcherSpec, KernelId)` must produce one bit pattern on every
//! CPU and thread count, privacy noise must come only from seeded
//! mechanisms, a panicking connection thread must never poison a lock
//! into a permanent denial of service, and every protocol error code
//! must stay documented and tested. This crate makes those contracts
//! machine-checked: a token-level pass over every workspace `.rs` file
//! (comments and strings stripped by [`lexer::mask`], so rules fire
//! only on real code) plus a freeze manifest pinning the historical
//! bit-identity anchors by FNV-1a-64 hash.
//!
//! ## Rules
//!
//! | id | checks |
//! |----|--------|
//! | `freeze` | marked frozen regions hash to the committed manifest |
//! | `unsafe-discipline` | `unsafe` only in allowlisted files, each with an adjacent `// SAFETY:` comment |
//! | `lock-unwrap` | no `.lock().unwrap()` / `.lock().expect(` — heal poisoning or waive |
//! | `hash-collection` | no `HashMap`/`HashSet` in result-producing crates |
//! | `wall-clock` | no `Instant::now` / `SystemTime::now` in result-producing crates |
//! | `narrowing-cast` | no `as f32` in result-producing crates |
//! | `protocol` | every `ERR_*`/`CAP_*` const and frame variant appears in the README and a test file |
//!
//! ## Waivers
//!
//! A deliberate exception is an inline comment on the offending line or
//! in the comment block directly above it:
//!
//! ```text
//! // dp-lint: allow(lock-unwrap) — deliberate poisoning under test.
//! ```
//!
//! The reason text is mandatory: a waiver without a justification is
//! itself a diagnostic.
//!
//! ## Frozen regions
//!
//! ```text
//! // dp-lint: freeze(kernel-v1-scalar) begin
//! ...code whose bits are a compatibility promise...
//! // dp-lint: freeze(kernel-v1-scalar) end
//! ```
//!
//! The region's comment-stripped, whitespace-normalized source is
//! hashed (FNV-1a-64) and compared against `crates/lint/freeze.lock`.
//! Any drift fails lint until the manifest is deliberately regenerated
//! with `cargo run -p dp-lint -- --update-freeze` (and the diff
//! reviewed — that regeneration *is* the compatibility break).

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod walk;

pub use diag::Diagnostic;

use lexer::Masked;
use std::path::Path;

/// Files allowed to contain `unsafe` (each occurrence still needs an
/// adjacent `// SAFETY:` comment). Everything else must be safe code.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/net/src/sys.rs",
    "crates/core/src/kernel.rs",
    "crates/parallel/src/pool.rs",
    "crates/parallel/src/lib.rs",
];

/// Crates whose non-test code produces results that must be
/// deterministic: no hash-ordered collections, wall clocks, or
/// precision-narrowing casts without a waiver.
pub const DETERMINISM_CRATES: &[&str] = &[
    "crates/core/",
    "crates/engine/",
    "crates/parallel/",
    "crates/transforms/",
    "crates/noise/",
];

/// Wire-layer modules exempt from the determinism lints: quantization
/// (`as f32`) and tag interning (`HashSet`) are the wire's job, and
/// its outputs are covered by byte-exact roundtrip suites instead.
pub const DETERMINISM_EXEMPT: &[&str] = &["crates/core/src/wire.rs", "crates/core/src/protocol.rs"];

/// Frozen regions that must exist — deleting the markers is as much a
/// contract break as editing the code inside them.
pub const REQUIRED_FREEZE_REGIONS: &[&str] = &[
    "kernel-v1-scalar",
    "estimator-sq-distance",
    "pairwise-reference",
    "sketch-batch-v1",
    "sketch-wire-codec",
    "protocol-frame-envelope",
    "protocol-frame-codec",
    "snapshot-codec-v1",
    "persisted-digest",
];

/// The protocol definition the exhaustiveness rule parses.
pub const PROTOCOL_FILE: &str = "crates/core/src/protocol.rs";

/// Workspace-relative path of the freeze manifest.
pub const FREEZE_MANIFEST_PATH: &str = "crates/lint/freeze.lock";

/// One loaded (and masked) source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Raw file content.
    pub raw: String,
    /// Masked views (see [`lexer::mask`]).
    pub masked: Masked,
    /// Per-line flag: inside a `#[cfg(test)] mod … { … }` region.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    /// Build from a relative path and raw content.
    #[must_use]
    pub fn new(rel: &str, raw: &str) -> Self {
        let masked = lexer::mask(raw);
        let test_lines = test_region_lines(&masked);
        Self {
            rel: rel.to_string(),
            raw: raw.to_string(),
            masked,
            test_lines,
        }
    }

    /// Whether 1-based `line` sits inside a `#[cfg(test)]` module.
    #[must_use]
    pub fn in_test_region(&self, line: usize) -> bool {
        line >= 1 && self.test_lines.get(line - 1).copied().unwrap_or(false)
    }
}

/// Everything lint looks at: sources, the README, the freeze manifest.
#[derive(Debug)]
pub struct Workspace {
    /// Every `.rs` file, masked.
    pub files: Vec<SourceFile>,
    /// `README.md` content (empty when absent).
    pub readme: String,
    /// `crates/lint/freeze.lock` content, when present.
    pub manifest: Option<String>,
}

impl Workspace {
    /// Build an in-memory workspace (fixtures and tests).
    #[must_use]
    pub fn from_files(files: Vec<(&str, &str)>, readme: &str, manifest: Option<&str>) -> Self {
        Self {
            files: files
                .into_iter()
                .map(|(rel, raw)| SourceFile::new(rel, raw))
                .collect(),
            readme: readme.to_string(),
            manifest: manifest.map(str::to_string),
        }
    }

    /// Load a workspace from disk, walking `root` for `.rs` files.
    ///
    /// # Errors
    /// Any I/O failure reading the tree.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        walk::load_workspace(root)
    }

    /// The file with workspace-relative path `rel`, if loaded.
    #[must_use]
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Run every rule over the workspace, returning all diagnostics sorted
/// by path and line. An empty result is a clean workspace.
#[must_use]
pub fn lint_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in &ws.files {
        rules::unsafe_rule::check(file, &mut diags);
        rules::locks::check(file, &mut diags);
        rules::determinism::check(file, &mut diags);
    }
    rules::freeze::check(ws, &mut diags);
    rules::protocol::check(ws, &mut diags);
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    diags
}

/// Regenerate the freeze manifest from the workspace's marked regions,
/// returning the new manifest text (the caller writes it to
/// [`FREEZE_MANIFEST_PATH`]).
#[must_use]
pub fn regenerate_freeze_manifest(ws: &Workspace) -> String {
    rules::freeze::regenerate(ws)
}

/// Whether a waiver comment `dp-lint: allow(<key>) — reason` covers
/// 1-based `line`: on the line itself, or anywhere in the contiguous
/// block of pure-comment lines directly above it. Returns `Some(true)`
/// for a valid waiver, `Some(false)` for a waiver missing its reason,
/// `None` for no waiver at all.
#[must_use]
pub fn waiver_at(file: &SourceFile, key: &str, line: usize) -> Option<bool> {
    let check = |l: usize| -> Option<bool> {
        let comment = file.masked.comment_line(l);
        let needle = format!("dp-lint: allow({key})");
        let at = comment.find(&needle)?;
        let rest = comment[at + needle.len()..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        Some(!rest.is_empty())
    };
    if let Some(v) = check(line) {
        return Some(v);
    }
    // Walk the contiguous pure-comment block upward.
    let mut l = line;
    while l > 1 {
        l -= 1;
        let has_comment = !file.masked.comment_line(l).trim().is_empty();
        let has_code = !file.masked.code_line(l).trim().is_empty();
        if has_code || !has_comment {
            break;
        }
        if let Some(v) = check(l) {
            return Some(v);
        }
    }
    None
}

/// Whether a `SAFETY:` comment sits on `line` or in the contiguous
/// pure-comment block directly above it.
#[must_use]
pub fn safety_comment_at(file: &SourceFile, line: usize) -> bool {
    if file.masked.comment_line(line).contains("SAFETY:") {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        let comment = file.masked.comment_line(l);
        let has_code = !file.masked.code_line(l).trim().is_empty();
        if has_code || comment.trim().is_empty() {
            return false;
        }
        if comment.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// Compute which lines sit inside `#[cfg(test)] mod … { … }` blocks.
fn test_region_lines(masked: &Masked) -> Vec<bool> {
    let code = &masked.code;
    let mut flags = vec![false; masked.line_count()];
    let mut search = 0usize;
    while let Some(attr_start) = find_cfg_test(code, search) {
        search = attr_start + 1;
        // Skip past this attribute's closing ']' and any further
        // attributes, then require the item to be a `mod`.
        let mut pos = attr_start;
        loop {
            let Some(close) = (pos..code.len()).find(|&p| code[p] == ']') else {
                return flags;
            };
            pos = lexer::skip_ws(code, close + 1);
            if code.get(pos) != Some(&'#') {
                break;
            }
        }
        let Some((ident, after)) = lexer::ident_at(code, pos) else {
            continue;
        };
        let (ident, after) = if ident == "pub" {
            let p = lexer::skip_ws(code, after);
            match lexer::ident_at(code, p) {
                Some(x) => x,
                None => continue,
            }
        } else {
            (ident, after)
        };
        if ident != "mod" {
            continue;
        }
        // Find the module's opening brace and match it.
        let Some(open) = (after..code.len()).find(|&p| code[p] == '{') else {
            continue;
        };
        let mut depth = 0i64;
        let mut end = open;
        for (p, &c) in code.iter().enumerate().skip(open) {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = p;
                        break;
                    }
                }
                _ => {}
            }
        }
        let first = masked.line_of(attr_start);
        let last = masked.line_of(end);
        for line in first..=last {
            if line >= 1 && line <= flags.len() {
                flags[line - 1] = true;
            }
        }
        search = end.max(attr_start + 1);
    }
    flags
}

/// Find the next `#[cfg(test)]` attribute at or after `from`,
/// tolerating whitespace between tokens. Returns the `#` position.
fn find_cfg_test(code: &[char], from: usize) -> Option<usize> {
    let mut i = from;
    while i < code.len() {
        if code[i] != '#' {
            i += 1;
            continue;
        }
        let mut p = lexer::skip_ws(code, i + 1);
        if code.get(p) != Some(&'[') {
            i += 1;
            continue;
        }
        p = lexer::skip_ws(code, p + 1);
        let matches = lexer::ident_at(code, p).is_some_and(|(ident, after)| {
            if ident != "cfg" {
                return false;
            }
            let mut q = lexer::skip_ws(code, after);
            if code.get(q) != Some(&'(') {
                return false;
            }
            q = lexer::skip_ws(code, q + 1);
            lexer::ident_at(code, q).is_some_and(|(inner, after_inner)| {
                inner == "test" && code.get(lexer::skip_ws(code, after_inner)) == Some(&')')
            })
        });
        if matches {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_regions_are_detected() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       use std::collections::HashSet;\n\
                       #[test]\n\
                       fn t() {}\n\
                   }\n\
                   fn also_live() {}\n";
        let f = SourceFile::new("crates/core/src/x.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(4));
        assert!(f.in_test_region(7));
        assert!(!f.in_test_region(8));
    }

    #[test]
    fn waiver_parsing_requires_a_reason() {
        let good = SourceFile::new(
            "x.rs",
            "// dp-lint: allow(lock-unwrap) — deliberate poisoning\nlet g = m.lock().unwrap();\n",
        );
        assert_eq!(waiver_at(&good, "lock-unwrap", 2), Some(true));
        let bare = SourceFile::new(
            "x.rs",
            "// dp-lint: allow(lock-unwrap)\nlet g = m.lock().unwrap();\n",
        );
        assert_eq!(waiver_at(&bare, "lock-unwrap", 2), Some(false));
        let none = SourceFile::new("x.rs", "let g = m.lock().unwrap();\n");
        assert_eq!(waiver_at(&none, "lock-unwrap", 1), None);
        let trailing = SourceFile::new(
            "x.rs",
            "let g = m.lock().unwrap(); // dp-lint: allow(lock-unwrap) — test poisons it\n",
        );
        assert_eq!(waiver_at(&trailing, "lock-unwrap", 1), Some(true));
    }

    #[test]
    fn safety_comment_block_is_found_across_lines() {
        let f = SourceFile::new(
            "x.rs",
            "// SAFETY: the pointer is valid for the whole call and\n\
             // the length is passed alongside.\n\
             let rc = unsafe { poll(fds.as_mut_ptr(), len, t) };\n",
        );
        assert!(safety_comment_at(&f, 3));
        let bare = SourceFile::new("x.rs", "let rc = unsafe { poll() };\n");
        assert!(!safety_comment_at(&bare, 1));
    }
}
