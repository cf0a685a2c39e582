//! `df-lint` — repo-specific static analysis the compiler and clippy cannot do.
//!
//! The analyzer is deliberately *lexical*: a small scanner strips string
//! literals and separates comments from code, and every rule works on that
//! token-ish view.  No `syn`, no dependencies — the linter must build in the
//! offline environment and must never become the slowest crate in the tree.
//!
//! Rules (see DESIGN.md "Static analysis & sanitizers"):
//!
//! 1. **safety-comment** — every `unsafe` keyword (block, fn, impl) must have
//!    a `// SAFETY:` comment or a `# Safety` doc section within the preceding
//!    [`SAFETY_LOOKBACK`] lines (or on the same line).
//! 2. **wire-discipline** — the wire-facing proto modules ([`WIRE_FACING`])
//!    must not contain panic paths (`unwrap`/`expect`/`panic!`/…) or
//!    unannotated indexing outside `#[cfg(test)]` regions.  Indexing is
//!    allowed when a nearby comment justifies it with the word "bound".
//! 3. **ffi-allowlist** — `extern "…" { }` FFI blocks may only appear under
//!    `shims/`, and every declaration must match [`FFI_ALLOWLIST`] verbatim
//!    (modulo whitespace).  Stale allowlist entries are also errors.
//! 4. **doc-drift** — the wire-format constants quoted in DESIGN.md (magic,
//!    version, header size, layer caps) are cross-checked against the code,
//!    `MAX_SCHEDULED_LAYERS` must stay single-sourced from `df_mcast`, and a
//!    root-level `*.md`/`*.json` file cited by bare name from a comment under
//!    [`CITING_DIRS`] or from one of [`CITING_DOCS`] must exist.
//! 5. **unsafe-posture** — every crate root (`crates/*/src/lib.rs`,
//!    `shims/*/src/lib.rs`, the workspace root `src/lib.rs`) must declare
//!    `#![forbid(unsafe_code)]` or `#![deny(unsafe_op_in_unsafe_fn)]`.
//! 6. **atomic-ordering** — every non-`SeqCst` memory ordering
//!    (`Ordering::Relaxed`/`Acquire`/`Release`/`AcqRel`) must carry a
//!    `// ordering:` justification within the preceding
//!    [`ORDERING_LOOKBACK`] lines.  `SeqCst` is the self-justifying default;
//!    anything weaker is an optimization that needs its pairing argument
//!    written down.
//! 7. **send-sync-audit** — no `unsafe impl Send`/`unsafe impl Sync`
//!    anywhere in the workspace: a thread-safety assertion the compiler
//!    cannot check is an error, whatever its SAFETY comment says.
//! 8. **lock-discipline** — a `let`-bound lock guard acquired while another
//!    guard is still live in scope needs a `// lock-order:` note within the
//!    preceding [`LOCK_ORDER_LOOKBACK`] lines naming the global acquisition
//!    order, so two code paths cannot take the same pair of locks in
//!    opposite orders without the conflict showing in review.
//! 9. **global-state** — a `static` under `crates/*/src` (outside
//!    `#[cfg(test)]`) that can change after initialisation — `static mut`, or
//!    a type that mentions `Mutex`, `RwLock` or an `Atomic*` — must match a
//!    row of [`GLOBAL_STATE_ALLOWLIST`] verbatim (modulo whitespace).
//!    Process-wide state outlives every test's set-up and couples callers
//!    that share nothing else; the diff to the table is where each instance
//!    gets argued for.  Write-once tables (`OnceLock`/`LazyLock` around plain
//!    data) are constants and exempt by construction.  Stale rows are errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Lines of lookback granted to a `SAFETY:` comment before an `unsafe` token.
///
/// Wide enough for a doc comment with a `# Safety` section on an `unsafe fn`,
/// or one shared comment over a short run of dispatch arms; narrow enough that
/// a comment cannot accidentally license an unrelated block.
pub const SAFETY_LOOKBACK: usize = 12;

/// Comment lookback for an indexing bounds note in wire-facing modules.
pub const BOUNDS_LOOKBACK: usize = 3;

/// Modules that parse or construct untrusted wire input (rule 2 scope).
pub const WIRE_FACING: &[&str] = &[
    "crates/proto/src/control.rs",
    "crates/proto/src/client.rs",
    "crates/proto/src/rateless.rs",
    "crates/proto/src/wire.rs",
];

/// Tokens banned outside `#[cfg(test)]` in wire-facing modules.
pub const BANNED_WIRE_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// One allowlisted FFI declaration.
#[derive(Debug, Clone, Copy)]
pub struct FfiEntry {
    /// Repo-relative path (with `/` separators) the declaration may live in.
    pub file: &'static str,
    /// The exact declaration, compared whitespace-insensitively.
    pub signature: &'static str,
}

/// Every `extern` FFI declaration the workspace is allowed to contain.
///
/// Adding an FFI call means adding a row here *in the same PR* — the diff to
/// this table is the review surface for new foreign-function exposure.
pub const FFI_ALLOWLIST: &[FfiEntry] = &[FfiEntry {
    file: "shims/polling/src/lib.rs",
    signature:
        "fn ppoll(fds: *mut PollFd, nfds: c_ulong, tmo: *const Timespec, mask: *const c_void) -> i32",
}];

/// A single lint finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path with `/` separators.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (stable kebab-case identifier).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

fn diag(file: &str, line: usize, rule: &'static str, message: impl Into<String>) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Scanner: split source into per-line (code, comment) pairs.
// ---------------------------------------------------------------------------

/// One source line with string literals blanked out of `code` and every
/// comment's text (line, block, doc) collected into `comment`.
#[derive(Debug, Default, Clone)]
pub struct SourceLine {
    /// Code text: literals replaced by their delimiters only (`""`, `''`).
    pub code: String,
    /// Concatenated comment text that touches this line.
    pub comment: String,
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str { raw_hashes: Option<u32> },
}

/// Lexically split `src` into lines of code and comment text.
///
/// String/char literal *contents* are dropped (delimiters kept) so rules never
/// match tokens inside literals; comment text is preserved verbatim so rules
/// can look for `SAFETY:` / `# Safety` / bounds notes.
pub fn split_comments(src: &str) -> Vec<SourceLine> {
    let chars: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = SourceLine::default();
    let mut state = State::Code;
    let mut i = 0;

    // Returns Some(hash_count) when the code buffer ends in a raw-string
    // opener prefix (`r`, `r#`, `br##`, …) for the quote about to be pushed.
    fn raw_prefix(code: &str) -> Option<u32> {
        let b = code.as_bytes();
        let mut j = b.len();
        let mut hashes = 0u32;
        while j > 0 && b[j - 1] == b'#' {
            hashes += 1;
            j -= 1;
        }
        if j == 0 || b[j - 1] != b'r' {
            return None;
        }
        j -= 1;
        if j > 0 && b[j - 1] == b'b' {
            j -= 1;
        }
        // `r`/`br` must start an identifier, not end one (`var#"` is not raw).
        if j > 0 {
            let prev = code[..j].chars().next_back().unwrap_or(' ');
            if prev.is_alphanumeric() || prev == '_' {
                return None;
            }
        }
        Some(hashes)
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if c == '"' {
                    let raw = raw_prefix(&cur.code);
                    cur.code.push('"');
                    state = State::Str { raw_hashes: raw };
                    i += 1;
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    let next = chars.get(i + 1);
                    let is_char_lit = match next {
                        Some('\\') => true,
                        Some(_) => chars.get(i + 2) == Some(&'\''),
                        None => false,
                    };
                    if is_char_lit {
                        cur.code.push_str("''");
                        i += 1; // past the opening quote
                        if chars.get(i) == Some(&'\\') {
                            i += 2; // past the backslash and the escaped char
                            while i < chars.len() && chars[i] != '\'' {
                                i += 1;
                            }
                        } else {
                            i += 1; // past the single content char
                        }
                        i += 1; // past the closing quote
                    } else {
                        cur.code.push('\'');
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    if depth == 1 {
                        state = State::Code;
                    } else {
                        state = State::BlockComment(depth - 1);
                    }
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str { raw_hashes } => match raw_hashes {
                None => {
                    if c == '\\' {
                        i += 2; // skip the escaped char
                    } else if c == '"' {
                        cur.code.push('"');
                        state = State::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                Some(h) => {
                    if c == '"' && (0..h as usize).all(|k| chars.get(i + 1 + k) == Some(&'#')) {
                        cur.code.push('"');
                        state = State::Code;
                        i += 1 + h as usize;
                    } else {
                        i += 1;
                    }
                }
            },
        }
    }
    lines.push(cur);
    lines
}

/// True when `code` contains `word` as a standalone token (identifier
/// boundaries on both sides), so `unsafe_code` never matches `unsafe`.
pub fn has_keyword(code: &str, word: &str) -> bool {
    keyword_positions(code, word).next().is_some()
}

fn keyword_positions<'a>(code: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(word).filter_map(move |(pos, _)| {
        let before_ok = code[..pos].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok = code[pos + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !is_ident(c));
        (before_ok && after_ok).then_some(pos)
    })
}

// ---------------------------------------------------------------------------
// Rule 1: SAFETY comments.
// ---------------------------------------------------------------------------

fn window_has_safety(lines: &[SourceLine], at: usize) -> bool {
    let lo = at.saturating_sub(SAFETY_LOOKBACK);
    lines[lo..=at]
        .iter()
        .any(|l| l.comment.contains("SAFETY:") || l.comment.contains("# Safety"))
}

/// Rule `safety-comment`: every `unsafe` token needs a nearby justification.
pub fn check_safety_comments(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if has_keyword(&line.code, "unsafe") && !window_has_safety(lines, i) {
            out.push(diag(
                file,
                i + 1,
                "safety-comment",
                format!(
                    "`unsafe` without a `// SAFETY:` comment or `# Safety` doc section \
                     within the preceding {SAFETY_LOOKBACK} lines"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 2: wire-facing discipline (no panic paths, annotated indexing).
// ---------------------------------------------------------------------------

/// Mark every line covered by a `#[cfg(test)]`-gated item (brace matching).
pub fn test_region_mask(lines: &[SourceLine]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            let mut depth: i64 = 0;
            let mut started = false;
            let mut j = i;
            'scan: while j < lines.len() {
                for ch in lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            started = true;
                        }
                        '}' => {
                            depth -= 1;
                            if started && depth <= 0 {
                                break 'scan;
                            }
                        }
                        _ => {}
                    }
                }
                j += 1;
            }
            let end = j.min(lines.len() - 1);
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end;
        }
        i += 1;
    }
    mask
}

const INDEX_PRECEDING_KEYWORDS: &[&str] = &[
    "let", "in", "return", "else", "match", "mut", "ref", "box", "move", "if", "while", "for",
];

/// Count indexing/slicing sites on one code line: a `[` applied to a value
/// (preceded by an identifier, `)` or `]`), as opposed to attributes, array
/// types/literals and slice patterns.
pub fn indexing_sites(code: &str) -> usize {
    let chars: Vec<char> = code.chars().collect();
    let mut count = 0;
    for (p, &c) in chars.iter().enumerate() {
        if c != '[' {
            continue;
        }
        let mut q = p;
        while q > 0 && chars[q - 1] == ' ' {
            q -= 1;
        }
        if q == 0 {
            continue;
        }
        let prev = chars[q - 1];
        if prev == ')' || prev == ']' {
            count += 1;
        } else if prev.is_alphanumeric() || prev == '_' {
            let mut s = q - 1;
            while s > 0 && (chars[s - 1].is_alphanumeric() || chars[s - 1] == '_') {
                s -= 1;
            }
            let word: String = chars[s..q].iter().collect();
            // A lifetime before `[` (`&'a [u8]`) is a slice type, not indexing.
            let is_lifetime = s > 0 && chars[s - 1] == '\'';
            if !is_lifetime && !INDEX_PRECEDING_KEYWORDS.contains(&word.as_str()) {
                count += 1;
            }
        }
    }
    count
}

fn window_has_bounds_note(lines: &[SourceLine], at: usize) -> bool {
    let lo = at.saturating_sub(BOUNDS_LOOKBACK);
    lines[lo..=at]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains("bound"))
}

/// Rule `wire-discipline`: wire-facing parse paths must be total — no panic
/// tokens and no unannotated indexing outside `#[cfg(test)]`.
pub fn check_wire_discipline(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    let mask = test_region_mask(lines);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if mask[i] {
            continue;
        }
        for tok in BANNED_WIRE_TOKENS {
            if line.code.contains(tok) {
                out.push(diag(
                    file,
                    i + 1,
                    "wire-discipline",
                    format!(
                        "`{tok}` in a wire-facing module: untrusted input must surface \
                         a MalformedInput-style error, not a panic path"
                    ),
                ));
            }
        }
        if indexing_sites(&line.code) > 0 && !window_has_bounds_note(lines, i) {
            out.push(diag(
                file,
                i + 1,
                "wire-discipline",
                format!(
                    "indexing in a wire-facing module without a bounds note \
                     (add a `// bounds: …` comment within {BOUNDS_LOOKBACK} lines, \
                     or use a non-panicking accessor)"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 3: FFI signature allowlist.
// ---------------------------------------------------------------------------

/// Whitespace-insensitive normal form for FFI signature comparison.
pub fn normalize_signature(sig: &str) -> String {
    sig.chars().filter(|c| !c.is_whitespace()).collect()
}

/// Extract `fn` declarations from `extern "…" { }` blocks, with 1-based line
/// numbers.  `extern crate` and `extern "C" fn` pointer types have no block
/// and are ignored.
pub fn collect_extern_signatures(lines: &[SourceLine]) -> Vec<(usize, String)> {
    // Join code with '\n' so we can scan across lines; remember line starts.
    let mut joined = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for l in lines {
        line_starts.push(joined.len());
        joined.push_str(&l.code);
        joined.push('\n');
    }
    let line_of = |pos: usize| match line_starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i, // i is the insertion point; line index is i-1, 1-based i
    };

    let bytes = joined.as_bytes();
    let mut out = Vec::new();
    for pos in keyword_positions(&joined, "extern").collect::<Vec<_>>() {
        let mut p = pos + "extern".len();
        let skip_ws = |p: &mut usize| {
            while *p < bytes.len() && (bytes[*p] as char).is_whitespace() {
                *p += 1;
            }
        };
        skip_ws(&mut p);
        // Optional ABI string — the scanner reduced it to bare quotes.
        if bytes.get(p) == Some(&b'"') {
            p += 1;
            while p < bytes.len() && bytes[p] != b'"' {
                p += 1;
            }
            p += 1;
            skip_ws(&mut p);
        }
        if bytes.get(p) != Some(&b'{') {
            continue; // `extern crate …`, or an `extern "C" fn` type
        }
        let body_start = p + 1;
        let mut depth = 1i64;
        let mut q = body_start;
        while q < bytes.len() && depth > 0 {
            match bytes[q] {
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            }
            q += 1;
        }
        let body = &joined[body_start..q.saturating_sub(1).max(body_start)];
        let mut offset = 0;
        for decl in body.split(';') {
            if let Some(fn_rel) = keyword_positions(decl, "fn").next() {
                let fn_abs = body_start + offset + fn_rel;
                let sig = decl[fn_rel..]
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ");
                out.push((line_of(fn_abs), sig));
            }
            offset += decl.len() + 1;
        }
    }
    out
}

/// Rule `ffi-allowlist`: every extern declaration must be in [`FFI_ALLOWLIST`]
/// and under `shims/`; stale allowlist rows are flagged too.
pub fn check_ffi_allowlist(files: &[(String, Vec<SourceLine>)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut matched = vec![false; FFI_ALLOWLIST.len()];
    for (file, lines) in files {
        for (line, sig) in collect_extern_signatures(lines) {
            if !file.starts_with("shims/") {
                out.push(diag(
                    file,
                    line,
                    "ffi-allowlist",
                    format!("extern FFI declaration outside shims/: `{sig}`"),
                ));
                continue;
            }
            let norm = normalize_signature(&sig);
            let hit = FFI_ALLOWLIST
                .iter()
                .position(|e| e.file == file && normalize_signature(e.signature) == norm);
            match hit {
                Some(idx) => matched[idx] = true,
                None => out.push(diag(
                    file,
                    line,
                    "ffi-allowlist",
                    format!(
                        "extern FFI declaration not in the df-lint allowlist: `{sig}` \
                         (crates/lint/src/lib.rs FFI_ALLOWLIST)"
                    ),
                )),
            }
        }
    }
    for (entry, hit) in FFI_ALLOWLIST.iter().zip(&matched) {
        if !hit {
            out.push(diag(
                "crates/lint/src/lib.rs",
                1,
                "ffi-allowlist",
                format!(
                    "stale FFI allowlist entry: `{}` not found in {}",
                    entry.signature, entry.file
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 4: DESIGN.md wire-constant drift, and citations of root-level files.
// ---------------------------------------------------------------------------

/// The wire-format constants single-sourced in code (rule 4 inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConstants {
    /// `df_proto::control::CONTROL_MAGIC`.
    pub magic: u64,
    /// `df_proto::control::CONTROL_VERSION`.
    pub version: u64,
    /// `df_proto::wire::HEADER_LEN`.
    pub header_len: u64,
    /// `df_proto::client::MAX_LAYERS`.
    pub max_layers: u64,
    /// `df_proto::client::MAX_SCHEDULED_LAYERS` (= `df_mcast::MAX_LAYERS`).
    pub max_scheduled_layers: u64,
}

/// Parse an integer literal: decimal, `0x…`/`0b…`/`0o…`, `_` separators,
/// optional type suffix.
pub fn parse_int_literal(text: &str) -> Option<u64> {
    let t: String = text.trim().chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(rest) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X"))
    {
        (rest, 16)
    } else if let Some(rest) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        (rest, 2)
    } else if let Some(rest) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        (rest, 8)
    } else {
        (t.as_str(), 10)
    };
    let end = digits
        .char_indices()
        .find(|(_, c)| !c.is_digit(radix))
        .map_or(digits.len(), |(i, _)| i);
    if end == 0 {
        return None;
    }
    u64::from_str_radix(&digits[..end], radix).ok()
}

/// Find `const NAME: … = <expr>;` in `src` and return the raw `<expr>` text.
pub fn find_const_expr(src: &str, name: &str) -> Option<String> {
    for pos in keyword_positions(src, name).collect::<Vec<_>>() {
        let before = src[..pos].trim_end();
        if !before.ends_with("const") {
            continue;
        }
        let rest = &src[pos + name.len()..];
        let eq = rest.find('=')?;
        let semi = rest[eq..].find(';')? + eq;
        return Some(rest[eq + 1..semi].trim().to_string());
    }
    None
}

/// Extract [`WireConstants`] from the proto/mcast sources, checking that
/// `MAX_SCHEDULED_LAYERS` stays single-sourced from `df_mcast::MAX_LAYERS`.
pub fn extract_wire_constants(root: &Path) -> Result<WireConstants, Vec<Diagnostic>> {
    let mut errs = Vec::new();
    let read = |rel: &str, errs: &mut Vec<Diagnostic>| -> String {
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| {
            errs.push(diag(
                rel,
                1,
                "doc-drift",
                format!("cannot read source: {e}"),
            ));
            String::new()
        })
    };
    let control = read("crates/proto/src/control.rs", &mut errs);
    let wire = read("crates/proto/src/wire.rs", &mut errs);
    let client = read("crates/proto/src/client.rs", &mut errs);
    let mcast = read("crates/mcast/src/layers.rs", &mut errs);

    let lit = |src: &str, rel: &str, name: &str, errs: &mut Vec<Diagnostic>| -> u64 {
        match find_const_expr(src, name)
            .as_deref()
            .and_then(parse_int_literal)
        {
            Some(v) => v,
            None => {
                errs.push(diag(
                    rel,
                    1,
                    "doc-drift",
                    format!("cannot find integer `const {name}` to cross-check DESIGN.md"),
                ));
                0
            }
        }
    };
    let magic = lit(
        &control,
        "crates/proto/src/control.rs",
        "CONTROL_MAGIC",
        &mut errs,
    );
    let version = lit(
        &control,
        "crates/proto/src/control.rs",
        "CONTROL_VERSION",
        &mut errs,
    );
    let header_len = lit(&wire, "crates/proto/src/wire.rs", "HEADER_LEN", &mut errs);
    let max_layers = lit(
        &client,
        "crates/proto/src/client.rs",
        "MAX_LAYERS",
        &mut errs,
    );
    let mcast_layers = lit(
        &mcast,
        "crates/mcast/src/layers.rs",
        "MAX_LAYERS",
        &mut errs,
    );

    match find_const_expr(&client, "MAX_SCHEDULED_LAYERS") {
        Some(expr) if expr.contains("df_mcast::MAX_LAYERS") => {}
        Some(expr) => errs.push(diag(
            "crates/proto/src/client.rs",
            1,
            "doc-drift",
            format!(
                "MAX_SCHEDULED_LAYERS must be single-sourced as `df_mcast::MAX_LAYERS`, \
                 found `{expr}`"
            ),
        )),
        None => errs.push(diag(
            "crates/proto/src/client.rs",
            1,
            "doc-drift",
            "cannot find `const MAX_SCHEDULED_LAYERS`",
        )),
    }

    if errs.is_empty() {
        Ok(WireConstants {
            magic,
            version,
            header_len,
            max_layers,
            max_scheduled_layers: mcast_layers,
        })
    } else {
        Err(errs)
    }
}

/// Rule `doc-drift` over the DESIGN.md text: every quoted wire constant must
/// match the code, and every constant must be quoted at least once.
pub fn check_design_text(design: &str, c: &WireConstants) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    // Which constants DESIGN.md actually states (by any accepted phrasing).
    let mut stated = [false; 5]; // magic, version, header, max_layers, max_sched
    let named: [(&str, u64, usize); 5] = [
        ("CONTROL_MAGIC", c.magic, 0),
        ("CONTROL_VERSION", c.version, 1),
        ("HEADER_LEN", c.header_len, 2),
        ("MAX_LAYERS", c.max_layers, 3),
        ("MAX_SCHEDULED_LAYERS", c.max_scheduled_layers, 4),
    ];

    for (lineno, line) in design.lines().enumerate() {
        let lineno = lineno + 1;
        // Form 1: "`NAME` = value" (the constants table).
        for (name, want, slot) in named {
            let pat = format!("`{name}` = ");
            if let Some(p) = line.find(&pat) {
                stated[slot] = true;
                match parse_int_literal(&line[p + pat.len()..]) {
                    Some(got) if got == want => {}
                    got => out.push((
                        lineno,
                        format!(
                            "DESIGN.md states `{name}` = {}, code says {want}",
                            got.map_or_else(|| "<unparseable>".into(), |g| g.to_string())
                        ),
                    )),
                }
            }
        }
        // Form 2: "magic `0xDF`".
        if let Some(p) = line.find("magic `") {
            stated[0] = true;
            let rest = &line[p + "magic `".len()..];
            let lit = rest.split('`').next().unwrap_or("");
            match parse_int_literal(lit) {
                Some(got) if got == c.magic => {}
                _ => out.push((
                    lineno,
                    format!("DESIGN.md quotes magic `{lit}`, code says {:#04x}", c.magic),
                )),
            }
        }
        // Form 3: "wire version N" / "wire-format version N".
        for pat in ["wire version ", "wire-format version "] {
            if let Some(p) = line.find(pat) {
                stated[1] = true;
                match parse_int_literal(&line[p + pat.len()..]) {
                    Some(got) if got == c.version => {}
                    _ => out.push((
                        lineno,
                        format!("DESIGN.md quotes a wire version != {}", c.version),
                    )),
                }
            }
        }
        // Form 4: "N-byte header".
        if let Some(p) = line.find("-byte header") {
            let digits: String = line[..p]
                .chars()
                .rev()
                .take_while(|ch| ch.is_ascii_digit())
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect();
            stated[2] = true;
            match parse_int_literal(&digits) {
                Some(got) if got == c.header_len => {}
                _ => out.push((
                    lineno,
                    format!("DESIGN.md quotes a header size != {} bytes", c.header_len),
                )),
            }
        }
    }

    for (name, _, slot) in named {
        if !stated[slot] {
            out.push((
                1,
                format!("DESIGN.md never states `{name}` — the drift check has nothing to pin"),
            ));
        }
    }
    out
}

/// Source directories whose comments may cite root-level files (rule 4).
pub const CITING_DIRS: &[&str] = &["crates/", "src/", "examples/", "shims/"];

/// Documents whose whole text may cite root-level files (rule 4).
pub const CITING_DOCS: &[&str] = &["DESIGN.md", "README.md", "shims/README.md"];

/// The `*.md`/`*.json` file names `text` cites bare — `EXPERIMENTS.md`, but
/// not the path `shims/README.md`, the glob `*.trace.json` or the template
/// `<workload>.trace.json` — which is how this repository's comments refer to
/// the files at its root.
fn cited_root_files(text: &str) -> impl Iterator<Item = &str> {
    fn is_name(c: char) -> bool {
        c.is_ascii_alphanumeric() || c == '_' || c == '-'
    }
    [".md", ".json"].into_iter().flat_map(move |ext| {
        text.match_indices(ext).filter_map(move |(dot, _)| {
            let end = dot + ext.len();
            if text[end..].starts_with(is_name) {
                return None; // `.mdx`, `.json5`
            }
            let stem = text[..dot].trim_end_matches(is_name).len();
            let bare = !text[..stem].ends_with(['/', '.', '*', '>']);
            (stem < dot && bare).then(|| &text[stem..end])
        })
    })
}

/// Rule `doc-drift` over citations: every root-level `*.md`/`*.json` file
/// that `lines` (the comments of a source file, or the lines of a document)
/// cite by bare name must exist under `root`.
pub fn check_root_citations<'a>(
    file: &str,
    lines: impl Iterator<Item = &'a str>,
    root: &Path,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (idx, line) in lines.enumerate() {
        for name in cited_root_files(line) {
            if !root.join(name).is_file() {
                out.push(diag(
                    file,
                    idx + 1,
                    "doc-drift",
                    format!("cites `{name}`, which does not exist at the repository root"),
                ));
            }
        }
    }
    out
}

/// Rule `doc-drift`, full form: extract constants and check DESIGN.md on disk.
pub fn check_doc_drift(root: &Path) -> Vec<Diagnostic> {
    let consts = match extract_wire_constants(root) {
        Ok(c) => c,
        Err(errs) => return errs,
    };
    let design = match std::fs::read_to_string(root.join("DESIGN.md")) {
        Ok(d) => d,
        Err(e) => {
            return vec![diag(
                "DESIGN.md",
                1,
                "doc-drift",
                format!("cannot read: {e}"),
            )]
        }
    };
    check_design_text(&design, &consts)
        .into_iter()
        .map(|(line, msg)| diag("DESIGN.md", line, "doc-drift", msg))
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 5: crate-root unsafe posture.
// ---------------------------------------------------------------------------

/// Rule `unsafe-posture`: a crate root must forbid unsafe code outright or
/// deny implicit unsafe inside `unsafe fn`.
pub fn check_unsafe_posture(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    let ok = lines.iter().any(|l| {
        l.code.contains("forbid(unsafe_code)") || l.code.contains("deny(unsafe_op_in_unsafe_fn)")
    });
    if ok {
        Vec::new()
    } else {
        vec![diag(
            file,
            1,
            "unsafe-posture",
            "crate root must declare #![forbid(unsafe_code)] or \
             #![deny(unsafe_op_in_unsafe_fn)]",
        )]
    }
}

// ---------------------------------------------------------------------------
// Rule 6: non-SeqCst atomic orderings need a written pairing argument.
// ---------------------------------------------------------------------------

/// Comment lookback for an `// ordering:` justification before a non-`SeqCst`
/// memory-ordering token.
pub const ORDERING_LOOKBACK: usize = 4;

/// The orderings that demand justification.  `SeqCst` is the safe default and
/// exempt; everything weaker trades a reordering window for speed and must
/// say which Release/Acquire pair (or why no pairing is needed) makes that
/// sound.
pub const NON_SEQCST_ORDERINGS: &[&str] = &[
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

fn window_has_ordering_note(lines: &[SourceLine], at: usize) -> bool {
    let lo = at.saturating_sub(ORDERING_LOOKBACK);
    lines[lo..=at]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains("ordering:"))
}

/// Rule `atomic-ordering`: each line using a non-`SeqCst` ordering needs a
/// nearby `// ordering:` comment.
pub fn check_atomic_ordering(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(tok) = NON_SEQCST_ORDERINGS
            .iter()
            .find(|t| has_keyword(&line.code, t))
        else {
            continue;
        };
        if !window_has_ordering_note(lines, i) {
            out.push(diag(
                file,
                i + 1,
                "atomic-ordering",
                format!(
                    "`{tok}` without a `// ordering:` justification within the \
                     preceding {ORDERING_LOOKBACK} lines (state the Release/Acquire \
                     pairing, or use SeqCst)"
                ),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 7: no unsafe Send/Sync impls.
// ---------------------------------------------------------------------------

/// Extract `unsafe impl … Send/Sync for …` declarations (up to the body),
/// with 1-based line numbers.
pub fn collect_send_sync_impls(lines: &[SourceLine]) -> Vec<(usize, String)> {
    let mut joined = String::new();
    let mut line_starts = Vec::with_capacity(lines.len());
    for l in lines {
        line_starts.push(joined.len());
        joined.push_str(&l.code);
        joined.push('\n');
    }
    let line_of = |pos: usize| match line_starts.binary_search(&pos) {
        Ok(i) => i + 1,
        Err(i) => i,
    };

    let mut out = Vec::new();
    for pos in keyword_positions(&joined, "unsafe").collect::<Vec<_>>() {
        let rest = &joined[pos..];
        let Some(after_kw) = rest.strip_prefix("unsafe") else {
            continue;
        };
        if keyword_positions(after_kw.trim_start(), "impl").next() != Some(0) {
            continue;
        }
        let end = rest.find(['{', ';']).map_or(rest.len(), |e| e);
        let decl = rest[..end].split_whitespace().collect::<Vec<_>>().join(" ");
        // Only Send/Sync assertions are audited; other unsafe impls (e.g. a
        // future `unsafe impl Step`) are the safety-comment rule's problem.
        let is_send_sync = decl.contains(" Send for ") || decl.contains(" Sync for ");
        if is_send_sync {
            out.push((line_of(pos), decl));
        }
    }
    out
}

/// Rule `send-sync-audit`: no `unsafe impl Send`/`Sync` anywhere in the
/// workspace.
///
/// A hand-written thread-safety assertion is a proof obligation the compiler
/// cannot check, and no code here needs one.  If one ever does, it gets an
/// allowlist table in the same change, shaped like [`FFI_ALLOWLIST`], so the
/// diff to the table is where the argument is reviewed.
pub fn check_send_sync_audit(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    collect_send_sync_impls(lines)
        .into_iter()
        .map(|(line, decl)| {
            diag(
                file,
                line,
                "send-sync-audit",
                format!("`{decl}`: no `unsafe impl Send`/`Sync` is allowed in this workspace"),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Rule 8: lock acquisition discipline.
// ---------------------------------------------------------------------------

/// Comment lookback for a `// lock-order:` note before a nested guard
/// acquisition.
pub const LOCK_ORDER_LOOKBACK: usize = 4;

fn window_has_lock_order_note(lines: &[SourceLine], at: usize) -> bool {
    let lo = at.saturating_sub(LOCK_ORDER_LOOKBACK);
    lines[lo..=at]
        .iter()
        .any(|l| l.comment.to_ascii_lowercase().contains("lock-order:"))
}

/// The guard-binding shape rule 8 tracks: `let [mut] NAME = ….lock();` (or
/// `.read();` / `.write();`).  Returns the bound name.
///
/// Deliberately conservative: guards acquired as temporaries (`x.lock().y`)
/// die at end of statement and cannot deadlock across statements, and
/// multi-line builder chains are rare enough in this tree to stay out of a
/// lexical rule.
fn guard_binding(code: &str) -> Option<String> {
    let t = code.trim();
    let rest = t.strip_prefix("let ")?;
    if !(t.ends_with(".lock();") || t.ends_with(".read();") || t.ends_with(".write();")) {
        return None;
    }
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Rule `lock-discipline`: holding two `let`-bound lock guards at once
/// requires a `// lock-order:` note on the inner acquisition.
///
/// Lexical scope model: a guard bound at brace depth `d` dies when the depth
/// drops below `d` or when `drop(name)` appears; acquiring a new guard while
/// any tracked guard is live without a nearby note is the violation.  The
/// note is where the global order that makes nesting deadlock-free gets
/// written down.
pub fn check_lock_discipline(file: &str, lines: &[SourceLine]) -> Vec<Diagnostic> {
    struct Guard {
        name: String,
        depth: i64,
    }
    let mut out = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth: i64 = 0;
    for (i, line) in lines.iter().enumerate() {
        guards.retain(|g| !line.code.contains(&format!("drop({})", g.name)));
        if let Some(name) = guard_binding(&line.code) {
            if let Some(outer) = guards.last() {
                if !window_has_lock_order_note(lines, i) {
                    out.push(diag(
                        file,
                        i + 1,
                        "lock-discipline",
                        format!(
                            "guard `{name}` acquired while `{}` is still live — state \
                             the global acquisition order in a `// lock-order:` comment \
                             within {LOCK_ORDER_LOOKBACK} lines (or drop the outer \
                             guard first)",
                            outer.name
                        ),
                    ));
                }
            }
            guards.push(Guard { name, depth });
        }
        for ch in line.code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 9: process-wide mutable state allowlist.
// ---------------------------------------------------------------------------

/// One allowlisted mutable `static`.
#[derive(Debug, Clone, Copy)]
pub struct GlobalStateEntry {
    /// Repo-relative path (with `/` separators) the static may live in.
    pub file: &'static str,
    /// The declaration up to (not including) its initialiser, compared
    /// whitespace-insensitively.
    pub declaration: &'static str,
}

/// Every `static` under `crates/*/src` that changes after initialisation.
///
/// State of this kind is shared by every caller in the process whether they
/// know of each other or not, so each row needs an argument for why that is
/// sound — adding one means adding it here *in the same PR*.  The one row is
/// the code registry: it holds `Weak` references only, so it keeps nothing
/// alive and two callers that meet in it observe nothing but a shared,
/// immutable cascade (see `codec.rs`'s module docs).
pub const GLOBAL_STATE_ALLOWLIST: &[GlobalStateEntry] = &[GlobalStateEntry {
    file: "crates/core/src/codec.rs",
    // Wrapped so that a grep of `crates/*/src` for statics of these types
    // prints the declarations themselves and not this table.
    declaration: "static LIVE_CODES: \
                  Mutex<LiveCodes>",
}];

/// True when a `static` declaration (`static [mut] NAME: TYPE`) names state
/// that can change after initialisation.
fn is_mutable_static(decl: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let ty = decl.split_once(':').map_or("", |(_, ty)| ty);
    decl.starts_with("static mut ")
        || ty
            .split(|c| !is_ident(c))
            .any(|word| word == "Mutex" || word == "RwLock" || word.starts_with("Atomic"))
}

/// Extract the mutable `static` declarations outside `#[cfg(test)]` regions
/// (up to the initialiser), with 1-based line numbers.
pub fn collect_mutable_statics(lines: &[SourceLine]) -> Vec<(usize, String)> {
    let in_test = test_region_mask(lines);
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        // `'static` is a lifetime, not a declaration.
        let Some(pos) =
            keyword_positions(&line.code, "static").find(|&p| !line.code[..p].ends_with('\''))
        else {
            continue;
        };
        // The declaration may wrap: read on to its `=` (or `;`, in an
        // `extern` block).
        let mut decl = line.code[pos..].to_string();
        for next in &lines[i + 1..] {
            if decl.contains(['=', ';']) {
                break;
            }
            decl.push(' ');
            decl.push_str(&next.code);
        }
        let end = decl.find(['=', ';']).unwrap_or(decl.len());
        let decl = decl[..end].split_whitespace().collect::<Vec<_>>().join(" ");
        if is_mutable_static(&decl) {
            out.push((i + 1, decl));
        }
    }
    out
}

/// Rule `global-state`: every mutable `static` under `crates/*/src` must be
/// in [`GLOBAL_STATE_ALLOWLIST`]; stale allowlist rows are flagged too.
pub fn check_global_state(files: &[(String, Vec<SourceLine>)]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut matched = vec![false; GLOBAL_STATE_ALLOWLIST.len()];
    for (file, lines) in files {
        let mut parts = file.split('/');
        if (parts.next(), parts.nth(1)) != (Some("crates"), Some("src")) {
            continue;
        }
        for (line, decl) in collect_mutable_statics(lines) {
            let norm = normalize_signature(&decl);
            let hit = GLOBAL_STATE_ALLOWLIST
                .iter()
                .position(|e| e.file == file && normalize_signature(e.declaration) == norm);
            match hit {
                Some(idx) => matched[idx] = true,
                None => out.push(diag(
                    file,
                    line,
                    "global-state",
                    format!(
                        "`{decl}` is process-wide mutable state not in the df-lint \
                         allowlist (crates/lint/src/lib.rs GLOBAL_STATE_ALLOWLIST)"
                    ),
                )),
            }
        }
    }
    for (entry, hit) in GLOBAL_STATE_ALLOWLIST.iter().zip(&matched) {
        if !hit {
            out.push(diag(
                "crates/lint/src/lib.rs",
                1,
                "global-state",
                format!(
                    "stale global-state allowlist entry: `{}` not found in {}",
                    entry.declaration, entry.file
                ),
            ));
        }
    }
    out
}

fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || ((rel.starts_with("crates/") || rel.starts_with("shims/"))
            && rel.ends_with("/src/lib.rs"))
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

/// Recursively collect repo-relative `.rs` paths under `root`, skipping build
/// output, VCS metadata, and the lint's own (deliberately violating) fixtures.
pub fn collect_rs_files(root: &Path) -> Vec<String> {
    fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                walk(&path, root, out);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                if rel.contains("tests/fixtures/") {
                    continue;
                }
                out.push(rel);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.sort();
    out
}

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    let mut out = Vec::new();
    for rel in collect_rs_files(root) {
        match std::fs::read_to_string(root.join(&rel)) {
            Ok(src) => files.push((rel, split_comments(&src))),
            Err(e) => out.push(diag(&rel, 1, "io", format!("cannot read source: {e}"))),
        }
    }

    for (rel, lines) in &files {
        out.extend(check_safety_comments(rel, lines));
        out.extend(check_atomic_ordering(rel, lines));
        out.extend(check_send_sync_audit(rel, lines));
        out.extend(check_lock_discipline(rel, lines));
        if WIRE_FACING.contains(&rel.as_str()) {
            out.extend(check_wire_discipline(rel, lines));
        }
        if is_crate_root(rel) {
            out.extend(check_unsafe_posture(rel, lines));
        }
        if CITING_DIRS.iter().any(|dir| rel.starts_with(dir)) {
            let comments = lines.iter().map(|l| l.comment.as_str());
            out.extend(check_root_citations(rel, comments, root));
        }
    }
    out.extend(check_ffi_allowlist(&files));
    out.extend(check_global_state(&files));
    out.extend(check_doc_drift(root));
    for doc in CITING_DOCS {
        // A missing DESIGN.md is check_doc_drift's finding; the other two
        // documents cite nothing while they do not exist.
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            out.extend(check_root_citations(doc, text.lines(), root));
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    out
}

/// The workspace root when the linter is run from its own crate directory
/// (`cargo run -p df-lint`): two levels above `crates/lint`.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(src: &str) -> Vec<String> {
        split_comments(src).into_iter().map(|l| l.code).collect()
    }

    #[test]
    fn scanner_strips_string_contents() {
        let got = codes("let s = \"unsafe { } // not a comment\";");
        assert_eq!(got, ["let s = \"\";"]);
    }

    #[test]
    fn scanner_strips_raw_strings_with_hashes() {
        let got = codes("let s = r#\"has \"quotes\" and unsafe\"#; let t = 1;");
        assert_eq!(got, ["let s = r#\"\"; let t = 1;"]);
    }

    #[test]
    fn scanner_handles_escapes_and_chars_and_lifetimes() {
        let got = codes("let q = '\\''; let b = b'x'; fn f<'a>(x: &'a str) {}");
        assert_eq!(got, ["let q = ''; let b = b''; fn f<'a>(x: &'a str) {}"]);
    }

    #[test]
    fn scanner_separates_comments() {
        let lines = split_comments("let x = 1; // SAFETY: fine\n/* block\nstill */ let y = 2;");
        assert_eq!(lines[0].code, "let x = 1; ");
        assert!(lines[0].comment.contains("SAFETY: fine"));
        assert!(lines[1].comment.contains("block"));
        assert_eq!(lines[2].code.trim(), "let y = 2;");
    }

    #[test]
    fn keyword_matching_respects_identifier_boundaries() {
        assert!(has_keyword("unsafe { }", "unsafe"));
        assert!(has_keyword("pub unsafe fn f()", "unsafe"));
        assert!(!has_keyword("#![forbid(unsafe_code)]", "unsafe"));
        assert!(!has_keyword("deny(unsafe_op_in_unsafe_fn)", "unsafe"));
    }

    #[test]
    fn safety_rule_accepts_doc_section_and_comment() {
        let ok = "/// # Safety\n/// caller ensures len\npub unsafe fn f() {}";
        assert!(check_safety_comments("x.rs", &split_comments(ok)).is_empty());
        let ok2 = "// SAFETY: ptr is valid\nunsafe { go() }";
        assert!(check_safety_comments("x.rs", &split_comments(ok2)).is_empty());
        let bad = "pub unsafe fn f() {}";
        let d = check_safety_comments("x.rs", &split_comments(bad));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn test_region_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}";
        let mask = test_region_mask(&split_comments(src));
        assert_eq!(mask, [false, true, true, true, true, false]);
    }

    #[test]
    fn indexing_detection() {
        assert_eq!(indexing_sites("let x = buf[0];"), 1);
        assert_eq!(indexing_sites("&data[4..8]"), 1);
        assert_eq!(indexing_sites("#[derive(Debug)]"), 0);
        assert_eq!(indexing_sites("let a: [u8; 4] = [0; 4];"), 0);
        assert_eq!(indexing_sites("for x in [1, 2] {}"), 0);
        assert_eq!(indexing_sites("f(x)[1]"), 1);
        assert_eq!(
            indexing_sites("fn take(&mut self) -> Option<&'a [u8]> {"),
            0
        );
    }

    #[test]
    fn wire_rule_allows_bounds_notes_and_tests() {
        let ok = "// bounds: length checked above\nlet x = data[0];";
        assert!(check_wire_discipline("w.rs", &split_comments(ok)).is_empty());
        let bad = "let x = data[0];\nlet y = v.unwrap();";
        let d = check_wire_discipline("w.rs", &split_comments(bad));
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn extern_signatures_are_collected() {
        let src = "extern \"C\" {\n    fn poll(fds: *mut PollFd,\n        nfds: u64) -> i32;\n}";
        let sigs = collect_extern_signatures(&split_comments(src));
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].0, 2);
        assert_eq!(
            normalize_signature(&sigs[0].1),
            normalize_signature("fn poll(fds: *mut PollFd, nfds: u64) -> i32")
        );
    }

    #[test]
    fn extern_crate_and_fn_types_are_ignored() {
        let src = "extern crate alloc;\ntype F = extern \"C\" fn(i32) -> i32;";
        assert!(collect_extern_signatures(&split_comments(src)).is_empty());
    }

    #[test]
    fn int_literal_parsing() {
        assert_eq!(parse_int_literal("0xDF"), Some(0xDF));
        assert_eq!(parse_int_literal("12"), Some(12));
        assert_eq!(parse_int_literal("0x02"), Some(2));
        assert_eq!(parse_int_literal("1_000"), Some(1000));
        assert_eq!(parse_int_literal("16usize"), Some(16));
        assert_eq!(parse_int_literal("abc"), None);
    }

    #[test]
    fn const_expr_extraction() {
        let src = "pub const CONTROL_MAGIC: u8 = 0xDF;\npub const N: usize = df_mcast::MAX_LAYERS;";
        assert_eq!(
            find_const_expr(src, "CONTROL_MAGIC").as_deref(),
            Some("0xDF")
        );
        assert_eq!(
            find_const_expr(src, "N").as_deref(),
            Some("df_mcast::MAX_LAYERS")
        );
        assert_eq!(find_const_expr(src, "MISSING"), None);
    }

    #[test]
    fn design_drift_detects_mismatch_and_omission() {
        let c = WireConstants {
            magic: 0xDF,
            version: 2,
            header_len: 12,
            max_layers: 32,
            max_scheduled_layers: 16,
        };
        let good = "magic `0xDF` wire version 2 the 12-byte header\n\
                    `CONTROL_MAGIC` = 0xDF `CONTROL_VERSION` = 2 `HEADER_LEN` = 12 \
                    `MAX_LAYERS` = 32 `MAX_SCHEDULED_LAYERS` = 16\n";
        assert!(check_design_text(good, &c).is_empty());
        let drifted = good.replace("wire version 2", "wire version 9");
        let d = check_design_text(&drifted, &c);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 1);
        let missing = "nothing quoted at all";
        assert_eq!(check_design_text(missing, &c).len(), 5);
    }

    #[test]
    fn ordering_rule_exempts_seqcst_and_accepts_notes() {
        assert!(
            check_atomic_ordering("a.rs", &split_comments("x.store(1, Ordering::SeqCst);"))
                .is_empty()
        );
        let ok = "// ordering: pairs with the Acquire in recv\nx.store(1, Ordering::Release);";
        assert!(check_atomic_ordering("a.rs", &split_comments(ok)).is_empty());
        let bad = "let v = x.load(Ordering::Relaxed);";
        let d = check_atomic_ordering("a.rs", &split_comments(bad));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 1);
        // Inside a string literal: not a use.
        assert!(
            check_atomic_ordering("a.rs", &split_comments("let s = \"Ordering::Relaxed\";"))
                .is_empty()
        );
    }

    #[test]
    fn send_sync_impls_are_collected_across_lines() {
        let src =
            "unsafe impl<T: ?Sized + Send> Sync\n    for Mutex<T> {}\nunsafe impl Step for X {}";
        let got = collect_send_sync_impls(&split_comments(src));
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, 1);
        assert_eq!(
            normalize_signature(&got[0].1),
            normalize_signature("unsafe impl<T: ?Sized + Send> Sync for Mutex<T>")
        );
    }

    #[test]
    fn lock_rule_tracks_drops_and_scopes() {
        let bad = "let a = x.lock();\nlet b = y.lock();";
        let d = check_lock_discipline("l.rs", &split_comments(bad));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
        let ok = "let a = x.lock();\n// lock-order: x before y, always\nlet b = y.lock();";
        assert!(check_lock_discipline("l.rs", &split_comments(ok)).is_empty());
        let dropped = "let a = x.lock();\ndrop(a);\nlet b = y.lock();";
        assert!(check_lock_discipline("l.rs", &split_comments(dropped)).is_empty());
        let scoped = "{\n    let a = x.lock();\n}\nlet b = y.lock();";
        assert!(check_lock_discipline("l.rs", &split_comments(scoped)).is_empty());
        // Temporaries (no `let` binding) are not tracked.
        let temp = "x.lock().push(1);\nlet b = y.lock();";
        assert!(check_lock_discipline("l.rs", &split_comments(temp)).is_empty());
    }

    #[test]
    fn posture_rule() {
        assert!(
            check_unsafe_posture("l.rs", &split_comments("#![forbid(unsafe_code)]")).is_empty()
        );
        assert!(
            check_unsafe_posture("l.rs", &split_comments("#![deny(unsafe_op_in_unsafe_fn)]"))
                .is_empty()
        );
        assert_eq!(
            check_unsafe_posture("l.rs", &split_comments("fn f() {}")).len(),
            1
        );
        assert!(is_crate_root("crates/gf/src/lib.rs"));
        assert!(is_crate_root("src/lib.rs"));
        assert!(!is_crate_root("crates/gf/src/kernels.rs"));
    }
}
