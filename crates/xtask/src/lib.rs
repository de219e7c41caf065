//! The workspace's determinism & concurrency static-analysis pass.
//!
//! `cargo xtask analyze` walks every crate and enforces the repo-specific
//! invariants that `rustc`/`clippy` cannot express (see
//! `docs/determinism.md` for the contract and the marker syntax):
//!
//! | lint | rule |
//! |---|---|
//! | **D1** | no `HashMap`/`HashSet` in determinism-critical modules |
//! | **D2** | no ambient nondeterminism (`SystemTime::now`, `Instant::now` outside benches, `thread_rng`, `std::env` reads outside config) |
//! | **R1** | no `unwrap`/`expect`/panicking indexing in the recovery read path |
//! | **R2** | every public `&mut self` method on `CrfModel`/`ModelHandle` must be revision-checked |
//! | **U1** | `unsafe` forbidden outside the shim allowlist |
//!
//! Findings are suppressed by a justification marker on the same line or
//! the line above: `// det-ok: <why>` (D1/D2), `// rev-ok: <why>` (R2),
//! `// panic-ok: <why>` (R1). A marker without a justification text does
//! not count.
//!
//! The sibling [`mod@bench`] module implements `cargo xtask bench-record`,
//! the perf-gate checker and history recorder over the committed
//! `BENCH_*.json` baselines.
//!
//! The pass is a hand-rolled lexer plus a brace-scope walker, not a full
//! parser — the build environment has no `syn`. It understands comments
//! (nested block comments included), string/char/raw-string literals,
//! lifetimes, `#[cfg(test)]` regions, fn receivers, and `impl` targets,
//! which is exactly enough context for the lints above; the deliberate
//! approximations are listed in `docs/determinism.md` and pinned by the
//! fixture tests in `tests/fixtures.rs`. The analyzer dogfoods its own
//! rules: every map it uses is a `BTreeMap`, so its output order is a
//! pure function of the input.

use std::collections::BTreeMap;
use std::fmt;

pub mod bench;

// ---------------------------------------------------------------------------
// Lints and findings
// ---------------------------------------------------------------------------

/// The lint that produced a finding. Ordering is the report ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Unordered-iteration containers in determinism-critical modules.
    D1,
    /// Ambient nondeterminism (wall clock, ambient RNG, environment).
    D2,
    /// Panicking decode in the recovery read path.
    R1,
    /// Unchecked public mutation of a revisioned model type.
    R2,
    /// `unsafe` outside the allowlist.
    U1,
}

impl Lint {
    /// Stable identifier used in reports and fixtures.
    pub fn id(self) -> &'static str {
        match self {
            Lint::D1 => "D1",
            Lint::D2 => "D2",
            Lint::R1 => "R1",
            Lint::R2 => "R2",
            Lint::U1 => "U1",
        }
    }
}

/// One lint violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    /// Which lint fired.
    pub lint: Lint,
    /// What was found and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.lint.id(),
            self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Which functions of an R1-scoped file are recovery read path.
#[derive(Debug, Clone)]
pub struct R1Scope {
    /// Path prefix the scope applies to.
    pub path: String,
    /// Function names in scope; `None` = every function in the file.
    pub fns: Option<Vec<String>>,
}

/// Which `impl` targets of a file carry the R2 revision contract.
#[derive(Debug, Clone)]
pub struct R2Scope {
    /// Path prefix the scope applies to.
    pub path: String,
    /// Type names whose inherent impls are checked.
    pub types: Vec<String>,
}

/// Scoping of the lints over the workspace tree. Paths are
/// workspace-relative prefixes with forward slashes; a file is in scope
/// when its path starts with a listed prefix.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// D1: determinism-critical paths.
    pub d1_paths: Vec<String>,
    /// D2 applies everywhere **except** these paths.
    pub d2_skip: Vec<String>,
    /// D2: paths where `std::env` reads are configuration, not ambience.
    pub d2_env_allow: Vec<String>,
    /// R1 scopes (recovery read path).
    pub r1: Vec<R1Scope>,
    /// R2 scopes (revisioned types).
    pub r2: Vec<R2Scope>,
    /// U1: paths where `unsafe` is permitted.
    pub unsafe_allow: Vec<String>,
}

fn in_scope(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}

impl Config {
    /// The workspace's scoping — the single source of truth for what
    /// "determinism-critical" means in this repo.
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            d1_paths: s(&[
                "crates/crf/src/gibbs.rs",
                "crates/crf/src/potentials.rs",
                "crates/crf/src/partition.rs",
                "crates/crf/src/graph.rs",
                "crates/crf/src/handle.rs",
                "crates/stream/src/",
                "crates/durability/src/",
                "crates/serve/src/",
            ]),
            d2_skip: s(&[
                "crates/bench/",
                "crates/shims/",
                "crates/xtask/",
                "examples/",
            ]),
            d2_env_allow: s(&["crates/core/src/config.rs"]),
            r1: vec![
                R1Scope {
                    path: "crates/durability/src/wal.rs".into(),
                    fns: Some(vec![
                        "open".into(),
                        "read_frame".into(),
                        "segment_lsn".into(),
                    ]),
                },
                R1Scope {
                    path: "crates/durability/src/checkpoint.rs".into(),
                    fns: None,
                },
                R1Scope {
                    path: "crates/durability/src/scrub.rs".into(),
                    fns: None,
                },
                R1Scope {
                    path: "crates/stream/src/durable.rs".into(),
                    fns: Some(vec![
                        "recover".into(),
                        "assemble_chain".into(),
                        "verify_store".into(),
                    ]),
                },
                R1Scope {
                    path: "crates/stream/src/stream.rs".into(),
                    fns: Some(vec!["restore_state".into()]),
                },
                R1Scope {
                    path: "crates/stream/src/online_em.rs".into(),
                    fns: Some(vec!["restore_state".into()]),
                },
            ],
            r2: vec![
                R2Scope {
                    path: "crates/crf/src/graph.rs".into(),
                    types: s(&["CrfModel"]),
                },
                R2Scope {
                    path: "crates/crf/src/handle.rs".into(),
                    types: s(&["ModelHandle"]),
                },
                R2Scope {
                    path: "crates/serve/src/server.rs".into(),
                    types: s(&["TruthServer"]),
                },
            ],
            unsafe_allow: s(&["crates/shims/"]),
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One token: an identifier/keyword or a single punctuation character,
/// with the 1-based line it starts on. Literals, lifetimes, and comments
/// are consumed by the lexer and never reach the token stream.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Tok {
    text: String,
    line: u32,
    ident: bool,
}

/// Lexed source: the token stream plus per-line `//` comment text (the
/// marker channel).
struct Lexed {
    toks: Vec<Tok>,
    comments: BTreeMap<u32, String>,
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

fn lex(source: &str) -> Lexed {
    let b: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments: BTreeMap<u32, String> = BTreeMap::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if b.get(i + 1) == Some(&'/') => {
                let start = i + 2;
                while i < b.len() && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                comments.entry(line).or_default().push_str(&text);
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                // Nested block comment; not a marker channel.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => i += 2,
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: `'\…'` and `'x'` are chars;
                // `'ident` with no closing quote right after is a lifetime.
                if b.get(i + 1) == Some(&'\\') {
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 1).is_some_and(|&c| is_ident_char(c))
                    && b.get(i + 2) == Some(&'\'')
                {
                    i += 3;
                } else if b.get(i + 1).is_some_and(|&c| is_ident_start(c)) {
                    i += 1; // lifetime: the quote plus one identifier
                    while i < b.len() && is_ident_char(b[i]) {
                        i += 1;
                    }
                } else {
                    // Single-char literal of a non-ident char, e.g. `'('`.
                    i += 1;
                    while i < b.len() && b[i] != '\'' && b[i] != '\n' {
                        i += 1;
                    }
                    i += 1;
                }
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                // Raw/byte string prefixes swallow the literal body.
                let raw = matches!(text.as_str(), "r" | "br" | "b")
                    && (b.get(i) == Some(&'"') || (text != "b" && b.get(i) == Some(&'#')));
                if raw {
                    let mut hashes = 0usize;
                    while b.get(i) == Some(&'#') {
                        hashes += 1;
                        i += 1;
                    }
                    if b.get(i) == Some(&'"') {
                        i += 1;
                        while i < b.len() {
                            if b[i] == '\n' {
                                line += 1;
                            } else if b[i] == '"'
                                && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#'))
                            {
                                i += 1 + hashes;
                                break;
                            } else if text == "b" && hashes == 0 && b[i] == '\\' {
                                i += 1; // byte-string escape
                            }
                            i += 1;
                        }
                        continue;
                    }
                }
                toks.push(Tok {
                    text,
                    line,
                    ident: true,
                });
            }
            c if c.is_ascii_digit() => {
                // Numeric literal (suffixes, underscores): dropped.
                while i < b.len() && (is_ident_char(b[i]) || b[i] == '.') {
                    // `0..4`: stop before a range operator.
                    if b[i] == '.' && b.get(i + 1) == Some(&'.') {
                        break;
                    }
                    i += 1;
                }
            }
            c => {
                toks.push(Tok {
                    text: c.to_string(),
                    line,
                    ident: false,
                });
                i += 1;
            }
        }
    }
    Lexed { toks, comments }
}

// ---------------------------------------------------------------------------
// Scope walking
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Scope {
    /// Inside a `#[cfg(test)]` block (or nested within one).
    cfg_test: bool,
    /// Innermost `impl` target type, if any.
    impl_ty: Option<String>,
    /// Inside a function whose body is recovery read path.
    r1_active: bool,
    /// An R2-scoped method to judge when this scope closes:
    /// (fn name, signature line, first body-token index).
    r2_fn: Option<(String, u32, usize)>,
}

/// `#[cfg(test)]` (or `cfg(all(test, …))`) in a header token run.
fn header_has_cfg_test(header: &[Tok]) -> bool {
    header.iter().enumerate().any(|(i, t)| {
        t.ident
            && t.text == "cfg"
            && header[i + 1..]
                .iter()
                .take(6)
                .any(|u| u.ident && u.text == "test")
    })
}

/// `fn name` in a header, with its line, pub-ness, and whether the
/// receiver is `&mut self`.
fn header_fn(header: &[Tok]) -> Option<(String, u32, bool, bool)> {
    let fn_at = header.iter().position(|t| t.ident && t.text == "fn")?;
    let name_tok = header[fn_at + 1..].iter().find(|t| t.ident)?;
    let is_pub = header[..fn_at].iter().any(|t| t.ident && t.text == "pub");
    let rest = &header[fn_at..];
    let mut_self = rest
        .windows(3)
        .any(|w| w[0].text == "&" && w[1].text == "mut" && w[2].text == "self");
    Some((name_tok.text.clone(), name_tok.line, is_pub, mut_self))
}

/// The target type of an `impl` header: `impl Ty {` or `impl Tr for Ty {`.
fn header_impl_ty(header: &[Tok]) -> Option<String> {
    let impl_at = header.iter().position(|t| t.ident && t.text == "impl")?;
    let rest = &header[impl_at + 1..];
    if let Some(for_at) = rest.iter().position(|t| t.ident && t.text == "for") {
        rest[for_at + 1..].iter().find(|t| t.ident)
    } else {
        // Skip a `<…>` generic group directly after `impl`.
        let mut depth = 0usize;
        rest.iter().find(|t| {
            match t.text.as_str() {
                "<" => depth += 1,
                ">" => depth = depth.saturating_sub(1),
                _ => {}
            }
            t.ident && depth == 0
        })
    }
    .map(|t| t.text.clone())
}

// ---------------------------------------------------------------------------
// Markers
// ---------------------------------------------------------------------------

/// A justified `marker` comment on `line` or within the two lines above
/// (so a justification may wrap once).
fn marked(comments: &BTreeMap<u32, String>, line: u32, marker: &str) -> bool {
    (line.saturating_sub(2)..=line).any(|l| {
        comments
            .get(&l)
            .is_some_and(|c| marker_justified(c, marker))
    })
}

/// The marker counts only when followed by a non-empty justification.
fn marker_justified(comment: &str, marker: &str) -> bool {
    comment
        .find(marker)
        .is_some_and(|at| !comment[at + marker.len()..].trim().is_empty())
}

// ---------------------------------------------------------------------------
// The analysis
// ---------------------------------------------------------------------------

/// R2 evidence that a mutation is revision-checked: any identifier
/// mentioning a revision, or the stale-delta rejection itself.
fn r2_evidence(t: &Tok) -> bool {
    t.ident && (t.text.to_ascii_lowercase().contains("revision") || t.text == "StaleDelta")
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return […]`, `in […]`, …).
fn keyword_before_index(text: &str) -> bool {
    matches!(
        text,
        "return" | "in" | "if" | "else" | "match" | "break" | "mut" | "ref" | "as" | "move"
    )
}

fn tok_is(t: Option<&Tok>, s: &str) -> bool {
    t.is_some_and(|t| t.text == s)
}

/// Analyze one file's source. `path` is the workspace-relative path used
/// for scope matching; the caller owns I/O, so fixtures can analyze
/// arbitrary content under any path.
pub fn analyze_source(path: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let Lexed { toks, comments } = lex(source);

    let d1 = in_scope(path, &cfg.d1_paths);
    let d2 = !in_scope(path, &cfg.d2_skip);
    let d2_env = in_scope(path, &cfg.d2_env_allow);
    let r1_scope = cfg.r1.iter().find(|s| path.starts_with(s.path.as_str()));
    let r2_scope = cfg.r2.iter().find(|s| path.starts_with(s.path.as_str()));
    let u1 = !in_scope(path, &cfg.unsafe_allow);

    let mut findings: Vec<Finding> = Vec::new();
    let push = |findings: &mut Vec<Finding>, lint: Lint, line: u32, message: String| {
        let f = Finding {
            path: path.to_string(),
            line,
            lint,
            message,
        };
        if !findings.contains(&f) {
            findings.push(f);
        }
    };

    let mut stack: Vec<Scope> = Vec::new();
    let mut header_start = 0usize;
    let mut in_use = false;

    for i in 0..toks.len() {
        let t = &toks[i];
        let cur = stack.last().cloned().unwrap_or_default();

        // ---- structure ----------------------------------------------------
        match t.text.as_str() {
            "{" => {
                let header = &toks[header_start..i];
                let cfg_test = cur.cfg_test || header_has_cfg_test(header);
                let mut scope = Scope {
                    cfg_test,
                    impl_ty: cur.impl_ty.clone(),
                    r1_active: cur.r1_active,
                    r2_fn: None,
                };
                if let Some(ty) = header_impl_ty(header) {
                    scope.impl_ty = Some(ty);
                    scope.r1_active = false;
                } else if let Some((name, sig_line, is_pub, mut_self)) = header_fn(header) {
                    if let Some(s) = r1_scope {
                        let named = s.fns.as_ref().is_none_or(|fns| fns.contains(&name));
                        scope.r1_active = cur.r1_active || (named && !cfg_test);
                    }
                    if let Some(s) = r2_scope {
                        let ty_match = cur.impl_ty.as_ref().is_some_and(|ty| s.types.contains(ty));
                        if ty_match && is_pub && mut_self && !cfg_test {
                            scope.r2_fn = Some((name, sig_line, i + 1));
                        }
                    }
                }
                stack.push(scope);
                header_start = i + 1;
                in_use = false;
                continue;
            }
            "}" => {
                if let Some(done) = stack.pop() {
                    if let Some((name, sig_line, body_start)) = done.r2_fn {
                        let checked = toks[body_start..i].iter().any(r2_evidence)
                            || (sig_line.saturating_sub(3)..=sig_line).any(|l| {
                                comments
                                    .get(&l)
                                    .is_some_and(|c| marker_justified(c, "rev-ok:"))
                            });
                        if !checked {
                            push(
                                &mut findings,
                                Lint::R2,
                                sig_line,
                                format!(
                                    "pub fn {name}(&mut self, …) on a revisioned type has \
                                     no revision check (and no `// rev-ok:` justification)"
                                ),
                            );
                        }
                    }
                }
                header_start = i + 1;
                in_use = false;
                continue;
            }
            ";" => {
                header_start = i + 1;
                in_use = false;
                continue;
            }
            _ => {}
        }
        if t.ident && t.text == "use" {
            in_use = true;
        }

        // ---- token lints --------------------------------------------------
        let next = toks.get(i + 1);
        let next2 = toks.get(i + 2);
        let prev = i.checked_sub(1).map(|p| &toks[p]);

        // U1: unsafe is a finding even inside cfg(test).
        if u1 && t.ident && t.text == "unsafe" {
            push(
                &mut findings,
                Lint::U1,
                t.line,
                "`unsafe` outside the allowlist (crates/shims/); move the code behind a \
                 safe API or extend the allowlist in xtask"
                    .to_string(),
            );
        }

        // D1: unordered containers in determinism-critical code. Applies
        // inside cfg(test) too — tests depend on iteration order as much
        // as the code they pin.
        if d1
            && !in_use
            && t.ident
            && (t.text == "HashMap" || t.text == "HashSet")
            && !marked(&comments, t.line, "det-ok:")
        {
            push(
                &mut findings,
                Lint::D1,
                t.line,
                format!(
                    "{} in a determinism-critical module: iteration order is unspecified; \
                     use BTreeMap/BTreeSet or a sorted Vec, or justify with \
                     `// det-ok: <why>`",
                    t.text
                ),
            );
        }

        // D2: ambient nondeterminism. Skips cfg(test) (tests may time
        // themselves) and `use` lines (importing a name is not reading it).
        if d2 && !cur.cfg_test && !in_use && t.ident {
            let path_sep = tok_is(next, ":") && tok_is(next2, ":");
            let why: Option<&str> = match t.text.as_str() {
                "SystemTime" if path_sep || tok_is(next, ".") => {
                    Some("SystemTime is wall-clock ambience")
                }
                "Instant" if path_sep && tok_is(toks.get(i + 3), "now") => {
                    Some("Instant::now() in a non-bench path")
                }
                "thread_rng" => Some("thread_rng() seeds from the OS"),
                "env"
                    if !d2_env
                        && !tok_is(prev, ".")
                        && path_sep
                        && toks.get(i + 3).is_some_and(|t| t.text.starts_with("var")) =>
                {
                    Some("std::env read outside the config layer")
                }
                _ => None,
            };
            if let Some(why) = why {
                if !marked(&comments, t.line, "det-ok:") {
                    push(
                        &mut findings,
                        Lint::D2,
                        t.line,
                        format!(
                            "{why}: thread the value through config/state instead, or \
                             justify with `// det-ok: <why>`"
                        ),
                    );
                }
            }
        }

        // R1: the recovery read path must decode corrupt bytes into typed
        // errors, never panic.
        if cur.r1_active && !cur.cfg_test {
            let offence: Option<String> = if t.ident
                && (t.text == "unwrap" || t.text == "expect")
                && tok_is(prev, ".")
            {
                Some(format!(".{}() panics on corrupt input", t.text))
            } else if t.ident
                && matches!(t.text.as_str(), "unreachable" | "panic" | "todo")
                && tok_is(next, "!")
            {
                Some(format!("{}! is a panic on a reachable read path", t.text))
            } else if t.text == "["
                && prev.is_some_and(|p| {
                    (p.ident && !keyword_before_index(&p.text)) || p.text == "]" || p.text == ")"
                })
            {
                Some("indexing panics on short input; use .get()".to_string())
            } else {
                None
            };
            if let Some(what) = offence {
                if !marked(&comments, t.line, "panic-ok:") {
                    push(
                        &mut findings,
                        Lint::R1,
                        t.line,
                        format!(
                            "{what}; corrupt bytes must surface as typed errors (or \
                             justify with `// panic-ok: <why>`)"
                        ),
                    );
                }
            }
        }
    }

    findings.sort();
    findings
}

// ---------------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------------

/// Collect the workspace-relative paths of every `.rs` file under `root`
/// that the pass covers, sorted (deterministic report order). Skips build
/// output and the analyzer's own known-bad fixtures.
pub fn workspace_files(root: &std::path::Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ["crates", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn collect(
    dir: &std::path::Path,
    root: &std::path::Path,
    out: &mut Vec<String>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Run the full pass over the workspace at `root` with `cfg`.
pub fn analyze_workspace(root: &std::path::Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(analyze_source(&rel, &source, cfg));
    }
    findings.sort();
    Ok(findings)
}
