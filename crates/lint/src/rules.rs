//! The rule set. Each rule is a function over a [`FileContext`] that
//! returns raw diagnostics; the engine applies suppressions afterwards.
//!
//! Rules are token-pattern heuristics, deliberately conservative: they
//! aim to catch every *real* occurrence of the pattern in this
//! workspace's idiom, and anything they over-flag can carry a justified
//! `lint:allow`. They are not a type system — a `HashMap` smuggled
//! behind a type alias will not be seen, which is why the determinism
//! *tests* stay in tier-1 alongside this pass.

use crate::scanner::{TokKind, Token};
use crate::{Diagnostic, FileContext, Target};

/// Crates whose outputs feed trained parameters, experiment records, or
/// serialized artifacts — everywhere iteration order must be fixed.
/// `serve` is included because it produces wire bytes under a
/// byte-determinism contract (`docs/PROTOCOL.md` §5).
pub const DETERMINISTIC_CRATES: &[&str] =
    &["tensor", "core", "text", "storage", "data", "json", "serve"];

/// Files allowed to read process environment variables, and why:
/// `pool.rs` owns `NLIDB_THREADS`, the trace crate owns `NLIDB_TRACE`.
const ENV_ALLOWED_FILES: &[&str] = &["crates/tensor/src/pool.rs", "crates/trace/src/lib.rs"];

/// Files allowed to create OS threads: the deterministic pool, and the
/// server front end (acceptor / engine / connection threads — server
/// concurrency lives entirely in this one file; inference fan-out still
/// goes through the pool).
const SPAWN_ALLOWED_FILES: &[&str] =
    &["crates/tensor/src/pool.rs", "crates/serve/src/server.rs"];

/// Files allowed to read wall clocks outside bench/trace: the server
/// front end's socket and shutdown timeouts, which must affect latency
/// only, never response bytes (`crates/serve/tests/server_determinism.rs`
/// replays a fixed request log under different timings to enforce it).
/// The engine batches by queue depth, not by a timer, and reads no clock.
const WALL_CLOCK_ALLOWED_FILES: &[&str] = &["crates/serve/src/server.rs"];

/// The only crate allowed to touch sockets: the serving layer is the
/// workspace's deliberate I/O boundary.
const NET_ALLOWED_CRATE: &str = "serve";

/// Socket type names whose appearance marks network I/O.
const NET_TYPES: &[&str] = &["TcpListener", "TcpStream", "UdpSocket", "UnixListener", "UnixStream"];

/// Iterator-producing methods whose order is the container's.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "drain", "into_iter", "into_keys",
    "into_values",
];

/// Order-insensitive consumers: reaching one of these in the same
/// statement makes hash-order iteration harmless (`count`/`len` ignore
/// order; `min`/`max` over `Ord` are order-free; `all`/`any` with pure
/// predicates decide the same set either way; sorting or collecting
/// into a BTree re-establishes an order).
const ORDER_FREE: &[&str] = &[
    "sort", "sort_by", "sort_by_key", "sort_unstable", "sort_unstable_by",
    "sort_unstable_by_key", "count", "len", "min", "max", "all", "any", "is_empty", "contains",
    "BTreeMap", "BTreeSet",
];

/// Memory orderings weaker than `SeqCst`; every use outside the
/// allowlisted files needs a written argument.
const WEAK_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// Files whose job *is* fine-grained atomics, with the ordering
/// arguments written where the atomics live: the work-stealing pool
/// (task cursor / shutdown flags) and the trace registry's counters.
const ATOMIC_ALLOWED_FILES: &[&str] = &["crates/tensor/src/pool.rs", "crates/trace/src/lib.rs"];

/// Numeric `as`-cast targets that can silently truncate or lose
/// precision. `usize`/`u64`/`i64` are deliberately absent: index-width
/// casts are covered by `panic-path`'s cast-fed-index variant, and
/// widening casts are lossless on every target this workspace supports.
const LOSSY_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Runs every source rule that applies to `ctx`.
pub fn run_all(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    out.extend(hashmap_iteration(ctx));
    out.extend(wall_clock(ctx));
    out.extend(raw_spawn(ctx));
    out.extend(unsafe_needs_safety_comment(ctx));
    out.extend(no_print_in_lib(ctx));
    out.extend(env_read(ctx));
    out.extend(net_io(ctx));
    out.extend(atomic_ordering(ctx));
    out.extend(lossy_cast(ctx));
    out
}

fn diag(ctx: &FileContext<'_>, line: u32, rule: &str, message: String) -> Diagnostic {
    Diagnostic::deny(ctx.rel_path, line, rule, message)
}

fn is_ident(t: &Token, text: &str) -> bool {
    t.kind == TokKind::Ident && t.text == text
}

/// ---------------------------------------------------------------- ///
/// hashmap-iteration                                                ///
/// ---------------------------------------------------------------- ///
///
/// In the deterministic crates, iterating a `HashMap`/`HashSet` is the
/// classic silent nondeterminism: the iteration order depends on the
/// hasher's per-process seed and on insertion history, so any float sum,
/// serialization, or first-match scan over it can differ between runs.
/// The rule tracks names bound to hash containers within the file
/// (field declarations, typed lets, `= HashMap::new()` initializers,
/// and `self` inside `impl … for HashMap/HashSet` blocks) and flags
/// iterator draws from them, unless the same statement ends in an
/// order-insensitive consumer or re-sorts.
fn hashmap_iteration(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name) || ctx.target != Target::Lib {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();

    // Pass A: names bound to hash containers.
    let mut bound: Vec<String> = Vec::new();
    // Line ranges where `self` is a hash container (impl-for blocks).
    let mut self_ranges: Vec<(u32, u32)> = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || (toks[i].text != "HashMap" && toks[i].text != "HashSet")
        {
            continue;
        }
        // `impl<…> Trait for HashMap<…> { … }`: bind `self` for the body.
        if let Some(range) = impl_for_range(toks, i) {
            self_ranges.push(range);
            continue;
        }
        // Walk back over a path prefix (`std :: collections ::`) and
        // reference sigils to find what introduced this type mention.
        let mut j = i;
        loop {
            if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
                j -= 2;
                if j >= 1 && toks[j - 1].kind == TokKind::Ident {
                    j -= 1;
                    continue;
                }
            }
            break;
        }
        while j >= 1 && (toks[j - 1].text == "&" || is_ident(&toks[j - 1], "mut")) {
            j -= 1;
        }
        if j < 2 {
            continue;
        }
        let before = &toks[j - 1];
        // Type annotation `name: HashMap<…>` (field or let). A single
        // colon only — `::` was consumed by the path walk above.
        if before.text == ":" && toks[j - 2].kind == TokKind::Ident && toks[j - 2].text != ":" {
            bound.push(toks[j - 2].text.clone());
            continue;
        }
        // Initializer `let [mut] name = HashMap::new()`.
        if before.text == "=" && toks[j - 2].kind == TokKind::Ident {
            bound.push(toks[j - 2].text.clone());
        }
    }

    let is_hash_receiver = |name: &str, line: u32| -> bool {
        if bound.iter().any(|b| b == name) {
            return true;
        }
        name == "self" && self_ranges.iter().any(|&(a, b)| line >= a && line <= b)
    };

    // Pass B1: method draws — `recv.iter()`, `self.field.keys()`, …
    for i in 2..toks.len() {
        if toks[i].kind != TokKind::Ident || !ITER_METHODS.contains(&toks[i].text.as_str()) {
            continue;
        }
        if toks[i - 1].text != "." {
            continue;
        }
        let recv = &toks[i - 2];
        if recv.kind != TokKind::Ident {
            continue;
        }
        // `self.field.iter()`: the receiver is the field; resolve it.
        let receiver_is_hash = if recv.text == "self" {
            is_hash_receiver("self", recv.line)
        } else if i >= 4 && toks[i - 3].text == "." && is_ident(&toks[i - 4], "self") {
            is_hash_receiver(&recv.text, recv.line) || is_hash_receiver("self", recv.line)
        } else {
            is_hash_receiver(&recv.text, recv.line)
        };
        if !receiver_is_hash || ctx.in_test(toks[i].line) {
            continue;
        }
        if statement_is_order_free(toks, i) {
            continue;
        }
        out.push(diag(
            ctx,
            toks[i].line,
            "hashmap-iteration",
            format!(
                "`.{}()` draws hash-order from `{}` in a deterministic crate; use a BTreeMap/\
                 BTreeSet, sort before consuming, or justify with `// lint:allow(hashmap-iteration): …`",
                toks[i].text, recv.text
            ),
        ));
    }

    // Pass B2: `for pat in [&[mut]] name` / `for pat in self.field`.
    let mut i = 0usize;
    while i < toks.len() {
        if !is_ident(&toks[i], "for") {
            i += 1;
            continue;
        }
        // Find the `in` of this loop header (bounded scan; give up on
        // complex patterns rather than guess).
        let mut j = i + 1;
        let mut found_in = None;
        while j < toks.len() && j - i < 24 {
            if is_ident(&toks[j], "in") {
                found_in = Some(j);
                break;
            }
            if toks[j].text == "{" {
                break;
            }
            j += 1;
        }
        let Some(mut k) = found_in else {
            i += 1;
            continue;
        };
        k += 1;
        while k < toks.len() && (toks[k].text == "&" || is_ident(&toks[k], "mut")) {
            k += 1;
        }
        // A dotted path `a.b.c` ending before `{`; any call parens mean
        // the iterated expression is not a bare hash binding.
        let mut path: Vec<&Token> = Vec::new();
        while k < toks.len() {
            if toks[k].kind == TokKind::Ident {
                path.push(&toks[k]);
                if toks.get(k + 1).map(|t| t.text.as_str()) == Some(".") {
                    k += 2;
                    continue;
                }
            }
            break;
        }
        let iterated_hash = match path.as_slice() {
            [one] => is_hash_receiver(&one.text, one.line),
            [s, field] if s.text == "self" => {
                is_hash_receiver(&field.text, field.line) || is_hash_receiver("self", s.line)
            }
            _ => false,
        };
        let next_is_call = toks.get(k).map(|t| t.text.as_str()) == Some("(");
        if iterated_hash && !next_is_call && !ctx.in_test(toks[i].line) {
            let name = path.last().map(|t| t.text.clone()).unwrap_or_default();
            out.push(diag(
                ctx,
                toks[i].line,
                "hashmap-iteration",
                format!(
                    "`for … in` over hash container `{name}` in a deterministic crate; iterate a \
                     sorted view or use a BTreeMap/BTreeSet"
                ),
            ));
        }
        i = k.max(i + 1);
    }

    out
}

/// If `toks[hash_idx]` (a `HashMap`/`HashSet` ident) appears as the Self
/// type of an `impl … for HashMap<…> { … }`, returns the line range of
/// the impl body.
fn impl_for_range(toks: &[Token], hash_idx: usize) -> Option<(u32, u32)> {
    // Look back a bounded window for `impl` … `for` with no `{` between.
    let lo = hash_idx.saturating_sub(40);
    let mut saw_for = None;
    let mut saw_impl = None;
    for j in (lo..hash_idx).rev() {
        match toks[j].text.as_str() {
            "{" | "}" | ";" => break,
            "for" if toks[j].kind == TokKind::Ident => saw_for = Some(j),
            "impl" if toks[j].kind == TokKind::Ident => {
                saw_impl = Some(j);
                break;
            }
            _ => {}
        }
    }
    let (impl_idx, for_idx) = (saw_impl?, saw_for?);
    if for_idx < impl_idx {
        return None;
    }
    // Body: from the next `{` to its matching `}`.
    let mut k = hash_idx;
    while k < toks.len() && toks[k].text != "{" {
        k += 1;
    }
    if k >= toks.len() {
        return None;
    }
    let start_line = toks[k].line;
    let mut depth = 1usize;
    let mut m = k + 1;
    while m < toks.len() && depth > 0 {
        match toks[m].text.as_str() {
            "{" => depth += 1,
            "}" => depth -= 1,
            _ => {}
        }
        m += 1;
    }
    let end_line = toks.get(m.saturating_sub(1)).map_or(start_line, |t| t.line);
    Some((start_line, end_line))
}

/// Whether the statement containing the iterator draw at `idx` ends in
/// an order-insensitive consumer (scan forward to the statement's `;`,
/// bounded).
fn statement_is_order_free(toks: &[Token], idx: usize) -> bool {
    let mut j = idx + 1;
    let mut depth = 0i32;
    while j < toks.len() && j - idx < 80 {
        match toks[j].text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth < 0 {
                    return false;
                }
            }
            ";" if depth == 0 => return false,
            t if toks[j].kind == TokKind::Ident && ORDER_FREE.contains(&t) => return true,
            _ => {}
        }
        j += 1;
    }
    false
}

/// ---------------------------------------------------------------- ///
/// wall-clock                                                       ///
/// ---------------------------------------------------------------- ///
///
/// Wall-clock reads in library code are hidden nondeterminism (and a
/// temptation to branch on timing). They belong in the `bench` and
/// `trace` crates; elsewhere a read must sit on a line guarded by
/// `nlidb_trace::enabled()` so the untraced path never touches a clock.
fn wall_clock(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if ctx.crate_name == "trace"
        || ctx.crate_name == "bench"
        || WALL_CLOCK_ALLOWED_FILES.contains(&ctx.rel_path)
    {
        return Vec::new();
    }
    if !matches!(ctx.target, Target::Lib | Target::Bin) {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    let line_has_guard = |line: u32| toks.iter().any(|t| t.line == line && is_ident(t, "enabled"));
    for i in 0..toks.len() {
        let flagged = if is_ident(&toks[i], "Instant") {
            toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
                && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
                && toks.get(i + 3).is_some_and(|t| is_ident(t, "now"))
        } else {
            is_ident(&toks[i], "SystemTime")
        };
        if !flagged || ctx.in_test(toks[i].line) || line_has_guard(toks[i].line) {
            continue;
        }
        out.push(diag(
            ctx,
            toks[i].line,
            "wall-clock",
            format!(
                "`{}` read outside bench/trace; gate it behind `nlidb_trace::enabled()` on the \
                 same line or move it into the trace crate",
                toks[i].text
            ),
        ));
    }
    out
}

/// ---------------------------------------------------------------- ///
/// raw-spawn                                                        ///
/// ---------------------------------------------------------------- ///
///
/// All parallelism goes through the deterministic pool; a raw
/// `thread::spawn` anywhere else can reorder float accumulation or leak
/// detached work past a test boundary.
fn raw_spawn(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if SPAWN_ALLOWED_FILES.contains(&ctx.rel_path)
        || !matches!(ctx.target, Target::Lib | Target::Bin)
    {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for t in toks {
        if is_ident(t, "spawn") && !ctx.in_test(t.line) {
            out.push(diag(
                ctx,
                t.line,
                "raw-spawn",
                "thread creation is reserved to `crates/tensor/src/pool.rs` and the server \
                 front end (`crates/serve/src/server.rs`); use \
                 `nlidb_tensor::pool::parallel_for` instead"
                    .to_string(),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// unsafe-needs-safety-comment                                      ///
/// ---------------------------------------------------------------- ///
///
/// Every `unsafe` must carry its proof obligation: a `// SAFETY:`
/// comment on the same line or on the contiguous comment block
/// immediately above. Applies everywhere, tests included.
fn unsafe_needs_safety_comment(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    let s = ctx.scanned;
    let mut out = Vec::new();
    let mut seen_lines = Vec::new();
    for t in &s.tokens {
        if !is_ident(t, "unsafe") || seen_lines.contains(&t.line) {
            continue;
        }
        seen_lines.push(t.line);
        let has_safety = |line: u32| s.comments_on(line).any(|c| c.text.contains("SAFETY:"));
        if has_safety(t.line) {
            continue;
        }
        // Walk up through the contiguous comment block above.
        let mut l = t.line.saturating_sub(1);
        let mut ok = false;
        while l >= 1 {
            if has_safety(l) {
                ok = true;
                break;
            }
            // A pure comment line continues the block; code or blank ends it.
            if s.has_comment(l) && !s.has_code(l) {
                l -= 1;
                continue;
            }
            break;
        }
        if !ok {
            out.push(diag(
                ctx,
                t.line,
                "unsafe-needs-safety-comment",
                "`unsafe` without a `// SAFETY:` comment on this line or immediately above; \
                 state the aliasing/lifetime argument"
                    .to_string(),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// no-print-in-lib                                                  ///
/// ---------------------------------------------------------------- ///
///
/// Library code must stay silent: stdout/stderr belong to binaries,
/// benches, and tests. A stray `println!` in a hot path is also a
/// performance bug.
fn no_print_in_lib(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if ctx.crate_name == "bench" || ctx.target != Target::Lib {
        return Vec::new();
    }
    const PRINT_MACROS: &[&str] = &["print", "println", "eprint", "eprintln", "dbg"];
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokKind::Ident
            && PRINT_MACROS.contains(&toks[i].text.as_str())
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            && !ctx.in_test(toks[i].line)
        {
            out.push(diag(
                ctx,
                toks[i].line,
                "no-print-in-lib",
                format!(
                    "`{}!` in library code; return the value, use the trace registry, or move \
                     the output to a bin",
                    toks[i].text
                ),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// env-read                                                         ///
/// ---------------------------------------------------------------- ///
///
/// Environment reads are process-global hidden inputs; each knob gets
/// exactly one owner (`NLIDB_THREADS` → pool, `NLIDB_TRACE` → trace,
/// `NLIDB_BENCH_SMOKE` → bench). New knobs must be added deliberately.
fn env_read(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if ENV_ALLOWED_FILES.contains(&ctx.rel_path)
        || ctx.crate_name == "bench"
        || matches!(ctx.target, Target::Test | Target::Bench)
    {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks[i], "env")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 3).is_some_and(|t| is_ident(t, "var") || is_ident(t, "var_os"))
            && !ctx.in_test(toks[i].line)
        {
            out.push(diag(
                ctx,
                toks[i].line,
                "env-read",
                "environment read outside the allowlisted config sites (pool/trace/bench); \
                 plumb configuration through explicit parameters"
                    .to_string(),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// net-io                                                           ///
/// ---------------------------------------------------------------- ///
///
/// Sockets in library code are a nondeterminism *and* hygiene hazard:
/// network reads are hidden inputs, and every crate below the serving
/// layer must stay runnable hermetically (tests, benches, airgapped
/// builds). The `serve` crate is the workspace's one legitimate I/O
/// boundary; binaries, tests, benches, and examples may of course talk
/// to it. Anything else naming a socket type in library code is flagged.
fn net_io(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if ctx.crate_name == NET_ALLOWED_CRATE || ctx.target != Target::Lib {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for t in toks {
        if t.kind == TokKind::Ident
            && NET_TYPES.contains(&t.text.as_str())
            && !ctx.in_test(t.line)
        {
            out.push(diag(
                ctx,
                t.line,
                "net-io",
                format!(
                    "`{}` in library code outside the serving layer; network I/O is reserved \
                     to `crates/serve` (the designated I/O boundary) — move the code there or \
                     behind its protocol",
                    t.text
                ),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// atomic-ordering                                                  ///
/// ---------------------------------------------------------------- ///
///
/// A weaker-than-`SeqCst` memory ordering is a claim about every other
/// access to the same atomic — a claim that silently breaks when the
/// next edit adds one. `SeqCst` is always sound (just slower), so the
/// rule's default is: use `SeqCst`, or write the argument down. The two
/// files whose job is fine-grained atomics (the pool's task cursor, the
/// trace counters) are allowlisted because their orderings are argued
/// in comments where the atomics live; everywhere else a `Relaxed` /
/// `Acquire` / `Release` / `AcqRel` needs a reasoned
/// `lint:allow(atomic-ordering)`.
fn atomic_ordering(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if ATOMIC_ALLOWED_FILES.contains(&ctx.rel_path)
        || !matches!(ctx.target, Target::Lib | Target::Bin)
    {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        // `Ordering :: Weak` — the variant names distinguish
        // `atomic::Ordering` from `cmp::Ordering` (whose variants are
        // Less/Equal/Greater), so no import tracking is needed.
        if is_ident(&toks[i], "Ordering")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 3).is_some_and(|t| {
                t.kind == TokKind::Ident && WEAK_ORDERINGS.contains(&t.text.as_str())
            })
            && !ctx.in_test(toks[i].line)
        {
            let variant = &toks[i + 3].text;
            out.push(diag(
                ctx,
                toks[i].line,
                "atomic-ordering",
                format!(
                    "`Ordering::{variant}` outside the allowlisted atomic sites; use \
                     `Ordering::SeqCst`, or state the required happens-before relationship with \
                     `// lint:allow(atomic-ordering): …`"
                ),
            ));
        }
    }
    out
}

/// ---------------------------------------------------------------- ///
/// lossy-cast                                                       ///
/// ---------------------------------------------------------------- ///
///
/// In the deterministic crates, `expr as u32`-style casts truncate
/// silently — the bitwise-reproducibility contract makes that extra
/// dangerous because a wrapped value is *stable* across reruns and so
/// invisible to the determinism tests. Warn severity: existing casts
/// are counted in the baseline and may only ratchet down; new ones
/// need `try_into()` + a typed error, a documented value-range
/// invariant via `lint:allow(lossy-cast)`, or a wider type.
fn lossy_cast(ctx: &FileContext<'_>) -> Vec<Diagnostic> {
    if !DETERMINISTIC_CRATES.contains(&ctx.crate_name) || ctx.target != Target::Lib {
        return Vec::new();
    }
    let toks = &ctx.scanned.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if is_ident(&toks[i], "as")
            && toks.get(i + 1).is_some_and(|t| {
                t.kind == TokKind::Ident && LOSSY_CAST_TARGETS.contains(&t.text.as_str())
            })
            && !ctx.in_test(toks[i].line)
        {
            let target_ty = &toks[i + 1].text;
            out.push(Diagnostic::warn(
                ctx.rel_path,
                toks[i].line,
                "lossy-cast",
                format!(
                    "`as {target_ty}` can truncate silently in a deterministic crate; use \
                     `try_into()` with a typed error, widen the type, or document the value \
                     range with `// lint:allow(lossy-cast): …`"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::check_source;

    const DET_LIB: &str = "crates/storage/src/fixture.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<String> {
        let mut v: Vec<String> = check_source(path, src).into_iter().map(|d| d.rule).collect();
        v.dedup();
        v
    }

    #[test]
    fn hashmap_iteration_fires_on_typed_binding() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<String, u32>) -> Vec<u32> {\n    m.values().cloned().collect()\n}\n";
        assert_eq!(rules_fired(DET_LIB, src), vec!["hashmap-iteration"]);
    }

    #[test]
    fn hashmap_iteration_fires_on_initializer_binding_and_for_loop() {
        let src = "fn f() {\n    let mut seen = std::collections::HashSet::new();\n    seen.insert(1);\n    for x in &seen { drop(x); }\n}\n";
        assert_eq!(rules_fired(DET_LIB, src), vec!["hashmap-iteration"]);
    }

    #[test]
    fn hashmap_iteration_spares_keyed_access_and_membership() {
        let src = "use std::collections::{HashMap, HashSet};\nstruct S { index: HashMap<String, usize> }\nimpl S {\n    fn get(&self, k: &str) -> Option<usize> { self.index.get(k).copied() }\n}\nfn g(s: &HashSet<u32>) -> bool { s.contains(&3) }\n";
        assert!(rules_fired(DET_LIB, src).is_empty());
    }

    #[test]
    fn hashmap_iteration_spares_order_free_consumers() {
        let src = "use std::collections::HashSet;\nfn f(s: &HashSet<u32>) -> usize {\n    let s2: HashSet<u32> = s.clone();\n    s2.iter().count()\n}\n";
        assert!(rules_fired(DET_LIB, src).is_empty());
    }

    #[test]
    fn hashmap_iteration_sees_self_in_impl_for_hashmap() {
        let src = "use std::collections::HashMap;\ntrait T { fn go(&self) -> Vec<String>; }\nimpl<V> T for HashMap<String, V> {\n    fn go(&self) -> Vec<String> {\n        self.keys().cloned().collect()\n    }\n}\n";
        assert_eq!(rules_fired("crates/json/src/fixture.rs", src), vec!["hashmap-iteration"]);
    }

    #[test]
    fn hashmap_iteration_ignores_nondeterministic_crates_and_tests() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<String, u32>) -> Vec<u32> { m.values().cloned().collect() }\n";
        assert!(rules_fired("crates/bench/src/fixture.rs", src).is_empty());
        assert!(rules_fired("crates/storage/tests/fixture.rs", src).is_empty());
        let in_test_mod = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(rules_fired(DET_LIB, &in_test_mod).is_empty());
    }

    #[test]
    fn wall_clock_fires_unguarded_and_spares_guarded() {
        let bad = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        assert_eq!(rules_fired("crates/core/src/fixture.rs", bad), vec!["wall-clock"]);
        let guarded =
            "fn f() { let t = nlidb_trace::enabled().then(std::time::Instant::now); drop(t); }\n";
        assert!(rules_fired("crates/core/src/fixture.rs", guarded).is_empty());
        // Importing the type is not the offence; calling `now` is.
        assert!(rules_fired("crates/core/src/fixture.rs", "use std::time::Instant;\n").is_empty());
        // trace and bench crates own their clocks.
        assert!(rules_fired("crates/trace/src/fixture.rs", bad).is_empty());
        assert!(rules_fired("crates/bench/src/fixture.rs", bad).is_empty());
    }

    #[test]
    fn system_time_is_always_flagged_outside_trace() {
        let src = "fn f() { let _ = std::time::SystemTime::UNIX_EPOCH; }\n";
        assert_eq!(rules_fired("crates/data/src/fixture.rs", src), vec!["wall-clock"]);
    }

    #[test]
    fn raw_spawn_reserved_to_pool() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(rules_fired("crates/core/src/fixture.rs", src), vec!["raw-spawn"]);
        assert!(rules_fired("crates/tensor/src/pool.rs", src).is_empty());
        assert!(rules_fired("crates/core/tests/fixture.rs", src).is_empty());
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        assert_eq!(
            rules_fired("crates/tensor/src/fixture.rs", bad),
            vec!["unsafe-needs-safety-comment"]
        );
        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
        assert!(rules_fired("crates/tensor/src/fixture.rs", good).is_empty());
        let trailing = "fn f(p: *const u8) -> u8 { unsafe { *p } } // SAFETY: valid by contract\n";
        assert!(rules_fired("crates/tensor/src/fixture.rs", trailing).is_empty());
    }

    #[test]
    fn unsafe_comment_block_must_be_contiguous() {
        let gap = "fn f(p: *const u8) -> u8 {\n    // SAFETY: stale comment\n    let _x = 1;\n    unsafe { *p }\n}\n";
        assert_eq!(
            rules_fired("crates/tensor/src/fixture.rs", gap),
            vec!["unsafe-needs-safety-comment"]
        );
    }

    #[test]
    fn prints_forbidden_in_lib_allowed_in_bins_tests_bench() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert_eq!(rules_fired("crates/core/src/fixture.rs", src), vec!["no-print-in-lib"]);
        assert!(rules_fired("crates/bench/src/fixture.rs", src).is_empty());
        assert!(rules_fired("src/bin/nlidb_fixture.rs", src).is_empty());
        assert!(rules_fired("examples/fixture.rs", src).is_empty());
        assert!(rules_fired("crates/core/tests/fixture.rs", src).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n{src}\n}}\n");
        assert!(rules_fired("crates/core/src/fixture.rs", &in_test).is_empty());
    }

    #[test]
    fn wall_clock_scoped_allow_covers_serve_timeout_files_only() {
        let src = "fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        // The front end that owns the socket/shutdown timeouts is exempt…
        assert!(rules_fired("crates/serve/src/server.rs", src).is_empty());
        // …but the rest of the serve crate is not: a clock read in the
        // engine or the protocol layer could leak timing into bytes.
        assert_eq!(rules_fired("crates/serve/src/engine.rs", src), vec!["wall-clock"]);
        assert_eq!(rules_fired("crates/serve/src/protocol.rs", src), vec!["wall-clock"]);
    }

    #[test]
    fn raw_spawn_allows_server_front_end_only() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert!(rules_fired("crates/serve/src/server.rs", src).is_empty());
        assert_eq!(rules_fired("crates/serve/src/engine.rs", src), vec!["raw-spawn"]);
    }

    #[test]
    fn net_io_reserved_to_serve_crate_libraries_exempt_elsewhere_targets() {
        let src = "use std::net::TcpStream;\nfn f() { let _ = TcpStream::connect(\"x\"); }\n";
        assert_eq!(rules_fired("crates/core/src/fixture.rs", src), vec!["net-io"]);
        assert_eq!(rules_fired("crates/trace/src/fixture.rs", src), vec!["net-io"]);
        // The serving layer is the designated I/O boundary.
        assert!(rules_fired("crates/serve/src/client.rs", src).is_empty());
        // Non-library targets may talk to the server.
        assert!(rules_fired("crates/core/tests/fixture.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/bin/fixture.rs", src).is_empty());
        assert!(rules_fired("examples/fixture.rs", src).is_empty());
    }

    #[test]
    fn net_io_flags_listeners_and_udp_too() {
        for ty in ["TcpListener", "UdpSocket", "UnixStream"] {
            let src = format!("fn f() {{ let _ = std::net::{ty}::bind(\"x\"); }}\n");
            assert_eq!(rules_fired("crates/storage/src/fixture.rs", &src), vec!["net-io"]);
        }
    }

    #[test]
    fn serve_is_a_deterministic_crate_for_hash_iteration() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<String, u32>) -> Vec<u32> { m.values().cloned().collect() }\n";
        assert_eq!(rules_fired("crates/serve/src/fixture.rs", src), vec!["hashmap-iteration"]);
    }

    #[test]
    fn atomic_ordering_flags_weak_orderings_outside_allowlist() {
        for variant in ["Relaxed", "Acquire", "Release", "AcqRel"] {
            let src = format!(
                "use std::sync::atomic::{{AtomicUsize, Ordering}};\nfn f(a: &AtomicUsize) -> usize {{ a.load(Ordering::{variant}) }}\n"
            );
            assert_eq!(rules_fired("crates/data/src/fixture.rs", &src), vec!["atomic-ordering"]);
        }
    }

    #[test]
    fn atomic_ordering_spares_seqcst_allowlist_tests_and_cmp_ordering() {
        let seqcst = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(a: &AtomicUsize) -> usize { a.load(Ordering::SeqCst) }\n";
        assert!(rules_fired("crates/data/src/fixture.rs", seqcst).is_empty());
        let relaxed = "use std::sync::atomic::{AtomicUsize, Ordering};\nfn f(a: &AtomicUsize) -> usize { a.load(Ordering::Relaxed) }\n";
        assert!(rules_fired("crates/tensor/src/pool.rs", relaxed).is_empty());
        assert!(rules_fired("crates/trace/src/lib.rs", relaxed).is_empty());
        assert!(rules_fired("crates/data/tests/fixture.rs", relaxed).is_empty());
        // `cmp::Ordering`'s variants never collide with the weak set.
        let cmp = "use std::cmp::Ordering;\nfn f(a: u32, b: u32) -> bool { a.cmp(&b) == Ordering::Less }\n";
        assert!(rules_fired("crates/data/src/fixture.rs", cmp).is_empty());
    }

    #[test]
    fn lossy_cast_warns_on_truncating_targets_in_deterministic_libs() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        let diags = check_source(DET_LIB, src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "lossy-cast");
        assert_eq!(diags[0].severity, crate::Severity::Warn);
        let f32_src = "fn f(x: f64) -> f32 { x as f32 }\n";
        assert_eq!(rules_fired(DET_LIB, f32_src), vec!["lossy-cast"]);
    }

    #[test]
    fn lossy_cast_spares_widening_usize_bins_and_other_crates() {
        assert!(rules_fired(DET_LIB, "fn f(x: u32) -> u64 { x as u64 }\n").is_empty());
        assert!(rules_fired(DET_LIB, "fn f(x: u32) -> usize { x as usize }\n").is_empty());
        let truncating = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert!(rules_fired("crates/bench/src/fixture.rs", truncating).is_empty());
        assert!(rules_fired("crates/storage/src/bin/fixture.rs", truncating).is_empty());
        assert!(rules_fired("crates/storage/tests/fixture.rs", truncating).is_empty());
        // `use x as y` renames are not casts onto a numeric target.
        assert!(rules_fired(DET_LIB, "use std::io::Result as IoResult;\n").is_empty());
    }

    #[test]
    fn env_reads_only_at_allowlisted_sites() {
        let src = "fn f() -> Option<String> { std::env::var(\"SOME_KNOB\").ok() }\n";
        assert_eq!(rules_fired("crates/core/src/fixture.rs", src), vec!["env-read"]);
        assert!(rules_fired("crates/tensor/src/pool.rs", src).is_empty());
        assert!(rules_fired("crates/trace/src/lib.rs", src).is_empty());
        assert!(rules_fired("crates/bench/src/fixture.rs", src).is_empty());
        // Compile-time `env!` is fine.
        let compile_time = "fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }\n";
        assert!(rules_fired("crates/core/src/fixture.rs", compile_time).is_empty());
    }
}
