//! Structural fences: rules about the shape of the source tree that no
//! behavioural test can see, checked by reading the files themselves.
//! Each `#[test]` is one fence; its doc comment says what it keeps out
//! and why.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The workspace root.
fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every file under `dir` (relative to the root), recursively, skipping
/// build output; sorted, so a failure names files in a stable order.
fn files_under(dir: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root().join(dir), &mut out);
    out.sort();
    out
}

/// The `.rs` files under `dir`.
fn rust_files_under(dir: &str) -> Vec<PathBuf> {
    files_under(dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect()
}

/// `path` relative to the root, for messages.
fn shown(path: &Path) -> String {
    path.strip_prefix(root()).unwrap_or(path).display().to_string()
}

/// The file a `mod name;` declared in `parent` loads, `#[path]` given or
/// not.
fn module_file(parent: &Path, name: &str, path_attr: Option<&str>) -> PathBuf {
    let dir = parent.parent().expect("a file has a directory");
    if let Some(p) = path_attr {
        return dir.join(p);
    }
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = if ["mod", "lib", "main"].contains(&stem) {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    let flat = dir.join(format!("{name}.rs"));
    if flat.exists() {
        flat
    } else {
        dir.join(name).join("mod.rs")
    }
}

/// The `#[cfg(test)]` module declaration at `lines[i]` — the attribute,
/// an optional `#[path = "…"]`, then `mod name;` — as its length in
/// lines, the module's name and its path attribute.
fn test_mod_decl<'a>(lines: &[&'a str], i: usize) -> Option<(usize, &'a str, Option<&'a str>)> {
    if lines.get(i)?.trim() != "#[cfg(test)]" {
        return None;
    }
    let path = lines.get(i + 1)?.trim().strip_prefix("#[path = \"").and_then(|p| p.strip_suffix("\"]"));
    let n = 1 + usize::from(path.is_some());
    let name = lines.get(i + n)?.trim().strip_prefix("mod ")?.strip_suffix(';')?;
    Some((n + 1, name, path))
}

/// Every file under `crates/` loaded only as a `#[cfg(test)]` module:
/// test code, though it has no `#[cfg(test)]` line of its own.
fn test_only_files() -> &'static HashSet<PathBuf> {
    static FILES: OnceLock<HashSet<PathBuf>> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut found = HashSet::new();
        for parent in rust_files_under("crates") {
            let text = fs::read_to_string(&parent).expect("readable");
            let lines: Vec<&str> = text.lines().collect();
            for i in 0..lines.len() {
                if let Some((_, name, path)) = test_mod_decl(&lines, i) {
                    found.insert(module_file(&parent, name, path));
                }
            }
        }
        found
    })
}

/// The file's shipping lines as `(line number, text)`: everything above
/// its first column-0 `#[cfg(test)]` that is not just a test module's
/// declaration, less those declarations and the lines that are only a
/// `//` comment (doc comments included); none for a file loaded only as
/// a test module.
fn shipping_lines(path: &Path) -> Vec<(usize, String)> {
    if test_only_files().contains(path) {
        return Vec::new();
    }
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if line.starts_with("#[cfg(test)]") {
            match test_mod_decl(&lines, i) {
                Some((n, ..)) => {
                    i += n;
                    continue;
                }
                None => break,
            }
        }
        if !line.trim_start().starts_with("//") {
            out.push((i + 1, line.to_string()));
        }
        i += 1;
    }
    out
}

/// `file:line` of every shipping line under `dir` that `bad` matches.
fn shipping_hits(dir: &str, bad: impl Fn(&str) -> bool) -> Vec<String> {
    rust_files_under(dir)
        .iter()
        .flat_map(|path| {
            shipping_lines(path)
                .into_iter()
                .filter(|(_, line)| bad(line))
                .map(move |(n, _)| format!("{}:{n}", shown(path)))
        })
        .collect()
}

/// Does `line` read a field named exactly `reference`?
fn reads_reference_field(line: &str) -> bool {
    line.match_indices(".reference").any(|(at, m)| {
        line[at + m.len()..]
            .chars()
            .next()
            .is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'))
    })
}

/// One engine core. The simulator is components over one core state and
/// one engine path (DESIGN §11): no source file of it outgrows 800
/// lines, no shipping engine code reads a `.reference` field, and the
/// retired second path (its flag, its setters, its queue variant, the
/// oracle that diffed the two) stays gone everywhere. Each optimization
/// is held to a test-only referent instead. Shipping simulator code
/// holds no `unreachable!`: a lookup that cannot fail is written as one
/// borrow, not re-checked.
#[test]
fn one_engine_core() {
    let long: Vec<String> = rust_files_under("crates/sim/src")
        .iter()
        .filter_map(|path| {
            let n = fs::read_to_string(path).expect("readable").lines().count();
            (n > 800).then(|| format!("{} ({n} lines)", shown(path)))
        })
        .collect();
    assert!(long.is_empty(), "over 800 lines: {long:?}");

    let found = shipping_hits("crates/sim/src/engine", reads_reference_field);
    assert!(found.is_empty(), "reference flag read in: {found:?}");

    let found = shipping_hits("crates/sim/src", |line| line.contains("unreachable!"));
    assert!(found.is_empty(), "unreachable! in shipping simulator code: {found:?}");

    // The retired path's names, anywhere in the sources but this file,
    // which has to spell them.
    let retired = [
        "use_reference_engine",
        "with_reference_engine",
        "new_reference",
        "check_engine_equivalence",
        "QueueImpl",
        "Topo::reference",
    ];
    let this = root().join(file!());
    let back: Vec<String> = ["crates", "tests", "examples", "src"]
        .iter()
        .flat_map(|dir| files_under(dir))
        .filter(|path| *path != this)
        .flat_map(|path| {
            let text = String::from_utf8_lossy(&fs::read(&path).expect("readable")).into_owned();
            retired
                .iter()
                .filter(|name| text.contains(*name))
                .map(|name| format!("{}: {name}", shown(&path)))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(back.is_empty(), "second engine path is back: {back:?}");
}

#[test]
fn the_reference_rule_matches_a_field_read_only() {
    assert!(reads_reference_field("if self.reference {"));
    assert!(reads_reference_field("let r = cfg.reference"));
    assert!(!reads_reference_field("let r = cfg.reference_count;"));
    assert!(!reads_reference_field("see the reference engine"));
}

/// `path` relative to the root with `/` separators, for comparing
/// against fixed paths.
fn rel(path: &Path) -> String {
    shown(path).replace('\\', "/")
}

/// The text of every `.rs` file under the given directories that
/// `bad` flags, as relative paths.
fn files_flagged(dirs: &[&str], bad: impl Fn(&str) -> bool) -> Vec<String> {
    dirs.iter()
        .flat_map(|dir| rust_files_under(dir))
        .filter(|path| bad(&fs::read_to_string(path).expect("readable")))
        .map(|path| rel(&path))
        .collect()
}

/// Does `line` import `escape` through a `json::{…}` group?
fn imports_escape(line: &str) -> bool {
    line.match_indices("json::{").any(|(at, m)| {
        let group = &line[at + m.len()..];
        group[..group.find('}').unwrap_or(group.len())].contains("escape")
    })
}

/// One JSON writer. The JSON text format — quotes, separators, escapes,
/// number tokens — is spelled in `obs::json` and nowhere else (DESIGN
/// §6): nothing else under `crates/` calls or imports its `escape`, and
/// no other shipping source line carries a `\":` literal.
#[test]
fn one_json_writer() {
    let escapes = files_flagged(&["crates"], |text| {
        text.contains("escape(") || text.contains("json::escape") || imports_escape(text)
    });
    assert_eq!(escapes, ["crates/obs/src/json.rs"], "json escape referenced outside obs::json");

    let quoted_key: String = ['\\', '"', ':'].iter().collect();
    let by_hand: Vec<String> = rust_files_under("crates")
        .iter()
        .filter(|path| rel(path).contains("/src/") && rel(path) != "crates/obs/src/json.rs")
        .flat_map(|path| {
            shipping_lines(path)
                .into_iter()
                .filter(|(_, line)| line.contains(&quoted_key))
                .map(move |(n, _)| format!("{}:{n}", shown(path)))
        })
        .collect();
    assert!(by_hand.is_empty(), "JSON spelled by hand at: {by_hand:?}");
}

/// One JSON reader. A journal line is decoded off the scanner (DESIGN
/// §6, §7): outside its test module the checkpoint reader builds no tree
/// of a line (`json::parse(`) and copies no payload, and nothing but
/// `obs::json` looks for a quote byte in JSON text.
#[test]
fn one_json_reader() {
    let reader = root().join("crates/supervisor/src/checkpoint.rs");
    let copies = |line: &str| {
        line.find("payload").is_some_and(|at| line[at..].contains(".clone()"))
            || line.contains("other.clone()")
    };
    let trees: Vec<String> = shipping_lines(&reader)
        .into_iter()
        .filter(|(_, line)| line.contains("json::parse(") || copies(line))
        .map(|(n, _)| format!("{}:{n}", shown(&reader)))
        .collect();
    assert!(
        trees.is_empty(),
        "checkpoint reader parses to a tree or clones a payload at: {trees:?}"
    );

    let quote_byte: String = ['b', '\'', '"', '\''].iter().collect();
    let scanners = files_flagged(&["crates", "src", "tests", "examples"], |text| {
        text.contains(&quote_byte)
    });
    assert_eq!(scanners, ["crates/obs/src/json.rs"], "JSON strings scanned outside obs::json");
}

/// One JSON scanner. JSON text is scanned by `obs::json`'s one scanner
/// (DESIGN §6) and by nothing beside it, however fast a private reader
/// would be: outside `crates/obs/src/json.rs` no shipping line holds a
/// byte literal of a character JSON's grammar turns on — quote,
/// backslash, brace, bracket, colon, comma — or names a parser, scanner
/// or lexer type, and the crate that reads the journals,
/// `crates/supervisor`, holds no char literal of one either.
#[test]
fn one_json_scanner() {
    let grammar = ['"', '\\', '{', '}', '[', ']', ':', ','];
    // A literal of `c` as the source spells it, escaped or not.
    let spelled = |prefix: &'static str| {
        move |line: &str| {
            grammar.iter().any(|c| {
                [format!("{prefix}'{c}'"), format!("{prefix}'\\{c}'")].iter().any(|lit| line.contains(lit))
            })
        }
    };
    // A type whose name says what it is: `struct LineScanner`, `enum Lexer`.
    let scanner_type = |line: &str| {
        ["struct ", "enum "].iter().filter_map(|kw| line.split_once(kw)).any(|(_, rest)| {
            let name = rest.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or("");
            ["Parser", "Scanner", "Lexer"].iter().any(|t| name.contains(t))
        })
    };
    let outside = |hit: &String| !hit.starts_with("crates/obs/src/json.rs:");
    let mut forks: Vec<String> = ["crates", "src", "examples"]
        .iter()
        .flat_map(|dir| shipping_hits(dir, |line| spelled("b")(line) || scanner_type(line)))
        .filter(outside)
        .collect();
    forks.extend(shipping_hits("crates/supervisor/src", spelled("")));
    forks.sort();
    forks.dedup();
    assert!(forks.is_empty(), "JSON scanned outside obs::json at: {forks:?}");
}

/// Checks as claims. Every shape check of the paper-figure modules is a
/// comparison, stated once as a `claim::Claim` that derives its verdict,
/// detail line and margin (DESIGN §3.7): none of them builds a plain
/// `Check` by hand.
#[test]
fn checks_as_claims() {
    let modules = [
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig67", "table2", "taskbench_exp", "chunks",
        "ablation",
    ];
    let by_hand: Vec<String> = modules
        .iter()
        .map(|m| root().join(format!("crates/harness/src/{m}.rs")))
        .filter(|path| {
            let text = fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("{}: {e}", shown(path)));
            text.contains("Check::new(")
        })
        .map(|path| shown(&path))
        .collect();
    assert!(by_hand.is_empty(), "hand-written Check::new( in: {by_hand:?}");
}

/// The identifier a method is called on: the word that ends right
/// before byte `dot` of `line` (empty after `)` or `]`).
fn receiver(line: &str, dot: usize) -> &str {
    let head = &line[..dot];
    let start = head
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |i| i + 1);
    &head[start..]
}

/// Does `line` call `.wrapping_add` or `.wrapping_mul` on a binding
/// whose name contains `seed`?
fn steps_a_seed_by_hand(line: &str) -> bool {
    [".wrapping_add(", ".wrapping_mul("].iter().any(|call| {
        line.match_indices(call)
            .any(|(at, _)| receiver(line, at).to_ascii_lowercase().contains("seed"))
    })
}

/// One seed tree. Every derived seed is a named function of its root in
/// `sim::rng` (DESIGN §5 "Seeds"): outside `rng.rs` shipping code
/// spells neither SplitMix64 finalizer multiplier nor the FNV-1a offset
/// basis, defines no mixer or seed-derivation function of its own, and
/// the harness and drivers never step a seed with bare wrapping
/// arithmetic — they call `rng::offset`, `child` or `retry`.
#[test]
fn one_seed_tree() {
    let rng = "crates/sim/src/rng.rs";
    let shipped = |bad: &dyn Fn(&str) -> bool| -> Vec<String> {
        ["crates", "src", "examples"]
            .iter()
            .flat_map(|dir| shipping_hits(dir, bad))
            .filter(|hit| !hit.contains("/tests/") && !hit.starts_with(rng))
            .collect()
    };

    let constants = ["0xbf58476d1ce4e5b9", "0x94d049bb133111eb", "0xcbf29ce484222325"];
    let found = shipped(&|line| {
        let plain = line.to_ascii_lowercase().replace('_', "");
        constants.iter().any(|c| plain.contains(c))
    });
    assert!(found.is_empty(), "a SplitMix64 or FNV-1a constant outside {rng}: {found:?}");

    let fns = ["fn mix64(", "fn splitmix64(", "fn fnv1a(", "fn name_seed(", "fn attempt_seed("];
    let found = shipped(&|line| fns.iter().any(|f| line.contains(f)));
    assert!(found.is_empty(), "a seed mixer defined outside {rng}: {found:?}");

    let found: Vec<String> = ["crates/harness/src", "crates/epcc/src", "crates/qcheck/src"]
        .iter()
        .flat_map(|dir| shipping_hits(dir, steps_a_seed_by_hand))
        .collect();
    assert!(found.is_empty(), "a seed stepped by hand, not through sim::rng: {found:?}");
}

#[test]
fn the_seed_rule_matches_a_seed_receiver_only() {
    assert!(steps_a_seed_by_hand("rt.run_region(region, seed_base.wrapping_add(i as u64))"));
    assert!(steps_a_seed_by_hand("let s = unitSeed.wrapping_mul(3);"));
    assert!(!steps_a_seed_by_hand("probe = probe.wrapping_add(1);"));
    assert!(!steps_a_seed_by_hand("seed ^ (i as u64).wrapping_mul(7)"));
}

/// Every file under `dir` whose text contains `pat`, as relative paths.
fn mentioning(dir: &str, pat: &str) -> Vec<String> {
    files_under(dir)
        .into_iter()
        .filter(|path| String::from_utf8_lossy(&fs::read(path).expect("readable")).contains(pat))
        .map(|path| rel(&path))
        .collect()
}

/// One pool. Outside tests, threads are created by the campaign
/// executor, by the resume that feeds it (the checkpoint reader decodes
/// shard manifests on at most `--jobs` lanes) and by the native team,
/// nowhere else (DESIGN §9): in particular nothing under `crates/qcheck`
/// or `crates/harness` fans out on its own. The other `rt/src/native`
/// files spawn only in their test modules.
#[test]
fn one_pool() {
    let spawners = files_flagged(&["crates"], |text| {
        ["thread::scope", "thread::spawn", "Builder::new()"].iter().any(|p| text.contains(p))
    });
    let spawners: Vec<&str> =
        spawners.iter().map(String::as_str).filter(|p| !p.contains("/tests/")).collect();
    assert_eq!(
        spawners,
        [
            "crates/rt/src/native/barrier.rs",
            "crates/rt/src/native/guard.rs",
            "crates/rt/src/native/team.rs",
            "crates/rt/src/native/wait.rs",
            "crates/rt/src/native/workshare.rs",
            "crates/supervisor/src/checkpoint.rs",
            "crates/supervisor/src/executor.rs",
        ],
        "threads created outside the executor and the native team"
    );
}

/// Checks run shipped code. The `fuzz` report's side checks run what
/// ships: oracle #13 is the `chaos` crash explorer, oracle #10 the batch
/// reduction and fold of the fuzz cells (harness). qcheck drives no
/// campaign of its own and keeps no merge or whole-campaign driver;
/// core has one histogram, `obs::QuantileSketch`, and no other.
#[test]
fn checks_run_shipped_code() {
    let campaign_apis =
        ["create_shards", "resume_shards", "run_campaign", "install_chaos", "CrashPoint"];
    let drivers = ["fn check_crash_resume", "fn check_partition", "fn merge", "fn run_fuzz("];
    let mut copies: Vec<String> = campaign_apis
        .iter()
        .chain(&drivers)
        .flat_map(|pat| {
            mentioning("crates/qcheck/src", pat).into_iter().map(move |f| format!("{f}: {pat}"))
        })
        .collect();
    copies.extend(mentioning("crates/core/src", "struct Histogram"));
    assert!(copies.is_empty(), "a side check runs a private copy: {copies:?}");
}

/// One lowering pass. Each backend lowers an SPMD region in one walk
/// (DESIGN §3.3): `simrt` into two programs and a role table, `native`
/// into a tree of nodes that own their sync objects. What they replaced
/// must not grow back: allocate / emit-per-rank / harvest-by-index in
/// `simrt`; in `native` an object table found by counting, and per-rank
/// sense flags and loop cursors kept per object. Neither may regain the
/// `unreachable!` arms that re-checked the coupling between two walks:
/// one is left in `simrt` (role and object kind disagree), none in
/// `native` above its tests.
#[test]
fn one_lowering_pass() {
    let read = |path: &str| fs::read_to_string(root().join(path)).expect("readable");
    let (simrt_path, native_path) = ("crates/rt/src/simrt.rs", "crates/rt/src/native/mod.rs");
    let (simrt, native) = (read(simrt_path), read(native_path));
    let mut back: Vec<String> = Vec::new();
    for pat in ["enum Alloc", "fn allocate", "fn emit"] {
        if simrt.contains(pat) {
            back.push(format!("{simrt_path} contains '{pat}'"));
        }
    }
    for pat in ["enum NObj", "fn allocate"] {
        if native.contains(pat) {
            back.push(format!("{native_path} contains '{pat}'"));
        }
    }
    let n = simrt.lines().filter(|l| l.contains("unreachable!")).count();
    if n > 1 {
        back.push(format!("{simrt_path} has {n} unreachable! (at most 1)"));
    }
    let n = native
        .lines()
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| l.contains("unreachable!"))
        .count();
    if n > 0 {
        back.push(format!("{native_path} has {n} unreachable! above its tests (none allowed)"));
    }
    let kept: Vec<&str> = native
        .lines()
        .skip_while(|l| !l.starts_with("struct ThreadCtx"))
        .take_while(|l| !l.starts_with('}'))
        .filter(|l| ["sense:", "cursor:"].iter().any(|f| l.trim_start().starts_with(f)))
        .collect();
    if !kept.is_empty() {
        back.push(format!("{native_path}: ThreadCtx keeps per-object state: {kept:?}"));
    }
    assert!(back.is_empty(), "two-walk lowering is back: {back:?}");
}

/// One state walk. The periodic absorber decides what a jump compares and
/// what it advances in one function, `Simulator::walk` in `walk.rs`,
/// whose patterns name every field of the state (DESIGN §11): the two
/// hand-kept lists it replaced stay gone, and no shipping line of
/// `walk.rs` skips fields with a `..` rest pattern, so a new field does
/// not compile until it is classed.
#[test]
fn one_state_walk() {
    let engine = root().join("crates/sim/src/engine");
    let walk = engine.join("walk.rs");
    for file in [&walk, &engine.join("periodic.rs")] {
        let text = fs::read_to_string(file).expect("readable");
        for gone in ["fn encode_rest", "fn for_each_accumulator"] {
            assert!(!text.contains(gone), "{}: {gone} is back", shown(file));
        }
    }
    let text = fs::read_to_string(&walk).expect("readable");
    assert!(text.contains("fn walk("), "{}: no state walk", shown(&walk));
    let rest: Vec<usize> = shipping_lines(&walk)
        .into_iter()
        .filter(|(_, line)| line.contains(".. }") || line.trim() == "..")
        .map(|(n, _)| n)
        .collect();
    assert!(rest.is_empty(), "rest patterns in {} at lines {rest:?}", shown(&walk));
}

/// One unit queue. The campaign executor's lanes pop one shared queue of
/// pending units (DESIGN §9): no per-worker deques dealt round-robin and
/// no stealing from their backs grow back in the supervisor crate, and
/// adaptive re-measurement stays a loop beside its one caller, with no
/// `stabilize` policy function anywhere.
#[test]
fn one_unit_queue() {
    let mut back = shipping_hits("crates/supervisor/src", |line| {
        line.contains("Vec<Mutex<VecDeque") || line.contains("pop_back(")
    });
    back.extend(shipping_hits("crates", |line| line.contains("fn stabilize")));
    assert!(back.is_empty(), "deal-and-steal or a stabilize policy is back: {back:?}");
}

/// One deadline. A timed attempt hands its result to its lane over a
/// zero-capacity channel, and the lane's `recv_timeout` is the deadline
/// (DESIGN §9): no watchdog thread, deadline list or condition-variable
/// result slot grows back in the supervisor crate beside it.
#[test]
fn one_deadline() {
    let back = shipping_hits("crates/supervisor/src", |line| {
        ["Condvar", "wait_timeout", "struct Watchdog", "\"ompvar-watchdog\""]
            .iter()
            .any(|pat| line.contains(pat))
    });
    assert!(back.is_empty(), "a second deadline mechanism is back: {back:?}");
}

/// One rejection vocabulary: `validate()` rejects a program with the
/// analyzer's own `Diagnostic`, so no second error type mirrors the
/// `Error`-severity codes, no classifier matches on one, no diagnostic
/// carries one, and no pre-flight list of specs re-checks the corpus.
#[test]
fn one_rejection_vocabulary() {
    let twins = shipping_hits("crates", |line| {
        ["RegionError", "fn classify_region", "Diagnostic::because", "specs_for"]
            .iter()
            .any(|pat| line.contains(pat))
    });
    assert!(twins.is_empty(), "a second rejection vocabulary is back: {twins:?}");
}

#[test]
fn test_modules_are_not_shipping_code() {
    let tests = root().join("crates/sim/src/engine/periodic_tests.rs");
    assert!(test_only_files().contains(&tests), "{:?}", test_only_files());
    assert!(shipping_lines(&tests).is_empty());
    let referent = root().join("crates/sim/src/engine/referent.rs");
    assert!(test_only_files().contains(&referent), "{:?}", test_only_files());
    assert!(!shipping_lines(&root().join("crates/sim/src/engine/periodic.rs")).is_empty());
}

/// Shipping lines per crate, the count the ROADMAP quotes: the
/// `shipping_lines` rule with blank lines also dropped, over
/// `crates/*/src`. Prints; asserts nothing. Run with `cargo test --test
/// fences shipping_line_count -- --ignored --nocapture`.
#[test]
#[ignore]
fn shipping_line_count() {
    let mut by_crate: BTreeMap<String, usize> = BTreeMap::new();
    for path in rust_files_under("crates") {
        let shown = rel(&path);
        let Some((krate, _)) = shown.strip_prefix("crates/").and_then(|p| p.split_once("/src/")) else {
            continue;
        };
        let n = shipping_lines(&path).iter().filter(|(_, l)| !l.trim().is_empty()).count();
        *by_crate.entry(krate.to_string()).or_default() += n;
        if shown.ends_with("engine/periodic.rs") || shown.ends_with("engine/walk.rs") {
            println!("{shown}: {n}");
        }
    }
    for (krate, n) in &by_crate {
        println!("{krate}: {n}");
    }
    println!("total: {}", by_crate.values().sum::<usize>());
}
