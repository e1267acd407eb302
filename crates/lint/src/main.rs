//! CLI driver: `mms-lint check [--rule <name>] [--json] [--root <dir>]
//! [--baseline <file>] [--write-baseline <file>]`, `mms-lint graph
//! [--dot] [--roots] [--why <from> <to>]`, and `mms-lint rules`.

use mms_lint::graph::{render_chain, resolve_spec, CallGraph};
use mms_lint::{check_workspace, find_root, load_workspace, report, taint, RuleSet};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
mms-lint — static enforcement of the workspace's invariants

USAGE:
    mms-lint check [--rule <name>]... [--json] [--root <dir>]
                   [--baseline <file>] [--write-baseline <file>]
    mms-lint graph [--dot] [--roots] [--why <from> <to>] [--root <dir>]
    mms-lint rules

OPTIONS:
    --rule <name>      Run only the named rule (repeatable). Known rules:
                       determinism, hot-path-alloc, unsafe-pragma,
                       panic-policy, paper-refs, transitive-alloc,
                       determinism-taint, panic-reachability, dead-pub
    --json             Emit findings and coverage as JSON
    --root <dir>       Workspace root (default: nearest [workspace] above
                       the linter's own manifest, or the current directory)
    --baseline <file>  Suppress findings recorded in <file>; fail only on
                       new ones (line numbers ignored, so edits above a
                       baselined finding don't churn it)
    --write-baseline <file>
                       Write the current findings to <file> and exit 0

GRAPH:
    --dot              Export the workspace call graph as Graphviz DOT
    --roots            Hot-root coverage report: per registry entry, its
                       in/out degree and reachable-function count
    --why <from> <to>  Shortest call path from <from> to <to>; specs are
                       `name` or `Type::name`

EXIT STATUS:
    0  clean tree (or no new findings vs. the baseline)
    1  findings
    2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "rules" => {
            for r in mms_lint::rules::RULE_NAMES {
                println!("{r}");
            }
            ExitCode::SUCCESS
        }
        "check" => run_check(&args[1..]),
        "graph" => run_graph(&args[1..]),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_check(args: &[String]) -> ExitCode {
    let mut rules: Vec<String> = Vec::new();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rule" => match it.next() {
                Some(r) => rules.push(r.clone()),
                None => return usage_err("--rule needs a value"),
            },
            "--json" => json = true,
            "--root" => match it.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return usage_err("--root needs a value"),
            },
            "--baseline" => match it.next() {
                Some(r) => baseline = Some(PathBuf::from(r)),
                None => return usage_err("--baseline needs a value"),
            },
            "--write-baseline" => match it.next() {
                Some(r) => write_baseline = Some(PathBuf::from(r)),
                None => return usage_err("--write-baseline needs a value"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let set = if rules.is_empty() {
        RuleSet::all()
    } else {
        match RuleSet::only(&rules) {
            Ok(s) => s,
            Err(e) => return usage_err(&e),
        }
    };
    let root = root.or_else(default_root);
    let Some(root) = root else {
        return usage_err("could not locate the workspace root; pass --root");
    };
    match check_workspace(&root, &set) {
        Ok(mut rep) => {
            if let Some(path) = write_baseline {
                let text = report::render_baseline(&rep.findings);
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("mms-lint: write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                println!(
                    "mms-lint: wrote baseline with {} finding(s) to {}",
                    rep.findings.len(),
                    path.display()
                );
                return ExitCode::SUCCESS;
            }
            if let Some(path) = baseline {
                let text = match std::fs::read_to_string(&path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("mms-lint: read {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                };
                let known = report::parse_baseline(&text);
                let before = rep.findings.len();
                rep.findings
                    .retain(|f| !known.contains(&report::baseline_key(f)));
                if !json {
                    println!(
                        "mms-lint: baseline suppressed {} of {before} finding(s)",
                        before - rep.findings.len()
                    );
                }
            }
            if json {
                print!("{}", rep.render_json());
            } else {
                print!("{}", rep.render_text(true));
            }
            if rep.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mms-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_graph(args: &[String]) -> ExitCode {
    let mut dot = false;
    let mut roots_report = false;
    let mut why: Option<(String, String)> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dot" => dot = true,
            "--roots" => roots_report = true,
            "--why" => match (it.next(), it.next()) {
                (Some(f), Some(t)) => why = Some((f.clone(), t.clone())),
                _ => return usage_err("--why needs <from> and <to>"),
            },
            "--root" => match it.next() {
                Some(r) => root = Some(PathBuf::from(r)),
                None => return usage_err("--root needs a value"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    if !dot && !roots_report && why.is_none() {
        return usage_err("graph needs one of --dot, --roots, --why");
    }
    let root = root.or_else(default_root);
    let Some(root) = root else {
        return usage_err("could not locate the workspace root; pass --root");
    };
    let ws = match load_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("mms-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let g = CallGraph::build(&ws);
    if dot {
        print!("{}", g.render_dot(&ws));
    }
    if let Some((from, to)) = why {
        let sources = resolve_spec(&ws, &from);
        let targets = resolve_spec(&ws, &to);
        if sources.is_empty() {
            eprintln!("mms-lint: no function matches `{from}`");
            return ExitCode::from(2);
        }
        if targets.is_empty() {
            eprintln!("mms-lint: no function matches `{to}`");
            return ExitCode::from(2);
        }
        let pred = g.reach(&sources, &|_| false);
        let hit = targets.iter().find(|&&t| pred[t].is_some());
        match hit {
            Some(&t) => {
                let chain = g.chain_to(&pred, t);
                let start = chain.first().map_or(t, |e| e.from);
                println!("{}", render_chain(&ws, start, &chain));
                println!("({} call(s) deep)", chain.len());
            }
            None => {
                println!("no call path from `{from}` to `{to}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if roots_report {
        let roots = taint::resolve_roots(&ws);
        let root_fns: Vec<usize> = roots.iter().map(|&(_, fi)| fi).collect();
        println!(
            "hot-root coverage: {}/{} registry entries resolved",
            roots.len(),
            mms_lint::rules::HOT_FNS.len()
        );
        let mut covered = vec![false; ws.fns.len()];
        for &(ri, fi) in &roots {
            let reg = &mms_lint::rules::HOT_FNS[ri];
            let pred = g.reach(&[fi], &|_| false);
            let reach = pred.iter().filter(|p| p.is_some()).count() - 1;
            for (i, p) in pred.iter().enumerate() {
                if p.is_some() {
                    covered[i] = true;
                }
            }
            println!(
                "  {:<40} in={:<3} out={:<3} reaches={:<4} {}",
                ws.fns[fi].qualified(),
                g.in_degree[fi],
                g.out[fi].len(),
                reach,
                reg.why
            );
        }
        let total: usize = ws.fns.iter().filter(|f| !f.is_test).count();
        let cov = covered
            .iter()
            .zip(&ws.fns)
            .filter(|(c, f)| **c && !f.is_test)
            .count();
        println!(
            "covered: {cov}/{total} production functions reachable from the {} root(s)",
            root_fns.len()
        );
    }
    ExitCode::SUCCESS
}

/// Root discovery: prefer the workspace above this crate's manifest
/// (correct under `cargo run -p mms-lint` from anywhere inside the
/// repo), falling back to the current directory's enclosing workspace.
fn default_root() -> Option<PathBuf> {
    let compiled = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_root(&compiled).or_else(|| std::env::current_dir().ok().and_then(|d| find_root(&d)))
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("mms-lint: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
