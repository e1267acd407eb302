//! Workspace-wide symbol table: every function item of every
//! first-party file, qualified by crate, module, and enclosing `impl`
//! type, plus the crate dependency closure used to filter call-graph
//! candidates to edges the compiler could actually produce.
//!
//! The table is the substrate the call-graph rules build on: the
//! per-file [`FileModel`]s stay alive here so cross-file analyses
//! (call chains, `lint:allow` frames on interior calls) can resolve
//! any `(file, line)` back to its annotations.

use crate::model::FileModel;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One function item in the workspace.
#[derive(Debug)]
pub struct FnSym {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, when the function is a method.
    pub impl_type: Option<String>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the function lives in test-only code.
    pub is_test: bool,
    /// Whether the function is `pub` (any visibility restriction).
    pub is_pub: bool,
    /// Token range of the body in the owning file, or `None` for
    /// bodyless declarations (trait methods).
    pub body: Option<(usize, usize)>,
    /// Crate directory name (`crates/<name>/…`), or `""` for the root
    /// package (`src/`, `tests/`, `examples/`).
    pub krate: String,
    /// Display module path derived from the file path
    /// (`crates/sim/src/workload.rs` → `sim::workload`).
    pub module: String,
}

impl FnSym {
    /// `Type::name` or bare `name` for display.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace symbol table.
pub struct Workspace {
    /// Workspace-relative paths, parallel to `files`.
    pub paths: Vec<String>,
    /// All scanned file models (kept for allow-frame resolution).
    pub files: Vec<FileModel>,
    /// All function items, in (file, declaration) order.
    pub fns: Vec<FnSym>,
    /// Crate directory name → transitive dependency closure (crate
    /// directory names, self included). Crates without a parsed
    /// manifest get the permissive full closure.
    pub deps: BTreeMap<String, BTreeSet<String>>,
    /// Files read only for the functions they name
    /// ([`crate::READER_ROOTS`]); they hold no symbols.
    pub readers: Vec<FileModel>,
}

/// The crate directory name of a workspace path (`""` for the root
/// package's own `src`/`tests`/`examples` trees).
#[must_use]
pub fn crate_dir(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("")
        .to_string()
}

/// Display module path of a file: crate dir plus the source path with
/// `src/`, separators, and the `.rs` suffix folded away.
fn module_of(path: &str) -> String {
    let krate = crate_dir(path);
    let tail = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".rs");
    let tail = match tail {
        "lib" | "main" | "mod" => String::new(),
        other => format!("::{other}"),
    };
    if krate.is_empty() {
        format!("root{tail}")
    } else {
        format!("{krate}{tail}")
    }
}

impl Workspace {
    /// Build the symbol table from scanned file models. Every crate may
    /// call every other until [`dep_closure`] fills in
    /// [`deps`](Self::deps).
    #[must_use]
    pub fn build(files: Vec<FileModel>) -> Workspace {
        let paths = files.iter().map(|m| m.path.clone()).collect();
        let mut fns = Vec::new();
        for (fi, model) in files.iter().enumerate() {
            let krate = crate_dir(&model.path);
            let module = module_of(&model.path);
            for f in &model.fns {
                if f.name.is_empty() {
                    continue;
                }
                fns.push(FnSym {
                    file: fi,
                    name: f.name.clone(),
                    impl_type: f.impl_type.clone(),
                    line: f.line,
                    is_test: f.is_test,
                    is_pub: f.is_pub,
                    body: f.body,
                    krate: krate.clone(),
                    module: module.clone(),
                });
            }
        }
        Workspace {
            paths,
            files,
            fns,
            deps: BTreeMap::new(),
            readers: Vec::new(),
        }
    }

    /// Whether crate `from` may call into crate `to` (same crate, a
    /// transitive dependency, or an unknown crate treated permissively).
    #[must_use]
    pub fn may_depend(&self, from: &str, to: &str) -> bool {
        if from == to || from.is_empty() {
            // The root package depends on the whole workspace.
            return true;
        }
        match self.deps.get(from) {
            Some(closure) => closure.contains(to),
            None => true,
        }
    }

    /// Indices of the functions matching `name`, optionally restricted
    /// to an impl type (`Some(ty)`), free functions (`None` with
    /// `free_only`), or any.
    pub fn named(&self, name: &str) -> impl Iterator<Item = usize> + '_ {
        let name = name.to_string();
        (0..self.fns.len()).filter(move |&i| self.fns[i].name == name)
    }
}

/// Compute the transitive dependency closure of each crate the `paths`
/// lie in by reading the manifests under `root`. Mapping is by crate
/// *directory* name; package names (`mms-sim`) are resolved from each
/// manifest's `name =` line.
#[must_use]
pub fn dep_closure(root: &Path, paths: &[String]) -> BTreeMap<String, BTreeSet<String>> {
    let crates: BTreeSet<String> = paths.iter().map(|p| crate_dir(p)).collect();
    // dir -> (package name, manifest text)
    let mut manifests: BTreeMap<String, (String, String)> = BTreeMap::new();
    for dir in &crates {
        if dir.is_empty() {
            continue;
        }
        let path = root.join("crates").join(dir).join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let pkg = text
            .lines()
            .find_map(|l| {
                let l = l.trim();
                let rest = l.strip_prefix("name")?.trim_start();
                let rest = rest.strip_prefix('=')?.trim_start();
                let rest = rest.strip_prefix('"')?;
                rest.split('"').next()
            })
            .unwrap_or(dir)
            .to_string();
        manifests.insert(dir.clone(), (pkg, text));
    }
    // Direct edges: dir -> set of dirs whose package name appears in
    // the manifest (dependency tables only mention package names; a
    // textual match is conservative in the right direction).
    let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (dir, (_, text)) in &manifests {
        let mut set = BTreeSet::new();
        for (other, (pkg, _)) in &manifests {
            if other != dir && text.contains(pkg.as_str()) {
                set.insert(other.clone());
            }
        }
        direct.insert(dir.clone(), set);
    }
    // Transitive closure via worklist.
    let mut closure: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for dir in manifests.keys() {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            if !seen.insert(d.clone()) {
                continue;
            }
            if let Some(next) = direct.get(&d) {
                for n in next {
                    if !seen.contains(n) {
                        stack.push(n.clone());
                    }
                }
            }
        }
        closure.insert(dir.clone(), seen);
    }
    closure
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_dir_and_module_display() {
        assert_eq!(crate_dir("crates/sim/src/workload.rs"), "sim");
        assert_eq!(crate_dir("src/lib.rs"), "");
        assert_eq!(module_of("crates/sim/src/workload.rs"), "sim::workload");
        assert_eq!(module_of("crates/sim/src/lib.rs"), "sim");
        assert_eq!(module_of("src/lib.rs"), "root");
    }

    #[test]
    fn symbol_table_collects_fns_with_qualifiers() {
        let m = FileModel::build(
            "crates/sim/src/simulator.rs",
            "impl Simulator { pub fn step(&mut self) {} }\nfn helper() {}\n",
        );
        let ws = Workspace::build(vec![m]);
        assert_eq!(ws.fns.len(), 2);
        assert_eq!(ws.fns[0].qualified(), "Simulator::step");
        assert!(ws.fns[0].is_pub);
        assert_eq!(ws.fns[0].krate, "sim");
        assert!(!ws.fns[1].is_pub);
        // No closure computed: permissive dependency answers.
        assert!(ws.may_depend("sim", "sched"));
    }
}
