//! Drift test between `docs/ARCHITECTURE.md`'s crate map and the
//! workspace manifests.
//!
//! The crate map lists every crate below the crates it depends on. This
//! test reads each `crates/*/Cargo.toml` and fails when a crate is listed
//! above one of its `[dependencies]`, when a workspace crate is missing
//! from the map, or when the map names a crate the workspace does not
//! have.

use std::collections::BTreeMap;

/// Each workspace crate's name and its workspace `[dependencies]`.
fn manifests() -> BTreeMap<String, Vec<String>> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates");
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("crates/ is readable") {
        let path = entry.expect("crates/ entry").path().join("Cargo.toml");
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let mut section = "";
        let (mut name, mut deps) = (None, Vec::new());
        for line in text.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if section == "[package]" && line.starts_with("name") {
                name = line.split('"').nth(1).map(str::to_string);
            } else if section == "[dependencies]" && line.starts_with("flogic-") {
                let dep = line.split(['.', ' ', '=']).next().expect("a key");
                deps.push(dep.to_string());
            }
        }
        let name = name.unwrap_or_else(|| panic!("{} names its package", path.display()));
        out.insert(name, deps);
    }
    out
}

/// The crates of the map, top to bottom.
fn crate_map() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/ARCHITECTURE.md");
    let text = std::fs::read_to_string(path).expect("docs/ARCHITECTURE.md exists");
    let (_, map) = text
        .split_once("## Crate map")
        .expect("a crate map section");
    map.lines()
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|row| row.split('`').next())
        .map(str::to_string)
        .collect()
}

#[test]
fn crate_map_lists_every_crate_below_its_dependencies() {
    let manifests = manifests();
    let map = crate_map();
    for name in manifests.keys() {
        assert!(map.contains(name), "{name} is missing from the crate map");
    }
    for (row, name) in map.iter().enumerate() {
        let deps = manifests.get(name).unwrap_or_else(|| {
            panic!("the crate map names {name}, which is not a workspace crate")
        });
        for dep in deps {
            let dep_row = map.iter().position(|c| c == dep);
            assert!(
                dep_row.is_some_and(|r| r < row),
                "{name} depends on {dep}, so {dep} must be listed above it"
            );
        }
    }
}
