//! Cross-run determinism record. Every run stores the deterministic
//! values it computed (quality ratios, rates, per-layer counts, a hash
//! of every output netlist) next to the benchmark executable, keyed by
//! workload and seed. A later run of the same executable at the same
//! seed must compute the same values, traced or not.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Where the records of this executable live, and its content hash.
pub struct RecordStore {
    dir: PathBuf,
    exe: String,
}

impl RecordStore {
    /// The store beside the running executable.
    pub fn beside_exe() -> Option<RecordStore> {
        let exe = std::env::current_exe().ok()?;
        let bytes = std::fs::read(&exe).ok()?;
        Some(RecordStore {
            dir: exe.parent()?.join("symbench-records"),
            exe: format!("{:016x}", crate::fnv(&bytes)),
        })
    }

    /// Compares `values` with the stored record of `key` (when it was
    /// written by this same executable), then stores their union.
    /// Returns the names whose values differ.
    pub fn check_and_store(&self, key: &str, values: &BTreeMap<String, String>) -> Vec<String> {
        let path = self.dir.join(format!("{key}.txt"));
        let mut stored = read(&path, &self.exe);
        let differing: Vec<String> = values
            .iter()
            .filter(|(k, v)| stored.get(*k).is_some_and(|old| old != *v))
            .map(|(k, v)| format!("{k}: {} before, {v} now", stored[k]))
            .collect();
        if differing.is_empty() {
            stored.extend(values.iter().map(|(k, v)| (k.clone(), v.clone())));
            let mut text = format!("exe\t{}\n", self.exe);
            for (k, v) in &stored {
                text.push_str(&format!("{k}\t{v}\n"));
            }
            // Write then rename, so a reader never sees half a record.
            let tmp = path.with_extension("tmp");
            let written = std::fs::create_dir_all(&self.dir)
                .and_then(|()| std::fs::write(&tmp, text))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(e) = written {
                eprintln!(
                    "warning: cannot store determinism record {}: {e}",
                    path.display()
                );
            }
        }
        differing
    }
}

/// The values stored at `path` by executable `exe` (empty otherwise).
fn read(path: &Path, exe: &str) -> BTreeMap<String, String> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let mut lines = text.lines().filter_map(|l| l.split_once('\t'));
    match lines.next() {
        Some(("exe", hash)) if hash == exe => {
            lines.map(|(k, v)| (k.to_string(), v.to_string())).collect()
        }
        _ => BTreeMap::new(),
    }
}
