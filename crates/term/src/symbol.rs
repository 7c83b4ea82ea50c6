//! Interned string symbols.
//!
//! A [`Symbol`] is a reference to its interner entry, so reading its name
//! or ordering two symbols never touches the interner: only
//! [`Symbol::intern`] takes its lock. Names and entries are carved out of
//! leaked arena chunks, so a symbol costs its name's bytes, one
//! 16-byte entry and one 8-byte table slot, with no allocator header of
//! its own.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{LazyLock, RwLock};

/// An interned string.
///
/// Symbols are cheap to copy, compare and hash (a single pointer), and can
/// be resolved back to their string form with [`Symbol::as_str`] without
/// taking any lock. Interning is global and lock-protected; interned
/// strings live for the duration of the process (the usual compiler-style
/// trade-off).
///
/// Equality and hashing are by entry address: interning gives every name
/// exactly one entry. The [`Ord`] implementation compares the *string
/// forms* lexicographically, because the chase's EGD rule ρ4 must pick
/// "the lexicographically smaller" of two constants (Definition 2 of the
/// paper) and that choice must be stable across runs regardless of
/// interning order.
#[derive(Clone, Copy)]
pub struct Symbol(&'static Entry);

/// One interned name. Its address is the symbol's identity.
struct Entry {
    name: &'static str,
}

/// The interner's table key: an entry, hashed and compared by its name so
/// that the table can be probed with a `&str`.
#[derive(Clone, Copy)]
struct Key(&'static Entry);

impl std::borrow::Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.0.name
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.name.hash(state);
    }
}

/// Bytes of name storage leaked at a time (a longer name gets a chunk of
/// its own length).
const NAME_CHUNK: usize = 4096;
/// Entries leaked at a time.
const ENTRY_CHUNK: usize = 256;

struct Interner {
    set: HashSet<Key>,
    /// The unused tail of the current name chunk.
    names: &'static mut [u8],
    /// The unused tail of the current entry chunk.
    entries: &'static mut [Entry],
}

impl Interner {
    /// Copies `name` into the arena and returns its new entry.
    fn insert(&mut self, name: &str) -> &'static Entry {
        if self.names.len() < name.len() {
            self.names = Box::leak(vec![0; name.len().max(NAME_CHUNK)].into_boxed_slice());
        }
        let (bytes, rest) = std::mem::take(&mut self.names).split_at_mut(name.len());
        self.names = rest;
        bytes.copy_from_slice(name.as_bytes());
        let name: &'static [u8] = bytes;
        let name = std::str::from_utf8(name).expect("copied from a str");
        if self.entries.is_empty() {
            self.entries = Box::leak(
                std::iter::repeat_with(|| Entry { name: "" })
                    .take(ENTRY_CHUNK)
                    .collect(),
            );
        }
        let (entry, rest) = std::mem::take(&mut self.entries)
            .split_first_mut()
            .expect("refilled when empty");
        self.entries = rest;
        entry.name = name;
        let entry: &'static Entry = entry;
        self.set.insert(Key(entry));
        entry
    }
}

static INTERNER: LazyLock<RwLock<Interner>> = LazyLock::new(|| {
    RwLock::new(Interner {
        set: HashSet::new(),
        names: Default::default(),
        entries: Default::default(),
    })
});

impl Symbol {
    /// Interns `name`, returning its symbol. Idempotent.
    pub fn intern(name: &str) -> Symbol {
        let interner = INTERNER.read().expect("interner lock poisoned");
        if let Some(key) = interner.set.get(name) {
            return Symbol(key.0);
        }
        drop(interner);
        let mut interner = INTERNER.write().expect("interner lock poisoned");
        match interner.set.get(name) {
            Some(key) => Symbol(key.0),
            None => Symbol(interner.insert(name)),
        }
    }

    /// Returns the string this symbol was interned from.
    pub fn as_str(self) -> &'static str {
        self.0.name
    }
}

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Symbol {}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::ptr::hash(self.0, state);
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("john");
        let b = Symbol::intern("john");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "john");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("alpha"), Symbol::intern("beta"));
    }

    #[test]
    fn order_is_lexicographic_not_interning_order() {
        // Intern in reverse lexicographic order on purpose.
        let z = Symbol::intern("zzz_order_test");
        let a = Symbol::intern("aaa_order_test");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn display_round_trips() {
        let s = Symbol::intern("person");
        assert_eq!(s.to_string(), "person");
        assert_eq!(format!("{s:?}"), "Symbol(\"person\")");
    }

    #[test]
    fn from_str_interns() {
        let s: Symbol = "student".into();
        assert_eq!(s, Symbol::intern("student"));
    }

    #[test]
    fn names_survive_chunk_boundaries() {
        // Enough names, one longer than a whole chunk, to fill several
        // name and entry chunks: every one resolves to its own text.
        let long = "x".repeat(NAME_CHUNK + 1);
        let names: Vec<String> = (0..2 * ENTRY_CHUNK)
            .map(|i| format!("chunk_test_{i}"))
            .chain([long, String::new()])
            .collect();
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (name, sym) in names.iter().zip(&symbols) {
            assert_eq!(sym.as_str(), name);
            assert_eq!(Symbol::intern(name), *sym);
        }
    }

    #[test]
    fn a_symbol_is_one_pointer() {
        assert_eq!(size_of::<Symbol>(), size_of::<usize>());
        assert_eq!(size_of::<Option<Symbol>>(), size_of::<usize>());
    }
}
