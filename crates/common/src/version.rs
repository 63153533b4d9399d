//! Epoch-style snapshot publication: the primitive under the engine's
//! table versioning, where each version shares every unchanged table and
//! storage chunk with the one before it (see `docs/SERVING.md`).
//!
//! A [`Versioned<T>`] cell holds one immutable, `Arc`-shared value — the
//! *current version*. Readers [`Versioned::load`] the current `Arc` (a
//! pointer clone under a momentary read lock) and then work against that
//! pinned value for as long as they like, entirely lock-free; writers build
//! a replacement value off to the side and [`Versioned::publish`] it with a
//! momentary write lock. Old versions stay alive exactly as long as some
//! reader still holds their `Arc` — publication never blocks, invalidates
//! or tears an in-flight reader.
//!
//! The build environment is std-only (no `arc-swap`), so the swap point is
//! a [`RwLock<Arc<T>>`]: the lock is held only for the duration of an `Arc`
//! clone or pointer store, never across reader work.

use std::sync::{Arc, RwLock};

/// An atomically publishable, `Arc`-shared current version of `T`.
///
/// `load` pins the current version; `publish` replaces it. See the module
/// docs for the locking discipline. Writers that derive the next version
/// from the current one (read–modify–publish) must serialize among
/// themselves externally — e.g. the database's single writer mutex —
/// otherwise two writers could both base their copy on the same parent and
/// one update would be lost.
#[derive(Debug)]
pub struct Versioned<T> {
    current: RwLock<Arc<T>>,
}

impl<T> Versioned<T> {
    /// A cell whose current version is `value`.
    pub fn new(value: T) -> Versioned<T> {
        Versioned {
            current: RwLock::new(Arc::new(value)),
        }
    }

    /// Pins the current version: clones the `Arc` under a momentary read
    /// lock. The returned handle stays valid (and immutable) no matter how
    /// many newer versions are published afterwards.
    pub fn load(&self) -> Arc<T> {
        self.current.read().expect("version cell poisoned").clone()
    }

    /// Publishes `next` as the new current version. In-flight readers keep
    /// the version they pinned; only subsequent [`Versioned::load`] calls
    /// observe `next`.
    pub fn publish(&self, next: Arc<T>) {
        *self.current.write().expect("version cell poisoned") = next;
    }
}

impl<T: Default> Default for Versioned<T> {
    fn default() -> Versioned<T> {
        Versioned::new(T::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_keep_their_pinned_version_across_publishes() {
        let cell = Versioned::new(vec![1, 2, 3]);
        let pinned = cell.load();
        cell.publish(Arc::new(vec![4]));
        assert_eq!(*pinned, vec![1, 2, 3], "pinned snapshot must not move");
        assert_eq!(*cell.load(), vec![4], "new loads see the new version");
    }

    #[test]
    fn publication_is_visible_across_threads() {
        let cell = Arc::new(Versioned::new(0u64));
        let writer = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                for v in 1..=100u64 {
                    cell.publish(Arc::new(v));
                }
            })
        };
        // Loads observe a monotone prefix of the writer's publications —
        // never a torn or out-of-thin-air value.
        let mut last = 0;
        for _ in 0..1000 {
            let v = *cell.load();
            assert!(v >= last && v <= 100, "non-monotone read: {last} -> {v}");
            last = v;
        }
        writer.join().unwrap();
        assert_eq!(*cell.load(), 100);
    }
}
