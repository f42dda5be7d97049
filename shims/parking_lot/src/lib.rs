//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync::Mutex` / `std::sync::RwLock` with `parking_lot`'s
//! non-poisoning API: `lock()` / `read()` / `write()` return guards
//! directly, and a panic while holding a lock does not poison it for
//! later users.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, TryLockError};

/// A mutual-exclusion primitive whose `lock` never returns a poison error.
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is acquired, ignoring poison from past panics.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: self.inner.lock().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Mutex { .. }")
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    inner: std::sync::MutexGuard<'a, T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// A reader-writer lock whose `read`/`write` never return poison errors.
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock protecting `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until a shared read guard is acquired, ignoring poison.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// Blocks until the exclusive write guard is acquired, ignoring poison.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(PoisonError::into_inner),
        }
    }

    /// A shared read guard if one is available without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        let inner = match self.inner.try_read() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(RwLockReadGuard { inner })
    }

    /// The exclusive write guard if it is available without blocking.
    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        let inner = match self.inner.try_write() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(RwLockWriteGuard { inner })
    }

    /// Returns a mutable reference without locking (requires `&mut self`).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("RwLock { .. }")
    }
}

/// RAII shared guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII exclusive guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_round_trip() {
        let m = Mutex::new(3);
        *m.lock() += 4;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn unsized_coercion_to_trait_object() {
        trait Speak {
            fn n(&self) -> u32;
        }
        struct S;
        impl Speak for S {
            fn n(&self) -> u32 {
                42
            }
        }
        let m: Arc<Mutex<dyn Speak>> = Arc::new(Mutex::new(S));
        assert_eq!(m.lock().n(), 42);
    }

    #[test]
    fn panic_does_not_poison() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn rwlock_read_write_round_trip() {
        let l = RwLock::new(5);
        assert_eq!(*l.read(), 5);
        *l.write() += 2;
        assert_eq!(*l.read(), 7);
        let r1 = l.read();
        let r2 = l.read();
        assert_eq!(*r1 + *r2, 14, "shared readers coexist");
    }

    #[test]
    fn rwlock_panic_does_not_poison() {
        let l = Arc::new(RwLock::new(0));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("poison attempt");
        })
        .join();
        *l.write() += 1;
        assert_eq!(*l.read(), 1);
    }
}
