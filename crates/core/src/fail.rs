//! Deterministic fault injection for crash-safety tests.
//!
//! **Failpoints** are named sites compiled into the engine/WAL hot paths,
//! active only when the crate is built with `RUSTFLAGS='--cfg failpoints'`
//! (the CI crash job does this; ordinary builds compile the sites to
//! nothing). A test arms a site with `arm`: *skip* the first `skip` hits,
//! then fire `times` times, then fall dormant — fully deterministic, no
//! randomness. What "fire" means is site-specific: the builder panics
//! mid-build, the WAL writer returns a short write or an I/O error, the
//! publish path panics before staging.
//!
//! No external crates: the registry is a `parking_lot`-locked vector keyed
//! by `&'static str` site names.

/// What an armed failpoint does when it fires. Interpretation is
/// site-specific; sites ignore actions that make no sense for them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic at the site (builder / publish sites).
    Panic,
    /// Return an injected `std::io` error (WAL writer site).
    IoError,
    /// Write only a prefix of the record, then return an error — simulates a
    /// torn write (WAL writer site).
    ShortWrite,
}

#[cfg(failpoints)]
mod registry {
    use super::FailAction;
    use parking_lot::Mutex;
    use std::sync::OnceLock;

    struct Site {
        name: &'static str,
        action: FailAction,
        skip: usize,
        times: usize,
    }

    fn sites() -> &'static Mutex<Vec<Site>> {
        static SITES: OnceLock<Mutex<Vec<Site>>> = OnceLock::new();
        SITES.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Arms `name`: ignore the first `skip` hits, then fire `times` times.
    /// Re-arming an armed site replaces its configuration.
    pub fn arm(name: &'static str, action: FailAction, skip: usize, times: usize) {
        let mut sites = sites().lock();
        sites.retain(|s| s.name != name);
        sites.push(Site { name, action, skip, times });
    }

    /// Disarms `name` (no-op when not armed).
    pub fn disarm(name: &'static str) {
        sites().lock().retain(|s| s.name != name);
    }

    /// Disarms every site.
    pub fn disarm_all() {
        sites().lock().clear();
    }

    /// Called by the compiled-in sites: counts a hit against `name` and
    /// returns the action to take, if any.
    pub fn trigger(name: &str) -> Option<FailAction> {
        let mut sites = sites().lock();
        let site = sites.iter_mut().find(|s| s.name == name)?;
        if site.skip > 0 {
            site.skip -= 1;
            return None;
        }
        if site.times == 0 {
            return None;
        }
        site.times -= 1;
        Some(site.action)
    }
}

#[cfg(failpoints)]
pub use registry::{arm, disarm, disarm_all, trigger};

/// Hit a failpoint site. In builds without `--cfg failpoints` this is a
/// no-op that the optimiser removes.
#[cfg(not(failpoints))]
#[inline(always)]
pub fn trigger(_name: &str) -> Option<FailAction> {
    None
}

/// The message of every error an armed site injects, recognisable in
/// assertions.
pub const INJECTED_MSG: &str = "injected fault";

#[cfg(test)]
mod tests {
    #[cfg(failpoints)]
    #[test]
    fn registry_skip_and_times_are_deterministic() {
        use super::*;
        arm("test::site", FailAction::Panic, 2, 2);
        assert_eq!(trigger("test::site"), None);
        assert_eq!(trigger("test::site"), None);
        assert_eq!(trigger("test::site"), Some(FailAction::Panic));
        assert_eq!(trigger("test::site"), Some(FailAction::Panic));
        assert_eq!(trigger("test::site"), None, "exhausted sites fall dormant");
        assert_eq!(trigger("test::other"), None, "unarmed sites never fire");
        arm("test::site", FailAction::IoError, 0, 1);
        assert_eq!(trigger("test::site"), Some(FailAction::IoError), "re-arm replaces");
        disarm("test::site");
        assert_eq!(trigger("test::site"), None);
        disarm_all();
    }
}
