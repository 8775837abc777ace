//! Pre-boot static analysis of a configuration.
//!
//! An [`Image`] analyzes its configuration once, when it is built, and
//! every [`SystemBuilder::build`](crate::SystemBuilder::build) from it
//! refuses to boot when the report has error-severity findings (opt out
//! with [`allow_analysis_errors`](crate::SystemBuilder::allow_analysis_errors)).
//! The `vampos-lint` binary reads the same input and report through the
//! entry points here.

use std::rc::Rc;

use vampos_analyze::{AnalysisInput, AnalysisReport};
use vampos_oslib::{Lwip, NetDev, NinePFs, Process, SysInfo, Timer, User, Vfs, Virtio};
use vampos_ukernel::{Component, OsError};

use crate::config::{ComponentSet, Mode};
use crate::image::Image;

/// Instantiates a built-in component by name, as an image's boot image.
///
/// # Errors
///
/// [`OsError::UnknownComponent`] for names outside the built-in set.
pub fn instantiate(name: &str) -> Result<Rc<dyn Component>, OsError> {
    Ok(match name {
        "process" => Rc::new(Process::new()),
        "sysinfo" => Rc::new(SysInfo::new()),
        "user" => Rc::new(User::new()),
        "timer" => Rc::new(Timer::new()),
        "netdev" => Rc::new(NetDev::new()),
        "virtio" => Rc::new(Virtio::new()),
        "9pfs" => Rc::new(NinePFs::new()),
        "lwip" => Rc::new(Lwip::new()),
        "vfs" => Rc::new(Vfs::new()),
        other => return Err(OsError::UnknownComponent(other.to_owned())),
    })
}

/// The analyzer input of a configuration's image: the set's descriptors
/// plus the mode's merge groups. Hardware protection keys are assumed (the
/// runtime registers against [`vampos_mpk::KeyRegistry::hardware`]).
///
/// # Errors
///
/// [`OsError::UnknownComponent`] when the set names an unknown component.
pub fn analysis_input(set: &ComponentSet, mode: &Mode) -> Result<AnalysisInput, OsError> {
    let image = Image::new(set.clone(), mode.clone())?;
    Ok(image.analysis_input().clone())
}

/// Analyzes a configuration as its image does.
///
/// # Errors
///
/// [`OsError::UnknownComponent`] when the set names an unknown component.
pub fn analyze_configuration(set: &ComponentSet, mode: &Mode) -> Result<AnalysisReport, OsError> {
    let image = Image::new(set.clone(), mode.clone())?;
    Ok(image.report().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_sets_have_no_error_findings() {
        for set in [
            ComponentSet::sqlite(),
            ComponentSet::nginx(),
            ComponentSet::redis(),
            ComponentSet::echo(),
        ] {
            for mode in [
                Mode::vampos_das(),
                Mode::vampos_noop(),
                Mode::vampos_fsm(),
                Mode::vampos_netm(),
            ] {
                let report = analyze_configuration(&set, &mode).unwrap();
                assert!(
                    report.is_clean(),
                    "{} / {}: {}",
                    set.name(),
                    mode.label(),
                    report.render()
                );
            }
        }
    }

    #[test]
    fn sqlite_set_warns_about_the_dangling_lwip_dependency() {
        // VFS declares a dependency on LWIP for its socket passthroughs, but
        // SQLite's image links no network stack.
        let report = analyze_configuration(&ComponentSet::sqlite(), &Mode::vampos_das()).unwrap();
        assert!(report.has(vampos_analyze::codes::W102_DANGLING_DEPENDENCY));
    }

    #[test]
    fn virtio_is_flagged_as_a_recovery_path_hazard() {
        let report = analyze_configuration(&ComponentSet::nginx(), &Mode::vampos_das()).unwrap();
        let w103: Vec<_> = report
            .with_code(vampos_analyze::codes::W103_UNREBOOTABLE_ON_RECOVERY_PATH)
            .collect();
        assert_eq!(w103.len(), 1);
        assert_eq!(w103[0].component.as_deref(), Some("virtio"));
    }

    #[test]
    fn unknown_component_is_rejected() {
        assert!(matches!(
            instantiate("nope"),
            Err(OsError::UnknownComponent(_))
        ));
    }
}
