//! A boot from a shared image allocates only the system it boots.
//!
//! A standalone build makes its image first: it constructs the nine nginx
//! components, runs the static analysis and binds every call site, then
//! boots. A fleet makes that image once and boots every instance from it,
//! so each instance pays for its host world, its component clones,
//! protection domains, arenas, boot syscalls and checkpoints, and nothing
//! else. This binary counts every allocation of both boots, in a test
//! binary of its own so the counting allocator sees nothing else. The
//! counts are exact: a boot that starts doing image-level work again, or
//! stops doing some per-system work, moves one of them.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use std::rc::Rc;

use counting_alloc::allocations;

use vampos_core::{ComponentSet, Image, Mode, System};

/// Allocations of a standalone nginx build, image and boot: what it
/// measures. Each descriptor builds its function table in one pass from
/// its interface's static table; a descriptor that grew its table flag
/// list by flag list measured 373, and one whose protection domains and
/// arenas copied their names 340.
const STANDALONE_BUILD: u64 = 307;

/// Allocations of a boot of the nginx set from a warm image: what it
/// measures, under a third of a standalone build. Instantiating the
/// components, analysing them and binding the call sites are the rest.
/// The protection domains, arenas and boot snapshots share the
/// descriptors' names; copying them into `String`s measured 122.
const BOOT_FROM_IMAGE: u64 = 89;

fn image() -> Rc<Image> {
    Rc::new(Image::new(ComponentSet::nginx(), Mode::vampos_das()).expect("image"))
}

fn boot(image: &Rc<Image>) -> System {
    System::builder()
        .image(Rc::clone(image))
        .build()
        .expect("boot")
}

#[test]
fn a_standalone_build_allocates_its_image_and_its_system() {
    // Warm whatever a first build in the process initialises once.
    drop(boot(&image()));
    let mut built = None;
    let n = allocations(|| {
        let sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::nginx())
            .build()
            .expect("build");
        built = Some(sys);
    });
    assert_eq!(n, STANDALONE_BUILD, "standalone nginx build");
}

#[test]
fn a_boot_from_a_warm_image_allocates_only_its_system() {
    let image = image();
    drop(boot(&image));
    let mut booted = None;
    let n = allocations(|| booted = Some(boot(&image)));
    assert_eq!(n, BOOT_FROM_IMAGE, "boot from a warm image");
}
