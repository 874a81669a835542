//! Figure 2, executable: the five-step page-fault handling sequence with
//! external page-cache management, read off the machine's event trace.
//!
//! Step 1 is the kernel's `fault` event; steps 2-4 are the manager's
//! repair, which the trace shows as the `migrate` (and `flag_change`)
//! events after the fault; step 5 is the virtual time the access took.
//!
//! ```text
//! cargo run --example fault_walkthrough
//! ```

use epcm::core::types::ManagerId;
use epcm::core::{AccessKind, SegmentKind};
use epcm::managers::Machine;
use epcm::sim::clock::Micros;
use epcm::trace::event::fault_class;
use epcm::trace::{EventKind, SharedTracer};

/// Runs `access` with the trace emptied first, and returns the virtual
/// time it took.
fn traced(
    machine: &mut Machine,
    tracer: &SharedTracer,
    access: impl FnOnce(&mut Machine) -> Result<(), Box<dyn std::error::Error>>,
) -> Result<Micros, Box<dyn std::error::Error>> {
    tracer.take();
    let t0 = machine.now();
    access(machine)?;
    Ok(machine.now().duration_since(t0))
}

/// Prints the manager's kernel calls (step 4) that follow the fault.
fn print_repair(tracer: &SharedTracer) {
    for event in tracer.take() {
        match event.kind {
            EventKind::Migrate {
                from_segment,
                to_segment,
                pages,
            } => println!(
                "(4) MigratePages moves {pages} frame(s) from seg#{from_segment} to seg#{to_segment};"
            ),
            EventKind::FlagChange { segment, page, .. } => {
                println!("    ModifyPageFlags sets seg#{segment} page {page}'s flags;")
            }
            _ => {}
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::with_default_manager(1024);
    let tracer = machine.enable_event_tracing(1024);
    let seg = machine.create_segment(SegmentKind::Anonymous, 16)?;
    // Warm the manager's free-page segment so the traced fault is the
    // steady-state minimal fault (the first-ever fault also includes the
    // manager's initial SPCM frame request).
    machine.touch(seg, 0, AccessKind::Write)?;

    println!("Figure 2: Page Fault Handling with External Page-Cache Management\n");
    let elapsed = traced(&mut machine, &tracer, |m| {
        Ok(m.touch(seg, 3, AccessKind::Write)?)
    })?;
    let (manager, segment, page, class) = tracer
        .events()
        .iter()
        .find_map(|e| match e.kind {
            EventKind::Fault {
                manager,
                segment,
                page,
                class,
                ..
            } => Some((manager, segment, page, class)),
            _ => None,
        })
        .ok_or("the touch did not fault")?;
    let kind = match class {
        fault_class::MISSING => "missing",
        fault_class::PROTECTION => "protection",
        _ => "copy-on-write",
    };
    let mode = machine
        .manager(ManagerId(manager))
        .ok_or("unknown manager")?
        .mode();
    println!("(1) application references seg#{segment} page {page} and traps;");
    println!("    the kernel classifies it [{kind}] and forwards it to mgr#{manager}");
    println!("(2) mgr#{manager} (running as {mode}) receives the fault,");
    println!("    allocates a page frame from its free-page segment,");
    println!("(3) fills it (here: a minimal fault, no backing-store data needed),");
    print_repair(&tracer);
    println!("(5) the application resumes. Total fault time: {elapsed}.");

    // The same walk for a fault that does need backing-store data:
    println!(
        "\n--- and again for a cached-file fault (steps 2-3 fetch from the file server) ---\n"
    );
    machine.store_mut().create_with("input", vec![7u8; 8192]);
    let file = machine.open_file("input")?;
    let mut buf = [0u8; 16];
    let elapsed = traced(&mut machine, &tracer, |m| {
        Ok(m.uio_read(file, 4096, &mut buf)?)
    })?;
    for event in tracer.events() {
        if let EventKind::Fault {
            manager,
            segment,
            page,
            ..
        } = event.kind
        {
            println!("(1) UIO read faults on seg#{segment} page {page} -> mgr#{manager}");
            println!("(2) mgr#{manager} allocates a frame and requests the page data from the file server,");
            println!("(3) the server replies; the manager copies the data into the frame,");
        }
    }
    print_repair(&tracer);
    println!("(5) the read resumes and completes. Elapsed: {elapsed}.");
    assert_eq!(buf, [7u8; 16]);
    Ok(())
}
