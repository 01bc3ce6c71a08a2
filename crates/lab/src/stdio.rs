//! Writers for stdout and stderr that a closed pipe does not crash.
//!
//! `println!` and `eprintln!` panic when a write fails, for example when
//! the reader of a pipe has gone (`fdn-lab report … | head`). Every program
//! of the workspace that prints instead writes through [`out!`](crate::out),
//! [`outln!`](crate::outln) and [`errln!`](crate::errln): a stream whose
//! reader has gone is skipped from then on, and the program finishes its
//! work and exits with its own status.

use std::fmt;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write to stdout found the reading end of its pipe closed.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Set once a write to stderr has failed.
static STDERR_FAILED: AtomicBool = AtomicBool::new(false);

/// Writes to stderr. A failed write, such as to a pipe whose reader has
/// gone, is not an error: it and every later write to stderr are skipped.
pub fn write_stderr(args: fmt::Arguments<'_>) {
    if STDERR_FAILED.load(Ordering::Relaxed) {
        return;
    }
    if io::stderr().lock().write_fmt(args).is_err() {
        STDERR_FAILED.store(true, Ordering::Relaxed);
    }
}

/// Writes to stdout through one locked handle. A reader that closed the
/// pipe is not an error: later writes are skipped. Any other write error
/// ends the process with exit 1 and a message naming the program.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    let mut stdout = io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
        }
        Err(e) => {
            let program = std::env::args_os().next().unwrap_or_default();
            let program = Path::new(&program).file_name().unwrap_or_default();
            crate::errln!("{}: cannot write to stdout: {e}", program.display());
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdio::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::stdio::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`write_stderr`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::stdio::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}
