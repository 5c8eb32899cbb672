//! End-to-end §5 tests: the whole Fig. 8 suite through the C back end,
//! compiled with the system C compiler and executed, outputs compared
//! with the VM.  Skipped when no `cc` is installed.

use pe_frontend::ast::Prim;
use pe_interp::{InterpError, PrimError};
use realistic_pe::{CompileOptions, Datum, Limits, Pipeline, PipelineError, SUITE};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Flags that make any undefined behaviour the sanitizer can see abort
/// the program.
const UBSAN: &[&str] = &["-O1", "-fsanitize=undefined", "-fno-sanitize-recover=undefined"];

/// One program per checked arithmetic primitive, each overflowing at
/// its argument: `(source, argument, primitive that traps)`.
const OVERFLOWS: &[(&str, i64, Prim)] = &[
    ("(define (f x) (+ x 9223372036854775807))", 1, Prim::Add),
    ("(define (f x) (- x 9223372036854775807))", -2, Prim::Sub),
    ("(define (f x) (* x 4611686018427387904))", 2, Prim::Mul),
    ("(define (f x) (add1 x))", i64::MAX, Prim::Add1),
    ("(define (f x) (sub1 (- x 9223372036854775807)))", -1, Prim::Sub1),
    ("(define (f x) (quotient (- x 9223372036854775807) -1))", -1, Prim::Quotient),
    ("(define (f x) (remainder (- x 9223372036854775807) -1))", -1, Prim::Remainder),
];

fn cc_available() -> bool {
    Command::new("cc").arg("--version").output().is_ok()
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pe-c-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes `source` to `<dir>/<name>.c` and builds `<dir>/<name>` from it
/// with `cc flags`, panicking on any diagnostic that fails the build.
fn cc(dir: &Path, name: &str, source: &str, flags: &[&str]) -> PathBuf {
    let c_path = dir.join(format!("{name}.c"));
    let bin = dir.join(name);
    std::fs::write(&c_path, source).unwrap();
    let out = Command::new("cc").args(flags).arg("-o").arg(&bin).arg(&c_path).output().unwrap();
    assert!(out.status.success(), "{name}: cc failed:\n{}", String::from_utf8_lossy(&out.stderr));
    bin
}

fn run(bin: &Path) -> Output {
    Command::new(bin).output().unwrap()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

/// Whether `cc` can build and run a program under [`UBSAN`].
fn ubsan_available(dir: &Path) -> bool {
    let c_path = dir.join("probe.c");
    let bin = dir.join("probe");
    std::fs::write(&c_path, "int main(void) { return 0; }\n").unwrap();
    let built = Command::new("cc").args(UBSAN).arg("-o").arg(&bin).arg(&c_path).output();
    built.is_ok_and(|o| o.status.success()) && run(&bin).status.success()
}

/// Emits C for `entry` of `source` applied to `args`.
fn emit(source: &str, entry: &str, args: &[Datum]) -> String {
    let pipe = Pipeline::new(source).unwrap();
    pipe.emit_c(entry, args, &CompileOptions::default()).unwrap().source
}

/// Builds every [`SUITE`] program at its test inputs with `flags` and
/// checks each binary prints what the VM computes.
fn suite_agrees_with_vm(dir: &Path, flags: &[&str]) {
    for b in SUITE {
        let pipe = Pipeline::new(b.source).unwrap();
        let args = b.test_inputs();
        let opts = CompileOptions::default();
        let c = pipe.emit_c(b.entry, &args, &opts).unwrap();
        let out = run(&cc(dir, b.name, &c.source, flags));
        assert!(out.status.success(), "{}: {}", b.name, String::from_utf8_lossy(&out.stderr));
        let c_result = stdout(&out);

        let (vm_result, _) = pipe.run_compiled(b.entry, &args, &opts, Limits::default()).unwrap();
        assert_eq!(c_result, vm_result.to_string(), "{}: C vs VM", b.name);
        assert_eq!(c_result, b.test_expect, "{}: C vs expected", b.name);
    }
}

/// Builds every [`OVERFLOWS`] case with `flags` and checks the binary
/// fails with exactly the VM's trap message, and the VM traps the same
/// primitive.
fn overflows_trap_like_the_vm(dir: &Path, flags: &[&str]) {
    for (i, &(source, x, prim)) in OVERFLOWS.iter().enumerate() {
        let args = [Datum::Int(x)];
        let vm = Pipeline::new(source).unwrap().run_compiled(
            "f",
            &args,
            &CompileOptions::default(),
            Limits::default(),
        );
        let trap = PrimError::Overflow(prim);
        assert!(
            matches!(&vm, Err(PipelineError::Run(InterpError::Prim(e))) if *e == trap),
            "{source}: VM gave {vm:?}"
        );
        let out = run(&cc(dir, &format!("overflow{i}"), &emit(source, "f", &args), flags));
        assert!(!out.status.success(), "{source}: C printed {}", stdout(&out));
        assert_eq!(String::from_utf8_lossy(&out.stderr), format!("runtime error: {trap}\n"));
    }
}

#[test]
fn whole_suite_through_c() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    suite_agrees_with_vm(&scratch("suite"), &["-O1"]);
}

#[test]
fn c_arithmetic_overflow_traps_like_the_vm() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    overflows_trap_like_the_vm(&scratch("overflow"), &["-O2"]);
}

#[test]
fn suite_and_overflows_are_free_of_undefined_behaviour() {
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let dir = scratch("ubsan");
    if !ubsan_available(&dir) {
        eprintln!("cc cannot build with -fsanitize=undefined; skipping");
        return;
    }
    suite_agrees_with_vm(&dir, UBSAN);
    overflows_trap_like_the_vm(&dir, UBSAN);
}

#[test]
fn a_long_loop_on_integers_fits_the_arena() {
    // Booleans and small integers are immediates, so each iteration
    // allocates at most the one out-of-range integer `(- n 1)`.
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let source = "(define (count n) (if (zero? n) 0 (count (- n 1))))";
    let c = emit(source, "count", &[Datum::Int(3_000_000)]);
    let out = run(&cc(&scratch("arena"), "count", &c, &["-O1"]));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(stdout(&out), "0");
}

#[test]
fn c_sources_are_self_contained_ansi_ish() {
    // The generated file must compile alone with warnings-as-errors on
    // the constructs we control.
    if !cc_available() {
        eprintln!("cc not available; skipping");
        return;
    }
    let c = emit("(define (f x) (+ x 1))", "f", &[Datum::Int(1)]);
    // The fixed runtime header legitimately contains helpers a given
    // program does not call.
    cc(&scratch("ansi"), "f", &c, &["-Wall", "-Wextra", "-Werror", "-Wno-unused-function"]);
}
