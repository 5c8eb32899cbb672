//! The S₀ → C translator of §5.1.
//!
//! The translation produces a single C function `program`:
//!
//! * procedure headers become **labels**, tail calls become assignments
//!   to **global parameter variables** followed by `goto`;
//! * on entry to a procedure a fresh scope copies the global parameter
//!   variables into private ones, so argument lists can be built without
//!   interference;
//! * every simple expression is an assignment to a **single-use
//!   temporary**, sequentialized with C's comma operator — register
//!   allocation is left to the C compiler;
//! * closures are **flat vectors** (label + captured values) and closure
//!   application compiles to the same sequential label dispatch as in
//!   the Scheme residual code;
//! * data objects are a tagged union.
//!
//! The paper uses the Boehm collector with "no cooperation between the
//! translation and the garbage collector"; allocation strategy being
//! orthogonal, the emitted runtime uses a self-contained bump arena
//! (documented substitution — benchmarks are sized for it).  Booleans,
//! `'()` and small integers are preallocated immortal objects, so the C
//! allocates what the VM counts in `vm.allocs` (pairs and closures),
//! plus large integers, characters, symbols and strings.

use pe_core::s0::proc_name;
use pe_core::{ProcId, S0Proc, S0Program, S0Simple, S0Tail};
use pe_frontend::ast::{Constant, Prim};
use pe_governor::{Fuel, Limits};
use pe_interp::Datum;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Bytes of the bump arena in the emitted runtime.
const ARENA_BYTES: usize = 256 << 20;

/// The integers the runtime preallocates: `rt_int` allocates only
/// outside this range.  Closure labels are small, so `closure-label`
/// reads stay inside it.
const SMALL_INTS: std::ops::RangeInclusive<i64> = -16..=1023;

/// A constant whose C construction can neither allocate nor fail.
fn immediate(k: &Constant) -> bool {
    match k {
        Constant::Int(n) => SMALL_INTS.contains(n),
        Constant::Bool(_) | Constant::Nil => true,
        _ => false,
    }
}

/// Options for the C translation.
#[derive(Debug, Clone)]
pub struct COptions {
    /// Elide global-parameter moves that dataflow analysis proves
    /// redundant: identity moves (`gᵢ = pᵢ` when argument *i* is the
    /// caller's own *i*-th parameter, so the global already holds the
    /// value), trivial moves into parameters the callee never reads, and
    /// prologue copies of parameters `pe-flow` liveness proves dead.
    pub elide_moves: bool,
}

impl Default for COptions {
    fn default() -> Self {
        COptions { elide_moves: true }
    }
}

/// The result of a translation.
#[derive(Debug, Clone)]
pub struct CProgram {
    /// The complete C source text.
    pub source: String,
    /// Global-parameter moves and prologue copies elided because
    /// liveness proved the value already in place or never read.
    pub moves_elided: usize,
}

impl CProgram {
    /// Size of the generated C text in bytes (§8 code-size experiment).
    pub fn size_bytes(&self) -> usize {
        self.source.len()
    }
}

struct Emitter<'p> {
    /// The program's procedures, for the spelling of labels.
    procs: &'p [S0Proc],
    /// Procedure → sanitized unique C label, assigned on first use.
    labels: Vec<Option<String>>,
    /// Spelling → times used, to keep labels unique.
    used: HashMap<String, usize>,
    symbols: Vec<String>,
    strings: Vec<String>,
    next_temp: usize,
    max_arity: usize,
    elide: bool,
    moves_elided: usize,
}

impl Emitter<'_> {
    fn label_of(&mut self, id: ProcId) -> String {
        if let Some(Some(l)) = self.labels.get(id.index()) {
            return l.clone();
        }
        let base: String = proc_name(self.procs, id)
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let base = if base.starts_with(|c: char| c.is_ascii_digit()) {
            format!("p_{base}")
        } else {
            base
        };
        let n = self.used.entry(base.clone()).or_insert(0);
        let unique = if *n == 0 { format!("L_{base}") } else { format!("L_{base}_{n}") };
        *n += 1;
        if let Some(slot) = self.labels.get_mut(id.index()) {
            *slot = Some(unique.clone());
        }
        unique
    }

    fn sym_index(&mut self, s: &str) -> usize {
        if let Some(i) = self.symbols.iter().position(|x| x == s) {
            return i;
        }
        self.symbols.push(s.to_string());
        self.symbols.len() - 1
    }

    fn str_index(&mut self, s: &str) -> usize {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return i;
        }
        self.strings.push(s.to_string());
        self.strings.len() - 1
    }

    fn temp(&mut self) -> String {
        let t = format!("t{}", self.next_temp);
        self.next_temp += 1;
        t
    }

    /// Emits a constant as a C expression.
    fn constant(&mut self, k: &Constant) -> String {
        match k {
            Constant::Int(n) => format!("rt_int({n}L)"),
            Constant::Bool(b) => format!("rt_bool({})", i32::from(*b)),
            Constant::Char(c) => format!("rt_char({})", *c as u32),
            Constant::Nil => "rt_nil()".to_string(),
            Constant::Sym(s) => {
                let i = self.sym_index(s);
                format!("rt_sym({i})")
            }
            Constant::Str(s) => {
                let i = self.str_index(s);
                format!("rt_str({i})")
            }
            Constant::Pair(a, d) => {
                let a = self.constant(a);
                let d = self.constant(d);
                format!("rt_cons({a}, {d})")
            }
        }
    }

    /// Translates a simple expression into a C expression that assigns
    /// every intermediate result to a fresh single-use temporary,
    /// sequenced with the comma operator (§5.1), and evaluates to the
    /// final temporary.  Variables and [`immediate`] constants, which
    /// cannot fail or allocate, appear inline.  Temporary declarations
    /// accumulate in `temps`.
    fn simple(&mut self, s: &S0Simple, temps: &mut Vec<String>) -> String {
        let expr = match s {
            S0Simple::Var(v) => return format!("p{v}"),
            S0Simple::Const(k) if immediate(k) => return self.constant(k),
            S0Simple::Const(k) => self.constant(k),
            S0Simple::Prim(op, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, temps)).collect();
                prim_call(*op, &xs)
            }
            S0Simple::MakeClosure(l, args) => {
                let xs: Vec<String> =
                    args.iter().map(|a| self.simple(a, temps)).collect();
                let mut call = format!("rt_closure({l}, {}", xs.len());
                for x in &xs {
                    let _ = write!(call, ", {x}");
                }
                call.push(')');
                call
            }
            S0Simple::ClosureLabel(a) => {
                let x = self.simple(a, temps);
                format!("rt_closure_label({x})")
            }
            S0Simple::ClosureFreeval(a, i) => {
                let x = self.simple(a, temps);
                format!("rt_closure_freeval({x}, {i})")
            }
        };
        let t = self.temp();
        temps.push(t.clone());
        format!("({t} = {expr}, {t})")
    }

    /// `dead[f][i]` is true when parameter `i` of procedure `f` is never
    /// read, per `pe-flow` liveness (empty when elision is off).
    fn tail(
        &mut self,
        t: &S0Tail,
        dead: &[Vec<bool>],
        temps: &mut Vec<String>,
        indent: usize,
        body: &mut String,
    ) {
        let pad = "  ".repeat(indent);
        match t {
            S0Tail::Return(s) => {
                let e = self.simple(s, temps);
                let _ = writeln!(body, "{pad}return {e};");
            }
            S0Tail::If(c, a, b) => {
                let e = self.simple(c, temps);
                let _ = writeln!(body, "{pad}if (rt_truthy({e})) {{");
                self.tail(a, dead, temps, indent + 1, body);
                let _ = writeln!(body, "{pad}}} else {{");
                self.tail(b, dead, temps, indent + 1, body);
                let _ = writeln!(body, "{pad}}}");
            }
            S0Tail::TailCall(callee, args) => {
                // Arguments are simple expressions over private variables
                // (never over the globals), so computing and storing each
                // one in turn is safe.  Two moves are provably redundant:
                //
                // * **identity** — argument *i* is the caller's own *i*-th
                //   parameter.  Globals are written only at a tail call,
                //   and each path through a body reaches exactly one, so
                //   `gᵢ` still holds the entry value of `pᵢ`;
                // * **dead target** — liveness shows the callee never
                //   reads parameter *i*, and the argument is a variable or
                //   constant, so skipping its evaluation cannot suppress a
                //   runtime error.
                let dead_target = dead.get(callee.index());
                for (i, a) in args.iter().enumerate() {
                    if self.elide {
                        let identity = matches!(a, S0Simple::Var(v) if *v as usize == i);
                        let dead = dead_target
                            .is_some_and(|d| d.get(i).copied().unwrap_or(false))
                            && matches!(a, S0Simple::Var(_) | S0Simple::Const(_));
                        if identity || dead {
                            self.moves_elided += 1;
                            continue;
                        }
                    }
                    let x = self.simple(a, temps);
                    let _ = writeln!(body, "{pad}g{i} = {x};");
                }
                let l = self.label_of(*callee);
                let _ = writeln!(body, "{pad}goto {l};");
            }
            S0Tail::Fail(m) => {
                let _ = writeln!(body, "{pad}rt_die({:?});", m);
            }
        }
    }
}

fn prim_call(op: Prim, args: &[String]) -> String {
    let f = match op {
        Prim::Cons => "rt_cons",
        Prim::Car => "rt_car",
        Prim::Cdr => "rt_cdr",
        Prim::NullP => "rt_nullp",
        Prim::PairP => "rt_pairp",
        Prim::Not => "rt_not",
        Prim::EqP | Prim::EqvP => "rt_eqp",
        Prim::EqualP => "rt_equalp",
        Prim::Add => "rt_add",
        Prim::Sub => "rt_sub",
        Prim::Mul => "rt_mul",
        Prim::Quotient => "rt_quotient",
        Prim::Remainder => "rt_remainder",
        Prim::NumEq => "rt_numeq",
        Prim::Lt => "rt_lt",
        Prim::Gt => "rt_gt",
        Prim::Le => "rt_le",
        Prim::Ge => "rt_ge",
        Prim::ZeroP => "rt_zerop",
        Prim::Add1 => "rt_add1",
        Prim::Sub1 => "rt_sub1",
        Prim::SymbolP => "rt_symbolp",
        Prim::NumberP => "rt_numberp",
        Prim::BooleanP => "rt_booleanp",
    };
    format!("{f}({})", args.join(", "))
}

fn datum_literal(e: &mut Emitter, d: &Datum) -> String {
    match d {
        Datum::Int(n) => format!("rt_int({n}L)"),
        Datum::Bool(b) => format!("rt_bool({})", i32::from(*b)),
        Datum::Char(c) => format!("rt_char({})", *c as u32),
        Datum::Nil => "rt_nil()".to_string(),
        Datum::Sym(s) => {
            let i = e.sym_index(s);
            format!("rt_sym({i})")
        }
        Datum::Str(s) => {
            let i = e.str_index(s);
            format!("rt_str({i})")
        }
        Datum::Pair(p) => {
            let a = datum_literal(e, &p.0);
            let d = datum_literal(e, &p.1);
            format!("rt_cons({a}, {d})")
        }
        Datum::Closure(c) => match *c {},
    }
}

/// Translates an S₀ program to a standalone C source file whose `main`
/// runs the entry procedure on `args` and prints the result as an
/// S-expression.
pub fn emit_c(p: &S0Program, args: &[Datum], opts: &COptions) -> CProgram {
    let mut e = Emitter {
        procs: &p.procs,
        labels: vec![None; p.procs.len()],
        used: HashMap::new(),
        symbols: Vec::new(),
        strings: Vec::new(),
        next_temp: 0,
        max_arity: p.procs.iter().map(|q| q.params.len()).max().unwrap_or(0),
        elide: opts.elide_moves,
        moves_elided: 0,
    };

    // Per-procedure liveness, computed once up front: parameter
    // positions never read drive both prologue skipping and dead-target
    // move elision.  A trapped analysis budget degrades to "all live"
    // (no elision), never to a wrong answer.
    let dead: Vec<Vec<bool>> = if opts.elide_moves {
        let mut fuel = Fuel::new(&Limits::default());
        p.procs
            .iter()
            .map(|q| match pe_flow::liveness::live_at_entry(q, &mut fuel) {
                Ok(live) => (0..q.params.len()).map(|i| !live.contains(&(i as u32))).collect(),
                Err(_) => vec![false; q.params.len()],
            })
            .collect()
    } else {
        Vec::new()
    };

    // Bodies first, so the symbol/string tables fill up.
    let mut bodies = String::new();
    for (f, q) in p.procs.iter().enumerate() {
        let label = e.label_of(ProcId(f as u32));
        let _ = writeln!(bodies, "{label}: {{");
        // Fresh scope: copy the globals into private parameter
        // variables — except the ones liveness proves are never read.
        let dead_here = dead.get(f);
        let mut copied = 0usize;
        for i in 0..q.params.len() {
            if e.elide && dead_here.is_some_and(|d| d[i]) {
                e.moves_elided += 1;
                continue;
            }
            let _ = writeln!(bodies, "  Obj *p{i} = g{i};");
            copied += 1;
        }
        if copied == 0 {
            let _ = writeln!(bodies, "  ;");
        }
        let mut temps = Vec::new();
        let mut body = String::new();
        e.tail(&q.body, &dead, &mut temps, 1, &mut body);
        if !temps.is_empty() {
            let _ = writeln!(bodies, "  Obj *{};", temps.join(", *"));
        }
        bodies.push_str(&body);
        let _ = writeln!(bodies, "}}");
    }

    let mut main_args = String::new();
    let entry_args: Vec<String> = args.iter().map(|d| datum_literal(&mut e, d)).collect();
    for (i, a) in entry_args.iter().enumerate() {
        let _ = writeln!(main_args, "  g{i} = {a};");
    }

    // Now assemble the file.
    let mut out = String::new();
    out.push_str(&runtime_header(&e.symbols, &e.strings));
    let _ = writeln!(out, "/* global parameter variables (§5.1) */");
    for i in 0..e.max_arity.max(args.len()) {
        let _ = writeln!(out, "static Obj *g{i};");
    }
    let _ = writeln!(out, "\nstatic Obj *program(void) {{");
    let entry_label = e.label_of(p.entry);
    let _ = writeln!(out, "  goto {entry_label};");
    out.push_str(&bodies);
    let _ = writeln!(out, "}}");
    let _ = writeln!(out, "\nint main(void) {{");
    let _ = writeln!(out, "  rt_init();");
    out.push_str(&main_args);
    let _ = writeln!(out, "  rt_print(program());");
    let _ = writeln!(out, "  printf(\"\\n\");");
    let _ = writeln!(out, "  return 0;");
    let _ = writeln!(out, "}}");

    CProgram { source: out, moves_elided: e.moves_elided }
}

fn runtime_header(symbols: &[String], strings: &[String]) -> String {
    let mut h = String::new();
    let _ = writeln!(
        h,
        r#"/* generated by pe-backend-c — S0-to-C translation (Sperber/Thiemann §5.1) */
#include <limits.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum {{ T_INT, T_BOOL, T_CHAR, T_NIL, T_SYM, T_STR, T_PAIR, T_CLO }};

typedef struct Obj Obj;
struct Obj {{
  int tag;
  union {{
    long i;
    struct {{ Obj *car, *cdr; }} pair;
    struct {{ long label; int n; Obj **fv; }} clo;
  }} u;
}};
"#
    );
    let _ = writeln!(h, "static const char *rt_symbols[] = {{");
    for s in symbols {
        let _ = writeln!(h, "  {:?},", s);
    }
    let _ = writeln!(h, "  0\n}};");
    let _ = writeln!(h, "static const char *rt_strings[] = {{");
    for s in strings {
        let _ = writeln!(h, "  {:?},", s);
    }
    let _ = writeln!(h, "  0\n}};");
    // Only `rt_bool` makes booleans and only `rt_nil` makes `'()`, and
    // both return static objects, so `rt_truthy` and `rt_eq_raw` decide
    // them by identity.  `rt_die` returns `Obj *` (it never returns) so
    // the checked operations can trap inside a conditional expression.
    let _ = writeln!(
        h,
        r##"
/* Bump arena: substitution for the Boehm collector (see DESIGN.md).
   Booleans, '() and small integers are preallocated. */
static char *rt_arena, *rt_free_ptr, *rt_end;
static Obj rt_true = {{T_BOOL, {{1}}}}, rt_false = {{T_BOOL, {{0}}}}, rt_nil_obj = {{T_NIL, {{0}}}}, rt_small[{small_len}];
static void rt_init(void) {{
  int i;
  for (i = 0; i < {small_len}; i++) {{ rt_small[i].tag = T_INT; rt_small[i].u.i = i - {small_bias}; }}
  rt_arena = (char *)malloc({arena});
  if (!rt_arena) {{ fprintf(stderr, "arena allocation failed\n"); exit(2); }}
  rt_free_ptr = rt_arena;
  rt_end = rt_arena + {arena};
}}
static Obj *rt_die(const char *msg) {{
  fprintf(stderr, "runtime error: %s\n", msg);
  exit(1);
}}
static void *rt_alloc(size_t n) {{
  n = (n + 15) & ~(size_t)15;
  if ((size_t)(rt_end - rt_free_ptr) < n) rt_die("arena exhausted");
  {{ void *p = rt_free_ptr; rt_free_ptr += n; return p; }}
}}
static Obj *rt_new(int tag) {{
  Obj *o = (Obj *)rt_alloc(sizeof(Obj));
  o->tag = tag;
  return o;
}}
static Obj *rt_int(long n) {{
  Obj *o;
  if (n >= {small_min} && n <= {small_max}) return &rt_small[n + {small_bias}];
  o = rt_new(T_INT); o->u.i = n; return o;
}}
static Obj *rt_bool(int b) {{ return b ? &rt_true : &rt_false; }}
static Obj *rt_char(long c) {{ Obj *o = rt_new(T_CHAR); o->u.i = c; return o; }}
static Obj *rt_nil(void) {{ return &rt_nil_obj; }}
static Obj *rt_sym(long i) {{ Obj *o = rt_new(T_SYM); o->u.i = i; return o; }}
static Obj *rt_str(long i) {{ Obj *o = rt_new(T_STR); o->u.i = i; return o; }}
static Obj *rt_cons(Obj *a, Obj *d) {{
  Obj *o = rt_new(T_PAIR); o->u.pair.car = a; o->u.pair.cdr = d; return o;
}}
static int rt_truthy(Obj *o) {{ return o != &rt_false; }}
static Obj *rt_car(Obj *o) {{ if (o->tag != T_PAIR) rt_die("car: not a pair"); return o->u.pair.car; }}
static Obj *rt_cdr(Obj *o) {{ if (o->tag != T_PAIR) rt_die("cdr: not a pair"); return o->u.pair.cdr; }}
static Obj *rt_nullp(Obj *o) {{ return rt_bool(o->tag == T_NIL); }}
static Obj *rt_pairp(Obj *o) {{ return rt_bool(o->tag == T_PAIR); }}
static Obj *rt_not(Obj *o) {{ return rt_bool(!rt_truthy(o)); }}
static Obj *rt_symbolp(Obj *o) {{ return rt_bool(o->tag == T_SYM); }}
static Obj *rt_numberp(Obj *o) {{ return rt_bool(o->tag == T_INT); }}
static Obj *rt_booleanp(Obj *o) {{ return rt_bool(o->tag == T_BOOL); }}
static long rt_ival(Obj *o) {{ if (o->tag != T_INT) rt_die("expected number"); return o->u.i; }}
/* Fixnum arithmetic traps overflow, as the VM does. */
#define RT_CHECKED(op, x, y, name) {{ long r; return __builtin_##op##_overflow(x, y, &r) ? rt_die(name ": fixnum overflow") : rt_int(r); }}
static Obj *rt_add(Obj *a, Obj *b) RT_CHECKED(add, rt_ival(a), rt_ival(b), "+")
static Obj *rt_sub(Obj *a, Obj *b) RT_CHECKED(sub, rt_ival(a), rt_ival(b), "-")
static Obj *rt_mul(Obj *a, Obj *b) RT_CHECKED(mul, rt_ival(a), rt_ival(b), "*")
static Obj *rt_add1(Obj *o) RT_CHECKED(add, rt_ival(o), 1L, "add1")
static Obj *rt_sub1(Obj *o) RT_CHECKED(sub, rt_ival(o), 1L, "sub1")
#define RT_DIVISION(f, op, name) static Obj *f(Obj *a, Obj *b) {{ \
  long n = rt_ival(a), d = rt_ival(b); if (d == 0) rt_die(name ": division by zero"); \
  return d == -1 && n == LONG_MIN ? rt_die(name ": fixnum overflow") : rt_int(n op d); }}
RT_DIVISION(rt_quotient, /, "quotient")
RT_DIVISION(rt_remainder, %, "remainder")
static Obj *rt_numeq(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) == rt_ival(b)); }}
static Obj *rt_lt(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) < rt_ival(b)); }}
static Obj *rt_gt(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) > rt_ival(b)); }}
static Obj *rt_le(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) <= rt_ival(b)); }}
static Obj *rt_ge(Obj *a, Obj *b) {{ return rt_bool(rt_ival(a) >= rt_ival(b)); }}
static Obj *rt_zerop(Obj *o) {{ return rt_bool(rt_ival(o) == 0); }}
static int rt_eq_raw(Obj *a, Obj *b) {{
  if (a == b) return 1;
  if (a->tag != b->tag) return 0;
  switch (a->tag) {{
    case T_INT: case T_CHAR: case T_SYM: case T_STR: return a->u.i == b->u.i;
    default: return 0;
  }}
}}
static Obj *rt_eqp(Obj *a, Obj *b) {{ return rt_bool(rt_eq_raw(a, b)); }}
static int rt_equal_raw(Obj *a, Obj *b) {{
  if (rt_eq_raw(a, b)) return 1;
  if (a->tag == T_PAIR && b->tag == T_PAIR)
    return rt_equal_raw(a->u.pair.car, b->u.pair.car) &&
           rt_equal_raw(a->u.pair.cdr, b->u.pair.cdr);
  return 0;
}}
static Obj *rt_equalp(Obj *a, Obj *b) {{ return rt_bool(rt_equal_raw(a, b)); }}
static Obj *rt_closure(long label, int n, ...) {{
  __builtin_va_list ap;
  Obj *o = (Obj *)rt_alloc(sizeof(Obj) + sizeof(Obj *) * n);
  int i;
  o->tag = T_CLO;
  o->u.clo.label = label;
  o->u.clo.n = n;
  o->u.clo.fv = (Obj **)(o + 1);
  __builtin_va_start(ap, n);
  for (i = 0; i < n; i++) o->u.clo.fv[i] = __builtin_va_arg(ap, Obj *);
  __builtin_va_end(ap);
  return o;
}}
static Obj *rt_closure_label(Obj *o) {{
  if (o->tag != T_CLO) rt_die("closure-label: not a closure");
  return rt_int(o->u.clo.label);
}}
static Obj *rt_closure_freeval(Obj *o, int i) {{
  if (o->tag != T_CLO) rt_die("closure-freeval: not a closure");
  if (i >= o->u.clo.n) rt_die("closure-freeval: index out of range");
  return o->u.clo.fv[i];
}}
static void rt_print(Obj *o) {{
  switch (o->tag) {{
    case T_INT: printf("%ld", o->u.i); break;
    case T_BOOL: printf(o->u.i ? "#t" : "#f"); break;
    case T_CHAR: printf("#\\%c", (char)o->u.i); break;
    case T_NIL: printf("()"); break;
    case T_SYM: printf("%s", rt_symbols[o->u.i]); break;
    case T_STR: printf("%c%s%c", 34, rt_strings[o->u.i], 34); break;
    case T_CLO: printf("#<procedure %ld>", o->u.clo.label); break;
    case T_PAIR: {{
      printf("(");
      for (;;) {{
        rt_print(o->u.pair.car);
        o = o->u.pair.cdr;
        if (o->tag == T_NIL) break;
        if (o->tag != T_PAIR) {{ printf(" . "); rt_print(o); break; }}
        printf(" ");
      }}
      printf(")");
      break;
    }}
  }}
}}
"##,
        arena = ARENA_BYTES,
        small_min = SMALL_INTS.start(),
        small_max = SMALL_INTS.end(),
        small_bias = -SMALL_INTS.start(),
        small_len = SMALL_INTS.end() - SMALL_INTS.start() + 1,
    );
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::{compile, CompileOptions};
    use pe_frontend::{desugar, parse_source};
    use std::process::Command;

    fn cc_available() -> bool {
        Command::new("cc").arg("--version").output().is_ok()
    }

    fn run_c(c: &CProgram, tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("pe-backend-c-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = dir.join("prog.c");
        let bin = dir.join("prog");
        std::fs::write(&src, &c.source).unwrap();
        let out = Command::new("cc")
            .arg("-O1")
            .arg("-o")
            .arg(&bin)
            .arg(&src)
            .output()
            .expect("cc runs");
        assert!(
            out.status.success(),
            "cc failed:\n{}\n--- source ---\n{}",
            String::from_utf8_lossy(&out.stderr),
            c.source
        );
        let out = Command::new(&bin).output().expect("binary runs");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).trim().to_string()
    }

    fn compile_and_run(src: &str, entry: &str, args: &[Datum], tag: &str) -> String {
        let p = parse_source(src).unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, entry, &CompileOptions::default()).unwrap();
        let c = emit_c(&s0, args, &COptions::default());
        run_c(&c, tag)
    }

    #[test]
    fn emitted_c_has_the_paper_shape() {
        let p = parse_source("(define (f x) (g (+ x 1))) (define (g y) (cons y '()))").unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, "f", &CompileOptions::default()).unwrap();
        let c = emit_c(&s0, &[Datum::Int(1)], &COptions::default());
        // labels + gotos + global parameter variables + temporaries
        assert!(c.source.contains("goto L_"), "{}", c.source);
        assert!(c.source.contains("static Obj *g0;"), "{}", c.source);
        assert!(c.source.contains("Obj *p0 = g0;"), "{}", c.source);
        assert!(c.source.contains("(t0 = "), "{}", c.source);
    }

    #[test]
    fn c_runs_cps_append() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (append x y) (cps-append x y (lambda (v) v)))
                   (define (cps-append x y c)
                     (if (null? x) (c y)
                         (cps-append (cdr x) y (lambda (xy) (c (cons (car x) xy))))))";
        let out = compile_and_run(
            src,
            "append",
            &[Datum::parse("(1 2)").unwrap(), Datum::parse("(3 4)").unwrap()],
            "append",
        );
        assert_eq!(out, "(1 2 3 4)");
    }

    #[test]
    fn c_runs_tak() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (tak x y z)
                     (if (not (< y x)) z
                         (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))";
        let out = compile_and_run(
            src,
            "tak",
            &[Datum::Int(14), Datum::Int(7), Datum::Int(3)],
            "tak",
        );
        assert_eq!(out, "7");
    }

    #[test]
    fn c_prints_symbols_and_structures() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (f) (cons 'alpha (cons #t (cons #\\x '()))))";
        let out = compile_and_run(src, "f", &[], "syms");
        assert_eq!(out, "(alpha #t #\\x)");
    }

    #[test]
    fn identity_moves_are_elided() {
        // `acc` rides along in its own position on the self call, so
        // `g1` already holds it at the goto; the move disappears.
        let src = "(define (count n acc) (if (zero? n) acc (count (- n 1) acc)))";
        let p = parse_source(src).unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, "count", &CompileOptions::default()).unwrap();
        let on = emit_c(&s0, &[Datum::Int(5), Datum::Int(0)], &COptions::default());
        let off = emit_c(
            &s0,
            &[Datum::Int(5), Datum::Int(0)],
            &COptions { elide_moves: false },
        );
        assert!(on.moves_elided >= 1, "no move elided:\n{}", on.source);
        assert_eq!(off.moves_elided, 0);
        assert!(!on.source.contains("g1 = p1;"), "{}", on.source);
        assert!(off.source.contains("g1 = p1;"), "{}", off.source);
        assert!(on.size_bytes() < off.size_bytes());
        if cc_available() {
            assert_eq!(run_c(&on, "elide-on"), "0");
            assert_eq!(run_c(&off, "elide-off"), "0");
        }
    }

    #[test]
    fn dead_parameter_prologue_and_moves_are_skipped() {
        // `sink`'s second parameter is never read: its prologue copy is
        // skipped, and the constant argument's move is elided outright.
        // The effectful `cons` argument still evaluates into the global.
        let p = S0Program {
            entry: ProcId(0),
            procs: vec![
                S0Proc {
                    name: "main".into(),
                    params: vec!["x".into()],
                    body: S0Tail::TailCall(
                        ProcId(1),
                        vec![
                            S0Simple::Var(0),
                            S0Simple::Const(pe_frontend::ast::Constant::Int(9)),
                        ],
                    ),
                },
                S0Proc {
                    name: "sink".into(),
                    params: vec!["v".into(), "junk".into()],
                    body: S0Tail::Return(S0Simple::Var(0)),
                },
            ],
        };
        let c = emit_c(&p, &[Datum::Int(1)], &COptions::default());
        assert!(!c.source.contains("Obj *p1 = g1;"), "{}", c.source);
        assert!(!c.source.contains("g1 = "), "{}", c.source);
        assert!(c.moves_elided >= 2, "{}", c.source);
        if cc_available() {
            assert_eq!(run_c(&c, "dead-param"), "1");
        }
    }

    #[test]
    fn c_runtime_faults_cleanly() {
        if !cc_available() {
            eprintln!("cc not available; skipping");
            return;
        }
        let src = "(define (f x) (car x))";
        let p = parse_source(src).unwrap();
        let d = desugar(&p).unwrap();
        let s0 = compile(&d, "f", &CompileOptions::default()).unwrap();
        let c = emit_c(&s0, &[Datum::Int(7)], &COptions::default());
        let dir = std::env::temp_dir().join(format!("pe-backend-c-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let srcf = dir.join("prog.c");
        let bin = dir.join("prog");
        std::fs::write(&srcf, &c.source).unwrap();
        let out = Command::new("cc").arg("-o").arg(&bin).arg(&srcf).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let out = Command::new(&bin).output().unwrap();
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("car: not a pair"));
    }
}
