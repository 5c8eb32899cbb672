//! The compile path as a sequence of public layer calls, each in its
//! own span: source text → verified S₀ → `Vm::compile` → `emit_c`.
//! The calls are the ones `Pipeline::compile` makes with default
//! options (the crate's tests check the S₀ is byte-identical).

use crate::programs::Program;
use crate::trace::Tracer;
use pe_backend_c::{emit_c, COptions, CProgram};
use pe_core::{CompileOptions, S0Program, Spec};
use pe_frontend::flow::FlowAnalysis;
use pe_frontend::gen_analysis::GenAnalysis;
use pe_governor::Fuel;
use pe_verify::{Diagnostic, Severity};
use pe_vm::Vm;
use realistic_pe::Pipeline;

/// What one compile produced.
pub struct Compiled {
    /// The verified residual program.
    pub s0: S0Program,
    /// `s0` loaded into the register machine.
    pub vm: Vm,
    /// `s0` translated to C for the program's entry arguments.
    pub c: CProgram,
    /// Residual nodes straight out of the specializer.
    pub raw_nodes: usize,
    /// Residual nodes after `pe_flow::postprocess`.
    pub post_nodes: usize,
}

/// Compiles `p`, recording one span per layer call under a `compile`
/// span with id `id`.
///
/// # Errors
///
/// A description of the first layer that failed.
pub fn compile(p: &Program, id: u64, tr: &mut Tracer) -> Result<Compiled, String> {
    tr.open("compile", id);
    let r = layers(p, id, tr);
    tr.close();
    r
}

fn layers(p: &Program, id: u64, tr: &mut Tracer) -> Result<Compiled, String> {
    let opts = CompileOptions::default();
    let entry = p.entry.as_str();
    let pipe = tr
        .leaf("frontend", id, || Pipeline::new(&p.source))
        .map_err(|e| e.to_string())?;
    let dp = &pipe.dprog;
    let (flow, gen) = tr.leaf("core.cfa", id, || {
        let flow = FlowAnalysis::analyze(dp);
        let gen = GenAnalysis::analyze(dp, &flow);
        (flow, gen)
    });
    let sct = tr.leaf("sct", id, || pe_sct::analyze(dp, &flow, entry));
    if let Some(trap) = sct.divergence {
        return Err(format!("refused as divergent: {trap:?}"));
    }
    let raw = tr
        .leaf("core.specialize", id, || {
            Spec::new(dp, &flow, &gen, opts.clone())
                .with_sct(sct.verdicts)
                .compile(entry)
        })
        .map_err(|e| e.to_string())?;
    let raw_nodes = raw.size();
    let post = tr.leaf("flow.post", id, || pe_flow::postprocess(raw));
    let post_nodes = post.size();
    // As in the pipeline: an exhausted optimizer budget keeps the
    // unoptimized program, and the fallback copy is made outside the span.
    let fallback = post.clone();
    let s0 = tr.leaf("flow.optimize", id, || {
        pe_flow::optimize(post, &mut Fuel::new(&opts.limits)).map_or(fallback, |(q, _)| q)
    });
    tr.open("verify", id);
    let mut diags: Vec<Diagnostic> = tr.leaf("verify.wellformed", id, || {
        pe_verify::wellformed::check(&s0)
    });
    diags.extend(tr.leaf("verify.closure", id, || pe_verify::closure::check(&s0)));
    diags.extend(tr.leaf("verify.preservation", id, || {
        pe_verify::preservation::check(&s0)
    }));
    diags.extend(tr.leaf("verify.lints", id, || pe_verify::lints::check(&s0)));
    diags.extend(tr.leaf("verify.flow", id, || pe_verify::flow::check(&s0)));
    tr.close();
    if let Some(d) = diags.iter().find(|d| d.severity == Severity::Error) {
        return Err(format!("verification failed: {d:?}"));
    }
    let vm = tr
        .leaf("vm.load", id, || Vm::compile(&s0))
        .map_err(|e| e.to_string())?;
    let c = tr.leaf("backend-c.emit", id, || {
        emit_c(&s0, &p.args, &COptions::default())
    });
    Ok(Compiled {
        s0,
        vm,
        c,
        raw_nodes,
        post_nodes,
    })
}
