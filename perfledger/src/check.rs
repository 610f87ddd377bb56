//! Output checks.
//!
//! Correctness is judged by `dagsched_verify::check_reordering`, an
//! oracle built apart from the scheduler: every block of the output
//! must be a permutation of the input block, and the `pipesim`
//! interpreter must reach the same machine state from random start
//! states. Served replies must also be byte-identical to an uncached
//! library compile of the same program, because the cache and the
//! transport have to be transparent.
//!
//! Timed loops only record digests; every check runs after the timed
//! interval.

use dagsched_core::Scratch;
use dagsched_driver::{
    schedule_program_batch_scratch, DriverConfig, Limits, NoCache, ScheduledProgram,
};
use dagsched_isa::{Fnv64, InsnClass, Instruction, MachineModel, Opcode, Program, Reg, Resource};
use dagsched_proto::BlockSummary;
use dagsched_verify::check_reordering;
use dagsched_workloads::parse_asm;

/// Random machine states the oracle runs per block.
const ORACLE_STATES: usize = 2;
/// Seed of the oracle's random start states.
const ORACLE_SEED: u64 = 0x5EED_1991;

/// Assembly text of `insns`, one instruction per line: what a compiler
/// client sends.
pub fn asm_text(insns: &[Instruction]) -> String {
    insns
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Digest of a driver result: emission order plus per-block makespans.
/// The driver only permutes each block, so the order of original
/// indices pins the output.
pub fn schedule_digest(scheduled: &ScheduledProgram) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(scheduled.insns.len() as u64);
    for insn in &scheduled.insns {
        h.write_u32(insn.orig_index);
    }
    for b in &scheduled.blocks {
        h.write_u64(b.len as u64);
        h.write_u64(b.scheduled_makespan);
    }
    h.finish()
}

/// Digest of a reply as the client sees it: rendered instructions plus
/// block summaries.
pub fn reply_digest(insns: &[String], blocks: &[BlockSummary]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(insns.len() as u64);
    for s in insns {
        h.write_str(s);
    }
    for b in blocks {
        h.write_u64(b.block as u64);
        h.write_u64(b.len as u64);
        h.write_u64(b.original_makespan);
        h.write_u64(b.scheduled_makespan);
    }
    h.finish()
}

/// The reply the engine renders for `scheduled` (instruction text and
/// block summaries).
pub fn render_reply(scheduled: &ScheduledProgram) -> (Vec<String>, Vec<BlockSummary>) {
    let insns = scheduled.insns.iter().map(|i| i.to_string()).collect();
    let blocks = scheduled
        .blocks
        .iter()
        .map(|b| BlockSummary {
            block: b.block,
            len: b.len,
            original_makespan: b.original_makespan,
            scheduled_makespan: b.scheduled_makespan,
        })
        .collect();
    (insns, blocks)
}

/// An uncached library compile of `program`.
pub fn library_compile(
    program: &Program,
    model: &MachineModel,
    config: &DriverConfig,
    scratch: &mut Scratch,
) -> Result<ScheduledProgram, String> {
    schedule_program_batch_scratch(program, model, config, &Limits::none(), &NoCache, scratch)
        .map(|(scheduled, _)| scheduled)
        .map_err(|e| format!("library compile failed: {e}"))
}

/// The oracle over a rendered reply: it must parse, and be a valid
/// per-block reordering of `original`.
fn check_reply(original: &Program, reply: &[String]) -> Result<(), String> {
    let scheduled =
        parse_asm(&reply.join("\n")).map_err(|e| format!("reply does not parse: {e}"))?;
    check_reordering(original, &scheduled, ORACLE_STATES, ORACLE_SEED)
}

/// The oracle over a driver result.
pub fn check_schedule(original: &Program, scheduled: &ScheduledProgram) -> Result<(), String> {
    let as_program = Program {
        insns: scheduled.insns.clone(),
        mem_exprs: original.mem_exprs.clone(),
    };
    check_reordering(original, &as_program, ORACLE_STATES, ORACLE_SEED)
}

/// Index `k` of the first adjacent pair `(k, k + 1)` inside one block
/// of `program` whose swap must change what the block computes: `k` is
/// an integer ALU instruction that writes register `d` without reading
/// it, and `k + 1` is an `add`, `sub` or `xor` that reads `d` once and
/// writes another register that nothing later in the block overwrites.
/// That result is a bijection of `d`, so computing it from the stale
/// `d` leaves a different value behind.
fn dependent_pair(program: &Program) -> Option<usize> {
    let int_rd = |k: usize| {
        program.insns[k]
            .rd
            .filter(|r| matches!(r, Reg::Int(n) if *n != 0))
    };
    program.basic_blocks().iter().find_map(|b| {
        b.range
            .clone()
            .zip(b.range.clone().skip(1))
            .find_map(|(k, next)| {
                let (a, c) = (&program.insns[k], &program.insns[next]);
                let (d, e) = (int_rd(k)?, int_rd(next)?);
                let producer = a.class() == InsnClass::IntAlu && !a.rs.contains(&d);
                let consumer = matches!(c.opcode, Opcode::Add | Opcode::Sub | Opcode::Xor)
                    && c.rs.iter().filter(|&&r| r == d).count() == 1
                    && e != d;
                let live = (next + 1..b.range.end)
                    .all(|j| !program.insns[j].defs().contains(&Resource::Reg(e)));
                (producer && consumer && live).then_some(k)
            })
    })
}

/// The checker's negative self-test. A correct reply must pass; the
/// same reply with two dependent instructions swapped, and with one
/// instruction dropped, must each count as a failed operation.
pub fn self_test(original: &Program, reply: &[String]) -> Result<(), String> {
    check_reply(original, reply)
        .map_err(|e| format!("the checker rejects a correct reply: {e}"))?;
    let parsed = parse_asm(&reply.join("\n")).map_err(|e| e.to_string())?;
    let k = dependent_pair(&parsed).ok_or("no dependent pair to swap in the self-test reply")?;
    let mut swapped = reply.to_vec();
    swapped.swap(k, k + 1);
    if check_reply(original, &swapped).is_ok() {
        return Err(format!(
            "a reply with dependent instructions {k} and {} swapped passed",
            k + 1
        ));
    }
    let mut dropped = reply.to_vec();
    dropped.remove(k);
    if check_reply(original, &dropped).is_ok() {
        return Err(format!("a reply with instruction {k} dropped passed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagsched_workloads::{generate, BenchmarkProfile};

    /// The self-test must find its pair, and catch both tampered
    /// replies, on every program a run can feed it.
    #[test]
    fn self_test_holds_across_programs() {
        let (config, model) =
            dagsched_proto::build_driver_config(&dagsched_proto::ScheduleRequest::asm(""))
                .expect("default config");
        let mut scratch = Scratch::new();
        let cccp = BenchmarkProfile::by_name("cccp").expect("cccp profile");
        let grep = BenchmarkProfile::by_name("grep").expect("grep profile");
        let programs = (1..=40)
            .map(|seed| generate(cccp, seed).program)
            .chain((190..=230).map(|seed| generate(cccp, seed).program))
            .chain((1990..1995).map(|seed| generate(cccp, seed).program))
            .chain([generate(grep, 1991).program]);
        for program in programs {
            let original = parse_asm(&asm_text(&program.insns)).expect("round trip");
            let scheduled =
                library_compile(&original, &model, &config, &mut scratch).expect("compile");
            self_test(&original, &render_reply(&scheduled).0).expect("self-test");
        }
    }
}
