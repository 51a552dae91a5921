(* Pre-decoded µops: each static instruction of a program is lowered
   once into a flat record — resolved register indices, immediates,
   precomputed cost metadata, basic-block extent — so the interpreter
   and both timing engines run a tight loop over arrays instead of
   re-pattern-matching the [Instr.t] AST and re-allocating operand
   lists on every dynamic instruction (the decoded-µop cache gem5 keys
   off [StaticInst] for).

   Decoding is purely derived state: every field is computed by the
   same [Instr] functions the engines previously called per dynamic
   instruction, so consuming the decoded form cannot change modeled
   cycle counts. *)

(* Register operands are pre-resolved to [Reg.index] ints; -1 means
   "absent" ([None] base/index registers, immediate sources). *)

type op =
  | Omov of { d : int; sreg : int; simm : int }
  | Oload of { bytes : int; d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Ostore of {
      bytes : int;
      mask : int;  (* land-mask for the stored value; -1 for full width *)
      mbase : int;
      midx : int;
      mscale : int;
      mdisp : int;
      sreg : int;
      simm : int;
    }
  | Ohload of { region : int; bytes : int; d : int; midx : int; mscale : int; mdisp : int }
  | Ohstore of {
      region : int;
      bytes : int;
      mask : int;
      midx : int;
      mscale : int;
      mdisp : int;
      sreg : int;
      simm : int;
    }
  | Olea of { d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Oalu of { op : Instr.alu_op; d : int; sreg : int; simm : int }
  | Ocmp of { d : int; sreg : int; simm : int }
  | Ocmp_mem of { d : int; mbase : int; midx : int; mscale : int; mdisp : int }
  | Ojmp of int
  | Ojcc of { cond : Instr.cond; target : int }
  | Ojmp_ind of int
  | Ocall of int
  | Ocall_ind of int
  | Oret
  | Opush of int
  | Opop of int
  | Osyscall
  | Ohfi_enter of Hfi_iface.sandbox_spec
  | Ohfi_exit
  | Ohfi_reenter
  | Ohfi_set_region of { slot : int; region : Hfi_iface.region }
  | Ohfi_clear_region of int
  | Ohfi_clear_all
  | Ohfi_get_region of { slot : int; d : int }
  | Ocpuid
  | Ordtsc of int
  | Ordmsr of int
  | Oclflush of { mbase : int; midx : int; mscale : int; mdisp : int }
  | Omfence
  | Onop
  | Ohalt

(* Fast-engine base-cost class — mirrors the per-instruction match in
   [Fast_engine.account] exactly. *)
type cost_class = Cmul | Cdiv | Calu | Cload | Cstore | Cbranch | Cother

type t = {
  op : op;
  instr : Instr.t;  (* original AST, for trap paths / tracing / pp *)
  index : int;
  length : int;  (* Instr.length, in bytes *)
  fetch_addr : int;  (* code_base + byte offset *)
  reads : int array;  (* Reg.index of Instr.reads, in order *)
  writes : int array;
  off_critical : bool;  (* resolved off the issue critical path *)
  base_serializing : bool;  (* cpuid/mfence: serializing regardless of HFI *)
  is_cpuid : bool;
  latency : float;  (* cycle-engine execution latency *)
  cost_class : cost_class;
  block_last : int;  (* index of the last instruction of this basic block *)
}

let nop =
  {
    op = Onop;
    instr = Instr.Nop;
    index = -1;
    length = Instr.length Instr.Nop;
    fetch_addr = 0;
    reads = [||];
    writes = [||];
    off_critical = false;
    base_serializing = false;
    is_cpuid = false;
    latency = 1.0;
    cost_class = Cother;
    block_last = -1;
  }

let ridx = function Some r -> Reg.index r | None -> -1

(* Split a src operand into (register index | -1, immediate). *)
let split_src = function
  | Instr.Imm i -> (-1, i)
  | Instr.Reg r -> (Reg.index r, 0)

let mask_of = function
  | Instr.W1 -> 0xff
  | Instr.W2 -> 0xffff
  | Instr.W4 -> 0xffffffff
  | Instr.W8 -> -1 (* v land -1 = v *)

let lower_op (i : Instr.t) : op =
  match i with
  | Instr.Mov (d, s) ->
    let sreg, simm = split_src s in
    Omov { d = Reg.index d; sreg; simm }
  | Instr.Load (w, d, m) ->
    Oload
      {
        bytes = Instr.width_bytes w;
        d = Reg.index d;
        mbase = ridx m.Instr.base;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
      }
  | Instr.Store (w, m, s) ->
    let sreg, simm = split_src s in
    Ostore
      {
        bytes = Instr.width_bytes w;
        mask = mask_of w;
        mbase = ridx m.Instr.base;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
        sreg;
        simm;
      }
  | Instr.Hload (n, w, d, m) ->
    Ohload
      {
        region = n;
        bytes = Instr.width_bytes w;
        d = Reg.index d;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
      }
  | Instr.Hstore (n, w, m, s) ->
    let sreg, simm = split_src s in
    Ohstore
      {
        region = n;
        bytes = Instr.width_bytes w;
        mask = mask_of w;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
        sreg;
        simm;
      }
  | Instr.Lea (d, m) ->
    Olea
      {
        d = Reg.index d;
        mbase = ridx m.Instr.base;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
      }
  | Instr.Alu (op, d, s) ->
    let sreg, simm = split_src s in
    Oalu { op; d = Reg.index d; sreg; simm }
  | Instr.Cmp (d, s) ->
    let sreg, simm = split_src s in
    Ocmp { d = Reg.index d; sreg; simm }
  | Instr.Cmp_mem (d, m) ->
    Ocmp_mem
      {
        d = Reg.index d;
        mbase = ridx m.Instr.base;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
      }
  | Instr.Jmp t -> Ojmp t
  | Instr.Jcc (c, t) -> Ojcc { cond = c; target = t }
  | Instr.Jmp_ind r -> Ojmp_ind (Reg.index r)
  | Instr.Call t -> Ocall t
  | Instr.Call_ind r -> Ocall_ind (Reg.index r)
  | Instr.Ret -> Oret
  | Instr.Push r -> Opush (Reg.index r)
  | Instr.Pop r -> Opop (Reg.index r)
  | Instr.Syscall -> Osyscall
  | Instr.Hfi_enter spec -> Ohfi_enter spec
  | Instr.Hfi_exit -> Ohfi_exit
  | Instr.Hfi_reenter -> Ohfi_reenter
  | Instr.Hfi_set_region (slot, region) -> Ohfi_set_region { slot; region }
  | Instr.Hfi_clear_region slot -> Ohfi_clear_region slot
  | Instr.Hfi_clear_all_regions -> Ohfi_clear_all
  | Instr.Hfi_get_region (slot, d) -> Ohfi_get_region { slot; d = Reg.index d }
  | Instr.Cpuid -> Ocpuid
  | Instr.Rdtsc d -> Ordtsc (Reg.index d)
  | Instr.Rdmsr d -> Ordmsr (Reg.index d)
  | Instr.Clflush m ->
    Oclflush
      {
        mbase = ridx m.Instr.base;
        midx = ridx m.Instr.index;
        mscale = m.Instr.scale;
        mdisp = m.Instr.disp;
      }
  | Instr.Mfence -> Omfence
  | Instr.Nop -> Onop
  | Instr.Halt -> Ohalt

(* Cycle-engine execution latency — must mirror the historical match in
   [Cycle_engine.account] constructor-for-constructor. *)
let latency_of (i : Instr.t) =
  match i with
  | Instr.Alu (Instr.Mul, _, _) -> 3.0
  | Instr.Alu (Instr.Div, _, _) -> 20.0
  | Instr.Alu (_, _, _) | Instr.Mov _ | Instr.Lea _ | Instr.Cmp _ | Instr.Cmp_mem _ -> 1.0
  | Instr.Load _ | Instr.Hload _ | Instr.Pop _ | Instr.Ret -> 1.0
  | Instr.Store _ | Instr.Hstore _ | Instr.Push _ -> 1.0
  | Instr.Rdtsc _ | Instr.Rdmsr _ -> 2.0
  | _ -> 1.0

(* Fast-engine base-cost class — mirrors [Fast_engine.account]. *)
let cost_class_of (i : Instr.t) =
  match i with
  | Instr.Alu (Instr.Mul, _, _) -> Cmul
  | Instr.Alu (Instr.Div, _, _) -> Cdiv
  | Instr.Alu _ | Instr.Mov _ | Instr.Lea _ | Instr.Cmp _ | Instr.Cmp_mem _ -> Calu
  | Instr.Load _ | Instr.Hload _ | Instr.Pop _ -> Cload
  | Instr.Store _ | Instr.Hstore _ | Instr.Push _ -> Cstore
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Jmp_ind _ | Instr.Call _ | Instr.Call_ind _
  | Instr.Ret ->
    Cbranch
  | _ -> Cother

let off_critical_of (i : Instr.t) =
  match i with
  | Instr.Cmp _ | Instr.Cmp_mem _ | Instr.Jcc _ | Instr.Store _ | Instr.Hstore _
  | Instr.Push _ ->
    true
  | _ -> false

(* An instruction ends a basic block when control can leave it
   non-sequentially (branches, calls, returns, syscall redirection, HFI
   transitions that may jump, halt). Traps can end any instruction, but
   the dispatch loop detects those dynamically. *)
let ends_block (i : Instr.t) =
  match i with
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Jmp_ind _ | Instr.Call _ | Instr.Call_ind _
  | Instr.Ret | Instr.Syscall | Instr.Hfi_enter _ | Instr.Hfi_exit | Instr.Hfi_reenter
  | Instr.Halt ->
    true
  | _ -> false

let static_target (i : Instr.t) =
  match i with
  | Instr.Jmp t | Instr.Jcc (_, t) | Instr.Call t -> Some t
  | _ -> None

(* block_last.(i): index of the last instruction of the basic block
   containing instruction i. Leaders are the entry, static branch
   targets, and fallthroughs of block-enders; indirect targets land
   mid-block harmlessly (the dispatch loop just runs a shorter tail). *)
let block_lasts instrs =
  let n = Array.length instrs in
  let leader = Array.make (n + 1) false in
  if n > 0 then leader.(0) <- true;
  for i = 0 to n - 1 do
    (match static_target instrs.(i) with
    | Some t -> if t >= 0 && t <= n then leader.(t) <- true
    | None -> ());
    if ends_block instrs.(i) && i + 1 <= n then leader.(i + 1) <- true
  done;
  let last = Array.make n (n - 1) in
  for i = n - 1 downto 0 do
    if i = n - 1 || ends_block instrs.(i) || leader.(i + 1) then last.(i) <- i
    else last.(i) <- last.(i + 1)
  done;
  last

let decode_fresh prog ~code_base =
  let instrs = Program.instrs prog in
  let lasts = block_lasts instrs in
  Array.mapi
    (fun index ins ->
      {
        op = lower_op ins;
        instr = ins;
        index;
        length = Instr.length ins;
        fetch_addr = code_base + Program.byte_offset prog index;
        reads = Array.of_list (List.map Reg.index (Instr.reads ins));
        writes = Array.of_list (List.map Reg.index (Instr.writes ins));
        off_critical = off_critical_of ins;
        base_serializing = (match ins with Instr.Cpuid | Instr.Mfence -> true | _ -> false);
        is_cpuid = (match ins with Instr.Cpuid -> true | _ -> false);
        latency = latency_of ins;
        cost_class = cost_class_of ins;
        block_last = lasts.(index);
      })
    instrs

(* ------------------------------------------------------------------ *)
(* Read-only control-flow view (for the static verifier).              *)

type flow =
  | Seq
  | Jump of int
  | Cond_jump of int
  | Indirect_jump
  | Direct_call of int
  | Indirect_call
  | Return
  | Syscall_flow
  | Transition_flow
  | Stop

let flow_of u =
  match u.op with
  | Ojmp t -> Jump t
  | Ojcc { target; _ } -> Cond_jump target
  | Ojmp_ind _ -> Indirect_jump
  | Ocall t -> Direct_call t
  | Ocall_ind _ -> Indirect_call
  | Oret -> Return
  | Osyscall -> Syscall_flow
  | Ohfi_enter _ | Ohfi_exit | Ohfi_reenter -> Transition_flow
  | Ohalt -> Stop
  | _ -> Seq

let static_successors uops i =
  let n = Array.length uops in
  let in_range t = t >= 0 && t < n in
  let keep = List.filter in_range in
  match flow_of uops.(i) with
  | Seq | Syscall_flow | Transition_flow -> keep [ i + 1 ]
  | Jump t -> keep [ t ]
  | Cond_jump t -> keep [ t; i + 1 ]
  | Direct_call t -> keep [ t ]
  | Indirect_jump | Indirect_call | Return | Stop -> []

(* i is a leader iff it starts the program or the previous instruction
   closed its block ([block_last] extents and leaders agree by
   construction in [block_lasts]). *)
let is_block_head uops i =
  if i < 0 || i >= Array.length uops then invalid_arg "Uop.is_block_head";
  i = 0 || uops.(i - 1).block_last = i - 1

let block_head uops i =
  if i < 0 || i >= Array.length uops then invalid_arg "Uop.block_head";
  let rec back j = if is_block_head uops j then j else back (j - 1) in
  back i

(* Per-program decode cache, stored on the program itself through
   [Program.set_decoded]'s universal slot. fetch_addr bakes in the code
   base, so the cache is keyed by it (a different base re-decodes). The
   payload is an [exn] so [Program] needs no knowledge of this type. *)
exception Decoded of int * t array

let decode prog ~code_base =
  match Program.decoded prog with
  | Some (Decoded (base, uops)) when base = code_base -> uops
  | _ ->
    let uops = decode_fresh prog ~code_base in
    Program.set_decoded prog (Decoded (code_base, uops));
    uops
